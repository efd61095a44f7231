"""Second-order cone problem data, Lorentz-cone geometry, and arrow-head operators.

A vector on a product of Lorentz cones, x = (x_1; ...; x_r), is stored once,
concatenated: a SocoSolution keeps each part (x, s) as one read-only array,
and a SocoProblem c, and A as one (m, N) matrix; x_blocks, s_blocks, c_blocks
and A_blocks are read-only views of them. BlockLayout.from_dims shares one
layout per cone-dims tuple; its groups hold each cone size's ids and
coordinates, so a kernel gathers the (k, n) stack of a group from the
concatenated vector, works on all k rows at once and scatters its results
back in cone order. Errors name the first failing cone in cone order.

Each cone vector v = (v1, t) is read through one frame (_frame), the only
place its tail dot t @ t is computed, with its head and peak ||v||_inf; a
solution frames each part once, when it is built. One stacked reader
(_arrow_head_read) reads every arrow-head matrix, one alone as a layout of
one block; a SymMatrix keeps its tol-independent read for the last layout,
and a SocoSolution a weak reference to each part's image.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from itertools import accumulate, repeat
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, MissingSolutionPart, NotArrowHead
from .linalg import DEFAULT_TOL, SymMatrix, _checked, _checked_int, _checked_tol, _frozen, _vector


class ConePosition(Enum):
    ZERO = "zero"
    BOUNDARY_NONZERO = "boundary_nonzero"
    INTERIOR = "interior"
    OUTSIDE = "outside"


# Position codes of the stacked kernels, indices into POSITIONS.
POSITIONS = tuple(ConePosition)
ZERO, BOUNDARY, INTERIOR, OUTSIDE = range(4)


class SizeGroup(NamedTuple):
    """The cones of one size n: their ids, ascending, and the (k, n) array of
    their coordinates in the concatenated vector."""

    n: int
    ids: np.ndarray
    at: np.ndarray

    def flat(self, total: int) -> np.ndarray:
        """(k, n, n) positions of the group's diagonal blocks in a flattened
        total x total array."""
        return (self.at * total)[:, :, None] + self.at[:, None, :]


@dataclass(frozen=True)
class BlockLayout:
    """Index bookkeeping for a concatenation of cone blocks."""

    dims: tuple[int, ...]
    offsets: tuple[int, ...]
    total: int

    @classmethod
    def from_dims(cls, dims: Sequence[int]) -> "BlockLayout":
        """The layout of dims, one object for the PINS_CACHED latest dims."""
        try:
            dims = tuple(dims)
        except TypeError:
            raise DimensionMismatch(
                f"cone_dims must be a sequence of integers, got {dims!r}"
            ) from None
        dims = tuple(_checked_int(d, "cone_dims", 1) for d in dims)
        if not dims:
            raise DimensionMismatch("cone_dims must not be empty")
        return _shared_layout(dims)

    def block_slice(self, i: int) -> slice:
        return slice(self.offsets[i], self.offsets[i] + self.dims[i])

    @cached_property
    def groups(self) -> tuple[SizeGroup, ...]:
        """One SizeGroup per distinct cone size, ascending by size."""
        dims, offs = np.asarray(self.dims), np.asarray(self.offsets)
        out = []
        for n in sorted(set(self.dims)):
            ids = np.flatnonzero(dims == n)
            out.append(SizeGroup(n, *_frozen(ids, offs[ids, None] + np.arange(n))))
        return tuple(out)

    def split(self, flat: np.ndarray) -> tuple[np.ndarray, ...]:
        """The per-cone pieces (column blocks of a matrix) of flat, as views."""
        return tuple(flat[..., o:o + n] for o, n in zip(self.offsets, self.dims))

    def assemble(self, stacks: Sequence[np.ndarray]) -> np.ndarray:
        """The block-diagonal total x total array holding the (k, n, n) stack
        of each group, one flat scatter per group."""
        out = np.zeros((self.total, self.total))
        for g, stack in zip(self.groups, stacks):
            out.reshape(-1)[g.flat(self.total)] = stack
        return out

    def lead_rows(self, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each diagonal block's trace, in cone order, and first row, at the
        block's coordinates of a concatenated vector, read out of the square
        total x total array m. A trace is summed per row of the stack of its
        size group, which adds in the order np.trace of the block does."""
        diag = m.diagonal()
        traces = np.empty(len(self.dims))
        for g in self.groups:
            traces[g.ids] = diag[g.at].sum(axis=1)
        return traces, m[np.repeat(self.offsets, self.dims), np.arange(self.total)]

    def cone_max(self, values: np.ndarray) -> np.ndarray:
        """The largest entry of each cone's piece of a concatenated vector."""
        return np.maximum.reduceat(values, self.offsets)

    @property
    def cone_ids(self) -> np.ndarray:
        """The cone owning each coordinate."""
        return np.repeat(np.arange(len(self.dims)), self.dims)

    @cached_property
    def pins(self) -> tuple[np.ndarray, np.ndarray]:
        """Entries the primal embedding pins (0-based, global), as read-only
        int arrays: the (P, 2) upper pairs held at zero, every cross-block
        pair and every within-block off-arrow pair, lexicographic; and the
        non-leading diagonals tied to their block's leading one, ascending.
        """
        cone = self.cone_ids
        is_lead = np.zeros(self.total, dtype=bool)
        is_lead[list(self.offsets)] = True
        h, l = np.triu_indices(self.total, 1)
        pinned = (cone[h] != cone[l]) | ~is_lead[h]
        pairs = np.stack((h[pinned], l[pinned]), axis=1)
        tied = np.flatnonzero(~is_lead)
        return _frozen(pairs, tied)

    def max_off_block(self, m: SymMatrix) -> float:
        """Largest magnitude of m outside the diagonal blocks; 0.0 for one block.

        Clears the diagonal blocks of |m|, one flat scatter per size group.
        """
        if len(self.dims) == 1:
            return 0.0
        off = np.abs(m.a)
        for g in self.groups:
            off.reshape(-1)[g.flat(self.total)] = 0.0
        return float(off.max())


# A layout's pins are O(total^2) entries; a bounded cache shares one layout
# per shape without holding every shape's pins alive.
PINS_CACHED = 16


@lru_cache(maxsize=PINS_CACHED)
def _shared_layout(dims: tuple[int, ...]) -> BlockLayout:
    offsets = tuple(int(x) for x in np.cumsum((0,) + dims[:-1]))
    return BlockLayout(dims, offsets, sum(dims))


def _joined(values, shapes, name: str) -> tuple[np.ndarray, tuple[int, ...]]:
    """values through _checked, joined along their last axis into one new
    read-only array (no caller's array is kept), and their lengths on it."""
    values = _checked(values, shapes, name)
    joined = np.concatenate(values, axis=-1) if values else np.empty(0)
    return _frozen(joined)[0], tuple(v.shape[-1] for v in values)


@dataclass(frozen=True, eq=False)
class SocoProblem:
    """min sum_i <c_i, x_i>  s.t.  sum_i A_i x_i = b,  each x_i in a Lorentz cone.

    c is kept as one vector (_c), A as one (m, N) matrix (_A); c_blocks and
    A_blocks are their per-cone views."""

    cone_dims: tuple[int, ...]
    A_blocks: tuple[np.ndarray, ...]
    c_blocks: tuple[np.ndarray, ...]
    b: np.ndarray

    def __post_init__(self):
        layout = BlockLayout.from_dims(self.cone_dims)
        object.__setattr__(self, "cone_dims", layout.dims)
        object.__setattr__(self, "_layout", layout)
        (b,) = _checked((self.b,), ((None,),), "b")
        m = b.shape[0]
        if len(self.A_blocks) != len(layout.dims) or len(self.c_blocks) != len(layout.dims):
            raise DimensionMismatch("A and c must have one block per cone")
        A, _ = _joined(self.A_blocks, [(m, n) for n in layout.dims], "A block {}")
        c, _ = _joined(self.c_blocks, [(n,) for n in layout.dims], "c block {}")
        for name, value in (("_A", A), ("_c", c), ("A_blocks", layout.split(A)),
                            ("c_blocks", layout.split(c)), ("b", b)):
            object.__setattr__(self, name, value)

    def __reduce__(self):  # rebuilt, so that the blocks view one read-only array again
        return SocoProblem, (self.cone_dims, self.A_blocks, self.c_blocks, self.b)

    @property
    def r(self) -> int:
        return len(self.cone_dims)

    @property
    def m(self) -> int:
        return self.b.shape[0]

    @property
    def total_dim(self) -> int:
        return int(sum(self.cone_dims))

    @property
    def layout(self) -> BlockLayout:
        """The layout of cone_dims, built once with the problem."""
        return self._layout


class _Part(NamedTuple):
    """One part (x or s) of a solution: its blocks as one read-only array
    (flat), their views of it, their lengths, and their frame in cone order
    (None unless every block is nonempty); inverse_map hands these over."""

    flat: np.ndarray
    blocks: tuple[np.ndarray, ...]
    dims: tuple[int, ...]
    frame: Optional[_Frame]


def _part(flat: np.ndarray, dims: tuple[int, ...]) -> _Part:
    """The part of the read-only vector flat, cut into blocks of dims, framed."""
    frame = _cone_frame(_shared_layout(dims), flat) if dims and min(dims) else None
    return _Part(flat, tuple(flat[e - n:e] for n, e in zip(dims, accumulate(dims))), dims,
                 frame and _Frame(*_frozen(*frame)))


@dataclass(frozen=True, eq=False)
class SocoSolution:
    """Primal blocks, dual multipliers, slack blocks; any part may be absent.

    Each present part of x and s is one _Part (_parts, by field name). Its
    block arrow-head image, once made, is shared by every later request for
    it while anyone holds it: the solution keeps only a weak reference
    (_images), so it never keeps an n x n matrix alive."""

    x_blocks: Optional[tuple[np.ndarray, ...]] = None
    y: Optional[np.ndarray] = None
    s_blocks: Optional[tuple[np.ndarray, ...]] = None

    def __post_init__(self):
        parts = {}
        for name in ("x_blocks", "s_blocks"):
            part = getattr(self, name)
            if part is not None:
                if not isinstance(part, _Part):
                    part = _part(*_joined(part, repeat((None,)), name + "[{}]"))
                parts[name] = part
                object.__setattr__(self, name, part.blocks)
        if self.y is not None:
            object.__setattr__(self, "y", _checked((self.y,), ((None,),), "y")[0])
        object.__setattr__(self, "_parts", parts)
        object.__setattr__(self, "_images", {})

    def __reduce__(self):  # rebuilt: one storage again, and no weak reference to pickle
        return SocoSolution, (self.x_blocks, self.y, self.s_blocks)

    def _arrow_head_image(self, name: str, layout: BlockLayout) -> SymMatrix:
        """block_arrow_head of the part name ("x_blocks" or "s_blocks"), whose
        blocks must match layout: the image made before if it is still alive,
        else a new one."""
        ref = self._images.get(name)
        image = None if ref is None else ref()
        if image is None:
            image = _arrow_head_matrix(layout, self._parts[name].flat)
            self._images[name] = weakref.ref(image)
        return image

    def validate_against(self, problem: SocoProblem) -> None:
        for name in ("x", "s"):
            part = self._parts.get(name + "_blocks")
            if part is None or part.dims == problem.cone_dims:
                continue
            if len(part.dims) != problem.r:
                raise DimensionMismatch(f"{name} has {len(part.dims)} blocks, expected {problem.r}")
            i = next(k for k, (a, b) in enumerate(zip(part.dims, problem.cone_dims)) if a != b)
            raise DimensionMismatch(f"{name} block {i} has length {part.dims[i]}, "
                                    f"expected {problem.cone_dims[i]}")
        if self.y is not None and self.y.shape[0] != problem.m:
            raise DimensionMismatch(f"y has length {self.y.shape[0]}, expected {problem.m}")


def arrow_head(v) -> SymMatrix:
    """Arrow-head matrix [[v1, t^T], [t, v1*I]] with t = v[1:]."""
    return block_arrow_head([_vector(v, "v")])


def block_arrow_head(
    blocks: Sequence[np.ndarray], head_div=1.0, tail_div: float = 1.0
) -> SymMatrix:
    """Block-diagonal arrow-head matrix of the per-cone vectors
    (v1 / head_div[i], v[1:] / tail_div), with head_div and tail_div as in
    arrow_head_triplets: the dense matrix of its entries. Symmetry is
    checked once, on the whole matrix."""
    vectors = [_vector(v, f"blocks[{k}]") for k, v in enumerate(blocks)]
    layout = BlockLayout.from_dims([v.shape[0] for v in vectors])
    return _arrow_head_matrix(layout, np.concatenate(vectors), head_div, tail_div)


def _arrow_head_matrix(
    layout: BlockLayout, flat: np.ndarray, head_div=1.0, tail_div: float = 1.0
) -> SymMatrix:
    """block_arrow_head of the concatenated vector flat, known to match
    layout, the blocks of one size built as one (k, n, n) stack."""
    heads = np.broadcast_to(np.asarray(head_div, dtype=float), (len(layout.dims),))
    stacks = []
    for g in layout.groups:
        v = flat[g.at]
        head = v[:, 0] / heads[g.ids]
        stack = np.zeros((len(g.ids), g.n, g.n))
        stack[:, 0, 1:] = stack[:, 1:, 0] = v[:, 1:] / tail_div
        diag = np.arange(g.n)
        stack[:, diag, diag] = head[:, None]
        stacks.append(stack)
    return SymMatrix(layout.assemble(stacks))


def block_arrow_head_inv(
    m: SymMatrix, layout: BlockLayout, tol: float = DEFAULT_TOL
) -> tuple[np.ndarray, ...]:
    """Inverse of block_arrow_head: the per-cone vectors of m, read-only.
    Entries outside the diagonal blocks must vanish within tol, and in each
    block the off-arrow entries must vanish and the trailing diagonal entries
    equal the leading one, within tol; otherwise NotArrowHead reports the
    worst violation. A single arrow-head matrix is read on a layout of one
    block."""
    tol = _checked_tol(tol)
    if m.dim != layout.total:
        raise DimensionMismatch(f"m has dim {m.dim}, expected {layout.total}")
    return layout.split(_arrow_head_rows(m, layout, tol))


def _arrow_head_rows(m: SymMatrix, layout: BlockLayout, tol: float) -> np.ndarray:
    """block_arrow_head_inv's vectors, concatenated, for an m of the layout's
    size. The read does not depend on tol (_arrow_head_read); m keeps it for
    the last layout asked (_arrow_read), so repeated inverses of one matrix
    read it once, and each call compares it with its own tol: the off-block
    magnitude first, then the first block in cone order whose worst deviation
    exceeds tol, named at the entry the read recorded."""
    read = m._arrow_read
    if read is None or read[0] != layout:
        read = m._arrow_read = (layout, *_arrow_head_read(m, layout))
    _, stray, worst, entry, rows = read
    if stray > tol:
        raise NotArrowHead(stray, "off-block entry")
    bad = np.flatnonzero(worst > tol)
    if bad.size:
        b = int(bad[0])
        i, j = divmod(int(entry[b]), layout.dims[b] - 1)
        raise NotArrowHead(worst[b], f"{'diagonal' if i == j else 'off-arrow'} ({i + 1},{j + 1})")
    return rows


def _arrow_head_read(m: SymMatrix, layout: BlockLayout) -> tuple:
    """The largest magnitude of m outside the diagonal blocks of layout; per
    block (the blocks of one size at once), its worst arrow-head deviation
    and the first entry that attains it, as a flat index into the block's
    trailing (n-1) x (n-1) part: a trailing diagonal entry before an
    off-arrow one on a tie, the first in row-major order within a kind; and
    the first block rows, read-only."""
    stray, a = layout.max_off_block(m), m.a
    worst = np.zeros(len(layout.dims))
    entry = np.zeros(len(layout.dims), dtype=int)
    for g in layout.groups:
        if g.n == 1:
            continue
        stack = a.take(g.flat(layout.total))
        diag = np.abs(np.diagonal(stack, axis1=1, axis2=2)[:, 1:] - stack[:, :1, 0])
        off_arrow = np.abs(stack[:, 1:, 1:]) * np.triu(np.ones((g.n - 1, g.n - 1)), 1)
        off_arrow = off_arrow.reshape(len(g.ids), -1)
        on_diag, off = diag.max(axis=1), off_arrow.max(axis=1)
        worst[g.ids] = np.maximum(on_diag, off)
        entry[g.ids] = np.where(off > on_diag, off_arrow.argmax(axis=1), diag.argmax(axis=1) * g.n)
    _, rows = layout.lead_rows(a)
    rows.setflags(write=False)
    return stray, worst, entry, rows


def arrow_head_triplets(
    data: np.ndarray, layout: BlockLayout, head_div, tail_div: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Upper-triangle triplets (row, i, j, v) of one block-diagonal arrow-head
    matrix per row of the (m, N) float array data (a SocoProblem's _A, or _c
    as one row), cut into blocks b by the layout.

    Row k is the block arrow-head of the vectors (head / head_div[b],
    tail / tail_div) of its blocks; head_div may be one number for every
    block. Each block of dim n contributes its lead row (n entries) and then
    its n - 1 trailing diagonal entries, so the triplets come sorted by
    (row, i, j). Zero values are kept.
    """
    dims, offs = np.asarray(layout.dims), np.asarray(layout.offsets)
    r = dims.shape[0]
    heads = np.broadcast_to(np.asarray(head_div, dtype=float), (r,))
    # every value, leads first: data[:, offs] / heads, then data / tail_div,
    # whose lead columns go unused
    values = np.concatenate((data[:, offs] / heads, data / tail_div), axis=1)
    # position p within each block's 2n - 1 triplets: its lead row for p < n,
    # then its trailing diagonal
    count = 2 * dims - 1
    cone = np.repeat(np.arange(r), count)
    p = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
    n, off = dims[cone], offs[cone]
    lead_row = p < n
    ii = np.where(lead_row, off, off + p - n + 1)
    jj = np.where(lead_row, off + p, ii)
    src = np.where(lead_row & (p > 0), r + off + p, cone)
    v = values[:, src]
    m, width = v.shape
    return (
        np.repeat(np.arange(m), width),
        np.tile(ii, m),
        np.tile(jj, m),
        v.ravel(),
    )


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The dot product of each row pair of two (k, n) stacks. Each row is one
    1 x n by n x 1 product, which gives the bits of the vector dot a[i] @ b[i]
    and so of np.linalg.norm(a[i]) under a square root; a sum over the axis
    rounds differently."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _jordan_rows(x: np.ndarray, s: np.ndarray) -> np.ndarray:
    """jordan_product of each row pair of two (k, n) stacks."""
    out = np.empty(x.shape)
    out[:, 0] = _row_dots(x, s)
    out[:, 1:] = x[:, :1] * s[:, 1:] + s[:, :1] * x[:, 1:]
    return out


def jordan_product(x, s) -> np.ndarray:
    """Jordan product (x^T s; x1*s[1:] + s1*x[1:]) on one cone block."""
    x = _vector(x, "x")
    (s,) = _checked((s,), (x.shape,), "s")
    return _jordan_rows(x[None], s[None])[0]


class _Frame(NamedTuple):
    """Per cone vector v = (v1, t): head v1, tail dot t @ t, peak ||v||_inf."""

    head: np.ndarray
    tt: np.ndarray
    peak: np.ndarray


def _frame(stack: np.ndarray) -> _Frame:
    """The frame of each row of a (k, n) stack of cone vectors, the only
    place a tail dot is computed. Each tail dot is one _row_dots row, with
    the bits of the vector dot t @ t."""
    tail = stack[:, 1:]
    return _Frame(stack[:, 0], _row_dots(tail, tail), np.abs(stack).max(axis=1))


def _cone_frame(layout: BlockLayout, flat: np.ndarray) -> _Frame:
    """_frame of every cone of the concatenated vector flat, in cone order,
    the cones of one size as one stack."""
    if len(layout.groups) == 1:
        return _frame(flat[layout.groups[0].at])
    r = len(layout.dims)
    out = _Frame(np.empty(r), np.empty(r), np.empty(r))
    for g in layout.groups:
        for field, values in zip(out, _frame(flat[g.at])):
            field[g.ids] = values
    return out


def _position_codes(frame: _Frame, tol: float) -> list[int]:
    """cone_position of each vector of a frame, in the frame's order (cone
    order for a _cone_frame), as codes into POSITIONS. The square roots and
    the comparisons that pick each code are made on Python floats, which
    costs less than the array operations they would take, up to a few dozen
    vectors. The vectors must be finite."""
    codes = []
    for peak, head, dot in zip(frame.peak.tolist(), frame.head.tolist(), frame.tt.tolist()):
        margin = head - math.sqrt(dot)
        band = tol * (1.0 + peak)
        if peak <= tol:
            codes.append(ZERO)
        elif margin > band:
            codes.append(INTERIOR)
        elif abs(margin) <= band and head > tol:
            codes.append(BOUNDARY)
        else:
            codes.append(OUTSIDE)
    return codes


def cone_position(v, tol: float = DEFAULT_TOL) -> ConePosition:
    """Locate v relative to its Lorentz cone.

    Zero when ||v||_inf <= tol; otherwise the margin v1 - ||v[1:]|| is compared
    against tol scaled by (1 + ||v||_inf). NotFinite on a NaN or an infinite
    entry.
    """
    v, tol = _vector(v, "v"), _checked_tol(tol)
    return POSITIONS[_position_codes(_frame(v[None]), tol)[0]]


def primal_residual(problem: SocoProblem, sol: SocoSolution) -> float:
    """Infinity norm of sum_i A_i x_i - b."""
    if sol.x_blocks is None:
        raise MissingSolutionPart("primal residual needs x blocks")
    sol.validate_against(problem)
    acc = -problem.b.copy()
    for a, x in zip(problem.A_blocks, sol.x_blocks):
        acc += a @ x
    return float(np.abs(acc).max())


def dual_residual(problem: SocoProblem, sol: SocoSolution) -> float:
    """Max over blocks of || A_i^T y + s_i - c_i ||_inf."""
    if sol.y is None or sol.s_blocks is None:
        raise MissingSolutionPart("dual residual needs y and s blocks")
    sol.validate_against(problem)
    return float(np.abs(_adjoint(problem, sol.y) + sol._parts["s_blocks"].flat - problem._c).max())


def _adjoint(problem: SocoProblem, v: np.ndarray) -> np.ndarray:
    """A^T v in cone order. The A blocks of one size form one contiguous
    (k, m, n) stack, so each block's product has the bits of a contiguous
    A_i^T v alone; the concatenated A, or the strided view A_blocks[i], rounds
    differently."""
    out = np.empty(problem.total_dim)
    for g in problem.layout.groups:
        A = np.ascontiguousarray(problem._A[:, g.at].transpose(1, 0, 2))
        out[g.at] = A.transpose(0, 2, 1) @ v
    return out
