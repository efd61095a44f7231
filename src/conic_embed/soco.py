"""Second-order cone problem data, Lorentz-cone geometry, and arrow-head operators.

Vectors attached to a product of Lorentz cones are always carried as explicit
per-block lists; flattening into one long vector is an explicit serialization
concern, never implicit.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, MissingSolutionPart, NotArrowHead
from .linalg import DEFAULT_TOL, SymMatrix, _require_finite


class ConePosition(Enum):
    ZERO = "zero"
    BOUNDARY_NONZERO = "boundary_nonzero"
    INTERIOR = "interior"
    OUTSIDE = "outside"


@dataclass(frozen=True)
class BlockLayout:
    """Index bookkeeping for a concatenation of cone blocks."""

    dims: tuple[int, ...]
    offsets: tuple[int, ...]
    total: int

    @classmethod
    def from_dims(cls, dims: Sequence[int]) -> "BlockLayout":
        dims = tuple(int(d) for d in dims)
        if not dims or any(d < 1 for d in dims):
            raise DimensionMismatch(f"cone dimensions must be positive, got {dims}")
        offsets = tuple(int(x) for x in np.cumsum((0,) + dims[:-1]))
        return cls(dims, offsets, sum(dims))

    def block_slice(self, i: int) -> slice:
        return slice(self.offsets[i], self.offsets[i] + self.dims[i])

    @property
    def cone_ids(self) -> np.ndarray:
        """The cone owning each coordinate."""
        return np.repeat(np.arange(len(self.dims)), self.dims)

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
        for a in (pairs, tied):
            a.setflags(write=False)
        return pairs, tied

    def max_off_block(self, m: SymMatrix) -> float:
        """Largest magnitude of m outside the diagonal blocks; 0.0 for one block.

        Reads the rows of each block to the right of it, which holds every
        off-block value because m is symmetric.
        """
        worst = 0.0
        for off, dim in zip(self.offsets, self.dims):
            end = off + dim
            if end < self.total:
                worst = max(worst, float(np.abs(m.a[off:end, end:]).max()))
        return worst


def _frozen_vector(v, length: int | None = None, what: str = "vector") -> np.ndarray:
    a = np.array(v, dtype=float)
    if a.ndim != 1:
        raise DimensionMismatch(f"{what} must be one-dimensional, got shape {a.shape}")
    if length is not None and a.shape[0] != length:
        raise DimensionMismatch(f"{what} has length {a.shape[0]}, expected {length}")
    _require_finite(a, what)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class SocoProblem:
    """min sum_i <c_i, x_i>  s.t.  sum_i A_i x_i = b,  each x_i in a Lorentz cone."""

    cone_dims: tuple[int, ...]
    A_blocks: tuple[np.ndarray, ...]
    c_blocks: tuple[np.ndarray, ...]
    b: np.ndarray

    def __post_init__(self):
        layout = BlockLayout.from_dims(self.cone_dims)
        object.__setattr__(self, "cone_dims", layout.dims)
        b = _frozen_vector(self.b, what="b")
        m = b.shape[0]
        if len(self.A_blocks) != len(layout.dims) or len(self.c_blocks) != len(layout.dims):
            raise DimensionMismatch("A and c must have one block per cone")
        A = []
        for i, blk in enumerate(self.A_blocks):
            a = np.array(blk, dtype=float)
            if a.shape != (m, layout.dims[i]):
                raise DimensionMismatch(
                    f"A block {i} has shape {a.shape}, expected {(m, layout.dims[i])}"
                )
            _require_finite(a, f"A block {i}")
            a.setflags(write=False)
            A.append(a)
        c = [_frozen_vector(blk, layout.dims[i], f"c block {i}") for i, blk in enumerate(self.c_blocks)]
        object.__setattr__(self, "A_blocks", tuple(A))
        object.__setattr__(self, "c_blocks", tuple(c))
        object.__setattr__(self, "b", b)

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
        return BlockLayout.from_dims(self.cone_dims)


@dataclass(frozen=True, eq=False)
class SocoSolution:
    """Primal blocks, dual multipliers, slack blocks; any part may be absent."""

    x_blocks: Optional[tuple[np.ndarray, ...]] = None
    y: Optional[np.ndarray] = None
    s_blocks: Optional[tuple[np.ndarray, ...]] = None

    def __post_init__(self):
        for name in ("x_blocks", "s_blocks"):
            blocks = getattr(self, name)
            if blocks is not None:
                object.__setattr__(
                    self, name,
                    tuple(_frozen_vector(v, what=f"{name}[{i}]") for i, v in enumerate(blocks)),
                )
        if self.y is not None:
            object.__setattr__(self, "y", _frozen_vector(self.y, what="y"))

    def validate_against(self, problem: SocoProblem) -> None:
        for name, blocks in (("x", self.x_blocks), ("s", self.s_blocks)):
            if blocks is None:
                continue
            if len(blocks) != problem.r:
                raise DimensionMismatch(f"{name} has {len(blocks)} blocks, expected {problem.r}")
            for i, v in enumerate(blocks):
                if v.shape[0] != problem.cone_dims[i]:
                    raise DimensionMismatch(
                        f"{name} block {i} has length {v.shape[0]}, expected {problem.cone_dims[i]}"
                    )
        if self.y is not None and self.y.shape[0] != problem.m:
            raise DimensionMismatch(f"y has length {self.y.shape[0]}, expected {problem.m}")


def arrow_head(v) -> SymMatrix:
    """Arrow-head matrix [[v1, t^T], [t, v1*I]] with t = v[1:]."""
    return block_arrow_head([v])


def arrow_head_inv(m: SymMatrix, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Read the vector back out of an arrow-head matrix.

    Off-arrow entries must vanish and trailing diagonal entries must equal the
    leading one, all within tol; otherwise NotArrowHead reports the worst
    violation.
    """
    return _arrow_head_vector(m.a, tol)


def _arrow_head_vector(a: np.ndarray, tol: float) -> np.ndarray:
    """arrow_head_inv on a square array already known symmetric and finite.

    The worst violation is the first largest deviation, trailing diagonal
    entries before off-arrow ones on a tie.
    """
    n = a.shape[0]
    worst = 0.0
    where = ""
    if n > 1:
        dev = np.abs(a.diagonal()[1:] - a[0, 0])
        j = int(np.argmax(dev))
        if dev[j] > worst:
            worst, where = float(dev[j]), f"diagonal ({j + 1},{j + 1})"
    if n > 2:
        tri = np.triu(np.abs(a[1:, 1:]), 1)
        k = int(np.argmax(tri))
        dev = float(tri.flat[k])
        if dev > worst:
            i, j = divmod(k, n - 1)
            worst, where = dev, f"off-arrow ({i + 1},{j + 1})"
    if worst > tol:
        raise NotArrowHead(worst, where)
    return np.concatenate(([a[0, 0]], a[0, 1:]))


def block_arrow_head(
    blocks: Sequence[np.ndarray], head_div=1.0, tail_div: float = 1.0
) -> SymMatrix:
    """Block-diagonal arrow-head matrix of the per-cone vectors
    (v1 / head_div[i], v[1:] / tail_div), with head_div and tail_div as in
    arrow_head_triplets, whose entries it scatters into one dense array.
    Finiteness and symmetry are checked once, on the whole matrix."""
    vectors = [np.asarray(v, dtype=float) for v in blocks]
    for v in vectors:
        if v.ndim != 1 or v.shape[0] < 1:
            raise DimensionMismatch(f"arrow_head needs a nonempty vector, got shape {v.shape}")
    layout = BlockLayout.from_dims([v.shape[0] for v in vectors])
    rows = [v[None, :] for v in vectors]
    _, i, j, vals = arrow_head_triplets(rows, layout, head_div, tail_div)
    m = np.zeros((layout.total, layout.total))
    m[i, j] = vals
    m[j, i] = vals
    return SymMatrix(m)


def block_arrow_head_inv(
    m: SymMatrix, layout: BlockLayout, tol: float = DEFAULT_TOL
) -> tuple[np.ndarray, ...]:
    """Inverse of block_arrow_head: the per-cone vectors of m. Entries outside
    the diagonal blocks must vanish within tol, and each block must pass
    arrow_head_inv; otherwise NotArrowHead reports the worst violation."""
    stray = layout.max_off_block(m)
    if stray > tol:
        raise NotArrowHead(stray, "off-block entry")
    a = m.a
    dims, offs = np.asarray(layout.dims), np.asarray(layout.offsets)
    # the worst deviation of every block, the blocks of one size at once
    worst = np.zeros(dims.shape[0])
    for n in set(layout.dims) - {1}:
        ids = np.flatnonzero(dims == n)
        at = offs[ids, None] + np.arange(n)
        stack = a[at[:, :, None], at[:, None, :]]
        diag = np.abs(np.diagonal(stack, axis1=1, axis2=2)[:, 1:] - stack[:, :1, 0])
        off_arrow = np.abs(stack[:, 1:, 1:]) * np.triu(np.ones((n - 1, n - 1)), 1)
        worst[ids] = np.maximum(diag.max(axis=1), off_arrow.max(axis=(1, 2)))
    bad = np.flatnonzero(worst > tol)
    if bad.size:
        sl = layout.block_slice(int(bad[0]))
        _arrow_head_vector(a[sl, sl], tol)  # raises with that block's worst violation
    return tuple(a[o, o:o + n].copy() for o, n in zip(layout.offsets, layout.dims))


def arrow_head_triplets(
    blocks: Sequence[np.ndarray], layout: BlockLayout, head_div, tail_div: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Upper-triangle triplets (row, i, j, v) of one block-diagonal arrow-head
    matrix per row of the (m, n_i) blocks.

    Row k is the block arrow-head of the vectors
    (blocks[b][k, 0] / head_div[b], blocks[b][k, 1:] / tail_div); head_div may
    be one number for every block. Each block of dim n contributes its lead row
    (n entries) and then its n - 1 trailing diagonal entries, so the triplets
    come sorted by (row, i, j). Zero values are kept.
    """
    dims, offs = np.asarray(layout.dims), np.asarray(layout.offsets)
    r = dims.shape[0]
    heads = np.broadcast_to(np.asarray(head_div, dtype=float), (r,))
    data = np.concatenate([np.asarray(blk, dtype=float) for blk in blocks], axis=1)
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


def jordan_product(x, s) -> np.ndarray:
    """Jordan product (x^T s; x1*s[1:] + s1*x[1:]) on one cone block."""
    x = np.asarray(x, dtype=float)
    s = np.asarray(s, dtype=float)
    if x.shape != s.shape or x.ndim != 1:
        raise DimensionMismatch(f"operands differ in shape: {x.shape} vs {s.shape}")
    return np.concatenate(([float(x @ s)], x[0] * s[1:] + s[0] * x[1:]))


def cone_position(v, tol: float = DEFAULT_TOL) -> ConePosition:
    """Locate v relative to its Lorentz cone.

    Zero when ||v||_inf <= tol; otherwise the margin v1 - ||v[1:]|| is compared
    against tol scaled by (1 + ||v||_inf).
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.shape[0] < 1:
        raise DimensionMismatch(f"cone_position needs a nonempty vector, got shape {v.shape}")
    peak = float(np.abs(v).max())
    if peak <= tol:
        return ConePosition.ZERO
    margin = float(v[0]) - float(np.linalg.norm(v[1:]))
    band = tol * (1.0 + peak)
    if margin > band:
        return ConePosition.INTERIOR
    if abs(margin) <= band and v[0] > tol:
        return ConePosition.BOUNDARY_NONZERO
    return ConePosition.OUTSIDE


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
    worst = 0.0
    for a, s, c in zip(problem.A_blocks, sol.s_blocks, problem.c_blocks):
        worst = max(worst, float(np.abs(a.T @ sol.y + s - c).max()))
    return worst


def duality_gap(problem: SocoProblem, sol: SocoSolution) -> float:
    """Signed gap c^T x - b^T y."""
    if sol.x_blocks is None or sol.y is None:
        raise MissingSolutionPart("duality gap needs x blocks and y")
    sol.validate_against(problem)
    cx = sum(float(c @ x) for c, x in zip(problem.c_blocks, sol.x_blocks))
    return cx - float(problem.b @ sol.y)
