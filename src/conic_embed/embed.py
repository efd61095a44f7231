"""Both embeddings of a SOCO problem into an SDO problem, and the solution
transport between them in both directions.

Each side's embedding lifts one of (x, s) by a theta-block and carries the
other as its block arrow-head; sdo.lifted_part says which:
- dual side: the data become arrow-head matrices, b is unchanged; the dual
  vector is y;
- primal side: the data rows spread each leading coefficient over the block
  diagonal (scale 1/n_i) and halve the off-leading coefficients, so Tr of a
  row against an arrow-head X reproduces the original inner product.
  Structural rows then force X's off-arrow entries to zero and tie every
  non-leading diagonal entry to its block's leading one; which entries they
  pin follows from the cone dimensions alone (BlockLayout.pins). The dual
  vector is (y | w | u): the original multipliers, one w per pinned pair,
  one u per tied diagonal, in that order.

A cone vector x with x1 >= ||x[1:]|| lifts to a PSD block M constrained by
sum(diag(M)) = x1 and M[0, j] = x_j / 2. Those two conditions leave rank
freedom on cone-interior vectors. Every choice is one theta-block and picks
only theta and the diagonal subset that receives the trace the leading factor
leaves over:
- RankOne: theta = 2 (x1 + delta), no subset; rank one;
- SimZhao: the Sim-Zhao theta, subset 2..n; the rank that tracks the cone
  position (n inside, one on the boundary);
- RankK(k): the Sim-Zhao theta, k - 1 indices; rank k on interior vectors;
- FullRank: SimZhao behind an interior gate; rank n.
A one-dimensional cone has no rank freedom and maps to [[x1]] under every
choice (FullRank only on interior x1); the origin maps to the zero block.

One kernel makes every lifted block, map_block's and map_solution's on both
sides alike (_transport): it checks each cone's choice against its position
in a plain loop, in cone order, so that the first failing cone raises, and
then builds the theta-blocks of all cones of one size as one (k, n, n) stack,
scattered into the assembled matrix at once. inverse_map reads the traces and
first rows of all lifted blocks of one size the same way, and gates the
lifted matrix with linalg._psd_within: one batched Cholesky per block size
certifies lambda_min >= -tol, and eigh decides only what that leaves open.
The positions and the theta of the cones come from the frame each solution
part made when it was built (soco._part), and the carried side is the
solution's shared arrow-head image (SocoSolution._arrow_head_image), read
once per matrix by the one stacked arrow-head reader (soco._arrow_head_rows).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import (
    BadSubset,
    DimensionMismatch,
    InconsistentDual,
    NotInterior,
    NotPSD,
    OutsideCone,
    TemplateViolation,
)
from .linalg import DEFAULT_TOL, SparseRows, SparseSym, SymMatrix
from .linalg import _checked_int, _checked_tol, _frozen, _psd_within, _vector
from .sdo import EmbeddingMeta, SdoProblem, SdoSolution, Side, _of_type, lifted_part
from .soco import (
    INTERIOR,
    OUTSIDE,
    ZERO,
    BlockLayout,
    SocoProblem,
    SocoSolution,
    _Frame,
    _Part,
    _adjoint,
    _arrow_head_rows,
    _cone_frame,
    _frame,
    _joined,
    _part,
    _position_codes,
    arrow_head_triplets,
)

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class RankOne:
    """Rank-one block transport."""


@dataclass(frozen=True)
class SimZhao:
    """Sim-Zhao closed-form transport; full rank inside the cone, rank one on
    the boundary, zero at the origin."""


@dataclass(frozen=True)
class RankK:
    """Prescribed-rank transport on cone-interior vectors.

    subset holds the 1-based coordinate indices (within {2..n}) receiving the
    extra diagonal mass; it must have k - 1 elements and defaults to 2..k.
    """

    k: int
    subset: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        object.__setattr__(self, "k", _checked_int(self.k, "k", 1, BadSubset))
        if self.subset is not None:
            subset = (_checked_int(j, "subset index", error=BadSubset) for j in self.subset)
            object.__setattr__(self, "subset", tuple(sorted(subset)))


@dataclass(frozen=True)
class FullRank:
    """Full-rank transport: the Sim-Zhao block behind an interior gate, so a
    boundary or zero vector is refused instead of mapped at lower rank."""


ConeRankChoice = Union[RankOne, SimZhao, RankK, FullRank]
RankSpecLike = Union[ConeRankChoice, Sequence[ConeRankChoice]]
_CHOICES = (RankOne, SimZhao, RankK, FullRank)


def per_cone_choices(spec: RankSpecLike, r: int) -> tuple[ConeRankChoice, ...]:
    """Broadcast a single choice over r cones, or validate a per-cone list."""
    if isinstance(spec, _CHOICES):
        return (spec,) * r
    choices = tuple(spec)
    if len(choices) != r:
        raise DimensionMismatch(f"rank spec lists {len(choices)} cones, expected {r}")
    return choices


def build_dual_embedding(problem: SocoProblem) -> SdoProblem:
    """Arrow-head image of the data: C and each constraint row become
    block-diagonal arrow-head matrices; b is unchanged."""
    layout = problem.layout
    # c as one row: C's triplets, divided as the rows are
    C = SparseSym(layout.total, *arrow_head_triplets(problem._c[None], layout, 1.0, 1.0)[1:])
    rows = SparseRows(layout.total, problem.m, *arrow_head_triplets(problem._A, layout, 1.0, 1.0))
    meta = EmbeddingMeta(Side.DUAL, problem.cone_dims, m_original=problem.m)
    return SdoProblem(layout.total, C, rows, problem.b, meta)


def build_primal_embedding(problem: SocoProblem) -> SdoProblem:
    """Scaled data rows, then pinned-pair rows, then tied-diagonal rows.

    Row order: the m data rows; one row per zero pair, lexicographic; one row
    per tied diagonal, ascending. b is zero-padded to match.
    """
    layout = problem.layout
    m = problem.m
    pairs, tied = layout.pins
    scale = (layout.dims, 2.0)  # divisors of each block's head and tail
    C = SparseSym(layout.total, *arrow_head_triplets(problem._c[None], layout, *scale)[1:])
    row, i, j, v = arrow_head_triplets(problem._A, layout, *scale)
    # a tied row holds +1 at its block's leading diagonal and -1 at its own
    lead_tied = np.stack((np.asarray(layout.offsets)[layout.cone_ids[tied]], tied), axis=1).ravel()
    n_pairs, n_tied = len(pairs), len(tied)
    rows = SparseRows(
        layout.total,
        m + n_pairs + n_tied,
        np.concatenate(
            (row, m + np.arange(n_pairs), m + n_pairs + np.repeat(np.arange(n_tied), 2))
        ),
        np.concatenate((i, pairs[:, 0], lead_tied)),
        np.concatenate((j, pairs[:, 1], lead_tied)),
        np.concatenate((v, np.ones(n_pairs), np.tile([1.0, -1.0], n_tied))),
    )
    b = np.concatenate([problem.b, np.zeros(n_pairs + n_tied)])
    return SdoProblem(layout.total, C, rows, b, EmbeddingMeta(Side.PRIMAL, problem.cone_dims, m))


def _theta_one(head: float, tt: float) -> float:
    """theta = 2 (x1 + delta) with delta = sqrt(x1^2 - ||x[1:]||^2), from the
    head x1 and the tail's dot product tt: the rank-one member of the family.
    When the squared margin is below the floating-point noise floor, delta is
    snapped to zero: on the boundary its computed value is pure cancellation
    noise, and the snap keeps the rank-one block equal to the closed-form one
    there."""
    margin2 = head * head - tt
    delta = 0.0 if margin2 <= 4.0 * _EPS * head * head else math.sqrt(margin2)
    return 2.0 * (head + delta)


def _sim_zhao_theta(head: float, tt: float) -> tuple[float, float]:
    """theta = x1 + rho + sqrt((x1 + rho)^2 - 4 rho^2), rho = ||x[1:]||, and the
    trace x1 - rho that the leading factor leaves to the diagonal, from the
    head x1 and the tail's dot product tt."""
    rho = math.sqrt(tt)
    return head + rho + math.sqrt(max((head + rho) ** 2 - 4.0 * (rho * rho), 0.0)), head - rho


def _rank_k_subset(choice: RankK, n: int) -> tuple[int, ...]:
    """The k - 1 bump indices of a RankK choice on a block of size n >= 2."""
    if choice.k > n:  # RankK itself refuses k < 1
        raise BadSubset(f"rank {choice.k} impossible for a block of size {n}")
    subset = choice.subset
    if subset is None:
        return tuple(range(2, choice.k + 1))
    if len(subset) != choice.k - 1:
        raise BadSubset(f"subset {subset} has {len(subset)} indices, expected {choice.k - 1}")
    if len(set(subset)) != len(subset) or any(j < 2 or j > n for j in subset):
        raise BadSubset(f"subset {subset} must consist of distinct indices in 2..{n}")
    return subset


def _gate(x: np.ndarray, choice: ConeRankChoice, pos: int) -> Optional[tuple[int, ...]]:
    """Check one cone's choice against its position code, in this order: the
    choice's type (TypeError), a RankK subset (BadSubset), FullRank's interior
    gate (NotInterior), the cone (OutsideCone), then RankK's rank against the
    position. Returns the bump subset of the cone's theta-block: () for the
    rank-one block, None for the whole tail."""
    n = x.shape[0]
    if not isinstance(choice, _CHOICES):
        raise TypeError(f"unknown rank choice {choice!r}")
    rank_k = isinstance(choice, RankK)
    subset = _rank_k_subset(choice, n) if rank_k and n > 1 else None
    if isinstance(choice, FullRank) and pos != INTERIOR:
        raise NotInterior("full-rank transport needs a cone-interior vector")
    if pos == OUTSIDE:
        raise OutsideCone(f"vector {x} lies outside its cone")
    if rank_k and pos != ZERO and n > 1:
        interior = pos == INTERIOR
        if subset and not interior:
            raise NotInterior("prescribed rank above one needs a cone-interior vector")
        if interior and not subset:
            raise BadSubset("empty subset needs a boundary vector; rank one cannot "
                            "carry an interior trace")
    return () if isinstance(choice, RankOne) else subset


def _theta_blocks(v: np.ndarray, cones: list) -> np.ndarray:
    """The (k, n, n) stack of transported blocks of the rows of v, all of one
    size n, from each row's (head, tail dot, position code, subset _gate
    returned) in cones.

    A zero row gives the zero block and a one-dimensional row [[x1]], without
    squaring x1, which could overflow. Every other row gives the theta-block
    [[theta/4, t^T/2], [t/2, t t^T/theta]] plus bump on its subset's diagonal
    entries: nu nu^T for nu = (theta/2, t) / sqrt(theta), written so that the
    first row t/2 is exact. The rank-one block takes _theta_one and no bump,
    every other block the Sim-Zhao theta and bump (x1 - ||t||) / (2 |subset|).
    theta and the bump are one number per row, taken on Python floats; the
    blocks are built for the whole stack. Each block is symmetric bit for bit,
    so that the matrix it is assembled into is checked once.
    """
    k, n = v.shape
    zero = [code == ZERO for _, _, code, _ in cones]
    if n == 1:
        return np.where(np.array(zero)[:, None], 0.0, v)[:, :, None]
    theta, bump = np.ones(k), np.zeros(k)  # a zero row keeps these; its block is cleared below
    for row, (head, dot, code, s) in enumerate(cones):
        if code == ZERO:
            continue
        if s == ():
            theta[row] = _theta_one(head, dot)
        else:
            theta[row], rest = _sim_zhao_theta(head, dot)
            bump[row] = rest / (2.0 * (n - 1 if s is None else len(s)))
    on = np.eye(n - 1)
    if any(s for *_, s in cones):  # a RankK subset: its row's diagonal is masked
        mask = np.ones((k, n - 1))
        for row, (*_, s) in enumerate(cones):
            if s:
                mask[row] = 0.0
                mask[row, np.asarray(s) - 2] = 1.0
        on = mask[:, :, None] * on
    theta, tail = theta[:, None, None], v[:, 1:]
    out = np.empty((k, n, n))
    out[:, :1, :1] = theta / 4.0
    out[:, 0, 1:] = out[:, 1:, 0] = tail / 2.0
    # the bump is added over the whole tail, zeros included (a rank-one block
    # adds +0.0), so that signed zeros of t t^T / theta come out as they did
    # per block
    out[:, 1:, 1:] = tail[:, :, None] * tail[:, None, :] / theta + bump[:, None, None] * on
    if any(zero):
        out[zero] = 0.0
    return out


def _transport(layout: BlockLayout, flat: np.ndarray, frame: _Frame, choices, tol: float,
               name_cones: bool = True) -> SymMatrix:
    """The block-diagonal matrix of the transported blocks of the concatenated
    finite cone vector flat, one choice per cone. Each cone passes _gate in
    cone order, so the first failing cone raises; with name_cones, its
    NotInterior, BadSubset and OutsideCone carry "cone i: " (0-based), so that
    the user can tell which cone to change. The cones' frame (in cone order)
    gives both their positions and their theta."""
    codes = _position_codes(frame, tol)
    subsets = []
    for i, (x, choice, pos) in enumerate(zip(layout.split(flat), choices, codes)):
        try:
            subsets.append(_gate(x, choice, pos))
        except (NotInterior, BadSubset, OutsideCone) as exc:
            if not name_cones:
                raise
            raise type(exc)(f"cone {i}: {exc}") from None
    cones = list(zip(frame.head.tolist(), frame.tt.tolist(), codes, subsets))
    return SymMatrix(layout.assemble([
        _theta_blocks(flat[g.at], [cones[i] for i in g.ids.tolist()]) for g in layout.groups
    ]))


def _require_in_cones(part: _Part, tol: float) -> None:
    """The first cone of the part, by its frame, that lies outside its cone
    raises OutsideCone, named as _transport names it."""
    codes = _position_codes(part.frame, tol)
    if OUTSIDE in codes:
        i = codes.index(OUTSIDE)
        raise OutsideCone(f"cone {i}: vector {part.blocks[i]} lies outside its cone")


def full_rank_factors(x, tol: float = DEFAULT_TOL) -> list[np.ndarray]:
    """Factors nu, sqrt(b) e_2, ..., sqrt(b) e_n whose Gram sum is
    map_block(x, FullRank()): the Sim-Zhao leading factor
    nu = (theta/2, x[1:]) / sqrt(theta) and b = (x1 - ||x[1:]||) / (2 (n-1)).
    [sqrt(x1)] in one dimension."""
    x, tol = _vector(x, "x"), _checked_tol(tol)
    frame = _frame(x[None])
    if _position_codes(frame, tol)[0] != INTERIOR:
        raise NotInterior("full-rank transport needs a cone-interior vector")
    n = x.shape[0]
    if n == 1:
        return [np.array([math.sqrt(float(x[0]))])]
    theta, rest = _sim_zhao_theta(float(frame.head[0]), float(frame.tt[0]))
    nu = np.concatenate(([theta / 2.0], x[1:])) / math.sqrt(theta)
    return [nu, *(math.sqrt(rest / (2.0 * (n - 1))) * np.eye(n)[1:])]


def map_block(x, choice: ConeRankChoice, tol: float = DEFAULT_TOL) -> SymMatrix:
    """The per-cone transport: the PSD block of one cone vector x under one
    choice, with trace x1 and first row x[1:] / 2.

    - RankOne: rank one, theta = 2 (x1 + delta), delta = sqrt(x1^2 - ||x[1:]||^2)
      snapped to zero on the boundary; no bump.
    - SimZhao: the Sim-Zhao theta, bump (x1 - ||x[1:]||) / (2 (n-1)) on subset
      2..n; rank n inside the cone, rank one on the boundary.
    - RankK(k, subset): the Sim-Zhao theta, bump (x1 - ||x[1:]||) / (2 (k-1))
      on the k - 1 indices of subset (default 2..k); rank k, interior only.
      k = 1 is the RankOne block and needs a boundary vector.
    - FullRank: the SimZhao block behind an interior gate (NotInterior).

    The origin maps to the zero block. A one-dimensional cone has no rank
    freedom: every choice gives [[x1]], and FullRank still refuses a
    non-interior x1. NotFinite on a NaN or an infinite entry.
    """
    x, tol = _vector(x, "x"), _checked_tol(tol)
    layout = BlockLayout.from_dims(x.shape)
    return _transport(layout, x, _cone_frame(layout, x), (choice,), tol, name_cones=False)


def map_solution(
    problem: SocoProblem,
    sol: SocoSolution,
    side: Side,
    spec: RankSpecLike = RankOne(),
    tol: float = DEFAULT_TOL,
) -> SdoSolution:
    """Transport a cone solution into the side's embedded problem.

    The part the side lifts (sdo.lifted_part) goes through the chosen
    per-cone transports, x's first so that its error wins; the other becomes
    sol's shared block arrow-head image (a weak reference: every map of one
    solution, at any rank, carries the same SymMatrix while one is alive).
    With s lifted the dual vector is (y | w | u), (u, w) read out of S, and
    needs y and s; otherwise it is y. Absent parts stay absent.
    """
    lifted = lifted_part(side)
    tol = _checked_tol(tol)
    sol.validate_against(problem)
    choices = per_cone_choices(spec, problem.r)
    layout, parts = problem.layout, sol._parts

    def image(name):
        part = parts[name]
        if name == lifted:
            return _transport(layout, part.flat, part.frame, choices, tol)
        _require_in_cones(part, tol)  # the shared image, checked at this tol
        return sol._arrow_head_image(name, layout)

    X, S = (image(n) if n in parts else None for n in ("x_blocks", "s_blocks"))
    y = sol.y if lifted == "x_blocks" else None
    if lifted == "s_blocks" and sol.y is not None and S is not None:
        u, w = _recover_uw(S, parts["s_blocks"].flat, layout, tol)
        y = np.concatenate((sol.y, w, u))
    return SdoSolution(X=X, y=y, S=S)


def inverse_map(
    meta: EmbeddingMeta,
    sol: SdoSolution,
    tol: float = DEFAULT_TOL,
    problem: Optional[SocoProblem] = None,
) -> SocoSolution:
    """Pull an SDO solution of the embedding that meta describes back to cone
    vectors.

    The matrix of the lifted part (sdo.lifted_part of meta.side) must be PSD
    within tol and gives per block x1 = block trace, x_j = 2 M[lead, lead + j - 1];
    the other must be block arrow-head within tol and inverts blockwise to
    vectors in their cones (OutsideCone names the first cone outside). y must
    have the embedding's row count, meta.rows; its first m entries are the
    original multipliers. meta.match(problem) first refuses a generic meta,
    or a problem the embedding did not come from (ProvenanceMismatch). Given
    the problem, s read from S is cross-checked against c - A^T y
    (InconsistentDual on disagreement), and s is derived from y when S is
    absent. Checks run on X, then y, then S.
    """
    _of_type(meta, EmbeddingMeta, "meta").match(problem)
    tol = _checked_tol(tol)
    layout = meta._layout if problem is None else problem.layout
    lifted = lifted_part(meta.side)
    x = None if sol.X is None else _read_cone_vector(sol.X, "X", layout, lifted == "x_blocks", tol)
    v = None
    if sol.y is not None:
        if sol.y.shape[0] != meta.rows:
            raise DimensionMismatch(f"y has length {sol.y.shape[0]}, expected {meta.rows}")
        v = sol.y[: meta.m_original]
    slack = None if v is None or problem is None else problem._c - _adjoint(problem, v)
    if sol.S is not None:
        s = _read_cone_vector(sol.S, "S", layout, lifted == "s_blocks", tol, slack)
    else:
        s = None if slack is None else _part(_frozen(slack)[0], layout.dims)
    return SocoSolution(x_blocks=x, y=v, s_blocks=s)  # the parts it read, not copied again


def _read_cone_vector(
    M: SymMatrix, name: str, layout: BlockLayout, lifted: bool, tol: float,
    alt: Optional[np.ndarray] = None,
) -> _Part:
    """The solution part (its concatenated cone vector read-only, framed once)
    behind one side of an embedded solution: (block trace; 2 * first block
    row) of a lifted matrix, the block arrow-head inverse of the other (read
    once per matrix and layout, see soco._arrow_head_rows). When alt is given,
    the vector must match it within tol, scaled by alt's magnitude per cone,
    else InconsistentDual names the first cone off. Then a lifted matrix must pass the PSD gate
    linalg._psd_within (a certified lambda_min >= -tol, else psd_status's
    verdict), else NotPSD; and the vector of the other must lie in its cones
    (Arw(v) is PSD exactly when v is in its cone, so no eigensolver runs on
    that side), else OutsideCone names the first cone outside."""
    if M.dim != layout.total:
        raise DimensionMismatch(f"{name} has dim {M.dim}, expected {layout.total}")
    out = _block_vectors(M.a, layout) if lifted else _arrow_head_rows(M, layout, tol)
    if alt is not None:
        dev = layout.cone_max(np.abs(out - alt))
        bad = np.flatnonzero(dev > tol * (1.0 + layout.cone_max(np.abs(alt))))
        if bad.size:
            i = int(bad[0])
            raise InconsistentDual(
                f"slack block {i} read from S deviates from c - A^T v by {dev[i]:.3e}"
            )
    if lifted and not _psd_within(M, tol):
        raise NotPSD(f"{name} is indefinite beyond tolerance")
    out.setflags(write=False)
    part = _part(out, layout.dims)
    if not lifted:
        _require_in_cones(part, tol)
    return part


def _block_vectors(m: np.ndarray, layout: BlockLayout) -> np.ndarray:
    """(block trace; 2 * first block row) of every diagonal block of the
    square array m, concatenated in cone order."""
    traces, rows = layout.lead_rows(m)
    out = 2.0 * rows
    out[list(layout.offsets)] = traces
    return out


def extract_block_vector(X: SymMatrix, layout: BlockLayout, i: int) -> np.ndarray:
    """Read (block trace; 2 * first block row) out of diagonal block i of X."""
    i = _checked_int(i, "i", 0, high=len(layout.dims) - 1)
    if X.dim != layout.total:
        raise DimensionMismatch(f"X has dim {X.dim}, expected {layout.total}")
    return _block_vectors(X.a, layout)[layout.block_slice(i)]


def recover_uw(
    S: SymMatrix,
    s_blocks: Sequence[np.ndarray],
    cone_dims: Sequence[int],
    tol: float = DEFAULT_TOL,
) -> tuple[np.ndarray, np.ndarray]:
    """Read the structural multipliers (u, w) out of a slack matrix, aligned
    with the tied diagonals and pinned pairs of BlockLayout.pins.

    u_k = S[k, k] - s1_i / n_i for each tied diagonal k of block i;
    w_hl = -S[h, l] for each pinned pair. The block template (block trace
    equals s1, first block row equals s[1:] / 2) is verified within tol scaled
    by the block magnitude; violations raise TemplateViolation.
    """
    layout = BlockLayout.from_dims(cone_dims)
    tol = _checked_tol(tol)
    if S.dim != layout.total:
        raise DimensionMismatch(f"S has dim {S.dim}, expected {layout.total}")
    if len(s_blocks) != len(layout.dims):
        raise DimensionMismatch(f"s_blocks has {len(s_blocks)} blocks, expected {len(layout.dims)}")
    s, _ = _joined(s_blocks, [(n,) for n in layout.dims], "s_blocks[{}]")
    return _recover_uw(S, s, layout, tol)


def _recover_uw(
    S: SymMatrix, s: np.ndarray, layout: BlockLayout, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """recover_uw on the concatenated slack vector s, for an S of the
    layout's size. The template of every block is checked, the blocks of one
    size at once; the first block that fails, in cone order, raises, its trace
    before its first row."""
    traces, rows = layout.lead_rows(S.a)
    heads = s[list(layout.offsets)]
    band = tol * (1.0 + layout.cone_max(np.abs(s)))
    dev = np.abs(rows - s / 2.0)
    dev[list(layout.offsets)] = 0.0  # the first row's lead entry is checked in the trace
    row_dev = layout.cone_max(dev)
    trace_dev = np.abs(traces - heads)
    bad = np.flatnonzero((trace_dev > band) | (row_dev > band))
    if bad.size:
        i = int(bad[0])
        if trace_dev[i] > band[i]:
            raise TemplateViolation(f"block {i} trace deviates from s1 by {trace_dev[i]:.3e}")
        raise TemplateViolation(f"block {i} first row deviates from s/2 by {row_dev[i]:.3e}")
    pairs, tied = layout.pins
    tied_cone = layout.cone_ids[tied]
    u = S.a[tied, tied] - heads[tied_cone] / np.asarray(layout.dims)[tied_cone]
    w = -S.a[pairs[:, 0], pairs[:, 1]]
    return u, w

