"""Dual-side embedding: arrow-head images of the problem data plus one per-cone
solution transport of selectable rank.

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

One kernel makes every transported block, map_block's and both sides' map
alike (_transport): it checks each cone's choice against its position in a
plain loop, in cone order, so that the first failing cone raises, and then
builds the theta-blocks of all cones of one size as one (k, n, n) stack,
scattered into the assembled matrix at once. The inverse reads the traces
and first rows of all blocks of one size the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import (
    BadSubset,
    DimensionMismatch,
    NotInterior,
    NotPSD,
    OutsideCone,
    ProvenanceMismatch,
)
from .linalg import DEFAULT_TOL, PsdStatus, SparseRows, SymMatrix, _require_finite, psd_status
from .sdo import EmbeddingMeta, SdoProblem, SdoSolution, Side
from .soco import (
    INTERIOR,
    OUTSIDE,
    ZERO,
    BlockLayout,
    ConePosition,
    SocoProblem,
    SocoSolution,
    _arrow_head_matrix,
    _cone_positions,
    _position_codes,
    _row_dots,
    arrow_head_triplets,
    block_arrow_head_inv,
    cone_position,
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
        object.__setattr__(self, "k", int(self.k))
        if self.subset is not None:
            object.__setattr__(self, "subset", tuple(sorted(int(j) for j in self.subset)))


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
    C = _arrow_head_matrix(layout, problem.c_blocks)
    rows = SparseRows(
        layout.total, problem.m, *arrow_head_triplets(problem.A_blocks, layout, 1.0, 1.0)
    )
    meta = EmbeddingMeta(Side.DUAL, problem.cone_dims, m_original=problem.m)
    return SdoProblem(layout.total, C, rows, problem.b, meta)


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
    if not 1 <= choice.k <= n:
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


def _theta_blocks(v: np.ndarray, tt: np.ndarray, codes: list, subsets: list) -> np.ndarray:
    """The (k, n, n) stack of transported blocks of the rows of v, all of one
    size n, from the rows' tail dot products tt, their position codes and the
    subsets _gate returned.

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
    zero = [c == ZERO for c in codes]
    if n == 1:
        return np.where(np.array(zero)[:, None], 0.0, v)[:, :, None]
    theta, bump = np.ones(k), np.zeros(k)  # a zero row keeps these; its block is cleared below
    for row, (head, dot, is_zero, s) in enumerate(zip(v[:, 0].tolist(), tt.tolist(), zero, subsets)):
        if is_zero:
            continue
        if s == ():
            theta[row] = _theta_one(head, dot)
        else:
            theta[row], rest = _sim_zhao_theta(head, dot)
            bump[row] = rest / (2.0 * (n - 1 if s is None else len(s)))
    on = np.eye(n - 1)
    if any(subsets):  # a RankK subset: its row's diagonal is masked
        mask = np.ones((k, n - 1))
        for row, s in enumerate(subsets):
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


def _transport(
    layout: BlockLayout, flat: np.ndarray, choices, tol: float, name_cones: bool = True
) -> SymMatrix:
    """The block-diagonal matrix of the transported blocks of the concatenated
    finite cone vector flat, one choice per cone. Each cone passes _gate in
    cone order, so the first failing cone raises; with name_cones, its
    NotInterior, BadSubset and OutsideCone carry "cone i: " (0-based), so that
    the user can tell which cone to change."""
    stacks = [flat[g.at] for g in layout.groups]
    tts = [_row_dots(v[:, 1:], v[:, 1:]) for v in stacks]  # shared by positions and theta
    per_group = [_position_codes(v, tol, tt) for v, tt in zip(stacks, tts)]
    codes = layout.in_cone_order(per_group)
    subsets = []
    for i, (x, choice, pos) in enumerate(zip(layout.split(flat), choices, codes)):
        try:
            subsets.append(_gate(x, choice, pos))
        except (NotInterior, BadSubset, OutsideCone) as exc:
            if not name_cones:
                raise
            raise type(exc)(f"cone {i}: {exc}") from None
    return SymMatrix(layout.assemble([
        _theta_blocks(v, tt, group_codes, [subsets[i] for i in g.ids.tolist()])
        for g, v, tt, group_codes in zip(layout.groups, stacks, tts, per_group)
    ]))


def _arrow_head_side(layout: BlockLayout, blocks, tol: float) -> SymMatrix:
    """block_arrow_head of cone vectors that must lie in their cones; the
    first cone outside raises OutsideCone, named as _transport names it."""
    codes = _cone_positions(layout, np.concatenate(blocks), tol)
    if OUTSIDE in codes:
        i = codes.index(OUTSIDE)
        raise OutsideCone(f"cone {i}: vector {blocks[i]} lies outside its cone")
    return _arrow_head_matrix(layout, blocks)


def full_rank_factors(x, tol: float = DEFAULT_TOL) -> list[np.ndarray]:
    """Factors nu, sqrt(b) e_2, ..., sqrt(b) e_n whose Gram sum is
    map_block(x, FullRank()): the Sim-Zhao leading factor
    nu = (theta/2, x[1:]) / sqrt(theta) and b = (x1 - ||x[1:]||) / (2 (n-1)).
    [sqrt(x1)] in one dimension."""
    x = np.asarray(x, dtype=float)
    if cone_position(x, tol) is not ConePosition.INTERIOR:
        raise NotInterior("full-rank transport needs a cone-interior vector")
    n = x.shape[0]
    if n == 1:
        return [np.array([math.sqrt(float(x[0]))])]
    theta, rest = _sim_zhao_theta(float(x[0]), float(x[1:] @ x[1:]))
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
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.shape[0] < 1:
        raise DimensionMismatch(f"map_block needs a nonempty vector, got shape {x.shape}")
    _require_finite(x, "cone vector")
    return _transport(BlockLayout.from_dims(x.shape), x, (choice,), tol, name_cones=False)


def map_solution_dual(
    problem: SocoProblem,
    sol: SocoSolution,
    spec: RankSpecLike = RankOne(),
    tol: float = DEFAULT_TOL,
) -> SdoSolution:
    """Transport a cone solution into the dual-side embedded problem.

    x blocks go through the chosen per-cone transports, y is carried verbatim,
    s blocks become their block-diagonal arrow-head. Absent parts stay absent.
    """
    sol.validate_against(problem)
    choices = per_cone_choices(spec, problem.r)
    layout = problem.layout
    X = None
    if sol.x_blocks is not None:
        X = _transport(layout, np.concatenate(sol.x_blocks), choices, tol)
    S = None
    if sol.s_blocks is not None:
        S = _arrow_head_side(layout, sol.s_blocks, tol)
    y = sol.y.copy() if sol.y is not None else None
    return SdoSolution(X=X, y=y, S=S)


def inverse_map_dual(
    meta: EmbeddingMeta,
    sol: SdoSolution,
    tol: float = DEFAULT_TOL,
) -> SocoSolution:
    """Pull an SDO solution for a dual-side embedding back to cone vectors.

    Per block: x1 = block trace, x_j = 2 X[lead, lead + j - 1]; S must be
    block-diagonal arrow-head; y passes through. X must be PSD within tol.
    """
    if meta.side is not Side.DUAL:
        raise ProvenanceMismatch(f"expected a dual-side embedding, got {meta.side.value}")
    if meta.cone_dims is None:
        raise ProvenanceMismatch("embedding meta lacks cone dimensions")
    layout = meta._layout
    x_blocks = None
    if sol.X is not None:
        if sol.X.dim != layout.total:
            raise DimensionMismatch(f"X has dim {sol.X.dim}, expected {layout.total}")
        if psd_status(sol.X, tol) is PsdStatus.INDEFINITE:
            raise NotPSD("X is indefinite beyond tolerance")
        x_blocks = layout.split(_block_vectors(sol.X.a, layout))
    s_blocks = None
    if sol.S is not None:
        if sol.S.dim != layout.total:
            raise DimensionMismatch(f"S has dim {sol.S.dim}, expected {layout.total}")
        s_blocks = block_arrow_head_inv(sol.S, layout, tol)
    y = sol.y.copy() if sol.y is not None else None
    return SocoSolution(x_blocks=x_blocks, y=y, s_blocks=s_blocks)


def _block_vectors(m: np.ndarray, layout: BlockLayout) -> np.ndarray:
    """(block trace; 2 * first block row) of every diagonal block of the
    square array m, concatenated in cone order."""
    traces, rows = layout.lead_rows(m)
    out = 2.0 * rows
    out[list(layout.offsets)] = traces
    return out


def extract_block_vector(X: SymMatrix, layout: BlockLayout, i: int) -> np.ndarray:
    """Read (block trace; 2 * first block row) out of one diagonal block of X."""
    return _block_vectors(X.a, layout)[layout.block_slice(i)]
