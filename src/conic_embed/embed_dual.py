"""Dual-side embedding: arrow-head images of the problem data plus per-cone
solution transports of selectable rank.

A cone vector x with x1 >= ||x[1:]|| lifts to a PSD block M constrained by
sum(diag(M)) = x1 and M[0, j] = x_j / 2. Those two conditions leave rank
freedom on cone-interior vectors; the block maps here realize rank 1, the
closed-form rank that tracks the cone position, an arbitrary prescribed rank,
and full rank, each as one theta-block (_theta_block).
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
from .linalg import (
    DEFAULT_TOL,
    PsdStatus,
    SparseRows,
    SymMatrix,
    block_diag,
    psd_status,
)
from .sdo import EmbeddingMeta, SdoProblem, SdoSolution, Side
from .soco import (
    BlockLayout,
    ConePosition,
    SocoProblem,
    SocoSolution,
    arrow_head_triplets,
    block_arrow_head,
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


def per_cone_choices(spec: RankSpecLike, r: int) -> tuple[ConeRankChoice, ...]:
    """Broadcast a single choice over r cones, or validate a per-cone list."""
    if isinstance(spec, (RankOne, SimZhao, RankK, FullRank)):
        return (spec,) * r
    choices = tuple(spec)
    if len(choices) != r:
        raise DimensionMismatch(f"rank spec lists {len(choices)} cones, expected {r}")
    return choices


def build_dual_embedding(problem: SocoProblem) -> SdoProblem:
    """Arrow-head image of the data: C and each constraint row become
    block-diagonal arrow-head matrices; b is unchanged."""
    C = block_arrow_head(problem.c_blocks)
    n = problem.total_dim
    rows = SparseRows(
        n, problem.m, *arrow_head_triplets(problem.A_blocks, problem.layout, 1.0, 1.0)
    )
    meta = EmbeddingMeta(Side.DUAL, problem.cone_dims, m_original=problem.m)
    return SdoProblem(n, C, rows, problem.b, meta)


def _require_in_cone(x: np.ndarray, tol: float) -> ConePosition:
    pos = cone_position(x, tol)
    if pos is ConePosition.OUTSIDE:
        raise OutsideCone(f"vector {x} lies outside its cone")
    return pos


def _require_interior(x, tol: float) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if cone_position(x, tol) is not ConePosition.INTERIOR:
        raise NotInterior("full-rank transport needs a cone-interior vector")
    return x


def _theta_block(theta: float, tail: np.ndarray, bump: float = 0.0, subset=()) -> SymMatrix:
    """[[theta/4, t^T/2], [t/2, t t^T/theta]] plus bump on the 1-based diagonal
    entries in subset.

    This is nu nu^T for the leading factor nu = (theta/2, t) / sqrt(theta),
    written so that the first row t/2 is exact. Every closed-form transport is
    one of these blocks and differs only in theta and the bump.
    """
    n = tail.shape[0] + 1
    m = np.empty((n, n))
    m[0, 0] = theta / 4.0
    m[0, 1:] = m[1:, 0] = tail / 2.0
    m[1:, 1:] = np.outer(tail, tail) / theta
    # added over the whole tail, as bump * I was, so signed zeros keep their bits
    on = np.zeros(n - 1)
    on[np.asarray(subset, dtype=int) - 2] = 1.0
    m[1:, 1:] += bump * np.diag(on)
    return SymMatrix(m)


def _theta_one(head: float, tail: np.ndarray) -> float:
    """theta = 2 (x1 + delta) with delta = sqrt(x1^2 - ||x[1:]||^2): the rank-one
    member of the family. When the squared margin is below the floating-point
    noise floor, delta is snapped to zero: on the boundary its computed value
    is pure cancellation noise, and the snap keeps the rank-one block equal to
    the closed-form one there."""
    margin2 = head * head - float(tail @ tail)
    delta = 0.0 if margin2 <= 4.0 * _EPS * head * head else math.sqrt(margin2)
    return 2.0 * (head + delta)


def _sim_zhao_theta(x: np.ndarray) -> tuple[float, float]:
    """theta = x1 + rho + sqrt((x1 + rho)^2 - 4 rho^2), rho = ||x[1:]||, and the
    trace x1 - rho that the leading factor leaves to the diagonal."""
    head = float(x[0])
    rho = float(np.linalg.norm(x[1:]))
    return head + rho + math.sqrt(max((head + rho) ** 2 - 4.0 * (rho * rho), 0.0)), head - rho


def _sim_zhao_block(x: np.ndarray, subset: Sequence[int]) -> SymMatrix:
    """The Sim-Zhao theta-block with (x1 - rho) / (2 |subset|) added on subset."""
    theta, rest = _sim_zhao_theta(x)
    return _theta_block(theta, x[1:], rest / (2.0 * len(subset)), subset)


def _closed_form(x, tol: float, block) -> SymMatrix:
    """block(x) for a nonzero cone vector of dim >= 2; the zero block at the
    origin, and [[x1]] in one dimension, where x1^2 could overflow."""
    x = np.asarray(x, dtype=float)
    if _require_in_cone(x, tol) is ConePosition.ZERO:
        return SymMatrix.zeros(x.shape[0])
    if x.shape[0] == 1:
        return SymMatrix([[float(x[0])]])
    return block(x)


def rank_one_map(x, tol: float = DEFAULT_TOL) -> SymMatrix:
    """Rank-one PSD block beta beta^T meeting the trace / first-row conditions,
    beta = (x1 + delta, x[1:]) / sqrt(2 (x1 + delta)) with
    delta = sqrt(x1^2 - ||x[1:]||^2) (snapped to zero on the boundary)."""
    return _closed_form(x, tol, lambda v: _theta_block(_theta_one(float(v[0]), v[1:]), v[1:]))


def sim_zhao_map(x, tol: float = DEFAULT_TOL) -> SymMatrix:
    """Closed-form transport whose rank equals n inside the cone and 1 on the
    nonzero boundary: rank_k_map's block with subset 2..n, without its
    interior gate. It equals rank_one_map bit for bit when x1 = ||x[1:]||."""
    return _closed_form(x, tol, lambda v: _sim_zhao_block(v, range(2, v.shape[0] + 1)))


def rank_k_map(x, subset: Sequence[int], tol: float = DEFAULT_TOL) -> SymMatrix:
    """Rank-(|subset| + 1) transport on interior vectors.

    The leading factor nu1 = (theta/2, x[1:]) / sqrt(theta) carries the
    first-row conditions; each 1-based index j in subset adds
    (x1 - ||x[1:]||) / (2 (k-1)) to diagonal entry j. An empty subset is only
    meaningful on the boundary, where the result equals rank_one_map.
    """
    x = np.asarray(x, dtype=float)
    pos = _require_in_cone(x, tol)
    n = x.shape[0]
    subset = tuple(sorted(int(j) for j in subset))
    if len(set(subset)) != len(subset) or any(j < 2 or j > n for j in subset):
        raise BadSubset(f"subset {subset} must consist of distinct indices in 2..{n}")
    if pos is ConePosition.ZERO:
        return SymMatrix.zeros(n)
    if not subset:
        if pos is ConePosition.INTERIOR:
            raise BadSubset("empty subset needs a boundary vector; rank one cannot "
                            "carry an interior trace")
        return rank_one_map(x, tol)
    if pos is not ConePosition.INTERIOR:
        raise NotInterior("prescribed rank above one needs a cone-interior vector")
    return _sim_zhao_block(x, subset)


def full_rank_factors(x, tol: float = DEFAULT_TOL) -> list[np.ndarray]:
    """Factors nu, sqrt(b) e_2, ..., sqrt(b) e_n whose Gram sum is full_rank_map(x):
    the Sim-Zhao leading factor nu = (theta/2, x[1:]) / sqrt(theta) and
    b = (x1 - ||x[1:]||) / (2 (n-1)). [sqrt(x1)] in one dimension."""
    x = _require_interior(x, tol)
    n = x.shape[0]
    if n == 1:
        return [np.array([math.sqrt(float(x[0]))])]
    theta, rest = _sim_zhao_theta(x)
    nu = np.concatenate(([theta / 2.0], x[1:])) / math.sqrt(theta)
    return [nu, *(math.sqrt(rest / (2.0 * (n - 1))) * np.eye(n)[1:])]


def full_rank_map(x, tol: float = DEFAULT_TOL) -> SymMatrix:
    """sim_zhao_map behind an interior gate: rank n on every interior vector."""
    return sim_zhao_map(_require_interior(x, tol), tol)


def map_block(x, choice: ConeRankChoice, tol: float = DEFAULT_TOL) -> SymMatrix:
    """Apply one per-cone transport choice to one block vector.

    One-dimensional cones collapse every choice to the rank-one map: there is
    no rank freedom in a 1x1 block.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[0] == 1 or isinstance(choice, RankOne):
        return rank_one_map(x, tol)
    if isinstance(choice, SimZhao):
        return sim_zhao_map(x, tol)
    if isinstance(choice, RankK):
        n = x.shape[0]
        if not 1 <= choice.k <= n:
            raise BadSubset(f"rank {choice.k} impossible for a block of size {n}")
        subset = choice.subset
        if subset is None:
            subset = tuple(range(2, choice.k + 1))
        elif len(subset) != choice.k - 1:
            raise BadSubset(
                f"subset {subset} has {len(subset)} indices, expected {choice.k - 1}"
            )
        return rank_k_map(x, subset, tol)
    if isinstance(choice, FullRank):
        return full_rank_map(x, tol)
    raise TypeError(f"unknown rank choice {choice!r}")


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
    X = None
    if sol.x_blocks is not None:
        X = block_diag([map_block(x, ch, tol) for x, ch in zip(sol.x_blocks, choices)])
    S = None
    if sol.s_blocks is not None:
        for s in sol.s_blocks:
            _require_in_cone(s, tol)
        S = block_arrow_head(sol.s_blocks)
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
    layout = BlockLayout.from_dims(meta.cone_dims)
    x_blocks = None
    if sol.X is not None:
        if sol.X.dim != layout.total:
            raise DimensionMismatch(f"X has dim {sol.X.dim}, expected {layout.total}")
        if psd_status(sol.X, tol) is PsdStatus.INDEFINITE:
            raise NotPSD("X is indefinite beyond tolerance")
        x_blocks = tuple(extract_block_vector(sol.X, layout, i) for i in range(len(layout.dims)))
    s_blocks = None
    if sol.S is not None:
        if sol.S.dim != layout.total:
            raise DimensionMismatch(f"S has dim {sol.S.dim}, expected {layout.total}")
        s_blocks = block_arrow_head_inv(sol.S, layout, tol)
    y = sol.y.copy() if sol.y is not None else None
    return SocoSolution(x_blocks=x_blocks, y=y, s_blocks=s_blocks)


def extract_block_vector(X: SymMatrix, layout: BlockLayout, i: int) -> np.ndarray:
    """Read (block trace; 2 * first block row) out of one diagonal block of X."""
    sl = layout.block_slice(i)
    block = X.a[sl, sl]
    return np.concatenate(([float(np.trace(block))], 2.0 * block[0, 1:]))
