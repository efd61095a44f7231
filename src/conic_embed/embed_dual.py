"""Dual-side embedding: arrow-head images of the problem data plus one per-cone
solution transport of selectable rank.

A cone vector x with x1 >= ||x[1:]|| lifts to a PSD block M constrained by
sum(diag(M)) = x1 and M[0, j] = x_j / 2. Those two conditions leave rank
freedom on cone-interior vectors. map_block is the one transport: each choice
is one theta-block (_theta_block) and picks only theta and the diagonal subset
that receives the trace the leading factor leaves over:
- RankOne: theta = 2 (x1 + delta), no subset; rank one;
- SimZhao: the Sim-Zhao theta, subset 2..n; the rank that tracks the cone
  position (n inside, one on the boundary);
- RankK(k): the Sim-Zhao theta, k - 1 indices; rank k on interior vectors;
- FullRank: SimZhao behind an interior gate; rank n.
A one-dimensional cone has no rank freedom and maps to [[x1]] under every
choice (FullRank only on interior x1); the origin maps to the zero block.
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


def _require_in_cone(x: np.ndarray, tol: float, interior: bool = False) -> ConePosition:
    """x's cone position; OutsideCone outside the cone, and NotInterior off
    the interior when interior is set."""
    pos = cone_position(x, tol)
    if interior and pos is not ConePosition.INTERIOR:
        raise NotInterior("full-rank transport needs a cone-interior vector")
    if pos is ConePosition.OUTSIDE:
        raise OutsideCone(f"vector {x} lies outside its cone")
    return pos


def _theta_block(theta: float, tail: np.ndarray, bump: float = 0.0, subset=()) -> np.ndarray:
    """[[theta/4, t^T/2], [t/2, t t^T/theta]] plus bump on the 1-based diagonal
    entries in subset, as a plain array that is symmetric bit for bit.

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
    return m


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


def _cone_block(x: np.ndarray, choice: ConeRankChoice, tol: float) -> np.ndarray:
    """map_block's block as a plain array, symmetric bit for bit, so that the
    matrix it is assembled into is checked once. A one-dimensional cone gives
    [[x1]] without squaring x1, which could overflow."""
    n = x.shape[0]
    if not isinstance(choice, (RankOne, SimZhao, RankK, FullRank)):
        raise TypeError(f"unknown rank choice {choice!r}")
    subset = tuple(range(2, n + 1))
    if isinstance(choice, RankK) and n > 1:
        subset = _rank_k_subset(choice, n)
    pos = _require_in_cone(x, tol, interior=isinstance(choice, FullRank))
    if pos is ConePosition.ZERO:
        return np.zeros((n, n))
    if n == 1:
        return np.array([[float(x[0])]])
    if isinstance(choice, RankK):
        interior = pos is ConePosition.INTERIOR
        if subset and not interior:
            raise NotInterior("prescribed rank above one needs a cone-interior vector")
        if interior and not subset:
            raise BadSubset("empty subset needs a boundary vector; rank one cannot "
                            "carry an interior trace")
    if isinstance(choice, RankOne) or not subset:
        return _theta_block(_theta_one(float(x[0]), x[1:]), x[1:])
    theta, rest = _sim_zhao_theta(x)
    return _theta_block(theta, x[1:], rest / (2.0 * len(subset)), subset)


def _each_cone(fn, *columns) -> list:
    """fn applied to each cone's entries of the columns, with "cone i: "
    (0-based) prefixed to the NotInterior, BadSubset and OutsideCone errors
    fn raises, so that the user can tell which cone to change."""
    out = []
    for i, args in enumerate(zip(*columns)):
        try:
            out.append(fn(*args))
        except (NotInterior, BadSubset, OutsideCone) as exc:
            raise type(exc)(f"cone {i}: {exc}") from None
    return out


def full_rank_factors(x, tol: float = DEFAULT_TOL) -> list[np.ndarray]:
    """Factors nu, sqrt(b) e_2, ..., sqrt(b) e_n whose Gram sum is
    map_block(x, FullRank()): the Sim-Zhao leading factor
    nu = (theta/2, x[1:]) / sqrt(theta) and b = (x1 - ||x[1:]||) / (2 (n-1)).
    [sqrt(x1)] in one dimension."""
    x = np.asarray(x, dtype=float)
    _require_in_cone(x, tol, interior=True)
    n = x.shape[0]
    if n == 1:
        return [np.array([math.sqrt(float(x[0]))])]
    theta, rest = _sim_zhao_theta(x)
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
    non-interior x1.
    """
    return SymMatrix(_cone_block(np.asarray(x, dtype=float), choice, tol))


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
        X = block_diag(_each_cone(lambda x, ch: _cone_block(x, ch, tol), sol.x_blocks, choices))
    S = None
    if sol.s_blocks is not None:
        _each_cone(lambda s: _require_in_cone(s, tol), sol.s_blocks)
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
