"""Both embeddings of a SOCO problem into an SDO problem, and the solution
transport between them in both directions.

Each side's embedding lifts one of (x, s) by a theta-block and carries the
other as its block arrow-head:
- dual side: the data become arrow-head matrices, b is unchanged; x is lifted
  and s is carried; the embedded dual vector is y;
- primal side: the data rows spread each leading coefficient over the block
  diagonal (scale 1/n_i) and halve the off-leading coefficients, so Tr of a
  row against an arrow-head X reproduces the original inner product.
  Structural rows then force X's off-arrow entries to zero and tie every
  non-leading diagonal entry to its block's leading one; which entries they
  pin follows from the cone dimensions alone (BlockLayout.pins). s is lifted
  and x is carried; the embedded dual vector is (y | w | u): the original
  multipliers, one w per pinned pair, one u per tied diagonal, in that order.

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
first rows of all lifted blocks of one size the same way.
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
    ProvenanceMismatch,
    TemplateViolation,
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


def build_primal_embedding(problem: SocoProblem) -> SdoProblem:
    """Scaled data rows, then pinned-pair rows, then tied-diagonal rows.

    Row order: the m data rows; one row per zero pair, lexicographic; one row
    per tied diagonal, ascending. b is zero-padded to match.
    """
    layout = problem.layout
    m = problem.m
    pairs, tied = layout.pins()
    scale = (layout.dims, 2.0)  # divisors of each block's head and tail
    C = _arrow_head_matrix(layout, problem.c_blocks, *scale)
    row, i, j, v = arrow_head_triplets(problem.A_blocks, layout, *scale)
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


def map_solution(
    problem: SocoProblem,
    sol: SocoSolution,
    side: Side,
    spec: RankSpecLike = RankOne(),
    tol: float = DEFAULT_TOL,
) -> SdoSolution:
    """Transport a cone solution into the side's embedded problem.

    The lifted blocks (x on the dual side, s on the primal side) go through
    the chosen per-cone transports, the other blocks become their block
    arrow-head; x's image is made first, so that its error wins. The dual
    vector is y on the dual side and (y | w | u) on the primal side, with
    (u, w) read out of the lifted slack matrix; there it needs both y and s.
    Absent parts stay absent.
    """
    if side not in (Side.DUAL, Side.PRIMAL):
        raise DimensionMismatch(f"side must be dual or primal, got {side!r}")
    sol.validate_against(problem)
    choices = per_cone_choices(spec, problem.r)
    layout = problem.layout

    def lift(blocks):
        return _transport(layout, np.concatenate(blocks), choices, tol)

    def carry(blocks):
        return _arrow_head_side(layout, blocks, tol)

    x_image, s_image = (lift, carry) if side is Side.DUAL else (carry, lift)
    X = None if sol.x_blocks is None else x_image(sol.x_blocks)
    S = None if sol.s_blocks is None else s_image(sol.s_blocks)
    y = None
    if side is Side.DUAL:
        y = None if sol.y is None else sol.y.copy()
    elif sol.y is not None and S is not None:
        u, w = _recover_uw(S, np.concatenate(sol.s_blocks), layout, tol)
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

    The lifted matrix (X on the dual side, S on the primal side) must be PSD
    within tol and gives per block x1 = block trace, x_j = 2 M[lead, lead + j - 1];
    the other must be block arrow-head within tol and inverts blockwise. y must
    have the embedding's row count: m on the dual side, m + N(N-1)/2 on the
    primal side for total cone dimension N; its first m entries are the
    original multipliers. Given the problem, s read from S is cross-checked
    against c - A^T y (InconsistentDual on disagreement), and s is derived
    from y when S is absent. Checks run on X, then y, then S.
    """
    if meta.side not in (Side.DUAL, Side.PRIMAL):
        raise ProvenanceMismatch(f"expected a dual- or primal-side embedding, got {meta.side.value}")
    if meta.cone_dims is None:
        raise ProvenanceMismatch("embedding meta lacks cone dimensions")
    if problem is None:
        layout = meta._layout
    elif (problem.cone_dims, problem.m) != (meta.cone_dims, meta.m_original):
        raise ProvenanceMismatch(
            f"problem with cones {problem.cone_dims} and {problem.m} rows does not match "
            f"the embedding of cones {meta.cone_dims} and {meta.m_original} rows"
        )
    else:
        layout = problem.layout
    dual = meta.side is Side.DUAL
    x = None
    if sol.X is not None:
        x = _read_cone_vector(sol.X, "X", layout, dual, tol)
    v = None
    if sol.y is not None:
        rows = meta.m_original + (0 if dual else layout.total * (layout.total - 1) // 2)
        if sol.y.shape[0] != rows:
            raise DimensionMismatch(f"y has length {sol.y.shape[0]}, expected {rows}")
        v = sol.y[: meta.m_original].copy()
    s = None
    if sol.S is not None:
        alt = None if v is None or problem is None else _slack(problem, v)
        s = _read_cone_vector(sol.S, "S", layout, not dual, tol, alt)
    elif v is not None and problem is not None:
        s = _slack(problem, v)
    return SocoSolution(
        x_blocks=None if x is None else layout.split(x),
        y=v,
        s_blocks=None if s is None else layout.split(s),
    )


def _read_cone_vector(
    M: SymMatrix, name: str, layout: BlockLayout, lifted: bool, tol: float,
    alt: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The concatenated cone vector behind one side of an embedded solution:
    (block trace; 2 * first block row) of a lifted matrix, the block
    arrow-head inverse of the other. When alt is given, the vector must match
    it within tol, scaled by alt's magnitude per cone, else InconsistentDual
    names the first cone off. Then a lifted matrix must be PSD within tol."""
    if M.dim != layout.total:
        raise DimensionMismatch(f"{name} has dim {M.dim}, expected {layout.total}")
    if lifted:
        out = _block_vectors(M.a, layout)
    else:
        out = np.concatenate(block_arrow_head_inv(M, layout, tol))
    if alt is not None:
        dev = layout.cone_max(np.abs(out - alt))
        bad = np.flatnonzero(dev > tol * (1.0 + layout.cone_max(np.abs(alt))))
        if bad.size:
            i = int(bad[0])
            raise InconsistentDual(
                f"slack block {i} read from S deviates from c - A^T v by {dev[i]:.3e}"
            )
    if lifted and psd_status(M, tol) is PsdStatus.INDEFINITE:
        raise NotPSD(f"{name} is indefinite beyond tolerance")
    return out


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
    if S.dim != layout.total:
        raise DimensionMismatch(f"S has dim {S.dim}, expected {layout.total}")
    s = [np.asarray(v, dtype=float) for v in s_blocks]
    if tuple(v.shape for v in s) != tuple((n,) for n in layout.dims):
        raise DimensionMismatch(f"slack blocks do not match the cone dimensions {layout.dims}")
    return _recover_uw(S, np.concatenate(s), layout, tol)


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
    pairs, tied = layout.pins()
    tied_cone = layout.cone_ids[tied]
    u = S.a[tied, tied] - heads[tied_cone] / np.asarray(layout.dims)[tied_cone]
    w = -S.a[pairs[:, 0], pairs[:, 1]]
    return u, w


def _slack(problem: SocoProblem, v: np.ndarray) -> np.ndarray:
    """c - A^T v, concatenated in cone order. The A blocks of one size are
    stacked, and each block's product is the same matrix-vector product, with
    the same bits, as A_i^T v alone; a product with the concatenated A rounds
    differently."""
    layout = problem.layout
    out = np.empty(layout.total)
    for g in layout.groups:
        A = np.stack([problem.A_blocks[i] for i in g.ids.tolist()])
        out[g.at] = np.stack([problem.c_blocks[i] for i in g.ids.tolist()]) \
            - A.transpose(0, 2, 1) @ v
    return out
