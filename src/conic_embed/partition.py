"""Optimal-partition bookkeeping: cone-side labels, the closed-form arrow-head
eigensystem, and the two routes from a labeled cone solution to subspace bases
(B, N, T) of the embedded problem.

The table route builds the bases directly from the labels and the boundary
directions; the eigen route decomposes a transported matrix pair. For proper
transports (block rank equal to the cone rank everywhere) the two agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    InconsistentPair,
    LabelMismatch,
    MissingSolutionPart,
    NotComplementary,
    NotPSD,
    OutsideCone,
)
from .linalg import (
    DEFAULT_TOL,
    EigenDecomposition,
    PsdStatus,
    SymMatrix,
    _require_finite,
    _two_level_eigensystem,
    eigh,
    orthonormal_complement,
    trace_inner,
)
from .sdo import SdoSolution, Side
from .soco import (
    INTERIOR,
    OUTSIDE,
    POSITIONS,
    BlockLayout,
    ConePosition,
    SocoProblem,
    SocoSolution,
    _cone_positions,
    _jordan_rows,
    _row_dots,
)
from .embed import FullRank, RankOne, SimZhao, map_solution


class ConeLabel(Enum):
    B = "B"
    N = "N"
    R = "R"
    T1 = "T1"
    T2 = "T2"
    T3 = "T3"


_POSITION_LABEL = {
    (ConePosition.INTERIOR, ConePosition.ZERO): ConeLabel.B,
    (ConePosition.ZERO, ConePosition.INTERIOR): ConeLabel.N,
    (ConePosition.BOUNDARY_NONZERO, ConePosition.BOUNDARY_NONZERO): ConeLabel.R,
    (ConePosition.ZERO, ConePosition.ZERO): ConeLabel.T1,
    (ConePosition.BOUNDARY_NONZERO, ConePosition.ZERO): ConeLabel.T2,
    (ConePosition.ZERO, ConePosition.BOUNDARY_NONZERO): ConeLabel.T3,
}


def classify_cones(
    problem: SocoProblem, sol: SocoSolution, tol: float = DEFAULT_TOL
) -> list[ConeLabel]:
    """Label each cone from the positions of (x_i, s_i).

    Position pairs outside the six complementary combinations, or pairs whose
    Jordan product is not zero within tolerance (e.g. two boundary vectors
    that are not opposite), raise InconsistentPair. Vectors outside the cone
    raise OutsideCone. Positions and Jordan products are computed for the
    cones of one size at once; the first failing cone, in cone order, raises.
    """
    if sol.x_blocks is None or sol.s_blocks is None:
        raise MissingSolutionPart("classification needs x and s blocks")
    sol.validate_against(problem)
    layout = problem.layout
    x, s = np.concatenate(sol.x_blocks), np.concatenate(sol.s_blocks)
    px = _cone_positions(layout, x, tol)
    ps = _cone_positions(layout, s, tol)
    comp, band = _complementarity(layout, x, s, tol)
    labels = []
    for i, codes in enumerate(zip(px, ps)):
        if OUTSIDE in codes:
            raise OutsideCone(f"cone {i}: vector outside the cone")
        pos_x, pos_s = (POSITIONS[c] for c in codes)
        label = _POSITION_LABEL.get((pos_x, pos_s))
        if label is None:
            raise InconsistentPair(
                f"cone {i}: positions ({pos_x.value}, {pos_s.value}) cannot be complementary"
            )
        if comp[i] > band[i]:
            raise InconsistentPair(
                f"cone {i}: jordan product magnitude {comp[i]:.3e} breaks complementarity"
            )
        labels.append(label)
    return labels


def _complementarity(
    layout: BlockLayout, x: np.ndarray, s: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per cone of the concatenated x and s, in cone order: max |x_i o s_i|
    and the band tol (1 + ||x_i||_inf) (1 + ||s_i||_inf) it must stay within."""
    r = len(layout.dims)
    comp, band = np.empty(r), np.empty(r)
    for g in layout.groups:
        xg, sg = x[g.at], s[g.at]
        comp[g.ids] = np.abs(_jordan_rows(xg, sg)).max(axis=1)
        band[g.ids] = tol * (1.0 + np.abs(xg).max(axis=1)) * (1.0 + np.abs(sg).max(axis=1))
    return comp, band


def arrowhead_eigensystem(v) -> EigenDecomposition:
    """Closed-form eigendecomposition of the arrow-head matrix of v.

    Eigenvalues ascending: v1 - ||t||, then v1 with multiplicity n - 2, then
    v1 + ||t|| (t = v[1:]); extreme eigenvectors are (1, -d)/sqrt(2) and
    (1, d)/sqrt(2) for the unit tail direction d, middle ones are (0, z) with
    z spanning the tail complement. Degenerates to the standard basis when the
    tail vanishes. NotFinite on a NaN or an infinite entry.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.shape[0] < 1:
        raise DimensionMismatch(f"need a nonempty vector, got shape {v.shape}")
    _require_finite(v, "arrow-head vector")
    if float(v[1:] @ v[1:]) == 0.0:
        vals, vecs = np.full(v.shape[0], v[0]), np.eye(v.shape[0])
    else:
        vals, vecs = (a[0] for a in _arrow_head_eigensystems(v[None]))
    vals.setflags(write=False)
    vecs.setflags(write=False)
    return EigenDecomposition(vals, vecs)


@dataclass(frozen=True, eq=False)
class SdoPartition:
    """Orthonormal bases of the three mutually orthogonal subspaces."""

    basis_b: np.ndarray
    basis_n: np.ndarray
    basis_t: np.ndarray

    def __post_init__(self):
        for name in ("basis_b", "basis_n", "basis_t"):
            a = np.array(getattr(self, name), dtype=float)
            if a.ndim != 2:
                raise DimensionMismatch(f"{name} must be a matrix, got shape {a.shape}")
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.basis_b.shape[1], self.basis_n.shape[1], self.basis_t.shape[1])

    def validate(self, gate: float = 1e-6) -> None:
        n = self.basis_b.shape[0]
        stacked = np.hstack([self.basis_b, self.basis_n, self.basis_t])
        if stacked.shape != (n, n):
            raise DimensionMismatch(
                f"basis dimensions {self.dims} do not sum to the ambient {n}"
            )
        dev = float(np.abs(stacked.T @ stacked - np.eye(n)).max())
        if dev > gate:
            raise DimensionMismatch(f"bases deviate from orthonormality by {dev:.3e}")


def _boundary_block(blocks, i: int, what: str) -> np.ndarray:
    """Cone i's block, which must carry a boundary direction (a nonzero tail)."""
    if blocks is None:
        raise MissingSolutionPart(f"label needs the {what} block for cone {i}")
    v = np.asarray(blocks[i], dtype=float)
    if v.shape[0] < 2:
        raise LabelMismatch(f"cone {i} is one-dimensional; no boundary direction exists")
    if float(v[1:] @ v[1:]) <= 0.0:  # ||v[1:]|| <= 0, without the square root
        raise LabelMismatch(f"cone {i}: {what} block has a zero tail, no direction")
    return v


# Whole blocks go to one class.
_WHOLE_ROUTE = {ConeLabel.B: "B", ConeLabel.N: "N", ConeLabel.T1: "T"}
# Boundary labels: the block giving the direction d, the class of the x side
# and the class of the s side. (1, d)/sqrt(2) goes to the class of the side
# giving d, (1, -d)/sqrt(2) to the other one.
_BOUNDARY_ROUTE = {
    ConeLabel.R: ("x", "B", "N"),
    ConeLabel.T2: ("x", "B", "T"),
    ConeLabel.T3: ("s", "T", "N"),
}


def map_partition(
    problem: SocoProblem,
    sol: SocoSolution,
    labels: Sequence[ConeLabel],
    side: Side,
    tol: float = DEFAULT_TOL,
) -> SdoPartition:
    """Route per-cone eigenvector bases into (B, N, T) by label.

    Full blocks go wholesale: B for label B, N for label N, T for T1. Boundary
    labels split a block along the arrow-head eigenvectors of the boundary
    vector: the aligned vector (1, d)/sqrt(2), the opposed vector
    (1, -d)/sqrt(2), and the middle vectors (0, z), z perpendicular to d. The
    middle vectors join the side carried as an arrow-head (s on the dual side,
    x on the primal side): the transported X is a low-rank image on the dual
    side but an arrow-head on the primal side.
    """
    if side not in (Side.DUAL, Side.PRIMAL):
        raise DimensionMismatch(f"side must be dual or primal, got {side!r}")
    labels = list(labels)
    if len(labels) != problem.r:
        raise DimensionMismatch(f"{len(labels)} labels for {problem.r} cones")
    layout = problem.layout
    # per class, the (cone, columns) pieces in order: columns None for the
    # whole block, else columns of the cone's arrow-head frame
    pieces = {cls: [] for cls in "BNT"}
    boundary = {}  # cone -> the vector giving its direction
    for i, label in enumerate(labels):
        n = layout.dims[i]
        if label in _WHOLE_ROUTE:
            pieces[_WHOLE_ROUTE[label]].append((i, None))
            continue
        if label not in _BOUNDARY_ROUTE:
            raise LabelMismatch(f"unknown label {label!r}")
        source, x_cls, s_cls = _BOUNDARY_ROUTE[label]
        blocks = sol.x_blocks if source == "x" else sol.s_blocks
        boundary[i] = _boundary_block(blocks, i, source)
        aligned, opposed = (x_cls, s_cls) if source == "x" else (s_cls, x_cls)
        arrow = s_cls if side is Side.DUAL else x_cls
        middle = list(range(1, n - 1))
        for cls, col in ((aligned, n - 1), (opposed, 0)):
            pieces[cls].append((i, [col] + (middle if cls == arrow else [])))
    frames = _boundary_frames(boundary)
    bases = []
    for cls in "BNT":
        widths = [layout.dims[i] if cols is None else len(cols) for i, cols in pieces[cls]]
        basis = np.zeros((layout.total, sum(widths)))
        at = 0
        for (i, cols), width in zip(pieces[cls], widths):
            sl = layout.block_slice(i)
            basis[sl, at:at + width] = np.eye(width) if cols is None else frames[i][:, cols]
            at += width
        bases.append(basis)
    part = SdoPartition(*bases)
    part.validate()
    return part


def _boundary_frames(vectors: dict) -> dict:
    """The arrow-head eigenvectors (arrowhead_eigensystem's, in its order) of
    each vector, all of one size in one call. Every vector has a nonzero
    tail."""
    frames = {}
    by_size = {}
    for i, v in vectors.items():
        by_size.setdefault(v.shape[0], []).append(i)
    for ids in by_size.values():
        frames.update(zip(ids, _arrow_head_eigensystems(np.stack([vectors[i] for i in ids]))[1]))
    return frames


def _arrow_head_eigensystems(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and column eigenvectors of the arrow-head of each row of
    the (k, n) stack v, whose tails are nonzero, in the order of
    arrowhead_eigensystem: _two_level_eigensystem with along = rest = v1."""
    head = v[:, :1]
    rho = np.sqrt(_row_dots(v[:, 1:], v[:, 1:]))[:, None]
    return _two_level_eigensystem(head, rho, v[:, 1:] / rho, head, head)


def sdo_partition_from_solution(
    X: SymMatrix, S: SymMatrix, tol: float = DEFAULT_TOL
) -> SdoPartition:
    """Eigen route: B spans the range of X, N the range of S, T the rest.

    X and S must be PSD within tol and trace-complementary; B and N must come
    out orthogonal (gate sqrt(tol)), otherwise the pair was not complementary
    enough to define a partition.
    """
    if X.dim != S.dim:
        raise DimensionMismatch(f"dimensions differ: {X.dim} vs {S.dim}")
    ex = eigh(X, tol)
    if ex.psd_status(tol) is PsdStatus.INDEFINITE:
        raise NotPSD("X is indefinite beyond tolerance")
    es = eigh(S, tol)
    if es.psd_status(tol) is PsdStatus.INDEFINITE:
        raise NotPSD("S is indefinite beyond tolerance")
    t = trace_inner(X, S)
    if abs(t) > tol:
        raise NotComplementary(f"trace inner product {t:.3e} exceeds {tol:.1e}")
    n = X.dim
    bx = ex.eigenvectors[:, ex.eigenvalues > ex.rank_cutoff(tol)]
    ns = es.eigenvectors[:, es.eigenvalues > es.rank_cutoff(tol)]
    if bx.shape[1] and ns.shape[1]:
        overlap = float(np.abs(bx.T @ ns).max())
        if overlap > math.sqrt(tol):
            raise NotComplementary(
                f"range(X) and range(S) overlap with cosine {overlap:.3e}"
            )
    bt = orthonormal_complement(np.hstack([bx, ns]), n)
    part = SdoPartition(bx, ns, bt)
    part.validate()
    return part


def proper_map_solution(
    problem: SocoProblem,
    sol: SocoSolution,
    side: Side,
    interior: str = "simzhao",
    tol: float = DEFAULT_TOL,
) -> SdoSolution:
    """Transport with the proper per-cone completion: the chosen full-rank map
    on interior blocks, the forced rank-one block on the nonzero boundary, the
    zero block at the origin. The result's block ranks equal the cone ranks,
    which is what the partition correspondence requires."""
    if interior not in ("simzhao", "full"):
        raise DimensionMismatch(f"interior transport must be simzhao or full, got {interior!r}")
    if side is Side.DUAL:
        blocks = sol.x_blocks
    elif side is Side.PRIMAL:
        blocks = sol.s_blocks
    else:
        raise DimensionMismatch(f"side must be dual or primal, got {side!r}")
    if blocks is None:
        raise MissingSolutionPart("proper transport needs the mapped-side blocks")
    sol.validate_against(problem)
    inside = SimZhao() if interior == "simzhao" else FullRank()
    codes = _cone_positions(problem.layout, np.concatenate(blocks), tol)
    choices = [inside if pos == INTERIOR else RankOne() for pos in codes]
    return map_solution(problem, sol, side, choices, tol)


def max_principal_angle(u: np.ndarray, v: np.ndarray) -> float:
    """Largest principal angle between equal-dimension column spans (radians).

    Computed from the residual of v against the projector onto span(u); the
    sine form stays accurate for tiny angles, where arccos of a cosine near 1
    loses half the digits. Subspaces of different dimension are maximally
    apart by convention.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape[1] != v.shape[1]:
        return math.pi / 2.0
    if u.shape[1] == 0:
        return 0.0
    residual = v - u @ (u.T @ v)
    sig = np.linalg.svd(residual, compute_uv=False)
    return float(math.asin(min(1.0, float(sig.max()))))
