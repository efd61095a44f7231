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
    _two_level_eigensystem,
    eigh,
    orthonormal_complement,
    trace_inner,
)
from .sdo import SdoSolution, Side
from .soco import (
    ConePosition,
    SocoProblem,
    SocoSolution,
    cone_position,
    jordan_product,
)
from .embed_dual import FullRank, RankOne, SimZhao, map_solution_dual
from .embed_primal import map_solution_primal


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
    raise OutsideCone.
    """
    if sol.x_blocks is None or sol.s_blocks is None:
        raise MissingSolutionPart("classification needs x and s blocks")
    sol.validate_against(problem)
    labels = []
    for i, (x, s) in enumerate(zip(sol.x_blocks, sol.s_blocks)):
        px = cone_position(x, tol)
        ps = cone_position(s, tol)
        if ConePosition.OUTSIDE in (px, ps):
            raise OutsideCone(f"cone {i}: vector outside the cone")
        label = _POSITION_LABEL.get((px, ps))
        if label is None:
            raise InconsistentPair(
                f"cone {i}: positions ({px.value}, {ps.value}) cannot be complementary"
            )
        comp = float(np.abs(jordan_product(x, s)).max())
        band = tol * (1.0 + float(np.abs(x).max())) * (1.0 + float(np.abs(s).max()))
        if comp > band:
            raise InconsistentPair(
                f"cone {i}: jordan product magnitude {comp:.3e} breaks complementarity"
            )
        labels.append(label)
    return labels


def arrowhead_eigensystem(v) -> EigenDecomposition:
    """Closed-form eigendecomposition of the arrow-head matrix of v.

    Eigenvalues ascending: v1 - ||t||, then v1 with multiplicity n - 2, then
    v1 + ||t|| (t = v[1:]); extreme eigenvectors are (1, -d)/sqrt(2) and
    (1, d)/sqrt(2) for the unit tail direction d, middle ones are (0, z) with
    z spanning the tail complement. Degenerates to the standard basis when the
    tail vanishes.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.shape[0] < 1:
        raise DimensionMismatch(f"need a nonempty vector, got shape {v.shape}")
    n = v.shape[0]
    head = float(v[0])
    rho = float(np.linalg.norm(v[1:]))
    if rho == 0.0:
        vals, vecs = np.full(n, head), np.eye(n)
    else:
        vals, vecs = _two_level_eigensystem(head, rho, v[1:] / rho, head, head)
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
    if float(np.linalg.norm(v[1:])) <= 0.0:
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
    total = layout.total
    cols = {cls: [np.zeros((total, 0))] for cls in "BNT"}

    def _add(cls: str, local: np.ndarray, i: int) -> None:
        out = np.zeros((total, local.shape[1]))
        out[layout.block_slice(i), :] = local
        cols[cls].append(out)

    for i, label in enumerate(labels):
        n = problem.cone_dims[i]
        if label in _WHOLE_ROUTE:
            _add(_WHOLE_ROUTE[label], np.eye(n), i)
            continue
        if label not in _BOUNDARY_ROUTE:
            raise LabelMismatch(f"unknown label {label!r}")
        source, x_cls, s_cls = _BOUNDARY_ROUTE[label]
        blocks = sol.x_blocks if source == "x" else sol.s_blocks
        frame = arrowhead_eigensystem(_boundary_block(blocks, i, source)).eigenvectors
        aligned, opposed = (x_cls, s_cls) if source == "x" else (s_cls, x_cls)
        arrow = s_cls if side is Side.DUAL else x_cls
        middle = list(range(1, n - 1))
        for cls, col in ((aligned, n - 1), (opposed, 0)):
            _add(cls, frame[:, [col] + (middle if cls == arrow else [])], i)

    part = SdoPartition(*(np.hstack(cols[cls]) for cls in "BNT"))
    part.validate()
    return part


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
    choices = []
    for v in blocks:
        if cone_position(v, tol) is ConePosition.INTERIOR:
            choices.append(SimZhao() if interior == "simzhao" else FullRank())
        else:
            choices.append(RankOne())
    if side is Side.DUAL:
        return map_solution_dual(problem, sol, choices, tol)
    return map_solution_primal(problem, sol, choices, tol)


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
