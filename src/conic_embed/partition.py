"""Optimal-partition bookkeeping: cone-side labels, the closed-form arrow-head
eigensystem, and the two routes from a labeled cone solution to subspace bases
(B, N, T) of the embedded problem.

The table route builds the bases directly from the labels and the boundary
directions; the eigen route decomposes a transported matrix pair. For proper
transports (block rank equal to the cone rank everywhere) the two agree.

Cone positions, the complementarity band, the zero-tail checks and the
arrow-head eigensystems read each cone vector's frame (soco._frame), the one
a solution part made when it was built; no tail dot is computed here.
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
    _checked,
    _checked_tol,
    _two_level_eigensystem,
    _vector,
    eigh,
    orthonormal_complement,
    trace_inner,
)
from .sdo import SdoSolution, Side, lifted_part
from .soco import (
    INTERIOR,
    OUTSIDE,
    POSITIONS,
    BlockLayout,
    ConePosition,
    SocoProblem,
    SocoSolution,
    _frame,
    _jordan_rows,
    _position_codes,
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
    tol = _checked_tol(tol)
    if sol.x_blocks is None or sol.s_blocks is None:
        raise MissingSolutionPart("classification needs x and s blocks")
    sol.validate_against(problem)
    x, s = sol._parts["x_blocks"], sol._parts["s_blocks"]
    px, ps = _position_codes(x.frame, tol), _position_codes(s.frame, tol)
    comp = _complementarity(problem.layout, x.flat, s.flat)
    band = tol * (1.0 + x.frame.peak) * (1.0 + s.frame.peak)
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


def _complementarity(layout: BlockLayout, x: np.ndarray, s: np.ndarray) -> np.ndarray:
    """max |x_i o s_i| per cone of the concatenated x and s, in cone order.
    classify_cones holds it within tol (1 + ||x_i||_inf) (1 + ||s_i||_inf),
    from the peaks of the cones' frames."""
    comp = np.empty(len(layout.dims))
    for g in layout.groups:
        comp[g.ids] = np.abs(_jordan_rows(x[g.at], s[g.at])).max(axis=1)
    return comp


def arrowhead_eigensystem(v) -> EigenDecomposition:
    """Closed-form eigendecomposition of the arrow-head matrix of v.

    Eigenvalues ascending: v1 - ||t||, then v1 with multiplicity n - 2, then
    v1 + ||t|| (t = v[1:]); extreme eigenvectors are (1, -d)/sqrt(2) and
    (1, d)/sqrt(2) for the unit tail direction d, middle ones are (0, z) with
    z spanning the tail complement. Degenerates to the standard basis when the
    tail vanishes. NotFinite on a NaN or an infinite entry.
    """
    v = _vector(v, "v")
    tt = _frame(v[None]).tt
    if tt[0] == 0.0:
        vals, vecs = np.full(v.shape[0], v[0]), np.eye(v.shape[0])
    else:
        vals, vecs = (a[0] for a in _arrow_head_eigensystems(v[None], tt))
    vals.setflags(write=False)
    vecs.setflags(write=False)
    return EigenDecomposition(vals, vecs)


ORTHONORMAL_GATE = 1e-6  # SdoPartition.validate's bound on |B^T B - I|, B the bases side by side


@dataclass(frozen=True, eq=False)
class SdoPartition:
    """Orthonormal bases of the three mutually orthogonal subspaces."""

    basis_b: np.ndarray
    basis_n: np.ndarray
    basis_t: np.ndarray

    def __post_init__(self):
        for name in ("basis_b", "basis_n", "basis_t"):
            (a,) = _checked((getattr(self, name),), ((None, None),), name)
            object.__setattr__(self, name, a)

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.basis_b.shape[1], self.basis_n.shape[1], self.basis_t.shape[1])

    def validate(self) -> None:
        n = self.basis_b.shape[0]
        stacked = np.hstack([self.basis_b, self.basis_n, self.basis_t])
        if stacked.shape != (n, n):
            raise DimensionMismatch(
                f"basis dimensions {self.dims} do not sum to the ambient {n}"
            )
        dev = float(np.abs(stacked.T @ stacked - np.eye(n)).max())
        if dev > ORTHONORMAL_GATE:
            raise DimensionMismatch(f"bases deviate from orthonormality by {dev:.3e}")


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
    middle vectors join the class of the part the side carries as an
    arrow-head (not sdo.lifted_part's), which keeps them; a lifted low-rank
    image does not. tol is not read: the routing takes the labels as given;
    the solution's blocks must match the problem.
    """
    lifted = lifted_part(side)
    labels = list(labels)
    if len(labels) != problem.r:
        raise DimensionMismatch(f"{len(labels)} labels for {problem.r} cones")
    sol.validate_against(problem)
    layout = problem.layout
    # per class, the (cone, columns) pieces in order: columns None for the
    # whole block, else columns of the cone's arrow-head frame
    pieces = {cls: [] for cls in "BNT"}
    boundary = {}  # cone -> the part giving its direction
    for i, label in enumerate(labels):
        n = layout.dims[i]
        if label in _WHOLE_ROUTE:
            pieces[_WHOLE_ROUTE[label]].append((i, None))
            continue
        if label not in _BOUNDARY_ROUTE:
            raise LabelMismatch(f"unknown label {label!r}")
        source, x_cls, s_cls = _BOUNDARY_ROUTE[label]
        part = sol._parts.get(source + "_blocks")
        if part is None:
            raise MissingSolutionPart(f"label needs the {source} block for cone {i}")
        if n < 2:
            raise LabelMismatch(f"cone {i} is one-dimensional; no boundary direction exists")
        if part.frame.tt[i] <= 0.0:  # ||v[1:]|| <= 0, without the square root
            raise LabelMismatch(f"cone {i}: {source} block has a zero tail, no direction")
        boundary[i] = part
        aligned, opposed = (x_cls, s_cls) if source == "x" else (s_cls, x_cls)
        arrow = s_cls if lifted == "x_blocks" else x_cls
        middle = list(range(1, n - 1))
        for cls, col in ((aligned, n - 1), (opposed, 0)):
            pieces[cls].append((i, [col] + (middle if cls == arrow else [])))
    frames = {}  # each boundary cone's arrow-head eigenvectors, one call per size
    for g in layout.groups:
        ids = [i for i in g.ids.tolist() if i in boundary]
        if ids:
            v = np.stack([boundary[i].blocks[i] for i in ids])
            tt = np.array([boundary[i].frame.tt[i] for i in ids])
            frames.update(zip(ids, _arrow_head_eigensystems(v, tt)[1]))
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


def _arrow_head_eigensystems(v: np.ndarray, tt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and column eigenvectors of the arrow-head of each row of
    the (k, n) stack v, whose tail dots tt (from the rows' frame) are
    nonzero, in the order of arrowhead_eigensystem: _two_level_eigensystem
    with along = rest = v1."""
    head = v[:, :1]
    rho = np.sqrt(tt)[:, None]
    return _two_level_eigensystem(head, rho, v[:, 1:] / rho, head, head)


def sdo_partition_from_solution(
    X: SymMatrix, S: SymMatrix, tol: float = DEFAULT_TOL
) -> SdoPartition:
    """Eigen route: B spans the range of X, N the range of S, T the rest.

    X and S must be PSD within tol and trace-complementary; B and N must come
    out orthogonal (gate sqrt(tol)), otherwise the pair was not complementary
    enough to define a partition.
    """
    tol = _checked_tol(tol)
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
    tol = _checked_tol(tol)
    part = sol._parts.get(lifted_part(side))
    if part is None:
        raise MissingSolutionPart("proper transport needs the mapped-side blocks")
    sol.validate_against(problem)
    inside = SimZhao() if interior == "simzhao" else FullRank()
    codes = _position_codes(part.frame, tol)
    choices = [inside if pos == INTERIOR else RankOne() for pos in codes]
    return map_solution(problem, sol, side, choices, tol)


def max_principal_angle(u: np.ndarray, v: np.ndarray) -> float:
    """Largest principal angle between equal-dimension column spans (radians).

    Computed from the residual of v against the projector onto span(u); the
    sine form stays accurate for tiny angles, where arccos of a cosine near 1
    loses half the digits. Subspaces of different dimension are maximally
    apart by convention.
    """
    (u,) = _checked((u,), ((None, None),), "u")
    (v,) = _checked((v,), ((None, None),), "v")
    if v.shape[0] != u.shape[0]:
        raise DimensionMismatch(f"v has {v.shape[0]} rows, expected {u.shape[0]} as u has")
    if u.shape[1] != v.shape[1]:
        return math.pi / 2.0
    if u.shape[1] == 0:
        return 0.0
    residual = v - u @ (u.T @ v)
    sig = np.linalg.svd(residual, compute_uv=False)  # descending
    return math.asin(min(1.0, float(sig[0])))
