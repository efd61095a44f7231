"""Admissibility verification, the Jordan-vs-matrix complementarity
counterexample, and a seeded instance generator with prescribed cone labels."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import DimensionMismatch, GenerationError, MissingSolutionPart
from .linalg import DEFAULT_TOL, SymMatrix, _checked, _checked_int, _checked_tol, trace_inner
from .sdo import SdoProblem, SdoSolution, sdo_dual_residual, sdo_primal_residual
from .soco import (
    BlockLayout,
    SocoProblem,
    SocoSolution,
    _row_dots,
    arrow_head,
    jordan_product,
)
from .partition import ConeLabel, _complementarity


@dataclass(frozen=True)
class AdmissibilityReport:
    """Feasibility and objective preservation of a transported solution pair.

    The four admissibility checks (two residuals, two objective gaps) decide
    the verdict; the complementarity numbers are informational, since a
    feasible pair need not be optimal.
    """

    primal_residual: float
    dual_residual: float
    primal_obj_gap: float
    dual_obj_gap: float
    soco_complementarity: float
    sdo_complementarity_trace: float
    sdo_complementarity_norm: float
    tol: float

    @property
    def checks(self) -> dict[str, bool]:
        return {
            "primal_residual": self.primal_residual <= self.tol,
            "dual_residual": self.dual_residual <= self.tol,
            "primal_obj_gap": self.primal_obj_gap <= self.tol,
            "dual_obj_gap": self.dual_obj_gap <= self.tol,
        }

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def lines(self) -> list[str]:
        out = []
        for name, ok in self.checks.items():
            mark = "PASS" if ok else "FAIL"
            out.append(f"{name:<22} {getattr(self, name):12.4e}  <= {self.tol:.1e}  {mark}")
        out.append(f"{'soco_complementarity':<22} {self.soco_complementarity:12.4e}  (info)")
        out.append(f"{'sdo_trace_XS':<22} {self.sdo_complementarity_trace:12.4e}  (info)")
        out.append(f"{'sdo_norm_XS':<22} {self.sdo_complementarity_norm:12.4e}  (info)")
        out.append(f"verdict {'PASS' if self.passed else 'FAIL'}")
        return out


def check_admissibility(
    problem: SocoProblem,
    sol: SocoSolution,
    sdo_problem: SdoProblem,
    sdo_sol: SdoSolution,
    tol: float = DEFAULT_TOL,
) -> AdmissibilityReport:
    """Verify that the transported pair is feasible for the embedded problem
    and preserves both objective values.

    The embedded problem's meta must match the cone problem it came from
    (EmbeddingMeta.match: a dual or primal side, the same cone dimensions and
    row count; its dim then follows); otherwise ProvenanceMismatch. Needs
    the full (x, y, s) and (X, y, S) pairs.
    """
    tol = _checked_tol(tol)
    sdo_problem.meta.match(problem)
    if sol.x_blocks is None or sol.y is None or sol.s_blocks is None:
        raise MissingSolutionPart("admissibility needs the full (x, y, s)")
    if sdo_sol.X is None or sdo_sol.y is None or sdo_sol.S is None:
        raise MissingSolutionPart("admissibility needs the full (X, y, S)")
    sol.validate_against(problem)
    sdo_sol.validate_against(sdo_problem)

    # per-cone terms, the cones of one size at once; c^T x is summed in cone
    # order, as a sum of per-cone dot products
    layout = problem.layout
    x, s, c = sol._parts["x_blocks"].flat, sol._parts["s_blocks"].flat, problem._c
    dots = np.empty(problem.r)
    for g in layout.groups:
        dots[g.ids] = _row_dots(c[g.at], x[g.at])
    cx = sum(dots.tolist())
    by_soco = float(problem.b @ sol.y)
    by_sdo = float(sdo_problem.b @ sdo_sol.y)
    xs = sdo_sol.X.a @ sdo_sol.S.a
    return AdmissibilityReport(
        primal_residual=sdo_primal_residual(sdo_problem, sdo_sol),
        dual_residual=sdo_dual_residual(sdo_problem, sdo_sol),
        primal_obj_gap=abs(cx - trace_inner(sdo_problem.C, sdo_sol.X)),
        dual_obj_gap=abs(by_soco - by_sdo),
        soco_complementarity=float(_complementarity(layout, x, s).max()),
        sdo_complementarity_trace=trace_inner(sdo_sol.X, sdo_sol.S),
        sdo_complementarity_norm=float(np.abs(xs).max()),
        tol=tol,
    )


def example1_counterexample(
    n: int, direction: Optional[np.ndarray] = None
) -> tuple[SymMatrix, SymMatrix, float]:
    """Jordan-complementary pair whose arrow-head images do not multiply to zero.

    x = (1, u), s = (1, -u) for a unit vector u: the Jordan product vanishes,
    yet Arw(x) Arw(s) = diag(0, I - u u^T), which is nonzero for n >= 3. The
    returned residual is ||Arw(x) Arw(s)||_inf. n = 2 is rejected: with a
    single tail coordinate the product genuinely vanishes.
    """
    n = _checked_int(n, "n", 3)
    if direction is None:
        u = np.zeros(n - 1)
        u[0] = 1.0
    else:
        (u,) = _checked((direction,), ((n - 1,),), "direction")
        if abs(float(np.linalg.norm(u)) - 1.0) > 1e-12:
            raise DimensionMismatch("direction must be a unit vector (within 1e-12)")
    x = np.concatenate(([1.0], u))
    s = np.concatenate(([1.0], -u))
    jp = float(np.abs(jordan_product(x, s)).max())
    X = arrow_head(x)
    S = arrow_head(s)
    residual = float(np.abs(X.a @ S.a).max())
    assert jp <= 1e-12, f"jordan product unexpectedly large: {jp:.3e}"
    assert residual > 0.0, "arrow-head product vanished; not a counterexample"
    return X, S, residual


@dataclass(frozen=True, eq=False)
class GeneratedInstance:
    problem: SocoProblem
    solution: SocoSolution
    labels: tuple[ConeLabel, ...]
    seed: int


LabelLike = Union[ConeLabel, str]


def _as_label(lab: LabelLike) -> ConeLabel:
    if isinstance(lab, ConeLabel):
        return lab
    try:
        return ConeLabel(str(lab).upper())
    except ValueError:
        raise GenerationError(
            f"unknown label {lab!r}; expected one of B, N, R, T1, T2, T3"
        ) from None


def _unit_direction(rng: np.random.Generator, k: int) -> np.ndarray:
    for _ in range(100):
        d = rng.uniform(-1.0, 1.0, k)
        norm = float(np.linalg.norm(d))
        if norm > 1e-3:
            return d / norm
    raise GenerationError("could not draw a usable direction")  # pragma: no cover


def _interior_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    if n == 1:
        return np.array([0.1 + rng.uniform(0.0, 1.0)])
    tail = rng.uniform(-1.0, 1.0, n - 1)
    head = float(np.linalg.norm(tail)) + 0.1 + rng.uniform(0.0, 1.0)
    return np.concatenate(([head], tail))


def _boundary_vector(rng: np.random.Generator, d: np.ndarray) -> np.ndarray:
    scale = 0.2 + rng.uniform(0.0, 1.0)
    return np.concatenate(([scale], scale * d))


def generate_instance(
    cone_dims: Sequence[int],
    labels: Sequence[LabelLike],
    m: int,
    seed: int,
) -> GeneratedInstance:
    """Seeded instance with a known optimal pair realizing the given labels.

    Per cone the pair (x_i, s_i) is drawn by label: B interior/zero,
    N zero/interior, R opposed boundary vectors, T1 zero/zero, T2 boundary/zero,
    T3 zero/boundary. Then y is drawn, b := sum A_i x_i and c_i := A_i^T y + s_i,
    which makes the pair optimal with zero duality gap. The concatenated A is
    redrawn until its rank is min(m, total dim). Same seed, same instance.
    """
    dims = BlockLayout.from_dims(cone_dims).dims
    labels = tuple(_as_label(lab) for lab in labels)
    if len(labels) != len(dims):
        raise GenerationError(f"{len(labels)} labels for {len(dims)} cones")
    m = _checked_int(m, "m", 1, GenerationError)
    seed = _checked_int(seed, "seed", 0, GenerationError)
    for n, lab in zip(dims, labels):
        if n == 1 and lab in (ConeLabel.R, ConeLabel.T2, ConeLabel.T3):
            raise GenerationError(
                f"label {lab.value} needs a boundary vector, impossible at dimension 1"
            )
    rng = np.random.default_rng(seed)
    x_blocks, s_blocks = [], []
    for n, lab in zip(dims, labels):
        if lab is ConeLabel.B:
            x, s = _interior_vector(rng, n), np.zeros(n)
        elif lab is ConeLabel.N:
            x, s = np.zeros(n), _interior_vector(rng, n)
        elif lab is ConeLabel.T1:
            x, s = np.zeros(n), np.zeros(n)
        else:
            d = _unit_direction(rng, n - 1)
            if lab is ConeLabel.R:
                x = _boundary_vector(rng, d)
                s = _boundary_vector(rng, -d)
            elif lab is ConeLabel.T2:
                x, s = _boundary_vector(rng, d), np.zeros(n)
            else:
                x, s = np.zeros(n), _boundary_vector(rng, -d)
        x_blocks.append(x)
        s_blocks.append(s)
    y = rng.uniform(-1.0, 1.0, m)
    total = sum(dims)
    want = min(m, total)
    for _ in range(50):
        A_blocks = [rng.uniform(-1.0, 1.0, (m, n)) for n in dims]
        if np.linalg.matrix_rank(np.hstack(A_blocks)) == want:
            break
    else:
        raise GenerationError("could not draw a full-rank constraint matrix")
    b = np.zeros(m)
    for a, x in zip(A_blocks, x_blocks):
        b += a @ x
    c_blocks = [a.T @ y + s for a, s in zip(A_blocks, s_blocks)]
    problem = SocoProblem(dims, tuple(A_blocks), tuple(c_blocks), b)
    solution = SocoSolution(tuple(x_blocks), y, tuple(s_blocks))
    return GeneratedInstance(problem, solution, labels, seed)


def with_duality_gap(inst: GeneratedInstance, delta: float) -> GeneratedInstance:
    """Shift one slack block along its cone axis so the pair stays feasible but
    the duality gap becomes exactly delta.

    Needs a cone whose x block has positive leading entry; t = delta / x1
    lands the gap at t * x1 = delta. delta must be a finite real number (an
    int, a float or a numpy number); a bool or text is refused, not read as
    a number (GenerationError).
    """
    if (isinstance(delta, bool) or not isinstance(delta, (int, float, np.integer, np.floating))
            or not math.isfinite(delta)):
        raise GenerationError(f"delta must be a finite real number, got {delta!r}")
    sol, problem = inst.solution, inst.problem
    heads = [float(x[0]) for x in sol.x_blocks]
    target = next((i for i, head in enumerate(heads) if head > 0.1), None)
    if target is None:
        raise GenerationError("no cone with positive x1; cannot place a gap")
    shift = np.zeros(problem.cone_dims[target])
    shift[0] = float(delta) / heads[target]
    s_blocks, c_blocks = list(sol.s_blocks), list(problem.c_blocks)
    s_blocks[target] = s_blocks[target] + shift
    c_blocks[target] = c_blocks[target] + shift
    problem = SocoProblem(problem.cone_dims, problem.A_blocks, tuple(c_blocks), problem.b)
    solution = SocoSolution(sol.x_blocks, sol.y, tuple(s_blocks))
    return GeneratedInstance(problem, solution, inst.labels, inst.seed)
