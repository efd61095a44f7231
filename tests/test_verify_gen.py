import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conic_embed import (
    DimensionMismatch,
    GenerationError,
    InconsistentPair,
    MissingSolutionPart,
    ProvenanceMismatch,
    RankOne,
    SdoSolution,
    SimZhao,
    SocoSolution,
    SymMatrix,
    build_dual_embedding,
    build_primal_embedding,
    check_admissibility,
    classify_cones,
    cone_position,
    ConePosition,
    dual_residual,
    example1_counterexample,
    generate_instance,
    jordan_product,
    map_partition,
    map_solution,
    primal_residual,
    trace_inner,
    with_duality_gap,
)
from conic_embed.sdo import GENERIC_META, SdoProblem, Side
from conic_embed.soco import SocoProblem

from helpers import LABELS_1D, LABELS_ANY


def gap(inst):
    """The duality gap c^T x - b^T y of an instance's solution."""
    p, sol = inst.problem, inst.solution
    cx = sum(float(c @ x) for c, x in zip(p.c_blocks, sol.x_blocks))
    return cx - float(p.b @ sol.y)


class TestExample1:
    def test_default_direction_residual_one(self):
        for n in (3, 5, 10):
            X, S, residual = example1_counterexample(n)
            assert residual == 1.0
            # product is diag(0, I - u u^T) with u = e1
            u = np.eye(n - 1)[0]
            prod = X.a @ S.a
            assert np.abs(prod[0, :]).max() < 1e-15
            assert np.abs(prod[1:, 1:] - (np.eye(n - 1) - np.outer(u, u))).max() < 1e-15

    def test_custom_direction_frozen(self):
        u = np.array([1.0, 1.0]) / np.sqrt(2.0)
        X, S, residual = example1_counterexample(3, u)
        assert residual == pytest.approx(0.5, abs=1e-15)

    def test_small_n_rejected(self):
        with pytest.raises(DimensionMismatch):
            example1_counterexample(2)

    def test_direction_validation(self):
        with pytest.raises(DimensionMismatch):
            example1_counterexample(4, np.array([1.0, 0.0]))
        with pytest.raises(DimensionMismatch):
            example1_counterexample(3, np.array([1.0, 1.0]))

    def test_admissible_maps_restore_complementarity(self):
        rng = np.random.default_rng(70)
        for n in (3, 6):
            u = rng.standard_normal(n - 1)
            u /= np.linalg.norm(u)
            x = np.concatenate(([1.0], u))
            s = np.concatenate(([1.0], -u))
            from conic_embed import RankOne, arrow_head, map_block

            assert abs(trace_inner(map_block(x, RankOne()), arrow_head(s))) < 1e-10
            assert abs(trace_inner(arrow_head(x), map_block(s, RankOne()))) < 1e-10


class TestGenerator:
    def test_deterministic(self):
        a = generate_instance((3, 2), ("B", "R"), m=3, seed=42)
        b = generate_instance((3, 2), ("B", "R"), m=3, seed=42)
        for blk_a, blk_b in zip(a.problem.A_blocks, b.problem.A_blocks):
            assert np.array_equal(blk_a, blk_b)
        assert np.array_equal(a.problem.b, b.problem.b)
        for va, vb in zip(a.solution.x_blocks, b.solution.x_blocks):
            assert np.array_equal(va, vb)
        c = generate_instance((3, 2), ("B", "R"), m=3, seed=43)
        assert not np.array_equal(a.problem.b, c.problem.b)

    def test_zero_gap_and_feasibility(self):
        inst = generate_instance((3, 2, 4), ("R", "N", "T2"), m=4, seed=44)
        assert primal_residual(inst.problem, inst.solution) < 1e-13
        assert dual_residual(inst.problem, inst.solution) < 1e-14
        assert abs(gap(inst)) < 1e-13

    def test_labels_realized(self):
        labels = ("B", "N", "R", "T1", "T2", "T3")
        inst = generate_instance((2, 3, 4, 2, 3, 5), labels, m=3, seed=45)
        got = classify_cones(inst.problem, inst.solution)
        assert tuple(lab.value for lab in got) == labels

    def test_one_dimensional_cones(self):
        inst = generate_instance((1, 1, 1), ("B", "N", "T1"), m=2, seed=46)
        got = classify_cones(inst.problem, inst.solution)
        assert tuple(lab.value for lab in got) == ("B", "N", "T1")

    def test_impossible_labels_at_dim_one(self):
        for lab in ("R", "T2", "T3"):
            with pytest.raises(GenerationError):
                generate_instance((1,), (lab,), m=2, seed=0)

    def test_argument_validation(self):
        with pytest.raises(GenerationError):
            generate_instance((2, 2), ("B",), m=2, seed=0)
        with pytest.raises(GenerationError):
            generate_instance((2,), ("Q",), m=2, seed=0)
        with pytest.raises(GenerationError):
            generate_instance((2,), ("B",), m=0, seed=0)

    def test_constraint_matrix_full_rank(self):
        inst = generate_instance((3, 3), ("B", "N"), m=4, seed=47)
        stacked = np.hstack(inst.problem.A_blocks)
        assert np.linalg.matrix_rank(stacked) == 4


class TestDualityGapFamily:
    def test_gap_exact(self):
        inst = generate_instance((3, 2), ("B", "R"), m=3, seed=48)
        for delta in (1e-4, 0.05, 1.0, 3.75):
            gapped = with_duality_gap(inst, delta)
            assert gap(gapped) == pytest.approx(delta, abs=1e-12)
            assert primal_residual(gapped.problem, gapped.solution) < 1e-13
            assert dual_residual(gapped.problem, gapped.solution) < 1e-14

    def test_gap_breaks_complementarity(self):
        inst = generate_instance((3,), ("B",), m=2, seed=49)
        gapped = with_duality_gap(inst, 0.5)
        with pytest.raises(InconsistentPair):
            classify_cones(gapped.problem, gapped.solution)

    def test_needs_positive_lead(self):
        inst = generate_instance((2, 2), ("N", "T1"), m=2, seed=50)
        with pytest.raises(GenerationError):
            with_duality_gap(inst, 0.1)

    def test_slack_stays_in_cone(self):
        inst = generate_instance((3,), ("B",), m=2, seed=51)
        gapped = with_duality_gap(inst, 2.0)
        assert cone_position(gapped.solution.s_blocks[0]) is not ConePosition.OUTSIDE


class TestCheckAdmissibility:
    def test_transported_pair_passes_both_sides(self):
        inst = generate_instance((3, 2), ("R", "B"), m=3, seed=52)
        for side, build in ((Side.DUAL, build_dual_embedding),
                            (Side.PRIMAL, build_primal_embedding)):
            sdo = build(inst.problem)
            mapped = map_solution(inst.problem, inst.solution, side, SimZhao())
            report = check_admissibility(inst.problem, inst.solution, sdo, mapped)
            assert report.passed
            assert report.sdo_complementarity_trace < 1e-10
            lines = report.lines()
            assert lines[-1] == "verdict PASS"
            assert sum("PASS" in ln for ln in lines) >= 5

    def test_perturbed_X_fails_with_known_residual(self):
        inst = generate_instance((3,), ("B",), m=2, seed=53)
        sdo = build_dual_embedding(inst.problem)
        mapped = map_solution(inst.problem, inst.solution, Side.DUAL, RankOne())
        x = mapped.X.a.copy()
        x[0, 1] += 0.1
        x[1, 0] += 0.1
        bad = SdoSolution(X=SymMatrix(x), y=mapped.y, S=mapped.S)
        report = check_admissibility(inst.problem, inst.solution, sdo, bad)
        assert not report.passed
        want = max(0.2 * abs(a.a[0, 1]) for a in sdo.constraints)
        assert report.primal_residual == pytest.approx(want, rel=1e-12)
        assert "FAIL" in report.lines()[-1] or "FAIL" in " ".join(report.lines())

    def test_provenance_checks(self):
        inst = generate_instance((3,), ("B",), m=2, seed=54)
        sdo = build_dual_embedding(inst.problem)
        mapped = map_solution(inst.problem, inst.solution, Side.DUAL, RankOne())
        generic = SdoProblem(sdo.dim, sdo.C, sdo.constraints, sdo.b, GENERIC_META)
        with pytest.raises(ProvenanceMismatch):
            check_admissibility(inst.problem, inst.solution, generic, mapped)
        other = generate_instance((4,), ("B",), m=2, seed=55)
        other_sdo = build_dual_embedding(other.problem)
        with pytest.raises(ProvenanceMismatch):
            check_admissibility(inst.problem, inst.solution, other_sdo, mapped)

    def test_missing_parts(self):
        inst = generate_instance((3,), ("B",), m=2, seed=56)
        sdo = build_dual_embedding(inst.problem)
        mapped = map_solution(inst.problem, inst.solution, Side.DUAL, RankOne())
        partial = SocoSolution(x_blocks=inst.solution.x_blocks)
        with pytest.raises(MissingSolutionPart):
            check_admissibility(inst.problem, partial, sdo, mapped)
        with pytest.raises(MissingSolutionPart):
            check_admissibility(
                inst.problem, inst.solution, sdo, SdoSolution(X=mapped.X)
            )

    def test_jordan_complementarity_reported(self):
        inst = generate_instance((3, 2), ("B", "N"), m=2, seed=57)
        sdo = build_dual_embedding(inst.problem)
        mapped = map_solution(inst.problem, inst.solution, Side.DUAL, RankOne())
        report = check_admissibility(inst.problem, inst.solution, sdo, mapped)
        want = max(
            np.abs(jordan_product(x, s)).max()
            for x, s in zip(inst.solution.x_blocks, inst.solution.s_blocks)
        )
        assert report.soco_complementarity == want


@st.composite
def instance_and_permutation(draw):
    dims = draw(st.lists(st.sampled_from((1, 2, 3, 5)), min_size=1, max_size=4))
    labels = [draw(st.sampled_from(LABELS_1D if n == 1 else LABELS_ANY)) for n in dims]
    inst = generate_instance(dims, labels, m=draw(st.integers(1, 4)),
                             seed=draw(st.integers(0, 10_000)))
    return inst, draw(st.permutations(range(len(dims))))


class TestConePermutation:
    """Reordering the cones, together with their A and c blocks, solution
    blocks and labels, changes no label, verdict or partition dimension.
    Rescaling by 10**+-8 is left out: checks such as the admissibility
    residuals are absolute, so such an instance fails them without any error
    in its data until one scale-aware tolerance rule covers every check."""

    @settings(deadline=None, max_examples=40)
    @given(instance_and_permutation())
    def test_labels_verdicts_and_partition_dims(self, drawn):
        inst, perm = drawn
        p, sol = inst.problem, inst.solution
        pick = lambda blocks: tuple(blocks[i] for i in perm)
        problem = SocoProblem(pick(p.cone_dims), pick(p.A_blocks), pick(p.c_blocks), p.b)
        permuted = SocoSolution(pick(sol.x_blocks), sol.y, pick(sol.s_blocks))
        labels = classify_cones(p, sol)
        assert classify_cones(problem, permuted) == list(pick(labels))
        for side, build in ((Side.DUAL, build_dual_embedding),
                            (Side.PRIMAL, build_primal_embedding)):
            for spec in (RankOne(), SimZhao()):
                verdicts = [
                    check_admissibility(q, s, build(q), map_solution(q, s, side, spec)).passed
                    for q, s in ((p, sol), (problem, permuted))
                ]
                assert verdicts[0] == verdicts[1]
            assert (map_partition(problem, permuted, pick(labels), side).dims
                    == map_partition(p, sol, labels, side).dims)
