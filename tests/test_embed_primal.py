import math

import numpy as np
import pytest

from conic_embed import (
    DimensionMismatch,
    InconsistentDual,
    NotPSD,
    OutsideCone,
    RankOne,
    SdoSolution,
    SimZhao,
    SocoProblem,
    SocoSolution,
    SparseSym,
    SymMatrix,
    arrow_head,
    build_primal_embedding,
    generate_instance,
    inverse_map,
    map_solution,
    sdo_dual_residual,
    sdo_primal_residual,
)
from conic_embed.sdo import EmbeddingMeta, Side
from conic_embed import soco
from conic_embed.soco import BlockLayout, arrow_head_triplets

from helpers import corpus, legal_rank_specs, max_block_diff, ref_recover_uw


def primal_inverse(problem, sol):
    return inverse_map(EmbeddingMeta(Side.PRIMAL, problem.cone_dims, problem.m), sol,
                       problem=problem)


class TestStructuralIndex:
    """BlockLayout.pins: the entries the primal embedding's structural rows pin."""

    def test_single_cone_dim2(self):
        pairs, tied = BlockLayout.from_dims((2,)).pins
        assert np.array_equal(pairs, np.empty((0, 2)))
        assert np.array_equal(tied, [1])

    def test_single_cone_dim3(self):
        pairs, tied = BlockLayout.from_dims((3,)).pins
        assert np.array_equal(pairs, [(1, 2)])
        assert np.array_equal(tied, [1, 2])

    def test_two_cones_dim2(self):
        pairs, tied = BlockLayout.from_dims((2, 2)).pins
        assert np.array_equal(pairs, [(0, 2), (0, 3), (1, 2), (1, 3)])
        assert np.array_equal(tied, [1, 3])

    def test_mixed_dims_order(self):
        layout = BlockLayout.from_dims((3, 2))
        pairs, tied = layout.pins
        assert np.array_equal(
            pairs, [(0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4)]
        )
        assert np.array_equal(tied, [1, 2, 4])
        assert layout.cone_ids.tolist() == [0, 0, 0, 1, 1]
        assert not pairs.flags.writeable and not tied.flags.writeable

    def test_computed_once_per_shape(self, monkeypatch):
        # equal layouts share one read-only pair of arrays; the build and the
        # primal transport both read it without computing it again
        soco._shared_layout.cache_clear()
        inst = generate_instance((3, 2), ("B", "R"), m=2, seed=5)
        calls = []
        triu_indices = np.triu_indices
        monkeypatch.setattr(np, "triu_indices", lambda *a: calls.append(a) or triu_indices(*a))
        pins = inst.problem.layout.pins
        assert BlockLayout.from_dims((3, 2)).pins is pins
        build_primal_embedding(inst.problem)
        map_solution(inst.problem, inst.solution, Side.PRIMAL, RankOne())
        assert calls == [(5, 1)]
        assert soco._shared_layout.cache_info().maxsize == soco.PINS_CACHED

    def test_counts(self):
        # pinned pairs cover every strict-upper coordinate outside the arrow
        # patterns; tied diagonals cover every non-leading diagonal entry
        for dims in ((2,), (3,), (5, 2), (3, 3, 4)):
            pairs, tied = BlockLayout.from_dims(dims).pins
            total = sum(dims)
            off_arrow_tail = sum(d - 1 for d in dims)
            assert len(tied) == off_arrow_tail
            assert len(pairs) == total * (total - 1) // 2 - off_arrow_tail
            assert len(set(map(tuple, pairs.tolist()))) == len(pairs)
            assert all(h < l for h, l in pairs)


def _scaled_arrow_head(blocks, dims):
    """the scaled arrow-head (v1 / n, v[1:] / 2) of the primal data rows,
    built as the embedding builds it: from arrow_head_triplets"""
    layout = BlockLayout.from_dims(dims)
    triplets = arrow_head_triplets(np.concatenate(blocks)[None], layout, dims, 2.0)
    return SparseSym(sum(dims), *triplets[1:]).a


class TestScaledArrowHead:
    def test_frozen_block(self):
        m = _scaled_arrow_head([np.array([3.0, 2.0])], (2,))
        assert np.array_equal(m, [[1.5, 1.0], [1.0, 1.5]])

    def test_trace_identity(self):
        # Tr(scaled(a) Arw(x)) = a . x is what keeps the data rows faithful
        rng = np.random.default_rng(40)
        for dims in ((3,), (2, 4), (1, 3, 2)):
            a_blocks = [rng.standard_normal(n) for n in dims]
            x_blocks = [rng.standard_normal(n) for n in dims]
            lhs = float(
                np.sum(
                    _scaled_arrow_head(a_blocks, dims)
                    * _block_diag_dense([arrow_head(x).a for x in x_blocks])
                )
            )
            rhs = sum(float(a @ x) for a, x in zip(a_blocks, x_blocks))
            assert lhs == pytest.approx(rhs, abs=1e-12)


def _block_diag_dense(blocks):
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n))
    at = 0
    for b in blocks:
        out[at:at + b.shape[0], at:at + b.shape[0]] = b
        at += b.shape[0]
    return out


class TestBuildPrimalEmbedding:
    def test_row_layout(self):
        A = (np.array([[1.0, 2.0]]),)
        c = (np.array([4.0, 6.0]),)
        p = SocoProblem((2,), A, c, np.array([5.0]))
        sdo = build_primal_embedding(p)
        # one data row, no pairs, one tied-diagonal row
        assert sdo.num_constraints == 2
        assert np.array_equal(sdo.C.a, [[2.0, 3.0], [3.0, 2.0]])
        assert np.array_equal(sdo.constraints[0].a, [[0.5, 1.0], [1.0, 0.5]])
        assert np.array_equal(sdo.constraints[1].a, [[1.0, 0.0], [0.0, -1.0]])
        assert np.array_equal(sdo.b, [5.0, 0.0])
        assert sdo.meta.side is Side.PRIMAL
        assert np.array_equal(sdo.meta.zero_pairs, np.empty((0, 2)))
        assert np.array_equal(sdo.meta.tied_diagonals, [1])

    def test_pair_rows(self):
        p = SocoProblem(
            (2, 1),
            (np.array([[1.0, 0.0]]), np.array([[1.0]])),
            (np.zeros(2), np.zeros(1)),
            np.array([1.0]),
        )
        sdo = build_primal_embedding(p)
        # rows: 1 data + 2 pairs ((0,2),(1,2)) + 1 tied
        assert sdo.num_constraints == 4
        pair_row = sdo.constraints[1].a
        want = np.zeros((3, 3))
        want[0, 2] = want[2, 0] = 1.0
        assert np.array_equal(pair_row, want)
        tied = sdo.constraints[3].a
        assert tied[0, 0] == 1.0 and tied[1, 1] == -1.0

    def test_feasibility_transfers(self):
        # Arw(x) of a feasible x satisfies every embedded row at zero residual
        for inst in corpus(8, master_seed=88):
            sdo = build_primal_embedding(inst.problem)
            mapped = map_solution(inst.problem, inst.solution, Side.PRIMAL, RankOne())
            assert sdo_primal_residual(sdo, mapped) < 1e-12


class TestRecoverUW:
    """The structural multipliers (u, w) in the primal map's y."""

    def test_frozen_slack_multipliers(self):
        s = np.array([2.0, 1.0, 0.0])
        y = np.array([0.5])
        A = np.array([[1.0, -1.0, 2.0]])
        problem = SocoProblem((3,), (A,), (s + A[0] * y[0],), np.zeros(1))
        mapped = map_solution(problem, SocoSolution(y=y, s_blocks=(s,)), Side.PRIMAL, RankOne())
        assert mapped.y[0] == 0.5
        w, u = mapped.y[1:2], mapped.y[2:]
        root3 = math.sqrt(3.0)
        assert u[0] == pytest.approx((2.0 - root3) / 2.0 - 2.0 / 3.0, rel=1e-14)
        assert u[1] == pytest.approx(-2.0 / 3.0, rel=1e-14)
        assert w.shape == (1,) and w[0] == pytest.approx(0.0, abs=1e-15)

    def test_no_template_check_at_a_tiny_tol(self):
        # S is built to s's template, so its trace and first rows are not
        # tested against s again: a tol below their roundoff (1.1e-16 on
        # cone 1) maps, with the y of tol 1e-8 bit for bit
        inst = generate_instance((3, 5, 4), ("N", "R", "T3"), 3, 1)
        tiny = map_solution(inst.problem, inst.solution, Side.PRIMAL, RankOne(), 1e-300)
        usual = map_solution(inst.problem, inst.solution, Side.PRIMAL, RankOne(), 1e-8)
        assert tiny.y.tobytes() == usual.y.tobytes()
        assert np.array_equal(tiny.S.a, usual.S.a)


class TestMapSolutionPrimal:
    def test_dual_vector_reconstructs_objective_row(self):
        # C - sum_j y_j A_j - S must vanish: the recovered (v | w | u) is the
        # unique multiplier assignment closing the embedded dual constraint
        for inst in corpus(8, master_seed=99):
            sdo = build_primal_embedding(inst.problem)
            for name, spec in legal_rank_specs(inst, Side.PRIMAL):
                mapped = map_solution(inst.problem, inst.solution, Side.PRIMAL, spec)
                assert mapped.y is not None
                assert sdo_dual_residual(sdo, mapped) < 1e-11, name

    def test_split_alignment(self):
        inst = generate_instance((3, 2), ("R", "N"), m=2, seed=50)
        sdo = build_primal_embedding(inst.problem)
        mapped = map_solution(inst.problem, inst.solution, Side.PRIMAL, RankOne())
        u, w = ref_recover_uw(mapped.S, inst.solution.s_blocks, inst.problem.cone_dims)
        assert len(w) == len(sdo.meta.zero_pairs)
        assert len(u) == len(sdo.meta.tied_diagonals)
        assert np.array_equal(mapped.y, np.concatenate((inst.solution.y, w, u)))

    def test_no_dual_without_y(self):
        inst = generate_instance((3,), ("N",), m=2, seed=51)
        sol = SocoSolution(s_blocks=inst.solution.s_blocks)
        mapped = map_solution(inst.problem, sol, Side.PRIMAL, SimZhao())
        assert mapped.S is not None
        assert mapped.y is None

    def test_x_outside_rejected(self):
        inst = generate_instance((3,), ("B",), m=2, seed=52)
        bad = SocoSolution(x_blocks=(np.array([0.0, 1.0, 0.0]),))
        with pytest.raises(OutsideCone):
            map_solution(inst.problem, bad, Side.PRIMAL)


class TestInverseMapPrimal:
    def test_round_trip_all_legal_specs(self):
        for inst in corpus(12, master_seed=111):
            for name, spec in legal_rank_specs(inst, Side.PRIMAL):
                mapped = map_solution(inst.problem, inst.solution, Side.PRIMAL, spec)
                back = primal_inverse(inst.problem, mapped)
                assert max_block_diff(back.x_blocks, inst.solution.x_blocks) < 1e-12, name
                assert max_block_diff(back.s_blocks, inst.solution.s_blocks) < 1e-12, name
                assert np.abs(back.y - inst.solution.y).max() < 1e-15

    def test_slack_from_y_alone(self):
        inst = generate_instance((3, 2), ("B", "R"), m=3, seed=53)
        mapped = map_solution(inst.problem, inst.solution, Side.PRIMAL, RankOne())
        only_y = SdoSolution(y=mapped.y)
        back = primal_inverse(inst.problem, only_y)
        assert back.s_blocks is not None
        assert max_block_diff(back.s_blocks, inst.solution.s_blocks) < 1e-12

    def test_rejects_off_block_x(self):
        inst = generate_instance((2, 2), ("B", "N"), m=2, seed=54)
        mapped = map_solution(inst.problem, inst.solution, Side.PRIMAL, RankOne())
        x = mapped.X.a.copy()
        x[0, 2] = x[2, 0] = 0.3
        from conic_embed import NotArrowHead

        with pytest.raises(NotArrowHead) as exc:
            primal_inverse(inst.problem, SdoSolution(X=SymMatrix(x)))
        assert exc.value.violation == 0.3
        assert str(exc.value).endswith("by 3.000e-01 at off-block entry")

    def test_rejects_tampered_slack(self):
        inst = generate_instance((3,), ("N",), m=2, seed=55)
        mapped = map_solution(inst.problem, inst.solution, Side.PRIMAL, RankOne())
        s = mapped.S.a.copy()
        s[0, 1] += 0.2
        s[1, 0] += 0.2
        with pytest.raises(InconsistentDual):
            primal_inverse(inst.problem, SdoSolution(y=mapped.y, S=SymMatrix(s)))

    def test_rejects_indefinite_S(self):
        # a trace-preserving change inside one slack block passes the c - A^T v
        # cross-check, so only the PSD check can refuse it
        inst = generate_instance((3, 3), ("B", "N"), m=3, seed=5)
        mapped = map_solution(inst.problem, inst.solution, Side.PRIMAL, SimZhao())
        s = mapped.S.a.copy()
        s[4, 4] += 50.0
        s[5, 5] -= 50.0
        with pytest.raises(NotPSD):
            primal_inverse(inst.problem, SdoSolution(y=mapped.y, S=SymMatrix(s)))

    @pytest.mark.parametrize("with_problem", [False, True])
    def test_rejects_carried_x_outside_the_cone(self, with_problem):
        # X[0, 1] = 50 reads back as x0 = (1.48, 50, 0.62); the problem
        # cross-checks s only, so it cannot catch this
        inst = generate_instance((3, 2), ("B", "R"), m=2, seed=5)
        sdo = build_primal_embedding(inst.problem)
        mapped = map_solution(inst.problem, inst.solution, Side.PRIMAL, SimZhao())
        x = mapped.X.a.copy()
        x[0, 1] = x[1, 0] = 50.0
        bad = SdoSolution(X=SymMatrix(x), y=mapped.y, S=mapped.S)
        with pytest.raises(OutsideCone, match=r"^cone 0: vector \[ ?1\.48\d* +50\. .*\] lies outside"):
            inverse_map(sdo.meta, bad, problem=inst.problem if with_problem else None)

    def test_rejects_short_y(self):
        inst = generate_instance((3,), ("B",), m=2, seed=56)
        with pytest.raises(DimensionMismatch):
            primal_inverse(inst.problem, SdoSolution(y=np.zeros(1)))

    @pytest.mark.parametrize("dims", [(3, 2), (4, 1, 3), (2, 2, 2, 2), (5,)])
    def test_y_must_have_the_row_count(self, dims):
        # m + N(N-1)/2 rows for total cone dimension N, without the pins
        inst = generate_instance(dims, ("B",) * len(dims), m=2, seed=57)
        n = sum(dims)
        rows = 2 + n * (n - 1) // 2
        sdo = build_primal_embedding(inst.problem)
        assert sdo.num_constraints == rows
        y = np.zeros(rows)
        assert np.array_equal(inverse_map(sdo.meta, SdoSolution(y=y)).y, [0.0, 0.0])
        for length in (rows - 1, rows + 3):
            with pytest.raises(DimensionMismatch, match=f"y has length {length}, expected {rows}"):
                primal_inverse(inst.problem, SdoSolution(y=np.zeros(length)))
