import math
import tracemalloc

import numpy as np
import pytest

from conic_embed import (
    BadSubset,
    DimensionMismatch,
    FullRank,
    InconsistentDual,
    NotArrowHead,
    NotFinite,
    NotInterior,
    NotPSD,
    OutsideCone,
    ProvenanceMismatch,
    RankK,
    RankOne,
    SdoSolution,
    SimZhao,
    SocoSolution,
    SymMatrix,
    arrow_head,
    block_arrow_head,
    build_dual_embedding,
    build_primal_embedding,
    check_admissibility,
    cone_position,
    ConePosition,
    extract_block_vector,
    full_rank_factors,
    generate_instance,
    inverse_map,
    map_block,
    map_solution,
    numeric_rank,
    with_duality_gap,
)
from conic_embed.embed import per_cone_choices
from conic_embed.soco import BlockLayout
from conic_embed.sdo import Side

from helpers import corpus, legal_rank_specs, max_block_diff


def assert_admissible_block(m: SymMatrix, x: np.ndarray, tol=1e-12):
    """Independent check of the three per-block conditions via numpy only."""
    scale = 1.0 + float(np.abs(x).max())
    assert abs(float(np.trace(m.a)) - x[0]) < tol * scale
    if x.shape[0] > 1:
        assert np.abs(2.0 * m.a[0, 1:] - x[1:]).max() < tol * scale
    assert float(np.linalg.eigvalsh(m.a)[0]) > -1e-11 * scale


def interior_vec(rng, n):
    t = rng.standard_normal(n - 1)
    return np.concatenate(([np.linalg.norm(t) + 0.3 + rng.uniform()], t))


def boundary_vec(rng, n):
    t = rng.standard_normal(n - 1)
    return np.concatenate(([np.linalg.norm(t)], t))


class TestBuildDualEmbedding:
    def test_structure(self):
        A = (np.array([[1.0, 2.0], [0.0, 1.0]]), np.array([[3.0], [1.0]]))
        c = (np.array([1.0, 0.5]), np.array([2.0]))
        b = np.array([4.0, 5.0])
        from conic_embed import SocoProblem

        p = SocoProblem((2, 1), A, c, b)
        sdo = build_dual_embedding(p)
        assert sdo.dim == 3
        assert sdo.num_constraints == 2
        assert np.array_equal(sdo.b, b)
        want_c = np.array([[1.0, 0.5, 0], [0.5, 1.0, 0], [0, 0, 2.0]])
        assert np.array_equal(sdo.C.a, want_c)
        want_a0 = np.array([[1.0, 2.0, 0], [2.0, 1.0, 0], [0, 0, 3.0]])
        assert np.array_equal(sdo.constraints[0].a, want_a0)
        assert sdo.meta.side is Side.DUAL
        assert sdo.meta.cone_dims == (2, 1)
        assert sdo.meta.m_original == 2
        assert np.array_equal(sdo.meta.zero_pairs, np.empty((0, 2)))

    def test_trace_against_admissible_block_is_inner_product(self):
        # Tr(Arw(c) M) = c1 tr(M) + 2 sum_j c_j M[0,j] = c . x for any block
        # meeting the trace / first-row conditions; this is what preserves the
        # objective under every transport
        rng = np.random.default_rng(20)
        c = rng.standard_normal(4)
        x = interior_vec(rng, 4)
        for m in (map_block(x, RankOne()), map_block(x, SimZhao()), map_block(x, FullRank())):
            got = float(np.sum(arrow_head(c).a * m.a))
            assert got == pytest.approx(float(c @ x), abs=1e-12)


class TestRankOneMap:
    def test_frozen_interior_axis(self):
        # the head entry comes out of an outer product, so it carries one
        # rounding of 4/sqrt(8) squared; the off-axis entries are exact zeros
        m = map_block(np.array([2.0, 0.0, 0.0]), RankOne())
        assert m.a[0, 0] == pytest.approx(2.0, rel=1e-15)
        off = m.a.copy()
        off[0, 0] = 0.0
        assert np.array_equal(off, np.zeros((3, 3)))

    def test_frozen_boundary(self):
        m = map_block(np.array([1.0, 1.0]), RankOne())
        assert np.abs(m.a - 0.5).max() <= 1e-15

    def test_zero_maps_to_zero(self):
        assert np.array_equal(map_block(np.zeros(4), RankOne()).a, np.zeros((4, 4)))

    def test_outside_rejected(self):
        with pytest.raises(OutsideCone):
            map_block(np.array([1.0, 2.0]), RankOne())

    def test_conditions_and_rank(self):
        rng = np.random.default_rng(21)
        for n in (1, 2, 3, 5, 9):
            for make in (interior_vec, boundary_vec):
                if n == 1 and make is boundary_vec:
                    continue
                x = make(rng, n)
                m = map_block(x, RankOne())
                assert_admissible_block(m, x)
                assert numeric_rank(m) == 1
                assert np.linalg.matrix_rank(m.a, tol=1e-8) == 1

    def test_boundary_delta_snapped(self):
        # on the boundary the slack under the square root is cancellation noise;
        # the map must behave as if it were exactly zero
        rng = np.random.default_rng(22)
        t = rng.standard_normal(4)
        x = np.concatenate(([np.linalg.norm(t)], t))
        m = map_block(x, RankOne())
        beta0 = math.sqrt(m.a[0, 0])
        assert beta0 == pytest.approx(math.sqrt(x[0] / 2.0), rel=1e-14)


class TestSimZhaoMap:
    def test_frozen_axis(self):
        m = map_block(np.array([1.0, 0.0, 0.0]), SimZhao())
        assert np.array_equal(m.a, np.diag([0.5, 0.25, 0.25]))

    def test_one_dimensional(self):
        assert np.array_equal(map_block(np.array([2.5]), SimZhao()).a, [[2.5]])

    def test_interior_full_rank(self):
        rng = np.random.default_rng(23)
        for n in (2, 3, 6):
            x = interior_vec(rng, n)
            m = map_block(x, SimZhao())
            assert_admissible_block(m, x)
            assert numeric_rank(m) == n
            assert float(np.linalg.eigvalsh(m.a)[0]) > 0.0

    def test_boundary_reduces_to_rank_one(self):
        rng = np.random.default_rng(24)
        for n in (2, 3, 5, 8):
            x = boundary_vec(rng, n)
            diff = np.abs(map_block(x, SimZhao()).a - map_block(x, RankOne()).a).max()
            assert diff < 1e-14 * (1.0 + abs(x[0]))

    def test_zero_and_outside(self):
        assert np.array_equal(map_block(np.zeros(3), SimZhao()).a, np.zeros((3, 3)))
        with pytest.raises(OutsideCone):
            map_block(np.array([-1.0, 0.0]), SimZhao())


class TestRankKMap:
    def test_frozen_example(self):
        x = np.array([2.0, 1.0, 0.0])
        m = map_block(x, RankK(2, (2,)))
        assert_admissible_block(m, x)
        assert numeric_rank(m) == 2
        # the bump lands on coordinate 2 only
        theta = 3.0 + math.sqrt(5.0)
        assert m.a[1, 1] == pytest.approx(1.0 / theta + 0.5, rel=1e-14)
        assert m.a[2, 2] == pytest.approx(0.0, abs=1e-15)

    def test_subset_choice_changes_matrix_not_rank(self):
        x = np.array([2.0, 1.0, 0.0])
        m_a = map_block(x, RankK(2, (2,)))
        m_b = map_block(x, RankK(2, (3,)))
        assert not np.array_equal(m_a.a, m_b.a)
        for m in (m_a, m_b):
            assert_admissible_block(m, x)
            assert numeric_rank(m) == 2

    def test_all_ranks_attainable_inside(self):
        rng = np.random.default_rng(25)
        for n in (2, 4, 7):
            x = interior_vec(rng, n)
            for k in range(2, n + 1):
                m = map_block(x, RankK(k, tuple(range(2, k + 1))))
                assert_admissible_block(m, x)
                assert numeric_rank(m) == k

    def test_bad_subsets(self):
        x = np.array([2.0, 1.0, 0.0])
        with pytest.raises(BadSubset):
            map_block(x, RankK(2, (1,)))
        with pytest.raises(BadSubset):
            map_block(x, RankK(3, (2, 2)))
        with pytest.raises(BadSubset):
            map_block(x, RankK(2, (4,)))
        with pytest.raises(BadSubset):
            map_block(x, RankK(1, ()))  # interior trace cannot sit in rank one

    def test_boundary_empty_subset_is_rank_one(self):
        x = np.array([1.0, 1.0, 0.0])
        assert np.array_equal(map_block(x, RankK(1, ())).a, map_block(x, RankOne()).a)

    def test_boundary_rejects_higher_rank(self):
        with pytest.raises(NotInterior):
            map_block(np.array([1.0, 1.0, 0.0]), RankK(2, (2,)))

    def test_zero_vector(self):
        assert np.array_equal(map_block(np.zeros(3), RankK(2, (2,))).a, np.zeros((3, 3)))


def reference_rank_one(x):
    """beta beta^T, beta = (x1 + delta, t) / sqrt(2 (x1 + delta)), as an outer
    product."""
    head, tail = float(x[0]), x[1:]
    margin2 = head * head - float(tail @ tail)
    delta = 0.0 if margin2 <= 4.0 * np.finfo(float).eps * head * head else math.sqrt(margin2)
    beta = np.concatenate(([head + delta], tail)) / math.sqrt(2.0 * (head + delta))
    return np.outer(beta, beta)


def reference_rank_k(x, subset):
    """nu1 nu1^T plus the diagonal bump, nu1 = (theta/2, t) / sqrt(theta), as an
    outer product."""
    head, tail = float(x[0]), x[1:]
    rho = float(np.linalg.norm(tail))
    theta = head + rho + math.sqrt(max((head + rho) ** 2 - 4.0 * rho * rho, 0.0))
    nu1 = np.concatenate(([theta / 2.0], tail)) / math.sqrt(theta)
    m = np.outer(nu1, nu1)
    for j in subset:
        m[j - 1, j - 1] += (head - rho) / (2.0 * len(subset))
    return m


class TestClosedFormKernel:
    """Every closed-form transport is one theta-block."""

    def vectors(self, seed, count=300):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            n = int(rng.integers(2, 9))
            scale = 10.0 ** rng.uniform(-3, 3)
            tail = scale * rng.standard_normal(n - 1)
            yield scale * interior_vec(rng, n), np.concatenate(([np.linalg.norm(tail)], tail))

    def test_matches_outer_product_references(self):
        rng = np.random.default_rng(31)
        for x, b in self.vectors(30):
            n = x.shape[0]
            for v in (x, b):
                gate = 2e-15 * (1.0 + np.abs(v).max())
                assert np.abs(map_block(v, RankOne()).a - reference_rank_one(v)).max() <= gate
            k = int(rng.integers(2, n + 1))
            subset = tuple(sorted(rng.choice(np.arange(2, n + 1), k - 1, replace=False)))
            gate = 2e-15 * (1.0 + np.abs(x).max())
            m = map_block(x, RankK(k, subset))
            assert np.abs(m.a - reference_rank_k(x, subset)).max() <= gate

    def test_sim_zhao_is_rank_k_on_every_coordinate(self):
        for x, _ in self.vectors(32):
            full = range(2, x.shape[0] + 1)
            assert np.array_equal(map_block(x, SimZhao()).a, map_block(x, RankK(x.shape[0], full)).a)

    def test_first_row_exact_and_boundary_collapse(self):
        for x, b in self.vectors(33):
            for m, v in ((map_block(x, RankOne()), x), (map_block(b, RankOne()), b),
                         (map_block(x, SimZhao()), x), (map_block(b, SimZhao()), b),
                         (map_block(x, RankK(2, (x.shape[0],))), x)):
                assert np.array_equal(2.0 * m.a[0, 1:], v[1:])
            # b1 == ||b[1:]|| exactly: the closed form is the rank-one block
            assert np.array_equal(map_block(b, SimZhao()).a, map_block(b, RankOne()).a)


class TestFullRankMap:
    def test_factors_and_gram(self):
        rng = np.random.default_rng(26)
        for n in (2, 3, 5, 8, 14, 16, 32, 64, 96):
            x = interior_vec(rng, n)
            betas = full_rank_factors(x)
            assert len(betas) == n
            m = map_block(x, FullRank())
            assert np.array_equal(m.a, map_block(x, SimZhao()).a)
            assert_admissible_block(m, x)
            assert numeric_rank(m) == n
            gram = sum(np.outer(b, b) for b in betas)
            assert np.abs(gram - m.a).max() < 1e-13 * np.abs(x).max()

    def test_one_dimensional(self):
        betas = full_rank_factors(np.array([4.0]))
        assert len(betas) == 1
        assert betas[0][0] == pytest.approx(2.0)

    def test_dim_16_instance_admissible_on_both_sides(self):
        # x is interior (label B) and the gap shift makes s interior as well
        inst = with_duality_gap(generate_instance((16,), ("B",), m=3, seed=16), 0.5)
        for side, build, block in (
            (Side.DUAL, build_dual_embedding, lambda sol: sol.X),
            (Side.PRIMAL, build_primal_embedding, lambda sol: sol.S),
        ):
            sdo = build(inst.problem)
            mapped = map_solution(inst.problem, inst.solution, side, FullRank(), tol=1e-8)
            report = check_admissibility(inst.problem, inst.solution, sdo, mapped, tol=1e-8)
            assert report.passed, side
            assert numeric_rank(block(mapped)) == 16, side

    def test_requires_interior(self):
        with pytest.raises(NotInterior):
            map_block(np.array([1.0, 1.0]), FullRank())
        with pytest.raises(NotInterior):
            map_block(np.zeros(3), FullRank())
        with pytest.raises(NotInterior):
            map_block(np.array([1.0, 2.0]), FullRank())


class TestMapBlock:
    @pytest.mark.parametrize("x", [[np.nan, 0.0], [np.inf, 1.0], [2.0, 1.0, -np.inf]])
    def test_rejects_non_finite(self, x):
        for choice in (RankOne(), SimZhao(), FullRank()):
            with pytest.raises(NotFinite):
                map_block(x, choice)

    def test_one_dimensional_collapse(self):
        x = np.array([2.0])
        for choice in (RankOne(), SimZhao(), RankK(1), FullRank()):
            assert np.array_equal(map_block(x, choice).a, [[2.0]])

    def test_one_dimensional_full_rank_needs_interior(self):
        # [[0]] and [[1e-9]] would be rank 0 or off the interior
        for x in (np.array([0.0]), np.array([1e-9]), np.array([-1.0])):
            with pytest.raises(NotInterior):
                map_block(x, FullRank())
        for choice in (RankOne(), SimZhao(), RankK(1), RankK(3)):
            assert np.array_equal(map_block(np.array([0.0]), choice).a, [[0.0]])
        inst = generate_instance((1, 3), ("N", "B"), m=2, seed=9)
        with pytest.raises(NotInterior):
            map_solution(inst.problem, inst.solution, Side.DUAL, FullRank())

    def test_rank_k_validation(self):
        x = np.array([2.0, 1.0, 0.0])
        with pytest.raises(BadSubset):
            map_block(x, RankK(4))
        with pytest.raises(BadSubset):
            map_block(x, RankK(0))
        with pytest.raises(BadSubset):
            map_block(x, RankK(2, subset=(2, 3)))
        m = map_block(x, RankK(2))  # default subset (2,)
        assert np.array_equal(m.a, map_block(x, RankK(2, (2,))).a)

    def test_unknown_choice(self):
        with pytest.raises(TypeError):
            map_block(np.array([1.0, 0.0]), "one")

    def test_per_cone_choices(self):
        assert per_cone_choices(RankOne(), 3) == (RankOne(),) * 3
        assert per_cone_choices([RankOne(), SimZhao()], 2) == (RankOne(), SimZhao())
        with pytest.raises(DimensionMismatch):
            per_cone_choices([RankOne()], 2)


class TestOneMatrixCheckEach:
    """Per-cone blocks are plain arrays, so each assembled matrix is built and
    checked as one SymMatrix, whatever the cone count; a build stores C as
    triplets and builds none."""

    def test_symmatrix_constructions_on_six_cones(self, monkeypatch):
        inst = generate_instance((4,) * 6, ("B", "N", "R", "T1", "T2", "T3"), m=3, seed=6)
        built = []
        init = SymMatrix.__init__

        def counting(self, array):
            built.append(1)
            init(self, array)

        monkeypatch.setattr(SymMatrix, "__init__", counting)
        for call, want in (
            (lambda: map_solution(inst.problem, inst.solution, Side.DUAL, SimZhao()), 2),
            (lambda: map_solution(inst.problem, inst.solution, Side.PRIMAL, SimZhao()), 2),
            (lambda: build_dual_embedding(inst.problem), 0),
            (lambda: build_primal_embedding(inst.problem), 0),
        ):
            built.clear()
            call()
            assert len(built) == want


class TestNoDenseObjective:
    def test_dual_build_peaks_below_a_dense_matrix(self):
        # 256 cones of dim 4 and 6 rows: a dense 1024 x 1024 C alone takes 8.4 MB
        inst = generate_instance((4,) * 256, ("B",) * 256, m=6, seed=3)
        inst.problem.layout  # built once, outside the measurement
        tracemalloc.start()
        try:
            sdo = build_dual_embedding(inst.problem)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6
        assert sdo.C.nnz == 256 * 7


class TestMapSolutionDual:
    def test_block_structure(self):
        inst = generate_instance((3, 2), ("B", "R"), m=3, seed=30)
        sol = inst.solution
        mapped = map_solution(inst.problem, sol, Side.DUAL, [SimZhao(), RankOne()])
        assert np.array_equal(mapped.y, sol.y)
        x0, x1 = sol.x_blocks
        assert np.array_equal(mapped.X.a[:3, :3], map_block(x0, SimZhao()).a)
        assert np.array_equal(mapped.X.a[3:, 3:], map_block(x1, RankOne()).a)
        assert np.abs(mapped.X.a[:3, 3:]).max() == 0.0
        assert np.array_equal(mapped.S.a, block_arrow_head(sol.s_blocks).a)

    def test_partial_solutions_stay_partial(self):
        inst = generate_instance((3,), ("B",), m=2, seed=31)
        only_x = SocoSolution(x_blocks=inst.solution.x_blocks)
        mapped = map_solution(inst.problem, only_x, Side.DUAL)
        assert mapped.X is not None and mapped.y is None and mapped.S is None
        only_y = SocoSolution(y=inst.solution.y)
        mapped = map_solution(inst.problem, only_y, Side.DUAL)
        assert mapped.X is None and mapped.S is None
        assert np.array_equal(mapped.y, inst.solution.y)

    def test_slack_outside_cone_rejected(self):
        inst = generate_instance((3,), ("B",), m=2, seed=32)
        bad = SocoSolution(s_blocks=(np.array([-1.0, 0.0, 0.0]),))
        with pytest.raises(OutsideCone):
            map_solution(inst.problem, bad, Side.DUAL)


class TestTransportErrorsNameTheCone:
    """Both transports and the proper map prefix "cone i: " (0-based, as
    classify prints it) to the per-cone errors, keeping their class."""

    def test_both_sides_and_proper_map(self):
        from conic_embed import proper_map_solution

        inst = generate_instance((3, 1, 3), ("B", "N", "B"), m=2, seed=9)
        with pytest.raises(NotInterior, match=r"^cone 1: full-rank transport"):
            map_solution(inst.problem, inst.solution, Side.DUAL, FullRank())
        # on the primal side the slacks are mapped: cone 0's is the origin
        with pytest.raises(NotInterior, match=r"^cone 0: "):
            map_solution(inst.problem, inst.solution, Side.PRIMAL, FullRank())
        with pytest.raises(BadSubset, match=r"^cone 2: subset"):
            map_solution(inst.problem, inst.solution, Side.DUAL,
                         (RankOne(), RankOne(), RankK(2, (5,))))
        outside = SocoSolution(x_blocks=inst.solution.x_blocks,
                               s_blocks=(np.zeros(3), np.ones(1), np.array([-1.0, 0.0, 0.0])))
        with pytest.raises(OutsideCone, match=r"^cone 2: vector"):
            map_solution(inst.problem, outside, Side.DUAL)
        with pytest.raises(OutsideCone, match=r"^cone 2: vector"):
            map_solution(inst.problem, outside, Side.PRIMAL)
        with pytest.raises(OutsideCone, match=r"^cone 2: vector"):
            proper_map_solution(inst.problem, outside, Side.PRIMAL)


class TestInverseMapDual:
    def test_round_trip_all_legal_specs(self):
        for inst in corpus(12, master_seed=77):
            sdo = build_dual_embedding(inst.problem)
            for name, spec in legal_rank_specs(inst, Side.DUAL):
                mapped = map_solution(inst.problem, inst.solution, Side.DUAL, spec)
                back = inverse_map(sdo.meta, mapped)
                assert max_block_diff(back.x_blocks, inst.solution.x_blocks) < 1e-12, name
                assert max_block_diff(back.s_blocks, inst.solution.s_blocks) < 1e-12, name
                assert np.array_equal(back.y, inst.solution.y)

    @pytest.mark.parametrize("side", [Side.DUAL, Side.PRIMAL])
    def test_transports_hand_over_without_a_copy(self, side):
        # y is passed on as the read-only array or slice it is, and the
        # inverse's cone blocks are views of the one vector it computed
        inst = generate_instance((3, 2), ("B", "R"), m=2, seed=5)
        sdo = (build_dual_embedding if side is Side.DUAL else build_primal_embedding)(inst.problem)
        mapped = map_solution(inst.problem, inst.solution, side, RankOne())
        if side is Side.DUAL:
            assert mapped.y is inst.solution.y
        back = inverse_map(sdo.meta, mapped, problem=inst.problem)
        assert np.shares_memory(back.y, mapped.y)
        for blocks in (back.x_blocks, back.s_blocks):
            assert blocks[0].base is not None and blocks[0].base is blocks[1].base

    def test_extraction_formula(self):
        layout = BlockLayout.from_dims((3,))
        rng = np.random.default_rng(33)
        g = rng.standard_normal((3, 2))
        X = SymMatrix(g @ g.T)
        v = extract_block_vector(X, layout, 0)
        assert v[0] == pytest.approx(np.trace(X.a))
        assert np.array_equal(v[1:], 2.0 * X.a[0, 1:])

    def test_extraction_checks_the_layout(self):
        X = block_arrow_head([[3.0, 1.0, 1.0], [2.0, 1.0]])  # dim 5
        with pytest.raises(DimensionMismatch, match="^X has dim 5, expected 4$"):
            extract_block_vector(X, BlockLayout.from_dims((2, 2)), 1)

    def test_extraction_of_psd_block_lands_in_cone(self):
        # trace >= 2 ||first row|| holds for every PSD matrix
        rng = np.random.default_rng(34)
        layout = BlockLayout.from_dims((5,))
        for k in (1, 2, 5):
            g = rng.standard_normal((5, k))
            v = extract_block_vector(SymMatrix(g @ g.T), layout, 0)
            assert cone_position(v) is not ConePosition.OUTSIDE

    def test_requires_dual_meta(self):
        from conic_embed.sdo import GENERIC_META

        with pytest.raises(ProvenanceMismatch):
            inverse_map(GENERIC_META, make_sdo_solution())

    def test_rejects_indefinite_X(self):
        inst = generate_instance((3,), ("B",), m=2, seed=35)
        sdo = build_dual_embedding(inst.problem)
        bad = SymMatrix(np.diag([1.0, -1.0, 0.0]))
        from conic_embed import SdoSolution

        with pytest.raises(NotPSD):
            inverse_map(sdo.meta, SdoSolution(X=bad))

    def test_rejects_off_block_slack(self):
        inst = generate_instance((2, 2), ("B", "N"), m=2, seed=36)
        sdo = build_dual_embedding(inst.problem)
        mapped = map_solution(inst.problem, inst.solution, Side.DUAL, SimZhao())
        s = mapped.S.a.copy()
        s[0, 3] = s[3, 0] = 0.5
        from conic_embed import SdoSolution

        with pytest.raises(NotArrowHead) as exc:
            inverse_map(sdo.meta, SdoSolution(S=SymMatrix(s)))
        assert exc.value.violation == 0.5
        assert str(exc.value).endswith("by 5.000e-01 at off-block entry")

    def test_rejects_wrong_dimension(self):
        inst = generate_instance((3,), ("B",), m=2, seed=37)
        sdo = build_dual_embedding(inst.problem)
        from conic_embed import SdoSolution

        with pytest.raises(DimensionMismatch):
            inverse_map(sdo.meta, SdoSolution(X=SymMatrix.identity(4)))

    def test_y_must_have_m_entries(self):
        inst = generate_instance((3, 2), ("B", "R"), m=2, seed=5)
        sdo = build_dual_embedding(inst.problem)
        from conic_embed import SdoSolution

        for length in (1, 4):
            with pytest.raises(DimensionMismatch, match=f"y has length {length}, expected 2"):
                inverse_map(sdo.meta, SdoSolution(y=np.zeros(length)))

    def test_tampered_slack_is_inconsistent_given_the_problem(self):
        inst = generate_instance((3,), ("N",), m=2, seed=55)
        sdo = build_dual_embedding(inst.problem)
        mapped = map_solution(inst.problem, inst.solution, Side.DUAL, SimZhao())
        s = mapped.S.a.copy()
        s[0, 1] += 0.2
        s[1, 0] += 0.2
        from conic_embed import InconsistentDual, SdoSolution

        tampered = SdoSolution(X=mapped.X, y=mapped.y, S=SymMatrix(s))
        with pytest.raises(InconsistentDual, match="^slack block 0 "):
            inverse_map(sdo.meta, tampered, problem=inst.problem)
        back = inverse_map(sdo.meta, tampered)  # nothing to check s against
        assert back.s_blocks[0][1] == pytest.approx(inst.solution.s_blocks[0][1] + 0.2)

    def test_slack_from_y_alone_given_the_problem(self):
        inst = generate_instance((3, 2), ("B", "R"), m=3, seed=53)
        sdo = build_dual_embedding(inst.problem)
        from conic_embed import SdoSolution

        only_y = SdoSolution(y=inst.solution.y)
        assert inverse_map(sdo.meta, only_y).s_blocks is None
        back = inverse_map(sdo.meta, only_y, problem=inst.problem)
        assert max_block_diff(back.s_blocks, inst.solution.s_blocks) < 1e-12

    def test_rejects_carried_slack_outside_the_cone(self):
        # S holds Arw((-5, 0, 0)) for cone 0: indefinite, and its arrow-head
        # read lies outside the cone
        inst = generate_instance((3, 2), ("B", "R"), m=2, seed=5)
        sdo = build_dual_embedding(inst.problem)
        mapped = map_solution(inst.problem, inst.solution, Side.DUAL, SimZhao())
        s = mapped.S.a.copy()
        s[:3, :3] = arrow_head([-5.0, 0.0, 0.0]).a
        bad = SdoSolution(X=mapped.X, y=mapped.y, S=SymMatrix(s))
        with pytest.raises(OutsideCone, match=r"^cone 0: vector \[-5\.  0\.  0\.\] lies outside its cone$"):
            inverse_map(sdo.meta, bad)
        with pytest.raises(InconsistentDual, match="^slack block 0 "):  # c - A^T y comes first
            inverse_map(sdo.meta, bad, problem=inst.problem)


def make_sdo_solution():
    from conic_embed import SdoSolution

    return SdoSolution(X=SymMatrix.identity(2))
