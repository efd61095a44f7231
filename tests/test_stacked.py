"""The cone-wise kernels work on stacks of the cones of one size. Held against
the per-cone reference path in helpers.py: the same bits on every output and
the same class and message on every error, for mixes of cone sizes, every
cone position and every rank choice."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conic_embed import (
    BadSubset,
    ConePosition,
    ConicEmbedError,
    DEFAULT_TOL,
    EmbeddingMeta,
    FullRank,
    InconsistentDual,
    NotInterior,
    OutsideCone,
    RankK,
    RankOne,
    SdoSolution,
    Side,
    SimZhao,
    SocoProblem,
    SocoSolution,
    SymMatrix,
    build_dual_embedding,
    build_primal_embedding,
    check_admissibility,
    classify_cones,
    generate_instance,
    inverse_map,
    map_partition,
    map_solution,
    proper_map_solution,
)

from conic_embed import embed
from helpers import (
    LABELS_1D,
    LABELS_ANY,
    ref_check_admissibility,
    ref_classify_cones,
    ref_cone_position,
    ref_inverse_map_dual,
    ref_inverse_map_primal,
    ref_map_partition,
    ref_map_solution_dual,
    ref_map_solution_primal,
    ref_sim_zhao_theta,
    ref_theta_one,
)

# drawn uniformly: a cone outside or refused ends the transport, so the
# positions that map are drawn more often
POSITIONS = ("zero", "tiny", "boundary", "boundary", "interior", "interior", "interior", "outside")


def outcome(fn, *args):
    """("ok", value) or ("error", class, message)."""
    try:
        return ("ok", fn(*args))
    except ConicEmbedError as exc:
        return ("error", type(exc), str(exc))


def bits(a):
    return None if a is None else (np.shape(a), np.asarray(a, dtype=float).tobytes())


def sdo_bits(sol):
    return tuple(bits(None if m is None else m.a) for m in (sol.X, sol.S)) + (bits(sol.y),)


def soco_bits(sol):
    parts = (sol.x_blocks, sol.s_blocks)
    return tuple(None if p is None else tuple(map(bits, p)) for p in parts) + (bits(sol.y),)


def report_bits(rep):
    return bits([getattr(rep, f) for f in (
        "primal_residual", "dual_residual", "primal_obj_gap", "dual_obj_gap",
        "soco_complementarity", "sdo_complementarity_trace", "sdo_complementarity_norm")])


def assert_same(got, want, key):
    """Both raised the same error, or both returned values with the same key."""
    assert got[0] == want[0], (got, want)
    if got[0] == "error":
        assert got[1:] == want[1:]
    else:
        assert key(got[1]) == key(want[1])


def cone_vector(rng, n: int, where: str) -> np.ndarray:
    if where == "zero":
        return np.zeros(n)
    if where == "tiny":  # within tol of the origin
        return rng.uniform(-1, 1, n) * 1e-9
    if n == 1 and where == "boundary":  # a head within the band just above tol
        return np.array([1e-8 + 5e-17])
    tail = rng.uniform(-1, 1, n - 1)
    rho = float(np.linalg.norm(tail))
    head = {"boundary": rho, "interior": rho + rng.uniform(0.1, 2.0),
            "outside": rho - rng.uniform(0.1, 1.0)}[where]
    return 10.0 ** rng.uniform(-3, 3) * np.concatenate(([head], tail))


@st.composite
def rank_choice(draw, n: int):
    kind = draw(st.sampled_from(("one", "simzhao", "full", "k")))
    if kind != "k":
        return {"one": RankOne(), "simzhao": SimZhao(), "full": FullRank()}[kind]
    k = draw(st.integers(1, n + 1))  # k = n + 1 is impossible
    if draw(st.booleans()) or n < 2:
        return RankK(k)
    size = draw(st.integers(0, n - 1))  # the right size is k - 1
    subset = draw(st.lists(st.integers(1, n + 1), min_size=size, max_size=size))
    if draw(st.booleans()) and k - 1 <= n - 1:  # a valid subset
        subset = draw(st.permutations(range(2, n + 1)))[:k - 1]
    return RankK(k, tuple(subset))


@st.composite
def cone_case(draw):
    dims = tuple(draw(st.lists(st.integers(1, 8), min_size=1, max_size=8)))
    x_at = [draw(st.sampled_from(POSITIONS)) for _ in dims]
    s_at = [draw(st.sampled_from(POSITIONS)) for _ in dims]
    choices = tuple(draw(rank_choice(n)) for n in dims)
    spec = choices[0] if draw(st.booleans()) and len(set(choices)) == 1 else choices
    m = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    problem = SocoProblem(
        dims, tuple(rng.uniform(-1, 1, (m, n)) for n in dims),
        tuple(rng.uniform(-1, 1, n) for n in dims), rng.uniform(-1, 1, m),
    )
    sol = SocoSolution(
        tuple(cone_vector(rng, n, w) for n, w in zip(dims, x_at)),
        rng.uniform(-1, 1, m),
        tuple(cone_vector(rng, n, w) for n, w in zip(dims, s_at)),
    )
    return problem, sol, spec, rng


REF_MAP = {Side.DUAL: ref_map_solution_dual, Side.PRIMAL: ref_map_solution_primal}


def check_side(problem, sol, spec, side, rng):
    got = outcome(map_solution, problem, sol, side, spec)
    assert_same(got, outcome(REF_MAP[side], problem, sol, spec), sdo_bits)
    if got[0] == "error":
        return
    mapped = got[1]
    meta = EmbeddingMeta(side, problem.cone_dims, problem.m)
    if side is Side.DUAL:
        assert_same(outcome(inverse_map, meta, mapped),
                    outcome(ref_inverse_map_dual, meta, mapped), soco_bits)
        sdo = build_dual_embedding(problem)
    else:
        assert_same(outcome(inverse_map, meta, mapped, DEFAULT_TOL, problem),
                    outcome(ref_inverse_map_primal, problem, mapped), soco_bits)
        # a shifted v breaks the c - A^T v cross-check on some cones
        shifted = SdoSolution(mapped.X, mapped.y + rng.uniform(-1e-3, 1e-3, mapped.y.shape),
                              mapped.S)
        assert_same(outcome(inverse_map, meta, shifted, DEFAULT_TOL, problem),
                    outcome(ref_inverse_map_primal, problem, shifted), soco_bits)
        sdo = build_primal_embedding(problem)
    assert_same(outcome(check_admissibility, problem, sol, sdo, mapped),
                outcome(ref_check_admissibility, problem, sol, sdo, mapped), report_bits)


def check_case(problem, sol, spec, rng):
    for side in (Side.DUAL, Side.PRIMAL):
        check_side(problem, sol, spec, side, rng)
    assert_same(outcome(classify_cones, problem, sol),
                outcome(ref_classify_cones, problem, sol), tuple)


def proper_choices(problem, sol, side):
    """The choices proper_map_solution makes, after checking its map against
    the reference map with them."""
    blocks = sol.x_blocks if side is Side.DUAL else sol.s_blocks
    choices = tuple(SimZhao() if ref_cone_position(v) is ConePosition.INTERIOR else RankOne()
                    for v in blocks)
    assert sdo_bits(proper_map_solution(problem, sol, side)) == \
        sdo_bits(REF_MAP[side](problem, sol, choices))
    return choices


def check_optimal_pair(inst, rng):
    """Labels, both sides' partition bases, and the one, simzhao and proper
    transports of a generated optimal pair."""
    problem, sol = inst.problem, inst.solution
    assert classify_cones(problem, sol) == ref_classify_cones(problem, sol)
    for side in (Side.DUAL, Side.PRIMAL):
        got = map_partition(problem, sol, inst.labels, side)
        want = ref_map_partition(problem, sol, inst.labels, side)
        assert [bits(b) for b in (got.basis_b, got.basis_n, got.basis_t)] == list(map(bits, want))
        for spec in (RankOne(), SimZhao(), proper_choices(problem, sol, side)):
            check_side(problem, sol, spec, side, rng)


class TestMatchesPerConeReference:
    @settings(deadline=None, max_examples=150)
    @given(cone_case())
    def test_random_positions_and_choices(self, case):
        check_case(*case)

    def test_interleaved_sizes(self):
        rng = np.random.default_rng(5)
        dims = (4, 2, 4, 1)
        problem = SocoProblem(dims, tuple(rng.uniform(-1, 1, (2, n)) for n in dims),
                              tuple(rng.uniform(-1, 1, n) for n in dims), rng.uniform(-1, 1, 2))
        for x_at, s_at in ((("interior", "boundary", "zero", "tiny"),
                            ("zero", "interior", "boundary", "zero")),
                           (("boundary",) * 4, ("interior",) * 4)):
            sol = SocoSolution(
                tuple(cone_vector(rng, n, w) for n, w in zip(dims, x_at)),
                rng.uniform(-1, 1, 2),
                tuple(cone_vector(rng, n, w) for n, w in zip(dims, s_at)),
            )
            for spec in ((RankK(3, (2, 4)), RankOne(), SimZhao(), FullRank()),
                         (RankK(2, (4,)), SimZhao(), RankK(1), RankK(1)), SimZhao(), RankOne()):
                check_case(problem, sol, spec, rng)

    @settings(deadline=None, max_examples=60)
    @given(st.lists(st.integers(1, 8), min_size=1, max_size=8), st.integers(0, 2**31 - 1))
    def test_generated_optimal_pairs(self, dims, seed):
        # complementary pairs: every label, boundary vectors exactly placed
        rng = np.random.default_rng(seed)
        labels = [str(rng.choice(LABELS_1D if n == 1 else LABELS_ANY)) for n in dims]
        check_optimal_pair(generate_instance(dims, labels, m=int(rng.integers(1, 5)), seed=seed), rng)

    @pytest.mark.parametrize("dims", [(16, 9, 48, 16), (4,) * 24, (48, 48), (16, 1, 16, 12)])
    def test_large_cones(self, dims):
        # sums of 8 or more terms round in pairs, so a stacked sum must add in
        # the order the per-block sum does
        rng = np.random.default_rng(sum(dims))
        labels = [LABELS_ANY[i % 6] if n > 1 else "B" for i, n in enumerate(dims)]
        inst = generate_instance(dims, labels, m=6, seed=len(dims))
        check_optimal_pair(inst, rng)
        problem, sol = inst.problem, inst.solution
        interior = SocoSolution(
            tuple(cone_vector(rng, n, "interior") for n in dims), sol.y,
            tuple(cone_vector(rng, n, "interior") for n in dims),
        )
        check_case(problem, interior, tuple(RankK(max(2, n // 2)) if n > 1 else RankOne()
                                            for n in dims), rng)

    def test_many_cones_every_theta(self):
        # theta and the bump round differently from the per-cone path on
        # about one cone in a thousand unless they take the same operations
        rng = np.random.default_rng(11)
        dims = tuple(int(n) for n in rng.integers(1, 9, 400))
        problem = SocoProblem(dims, tuple(np.zeros((1, n)) for n in dims),
                              tuple(np.zeros(n) for n in dims), [0.0])
        at = [str(rng.choice(("interior", "boundary", "zero"))) for _ in dims]
        x = tuple(cone_vector(rng, n, w) for n, w in zip(dims, at))
        sol = SocoSolution(x, np.zeros(1), x)
        for spec in (SimZhao(), RankOne(),
                     tuple(RankK(max(2, n // 2)) if w == "interior" and n > 1 else RankOne()
                           for n, w in zip(dims, at))):
            for side, ref in REF_MAP.items():
                assert sdo_bits(map_solution(problem, sol, side, spec)) == sdo_bits(ref(problem, sol, spec))

    def test_theta_rounds_as_per_cone(self):
        # (x1 + rho)^2 is Python's float power, which rounds differently from
        # a product on about one square in a thousand and one theta in 2,500
        rng = np.random.default_rng(12)
        for _ in range(20_000):
            x = cone_vector(rng, int(rng.integers(2, 9)), "interior")
            head, tt = float(x[0]), float(x[1:] @ x[1:])
            assert embed._sim_zhao_theta(head, tt) == ref_sim_zhao_theta(x)
            assert embed._theta_one(head, tt) == ref_theta_one(float(x[0]), x[1:])


class TestFirstFailingConeInConeOrder:
    """Size groups are visited by size, but the error is the first failing
    cone's in cone order."""

    def problem(self, dims):
        rng = np.random.default_rng(0)
        return SocoProblem(dims, tuple(rng.uniform(-1, 1, (1, n)) for n in dims),
                           tuple(np.ones(n) for n in dims), [0.0])

    @pytest.mark.parametrize("dims", [(2, 4), (4, 2), (4, 2, 4)])
    def test_earlier_cone_of_either_size_wins(self, dims):
        problem = self.problem(dims)
        outside = {n: np.concatenate(([0.5], np.ones(n - 1))) for n in set(dims)}
        boundary = {n: np.concatenate(([1.0], np.eye(n - 1)[0])) for n in set(dims)}
        x = (outside[dims[0]],) + tuple(boundary[n] for n in dims[1:])
        sol = SocoSolution(x, np.zeros(1), x)
        spec = (SimZhao(),) + (FullRank(),) * (len(dims) - 1)  # every cone fails
        for side, ref in REF_MAP.items():
            got = outcome(map_solution, problem, sol, side, spec)
            assert got == outcome(ref, problem, sol, spec)
            assert got[1] is OutsideCone and got[2].startswith("cone 0: ")
        # the later cone's error when the first passes
        x = (boundary[dims[0]],) + x[1:]
        sol = SocoSolution(x, np.zeros(1), x)
        for side, ref in REF_MAP.items():
            got = outcome(map_solution, problem, sol, side, spec)
            assert got == outcome(ref, problem, sol, spec)
            assert got[1] is NotInterior and got[2].startswith("cone 1: ")

    def test_bad_subset_after_an_outside_cone(self):
        problem = self.problem((2, 4))
        x = (np.array([0.5, 1.0]), np.array([2.0, 1.0, 0.0, 0.0]))
        sol = SocoSolution(x, np.zeros(1), x)
        spec = (RankOne(), RankK(5))
        got = outcome(map_solution, problem, sol, Side.DUAL, spec)
        assert got == outcome(ref_map_solution_dual, problem, sol, spec)
        assert got[1] is OutsideCone
        spec = (RankOne(), RankK(2, (3, 4)))
        x = (np.array([1.0, 1.0]), x[1])
        sol = SocoSolution(x, np.zeros(1), x)
        got = outcome(map_solution, problem, sol, Side.PRIMAL, spec)
        assert got == outcome(ref_map_solution_primal, problem, sol, spec)
        assert got[1] is BadSubset and got[2].startswith("cone 1: ")

    def test_inverse_errors_name_the_earlier_cone(self):
        dims = (4, 2, 4)
        problem = self.problem(dims)
        x = tuple(np.concatenate(([2.0], np.eye(n - 1)[0])) for n in dims)
        sol = SocoSolution(x, np.zeros(1), x)
        mapped = map_solution(problem, sol, Side.PRIMAL, SimZhao())
        a = mapped.S.a.copy()
        a[0, 0] += 1e-3  # cone 0, size 4
        a[4, 4] += 1e-2  # cone 1, size 2: larger, but later
        S = SymMatrix(a)
        got = outcome(inverse_map, build_primal_embedding(problem).meta,
                      SdoSolution(mapped.X, mapped.y, S), DEFAULT_TOL, problem)
        assert got == outcome(ref_inverse_map_primal, problem, SdoSolution(mapped.X, mapped.y, S))
        assert got[1] is InconsistentDual
        assert "block 0" in got[2]
