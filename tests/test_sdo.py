import json

import numpy as np
import pytest

from conic_embed import (
    DimensionMismatch,
    EmbeddingMeta,
    MissingSolutionPart,
    NotFinite,
    ParseError,
    ProvenanceMismatch,
    RankOne,
    SdoProblem,
    SdoSolution,
    Side,
    SocoProblem,
    SparseSym,
    SymMatrix,
    build_dual_embedding,
    build_primal_embedding,
    check_admissibility,
    generate_instance,
    inverse_map,
    load_sdo_solution,
    map_solution,
    save_sdo_solution,
    sdo_dual_residual,
    sdo_gap,
    sdo_primal_residual,
    trace_inner,
)
from conic_embed.io import render_sdo_problem, render_sdpa
from conic_embed.soco import BlockLayout


def random_sdo(rng, n=4, m=3):
    def sym(scale=1.0):
        a = rng.standard_normal((n, n)) * scale
        return SymMatrix(0.5 * (a + a.T))

    C = sym()
    rows = tuple(sym() for _ in range(m))
    b = rng.standard_normal(m)
    return SdoProblem(n, C, rows, b)


class TestProblemData:
    def test_dimension_checks(self):
        C = SymMatrix.identity(3)
        with pytest.raises(DimensionMismatch):
            SdoProblem(2, C, (), np.zeros(0))
        with pytest.raises(DimensionMismatch):
            SdoProblem(3, C, (SymMatrix.identity(2),), np.zeros(1))
        with pytest.raises(DimensionMismatch):
            SdoProblem(3, C, (C,), np.zeros(2))

    def test_C_given_dense_or_as_triplets(self):
        # a SymMatrix C is converted once; a built C is already those triplets
        inst = generate_instance((3, 2, 1), ("B", "R", "N"), m=2, seed=5)
        for build in (build_dual_embedding, build_primal_embedding):
            sdo = build(inst.problem)
            assert isinstance(sdo.C, SparseSym)
            dense = SdoProblem(sdo.dim, SymMatrix(sdo.C.a), sdo.constraints, sdo.b, sdo.meta)
            assert isinstance(dense.C, SparseSym)
            for got, want in ((dense.C.i, sdo.C.i), (dense.C.j, sdo.C.j), (dense.C.v, sdo.C.v)):
                assert got.dtype == want.dtype and np.array_equal(got, want)
            assert render_sdo_problem(dense) == render_sdo_problem(sdo)
            assert render_sdpa(dense) == render_sdpa(sdo)

    def test_C_must_be_a_matrix(self):
        with pytest.raises(TypeError, match="^C is a list, not a matrix$"):
            SdoProblem(2, [[1.0, 0.0], [0.0, 1.0]], (), np.zeros(0))

    @pytest.mark.parametrize("name", ["X", "S"])
    def test_solution_matrices_must_be_matrices(self, name):
        # an array in place of X or S failed later, in each reader, with an
        # AttributeError on .dim
        inst = generate_instance((3, 2), ("B", "R"), m=2, seed=5)
        mapped = map_solution(inst.problem, inst.solution, Side.DUAL, RankOne())
        parts = {"X": mapped.X, "y": mapped.y, "S": mapped.S, name: getattr(mapped, name).a}
        with pytest.raises(TypeError, match=f"^{name} is a ndarray, not a matrix$"):
            SdoSolution(**parts)

    def test_meta_must_match_dim(self):
        C = SymMatrix.identity(5)
        # (5, 0) and () are refused by the meta itself
        for dims in ((1, 1), (3, 3), (5, 0), ()):
            with pytest.raises(DimensionMismatch):
                SdoProblem(5, C, (), np.zeros(0), EmbeddingMeta(Side.DUAL, dims, 0))
        SdoProblem(5, C, (), np.zeros(0), EmbeddingMeta(Side.DUAL, (3, 2), 0))

    def test_rejects_non_finite_b(self):
        C = SymMatrix.identity(2)
        with pytest.raises(NotFinite, match="^b holds"):
            SdoProblem(2, C, (C, C), [np.inf, 0.0])

    def test_solution_rejects_non_finite_y(self):
        with pytest.raises(NotFinite, match="^y holds"):
            SdoSolution(y=[np.nan, 1.0])

    def test_meta_coercion(self):
        # the pins follow from side and cone_dims, and exist on the primal side only
        meta = EmbeddingMeta(Side.PRIMAL, [np.int64(3), 2], 4)
        assert meta.cone_dims == (3, 2) and type(meta.cone_dims[0]) is int
        assert np.array_equal(meta.zero_pairs, BlockLayout.from_dims((3, 2)).pins[0])
        assert np.array_equal(meta.tied_diagonals, [1, 2, 4])
        dual = EmbeddingMeta(Side.DUAL, [3, 2], 4)
        assert np.array_equal(dual.zero_pairs, np.empty((0, 2)))
        assert np.array_equal(dual.tied_diagonals, [])
        assert dual.zero_pairs.shape == (0, 2) and not dual.zero_pairs.flags.writeable


class TestEmbeddingMeta:
    """The meta owns its side's row count and the one match against a cone
    problem."""

    @pytest.mark.parametrize("build", [build_dual_embedding, build_primal_embedding])
    def test_rows_is_the_embedded_row_count(self, build):
        for dims, m in (((1,), 1), ((3, 2), 2), ((4, 4, 1), 3)):
            labels = tuple("B" if n > 1 else "N" for n in dims)
            sdo = build(generate_instance(dims, labels, m, 7).problem)
            assert sdo.meta.rows == sdo.num_constraints
            pins = len(sdo.meta.zero_pairs) + len(sdo.meta.tied_diagonals)
            assert sdo.meta.rows == m + pins

    def test_rows_by_side(self):
        assert [EmbeddingMeta(s, (3, 2), 2).rows for s in Side] == [2, 2 + 10, None]
        assert EmbeddingMeta(Side.GENERIC).rows is None

    @pytest.mark.parametrize("build", [build_dual_embedding, build_primal_embedding])
    @pytest.mark.parametrize("kind", ["generic side", "other cone dims", "other m"])
    def test_inverse_and_verdict_refuse_alike(self, build, kind):
        inst = generate_instance((3, 2), ("B", "R"), 2, 5)
        sdo = build(inst.problem)
        mapped = map_solution(inst.problem, inst.solution, sdo.meta.side, RankOne())
        problem, sol = inst.problem, inst.solution
        if kind == "generic side":
            sdo = SdoProblem(sdo.dim, sdo.C, sdo.constraints, sdo.b)
        else:
            dims, m = ((2, 3), 2) if kind == "other cone dims" else ((3, 2), 3)
            other = generate_instance(dims, ("B", "R"), m, 5)
            problem, sol = other.problem, other.solution
        messages = set()
        for call in (lambda: inverse_map(sdo.meta, mapped, problem=problem),
                     lambda: check_admissibility(problem, sol, sdo, mapped),
                     lambda: sdo.meta.match(problem)):
            with pytest.raises(ProvenanceMismatch) as refused:
                call()
            messages.add(str(refused.value))
        assert len(messages) == 1


class TestDualSplit:
    """The dual_split field of an SDO solution file: y cut at the embedding's
    pins, which must concatenate back to y exactly."""

    @staticmethod
    def _saved(tmp_path):
        problem = SocoProblem((2,), (np.array([[1.0, 2.0]]),), (np.array([3.0, 1.0]),),
                              np.array([4.0]))
        sdo = build_primal_embedding(problem)
        path = tmp_path / "m.json"
        save_sdo_solution(SdoSolution(y=np.array([1.0, 2.0])), path, meta=sdo.meta)
        return sdo, path

    def test_solution_rejects_mismatched_split(self, tmp_path):
        sdo, path = self._saved(tmp_path)
        obj = json.loads(path.read_text())
        assert obj["dual_split"] == {"v": [1], "w": [], "u": [[1, 2]]}
        assert np.array_equal(load_sdo_solution(path, sdo).y, [1.0, 2.0])  # consistent
        obj["y"] = [1, 9]
        path.write_text(json.dumps(obj))
        for problem in (sdo, None):
            with pytest.raises(ParseError, match="dual_split"):
                load_sdo_solution(path, problem)

    def test_y_taken_from_split(self, tmp_path):
        sdo, path = self._saved(tmp_path)
        obj = json.loads(path.read_text())
        del obj["y"]
        path.write_text(json.dumps(obj))
        for problem in (sdo, None):
            assert np.array_equal(load_sdo_solution(path, problem).y, [1.0, 2.0])
        obj["dual_split"]["v"] = [1, 1]  # one multiplier too many for the problem
        path.write_text(json.dumps(obj))
        with pytest.raises(ParseError, match="entries"):
            load_sdo_solution(path, sdo)


class TestResiduals:
    def test_primal_residual_brute_force(self):
        rng = np.random.default_rng(10)
        p = random_sdo(rng)
        X = SymMatrix(np.eye(4) * 0.5)
        sol = SdoSolution(X=X)
        oracle = max(
            abs(float(np.sum(a.a * X.a)) - float(bj)) for a, bj in zip(p.constraints, p.b)
        )
        assert sdo_primal_residual(p, sol) == pytest.approx(oracle, abs=1e-15)

    def test_dual_residual_brute_force(self):
        rng = np.random.default_rng(11)
        p = random_sdo(rng)
        y = rng.standard_normal(3)
        S = SymMatrix(np.eye(4))
        acc = p.C.a - sum(yj * a.a for yj, a in zip(y, p.constraints)) - S.a
        sol = SdoSolution(y=y, S=S)
        assert sdo_dual_residual(p, sol) == pytest.approx(np.abs(acc).max(), abs=1e-15)

    def test_exact_dual_pair_has_zero_residual(self):
        rng = np.random.default_rng(12)
        p = random_sdo(rng)
        y = rng.standard_normal(3)
        s = p.C.a - sum(yj * a.a for yj, a in zip(y, p.constraints))
        sol = SdoSolution(y=y, S=SymMatrix(s))
        assert sdo_dual_residual(p, sol) < 1e-14

    def test_gap(self):
        rng = np.random.default_rng(13)
        p = random_sdo(rng)
        X = SymMatrix(np.eye(4))
        y = np.array([1.0, -1.0, 0.5])
        want = trace_inner(p.C, X) - float(p.b @ y)
        assert sdo_gap(p, SdoSolution(X=X, y=y)) == pytest.approx(want, abs=1e-15)

    def test_missing_parts(self):
        rng = np.random.default_rng(14)
        p = random_sdo(rng)
        with pytest.raises(MissingSolutionPart):
            sdo_primal_residual(p, SdoSolution())
        with pytest.raises(MissingSolutionPart):
            sdo_dual_residual(p, SdoSolution(y=np.zeros(3)))
        with pytest.raises(MissingSolutionPart):
            sdo_gap(p, SdoSolution(X=SymMatrix.identity(4)))


class TestPsdComplementarityFact:
    """For PSD matrices, a vanishing trace inner product forces the actual
    matrix product to vanish; this is what makes trace complementarity the
    right optimality test."""

    def test_orthogonal_projections(self):
        rng = np.random.default_rng(15)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        A = SymMatrix(q[:, :2] @ q[:, :2].T)
        B = SymMatrix(q[:, 2:5] @ q[:, 2:5].T)
        assert abs(trace_inner(A, B)) < 1e-14
        assert np.abs(A.a @ B.a).max() < 1e-14

    def test_trace_nonnegative_for_psd_pairs(self):
        rng = np.random.default_rng(16)
        for _ in range(40):
            g = rng.standard_normal((5, 3))
            h = rng.standard_normal((5, 5))
            A = SymMatrix(g @ g.T)
            B = SymMatrix(h @ h.T)
            assert trace_inner(A, B) >= -1e-12

    def test_small_trace_bounds_product_norm(self):
        # ||AB|| <= sqrt(Tr(A^2) Tr(B^2)) and crossing through near-complementary
        # pairs: trace below eps forces product below sqrt(eps * ||A|| * ||B||) order
        rng = np.random.default_rng(17)
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        A = SymMatrix(q[:, :2] @ np.diag([2.0, 1.0]) @ q[:, :2].T)
        B = SymMatrix(q[:, 2:] @ np.diag([1.0, 3.0, 0.5]) @ q[:, 2:].T)
        assert abs(trace_inner(A, B)) < 1e-13
        assert np.abs(A.a @ B.a).max() < 1e-13
