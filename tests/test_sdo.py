import json

import numpy as np
import pytest

from conic_embed import (
    DimensionMismatch,
    EmbeddingMeta,
    MissingSolutionPart,
    NotFinite,
    ParseError,
    SdoProblem,
    SdoSolution,
    Side,
    SocoProblem,
    SymMatrix,
    build_primal_embedding,
    load_sdo_solution,
    save_sdo_solution,
    sdo_dual_residual,
    sdo_gap,
    sdo_primal_residual,
    trace_inner,
)
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

    def test_meta_must_match_dim(self):
        C = SymMatrix.identity(5)
        for dims in ((1, 1), (3, 3), (5, 0), ()):
            meta = EmbeddingMeta(Side.DUAL, dims, 0)
            with pytest.raises(DimensionMismatch):
                SdoProblem(5, C, (), np.zeros(0), meta)
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
        meta = EmbeddingMeta(Side.PRIMAL, [3.0, 2.0], 4)
        assert meta.cone_dims == (3, 2)
        assert np.array_equal(meta.zero_pairs, BlockLayout.from_dims((3, 2)).pins()[0])
        assert np.array_equal(meta.tied_diagonals, [1, 2, 4])
        dual = EmbeddingMeta(Side.DUAL, [3.0, 2.0], 4)
        assert np.array_equal(dual.zero_pairs, np.empty((0, 2)))
        assert np.array_equal(dual.tied_diagonals, [])


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
