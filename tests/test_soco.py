import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conic_embed import (
    ConePosition,
    DimensionMismatch,
    MissingSolutionPart,
    NotArrowHead,
    NotFinite,
    PsdStatus,
    SocoProblem,
    SocoSolution,
    SymMatrix,
    arrow_head,
    arrow_head_inv,
    block_arrow_head,
    cone_position,
    dual_residual,
    duality_gap,
    jordan_product,
    primal_residual,
    psd_status,
)
from conic_embed.soco import BlockLayout

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def vec_strategy(min_n=1, max_n=8):
    return st.lists(finite_floats, min_size=min_n, max_size=max_n).map(np.array)


class TestArrowHead:
    def test_frozen_example(self):
        m = arrow_head([2.0, 1.0, 0.0])
        assert np.array_equal(m.a, [[2, 1, 0], [1, 2, 0], [0, 0, 2]])

    def test_rejects_empty(self):
        with pytest.raises(DimensionMismatch):
            arrow_head(np.zeros(0))
        with pytest.raises(DimensionMismatch):
            arrow_head(np.zeros((2, 2)))

    @given(vec_strategy())
    def test_round_trip_exact(self, v):
        assert np.array_equal(arrow_head_inv(arrow_head(v)), v)

    def test_inverse_rejects_off_arrow(self):
        a = arrow_head([1.0, 2.0, 3.0]).a.copy()
        a[1, 2] = a[2, 1] = 0.5
        with pytest.raises(NotArrowHead) as exc:
            arrow_head_inv(SymMatrix(a))
        assert "off-arrow" in str(exc.value)

    def test_inverse_rejects_untied_diagonal(self):
        a = arrow_head([1.0, 2.0, 3.0]).a.copy()
        a[2, 2] = 1.5
        with pytest.raises(NotArrowHead) as exc:
            arrow_head_inv(SymMatrix(a))
        assert "diagonal" in str(exc.value)
        assert exc.value.violation == pytest.approx(0.5)

    def test_inverse_tolerance_band(self):
        a = arrow_head([1.0, 2.0, 3.0]).a.copy()
        a[1, 2] = a[2, 1] = 1e-10
        v = arrow_head_inv(SymMatrix(a), tol=1e-8)
        assert np.array_equal(v, [1.0, 2.0, 3.0])

    def test_block_arrow_head(self):
        m = block_arrow_head([np.array([1.0, 2.0]), np.array([3.0])])
        want = np.array([[1, 2, 0], [2, 1, 0], [0, 0, 3]], dtype=float)
        assert np.array_equal(m.a, want)


class TestConeGeometry:
    @pytest.mark.parametrize(
        "v,want",
        [
            ([1.0, 0.0], ConePosition.INTERIOR),
            ([1.0, 1.0], ConePosition.BOUNDARY_NONZERO),
            ([0.0, 0.0], ConePosition.ZERO),
            ([1.0, 2.0], ConePosition.OUTSIDE),
            ([-1.0, 0.0], ConePosition.OUTSIDE),
            ([0.5], ConePosition.INTERIOR),
            ([0.0], ConePosition.ZERO),
            ([-0.5], ConePosition.OUTSIDE),
            ([2.0, 1.0, -1.0, 0.5], ConePosition.INTERIOR),
        ],
    )
    def test_position_frozen(self, v, want):
        assert cone_position(np.array(v)) is want

    def test_position_scale_covariant(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            t = rng.standard_normal(4)
            margin = rng.choice([-0.4, 0.3, 0.0])
            v = np.concatenate(([np.linalg.norm(t) + margin], t))
            for alpha in (1e-3, 1.0, 1e3):
                assert cone_position(alpha * v) is cone_position(v)

    def test_membership_matches_arrow_head_psd(self):
        # x in cone <=> Arw(x) PSD; eigenvalues of Arw(x) are x1 +- ||t|| and x1
        rng = np.random.default_rng(8)
        for _ in range(120):
            n = int(rng.integers(2, 7))
            t = rng.standard_normal(n - 1)
            margin = float(rng.choice([-0.8, -0.1, 0.1, 0.9]))
            v = np.concatenate(([np.linalg.norm(t) + margin], t))
            inside = cone_position(v) is not ConePosition.OUTSIDE
            psd = psd_status(arrow_head(v)) is not PsdStatus.INDEFINITE
            assert inside == psd
            lam_min = float(np.linalg.eigvalsh(arrow_head(v).a)[0])
            assert lam_min == pytest.approx(margin, abs=1e-12)


class TestJordanProduct:
    @given(vec_strategy(2, 6), st.integers(0, 10_000))
    @example(np.array([1618.0, 1618.0]), 804)
    @settings(max_examples=80)
    def test_equals_arrow_head_action(self, x, seed):
        s = np.random.default_rng(seed).standard_normal(x.shape[0])
        got = jordan_product(x, s)
        want = arrow_head(x).a @ s
        # rounding scales with the operands; cancellation can make want small
        scale = 1.0 + np.abs(x).max() * np.abs(s).max()
        assert np.abs(got - want).max() < 1e-13 * scale

    def test_commutative_bitwise(self):
        rng = np.random.default_rng(9)
        x, s = rng.standard_normal(5), rng.standard_normal(5)
        assert np.array_equal(jordan_product(x, s), jordan_product(s, x))

    def test_unit_element(self):
        x = np.array([3.0, 1.0, -2.0])
        e = np.array([1.0, 0.0, 0.0])
        assert np.array_equal(jordan_product(x, e), x)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            jordan_product(np.zeros(3), np.zeros(2))


class TestBlockLayout:
    def test_bookkeeping(self):
        layout = BlockLayout.from_dims((3, 2))
        assert layout.offsets == (0, 3)
        assert layout.total == 5
        assert layout.block_slice(0) == slice(0, 3)

    def test_max_off_block(self):
        layout = BlockLayout.from_dims((2, 1, 2))
        a = np.diag([1.0, 2.0, 3.0, 4.0, 5.0])
        a[0, 1] = a[1, 0] = 9.0  # inside block 0
        assert layout.max_off_block(SymMatrix(a)) == 0.0
        a[1, 4] = a[4, 1] = -0.25
        a[2, 3] = a[3, 2] = 0.125
        assert layout.max_off_block(SymMatrix(a)) == 0.25
        assert BlockLayout.from_dims((5,)).max_off_block(SymMatrix(a)) == 0.0

    def test_rejects_bad_dims(self):
        with pytest.raises(DimensionMismatch):
            BlockLayout.from_dims(())
        with pytest.raises(DimensionMismatch):
            BlockLayout.from_dims((2, 0))


def tiny_problem():
    A = (np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([[2.0], [0.0]]))
    c = (np.array([1.0, 0.5]), np.array([3.0]))
    b = np.array([2.0, 1.0])
    return SocoProblem((2, 1), A, c, b)


class TestProblemData:
    def test_shape_validation(self):
        with pytest.raises(DimensionMismatch):
            SocoProblem((2,), (np.zeros((2, 3)),), (np.zeros(2),), np.zeros(2))
        with pytest.raises(DimensionMismatch):
            SocoProblem((2,), (np.zeros((2, 2)),), (np.zeros(3),), np.zeros(2))
        with pytest.raises(DimensionMismatch):
            SocoProblem((2, 2), (np.zeros((1, 2)),), (np.zeros(2),), np.zeros(1))

    def test_arrays_frozen(self):
        p = tiny_problem()
        with pytest.raises(ValueError):
            p.b[0] = 9.0
        with pytest.raises(ValueError):
            p.A_blocks[0][0, 0] = 9.0

    def test_properties(self):
        p = tiny_problem()
        assert (p.r, p.m, p.total_dim) == (2, 2, 3)

    def test_solution_validation(self):
        p = tiny_problem()
        sol = SocoSolution(x_blocks=(np.zeros(2), np.zeros(1)))
        sol.validate_against(p)
        with pytest.raises(DimensionMismatch):
            SocoSolution(x_blocks=(np.zeros(3), np.zeros(1))).validate_against(p)
        with pytest.raises(DimensionMismatch):
            SocoSolution(y=np.zeros(3)).validate_against(p)
        with pytest.raises(DimensionMismatch):
            SocoSolution(s_blocks=(np.zeros(2),)).validate_against(p)


class TestNonFiniteRejected:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["b", "A block 1", "c block 0"])
    def test_problem(self, field, bad):
        A = [np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([[2.0], [0.0]])]
        c = [np.array([1.0, 0.5]), np.array([3.0])]
        b = np.array([2.0, 1.0])
        if field == "b":
            b[1] = bad
        elif field == "A block 1":
            A[1][0, 0] = bad
        else:
            c[0][1] = bad
        with pytest.raises(NotFinite, match=f"^{field} holds"):
            SocoProblem((2, 1), A, c, b)

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    @pytest.mark.parametrize("field", ["x_blocks[2]", "y", "s_blocks[0]"])
    def test_solution(self, field, bad):
        parts = {
            "x_blocks": [np.array([1.0, 0.5]), np.array([2.0]), np.array([1.0, 0.0, 0.5])],
            "y": np.zeros(2),
            "s_blocks": [np.array([1.0, 0.5]), np.array([2.0]), np.array([1.0, 0.0, 0.5])],
        }
        if field == "y":
            parts["y"][1] = bad
        else:
            parts[field[:-3]][int(field[-2])][0] = bad
        with pytest.raises(NotFinite, match="^" + re.escape(field) + " holds"):
            SocoSolution(**parts)


class TestResiduals:
    def test_primal_residual_oracle(self):
        p = tiny_problem()
        x = (np.array([1.0, 0.2]), np.array([0.7]))
        sol = SocoSolution(x_blocks=x)
        stacked = np.hstack(p.A_blocks) @ np.concatenate(x) - p.b
        assert primal_residual(p, sol) == pytest.approx(np.abs(stacked).max(), abs=1e-15)

    def test_dual_residual_oracle(self):
        p = tiny_problem()
        y = np.array([0.3, -0.2])
        s = (np.array([0.1, 0.0]), np.array([0.4]))
        sol = SocoSolution(y=y, s_blocks=s)
        worst = max(
            np.abs(a.T @ y + sv - c).max()
            for a, sv, c in zip(p.A_blocks, s, p.c_blocks)
        )
        assert dual_residual(p, sol) == pytest.approx(worst, abs=1e-15)

    def test_gap(self):
        p = tiny_problem()
        sol = SocoSolution(
            x_blocks=(np.array([1.0, 0.0]), np.array([0.5])),
            y=np.array([0.0, 0.0]),
        )
        assert duality_gap(p, sol) == pytest.approx(1.0 + 1.5, abs=1e-15)

    def test_missing_parts(self):
        p = tiny_problem()
        with pytest.raises(MissingSolutionPart):
            primal_residual(p, SocoSolution(y=np.zeros(2)))
        with pytest.raises(MissingSolutionPart):
            dual_residual(p, SocoSolution(y=np.zeros(2)))
        with pytest.raises(MissingSolutionPart):
            duality_gap(p, SocoSolution(y=np.zeros(2)))
