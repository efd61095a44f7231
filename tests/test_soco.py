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
    SdoPartition,
    SdoProblem,
    SdoSolution,
    SocoProblem,
    SocoSolution,
    SparseSym,
    SymMatrix,
    arrow_head,
    block_arrow_head,
    block_arrow_head_inv,
    cone_position,
    dual_residual,
    jordan_product,
    primal_residual,
    psd_status,
)
from conic_embed.soco import BlockLayout, arrow_head_triplets

from helpers import ref_arrow_head_vector, ref_block_arrow_head_inv

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def vec_strategy(min_n=1, max_n=8):
    return st.lists(finite_floats, min_size=min_n, max_size=max_n).map(np.array)


def arrow_head_vector(m, tol=1e-8):
    """block_arrow_head_inv of one arrow-head matrix: a layout of one block."""
    (v,) = block_arrow_head_inv(m, BlockLayout.from_dims((m.dim,)), tol)
    return v


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
        assert np.array_equal(arrow_head_vector(arrow_head(v)), v)

    def test_inverse_rejects_off_arrow(self):
        a = arrow_head([1.0, 2.0, 3.0]).a.copy()
        a[1, 2] = a[2, 1] = 0.5
        with pytest.raises(NotArrowHead) as exc:
            arrow_head_vector(SymMatrix(a))
        assert "off-arrow" in str(exc.value)

    def test_inverse_rejects_untied_diagonal(self):
        a = arrow_head([1.0, 2.0, 3.0]).a.copy()
        a[2, 2] = 1.5
        with pytest.raises(NotArrowHead) as exc:
            arrow_head_vector(SymMatrix(a))
        assert "diagonal" in str(exc.value)
        assert exc.value.violation == pytest.approx(0.5)

    def test_inverse_tolerance_band(self):
        a = arrow_head([1.0, 2.0, 3.0]).a.copy()
        a[1, 2] = a[2, 1] = 1e-10
        v = arrow_head_vector(SymMatrix(a), tol=1e-8)
        assert np.array_equal(v, [1.0, 2.0, 3.0])

    @pytest.mark.parametrize(
        "off_arrow, violation, where",
        [
            (0.0, 0.25, "diagonal (2,2)"),
            (0.25, 0.25, "diagonal (2,2)"),  # a tie goes to the diagonal
            (0.5, 0.5, "off-arrow (1,3)"),
        ],
    )
    def test_block_inverse_reports_first_worst_entry(self, off_arrow, violation, where):
        blocks = [np.array([3.0, -1.0]), np.array([1.0, 0.5, -0.25, 2.0]), np.array([2.0, 0.0, 1.0])]
        layout = BlockLayout.from_dims([2, 4, 3])
        clean = block_arrow_head(blocks)
        got = block_arrow_head_inv(clean, layout)
        for g, v in zip(got, blocks):
            assert np.array_equal(g, v)
        a = clean.a.copy()
        a[4, 4] += 0.25  # block 1, local (2, 2): 1.25 - 1.0 is exact
        a[3, 5] = a[5, 3] = off_arrow  # block 1, local (1, 3)
        a[7, 8] = a[8, 7] = 0.125  # a smaller violation in the last block
        with pytest.raises(NotArrowHead) as exc:
            block_arrow_head_inv(SymMatrix(a), layout)
        assert exc.value.violation == violation
        assert str(exc.value).endswith(f"by {violation:.3e} at {where}")

    @pytest.mark.parametrize("dims", [(2, 2), (3, 3)])
    def test_block_inverse_checks_the_layout(self, dims):
        # the matrix has dim 5; without the check (2, 2) read a misleading
        # off-block entry and (3, 3) an index out of bounds
        m = block_arrow_head([[3.0, 1.0, 1.0], [2.0, 1.0]])
        with pytest.raises(DimensionMismatch, match=f"^m has dim 5, expected {sum(dims)}$"):
            block_arrow_head_inv(m, BlockLayout.from_dims(dims))

    def test_block_arrow_head(self):
        m = block_arrow_head([np.array([1.0, 2.0]), np.array([3.0])])
        want = np.array([[1, 2, 0], [2, 1, 0], [0, 0, 3]], dtype=float)
        assert np.array_equal(m.a, want)

    def test_block_arrow_head_scatters_the_triplets(self):
        # the data rows' triplets hold exactly the entries of the arrow-head
        # of the vectors (head / head_div, tail / tail_div)
        rng = np.random.default_rng(3)
        dims = (3, 1, 4)
        blocks = [rng.standard_normal(n) for n in dims]
        layout = BlockLayout.from_dims(dims)
        for head_div, tail_div in ((1.0, 1.0), (dims, 2.0)):
            _, i, j, v = arrow_head_triplets(np.concatenate(blocks)[None], layout,
                                             head_div, tail_div)
            scaled = [np.r_[b[:1] / h, b[1:] / tail_div]
                      for b, h in zip(blocks, np.broadcast_to(head_div, len(dims)))]
            assert np.array_equal(SparseSym(8, i, j, v).a, block_arrow_head(scaled).a)
        with pytest.raises(DimensionMismatch):
            block_arrow_head([np.ones(2), np.zeros((2, 2))])


def triplets_per_cone(blocks, layout, head_div, tail_div):
    """Reference: arrow_head_triplets built one cone at a time."""
    heads = np.broadcast_to(np.asarray(head_div, dtype=float), (len(layout.dims),))
    ii, jj, vals = [], [], []
    for blk, off, n, div in zip(blocks, layout.offsets, layout.dims, heads):
        head = blk[:, :1] / div
        ii += [np.full(n, off), np.arange(off + 1, off + n)]
        jj += [np.arange(off, off + n), np.arange(off + 1, off + n)]
        vals += [head, blk[:, 1:] / tail_div, np.repeat(head, n - 1, axis=1)]
    v = np.concatenate(vals, axis=1)
    m, width = v.shape
    return (np.repeat(np.arange(m), width), np.tile(np.concatenate(ii), m),
            np.tile(np.concatenate(jj), m), v.ravel())


class TestAllConesAtOnce:
    """arrow_head_triplets and block_arrow_head_inv work on all cones at once
    and give the bytes, and raise the errors, of the per-cone references."""

    def test_triplets_match_the_per_cone_loop(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            dims = tuple(int(d) for d in rng.choice([1, 2, 3, 5, 8], int(rng.integers(1, 7))))
            layout = BlockLayout.from_dims(dims)
            m = int(rng.integers(1, 4))
            blocks = [rng.standard_normal((m, n)) * 10.0 ** rng.uniform(-5, 5) for n in dims]
            for div in ((1.0, 1.0), (dims, 2.0), (np.array(dims) * 1.7, 3.0)):
                got = arrow_head_triplets(np.hstack(blocks), layout, *div)
                for g, w in zip(got, triplets_per_cone(blocks, layout, *div)):
                    assert g.dtype == w.dtype and g.tobytes() == w.tobytes()

    def test_inverse_matches_the_per_block_check(self):
        rng = np.random.default_rng(22)
        raised = 0
        for _ in range(300):
            dims = tuple(int(d) for d in rng.choice([1, 2, 3, 5, 8], int(rng.integers(1, 7))))
            layout = BlockLayout.from_dims(dims)
            a = block_arrow_head([rng.standard_normal(n) for n in dims]).a.copy()
            for _ in range(int(rng.integers(0, 3))):  # violations, some tied
                b = int(rng.integers(0, len(dims)))
                off, n = layout.offsets[b], dims[b]
                i, j = (off + int(x) for x in rng.integers(0, n, 2))
                a[i, j] += rng.choice([1e-9, 3e-8, 1e-7])
                a[j, i] = a[i, j]
            m = SymMatrix(a)
            try:
                want = ref_block_arrow_head_inv(m, layout, 1e-8)
            except NotArrowHead as exc:
                raised += 1
                with pytest.raises(NotArrowHead) as got:
                    block_arrow_head_inv(m, layout, 1e-8)
                assert (str(got.value), got.value.violation) == (str(exc), exc.violation)
                continue
            for g, w in zip(block_arrow_head_inv(m, layout, 1e-8), want):
                assert g.tobytes() == w.tobytes()
        assert raised > 50


# Deviations added to arrow-head entries, against tols on either side of
# them. The powers of two keep a perturbed diagonal's deviation exact on the
# integer-valued vectors below, so that a diagonal and an off-arrow entry can
# tie exactly.
DEVIATIONS = (1e-9, 2.0 ** -30, 3e-8, 2.0 ** -20, 1e-6)
TOLS = (1e-8, 2.0 ** -30, 2.0 ** -20)


@st.composite
def perturbed_block_arrow_heads(draw):
    """A block arrow-head matrix of integer-valued vectors (block sizes 1-8)
    with a few entries moved, some off the blocks, and possibly an exact tie
    between a trailing diagonal and an off-arrow deviation of one block."""
    dims = draw(st.lists(st.integers(1, 8), min_size=1, max_size=4))
    layout = BlockLayout.from_dims(dims)
    blocks = [np.array(draw(st.lists(st.integers(-8, 8), min_size=n, max_size=n)), dtype=float)
              for n in dims]
    a = block_arrow_head(blocks).a.copy()
    n = layout.total
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        a[i, j] += draw(st.sampled_from(DEVIATIONS))
        a[j, i] = a[i, j]
    wide = [b for b, d in enumerate(dims) if d >= 3]
    if wide and draw(st.booleans()):
        b = draw(st.sampled_from(wide))
        off, d = layout.offsets[b], dims[b]
        dev = draw(st.sampled_from((2.0 ** -30, 2.0 ** -20)))
        p = off + draw(st.integers(1, d - 1))
        q = off + draw(st.integers(1, d - 2))
        r = draw(st.integers(q + 1, off + d - 1))
        a[p, p] = a[off, off] + dev
        a[q, r] = a[r, q] = dev
    return SymMatrix(a), layout


def outcome(call):
    """The class and message of call's error, or the bits of what it returns."""
    try:
        got = call()
    except NotArrowHead as exc:
        return type(exc), str(exc), exc.violation
    return tuple((g.dtype, g.tobytes()) for g in (got if isinstance(got, tuple) else (got,)))


class TestErrorParity:
    """block_arrow_head_inv, on many blocks and on one, raises the error of the
    entry-by-entry reference, or returns its bits."""

    @settings(max_examples=400, deadline=None)
    @given(perturbed_block_arrow_heads(), st.sampled_from(TOLS))
    def test_stacked_reader_matches_the_reference(self, case, tol):
        m, layout = case
        assert outcome(lambda: block_arrow_head_inv(m, layout, tol)) == \
            outcome(lambda: ref_block_arrow_head_inv(m, layout, tol))
        for b in range(len(layout.dims)):
            block = SymMatrix(m.a[layout.block_slice(b), layout.block_slice(b)])
            assert outcome(lambda: arrow_head_vector(block, tol)) == \
                outcome(lambda: ref_arrow_head_vector(block.a, tol))

    @pytest.mark.parametrize("diagonal, off_arrow, where", [
        ((2, 2), (1, 3), "diagonal (2,2)"),  # a tie goes to the diagonal
        ((3, 3), (1, 2), "diagonal (3,3)"),
        (None, (1, 3), "off-arrow (1,3)"),
    ])
    def test_exact_tie(self, diagonal, off_arrow, where):
        a = arrow_head([3.0, 1.0, -2.0, 0.0]).a.copy()
        if diagonal:
            a[diagonal] += 2.0 ** -20
        a[off_arrow] = a[off_arrow[::-1]] = 2.0 ** -20
        if diagonal is None:
            a[2, 3] = a[3, 2] = 2.0 ** -20  # a later off-arrow tie loses to the first
        m = SymMatrix(a)
        want = f"matrix deviates from arrow-head structure by {2.0 ** -20:.3e} at {where}"
        for call in (lambda: ref_arrow_head_vector(m.a),
                     lambda: block_arrow_head_inv(m, BlockLayout.from_dims((4,))),
                     lambda: ref_block_arrow_head_inv(m, BlockLayout.from_dims((4,)))):
            with pytest.raises(NotArrowHead, match="^" + re.escape(want) + "$"):
                call()


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
        sol = SocoSolution(x_blocks=([1.0, 0.0], [2]), y=[0, 1], s_blocks=np.ones((2, 1)))
        sdo = SdoProblem(2, SymMatrix.identity(2), (SymMatrix.identity(2),), [1])
        sdo_sol = SdoSolution(y=np.arange(3))
        part = SdoPartition(np.eye(2), [[0.0], [0.0]], np.zeros((2, 0)))
        stored = (*p.A_blocks, *p.c_blocks, p.b, *sol.x_blocks, sol.y, *sol.s_blocks, sdo.b,
                  sdo_sol.y, part.basis_b, part.basis_n, part.basis_t)
        for a in stored:
            assert type(a) is np.ndarray and a.dtype == np.float64
            assert not a.flags.writeable

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
    @pytest.mark.parametrize("field", ["b", "A_blocks[1]", "c_blocks[0]"])
    def test_problem(self, field, bad):
        A = [np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([[2.0], [0.0]])]
        c = [np.array([1.0, 0.5]), np.array([3.0])]
        b = np.array([2.0, 1.0])
        if field == "b":
            b[1] = bad
        elif field == "A_blocks[1]":
            A[1][0, 0] = bad
        else:
            c[0][1] = bad
        with pytest.raises(NotFinite, match="^" + re.escape(field) + " holds"):
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

    def test_solution_names_the_first_bad_block(self):
        # a non-finite block before a block that is not a vector is named first
        with pytest.raises(NotFinite, match=re.escape("x_blocks[0]")):
            SocoSolution(x_blocks=[np.array([np.nan, 0.0]), np.ones((2, 2))])
        with pytest.raises(DimensionMismatch, match=re.escape("x_blocks[1]")):
            SocoSolution(x_blocks=[np.array([1.0, 0.0]), np.ones((2, 2)), np.array([np.inf])])

    @pytest.mark.parametrize("v", [[np.inf, 0.0], [np.nan, 0.0], [1.0, -np.inf], [np.inf, np.inf]])
    def test_cone_position(self, v):
        with pytest.raises(NotFinite):
            cone_position(v)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_jordan_product(self, bad):
        with pytest.raises(NotFinite):
            jordan_product([1.0, bad], [1.0, 0.0])
        with pytest.raises(NotFinite):
            jordan_product([1.0, 0.0], [bad, 0.0])


def _problem_with(field, blocks):
    parts = {"A_blocks": [np.eye(2), np.ones((2, 1))], "c_blocks": [np.ones(2), np.ones(1)]}
    parts[field] = blocks
    return SocoProblem((2, 1), parts["A_blocks"], parts["c_blocks"], np.ones(2))


# The block batches: (the name of block k, the object built from two blocks,
# two good blocks, the shape block 0 must have).
_BATCHES = {
    "A_blocks": ("A_blocks[{}]", lambda blocks: _problem_with("A_blocks", blocks),
                 [np.eye(2), np.ones((2, 1))], (2, 2)),
    "c_blocks": ("c_blocks[{}]", lambda blocks: _problem_with("c_blocks", blocks),
                 [np.ones(2), np.ones(1)], (2,)),
    "x_blocks": ("x_blocks[{}]", lambda blocks: SocoSolution(x_blocks=blocks),
                 [np.ones(2), np.ones(1)], (None,)),
    "s_blocks": ("s_blocks[{}]", lambda blocks: SocoSolution(s_blocks=blocks),
                 [np.ones(2), np.ones(1)], (None,)),
}


def _frozen_copy(a):
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


def _readonly(a):
    a.setflags(write=False)
    return a


# Every array field of the five data classes: (the shape the test gives
# it, the object built with value in that field, the stored array).
_FIELDS = {
    "SocoProblem.b": ((2,), lambda v: SocoProblem((2, 1), [np.eye(2), np.ones((2, 1))],
                                                  [np.ones(2), np.ones(1)], v).b),
    "SocoProblem.A_blocks": ((2, 2), lambda v: SocoProblem((2,), [v], [np.ones(2)], [1, 2])
                             .A_blocks[0]),
    "SocoProblem.c_blocks": ((2,), lambda v: SocoProblem((2,), [np.eye(2)], [v], [1, 2])
                             .c_blocks[0]),
    "SocoSolution.x_blocks": ((2,), lambda v: SocoSolution(x_blocks=[v]).x_blocks[0]),
    "SocoSolution.y": ((2,), lambda v: SocoSolution(y=v).y),
    "SocoSolution.s_blocks": ((2,), lambda v: SocoSolution(s_blocks=[np.ones(1), v]).s_blocks[1]),
    "SdoProblem.b": ((2,), lambda v: SdoProblem(2, SymMatrix.identity(2),
                                                (SymMatrix.identity(2),) * 2, v).b),
    "SdoSolution.y": ((2,), lambda v: SdoSolution(y=v).y),
    "SdoPartition.basis_b": ((2, 2), lambda v: SdoPartition(v, np.zeros((2, 0)), np.zeros((2, 0)))
                             .basis_b),
    "SdoPartition.basis_t": ((2, 2), lambda v: SdoPartition(np.zeros((2, 0)), np.zeros((2, 0)), v)
                             .basis_t),
}

# The per-cone block fields: views of one read-only array the object makes.
_BLOCK_FIELDS = ("SocoProblem.A_blocks", "SocoProblem.c_blocks", "SocoSolution.x_blocks",
                 "SocoSolution.s_blocks")

# Values that are kept as they are, outside the block fields: read-only
# float64 arrays that own their memory or view a read-only array that does.
_KEPT = {
    "read-only": _frozen_copy,
    "read-only view of read-only": lambda a: _frozen_copy(np.stack([a, a]))[1],
}

# Values that are copied: anything through which the data can still change,
# or that is not a native float64 ndarray.
_COPIED = {
    "list": lambda a: a.tolist(),
    "writable": lambda a: np.array(a),
    "read-only view of writable": lambda a: _readonly(np.stack([a, a])[1]),
    "int": lambda a: _readonly(a.astype(np.int64)),
    "big-endian": lambda a: _readonly(a.astype(">f8")),
    "foreign buffer": lambda a: np.frombuffer(a.tobytes()).reshape(a.shape),
    "read-only view of a foreign buffer": lambda a: _readonly(
        np.frombuffer(bytearray(np.stack([a, a]).tobytes())).reshape((2, *a.shape)))[1],
}


class TestOneArrayRule:
    """Every array field of the five data classes is checked and frozen by one
    rule: a read-only float64 array that owns its memory, or views a read-only
    one that does, is kept as it is; any other value is copied, once. The
    per-cone blocks are the exception: each is a view of the one array that
    the object concatenates them into, whatever it was given."""

    @pytest.mark.parametrize("field", [f for f in _FIELDS if f not in _BLOCK_FIELDS])
    @pytest.mark.parametrize("kind", list(_KEPT))
    def test_read_only_array_is_kept(self, field, kind):
        shape, stored = _FIELDS[field]
        v = _KEPT[kind](np.arange(1.0, 1.0 + np.prod(shape)).reshape(shape))
        assert stored(v) is v

    @pytest.mark.parametrize("field", _BLOCK_FIELDS)
    @pytest.mark.parametrize("kind", list(_KEPT))
    def test_read_only_block_views_a_new_array(self, field, kind):
        shape, stored = _FIELDS[field]
        v = _KEPT[kind](np.arange(1.0, 1.0 + np.prod(shape)).reshape(shape))
        got = stored(v)
        assert np.array_equal(got, v) and not np.shares_memory(got, v)
        assert got.base is not None and not got.base.flags.writeable

    @pytest.mark.parametrize("field", list(_FIELDS))
    @pytest.mark.parametrize("kind", list(_COPIED))
    def test_anything_else_is_copied(self, field, kind):
        shape, stored = _FIELDS[field]
        a = np.arange(1.0, 1.0 + np.prod(shape)).reshape(shape)
        v = _COPIED[kind](a)
        got = stored(v)
        assert type(got) is np.ndarray and got.dtype == np.float64 and got.dtype.isnative
        assert not got.flags.writeable
        assert np.array_equal(got, a)
        if isinstance(v, np.ndarray):
            assert not np.shares_memory(got, v)

    @pytest.mark.parametrize("field", list(_FIELDS))
    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_named(self, field, bad):
        shape, stored = _FIELDS[field]
        v = _frozen_copy(np.full(shape, bad))
        name = field.split(".")[1]
        name = {"A_blocks": "A_blocks[0]", "c_blocks": "c_blocks[0]", "x_blocks": "x_blocks[0]",
                "s_blocks": "s_blocks[1]"}.get(name, name)
        with pytest.raises(NotFinite, match=f"^{re.escape(name)} holds"):
            stored(v)

    @pytest.mark.parametrize("field", list(_BATCHES))
    def test_first_bad_block_named_in_every_batch(self, field):
        # shape or finiteness, whichever comes first in block order
        name, make, good, expected = _BATCHES[field]
        wrong = np.ones((3, 3))
        shape = re.escape(f"has shape (3, 3), expected {expected}")
        with pytest.raises(NotFinite, match=f"^{re.escape(name.format(0))} holds"):
            make([good[0] * np.nan, wrong])
        with pytest.raises(DimensionMismatch, match=f"^{re.escape(name.format(0))} {shape}$"):
            make([wrong, good[1] * np.inf])
        with pytest.raises(NotFinite, match=f"^{re.escape(name.format(1))} holds"):
            make([good[0], good[1] * np.inf])

class TestOneStorage:
    """Each cone-vector part of a solution or a problem is one read-only
    array that the object makes; its blocks are views of it."""

    def test_blocks_view_one_read_only_base(self):
        sol = SocoSolution(x_blocks=[np.array([2.0, 1.0, 0.5]), np.array([1.0, 0.0])],
                           s_blocks=[np.ones(3), np.ones(2)])
        problem = SocoProblem((3, 2), [np.ones((2, 3)), np.eye(2)], [np.ones(3), np.ones(2)],
                              [1.0, 2.0])
        for blocks in (sol.x_blocks, sol.s_blocks, problem.c_blocks, problem.A_blocks):
            base = blocks[0].base
            assert base is not None and not base.flags.writeable
            assert base.shape[-1] == 5 and all(v.base is base for v in blocks)
            for v in blocks:
                assert not v.flags.writeable
                with pytest.raises(ValueError):
                    v.setflags(write=True)

    def test_writing_to_the_callers_array_leaves_the_solution_unchanged(self):
        a = np.array([2.0, 1.0, 0.5])
        a.setflags(write=False)
        sol = SocoSolution(x_blocks=[a], s_blocks=(a,))
        problem = SocoProblem((3,), [a[None]], [a], [1.0])
        a.setflags(write=True)
        a[0] = np.nan
        for v in (sol.x_blocks[0], sol.s_blocks[0], problem.c_blocks[0], problem.A_blocks[0][0]):
            assert np.array_equal(v, [2.0, 1.0, 0.5])


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

    def test_missing_parts(self):
        p = tiny_problem()
        with pytest.raises(MissingSolutionPart):
            primal_residual(p, SocoSolution(y=np.zeros(2)))
        with pytest.raises(MissingSolutionPart):
            dual_residual(p, SocoSolution(y=np.zeros(2)))
