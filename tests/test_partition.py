import math
import re

import numpy as np
import pytest

from conic_embed import (
    ConeLabel,
    DimensionMismatch,
    InconsistentPair,
    LabelMismatch,
    MissingSolutionPart,
    NotComplementary,
    NotPSD,
    OutsideCone,
    SdoPartition,
    SocoProblem,
    SocoSolution,
    SymMatrix,
    arrow_head,
    classify_cones,
    generate_instance,
    map_partition,
    max_principal_angle,
    proper_map_solution,
    sdo_partition_from_solution,
)
from conic_embed import eigh, linalg, partition, soco
from conic_embed.sdo import Side

from helpers import corpus, ref_arrowhead_frame


def one_cone_problem(n, m=2, seed=0):
    rng = np.random.default_rng(seed)
    A = (rng.standard_normal((m, n)),)
    c = (rng.standard_normal(n),)
    return SocoProblem((n,), A, c, rng.standard_normal(m))


class TestClassify:
    def test_frozen_labels(self):
        p = one_cone_problem(3)
        cases = [
            (([2.0, 1.0, 0.0],), ([0.0, 0.0, 0.0],), ConeLabel.B),
            (([0.0, 0.0, 0.0],), ([2.0, 1.0, 0.0],), ConeLabel.N),
            (([1.0, 1.0, 0.0],), ([1.0, -1.0, 0.0],), ConeLabel.R),
            (([0.0, 0.0, 0.0],), ([0.0, 0.0, 0.0],), ConeLabel.T1),
            (([1.0, 1.0, 0.0],), ([0.0, 0.0, 0.0],), ConeLabel.T2),
            (([0.0, 0.0, 0.0],), ([1.0, -1.0, 0.0],), ConeLabel.T3),
        ]
        for x, s, want in cases:
            sol = SocoSolution(
                x_blocks=tuple(np.array(v) for v in x),
                s_blocks=tuple(np.array(v) for v in s),
            )
            assert classify_cones(p, sol) == [want]

    def test_aligned_boundary_pair_rejected(self):
        # both on the boundary along the same ray: positions say R but the
        # jordan product does not vanish
        p = one_cone_problem(2)
        sol = SocoSolution(
            x_blocks=(np.array([1.0, 1.0]),), s_blocks=(np.array([1.0, 1.0]),)
        )
        with pytest.raises(InconsistentPair):
            classify_cones(p, sol)

    def test_interior_interior_rejected(self):
        p = one_cone_problem(3)
        sol = SocoSolution(
            x_blocks=(np.array([2.0, 0.0, 0.0]),), s_blocks=(np.array([1.0, 0.0, 0.0]),)
        )
        with pytest.raises(InconsistentPair):
            classify_cones(p, sol)

    def test_outside_rejected(self):
        p = one_cone_problem(2)
        sol = SocoSolution(
            x_blocks=(np.array([0.0, 1.0]),), s_blocks=(np.array([0.0, 0.0]),)
        )
        with pytest.raises(OutsideCone):
            classify_cones(p, sol)

    def test_missing_parts(self):
        p = one_cone_problem(2)
        with pytest.raises(MissingSolutionPart):
            classify_cones(p, SocoSolution(x_blocks=(np.zeros(2),)))

    def test_generated_labels_recovered(self):
        for inst in corpus(20, master_seed=123):
            got = classify_cones(inst.problem, inst.solution)
            assert tuple(got) == inst.labels


def arrow_head_eigensystem(v):
    """partition._arrow_head_eigensystems of one vector, its tail dot taken
    from its frame, as map_partition takes it."""
    v = np.asarray(v, dtype=float)
    vals, vecs = partition._arrow_head_eigensystems(v[None], soco._frame(v[None]).tt)
    return vals[0], vecs[0]


class TestArrowheadEigensystem:
    def test_frozen_example(self):
        vals, vecs = arrow_head_eigensystem([2.0, 1.0, 0.0])
        assert np.allclose(vals, [1.0, 2.0, 3.0], atol=1e-15)
        inv = 1.0 / math.sqrt(2.0)
        assert np.allclose(vecs[:, 0], [inv, -inv, 0.0], atol=1e-15)
        assert np.allclose(vecs[:, 2], [inv, inv, 0.0], atol=1e-15)
        assert abs(vecs[0, 1]) < 1e-15

    @pytest.mark.parametrize("tail, zero", [
        ([0.0, -0.0], True),
        ([1e-170, 0.0], True),  # its square underflows: no direction
        ([1e-160, 0.0], False),  # a subnormal square still gives one
    ])
    def test_tail_dot_decides_the_degenerate_case(self, tail, zero):
        v = np.array([3.0, *tail])
        if zero:  # map_partition refuses a boundary label without a direction
            assert soco._frame(v[None]).tt[0] == 0.0
            return
        vals, vecs = arrow_head_eigensystem(v)
        assert np.array_equal(vals, [3.0 - tail[0], 3.0, 3.0 + tail[0]])
        # the subnormal square keeps about five digits of ||t||
        assert np.allclose(np.abs(vecs[1:, [0, 2]]), [[0.5 ** 0.5] * 2, [0.0] * 2], atol=1e-4)

    def test_definition_and_orthonormality(self):
        rng = np.random.default_rng(60)
        for n in (2, 3, 5, 11):
            for _ in range(20):
                v = rng.standard_normal(n)
                vals, vecs = arrow_head_eigensystem(v)
                a = arrow_head(v).a
                scale = 1.0 + np.abs(a).max()
                assert np.abs(a @ vecs - vecs * vals).max() < 1e-13 * scale
                assert np.abs(vecs.T @ vecs - np.eye(n)).max() < 1e-13
                assert np.allclose(vals, np.sort(np.linalg.eigvalsh(a)), atol=1e-12 * scale)
                assert np.array_equal(vecs, ref_arrowhead_frame(v))


class TestSdoPartitionValidate:
    def test_dims_and_orthonormality(self):
        part = SdoPartition(np.eye(3)[:, :1], np.eye(3)[:, 1:2], np.eye(3)[:, 2:])
        part.validate()
        assert part.dims == (1, 1, 1)
        bad = SdoPartition(np.eye(3)[:, :1], np.eye(3)[:, :1], np.eye(3)[:, 2:])
        with pytest.raises(DimensionMismatch):
            bad.validate()

    def test_shape_check(self):
        with pytest.raises(DimensionMismatch):
            SdoPartition(np.zeros(3), np.zeros((3, 0)), np.zeros((3, 0)))


def reference_map_partition(problem, sol, labels, side):
    """The label routing written out branch by branch, as a reference for the
    table in map_partition."""
    layout = problem.layout
    cols = {"B": [], "N": [], "T": []}
    inv_sqrt2 = 1.0 / math.sqrt(2.0)

    def put(cls, local, i):
        out = np.zeros((layout.total, local.shape[1]))
        out[layout.block_slice(i), :] = local
        cols[cls].append(out)

    for i, label in enumerate(labels):
        n = problem.cone_dims[i]
        whole = {ConeLabel.B: "B", ConeLabel.N: "N", ConeLabel.T1: "T"}.get(label)
        if whole is not None:
            put(whole, np.eye(n), i)
            continue
        v = np.asarray((sol.x_blocks if label in (ConeLabel.R, ConeLabel.T2) else sol.s_blocks)[i])
        d = v[1:] / float(np.linalg.norm(v[1:]))
        vp = np.concatenate(([inv_sqrt2], d * inv_sqrt2)).reshape(n, 1)
        vm = np.concatenate(([inv_sqrt2], -d * inv_sqrt2)).reshape(n, 1)
        complement = linalg._reflectors(d - np.eye(n - 1)[0])[:, 1:]
        mid = np.vstack([np.zeros((1, n - 2)), complement]) if n > 2 else np.zeros((n, 0))
        dual = side is Side.DUAL
        if label is ConeLabel.R:
            put("B", vp if dual else np.hstack([vp, mid]), i)
            put("N", np.hstack([vm, mid]) if dual else vm, i)
        elif label is ConeLabel.T2:
            put("B", vp if dual else np.hstack([vp, mid]), i)
            put("T", np.hstack([vm, mid]) if dual else vm, i)
        else:
            put("N", np.hstack([vp, mid]) if dual else vp, i)
            put("T", vm if dual else np.hstack([vm, mid]), i)
    return [np.hstack(c) if c else np.zeros((layout.total, 0)) for c in cols.values()]


class TestMapPartitionRouting:
    def test_full_block_labels(self):
        p = one_cone_problem(3)
        sol = SocoSolution(
            x_blocks=(np.array([2.0, 1.0, 0.0]),), s_blocks=(np.zeros(3),)
        )
        for side in (Side.DUAL, Side.PRIMAL):
            part = map_partition(p, sol, [ConeLabel.B], side)
            assert part.dims == (3, 0, 0)
            part = map_partition(p, sol, [ConeLabel.N], side)
            assert part.dims == (0, 3, 0)
            part = map_partition(p, sol, [ConeLabel.T1], side)
            assert part.dims == (0, 0, 3)

    @pytest.mark.parametrize(
        "label,dual_dims,primal_dims",
        [
            (ConeLabel.R, (1, 2, 0), (2, 1, 0)),
            (ConeLabel.T2, (1, 0, 2), (2, 0, 1)),
            (ConeLabel.T3, (0, 2, 1), (0, 1, 2)),
        ],
    )
    def test_boundary_label_dims(self, label, dual_dims, primal_dims):
        p = one_cone_problem(3)
        d = np.array([0.6, 0.8])
        x = np.concatenate(([1.0], d)) if label in (ConeLabel.R, ConeLabel.T2) else np.zeros(3)
        s = np.concatenate(([1.0], -d)) if label in (ConeLabel.R, ConeLabel.T3) else np.zeros(3)
        sol = SocoSolution(x_blocks=(x,), s_blocks=(s,))
        assert map_partition(p, sol, [label], Side.DUAL).dims == dual_dims
        assert map_partition(p, sol, [label], Side.PRIMAL).dims == primal_dims

    def test_aligned_vector_routed_by_side(self):
        # for R the aligned eigenvector (1, d)/sqrt(2) carries the positive
        # eigenvalue of Arw(x); it must sit in B on both sides, while the
        # opposed vector splits the sides
        p = one_cone_problem(2)
        d = np.array([1.0])
        sol = SocoSolution(
            x_blocks=(np.array([1.0, 1.0]),), s_blocks=(np.array([1.0, -1.0]),)
        )
        inv = 1.0 / math.sqrt(2.0)
        vp = np.array([inv, inv])
        vm = np.array([inv, -inv])
        dual = map_partition(p, sol, [ConeLabel.R], Side.DUAL)
        assert np.abs(dual.basis_b[:, 0] - vp).max() < 1e-15
        assert np.abs(dual.basis_n[:, 0] - vm).max() < 1e-15
        primal = map_partition(p, sol, [ConeLabel.R], Side.PRIMAL)
        assert np.abs(primal.basis_b[:, 0] - vp).max() < 1e-15
        assert np.abs(primal.basis_n[:, 0] - vm).max() < 1e-15

    @pytest.mark.parametrize("side", [Side.DUAL, Side.PRIMAL])
    def test_table_matches_branch_reference(self, side):
        for inst in corpus(200):
            part = map_partition(inst.problem, inst.solution, inst.labels, side)
            want = reference_map_partition(inst.problem, inst.solution, inst.labels, side)
            got = [part.basis_b, part.basis_n, part.basis_t]
            assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_label_requires_direction(self):
        p = one_cone_problem(3)
        sol = SocoSolution(
            x_blocks=(np.array([2.0, 0.0, 0.0]),), s_blocks=(np.zeros(3),)
        )
        with pytest.raises(LabelMismatch):
            map_partition(p, sol, [ConeLabel.R], Side.DUAL)

    @pytest.mark.parametrize("zero_tails, labels, where", [
        ((0, 2), "R R T3", "cone 0: x block has a zero tail"),
        ((2,), "R R T3", "cone 2: s block has a zero tail"),
        ((1, 2), "B R T3", "cone 1: x block has a zero tail"),
        ((2,), "R R Q", "unknown label"),
        ((1,), "R T2 Q", "cone 1: x block has a zero tail"),
    ])
    def test_first_zero_tail_in_cone_order(self, zero_tails, labels, where):
        p = SocoProblem((3, 4, 3), tuple(np.ones((1, n)) for n in (3, 4, 3)),
                        tuple(np.zeros(n) for n in (3, 4, 3)), [0.0])
        blocks = [np.array([2.0, 1.0, 0.0]), np.array([2.0, 0.0, 1e-170, 1.0]),
                  np.array([2.0, 0.0, -1.0])]
        for i in zero_tails:  # a tail whose dot is zero, exactly or by underflow
            blocks[i] = np.r_[2.0, 1e-170 * blocks[i][1:]]
        sol = SocoSolution(x_blocks=tuple(blocks), s_blocks=tuple(blocks))
        labels = [getattr(ConeLabel, name, name) for name in labels.split()]
        with pytest.raises(LabelMismatch, match=re.escape(where)):
            map_partition(p, sol, labels, Side.PRIMAL)

    def test_solution_checked_against_the_problem(self):
        p = one_cone_problem(3)
        sol = SocoSolution(x_blocks=(np.array([1.0, 1.0]),), s_blocks=(np.zeros(3),))
        with pytest.raises(DimensionMismatch, match="^x block 0 has length 2, expected 3$"):
            map_partition(p, sol, [ConeLabel.R], Side.DUAL)

    def test_label_count_checked(self):
        p = one_cone_problem(2)
        sol = SocoSolution(x_blocks=(np.zeros(2),), s_blocks=(np.zeros(2),))
        with pytest.raises(DimensionMismatch):
            map_partition(p, sol, [ConeLabel.T1, ConeLabel.T1], Side.DUAL)


class TestEigenRoute:
    def test_frozen_projections(self):
        X = SymMatrix(np.diag([1.0, 0.0, 0.0]))
        S = SymMatrix(np.diag([0.0, 2.0, 0.0]))
        part = sdo_partition_from_solution(X, S)
        assert part.dims == (1, 1, 1)
        assert abs(abs(part.basis_b[0, 0]) - 1.0) < 1e-12
        assert abs(abs(part.basis_n[1, 0]) - 1.0) < 1e-12
        assert abs(abs(part.basis_t[2, 0]) - 1.0) < 1e-12

    def test_rejects_non_complementary(self):
        with pytest.raises(NotComplementary):
            sdo_partition_from_solution(SymMatrix.identity(3), SymMatrix.identity(3))

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSD):
            sdo_partition_from_solution(
                SymMatrix(np.diag([1.0, -1.0])), SymMatrix.zeros(2)
            )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            sdo_partition_from_solution(SymMatrix.identity(2), SymMatrix.identity(3))

    def test_decomposes_each_matrix_once(self, monkeypatch):
        inst = generate_instance((3, 4), ("R", "T2"), m=2, seed=11)
        proper = proper_map_solution(inst.problem, inst.solution, Side.DUAL)
        seen, eigh = [], linalg.eigh

        def counting_eigh(a, *args, **kwargs):
            seen.append(a)
            return eigh(a, *args, **kwargs)

        for module in (linalg, partition):
            monkeypatch.setattr(module, "eigh", counting_eigh)
        sdo_partition_from_solution(proper.X, proper.S)
        assert [id(a) for a in seen] == [id(proper.X), id(proper.S)]


class TestRouteAgreement:
    @pytest.mark.parametrize("interior", ["simzhao", "full"])
    @pytest.mark.parametrize("side", [Side.DUAL, Side.PRIMAL])
    def test_table_matches_eigen_route(self, side, interior):
        inst = generate_instance((3, 2, 4), ("R", "B", "T3"), m=3, seed=61)
        labels = classify_cones(inst.problem, inst.solution)
        table = map_partition(inst.problem, inst.solution, labels, side)
        mapped = proper_map_solution(inst.problem, inst.solution, side, interior=interior)
        eigen = sdo_partition_from_solution(mapped.X, mapped.S)
        assert table.dims == eigen.dims
        assert sum(table.dims) == inst.problem.total_dim
        for a, b in (
            (table.basis_b, eigen.basis_b),
            (table.basis_n, eigen.basis_n),
            (table.basis_t, eigen.basis_t),
        ):
            assert max_principal_angle(a, b) < 1e-6

    def test_improper_map_breaks_agreement(self):
        # rank-one on an interior block undercounts B; the eigen route then
        # disagrees with the table route
        inst = generate_instance((3,), ("B",), m=2, seed=62)
        labels = classify_cones(inst.problem, inst.solution)
        table = map_partition(inst.problem, inst.solution, labels, Side.DUAL)
        from conic_embed import RankOne, map_solution

        mapped = map_solution(inst.problem, inst.solution, Side.DUAL, RankOne())
        eigen = sdo_partition_from_solution(mapped.X, mapped.S)
        assert table.dims != eigen.dims


class TestProperMap:
    def test_block_ranks_equal_cone_ranks(self):
        inst = generate_instance((4, 3, 2), ("B", "R", "N"), m=3, seed=63)
        mapped = proper_map_solution(inst.problem, inst.solution, Side.DUAL)
        X = mapped.X.a
        # interior block: full rank; boundary: rank 1; zero: rank 0
        assert np.linalg.matrix_rank(X[:4, :4], tol=1e-8) == 4
        assert np.linalg.matrix_rank(X[4:7, 4:7], tol=1e-8) == 1
        assert np.abs(X[7:, 7:]).max() == 0.0
        assert eigh(mapped.X).rank() == 5

    def test_full_interior_variant(self):
        inst = generate_instance((3,), ("B",), m=2, seed=64)
        mapped = proper_map_solution(inst.problem, inst.solution, Side.DUAL, interior="full")
        assert np.linalg.matrix_rank(mapped.X.a, tol=1e-8) == 3

    def test_bad_arguments(self):
        inst = generate_instance((3,), ("B",), m=2, seed=65)
        with pytest.raises(DimensionMismatch):
            proper_map_solution(inst.problem, inst.solution, Side.DUAL, interior="banana")
        with pytest.raises(MissingSolutionPart):
            proper_map_solution(
                inst.problem, SocoSolution(y=inst.solution.y), Side.DUAL
            )


class TestPrincipalAngle:
    def test_same_span_different_basis(self):
        rng = np.random.default_rng(66)
        q, _ = np.linalg.qr(rng.standard_normal((5, 2)))
        rot, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        assert max_principal_angle(q, q @ rot) < 1e-12

    def test_orthogonal_spans(self):
        assert max_principal_angle(np.eye(4)[:, :2], np.eye(4)[:, 2:]) == pytest.approx(
            math.pi / 2.0
        )

    def test_dimension_mismatch_is_max(self):
        assert max_principal_angle(np.eye(3)[:, :1], np.eye(3)[:, :2]) == pytest.approx(
            math.pi / 2.0
        )

    def test_empty_subspaces_agree(self):
        assert max_principal_angle(np.zeros((3, 0)), np.zeros((3, 0))) == 0.0
