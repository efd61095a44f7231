"""Sparse constraint storage: the triplet row types, their kernels, and the
equivalence of the sparse embedding builders with a dense reference."""

import tracemalloc

import numpy as np
import pytest

from conic_embed import (
    DimensionMismatch,
    NotFinite,
    RankOne,
    SdoProblem,
    Side,
    SparseRows,
    SparseSym,
    SymMatrix,
    build_dual_embedding,
    build_primal_embedding,
    check_admissibility,
    generate_instance,
    map_solution,
)

from helpers import corpus


class TestSparseSym:
    def test_canonical_form(self):
        # lower-triangle entries are mirrored up, zeros dropped, order (i, j)
        a = SparseSym(3, [2, 1, 0, 1], [0, 1, 0, 2], [4.0, 2.0, 1.0, 0.0])
        assert a.i.tolist() == [0, 0, 1]
        assert a.j.tolist() == [0, 2, 1]
        assert a.v.tolist() == [1.0, 4.0, 2.0]
        assert np.array_equal(a.a, [[1.0, 0.0, 4.0], [0.0, 2.0, 0.0], [4.0, 0.0, 0.0]])

    def test_dense_view_is_read_only(self):
        a = SparseSym(2, [0], [1], [3.0])
        with pytest.raises(ValueError):
            a.a[0, 0] = 1.0

    def test_from_dense_round_trip(self):
        rng = np.random.default_rng(3)
        g = rng.standard_normal((5, 5))
        g[g < 0.3] = 0.0
        m = SymMatrix(g + g.T)
        sparse = SparseSym.from_dense(m)
        assert sparse.nnz == np.count_nonzero(np.triu(m.a))
        assert sparse.a.tobytes() == m.a.tobytes()

    def test_rejects_bad_entries(self):
        with pytest.raises(DimensionMismatch):
            SparseSym(2, [0, 1], [1, 0], [1.0, 2.0])  # (0, 1) twice
        with pytest.raises(DimensionMismatch):
            SparseSym(2, [0], [2], [1.0])
        with pytest.raises(DimensionMismatch):
            SparseSym(2, [0, 1], [1], [1.0, 2.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(NotFinite):
            SparseSym(2, [0, 1], [0, 1], [1.0, bad])


class TestSparseRows:
    def _rows(self):
        return SparseRows(3, 3, [2, 0, 0, 2], [1, 0, 2, 1], [2, 0, 1, 1], [5.0, 1.0, 2.0, 3.0])

    def test_rows_are_views_in_row_order(self):
        rows = self._rows()
        assert len(rows) == 3
        assert rows.indptr.tolist() == [0, 2, 2, 4]
        assert rows[0].v.tolist() == [1.0, 2.0]
        assert rows[1].nnz == 0
        assert rows[-1].i.tolist() == [1, 1] and rows[-1].j.tolist() == [1, 2]
        assert [r.nnz for r in rows] == [2, 0, 2]
        with pytest.raises(IndexError):
            rows[3]

    def test_kernels_match_dense(self):
        rng = np.random.default_rng(5)
        dense = []
        for _ in range(4):
            g = rng.standard_normal((6, 6))
            g[rng.random((6, 6)) < 0.6] = 0.0
            dense.append(SymMatrix(g + g.T))
        rows = SparseRows.from_rows(6, dense)
        X = SymMatrix((lambda h: h + h.T)(rng.standard_normal((6, 6))))
        y = rng.standard_normal(4)
        want_traces = [float(np.sum(a.a * X.a)) for a in dense]
        assert np.allclose(rows.traces(X), want_traces, rtol=0, atol=1e-14)
        want_sum = sum(yk * a.a for yk, a in zip(y, dense))
        assert np.allclose(rows.combine(y), want_sum, rtol=0, atol=1e-14)

    def test_row_out_of_range(self):
        with pytest.raises(DimensionMismatch):
            SparseRows(2, 1, [1], [0], [0], [1.0])

    def test_problem_converts_dense_rows(self):
        rows = (SymMatrix.identity(2), SparseSym(2, [0], [1], [1.0]))
        p = SdoProblem(2, SymMatrix.identity(2), rows, np.ones(2))
        assert isinstance(p.constraints, SparseRows)
        assert np.array_equal(p.constraints[0].a, np.eye(2))
        assert p.constraints.nnz == 3


# ---------------------------------------------------------------- dense reference


def _arrow(v):
    n = len(v)
    m = np.zeros((n, n))
    np.fill_diagonal(m, v[0])
    m[0, 1:] = v[1:]
    m[1:, 0] = v[1:]
    return m


def _block_diag(blocks):
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n))
    at = 0
    for b in blocks:
        out[at:at + b.shape[0], at:at + b.shape[0]] = b
        at += b.shape[0]
    return out


def reference_dual(problem):
    rows = [
        _block_diag([_arrow(blk[j]) for blk in problem.A_blocks]) for j in range(problem.m)
    ]
    return rows, problem.b


def reference_primal(problem):
    """One dense n x n matrix per row, as the embedding was first written."""
    dims = problem.cone_dims
    n = sum(dims)
    cone = [i for i, d in enumerate(dims) for _ in range(d)]
    lead = [sum(dims[:i]) for i in cone]
    rows = [
        _block_diag([
            _arrow(np.concatenate(([blk[j][0] / d], blk[j][1:] / 2.0)))
            for blk, d in zip(problem.A_blocks, dims)
        ])
        for j in range(problem.m)
    ]
    pairs = [
        (h, l) for h in range(n) for l in range(h + 1, n)
        if cone[h] != cone[l] or h != lead[h]
    ]
    tied = [k for k in range(n) if k != lead[k]]
    for h, l in pairs:
        e = np.zeros((n, n))
        e[h, l] = e[l, h] = 1.0
        rows.append(e)
    for k in tied:
        e = np.zeros((n, n))
        e[lead[k], lead[k]] = 1.0
        e[k, k] = -1.0
        rows.append(e)
    return rows, np.concatenate((problem.b, np.zeros(len(pairs) + len(tied)))), pairs, tied


def _instances():
    out = corpus(40, master_seed=4242)
    out += [
        generate_instance((3, 4, 2), ("R", "T2", "T3"), m=3, seed=61),
        generate_instance((5, 1, 3, 2), ("T3", "B", "R", "T2"), m=4, seed=62),
    ]
    return out


class TestEquivalence:
    def test_rows_bit_identical_to_dense_reference(self):
        labels = set()
        for inst in _instances():
            labels.update(lab.value for lab in inst.labels)
            for build, reference in (
                (build_dual_embedding, reference_dual),
                (build_primal_embedding, reference_primal),
            ):
                sdo = build(inst.problem)
                want_rows, want_b, *structure = reference(inst.problem)
                assert len(sdo.constraints) == len(want_rows)
                for got, want in zip(sdo.constraints, want_rows):
                    assert got.a.tobytes() == want.tobytes()
                assert sdo.b.tobytes() == np.asarray(want_b, dtype=float).tobytes()
                if structure:
                    pairs, tied = structure
                    assert np.array_equal(sdo.meta.zero_pairs, np.reshape(pairs, (-1, 2)))
                    assert np.array_equal(sdo.meta.tied_diagonals, tied)
        assert {"R", "T2", "T3"} <= labels

    def test_primal_build_memory_at_total_dim_160(self):
        inst = generate_instance((40, 40, 40, 40), ("B", "N", "R", "T2"), m=6, seed=160)
        tracemalloc.start()
        try:
            sdo = build_primal_embedding(inst.problem)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50e6
        assert sdo.dim == 160 and len(sdo.constraints) == 6 + 160 * 159 // 2
        mapped = map_solution(inst.problem, inst.solution, Side.PRIMAL, RankOne())
        assert check_admissibility(inst.problem, inst.solution, sdo, mapped).passed
