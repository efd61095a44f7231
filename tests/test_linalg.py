from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conic_embed import (
    DimensionMismatch,
    EighConvergenceError,
    NotFinite,
    NotPSD,
    NotSymmetric,
    PsdStatus,
    RankK,
    RankOne,
    Side,
    SimZhao,
    SymMatrix,
    block_diag,
    build_dual_embedding,
    eigh,
    generate_instance,
    inverse_map,
    map_block,
    map_solution,
    numeric_rank,
    orthonormal_complement,
    psd_status,
    trace_inner,
)
from conic_embed import linalg
from conic_embed.linalg import EigenDecomposition, _diagonal_blocks
from conic_embed.partition import max_principal_angle
from conic_embed.soco import arrow_head

from helpers import corpus


def random_symmetric(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) * scale
    return SymMatrix(0.5 * (a + a.T))


def dense_jacobi(a: SymMatrix, tol=1e-8, max_sweeps=100):
    """Reference: cyclic Jacobi over the whole matrix, every (p, q) pair in row
    order, each rotation applied to columns and then to rows. Where eigh
    certifies no closed-form block, it must give the same bits, sweep count
    and residual."""
    n = a.dim
    m = a.a.copy()
    vecs = np.eye(n)
    if n == 1:
        return m.diagonal().copy(), vecs

    def max_offdiag():
        off = np.abs(m).copy()
        np.fill_diagonal(off, 0.0)
        return float(off.max())

    thresh = tol * (1.0 + float(np.abs(m).max()))
    skip = 0.01 * thresh
    off = max_offdiag()
    sweeps = 0
    while off >= thresh:
        if sweeps == max_sweeps:
            raise EighConvergenceError(off, sweeps)
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = m[p, q]
                if abs(apq) <= skip:
                    continue
                tau = (m[q, q] - m[p, p]) / (2.0 * apq)
                t = np.sign(tau) / (abs(tau) + np.hypot(1.0, tau)) if tau != 0.0 else 1.0
                c = 1.0 / np.hypot(1.0, t)
                s = t * c
                col_p = m[:, p].copy()
                col_q = m[:, q].copy()
                m[:, p] = c * col_p - s * col_q
                m[:, q] = s * col_p + c * col_q
                row_p = m[p, :].copy()
                row_q = m[q, :].copy()
                m[p, :] = c * row_p - s * row_q
                m[q, :] = s * row_p + c * row_q
                m[p, q] = 0.0
                m[q, p] = 0.0
                vp = vecs[:, p].copy()
                vq = vecs[:, q].copy()
                vecs[:, p] = c * vp - s * vq
                vecs[:, q] = s * vp + c * vq
        sweeps += 1
        off = max_offdiag()
    vals = m.diagonal().copy()
    order = np.argsort(vals, kind="stable")
    return vals[order], vecs[:, order]


def spans_of(a: SymMatrix, tol=1e-8):
    """(all diagonal blocks of size >= 2, the ones eigh answers in closed form).

    A block is closed form when eigh reports no Jacobi block for it set beside
    a 1 x 1 block holding the largest magnitude of a, which keeps the
    threshold of the whole input. The Jacobi blocks eigh reports for the
    whole input must be the others."""
    m = a.a
    peak = float(np.abs(m).max())
    spans = [(lo, hi) for lo, hi in zip(*_diagonal_blocks(m)) if hi - lo > 1]
    closed = [(lo, hi) for lo, hi in spans
              if eigh(block_diag([m[lo:hi, lo:hi], [[peak]]]), tol).jacobi_blocks == 0]
    assert eigh(a, tol).jacobi_blocks == len(spans) - len(closed)
    return spans, closed


def assert_bit_identical(a: SymMatrix):
    """No block is certified, so eigh is Jacobi throughout and gives the dense
    reference's bits."""
    assert spans_of(a)[1] == []
    want_vals, want_vecs = dense_jacobi(a)
    dec = eigh(a)
    assert np.array_equal(dec.eigenvalues, want_vals)
    assert np.array_equal(dec.eigenvectors, want_vecs)


def clusters(vals, gap):
    """Index groups of ascending vals, split where consecutive values differ
    by more than gap."""
    cuts = np.flatnonzero(np.diff(vals) > gap) + 1
    return np.split(np.arange(len(vals)), cuts)


def assert_close_to_dense(a: SymMatrix):
    """Some block is certified. The PSD status and rank equal the dense
    reference's. Each certified block is compared with the reference run on
    it alone, scaled to unit max and to tol 1e-14: eigenvalues within
    1e-12 (1 + max|a|), and each cluster's eigenspace (eigenvalues closer than
    1e-6 (1 + max|a|) merged) within 1e-10 rad. At the default tol and scale,
    the reference is off by up to its stopping threshold, 1e-8 (1 + max|a|),
    in eigenvalues of a degenerate block and by that over the spectral gap in
    eigenvectors."""
    dec = eigh(a)
    want = EigenDecomposition(*dense_jacobi(a))
    assert dec.psd_status() is want.psd_status()
    assert dec.rank() == want.rank()
    scale = 1.0 + float(np.abs(a.a).max())
    for lo, hi in spans_of(a)[1]:
        cols = np.flatnonzero(np.abs(dec.eigenvectors[lo:hi]).max(axis=0) > 0.0)
        assert cols.shape == (hi - lo,)
        block = a.a[lo:hi, lo:hi]
        peak = float(np.abs(block).max())
        ref_vals, ref_vecs = dense_jacobi(SymMatrix(block / peak), tol=1e-14)
        ref_vals = ref_vals * peak
        assert np.abs(dec.eigenvalues[cols] - ref_vals).max() <= 1e-12 * scale
        for cl in clusters(ref_vals, 1e-6 * scale):
            got = dec.eigenvectors[lo:hi, cols[cl]]
            assert max_principal_angle(ref_vecs[:, cl], got) <= 1e-10


def assert_matches_dense(a: SymMatrix):
    if spans_of(a)[1]:
        assert_close_to_dense(a)
    else:
        assert_bit_identical(a)


def interior_vector(rng, n):
    """Tail norm in [0.5, 2], margin in [0.1, 2]."""
    tail = rng.standard_normal(n - 1)
    tail *= rng.uniform(0.5, 2.0) / np.linalg.norm(tail)
    return np.concatenate(([np.linalg.norm(tail) + rng.uniform(0.1, 2.0)], tail))


def block_diagonal(rng, dims, kinds):
    """Blocks of the given dims: "dense" random, "rank1" outer products,
    "zero" all-zero."""
    n = sum(dims)
    a = np.zeros((n, n))
    at = 0
    for d, kind in zip(dims, kinds):
        if kind == "dense":
            b = rng.standard_normal((d, d))
            b = b + b.T
        elif kind == "rank1":
            g = rng.standard_normal((d, 1))
            b = g @ g.T
        else:
            b = np.zeros((d, d))
        a[at:at + d, at:at + d] = b
        at += d
    return SymMatrix(a)


class TestSymMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            SymMatrix(np.zeros((2, 3)))
        with pytest.raises(DimensionMismatch):
            SymMatrix(np.zeros(3))

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            SymMatrix([[1.0, 2.0], [0.0, 1.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        # NaN used to pass: every comparison in the symmetry check is false
        with pytest.raises(NotFinite):
            SymMatrix([[1.0, bad], [bad, 1.0]])

    def test_symmetric_input_stored_exactly(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((5, 5))
        a = a + a.T
        m = SymMatrix(a)
        # 0.5 * (a + a^T) is exact when a is already symmetric
        assert np.array_equal(m.a, a)

    def test_huge_entries_symmetrized_without_overflow(self):
        # 0.5 * (a + a^T) overflowed to inf beyond half the largest float
        big = np.finfo(float).max
        a = np.array([[-0.0, big, 1e308], [big, 5e-324, -0.0], [1e308, -0.0, 0.0]])
        assert SymMatrix(a).a.tobytes() == a.tobytes()
        near = SymMatrix([[0.0, big], [big * (1 - 1e-15), 0.0]]).a
        assert np.isfinite(near).all() and near[0, 1] == near[1, 0]

    def test_backing_array_read_only(self):
        m = SymMatrix.identity(3)
        with pytest.raises(ValueError):
            m.a[0, 0] = 2.0

    def test_constructors(self):
        assert np.array_equal(SymMatrix.zeros(2).a, np.zeros((2, 2)))
        assert np.array_equal(SymMatrix.identity(2).a, np.eye(2))
        assert np.array_equal(SymMatrix.diagonal([1.0, 2.0]).a, np.diag([1.0, 2.0]))


class TestTraceInner:
    def test_against_double_loop(self):
        rng = np.random.default_rng(1)
        a = random_symmetric(rng, 6)
        b = random_symmetric(rng, 6)
        oracle = sum(
            a.a[i, j] * b.a[i, j] for i in range(6) for j in range(6)
        )
        assert trace_inner(a, b) == pytest.approx(oracle, abs=1e-12)
        assert trace_inner(a, b) == pytest.approx(float(np.trace(a.a @ b.a)), abs=1e-12)

    def test_opposed_boundary_arrow_heads_are_orthogonal(self):
        assert trace_inner(arrow_head([1.0, 1.0]), arrow_head([1.0, -1.0])) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            trace_inner(SymMatrix.identity(2), SymMatrix.identity(3))


class TestEigh:
    def test_known_arrow_head(self):
        # det(A - t I) = (2 - t) ((2 - t)^2 - 1), roots 1, 2, 3
        m = arrow_head([2.0, 1.0, 0.0])
        dec = eigh(m)
        assert np.allclose(dec.eigenvalues, [1.0, 2.0, 3.0], atol=1e-12)
        for lam in dec.eigenvalues:
            assert abs(np.linalg.det(m.a - lam * np.eye(3))) < 1e-10

    def test_matches_lapack_eigenvalues(self):
        rng = np.random.default_rng(2)
        for n in (2, 3, 5, 9, 14):
            a = random_symmetric(rng, n, scale=3.0)
            got = eigh(a).eigenvalues
            want = np.linalg.eigvalsh(a.a)
            assert np.allclose(got, want, atol=1e-9 * (1.0 + np.abs(want).max()))

    def test_eigenpairs_satisfy_definition(self):
        rng = np.random.default_rng(3)
        a = random_symmetric(rng, 8)
        dec = eigh(a)
        resid = a.a @ dec.eigenvectors - dec.eigenvectors * dec.eigenvalues
        assert np.abs(resid).max() < 1e-9 * (1.0 + np.abs(a.a).max())

    def test_identity_and_diagonal(self):
        dec = eigh(SymMatrix.identity(4))
        assert np.array_equal(dec.eigenvalues, np.ones(4))
        dec = eigh(SymMatrix.diagonal([3.0, -1.0, 2.0]))
        assert np.array_equal(dec.eigenvalues, [-1.0, 2.0, 3.0])

    def test_one_by_one(self):
        dec = eigh(SymMatrix([[7.0]]))
        assert dec.eigenvalues[0] == 7.0
        assert dec.eigenvectors[0, 0] == 1.0

    @pytest.mark.parametrize("a", [[[2.0]], [[2.0, 1.0], [1.0, 3.0]]])
    def test_results_read_only(self, a):
        dec = eigh(SymMatrix(a))
        assert not dec.eigenvalues.flags.writeable
        assert not dec.eigenvectors.flags.writeable
        if len(a) == 1:
            assert np.array_equal(dec.eigenvalues, [2.0])
            assert np.array_equal(dec.eigenvectors, [[1.0]])

    def test_convergence_error_carries_residual(self):
        # e2 is no eigenvector of the tail block, so no closed form is certified
        a = SymMatrix([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        assert spans_of(a)[1] == []
        with pytest.raises(EighConvergenceError) as exc:
            eigh(a, max_sweeps=0)
        assert exc.value.residual == 1.0
        assert exc.value.sweeps == 0

    @settings(deadline=None, max_examples=60)
    @given(st.integers(1, 9), st.integers(0, 10_000))
    def test_reconstruction_and_orthonormality(self, n, seed):
        rng = np.random.default_rng(seed)
        a = random_symmetric(rng, n, scale=2.0)
        dec = eigh(a)
        v = dec.eigenvectors
        scale = 1.0 + float(np.abs(a.a).max())
        assert np.abs(v @ np.diag(dec.eigenvalues) @ v.T - a.a).max() < 1e-8 * scale
        assert np.abs(v.T @ v - np.eye(n)).max() < 1e-9
        assert np.all(np.diff(dec.eigenvalues) >= -1e-12)


class TestBlockJacobiMatchesDense:
    """eigh runs per diagonal block. Where it certifies no closed form, its
    results are bit-identical to the dense reference; elsewhere they are
    within assert_close_to_dense's bounds."""

    @pytest.mark.parametrize("side", ["dual", "primal"])
    def test_embedded_solutions(self, side):
        # arrow-heads and rank-one / Sim-Zhao theta-blocks: all closed form
        checked = 0
        for inst in corpus(20):
            for spec in (RankOne(), SimZhao()):
                mapped = map_solution(inst.problem, inst.solution, Side(side), spec)
                for mat in (mapped.X, mapped.S):
                    spans, closed = spans_of(mat)
                    assert closed == spans
                    assert_matches_dense(mat)
                    checked += 1
        assert checked == 80

    def test_rank_k_theta_blocks(self):
        # a bump on part of the tail: the theta candidate certifies it
        rng = np.random.default_rng(11)
        blocks = []
        for n, subset in ((3, (2,)), (5, (2, 3)), (8, (3, 5, 6)), (8, (2, 3, 4, 5, 6, 7))):
            blocks.append(map_block(interior_vector(rng, n), RankK(len(subset) + 1, subset)))
            assert spans_of(blocks[-1])[1] == [(0, n)]
            assert_close_to_dense(blocks[-1])
        a = block_diag([b.a for b in blocks])
        spans, closed = spans_of(a)
        assert closed == spans
        assert_close_to_dense(a)

    def test_unit_and_zero_blocks(self):
        rng = np.random.default_rng(7)
        cases = [
            ((1, 3, 2, 1, 4, 1), ("dense", "dense", "zero", "dense", "rank1", "zero")),
            ((1, 1, 1), ("dense", "zero", "dense")),
            ((3, 3), ("zero", "zero")),
            ((2, 1, 5), ("rank1", "dense", "dense")),
        ]
        for dims, kinds in cases:
            for _ in range(3):
                assert_matches_dense(block_diagonal(rng, dims, kinds))

    def test_sparse_patterns_not_block_contiguous(self):
        rng = np.random.default_rng(8)
        for n in (4, 7, 11, 15):
            for trial in range(4):
                a = np.triu(rng.standard_normal((n, n)))
                a[rng.random((n, n)) < 0.75] = 0.0
                if trial % 2:
                    a[0, n - 1] = 0.5  # one block, coupled across zero rows
                assert_matches_dense(SymMatrix(a + np.triu(a, 1).T))

    def test_dense_random(self):
        rng = np.random.default_rng(9)
        for n in (3, 6, 12):
            assert_bit_identical(random_symmetric(rng, n, scale=2.0))
        # every 2x2 block is its own closed form
        a = random_symmetric(rng, 2, scale=2.0)
        assert spans_of(a)[1] == [(0, 2)]
        assert_close_to_dense(a)

    def test_counts_report_the_jacobi_work(self):
        # two dense blocks sweep and an arrow-head beside them does not; the
        # sweep count is the fewest max_sweeps that converges
        rng = np.random.default_rng(13)
        a = block_diag([random_symmetric(rng, 5).a, arrow_head([3.0, 1.0, -1.0]).a,
                        random_symmetric(rng, 4).a])
        dec = eigh(a)
        assert dec.jacobi_blocks == 2
        assert dec.sweeps >= 1
        eigh(a, max_sweeps=dec.sweeps)
        with pytest.raises(EighConvergenceError):
            eigh(a, max_sweeps=dec.sweeps - 1)
        dec = eigh(arrow_head([3.0, 1.0, -1.0]))
        assert (dec.jacobi_blocks, dec.sweeps) == (0, 0)
        with pytest.raises(AttributeError):
            dec.sweeps = 1

    @pytest.mark.parametrize("max_sweeps", [0, 1])
    def test_convergence_error_matches(self, max_sweeps):
        rng = np.random.default_rng(10)
        a = block_diagonal(rng, (4, 1, 6), ("dense", "dense", "dense"))
        with pytest.raises(EighConvergenceError) as want:
            dense_jacobi(a, max_sweeps=max_sweeps)
        with pytest.raises(EighConvergenceError) as got:
            eigh(a, max_sweeps=max_sweeps)
        assert got.value.residual == want.value.residual
        assert got.value.sweeps == want.value.sweeps == max_sweeps

    def test_blocks_read_from_zero_pattern(self):
        a = np.zeros((8, 8))
        a[0, 1] = a[1, 0] = 1.0  # block 0..1
        a[3, 5] = a[5, 3] = 1.0  # block 3..5, row 4 all zero inside it
        a[6, 6] = 2.0
        assert list(zip(*_diagonal_blocks(a))) == [(0, 2), (2, 3), (3, 6), (6, 7), (7, 8)]
        a[1, 7] = a[7, 1] = 1.0
        assert list(zip(*_diagonal_blocks(a))) == [(0, 8)]


def closed_form_block(kind, n, seed, exponent):
    """An arrow-head (of a vector inside, on or outside the cone), a rank-one,
    a Sim-Zhao or a rank-k theta-block of dim n, scaled by 10**exponent. The
    rank-k block takes an interior vector and a random nonempty subset of the
    tail."""
    rng = np.random.default_rng(seed)
    x = interior_vector(rng, n)
    if seed % 3 == 1 and kind != "rankk":
        x[0] = np.linalg.norm(x[1:])  # boundary
    x *= 10.0 ** exponent
    if kind == "arrow":
        if seed % 3 == 2:
            x[0] *= -rng.uniform(0.0, 1.0)  # outside the cone: indefinite
        return arrow_head(x)
    if kind == "rankk":
        size = int(rng.integers(1, n))
        subset = tuple(int(j) for j in rng.choice(np.arange(2, n + 1), size, replace=False))
        return map_block(x, RankK(size + 1, subset))
    return map_block(x, RankOne()) if kind == "one" else map_block(x, SimZhao())


class TestClosedForm:
    """Blocks that eigh answers in closed form, against the dense reference."""

    @settings(deadline=None, max_examples=40)
    @given(
        st.sampled_from(["arrow", "one", "simzhao", "rankk"]),
        st.integers(2, 64),
        st.integers(0, 10_000),
        st.integers(-6, 6),
    )
    def test_families(self, kind, n, seed, exponent):
        a = closed_form_block(kind, n, seed, exponent)
        assert spans_of(a)[1] == [(0, n)]
        assert_close_to_dense(a)

    @pytest.mark.parametrize("kind", ["arrow", "one", "simzhao"])
    @pytest.mark.parametrize("entry", [(2, 2), (2, 4)])
    def test_near_miss_falls_back_to_jacobi(self, kind, entry):
        # ten thresholds off an off-arrow entry, or off a tail diagonal of an
        # arrow-head, fall back to Jacobi. Seed 7 draws a boundary vector, so
        # both theta-blocks are rank one, and a bump on one tail diagonal
        # makes them rank-k theta-blocks, which are closed form.
        a = closed_form_block(kind, 6, 7, 0).a.copy()
        i, j = entry
        a[i, j] += 10.0 * 1e-8 * (1.0 + float(np.abs(a).max()))
        a[j, i] = a[i, j]
        a = SymMatrix(a)
        if kind != "arrow" and entry == (2, 2):
            assert spans_of(a)[1] == [(0, 6)]
            assert_close_to_dense(a)
        else:
            assert_bit_identical(a)

    def test_mixed_blocks(self):
        # a certified block does not sweep, so the Jacobi blocks beside it
        # may stop earlier than in the dense reference
        rng = np.random.default_rng(12)
        blocks = [closed_form_block("simzhao", 5, 3, 0), random_symmetric(rng, 4),
                  closed_form_block("arrow", 3, 4, 1),
                  map_block(interior_vector(rng, 6), RankK(3, (2, 4)))]
        a = block_diag([b.a for b in blocks])
        spans, closed = spans_of(a)
        assert closed == [spans[0], spans[2], spans[3]]
        assert_close_to_dense(a)


class TestPsdQueries:
    def test_status_frozen_cases(self):
        assert psd_status(SymMatrix.identity(3)) is PsdStatus.POSITIVE_DEFINITE
        assert psd_status(SymMatrix.zeros(3)) is PsdStatus.POSITIVE_SEMIDEFINITE
        assert psd_status(SymMatrix.diagonal([1.0, -1.0])) is PsdStatus.INDEFINITE
        assert psd_status(SymMatrix.diagonal([1.0, -5e-9])) is PsdStatus.POSITIVE_SEMIDEFINITE

    def test_gram_matrices_never_indefinite(self):
        rng = np.random.default_rng(4)
        for n in (2, 4, 7):
            g = rng.standard_normal((n, n))
            assert psd_status(SymMatrix(g @ g.T)) is not PsdStatus.INDEFINITE

    def test_numeric_rank(self):
        assert numeric_rank(SymMatrix.diagonal([5.0, 1e-12, 0.0])) == 1
        assert numeric_rank(SymMatrix.diagonal([1.0, 1.0, 0.0])) == 2
        assert numeric_rank(SymMatrix.zeros(4)) == 0
        # the cutoff scales with the largest magnitude: 1e-8 * 1e9 = 10 > 5
        assert numeric_rank(SymMatrix.diagonal([1e9, 5.0, 0.0])) == 1
        rng = np.random.default_rng(5)
        for k in (1, 2, 3):
            g = rng.standard_normal((6, k))
            m = SymMatrix(g @ g.T)
            assert numeric_rank(m) == np.linalg.matrix_rank(m.a, tol=1e-8)


def spectral_blocks(seed, sizes, norm, lam_min):
    """Block-diagonal matrix of blocks Q diag(lambda) Q^T of the given sizes,
    Q orthogonal: every eigenvalue drawn from [lam_min, norm], and lam_min
    itself once, in a block drawn from seed."""
    rng = np.random.default_rng(seed)
    host = int(rng.integers(len(sizes)))
    blocks = []
    for k, n in enumerate(sizes):
        lam = lam_min + (norm - lam_min) * rng.random(n)
        if k == host:
            lam[0] = lam_min
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        b = (q * lam) @ q.T
        blocks.append(0.5 * (b + b.T))
    return block_diag(blocks)


def psd_gate(a, tol):
    """linalg._psd_within's verdict, and whether it came from the certificate
    alone (psd_status was not asked)."""
    with mock.patch.object(linalg, "psd_status", wraps=linalg.psd_status) as spy:
        verdict = linalg._psd_within(a, tol)
    return verdict, verdict and not spy.called


class TestPsdCertificate:
    """inverse_map's PSD gate: a batched Cholesky certificate of
    lambda_min >= -tol per block size, else psd_status's verdict."""

    @settings(deadline=None, max_examples=100)
    @given(
        st.lists(st.integers(1, 30), min_size=1, max_size=3),
        st.floats(-3.0, 3.0),
        st.sampled_from((-10.0, -2.0, -1.01, -0.99, -0.5, 0.0, 0.5)),
        st.integers(0, 2**32 - 1),
    )
    def test_sound_and_equal_to_eigh_off_the_edge(self, sizes, exponent, factor, seed):
        tol = 1e-8
        norm = 10.0 ** exponent
        lam_min = factor * tol
        a = spectral_blocks(seed, sizes, norm, lam_min)
        verdict, certified = psd_gate(a, tol)
        if certified:
            assert lam_min >= -tol
        if abs(lam_min + tol) > 1e-12 * (1.0 + norm):
            assert verdict == (psd_status(a, tol) is not PsdStatus.INDEFINITE)

    def test_certifies_psd_blocks_of_every_size(self):
        for sizes in ((1,), (2, 2), (4,) * 6, (30, 1, 7)):
            for factor in (-0.99, 0.0, 0.5):
                a = spectral_blocks(3, sizes, 10.0, factor * 1e-8)
                assert psd_gate(a, 1e-8) == (True, True)

    def test_large_norm_takes_the_eigh_route(self):
        # n = 16 and d = 1e6 leave no room for a positive shift at tol 1e-8
        a = spectral_blocks(1, (16,), 1e6, 0.0)
        with mock.patch.object(linalg, "psd_status", wraps=linalg.psd_status) as spy:
            assert linalg._psd_within(a, 1e-8)
        assert spy.call_count == 1

    def test_negative_diagonal_fails_the_certificate(self):
        assert psd_gate(SymMatrix.diagonal([1.0, -2e-8]), 1e-8) == (False, False)
        assert psd_gate(SymMatrix([[1.0, 2.0], [2.0, 1.0]]), 1e-8) == (False, False)

    def test_indefinite_lifted_matrix_raises(self):
        # diag(0, 10, -10) on cone 0's block keeps its trace and first row
        inst = generate_instance((3, 2), ("B", "R"), 2, 5)
        mapped = map_solution(inst.problem, inst.solution, Side.DUAL, SimZhao())
        x = mapped.X.a.copy()
        x[1, 1] += 10.0
        x[2, 2] -= 10.0
        bad = type(mapped)(X=SymMatrix(x), y=mapped.y, S=mapped.S)
        with pytest.raises(NotPSD, match=r"^X is indefinite beyond tolerance$"):
            inverse_map(build_dual_embedding(inst.problem).meta, bad)


class TestOrthonormalComplement:
    def test_single_axis(self):
        q = orthonormal_complement(np.eye(3)[:, :1], 3)
        assert q.shape == (3, 2)
        assert np.abs(q.T @ q - np.eye(2)).max() < 1e-12
        assert np.abs(q[0, :]).max() < 1e-12

    def test_empty_and_full(self):
        assert np.array_equal(orthonormal_complement(np.zeros((4, 0)), 4), np.eye(4))
        assert orthonormal_complement(np.eye(4), 4).shape == (4, 0)

    def test_complement_is_orthogonal_to_input(self):
        rng = np.random.default_rng(6)
        basis, _ = np.linalg.qr(rng.standard_normal((7, 3)))
        q = orthonormal_complement(basis, 7)
        assert q.shape == (7, 4)
        assert np.abs(basis.T @ q).max() < 1e-12


class TestBlockDiag:
    def test_assembly(self):
        m = block_diag([np.eye(2), np.diag([3.0])])
        want = np.diag([1.0, 1.0, 3.0])
        assert np.array_equal(m.a, want)

    def test_empty_rejected(self):
        with pytest.raises(DimensionMismatch):
            block_diag([])

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatch):
            block_diag([np.eye(2), np.zeros((1, 2))])

    def test_assembled_matrix_is_checked(self):
        # the blocks are plain arrays; the one SymMatrix built from them
        # checks finiteness and symmetry
        with pytest.raises(NotSymmetric):
            block_diag([np.eye(2), np.array([[1.0, 2.0], [0.0, 1.0]])])
        with pytest.raises(NotFinite):
            block_diag([np.array([[np.nan]]), np.eye(1)])
