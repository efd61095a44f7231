"""Symmetric linear algebra: dense and sparse storage, trace inner product, an
eigensolver, and PSD / rank queries built on top of it.

The eigensolver answers each diagonal block of its input in closed form when
the block is an arrow-head or a theta-block (the two shapes every embedding
produces), and by cyclic Jacobi otherwise. Neither path calls LAPACK's
eigensolvers."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, EighConvergenceError, NotFinite, NotSymmetric

DEFAULT_TOL = 1e-8
SYM_TOL = 1e-9  # largest |a - a.T| SymMatrix accepts, relative to 1 + max|a|
_HALF_MAX = np.finfo(float).max / 2


class SymMatrix:
    """Immutable dense real symmetric matrix.

    The backing array is symmetrized on construction (exact for input that is
    already symmetric) and marked read-only, so downstream code can rely on
    a[i, j] == a[j, i] holding bit for bit.
    """

    __slots__ = ("a",)

    def __init__(self, array):
        a = np.array(array, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
        _require_finite(a)
        peak = float(np.abs(a).max())
        with np.errstate(over="ignore"):  # beyond _HALF_MAX, a - a.T and a + a.T can overflow
            skew = float(np.abs(a - a.T).max())
            sym = 0.5 * (a + a.T)
        if skew > SYM_TOL * (1.0 + peak):
            raise NotSymmetric(f"matrix deviates from symmetry by {skew:.3e}")
        if peak > _HALF_MAX:
            # where a + a.T overflowed, both entries are large enough that
            # halving each first is exact
            over = np.isinf(sym)
            sym[over] = (0.5 * a + 0.5 * a.T)[over]
        sym.setflags(write=False)
        self.a = sym

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    @classmethod
    def zeros(cls, n: int) -> "SymMatrix":
        return cls(np.zeros((n, n)))

    @classmethod
    def identity(cls, n: int) -> "SymMatrix":
        return cls(np.eye(n))

    @classmethod
    def diagonal(cls, values) -> "SymMatrix":
        return cls(np.diag(np.asarray(values, dtype=float)))

    def __repr__(self) -> str:
        return f"SymMatrix(dim={self.dim})"


def _require_finite(values: np.ndarray, what: str = "matrix data") -> None:
    if not np.isfinite(values).all():
        raise NotFinite(f"{what} holds a NaN or an infinite entry")


class SparseSym:
    """Immutable sparse real symmetric matrix: its upper-triangle nonzeros
    (i, j, v) with i <= j, sorted by (i, j).

    Lower-triangle input is mirrored to the upper triangle and explicit zeros
    are dropped. `a` builds the dense matrix on every access; nothing dense is
    stored.
    """

    __slots__ = ("dim", "i", "j", "v")

    def __init__(self, dim: int, i, j, v):
        rows = SparseRows(dim, 1, np.zeros(len(v), dtype=np.int64), i, j, v)
        self.dim, self.i, self.j, self.v = rows.dim, rows.i, rows.j, rows.v

    @classmethod
    def _view(cls, dim: int, i: np.ndarray, j: np.ndarray, v: np.ndarray) -> "SparseSym":
        """Wrap arrays already in canonical form, without copying or checking."""
        out = cls.__new__(cls)
        out.dim, out.i, out.j, out.v = dim, i, j, v
        return out

    @classmethod
    def from_dense(cls, m: SymMatrix) -> "SparseSym":
        i, j = np.nonzero(np.triu(m.a))
        return cls._view(m.dim, *_frozen(i, j, m.a[i, j]))

    @property
    def nnz(self) -> int:
        return self.v.shape[0]

    @property
    def a(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim))
        out[self.i, self.j] = self.v
        out[self.j, self.i] = self.v
        out.setflags(write=False)
        return out

    def __repr__(self) -> str:
        return f"SparseSym(dim={self.dim}, nnz={self.nnz})"


class SparseRows:
    """Immutable sequence of sparse symmetric matrices of one dimension.

    All entries live in one set of triplet arrays sorted by (row, i, j); row k
    holds entries indptr[k]:indptr[k + 1]. Indexing returns SparseSym views of
    those slices. The constructor takes triplets in any order, with a row
    number for each, and normalizes them as SparseSym does; a repeated
    (row, i, j) is an error.
    """

    __slots__ = ("dim", "indptr", "i", "j", "v")

    def __init__(self, dim: int, count: int, row, i, j, v):
        dim, count = int(dim), int(count)
        if dim < 1 or count < 0:
            raise DimensionMismatch(f"need dim >= 1 and count >= 0, got {dim} and {count}")
        row, i, j = (np.asarray(t, dtype=np.int64) for t in (row, i, j))
        v = np.asarray(v, dtype=float)
        if not (row.ndim == 1 and row.shape == i.shape == j.shape == v.shape):
            raise DimensionMismatch("row, i, j and v must be flat arrays of one length")
        _require_finite(v)
        if row.size and (
            min(row.min(), i.min(), j.min()) < 0
            or row.max() >= count
            or max(i.max(), j.max()) >= dim
        ):
            raise DimensionMismatch(f"entry index out of range for {count} rows of dim {dim}")
        keep = v != 0.0
        row, lo, hi, v = row[keep], np.minimum(i, j)[keep], np.maximum(i, j)[keep], v[keep]
        order = np.lexsort((hi, lo, row))
        row, lo, hi, v = row[order], lo[order], hi[order], v[order]
        same = (row[1:] == row[:-1]) & (lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1])
        if same.any():
            k = int(np.argmax(same))
            raise DimensionMismatch(
                f"row {row[k]} holds entry ({lo[k]}, {hi[k]}) more than once"
            )
        indptr = np.concatenate(([0], np.cumsum(np.bincount(row, minlength=count))))
        self.dim = dim
        self.indptr, self.i, self.j, self.v = _frozen(indptr, lo, hi, v)

    @classmethod
    def from_rows(cls, dim: int, rows) -> "SparseRows":
        """Stack SparseSym or SymMatrix rows, each of dimension dim."""
        parts = []
        for k, r in enumerate(rows):
            if isinstance(r, SymMatrix):
                r = SparseSym.from_dense(r)
            elif not isinstance(r, SparseSym):
                raise TypeError(f"constraint {k} is a {type(r).__name__}, not a matrix")
            if r.dim != dim:
                raise DimensionMismatch(f"constraint {k} has dim {r.dim}, expected {dim}")
            parts.append(r)
        if not parts:
            return cls(dim, 0, [], [], [], [])
        return cls(
            dim,
            len(parts),
            np.repeat(np.arange(len(parts)), [p.nnz for p in parts]),
            np.concatenate([p.i for p in parts]),
            np.concatenate([p.j for p in parts]),
            np.concatenate([p.v for p in parts]),
        )

    def __len__(self) -> int:
        return self.indptr.shape[0] - 1

    def __getitem__(self, k) -> SparseSym:
        k = range(len(self))[operator.index(k)]
        at = slice(self.indptr[k], self.indptr[k + 1])
        return SparseSym._view(self.dim, self.i[at], self.j[at], self.v[at])

    @property
    def nnz(self) -> int:
        return self.v.shape[0]

    def row_ids(self) -> np.ndarray:
        """Row number of every stored entry."""
        return np.repeat(np.arange(len(self)), np.diff(self.indptr))

    def traces(self, X: SymMatrix) -> np.ndarray:
        """Tr(A_k X) for every row k: one gather of X over the stored entries,
        off-diagonal entries counted twice."""
        if X.dim != self.dim:
            raise DimensionMismatch(f"dimensions differ: {self.dim} vs {X.dim}")
        prod = self.v * X.a[self.i, self.j]
        prod[self.i != self.j] *= 2.0
        return np.bincount(self.row_ids(), weights=prod, minlength=len(self))

    def combine(self, y) -> np.ndarray:
        """Dense sum_k y_k A_k, scattered into one n x n accumulator."""
        y = np.asarray(y, dtype=float)
        if y.shape != (len(self),):
            raise DimensionMismatch(f"y has shape {y.shape}, expected ({len(self)},)")
        n, i, j = self.dim, self.i, self.j
        w = y[self.row_ids()] * self.v
        off = i != j
        flat = np.concatenate((i * n + j, j[off] * n + i[off]))
        acc = np.bincount(flat, weights=np.concatenate((w, w[off])), minlength=n * n)
        return acc.reshape(n, n)

    def __repr__(self) -> str:
        return f"SparseRows(count={len(self)}, dim={self.dim}, nnz={self.nnz})"


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.setflags(write=False)
    return arrays


def block_diag(blocks: Sequence[SymMatrix]) -> SymMatrix:
    """Assemble symmetric blocks into one block-diagonal SymMatrix."""
    if not blocks:
        raise DimensionMismatch("need at least one block")
    n = sum(b.dim for b in blocks)
    out = np.zeros((n, n))
    at = 0
    for b in blocks:
        out[at:at + b.dim, at:at + b.dim] = b.a
        at += b.dim
    return SymMatrix(out)


def trace_inner(a: SymMatrix, b: SymMatrix) -> float:
    """Trace inner product Tr(AB) = sum_ij a_ij * b_ij for symmetric A, B."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimensions differ: {a.dim} vs {b.dim}")
    return float(np.sum(a.a * b.a))


class PsdStatus(Enum):
    POSITIVE_DEFINITE = "positive_definite"
    POSITIVE_SEMIDEFINITE = "positive_semidefinite"
    INDEFINITE = "indefinite"


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Eigenvalues in ascending order with matching orthonormal column eigenvectors.

    The PSD and rank rules read the eigenvalues only, so one decomposition
    answers every query about a matrix.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def psd_status(self, tol: float = DEFAULT_TOL) -> PsdStatus:
        """Definiteness from the smallest eigenvalue with an absolute tol band."""
        lam_min = float(self.eigenvalues[0])
        if lam_min > tol:
            return PsdStatus.POSITIVE_DEFINITE
        if lam_min >= -tol:
            return PsdStatus.POSITIVE_SEMIDEFINITE
        return PsdStatus.INDEFINITE

    def rank_cutoff(self, tol: float = DEFAULT_TOL) -> float:
        """Eigenvalues larger than this in magnitude count towards the rank:
        tol * max(1, |lambda|_max)."""
        return tol * max(1.0, float(np.abs(self.eigenvalues).max()))

    def rank(self, tol: float = DEFAULT_TOL) -> int:
        return int(np.count_nonzero(np.abs(self.eigenvalues) > self.rank_cutoff(tol)))


def eigh(a: SymMatrix, tol: float = DEFAULT_TOL, max_sweeps: int = 100) -> EigenDecomposition:
    """Eigendecomposition, block by block, in closed form where certified and
    by cyclic Jacobi rotations elsewhere.

    The contiguous diagonal blocks are read off the zero pattern of the input,
    and both paths share the threshold tol * (1 + max |entry|) of the whole
    input. Each block of size >= 2 first gets the closed-form candidate of
    _two_level_eigensystem, with its tail read as acting as u^T T u on the
    direction u of the first row and as the mean of the rest of its trace on
    the complement. The candidate is exact for arrow-heads and for rank-one
    and Sim-Zhao theta-blocks, and it is kept only when every entry of
    B V - V diag(lambda) is within the threshold. The other blocks sweep in
    lock-step: every sweep rotates each (p, q) pair of each block in row
    order, skipping pairs below 0.01 * threshold, until each off-diagonal
    magnitude falls below the threshold. Rotations on disjoint blocks commute,
    so when no block is certified the result, the sweep count and the residual
    are exactly those of the same sweeps over the full matrix. Raises
    EighConvergenceError carrying the residual if max_sweeps is exhausted.
    """
    n = a.dim
    m = a.a
    thresh = tol * (1.0 + float(np.abs(m).max()))
    skip = 0.01 * thresh
    vals = m.diagonal().copy()
    vecs = np.eye(n)
    spans = []
    for lo, hi in _diagonal_blocks(m):
        if hi - lo == 1:
            continue
        closed = _certified_block(m[lo:hi, lo:hi], thresh)
        if closed is None:
            spans.append((lo, hi))
        else:
            vals[lo:hi], vecs[lo:hi, lo:hi] = closed
    # Row i of a block's work array holds row i of the block, then column i of
    # its eigenvector matrix, so one row update rotates both.
    work = [np.hstack((m[lo:hi, lo:hi], np.eye(hi - lo))) for lo, hi in spans]
    off = _max_offdiag(work)
    sweeps = 0
    while off >= thresh:
        if sweeps == max_sweeps:
            raise EighConvergenceError(off, sweeps)
        for w in work:
            _sweep(w, skip)
        sweeps += 1
        off = _max_offdiag(work)

    for (lo, hi), w in zip(spans, work):
        k = hi - lo
        vals[lo:hi] = w[:, :k].diagonal()
        vecs[lo:hi, lo:hi] = w[:, k:].T
    order = np.argsort(vals, kind="stable")
    vals = vals[order]
    vecs = vecs[:, order]
    vals.setflags(write=False)
    vecs.setflags(write=False)
    return EigenDecomposition(vals, vecs)


def _two_level_eigensystem(
    head: float, rho: float, u: np.ndarray, along: float, rest: float
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a symmetric B with B[0, 0] = head and first row
    B[0, 1:] = rho * u (rho > 0, u a unit vector), whose tail block maps u to
    along * u and acts as rest on the complement of u.

    An arrow-head Arw(v) has along = rest = v1 (Alizadeh & Goldfarb 2003); a
    theta-block nu nu^T + b sum_{j>=2} e_j e_j^T has rest = b, and b = 0 for
    rank one (Sim & Zhao 2007). On span(e1, (0, u)), B is
    [[head, rho], [rho, along]]; one Jacobi rotation
    diagonalizes it. The remaining eigenvalue rest has the eigenvectors
    (0, z), z spanning the Householder complement of u.

    Returns the eigenvalues and column eigenvectors in frame order: the
    rotation's p-pair, then the n - 2 complement pairs, then its q-pair. For
    an arrow-head that order is ascending, v1 -/+ ||v[1:]|| are exact, and
    the outer eigenvectors are (1, -/+ u) / sqrt(2).
    """
    n = u.shape[0] + 1
    t, c, s = _jacobi_rotation(head, rho, along)
    vals = np.empty(n)
    vals[0], vals[1:n - 1], vals[n - 1] = head - t * rho, rest, along + t * rho
    vecs = np.zeros((n, n))
    vecs[0, 0], vecs[1:, 0] = c, -s * u
    vecs[1:, 1:n - 1] = _tail_complement(u)
    vecs[0, n - 1], vecs[1:, n - 1] = s, c * u
    return vals, vecs


def _certified_block(b: np.ndarray, thresh: float) -> tuple[np.ndarray, np.ndarray] | None:
    """_two_level_eigensystem's candidate for one diagonal block, or None when
    some entry of B V - V diag(lambda) exceeds thresh (or is not finite)."""
    n = b.shape[0]
    row, tail = b[0, 1:], b[1:, 1:]
    rho = float(np.linalg.norm(row))
    if rho == 0.0:  # a first row that underflows in the norm
        return None
    u = row / rho
    along = float(u @ tail @ u)
    rest = (float(np.trace(tail)) - along) / (n - 2) if n > 2 else 0.0
    vals, vecs = _two_level_eigensystem(float(b[0, 0]), rho, u, along, rest)
    if not float(np.abs(b @ vecs - vecs * vals).max()) <= thresh:
        return None
    return vals, vecs


def _tail_complement(d: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the complement of unit d, via the Householder
    reflector exchanging d with e1."""
    k = d.shape[0]
    w = d.copy()
    w[0] -= 1.0
    wtw = float(w @ w)
    if wtw <= 1e-30:
        return np.eye(k)[:, 1:]
    h = np.eye(k) - (2.0 / wtw) * np.outer(w, w)
    return h[:, 1:]


def _diagonal_blocks(m: np.ndarray) -> list[tuple[int, int]]:
    """(start, stop) of the smallest contiguous diagonal blocks holding every
    nonzero of the symmetric m: a block ends at row i when no row up to i
    reaches a column beyond i."""
    n = m.shape[0]
    nz = m != 0.0
    idx = np.arange(n)
    last = np.where(nz.any(axis=1), n - 1 - np.argmax(nz[:, ::-1], axis=1), idx)
    ends = np.flatnonzero(np.maximum.accumulate(np.maximum(last, idx)) == idx) + 1
    return list(zip([0, *ends[:-1].tolist()], ends.tolist()))


def _max_offdiag(work: list[np.ndarray]) -> float:
    worst = 0.0
    for w in work:
        off = np.abs(w[:, :w.shape[0]])
        np.fill_diagonal(off, 0.0)
        worst = max(worst, float(off.max()))
    return worst


def _sweep(w: np.ndarray, skip: float) -> None:
    k = w.shape[0]
    for p in range(k - 1):
        for q in range(p + 1, k):
            apq = w.item(p, q)
            if abs(apq) <= skip:
                continue
            _, c, s = _jacobi_rotation(w.item(p, p), apq, w.item(q, q))
            _rotate(w, p, q, c, s)


def _jacobi_rotation(app: float, apq: float, aqq: float) -> tuple[float, float, float]:
    """tan, cos and sin of the rotation that zeroes apq in the (p, q) plane,
    taking the smaller angle; the diagonal becomes app - t apq, aqq + t apq."""
    tau = (aqq - app) / (2.0 * apq)
    t = np.sign(tau) / (abs(tau) + np.hypot(1.0, tau)) if tau != 0.0 else 1.0
    c = 1.0 / np.hypot(1.0, t)
    return t, c, t * c


def _rotate(w: np.ndarray, p: int, q: int, c: float, s: float) -> None:
    # G^T M G with G acting in the (p, q) plane, and V G. M is exactly
    # symmetric, so its new columns p and q equal the new rows; only the two
    # corners differ from the one-sided update, and take the two-sided formulas.
    row_p, row_q = w[p], w[q]
    new_p = c * row_p - s * row_q
    new_q = s * row_p + c * row_q
    new_p[p], new_q[q] = c * new_p[p] - s * new_p[q], s * new_q[p] + c * new_q[q]
    new_p[q] = new_q[p] = 0.0
    k = w.shape[0]
    w[p], w[q] = new_p, new_q
    w[:k, p], w[:k, q] = new_p[:k], new_q[:k]


def psd_status(a: SymMatrix, tol: float = DEFAULT_TOL) -> PsdStatus:
    """Classify definiteness from the smallest eigenvalue with an absolute tol band."""
    return eigh(a, tol).psd_status(tol)


def numeric_rank(a: SymMatrix, tol: float = DEFAULT_TOL) -> int:
    """Count of eigenvalues with |lambda| > tol * max(1, |lambda|_max)."""
    return eigh(a, tol).rank(tol)


def orthonormal_complement(vectors: np.ndarray, dim: int) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of the given columns in R^dim.

    Columns are assumed orthonormal (within roundoff); the complement is filled
    deterministically by Householder QR against the standard basis.
    """
    k = vectors.shape[1] if vectors.size else 0
    if k == 0:
        return np.eye(dim)
    if k >= dim:
        return np.zeros((dim, 0))
    q, _ = np.linalg.qr(np.hstack([vectors, np.eye(dim)]))
    return q[:, k:dim]
