"""Symmetric linear algebra: dense and sparse storage, trace inner product, an
eigensolver, and PSD / rank queries built on top of it.

The eigensolver answers each diagonal block of its input in closed form when
the block is an arrow-head or a theta-block with a bump on any subset of its
tail (the shapes every embedding produces), all blocks of one size at once,
and by cyclic Jacobi otherwise. Neither path calls LAPACK's eigensolvers.
A yes-or-no PSD gate (_psd_within) first tries a certificate, one batched
Cholesky factorization per diagonal block size, and asks the eigensolver
only when that does not settle it; this module is the only caller of
np.linalg.cholesky."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from typing import Sequence

import numpy as np

from .errors import ConicEmbedError, DimensionMismatch, EighConvergenceError, NotFinite, NotSymmetric

DEFAULT_TOL = 1e-8
SYM_TOL = 1e-9  # largest |a - a.T| SymMatrix accepts, relative to 1 + max|a|
_HALF_MAX = np.finfo(float).max / 2
_F64 = np.dtype(float)
_UNIT_ROUNDOFF = np.finfo(float).eps / 2


class SymMatrix:
    """Immutable dense real symmetric matrix.

    The backing array is symmetrized on construction (exact for input that is
    already symmetric) and marked read-only, so downstream code can rely on
    a[i, j] == a[j, i] holding bit for bit. _arrow_read holds the last
    layout's tol-independent block arrow-head read of the matrix
    (soco.block_arrow_head_inv), O(dim) numbers, for as long as the matrix
    lives; it is valid only while nobody writes to a.
    """

    __slots__ = ("a", "_arrow_read", "__weakref__")

    def __init__(self, array):
        (a,) = _checked((array,), ((None, None),), "array")
        if a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise DimensionMismatch(f"array is not a square matrix: shape {a.shape}")
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
        self._arrow_read = None

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
        return cls(np.diag(_checked((values,), ((None,),), "values")[0]))

    def __repr__(self) -> str:
        return f"SymMatrix(dim={self.dim})"


def _checked(values, shapes, name: str) -> tuple[np.ndarray, ...]:
    """values as read-only float arrays: the one rule for every array argument
    and field. A read-only native float64 ndarray that owns its memory, or
    views a read-only one that does, is kept; anything else is copied.
    shapes[k] fixes every length of value k, or holds None on each axis to
    fix only the number of axes. The first value in order with another shape,
    or a NaN or an infinite entry, raises DimensionMismatch or NotFinite
    naming it name.format(k); finiteness is tested once for the batch. A
    value numpy cannot read (a ragged list), or reads as anything but ints
    or floats (text, booleans), is misshapen too: refused, not parsed."""
    out, misshapen = [], None
    for k, (v, shape) in enumerate(zip(values, shapes)):
        if not _kept(v):
            try:
                v = np.array(v)
                if v.dtype.kind not in "iuf":
                    raise TypeError(f"numpy reads it as {v.dtype}")
            except (TypeError, ValueError) as exc:
                misshapen = DimensionMismatch(f"{name.format(k)} is not an array of numbers: {exc}")
                break
            v = v.astype(float, copy=False)
            v.setflags(write=False)
        if v.ndim != len(shape) or (shape[0] is not None and v.shape != shape):
            misshapen = DimensionMismatch(f"{name.format(k)} has shape {v.shape}, "
                                          f"expected {shape}")
            break
        out.append(v)
    if out:
        flat = out[0] if len(out) == 1 else np.concatenate(out, axis=None)
        if np.count_nonzero(np.isfinite(flat)) < flat.size:  # less work than isfinite().all()
            k = next(k for k, a in enumerate(out) if not np.isfinite(a).all())
            raise NotFinite(f"{name.format(k)} holds a NaN or an infinite entry")
    if misshapen is not None:
        raise misshapen
    return tuple(out)


def _kept(v) -> bool:
    if type(v) is not np.ndarray or v.flags.writeable or v.dtype != _F64:
        return False
    base = v.base
    return base is None or (type(base) is np.ndarray and base.base is None
                            and not base.flags.writeable)


def _vector(v, name: str) -> np.ndarray:
    """v through _checked as a vector, which must not be empty."""
    (v,) = _checked((v,), ((None,),), name)
    if not v.shape[0]:
        raise DimensionMismatch(f"{name} has shape (0,), expected a nonempty vector")
    return v


def _checked_tol(tol, name: str = "tol") -> float:
    """tol as a float; anything but a finite number > 0 raises
    ConicEmbedError naming name and the value."""
    try:
        if 0.0 < tol < math.inf:
            return float(tol)
    except (TypeError, ValueError):
        pass
    raise ConicEmbedError(f"{name} must be finite and > 0, got {tol!r}")


def _checked_int(value, name: str, low=None, error=DimensionMismatch, high=None) -> int:
    """value, an int or a numpy integer, as an int in low..high (None: no
    bound). A float, a string or a bool is refused, not truncated, parsed or
    read as 0 or 1; anything refused raises error naming name and the value."""
    try:
        out = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        out = None
    if out is None or (low is not None and out < low) or (high is not None and out > high):
        bound = "" if low is None else f" >= {low}" if high is None else f" in {low}..{high}"
        raise error(f"{name} must be an integer{bound}, got {value!r}")
    return out


class SparseSym:
    """Immutable sparse real symmetric matrix: its upper-triangle nonzeros
    (i, j, v) with i <= j, sorted by (i, j).

    Lower-triangle input is mirrored to the upper triangle and explicit zeros
    are dropped. `a` builds the dense matrix on every access; nothing dense is
    stored.
    """

    __slots__ = ("dim", "i", "j", "v")

    def __init__(self, dim: int, i, j, v):
        (v,) = _checked((v,), ((None,),), "v")  # SparseRows keeps it as it is
        rows = SparseRows(dim, 1, np.zeros(v.shape[0], dtype=np.int64), i, j, v)
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


def _as_sparse(m, dim: int, what: str) -> SparseSym:
    """m, a SparseSym or a SymMatrix converted once, of dimension dim."""
    if isinstance(m, SymMatrix):
        m = SparseSym.from_dense(m)
    elif not isinstance(m, SparseSym):
        raise TypeError(f"{what} is a {type(m).__name__}, not a matrix")
    if m.dim != dim:
        raise DimensionMismatch(f"{what} has dim {m.dim}, expected {dim}")
    return m


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
        dim, count = _checked_int(dim, "dim", 1), _checked_int(count, "count", 0)
        row, i, j = (_indices(t, name) for t, name in ((row, "row"), (i, "i"), (j, "j")))
        (v,) = _checked((v,), ((None,),), "v")
        if not (row.ndim == 1 and row.shape == i.shape == j.shape == v.shape):
            raise DimensionMismatch("row, i, j and v must be flat arrays of one length")
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
        parts = [_as_sparse(r, dim, f"constraint {k}") for k, r in enumerate(rows)]
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
        (y,) = _checked((y,), ((len(self),),), "y")
        n, i, j = self.dim, self.i, self.j
        w = y[self.row_ids()] * self.v
        off = i != j
        flat = np.concatenate((i * n + j, j[off] * n + i[off]))
        acc = np.bincount(flat, weights=np.concatenate((w, w[off])), minlength=n * n)
        return acc.reshape(n, n)

    def __repr__(self) -> str:
        return f"SparseRows(count={len(self)}, dim={self.dim}, nnz={self.nnz})"


def _indices(t, name: str) -> np.ndarray:
    """t as an int64 array; anything numpy reads as other than integers
    (floats, text, booleans), or cannot read, is refused, not truncated or
    parsed. An empty list is accepted."""
    try:
        a = np.asarray(t)
    except (TypeError, ValueError):
        a = None
    if a is None or (a.dtype.kind not in "iu" and a.size):
        raise DimensionMismatch(f"{name} is not an array of integers")
    return a.astype(np.int64, copy=False)


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.setflags(write=False)
    return arrays


def block_diag(blocks: Sequence[np.ndarray]) -> SymMatrix:
    """Write square arrays into one block-diagonal SymMatrix.

    The blocks are checked as one batch, and symmetry once, on the assembled
    matrix."""
    blocks = _checked(blocks, repeat((None, None)), "blocks[{}]")
    if not blocks:
        raise DimensionMismatch("need at least one block")
    for k, b in enumerate(blocks):
        if b.shape[0] != b.shape[1]:
            raise DimensionMismatch(f"blocks[{k}] has shape {b.shape}, expected a square block")
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n))
    at = 0
    for b in blocks:
        out[at:at + b.shape[0], at:at + b.shape[0]] = b
        at += b.shape[0]
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
    answers every query about a matrix. jacobi_blocks counts the diagonal
    blocks that eigh answered by Jacobi sweeps rather than in closed form, and
    sweeps the sweeps they took; both are readouts of the work done.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    jacobi_blocks: int = 0
    sweeps: int = 0

    def psd_status(self, tol: float = DEFAULT_TOL) -> PsdStatus:
        """Definiteness from the smallest eigenvalue with an absolute tol band."""
        tol = _checked_tol(tol)
        lam_min = float(self.eigenvalues[0])
        if lam_min > tol:
            return PsdStatus.POSITIVE_DEFINITE
        if lam_min >= -tol:
            return PsdStatus.POSITIVE_SEMIDEFINITE
        return PsdStatus.INDEFINITE

    def rank_cutoff(self, tol: float = DEFAULT_TOL) -> float:
        """Eigenvalues larger than this in magnitude count towards the rank:
        tol * max(1, |lambda|_max)."""
        return _checked_tol(tol) * max(1.0, float(np.abs(self.eigenvalues).max()))

    def rank(self, tol: float = DEFAULT_TOL) -> int:
        return int(np.count_nonzero(np.abs(self.eigenvalues) > self.rank_cutoff(tol)))


def eigh(a: SymMatrix, tol: float = DEFAULT_TOL, max_sweeps: int = 100) -> EigenDecomposition:
    """Eigendecomposition, block by block, in closed form where certified and
    by cyclic Jacobi rotations elsewhere.

    The contiguous diagonal blocks are read off the zero pattern of the input,
    and both paths share the threshold tol * (1 + max |entry|) of the whole
    input. The blocks of one size are stacked, and _closed_forms answers
    them with two closed-form candidates, each built and checked for the
    whole stack at once: _two_level_candidates, exact for arrow-heads, and
    _theta_candidates, exact for a theta-block with a bump on any subset of
    its tail (none for rank one, all of it for Sim-Zhao). A candidate is kept
    for a block only when every entry of B V - V diag(lambda) is within the
    threshold. The blocks that no candidate certifies, counted in
    jacobi_blocks of the result, sweep in lock-step: every sweep
    rotates each (p, q) pair of each block in row order, skipping pairs below
    0.01 * threshold, until each off-diagonal magnitude falls below the
    threshold. Rotations on disjoint blocks commute, so when no block is
    certified the result, the sweep count and the residual are exactly those
    of the same sweeps over the full matrix. Raises EighConvergenceError
    carrying the residual if max_sweeps is exhausted.
    """
    tol = _checked_tol(tol)
    n = a.dim
    m = a.a
    thresh = tol * (1.0 + float(np.abs(m).max()))
    skip = 0.01 * thresh
    vals = m.diagonal().copy()
    vecs = np.eye(n)
    starts, stops = _diagonal_blocks(m)
    sizes = stops - starts
    spans = []
    for size in sorted(set(sizes[sizes > 1].tolist())):
        at = starts[sizes == size, None] + np.arange(size)  # (blocks, size) indices
        left = _closed_forms(m, at, thresh, vals, vecs)
        spans += [(lo, lo + size) for lo in left.tolist()]
    spans.sort()
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
    return EigenDecomposition(vals, vecs, len(spans), sweeps)


def _closed_forms(
    m: np.ndarray, at: np.ndarray, thresh: float, vals: np.ndarray, vecs: np.ndarray
) -> np.ndarray:
    """Answer the diagonal blocks of m on the (k, n) indices at, all of one
    size n, in closed form where certified, writing their eigenpairs into
    vals and vecs; return the starts of the blocks left uncertified.

    The k blocks are stacked, and each candidate is built and checked for
    the whole stack at once. A block is certified when a candidate leaves
    every entry of B V - V diag(lambda) within thresh. Near the threshold an
    inexact candidate can pass, so each block first tries the one that is
    exact for its shape: _two_level_candidates when its tail is diagonal, as
    an arrow-head's is, _theta_candidates otherwise. It tries the other one
    only when the first is not certified."""
    flat = (at * m.shape[0])[:, :, None] + at[:, None, :]  # entries of each block in m.flat
    stack = m.take(flat)
    arrow = ~(stack[:, 1:, 1:] * (1.0 - np.eye(at.shape[1] - 1))).any(axis=(1, 2))
    left = []
    with np.errstate(all="ignore"):  # blocks outside a family may give inf or NaN
        for idx, *candidates in (
            (np.flatnonzero(arrow), _two_level_candidates, _theta_candidates),
            (np.flatnonzero(~arrow), _theta_candidates, _two_level_candidates),
        ):
            for candidate in candidates:
                if not idx.size:
                    break
                b = stack[idx]
                cand_vals, cand_vecs = candidate(b)
                resid = b @ cand_vecs - cand_vecs * cand_vals[:, None, :]
                good = np.abs(resid).max(axis=(1, 2)) <= thresh
                done = idx[good]
                vals[at[done]] = cand_vals[good]
                vecs.reshape(-1)[flat[done]] = cand_vecs[good]  # vecs is contiguous: a view
                idx = idx[~good]
            left.append(idx)
    return at[np.concatenate(left), 0]


def _two_level_eigensystem(head, rho, u: np.ndarray, along, rest) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a symmetric B with B[0, 0] = head and first row
    B[0, 1:] = rho * u (rho > 0, u a unit vector), whose tail block maps u to
    along * u and acts as rest on the complement of u. Works on one block
    (scalars and u of shape (n - 1,)) or on a stack of k blocks (columns of
    shape (k, 1) and u of shape (k, n - 1)).

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
    lead, n = u.shape[:-1], u.shape[-1] + 1
    t, c, s = _jacobi_rotation(head, rho, along)
    vals = np.empty(lead + (n,))
    vals[..., :1], vals[..., 1:n - 1], vals[..., n - 1:] = head - t * rho, rest, along + t * rho
    vecs = np.zeros(lead + (n, n))
    vecs[..., :1, 0], vecs[..., 1:, 0] = c, -s * u
    w = u.copy()
    w[..., 0] -= 1.0
    vecs[..., 1:, 1:n - 1] = _reflectors(w)[..., 1:]
    vecs[..., :1, n - 1], vecs[..., 1:, n - 1] = s, c * u
    return vals, vecs


def _two_level_candidates(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_two_level_eigensystem read off each block of a (k, n, n) stack: its
    tail taken to act as u^T T u on the direction u of the first row and as
    the mean of the rest of its trace on the complement."""
    n = b.shape[1]
    row, tail = b[:, :1, 1:], b[:, 1:, 1:]  # row as a (k, 1, n - 1) stack
    rho = np.sqrt(row @ row.transpose(0, 2, 1))[:, 0]
    u = row[:, 0] / rho
    along = (u[:, None] @ tail @ u[:, :, None])[:, 0]
    rest = (np.trace(tail, axis1=1, axis2=2)[:, None] - along) / max(n - 2, 1)  # unused at n = 2
    return _two_level_eigensystem(b[:, :1, 0], rho, u, along, rest)


def _theta_candidates(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of each block of a (k, n, n) stack read as a theta-block
    nu nu^T + bump sum_{j in P} e_j e_j^T, P a subset of the tail.

    nu = B[0, :] / sqrt(B[0, 0]); the bump is the entry of the diagonal of
    B - nu nu^T largest in magnitude, and P holds the tail entries nearer to
    it than to zero. Write nu = nu_P + nu_Q by support. The eigenvalue is bump
    on the complement of nu_P inside the P coordinates and zero on the
    complement of nu_Q inside the others, each one Householder reflector; on
    span(nu_P, nu_Q), B is [[|nu_P|^2 + bump, |nu_P| |nu_Q|],
    [|nu_P| |nu_Q|, |nu_Q|^2]] and one Jacobi rotation diagonalizes it
    (Sim & Zhao 2007).
    """
    k, n = b.shape[:2]
    blk = np.arange(k)
    nu = b[:, 0] / np.sqrt(b[:, :1, 0])
    resid = np.diagonal(b, axis1=1, axis2=2) - nu * nu
    resid[:, 0] = 0.0
    mag = np.abs(resid)
    bump = resid[blk, mag.argmax(axis=1), None]
    on = np.abs(resid - bump) < mag  # P; never the head
    dirs = np.where(np.stack((on, ~on), axis=1), nu[:, None, :], 0.0)  # nu_P and nu_Q
    sq = (dirs * dirs).sum(axis=2)
    lens = np.sqrt(sq)
    dirs /= lens[:, :, None]
    pivot = on.argmax(axis=1)  # first index of P
    # The reflectors exchanging nu_P with e_pivot and nu_Q with e_1 act on
    # disjoint coordinates, so their product is I - 2 W^T W for the rows of W
    # normalized (a row within 1e-15 of zero is dropped).
    w = dirs.copy()
    w[blk, 0, pivot] -= 1.0
    w[:, 1, 0] -= 1.0
    size = np.sqrt((w * w).sum(axis=2, keepdims=True))
    w = np.where(size > 1e-15, w / size, 0.0)
    vecs = np.eye(n) - 2.0 * (w.transpose(0, 2, 1) @ w)
    app, apq, aqq = sq[:, :1] + bump, lens[:, :1] * lens[:, 1:], sq[:, 1:]
    t, c, s = _jacobi_rotation(app, apq, aqq)
    vals = np.where(on, bump, 0.0)
    vals[blk, pivot], vals[:, :1] = (app - t * apq)[:, 0], aqq + t * apq
    p, q = dirs[:, 0], dirs[:, 1]
    vecs[blk, :, pivot], vecs[:, :, 0] = c * p - s * q, s * p + c * q
    return vals, vecs


def _reflectors(w: np.ndarray) -> np.ndarray:
    """I - 2 w w^T / (w^T w) for each vector w along the last axis, or I where
    w^T w <= 1e-30. For w = d - e_p with d a unit vector, the reflector
    exchanges d and e_p, and its columns other than p span the complement of
    d on the support of w."""
    wtw = (w[..., None, :] @ w[..., :, None])[..., 0, 0]
    scale = 2.0 / np.maximum(wtw, 1e-30) * (wtw > 1e-30)
    return np.eye(w.shape[-1]) - scale[..., None, None] * (w[..., :, None] * w[..., None, :])


def _diagonal_blocks(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Starts and stops of the smallest contiguous diagonal blocks holding
    every nonzero of the symmetric m: a block ends at row i when no row up to
    i reaches a column beyond i."""
    idx = np.arange(m.shape[0])
    last = ((m != 0.0) * idx).max(axis=1)  # last nonzero column of each row, 0 if none
    ends = np.flatnonzero(np.maximum.accumulate(np.maximum(last, idx)) == idx) + 1
    return np.concatenate(([0], ends[:-1])), ends


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
    taking the smaller angle; the diagonal becomes app - t apq, aqq + t apq.
    Elementwise on arrays."""
    tau = (aqq - app) / (2.0 * apq)
    # the sign of tau, and +1 at tau = +-0 (equal diagonals): adding +0.0 clears a sign bit of zero
    t = np.copysign(1.0, tau + 0.0) / (np.abs(tau) + np.hypot(1.0, tau))
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


def _psd_within(a: SymMatrix, tol: float) -> bool:
    """Whether a passes the PSD gate with band tol: True when a certificate
    proves lambda_min(a) >= -tol, else psd_status(a, tol) is not INDEFINITE.

    The certificate works on the diagonal blocks eigh finds (_diagonal_blocks),
    so a is exactly their direct sum. A 1 x 1 block is its eigenvalue and is
    compared directly. The blocks B of each size n >= 2 are stacked, and
    B + sigma I is factored by one batched np.linalg.cholesky, with
    sigma = (tol - c d) / (1 + c), d the group's largest diagonal entry
    (0 if negative), u the unit roundoff, g = gamma_{n+1} = (n+1) u / (1 - (n+1) u)
    and c = n g (1 + u) / (1 - g) + 5 u.

    Why success proves lambda_min(B) >= -tol: the factored matrix is
    A = B + sigma I + E, E diagonal with |E_ii| <= u (d + sigma) for the
    rounding of the shift (a diagonal below -sigma makes a pivot <= 0, and the
    factorization fails). If Cholesky runs to completion on a symmetric A, in
    any summation order, its computed factor R has R^T R = A + dA with
    |dA| <= g |R^T| |R| (Higham 2002, Thm 10.3), so
    ||dA||_2 <= g ||R||_F^2 = g tr(A + dA) <= g tr(A) / (1 - g)
    <= n g (1 + u) (d + sigma) / (1 - g). R^T R is PSD, so by Weyl
    lambda_min(B) >= -sigma - ||E||_2 - ||dA||_2 >= -sigma - (c - 4u)(d + sigma),
    and the 4 u left over covers the rounding of sigma's own formula for any
    c < 0.3 (n < 10^7), so this is >= -tol.

    When sigma <= 0 (d too large for tol to leave room) or a factorization
    fails, the certificate says nothing, and eigh decides as psd_status
    does. So the gate never passes a matrix with lambda_min < -tol, and
    differs from psd_status only on a matrix whose lambda_min lies within
    eigh's rounding of -tol, in the certified direction."""
    m = a.a
    starts, stops = _diagonal_blocks(m)
    sizes = stops - starts
    diag = m.diagonal()
    u = _UNIT_ROUNDOFF
    for n in sorted(set(sizes.tolist())):
        at = starts[sizes == n, None] + np.arange(n)  # (blocks, n) indices
        if n == 1:
            certified = float(diag[at].min()) >= -tol
        else:
            g = (n + 1) * u / (1.0 - (n + 1) * u)
            c = n * g * (1.0 + u) / (1.0 - g) + 5.0 * u
            sigma = (tol - c * max(float(diag[at].max()), 0.0)) / (1.0 + c)
            certified = sigma > 0.0
            if certified:
                stack = m.take((at * m.shape[0])[:, :, None] + at[:, None, :])
                idx = np.arange(n)
                stack[:, idx, idx] += sigma
                try:
                    np.linalg.cholesky(stack)
                except np.linalg.LinAlgError:
                    certified = False
        if not certified:
            return psd_status(a, tol) is not PsdStatus.INDEFINITE
    return True


def numeric_rank(a: SymMatrix, tol: float = DEFAULT_TOL) -> int:
    """Count of eigenvalues with |lambda| > tol * max(1, |lambda|_max)."""
    return eigh(a, tol).rank(tol)


def orthonormal_complement(vectors: np.ndarray, dim: int) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of the given columns in R^dim.

    Columns are assumed orthonormal (within roundoff); the complement is the
    trailing dim - k columns of the complete Householder QR of the k columns,
    which is deterministic.
    """
    (vectors,) = _checked((vectors,), ((None, None),), "vectors")
    dim = _checked_int(dim, "dim", 0)
    if vectors.shape[0] != dim:
        raise DimensionMismatch(f"vectors has {vectors.shape[0]} rows, expected dim {dim}")
    k = vectors.shape[1]
    if k == 0:
        return np.eye(dim)
    if k >= dim:
        return np.zeros((dim, 0))
    q, _ = np.linalg.qr(vectors, mode="complete")
    return q[:, k:]
