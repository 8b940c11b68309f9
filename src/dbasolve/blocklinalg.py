"""Block-structured linear algebra.

Matrices are plain ``numpy.ndarray`` (dense) or ``scipy.sparse.csr_matrix``
(sparse, canonical form: duplicates summed, indices sorted).  Variables living
in a symmetric-matrix space are handled in vectorized form through
:func:`svec` / :func:`smat`, which preserve the trace inner product, so every
linear map in the package is an ordinary matrix acting on vectors.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvec as _csr_matvec

from .errors import Breakdown, DimensionMismatch, NotPositiveDefinite

# Sparse matrices denser than this are stored dense (Schur complements and
# SMW intermediates densify anyway).
DENSE_FALLBACK_DENSITY = 0.25

_CHOL_PIVOT_RTOL = 1e-13
_SPLU_DIM_CUTOFF = 4000
_F64 = np.dtype(np.float64)


# ---------------------------------------------------------------------------
# construction and canonical forms
# ---------------------------------------------------------------------------

def sparse_from_triplets(shape, rows, cols, vals):
    """Build a canonical CSR matrix from triplet data.

    Duplicate (row, col) entries are summed.  The result has sorted indices
    and no duplicates, so two structurally identical matrices compare equal
    entry by entry.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals, dtype=np.float64)
    if not (rows.shape == cols.shape == vals.shape):
        raise DimensionMismatch("triplet arrays must have equal length")
    m, n = shape
    if rows.size and (rows.min() < 0 or rows.max() >= m or cols.min() < 0 or cols.max() >= n):
        raise DimensionMismatch("triplet index out of range for shape %s" % (shape,))
    mat = sp.coo_matrix((vals, (rows, cols)), shape=shape).tocsr()
    mat.sum_duplicates()
    mat.sort_indices()
    return mat


def canonicalize(mat):
    """Return ``mat`` as a canonical CSR matrix (dense input left dense).
    A float64 CSR matrix already in canonical form is returned as it is;
    any other input is copied first, so the caller's arrays are not
    reordered or summed in place."""
    if isinstance(mat, np.ndarray):
        return mat
    if (type(mat) is sp.csr_matrix and mat.dtype == _F64
            and mat.has_canonical_format):
        return mat
    out = sp.csr_matrix(mat, copy=True)
    out.sum_duplicates()
    out.sort_indices()
    return out


def shallow_copy(obj):
    """A new instance of ``obj``'s class sharing its attributes: what
    ``copy.copy`` makes of a plain object, without its reduce protocol,
    which costs several times as much."""
    out = object.__new__(type(obj))
    out.__dict__.update(obj.__dict__)
    return out


def as_csr(mat):
    """``mat`` as a canonical CSR matrix: a sparse one through
    :func:`canonicalize`, a dense one built straight from its nonzero
    entries, row by row in column order.  Those are the arrays SciPy's
    own conversion gives, without its COO detour, which costs about as
    much as a product of the small matrices it is used on."""
    if not isinstance(mat, np.ndarray):
        return canonicalize(sp.csr_matrix(mat))
    nz = mat != 0
    indptr = np.zeros(mat.shape[0] + 1, dtype=np.int32)
    np.cumsum(np.count_nonzero(nz, axis=1), out=indptr[1:])
    indices = np.nonzero(nz)[1].astype(np.int32)
    return sp.csr_matrix((mat[nz], indices, indptr), shape=mat.shape)


def density(mat):
    if isinstance(mat, np.ndarray):
        return 1.0
    size = mat.shape[0] * mat.shape[1]
    return mat.nnz / size if size else 0.0


def to_dense(mat):
    return mat if isinstance(mat, np.ndarray) else np.asarray(mat.todense())


def all_finite(mat):
    """True when every stored entry of a dense or sparse matrix is finite."""
    data = mat.data if sp.issparse(mat) else mat
    return bool(np.isfinite(data).all())


def maybe_densify(mat):
    """Apply the density fallback rule: dense storage above 25% fill."""
    if sp.issparse(mat) and density(mat) > DENSE_FALLBACK_DENSITY:
        return to_dense(mat)
    return mat


def mv(op, x, out=None):
    """Matrix-vector product returning a 1-d ndarray for dense or sparse op;
    with ``out``, a contiguous float64 vector of the result's length, it is
    written there (by the same product or kernel, or copied) and ``out``
    is returned.

    A float64 CSR matrix times a float64 vector of matching length is one
    call of the kernel that ``op @ x`` ends in, on the same zero-filled
    output, so the result is bit-identical; calling it directly skips
    SciPy's operator dispatch, which costs about as much as the product on
    scenario-sized operators.  The kernel does not check bounds, so the
    length check guards it.  A plain 2-d ndarray times a 1-d ndarray is
    ``op @ x`` itself, already a 1-d ndarray.  Any other input goes through
    ``np.asarray(op @ x).ravel()``."""
    if type(x) is np.ndarray:
        if type(op) is np.ndarray and op.ndim == 2 and x.ndim == 1:
            return op @ x if out is None else np.matmul(op, x, out=out)
        if type(op) is sp.csr_matrix:
            m, n = op.shape
            if x.shape == (n,) and x.dtype == _F64 and op.data.dtype == _F64:
                if out is None:
                    out = np.zeros(m)
                else:
                    out.fill(0.0)
                _csr_matvec(m, n, op.indptr, op.indices, op.data, x, out)
                return out
    if out is None:
        return np.asarray(op @ x).ravel()
    out[...] = np.asarray(op @ x).ravel()
    return out


def _norm(v):
    """Euclidean norm of a contiguous 1-d float64 array: the
    ``sqrt(v.dot(v))`` that ``np.linalg.norm`` evaluates for one, bit for
    bit, without its argument handling.  (On a strided view the dot
    product may sum in another order than on ``np.linalg.norm``'s
    contiguous copy.)"""
    return math.sqrt(v.dot(v))


def transposed(mat):
    """Materialized transpose (sparse transposes are views; hot loops need
    the CSR copy built once)."""
    if mat is None:
        return None
    if isinstance(mat, np.ndarray):
        return np.ascontiguousarray(mat.T)
    return mat.T.tocsr()


def column_sq_norms(mat):
    """Squared Euclidean column norms of a dense or CSR matrix, for CSR by
    one ``np.bincount`` over the stored entries."""
    if isinstance(mat, np.ndarray):
        return np.einsum("ij,ij->j", mat, mat)
    nnz = mat.indptr[-1]
    return np.bincount(mat.indices[:nnz], weights=mat.data[:nnz] ** 2,
                       minlength=mat.shape[1])


def scale_leading(mat, n, alpha, axis):
    """A copy of the dense or CSR matrix ``mat`` with its first ``n``
    columns (``axis=1``) or rows (``axis=0``) times ``alpha``.  A CSR copy
    gets new entries, one pass over them, and shares its index arrays
    with ``mat`` (nothing writes to those in place)."""
    if isinstance(mat, np.ndarray):
        out = mat.copy()
        if axis:
            out[:, :n] *= alpha
        else:
            out[:n] *= alpha
        return out
    out = shallow_copy(mat)
    if axis:
        out.data = mat.data * np.where(mat.indices < n, alpha, 1.0)
    else:
        out.data = mat.data.copy()
        out.data[:mat.indptr[n]] *= alpha
    return out


def scaled(mat, alpha):
    """``alpha mat`` for a dense or CSR matrix; a CSR result shares its
    index arrays with ``mat``, as in :func:`scale_leading`."""
    if isinstance(mat, np.ndarray):
        return alpha * mat
    out = shallow_copy(mat)
    out.data = alpha * mat.data
    return out


_MATVEC_DENSE_SIZE = 16384


def compact_for_matvec(mat):
    """Per-call dispatch overhead dwarfs the arithmetic on tiny sparse
    blocks; store those dense for the matvec path."""
    if mat is None or isinstance(mat, np.ndarray):
        return mat
    m, n = mat.shape
    if m * n <= _MATVEC_DENSE_SIZE or density(mat) > DENSE_FALLBACK_DENSITY:
        return to_dense(mat)
    return mat


# ---------------------------------------------------------------------------
# symmetric-matrix vectorization
# ---------------------------------------------------------------------------

_SQRT2 = np.sqrt(2.0)


def svec_dim(d):
    return d * (d + 1) // 2


@functools.lru_cache(maxsize=None)
def svec_indices(d, lower=False):
    """Row-major upper-triangle (``lower``: lower-triangle) index pair
    arrays for dimension ``d``; cached per ``d`` and read-only."""
    pair = np.tril_indices(d) if lower else np.triu_indices(d)
    for idx in pair:
        idx.flags.writeable = False
    return pair


@functools.lru_cache(maxsize=None)
def svec_maps(d):
    """Gather maps for :func:`svec` / :func:`smat` of order ``d``; cached
    per ``d`` and read-only.

    Returns ``(flat, scale, gather, gscale)``: ``flat`` holds the row-major
    flat indices of the upper triangle of a ``d x d`` matrix and ``scale``
    the svec factor of each (1 on the diagonal, sqrt(2) off it); for each of
    the ``d * d`` entries, ``gather`` holds its svec position and ``gscale``
    the factor its svec entry is divided by.  Scaling by exactly 1 leaves
    the diagonal untouched, so both maps reproduce masked scaling bit for
    bit."""
    iu, ju = svec_indices(d)
    flat = iu * d + ju
    scale = np.where(iu == ju, 1.0, _SQRT2)
    pos = np.empty((d, d), dtype=np.intp)
    pos[iu, ju] = np.arange(iu.size)
    pos[ju, iu] = pos[iu, ju]
    gather = pos.ravel()
    gscale = scale[gather]
    maps = (flat, scale, gather, gscale)
    for arr in maps:
        arr.flags.writeable = False
    return maps


def svec(x):
    """Vectorize a symmetric matrix (or a stack of them): upper triangle,
    off-diagonals scaled by sqrt(2) so ``svec(x) @ svec(y) == trace(x @ y)``."""
    if type(x) is not np.ndarray or x.dtype != _F64:
        x = np.asarray(x, dtype=np.float64)
    d = x.shape[-1]
    flat, scale, _, _ = svec_maps(d)
    out = x.reshape(x.shape[:-2] + (d * d,)).take(flat, axis=-1)
    out *= scale
    return out


def smat(v, d):
    """Inverse of :func:`svec`, stacks included."""
    if type(v) is not np.ndarray or v.dtype != _F64:
        v = np.asarray(v, dtype=np.float64)
    if v.shape[-1:] != (svec_dim(d),):
        raise DimensionMismatch("svec length %d does not match dimension %d" % (v.size, d))
    _, _, gather, gscale = svec_maps(d)
    out = v.take(gather, axis=-1)
    out /= gscale
    return out.reshape(v.shape[:-1] + (d, d))


# ---------------------------------------------------------------------------
# block operators
# ---------------------------------------------------------------------------

class StackedOp:
    """Vertical stack [B_1; ...; B_N] of maps sharing one domain."""

    def __init__(self, blocks):
        blocks = [canonicalize(b) for b in blocks]
        if not blocks:
            raise DimensionMismatch("StackedOp needs at least one block")
        n = blocks[0].shape[1]
        for k, blk in enumerate(blocks):
            if blk.shape[1] != n:
                raise DimensionMismatch(
                    "block %d has %d columns, expected %d" % (k, blk.shape[1], n))
        self.blocks = blocks
        self.n = n
        self.row_sizes = [b.shape[0] for b in blocks]
        self.m = sum(self.row_sizes)
        self.offsets = np.concatenate(([0], np.cumsum(self.row_sizes)))
        # the blocks assembled into one matrix: an apply is one mat-vec
        stack = sp.vstack([sp.csr_matrix(b) for b in blocks]).tocsr()
        self._assembled = compact_for_matvec(stack)
        self._assembled_t = transposed(self._assembled)

    def all_finite(self):
        """True when every block entry is finite (one check, not one per
        block)."""
        return all_finite(self._assembled)

    @property
    def matrix(self):
        """[B_1; ...; B_N] as one dense or CSR matrix."""
        return self._assembled

    def apply(self, x):
        return mv(self._assembled, x)

    def apply_adjoint(self, ybar):
        return mv(self._assembled_t, ybar)

    def scaled(self, alpha):
        """The stack ``alpha [B_1; ...; B_N]``: the assembled operator and
        its transpose times ``alpha``, one pass over the entries of each.
        The per-block list is not rebuilt, so ``blocks`` is ``None``."""
        out = shallow_copy(self)
        out._assembled = scaled(self._assembled, alpha)
        out._assembled_t = scaled(self._assembled_t, alpha)
        out.blocks = None
        return out


class BlockDiagOp:
    """Block diagonal operator diag(Bbar_1, ..., Bbar_N)."""

    def __init__(self, blocks):
        blocks = [canonicalize(b) for b in blocks]
        if not blocks:
            raise DimensionMismatch("BlockDiagOp needs at least one block")
        self.blocks = blocks
        self.row_sizes = [b.shape[0] for b in blocks]
        self.col_sizes = [b.shape[1] for b in blocks]
        self.m = sum(self.row_sizes)
        self.n = sum(self.col_sizes)
        self.row_offsets = np.concatenate(([0], np.cumsum(self.row_sizes)))
        self.col_offsets = np.concatenate(([0], np.cumsum(self.col_sizes)))
        self._assembled = compact_for_matvec(self._assemble(blocks))
        self._assembled_t = transposed(self._assembled)

    def _assemble(self, blocks):
        """The canonical CSR diag(blocks): the blocks' own CSR arrays
        concatenated, column indices shifted by the block's column offset
        and row pointers by the entries before it (explicit zeros kept).
        ``blocks`` are :func:`canonicalize` d: dense or canonical CSR."""
        parts = [b if sp.issparse(b) else sp.csr_matrix(b) for b in blocks]
        nnz = np.cumsum([0] + [p.nnz for p in parts])
        indptr = np.concatenate(
            [p.indptr[:-1] + k for p, k in zip(parts, nnz)] + [nnz[-1:]])
        indices = np.concatenate(
            [p.indices + k for p, k in zip(parts, self.col_offsets)])
        data = np.concatenate([p.data for p in parts])
        return sp.csr_matrix((data, indices, indptr), shape=(self.m, self.n))

    def all_finite(self):
        """True when every block entry is finite."""
        return all_finite(self._assembled)

    @property
    def matrix(self):
        """diag(Bbar_1, ..., Bbar_N) as one dense or CSR matrix."""
        return self._assembled

    def apply(self, xbar):
        return mv(self._assembled, xbar)

    def apply_adjoint(self, ybar):
        return mv(self._assembled_t, ybar)

    def gram(self):
        """diag(Bbar_i Bbar_i^T) as one CSR product of the canonical
        assembled operator with its stored transpose.  SciPy sums each entry
        over the row's stored columns in order, so block i equals the CSR
        product of canonical Bbar_i with its transpose bit for bit."""
        t = self._assembled_t
        return as_csr(self._assembled) @ (
            as_csr(t) if isinstance(t, np.ndarray) else sp.csr_matrix(t))


# ---------------------------------------------------------------------------
# factorizations and iterative solves
# ---------------------------------------------------------------------------

class CholFactor:
    """Handle for solving S x = h with S symmetric positive definite.

    A dense handle checks its factor for non-finite entries once, when it is
    built, and each right-hand side on every solve; either failing raises
    ``ValueError`` at the solve, as ``scipy.linalg.cho_solve`` does.  The
    triangular solves are one LAPACK ``dpotrs`` call, the routine
    ``cho_solve`` wraps, so the results are bit-identical to it; calling it
    directly skips SciPy's batch handling, which dominates the cost of a
    solve with a small factor.
    """

    def __init__(self, kind, data, dim):
        self._kind = kind
        self._data = data
        self.dim = dim
        self._finite = kind != "dense" or all_finite(data)

    @property
    def lower(self):
        """Lower-triangular factor of a dense handle (``None`` for sparse)."""
        return self._data if self._kind == "dense" else None

    def solve(self, h):
        """S^{-1} h for a vector ``h`` or for each column of a matrix ``h``;
        ``h`` is not modified."""
        h = np.asarray(h, dtype=np.float64)
        if self._kind != "dense":
            return self._data.solve(h)
        if not (self._finite and np.isfinite(h).all()):
            raise ValueError("array must not contain infs or NaNs")
        if h.ndim not in (1, 2) or h.shape[0] != self.dim:
            raise ValueError("incompatible dimensions (%s and %s)"
                             % (self._data.shape, h.shape))
        if h.size == 0:
            return np.empty_like(h)
        # info is nonzero only for an illegal argument, excluded above
        return sla.lapack.dpotrs(self._data, h, lower=1)[0]


def chol_factor(S):
    """Factor a symmetric positive definite matrix and return a solve handle.

    Raises :class:`NotPositiveDefinite` when a pivot falls at or below
    ``1e-13 * max(diag(S))``.  Sparse inputs are densified up to a size
    cutoff; very large sparse matrices go through a sparse LU behind the
    same handle.
    """
    if sp.issparse(S) and S.shape[0] > _SPLU_DIM_CUTOFF:
        try:
            import scipy.sparse.linalg as spla

            lu = spla.splu(S.tocsc())
        except RuntimeError as exc:  # singular factorization
            raise NotPositiveDefinite(str(exc)) from exc
        if np.any(lu.U.diagonal() <= 0):
            raise NotPositiveDefinite("nonpositive pivot in sparse factorization")
        return CholFactor("splu", lu, S.shape[0])

    dense = to_dense(S)
    if dense.shape[0] != dense.shape[1]:
        raise DimensionMismatch("matrix must be square")
    max_diag = float(np.max(np.abs(np.diag(dense)))) if dense.size else 0.0
    tol = _CHOL_PIVOT_RTOL * max_diag
    try:
        low = sla.cholesky(dense, lower=True, check_finite=False)
    except sla.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc
    if dense.size and float(np.min(np.diag(low)) ** 2) <= tol:
        raise NotPositiveDefinite("pivot below tolerance %.3e" % tol)
    return CholFactor("dense", low, dense.shape[0])


def pcg_solve(apply_op, h, precond=None, tol=1e-10, maxit=500):
    """Preconditioned conjugate gradient for SPD operators.

    Parameters are callables: ``apply_op(x)`` evaluates the operator and
    ``precond(r)`` applies an approximate inverse (identity when ``None``).
    Returns ``(x, iters, relres)`` where ``relres = ||apply_op(x) - h|| / ||h||``.
    Raises :class:`Breakdown` on nonpositive curvature.
    """
    h = np.asarray(h, dtype=np.float64)
    norm_h = float(np.linalg.norm(h))
    if norm_h == 0.0:
        return np.zeros_like(h), 0, 0.0
    if precond is None:
        precond = lambda r: r

    x = np.zeros_like(h)
    r = h.copy()
    z = precond(r)
    p = z.copy()
    rz = float(r @ z)
    iters = 0
    while iters < maxit:
        if np.linalg.norm(r) <= tol * norm_h:
            # recurrence says converged; confirm with a true residual
            r_true = h - apply_op(x)
            if np.linalg.norm(r_true) <= tol * norm_h:
                break
            r = r_true
            z = precond(r)
            p = z.copy()
            rz = float(r @ z)
        ap = apply_op(p)
        curv = float(p @ ap)
        if curv <= 0.0:
            raise Breakdown("nonpositive curvature %.3e" % curv)
        alpha = rz / curv
        x += alpha * p
        r -= alpha * ap
        iters += 1
        z = precond(r)
        rz_new = float(r @ z)
        beta = rz_new / rz
        rz = rz_new
        p = z + beta * p
    relres = float(np.linalg.norm(h - apply_op(x)) / norm_h)
    return x, iters, relres


# lambda_max_bound takes the dense top eigenvalue up to this order and the
# Gershgorin bound above it: eigvalsh of order 1000 takes about 0.1 s on
# one core, and the dense copy of a larger sparse gram can outgrow memory
_EIGH_MAX_DIM = 1000


def lambda_max_bound(S):
    """Upper bound on the largest eigenvalue of the symmetric matrix ``S``
    (dense or CSR), for shifts ``lam I - S`` that must stay PSD.

    Up to order ``_EIGH_MAX_DIM`` it is the top eigenvalue from ``eigvalsh``
    raised by its backward-error margin: LAPACK's symmetric eigensolvers
    return the eigenvalues of some ``S + E`` with ``||E||_2`` at most a
    small multiple of ``n eps ||S||_2``, and by Weyl's inequality no
    eigenvalue moves by more than ``||E||_2``.  ``||S||_2`` is at most the
    Gershgorin bound ``g = max_i sum_j |S_ij|``, so the margin is
    ``4 n eps g``.  Above that order it is ``g`` itself, raised by
    ``n eps g`` for the rounding of its row sums."""
    n = S.shape[0]
    if n == 0:
        return 0.0
    eps = np.finfo(float).eps
    g = float(np.max(np.asarray(abs(S).sum(axis=1))))
    if n > _EIGH_MAX_DIM:
        return g * (1.0 + n * eps)
    return float(np.linalg.eigvalsh(to_dense(S))[-1]) + 4.0 * n * eps * g
