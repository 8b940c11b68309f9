"""Projections onto closed convex sets and proximal machinery.

Cones over a symmetric-matrix space act on the vectorized (:func:`svec`)
coordinates, which preserve the trace inner product, so every projection and
proximal map below takes and returns 1-d arrays.

The conjugate-side maps come from the Moreau identity

    x = Prox_{t f}(x) + t Prox_{f*/t}(x / t),

so ``Prox_{f*/t}(x) = x - Prox_{t f}(t x) / t``.
"""

from __future__ import annotations

import math
from itertools import accumulate

import numpy as np

from .blocklinalg import all_finite, shallow_copy, smat, svec, svec_dim
from .errors import DimensionMismatch, NonFiniteData

_PSD_EIG_TOL = 1e-10

# numpy's LAPACK gufuncs for the lower triangle and the error hook that
# np.linalg.eigh and eigvalsh install around them (private names, resolved
# once; without them the public wrappers run, to the same bytes)
try:
    from numpy.linalg import _umath_linalg
    try:
        from numpy.linalg._linalg import (
            _raise_linalgerror_eigenvalues_nonconvergence as _EIG_FAILED)
    except ImportError:                 # numpy < 2
        from numpy.linalg.linalg import (
            _raise_linalgerror_eigenvalues_nonconvergence as _EIG_FAILED)
    _EIGH_LO = _umath_linalg.eigh_lo
    _EIGVALSH_LO = _umath_linalg.eigvalsh_lo
except (ImportError, AttributeError):
    _EIGH_LO = _EIGVALSH_LO = None


def _eigh(a):
    """``np.linalg.eigh(a)`` of a real float64 stack ``a``, called as that
    wrapper calls LAPACK."""
    if _EIGH_LO is None:
        return np.linalg.eigh(a)
    with np.errstate(call=_EIG_FAILED, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        return _EIGH_LO(a, signature="d->dd")


def _eigvalsh(a):
    """``np.linalg.eigvalsh(a)`` of a real float64 stack ``a``, as
    :func:`_eigh`."""
    if _EIGVALSH_LO is None:
        return np.linalg.eigvalsh(a)
    with np.errstate(call=_EIG_FAILED, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        return _EIGVALSH_LO(a, signature="d->d")


# ---------------------------------------------------------------------------
# cones
# ---------------------------------------------------------------------------

class Cone:
    """Closed convex set with a computable projection and support function."""

    dim = 0  # length of the vectorized representation
    # whether the set is a cone, Pi_K(s x) = s Pi_K(x) for every s > 0; a
    # set that does not say so is taken not to be one
    homogeneous = False

    def project(self, x):
        raise NotImplementedError

    def support(self, w, feas_tol):
        """Support function delta*_K(w), with a relative feasibility clamp for
        the indicator cases (slight violations count as 0)."""
        raise NotImplementedError


class FreeSpace(Cone):
    homogeneous = True

    def __init__(self, n):
        self.dim = int(n)

    def project(self, x):
        return np.asarray(x, dtype=np.float64)

    def support(self, w, feas_tol):
        w = np.asarray(w)
        if np.linalg.norm(w) <= feas_tol * (1.0 + np.linalg.norm(w)):
            return 0.0
        return np.inf


class NonnegOrthant(Cone):
    homogeneous = True

    def __init__(self, n):
        self.dim = int(n)

    def project(self, x):
        return np.maximum(np.asarray(x, dtype=np.float64), 0.0)

    def support(self, w, feas_tol):
        w = np.asarray(w)
        if w.size == 0 or np.max(w) <= feas_tol * (1.0 + np.linalg.norm(w)):
            return 0.0
        return np.inf


class Box(Cone):
    """Box with elementwise bounds; ``-inf`` / ``inf`` are allowed, NaN is not."""

    def __init__(self, lower, upper):
        lower = np.asarray(lower, dtype=np.float64)
        upper = np.asarray(upper, dtype=np.float64)
        if lower.shape != upper.shape:
            raise DimensionMismatch("box bounds must have equal length")
        if np.isnan(lower).any() or np.isnan(upper).any():
            raise NonFiniteData("NaN in box bounds")
        if np.any(lower > upper):
            raise DimensionMismatch("box requires lower <= upper elementwise")
        self.lower = lower
        self.upper = upper
        self.dim = lower.size

    def project(self, x):
        return np.clip(np.asarray(x, dtype=np.float64), self.lower, self.upper)

    def support(self, w, feas_tol):
        w = np.asarray(w, dtype=np.float64)
        return self._support(w, feas_tol * (1.0 + np.linalg.norm(w)))

    def _support(self, w, tol):
        """Support value, violations up to ``tol`` (scalar or per coordinate) clamped."""
        pos = np.maximum(w, 0.0)
        neg = np.minimum(w, 0.0)
        # an infinite bound contributes only when the matching coefficient is
        # genuinely nonzero
        if np.any((pos > tol) & np.isinf(self.upper)):
            return np.inf
        if np.any((neg < -tol) & np.isinf(self.lower)):
            return np.inf
        val = 0.0
        fin_u = np.isfinite(self.upper)
        fin_l = np.isfinite(self.lower)
        val += float(self.upper[fin_u] @ pos[fin_u])
        val += float(self.lower[fin_l] @ neg[fin_l])
        return val


class PsdCone(Cone):
    """Positive semidefinite matrices of order ``d`` in svec coordinates, or
    the product of ``k`` of them over concatenated svec blocks, projected by
    one batched eigendecomposition of a ``(k, d, d)`` stack."""

    homogeneous = True

    def __init__(self, d, k=1):
        self.d = int(d)
        self.k = int(k)
        self.dim = self.k * svec_dim(self.d)

    def project(self, x):
        vals, vecs = _eigh(smat(x.reshape(self.k, -1), self.d))
        np.maximum(vals, 0.0, out=vals)
        return svec((vecs * vals[:, None, :]) @ vecs.swapaxes(1, 2)).ravel()

    def support(self, w, feas_tol):
        """Clamped per block: 0 when every lam_max(w_j) <= feas_tol (1 + ||w_j||)."""
        w = np.reshape(np.asarray(w, dtype=np.float64), (self.k, -1))
        lam_max = _eigvalsh(smat(w, self.d))[:, -1]
        if np.all(lam_max <= feas_tol * (1.0 + np.linalg.norm(w, axis=1))):
            return 0.0
        return np.inf


class NonnegSymMatrices(Cone):
    """Entrywise nonnegative symmetric matrices of order ``d``.

    Entrywise clipping commutes with the positive svec scaling, so both the
    projection and the support test reduce to the orthant ones on the
    vectorized coordinates.
    """

    homogeneous = True

    def __init__(self, d):
        self.d = int(d)
        self.dim = svec_dim(self.d)

    def project(self, x):
        return np.maximum(np.asarray(x, dtype=np.float64), 0.0)

    def support(self, w, feas_tol):
        w = np.asarray(w)
        if np.max(w) <= feas_tol * (1.0 + np.linalg.norm(w)):
            return 0.0
        return np.inf


def project_cone(cone, x):
    x = np.asarray(x, dtype=np.float64)
    if x.size != cone.dim:
        raise DimensionMismatch(
            "point of length %d does not match cone dim %d" % (x.size, cone.dim))
    return cone.project(x)


# ---------------------------------------------------------------------------
# separable convex functions
# ---------------------------------------------------------------------------

class SeparableFunction:
    """Proper closed convex function with computable prox and conjugate."""

    dim = 0

    def value(self, x):
        """Smooth part of the function value (indicators report 0; feasibility
        lives with the cone residues)."""
        raise NotImplementedError

    def prox(self, t, x):
        raise NotImplementedError

    def conjugate(self, w, feas_tol):
        raise NotImplementedError

    @property
    def is_zero(self):
        return False


class Zero(SeparableFunction):
    def __init__(self, n):
        self.dim = int(n)

    def value(self, x):
        return 0.0

    def prox(self, t, x):
        return np.asarray(x, dtype=np.float64)

    def conjugate(self, w, feas_tol):
        w = np.asarray(w)
        if np.linalg.norm(w) <= feas_tol:
            return 0.0
        return np.inf

    @property
    def is_zero(self):
        return True


class DiagQuadratic(SeparableFunction):
    """f(x) = (1/2) <x, diag(q) x> with q >= 0 and finite elementwise."""

    def __init__(self, diag):
        diag = np.asarray(diag, dtype=np.float64)
        if not np.isfinite(diag).all():
            raise NonFiniteData("NaN or Inf in diagonal quadratic")
        if (diag < 0).any():
            raise DimensionMismatch("diagonal quadratic requires q >= 0")
        self.diag = diag
        self.dim = diag.size
        # without a zero on the diagonal the conjugate needs no masks
        self.has_zero = bool((diag == 0.0).any())

    def value(self, x):
        return 0.5 * float(self.diag @ (np.asarray(x) ** 2))

    def prox(self, t, x):
        return np.asarray(x, dtype=np.float64) / (1.0 + t * self.diag)

    def conjugate(self, w, feas_tol):
        w = np.asarray(w, dtype=np.float64)
        if not self.has_zero:
            return 0.5 * float(np.sum(w ** 2 / self.diag))
        zero = self.diag == 0.0
        if np.any(np.abs(w[zero]) > feas_tol):
            return np.inf
        pos = ~zero
        return 0.5 * float(np.sum(w[pos] ** 2 / self.diag[pos]))


class DenseQuadratic(SeparableFunction):
    """f(x) = (1/2) <x, Q x> with Q symmetric positive semidefinite.

    The constructor symmetrizes ``Q`` and keeps its eigendecomposition
    ``Q = V diag(lam) V^T``, which gives the PSD check, the prox at every
    ``t`` and the conjugate; nothing is cached or written afterwards."""

    def __init__(self, Q):
        Q = np.asarray(Q, dtype=np.float64)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise DimensionMismatch("dense quadratic requires a square Q")
        if not all_finite(Q):
            raise NonFiniteData("NaN or Inf in dense quadratic Q")
        self.Q = 0.5 * (Q + Q.T)
        self.dim = Q.shape[0]
        self.lam, self.V = np.linalg.eigh(self.Q)
        if self.dim and float(self.lam[0]) < -_PSD_EIG_TOL:
            raise DimensionMismatch("dense quadratic requires Q >= 0")
        # eigenvalues at or below 1e-12 max(1, lam_max) count as zero
        self.on_range = self.lam > 1e-12 * np.max(self.lam, initial=1.0)

    def value(self, x):
        x = np.asarray(x)
        return 0.5 * float(x @ (self.Q @ x))

    def prox(self, t, x):
        """V ((V^T x) / (1 + t lam)), the solution u of (I + t Q) u = x."""
        return self.V @ ((self.V.T @ x) / (1.0 + t * self.lam))

    def conjugate(self, w, feas_tol):
        """(1/2) w^T Q^+ w on the range of Q; ``inf`` when the part of ``w``
        off the range exceeds the relative feasibility clamp."""
        w = np.asarray(w, dtype=np.float64)
        coef = self.V.T @ w
        keep = self.on_range
        if np.linalg.norm(coef[~keep]) > feas_tol * (1.0 + np.linalg.norm(w)):
            return np.inf
        return 0.5 * float(np.sum(coef[keep] ** 2 / self.lam[keep]))


class IndicatorCone(SeparableFunction):
    def __init__(self, cone):
        self.cone = cone
        self.dim = cone.dim

    def value(self, x):
        return 0.0

    def prox(self, t, x):
        return self.cone.project(x)

    def conjugate(self, w, feas_tol):
        return self.cone.support(w, feas_tol)


# ---------------------------------------------------------------------------
# block-separable products over concatenated blocks
# ---------------------------------------------------------------------------

def _kind(block):
    """Grouping key of a block cone or function; None keeps it alone."""
    if isinstance(block, PsdCone):
        return (PsdCone, block.d)
    if isinstance(block, NonnegSymMatrices):
        return NonnegOrthant              # entrywise clip either way
    kinds = (NonnegOrthant, FreeSpace, Box, Zero, DiagQuadratic, IndicatorCone)
    return next((k for k in kinds if isinstance(block, k)), None)


def _merge(kind, blocks):
    """One cone or function over the concatenation of ``blocks``."""
    if kind is Box:
        return Box(np.concatenate([c.lower for c in blocks]),
                   np.concatenate([c.upper for c in blocks]))
    if kind is DiagQuadratic:
        return DiagQuadratic(np.concatenate([f.diag for f in blocks]))
    if kind is IndicatorCone:
        return IndicatorCone(BlockCone([f.cone for f in blocks]))
    if kind in (NonnegOrthant, FreeSpace, Zero):
        return kind(sum(b.dim for b in blocks))
    return PsdCone(kind[1], sum(c.k for c in blocks))


def _group(blocks):
    """``(part, where, starts)`` per kind, ordered by first block: the merged
    blocks (a lone block, or one of no kind, as it is), their coordinates (a
    slice when contiguous) and each block's offset within them.  Empty blocks
    add nothing to any map, value, support or conjugate and are left out."""
    members = {}
    lo = 0
    for i, blk in enumerate(blocks):
        if blk.dim:
            members.setdefault(_kind(blk) or i, []).append((lo, blk))
        lo += blk.dim
    groups = []
    for kind, spans in members.items():
        parts = [blk for _, blk in spans]
        if all(a + b.dim == c for (a, b), (c, _) in zip(spans, spans[1:])):
            where = slice(spans[0][0], spans[-1][0] + parts[-1].dim)
        else:
            where = np.concatenate([np.arange(a, a + b.dim) for a, b in spans])
        starts = np.array(list(accumulate((b.dim for b in parts[:-1]), initial=0)))
        groups.append((_merge(kind, parts) if len(parts) > 1 else parts[0],
                       where, starts))
    return groups


def _blockwise_clamp(part, w, starts, feas_tol):
    """Support or conjugate of a group at ``w`` with each block's feasibility
    clamp measured on that block alone."""
    if not isinstance(part, (NonnegOrthant, FreeSpace, Box, Zero)):
        # PsdCone, DiagQuadratic and BlockCone parts clamp per block themselves
        return conjugate_value(part, w, feas_tol)
    if isinstance(part, NonnegOrthant) and w.max() <= feas_tol:
        # every block's clamp is at least feas_tol (a NaN fails this test)
        return 0.0
    norms = np.sqrt(np.add.reduceat(w * w, starts))
    tol = feas_tol if isinstance(part, Zero) else feas_tol * (1.0 + norms)
    if isinstance(part, Box):
        return part._support(w, np.repeat(tol, np.diff(starts, append=w.size)))
    peak = np.maximum.reduceat(w, starts) if isinstance(part, NonnegOrthant) else norms
    return 0.0 if np.all(peak <= tol) else np.inf


class _Blocks:
    """Blocks over concatenated coordinates, grouped by :func:`_group`; a
    single group covering every coordinate is called directly."""

    def __init__(self, blocks):
        self.blocks = list(blocks)
        self.dim = sum(b.dim for b in self.blocks)
        self.groups = _group(self.blocks)
        self._whole = next((p for p, _, _ in self.groups if p.dim == self.dim), None)

    def _map(self, method, x, *args):
        """``part.method(*args, x_part)`` on every group, reassembled."""
        if self._whole is not None:
            return getattr(self._whole, method)(*args, x)
        x = np.asarray(x, dtype=np.float64)
        out = np.empty_like(x)
        for part, where, _ in self.groups:
            out[where] = getattr(part, method)(*args, x[where])
        return out

    def _clamped_sum(self, w, feas_tol):
        w = np.asarray(w, dtype=np.float64)
        vals = [_blockwise_clamp(part, w[where], starts, feas_tol)
                for part, where, starts in self.groups]
        return sum(vals, 0.0) if all(map(math.isfinite, vals)) else np.inf


class BlockCone(_Blocks, Cone):
    """The product of block cones over their concatenated coordinates: blocks
    of one elementwise kind merge into one cone, PSD blocks of one order into
    one batched :class:`PsdCone`, and any other block is called on its own.
    It is a cone (``homogeneous``) when every group is."""

    def __init__(self, blocks):
        super().__init__(blocks)
        self.homogeneous = all(p.homogeneous for p, _, _ in self.groups)

    def project(self, x):
        return self._map("project", x)

    def support(self, w, feas_tol):
        return self._clamped_sum(w, feas_tol)


class BlockFunction(_Blocks, SeparableFunction):
    """The sum of block functions over their concatenated coordinates,
    grouped as :class:`BlockCone` groups cones (indicator blocks merge into
    one indicator of a :class:`BlockCone`).  ``is_zero`` is read from the
    blocks once, at construction (a plain attribute shadowing the base
    class's property)."""

    is_zero = False

    def __init__(self, blocks):
        super().__init__(blocks)
        self.is_zero = all(f.is_zero for f in self.blocks)

    def value(self, x):
        x = np.asarray(x, dtype=np.float64)
        return sum([part.value(x[where]) for part, where, _ in self.groups], 0.0)

    def prox(self, t, x):
        return self._map("prox", x, t)

    def conjugate(self, w, feas_tol):
        return self._clamped_sum(w, feas_tol)

    def scaled_head(self, n, alpha):
        """This function with its blocks on the first ``n`` coordinates
        replaced by their :func:`scale_function` by ``alpha > 0``; a block
        must start at ``n``.  Nothing is regrouped: a merged
        :class:`DiagQuadratic` scales its diagonal on those coordinates,
        so the cost is one pass over the groups, not over the blocks."""
        head, dim = 0, 0
        while dim < n:
            dim += self.blocks[head].dim
            head += 1
        if dim != n:
            raise DimensionMismatch("no block starts at coordinate %d" % n)
        out = shallow_copy(self)
        scaled = {id(f): scale_function(f, alpha) for f in self.blocks[:head]}
        out.blocks = [scaled[id(f)] for f in self.blocks[:head]] + \
            self.blocks[head:]
        out.groups = []
        for part, where, starts in self.groups:
            contiguous = isinstance(where, slice)
            first = where.start if contiguous else where[0]
            if first < n and isinstance(part, DiagQuadratic):
                # a nonnegative diagonal times alpha > 0 stays one
                diag = part.diag.copy()
                diag[slice(n - first) if contiguous else where < n] *= alpha
                part = DiagQuadratic(diag)
            elif first < n:
                # a merged Zero, or a lone head block (of no merged kind)
                part = (scaled[id(part)] if id(part) in scaled
                        else scale_function(part, alpha))
            out.groups.append((part, where, starts))
        out._whole = next((p for p, _, _ in out.groups if p.dim == out.dim),
                          None)
        return out


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------

def prox(f, t, x):
    """Prox_{t f}(x) for t > 0."""
    if t <= 0:
        raise DimensionMismatch("prox parameter must be positive")
    x = np.asarray(x, dtype=np.float64)
    if x.size != f.dim:
        raise DimensionMismatch(
            "point of length %d does not match function dim %d" % (x.size, f.dim))
    return f.prox(t, x)


def prox_conjugate(f, t, x):
    """Prox_{f*/t}(x) via the Moreau identity."""
    x = np.asarray(x, dtype=np.float64)
    return x - prox(f, t, t * x) / t


def quadratic_diag(f):
    """The diagonal ``q`` of ``f = (1/2) <x, diag(q) x>`` when ``f`` is a
    :class:`DiagQuadratic` or a :class:`BlockFunction` whose blocks merge
    into one; ``None`` otherwise."""
    if isinstance(f, BlockFunction):
        f = f._whole
    return f.diag if isinstance(f, DiagQuadratic) else None


def conjugate_value(f, w, feas_tol=1e-8):
    """f*(w), with indicator conjugates clamped to 0 for violations within
    ``feas_tol`` (relative).  Returns ``inf`` beyond the clamp."""
    w = np.asarray(w, dtype=np.float64)
    if isinstance(f, Cone):
        return f.support(w, feas_tol)
    return f.conjugate(w, feas_tol)


def scale_function(f, alpha):
    """The function alpha * f for alpha > 0 (indicators are invariant), a
    :class:`BlockFunction` block by block."""
    if alpha <= 0:
        raise DimensionMismatch("scale must be positive")
    if isinstance(f, Zero) or isinstance(f, IndicatorCone):
        return f
    if isinstance(f, BlockFunction):
        return BlockFunction([scale_function(b, alpha) for b in f.blocks])
    if isinstance(f, DiagQuadratic):
        return DiagQuadratic(alpha * f.diag)
    if isinstance(f, DenseQuadratic):
        return DenseQuadratic(alpha * f.Q)
    raise DimensionMismatch("cannot scale function of type %s" % type(f).__name__)


def add_diag_quadratic(f, eps):
    """The function f + (eps/2)||.||^2 for the quadratic extension."""
    if eps == 0.0:
        return f
    if isinstance(f, Zero):
        return DiagQuadratic(np.full(f.dim, eps))
    if isinstance(f, DiagQuadratic):
        return DiagQuadratic(f.diag + eps)
    if isinstance(f, DenseQuadratic):
        return DenseQuadratic(f.Q + eps * np.eye(f.dim))
    raise DimensionMismatch(
        "cannot add a quadratic term to %s" % type(f).__name__)
