"""Symmetric Gauss-Seidel decomposition sweep for proximal multi-block QP.

For a PSD block operator Q = U + D + U* (D block diagonal, U strictly upper)
with positive definite diagonal blocks, one backward and one forward block
sweep computes the exact minimizer of

    p(x_1) + (1/2) <x, Q x> - <rhs, x> + (1/2) ||x - z||^2_S,   S = U D^{-1} U*,

up to a known perturbation assembled from the recorded inner-solve residuals:
the computed point minimizes the same problem with an extra linear term
``- <Delta(dp, d), x>`` where ``Delta(dp, d) = d + U D^{-1} (d - dp)``.
"""

from __future__ import annotations

import numpy as np

from .blocklinalg import chol_factor, mv, to_dense
from .errors import DimensionMismatch


class SgsBlockQ:
    """Block description of Q for :func:`sgs_sweep`.

    Parameters
    ----------
    dims : list of int
        Sizes of the s >= 2 block groups.
    blocks : dict
        Matrices ``Q[i, j]`` for ``i <= j`` (missing off-diagonals are zero).
        Diagonal blocks are required and must be positive definite.
    solvers : list or None
        Optional per-group callables ``solve(rhs, tol) -> x`` replacing the
        default Cholesky solves of the diagonal blocks (used to inject
        inexactness).  Entry 0 is unused.
    """

    def __init__(self, dims, blocks, solvers=None):
        self.s = len(dims)
        if self.s < 2:
            raise DimensionMismatch("need at least two block groups")
        self.dims = list(dims)
        self.blocks = {}
        for (i, j), mat in blocks.items():
            if i > j:
                raise DimensionMismatch("provide only blocks with i <= j")
            mat = np.asarray(to_dense(mat), dtype=np.float64)
            if mat.shape != (dims[i], dims[j]):
                raise DimensionMismatch(
                    "block (%d,%d) has shape %s, expected %s"
                    % (i, j, mat.shape, (dims[i], dims[j])))
            self.blocks[(i, j)] = mat
        for i in range(self.s):
            if (i, i) not in self.blocks:
                raise DimensionMismatch("diagonal block (%d,%d) missing" % (i, i))
        if solvers is None:
            self._solvers = [None] + [
                _factor_solver(self.blocks[(i, i)]) for i in range(1, self.s)]
        else:
            self._solvers = list(solvers)

    def diag(self, i):
        return self.blocks[(i, i)]

    def off(self, i, j):
        """Q[i, j] for i < j, or None when the block is zero."""
        return self.blocks.get((i, j))

    def solve_diag(self, i, rhs, tol):
        return self._solvers[i](rhs, tol)


def _factor_solver(mat):
    fac = chol_factor(mat)
    return lambda rhs, tol: fac.solve(rhs)


def sgs_sweep(Q, prox1, z, rhs, tol_inner=0.0):
    """One backward-forward sGS sweep.

    ``prox1(lin)`` must return the minimizer of
    ``p(x_1) + (1/2) <x_1, Q[0,0] x_1> - <lin, x_1>`` for the nonsmooth first
    group.  ``z`` and ``rhs`` are lists of per-group vectors.

    Returns ``(x_plus, delta_prime, delta)`` with the recorded residual
    vectors of the backward and forward inner solves (group 0 entries are
    zero; the first-group subproblem is solved once, exactly by contract).
    """
    s = Q.s
    if len(z) != s or len(rhs) != s:
        raise DimensionMismatch("state and rhs must have one entry per group")

    xp = [None] * s            # backward-pass points x'_i
    delta_p = [np.zeros(d) for d in Q.dims]
    delta = [np.zeros(d) for d in Q.dims]

    # backward pass: i = s-1, ..., 1 given x_j = z_j for j < i
    for i in range(s - 1, 0, -1):
        lin = rhs[i].copy()
        for j in range(i):
            blk = Q.off(j, i)
            if blk is not None:
                lin -= mv(blk.T, z[j])
        for j in range(i + 1, s):
            blk = Q.off(i, j)
            if blk is not None:
                lin -= mv(blk, xp[j])
        xi = Q.solve_diag(i, lin, tol_inner)
        delta_p[i] = mv(Q.diag(i), xi) - lin
        xp[i] = xi

    # first group: exact nonsmooth solve at the backward-pass points
    lin1 = rhs[0].copy()
    for j in range(1, s):
        blk = Q.off(0, j)
        if blk is not None:
            lin1 -= mv(blk, xp[j])
    x_plus = [None] * s
    x_plus[0] = prox1(lin1)

    # forward pass: i = 1, ..., s-1 given updated x_j for j < i
    for i in range(1, s):
        lin = rhs[i].copy()
        for j in range(i):
            blk = Q.off(j, i)
            if blk is not None:
                lin -= mv(blk.T, x_plus[j])
        for j in range(i + 1, s):
            blk = Q.off(i, j)
            if blk is not None:
                lin -= mv(blk, xp[j])
        xi = Q.solve_diag(i, lin, tol_inner)
        delta[i] = mv(Q.diag(i), xi) - lin
        x_plus[i] = xi

    return x_plus, delta_p, delta


def sgs_operator_dense(Q):
    """Dense S = U D^{-1} U* of the sweep's proximal term (for analysis)."""
    n = sum(Q.dims)
    offs = np.concatenate(([0], np.cumsum(Q.dims)))
    U = np.zeros((n, n))
    Dinv = np.zeros((n, n))
    for i in range(Q.s):
        si = slice(offs[i], offs[i + 1])
        Dinv[si, si] = np.linalg.inv(Q.diag(i))
        for j in range(i + 1, Q.s):
            blk = Q.off(i, j)
            if blk is not None:
                U[si, offs[j]:offs[j + 1]] = blk
    return U @ Dinv @ U.T


def sgs_delta(Q, delta_p, delta):
    """Delta(dp, d) = d + U D^{-1} (d - dp), stacked over groups."""
    offs = np.concatenate(([0], np.cumsum(Q.dims)))
    n = offs[-1]
    dp = np.zeros(n)
    dd = np.zeros(n)
    for i in range(Q.s):
        dp[offs[i]:offs[i + 1]] = delta_p[i]
        dd[offs[i]:offs[i + 1]] = delta[i]
    diff = dd - dp
    out = dd.copy()
    for i in range(Q.s):
        si = slice(offs[i], offs[i + 1])
        acc = np.zeros(Q.dims[i])
        for j in range(i + 1, Q.s):
            blk = Q.off(i, j)
            if blk is not None:
                acc += mv(blk, np.linalg.solve(Q.diag(j), diff[offs[j]:offs[j + 1]]))
        out[si] += acc
    return out
