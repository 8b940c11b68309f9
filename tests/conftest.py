"""Shared toy problems and independent oracles used across the test suite."""

import itertools

import numpy as np
import pytest
import scipy.sparse as sp

import dbasolve.msolver as msolver
import dbasolve.solvers as solvers
from dbasolve.blocklinalg import canonicalize
from dbasolve.builders import ScenarioData, build_two_stage
from dbasolve.model import DBAProblem, ScenarioBlock
from dbasolve.proxcone import (DenseQuadratic, FreeSpace, NonnegOrthant, Zero)


def same_canonical(a, b):
    """Exact structural and numerical equality of two matrices in canonical
    form: both dense, or both sparse with equal CSR arrays."""
    if sp.issparse(a) != sp.issparse(b) or a.shape != b.shape:
        return False
    if not sp.issparse(a):
        return np.array_equal(a, b)
    a, b = canonicalize(a), canonicalize(b)
    return all(np.array_equal(getattr(a, k), getattr(b, k))
               for k in ("indptr", "indices", "data"))


def bbar_gram_factors(problem, requirement, max_cond=np.inf):
    """``(groups, lows)``: the scenarios grouped by row count and, per group,
    the (n_g, m, m) stack of lower Cholesky factors of Bbar_i Bbar_i^T,
    each of 1-norm condition at most ``max_cond``; with
    :func:`inverse_csr` an oracle for the block-diagonal D^{-1}."""
    groups = msolver._size_groups(problem)
    grams = msolver._block_stacks(problem, problem.Bbar.gram(), groups)
    what = requirement + " Bbar_{i} Bbar_{i}^T"
    if max_cond < np.inf:
        # the build's check, which raises naming the first failing block
        msolver._checked_inverses(grams, groups, max_cond, what)
    return groups, msolver._factor_blocks(grams, groups, what)


def inverse_csr(problem, groups, lows):
    """blockdiag(L_i^{-T} L_i^{-1}), the inverse of blockdiag(L_i L_i^T), as
    one CSR matrix, from the per-group stacks of lower factors L_i (as
    :func:`bbar_gram_factors` returns them)."""
    return msolver._block_diag_csr(
        problem, groups, [msolver._gram_inverses(low) for low in lows])


def exactly_positive_definite(A):
    """Whether the symmetric matrix ``A`` of Fractions is positive definite:
    Gaussian elimination without pivoting, whose pivots are the ratios of
    its leading principal minors, meets only positive ones."""
    A = [row[:] for row in A]
    for k in range(len(A)):
        if A[k][k] <= 0:
            return False
        for i in range(k + 1, len(A)):
            f = A[i][k] / A[k][k]
            for j in range(k, len(A)):
                A[i][j] -= f * A[k][j]
    return True


def make_two_scenario_lp(seed=3):
    """2-scenario LP toy (total dim 8) built through the two-stage builder so
    probabilities are available for scenario splitting."""
    rng = np.random.default_rng(seed)
    n0 = 2
    A = np.array([[1.0, 1.0]])
    b = np.array([1.0])
    c = np.array([1.0, 2.0])
    scens = []
    for _ in range(2):
        B = rng.uniform(0, 1, (2, n0))
        Bbar = np.hstack([rng.uniform(0.5, 1.5, (2, 1)), np.eye(2)])
        x0 = rng.uniform(0.1, 1, n0)
        xb0 = rng.uniform(0.1, 1, 3)
        bbar = B @ x0 + Bbar @ xb0
        ct = rng.uniform(0.5, 2.0, 3)
        scens.append(ScenarioData(probability=0.5, c_tilde=ct, b_tilde=bbar,
                                  B_tilde=B, Bbar_tilde=Bbar,
                                  cone=NonnegOrthant(3), theta=Zero(3)))
    return build_two_stage(A, b, c, NonnegOrthant(n0), Zero(n0), scens)


def make_free_qp(seed=5, n0=3, ni=4, N=2):
    """Strongly convex QP with free sets; optimum available by a dense KKT
    solve (see :func:`qp_kkt_solve`)."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(2, n0))
    b = rng.normal(size=2)
    c = rng.normal(size=n0)
    M = rng.normal(size=(n0, n0))
    Q = M @ M.T + np.eye(n0)
    scen = []
    for _ in range(N):
        B = rng.normal(size=(2, n0))
        Bbar = rng.normal(size=(2, ni))
        M = rng.normal(size=(ni, ni))
        Qi = M @ M.T + np.eye(ni)
        scen.append(ScenarioBlock(B, Bbar, rng.normal(size=2),
                                  rng.normal(size=ni), FreeSpace(ni),
                                  DenseQuadratic(Qi)))
    return DBAProblem(A, b, c, FreeSpace(n0), DenseQuadratic(Q), scen)


def lp_standard_form(problem):
    """Stack a pure-LP block-angular problem into min cost@u, E u = f, u >= 0."""
    n0 = problem.n0
    ncols = n0 + problem.nbar
    nrows = problem.m0 + problem.mbar
    E = np.zeros((nrows, ncols))
    if problem.A is not None:
        E[:problem.m0, :n0] = np.asarray(
            problem.A.todense() if hasattr(problem.A, "todense") else problem.A)
    r = problem.m0
    col = n0
    for s in problem.scenarios:
        Bd = np.asarray(s.B.todense() if hasattr(s.B, "todense") else s.B)
        Bbd = np.asarray(s.Bbar.todense() if hasattr(s.Bbar, "todense") else s.Bbar)
        E[r:r + s.m, :n0] = Bd
        E[r:r + s.m, col:col + s.n] = Bbd
        r += s.m
        col += s.n
    parts = [] if problem.b is None else [problem.b]
    parts += [s.bbar for s in problem.scenarios]
    f = np.concatenate(parts)
    cost = np.concatenate([problem.c] + [s.cbar for s in problem.scenarios])
    return E, f, cost


def lp_vertex_optimum(E, f, cost):
    """Brute-force basic-feasible-solution enumeration for small LPs."""
    m, n = E.shape
    best = np.inf
    arg = None
    for cols in itertools.combinations(range(n), m):
        sub = E[:, cols]
        if abs(np.linalg.det(sub)) < 1e-10:
            continue
        sol = np.linalg.solve(sub, f)
        if np.all(sol >= -1e-9):
            u = np.zeros(n)
            u[list(cols)] = sol
            val = cost @ u
            if val < best:
                best = val
                arg = u
    return best, arg


def qp_kkt_solve(problem):
    """Dense KKT solve for equality-constrained strongly convex QPs with free
    sets; returns (objective, primal_stack)."""
    import scipy.linalg as sla

    Qblocks = [problem.theta.Q] + [s.theta.Q for s in problem.scenarios]
    Qhat = sla.block_diag(*Qblocks)
    E, f, cost = lp_standard_form(problem)
    m = E.shape[0]
    KKT = np.block([[Qhat, E.T], [E, np.zeros((m, m))]])
    sol = np.linalg.solve(KKT, np.concatenate([-cost, f]))
    u = sol[:E.shape[1]]
    return 0.5 * u @ Qhat @ u + cost @ u, u


def nonneg_qp_argmin(H, lin):
    """argmin 0.5 x'Hx - lin'x over x >= 0 by active-set enumeration (small
    dims only); used as the exact first-block solver in sweep oracles."""
    n = H.shape[0]
    best = None
    best_val = np.inf
    for mask in itertools.product([0, 1], repeat=n):
        free = np.flatnonzero(mask)
        x = np.zeros(n)
        if free.size:
            try:
                x[free] = np.linalg.solve(H[np.ix_(free, free)], lin[free])
            except np.linalg.LinAlgError:
                continue
            if np.any(x[free] < -1e-12):
                continue
        grad = H @ x - lin
        if np.any(grad[np.array(mask) == 0] < -1e-9):
            continue
        val = 0.5 * x @ H @ x - lin @ x
        if val < best_val - 1e-15:
            best_val = val
            best = x
    assert best is not None
    return best


@pytest.fixture
def two_scenario_lp():
    return make_two_scenario_lp()


@pytest.fixture
def free_qp():
    return make_free_qp()


def compose_nothing(monkeypatch):
    """Make the setups built from here on compose no operator, whatever the
    size: their sweeps run the mat-vec and factor-solve path of larger
    systems."""
    monkeypatch.setattr(solvers, "_MATVEC_DENSE_SIZE", -1)
    monkeypatch.setattr(msolver, "_MATVEC_DENSE_SIZE", -1)
