"""Progressive hedging baseline operating on the primal problem.

Each outer iteration solves the N penalized scenario subproblems as one
bundled problem (one warm-started ADMM solve, one setup), averages the
bundle's first-stage copies into the consensus point, and updates the
nonanticipativity multipliers.  Stopping follows the scenario-splitting
convention: consensus feasibility plus relative iterate change, not the
full KKT system; the KKT residue of the averaged point is still measured
and logged for honest comparison with the KKT-based solvers.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ._blas import one_blas_thread
from .blocklinalg import _norm
from .errors import ParameterError, SubproblemFailure
from .model import (DBAProblem, DualPoint, PrimalPoint, ScenarioBlock,
                    dual_objective, joint_dual_sums, kkt_full, kkt_residues,
                    primal_objective, residue_denominators, validate)
from .proxcone import (BlockCone, BlockFunction, add_diag_quadratic,
                       scale_function)
from .solvers import (SolveReport, SolverConfig, TAU_ADMM_MAX, _real,
                      admm_solve, default_sigma0, solve_setup)

PHA_LOG_COLUMNS = ("k", "eta_P", "eta_D", "eta_K", "eta_theta", "eta_Pbar",
                   "eta_Dbar", "eta_Kbar", "eta_thetabar", "eta", "eta_gap",
                   "sigma", "obj_P", "obj_D", "inner_iters",
                   "nonant_residual", "rel_change")

# subsolves end at tolerance _SUB_FACTOR * tol_nonant, each capped at
# _SUB_MAX_ITER iterations
_SUB_FACTOR = 0.1
_SUB_MAX_ITER = 100000
# the bundle solves run the classic relaxed multiplier step: warm-started
# from the previous outer iteration they end in a few iterations, and the
# Halpern step took more of them and more outer iterations
_SUB_TAU = 1.618


@dataclass
class PhaConfig:
    rho: float | None = None           # defaults to the sigma0 heuristic
    tau: float = 1.618
    tol_nonant: float = 1e-6
    tol_rel: float = 1e-6
    max_iter: int = 300
    # ignored: the scenarios are solved as one bundle, with BLAS on one
    # thread (see ``_blas``); kept because the benchmark workloads pass
    # threads=1
    threads: int | None = None

    def __post_init__(self):
        # counts are integers and the other fields real numbers, so a field
        # of another type is refused here, not by the loop's arithmetic
        if self.rho is not None and not (_real(self.rho)
                                         and 0.0 < self.rho < np.inf):
            raise ParameterError("rho must be positive and finite")
        if not (_real(self.tau) and 0.0 < self.tau < TAU_ADMM_MAX):
            raise ParameterError("PHA step length must lie in (0, (1+sqrt(5))/2)")
        if not (isinstance(self.max_iter, numbers.Integral)
                and self.max_iter >= 0):
            raise ParameterError("max_iter must be a nonnegative integer")
        # a comparison with NaN is false, so these refuse NaN as well
        for name in ("tol_nonant", "tol_rel"):
            if not (_real(getattr(self, name)) and getattr(self, name) > 0.0):
                raise ParameterError("%s must be positive" % name)


def _bundle(problem, rho):
    """The N penalized scenario subproblems as one problem.  Its first
    stage holds one copy of x per scenario, each with ``A x_i = b``, the
    cone and ``theta + rho/2 ||.||^2``; scenario i keeps its blocks and its
    objective with the probability p_i removed, with ``B_i`` on the
    columns of copy i.  The copies' columns are disjoint, so ``A A*`` and
    M are block diagonal and every step of the bundle's ADMM splits
    scenario by scenario; the scenarios share only sigma and the stopping
    test."""
    N, n0 = problem.N, problem.n0
    blocks = []
    for i, (p, s) in enumerate(zip(problem.meta["probabilities"],
                                   problem.scenarios)):
        B = sp.csr_matrix(s.B)
        B = sp.csr_matrix((B.data, B.indices + i * n0, B.indptr),
                          shape=(s.m, N * n0))
        blocks.append(ScenarioBlock(B, s.Bbar, s.bbar, s.cbar / p, s.cone,
                                    scale_function(s.theta, 1.0 / p)))
    A = b = None
    if problem.A is not None:
        A = sp.kron(sp.identity(N, format="csr"), problem.A, format="csr")
        b = np.tile(problem.b, N)
    theta = add_diag_quadratic(problem.theta, rho)
    return DBAProblem(A, b, np.tile(problem.c, N),
                      BlockCone([problem.cone] * N),
                      BlockFunction([theta] * N), blocks)


def scenario_subsolve(bundle, w, xhat, rho, tol, warm=None, setup=None):
    """Solve the scenario subproblems of :func:`_bundle` ``bundle``, which
    is not modified, with cost c + w[i] - rho * xhat on copy i (the
    multiplier and proximal terms) for the (N, n0) multipliers ``w``.

    The bundle's residues are norms over all scenarios, so it is solved to
    ``tol / sqrt(N)``: that bounds each scenario's own relative residue by
    ``tol`` on the tiled rows ``A x_i = b``, and on the others when the
    scenarios' data have comparable norms.  The solve starts from report
    ``warm``; ``setup`` is ``solve_setup`` of the bundle, built here when
    not given.
    """
    tol = tol / np.sqrt(len(w))
    cfg = SolverConfig(tau=_SUB_TAU, tol_kkt=tol, tol_gap=max(tol, 1e-9),
                       max_iter=_SUB_MAX_ITER)
    c = bundle.c.reshape(w.shape) + w - rho * xhat
    report = admm_solve(bundle.with_cost(c.ravel()), cfg, initial=warm,
                        setup=setup)
    if not report.converged:
        raise SubproblemFailure(
            "scenario subproblems did not converge (status %s)"
            % report.status)
    return report


@one_blas_thread
def pha_solve(problem, config=None):
    """Progressive hedging on a two-stage problem with known probabilities."""
    if "probabilities" not in problem.meta:
        raise SubproblemFailure(
            "progressive hedging needs scenario probabilities; build the "
            "problem with build_two_stage")
    cfg = config or PhaConfig()
    t0 = time.perf_counter()
    if cfg.rho is None:     # the default reads c and cbar: check them first
        validate(problem, rank_check=False)
    rho = cfg.rho if cfg.rho is not None else default_sigma0(problem)
    N, n0 = problem.N, problem.n0
    probs = np.asarray(problem.meta["probabilities"], dtype=np.float64)

    # the bundle, its setup (built at the first subsolve) and the last
    # bundle report, which warm-starts the next subsolve
    bundle = _bundle(problem, rho)
    setup = rep = None
    w = np.zeros((N, n0))               # multipliers, sum_i p_i w_i = 0
    xhat = np.zeros(n0)                 # consensus

    sub_tol_final = _SUB_FACTOR * cfg.tol_nonant
    # the scales of the averaged point's residues and the probabilities
    # per scenario row and column depend on the data only
    denoms = residue_denominators(problem)
    weights = (np.repeat(probs, problem.m_i), np.repeat(probs, problem.n_i))
    log_rows = []
    status = "MaxIter"
    k = 0
    nonant = rel_change = np.inf
    for k in range(cfg.max_iter):
        # warm-started subsolves tighten with the consensus residual and
        # always end at the configured subproblem tolerance
        sub_tol = max(sub_tol_final, min(1e-3, 0.1 * nonant))
        if setup is None:
            setup = solve_setup(bundle, SolverConfig())
        rep = scenario_subsolve(bundle, w, xhat, rho, sub_tol, warm=rep,
                                setup=setup)

        X = rep.primal.x.reshape(N, n0)
        xhat_prev = xhat
        xhat = probs @ X
        D = X - xhat
        w = _multiplier_step(w, D, cfg.tau * rho)
        assert _norm(probs @ w) <= 1e-12 * (1.0 + _max_row_norm(w)), \
            "multiplier mean drifted"
        nonant, rel_change = _consensus_residues(D, xhat, xhat_prev)

        primal = PrimalPoint(xhat, rep.primal.xbar)
        dual, sums = _averaged_dual(problem, probs, weights, rep)
        res, obj_p, obj_d = kkt_full(problem, primal.xx, dual, denoms=denoms,
                                     sums=sums)
        log_rows.append((k, res.eta_P, res.eta_D, res.eta_K, res.eta_theta,
                         res.eta_Pbar, res.eta_Dbar, res.eta_Kbar,
                         res.eta_thetabar, res.eta, res.eta_gap, rho, obj_p,
                         obj_d, rep.iterations, nonant, rel_change))

        if (nonant <= cfg.tol_nonant and rel_change <= cfg.tol_rel
                and sub_tol == sub_tol_final):
            status = "Converged"
            k += 1
            break
    else:
        k = cfg.max_iter

    if not log_rows:
        primal = PrimalPoint(xhat, [np.zeros(n) for n in problem.n_i])
        dual = _averaged_dual(problem, probs, weights, rep)[0]
        res = kkt_residues(problem, primal, dual)
        obj_p = primal_objective(problem, primal)
        obj_d = dual_objective(problem, dual)
    return SolveReport(
        status=status, iterations=k, kkt=res, obj_p=obj_p, obj_d=obj_d,
        primal=primal, dual=dual, sigma=rho,
        elapsed=time.perf_counter() - t0, log_rows=log_rows,
        extra={"nonant_residual": nonant, "rel_change": rel_change,
               "strategy": None if setup is None else setup.msolver.strategy},
    )


def _multiplier_step(w, D, step):
    """The multipliers ``w + step (X - xhat)`` for ``D = X - xhat``; their
    probability-weighted mean stays 0."""
    return w + step * D


def _consensus_residues(D, xhat, xhat_prev):
    """``(nonant, rel_change)``: the largest ``||x_i - xhat||`` (the rows of
    ``D``) and ``||xhat - xhat_prev||``, each over ``1 + ||xhat||``."""
    scale = 1.0 + _norm(xhat)
    return _max_row_norm(D) / scale, _norm(xhat - xhat_prev) / scale


def _max_row_norm(X):
    """The largest Euclidean norm of a row of the C-contiguous 2-d array
    ``X``: ``np.max(np.linalg.norm(X, axis=1))`` bit for bit, which sums
    the squares of each row by one reduction along it.  The square root is
    monotone, so it is taken of the largest sum only."""
    return math.sqrt(np.add.reduce(X * X, axis=1).max())


def _averaged_dual(problem, probs, weights, rep):
    """Dual candidate at the averaged point, assembled from the
    probability-scaled duals of the bundle report ``rep`` (zero before the
    first subsolve), and its :func:`~dbasolve.model.joint_dual_sums`.

    Scenario multipliers scale by p_i (the subproblems carry unweighted
    costs), ``weights`` holding p_i repeated over the rows and over the
    columns of scenario i; v and vbar are then defined through the dual
    constraints so the remaining error shows up in the prox and cone
    residues.  The sums are the ones at ``vv = 0`` plus ``vv``, which is
    how :func:`~dbasolve.model.joint_dual_sums` adds them.
    """
    if rep is None:
        y, z = np.zeros(problem.m0), np.zeros(problem.n0)
        ybar, zbar = np.zeros(problem.mbar), np.zeros(problem.nbar)
    else:
        d = rep.dual
        y = probs @ d.y.reshape(problem.N, problem.m0)
        z = probs @ d.z.reshape(problem.N, problem.n0)
        ybar = weights[0] * d.ybar
        zbar = weights[1] * d.zbar
    zz = np.concatenate((z, zbar))
    S0 = joint_dual_sums(problem, y, ybar, zz, 0.0)
    vv = problem.cc - S0
    S0 += vv
    return DualPoint(y=y, ybar=ybar, z=z, zbar=zbar, v=vv[:problem.n0],
                     vbar=vv[problem.n0:]), S0
