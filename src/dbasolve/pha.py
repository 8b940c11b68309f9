"""Progressive hedging baseline operating on the primal problem.

Each outer iteration solves one penalized linear-quadratic subproblem per
scenario (reusing the ADMM solver, warm started), averages the first-stage
copies into the consensus point, and updates the nonanticipativity
multipliers.  Stopping follows the scenario-splitting convention: consensus
feasibility plus relative iterate change, not the full KKT system; the KKT
residue of the averaged point is still measured and logged for honest
comparison with the KKT-based solvers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .blocklinalg import mv
from .errors import ParameterError, SubproblemFailure
from .model import (DBAProblem, DualPoint, PrimalPoint, dual_objective,
                    kkt_full, kkt_residues, primal_objective)
from .proxcone import add_diag_quadratic, scale_function
from .solvers import (SolveReport, SolverConfig, TAU_ADMM_MAX, admm_solve,
                      default_sigma0, solve_setup)

PHA_LOG_COLUMNS = ("k", "eta_P", "eta_D", "eta_K", "eta_theta", "eta_Pbar",
                   "eta_Dbar", "eta_Kbar", "eta_thetabar", "eta", "eta_gap",
                   "sigma", "obj_P", "obj_D", "inner_iters",
                   "nonant_residual", "rel_change")

# subsolves end at tolerance _SUB_FACTOR * tol_nonant, each capped at
# _SUB_MAX_ITER iterations
_SUB_FACTOR = 0.1
_SUB_MAX_ITER = 100000


@dataclass
class PhaConfig:
    rho: float | None = None           # defaults to the sigma0 heuristic
    tau: float = 1.618
    tol_nonant: float = 1e-6
    tol_rel: float = 1e-6
    max_iter: int = 300
    # ignored (subsolves run in scenario order); kept because the benchmark
    # workloads pass threads=1
    threads: int | None = None

    def __post_init__(self):
        if not 0.0 < self.tau < TAU_ADMM_MAX:
            raise ParameterError("PHA step length must lie in (0, (1+sqrt(5))/2)")
        if self.max_iter < 0:
            raise ParameterError("max_iter must be nonnegative")


def _unfold_scenario(problem, i):
    """Per-scenario objective data with the probability weight removed."""
    p_i = problem.meta["probabilities"][i]
    s = problem.scenarios[i]
    return p_i, s.cbar / p_i, scale_function(s.theta, 1.0 / p_i)


def _make_subproblem(problem, i, rho):
    """Scenario subproblem template; only its cost vector changes between
    outer iterations."""
    p_i, c_tilde, theta_tilde = _unfold_scenario(problem, i)
    s = problem.scenarios[i]
    theta_aug = add_diag_quadratic(problem.theta, rho)
    block = type(s)(B=s.B, Bbar=s.Bbar, bbar=s.bbar, cbar=c_tilde,
                    cone=s.cone, theta=theta_tilde)
    return DBAProblem(problem.A, problem.b, problem.c.copy(), problem.cone,
                      theta_aug, [block])


def subproblem_setup(sub):
    """The M solver and A factor of template ``sub``, valid for all its
    subsolves: they run with the default strategy.  Validates ``sub``."""
    return solve_setup(sub, SolverConfig())


def scenario_subsolve(sub, w_i, xhat, rho, tol, warm=None, setup=None):
    """Solve one penalized scenario subproblem.

    ``sub`` is the single-scenario problem template and is not modified; the
    solve runs on a copy with the effective cost c + w_i - rho * xhat, which
    realizes the multiplier and proximal terms (the rho/2 ||x||^2 part lives
    in the template's augmented theta).  ``warm`` is the scenario's previous
    report, which the solve starts from.  ``setup`` is
    :func:`subproblem_setup` of the template, built here when not given.
    """
    cfg = SolverConfig(tol_kkt=tol, tol_gap=max(tol, 1e-9),
                       max_iter=_SUB_MAX_ITER)
    report = admm_solve(sub.with_cost(sub.c + w_i - rho * xhat), cfg,
                        initial=warm, setup=setup)
    if not report.converged:
        raise SubproblemFailure(
            "scenario subproblem did not converge (status %s)" % report.status)
    return report


def pha_solve(problem, config=None):
    """Progressive hedging on a two-stage problem with known probabilities."""
    if "probabilities" not in problem.meta:
        raise SubproblemFailure(
            "progressive hedging needs scenario probabilities; build the "
            "problem with build_two_stage")
    cfg = config or PhaConfig()
    t0 = time.perf_counter()
    rho = cfg.rho if cfg.rho is not None else default_sigma0(problem)
    N = problem.N
    probs = np.asarray(problem.meta["probabilities"], dtype=np.float64)

    # per scenario: the subproblem template, its setup (built at first use)
    # and the last subsolve report, which warm-starts the next subsolve
    subs = [_make_subproblem(problem, i, rho) for i in range(N)]
    setups = [None] * N
    reps = [None] * N
    w = np.zeros((N, problem.n0))       # multipliers, sum_i p_i w_i = 0
    xhat = np.zeros(problem.n0)         # consensus

    sub_tol_final = _SUB_FACTOR * cfg.tol_nonant
    log_rows = []
    status = "MaxIter"
    k = 0
    nonant = rel_change = np.inf
    for k in range(cfg.max_iter):
        inner = 0
        # warm-started subsolves tighten with the consensus residual and
        # always end at the configured subproblem tolerance
        sub_tol = max(sub_tol_final, min(1e-3, 0.1 * nonant))

        for i in range(N):
            if setups[i] is None:
                setups[i] = subproblem_setup(subs[i])
            try:
                reps[i] = scenario_subsolve(subs[i], w[i], xhat, rho, sub_tol,
                                            warm=reps[i], setup=setups[i])
            except SubproblemFailure as exc:
                raise SubproblemFailure("scenario %d: %s" % (i, exc)) from exc
            inner += reps[i].iterations

        x_i = [rep.primal.x for rep in reps]
        xhat_prev = xhat
        xhat = sum(p * x for p, x in zip(probs, x_i))
        w = w + cfg.tau * rho * (np.stack(x_i) - xhat)
        wmean = sum(p * w_i for p, w_i in zip(probs, w))
        assert np.linalg.norm(wmean) <= 1e-12 * (1.0 + max(
            np.linalg.norm(w_i) for w_i in w)), "multiplier mean drifted"

        nonant = max(np.linalg.norm(x - xhat) for x in x_i)
        nonant /= 1.0 + np.linalg.norm(xhat)
        rel_change = np.linalg.norm(xhat - xhat_prev) / (
            1.0 + np.linalg.norm(xhat))

        primal = PrimalPoint(xhat, [rep.primal.xbar[0] for rep in reps])
        dual = _averaged_dual(problem, probs, reps)
        res, obj_p, obj_d = kkt_full(problem, xhat, primal.stacked(), dual)
        log_rows.append((k, res.eta_P, res.eta_D, res.eta_K, res.eta_theta,
                         res.eta_Pbar, res.eta_Dbar, res.eta_Kbar,
                         res.eta_thetabar, res.eta, res.eta_gap, rho, obj_p,
                         obj_d, inner, nonant, rel_change))

        if (nonant <= cfg.tol_nonant and rel_change <= cfg.tol_rel
                and sub_tol == sub_tol_final):
            status = "Converged"
            k += 1
            break
    else:
        k = cfg.max_iter

    if not log_rows:
        primal = PrimalPoint(xhat, [np.zeros(n) for n in problem.n_i])
        dual = _averaged_dual(problem, probs, reps)
        res = kkt_residues(problem, primal, dual)
        obj_p = primal_objective(problem, primal)
        obj_d = dual_objective(problem, dual)
    return SolveReport(
        status=status, iterations=k, kkt=res, obj_p=obj_p, obj_d=obj_d,
        primal=primal, dual=dual, sigma=rho,
        elapsed=time.perf_counter() - t0, log_rows=log_rows,
        extra={"nonant_residual": nonant, "rel_change": rel_change},
    )


def _averaged_dual(problem, probs, reps):
    """Dual candidate at the averaged point, assembled from the
    probability-scaled duals of the subsolve reports ``reps`` (zero before
    the first subsolves).

    Scenario multipliers scale by p_i (the subproblems carry unweighted
    costs); v and vbar are then defined through the dual constraints so the
    remaining error shows up in the prox and cone residues.
    """
    if reps[0] is None:
        y, z = np.zeros(problem.m0), np.zeros(problem.n0)
        ybar, zbar = np.zeros(problem.mbar), np.zeros(problem.nbar)
    else:
        duals = [rep.dual for rep in reps]
        y = sum(p * d.y for p, d in zip(probs, duals))
        z = sum(p * d.z for p, d in zip(probs, duals))
        ybar = (np.repeat(probs, problem.m_i)
                * np.concatenate([d.ybar for d in duals]))
        zbar = (np.repeat(probs, problem.n_i)
                * np.concatenate([d.zbar for d in duals]))
    Aty = mv(problem.A_T, y) if problem.A is not None else 0.0
    v = problem.c - Aty - problem.B.apply_adjoint(ybar) - z
    vbar = problem.cbar - problem.Bbar.apply_adjoint(ybar) - zbar
    return DualPoint(y=y, ybar=ybar, z=z, zbar=zbar, v=v, vbar=vbar)
