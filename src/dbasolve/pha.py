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
from dataclasses import dataclass, field

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


@dataclass
class PhaState:
    probs: np.ndarray
    x_i: list                           # first-stage copies
    xbar_i: list                        # second-stage points
    w: list                             # multipliers, sum_i p_i w_i = 0
    xhat: np.ndarray                    # consensus
    sub_problems: list = field(default_factory=list)
    sub_setups: list = field(default_factory=list)     # built at first use
    sub_states: list = field(default_factory=list)
    sub_duals: list = field(default_factory=list)


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


def scenario_subsolve(sub, w_i, xhat, rho, tol, warm_state=None,
                      sigma0=None, setup=None):
    """Solve one penalized scenario subproblem.

    ``sub`` is the single-scenario problem template and is not modified; the
    solve runs on a copy with the effective cost c + w_i - rho * xhat, which
    realizes the multiplier and proximal terms (the rho/2 ||x||^2 part lives
    in the template's augmented theta).  ``setup`` is
    :func:`subproblem_setup` of the template, built here when not given.
    """
    cfg = SolverConfig(tol_kkt=tol, tol_gap=max(tol, 1e-9),
                       max_iter=_SUB_MAX_ITER, sigma0=sigma0)
    report = admm_solve(sub.with_cost(sub.c + w_i - rho * xhat), cfg,
                        initial=warm_state, setup=setup)
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

    st = PhaState(
        probs=probs,
        x_i=[np.zeros(problem.n0) for _ in range(N)],
        xbar_i=[np.zeros(n) for n in problem.n_i],
        w=[np.zeros(problem.n0) for _ in range(N)],
        xhat=np.zeros(problem.n0),
        sub_problems=[_make_subproblem(problem, i, rho) for i in range(N)],
        sub_setups=[None] * N,
        sub_states=[None] * N,
        sub_duals=[None] * N,
    )
    sub_sigmas = [None] * N

    sub_tol_final = _SUB_FACTOR * cfg.tol_nonant
    log_rows = []
    status = "MaxIter"
    res = None
    k = 0
    nonant = np.inf
    for k in range(cfg.max_iter):
        inner = 0
        # warm-started subsolves tighten with the consensus residual and
        # always end at the configured subproblem tolerance
        sub_tol = max(sub_tol_final, min(1e-3, 0.1 * nonant))

        for i in range(N):
            if st.sub_setups[i] is None:
                st.sub_setups[i] = subproblem_setup(st.sub_problems[i])
            try:
                rep = scenario_subsolve(
                    st.sub_problems[i], st.w[i], st.xhat, rho, sub_tol,
                    warm_state=st.sub_states[i], sigma0=sub_sigmas[i],
                    setup=st.sub_setups[i])
            except SubproblemFailure as exc:
                raise SubproblemFailure("scenario %d: %s" % (i, exc)) from exc
            st.x_i[i] = rep.primal.x
            st.xbar_i[i] = rep.primal.xbar[0]
            st.sub_states[i] = rep.extra["state"]
            st.sub_duals[i] = rep.dual
            sub_sigmas[i] = rep.sigma
            inner += rep.iterations

        xhat_prev = st.xhat
        st.xhat = sum(p * x for p, x in zip(probs, st.x_i))
        for i in range(N):
            st.w[i] = st.w[i] + cfg.tau * rho * (st.x_i[i] - st.xhat)
        wmean = sum(p * w for p, w in zip(probs, st.w))
        assert np.linalg.norm(wmean) <= 1e-12 * (1.0 + max(
            np.linalg.norm(w) for w in st.w)), "multiplier mean drifted"

        nonant = max(np.linalg.norm(x - st.xhat) for x in st.x_i)
        nonant /= 1.0 + np.linalg.norm(st.xhat)
        rel_change = np.linalg.norm(st.xhat - xhat_prev) / (
            1.0 + np.linalg.norm(st.xhat))

        dual = _averaged_dual(problem, st)
        res, obj_p, obj_d = kkt_full(problem, st.xhat,
                                     np.concatenate(st.xbar_i), dual)
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

    primal = PrimalPoint(st.xhat.copy(), [xb.copy() for xb in st.xbar_i])
    dual = _averaged_dual(problem, st)
    return SolveReport(
        status=status, iterations=k, kkt=kkt_residues(problem, primal, dual),
        obj_p=primal_objective(problem, primal),
        obj_d=dual_objective(problem, dual),
        primal=primal, dual=dual, sigma=rho,
        elapsed=time.perf_counter() - t0, log_rows=log_rows,
        extra={"mode": "pha", "rho": rho,
               "nonant_residual": log_rows[-1][15] if log_rows else np.inf,
               "rel_change": log_rows[-1][16] if log_rows else np.inf},
    )


def _averaged_dual(problem, st):
    """Dual candidate at the averaged point, assembled from the
    probability-scaled subproblem duals.

    Scenario multipliers scale by p_i (the subproblems carry unweighted
    costs); v and vbar are then defined through the dual constraints so the
    remaining error shows up in the prox and cone residues.
    """
    probs = st.probs
    N = problem.N
    y = np.zeros(problem.m0)
    z = np.zeros(problem.n0)
    ybar = np.zeros(problem.mbar)
    zbar = np.zeros(problem.nbar)
    have = all(d is not None for d in st.sub_duals)
    if have:
        for i, (p_i, d) in enumerate(zip(probs, st.sub_duals)):
            if problem.m0:
                y += p_i * d.y
            z += p_i * d.z
            ybar[problem.y_slice(i)] = p_i * d.ybar
            zbar[problem.x_slice(i)] = p_i * d.zbar
    Aty = mv(problem.A_T, y) if problem.A is not None else 0.0
    v = problem.c - Aty - problem.B.apply_adjoint(ybar) - z
    vbar = problem.cbar - problem.Bbar.apply_adjoint(ybar) - zbar
    return DualPoint(y=y, ybar=ybar, z=z, zbar=zbar, v=v, vbar=vbar)
