"""Main iteration loop: the two-group proximal ADMM on the dual and the
proximal ALM variant for problems without smooth objective terms, both run
by one sGS sweep engine, plus a standalone semismooth Newton solver for the
(z, y) subproblem, which the sweep does not call.  Either solver without a
set step length runs Halpern's anchored iteration with restarts on the
unit-step sweep, in the variables of the stage scale; a set step length
runs the classic relaxed multiplier step.  Without a smooth objective
(theta = 0, as in LPs and linear SDPs) the conjugate theta*(-v) is the
indicator of v = 0: ADMM's sweep is then nonsmooth -> ybar with
v = vbar = 0, one M solve an iteration, which is the full sweep in exact
arithmetic; ALM's sweep is the same either way.

The loop keeps all iterates stacked over scenarios and terminates on the
relative KKT residue together with the duality gap.
"""

from __future__ import annotations

import logging
import math
import numbers
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy.linalg.blas import daxpy

from ._blas import one_blas_thread
from .blocklinalg import (_MATVEC_DENSE_SIZE, _norm, chol_factor,
                          column_sq_norms, lambda_max_bound, maybe_densify,
                          mv, scale_leading, scaled, shallow_copy,
                          to_dense)
from .errors import (LineSearchFailure, NotPositiveDefinite, NumericalError,
                     ParameterError, UnsupportedObjective)
from .model import (DualPoint, LinearResidues, PrimalPoint, _flat,
                    dual_objective, joint_dual_sums, joint_linear_residues,
                    kkt_full, linear_dual_sums, primal_objective,
                    residue_denominators, scenario_primal_residue, validate)
from .msolver import build_msolver
from .proxcone import (BlockCone, Box, DenseQuadratic, DiagQuadratic,
                       FreeSpace, NonnegOrthant, NonnegSymMatrices, PsdCone,
                       Zero, prox_conjugate, quadratic_diag, scale_function)

# progress lines; the CLI shows them, the library attaches no handler
_LOG = logging.getLogger("dbasolve")
# one line per solve on its setup (the stage scale), kept off the progress
# lines' own logger
_SETUP_LOG = logging.getLogger("dbasolve.setup")

TAU_ADMM_MAX = (1.0 + np.sqrt(5.0)) / 2.0
TAU_ALM_MAX = 2.0

LOG_COLUMNS = ("k", "eta_P", "eta_D", "eta_K", "eta_theta", "eta_Pbar",
               "eta_Dbar", "eta_Kbar", "eta_thetabar", "eta", "eta_gap",
               "sigma", "obj_P", "obj_D", "inner_iters")

_SSN_POLYHEDRAL = (NonnegOrthant, Box, FreeSpace)
# the stage scale x = s x' maps these first-stage cones onto themselves and
# these functions onto s^2 times themselves
_SCALE_INVARIANT_CONES = (NonnegOrthant, FreeSpace, PsdCone, NonnegSymMatrices)
_QUADRATIC_FUNCTIONS = (Zero, DiagQuadratic, DenseQuadratic)
_A_FACTOR_DIM_CAP = 20000

# penalty rebalancing: checked every _SIGMA_PERIOD iterations, the interval
# growing by _SIGMA_PERIOD_GROWTH after each change
_SIGMA_PERIOD = 25
_SIGMA_PERIOD_GROWTH = 1.5
_SIGMA_FACTOR = 1.4
_SIGMA_RATIO = 5.0
_SIGMA_MIN = 1e-6
_SIGMA_MAX = 1e6
# Halpern step: restart once the fixed-point residual is at most
# _RESTART_SUFFICIENT of its value at the last restart, or at most
# _RESTART_NECESSARY of it and rising, or after _RESTART_LONG of all
# iterations; sigma moves by at most the factor _SIGMA_RESTART_CLAMP.  With
# an A block, a dual/primal residue ratio r outside [1/_SIGMA_BALANCE_BAND,
# _SIGMA_BALANCE_BAND] tilts the restart sigma by r**_SIGMA_BALANCE_POWER
_RESTART_SUFFICIENT = 0.2
_RESTART_NECESSARY = 0.8
_RESTART_LONG = 0.2
_SIGMA_RESTART_CLAMP = 1.5
_SIGMA_BALANCE_BAND = 15.0
_SIGMA_BALANCE_POWER = 0.25
# stalled once the largest linear residue has not dropped by a _STALL_REL
# fraction in _STALL_WINDOW iterations
_STALL_WINDOW = 2000
_STALL_REL = 1e-3


@dataclass
class SolverConfig:
    sigma0: float | None = None
    # None: the Halpern step at the stage scale; set: the relaxed
    # multiplier step of that length, unscaled
    tau: float | None = None
    tol_kkt: float = 1e-5
    tol_gap: float = 1e-4
    max_iter: int = 50000
    strategy: str = "auto"
    sigma_fixed: bool = False
    log_every: int = 0                  # INFO progress period; 0 disables
    # ignored: every solve runs BLAS on one thread (see ``_blas``); kept
    # because the benchmark workloads pass threads=1
    threads: int | None = None
    check_inner: bool = False           # assert recorded inner errors <= eps_k


@dataclass
class PrimalDualState:
    """The iterate: ``y``, ``ybar`` and three flat vectors over x|xbar,
    ``xx = x|xbar``, ``zz = z|zbar`` and ``vv = v|vbar``.  The blocks
    ``x``, ``xbar``, ``z``, ``zbar``, ``v`` and ``vbar`` are views into
    them: their first ``n0`` entries and the rest."""

    n0: int
    xx: np.ndarray
    y: np.ndarray
    ybar: np.ndarray
    zz: np.ndarray
    vv: np.ndarray

    x = property(lambda self: self.xx[:self.n0])
    xbar = property(lambda self: self.xx[self.n0:])
    z = property(lambda self: self.zz[:self.n0])
    zbar = property(lambda self: self.zz[self.n0:])
    v = property(lambda self: self.vv[:self.n0])
    vbar = property(lambda self: self.vv[self.n0:])


class SolveSetup:
    """The fixed cost of a solve: the M solver and the A factor (``None``
    without a first-stage block), with the composed operators ``M^{-1} W``,
    ``L`` and ``P`` of a small system, built in the variables
    ``x = scale x'`` (see :func:`stage_scale`).  ``ops`` is the problem
    with ``A``, ``B`` and the first ``n0`` columns of ``W`` times
    ``scale``, and with its transposes to match (the problem itself at
    ``scale`` 1).  All of it depends on ``A``, ``B``, ``Bbar``, the
    first-stage cone and function kinds and the config's ``strategy``
    only, so one setup serves every solve of problems sharing those,
    whatever their costs and right-hand sides: a solve takes all but the
    operators from the problem it is given (:func:`_scaled_problem`).
    ``rhs_memo`` keeps the :func:`_composed_rhs` terms that read ``b``
    and ``bbar``, with those arrays (``None`` before the first solve).
    Unpacks as ``(msolver, afactor)``."""

    __slots__ = ("msolver", "afactor", "scale", "ops", "rhs_memo")

    def __init__(self, msolver, afactor, scale, ops):
        self.msolver, self.afactor = msolver, afactor
        self.scale, self.ops = scale, ops
        self.rhs_memo = None

    def __iter__(self):
        return iter((self.msolver, self.afactor))


@dataclass
class SolveReport:
    status: str                          # Converged | MaxIter | Stalled
    iterations: int
    kkt: object
    obj_p: float
    obj_d: float
    primal: PrimalPoint
    dual: DualPoint
    sigma: float
    elapsed: float
    log_rows: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    @property
    def converged(self):
        return self.status == "Converged"


def eps_schedule(k, eps0=1e-4):
    """Summable inner-tolerance sequence eps0 / (k+1)^1.5."""
    return eps0 / (k + 1) ** 1.5


def sigma_update(residues, sigma):
    """Rebalance the penalty from the residue ratio.

    The penalty weights the dual-constraint terms of the augmented
    Lagrangian, so when the dual-side residues dominate the primal-side ones
    by more than ``_SIGMA_RATIO`` the penalty is scaled up by
    ``_SIGMA_FACTOR``; in the opposite regime it is scaled down.  Clamped to
    [_SIGMA_MIN, _SIGMA_MAX].
    """
    prim = max(residues.eta_P, residues.eta_Pbar)
    dual = max(residues.eta_D, residues.eta_Dbar)
    ratio = dual / max(prim, 1e-300)
    if ratio > _SIGMA_RATIO:
        sigma = sigma * _SIGMA_FACTOR
    elif ratio < 1.0 / _SIGMA_RATIO:
        sigma = sigma / _SIGMA_FACTOR
    return min(max(sigma, _SIGMA_MIN), _SIGMA_MAX)


def default_sigma0(problem):
    cinf = np.max(np.abs(problem.c)) if problem.c.size else 0.0
    cbinf = np.max(np.abs(problem.cbar)) if problem.cbar.size else 0.0
    return 1.0 / (1.0 + cinf + cbinf)


def zero_state(problem):
    n = problem.n0 + problem.nbar
    return PrimalDualState(problem.n0, np.zeros(n), np.zeros(problem.m0),
                           np.zeros(problem.mbar), np.zeros(n), np.zeros(n))


def _start(problem, cfg, initial, scale=1.0):
    """The loop's first state and penalty: copies of the points of report
    ``initial`` and its final sigma, or zeros and the default sigma; a set
    ``cfg.sigma0`` overrides either penalty.  ``problem`` is in the
    variables ``x = scale x'``, into which the report's point is mapped
    (``x' = x / scale``, ``z' = scale z``, ``v' = scale v``)."""
    if initial is None:
        st, sigma = zero_state(problem), default_sigma0(problem)
    else:
        p, d = initial.primal, initial.dual
        st = PrimalDualState(problem.n0, np.concatenate((p.x, *p.xbar)),
                             d.y.copy(), d.ybar.copy(),
                             np.concatenate((d.z, d.zbar)),
                             np.concatenate((d.v, d.vbar)))
        if scale != 1.0:
            st.x[:] /= scale
            st.z[:] *= scale
            st.v[:] *= scale
        sigma = initial.sigma
    return st, cfg.sigma0 if cfg.sigma0 is not None else sigma


def _unscaled(st, scale):
    """The state in the problem's own variables, ``x = scale x'``,
    ``z = z' / scale`` and ``v = v' / scale``, sharing ``y`` and ``ybar``
    with ``st``; ``st`` itself at ``scale`` 1."""
    if scale == 1.0:
        return st
    out = PrimalDualState(st.n0, st.xx.copy(), st.y, st.ybar, st.zz.copy(),
                          st.vv.copy())
    out.x[:] *= scale
    out.z[:] /= scale
    out.v[:] /= scale
    return out


class _AFactor:
    """Solver for (A A* + J) d = h with J = 0 by default; when factoring A A*
    is too large or the product is singular (rank-deficient rows), the choice
    J = lam_max(A A*) I - A A* turns the system diagonal at the cost of a
    larger proximal term.

    When ``max(n0^2, m0 n0)`` is at most ``_MATVEC_DENSE_SIZE`` it also
    keeps ``L = (A A* + J)^{-1} A`` and ``P = A* L``, dense, from one solve
    with the columns of ``A``: a sweep then applies each as one product
    (``L`` and ``P`` are ``None`` otherwise)."""

    def __init__(self, A):
        self.A = A
        AAt = A @ A.T
        self._factor = None
        self._lam = None
        if A.shape[0] <= _A_FACTOR_DIM_CAP:
            try:
                self._factor = chol_factor(maybe_densify(AAt))
            except NotPositiveDefinite:
                pass
        if self._factor is None:
            self._lam = lambda_max_bound(AAt)
        self.L = self.P = None
        m0, n0 = A.shape
        if max(n0 * n0, m0 * n0) <= _MATVEC_DENSE_SIZE:
            Ad = to_dense(A)
            self.L = self.solve(Ad)
            self.P = Ad.T @ self.L

    def solve(self, h):
        if self._factor is not None:
            return self._factor.solve(h)
        return h / self._lam


def _proj_conj(cone, sigma, u):
    """The cone step ``-Prox_{sigma^{-1} delta*_K}(u)``, by Moreau's
    identity ``Pi_K(sigma u)/sigma - u``: the form for a set that is not a
    cone (a :class:`Box`, or a :class:`BlockCone` holding one), whose
    projection does not commute with the scaling by ``sigma``."""
    return cone.project(sigma * u) / sigma - u


def _cone_conj(cone, sigma, u):
    """:func:`_proj_conj` for a cone ``K``: ``Pi_K(sigma u) = sigma
    Pi_K(u)`` makes it ``Pi_K(u) - u``, free of ``sigma``, written into
    ``u``, the caller's own (a :class:`FreeSpace` projection returns
    it)."""
    return np.subtract(cone.project(u), u, out=u)


def _orthant_conj(cone, sigma, u):
    """:func:`_cone_conj` for the nonnegative orthant, ``max(-u, 0)``,
    written into ``u``: ``Pi(u) - u`` up to the sign of a zero."""
    np.negative(u, out=u)
    return np.maximum(u, 0.0, out=u)


def _conj_step(cone):
    """The form of the cone step for ``cone``: :func:`_orthant_conj` where
    it is one orthant (a :class:`BlockCone` whose blocks all merge into
    one), :func:`_cone_conj` for any other cone and :func:`_proj_conj`
    otherwise.  :func:`_cone_plan` picks it once per solve, for the whole
    set or for each group."""
    whole = cone._whole if isinstance(cone, BlockCone) else cone
    if isinstance(whole, (NonnegOrthant, NonnegSymMatrices)):
        return _orthant_conj
    return _cone_conj if cone.homogeneous else _proj_conj


def _cone_plan(cone):
    """The cone step of the :class:`BlockCone` ``cone`` as a function of
    ``(sigma, u)`` that may overwrite ``u``, built once per solve.  Where
    :func:`_conj_step` picks :func:`_cone_conj`, each group runs its own
    form (:func:`_orthant_conj` on an orthant group), in place on its
    coordinates: a slice of ``u`` is written through, and the groups whose
    coordinates are an index array are scattered back.  Both forms a group
    can take write into their argument.  One orthant, and a set holding a
    :class:`Box`, take their form on the whole set."""
    step = _conj_step(cone)
    if step is not _cone_conj:
        return partial(step, cone)
    groups = [(_conj_step(part), part, where)
              for part, where, _ in cone.groups]

    def plan(sigma, u):
        for group_step, part, where in groups:
            if isinstance(where, slice):
                group_step(part, sigma, u[where])
            else:
                u[where] = group_step(part, sigma, u[where])
        return u
    return plan


# ---------------------------------------------------------------------------
# semismooth Newton solver for the joint (z, y) subproblem
# ---------------------------------------------------------------------------

def ssn_zy(A, b, cone, sigma, chat, y0=None, tol=1e-10, max_newton=200):
    """Solve min_y -<b,y> + sigma M_{delta*_K/sigma}(A*y - chat) by a
    semismooth Newton method, then recover z: the (z, y) subproblem of the
    sweep on a polyhedral first-stage set, solved on its own (the sweep
    takes its y -> z -> y steps instead).

    Returns ``(y, z, newton_iters)``; the gradient of the objective is
    ``-b + A Pi_K(sigma (A*y - chat))`` and the envelope value has the closed
    form ``(||w||^2 - dist(w, K)^2) / (2 sigma)`` at ``w = sigma (A*y - chat)``.
    """
    if not isinstance(cone, _SSN_POLYHEDRAL):
        raise UnsupportedObjective(
            "semismooth Newton needs a polyhedral first-stage set")
    m = A.shape[0]
    y = np.zeros(m) if y0 is None else y0.copy()
    Ad = to_dense(A)
    Adt = Ad.T

    def phi_grad(yv):
        u = Adt @ yv - chat
        w = sigma * u
        pw = cone.project(w)
        r = w - pw
        val = -float(b @ yv) + (float(w @ w) - float(r @ r)) / (2 * sigma)
        grad = -b + Ad @ pw
        return val, grad, w, pw

    val, grad, w, pw = phi_grad(y)
    gnorm = _norm(grad)
    iters = 0
    while gnorm > tol and iters < max_newton:
        mask = _jacobian_mask(cone, w)
        Am = Ad * mask[None, :]
        rho = 1e-12 * (1.0 + gnorm)
        H = sigma * (Am @ Ad.T) + rho * np.eye(m)
        d = np.linalg.solve(H, -grad)
        slope = float(grad @ d)
        if slope >= 0:
            d = -grad
            slope = -float(grad @ grad)
        step = 1.0
        for _ in range(50):
            cand = y + step * d
            trial = phi_grad(cand)
            if trial[0] <= val + 1e-4 * step * slope:
                break
            step *= 0.5
        else:
            raise LineSearchFailure("no sufficient decrease after 50 backtracks")
        # the accepted trial is the new point: no second evaluation there
        y = cand
        val, grad, w, pw = trial
        gnorm = _norm(grad)
        iters += 1
    z = pw / sigma - (w / sigma)
    return y, z, iters


def _jacobian_mask(cone, w):
    """Diagonal 0/1 generalized-Jacobian element of the projection at w."""
    if isinstance(cone, FreeSpace):
        return np.ones_like(w)
    if isinstance(cone, NonnegOrthant):
        return (w > 0).astype(float)
    return ((w > cone.lower) & (w < cone.upper)).astype(float)


# ---------------------------------------------------------------------------
# main loops
# ---------------------------------------------------------------------------

@one_blas_thread
def solve_setup(problem, cfg, scaled=False):
    """Validate ``problem`` and build its M solver and A factor under
    ``cfg``; with ``scaled``, in the variables of :func:`stage_scale`,
    which the default Halpern step runs in."""
    validate(problem, rank_check=False)
    scale = stage_scale(problem) if scaled else 1.0
    ops = problem if scale == 1.0 else _scaled_operators(problem, scale)
    return SolveSetup(build_msolver(ops, cfg.strategy),
                      _AFactor(ops.A) if ops.A is not None else None,
                      scale, ops)


def stage_scale(problem):
    """The first-stage scale ``s`` of the substitution ``x = s x'``:
    ``min(1, r^(-1/2))`` for the ratio ``r`` of the mean Euclidean column
    norm of ``[A; B]`` to the mean norm of the nonzero columns of
    ``Bbar``, read from the assembled ``W`` and ``A``.  It is 1 where the
    substitution is not written: a first-stage cone not mapped onto
    itself by a positive scalar (:class:`Box`) and a first-stage function
    other than a quadratic or zero (an :class:`IndicatorCone`)."""
    if (problem.n0 == 0
            or not all(isinstance(k, _SCALE_INVARIANT_CONES)
                       for k in _flat([problem.cone]))
            or not all(isinstance(f, _QUADRATIC_FUNCTIONS)
                       for f in _flat([problem.theta]))):
        return 1.0
    n0 = problem.n0
    cols = column_sq_norms(problem.W)
    head = cols[:n0]
    if problem.A is not None:
        head = head + column_sq_norms(problem.A_mv)
    head = np.sqrt(head).sum() / n0
    # the zero columns of Bbar add nothing to the sum of its norms
    tail = np.sqrt(cols[n0:])
    nonzero = np.count_nonzero(tail)
    if nonzero == 0 or head == 0.0:
        return 1.0
    return min(1.0, math.sqrt(tail.sum() / nonzero / head))


def _scaled_operators(problem, scale):
    """A shallow copy of ``problem`` with ``A``, ``B`` and the first ``n0``
    columns of ``W`` times ``scale`` (the transposes and ``A``'s mat-vec
    copy to match), each one pass over its entries; the per-scenario
    blocks are not rebuilt.  Costs and functions stay as they are:
    :func:`_scaled_problem` scales them per solve."""
    ops = shallow_copy(problem)
    if problem.A is not None:
        ops.A = scaled(problem.A, scale)
        # a dense A is its own mat-vec copy
        ops.A_mv = (ops.A if problem.A_mv is problem.A
                    else scaled(problem.A_mv, scale))
        ops.A_T = scaled(problem.A_T, scale)
    ops.B = problem.B.scaled(scale)
    ops.W = scale_leading(problem.W, problem.n0, scale, axis=1)
    ops.W_T = scale_leading(problem.W_T, problem.n0, scale, axis=0)
    return ops


def _scaled_problem(problem, setup):
    """``problem`` in the variables ``x = s x'`` of ``setup``: ``problem``
    with the operators that :func:`_scaled_operators` scaled for the
    setup, ``c' = s c`` and ``theta'(x') = theta(s x') = s^2 theta(x')``;
    ``problem`` itself at ``s = 1``.  Right-hand sides, ``cbar``, cones
    and scenario functions are the problem's own.  The joint function
    scales its first-stage blocks in place of a regrouping."""
    s = setup.scale
    if s == 1.0:
        return problem
    ops, work = setup.ops, shallow_copy(problem)
    work.A, work.A_mv, work.A_T = ops.A, ops.A_mv, ops.A_T
    work.B, work.W, work.W_T = ops.B, ops.W, ops.W_T
    work.c = s * problem.c
    work.cc = np.concatenate((work.c, problem.cbar))
    if not problem.theta.is_zero:
        work.theta = scale_function(problem.theta, s * s)
        work.joint_theta = problem.joint_theta.scaled_head(problem.n0, s * s)
    return work


def _real(value):
    """Whether ``value`` is a real number (a string or None is not)."""
    return isinstance(value, numbers.Real)


def _checked(config, tau_max, tau_error):
    """The config (default when None), checked; a set step length lies in
    ``(0, tau_max)``.  Counts are integers and the other fields real
    numbers, so a field of another type is refused here, not by the
    loop's arithmetic."""
    cfg = config or SolverConfig()
    if cfg.tau is not None and not (_real(cfg.tau)
                                    and 0.0 < cfg.tau < tau_max):
        raise ParameterError(tau_error)
    if cfg.sigma0 is not None and not (_real(cfg.sigma0)
                                       and 0.0 < cfg.sigma0 < np.inf):
        raise ParameterError("sigma0 must be positive and finite")
    if not (isinstance(cfg.max_iter, numbers.Integral) and cfg.max_iter >= 0):
        raise ParameterError("max_iter must be a nonnegative integer")
    # a comparison with NaN is false, so these refuse NaN as well
    for name in ("tol_kkt", "tol_gap"):
        if not (_real(getattr(cfg, name)) and getattr(cfg, name) > 0.0):
            raise ParameterError("%s must be positive" % name)
    if not (isinstance(cfg.log_every, numbers.Integral)
            and cfg.log_every >= 0):
        raise ParameterError("log_every must be a nonnegative integer")
    return cfg


@one_blas_thread
def admm_solve(problem, config=None, initial=None, setup=None):
    """Two-group inexact sGS proximal ADMM on the dual problem.

    Without a set ``config.tau`` each iteration is a Halpern step with
    restarts on the unit-step sweep (:class:`_Halpern`), run in the
    first-stage variable ``x' = x / s`` of :func:`stage_scale` and stopped
    on the problem's own residues; a set ``tau`` runs the relaxed
    multiplier step of that length instead, unscaled.

    Without a smooth objective (``problem.joint_theta.is_zero``) each
    sweep solves for ybar once and keeps v|vbar = 0.

    ``initial`` is a :class:`SolveReport` of a problem with the same
    dimensions: the solve starts from its points, with v|vbar = 0 when
    theta is, and, unless ``config.sigma0`` is set, its final sigma.
    ``setup`` is a :class:`SolveSetup` from :func:`solve_setup` for a
    problem with the same ``A``, ``B`` and ``Bbar`` and a config with the
    same ``strategy``, and the solve runs at its scale; without one it is
    built here (scaled under the Halpern step), which validates the
    problem.  A given setup skips that check: the problem differs from the
    one it was built for in costs and right-hand sides at most, and
    :meth:`~dbasolve.model.DBAProblem.with_cost` checks a new cost's
    finiteness."""
    cfg = _checked(config, TAU_ADMM_MAX,
                   "ADMM step length must lie in (0, (1+sqrt(5))/2)")
    return _run_loop(problem, cfg, initial, alm=False, setup=setup)


@one_blas_thread
def alm_solve(problem, config=None, initial=None):
    """sGS proximal ALM; requires all separable objective terms to vanish.
    The step rule is :func:`admm_solve`'s: without a set ``config.tau``
    the Halpern step at the stage scale, with one the relaxed multiplier
    step of that length.  ``initial`` is read as in :func:`admm_solve`."""
    if not problem.theta.is_zero or not problem.scen_theta.is_zero:
        raise UnsupportedObjective(
            "the ALM variant requires zero theta terms; use admm_solve")
    cfg = _checked(config, TAU_ALM_MAX, "ALM step length must lie in (0, 2)")
    return _run_loop(problem, cfg, initial, alm=True)


class _Halpern:
    """Halpern's anchored iteration with restarts on the unit-step sweep
    ``T`` (Sun, Yuan, Zhang & Zhao, arXiv:2403.18618; restarts and sigma
    as in HPR-LP, arXiv:2408.12179).

    The anchored variables are ``w = (xx, y, ybar)``; ``zz`` and ``vv`` are
    taken from ``T(w)``, since the next sweep recomputes them.  From anchor
    ``w0``, the ``j``-th step since the last restart is
    ``w+ = a w0 + (1 - a)(2 T(w) - w)`` with ``a = 1/(j+2)`` (the first is
    ``T(w0)`` itself).  ``w`` is packed into one vector together with its
    linear dual sums ``W*ybar + A*y`` (:func:`linear_dual_sums`), which
    are linear in ``w``: the step combines them with ``w`` and forms the
    next sweep's sums without a product.  The sweep writes ``T(w)``,
    packed alike, straight into a second buffer, ``image``; the two trade
    places when ``w`` becomes ``T(w)``.  Each is held with its views
    ``(buffer, xx, y, ybar, sums, xx|y|ybar)``."""

    def __init__(self, problem, st):
        n = st.xx.size
        self._cuts = (n, n + st.y.size, n + st.y.size + st.ybar.size)
        self._has_a = problem.A is not None
        self.anchor = np.concatenate(
            (st.xx, st.y, st.ybar, linear_dual_sums(problem, st.y, st.ybar)))
        # w, T(w), their difference and the joint sums live in buffers
        # that every step overwrites
        m, mm = self._cuts[1:]
        self.w, self.image = [(b, b[:n], b[n:m], b[m:mm], b[mm:], b[:mm])
                              for b in (self.anchor.copy(),
                                        np.empty_like(self.anchor))]
        self._d = np.empty(self._cuts[2])
        self._sums = np.empty(n)
        self.j = 0
        self.r0 = self.r_prev = 0.0

    def step(self, st, lin, SS, sigma, k, sigma_fixed, residues):
        """Move ``w`` on from ``st``, the image ``T(w)`` that the sweep wrote
        into ``image`` with its linear dual sums ``lin``, whose joint dual
        sums are ``SS`` and whose :class:`LinearResidues` are
        ``residues``, at iteration ``k``.  Returns the sigma and the joint
        dual sums of the new ``w``, which ``st`` holds."""
        n = self._cuts[0]
        image, old = self.image, self.w
        t, w = image[0], old[0]
        d = np.subtract(image[5], old[5], out=self._d)
        dx, dy = d[:n], d[n:]
        r = math.sqrt(dx.dot(dx) / sigma + sigma * dy.dot(dy))
        if self.j == 0:
            self.r0 = r
        elif (r <= _RESTART_SUFFICIENT * self.r0
              or (r <= _RESTART_NECESSARY * self.r0 and r > self.r_prev)
              or self.j >= _RESTART_LONG * k):
            if not sigma_fixed:
                sigma = self._restart_sigma(t, sigma, residues)
            np.copyto(self.anchor, t)
            self.w, self.image = image, old
            self.j = 0
            return sigma, SS
        self.r_prev = r
        self.j += 1
        if self.j == 1:
            # a = 1/2 with w = w0: the step is T(w0)
            self.w, self.image = image, old
            return sigma, SS
        # w+ = a w0 + 2 (1 - a) T(w) - (1 - a) w, in place, one pass a term
        # (daxpy writes to a contiguous float64 y in place)
        a = 1.0 / (self.j + 1)
        w *= a - 1.0
        daxpy(t, w, a=2.0 * (1.0 - a))
        daxpy(self.anchor, w, a=a)
        st.xx, st.y, st.ybar = old[1:4]
        S = np.add(old[4], st.zz, out=self._sums)
        return sigma, daxpy(st.vv, S)

    def _restart_sigma(self, t, sigma, residues):
        """``sqrt(sigma ||d_xx|| / ||d_(y, ybar)||)`` for the move
        ``d = t - w0`` of the anchor, within a factor
        ``_SIGMA_RESTART_CLAMP`` of ``sigma`` and [_SIGMA_MIN, _SIGMA_MAX];
        ``sigma`` when either part is 0.  With an ``A`` block, a ratio
        ``r`` of the largest dual to the largest primal residue of
        ``residues`` (those of ``t``) outside the band
        ``_SIGMA_BALANCE_BAND`` scales the estimate by
        ``r**_SIGMA_BALANCE_POWER`` before the clamp, toward residual
        balance (He, Yang & Wang, JOTA 2000).  Without ``A`` the primal
        residue is at rounding level after the exact ybar solve and gives
        no signal."""
        n, _, mm = self._cuts
        d = np.subtract(t[:mm], self.anchor[:mm], out=self._d)
        px, py = d[:n].dot(d[:n]), d[n:].dot(d[n:])
        if px == 0.0 or py == 0.0:
            return sigma
        new = math.sqrt(sigma * math.sqrt(px / py))
        prim = max(residues.eta_P, residues.eta_Pbar)
        dual = max(residues.eta_D, residues.eta_Dbar)
        if self._has_a and prim > 0.0 and dual > 0.0:
            r = dual / prim
            if not 1.0 / _SIGMA_BALANCE_BAND <= r <= _SIGMA_BALANCE_BAND:
                new *= r ** _SIGMA_BALANCE_POWER
        new = min(max(new, sigma / _SIGMA_RESTART_CLAMP),
                  sigma * _SIGMA_RESTART_CLAMP)
        return min(max(new, _SIGMA_MIN), _SIGMA_MAX)


def _run_loop(problem, cfg, initial, alm, setup=None):
    t0 = time.perf_counter()
    # without a set step length, the Halpern step on the unit-step sweep
    halpern = cfg.tau is None
    tau = 1.0 if halpern else cfg.tau
    if setup is None:
        setup = solve_setup(problem, cfg, scaled=halpern)
    msol, facA = setup
    # the loop runs on ``work``, the problem in the setup's variables
    # x = scale x'; residues, objectives and the report are the problem's
    scale = setup.scale
    work = _scaled_problem(problem, setup)
    if scale != 1.0:
        _SETUP_LOG.info("stage scale %.6g: the first stage is solved in "
                        "x' = x / %.6g", scale, scale)
    # the residue scales depend on the data only; W' xx' = W xx and
    # A' x' = A x, so only the first-stage dual residue, scale times the
    # problem's, needs another scale in the loop
    denoms = residue_denominators(problem)
    lin_denoms = (denoms if scale == 1.0 else
                  (denoms[0], scale * denoms[1], denoms[2], denoms[3]))
    # without theta, theta*(-v) is the indicator of v = 0: v|vbar stays 0
    # (ALM's sweep has no v step) and ADMM's sweep solves for ybar once
    v_free = problem.joint_theta.is_zero
    rhs = _composed_rhs(work, msol, facA, setup) if cfg.max_iter else None
    # the sweep's terms at sigma, rebuilt whenever sigma moves; only
    # ADMM's sweep with a smooth objective has a v step
    v_step = not (alm or v_free)
    terms = None
    conj = _cone_plan(work.joint_cone) if cfg.max_iter else None
    st, sigma = _start(work, cfg, initial, scale)
    if v_free:
        st.vv = np.zeros_like(st.vv)
    # no step follows the last iteration, so a single one needs no anchor
    anchored = _Halpern(work, st) if halpern and cfg.max_iter > 1 else None
    # after an exact ybar solve, the last step of every sweep, the scenario
    # rows' residue is |1 - tau| times the sweep input's (see
    # joint_linear_residues): pbar holds it, from one product at the start
    # (none under the Halpern step, tau = 1, whose rows hold 0)
    derive = msol.exact and cfg.max_iter > 0
    decay = abs(1.0 - tau)
    pbar = 0.0
    if derive and decay != 0.0:
        pbar = scenario_primal_residue(work, st.xx, lin_denoms[2])

    log_rows = []
    status = "MaxIter"
    best_eta = np.inf
    best_eta_at = 0
    res = None
    sums = None
    k = 0
    inner_iters = 0
    sigma_period = _SIGMA_PERIOD
    next_sigma_check = _SIGMA_PERIOD - 1

    for k in range(cfg.max_iter):
        eps_k = eps_schedule(k)
        if terms is None or terms.sigma != sigma:
            terms = _SweepTerms(work, rhs, sigma, v_step, conj)
        try:
            inner_iters, d_res, d_res_bar, sums, lin_sums = _sgs_iteration(
                work, st, sigma, tau, msol, facA, eps_k, cfg, alm, sums,
                v_free, terms,
                None if anchored is None else anchored.image)
        except ValueError as exc:
            # a factor solve refuses a non-finite right-hand side
            raise NumericalError("non-finite iterate at iteration %d: %s"
                                 % (k, exc)) from exc
        if derive:
            pbar *= decay
        lin = joint_linear_residues(work, st.xx, d_res, d_res_bar,
                                    lin_denoms, pbar if derive else None)
        if derive and max(lin.eta_P, lin.eta_D, lin.eta_Dbar) <= cfg.tol_kkt:
            # a row that may be certified reads the product, and the
            # recurrence goes on from it
            pbar = scenario_primal_residue(work, st.xx, lin_denoms[2])
            lin = lin._replace(eta_Pbar=pbar)
        eta_lin = max(lin)
        # max() skips a NaN that is not first; a sum keeps it
        if not math.isfinite(sum(lin)):
            raise NumericalError(
                "non-finite iterate at iteration %d: linear residues %s"
                % (k, ", ".join("%.3g" % v for v in lin)))

        # eta is at least each linear residue, so the full check (cone and
        # prox residues, objectives, gap) runs only once all four pass;
        # kkt_full only reads its arguments, so at scale 1 the state goes
        # in uncopied, with the iteration's dual sums and linear residues,
        # which are the state's own (at another scale they are the scaled
        # problem's, and kkt_full forms the problem's)
        if eta_lin <= cfg.tol_kkt:
            held = {"sums": sums, "lin": lin} if scale == 1.0 else {}
            pt = _unscaled(st, scale)
            res, obj_p, obj_d = kkt_full(problem, pt.xx, pt, denoms=denoms,
                                         **held)
            row = (k, res.eta_P, res.eta_D, res.eta_K, res.eta_theta,
                   res.eta_Pbar, res.eta_Dbar, res.eta_Kbar, res.eta_thetabar,
                   res.eta, res.eta_gap, sigma, obj_p, obj_d, inner_iters)
        else:
            res = None
            row = (k, lin.eta_P, lin.eta_D, None, None, lin.eta_Pbar,
                   lin.eta_Dbar, None, None, None, None, sigma, None, None,
                   inner_iters)
        log_rows.append(row)
        if cfg.log_every and (k % cfg.log_every == 0):
            if res is None:
                _LOG.info("iter %6d  linear eta %.3e  sigma %.3e",
                          k, eta_lin, sigma)
            else:
                _LOG.info("iter %6d  eta %.3e  gap %.3e  sigma %.3e",
                          k, res.eta, res.eta_gap, sigma)

        if (res is not None and res.eta <= cfg.tol_kkt
                and res.eta_gap <= cfg.tol_gap):
            status = "Converged"
            k += 1
            break

        if eta_lin < best_eta * (1.0 - _STALL_REL):
            best_eta = eta_lin
            best_eta_at = k
        elif k - best_eta_at >= _STALL_WINDOW:
            status = "Stalled"
            k += 1
            break

        if anchored is not None:
            # st holds T(w) until here; no step follows the last iteration,
            # so a MaxIter report returns the image its last row certified
            if k + 1 < cfg.max_iter:
                sigma, sums = anchored.step(st, lin_sums, sums, sigma, k,
                                            cfg.sigma_fixed, lin)
        elif not cfg.sigma_fixed and k >= next_sigma_check:
            new_sigma = sigma_update(lin, sigma)
            if new_sigma != sigma:
                # lengthen the interval after each change so the penalty
                # eventually settles and the iteration can converge
                sigma_period = min(sigma_period * _SIGMA_PERIOD_GROWTH, 2500.0)
                sigma = new_sigma
            next_sigma_check = k + int(sigma_period)
    else:
        k = cfg.max_iter

    # nothing else holds the state's arrays, so the report takes them (or
    # their unscaled copies, bit for bit those of the last full check)
    pt = _unscaled(st, scale)
    # views of the scenario blocks, sliced directly: np.split costs several
    # times as much for many scenarios
    xbar, offs = pt.xbar, problem.x_offsets.tolist()
    primal = PrimalPoint(pt.x, [xbar[a:b] for a, b in zip(offs, offs[1:])])
    dual = DualPoint(y=pt.y, ybar=pt.ybar, z=pt.z, zbar=pt.zbar, v=pt.v,
                     vbar=pt.vbar)
    if not log_rows:
        obj_p = primal_objective(problem, primal)
        obj_d = dual_objective(problem, dual)
    elif res is None:
        # no step followed the last row, so its sums are the state's; its
        # linear residues are held where they are the returned point's
        # computed ones (not the scaled problem's, no derived eta_Pbar)
        held = {"sums": sums} if scale == 1.0 else {}
        if held and not derive:
            held["lin"] = lin
        res, obj_p, obj_d = kkt_full(problem, pt.xx, pt, denoms=denoms,
                                     **held)
        if "lin" not in held:
            # the last row's linear residues become the returned point's
            row = list(log_rows[-1])
            for name in LinearResidues._fields:
                row[LOG_COLUMNS.index(name)] = getattr(res, name)
            log_rows[-1] = tuple(row)
    return SolveReport(
        status=status, iterations=k, kkt=res, obj_p=obj_p, obj_d=obj_d,
        primal=primal, dual=dual, sigma=sigma,
        elapsed=time.perf_counter() - t0, log_rows=log_rows,
        extra={"strategy": msol.strategy, "stage_scale": scale},
    )


def _composed_rhs(problem, msol, facA, setup=None):
    """``(M^{-1} bbar, c, A* c)`` with ``c = (A A* + J)^{-1} b``: the
    right-hand-side terms of the composed ybar and y steps, each ``None``
    where the setup composes nothing.  With ``setup``, whose ``msolver``
    and ``afactor`` are ``msol`` and ``facA``, they are kept in its
    ``rhs_memo``, keyed on the identity of the ``b`` and ``bbar`` arrays
    they read: the problems a setup serves may differ in costs and in
    right-hand sides, and :meth:`~dbasolve.model.DBAProblem.with_cost`
    shares both arrays, so a setup computes them once for every solve of
    a new cost, and again for a problem with other ``b`` or ``bbar``."""
    b, bbar = problem.b, problem.bbar
    memo = setup.rhs_memo if setup is not None else None
    if memo is not None and memo[0] is b and memo[1] is bbar:
        return memo[2]
    mb = None if msol.minv_w is None else msol.solve(bbar)
    if facA is None or facA.L is None:
        rhs = mb, None, None
    else:
        c = facA.solve(b)
        rhs = mb, c, mv(problem.A_T, c)
    if setup is not None:
        setup.rhs_memo = (b, bbar, rhs)
    return rhs


class _SweepTerms:
    """The sweep's terms that depend on ``sigma`` and the data alone, for
    one value of ``sigma``: ``mb``, ``c`` and ``q``, the terms ``rhs`` of
    :func:`_composed_rhs` over ``sigma``; ``bbar / sigma`` where the ybar
    step solves with M and ``b / sigma`` where the y steps solve with the
    A factor; and, for a sweep with a v step (``v_step``), the v step's
    plan (:func:`_v_plan`): ``d = 1 + sigma diag`` of a joint function
    that is one diagonal quadratic, or ``v_groups``, each group of a joint
    function of several groups with its own ``d``.  Each is ``None``
    where nothing reads it.  ``conj`` holds the :func:`_cone_plan` of
    the problem's joint cone, which the solve builds once and passes in
    (built here when not given)."""

    __slots__ = ("sigma", "mb", "bbar", "c", "q", "b", "d", "v_groups",
                 "conj")

    def __init__(self, problem, rhs, sigma, v_step, conj=None):
        mb, c_a, q_a = rhs
        self.sigma = sigma
        self.conj = _cone_plan(problem.joint_cone) if conj is None else conj
        self.mb = None if mb is None else mb / sigma
        self.bbar = problem.bbar / sigma if mb is None else None
        self.c = None if c_a is None else c_a / sigma
        self.q = None if q_a is None else q_a / sigma
        self.b = (problem.b / sigma if c_a is None and problem.A is not None
                  else None)
        self.d, self.v_groups = (_v_plan(problem.joint_theta, sigma)
                                 if v_step else (None, None))


def _v_plan(theta, sigma):
    """The plan of the v step at ``sigma`` for the joint function
    ``theta``, as ``(d, groups)`` for :func:`_v_step`.  Each diagonal
    quadratic group (:func:`~dbasolve.proxcone.quadratic_diag`) takes
    ``d = 1 + sigma diag``: where it is the one group, ``d`` is returned
    alone; among several groups, ``groups`` lists every group as ``(part,
    where, d)``, ``d`` ``None`` on a group that is not diagonal.  A
    function without a diagonal group gets ``(None, None)``: its v step
    is :func:`~dbasolve.proxcone.prox_conjugate` on the whole."""
    diags = [quadratic_diag(part) for part, _, _ in theta.groups]
    if all(q is None for q in diags):
        return None, None
    ds = [None if q is None else 1.0 + sigma * q for q in diags]
    if len(ds) == 1:
        return ds[0], None
    return None, [(part, where, d)
                  for (part, where, _), d in zip(theta.groups, ds)]


def _v_step(theta, sigma, r, d=None, groups=None):
    """``v = -Prox_{theta*/sigma}(r)``, the smooth step's multiplier, in a
    new array, by the plan ``(d, groups)`` of :func:`_v_plan`.  With
    ``groups``, each group runs :func:`_group_v_step` on its coordinates,
    written through a slice of ``v`` or scattered back where they are an
    index array; without, given ``d``, that step runs on the whole vector,
    and otherwise :func:`~dbasolve.proxcone.prox_conjugate`."""
    if groups is None:
        if d is None:
            return -prox_conjugate(theta, sigma, r)
        return _group_v_step(theta, sigma, r, d)
    v = np.empty_like(r)
    for part, where, dg in groups:
        if isinstance(where, slice):
            _group_v_step(part, sigma, r[where], dg, v[where])
        else:
            v[where] = _group_v_step(part, sigma, r[where], dg)
    return v


def _group_v_step(f, sigma, r, d, out=None):
    """``-Prox_{f*/sigma}(r)`` by the float operations of
    :func:`~dbasolve.proxcone.prox_conjugate`, ``-(r - Prox_{sigma f}(sigma
    r) / sigma)``, without its call layers, written into ``out`` (a new
    array when ``None``).  Given ``d = 1 + sigma diag`` of a diagonal
    quadratic ``f``, its prox is ``sigma r / d``."""
    v = np.multiply(r, sigma, out=out)
    if d is None:
        np.divide(f.prox(sigma, v), sigma, out=v)
    else:
        v /= d
        v /= sigma
    return np.negative(np.subtract(r, v, out=v), out=v)


def _ybar_step(problem, msol, mb, bbar, RR, sigma, eps_k, cfg):
    """``dy = M^{-1} (bbar / sigma - W RR)`` and its inner iteration count,
    given ``mb = M^{-1} bbar / sigma`` and ``bbar / sigma`` as
    :class:`_SweepTerms` holds them: ``mb - (M^{-1} W) RR``, one dense
    product, when ``msol`` holds ``M^{-1} W``, otherwise the mat-vec and
    the M solve of :func:`_msolve_with_tol`.  Under ``check_inner`` the
    composed step asserts its residual through ``msol.apply_m`` as the M
    solve does."""
    if mb is None:
        return _msolve_with_tol(msol, bbar - mv(problem.W, RR), sigma, eps_k,
                                cfg)
    dy = mb - msol.minv_w @ RR
    if cfg.check_inner:
        h = problem.bbar / sigma - mv(problem.W, RR)
        delta = sigma * np.linalg.norm(msol.apply_m(dy) - h)
        assert delta <= max(eps_k, 1e-9), \
            "inner residual %.3e exceeds eps_k %.3e" % (delta, eps_k)
    return dy, 0


def _msolve_with_tol(msol, rhs, sigma, eps_k, cfg):
    """``M^{-1} rhs`` by ``msol`` and its inner iteration count.  The
    tolerance ``eps_k / (sigma (1 + ||rhs||))``, clamped to [1e-14, 1e-8],
    is computed only for a solver that reads it (a PCG G-solve) or for the
    ``check_inner`` assertions."""
    tol = None
    if msol.reads_tol or cfg.check_inner:
        nrhs = np.linalg.norm(rhs)
        tol = max(min(1e-8, eps_k / (sigma * (1.0 + nrhs))), 1e-14)
    y = msol.solve(rhs, tol=tol, check_residual=cfg.check_inner)
    if cfg.check_inner:
        # an inner PCG stopped by its iteration cap returns its residual
        assert msol.last_inner_relres <= tol, \
            "inner PCG residual %.3e exceeds its tolerance %.3e" % (
                msol.last_inner_relres, tol)
        delta = sigma * msol.last_relres * nrhs
        assert delta <= max(eps_k, 1e-9), \
            "inner residual %.3e exceeds eps_k %.3e" % (delta, eps_k)
    return y, msol.last_inner_iters


def _sgs_iteration(problem, st, sigma, tau, msol, facA, eps_k, cfg, alm=False,
                   sums=None, v_free=False, terms=None, out=None):
    """One sGS proximal ADMM (``alm=False``) or ALM (``alm=True``) iteration
    on the dual; updates ``st`` and returns the inner iteration count, the
    dual residues ``d_res``, ``d_res_bar`` (the
    :func:`~dbasolve.model.joint_dual_sums` ``SS`` less ``c|cbar``, split
    after ``n0``: views of one vector over x|xbar) of the new dual iterate,
    which the multiplier step moves ``xx`` along, ``SS`` and its part
    :func:`~dbasolve.model.linear_dual_sums`.  Passed back as ``sums``,
    ``SS`` spares the next iteration its recomputation; ``None`` computes
    it from ``st``.  ``v_free`` says that the problem has no smooth
    objective and ``st.vv`` is 0 (see below).  ``terms`` are the
    :class:`_SweepTerms` of the solve at ``sigma``, computed here when
    ``None``.
    ``out`` is :class:`_Halpern`'s ``image``, whose views receive the new
    ``xx``, ``y``, ``ybar`` and linear sums.

    Two group steps act on the residual RR = SS - c_k over x|xbar
    (SS = A*y + B*ybar + z + v | Bbar*ybar + zbar + vbar, c_k = c|cbar less
    xx / sigma), whose scenario products are one with W = [B Bbar] each:
    "nonsmooth" updates the (z, y) pair and zbar (a y -> (z, zbar) -> y
    sweep with one projection onto the joint cone, z and zbar alone without
    A); "smooth" updates (v, vbar) by one prox of the joint function.  ADMM
    runs nonsmooth, then ybar -> smooth -> ybar; ALM keeps v = vbar = 0 and
    runs ybar -> nonsmooth -> ybar.  Inside a ybar sweep a step sees the
    residual at the backward ybar and returns the one at the old ybar with
    its own blocks updated, which is what the forward ybar solve needs.
    With ``v_free`` ADMM runs nonsmooth -> ybar and keeps v = vbar = 0:
    theta = 0 makes theta*(-v) the indicator of v = 0, so the smooth step
    returns v|vbar = 0 and leaves the residual as it was, and the forward
    ybar solve repeats the backward one.  ALM's sweep does not change.

    A setup with composed operators applies each ybar solve as
    ``M^{-1} bbar / sigma - (M^{-1} W) RR`` (:func:`_ybar_step`), the
    y_tmp correction ``A*(y_tmp - y)`` as ``A* c / sigma - P RR`` and the y
    step as ``c / sigma - L r`` (``c = (A A* + J)^{-1} b``, ``L``, ``P`` of
    :class:`_AFactor`): one dense product each in place of a mat-vec, a
    factor solve and often a second mat-vec.  The cone and v steps run as
    ``terms`` plans them, group by group on a set of several groups: the
    cone step (``terms.conj``, :func:`_cone_plan`) is a form of
    :func:`_proj_conj`, free of ``sigma`` on a cone and in closed form on
    an orthant group; the v step (:func:`_v_step`) takes a diagonal
    quadratic group directly and any other group by
    :func:`~dbasolve.proxcone.prox_conjugate`'s float operations.
    """
    A, At = problem.A_mv, problem.A_T
    n0 = problem.n0
    xo, yo, ybo, lo = (None,) * 4 if out is None else out[1:5]
    if terms is None:
        terms = _SweepTerms(problem, _composed_rhs(problem, msol, facA),
                            sigma, not (alm or v_free))
    mb, bbar_s, c_s = terms.mb, terms.bbar, terms.c
    cck = problem.cc - st.xx / sigma
    RR = (joint_dual_sums(problem, st.y, st.ybar, st.zz, st.vv)
          if sums is None else sums) - cck
    # the residual the nonsmooth step sees: ADMM's at the old ybar, ALM's
    # after the backward ybar solve
    RRin, vv = RR, st.vv
    inner = 0
    if alm:
        dy, inner = _ybar_step(problem, msol, mb, bbar_s, RR, sigma, eps_k,
                               cfg)
        RRin = mv(problem.W_T, dy) + RR

    # nonsmooth: the (z, y) pair and zbar
    u = RRin - st.zz
    if c_s is not None:
        u[:n0] += terms.q - facA.P @ RRin[:n0]
    elif A is not None:
        y_tmp = st.y + facA.solve(terms.b - mv(A, RRin[:n0]))
        u[:n0] += mv(At, y_tmp - st.y)
    zz = terms.conj(sigma, u)
    if c_s is not None:
        ystep = c_s - facA.L @ (RRin[:n0] + zz[:n0] - st.z)
    elif A is not None:
        ystep = facA.solve(terms.b - mv(A, RRin[:n0] + zz[:n0] - st.z))
    y = st.y if A is None else np.add(st.y, ystep, out=yo)
    # RR is the sweep's own array and RRin is read no more (ALM's is
    # another), so the steps' blocks go in in place
    if A is not None:
        RR[:n0] += mv(At, y - st.y)
    RR += zz - st.zz

    if not (alm or v_free):
        # ybar -> smooth: one prox of the joint function for (v, vbar)
        dy, it = _ybar_step(problem, msol, mb, bbar_s, RR, sigma, eps_k, cfg)
        inner += it
        r = mv(problem.W_T, dy) + RR
        r -= st.vv
        vv = _v_step(problem.joint_theta, sigma, r, terms.d,
                     terms.v_groups)
        RR += vv
        RR -= st.vv
    dy, it = _ybar_step(problem, msol, mb, bbar_s, RR, sigma, eps_k, cfg)
    inner += it

    st.y, st.ybar, st.zz, st.vv = y, np.add(st.ybar, dy, out=ybo), zz, vv
    # multiplier step
    lin = linear_dual_sums(problem, st.y, st.ybar, lo)
    SS = lin + st.zz
    if not v_free:
        SS += st.vv
    DD = SS - problem.cc
    st.xx = np.add(st.xx, tau * sigma * DD, out=xo)
    return inner, DD[:n0], DD[n0:], SS, lin
