"""Problem data model, primal/dual state, objectives and KKT residues.

A problem couples one optional first-stage equality block ``A x = b`` with
``N`` scenario rows ``B_i x + Bbar_i xbar_i = bbar_i``; the objective is
``theta(x) + <c, x> + sum_i (thetabar_i(xbar_i) + <cbar_i, xbar_i>)`` over
``x in K``, ``xbar_i in K_i``.

Objectives and KKT residues are evaluated at ``xx = x|xbar`` with the
operators of the sGS sweep: ``W = [B Bbar]``, the joint cone and the joint
function over x|xbar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .blocklinalg import (BlockDiagOp, StackedOp, _norm, all_finite,
                          canonicalize, compact_for_matvec, mv, shallow_copy,
                          to_dense, transposed)
from .errors import DimensionMismatch, NonFiniteData
from .proxcone import (BlockCone, BlockFunction, Cone, SeparableFunction,
                       prox)

_RANK_CHECK_DIM = 500


@dataclass
class ScenarioBlock:
    """One scenario: coupling map B, recourse map Bbar, rhs, cost, cone and
    separable objective for the second-stage variable."""

    B: object
    Bbar: object
    bbar: np.ndarray
    cbar: np.ndarray
    cone: Cone
    theta: SeparableFunction

    def __post_init__(self):
        self.B = canonicalize(self.B)
        self.Bbar = canonicalize(self.Bbar)
        self.bbar = np.asarray(self.bbar, dtype=np.float64)
        self.cbar = np.asarray(self.cbar, dtype=np.float64)

    @property
    def m(self):
        return self.B.shape[0]

    @property
    def n(self):
        return self.Bbar.shape[1]


class DBAProblem:
    """Immutable problem data plus stacked operators and offsets."""

    def __init__(self, A, b, c, cone, theta, scenarios, meta=None):
        if not scenarios:
            raise DimensionMismatch("problem needs at least one scenario block")
        self.c = np.asarray(c, dtype=np.float64)
        self.cone = cone
        self.theta = theta
        self.scenarios = list(scenarios)
        self.meta = dict(meta or {})

        self.n0 = self.c.size
        if A is not None:
            self.A = canonicalize(A)
            self.A_mv = compact_for_matvec(self.A)
            self.A_T = transposed(self.A_mv)
            self.b = np.asarray(b, dtype=np.float64)
            self.m0 = self.A.shape[0]
        else:
            self.A = None
            self.A_mv = None
            self.A_T = None
            self.b = None
            self.m0 = 0

        self.N = len(self.scenarios)
        self.B = StackedOp([s.B for s in self.scenarios])
        self.Bbar = BlockDiagOp([s.Bbar for s in self.scenarios])
        self.m_i = [s.m for s in self.scenarios]
        self.n_i = [s.n for s in self.scenarios]
        self.mbar = sum(self.m_i)
        self.nbar = sum(self.n_i)
        self.y_offsets = self.B.offsets
        self.x_offsets = self.Bbar.col_offsets
        self.bbar = np.concatenate([s.bbar for s in self.scenarios])
        self.cbar = np.concatenate([s.cbar for s in self.scenarios])
        # the cost c|cbar over x|xbar
        self.cc = np.concatenate((self.c, self.cbar))
        # W = [B Bbar] on x|xbar and its transpose: a scenario product of
        # the sGS sweep is one mat-vec
        self.W = _joint_operator(self.B.matrix, self.Bbar.matrix)
        self.W_T = transposed(self.W)
        # the scenario cones and objectives, one cone and one function on xbar
        self.scen_cone = BlockCone([s.cone for s in self.scenarios])
        self.scen_theta = BlockFunction([s.theta for s in self.scenarios])
        # the same with the first stage's blocks in front, on x|xbar: one
        # projection and one prox per sGS sweep
        self.joint_cone = BlockCone(_flat([cone] + self.scen_cone.blocks))
        self.joint_theta = BlockFunction(_flat([theta] + self.scen_theta.blocks))

    def with_cost(self, c):
        """A problem with first-stage cost ``c`` that shares everything
        else, operators and metadata included, with this one.  Raises
        :class:`NonFiniteData` when ``c`` holds NaN or Inf."""
        c = np.asarray(c, dtype=np.float64)
        if c.shape != self.c.shape:
            raise DimensionMismatch(
                "cost has shape %s, expected %s" % (c.shape, self.c.shape))
        if not all_finite(c):
            raise NonFiniteData("NaN or Inf in c")
        out = shallow_copy(self)
        out.c = c
        out.cc = np.concatenate((c, self.cbar))
        return out

    def y_slice(self, i):
        return slice(self.y_offsets[i], self.y_offsets[i + 1])


def _joint_operator(B, Bbar):
    """``[B Bbar]`` from the assembled operators: dense when both are,
    otherwise CSR, stored as :func:`compact_for_matvec` decides."""
    if isinstance(B, np.ndarray) and isinstance(Bbar, np.ndarray):
        return np.hstack((B, Bbar))
    return compact_for_matvec(
        sp.hstack((sp.csr_matrix(B), sp.csr_matrix(Bbar)), format="csr"))


def _flat(parts):
    """``parts`` with every :class:`BlockCone` or :class:`BlockFunction`
    replaced by its blocks, recursively, so that its like kinds merge with
    the other parts' (as PHA's first stage of N copies does)."""
    out = []
    for part in parts:
        nested = isinstance(part, (BlockCone, BlockFunction))
        out += _flat(part.blocks) if nested else [part]
    return out


@dataclass
class PrimalPoint:
    x: np.ndarray
    xbar: list

    def stacked(self):
        return np.concatenate(self.xbar)

    @property
    def xx(self):
        """The point as one vector over x|xbar."""
        return np.concatenate((self.x, *self.xbar))


@dataclass
class DualPoint:
    y: np.ndarray          # empty when A is absent
    ybar: np.ndarray       # stacked over scenarios
    z: np.ndarray
    zbar: np.ndarray       # stacked
    v: np.ndarray
    vbar: np.ndarray       # stacked

    # the cone and function multipliers as vectors over x|xbar
    zz = property(lambda self: np.concatenate((self.z, self.zbar)))
    vv = property(lambda self: np.concatenate((self.v, self.vbar)))


def zero_primal(problem):
    return PrimalPoint(np.zeros(problem.n0),
                       [np.zeros(n) for n in problem.n_i])


def zero_dual(problem):
    return DualPoint(
        y=np.zeros(problem.m0),
        ybar=np.zeros(problem.mbar),
        z=np.zeros(problem.n0),
        zbar=np.zeros(problem.nbar),
        v=np.zeros(problem.n0),
        vbar=np.zeros(problem.nbar),
    )


@dataclass
class KktResidues:
    eta_P: float
    eta_D: float
    eta_K: float
    eta_theta: float
    eta_Pbar: float
    eta_Dbar: float
    eta_Kbar: float
    eta_thetabar: float
    eta: float
    eta_gap: float

    FIELDS = ("eta_P", "eta_D", "eta_K", "eta_theta", "eta_Pbar",
              "eta_Dbar", "eta_Kbar", "eta_thetabar", "eta", "eta_gap")

    def as_dict(self):
        return {k: getattr(self, k) for k in self.FIELDS}


def validate(problem, rank_check=True):
    """Check dimension consistency and finite data; optionally estimate
    constraint ranks.

    Raises :class:`DimensionMismatch` on hard inconsistencies and
    :class:`NonFiniteData`, naming the array, when NaN or Inf appears in
    ``c``, ``b``, ``cbar``, ``bbar``, ``A``, ``B`` or ``Bbar``; the stacked
    vectors and assembled operators are checked whole.  Returns a list
    of warning strings (rank deficiencies are warnings, not errors, and are
    only checked at small dimensions).
    """
    warnings = []
    n0 = problem.n0
    if problem.A is not None:
        if problem.A.shape[1] != n0:
            raise DimensionMismatch(
                "A has %d columns but c has length %d" % (problem.A.shape[1], n0))
        if problem.b.size != problem.A.shape[0]:
            raise DimensionMismatch(
                "b has length %d but A has %d rows" % (problem.b.size, problem.A.shape[0]))
    if problem.theta.dim != n0:
        raise DimensionMismatch(
            "theta dim %d does not match n0=%d" % (problem.theta.dim, n0))
    if problem.cone.dim != n0:
        raise DimensionMismatch(
            "first-stage cone dim %d does not match n0=%d" % (problem.cone.dim, n0))
    _check_blocks(problem)
    _check_finite(problem)

    if rank_check:
        if problem.A is not None and max(problem.A.shape) <= _RANK_CHECK_DIM:
            r = _qr_rank(to_dense(problem.A))
            if r < problem.m0:
                warnings.append(
                    "A appears rank deficient (rank %d of %d rows)" % (r, problem.m0))
        if problem.mbar <= _RANK_CHECK_DIM and problem.n0 + problem.nbar <= _RANK_CHECK_DIM:
            r = _qr_rank(to_dense(problem.W))
            if r < problem.mbar:
                warnings.append(
                    "[B, Bbar] appears rank deficient (rank %d of %d rows)"
                    % (r, problem.mbar))
    return warnings


def _check_blocks(problem):
    """Raise :class:`DimensionMismatch` for the first scenario whose blocks
    do not fit, naming its first misfit.  The sizes come from the stacked
    operators' size lists and one list per vector, cone and function, so
    the scenarios are compared as arrays."""
    scen = problem.scenarios
    m_i, n_i = np.asarray(problem.m_i), np.asarray(problem.n_i)
    # every B_i has the stack's column count (StackedOp checks it)
    bad = np.array([
        np.full(problem.N, problem.B.n != problem.n0),
        m_i != problem.Bbar.row_sizes,
        [s.bbar.size for s in scen] != m_i,
        [s.cbar.size for s in scen] != n_i,
        [c.dim for c in problem.scen_cone.blocks] != n_i,
        [f.dim for f in problem.scen_theta.blocks] != n_i])
    if not bad.any():
        return
    i = int(np.flatnonzero(bad.any(axis=0))[0])
    s = scen[i]
    raise DimensionMismatch("block %d: " % i + (
        "B has %d columns, expected n0=%d" % (s.B.shape[1], problem.n0),
        "B has %d rows but Bbar has %d" % (s.m, s.Bbar.shape[0]),
        "bbar has length %d, expected %d" % (s.bbar.size, s.m),
        "cbar has length %d, expected %d" % (s.cbar.size, s.n),
        "cone dim %d does not match n_i=%d" % (s.cone.dim, s.n),
        "theta dim %d does not match n_i=%d" % (s.theta.dim, s.n),
    )[int(np.flatnonzero(bad[:, i])[0])])


def _check_finite(problem):
    arrays = (("c", problem.c), ("b", problem.b), ("cbar", problem.cbar),
              ("bbar", problem.bbar), ("A", problem.A))
    bad = [name for name, arr in arrays
           if arr is not None and not all_finite(arr)]
    bad += [name for name, op in (("B", problem.B), ("Bbar", problem.Bbar))
            if not op.all_finite()]
    if bad:
        raise NonFiniteData("NaN or Inf in %s" % ", ".join(bad))


def _qr_rank(mat):
    if mat.size == 0:
        return 0
    import scipy.linalg as sla

    r = sla.qr(mat.T, mode="r", pivoting=True)[0]
    diag = np.abs(np.diag(r))
    if diag.size == 0:
        return 0
    tol = diag.max() * max(mat.shape) * np.finfo(float).eps
    return int(np.sum(diag > tol))


def primal_objective(problem, point):
    """theta(x) + <c, x> + sum_i (thetabar_i(xbar_i) + <cbar_i, xbar_i>).

    Indicator components contribute 0; their feasibility is measured by the
    cone residues instead.
    """
    return _primal_objective(problem, point.xx)


def _primal_objective(problem, xx):
    return problem.joint_theta.value(xx) + float(problem.cc @ xx)


def dual_objective(problem, dual, feas_tol=1e-8):
    """-theta*(-v) - delta*_K(-z) + <b,y> - sum_i(...) + <bbar, ybar>, with
    the conjugates of the joint function and cone over x|xbar; ``dual`` is
    read as in :func:`kkt_full`.

    Returns ``-inf`` when any conjugate is infinite beyond the clamp."""
    return _dual_objective(problem, dual.y, dual.ybar, dual.zz, dual.vv,
                           feas_tol)


def _dual_objective(problem, y, ybar, zz, vv, feas_tol):
    """:func:`dual_objective` at the multipliers ``zz = z|zbar`` and
    ``vv = v|vbar`` as given."""
    conj = (problem.joint_theta.conjugate(-vv, feas_tol)
            + problem.joint_cone.support(-zz, feas_tol))
    if not np.isfinite(conj):
        return -np.inf
    total = -conj
    if problem.A is not None:
        total += float(problem.b @ y)
    return total + float(problem.bbar @ ybar)


def kkt_residues(problem, point, dual, feas_tol=1e-8):
    """Relative KKT residues, their weighted maximum and the duality gap."""
    return kkt_full(problem, point.xx, dual, feas_tol)[0]


class LinearResidues(NamedTuple):
    """The four linear KKT residues.  ``eta`` is at least each of them, so
    an iterate with any one above ``tol_kkt`` cannot be certified."""

    eta_P: float
    eta_D: float
    eta_Pbar: float
    eta_Dbar: float


def residue_denominators(problem):
    """``(1+||b||, 1+||c||, 1+||bbar||, 1+||cbar||)``, the scales of the
    four :class:`LinearResidues` (the first is ``None`` without ``A``).
    They depend on the problem data only, so a solve computes them once.
    Each is a Python float, its norm ``np.linalg.norm``'s bit for bit."""
    den_P = 1.0 + _data_norm(problem.b) if problem.A is not None else None
    return (den_P, 1.0 + _data_norm(problem.c),
            1.0 + _data_norm(problem.bbar), 1.0 + _data_norm(problem.cbar))


def _data_norm(v):
    """``np.linalg.norm(v)`` as a Python float: :func:`_norm` on a
    contiguous 1-d ``v``, whose dot product ``np.linalg.norm`` takes too."""
    if v.ndim == 1 and v.flags.c_contiguous:
        return _norm(v)
    return float(np.linalg.norm(v))


def linear_dual_sums(problem, y, ybar, out=None):
    """``W*ybar`` with ``A*y`` added to its first ``n0`` entries: the part
    of :func:`joint_dual_sums` that is linear in ``(y, ybar)``; written
    into ``out`` when given (see :func:`~dbasolve.blocklinalg.mv`)."""
    S = mv(problem.W_T, ybar, out)
    if problem.A is not None:
        S[:problem.n0] += mv(problem.A_T, y)
    return S


def joint_dual_sums(problem, y, ybar, zz, vv):
    """The dual constraint sums ``A*y + B*ybar + z + v`` and
    ``Bbar*ybar + zbar + vbar`` as one vector over x|xbar:
    :func:`linear_dual_sums` plus ``zz + vv``, at ``zz = z|zbar`` and
    ``vv = v|vbar``."""
    S = linear_dual_sums(problem, y, ybar)
    S += zz
    S += vv
    return S


def scenario_primal_residue(problem, xx, den_Pbar):
    """``||W xx - bbar|| / den_Pbar``, the scenario rows' relative primal
    residue at ``xx = x|xbar``, by one product."""
    # the norms are _norm's sqrt(v.dot(v)), written out
    r = mv(problem.W, xx) - problem.bbar
    return math.sqrt(r.dot(r)) / den_Pbar


def joint_linear_residues(problem, xx, d_res, d_res_bar, denoms, pbar=None):
    """The relative primal residues at ``xx = x|xbar``, the scenario rows'
    by :func:`scenario_primal_residue`, and the relative norms of the dual
    residues ``d_res``, ``d_res_bar`` (the :func:`joint_dual_sums` less
    ``c|cbar``, split after ``n0``); ``denoms`` is
    :func:`residue_denominators` of ``problem``.

    A given ``pbar`` is taken as the scenario rows' residue without the
    product.  The solve loop passes it after an exact ybar solve
    (:attr:`~dbasolve.msolver.MSolver.exact`), whose optimality condition
    ``W (xx + sigma (SS - c|cbar)) = bbar`` makes the new point's residue
    ``W xx+ - bbar = (1 - tau)(W xx - bbar)`` for the sweep's input
    ``xx`` and step length ``tau``: 0 under the Halpern step."""
    den_P, den_D, den_Pbar, den_Dbar = denoms
    eta_P = 0.0
    if problem.A is not None:
        r = mv(problem.A_mv, xx[:problem.n0]) - problem.b
        eta_P = math.sqrt(r.dot(r)) / den_P
    if pbar is None:
        pbar = scenario_primal_residue(problem, xx, den_Pbar)
    return LinearResidues(eta_P, math.sqrt(d_res.dot(d_res)) / den_D, pbar,
                          math.sqrt(d_res_bar.dot(d_res_bar)) / den_Dbar)


def kkt_full(problem, xx, dual, feas_tol=1e-8, denoms=None, sums=None,
             lin=None):
    """Residues plus both objective values (computed once) at the primal
    point ``xx = x|xbar``, with the operators of the sGS sweep: one ``W``
    product each way, one projection onto the joint cone and one prox of
    the joint function, whose first ``n0`` entries give the first-stage
    residues and the rest the scenario ones.  ``dual`` is read through its
    ``y``, ``ybar``, ``zz = z|zbar`` and ``vv = v|vbar`` attributes, each
    once, so a ``DualPoint`` or a solver state will do; no argument is
    written to.  ``denoms`` is :func:`residue_denominators` of ``problem``,
    computed here when not given.

    A caller that holds them passes ``sums``, the :func:`joint_dual_sums`
    at ``dual``, and ``lin``, the :func:`joint_linear_residues` at
    ``(xx, dual)``; given, they are not recomputed (``sums`` is read only
    to form ``lin``), and the result is the same bit for bit.  A held
    ``lin`` must be computed, not given a derived ``pbar``: the solve loop
    passes ``sums`` alone after a row whose ``eta_Pbar`` was derived, so
    every certificate reads the product."""
    n0 = problem.n0
    zz, vv = dual.zz, dual.vv
    if lin is None:
        if sums is None:
            sums = joint_dual_sums(problem, dual.y, dual.ybar, zz, vv)
        DD = sums - problem.cc
        if denoms is None:
            denoms = residue_denominators(problem)
        lin = joint_linear_residues(problem, xx, DD[:n0], DD[n0:], denoms)

    # the point's stage norms, shared by both splits
    nx, nxbar = 1.0 + _norm(xx[:n0]), 1.0 + _norm(xx[n0:])

    def split(r, w):
        """The relative norms of ``r``'s two stages, scaled by the point's
        and the multiplier ``w``'s."""
        return (_norm(r[:n0]) / (nx + _norm(w[:n0])),
                _norm(r[n0:]) / (nxbar + _norm(w[n0:])))

    eta_K, eta_Kbar = split(xx - problem.joint_cone.project(xx - zz), zz)
    eta_theta, eta_thetabar = split(
        xx - prox(problem.joint_theta, 1.0, xx - vv), vv)

    eta = max(lin.eta_P, lin.eta_D, 0.2 * eta_K, 0.2 * eta_theta,
              lin.eta_Pbar, lin.eta_Dbar, 0.2 * eta_Kbar, 0.2 * eta_thetabar)

    obj_p = _primal_objective(problem, xx)
    obj_d = _dual_objective(problem, dual.y, dual.ybar, zz, vv, feas_tol)
    if np.isfinite(obj_d):
        eta_gap = abs(obj_p - obj_d) / (1.0 + abs(obj_p) + abs(obj_d))
    else:
        eta_gap = np.inf

    res = KktResidues(
        eta_P=lin.eta_P, eta_D=lin.eta_D, eta_K=eta_K, eta_theta=eta_theta,
        eta_Pbar=lin.eta_Pbar, eta_Dbar=lin.eta_Dbar, eta_Kbar=eta_Kbar,
        eta_thetabar=eta_thetabar, eta=eta, eta_gap=float(eta_gap),
    )
    return res, obj_p, obj_d
