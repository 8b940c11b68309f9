"""Problem data model, primal/dual state, objectives and KKT residues.

A problem couples one optional first-stage equality block ``A x = b`` with
``N`` scenario rows ``B_i x + Bbar_i xbar_i = bbar_i``; the objective is
``theta(x) + <c, x> + sum_i (thetabar_i(xbar_i) + <cbar_i, xbar_i>)`` over
``x in K``, ``xbar_i in K_i``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .blocklinalg import (BlockDiagOp, StackedOp, _norm, all_finite,
                          canonicalize, compact_for_matvec, mv, to_dense,
                          transposed)
from .errors import DimensionMismatch, NonFiniteData
from .proxcone import (BlockCone, BlockFunction, Cone, SeparableFunction,
                       conjugate_value, prox)

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
        out = copy.copy(self)
        out.c = c
        out.cc = np.concatenate((c, self.cbar))
        return out

    def y_slice(self, i):
        return slice(self.y_offsets[i], self.y_offsets[i + 1])

    def x_slice(self, i):
        return slice(self.x_offsets[i], self.x_offsets[i + 1])


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


@dataclass
class DualPoint:
    y: np.ndarray          # empty when A is absent
    ybar: np.ndarray       # stacked over scenarios
    z: np.ndarray
    zbar: np.ndarray       # stacked
    v: np.ndarray
    vbar: np.ndarray       # stacked


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
    for i, s in enumerate(problem.scenarios):
        if s.B.shape[1] != n0:
            raise DimensionMismatch(
                "block %d: B has %d columns, expected n0=%d" % (i, s.B.shape[1], n0))
        if s.B.shape[0] != s.Bbar.shape[0]:
            raise DimensionMismatch(
                "block %d: B has %d rows but Bbar has %d" %
                (i, s.B.shape[0], s.Bbar.shape[0]))
        if s.bbar.size != s.m:
            raise DimensionMismatch(
                "block %d: bbar has length %d, expected %d" % (i, s.bbar.size, s.m))
        if s.cbar.size != s.n:
            raise DimensionMismatch(
                "block %d: cbar has length %d, expected %d" % (i, s.cbar.size, s.n))
        if s.cone.dim != s.n:
            raise DimensionMismatch(
                "block %d: cone dim %d does not match n_i=%d" % (i, s.cone.dim, s.n))
        if s.theta.dim != s.n:
            raise DimensionMismatch(
                "block %d: theta dim %d does not match n_i=%d" % (i, s.theta.dim, s.n))
    _check_finite(problem)

    if rank_check:
        if problem.A is not None and max(problem.A.shape) <= _RANK_CHECK_DIM:
            r = _qr_rank(to_dense(problem.A))
            if r < problem.m0:
                warnings.append(
                    "A appears rank deficient (rank %d of %d rows)" % (r, problem.m0))
        if problem.mbar <= _RANK_CHECK_DIM and problem.n0 + problem.nbar <= _RANK_CHECK_DIM:
            full = np.hstack([
                np.vstack([to_dense(s.B) for s in problem.scenarios]),
                _blockdiag_dense(problem),
            ])
            r = _qr_rank(full)
            if r < problem.mbar:
                warnings.append(
                    "[B, Bbar] appears rank deficient (rank %d of %d rows)"
                    % (r, problem.mbar))
    return warnings


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


def _blockdiag_dense(problem):
    out = np.zeros((problem.mbar, problem.nbar))
    for i, s in enumerate(problem.scenarios):
        out[problem.y_slice(i), problem.x_slice(i)] = to_dense(s.Bbar)
    return out


def primal_objective(problem, point):
    """theta(x) + <c, x> + sum_i (thetabar_i(xbar_i) + <cbar_i, xbar_i>).

    Indicator components contribute 0; their feasibility is measured by the
    cone residues instead.
    """
    return _primal_objective(problem, point.x, point.stacked())


def _primal_objective(problem, x, xbar):
    return (problem.theta.value(x) + float(problem.c @ x)
            + problem.scen_theta.value(xbar)
            + float(problem.cbar @ xbar))


def dual_objective(problem, dual, feas_tol=1e-8):
    """-theta*(-v) - delta*_K(-z) + <b,y> - sum_i(...) + <bbar, ybar>.

    Returns ``-inf`` when any conjugate is infinite beyond the clamp."""
    conj = []
    for f, w in ((problem.theta, dual.v), (problem.cone, dual.z),
                 (problem.scen_theta, dual.vbar), (problem.scen_cone, dual.zbar)):
        conj.append(conjugate_value(f, -w, feas_tol))
        if not np.isfinite(conj[-1]):
            return -np.inf
    total = 0.0 - conj[0] - conj[1]
    if problem.A is not None:
        total += float(problem.b @ dual.y)
    return total - conj[2] - conj[3] + float(problem.bbar @ dual.ybar)


def kkt_residues(problem, point, dual, feas_tol=1e-8):
    """Relative KKT residues, their weighted maximum and the duality gap."""
    return kkt_full(problem, point.x, point.stacked(), dual, feas_tol)[0]


class LinearResidues(NamedTuple):
    """The four linear KKT residues.  ``eta`` is at least each of them, so
    an iterate with any one above ``tol_kkt`` cannot be certified."""

    eta_P: float
    eta_D: float
    eta_Pbar: float
    eta_Dbar: float


def dual_sums(problem, dual):
    """The dual constraint sums ``A*y + B*ybar + z + v`` and
    ``Bbar*ybar + zbar + vbar``, added left to right; ``dual`` is read as in
    :func:`kkt_full`."""
    Aty = mv(problem.A_T, dual.y) if problem.A is not None else 0.0
    return (Aty + problem.B.apply_adjoint(dual.ybar) + dual.z + dual.v,
            problem.Bbar.apply_adjoint(dual.ybar) + dual.zbar + dual.vbar)


def dual_residues(problem, dual):
    """The dual constraint residues ``A*y + B*ybar + z + v - c`` and
    ``Bbar*ybar + zbar + vbar - cbar``: the :func:`dual_sums` less the
    costs."""
    S, Sbar = dual_sums(problem, dual)
    return S - problem.c, Sbar - problem.cbar


def residue_denominators(problem):
    """``(1+||b||, 1+||c||, 1+||bbar||, 1+||cbar||)``, the scales of the
    four :class:`LinearResidues` (the first is ``None`` without ``A``).
    They depend on the problem data only, so a solve computes them once."""
    nrm = np.linalg.norm
    den_P = 1.0 + nrm(problem.b) if problem.A is not None else None
    return (den_P, 1.0 + nrm(problem.c), 1.0 + nrm(problem.bbar),
            1.0 + nrm(problem.cbar))


def linear_residues(problem, x, xbar, d_res, d_res_bar, denoms):
    """Relative primal residues at ``(x, xbar)`` and relative dual residues
    of the :func:`dual_residues` vectors ``d_res``, ``d_res_bar``;
    ``denoms`` is :func:`residue_denominators` of ``problem``."""
    nrm = np.linalg.norm
    den_P, den_D, den_Pbar, den_Dbar = denoms
    if problem.A is not None:
        eta_P = nrm(mv(problem.A_mv, x) - problem.b) / den_P
    else:
        eta_P = 0.0
    p_res = problem.B.apply(x) + problem.Bbar.apply(xbar) - problem.bbar
    return LinearResidues(
        eta_P=float(eta_P),
        eta_D=float(nrm(d_res) / den_D),
        eta_Pbar=float(nrm(p_res) / den_Pbar),
        eta_Dbar=float(nrm(d_res_bar) / den_Dbar))


def joint_dual_sums(problem, y, ybar, zz, vv):
    """The :func:`dual_sums` as one vector over x|xbar: ``W*ybar + zz + vv``
    with ``A*y`` added to its first ``n0`` entries, at
    ``zz = z|zbar`` and ``vv = v|vbar``.  Only the product ``W*ybar``
    rounds differently from the pair ``B*ybar``, ``Bbar*ybar``."""
    S = mv(problem.W_T, ybar)
    if problem.A is not None:
        S[:problem.n0] += mv(problem.A_T, y)
    S += zz
    S += vv
    return S


def joint_linear_residues(problem, xx, d_res, d_res_bar, denoms):
    """:func:`linear_residues` at the primal point ``xx = x|xbar``, with the
    scenario rows' residue ``W xx - bbar`` formed by one product."""
    den_P, den_D, den_Pbar, den_Dbar = denoms
    eta_P = 0.0
    if problem.A is not None:
        eta_P = _norm(mv(problem.A_mv, xx[:problem.n0]) - problem.b) / den_P
    return LinearResidues(
        eta_P=eta_P,
        eta_D=_norm(d_res) / den_D,
        eta_Pbar=_norm(mv(problem.W, xx) - problem.bbar) / den_Pbar,
        eta_Dbar=_norm(d_res_bar) / den_Dbar)


def kkt_full(problem, x, xbar, dual, feas_tol=1e-8):
    """Residues plus both objective values (computed once) at the primal
    point ``(x, xbar)``, ``xbar`` stacked over scenarios.  ``dual`` is read
    through its ``y, ybar, z, zbar, v, vbar`` attributes, so a
    ``DualPoint`` or a solver state carrying them will do; no argument is
    written to."""
    nrm = np.linalg.norm
    lin = linear_residues(problem, x, xbar, *dual_residues(problem, dual),
                          residue_denominators(problem))

    eta_K = nrm(x - problem.cone.project(x - dual.z)) / (1.0 + nrm(x) + nrm(dual.z))
    eta_theta = nrm(x - prox(problem.theta, 1.0, x - dual.v)) / (
        1.0 + nrm(x) + nrm(dual.v))

    proj_bar = problem.scen_cone.project(xbar - dual.zbar)
    prox_bar = prox(problem.scen_theta, 1.0, xbar - dual.vbar)
    eta_Kbar = nrm(xbar - proj_bar) / (1.0 + nrm(xbar) + nrm(dual.zbar))
    eta_thetabar = nrm(xbar - prox_bar) / (1.0 + nrm(xbar) + nrm(dual.vbar))

    eta = max(lin.eta_P, lin.eta_D, 0.2 * eta_K, 0.2 * eta_theta,
              lin.eta_Pbar, lin.eta_Dbar, 0.2 * eta_Kbar, 0.2 * eta_thetabar)

    obj_p = _primal_objective(problem, x, xbar)
    obj_d = dual_objective(problem, dual, feas_tol)
    if np.isfinite(obj_d):
        eta_gap = abs(obj_p - obj_d) / (1.0 + abs(obj_p) + abs(obj_d))
    else:
        eta_gap = np.inf

    res = KktResidues(
        eta_P=lin.eta_P, eta_D=lin.eta_D, eta_K=float(eta_K),
        eta_theta=float(eta_theta), eta_Pbar=lin.eta_Pbar,
        eta_Dbar=lin.eta_Dbar, eta_Kbar=float(eta_Kbar),
        eta_thetabar=float(eta_thetabar), eta=float(eta),
        eta_gap=float(eta_gap),
    )
    return res, obj_p, obj_d
