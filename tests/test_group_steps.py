"""The sweep's per-group step plan.

On a joint cone or function of several groups, the cone step
(:func:`~dbasolve.solvers._cone_plan`) and the v step
(:func:`~dbasolve.solvers._v_plan`, :func:`~dbasolve.solvers._v_step`) run
each group's own kernel on its own coordinates, scattered back where those
are an index array.  Every float is the whole-set form's, except the sign
of a zero on an orthant group, which takes ``max(-u, 0)`` in place of
``Pi(u) - u`` (``tests/test_cone_step.py``)."""

from functools import partial

import numpy as np
import pytest

from dbasolve import solvers
from dbasolve.blocklinalg import svec, svec_dim
from dbasolve.builders import (build_ufl_dnn, random_sdp, random_two_stage,
                               random_ufl)
from dbasolve.model import DBAProblem, ScenarioBlock
from dbasolve.proxcone import (BlockCone, BlockFunction, Box, DenseQuadratic,
                               DiagQuadratic, FreeSpace, IndicatorCone,
                               NonnegOrthant, NonnegSymMatrices, PsdCone, Zero,
                               prox_conjugate)
from dbasolve.solvers import SolverConfig, admm_solve, alm_solve

SIGMAS = (1e-6, 1.0, 1e6)
SCALES = (1.0, 1e-150, 1e150)
_ORTHANT_STEP = solvers._orthant_conj


def points(dim, seed):
    """Normal points scaled by each of ``SCALES``, with some entries +0
    and some -0."""
    rng = np.random.default_rng(seed)
    for scale in SCALES:
        for _ in range(4):
            u = scale * rng.normal(size=dim)
            u[rng.random(dim) < 0.2] = 0.0
            u[rng.random(dim) < 0.1] = -0.0
            yield u


def whole_cone_step(cone, sigma, u):
    """The whole-set form the plan replaces, on a copy of ``u``."""
    return solvers._conj_step(cone)(cone, sigma, u.copy())


def orthant_mask(cone):
    """The coordinates on which the plan takes the orthant closed form."""
    mask = np.zeros(cone.dim, dtype=bool)
    for part, where, _ in cone.groups:
        if solvers._conj_step(part) is _ORTHANT_STEP:
            mask[where] = True
    return mask


CONES = {
    "psd-and-orthant": BlockCone([PsdCone(3), NonnegOrthant(12)]),
    "orthant-psd-free": BlockCone([NonnegOrthant(4), PsdCone(2, 2),
                                   FreeSpace(3)]),
    "nonneg-sym-and-psd": BlockCone([NonnegSymMatrices(3), PsdCone(2)]),
    "nested": BlockCone([BlockCone([NonnegOrthant(2), PsdCone(2)]),
                         FreeSpace(2), NonnegOrthant(3)]),
    # interleaved kinds: every group's coordinates are an index array
    "interleaved": BlockCone([PsdCone(2), NonnegOrthant(3), PsdCone(2),
                              FreeSpace(2), NonnegOrthant(2), PsdCone(3),
                              FreeSpace(1)]),
    "psd-orders": BlockCone([PsdCone(2), PsdCone(3), PsdCone(2)]),
    # one group: the plan calls it without BlockCone's dispatch
    "one-psd-group": BlockCone([PsdCone(3), PsdCone(3)]),
    "one-free-group": BlockCone([FreeSpace(2), FreeSpace(3)]),
}


@pytest.mark.parametrize("sigma", SIGMAS)
@pytest.mark.parametrize("name", list(CONES))
def test_cone_plan_equals_the_whole_set_form(name, sigma):
    cone = CONES[name]
    assert solvers._conj_step(cone) is solvers._cone_conj
    plan = solvers._cone_plan(cone)
    orth = orthant_mask(cone)
    for u in points(cone.dim, 7):
        got = plan(sigma, u.copy())
        want = whole_cone_step(cone, sigma, u)
        # bytes, signed zeros included, off the orthant groups
        assert got[~orth].tobytes() == want[~orth].tobytes()
        # on them, equal up to the sign of a zero
        assert np.array_equal(got[orth], want[orth])
        assert (got[orth] + 0.0).tobytes() == (want[orth] + 0.0).tobytes()


def test_cone_plan_writes_into_u():
    cone = CONES["interleaved"]
    assert any(not isinstance(w, slice) for _, w, _ in cone.groups)
    u = next(points(cone.dim, 1))
    buf = u.copy()
    out = solvers._cone_plan(cone)(1.0, buf)
    assert out is buf
    assert np.array_equal(buf, whole_cone_step(cone, 1.0, u))


@pytest.mark.parametrize("cone", [
    BlockCone([NonnegOrthant(5)]),
    BlockCone([NonnegOrthant(2), NonnegSymMatrices(2)]),
    BlockCone([Box(-np.ones(2), np.ones(2)), NonnegOrthant(3)]),
    BlockCone([PsdCone(2), Box(np.zeros(3), np.ones(3)), FreeSpace(1)])],
    ids=["orthant", "merged-orthants", "box-and-orthant", "psd-box-free"])
def test_one_orthant_or_a_box_takes_the_whole_set_form(cone):
    plan = solvers._cone_plan(cone)
    assert isinstance(plan, partial)
    assert plan.func is solvers._conj_step(cone)
    assert plan.args == (cone,)


@pytest.mark.parametrize("sigma", SIGMAS)
def test_box_holding_set_keeps_the_form_with_sigma(sigma):
    cone = BlockCone([NonnegOrthant(3), Box(-np.ones(4), 2 * np.ones(4)),
                      PsdCone(2)])
    plan = solvers._cone_plan(cone)
    assert plan.func is solvers._proj_conj
    for u in points(cone.dim, 3):
        want = cone.project(sigma * u) / sigma - u
        assert plan(sigma, u.copy()).tobytes() == want.tobytes()


def diag(rng, n, zeros=True):
    q = rng.uniform(1e-8, 1e8, n)
    if zeros:
        q[rng.random(n) < 0.4] = 0.0
    return q


def dense(rng, n):
    M = rng.normal(size=(n, n))
    return DenseQuadratic(M @ M.T)


def functions():
    rng = np.random.default_rng(11)
    return {
        "indicator-and-diag": BlockFunction([
            IndicatorCone(NonnegSymMatrices(3)), DiagQuadratic(diag(rng, 9))]),
        "every-kind": BlockFunction([
            DiagQuadratic(diag(rng, 4)), Zero(3),
            IndicatorCone(PsdCone(2)), dense(rng, 3),
            IndicatorCone(NonnegOrthant(2)), IndicatorCone(FreeSpace(2)),
            BlockFunction([Zero(1), DiagQuadratic(diag(rng, 2))])]),
        "positive-diag-and-zero": BlockFunction([
            DiagQuadratic(diag(rng, 5, zeros=False)), Zero(4)]),
        # interleaved kinds: every group's coordinates are an index array
        "interleaved": BlockFunction([
            DiagQuadratic(diag(rng, 3)), Zero(2), DiagQuadratic(diag(rng, 2)),
            IndicatorCone(NonnegOrthant(2)), Zero(3),
            IndicatorCone(NonnegOrthant(1)), DiagQuadratic(diag(rng, 1))]),
    }


FUNCTIONS = functions()


@pytest.mark.parametrize("sigma", SIGMAS)
@pytest.mark.parametrize("name", list(FUNCTIONS))
def test_v_plan_equals_prox_conjugate(name, sigma):
    f = FUNCTIONS[name]
    d, groups = solvers._v_plan(f, sigma)
    assert d is None and len(groups) == len(f.groups) > 1
    for part, where, dg in groups:
        if isinstance(part, DiagQuadratic):
            assert np.array_equal(dg, 1.0 + sigma * part.diag)
        else:
            assert dg is None
    for r in points(f.dim, 5):
        before = r.copy()
        got = solvers._v_step(f, sigma, r, d, groups)
        want = -prox_conjugate(f, sigma, r)
        # bytes: signed zeros included
        assert got.tobytes() == want.tobytes()
        assert r.tobytes() == before.tobytes()


def test_v_plan_for_one_group_or_no_diagonal_group():
    rng = np.random.default_rng(2)
    q = diag(rng, 6)
    one = BlockFunction([DiagQuadratic(q[:2]), DiagQuadratic(q[2:])])
    d, groups = solvers._v_plan(one, 3.0)
    assert groups is None and np.array_equal(d, 1.0 + 3.0 * q)
    for f in (BlockFunction([dense(rng, 2), dense(rng, 3)]),
              BlockFunction([IndicatorCone(NonnegOrthant(2)), Zero(2)]),
              BlockFunction([dense(rng, 3)])):
        assert solvers._v_plan(f, 3.0) == (None, None)


def mixed_cone_qp(N=6, seed=4):
    """A QP whose scenarios alternate an orthant with a diagonal quadratic
    and a PSD cone of order 2 with no objective term, over a PSD first
    stage with a diagonal quadratic: the joint cone's PSD and orthant
    groups and the joint function's diagonal and zero groups each sit on
    an index array."""
    rng = np.random.default_rng(seed)
    d0, n0, ni, m0, mi = 2, svec_dim(2), 3, 1, 2
    x0 = svec(np.eye(d0))
    A = rng.normal(size=(m0, n0))
    blocks = []
    for i in range(N):
        B, Bbar = rng.normal(size=(mi, n0)), rng.normal(size=(mi, ni))
        if i % 2:
            cone, theta = PsdCone(2), Zero(ni)
            xi, cbar = svec(np.eye(2)), svec(np.eye(2)) + 0.1 * rng.random(ni)
        else:
            cone = NonnegOrthant(ni)
            theta = DiagQuadratic(rng.uniform(0.5, 2.0, ni))
            xi, cbar = rng.uniform(0.5, 1.0, ni), rng.normal(size=ni)
        blocks.append(ScenarioBlock(B, Bbar, B @ x0 + Bbar @ xi, cbar, cone,
                                    theta))
    return DBAProblem(A, A @ x0, rng.normal(size=n0), PsdCone(d0),
                      DiagQuadratic(rng.uniform(0.5, 2.0, n0)), blocks)


def mixed_scenario_two_stage():
    """A two-stage problem whose scenario cones alternate orthants and free
    spaces."""
    p = random_two_stage(2, 6, 2, 5, N=6, seed=1, quad_eps=0.1)
    blocks = [ScenarioBlock(s.B, s.Bbar, s.bbar, s.cbar,
                            FreeSpace(s.n) if i % 2 else s.cone, s.theta)
              for i, s in enumerate(p.scenarios)]
    return DBAProblem(p.A, p.b, p.c, p.cone, p.theta, blocks)


def test_mixed_problems_have_index_array_groups():
    qp = mixed_cone_qp()
    for blocks in (qp.joint_cone, qp.joint_theta):
        assert len(blocks.groups) == 2
        assert all(isinstance(w, np.ndarray) for _, w, _ in blocks.groups)
    scen = mixed_scenario_two_stage().scen_cone
    assert all(isinstance(w, np.ndarray) for _, w, _ in scen.groups)


SOLVES = {
    "ufl-halpern": lambda: admm_solve(build_ufl_dnn(random_ufl(4, 20,
                                                               seed=1))),
    "ufl-classic": lambda: admm_solve(build_ufl_dnn(random_ufl(4, 20,
                                                               seed=1)),
                                      SolverConfig(tau=1.618)),
    "mixed-cone-qp": lambda: admm_solve(mixed_cone_qp()),
    "mixed-cone-qp-classic": lambda: admm_solve(mixed_cone_qp(),
                                                SolverConfig(tau=1.618)),
    # PSD scenario cones of another order than the first stage's
    "sdp-alm": lambda: alm_solve(random_sdp(2, 3, 2, 4, N=3, seed=1)),
}


def with_whole_set_forms(monkeypatch):
    """Patch the plans back to the whole-set forms: the cone step that
    :func:`~dbasolve.solvers._conj_step` picks for the whole set, and
    ``prox_conjugate`` for every v step."""
    monkeypatch.setattr(solvers, "_cone_plan",
                        lambda cone: partial(solvers._conj_step(cone), cone))
    monkeypatch.setattr(solvers, "_v_plan", lambda theta, sigma: (None, None))


@pytest.mark.parametrize("name", list(SOLVES))
def test_solve_equals_the_whole_set_forms(name, monkeypatch):
    rep = SOLVES[name]()
    assert rep.converged
    with_whole_set_forms(monkeypatch)
    ref = SOLVES[name]()
    # floats compare -0.0 == 0.0: equal up to the sign of a zero
    assert rep.log_rows == ref.log_rows
    assert (rep.status, rep.iterations, rep.sigma) == (
        ref.status, ref.iterations, ref.sigma)
    for got, want in ((rep.primal.x, ref.primal.x),
                      (rep.primal.stacked(), ref.primal.stacked()),
                      (rep.dual.zz, ref.dual.zz), (rep.dual.vv, ref.dual.vv),
                      (rep.dual.y, ref.dual.y),
                      (rep.dual.ybar, ref.dual.ybar)):
        assert np.array_equal(got, want)
    assert rep.kkt == ref.kkt
