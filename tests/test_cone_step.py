"""The sweep's cone step ``-Prox_{sigma^{-1} delta*_K}(u)``.

Moreau's identity gives it as ``Pi_K(sigma u)/sigma - u``.  On a cone,
``Pi_K(sigma u) = sigma Pi_K(u)`` makes it ``Pi_K(u) - u``, and on one
orthant ``max(-u, 0)``; a :class:`Box` is not a cone and keeps the form
with sigma (:func:`~dbasolve.solvers._conj_step`).
"""

import numpy as np
import pytest

from dbasolve import solvers
from dbasolve.builders import random_sdp, random_two_stage
from dbasolve.model import DBAProblem, ScenarioBlock
from dbasolve.proxcone import (BlockCone, Box, DenseQuadratic, FreeSpace,
                               NonnegOrthant, NonnegSymMatrices, PsdCone)
from dbasolve.solvers import SolverConfig, admm_solve, alm_solve

SIGMAS = (1e-6, 1.0, 1e6)
SCALES = (1.0, 1e-8, 1e8)


def parent_step(cone, sigma, u):
    """The cone step as Moreau's identity writes it, for any closed
    convex set."""
    return cone.project(sigma * u) / sigma - u


def points(dim, seed):
    """Normal points scaled by each of ``SCALES``, with some entries +0
    and some -0."""
    rng = np.random.default_rng(seed)
    for scale in SCALES:
        for _ in range(5):
            u = scale * rng.normal(size=dim)
            u[rng.random(dim) < 0.2] = 0.0
            u[rng.random(dim) < 0.1] = -0.0
            yield u


def step(cone, sigma, u):
    """The form the solve picks for ``cone``, on a copy of ``u`` (the step
    may overwrite its argument)."""
    return solvers._conj_step(cone)(cone, sigma, u.copy())


ELEMENTWISE = {
    "orthant": NonnegOrthant(9),
    "free": FreeSpace(7),
    "nonneg-sym": NonnegSymMatrices(3),
    "merged-orthants": BlockCone([NonnegOrthant(3), NonnegSymMatrices(2),
                                  NonnegOrthant(4)]),
    "orthant-and-free": BlockCone([NonnegOrthant(3), FreeSpace(4)]),
}


@pytest.mark.parametrize("sigma", SIGMAS)
@pytest.mark.parametrize("name", list(ELEMENTWISE))
def test_elementwise_cones_within_an_ulp(name, sigma):
    cone = ELEMENTWISE[name]
    for u in points(cone.dim, 1):
        got, want = step(cone, sigma, u), parent_step(cone, sigma, u)
        assert np.all(np.abs(got - want) <= np.spacing(np.abs(u)))


@pytest.mark.parametrize("sigma", SIGMAS)
@pytest.mark.parametrize("d, k", [(1, 1), (2, 3), (3, 1), (4, 2), (6, 2)])
def test_psd_cone_within_a_few_ulps(d, k, sigma):
    cone = PsdCone(d, k)
    assert solvers._conj_step(cone) is solvers._cone_conj
    for u in points(cone.dim, d + k):
        got, want = step(cone, sigma, u), parent_step(cone, sigma, u)
        # per block, in ulps of the block's largest entry: the batched
        # eigendecomposition of sigma u is not exactly sigma times that of u
        for g, w, b in zip(got.reshape(k, -1), want.reshape(k, -1),
                           u.reshape(k, -1)):
            assert np.all(np.abs(g - w) <= 16 * d * np.spacing(
                np.abs(b).max()))


@pytest.mark.parametrize("cone", [NonnegOrthant(9), NonnegSymMatrices(3),
                                  BlockCone([NonnegOrthant(2),
                                             NonnegOrthant(5)])],
                         ids=["orthant", "nonneg-sym", "merged"])
def test_orthant_closed_form_is_the_projection_less_u(cone):
    assert solvers._conj_step(cone) is solvers._orthant_conj
    for u in points(cone.dim, 2):
        got = solvers._orthant_conj(cone, 1.0, u.copy())
        # array_equal counts -0 == +0: equal up to the sign of a zero
        assert np.array_equal(got, cone.project(u) - u)


def test_orthant_form_writes_into_u():
    u = np.array([1.0, -2.0, 0.0])
    out = solvers._orthant_conj(NonnegOrthant(3), 5.0, u)
    assert out is u and np.array_equal(u, [0.0, 2.0, 0.0])


BOXES = {
    "box": Box(np.array([-1.0, 0.0, -np.inf, 2.0]),
               np.array([1.0, np.inf, 3.0, 2.0])),
    "box-and-orthant": BlockCone([NonnegOrthant(3),
                                  Box(-np.ones(4), 2 * np.ones(4)),
                                  PsdCone(2)]),
    "box-and-free": BlockCone([Box(np.zeros(3), np.ones(3)), FreeSpace(2)]),
}


@pytest.mark.parametrize("sigma", SIGMAS)
@pytest.mark.parametrize("name", list(BOXES))
def test_box_keeps_the_form_with_sigma_bit_for_bit(name, sigma):
    cone = BOXES[name]
    assert not cone.homogeneous
    assert solvers._conj_step(cone) is solvers._proj_conj
    for u in points(cone.dim, 3):
        assert (step(cone, sigma, u).tobytes()
                == parent_step(cone, sigma, u).tobytes())


def test_homogeneous_kinds():
    for cone in (NonnegOrthant(2), FreeSpace(2), PsdCone(2, 3),
                 NonnegSymMatrices(2), BlockCone([PsdCone(2), FreeSpace(1)]),
                 BlockCone([BlockCone([NonnegOrthant(1), PsdCone(2)])])):
        assert cone.homogeneous
    for cone in (Box(np.zeros(2), np.ones(2)),
                 BlockCone([PsdCone(2), Box(np.zeros(1), np.ones(1))]),
                 BlockCone([BlockCone([Box(np.zeros(1), np.ones(1))])])):
        assert not cone.homogeneous


def box_qp():
    """The strongly convex QP over boxes of the face-enumeration test."""
    rng = np.random.default_rng(21)
    n0, ni = 2, 2
    M = rng.normal(size=(n0, n0))
    Q0 = M @ M.T + np.eye(n0)
    M = rng.normal(size=(ni, ni))
    Q1 = M @ M.T + np.eye(ni)
    c0, c1 = rng.normal(size=n0), rng.normal(size=ni)
    B, Bbar = rng.normal(size=(1, n0)), rng.normal(size=(1, ni))
    x_feas = rng.uniform(-0.5, 0.5, n0 + ni)
    bbar = B @ x_feas[:n0] + Bbar @ x_feas[n0:]
    blocks = [ScenarioBlock(B, Bbar, bbar, c1, Box(-np.ones(ni), np.ones(ni)),
                            DenseQuadratic(Q1))]
    return DBAProblem(None, None, c0, Box(-np.ones(n0), np.ones(n0)),
                      DenseQuadratic(Q0), blocks)


def boxed_two_stage():
    """A two-stage problem with ``A`` whose scenario cones are boxes, so
    the joint cone holds an orthant and a box group."""
    p = random_two_stage(2, 6, 2, 5, N=4, seed=1, quad_eps=0.1)
    blocks = [ScenarioBlock(s.B, s.Bbar, s.bbar, s.cbar,
                            Box(-np.ones(s.n), 5 * np.ones(s.n)), s.theta)
              for s in p.scenarios]
    return DBAProblem(p.A, p.b, p.c, p.cone, p.theta, blocks)


def with_parent_step(monkeypatch):
    monkeypatch.setattr(solvers, "_conj_step", lambda cone: parent_step)


SOLVES = {
    "box-qp": lambda: admm_solve(box_qp(), SolverConfig(tol_kkt=1e-9,
                                                        tol_gap=1e-9)),
    "boxed-two-stage": lambda: admm_solve(boxed_two_stage()),
    "boxed-two-stage-classic": lambda: admm_solve(
        boxed_two_stage(), SolverConfig(tau=1.618)),
}


@pytest.mark.parametrize("name", list(SOLVES))
def test_box_solve_equals_the_parent_step(name, monkeypatch):
    rep = SOLVES[name]()
    assert rep.converged
    with_parent_step(monkeypatch)
    ref = SOLVES[name]()
    assert rep.log_rows == ref.log_rows
    for got, want in ((rep.primal.x, ref.primal.x),
                      (rep.primal.stacked(), ref.primal.stacked()),
                      (rep.dual.zz, ref.dual.zz), (rep.dual.y, ref.dual.y),
                      (rep.dual.ybar, ref.dual.ybar)):
        assert got.tobytes() == want.tobytes()


CONE_SOLVES = {
    "two-stage": lambda: admm_solve(random_two_stage(2, 6, 2, 5, N=20,
                                                     seed=1, quad_eps=0.1)),
    "lp": lambda: admm_solve(random_two_stage(2, 6, 2, 5, N=20, seed=2)),
    "sdp": lambda: admm_solve(random_sdp(2, 3, 2, 3, N=3, seed=1)),
    "sdp-classic": lambda: admm_solve(random_sdp(2, 3, 2, 3, N=3, seed=1),
                                      SolverConfig(tau=1.618)),
    "sdp-alm": lambda: alm_solve(random_sdp(2, 3, 2, 3, N=3, seed=1)),
    "lp-ssn": lambda: admm_solve(random_two_stage(2, 6, 2, 5, N=20, seed=1),
                                 SolverConfig(tau=1.618, ssn="on")),
}


@pytest.mark.parametrize("name", list(CONE_SOLVES))
def test_cone_solve_tracks_the_parent_step(name, monkeypatch):
    """On cones the step differs from Moreau's form with sigma in the last
    bits only: the same iteration count and status, and points within
    rounding of each other."""
    rep = CONE_SOLVES[name]()
    with_parent_step(monkeypatch)
    ref = CONE_SOLVES[name]()
    assert (rep.status, rep.iterations) == (ref.status, ref.iterations)
    for got, want in ((rep.primal.stacked(), ref.primal.stacked()),
                      (rep.primal.x, ref.primal.x),
                      (rep.dual.zz, ref.dual.zz)):
        assert np.allclose(got, want, rtol=1e-10,
                           atol=1e-10 * np.abs(want).max())
    assert rep.obj_p == pytest.approx(ref.obj_p, rel=1e-10)
