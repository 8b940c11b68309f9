"""The sweep's sigma-keyed terms and its direct v step.

The loop forms the sweep's quotients by sigma (``M^-1 bbar``, ``c`` and
``A* c`` of the composed steps, ``bbar`` and ``b`` of the solve paths) and,
for a joint function that is one diagonal quadratic, ``d = 1 + sigma diag``
once per value of sigma (:class:`~dbasolve.solvers._SweepTerms`); the v step
then runs ``prox_conjugate``'s float operations without its call layers.
Neither changes a float, and the terms follow every move of sigma."""

import numpy as np
import pytest

import dbasolve.solvers as solvers
from dbasolve.builders import (build_ufl_dnn, random_sdp, random_two_stage,
                               random_ufl)
from dbasolve.proxcone import (BlockFunction, DenseQuadratic, DiagQuadratic,
                               Zero, prox_conjugate, quadratic_diag)
from dbasolve.solvers import SolverConfig, admm_solve, alm_solve

from conftest import compose_nothing, make_free_qp

SIGMAS = [1e-6, 1.0, 1e6]
DIAGS = {
    "positive": lambda rng: rng.uniform(0.1, 5.0, 9),
    "zero": lambda rng: np.zeros(9),
    "mixed": lambda rng: np.where(rng.random(9) < 0.5, 0.0,
                                  rng.uniform(1e-8, 1e8, 9)),
}


def small_two_stage():
    # one DiagQuadratic group over x|xbar
    return random_two_stage(2, 6, 2, 5, N=10, seed=1, quad_eps=0.1)


def points(rng, n):
    special = np.array([0.0, -0.0, 1e-300, -1e300, 1.0, -1.0, 3e-17, 7.0,
                        -2.5])
    return [rng.normal(size=n), 1e8 * rng.normal(size=n),
            1e-9 * rng.normal(size=n), special[:n]]


@pytest.mark.parametrize("sigma", SIGMAS)
@pytest.mark.parametrize("kind", sorted(DIAGS))
@pytest.mark.parametrize("form", ["diag", "blocks"])
def test_direct_v_step_equals_prox_conjugate(kind, sigma, form):
    rng = np.random.default_rng(3)
    diag = DIAGS[kind](rng)
    f = DiagQuadratic(diag)
    if form == "blocks":
        # blocks of one kind merge into one group, as in a joint function
        f = BlockFunction([DiagQuadratic(diag[:4]), DiagQuadratic(diag[4:])])
    assert np.array_equal(quadratic_diag(f), diag)
    d = 1.0 + sigma * diag
    for r in points(rng, diag.size):
        before = r.copy()
        want = -prox_conjugate(f, sigma, r)
        got = solvers._v_step(f, sigma, r, d)
        # bytes: signed zeros included
        assert got.tobytes() == want.tobytes()
        assert solvers._v_step(f, sigma, r).tobytes() == want.tobytes()
        assert r.tobytes() == before.tobytes()


def test_quadratic_diag_only_for_one_diagonal_group():
    ufl = build_ufl_dnn(random_ufl(4, 20, seed=1))
    # an indicator group and a diagonal one
    assert len(ufl.joint_theta.groups) == 2
    assert quadratic_diag(ufl.joint_theta) is None
    assert quadratic_diag(make_free_qp().joint_theta) is None
    assert quadratic_diag(DenseQuadratic(np.eye(2))) is None
    assert quadratic_diag(BlockFunction([Zero(3)])) is None
    prob = small_two_stage()
    assert quadratic_diag(prob.joint_theta).size == prob.n0 + prob.nbar


def spy_terms(monkeypatch):
    """Record every :class:`~dbasolve.solvers._SweepTerms` the loop builds."""
    built = []

    class Spy(solvers._SweepTerms):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(solvers, "_SweepTerms", Spy)
    return built


def sigma_runs(rep):
    """The sigma of each run of equal sigmas in the log, in order."""
    sig = [row[11] for row in rep.log_rows]
    return [s for i, s in enumerate(sig) if i == 0 or s != sig[i - 1]]


SIGMA_CASES = {
    # the restart sigma moves 15 times
    "halpern-restart": lambda: admm_solve(small_two_stage()),
    # sigma_update moves it twice
    "classic-update": lambda: admm_solve(small_two_stage(),
                                         SolverConfig(tau=1.618)),
    "alm": lambda: alm_solve(random_sdp(2, 3, 2, 3, N=3, seed=1)),
    "ufl-halpern": lambda: admm_solve(build_ufl_dnn(random_ufl(4, 20,
                                                               seed=1))),
    "sigma-fixed": lambda: admm_solve(small_two_stage(),
                                      SolverConfig(sigma_fixed=True,
                                                   max_iter=300)),
    "sigma-fixed-classic": lambda: admm_solve(
        small_two_stage(), SolverConfig(sigma_fixed=True, tau=1.618,
                                        max_iter=300)),
}


@pytest.mark.parametrize("case", sorted(SIGMA_CASES))
def test_terms_rebuilt_exactly_when_sigma_moves(monkeypatch, case):
    built = spy_terms(monkeypatch)
    rep = SIGMA_CASES[case]()
    runs = sigma_runs(rep)
    assert [t.sigma for t in built] == runs
    if case.startswith("sigma-fixed"):
        assert len(built) == 1
    else:
        assert len(built) > 1


def test_terms_are_the_quotients_at_their_sigma(monkeypatch):
    # composed (mb, c, q) and solve-path (bbar, b) terms, each the quotient
    # the sweep formed before, with d for the diagonal joint function
    built = spy_terms(monkeypatch)
    prob = small_two_stage()
    for compose in (True, False):
        del built[:]
        with monkeypatch.context() as patch:
            if not compose:
                compose_nothing(patch)
            setup = solvers.solve_setup(prob, SolverConfig(tau=1.618))
            admm_solve(prob, SolverConfig(tau=1.618), setup=setup)
        mb, c, q = setup.rhs_memo[2]
        diag = quadratic_diag(prob.joint_theta)
        assert len(built) > 1
        for t in built:
            s = t.sigma
            if compose:
                assert (t.bbar, t.b) == (None, None)
                for got, want in ((t.mb, mb), (t.c, c), (t.q, q)):
                    assert np.array_equal(got, want / s)
            else:
                assert (t.mb, t.c, t.q) == (None, None, None)
                assert np.array_equal(t.bbar, prob.bbar / s)
                assert np.array_equal(t.b, prob.b / s)
            assert np.array_equal(t.d, 1.0 + s * diag)


def count_prox_conjugate(monkeypatch):
    calls = []
    orig = solvers.prox_conjugate

    def counted(*args):
        calls.append(1)
        return orig(*args)

    monkeypatch.setattr(solvers, "prox_conjugate", counted)
    return calls


@pytest.mark.parametrize("tau", [None, 1.618], ids=["halpern", "classic"])
@pytest.mark.parametrize("name, generic", [
    ("two-stage", False),
    # an indicator group next to the diagonal one: the v step runs group
    # by group, without prox_conjugate
    ("ufl-dnn", False),
    ("dense-quadratic", True)])
def test_generic_v_step_runs_where_theta_is_not_one_diagonal(
        monkeypatch, name, generic, tau):
    build = {"two-stage": small_two_stage,
             "ufl-dnn": lambda: build_ufl_dnn(random_ufl(4, 20, seed=1)),
             "dense-quadratic": make_free_qp}[name]
    calls = count_prox_conjugate(monkeypatch)
    rep = admm_solve(build(), SolverConfig(tau=tau))
    assert rep.converged
    # one v step per sweep
    assert len(calls) == (rep.iterations if generic else 0)


@pytest.mark.parametrize("tau", [None, 1.618], ids=["halpern", "classic"])
def test_direct_and_generic_v_steps_solve_alike(monkeypatch, tau):
    # the whole solve, sigma moving, with and without the direct v step
    prob = small_two_stage()
    cfg = SolverConfig(tau=tau)
    direct = admm_solve(prob, cfg)
    calls = count_prox_conjugate(monkeypatch)
    monkeypatch.setattr(solvers, "quadratic_diag", lambda f: None)
    generic = admm_solve(prob, cfg)
    assert len(calls) == generic.iterations
    assert len(set(sigma_runs(direct))) > 1
    assert direct.log_rows == generic.log_rows
    for a, b in ((direct.primal.xx, generic.primal.xx),
                 (direct.dual.zz, generic.dual.zz),
                 (direct.dual.vv, generic.dual.vv),
                 (direct.dual.ybar, generic.dual.ybar)):
        assert a.tobytes() == b.tobytes()
