"""The scenario rows' primal residue after an exact ybar solve.

Every sweep ends on the ybar solve, whose optimality condition is
``W (xx + sigma (SS - c|cbar)) = bbar`` when the M solve applies
``(W W*)^{-1}`` (``MSolver.exact``).  The new point's residue is then
``(1 - tau)`` times the sweep input's, and the loop carries it by that
recurrence instead of a ``W`` product on every row: 0 under the Halpern
step.  These tests check the derived value against the product on every
row, and that the iterates, reports and statuses are bit for bit those of a
run that computes every residue (``exact`` patched to False)."""

import numpy as np
import pytest

import dbasolve.model as model
import dbasolve.msolver as msolver
import dbasolve.solvers as solvers
from dbasolve import (PhaConfig, SolverConfig, admm_solve, alm_solve,
                      build_ufl_dnn, pha_solve, random_sdp, random_two_stage,
                      random_ufl)
from dbasolve.msolver import MSolver, build_msolver
from dbasolve.solvers import LOG_COLUMNS, SolveSetup, solve_setup

from conftest import compose_nothing, make_free_qp, make_two_scenario_lp

PBAR = LOG_COLUMNS.index("eta_Pbar")
FULL = LOG_COLUMNS.index("eta")
LINEAR = [LOG_COLUMNS.index(c) for c in ("eta_P", "eta_D", "eta_Pbar",
                                         "eta_Dbar")]
CLASSIC = 1.618
ALM_CLASSIC = 1.9


def ts3():
    return random_two_stage(2, 4, 2, 4, N=3, seed=1, quad_eps=0.1)


def unscaled(problem, cfg):
    """``admm_solve`` on a setup built at scale 1."""
    return admm_solve(problem, cfg, setup=solve_setup(problem, cfg))


def halpern_smw(monkeypatch):
    # auto resolves to smw here, at stage scale 1
    return admm_solve(build_ufl_dnn(random_ufl(4, 20, seed=1)))


def halpern_chol(monkeypatch):
    compose_nothing(monkeypatch)
    return unscaled(ts3(), SolverConfig())


def halpern_composed(monkeypatch):
    return unscaled(ts3(), SolverConfig())


def halpern_scaled(monkeypatch):
    return admm_solve(random_two_stage(2, 6, 2, 5, N=20, seed=1,
                                       quad_eps=0.1))


def classic_composed(monkeypatch):
    return admm_solve(make_free_qp(), SolverConfig(tau=CLASSIC))


def classic_chol(monkeypatch):
    compose_nothing(monkeypatch)
    return admm_solve(ts3(), SolverConfig(tau=CLASSIC))


def alm_lp(monkeypatch, tau=ALM_CLASSIC):
    return alm_solve(make_two_scenario_lp(), SolverConfig(tau=tau))


def alm_sdp(monkeypatch, tau=ALM_CLASSIC):
    return alm_solve(random_sdp(2, 3, 2, 3, N=3, seed=1),
                     SolverConfig(tau=tau))


def pha_bundle(monkeypatch):
    # every outer iteration after the first warm-starts its bundle solve
    return pha_solve(ts3(), PhaConfig(rho=10.0))


EXACT = {
    "halpern-smw": halpern_smw,
    "halpern-chol": halpern_chol,
    "halpern-composed": halpern_composed,
    "halpern-scaled": halpern_scaled,
    "classic-composed": classic_composed,
    "classic-chol": classic_chol,
    "alm-lp": alm_lp,
    "alm-sdp": alm_sdp,
    "halpern-alm-lp": lambda mp: alm_lp(mp, tau=None),
    "halpern-alm-sdp": lambda mp: alm_sdp(mp, tau=None),
    "pha-bundle": pha_bundle,
}


@pytest.fixture
def derived(monkeypatch):
    """Check every derived ``eta_Pbar`` against the product at its point;
    returns the list of ``(derived, computed)`` pairs, one per row that
    took the recurrence."""
    seen = []
    joint = model.joint_linear_residues

    def checked(problem, xx, d_res, d_res_bar, denoms, pbar=None):
        lin = joint(problem, xx, d_res, d_res_bar, denoms, pbar=pbar)
        if pbar is not None:
            want = model.scenario_primal_residue(problem, xx, denoms[2])
            assert abs(pbar - want) <= 1e-12, (len(seen), pbar, want)
            seen.append((pbar, want))
        return lin

    monkeypatch.setattr(solvers, "joint_linear_residues", checked)
    return seen


@pytest.mark.parametrize("name", EXACT)
def test_derived_residue_is_the_product(name, derived, monkeypatch):
    report = EXACT[name](monkeypatch)
    assert report.converged
    assert derived, "no row took the recurrence"
    if name == "pha-bundle":
        return      # its rows are the outer iterations
    # every row of an exact solve takes it, and a Halpern row's is 0
    assert len(derived) == report.iterations
    if name.startswith("halpern"):
        assert all(d == 0.0 for d, _ in derived)
    else:
        assert any(d > 0.0 for d, _ in derived)


def without_derivation(monkeypatch, run):
    """``run`` with every residue computed by its product."""
    with monkeypatch.context() as mp:
        mp.setattr(MSolver, "exact", False)
        return run(mp)


def assert_same_solve(a, b):
    """Points, certificates, objectives, sigma, status and counts equal."""
    assert (a.status, a.iterations, a.sigma) == (b.status, b.iterations,
                                                 b.sigma)
    assert a.kkt == b.kkt
    assert (a.obj_p, a.obj_d) == (b.obj_p, b.obj_d)
    pa, pb, da, db = a.primal, b.primal, a.dual, b.dual
    assert pa.x.tobytes() == pb.x.tobytes()
    assert [x.tobytes() for x in pa.xbar] == [x.tobytes() for x in pb.xbar]
    for name in ("y", "ybar", "z", "zbar", "v", "vbar"):
        assert getattr(da, name).tobytes() == getattr(db, name).tobytes(), \
            name


def assert_logs_differ_in_derived_cells(a, b):
    """Rows equal but for the derived ``eta_Pbar`` of rows the full check
    skipped, which agree with the product within 1e-12."""
    assert len(a.log_rows) == len(b.log_rows)
    for ra, rb in zip(a.log_rows, b.log_rows):
        if ra[FULL] is not None:
            assert ra == rb
            continue
        assert ra[:PBAR] + ra[PBAR + 1:] == rb[:PBAR] + rb[PBAR + 1:]
        assert abs(ra[PBAR] - rb[PBAR]) <= 1e-12


@pytest.mark.parametrize("name", EXACT)
def test_bit_for_bit_with_the_computed_residue(name, monkeypatch):
    new = EXACT[name](monkeypatch)
    old = without_derivation(monkeypatch, EXACT[name])
    assert_same_solve(new, old)
    if name == "pha-bundle":
        # the outer rows check the averaged point in full
        assert new.log_rows == old.log_rows
    else:
        assert_logs_differ_in_derived_cells(new, old)


def test_exact_per_strategy(monkeypatch):
    problem = ts3()
    assert build_msolver(problem, "chol").exact
    assert build_msolver(problem, "smw").exact
    assert not build_msolver(problem, "chol",
                             jbar=0.5 * np.eye(problem.mbar)).exact
    monkeypatch.setattr(msolver, "_G_CHOL_DIM", 0)
    pcg = build_msolver(problem, "smw")
    assert pcg.reads_tol and not pcg.exact


def jbar_chol(monkeypatch, tau=None):
    problem = ts3()
    cfg = SolverConfig(tau=tau)
    setup = SolveSetup(
        build_msolver(problem, "chol", jbar=0.5 * np.eye(problem.mbar)),
        solvers._AFactor(problem.A), 1.0, problem)
    return admm_solve(problem, cfg, setup=setup)


def pcg_smw(monkeypatch):
    monkeypatch.setattr(msolver, "_G_CHOL_DIM", 0)
    return admm_solve(ts3(), SolverConfig(strategy="smw"))


COMPUTED = {
    "chol-jbar": jbar_chol,
    "pcg-smw": pcg_smw,
    "classic-chol-jbar": lambda mp: jbar_chol(mp, tau=CLASSIC),
}


@pytest.mark.parametrize("name", COMPUTED)
def test_inexact_solves_compute_every_row(name, derived, monkeypatch):
    run = COMPUTED[name]
    new = run(monkeypatch)
    assert new.converged
    assert derived == []
    old = without_derivation(monkeypatch, run)
    assert_same_solve(new, old)
    assert repr(new.log_rows) == repr(old.log_rows)


MAXITER = {
    "halpern": lambda mp, n: unscaled(ts3(), SolverConfig(max_iter=n)),
    "halpern-scaled": lambda mp, n: admm_solve(ts3(),
                                               SolverConfig(max_iter=n)),
    "classic": lambda mp, n: admm_solve(ts3(), SolverConfig(tau=CLASSIC,
                                                            max_iter=n)),
    "alm": lambda mp, n: alm_solve(make_two_scenario_lp(),
                                   SolverConfig(tau=ALM_CLASSIC, max_iter=n)),
    "halpern-alm": lambda mp, n: alm_solve(make_two_scenario_lp(),
                                           SolverConfig(max_iter=n)),
}


@pytest.mark.parametrize("max_iter", [1, 2, 20])
@pytest.mark.parametrize("name", MAXITER)
def test_max_iter_exit_rewrites_the_last_row(name, max_iter, derived,
                                             monkeypatch):
    run = MAXITER[name]
    new = run(monkeypatch, max_iter)
    assert (new.status, new.iterations) == ("MaxIter", max_iter)
    last = new.log_rows[-1]
    assert last[FULL] is None
    assert [last[i] for i in LINEAR] == [
        getattr(new.kkt, LOG_COLUMNS[i]) for i in LINEAR]
    old = without_derivation(monkeypatch, lambda mp: run(mp, max_iter))
    assert_same_solve(new, old)
    assert new.log_rows[-1] == old.log_rows[-1]
    assert_logs_differ_in_derived_cells(new, old)


@pytest.fixture
def products(monkeypatch):
    """The calls of the loop's ``W`` product, one entry each."""
    calls = []
    product = solvers.scenario_primal_residue

    def counted(*args):
        calls.append(1)
        return product(*args)

    monkeypatch.setattr(solvers, "scenario_primal_residue", counted)
    return calls


def test_no_iteration_takes_no_product(products):
    report = admm_solve(ts3(), SolverConfig(tau=CLASSIC, max_iter=0))
    assert (report.iterations, report.kkt, products) == (0, None, [])


@pytest.mark.parametrize("tau, start", [(None, 0), (CLASSIC, 1)],
                         ids=["halpern", "classic"])
def test_products_at_the_start_and_on_passing_rows(tau, start, products):
    """The classic step reads the start point's residue once; the Halpern
    step needs none, and a row takes the product only when the other
    three linear residues pass ``tol_kkt``."""
    cfg = SolverConfig(tau=tau)
    report = unscaled(ts3(), cfg)
    checked = sum(max(row[i] for i in LINEAR if i != PBAR) <= cfg.tol_kkt
                  for row in report.log_rows)
    assert report.converged and checked >= 1
    assert len(products) == start + checked
