"""Lazy certification: every iteration computes the four linear residues,
the full KKT residue only when all of them pass ``tol_kkt``."""

import numpy as np
import pytest

import dbasolve.solvers as solvers
from dbasolve.builders import random_sdp
from dbasolve.model import DBAProblem, ScenarioBlock, kkt_residues
from dbasolve.proxcone import NonnegOrthant, Zero
from dbasolve.solvers import LOG_COLUMNS, SolverConfig, admm_solve, alm_solve

from conftest import make_free_qp, make_two_scenario_lp

LINEAR = [LOG_COLUMNS.index(c) for c in ("eta_P", "eta_D", "eta_Pbar", "eta_Dbar")]
LAZY = [LOG_COLUMNS.index(c) for c in ("eta_K", "eta_theta", "eta_Kbar",
                                       "eta_thetabar", "eta", "eta_gap",
                                       "obj_P", "obj_D")]


def small_sdp():
    return random_sdp(2, 3, 2, 3, N=3, seed=2)


# (solver, instance, step length, stop iteration, status, report.kkt) as
# computed with a full KKT evaluation on every iteration; ADMM with tau=1.618
# runs the classic multiplier step, without a step length the Halpern step
# (in the stage-scaled variables)
CLASSIC = 1.618
PINNED = [
    (admm_solve, make_two_scenario_lp, CLASSIC, 76, "Converged", dict(
        eta_P=9.256692165227065e-06, eta_D=3.260758724727181e-06,
        eta_K=2.4191116434826307e-06, eta_theta=0.0,
        eta_Pbar=2.367783793992493e-16, eta_Dbar=9.849544618065713e-06,
        eta_Kbar=3.1776350702402565e-06, eta_thetabar=0.0,
        eta=9.849544618065713e-06, eta_gap=2.914720845774868e-07)),
    (alm_solve, make_two_scenario_lp, None, 116, "Converged", dict(
        eta_P=3.1682076148120686e-06, eta_D=6.046067093073228e-06,
        eta_K=1.3919845145576119e-06, eta_theta=0.0,
        eta_Pbar=3.7555536503595916e-06, eta_Dbar=9.171993390688882e-06,
        eta_Kbar=5.679298609870764e-07, eta_thetabar=0.0,
        eta=9.171993390688882e-06, eta_gap=3.975446623139448e-06)),
    (admm_solve, make_free_qp, CLASSIC, 43, "Converged", dict(
        eta_P=9.754405472708122e-06, eta_D=3.3123276429023414e-06,
        eta_K=0.0, eta_theta=1.855407288038756e-07,
        eta_Pbar=6.819763649688599e-10, eta_Dbar=4.924565659800795e-06,
        eta_Kbar=0.0, eta_thetabar=8.659804649686131e-08,
        eta=9.754405472708122e-06, eta_gap=1.600700746400157e-06)),
    (admm_solve, small_sdp, CLASSIC, 2225, "Converged", dict(
        eta_P=9.839308768145958e-06, eta_D=2.2943065017697696e-07,
        eta_K=2.587742252762992e-06, eta_theta=0.0,
        eta_Pbar=1.1101026685248462e-15, eta_Dbar=2.1493240189761796e-06,
        eta_Kbar=3.3971884733680404e-07, eta_thetabar=0.0,
        eta=9.839308768145958e-06, eta_gap=4.063886575537888e-06)),
    (alm_solve, small_sdp, None, 2211, "Converged", dict(
        eta_P=9.838324208657511e-06, eta_D=1.0563289850325711e-07,
        eta_K=1.2361165645852403e-06, eta_theta=0.0,
        eta_Pbar=2.138677804825515e-15, eta_Dbar=5.141993031643912e-06,
        eta_Kbar=3.458765464733354e-07, eta_thetabar=0.0,
        eta=9.838324208657511e-06, eta_gap=6.257772080556116e-05)),
    (admm_solve, make_two_scenario_lp, None, 32, "Converged", dict(
        eta_P=7.937989467410311e-06, eta_D=4.766314651543062e-06,
        eta_K=3.7198073360801203e-06, eta_theta=0.0,
        eta_Pbar=1.0523483528855525e-16, eta_Dbar=9.125376490334083e-06,
        eta_Kbar=3.977035247593856e-06, eta_thetabar=0.0,
        eta=9.125376490334083e-06, eta_gap=2.173222687888691e-06)),
    (admm_solve, make_free_qp, None, 33, "Converged", dict(
        eta_P=2.461966666092034e-06, eta_D=7.605578475377697e-06,
        eta_K=0.0, eta_theta=3.052119792201608e-08,
        eta_Pbar=2.103257635560098e-15, eta_Dbar=7.774097813778045e-06,
        eta_Kbar=1.2283911748049275e-16, eta_thetabar=2.2280437597419742e-07,
        eta=7.774097813778045e-06, eta_gap=7.55592298467295e-08)),
    (admm_solve, small_sdp, None, 820, "Converged", dict(
        eta_P=9.762023057854024e-06, eta_D=9.727077489703232e-08,
        eta_K=2.14155828171395e-06, eta_theta=0.0,
        eta_Pbar=2.327339931057489e-15, eta_Dbar=2.6836312344583266e-06,
        eta_Kbar=6.218864991137704e-07, eta_thetabar=0.0,
        eta=9.762023057854024e-06, eta_gap=3.5101565263779355e-05)),
]


def check_log(report, cfg):
    """Rows with empty lazy cells could not be certified; the rest carry
    every column."""
    for row in report.log_rows:
        lazy = [row[i] for i in LAZY]
        lin_max = max(row[i] for i in LINEAR)
        if any(v is None for v in lazy):
            assert all(v is None for v in lazy)
            assert lin_max > cfg.tol_kkt
        else:
            assert lin_max <= cfg.tol_kkt
            assert row[LOG_COLUMNS.index("eta")] >= lin_max


@pytest.mark.parametrize("solve, build, tau, iters, status, kkt", PINNED,
                         ids=["admm-lp", "alm-lp", "admm-qp", "admm-sdp",
                              "alm-sdp", "halpern-lp", "halpern-qp",
                              "halpern-sdp"])
def test_stop_and_certificate_unchanged(solve, build, tau, iters, status,
                                        kkt):
    problem = build()
    cfg = SolverConfig(tau=tau)
    report = solve(problem, cfg)
    assert (report.iterations, report.status) == (iters, status)
    for key, value in kkt.items():
        assert getattr(report.kkt, key) == pytest.approx(value, rel=1e-6,
                                                         abs=1e-12), key
    check_log(report, cfg)
    assert all(v is not None for v in report.log_rows[-1])
    assert report.kkt == kkt_residues(problem, report.primal, report.dual)


# the Halpern step converges at 30 iterations on this problem
@pytest.mark.parametrize("solve, tau, max_iter", [
    (admm_solve, CLASSIC, 30), (alm_solve, None, 30), (admm_solve, None, 29)],
    ids=["admm_solve", "alm_solve", "halpern"])
def test_max_iter_exit_certifies_the_last_iterate(solve, tau, max_iter):
    problem = make_two_scenario_lp()
    cfg = SolverConfig(tau=tau, max_iter=max_iter)
    report = solve(problem, cfg)
    assert (report.status, report.iterations) == ("MaxIter", max_iter)
    check_log(report, cfg)
    assert report.log_rows[-1][LAZY[0]] is None
    assert report.kkt == kkt_residues(problem, report.primal, report.dual)
    assert report.kkt.eta > cfg.tol_kkt
    # the returned point is the one the last row's residues were taken at
    assert [report.log_rows[-1][i] for i in LINEAR] == [
        getattr(report.kkt, LOG_COLUMNS[i]) for i in LINEAR]


def test_full_check_runs_only_on_passing_rows(monkeypatch):
    calls = []
    full = solvers.kkt_full

    def counted(*args, **kwargs):
        calls.append(1)
        return full(*args, **kwargs)

    monkeypatch.setattr(solvers, "kkt_full", counted)
    report = admm_solve(make_two_scenario_lp(), SolverConfig())
    assert report.converged
    certified = sum(row[LAZY[0]] is not None for row in report.log_rows)
    assert len(calls) == certified < report.iterations


def check_stall(tau, iters):
    # x, xbar >= 0 with x + xbar = -1 has no feasible point: the primal
    # residue levels off while the dual iterate diverges
    problem = DBAProblem(None, None, [1.0], NonnegOrthant(1), Zero(1), [
        ScenarioBlock([[1.0]], [[1.0]], [-1.0], [1.0], NonnegOrthant(1),
                      Zero(1))])
    report = admm_solve(problem, SolverConfig(tau=tau, max_iter=20000))
    assert report.status == "Stalled"
    assert report.iterations == iters
    # the last new low came _STALL_WINDOW rows before the end, and no row
    # since improved on it by a _STALL_REL fraction
    lin = [max(row[i] for i in LINEAR) for row in report.log_rows]
    window = solvers._STALL_WINDOW
    assert lin[-window - 1] < min(lin[:-window - 1])
    assert min(lin[-window:]) >= lin[-window - 1] * (1.0 - solvers._STALL_REL)
    assert report.kkt == kkt_residues(problem, report.primal, report.dual)
    assert np.isfinite(report.kkt.eta)


def test_stall_reads_the_linear_residues():
    check_stall(CLASSIC, 2068)


def test_halpern_stall_reads_the_linear_residues():
    check_stall(None, 2009)
