"""The SolveReport contract: the ``extra`` keys, warm starts from a previous
report, and exit values taken from the last certified row instead of being
recomputed."""

import pytest

import dbasolve.pha as pha
import dbasolve.solvers as solvers
from dbasolve.builders import random_two_stage
from dbasolve.model import dual_objective, kkt_residues, primal_objective
from dbasolve.pha import PhaConfig, pha_solve
from dbasolve.solvers import SolverConfig, admm_solve, alm_solve

from conftest import make_two_scenario_lp


def two_stage():
    return random_two_stage(2, 4, 2, 4, N=3, seed=1, quad_eps=0.1)


def count_calls(monkeypatch, module, *names):
    counts = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(module, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return counts


def point_bytes(rep):
    d = rep.dual
    return ([rep.primal.x.tobytes()] + [a.tobytes() for a in rep.primal.xbar]
            + [getattr(d, f).tobytes()
               for f in ("y", "ybar", "z", "zbar", "v", "vbar")])


class TestExtra:
    @pytest.mark.parametrize("solve", [admm_solve, alm_solve])
    def test_sgs_keys(self, solve):
        rep = solve(make_two_scenario_lp(), SolverConfig(max_iter=3))
        assert set(rep.extra) == {"strategy", "stage_scale"}

    def test_pha_keys(self):
        rep = pha_solve(make_two_scenario_lp(), PhaConfig(max_iter=2))
        assert set(rep.extra) == {"nonant_residual", "rel_change",
                                  "strategy"}


class TestWarmStart:
    def test_warm_start_from_report(self):
        prob = two_stage()
        cfg = SolverConfig(tol_kkt=1e-8, tol_gap=1e-8)
        first = admm_solve(prob, cfg)
        before = point_bytes(first)
        moved = prob.with_cost(prob.c + 0.01)
        warm = admm_solve(moved, cfg, initial=first)
        cold = admm_solve(moved, cfg)
        assert point_bytes(first) == before
        assert warm.log_rows[0][11] == first.sigma
        assert warm.converged and cold.converged
        assert warm.iterations < cold.iterations

    @pytest.mark.parametrize("solve", [admm_solve, alm_solve])
    def test_set_sigma0_overrides_report_sigma(self, solve):
        prob = make_two_scenario_lp()
        first = solve(prob, SolverConfig(max_iter=30))
        again = solve(prob, SolverConfig(max_iter=1, sigma0=0.25),
                      initial=first)
        assert first.sigma != 0.25 and again.log_rows[0][11] == 0.25

    def test_no_iteration_returns_copies(self):
        prob = make_two_scenario_lp()
        first = admm_solve(prob, SolverConfig(max_iter=20))
        again = admm_solve(prob, SolverConfig(max_iter=0), initial=first)
        assert point_bytes(again) == point_bytes(first)
        assert again.primal.x is not first.primal.x
        assert again.dual.ybar is not first.dual.ybar
        assert again.sigma == first.sigma


# (solve, problem builder, config, status, last row certified; None when no
# iteration runs)
SGS_CASES = [
    (admm_solve, two_stage, SolverConfig(), "Converged", True),
    (admm_solve, two_stage, SolverConfig(max_iter=37), "MaxIter", False),
    (admm_solve, two_stage, SolverConfig(max_iter=0), "MaxIter", None),
    (alm_solve, make_two_scenario_lp, SolverConfig(), "Converged", True),
    (alm_solve, make_two_scenario_lp, SolverConfig(max_iter=5), "MaxIter",
     False),
    (alm_solve, make_two_scenario_lp, SolverConfig(max_iter=0), "MaxIter",
     None),
]


class TestExitValues:
    @pytest.mark.parametrize("solve, build, cfg, status, certified",
                             SGS_CASES)
    def test_sgs_exit_not_recomputed(self, monkeypatch, solve, build, cfg,
                                     status, certified):
        prob = build()
        counts = count_calls(monkeypatch, solvers, "primal_objective",
                             "dual_objective")
        rep = solve(prob, cfg)
        assert rep.status == status
        if certified is None:
            assert rep.iterations == 0 and rep.kkt is None
            assert counts == {"primal_objective": 1, "dual_objective": 1}
        else:
            assert (rep.log_rows[-1][3] is not None) == certified
            assert counts == {"primal_objective": 0, "dual_objective": 0}
            assert rep.kkt == kkt_residues(prob, rep.primal, rep.dual)
        assert rep.obj_p == primal_objective(prob, rep.primal)
        assert rep.obj_d == dual_objective(prob, rep.dual)

    @pytest.mark.parametrize("max_iter, status",
                             [(300, "Converged"), (8, "MaxIter"),
                              (0, "MaxIter")])
    def test_pha_exit_not_recomputed(self, monkeypatch, max_iter, status):
        prob = two_stage()
        counts = count_calls(monkeypatch, pha, "kkt_residues")
        rep = pha_solve(prob, PhaConfig(rho=10.0, max_iter=max_iter))
        assert rep.status == status
        assert counts["kkt_residues"] == (0 if max_iter else 1)
        assert rep.kkt == kkt_residues(prob, rep.primal, rep.dual)
        assert rep.obj_p == primal_objective(prob, rep.primal)
        assert rep.obj_d == dual_objective(prob, rep.dual)
