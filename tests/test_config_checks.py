"""Solver configs that can never converge are refused up front with a
:class:`ParameterError` (CLI exit 2), instead of running to ``MaxIter``."""

import math

import pytest

from dbasolve.builders import random_sdp, random_two_stage
from dbasolve.cli import main
from dbasolve.errors import ParameterError, StrategyPrecondition
from dbasolve.io import write_problem
from dbasolve.pha import PhaConfig, pha_solve
from dbasolve.solvers import SolverConfig, admm_solve, alm_solve

BAD_SOLVER_FIELDS = {
    "tol_kkt-negative": {"tol_kkt": -1.0},
    "tol_kkt-zero": {"tol_kkt": 0.0},
    "tol_kkt-nan": {"tol_kkt": math.nan},
    "tol_gap-zero": {"tol_gap": 0.0},
    "tol_gap-negative": {"tol_gap": -1e-4},
    "tol_gap-nan": {"tol_gap": math.nan},
    "ssn-unknown": {"ssn": "maybe"},
    "log_every-negative": {"log_every": -3},
}


@pytest.mark.parametrize("solve", [admm_solve, alm_solve],
                         ids=["admm", "alm"])
@pytest.mark.parametrize("name", list(BAD_SOLVER_FIELDS))
def test_solver_config_refused(name, solve):
    prob = random_sdp(2, 3, 2, 3, N=3, seed=1)
    field = next(iter(BAD_SOLVER_FIELDS[name]))
    with pytest.raises(ParameterError, match=field):
        solve(prob, SolverConfig(max_iter=5, **BAD_SOLVER_FIELDS[name]))


@pytest.mark.parametrize("fields", [
    {"tol_kkt": math.inf, "tol_gap": math.inf}, {"ssn": "on"},
    {"ssn": "off"}, {"log_every": 0}, {"log_every": 7}])
def test_solver_config_accepted(fields):
    rep = admm_solve(random_sdp(2, 3, 2, 3, N=3, seed=1),
                     SolverConfig(max_iter=3, **fields))
    assert rep.iterations <= 3


def test_infinite_tolerances_stop_at_the_first_full_check():
    rep = admm_solve(random_sdp(2, 3, 2, 3, N=3, seed=1),
                     SolverConfig(tol_kkt=math.inf, tol_gap=math.inf))
    assert rep.converged and rep.iterations == 1


def test_unknown_strategy_still_a_strategy_error():
    with pytest.raises(StrategyPrecondition):
        admm_solve(random_sdp(2, 3, 2, 3, N=3, seed=1),
                   SolverConfig(strategy="nope"))


@pytest.mark.parametrize("fields", [
    {"tol_nonant": -1.0}, {"tol_nonant": 0.0}, {"tol_nonant": math.nan},
    {"tol_rel": -1.0}, {"tol_rel": 0.0}, {"tol_rel": math.nan}],
    ids=lambda f: "%s=%s" % next(iter(f.items())))
def test_pha_config_refused(fields):
    with pytest.raises(ParameterError, match=next(iter(fields))):
        PhaConfig(**fields)


def test_pha_config_accepted():
    prob = random_two_stage(2, 4, 2, 4, N=3, seed=1, quad_eps=0.1)
    rep = pha_solve(prob, PhaConfig(rho=10.0, tol_nonant=1e-3, tol_rel=1e-3))
    assert rep.converged


@pytest.fixture
def sdp_file(tmp_path):
    path = tmp_path / "sdp.json"
    write_problem(random_sdp(2, 3, 2, 3, N=3, seed=1), str(path))
    return str(path)


@pytest.mark.parametrize("flags", [
    ["--tol-kkt", "-1"], ["--tol-kkt", "-1", "--max-iter", "200"],
    ["--tol-kkt", "nan"], ["--tol-kkt", "0"], ["--tol-gap", "0"],
    ["--tol-gap", "nan"], ["--log-every", "-3"],
    ["--solver", "sgs-alm", "--tol-kkt", "-1"],
    ["--solver", "pha", "--tol-kkt", "-1"],
    ["--solver", "pha", "--tol-kkt", "nan"]],
    ids=lambda f: " ".join(f))
def test_cli_refuses_with_exit_two(sdp_file, tmp_path, capsys, flags):
    out = tmp_path / "run"
    assert main(["solve", sdp_file, "--out", str(out)] + flags) == 2
    assert "invalid parameters" in capsys.readouterr().err
    # nothing is written for a refused config
    assert not (tmp_path / "run.summary.json").exists()


def test_cli_unknown_ssn_is_an_argument_error(sdp_file, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["solve", sdp_file, "--out", str(tmp_path / "r"),
              "--ssn", "maybe"])
    assert exc.value.code == 2


def test_cli_compare_records_a_refused_config(sdp_file, tmp_path, capsys):
    assert main(["compare", sdp_file, "--solvers", "sgs-admm",
                 "--tol-kkt", "-1"]) == 0
    assert "ParameterError: tol_kkt must be positive" in \
        capsys.readouterr().out
