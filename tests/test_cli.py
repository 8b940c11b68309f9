import json
import os

import numpy as np
import pytest

from dbasolve import io
from dbasolve.builders import random_qp, random_two_stage
from dbasolve.cli import main
from dbasolve.errors import ParseError
from dbasolve.solvers import SolverConfig, admm_solve

from conftest import make_two_scenario_lp


@pytest.fixture
def lp_file(tmp_path):
    path = tmp_path / "lp.json"
    io.write_problem(make_two_scenario_lp(), str(path))
    return str(path)


class TestRoundTrip:
    def test_write_parse_write_byte_identical(self, tmp_path):
        for prob in (make_two_scenario_lp(), random_qp(4, 8, 4, 8, 2, 1),
                     random_two_stage(2, 6, 3, 6, 2, 2)):
            p1 = tmp_path / "a.json"
            p2 = tmp_path / "b.json"
            io.write_problem(prob, str(p1))
            io.write_problem(io.read_problem(str(p1)), str(p2))
            assert p1.read_bytes() == p2.read_bytes()

    def test_solution_roundtrip(self, tmp_path):
        prob = make_two_scenario_lp()
        rep = admm_solve(prob, SolverConfig(max_iter=5))
        path = tmp_path / "sol.json"
        io.write_solution(prob, rep.primal, rep.dual, str(path))
        primal, dual = io.read_solution(str(path))
        assert np.array_equal(primal.x, rep.primal.x)
        assert np.array_equal(dual.ybar, rep.dual.ybar)

    def test_malformed_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ParseError):
            io.read_problem(str(bad))

    def test_missing_field_named(self, tmp_path):
        doc = io.problem_to_dict(make_two_scenario_lp())
        del doc["scenarios"][1]["bbar"]
        bad = tmp_path / "bad.json"
        bad.write_text(io.dumps(doc))
        with pytest.raises(ParseError, match="scenario 1"):
            io.read_problem(str(bad))


class TestCmdSolve:
    def test_toy_lp_exit_zero(self, lp_file, tmp_path, capsys):
        out = str(tmp_path / "run")
        code = main(["solve", lp_file, "--out", out])
        assert code == 0
        assert "Converged" in capsys.readouterr().out
        summary = json.loads(open(out + ".summary.json").read())
        assert summary["status"] == "Converged"
        assert summary["kkt"]["eta"] <= 1e-5
        assert os.path.exists(out + ".solution.json")
        assert os.path.exists(out + ".iters.csv")
        header = open(out + ".iters.csv").readline().strip().split(",")
        assert header[:3] == ["k", "eta_P", "eta_D"]

    def test_malformed_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{]")
        assert main(["solve", str(bad)]) == 2

    def test_step_length_out_of_range_exit_two(self, lp_file, tmp_path,
                                               capsys):
        code = main(["solve", lp_file, "--tau", "5",
                     "--out", str(tmp_path / "r")])
        assert code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.count("\n") == 1 and "step length" in err

    def test_unknown_strategy_exit_two(self, lp_file, tmp_path, capsys):
        # the choices are auto plus msolver.STRATEGIES, which has no shared
        with pytest.raises(SystemExit) as exc:
            main(["solve", lp_file, "--strategy", "shared",
                  "--out", str(tmp_path / "r")])
        assert exc.value.code == 2
        assert "invalid choice: 'shared'" in capsys.readouterr().err

    def test_retired_strategy_exit_two(self, lp_file, tmp_path, capsys):
        # block-diag and smw-diag were retired; argparse refuses them
        with pytest.raises(SystemExit) as exc:
            main(["solve", lp_file, "--strategy", "block-diag",
                  "--out", str(tmp_path / "r")])
        assert exc.value.code == 2
        assert "invalid choice: 'block-diag'" in capsys.readouterr().err

    @pytest.mark.parametrize("solver", ["sgs-admm", "sgs-alm"])
    @pytest.mark.parametrize("flag", [("--sigma", "0"), ("--sigma", "-1"),
                                      ("--sigma", "nan"), ("--sigma", "inf"),
                                      ("--max-iter", "-4")])
    def test_bad_sigma_or_max_iter_exit_two(self, lp_file, tmp_path, capsys,
                                            solver, flag):
        code = main(["solve", lp_file, "--solver", solver, *flag,
                     "--out", str(tmp_path / "r")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid parameters: ") and err.count("\n") == 1

    @pytest.mark.parametrize("solver", ["sgs-admm", "sgs-alm", "pha"])
    def test_non_finite_data_exit_two(self, tmp_path, capsys, solver):
        doc = io.problem_to_dict(make_two_scenario_lp())
        doc["first_stage"]["c"][0] = float("nan")
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps(doc))
        code = main(["solve", str(bad), "--solver", solver,
                     "--out", str(tmp_path / "r")])
        assert code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err == "invalid data: NaN or Inf in c\n"

    @pytest.mark.parametrize("edit, message", [
        ("dense_quad", "NaN or Inf in dense quadratic Q"),
        ("diag_quad", "NaN or Inf in diagonal quadratic"),
        ("box", "NaN in box bounds")])
    def test_non_finite_objective_or_box_exit_two(self, tmp_path, capsys,
                                                  edit, message):
        if edit == "diag_quad":
            prob = random_two_stage(2, 6, 3, 6, 2, 2, quad_eps=0.1)
        else:
            prob = random_qp(4, 8, 4, 8, 2, 1)
        doc = io.problem_to_dict(prob)
        fs = doc["first_stage"]
        if edit == "dense_quad":
            fs["theta"]["lower"][1] = float("nan")
        elif edit == "diag_quad":
            fs["theta"]["diag"][0] = float("nan")
        else:
            fs["cone"] = {"type": "box", "lower": [0.0] * 7 + [float("nan")],
                          "upper": [None] * 8}
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps(doc))
        code = main(["solve", str(bad), "--out", str(tmp_path / "r")])
        assert code == 2
        assert capsys.readouterr().err == "invalid data: %s\n" % message

    def test_dense_quad_packed_length_is_a_parse_error(self, tmp_path,
                                                       capsys):
        doc = io.problem_to_dict(random_qp(4, 8, 4, 8, 2, 1))
        doc["scenarios"][0]["theta"]["lower"].pop()
        bad = tmp_path / "short.json"
        bad.write_text(json.dumps(doc))
        code = main(["solve", str(bad), "--out", str(tmp_path / "r")])
        assert code == 2
        assert capsys.readouterr().err == (
            "parse error: scenario 0.theta.lower has shape (35,), "
            "dim 8 needs (36,)\n")

    @pytest.mark.parametrize("field", [
        "first_stage.c", "first_stage.b", "scenario 1.cbar",
        "scenario 1.bbar", "first_stage.theta.diag", "scenario 0.theta.diag",
        "first_stage.cone.lower", "first_stage.cone.upper"])
    def test_non_numeric_entry_is_a_parse_error(self, tmp_path, capsys,
                                                field):
        # a string where a number belongs names its field, exit 2
        doc = io.problem_to_dict(random_two_stage(2, 6, 3, 6, 2, 2,
                                                  quad_eps=0.1))
        part, key = field.rsplit(".", 1)
        if part.startswith("scenario"):
            parent = doc["scenarios"][int(part.split(" ")[1].split(".")[0])]
        else:
            parent = doc["first_stage"]
        for step in part.split(".")[1:]:
            parent = parent[step]
        if key in ("lower", "upper"):
            parent.update(type="box", lower=[None] * 6, upper=[None] * 6)
            parent.pop("n")
        parent[key][1] = "a"
        bad = tmp_path / "text.json"
        bad.write_text(json.dumps(doc))
        code = main(["solve", str(bad), "--out", str(tmp_path / "r")])
        assert code == 2
        kind = "bound" if key in ("lower", "upper") else "vector"
        assert capsys.readouterr().err == (
            "parse error: bad %s in %s: could not convert string to float: "
            "'a'\n" % (kind, field))

    @pytest.mark.parametrize("value", [None, 2.0, [[1.0, 2.0]], [1.0, None]])
    def test_diag_not_a_list_of_numbers_is_a_parse_error(self, tmp_path,
                                                         capsys, value):
        # "diag": null once became a NaN array reported as invalid data
        doc = io.problem_to_dict(random_two_stage(2, 6, 3, 6, 2, 2,
                                                  quad_eps=0.1))
        doc["first_stage"]["theta"]["diag"] = value
        bad = tmp_path / "null.json"
        bad.write_text(json.dumps(doc))
        code = main(["solve", str(bad), "--out", str(tmp_path / "r")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(
            "parse error: bad vector in first_stage.theta.diag: ")
        assert err.count("\n") == 1

    def test_max_iter_one_exit_one(self, lp_file, tmp_path):
        code = main(["solve", lp_file, "--max-iter", "1",
                     "--out", str(tmp_path / "r")])
        assert code == 1

    def test_max_iter_zero_exit_one(self, lp_file, tmp_path, capsys):
        out = str(tmp_path / "r")
        assert main(["solve", lp_file, "--max-iter", "0", "--out", out]) == 1
        assert "MaxIter after 0 iterations" in capsys.readouterr().out
        summary = json.loads(open(out + ".summary.json").read())
        assert summary["status"] == "MaxIter" and summary["kkt"] is None

    def test_pha_takes_max_iter_and_sigma(self, lp_file, tmp_path, capsys):
        out = str(tmp_path / "r")
        assert main(["solve", lp_file, "--solver", "pha", "--max-iter", "1",
                     "--sigma", "5", "--out", out]) == 1
        assert "MaxIter after 1 iterations" in capsys.readouterr().out
        summary = json.loads(open(out + ".summary.json").read())
        assert summary["iterations"] == 1
        assert summary["manifest"]["config"]["max_iter"] == 1
        header, row = open(out + ".iters.csv").read().splitlines()
        assert float(row.split(",")[header.split(",").index("sigma")]) == 5.0

    @pytest.mark.parametrize("solver,cap", [("sgs-admm", 50000), ("pha", 300)])
    def test_default_max_iter_is_the_solvers_own(self, lp_file, tmp_path,
                                                 solver, cap):
        out = str(tmp_path / "r")
        assert main(["solve", lp_file, "--solver", solver, "--out", out]) == 0
        summary = json.loads(open(out + ".summary.json").read())
        assert summary["manifest"]["config"]["max_iter"] == cap

    @pytest.mark.parametrize("sigma", ["0", "-1", "nan", "inf"])
    def test_pha_bad_sigma_exit_two(self, lp_file, tmp_path, capsys, sigma):
        assert main(["solve", lp_file, "--solver", "pha", "--sigma", sigma,
                     "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err == (
            "invalid parameters: rho must be positive and finite\n")

    @pytest.mark.parametrize("solver", ["sgs-admm", "pha"])
    def test_log_cells_are_plain_numbers(self, lp_file, tmp_path, solver):
        # without --sigma the sigma column holds a numpy scalar, as do
        # PHA's nonanticipativity and relative-change columns
        out = str(tmp_path / "r")
        main(["solve", lp_file, "--solver", solver, "--out", out])
        rows = open(out + ".iters.csv").read().splitlines()[1:]
        assert rows
        for row in rows:
            for cell in row.split(","):
                if cell:
                    float(cell)

    def test_log_every_one_prints_every_row(self, lp_file, tmp_path, capsys):
        out = str(tmp_path / "run")
        assert main(["solve", lp_file, "--log-every", "1", "--out", out]) == 0
        lines = [ln for ln in capsys.readouterr().out.splitlines()
                 if ln.startswith("iter")]
        rows = open(out + ".iters.csv").read().splitlines()[1:]
        assert len(lines) == len(rows)
        assert not any("nan" in ln for ln in lines)
        # rows the full check skipped show the linear maximum and leave the
        # lazy cells empty; the last row is certified in full
        linear = [ln for ln in lines if "linear eta" in ln]
        assert 0 < len(linear) < len(lines)
        assert ",,,,," not in rows[-1] and "gap" in lines[-1]
        skipped = rows[0].split(",")
        assert skipped[3] == skipped[9] == skipped[12] == ""
        assert float(skipped[1]) >= 0.0

    def test_overflowing_iterate_exit_three(self, tmp_path, capsys):
        # finite data whose first sweep overflows: a typed NumericalError,
        # not a bare ValueError from a factor solve
        prob = make_two_scenario_lp()
        path = tmp_path / "huge.json"
        io.write_problem(prob.with_cost(np.full(prob.n0, 1e200)), str(path))
        with np.errstate(all="ignore"):
            code = main(["solve", str(path), "--out", str(tmp_path / "r")])
        assert code == 3
        assert "non-finite iterate at iteration 0" in capsys.readouterr().err

    def test_alm_on_quadratic_exit_two(self, tmp_path, capsys):
        # a refusal before any iteration, not a solver failure
        path = tmp_path / "qp.json"
        io.write_problem(random_qp(4, 8, 4, 8, 2, 3), str(path))
        code = main(["solve", str(path), "--solver", "sgs-alm",
                     "--out", str(tmp_path / "r")])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["unsupported objective: the ALM variant requires "
                       "zero theta terms; use admm_solve"]
        assert not (tmp_path / "r.summary.json").exists()


class TestCmdGenerate:
    def test_rand_qp_deterministic(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["generate", "rand-qp", "--out", str(a), "--seed", "5",
                     "--m0", "4", "--n0", "8", "--mi", "4", "--ni", "8",
                     "--N", "2"]) == 0
        assert main(["generate", "rand-qp", "--out", str(b), "--seed", "5",
                     "--m0", "4", "--n0", "8", "--mi", "4", "--ni", "8",
                     "--N", "2"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_ufl_from_cost_file_passes_check(self, tmp_path, capsys):
        costs = tmp_path / "costs.json"
        rng = np.random.default_rng(0)
        costs.write_text(json.dumps({
            "c": rng.uniform(1, 2, 3).tolist(),
            "P": rng.uniform(1, 2, (3, 4)).tolist(),
            "Q": rng.uniform(1, 2, (3, 4)).tolist()}))
        prob_path = tmp_path / "ufl.json"
        assert main(["generate", "ufl-dnn", "--out", str(prob_path),
                     "--ufl-costs", str(costs)]) == 0
        out = str(tmp_path / "run")
        assert main(["solve", str(prob_path), "--out", out]) == 0
        assert main(["check", str(prob_path), out + ".solution.json"]) == 0

    def test_two_stage_quad_eps_in_file(self, tmp_path):
        path = tmp_path / "ts.json"
        assert main(["generate", "two-stage", "--out", str(path), "--seed",
                     "1", "--m0", "2", "--n0", "6", "--mi", "3", "--ni", "6",
                     "--N", "2", "--quad-eps", "0.1"]) == 0
        doc = json.loads(path.read_text())
        theta = doc["first_stage"]["theta"]
        assert theta["type"] == "diag_quad"
        assert all(v == 0.1 for v in theta["diag"])
        # evaluated objective coefficient is 0.1/2 = 0.05 per coordinate
        prob = io.read_problem(str(path))
        assert prob.theta.value(np.ones(prob.n0)) == pytest.approx(
            0.05 * prob.n0)

    def test_invalid_params_exit_two(self, tmp_path):
        assert main(["generate", "rand-qp", "--out", str(tmp_path / "x.json"),
                     "--n0", "0"]) == 2


class TestCmdCheck:
    def test_solver_output_passes(self, lp_file, tmp_path):
        out = str(tmp_path / "run")
        main(["solve", lp_file, "--out", out])
        assert main(["check", lp_file, out + ".solution.json"]) == 0

    def test_perturbed_solution_fails(self, lp_file, tmp_path, capsys):
        out = str(tmp_path / "run")
        main(["solve", lp_file, "--out", out])
        doc = json.loads(open(out + ".solution.json").read())
        doc["x"] = [v + 1.0 for v in doc["x"]]
        pert = tmp_path / "pert.json"
        pert.write_text(io.dumps(doc))
        assert main(["check", lp_file, str(pert)]) == 1
        text = capsys.readouterr().out
        assert "FAIL" in text

    def test_solution_of_another_problem_is_a_parse_error(self, tmp_path,
                                                           capsys):
        # a's solution checked against b, whose n0 is 5 instead of 4: one
        # parse-error line naming the first field that differs, exit 2
        paths = {}
        for name, n0 in (("a", 4), ("b", 5)):
            paths[name] = str(tmp_path / (name + ".json"))
            assert main(["generate", "two-stage", "--out", paths[name],
                         "--m0", "2", "--n0", str(n0), "--mi", "2",
                         "--ni", "3", "--N", "3", "--seed", "1",
                         "--quad-eps", "0.1"]) == 0
        out = str(tmp_path / "a")
        main(["solve", paths["a"], "--out", out])
        capsys.readouterr()
        assert main(["check", paths["b"], out + ".solution.json"]) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("parse error: ") and "'x'" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("field,value", [
        ("xbar", [[0.0]]), ("ybar", [[0.0], []]), ("zbar", [[], []]),
        ("vbar", [[0.0, 1.0], [2.0]]), ("y", []), ("z", [[0.0]]),
        ("xbar", 3.0)])
    def test_field_length_mismatch_is_named(self, lp_file, tmp_path, field,
                                            value, capsys):
        out = str(tmp_path / "run")
        main(["solve", lp_file, "--out", out])
        doc = json.loads(open(out + ".solution.json").read())
        doc[field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(io.dumps(doc))
        capsys.readouterr()
        assert main(["check", lp_file, str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("parse error: ") and len(err.splitlines()) == 1
        if isinstance(value, list):        # a scalar is no vector at all
            assert "field %r" % field in err

    @pytest.mark.parametrize("kind", ["sdp", "lp"])
    @pytest.mark.parametrize("field,where,value,named", [
        ("x", (0,), None, "x"), ("z", (0,), None, "z"),
        ("xbar", (1, 0), float("inf"), "xbar[1]"),
        ("vbar", (0, 0), float("nan"), "vbar")])
    def test_null_or_non_finite_entry_is_invalid_data(
            self, lp_file, tmp_path, capsys, kind, field, where, value,
            named):
        # a null entry reads as NaN: one invalid-data line naming the
        # field, exit 2, not a LinAlgError traceback (SDP) or nan residues
        # and FAIL (LP)
        problem = lp_file
        if kind == "sdp":
            problem = str(tmp_path / "sdp.json")
            assert main(["generate", "rand-sdp", "--out", problem,
                         "--m0", "2", "--n0", "3", "--mi", "2", "--ni", "3",
                         "--N", "3", "--seed", "1"]) == 0
        out = str(tmp_path / "run")
        assert main(["solve", problem, "--out", out]) == 0
        doc = json.loads(open(out + ".solution.json").read())
        entries = doc[field]
        for i in where[:-1]:
            entries = entries[i]
        entries[where[-1]] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["check", problem, str(bad)]) == 2
        captured = capsys.readouterr()
        assert "check:" not in captured.out
        err = captured.err
        assert err.startswith("invalid data: ") and len(err.splitlines()) == 1
        assert "field %r" % named in err

    def test_analytic_optimum_zero_residues(self, tmp_path, capsys):
        # min x over x >= 1 stated through one scenario row
        from dbasolve.model import DBAProblem, ScenarioBlock
        from dbasolve.proxcone import NonnegOrthant, Zero
        blocks = [ScenarioBlock(np.array([[1.0]]), np.array([[1.0]]),
                                np.array([2.0]), np.array([1.0]),
                                NonnegOrthant(1), Zero(1))]
        prob = DBAProblem(None, None, np.array([1.0]), NonnegOrthant(1),
                          Zero(1), blocks)
        ppath = tmp_path / "p.json"
        io.write_problem(prob, str(ppath))
        sol = {"format": io.FORMAT_SOLUTION, "x": [1.0], "xbar": [[1.0]],
               "y": [], "ybar": [[1.0]], "z": [0.0], "zbar": [[0.0]],
               "v": [0.0], "vbar": [[0.0]]}
        spath = tmp_path / "s.json"
        spath.write_text(io.dumps(sol))
        assert main(["check", str(ppath), str(spath)]) == 0
        for line in capsys.readouterr().out.splitlines():
            if line.startswith("eta"):
                assert float(line.split()[-1]) <= 1e-14


class TestCmdCompare:
    def test_three_solvers_agree(self, tmp_path, capsys):
        path = tmp_path / "ts.json"
        io.write_problem(make_two_scenario_lp(), str(path))
        out = tmp_path / "cmp.csv"
        assert main(["compare", str(path), "--solvers", "sgs-admm,sgs-alm,pha",
                     "--tol-kkt", "1e-6", "--tol-gap", "1e-5",
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 4
        objs = [float(l.split(",")[4]) for l in lines[1:]]
        for o in objs[1:]:
            assert abs(o - objs[0]) <= 1e-3 * (1 + abs(objs[0]))

    def test_single_solver_single_row(self, lp_file, tmp_path):
        out = tmp_path / "cmp.csv"
        assert main(["compare", lp_file, "--solvers", "sgs-admm",
                     "--out", str(out)]) == 0
        assert len(out.read_text().strip().splitlines()) == 2

    def test_max_iter_zero_keeps_row(self, lp_file, tmp_path):
        out = tmp_path / "cmp.csv"
        assert main(["compare", lp_file, "--solvers", "sgs-admm",
                     "--max-iter", "0", "--out", str(out)]) == 0
        cells = out.read_text().strip().splitlines()[1].split(",")
        assert cells[:3] == ["sgs-admm", "MaxIter", "0"]
        assert cells[5:] == ["", "", ""]       # no residues, no error

    def test_ineligible_solver_recorded_in_row(self, tmp_path):
        path = tmp_path / "qp.json"
        io.write_problem(random_qp(4, 8, 4, 8, 2, 4), str(path))
        out = tmp_path / "cmp.csv"
        assert main(["compare", str(path), "--solvers", "sgs-alm",
                     "--out", str(out)]) == 0
        body = out.read_text().strip().splitlines()[1]
        assert "UnsupportedObjective" in body

    def test_step_length_out_of_range_recorded_in_row(self, lp_file,
                                                      tmp_path):
        out = tmp_path / "cmp.csv"
        assert main(["compare", lp_file, "--solvers", "sgs-admm,pha",
                     "--tau", "5", "--out", str(out)]) == 0
        rows = out.read_text().strip().splitlines()[1:]
        assert len(rows) == 2
        assert all("ParameterError" in row for row in rows)


class TestSummaryRecordsTheRun:
    """``summary.json`` records the M strategy that ``auto`` resolved to,
    next to the requested one, and the BLAS thread count of the solve."""

    @staticmethod
    def summary(path, *flags):
        out = os.path.join(os.path.dirname(path), "run")
        main(["solve", path, "--out", out, *flags])
        with open(out + ".summary.json") as fh:
            return json.load(fh)

    @pytest.mark.parametrize("solver", ["sgs-admm", "sgs-alm", "pha"])
    def test_resolved_strategy_next_to_the_requested(self, lp_file, solver):
        from dbasolve import msolver
        from dbasolve.io import read_problem
        config = self.summary(lp_file, "--solver", solver)["manifest"]["config"]
        assert config["strategy"] == "auto"
        assert config["strategy_resolved"] in msolver.STRATEGIES
        # the sweep has no semismooth Newton choice to record
        assert "ssn" not in config
        if solver == "sgs-admm":
            rep = admm_solve(read_problem(lp_file))
            assert config["strategy_resolved"] == rep.extra["strategy"]

    def test_requested_strategy_resolves_to_itself(self, lp_file):
        config = self.summary(lp_file, "--strategy", "smw")["manifest"][
            "config"]
        assert (config["strategy"], config["strategy_resolved"]) == (
            "smw", "smw")

    def test_pha_without_an_iteration_resolves_nothing(self, lp_file):
        config = self.summary(lp_file, "--solver", "pha", "--max-iter",
                              "0")["manifest"]["config"]
        assert config["strategy_resolved"] is None

    def test_pha_records_no_gap_tolerance(self, lp_file):
        # pha has no gap tolerance: --tol-gap 0 runs as without it
        out = os.path.join(os.path.dirname(lp_file), "run")
        assert main(["solve", lp_file, "--out", out, "--solver", "pha",
                     "--tol-gap", "0"]) == 0
        with open(out + ".summary.json") as fh:
            config = json.load(fh)["manifest"]["config"]
        assert config["tol_gap"] is None
        assert config["tol_kkt"] == 1e-5
        assert self.summary(lp_file, "--tol-gap", "1e-3")["manifest"][
            "config"]["tol_gap"] == 1e-3

    def test_blas_threads_one_where_pinned(self, lp_file):
        from dbasolve import _blas
        want = 1 if _blas._thread_controls() else None
        assert self.summary(lp_file)["blas_threads"] == want

    def test_blas_threads_null_without_thread_control(self, lp_file,
                                                      monkeypatch):
        from dbasolve import _blas
        monkeypatch.setattr(_blas, "_thread_controls", lambda: [])
        monkeypatch.setattr(_blas, "_controls", None)
        assert self.summary(lp_file)["blas_threads"] is None
        assert _blas.solve_threads() is None
