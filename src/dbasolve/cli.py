"""Command-line entry point: solve, generate, check and compare.

Exit codes: 0 converged / check passed, 1 not converged / check failed,
2 parse, parameter or non-finite data error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import sys
import time

import numpy as np

from . import builders, io, msolver
from ._blas import solve_threads
from .errors import DbaError, NonFiniteData, ParameterError, ParseError
from .model import kkt_residues
from .pha import PHA_LOG_COLUMNS, PhaConfig, pha_solve
from .solvers import LOG_COLUMNS, SolverConfig, admm_solve, alm_solve

SOLVERS = ("sgs-admm", "sgs-alm", "pha")


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        with _progress_on_stdout(getattr(args, "log_every", 0)):
            return args.func(args)
    except ParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return 2
    except ParameterError as exc:
        print("invalid parameters: %s" % exc, file=sys.stderr)
        return 2
    except NonFiniteData as exc:
        print("invalid data: %s" % exc, file=sys.stderr)
        return 2
    except DbaError as exc:
        print("solver failure: %s" % exc, file=sys.stderr)
        return 3


@contextlib.contextmanager
def _progress_on_stdout(enabled):
    """Print the solver's progress lines (INFO on the ``dbasolve`` logger)
    to stdout while a command runs, when ``--log-every`` asks for them."""
    if not enabled:
        yield
        return
    log = logging.getLogger("dbasolve")
    handler = logging.StreamHandler(sys.stdout)
    level = log.level
    log.addHandler(handler)
    log.setLevel(logging.INFO)
    try:
        yield
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="dbasolve",
        description="Decomposition solvers for block-angular convex programs")
    sub = parser.add_subparsers(required=True)

    ps = sub.add_parser("solve", help="solve a problem file")
    ps.add_argument("problem")
    ps.add_argument("--solver", choices=SOLVERS, default="sgs-admm")
    _add_solver_flags(ps)
    ps.add_argument("--out", default=None,
                    help="output prefix (default: problem path stem)")
    ps.set_defaults(func=cmd_solve)

    pg = sub.add_parser("generate", help="generate a problem file")
    pg.add_argument("kind", choices=("two-stage", "ufl-dnn", "rand-qp", "rand-sdp"))
    pg.add_argument("--out", required=True)
    pg.add_argument("--seed", type=int, default=0)
    pg.add_argument("--m0", type=int, default=10)
    pg.add_argument("--n0", type=int, default=20)
    pg.add_argument("--mi", type=int, default=10)
    pg.add_argument("--ni", type=int, default=20)
    pg.add_argument("--N", type=int, default=5)
    pg.add_argument("--quad-eps", type=float, default=0.0)
    pg.add_argument("--p", type=int, default=3, help="facility count (ufl-dnn)")
    pg.add_argument("--q", type=int, default=4, help="customer count (ufl-dnn)")
    pg.add_argument("--linear", action="store_true",
                    help="ufl-dnn: zero quadratic allocation costs")
    pg.add_argument("--ufl-costs", default=None,
                    help="ufl-dnn: JSON file with fields c, P, Q")
    pg.set_defaults(func=cmd_generate)

    pc = sub.add_parser("check", help="verify a solution against a problem")
    pc.add_argument("problem")
    pc.add_argument("solution")
    pc.add_argument("--tol-kkt", type=float, default=1e-5)
    pc.add_argument("--tol-gap", type=float, default=1e-4)
    pc.set_defaults(func=cmd_check)

    pp = sub.add_parser("compare", help="run several solvers on one problem")
    pp.add_argument("problem")
    pp.add_argument("--solvers", default="sgs-admm,sgs-alm,pha")
    _add_solver_flags(pp)
    pp.add_argument("--out", default=None, help="comparison CSV path")
    pp.set_defaults(func=cmd_compare)
    return parser


def _add_solver_flags(p):
    p.add_argument("--tol-kkt", type=float, default=1e-5)
    p.add_argument("--tol-gap", type=float, default=1e-4)
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--tau", type=float, default=None,
                   help="step length. sgs-admm: unset runs the Halpern "
                        "step (unit-step sweep anchored at the last "
                        "restart, HPR-LP's restart rules, sigma changed "
                        "only at restarts, --ssn auto off), set runs the "
                        "classic relaxed multiplier step of that length. "
                        "sgs-alm: the classic step, default 1.9. pha: the "
                        "outer multiplier step, default 1.618; its bundle "
                        "solves run the classic step at 1.618")
    p.add_argument("--max-iter", type=int, default=None,
                   help="iteration cap (default: 50000 for sgs-admm and "
                        "sgs-alm, 300 outer iterations for pha)")
    p.add_argument("--strategy", default="auto",
                   choices=("auto",) + msolver.STRATEGIES)
    p.add_argument("--ssn", default="auto", choices=("auto", "on", "off"))
    p.add_argument("--log-every", type=int, default=0)


def _max_iter(args, solver):
    """``--max-iter`` when given, else the solver's own default."""
    if args.max_iter is not None:
        return args.max_iter
    return PhaConfig.max_iter if solver == "pha" else SolverConfig.max_iter


def _config_from_args(args, solver):
    return SolverConfig(
        sigma0=args.sigma, tau=args.tau, tol_kkt=args.tol_kkt,
        tol_gap=args.tol_gap, max_iter=_max_iter(args, solver),
        strategy=args.strategy, ssn=args.ssn, log_every=args.log_every)


def _run_one(problem, solver, args):
    if solver == "sgs-admm":
        return admm_solve(problem, _config_from_args(args, solver)), LOG_COLUMNS
    if solver == "sgs-alm":
        return alm_solve(problem, _config_from_args(args, solver)), LOG_COLUMNS
    cfg = PhaConfig(rho=args.sigma,
                    tau=args.tau if args.tau is not None else 1.618,
                    tol_nonant=args.tol_kkt, tol_rel=args.tol_kkt,
                    max_iter=_max_iter(args, solver))
    return pha_solve(problem, cfg), PHA_LOG_COLUMNS


def _residues(report):
    """(eta, eta_gap) of the report; (None, None) when no iteration ran."""
    if report.kkt is None:
        return None, None
    return report.kkt.eta, report.kkt.eta_gap


def cmd_solve(args):
    problem = io.read_problem(args.problem)
    report, columns = _run_one(problem, args.solver, args)

    prefix = args.out if args.out else args.problem.rsplit(".", 1)[0]
    sol_path = prefix + ".solution.json"
    csv_path = prefix + ".iters.csv"
    sum_path = prefix + ".summary.json"
    io.write_solution(problem, report.primal, report.dual, sol_path)
    io.write_iteration_csv(csv_path, columns, report.log_rows)

    summary = {
        "status": report.status,
        "iterations": report.iterations,
        "obj_P": report.obj_p,
        "obj_D": report.obj_d,
        "kkt": report.kkt.as_dict() if report.kkt else None,
        "elapsed": report.elapsed,
        # the first stage's x = s x' of the Halpern step; 1 elsewhere
        "stage_scale": report.extra.get("stage_scale", 1.0),
        # BLAS's thread count inside the solve: 1 where the bundled
        # OpenBLAS copies were pinned, null where none was found
        "blas_threads": solve_threads(),
        "manifest": {
            "solver": args.solver,
            "input": args.problem,
            "outputs": [sol_path, csv_path],
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "config": {
                # pha has no gap tolerance and ignores --tol-gap
                "tol_kkt": args.tol_kkt,
                "tol_gap": None if args.solver == "pha" else args.tol_gap,
                "sigma": args.sigma, "tau": args.tau,
                "max_iter": _max_iter(args, args.solver),
                "strategy": args.strategy,
                # the M strategy the solve ran, which auto resolves to
                "strategy_resolved": report.extra.get("strategy"),
                "ssn": args.ssn,
            },
        },
    }
    with open(sum_path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    eta, eta_gap = _residues(report)
    print("%s after %d iterations: obj_P %.10g, eta %s, eta_gap %s"
          % (report.status, report.iterations, report.obj_p,
             "-" if eta is None else "%.3e" % eta,
             "-" if eta_gap is None else "%.3e" % eta_gap))
    return 0 if report.converged else 1


def cmd_generate(args):
    try:
        if args.kind == "two-stage":
            problem = builders.random_two_stage(
                args.m0, args.n0, args.mi, args.ni, args.N, args.seed,
                quad_eps=args.quad_eps)
        elif args.kind == "ufl-dnn":
            if args.ufl_costs:
                with open(args.ufl_costs) as fh:
                    doc = json.load(fh)
                inst = builders.UflInstance(
                    c=np.asarray(doc["c"], dtype=np.float64),
                    P=np.asarray(doc["P"], dtype=np.float64),
                    Q=np.asarray(doc["Q"], dtype=np.float64))
            else:
                inst = builders.random_ufl(args.p, args.q, args.seed,
                                           quadratic=not args.linear)
            problem = builders.build_ufl_dnn(inst)
        elif args.kind == "rand-qp":
            problem = builders.random_qp(args.m0, args.n0, args.mi, args.ni,
                                         args.N, args.seed)
        else:
            problem = builders.random_sdp(args.m0, args.n0, args.mi, args.ni,
                                          args.N, args.seed)
    except (OSError, KeyError, ValueError, ZeroDivisionError,
            json.JSONDecodeError, DbaError) as exc:
        print("invalid parameters: %s" % exc, file=sys.stderr)
        return 2
    io.write_problem(problem, args.out)
    print("wrote %s (n0=%d, N=%d)" % (args.out, problem.n0, problem.N))
    return 0


def cmd_check(args):
    problem = io.read_problem(args.problem)
    primal, dual = io.read_solution(args.solution, problem)
    res = kkt_residues(problem, primal, dual)
    for name, val in res.as_dict().items():
        print("%-14s %.6e" % (name, val))
    ok = res.eta <= args.tol_kkt and res.eta_gap <= args.tol_gap
    print("check: %s" % ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def cmd_compare(args):
    problem = io.read_problem(args.problem)
    solvers = [s.strip() for s in args.solvers.split(",") if s.strip()]
    for s in solvers:
        if s not in SOLVERS:
            print("unknown solver %r" % s, file=sys.stderr)
            return 2
    rows = []
    for solver in solvers:
        t0 = time.perf_counter()
        try:
            report, _ = _run_one(problem, solver, args)
            rows.append((solver, report.status, report.iterations,
                         time.perf_counter() - t0, report.obj_p,
                         *_residues(report), ""))
        except DbaError as exc:
            rows.append((solver, "Error", 0, time.perf_counter() - t0,
                         float("nan"), float("nan"), float("nan"),
                         "%s: %s" % (type(exc).__name__, exc)))
    columns = ("solver", "status", "iterations", "time", "obj_P", "eta",
               "eta_gap", "error")
    text = io.iteration_csv_text(columns, rows)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
