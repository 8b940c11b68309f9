"""Time-to-certified-KKT benchmark for dbasolve.

Usage (from the repository root):

    python3 perfbench/run.py --workload two-stage-ssn --seed 1 --seconds 20 --trace 0

One process runs one workload as a closed loop of single-threaded solves and
checks every returned solution (see ``workloads.Workload.gate``).  With
``--trace 0`` it prints the end-to-end metrics named in BENCHMARK.json, with
``--trace 1`` the per-layer metrics from a traced run.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--smoke`` swaps in tiny instances.  End-to-end
times are scaled by calibration passes timed around each call (calib.py).
"""

from __future__ import annotations

import os
import sys

# Pin every thread pool before numpy loads its BLAS: one solve at a time on
# one thread, so timings do not depend on how many cores happen to be free.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "DBA_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import functools  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import dbasolve  # noqa: E402

if not os.path.abspath(dbasolve.__file__).startswith(SRC + os.sep):
    sys.exit("dbasolve was imported from %s, not from this checkout's src/"
             % dbasolve.__file__)

from calib import Clock  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import REF_SEED, WORKLOADS, held_out_seed  # noqa: E402

# setup_s is the median of SETUP_REPS timed batches of zero-iteration solves
# (after one warm-up); a batch lasts about SETUP_BATCH_S, several calibration
# passes, so the pass's own jitter stays small against it.
SETUP_REPS = 7
SETUP_BATCH_S = 0.2


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def blas_threads():
    """Thread count numpy's OpenBLAS reports, or None when not found."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "libscipy_openblas*.so")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    path = os.path.join(ROOT, ".git", name)
    if os.path.isfile(path):
        with open(path) as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == name:
                    return parts[0]
    return None


def environment(args):
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "DBA_THREADS": os.environ["DBA_THREADS"],
        "git_commit": git_commit(),
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

class Loop:
    """Closed loop of gated solves; counts attempts and failures."""

    def __init__(self, workload):
        self.wl = workload
        self.attempted = 0
        self.failed = 0

    def _call(self, problem, tracer, root):
        try:
            if tracer is None:
                return self.wl.solve(problem)
            with tracer:
                return tracer.run(root, self.wl.solve, problem)
        except Exception:  # a raising solve counts as failed, never retried
            traceback.print_exc()
            return None

    def solve(self, problem, clock=None, tracer=None, root=None):
        """One timed, gated solve: (wall_s, cpu_s, report or None), scaled
        to the nominal machine when a calibration ``clock`` is given."""
        self.attempted += 1
        call = functools.partial(self._call, problem, tracer, root)
        if clock is None:
            t0 = time.perf_counter()
            report = call()
            wall, cpu = time.perf_counter() - t0, None
        else:
            wall, cpu, report = clock.time(call)
        errors = ["raised"] if report is None else self.wl.gate(problem, report)
        if errors:
            self.failed += 1
            print("GATE FAIL %s: %s" % (self.wl.name, "; ".join(errors)),
                  file=sys.stderr)
        return wall, cpu, report

    def setup_time(self, problem, clock, batch):
        """Scaled wall time of a zero-iteration solve, averaged over a batch
        of them timed as one call."""
        def solves():
            for _ in range(batch):
                self.wl.solve(problem, max_iter=0)
        return clock.time(solves)[0] / batch


def rounds(t_end):
    """Yield until ``t_end``, stopping early when the next round, as long as
    the longest so far, would overrun it; always at least once."""
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        yield
        longest = max(longest, time.perf_counter() - t0)
        if time.perf_counter() + longest > t_end:
            return


def end_to_end(loop, build, seed, seconds):
    """Untraced run: the held-out --seed instance once, then the reference
    instance until the time is up.  Times are medians over the reference
    solves, each scaled by the calibration passes around it."""
    wl = loop.wl
    ref = build(REF_SEED)
    clock = Clock()
    t0 = time.perf_counter()
    wl.solve(ref, max_iter=0)                 # warm-up: lazy imports, caches
    batch = math.ceil(SETUP_BATCH_S / (time.perf_counter() - t0))
    setup_s = statistics.median(loop.setup_time(ref, clock, batch)
                                for _ in range(SETUP_REPS))

    # The held-out instance is solved before the timed loop, so that its
    # iteration count (650 to 10300 across sdp-psd seeds) does not set
    # how many reference solves the loop makes.
    if wl.held_out:
        wall, _, report = loop.solve(build(held_out_seed(seed)), clock)
        if report is not None:
            print("# held-out instance %d: %d iterations, %.4f s"
                  % (held_out_seed(seed), report.iterations, wall))
    t_end = time.perf_counter() + seconds
    walls, cpus = [], []
    info = {"iterations": 0, "inner_iters": 0, "strategy": None}
    for _ in rounds(t_end):
        wall, cpu, report = loop.solve(ref, clock)
        walls.append(wall)
        cpus.append(cpu)
        if report is not None:
            info.update(iterations=report.iterations,
                        inner_iters=wl.inner_iters(report),
                        strategy=report.extra.get("strategy"))
    info.update(setup_s=setup_s, solve_s=statistics.median(walls),
                solve_cpu_s=statistics.median(cpus), speed=clock.speed(),
                solves=len(walls))
    info["iter_ms"] = (1e3 * (info["solve_s"] - setup_s)
                       / max(info["iterations"], 1))
    return info


def traced(loop, build, seconds):
    """Traced run on the reference instance: rounds of an untraced and a
    traced solve."""
    wl = loop.wl
    ref = build(REF_SEED)
    wl.solve(ref, max_iter=0)                 # warm-up
    root = wl.root_span
    tracer = Tracer()
    plain, with_trace = [], []
    for _ in rounds(time.perf_counter() + seconds):
        plain.append(loop.solve(ref)[0])
        with_trace.append(loop.solve(ref, tracer=tracer, root=root)[0])
    n = len(with_trace)
    metrics = tracer.layer_metrics(root, n)
    metrics["trace.overhead"] = (statistics.median(with_trace)
                                 / statistics.median(plain))
    metrics["trace.self_sum_s"] = tracer.self_sum() / n
    return metrics, tracer, sum(with_trace) / n


def main(argv=None):
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny instances, for a seconds-long self-test")
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload]
    build = wl.tiny if args.smoke else wl.build
    print("# env " + json.dumps(environment(args)))
    loop = Loop(wl)

    if args.trace:
        values, tracer, traced_wall = traced(loop, build, args.seconds)
        if tracer.missing:
            print("# untraced (not found): " + ", ".join(tracer.missing))
        print("# msolver.strategy = %s" % tracer.labels.get("msolver.strategy"))
        if values["trace.self_sum_s"] > traced_wall:
            print("# WARNING: span self times exceed the traced solve time")
        wanted = spec["per_layer"]
    else:
        values = end_to_end(loop, build, args.seed, args.seconds)
        values["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                                 .ru_maxrss / 1024.0)
        print("# msolver.strategy = %s" % values["strategy"])
        print("# inner_iters = %d count (reference instance)"
              % values["inner_iters"])
        print("# %d reference solves; host speed %.3f of nominal (calib.py)"
              % (values["solves"], values["speed"]))
        wanted = spec["end_to_end"]
    print("# fail_frac = %.4f (%d of %d solves)"
          % (loop.failed / max(loop.attempted, 1), loop.failed, loop.attempted))

    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": float(values[m["name"]]),
                              "unit": m["unit"]}
        print("%-42s %.6g %s" % (m["name"], values[m["name"]], m["unit"]))
    print(json.dumps({"correct": loop.failed == 0,
                      "attempted": loop.attempted, "failed": loop.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
