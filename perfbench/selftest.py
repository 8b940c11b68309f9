"""Self-test of the benchmark on tiny instances; it finishes in seconds.

    python3 perfbench/selftest.py

For every workload it checks that:

* the smoke run (``run.py --smoke``) prints a correct result carrying exactly
  the metrics BENCHMARK.json names, untraced and traced;
* the correctness gate accepts the solver's answer and rejects both a
  perturbed copy of it and an unconverged one;
* every traced call site exists and the spans nest: no self time is
  negative and the self times sum to at most the traced solve time, the
  rest of which is reported as the untraced remainder.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import time

import run  # pins the thread pools and puts this checkout's src/ on the path
from dbasolve import PrimalPoint
from tracer import Tracer
from workloads import REF_SEED, WORKLOADS


def check(ok, message):
    if not ok:
        raise SystemExit("selftest FAILED: " + message)


def smoke(name, trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.main(["--workload", name, "--seed", "7", "--seconds", "0",
                  "--trace", str(trace), "--smoke"])
    return json.loads(out.getvalue().strip().splitlines()[-1])


def main():
    spec = run.load_spec()
    for name, wl in WORKLOADS.items():
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = smoke(name, trace)
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1,
                  "%s trace=%d smoke run not correct: %s" % (name, trace, result))
            check(set(result["metrics"]) == {m["name"] for m in spec[key]},
                  "%s trace=%d metric names differ from BENCHMARK.json"
                  % (name, trace))

        problem = wl.tiny(REF_SEED)
        root = wl.root_span
        tracer = Tracer()
        t0 = time.perf_counter()
        with tracer:
            report = tracer.run(root, wl.solve, problem)
        wall = time.perf_counter() - t0
        check(not tracer.missing, "%s: call sites not found: %s"
              % (name, tracer.missing))
        check(min(tracer.self_time.values()) >= 0.0,
              "%s: a span's children outlast it" % name)
        check(tracer.self_sum() <= wall,
              "%s: self times %.4f s exceed the solve's %.4f s"
              % (name, tracer.self_sum(), wall))

        check(not wl.gate(problem, report), "%s: gate rejected the solver's "
              "answer: %s" % (name, wl.gate(problem, report)))
        x = report.primal.x
        moved = dataclasses.replace(report, primal=PrimalPoint(
            x + 1e-3 * (1.0 + abs(x)), report.primal.xbar))
        check(wl.gate(problem, moved), "%s: gate accepted a perturbed "
              "solution" % name)
        check(wl.gate(problem, wl.solve(problem, max_iter=1)),
              "%s: gate accepted an unconverged solve" % name)
        print("ok %-14s traced %.3f s, untraced remainder %.3f s"
              % (name, wall, tracer.self_time[root]))
    print("selftest passed")


if __name__ == "__main__":
    main()
