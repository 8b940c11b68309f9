"""Layer spans recorded from outside the package.

The tracer replaces, for the duration of a ``with`` block, the names through
which one layer calls into another (for example ``dbasolve.solvers.kkt_full``
or ``CholFactor.solve``) with wrappers that time the call.  Spans nest on a
stack, so each layer's self time is its duration minus the time its traced
children took.  Spans are aggregated per name in memory: calls, total time
and self time, plus counters filled from the call's arguments and result.

Kernel counts marked ``_computed`` are derived from array shapes, not
measured.  Solves run single-threaded, which the stack relies on.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import dbasolve.blocklinalg as blocklinalg
import dbasolve.msolver as msolver
import dbasolve.pha as pha
import dbasolve.proxcone as proxcone
import dbasolve.solvers as solvers

# M-solve strategies whose solve applies the scenario-blockwise D^{-1} twice
# (u = D^{-1} h and D^{-1} B w) and block-diag, which applies it once.
_BLOCKWISE_PASSES = {"smw": 2, "smw-diag": 2, "shared": 2, "ufl": 2,
                     "block-diag": 1, "chol": 0}


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counters = defaultdict(float)
        self.labels = {}
        self.missing = []
        self._stack = []
        self._patches = []

    # -- spans ------------------------------------------------------------

    def _open(self):
        self._stack.append(0.0)
        return time.perf_counter()

    def _close(self, name, t0):
        duration = time.perf_counter() - t0
        children = self._stack.pop()
        if self._stack:
            self._stack[-1] += duration
        self.calls[name] += 1
        self.total[name] += duration
        self.self_time[name] += duration - children

    def run(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        t0 = self._open()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(name, t0)

    # -- patching ---------------------------------------------------------

    def wrap(self, owner, attr, name, after=None):
        """Trace calls made through ``owner.attr`` (a module function or a
        class's own method); ``after(tracer, args, result)`` updates
        counters."""
        orig = owner.__dict__.get(attr)
        if orig is None:
            self.missing.append("%s.%s" % (owner.__name__, attr))
            return
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            t0 = tracer._open()
            try:
                out = orig(*args, **kwargs)
            finally:
                tracer._close(name, t0)
            if after is not None:
                after(tracer, args, out)
            return out

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def __enter__(self):
        self.wrap(solvers, "validate", "model.validate")
        self.wrap(solvers, "build_msolver", "msolver.build", _after_msolver_build)
        self.wrap(solvers, "ssn_zy", "solvers.ssn", _after_ssn)
        self.wrap(solvers, "kkt_full", "model.kkt")
        self.wrap(solvers, "prox_conjugate", "proxcone.prox_conjugate")
        afactor = solvers.__dict__.get("_AFactor")
        if afactor is None:
            self.missing.append("solvers._AFactor")
        else:
            self.wrap(afactor, "__init__", "solvers.afactor.build")
            self.wrap(afactor, "solve", "solvers.afactor.solve")
        self.wrap(msolver.MSolver, "solve", "msolver.solve", _after_msolver_solve)
        self.wrap(blocklinalg.CholFactor, "solve", "blocklinalg.chol_solve",
                  _after_chol_solve)
        for cone in (proxcone.FreeSpace, proxcone.NonnegOrthant, proxcone.Box,
                     proxcone.NonnegSymMatrices):
            self.wrap(cone, "project", "proxcone.project")
        self.wrap(proxcone.PsdCone, "project", "proxcone.project_psd",
                  _after_psd_project)
        self.wrap(pha, "scenario_subsolve", "pha.subsolve")
        self.wrap(pha, "admm_solve", "solvers.loop")
        self.wrap(pha, "kkt_full", "model.kkt")
        self.wrap(pha, "kkt_residues", "model.kkt")
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)
        return False

    # -- results ----------------------------------------------------------

    def self_sum(self):
        return sum(self.self_time.values())

    def layer_metrics(self, root, n_solves):
        """Per-layer metrics per traced solve; ``root`` names the span the
        benchmark opened around each solve."""
        c, t, s, k = self.calls, self.total, self.self_time, self.counters
        per = 1.0 / n_solves
        return {
            "solvers.loop.self_s": s["solvers.loop"] * per,
            "solvers.ssn.calls": c["solvers.ssn"] * per,
            "solvers.ssn.s": t["solvers.ssn"] * per,
            "solvers.ssn.newton_iters": k["ssn.newton_iters"] * per,
            "solvers.afactor.builds": c["solvers.afactor.build"] * per,
            "solvers.afactor.build_s": t["solvers.afactor.build"] * per,
            "solvers.afactor.solve_s": t["solvers.afactor.solve"] * per,
            "msolver.builds": c["msolver.build"] * per,
            "msolver.build_s": t["msolver.build"] * per,
            "msolver.solve.calls": c["msolver.solve"] * per,
            "msolver.solve.self_s": s["msolver.solve"] * per,
            "msolver.solve.inner_iters": k["msolver.inner_iters"] * per,
            "msolver.solve.scenario_calls_computed":
                k["msolver.scenario_calls"] * per,
            "blocklinalg.chol_solve.calls": c["blocklinalg.chol_solve"] * per,
            "blocklinalg.chol_solve.s": t["blocklinalg.chol_solve"] * per,
            "blocklinalg.chol_solve.flops_computed": k["chol.flops"] * per,
            "blocklinalg.chol_solve.bytes_computed": k["chol.bytes"] * per,
            "blocklinalg.chol_solve.max_dim": k["chol.max_dim"],
            "proxcone.project.calls": (c["proxcone.project"]
                                       + c["proxcone.project_psd"]) * per,
            "proxcone.project.s": (t["proxcone.project"]
                                   + t["proxcone.project_psd"]) * per,
            "proxcone.project.psd_s": t["proxcone.project_psd"] * per,
            "proxcone.psd.eigh_calls_computed": k["psd.eigh"] * per,
            "proxcone.psd.block_order": k["psd.max_order"],
            "proxcone.prox_conjugate.s": t["proxcone.prox_conjugate"] * per,
            "model.kkt.calls": c["model.kkt"] * per,
            "model.kkt.self_s": s["model.kkt"] * per,
            "model.validate.s": t["model.validate"] * per,
            "pha.subsolves": c["pha.subsolve"] * per,
            "pha.subsolve.s": t["pha.subsolve"] * per,
            "trace.solve_s": t[root] * per,
            "trace.untraced_s": s[root] * per,
        }


def _after_msolver_build(tracer, args, solver):
    tracer.labels["msolver.strategy"] = solver.strategy


def _after_ssn(tracer, args, out):
    tracer.counters["ssn.newton_iters"] += out[2]


def _after_msolver_solve(tracer, args, y):
    solver = args[0]
    tracer.counters["msolver.inner_iters"] += solver.last_inner_iters
    passes = _BLOCKWISE_PASSES.get(solver.strategy, 0)
    tracer.counters["msolver.scenario_calls"] += passes * solver.problem.N


def _after_chol_solve(tracer, args, x):
    # Dense solve with a Cholesky factor L of order n: forward and back
    # substitution, n^2 flops each per right-hand side; each sweep reads the
    # n(n+1)/2-entry triangle, and the right-hand side is read and written
    # once.  Sparse-LU handles (very large M) are timed but not counted.
    fac = args[0]
    if getattr(fac, "_kind", None) != "dense":
        return
    n = fac.dim
    rhs = max(1, x.size // max(n, 1))
    k = tracer.counters
    k["chol.flops"] += 2.0 * n * n * rhs
    k["chol.bytes"] += 8.0 * (n * (n + 1) + 2 * n * rhs)
    k["chol.max_dim"] = max(k["chol.max_dim"], n)


def _after_psd_project(tracer, args, out):
    # One symmetric eigendecomposition of order d per projection.
    cone = args[0]
    tracer.counters["psd.eigh"] += 1
    tracer.counters["psd.max_order"] = max(tracer.counters["psd.max_order"],
                                           cone.d)
