"""Benchmark workloads: seeded instances, the solve call and the correctness
gate applied to every solve.

Every workload is a closed loop of single solves through the package's public
entry points (builders, ``admm_solve``, ``pha_solve``, ``kkt_residues``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from dbasolve import (PhaConfig, SolverConfig, admm_solve, build_ufl_dnn,
                      kkt_residues, pha_solve, random_sdp, random_two_stage,
                      random_ufl)

# The certified tolerance every timed solve must reach (the package defaults,
# stated here so a change of default cannot silently move the target).
TOL_KKT = 1e-5
TOL_GAP = 1e-4

# Instance seed of the reference instance whose time to tolerance is gated.
# It is the same for every --seed, so two commits are compared on identical
# input: across instance seeds the iteration count to tolerance varies up to
# threefold (sdp-psd), far beyond any usable bound.  --seed picks a held-out
# instance that is solved, timed per iteration and gated (see README.md).
REF_SEED = 1

# Recomputed residues must reproduce the reported ones to this relative
# accuracy (the solver evaluates the same formula on the same point).
_AGREE_RTOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                               # "admm" or "pha"
    build: Callable[[int], object]          # instance seed -> DBAProblem
    tiny: Callable[[int], object]           # smoke-test sized instance
    max_iter: int                           # cap so a failing solve ends
    held_out: bool = True                   # also solve a --seed instance

    @property
    def root_span(self):
        """Span name of the solver call the benchmark makes."""
        return "pha.loop" if self.kind == "pha" else "solvers.loop"

    def solve(self, problem, max_iter=None):
        """Run the solver once; ``max_iter=0`` stops right after set-up."""
        cap = self.max_iter if max_iter is None else max_iter
        if self.kind == "pha":
            return pha_solve(problem, PhaConfig(rho=10.0, max_iter=cap,
                                                threads=1))
        return admm_solve(problem, SolverConfig(
            tol_kkt=TOL_KKT, tol_gap=TOL_GAP, max_iter=cap, threads=1))

    def inner_iters(self, report):
        """Inner work: the summed ``inner_iters`` log column for ADMM (SSN
        Newton steps plus PCG iterations), subsolve ADMM iterations for
        PHA."""
        return int(sum(row[14] for row in report.log_rows))

    def gate(self, problem, report):
        """Reasons the returned solution is not certified; empty when it
        is."""
        errors = []
        if report.status != "Converged":
            errors.append("status %s" % report.status)
        res = kkt_residues(problem, report.primal, report.dual)
        if not res.eta <= TOL_KKT:
            errors.append("recomputed eta %.3e > %.0e" % (res.eta, TOL_KKT))
        if not res.eta_gap <= TOL_GAP:
            errors.append("recomputed eta_gap %.3e > %.0e"
                          % (res.eta_gap, TOL_GAP))
        reported = report.kkt.as_dict()
        for key, value in res.as_dict().items():
            if not np.isclose(value, reported[key], rtol=_AGREE_RTOL,
                              atol=1e-15):
                errors.append("%s recomputed %.6e, reported %.6e"
                              % (key, value, reported[key]))
        if self.kind == "pha":
            cfg = PhaConfig()
            nonant = report.extra.get("nonant_residual", np.inf)
            rel = report.extra.get("rel_change", np.inf)
            if not (nonant <= cfg.tol_nonant and rel <= cfg.tol_rel):
                errors.append("nonanticipativity stop not met (%.3e, %.3e)"
                              % (nonant, rel))
        return errors


def held_out_seed(seed):
    """Instance seed of the held-out instance for benchmark seed ``seed``."""
    return int(np.random.default_rng(seed).integers(2, 2**31))


WORKLOADS = {w.name: w for w in (
    # Dense Cholesky M solve (strategy chol, mbar=600) with SSN on the
    # first stage; scenario cones stack, so per-scenario loops are idle.
    Workload(
        "two-stage-ssn", "admm",
        lambda s: random_two_stage(5, 20, 5, 15, N=120, seed=s, quad_eps=0.1),
        lambda s: random_two_stage(2, 6, 2, 5, N=100, seed=s, quad_eps=0.1),
        max_iter=8000),
    # PSD scenario cones do not stack: every iteration projects each block
    # with its own eigh; M is only 12x12.
    Workload(
        "sdp-psd", "admm",
        lambda s: random_sdp(3, 6, 3, 6, N=4, seed=s),
        lambda s: random_sdp(2, 3, 2, 3, N=3, seed=s),
        max_iter=15000),
    # Shared blocks on the SMW path (strategy ufl) with N=150: per-scenario
    # Python loops inside every M solve.
    Workload(
        "ufl-dnn", "admm",
        lambda s: build_ufl_dnn(random_ufl(10, 150, seed=s)),
        lambda s: build_ufl_dnn(random_ufl(4, 20, seed=s)),
        max_iter=2000),
    # Progressive hedging: one small admm_solve per scenario per outer
    # iteration, each paying its own validate / M build / A factor.  No
    # held-out instance: some instance seeds end at MaxIter (README.md).
    Workload(
        "pha-two-stage", "pha",
        lambda s: random_two_stage(3, 8, 4, 8, N=12, seed=s, quad_eps=0.1),
        lambda s: random_two_stage(2, 4, 2, 4, N=3, seed=s, quad_eps=0.1),
        max_iter=300, held_out=False),
)}
