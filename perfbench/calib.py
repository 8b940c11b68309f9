"""Machine-speed calibration for the end-to-end timings.

The benchmark runs on a few cores of a shared host.  There, identical solves
run up to half again slower or faster for seconds at a time: the process's
own CPU time moves with the wall time, with no page faults and next to no
steal time, so the host executes the same instructions at a varying speed.
Medians within one run cannot remove a slow phase that lasts the whole run.

A fixed calibration pass is therefore timed right before and right after
every measured call.  It mixes the kinds of work the solvers spend their time
in: Python-level loops over small ``eigh`` projections and mat-vec steps, and
solves with a dense Cholesky factor.  The call's time is reported scaled to a
nominal machine on which one pass takes ``NOMINAL_S``:

    scaled = raw * NOMINAL_S / mean(pass before, pass after)

The pass depends only on numpy and SciPy, never on dbasolve, so a change to
the package moves the scaled time by the same factor as the raw one.

One pass serves all workloads.  Host contention does not slow every kind of
work by the same factor, so the scaling removes most, not all, of the drift:
in runs where the pass ran about 1.3x faster than in others, the
interpreter-bound pha-two-stage solve ran only about 1.1x faster, so its
scaled time rose by some 15%.  Passes matched to each workload's own hot
loop tracked worse across host phases than this one mixed pass.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.linalg as sla

# Seconds one calibration pass takes on the nominal machine: about its
# median on a 2-vCPU Intel Xeon VM at 2.1 GHz, one thread.
NOMINAL_S = 0.04

_rng = np.random.default_rng(20230312)
_BLOCKS = [b + b.T for b in _rng.standard_normal((8, 6, 6))]
_A = _rng.standard_normal((20, 30))
_G = _rng.standard_normal((400, 400))
_K = _G @ _G.T + 400.0 * np.eye(400)
_RHS = _rng.standard_normal(400)


def _pass():
    """One calibration pass; its inputs and work are fixed."""
    x = [b.copy() for b in _BLOCKS]
    for _ in range(100):
        for i, b in enumerate(x):
            w, v = np.linalg.eigh(b)
            x[i] = 0.5 * ((v * np.maximum(w, 0.0)) @ v.T + _BLOCKS[i])
        y = np.zeros(30)
        for _ in range(10):
            y = np.clip(y - 0.01 * (_A.T @ (_A @ y - 1.0)), -1.0, 1.0)
    factor = sla.cho_factor(_K)
    z = _RHS
    for _ in range(40):
        z = sla.cho_solve(factor, z) / 3.0
    return x, y, z


def _timed(fn):
    c0 = time.process_time()
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, time.process_time() - c0, out


class Clock:
    """Times calls between calibration passes and scales them to the
    nominal machine.  A pass after one call is the pass before the next."""

    def __init__(self):
        self.passes = []          # (wall, cpu) of every calibration pass
        _pass()                   # warm-up: first-call costs of numpy/SciPy
        self._calibrate()

    def _calibrate(self):
        wall, cpu, _ = _timed(_pass)
        self.passes.append((wall, cpu))
        return wall, cpu

    def time(self, fn):
        """Run ``fn()``: (scaled wall s, scaled CPU s, its result)."""
        before = self.passes[-1]
        wall, cpu, out = _timed(fn)
        after = self._calibrate()
        return (wall * NOMINAL_S / (0.5 * (before[0] + after[0])),
                cpu * NOMINAL_S / (0.5 * (before[1] + after[1])), out)

    def speed(self):
        """Median machine speed over the run, relative to the nominal one."""
        walls = sorted(w for w, _ in self.passes)
        return NOMINAL_S / walls[len(walls) // 2]
