"""Every solve runs the bundled OpenBLAS copies on one thread and gives the
caller's thread counts back, however it ends."""

import logging
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import dbasolve
from dbasolve import _blas, solvers
from dbasolve.builders import random_sdp, random_two_stage
from dbasolve.errors import NumericalError
from dbasolve.pha import PhaConfig, pha_solve
from dbasolve.solvers import SolverConfig, admm_solve, alm_solve

from conftest import make_two_scenario_lp

CONTROLS = _blas._thread_controls()

needs_openblas = pytest.mark.skipif(
    len(CONTROLS) != 2, reason="numpy's and scipy's bundled OpenBLAS only")


def counts():
    return [get() for get, _ in CONTROLS]


@pytest.fixture
def two_threads():
    """Both libraries at two threads for the test, the old counts after."""
    old = counts()
    for _, put in CONTROLS:
        put(2)
    yield
    for (_, put), n in zip(CONTROLS, old):
        put(n)


def spy_on_loop(monkeypatch, seen):
    """Record the thread counts each time the ADMM loop starts."""
    loop = solvers._run_loop

    def spy(*args, **kwargs):
        seen.append(counts())
        return loop(*args, **kwargs)

    monkeypatch.setattr(solvers, "_run_loop", spy)


@needs_openblas
class TestOneThreadInsideASolve:
    @pytest.mark.parametrize("solve", [admm_solve, alm_solve])
    def test_spy_sees_one_thread_and_the_count_comes_back(
            self, two_threads, monkeypatch, solve):
        seen = []
        spy_on_loop(monkeypatch, seen)
        solve(make_two_scenario_lp(), SolverConfig(max_iter=3))
        assert seen == [[1, 1]]
        assert counts() == [2, 2]

    def test_setup_runs_at_one_thread(self, two_threads, monkeypatch):
        seen = []
        build = solvers.build_msolver

        def spy(*args, **kwargs):
            seen.append(counts())
            return build(*args, **kwargs)

        monkeypatch.setattr(solvers, "build_msolver", spy)
        solvers.solve_setup(make_two_scenario_lp(), SolverConfig())
        assert seen == [[1, 1]] and counts() == [2, 2]

    def test_restored_after_numerical_error(self, two_threads):
        prob = random_sdp(2, 3, 2, 3, N=3, seed=1)
        rep = admm_solve(prob, SolverConfig(max_iter=5))
        rep.dual.y[0] = np.nan
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError):
            admm_solve(prob, SolverConfig(max_iter=5), initial=rep)
        assert counts() == [2, 2]

    def test_pha_nested_solves_leave_the_libraries_alone(self, two_threads,
                                                         monkeypatch):
        calls = []

        def counted(name, fn):
            def call(*args):
                calls.append(name)
                return fn(*args)
            return call

        monkeypatch.setattr(_blas, "_controls", [
            (counted("get", get), counted("set", put))
            for get, put in CONTROLS])
        monkeypatch.setattr(_blas, "_pin", counted("pin", _blas._pin))
        seen = []
        spy_on_loop(monkeypatch, seen)
        prob = random_two_stage(2, 4, 2, 4, N=3, seed=1, quad_eps=0.1)
        rep = pha_solve(prob, PhaConfig(rho=10.0, max_iter=4))
        assert rep.iterations == 4 and len(seen) == 4
        assert all(c == [1, 1] for c in seen)
        # one pin (a get and a set per library) and one restore; the
        # nested solves and the bundle's setup only check a flag
        assert calls == ["pin", "get", "get", "set", "set", "set", "set"]
        assert counts() == [2, 2]

    def test_already_one_thread_sets_nothing(self, monkeypatch):
        old = counts()
        for _, put in CONTROLS:
            put(1)
        calls = []
        monkeypatch.setattr(_blas, "_controls", [
            (get, lambda n: calls.append(n)) for get, _ in CONTROLS])
        try:
            admm_solve(make_two_scenario_lp(), SolverConfig(max_iter=3))
        finally:
            for (_, put), n in zip(CONTROLS, old):
                put(n)
        assert calls == []

    def test_concurrent_solves_restore_when_the_last_returns(
            self, two_threads, monkeypatch):
        inside, release = threading.Event(), threading.Event()
        loop = solvers._run_loop
        seen = []

        def held(*args, **kwargs):
            if threading.current_thread().name == "held":
                inside.set()
                assert release.wait(30)
                seen.append(counts())
            return loop(*args, **kwargs)

        monkeypatch.setattr(solvers, "_run_loop", held)
        prob = make_two_scenario_lp()
        worker = threading.Thread(
            name="held",
            target=lambda: admm_solve(prob, SolverConfig(max_iter=5)))
        worker.start()
        try:
            assert inside.wait(30)
            admm_solve(prob, SolverConfig(max_iter=5))
            # the held solve still runs: the pin stays
            assert counts() == [1, 1]
        finally:
            release.set()
            worker.join(30)
        assert seen == [[1, 1]]
        assert counts() == [2, 2]

    def test_many_threads_with_short_switches(self, two_threads,
                                              monkeypatch):
        # more solving threads than cores, switching often: a lost update
        # of the running count would leave the pin on or lift it mid-solve
        seen = []
        spy_on_loop(monkeypatch, seen)
        prob = make_two_scenario_lp()
        errors = []

        def work():
            try:
                for _ in range(5):
                    admm_solve(prob, SolverConfig(max_iter=3))
                    assert not _blas._inside.solve
            except Exception as exc:        # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work)
                       for _ in range(2 * (os.cpu_count() or 1) + 2)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers) and not errors
        assert len(seen) == 5 * len(workers)
        assert all(c == [1, 1] for c in seen)
        assert _blas._active == 0 and counts() == [2, 2]


def test_missing_symbols_run_as_before_with_one_record(monkeypatch, caplog):
    monkeypatch.setattr(_blas, "_thread_controls", lambda: [])
    monkeypatch.setattr(_blas, "_controls", None)
    before = counts()
    caplog.set_level(logging.INFO, logger="dbasolve")
    prob = make_two_scenario_lp()
    first = admm_solve(prob, SolverConfig(max_iter=10))
    second = admm_solve(prob, SolverConfig(max_iter=10))
    assert first.log_rows == second.log_rows
    records = [r for r in caplog.records if r.name == "dbasolve.blas"]
    assert len(records) == 1 and records[0].levelno == logging.INFO
    assert not [r for r in caplog.records if r.name == "dbasolve"]
    assert counts() == before


_UFL_LOG_HASH = """
import hashlib
from dbasolve import admm_solve, build_ufl_dnn, random_ufl
rep = admm_solve(build_ufl_dnn(random_ufl(30, 300, seed=1)))
print(rep.status, hashlib.sha256(repr(rep.log_rows).encode()).hexdigest())
"""


def test_unpinned_process_writes_the_pinned_log():
    src = os.path.dirname(os.path.dirname(os.path.abspath(dbasolve.__file__)))
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                        "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = src
    outs = []
    for pinned in (False, True):
        if pinned:
            env["OPENBLAS_NUM_THREADS"] = "1"
        out = subprocess.run([sys.executable, "-c", _UFL_LOG_HASH], env=env,
                             capture_output=True, text=True, timeout=300,
                             check=True).stdout.split()
        outs.append(out)
    assert outs[0][0] == "Converged"
    assert outs[0] == outs[1]
