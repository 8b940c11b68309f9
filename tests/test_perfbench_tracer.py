"""The benchmark tracer patches the package by name; a rename in the package
would silently leave a layer untraced.  These tests load perfbench/tracer.py
by path and check that every name it patches exists and still sees the
calls it counts."""

import importlib.util
import os

import pytest

from dbasolve import (PhaConfig, SolverConfig, admm_solve, pha_solve,
                      random_sdp, random_two_stage)

TRACER_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench", "tracer.py")


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patched_name_exists(tracer_module):
    with tracer_module.Tracer() as tracer:
        assert tracer.missing == []
    assert tracer._patches == []           # every patch undone on exit


def test_traced_pha_solve_counts_one_setup_per_scenario(tracer_module):
    N = 3
    problem = random_two_stage(2, 4, 2, 4, N=N, seed=1, quad_eps=0.1)
    with tracer_module.Tracer() as tracer:
        report = pha_solve(problem, PhaConfig(rho=10.0, max_iter=4,
                                              threads=1))
    assert report.iterations == 4
    # the N scenarios are one bundle: one setup, one subsolve per iteration
    assert tracer.calls["msolver.build"] == 1
    assert tracer.calls["solvers.afactor.build"] == 1
    assert tracer.calls["pha.subsolve"] == 4
    assert tracer.calls["solvers.loop"] == 4
    assert tracer.calls["blocklinalg.chol_solve"] > 0
    # the flop counter reads the dense factor's _kind and dim
    assert tracer.counters["chol.flops"] > 0


def test_psd_projections_per_solve_independent_of_scenarios(tracer_module):
    # the scenario PSD blocks are one batched PsdCone, so a solve of fixed
    # length makes the same number of PSD projection calls for any N
    counts = []
    for N in (3, 12):
        problem = random_sdp(2, 3, 2, 3, N=N, seed=1)
        with tracer_module.Tracer() as tracer:
            assert tracer.missing == []
            report = admm_solve(problem, SolverConfig(max_iter=20))
        assert report.iterations == 20
        counts.append(tracer.calls["proxcone.project_psd"])
    assert counts[0] == counts[1] > 0
