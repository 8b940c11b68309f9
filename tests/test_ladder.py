"""The benchmark ladder: instance seeds 1-5 of every workload in
perfbench/workloads.py (loaded by path, read only) converge, pass the
workload's gate and take no more iterations than the counts below.

A change that alters rounding in the sweep (a product of two blocks formed
as one, a sum reassociated) may move these counts; this test holds them to
no worse."""

import importlib.util
import os
import sys

import pytest

WORKLOADS_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench", "workloads.py")

# iterations (outer iterations for PHA) of instance seeds 1-5; the ADMM
# rows are the Halpern step's counts, in the stage-scaled variables where
# the first stage admits the scale (two-stage-ssn, sdp-psd)
MAX_ITERATIONS = {
    "two-stage-ssn": (260, 350, 245, 180, 262),
    "sdp-psd": (383, 271, 206, 659, 291),
    "ufl-dnn": (149, 151, 124, 134, 114),
    "pha-two-stage": (155, 66, 269, 59, 120),
}


@pytest.fixture(scope="module")
def workloads():
    name = "perfbench_workloads_ladder"
    spec = importlib.util.spec_from_file_location(name, WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    # dataclass resolves the module through sys.modules while executing it
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module.WORKLOADS


@pytest.mark.parametrize("name, seed", [
    (name, seed) for name in MAX_ITERATIONS for seed in range(1, 6)])
def test_ladder(workloads, name, seed):
    assert set(workloads) == set(MAX_ITERATIONS)
    work = workloads[name]
    problem = work.build(seed)
    report = work.solve(problem)
    assert report.status == "Converged"
    assert work.gate(problem, report) == []
    assert report.iterations <= MAX_ITERATIONS[name][seed - 1]
