"""The benchmark calls the package through perfbench/workloads.py: the
solver configs it builds, the report fields and ``extra`` keys its gate
reads and ``kkt_residues``.  This test loads that file by path and runs each
workload's solve and gate on its tiny instance, so a change that breaks what
the benchmark calls fails here rather than only in a benchmark run."""

import importlib.util
import os
import sys

import pytest

WORKLOADS_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench", "workloads.py")


@pytest.fixture(scope="module")
def workloads_module():
    name = "perfbench_workloads"
    spec = importlib.util.spec_from_file_location(name, WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    # dataclass resolves the module through sys.modules while executing it
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[name]


@pytest.mark.parametrize("name", ["two-stage-ssn", "sdp-psd", "ufl-dnn",
                                  "pha-two-stage"])
def test_tiny_instance_passes_gate(workloads_module, name):
    wl = workloads_module.WORKLOADS[name]
    problem = wl.tiny(workloads_module.REF_SEED)
    assert wl.gate(problem, wl.solve(problem)) == []
