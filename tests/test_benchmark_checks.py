"""Each benchmark workload at seed 0 runs through the CLI and passes the benchmark's own checks.

The workloads and checks are loaded from `benchmarks/` by path, the way the
benchmark harness uses them, so an artifact the benchmark would refuse fails
the test suite too.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from ratchet_lab import cli
from ratchet_lab.config import parse_config

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while the class is built
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
checks = _load("checks")


@pytest.mark.parametrize("name", ["figs", "compare", "longrun"])
def test_workload_passes_benchmark_checks(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    assert cli.main(workload.argv(0, tmp_path)) == 0
    assert checks.missing_artifacts(name, tmp_path) == []
    assert checks.CHECKS[name](parse_config("", workload.overrides(0)), tmp_path) == []
