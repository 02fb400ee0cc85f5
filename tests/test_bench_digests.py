"""Every benchmark workload still produces the bytes recorded in bench/digests.json.

The benchmark's exactness gate runs only with the benchmark; this runs one
pass of each workload (seed 0) in-process, so a change to an output's bytes
shows in the test suite too.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolves the module's annotations through sys.modules
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("workload", ["catalog", "deep", "branch", "certify"])
def test_workload_outputs_match_recorded_digests(workloads, workload):
    digests = json.loads((BENCH / "digests.json").read_text())
    for call in workloads.build(workload, 0):
        data, ok = call.output(call.run())
        assert ok, call.key
        assert hashlib.sha256(data).hexdigest() == digests[call.key], call.key
