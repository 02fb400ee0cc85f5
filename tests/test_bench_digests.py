"""Every benchmark workload still produces the bytes recorded in bench/digests.json.

The benchmark's exactness gate runs only with the benchmark; this runs one
pass of each workload (seed 0) in-process, so a change to an output's bytes
shows in the test suite too.
"""

import hashlib
import json

import pytest

from conftest import BENCH


@pytest.mark.parametrize("workload", ["catalog", "deep", "branch", "certify"])
def test_workload_outputs_match_recorded_digests(workloads, workload):
    digests = json.loads((BENCH / "digests.json").read_text())
    for call in workloads.build(workload, 0):
        data, ok = call.output(call.run())
        assert ok, call.key
        assert hashlib.sha256(data).hexdigest() == digests[call.key], call.key
