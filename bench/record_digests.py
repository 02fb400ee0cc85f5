"""Record the SHA-256 of every benchmark call's canonical output.

    PYTHONPATH=src QMAP_THREADS=1 python3 bench/record_digests.py

Run it once at the commit whose outputs are the reference; it rewrites
``bench/digests.json``.  It also checks that the in-process ``tables`` output
for the default q pair is byte-identical to a plain ``qmap tables`` run.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def main() -> int:
    digests = {}
    for call in workloads.all_calls():
        data, ok = call.output(call.run())
        if not ok:
            print(f"error: {call.key}: a check in the output is false", file=sys.stderr)
            return 1
        digests[call.key] = hashlib.sha256(data).hexdigest()
        print(f"{digests[call.key]}  {call.key}", flush=True)

    q1, q2 = workloads.catalog_pair(0)
    plain = subprocess.run(
        [sys.executable, "-m", "qmap.cli", "tables", "--q", q1, "--q", q2, "--N", str(workloads.CATALOG_N)],
        capture_output=True,
        check=True,
    ).stdout
    key = workloads.catalog_call(q1, q2).key
    if hashlib.sha256(plain).hexdigest() != digests[key]:
        print(f"error: {key}: in-process output differs from a plain qmap tables run", file=sys.stderr)
        return 1

    (HERE / "digests.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
