"""qmap benchmark: one workload, measured end to end or traced layer by layer.

    python3 bench/run.py --workload catalog --seed 0 --seconds 20 --trace 0

Run it from the root of a checkout.  Every interpreter it starts is fresh,
single-threaded (``QMAP_THREADS=1``) and imports ``qmap`` from ``src/``.

``--trace 0`` measures the end-to-end metrics: ``setup_s`` is the median
set-up time (import qmap, build the inputs) over several fresh interpreters,
``pass_s`` the median wall time of one pass over the workload's calls and
``peak_rss_mb`` the measuring process's ``ru_maxrss``.  ``--trace 1``
alternates untraced and traced passes in one interpreter and reports the
per-layer metrics of the traced passes (medians over passes) plus
``trace_overhead``, the traced over the untraced median pass.

Every call's output is checked (exit code, the report's own verdicts, and the
SHA-256 recorded in ``digests.json``); ``failed / attempted`` is the fail
ratio.  Human-readable lines come first; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The metric names
and units are those of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("catalog", "deep", "branch", "certify")
SETUP_SAMPLES = 7
DEADLINE_S = 170.0


def _worker(args, mode: str, seconds: float, env: dict, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed), repr(seconds), mode]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic())
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker ({mode}) exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"worker ({mode}) printed no result")
    return json.loads(lines[-1])


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qmap").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _report(label: str, times: list, what: str) -> None:
    series = " ".join(f"{t:.4f}" for t in times)
    print(f"{label}: median {statistics.median(times):.4f} s over {len(times)} {what} {series}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "qmap" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT} holds no src/qmap package or no BENCHMARK.json; run from a checkout", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    env = dict(os.environ, QMAP_THREADS="1", PYTHONPATH=str(ROOT / "src"))
    deadline = time.monotonic() + DEADLINE_S

    print(f"qmap benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(
        f"environment: python {platform.python_version()}, nproc {os.cpu_count()}, {platform.machine()}, "
        f"QMAP_THREADS=1, src/qmap sha256 {_source_digest()[:16]}"
    )
    try:
        if args.trace:
            main_run = _worker(args, "trace", args.seconds, env, deadline)
        else:
            # the first interpreter compiles the byte code and is not counted
            _worker(args, "setup", 0.0, env, deadline)
            setups = [_worker(args, "setup", 0.0, env, deadline)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
            main_run = _worker(args, "plain", args.seconds, env, deadline)
            setups.append(main_run["setup_s"])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for i, key in enumerate(main_run["calls"]):
        print(f"call {i + 1}: {key}")
    plain = main_run["pass_s"]
    _report("pass_s", plain, "untraced passes")
    values: dict[str, float] = {}
    if args.trace:
        traced = main_run["traced_pass_s"]
        traced_median = statistics.median(traced)
        _report("traced pass", traced, "passes")
        layers = main_run["layers"]
        for name in layers[0]:
            values[name] = statistics.median(layer[name] for layer in layers)
        values["trace_overhead"] = traced_median / statistics.median(plain)
        shares = sorted(((v / traced_median, k) for k, v in values.items() if k.endswith(".s")), reverse=True)
        print("share of the traced pass: " + ", ".join(f"{k} {100 * s:.1f}%" for s, k in shares if s >= 0.005))
    else:
        _report("setup_s", setups, "fresh interpreters")
        values["setup_s"] = statistics.median(setups)
        values["pass_s"] = statistics.median(plain)
        values["peak_rss_mb"] = main_run["peak_rss_kb"] / 1024.0

    attempted, failed = main_run["attempted"], main_run["failed"]
    print(f"fail_ratio: {failed}/{attempted} = {failed / attempted:.4f}")
    for reason in main_run["failures"]:
        print(f"FAILED {reason}")

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: the run produced no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
