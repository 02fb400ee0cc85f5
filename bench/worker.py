"""One fresh benchmark interpreter: set a workload up, time passes, check outputs.

    python3 bench/worker.py WORKLOAD SEED SECONDS MODE

``run.py`` starts this with ``PYTHONPATH=src`` and ``QMAP_THREADS=1``.  MODE is
``setup`` (set up, report the set-up time, stop), ``plain`` (untraced passes
for SECONDS) or ``trace`` (untraced and traced passes alternate for SECONDS,
then the spans are written to ``.bench_out/``).  The last pass started before
SECONDS ran out is finished.  Prints one JSON object on stdout.
"""

import time

# The set-up clock starts before anything is imported: setup_s is the cost of
# importing qmap (and the stdlib it pulls in) plus building the workload inputs.
T0 = time.perf_counter()

import sys  # noqa: E402


def run_pass(calls):
    """Wall time of one pass, and each call's result (or the exception it raised)."""
    results = []
    start = time.perf_counter()
    for call in calls:
        try:
            results.append(call.run())
        except Exception as exc:  # noqa: BLE001 - a failing call is counted, not fatal
            results.append(exc)
    return time.perf_counter() - start, results


def check(call, result, digests: dict):
    """None if the call's output is right, else a one-line reason."""
    import hashlib

    if isinstance(result, Exception):
        return f"{call.key}: raised {type(result).__name__}: {result}"
    try:
        data, ok = call.output(result)
    except Exception as exc:  # noqa: BLE001 - a malformed output is a failed call
        return f"{call.key}: output check raised {type(exc).__name__}: {exc}"
    if not ok:
        return f"{call.key}: a check in the output is false"
    got = hashlib.sha256(data).hexdigest()
    want = digests.get(call.key)
    if got != want:
        return f"{call.key}: output sha256 {got[:16]} differs from the recorded {str(want)[:16]}"
    return None


def main(argv) -> int:
    workload, seed, seconds, mode = argv[0], int(argv[1]), float(argv[2]), argv[3]

    import workloads

    calls = workloads.build(workload, seed)
    setup_s = time.perf_counter() - T0

    import json
    import resource
    from pathlib import Path

    if mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    here = Path(__file__).resolve().parent
    digests = json.loads((here / "digests.json").read_text())
    tracer = None
    if mode == "trace":
        import layertrace

        tracer = layertrace.Tracer()

    plain_s, traced_s, layers, spans, failures = [], [], [], [], []
    attempted = 0
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(traced_s) < len(plain_s)
        if traced:
            tracer.reset()
            tracer.install()
            try:
                dt, results = run_pass(calls)
            finally:
                tracer.uninstall()
            traced_s.append(dt)
            layers.append(tracer.metrics())
            spans.append(list(tracer.spans))
        else:
            dt, results = run_pass(calls)
            plain_s.append(dt)
        for call, result in zip(calls, results):
            attempted += 1
            reason = check(call, result, digests)
            if reason:
                failures.append(reason)
        if time.perf_counter() - start >= seconds and (tracer is None or traced_s):
            break

    if spans:
        out = here.parent / ".bench_out"
        out.mkdir(exist_ok=True)
        with open(out / f"spans-{workload}-seed{seed}.tsv", "w", encoding="utf-8") as fh:
            fh.write("pass\tindex\tname\tstart\tend\tparent\n")
            for p, pass_spans in enumerate(spans):
                for i, (name, s, e, parent) in enumerate(pass_spans):
                    fh.write(f"{p}\t{i}\t{name}\t{s!r}\t{e!r}\t{parent}\n")

    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "pass_s": plain_s,
                "traced_pass_s": traced_s,
                "layers": layers,
                "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                "calls": [c.key for c in calls],
                "attempted": attempted,
                "failed": len(failures),
                "failures": failures[:10],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
