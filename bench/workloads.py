"""The four benchmark workloads: their calls, inputs and canonical outputs.

Every call returns something from which ``Call.output`` derives the exact
bytes whose SHA-256 is compared with ``digests.json`` and a semantic verdict
(exit code, ``all_ok``, class and canonical pair).  Library entry points are
looked up on their modules at call time, so the tracer in ``layertrace.py``
sees calls made from here exactly like calls made inside ``qmap``.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable

from qmap import OMEGA, ONE, QParam, cli, cubic_cases
from qmap.scalars import format_scalar

# Small-height q in (0, 1) at which all 13 default fixtures validate at N = 48.
# q = 1/5 is left out on purpose: fixtures 2 and 8 then get a = 1/q = 5 and
# b = 1/5, so a*b = 1 and validation (correctly) rejects them.
Q_POOL = ("1/2", "1/3", "2/3", "1/4", "2/5", "3/5", "3/4")
CATALOG_PAIRS = tuple(combinations(Q_POOL, 2))  # seed 0 -> ("1/2", "1/3")

CATALOG_N = 48
DEEP_N = 144
BRANCH_N = 96
CERTIFY_N = 48
Q = Fraction(1, 2)

# (case id, tau) for the Q(w) branch builds; -w and -w^2 = 1 + w are cube roots of -1.
BRANCH_BUILDS = ((1, -OMEGA), (1, ONE + OMEGA), (5, -OMEGA), (7, -OMEGA))

CERTIFY_ARGS = (
    ("little-q-laguerre", ("--a", "1/4")),
    ("little-q-jacobi", ("--a", "1/4", "--b", "1/5")),
)


@dataclass(frozen=True)
class Call:
    """One timed call: ``run`` does the work, ``output`` checks what it returned."""

    key: str
    run: Callable[[], object]
    output: Callable[[object], tuple[bytes, bool]]


def _cli_call(key: str, argv: list[str], verdict: Callable[[dict], bool]) -> Call:
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors exit instead of returning
                rc = exc.code
        return rc, buf.getvalue()

    def output(result):
        rc, text = result
        return text.encode(), rc == 0 and verdict(json.loads(text))

    return Call(key, run, output)


def case_dump(bundle) -> bytes:
    """Canonical bytes of a case build: rec_p, the mapping data and the class report."""
    report = bundle.report
    doc = {
        "rec_p": {"b": [format_scalar(x) for x in bundle.rec_p.b], "a": [format_scalar(x) for x in bundle.rec_p.a]},
        "mapping": bundle.mapping.to_dict(),
        "class": report.s,
        "phi": report.phi.to_strings(),
        "psi": report.psi.to_strings(),
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def _build_call(key: str, case, q: QParam, N: int) -> Call:
    def run():
        bundle = cubic_cases.build_case(case, q, N)
        expected = bundle.expected_pair
        ok = (
            bundle.report.s == case.expected_class
            and bundle.report.phi == expected.phi
            and bundle.report.psi == expected.psi
        )
        return bundle, ok

    def output(result):
        bundle, ok = result
        return case_dump(bundle), ok

    return Call(key, run, output)


def _tables_ok(doc: dict) -> bool:
    return doc["all_ok"] is True


def _ops_ok(doc: dict) -> bool:
    return doc["pearson_residual_zero"] is True and doc["orthogonality_ok"] is True


def catalog_pair(seed: int) -> tuple[str, str]:
    return CATALOG_PAIRS[seed % len(CATALOG_PAIRS)]


def catalog_call(q1: str, q2: str) -> Call:
    argv = ["tables", "--q", q1, "--q", q2, "--N", str(CATALOG_N)]
    return _cli_call(f"catalog tables q={q1},{q2} N={CATALOG_N}", argv, _tables_ok)


def _qparam(N: int) -> QParam:
    # the same admissibility order the CLI uses for this N
    return QParam(Q, max_order=max(64, 3 * N + 16))


def deep_calls() -> list[Call]:
    q = _qparam(DEEP_N)
    return [
        _build_call(f"deep build_case case={c} q=1/2 N={DEEP_N}", cubic_cases.case_fixture(c, q), q, DEEP_N)
        for c in (1, 13)
    ]


def branch_calls() -> list[Call]:
    q = _qparam(BRANCH_N)
    calls = []
    for c, tau in BRANCH_BUILDS:
        case = cubic_cases.case_fixture(c, q, {"tau": tau})
        key = f"branch build_case case={c} tau={format_scalar(tau)} q=1/2 N={BRANCH_N}"
        calls.append(_build_call(key, case, q, BRANCH_N))
    return calls


def certify_calls() -> list[Call]:
    calls = []
    for family, params in CERTIFY_ARGS:
        argv = ["ops", "--family", family, *params, "--q", "1/2", "--N", str(CERTIFY_N)]
        calls.append(_cli_call(f"certify ops {family} {' '.join(params)} q=1/2 N={CERTIFY_N}", argv, _ops_ok))
    return calls


def build(workload: str, seed: int) -> list[Call]:
    """The workload's calls for one pass, in the order the seed fixes."""
    if workload == "catalog":
        calls = [catalog_call(*catalog_pair(seed))]
    elif workload == "deep":
        calls = deep_calls()
    elif workload == "branch":
        calls = branch_calls()
    elif workload == "certify":
        calls = certify_calls()
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(seed).shuffle(calls)
    return calls


def all_calls() -> list[Call]:
    """Every call any seed can produce, for recording the digests."""
    return [catalog_call(*p) for p in CATALOG_PAIRS] + deep_calls() + branch_calls() + certify_calls()
