"""Command-line interface.

Subcommands: ops, map, classify, tables, measure, descend.  Every command
emits a single JSON document (stable key order, canonical scalar strings) so
the reports double as regression fixtures.  Exit codes: 0 all assertions
pass, 1 an assertion failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys

from .classifier import class_bounds_check, descend_pearson
from .cubic_cases import CASE_IDS, CaseBundle, build_case, case_fixture, inverse_reconstruct_case13
from .errors import CaseError, MappingConditionError, QmapError
from .families import FAMILY_JACOBI, FAMILY_LAGUERRE, family_pair, regularity_failures
from .functionals import PearsonPair, pearson_moments, pearson_residual
from .mapping import build_mapping, verify_interleave
from .measures import case13_measure, case1_measure, discrete_lift
from .opseq import ops_from_recurrence, proved_recurrence
from .polyalg import Poly
from .scalars import QParam, embed_complex, format_scalar, parse_scalar
from .stieltjes import ACDTriple, LaurentSeries, stieltjes_residual, verify_susvq

USAGE_ERROR = 2
ASSERTION_ERROR = 1


def _qparam(text: str, N: int) -> QParam:
    return QParam(parse_scalar(text), max_order=max(64, 3 * N + 16))


def _emit(report: dict, output: str | None) -> None:
    text = json.dumps(report, indent=2)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)


def _cmd_ops(args) -> int:
    q = _qparam(args.q, args.N)
    a = parse_scalar(args.a)
    params = {"a": format_scalar(a)}
    b = None
    if args.family == FAMILY_JACOBI:
        if args.b is None:
            print("error: --b is required for the jacobi family", file=sys.stderr)
            return USAGE_ERROR
        b = parse_scalar(args.b)
        params["b"] = format_scalar(b)
    failures = regularity_failures(args.family, a, b, q, args.N)
    if failures:
        print(f"error: {args.family} is not regular up to level {args.N}: {'; '.join(failures)}", file=sys.stderr)
        return USAGE_ERROR
    pair = family_pair(args.family, a, b, q)
    least = pair.phi.degree  # the Pearson residual reads (Phi u)_0, so u needs u_{deg Phi}
    if args.N < least:
        print(f"error: --N {args.N} is below deg Phi of {args.family}; the least N is {least}", file=sys.stderr)
        return USAGE_ERROR
    u = pearson_moments(pair, parse_scalar(args.u0), args.N, q)
    residual = pearson_residual(u, pair, q)
    M = args.N // 2
    rec, (_, a) = proved_recurrence(u, pair, q, M)
    # below M the pairs are the lemma's or the Chebyshev's, and <u, p_M^2> = a_M h_{M-1} (h_{-1} = 1)
    orth_ok = bool(a[-1])
    ops = ops_from_recurrence(rec, M)
    report = {
        "command": "ops",
        "family": args.family,
        "params": params,
        "q": format_scalar(q.q),
        "N": args.N,
        "moments": u.to_strings(),
        "order": u.order,
        "recurrence": {"b": [format_scalar(v) for v in rec.b], "a": [format_scalar(v) for v in rec.a]},
        "polynomials": ops.to_strings(),
        "pearson_residual_zero": not any(residual),
        "residual_entries": len(residual),
        "orthogonality_ok": orth_ok,
    }
    _emit(report, args.output)
    return 0 if report["pearson_residual_zero"] and orth_ok else ASSERTION_ERROR


def _case_bundle(args) -> CaseBundle:
    """Build the default fixture of ``--case`` at ``--q``; an invalid fixture raises CaseError."""
    q = _qparam(args.q, args.N)
    return build_case(case_fixture(args.case, q), q, args.N)


def _cmd_map(args) -> int:
    bundle = _case_bundle(args)
    mapping = bundle.mapping
    try:  # the build reads the mapping in closed form; re-derive it from p's blocks
        derived = build_mapping(mapping.view, mapping.r0, len(mapping.r) - 1)
    except MappingConditionError:
        derived = None
    n = min(4, len(bundle.q_ops) - 2)  # the identities to n read p_0..p_{k(n+1)}
    il = verify_interleave(ops_from_recurrence(bundle.rec_p, mapping.k * (n + 1)), mapping, bundle.q_ops, n)
    report = {
        "command": "map",
        "case": bundle.case.id,
        "q": format_scalar(bundle.q.q),
        "mapping": mapping.to_dict(),
        "conditions_ok": derived == mapping,
        "interleave_ok": il.ok,
        "interleave_checked": il.checked,
    }
    _emit(report, args.output)
    return 0 if report["conditions_ok"] and il.ok else ASSERTION_ERROR


def _cmd_classify(args) -> int:
    bundle = _case_bundle(args)
    case, expected = bundle.case, bundle.expected_pair
    ok = (
        bundle.report.s == case.expected_class
        and bundle.report.phi == expected.phi
        and bundle.report.psi == expected.psi
    )
    report = {
        "command": "classify",
        "case": case.id,
        "q": format_scalar(bundle.q.q),
        "class": bundle.report.s,
        "expected_class": case.expected_class,
        "phi": bundle.report.phi.to_strings(),
        "psi": bundle.report.psi.to_strings(),
        "matches_expected_pair": ok,
        "reduction_trace": [g.to_strings() for g in bundle.report.trace],
    }
    _emit(report, args.output)
    return 0 if ok else ASSERTION_ERROR


_TABLE_CHECKS = ("class_ok", "phi_ok", "psi_ok", "stieltjes_residual_zero", "susvq_ok", "bounds_ok")


def _run_table_entry(cid: int, qtext: str, q: QParam, N: int) -> dict:
    case = case_fixture(cid, q)
    try:
        bundle = build_case(case, q, N)
    except CaseError as exc:
        # an invalid fixture reads as its bare validation failures
        return {"case": cid, "q": qtext, "ok": False, "error": "; ".join(exc.failures) or str(exc)}
    except QmapError as exc:
        return {"case": cid, "q": qtext, "ok": False, "error": str(exc)}
    expected, k, acd = bundle.expected_pair, bundle.mapping.k, bundle.acd
    # Both checks are linear in the series, so each reads -S_u = sum_n u_n z^(-n-1), u's moments as
    # they are, and the residual of (A, C, -D) is minus that of (A, C, D) on S_u
    neg_Su = LaurentSeries(Poly.zero(), bundle.u.moments)
    residual = stieltjes_residual(ACDTriple(acd.A, acd.C, -acd.D), neg_Su, q)
    susvq = verify_susvq(neg_Su, LaurentSeries(Poly.zero(), bundle.v.moments), bundle.eta, q)
    bounds = class_bounds_check(bundle.report.s, 0, k)
    row = {
        "case": cid,
        "q": qtext,
        "class": bundle.report.s,
        "expected_class": case.expected_class,
        "class_ok": bundle.report.s == case.expected_class,
        "phi_ok": bundle.report.phi == expected.phi,
        "psi_ok": bundle.report.psi == expected.psi,
        "stieltjes_residual_zero": residual.is_zero,
        "residual_depth": residual.depth,
        "susvq_ok": susvq.ok,
        "bounds_ok": bounds.ok,
    }
    diffs = [name for name in _TABLE_CHECKS if not row[name]]
    row["ok"] = not diffs
    if diffs:
        row["error"] = "failed: " + ", ".join(diffs)
    return row


def _cmd_tables(args) -> int:
    qs = args.q or ["1/2", "1/3"]
    rows = []
    for qtext in qs:
        q = _qparam(qtext, args.N)
        rows += [_run_table_entry(cid, qtext, q, args.N) for cid in CASE_IDS]
    rows.sort(key=lambda r: (r["case"], r["q"]))
    all_ok = all(r["ok"] for r in rows)
    report = {"command": "tables", "q_values": qs, "N": args.N, "all_ok": all_ok, "cases": rows}
    _emit(report, args.output)
    return 0 if all_ok else ASSERTION_ERROR


def _cmd_measure(args) -> int:
    if args.case not in (1, 13):
        print("error: measure comparisons are provided for cases 1 and 13", file=sys.stderr)
        return USAGE_ERROR
    qs = parse_scalar(args.q)
    if qs.om or not 0 < qs.re < 1:
        print("error: measure comparisons need rational q in (0,1)", file=sys.stderr)
        return USAGE_ERROR
    bundle = _case_bundle(args)
    qf = float(qs.re)
    if args.case == 1:
        measure = case1_measure(qf, args.L)
    else:
        a = float(bundle.case.params["a"].re)
        c = float(bundle.case.params["c"].re)
        measure = case13_measure(a, c, qf, args.L)
    n_max = min(10, bundle.u.order)
    numeric = discrete_lift(measure, bundle.eta, n_max)
    rows = []
    worst = 0.0
    for n in range(n_max + 1):
        exact = embed_complex(bundle.u.moment(n))
        err = abs(numeric[n] - exact)
        worst = max(worst, err)
        rows.append(
            {
                "n": n,
                "exact": [exact.real, exact.imag],
                "numeric": [numeric[n].real, numeric[n].imag],
                "abs_err": err,
            }
        )
    ok = worst <= args.tol
    report = {
        "command": "measure",
        "case": args.case,
        "q": format_scalar(qs),
        "L": args.L,
        "tol": args.tol,
        "max_abs_err": worst,
        "ok": ok,
        "moments": rows,
    }
    _emit(report, args.output)
    return 0 if ok else ASSERTION_ERROR


def _cmd_descend(args) -> int:
    bundle = _case_bundle(args)
    case, q, k = bundle.case, bundle.q, bundle.mapping.k
    basis = list(ops_from_recurrence(bundle.rec_p, k - 1))
    pair_u = PearsonPair(bundle.report.phi, bundle.report.psi)
    pair_v = descend_pearson(pair_u, bundle.report.s, basis, q, bundle.v)
    report = {
        "command": "descend",
        "case": case.id,
        "q": format_scalar(q.q),
        "class": bundle.report.s,
        "f0": pair_v.phi.to_strings(),
        "g0": pair_v.psi.to_strings(),
        "v_residual_zero": True,  # descend_pearson raises unless pair_v annihilates v
    }
    if case.id == 13:
        rec = inverse_reconstruct_case13(case.params["a"], case.params["c"], case.params["tau"], q)
        report["reconstruction"] = {
            "r0": format_scalar(rec.r0),
            "b01": format_scalar(rec.b01),
            "b02": format_scalar(rec.b02),
            "a02": format_scalar(rec.a02),
        }
    _emit(report, args.output)
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``error:`` line and exit code 2.

    An argument that is ``-w`` or starts with ``-`` and a digit is a value,
    not an option, so a negative scalar parses the same as ``--q -1/2`` and
    ``--q=-1/2``.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(?:\.?\d|w$)")

    def error(self, message):
        self.exit(USAGE_ERROR, f"error: {self.prog}: {message}\n")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built when ``main`` first runs and then reused by the process."""
    parser = _Parser(prog="qmap", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--q", required=True, help="q value, e.g. 1/2")
        p.add_argument(
            "--N",
            type=_positive_int,
            default=48,
            help="target order of u; the mapped functional is built to order max(N // 3, 4), so every N "
            "below 15 runs as N = 12, and the map report first changes at N = 18",
        )
        p.add_argument("--output", help="also write the JSON report to this path")
        p.add_argument("--case", type=int, required=True, choices=CASE_IDS)

    p_ops = sub.add_parser("ops", help="moments, recurrence and polynomials of a classical family")
    p_ops.add_argument("--family", required=True, choices=[FAMILY_LAGUERRE, FAMILY_JACOBI])
    p_ops.add_argument("--a", required=True, help="family parameter a")
    p_ops.add_argument("--b", help="family parameter b (jacobi)")
    p_ops.add_argument("--u0", default="1", help="normalization u_0")
    p_ops.add_argument("--q", required=True)
    p_ops.add_argument("--N", type=_positive_int, default=24)
    p_ops.add_argument("--output")
    p_ops.set_defaults(func=_cmd_ops)

    p_map = sub.add_parser("map", help="build the cubic mapping for a case and verify it")
    common(p_map)
    p_map.set_defaults(func=_cmd_map)

    p_cls = sub.add_parser("classify", help="class and canonical pair for a case")
    common(p_cls)
    p_cls.set_defaults(func=_cmd_classify)

    p_tab = sub.add_parser("tables", help="run all 13 cases at one or more q values")
    p_tab.add_argument("--q", action="append", help="repeatable; default 1/2 and 1/3")
    p_tab.add_argument("--N", type=_positive_int, default=48)
    p_tab.add_argument("--output")
    p_tab.set_defaults(func=_cmd_tables)

    p_mea = sub.add_parser("measure", help="discrete-measure moment comparison for cases 1 and 13")
    common(p_mea)
    p_mea.add_argument("--L", type=_positive_int, default=200, help="measure truncation")
    p_mea.add_argument("--tol", type=_tolerance, default=1e-10)
    p_mea.set_defaults(func=_cmd_measure)

    p_des = sub.add_parser("descend", help="transport the canonical pair down to the mapped functional")
    common(p_des)
    p_des.set_defaults(func=_cmd_descend)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, QmapError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
