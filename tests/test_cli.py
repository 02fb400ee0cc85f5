"""CLI behavior: reports, exit codes, determinism."""

import contextlib
import io
import json
from collections import Counter
from dataclasses import replace

import pytest

from hypothesis import given, settings, strategies as st

from qmap import CycScalar, MomentFunctional, OPSequence, Poly, classifier, cli, cubic_cases, opseq, stieltjes
from qmap.cli import main
from qmap.errors import QmapError
from qmap.families import FAMILY_JACOBI, FAMILY_LAGUERRE
from qmap.scalars import format_scalar, parse_scalar

from helpers import (
    call_spy,
    patch_candidate,
    poly_from_strings,
    repeated_lambda,
    spy_everywhere,
    stieltjes_residual_oracle,
    verify_susvq_oracle,
    zero_a,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_classify_case1(capsys):
    code, report = run_cli(capsys, "classify", "--case", "1", "--q", "1/2", "--N", "36")
    assert code == 0
    assert report["class"] == 1
    assert report["matches_expected_pair"] is True
    assert report["phi"] == ["1/1"]


def test_ops_laguerre(capsys):
    code, report = run_cli(
        capsys, "ops", "--family", "little-q-laguerre", "--a", "1/4", "--q", "1/2", "--N", "12"
    )
    assert code == 0
    assert report["pearson_residual_zero"] is True
    assert report["orthogonality_ok"] is True
    assert report["moments"][1] == "7/8"


OPS_ARGV = [
    ["ops", "--family", "little-q-laguerre", "--a", "1/4", "--q", "1/2", "--N", "24"],
    ["ops", "--family", "little-q-jacobi", "--a", "1/4", "--b", "-1/2*w", "--q", "1/3", "--N", "13", "--u0", "3"],
]


def _singular(*candidate):
    raise QmapError("zero denominator")


@pytest.mark.parametrize("argv", OPS_ARGV)
def test_ops_proves_the_pair_recurrence_and_the_chebyshev_decides_otherwise(capsys, monkeypatch, argv):
    # ops and a build share one step, opseq.proved_recurrence: the Chebyshev runs only where the
    # proof fails, and orthogonality is read from the level on both routes, with no scan
    chebyshev = spy_everywhere(monkeypatch, opseq._chebyshev_levels)
    scanned = spy_everywhere(monkeypatch, opseq.orthogonality_check)
    expected = run_cli(capsys, *argv)
    assert chebyshev == scanned == [] and expected[0] == 0
    M = int(argv[argv.index("--N") + 1]) // 2
    for wrong in (repeated_lambda(1), zero_a(1), _singular):
        with pytest.MonkeyPatch.context() as patch:
            patch_candidate(patch, wrong)
            assert run_cli(capsys, *argv) == expected
        assert [args[1] for args in chebyshev] == [M] and scanned == []
        chebyshev.clear()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_ops_reads_orthogonality_from_the_proof_as_the_scan_does(data):
    # a proved pair covers every pair n != m <= M the scan reads, and <u, p_M^2> != 0 is the
    # Chebyshev's a_M != 0: exit code, report and error line are the fallback's, byte for byte,
    # and the report's orthogonality_ok is the scan's on its own moments and polynomials
    omega = data.draw(st.booleans())
    small = st.fractions(-3, 3, max_denominator=4)
    scalar = st.builds(lambda re, om: format_scalar(CycScalar(re, om if omega else 0)), small, small)
    family = data.draw(st.sampled_from([FAMILY_LAGUERRE, FAMILY_JACOBI]))
    argv = ["ops", "--family", family, "--a", data.draw(scalar), "--q", data.draw(st.sampled_from(["1/2", "1/3", "-1/2*w"]))]
    argv += ["--b", data.draw(scalar)] if family == FAMILY_JACOBI else []
    argv += ["--N", str(data.draw(st.integers(1, 16))), "--u0", data.draw(st.sampled_from(["1", "3", "-1/2*w"]))]
    outcomes = []
    for proof in (True, False):
        with pytest.MonkeyPatch.context() as patch:
            if not proof:  # the Chebyshev decides
                patch.setattr(opseq, "proved_pair_recurrence", lambda *args: None)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            outcomes.append((code, out.getvalue(), err.getvalue()))
    assert outcomes[0] == outcomes[1]
    if outcomes[0][1]:
        report = json.loads(outcomes[0][1])
        u = MomentFunctional([parse_scalar(m) for m in report["moments"]])
        ops = OPSequence([poly_from_strings(p) for p in report["polynomials"]])
        assert report["orthogonality_ok"] == opseq.orthogonality_check(u, ops).ok


@pytest.mark.parametrize("u0, ok", [("0", False), ("3", True)])
def test_ops_at_level_0_reads_orthogonality_from_u0(capsys, u0, ok):
    # --N 1 gives M = 0: the proof does not apply, and the Chebyshev's level 0 has
    # a_0 = h_0 / h_{-1} = u_0, the one diagonal <u, p_0^2> the scan reads
    code, report = run_cli(capsys, "ops", "--family", "little-q-laguerre", "--a", "1/4", "--q", "1/2", "--N", "1", "--u0", u0)
    assert (code, report["orthogonality_ok"], report["polynomials"]) == (0 if ok else 1, ok, [["1/1"]])
    assert opseq.orthogonality_check(MomentFunctional([parse_scalar(m) for m in report["moments"]]), OPSequence([Poly.one()])).ok is ok


def test_ops_with_a_zero_u0_names_level_0(capsys):
    # u_0 = 0 fails the proof, and the Chebyshev's own error is the one line
    code = main(["ops", "--family", "little-q-laguerre", "--a", "1/4", "--q", "1/2", "--N", "24", "--u0", "0"])
    assert code == 2
    assert capsys.readouterr().err == "error: not regular at level 0: <u, p_0^2> = 0\n"


def test_ops_formats_each_form_once_and_builds_no_poly(capsys, monkeypatch):
    # the report's strings come straight from p_0..p_M's integer forms, one format per coefficient
    built = call_spy(monkeypatch, opseq, "_poly")
    formatted = call_spy(monkeypatch, opseq, "_format")
    code, report = run_cli(capsys, "ops", "--family", "little-q-laguerre", "--a", "1/4", "--q", "1/2", "--N", "48")
    assert code == 0 and report["orthogonality_ok"] is True
    assert built == []
    assert len(report["polynomials"]) == 25
    assert len(formatted) == sum(map(len, report["polynomials"])) == sum(range(1, 26))


def test_ops_jacobi_requires_b(capsys):
    code = main(["ops", "--family", "little-q-jacobi", "--a", "1/3", "--q", "1/2", "--N", "8"])
    assert code == 2


def test_ops_below_deg_phi_is_one_usage_error(capsys):
    # the Jacobi Phi has degree 2, so u_0..u_1 hold no entry of the Pearson residual
    code = main(["ops", "--family", "little-q-jacobi", "--a", "1/4", "--b", "1/5", "--q", "1/2", "--N", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: --N 1 is below deg Phi of little-q-jacobi; the least N is 2\n"
    assert main(["ops", "--family", "little-q-jacobi", "--a", "1/4", "--b", "1/5", "--q", "1/2", "--N", "2"]) == 0


def test_ops_laguerre_at_n_1_keeps_its_report(capsys):
    # deg Phi = 1 for little q-Laguerre: N = 1 is its least N, and the check on --N leaves its report as it was
    expected = {
        "command": "ops",
        "family": "little-q-laguerre",
        "params": {"a": "1/4"},
        "q": "1/2",
        "N": 1,
        "moments": ["1/1", "7/8"],
        "order": 1,
        "recurrence": {"b": [], "a": []},
        "polynomials": [["1/1"]],
        "pearson_residual_zero": True,
        "residual_entries": 1,
        "orthogonality_ok": True,
    }
    assert main(["ops", "--family", "little-q-laguerre", "--a", "1/4", "--q", "1/2", "--N", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.out == json.dumps(expected, indent=2) + "\n"
    assert captured.err == ""


@pytest.mark.parametrize(
    "argv, failure",
    [
        (["--family", "little-q-laguerre", "--a", "0"], "a = 0"),
        (["--family", "little-q-laguerre", "--a", "8"], "a = q^-3"),
        (["--family", "little-q-jacobi", "--a", "0", "--b", "1/3"], "ab = 0"),
        (["--family", "little-q-jacobi", "--a", "1/3", "--b", "0"], "ab = 0"),
    ],
)
def test_ops_singular_family_parameters(capsys, argv, failure):
    assert main(["ops", *argv, "--q", "1/2", "--N", "8"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert failure in captured.err


def test_ops_regularity_reaches_the_moments(capsys):
    # ab = 2^27 / 4 = q^-25: the moments to order 24 need ab != q^-25, which level 24 alone does not check
    argv = ["ops", "--family", "little-q-jacobi", "--a", "1/4", "--b", "134217728", "--q", "1/2", "--N", "24"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: little-q-jacobi is not regular up to level 24: ab = q^-25\n"


@pytest.mark.parametrize(
    "argv, option, value",
    [
        (["ops", "--family", "little-q-laguerre", "--q", "1/2", "--N", "8"], "--a", "-1/4"),
        (["classify", "--case", "1", "--N", "12"], "--q", "-1/2"),
        (["ops", "--family", "little-q-laguerre", "--q", "1/2", "--N", "8"], "--a", "-w"),
    ],
)
def test_negative_scalar_is_a_value(capsys, argv, option, value):
    assert main([*argv, f"{option}={value}"]) == 0
    joined = capsys.readouterr().out
    assert main([*argv, option, value]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == joined


def test_map_command(capsys):
    code, report = run_cli(capsys, "map", "--case", "1", "--q", "1/2", "--N", "30")
    assert code == 0
    assert report["conditions_ok"] and report["interleave_ok"]
    assert report["mapping"]["pi_k"] == ["0/1", "0/1", "0/1", "1/1"]


def test_measure_command(capsys):
    code, report = run_cli(
        capsys, "measure", "--case", "1", "--q", "1/2", "--N", "30", "--L", "200", "--tol", "1e-10"
    )
    assert code == 0
    assert report["ok"] is True
    assert report["max_abs_err"] <= 1e-10


def test_descend_command(capsys):
    code, report = run_cli(capsys, "descend", "--case", "13", "--q", "1/2", "--N", "36")
    assert code == 0
    assert report["v_residual_zero"] is True
    assert report["reconstruction"]["r0"] == "55/29"


def test_descend_computes_the_v_residual_once(capsys, monkeypatch):
    calls = []
    residual = cli.pearson_residual

    def counting(*args):
        calls.append(args)
        return residual(*args)

    monkeypatch.setattr(classifier, "pearson_residual", counting)
    monkeypatch.setattr(cli, "pearson_residual", counting)
    assert main(["descend", "--case", "13", "--q", "1/2", "--N", "24"]) == 0
    assert len(calls) == 1
    expected = {
        "command": "descend",
        "case": 13,
        "q": "1/2",
        "class": 2,
        "f0": ["0/1", "-1/27", "1/1"],
        "g0": ["-440/189", "232/189"],
        "v_residual_zero": True,
        "reconstruction": {"r0": "55/29", "b01": "-25/87", "b02": "47/29", "a02": "-672/841"},
    }
    assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"


# verify_interleave to n reads p_0..p_{3(n+1)}, descend the simple set p_0..p_2
@pytest.mark.parametrize("argv, levels", [(["map", "--N", "48"], 15), (["map", "--N", "12"], 6), (["descend", "--N", "48"], 2)])
def test_map_and_descend_form_only_the_p_they_read(capsys, monkeypatch, argv, levels):
    formed = spy_everywhere(monkeypatch, opseq.ops_from_recurrence)
    real, bundles = cli._case_bundle, []
    monkeypatch.setattr(cli, "_case_bundle", lambda args: bundles.append(real(args)) or bundles[-1])
    assert main([*argv, "--case", "13", "--q", "1/2"]) == 0
    capsys.readouterr()
    (bundle,) = bundles
    assert [args[1] for args in formed if args[0] == bundle.rec_p] == [levels]
    assert "p_ops" not in vars(bundle)  # not all Np + 1 of them


def test_map_report_is_pinned(capsys):
    # the whole mapping.to_dict(), including the constant m = 0 and theta_m = 1 keys
    assert main(["map", "--case", "13", "--q", "1/2", "--N", "24"]) == 0
    expected = {
        "command": "map",
        "case": 13,
        "q": "1/2",
        "mapping": {
            "k": 3,
            "m": 0,
            "r0": "55/29",
            "pi_k": ["0/1", "0/1", "0/1", "1/1"],
            "theta_m": ["1/1"],
            "eta": ["1/3", "-4/3", "1/1"],
            "r": ["55/29", "-78968/103153", "7694336/815794393", "7068332032/3366851805913"],
            "s": [
                "-560560/354061",
                "-55611892224/152580366166705",
                "6541833751986176/2764866077488595061745",
            ],
        },
        "conditions_ok": True,
        "interleave_ok": True,
        "interleave_checked": 12,
    }
    assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"


# --N below 15 builds v to order 4, which leaves q_0..q_2 for n <= 1; from N = 36 on n runs to 4
@pytest.mark.parametrize("case", ["1", "13"])
@pytest.mark.parametrize("N, checked", [("1", 6), ("12", 6), ("36", 15), ("48", 15)])
def test_map_interleave_range(capsys, case, N, checked):
    code, report = run_cli(capsys, "map", "--case", case, "--q", "1/2", "--N", N)
    assert code == 0
    assert report["conditions_ok"] is True and report["interleave_ok"] is True
    assert report["interleave_checked"] == checked


def test_tables_small(capsys):
    code, report = run_cli(capsys, "tables", "--q", "1/2", "--N", "30")
    assert code == 0
    assert report["all_ok"] is True
    assert len(report["cases"]) == 13
    assert [row["case"] for row in report["cases"]] == list(range(1, 14))


def test_tables_checks_form_no_series(capsys, monkeypatch):
    # the residual is an integer zero test and the identity the closed form of the lift lemma:
    # neither turns a row into scalars when it holds, as on every catalog build
    calls = call_spy(monkeypatch, stieltjes, "_scalars")
    code, report = run_cli(capsys, "tables", "--q", "1/2", "--q", "1/3", "--N", "48")
    assert code == 0 and len(report["cases"]) == 26
    assert calls == []


def _spoiled(spoil):
    def build(case, q, N):
        b = cubic_cases.build_case(case, q, N)
        if spoil == "u":
            moments = list(b.u.moments)
            moments[7] = moments[7] + 1
            return replace(b, u=MomentFunctional(moments))
        # C + z^(deg C + 1) also moves the residual's depth; D + 1 leaves it
        extra = Poly.monomial(b.acd.C.degree + 1) if spoil == "C" else Poly.one()
        return replace(b, acd=replace(b.acd, **{spoil: getattr(b.acd, spoil) + extra}))

    return build


@pytest.mark.parametrize("spoil", ["u", "C", "D"])
def test_a_spoiled_table_row_is_the_oracle_path_row(capsys, monkeypatch, spoil):
    monkeypatch.setattr(cli, "build_case", _spoiled(spoil))
    argv = ("tables", "--q", "1/2", "--N", "24")
    got = run_cli(capsys, *argv)
    monkeypatch.setattr(cli, "stieltjes_residual", stieltjes_residual_oracle)
    monkeypatch.setattr(cli, "verify_susvq", verify_susvq_oracle)
    assert run_cli(capsys, *argv) == got
    code, report = got
    assert code == 1 and not any(row["ok"] or row["stieltjes_residual_zero"] for row in report["cases"])
    assert all(row["susvq_ok"] == (spoil != "u") for row in report["cases"])


def test_deterministic_output(capsys):
    code1 = main(["classify", "--case", "2", "--q", "1/2", "--N", "30"])
    out1 = capsys.readouterr().out
    code2 = main(["classify", "--case", "2", "--q", "1/2", "--N", "30"])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2


def test_usage_errors(capsys):
    # argparse exits with code 2 on unknown commands/flags
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["classify", "--case", "1", "--q", "0", "--N", "12"]) == 2
    capsys.readouterr()
    assert main(["classify", "--case", "1", "--q", "not-a-scalar", "--N", "12"]) == 2


def test_main_builds_its_parser_once(capsys, monkeypatch):
    # built when main first runs, then reused; a usage error after a run reads as before
    cli.build_parser.cache_clear()
    built = call_spy(monkeypatch, cli, "_Parser")
    code, _ = run_cli(capsys, "ops", "--family", "little-q-laguerre", "--a", "1/4", "--q", "1/2", "--N", "4")
    assert code == 0
    with pytest.raises(SystemExit) as exc:
        main(["tables", "--q", "1/2", "--N", "0"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err == "error: qmap tables: argument --N: expected a positive integer, got '0'\n"
    assert len(built) == 1


def test_output_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, report = run_cli(
        capsys, "classify", "--case", "1", "--q", "1/2", "--N", "30", "--output", str(path)
    )
    assert code == 0
    on_disk = json.loads(path.read_text())
    assert on_disk == report


@pytest.mark.parametrize(
    "argv",
    [
        ["tables", "--q", "1/2", "--N", "0"],
        ["tables", "--q", "1/2", "--N", "-3"],
        ["ops", "--family", "little-q-laguerre", "--a", "1/4", "--q", "1/2", "--N", "0"],
        ["map", "--case", "1", "--q", "1/2", "--N", "0"],
        ["classify", "--case", "1", "--q", "1/2", "--N", "-3"],
        ["measure", "--case", "1", "--q", "1/2", "--N", "0"],
        ["descend", "--case", "13", "--q", "1/2", "--N", "0"],
        ["measure", "--case", "1", "--q", "1/2", "--N", "12", "--L", "0"],
        ["measure", "--case", "1", "--q", "1/2", "--N", "12", "--L", "-5"],
        ["measure", "--case", "1", "--q", "1/2", "--N", "12", "--tol", "nan"],
        ["classify", "--case", "1", "--q", "1/2", "--N", "12", "--output", "{tmp}/missing/x.json"],
        ["map", "--case", "2", "--q", "1/5", "--N", "12"],
        ["classify", "--case", "2", "--q", "1/5", "--N", "12"],
        ["descend", "--case", "2", "--q", "1/5", "--N", "12"],
        ["classify", "--case", "1", "--q", "1/0"],
        ["ops", "--family", "little-q-laguerre", "--a", "1/0", "--q", "1/2", "--N", "4"],
        ["ops", "--family", "little-q-laguerre", "--a", "1/4", "--u0", "1/0", "--q", "1/2", "--N", "4"],
        ["tables", "--q", "1/0", "--N", "12"],
    ],
)
def test_bad_input_is_one_error_line(tmp_path, capsys, argv):
    argv = [a.format(tmp=tmp_path) for a in argv]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects its own arguments by exiting
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_tables_reports_invalid_fixtures_per_row(capsys):
    # at q = 1/5 fixtures 2 and 8 get a = 1/q and b = 1/5, so ab = q^0 = 1
    code, report = run_cli(capsys, "tables", "--q", "1/5", "--N", "12")
    assert code == 1
    assert report["all_ok"] is False
    failed = [row for row in report["cases"] if not row["ok"]]
    assert failed == [
        {"case": cid, "q": "1/5", "ok": False, "error": "regularity: ab = q^-0"} for cid in (2, 8)
    ]
    assert all(list(row) == ["case", "q", "ok", "error"] for row in failed)


def test_tables_validates_each_fixture_once(capsys, monkeypatch):
    calls = Counter()
    validate = cubic_cases.validate_case

    def counting(case, q, *args):
        calls[case.id] += 1
        return validate(case, q, *args)

    monkeypatch.setattr(cubic_cases, "validate_case", counting)
    # a CLI that imported validate_case by name would bypass the first patch
    monkeypatch.setattr(cli, "validate_case", counting, raising=False)
    code, _ = run_cli(capsys, "tables", "--q", "1/5", "--N", "12")
    assert code == 1
    assert calls == Counter(range(1, 14))
