"""CLI behavior: reports, exit codes, determinism."""

import json

import pytest

from qmap.cli import main


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


def test_ops_jacobi_requires_b(capsys):
    code = main(["ops", "--family", "little-q-jacobi", "--a", "1/3", "--q", "1/2", "--N", "8"])
    assert code == 2


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


def test_tables_small(capsys):
    code, report = run_cli(capsys, "tables", "--q", "1/2", "--N", "30")
    assert code == 0
    assert report["all_ok"] is True
    assert len(report["cases"]) == 13
    assert [row["case"] for row in report["cases"]] == list(range(1, 14))


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
