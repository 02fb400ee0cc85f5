"""The benchmark's layer trace (bench/layertrace.py) still finds and restores what it rebinds.

The tracer rebinds functions by module attribute and methods by class
attribute; a refactor that renames them, or rebuilds a class object, would
otherwise leave ``bench/run.py --trace 1`` counting nothing.
"""

import importlib.util
from fractions import Fraction
from pathlib import Path

from qmap import cli, cubic_cases
from qmap.scalars import CycScalar, QParam

LAYERTRACE = Path(__file__).resolve().parents[1] / "bench" / "layertrace.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_tracer_counts_the_layers_and_restores_them(capsys):
    originals = (vars(CycScalar)["__mul__"], vars(QParam)["__init__"], cli.build_case)
    tracer = _tracer()
    tracer.install()
    try:
        q = QParam(Fraction(1, 2), 64)
        cubic_cases.build_case(cubic_cases.case_fixture(1, q), q, 12)
        assert cli.main(["ops", "--family", "little-q-laguerre", "--a", "1/4", "--q", "1/2", "--N", "8"]) == 0
        metrics = tracer.metrics()
    finally:
        tracer.uninstall()
        capsys.readouterr()
    assert vars(CycScalar)["__mul__"] is originals[0]
    assert vars(QParam)["__init__"] is originals[1]
    assert cli.build_case is originals[2]
    assert metrics["cubic_cases.build.calls"] == 1
    assert metrics["cli.calls"] == 1
    # no Chebyshev: the build's q and ops' u take their pairs' recurrences, proved, and p's is ascended
    assert metrics["opseq.recurrence.calls"] == 0
    assert metrics["scalars.mul"] > 0
