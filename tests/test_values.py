"""Every exact value is immutable and behaves as a value: copies, pickles and compares by contents."""

import copy
import pickle
from dataclasses import fields
from fractions import Fraction

import pytest

from qmap import scalars
from qmap.cubic_cases import build_case, case_fixture
from qmap.functionals import MomentFunctional, PearsonPair
from qmap.opseq import BlockView, OPSequence, Recurrence, ops_from_recurrence
from qmap.polyalg import Poly
from qmap.scalars import CycScalar, OMEGA, QParam
from qmap.stieltjes import LaurentSeries

_REC = Recurrence([1, Fraction(-2, 3), OMEGA], [Fraction(1, 2), 5])
_GENERATED = ops_from_recurrence(_REC, 3)  # integer forms from the kernel, no Poly behind them

VALUES = [
    CycScalar(Fraction(1, 2), Fraction(-1, 3)),
    QParam(Fraction(1, 2), 8),
    Poly([1, OMEGA, Fraction(2, 3)]),
    _REC,
    BlockView(_REC, 3),
    OPSequence([Poly.one(), Poly([-1, 1]), Poly([Fraction(1, 4), 0, 1])]),
    MomentFunctional([1, Fraction(1, 2), OMEGA]),
    PearsonPair(Poly([1]), Poly([0, 1])),
    LaurentSeries(Poly([1, 2]), [OMEGA, 3]),
    _GENERATED,
]


def _value_id(value):
    return "OPSequence-generated" if value is _GENERATED else type(value).__name__

ROUND_TRIPS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
}


@pytest.mark.parametrize("trip", list(ROUND_TRIPS))
@pytest.mark.parametrize("value", VALUES, ids=_value_id)
def test_round_trip_is_an_equal_value(value, trip):
    again = ROUND_TRIPS[trip](value)
    assert type(again) is type(value)
    assert again == value
    assert hash(again) == hash(value)


@pytest.mark.parametrize("value", VALUES, ids=_value_id)
def test_fields_cannot_be_assigned(value):
    for f in fields(value):
        with pytest.raises(AttributeError):
            setattr(value, f.name, getattr(value, f.name))


@pytest.mark.parametrize("trip", list(ROUND_TRIPS))
def test_a_copied_rational_keeps_the_shared_zero_w_part(trip):
    again = ROUND_TRIPS[trip](CycScalar(Fraction(3, 7)))
    assert again == Fraction(3, 7)
    assert again.om is scalars._Q0


def test_qparam_compares_by_value_and_order():
    assert QParam(Fraction(1, 2), 8) == QParam(Fraction(1, 2), 8)
    assert hash(QParam(Fraction(1, 2), 8)) == hash(QParam(Fraction(1, 2), 8))
    assert QParam(Fraction(1, 2), 8) != QParam(Fraction(1, 2), 9)


def _build_case1():
    q = QParam(Fraction(1, 2), 160)
    return build_case(case_fixture(1, q), q, 24)


def test_independent_builds_are_equal():
    first, second = _build_case1(), _build_case1()
    assert first.mapping == second.mapping
    assert first == second


def test_a_pickled_bundle_is_equal_and_keeps_its_caches():
    bundle = _build_case1()
    again = pickle.loads(pickle.dumps(bundle))
    assert again == bundle
    assert again.q.pow(3) is again.q.pow(3)
    assert copy.deepcopy(bundle) == bundle
