"""Field arithmetic in Q(w), the q-parameter, and serialization."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qmap import (
    CycScalar,
    OMEGA,
    ONE,
    QParam,
    ZERO,
    embed_complex,
    format_scalar,
    parse_scalar,
)

fractions_st = st.fractions(min_value=-20, max_value=20, max_denominator=12)
scalars_st = st.builds(CycScalar, fractions_st, fractions_st)


def test_omega_relations():
    assert OMEGA * OMEGA == -1 - OMEGA
    assert OMEGA ** 3 == ONE
    assert OMEGA.inv() == -1 - OMEGA
    assert ONE + OMEGA + OMEGA ** 2 == ZERO
    # (1 + w) = -w^2, so (1 + w) * w = -w^3 = -1
    assert (1 + OMEGA) * OMEGA == CycScalar(-1)


@given(scalars_st, scalars_st, scalars_st)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    if a:
        assert a * a.inv() == ONE


@given(scalars_st, scalars_st)
def test_norm_multiplicative(a, b):
    assert (a * b).norm() == a.norm() * b.norm()


@given(scalars_st)
def test_norm_zero_iff_zero(a):
    assert (a.norm() == 0) == (not a)


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ZERO.inv()
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


@given(scalars_st, scalars_st)
def test_embed_is_multiplicative(a, b):
    lhs = embed_complex(a * b)
    rhs = embed_complex(a) * embed_complex(b)
    assert abs(lhs - rhs) <= 1e-12


def test_embed_values():
    assert embed_complex(ONE) == complex(1.0, 0.0)
    w = embed_complex(OMEGA)
    assert abs(w - complex(-0.5, 0.8660254037844386)) < 1e-15
    assert abs(embed_complex(ONE + OMEGA + OMEGA ** 2)) <= 1e-15


def test_q_bracket_values(q_half):
    assert q_half.bracket(0) == ZERO
    assert q_half.bracket(1) == ONE
    assert q_half.bracket(3) == Fraction(7, 4)


def test_q_bracket_closed_form(q_half):
    qs = q_half.q
    for n in range(1, 21):
        assert q_half.bracket(n) == (qs ** n - 1) / (qs - 1)


def test_q_bracket_inverse_parameter(q_half):
    q_inv = q_half.inverse()
    for n in range(12):
        assert q_half.bracket_inv(n) == q_inv.bracket(n)


def test_qparam_rejects_roots_of_unity():
    with pytest.raises(ValueError):
        QParam(CycScalar(-1), 8)
    with pytest.raises(ValueError):
        QParam(OMEGA, 8)
    with pytest.raises(ValueError):
        QParam(0, 8)
    # admissible: q = 2 is no root of unity
    QParam(2, 32)


def test_qparam_pow(q_half):
    q3 = q_half.pow(3)
    assert q3.q == Fraction(1, 8)
    assert q3.max_order == q_half.max_order // 3


@pytest.mark.parametrize("k", [2, 3, 5])
def test_qparam_pow_is_built_once(k):
    q = QParam(CycScalar(Fraction(2, 3), Fraction(1, 5)), 40)
    qk = q.pow(k)
    assert q.pow(k) is qk
    fresh = QParam(q.q ** k, max(1, q.max_order // k))
    assert (qk.q, qk.max_order) == (fresh.q, fresh.max_order)
    for n in range(-fresh.max_order, fresh.max_order + 1):
        assert qk.power(n) == fresh.power(n)
    for n in range(fresh.max_order + 2):
        assert qk.bracket(n) == fresh.bracket(n)


def test_format_parse_round_trip():
    rng = random.Random(3)
    for _ in range(300):
        s = CycScalar(
            Fraction(rng.randint(-99, 99), rng.randint(1, 99)),
            Fraction(rng.randint(-99, 99), rng.randint(1, 99)) if rng.random() < 0.7 else Fraction(0),
        )
        assert parse_scalar(format_scalar(s)) == s


def test_format_shapes():
    assert format_scalar(CycScalar(Fraction(3, 7))) == "3/7"
    assert format_scalar(CycScalar(Fraction(-1, 2), Fraction(1, 3))) == "-1/2+1/3*w"
    assert format_scalar(CycScalar(Fraction(1, 2), Fraction(-1, 3))) == "1/2-1/3*w"
    assert format_scalar(ZERO) == "0/1"


def test_parse_convenience_forms():
    assert parse_scalar("2") == CycScalar(2)
    assert parse_scalar("-3/4") == CycScalar(Fraction(-3, 4))
    assert parse_scalar("w") == OMEGA
    assert parse_scalar("-w") == -OMEGA
    assert parse_scalar("1/2*w") == CycScalar(0, Fraction(1, 2))
    with pytest.raises(ValueError):
        parse_scalar("nonsense")
