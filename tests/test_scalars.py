"""Field arithmetic in Q(w), the q-parameter, and serialization."""

import operator
import random
import re
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
from qmap import scalars as scalars_module

from helpers import (
    add_oracle,
    inv_oracle,
    mul_oracle,
    neg_oracle,
    rsub_oracle,
    rtruediv_oracle,
    sub_oracle,
    truediv_oracle,
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


Q_HALF_40 = QParam(Fraction(1, 2), 40)


@pytest.mark.parametrize("q", [Q_HALF_40, Q_HALF_40.pow(3), QParam(OMEGA / 2, 24).pow(3)])
def test_q_times_bracket_is_formed_once_per_parameter(q):
    n_max = q.max_order + 1
    assert q.q_bracket(5) == q.q * q.bracket(5)  # the table grows as far as it is read
    assert [q.q_bracket(n) for n in range(n_max + 1)] == [q.q * q.bracket(n) for n in range(n_max + 1)]
    assert q.q_bracket(n_max) is q.q_bracket(n_max)
    with pytest.raises(ValueError, match=f"bracket index {n_max + 1} out of validated range"):
        q.q_bracket(n_max + 1)


@pytest.mark.parametrize("q", [Fraction(1, 2), Fraction(2, 3), OMEGA / 2])
def test_q_bracket_form_is_kept_and_grows_on_demand(q):
    # the form stieltjes_residual reads: a fresh _scaled of the q [m]_q it reaches, made again
    # only for a deeper n, and the same object for any n it already reaches
    q = QParam(q, 40)
    held = None
    for n in (0, 5, 3, 5, 20, 12, 41):
        form = q.q_bracket_form(n)
        R, O, D = form
        grown = held is None or len(held[0]) <= n
        assert (form is not held) == grown
        assert len(R) == (n + 1 if grown else len(held[0]))
        assert form == scalars_module._scaled([q.q_bracket(m) for m in range(len(R))])
        held = form
    assert (O is None) == (not q.q.om)
    with pytest.raises(ValueError, match="bracket index 42 out of validated range"):
        q.q_bracket_form(42)


def test_q_bracket_inverse_parameter(q_half):
    q_inv = QParam(q_half.q.inv(), q_half.max_order)
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


@pytest.mark.parametrize("text", ["1/0", "1/2+1/0*w", "1/0*w"])
def test_parse_rejects_a_zero_denominator(text):
    with pytest.raises(ValueError, match=re.escape(f"cannot parse scalar '{text}': zero denominator")):
        parse_scalar(text)


# -- the kernel against the arithmetic it replaced -----------------------------

rationals_st = st.builds(CycScalar, fractions_st)
cyclotomic_st = st.builds(CycScalar, fractions_st, fractions_st.filter(bool))
# a zero w-part produced by the general Q(w) path rather than the constructor
cancelled_st = st.builds(lambda a, b: CycScalar(a, b) + CycScalar(0, -b), fractions_st, fractions_st)
kernel_operand_st = st.one_of(rationals_st, cyclotomic_st, cancelled_st)
plain_st = st.one_of(st.integers(-20, 20), fractions_st)

# operator -> (oracle for CycScalar on the left, oracle for CycScalar on the right)
_BINARY_ORACLES = {
    operator.add: (add_oracle, add_oracle),
    operator.sub: (sub_oracle, rsub_oracle),
    operator.mul: (mul_oracle, mul_oracle),
    operator.truediv: (truediv_oracle, rtruediv_oracle),
}


def _assert_kernel_result(r, expected):
    assert type(r) is CycScalar
    assert type(r.re) is type(r.om) is Fraction
    assert (r.re, r.om) == (expected.re, expected.om)
    if not r.om:
        assert r.om is scalars_module._Q0


def _oracle_or_error(fn, *args):
    try:
        return fn(*args)
    except ZeroDivisionError as exc:
        return exc


@given(
    st.sampled_from(list(_BINARY_ORACLES)),
    st.one_of(kernel_operand_st, plain_st),
    st.one_of(kernel_operand_st, plain_st),
)
def test_kernel_binary_ops_match_oracle(op, x, y):
    if not isinstance(x, CycScalar) and not isinstance(y, CycScalar):
        x = CycScalar(x)
    forward, reflected = _BINARY_ORACLES[op]
    expected = _oracle_or_error(forward, x, y) if isinstance(x, CycScalar) else _oracle_or_error(reflected, y, x)
    if isinstance(expected, ZeroDivisionError):
        with pytest.raises(ZeroDivisionError):
            op(x, y)
        return
    _assert_kernel_result(op(x, y), expected)


@given(kernel_operand_st)
def test_kernel_unary_ops_match_oracle(x):
    _assert_kernel_result(-x, neg_oracle(x))
    if x:
        _assert_kernel_result(x.inv(), inv_oracle(x))
    else:
        with pytest.raises(ZeroDivisionError, match="division by zero in Q"):
            x.inv()


@pytest.mark.parametrize("args", [(1.5,), ("1",), (1, 0.5)])
def test_constructor_still_validates(args):
    with pytest.raises(TypeError):
        CycScalar(*args)


def test_traced_method_names_stay_on_the_class():
    # the benchmark's layer trace rebinds these by name to count scalar ops
    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__rsub__", "inv"):
        assert name in vars(CycScalar)


@given(st.one_of(st.integers(-(10**30), 10**30), st.fractions()))
def test_rational_hash_matches_its_value(x):
    assert CycScalar(x) == x
    assert hash(CycScalar(x)) == hash(x)
    assert len({CycScalar(x), x}) == 1


def test_qparam_power_range_errors():
    q = QParam(Fraction(1, 2), 4)
    assert q.power(4) == Fraction(1, 16)
    assert q.power(-4) == 16
    with pytest.raises(ValueError, match="power 5 exceeds validated order 4"):
        q.power(5)
    with pytest.raises(ValueError, match="power -5 exceeds validated order 4"):
        q.power(-5)
