"""Polynomial ring operations, the q-difference operators, and simple-set splits."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from qmap import (
    CycScalar,
    ONE,
    Poly,
    compose,
    compose_xk,
    dilate_poly,
    divrem,
    hahn_poly,
    poly_gcd,
    simple_set_decompose,
    theta0,
)

from conftest import random_monic_poly, random_nonzero_scalar, random_poly
from helpers import poly_from_strings

X = Poly.x()

small_fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
scalars_st = st.builds(CycScalar, small_fractions, st.one_of(st.just(Fraction(0)), small_fractions))


def polys(max_deg: int):
    """Polynomials over Q(w) of degree <= max_deg, the zero polynomial included."""
    return st.lists(scalars_st, max_size=max_deg + 1).map(Poly)


def test_constructor_trims_and_degrees():
    assert Poly([1, 2, 0, 0]).degree == 1
    assert Poly([]).degree == float("-inf")
    assert Poly([0, 0]).is_zero
    assert Poly.monomial(3).degree == 3
    assert (X * X + 1).lc == CycScalar(1)


def test_divrem_examples():
    q, r = divrem(Poly.monomial(3), X * X + 1)
    assert q == X and r == -X
    with pytest.raises(ZeroDivisionError):
        divrem(X, Poly.zero())


@settings(deadline=None)
@given(polys(4), polys(4), polys(4))
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=200, deadline=None)
@given(polys(8), polys(4).filter(lambda p: not p.is_zero))
def test_divrem_property(a, b):
    q, r = divrem(a, b)
    assert q * b + r == a
    assert r.degree < b.degree


def test_gcd_examples():
    assert poly_gcd(X * X - 1, X - 1) == X - 1
    assert poly_gcd(Poly.zero(), X + 2) == X + 2
    g = poly_gcd((X - 1) * (X + 3), (X - 1) * (X + 5))
    assert g == X - 1


@settings(max_examples=120, deadline=None)
@given(polys(3), polys(3), polys(2))
def test_gcd_divides_both_and_is_symmetric(a, b, common):
    a, b = a * common, b * common
    assume(not (a.is_zero and b.is_zero))
    g = poly_gcd(a, b)
    assert g.lc == ONE
    assert g == poly_gcd(b, a)
    for f in (a, b):
        if not f.is_zero:
            assert divrem(f, g)[1].is_zero
    assert divrem(g, common)[1].is_zero


@settings(deadline=None)
@given(polys(5), st.integers(1, 4))
def test_compose_power_substitution(f, k):
    assert compose(X * X + 1, Poly.monomial(3)) == Poly.monomial(6) + 1
    assert compose(f, Poly.monomial(k)) == compose_xk(f, k)
    if not f.is_zero:
        assert compose_xk(f, k).degree == k * f.degree


def test_hahn_poly_examples(q_half):
    assert hahn_poly(Poly.constant(5), q_half).is_zero
    assert hahn_poly(X * X, q_half) == Poly([0, Fraction(3, 2)])
    assert hahn_poly(Poly.monomial(3) + X, q_half) == Poly([1, 0, Fraction(7, 4)])


def test_hahn_poly_difference_quotient(q_half):
    # (f(qx) - f(x)) / ((q-1) x) agrees with the termwise brackets
    rng = random.Random(14)
    qs = q_half.q
    for _ in range(80):
        f = random_poly(rng, 8)
        num = dilate_poly(f, qs) - f
        expected, rem = divrem(num, (qs - 1) * X)
        assert rem.is_zero
        assert hahn_poly(f, q_half) == expected


def test_hahn_q_leibniz_pair(q_half):
    # H_q(x f)(x) = q x (H_q f)(x) + f(x)
    rng = random.Random(15)
    for _ in range(100):
        f = random_poly(rng, 8)
        lhs = hahn_poly(X * f, q_half)
        rhs = q_half.q * X * hahn_poly(f, q_half) + f
        assert lhs == rhs


def test_theta0():
    assert theta0(X * X + 3 * X + 5) == X + 3
    assert theta0(Poly.constant(7)).is_zero
    rng = random.Random(16)
    for _ in range(100):
        f = random_poly(rng, 10)
        assert X * theta0(f) + Poly.constant(f.coeff(0)) == f


def test_dilate_examples(q_half):
    d = CycScalar(Fraction(2, 3))
    assert dilate_poly(X * X, d) == Poly([0, 0, Fraction(4, 9)])
    # q^2 h_{1/q} (x (x - 1/(bq))) = x (x - 1/b)
    qs = q_half.q
    b = CycScalar(Fraction(1, 5))
    lhs = qs ** 2 * dilate_poly(X * Poly([-(b * qs).inv(), 1]), qs.inv())
    assert lhs == X * Poly([-b.inv(), 1])


def test_dilate_inverse_round_trip():
    rng = random.Random(17)
    for _ in range(100):
        f = random_poly(rng, 7)
        d = random_nonzero_scalar(rng)
        assert dilate_poly(dilate_poly(f, d), d.inv()) == f


def test_simple_set_examples():
    basis = [Poly.one(), X, X * X]
    comps = simple_set_decompose(Poly.monomial(4), basis)
    assert comps[0].is_zero and comps[1] == X and comps[2].is_zero

    tau = CycScalar(Fraction(1, 3))
    basis2 = [Poly.one(), X - tau, X * X + 1]
    comps2 = simple_set_decompose(Poly.monomial(3), basis2)
    rebuilt = sum((basis2[j] * compose_xk(comps2[j], 3) for j in range(3)), Poly.zero())
    assert rebuilt == Poly.monomial(3)


def test_simple_set_round_trip_property():
    rng = random.Random(18)
    for _ in range(220):
        k = rng.randint(2, 4)
        basis = [random_monic_poly(rng, j) for j in range(k)]
        f = random_poly(rng, 12)
        comps = simple_set_decompose(f, basis)
        bound = f.degree // k if not f.is_zero else 0
        assert all(c.is_zero or c.degree <= bound for c in comps)
        rebuilt = sum((basis[j] * compose_xk(comps[j], k) for j in range(k)), Poly.zero())
        assert rebuilt == f


def test_simple_set_rejects_bad_basis():
    with pytest.raises(ValueError):
        simple_set_decompose(X, [Poly.one(), Poly.one(), X * X])
    with pytest.raises(ValueError):
        simple_set_decompose(X, [Poly.one()])  # k = len(basis) must be >= 2


def test_poly_serialization_round_trip():
    rng = random.Random(19)
    for _ in range(50):
        f = random_poly(rng, 6)
        assert poly_from_strings(f.to_strings()) == f
