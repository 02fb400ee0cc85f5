"""Numeric discrete-measure representations and the exact rotation identities."""

import random
from fractions import Fraction

import pytest

from qmap import CycScalar, Poly, embed_complex
from qmap.measures import (
    DiscreteMeasure,
    case13_measure,
    case1_measure,
    discrete_lift,
    qpochhammer,
    root_of_unity_identities,
)

from conftest import cached_case_bundle


def test_qpochhammer_basics():
    assert qpochhammer(0.3, 0.5, 0) == 1
    assert abs(qpochhammer(0.5, 0.5, 1) - 0.5) < 1e-15
    assert abs(qpochhammer(2.0, 0.5, 2) - (1 - 2.0) * (1 - 1.0)) < 1e-15


def test_qpochhammer_infinite_regression():
    # (q^2; q^3)_inf at q = 1/2, frozen after first computation
    v = qpochhammer(0.25, 0.125)
    assert abs(v - 0.7233205262322574) < 1e-14
    with pytest.raises(ValueError):
        qpochhammer(0.25, 1.5)


def test_measure_weights_sum_to_one():
    m1 = case1_measure(0.5, 200)
    assert abs(sum(m1.weights) - 1.0) < 1e-12
    m13 = case13_measure(1 / 7, 1 / 3, 0.5, 200)
    assert abs(sum(m13.weights) - 1.0) < 1e-12


def test_case1_moment_match(q_half):
    b = cached_case_bundle(1, q_half, N=36)
    measure = case1_measure(0.5, 200)
    numeric = discrete_lift(measure, b.eta, 10)
    for n in range(11):
        exact = embed_complex(b.u.moment(n))
        assert abs(numeric[n] - exact) <= 1e-10


def test_case13_moment_match(q_half):
    b = cached_case_bundle(13, q_half, N=36)
    a = float(Fraction(1, 7))
    c = float(Fraction(1, 3))
    measure = case13_measure(a, c, 0.5, 200)
    numeric = discrete_lift(measure, b.eta, 10)
    for n in range(11):
        exact = embed_complex(b.u.moment(n))
        assert abs(numeric[n] - exact) <= 1e-10


def test_doubling_truncation_is_stable(q_half):
    b = cached_case_bundle(1, q_half, N=36)
    n200 = discrete_lift(case1_measure(0.5, 200), b.eta, 10)
    n400 = discrete_lift(case1_measure(0.5, 400), b.eta, 10)
    assert max(abs(x - y) for x, y in zip(n200, n400)) < 1e-13


def test_normalization_moment_zero(q_half):
    b = cached_case_bundle(1, q_half, N=36)
    numeric = discrete_lift(case1_measure(0.5, 200), b.eta, 0)
    assert abs(numeric[0] - 1.0) < 1e-12


def test_partial_sums_of_weight_tails():
    # sum |a_l mu_l^(n-2)| increases to a finite limit on the allowed n range:
    # k_tau = 0 (case 1) starts at n = 1, k_tau != 0 (case 13) includes n = 0
    m1 = case1_measure(0.5, 400)
    for n in (1, 2, 3):
        partial = 0.0
        previous = -1.0
        for w, mu in zip(m1.weights, m1.nodes):
            partial += abs(w * mu ** (n - 2))
            assert partial >= previous
            previous = partial
        assert partial < 1e6
    m13 = case13_measure(1 / 7, 1 / 3, 0.5, 400)
    for n in (0, 1, 2):
        total = sum(abs(w * mu ** (n - 2)) for w, mu in zip(m13.weights, m13.nodes))
        assert total < 1e6


def test_measure_validation():
    with pytest.raises(ValueError):
        case1_measure(1.5, 10)
    with pytest.raises(ValueError):
        case13_measure(3.0, 0.5, 0.5, 10)  # a outside (0, 1/q)
    with pytest.raises(ValueError):
        DiscreteMeasure((1.0,), (0.0,))


def test_rotation_identities_exact():
    rng = random.Random(77)
    checked = 0
    while checked < 120:
        tau = CycScalar(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        ktau = CycScalar(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        mu = CycScalar(Fraction(rng.randint(1, 30), rng.randint(1, 9)))
        b01 = CycScalar(Fraction(rng.randint(-6, 6), rng.randint(1, 7)))
        rep = root_of_unity_identities(Poly([ktau, tau, 1]), mu, b01)
        assert rep.ok
        checked += 1


def test_rotation_identity_on_case_data(q_half):
    b = cached_case_bundle(13, q_half, N=36)
    for l in range(20):
        rep = root_of_unity_identities(b.eta, q_half.power(l))
        assert rep.ok


def test_rotation_identity_ktau_zero_special_case(q_half):
    # eta = x(x + tau) is the degenerate-constant-term shape
    tau = CycScalar(-1)
    rep = root_of_unity_identities(Poly([0, tau, 1]), CycScalar(Fraction(1, 2)))
    assert rep.ok
