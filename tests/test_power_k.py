"""The power k of the lift, read from eta (k = deg eta + 1) or from a simple set (k = len(basis)).

For k = 2..5 and monic or non-monic eta of degree k - 1: the lift places
e_i v_n at index kn + k-1-i, the substitution identity holds on it, the
ascended pair annihilates it and a simple set of k polynomials round-trips.
A zero or constant eta names no k >= 2 and is a QmapError in every function
that reads k from eta.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qmap import (
    ZERO,
    ACDTriple,
    CycScalar,
    MomentFunctional,
    Poly,
    QParam,
    acd_mapped,
    ascend_pearson,
    compose_xk,
    lift_functional,
    pearson_moments,
    pearson_residual,
    series_from_functional,
    simple_set_decompose,
    verify_susvq,
)
from qmap.errors import QmapError
from qmap.families import little_q_laguerre_pair
from qmap.mapping import lift_power

Q = QParam(Fraction(1, 2), 64)

small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=5)
nonzero_fractions = small_fractions.filter(bool)
scalars = st.builds(CycScalar, small_fractions, small_fractions)
nonzero_scalars = scalars.filter(bool)


@st.composite
def etas(draw, k: int):
    """eta of degree k - 1: monic, or with a drawn nonzero leading coefficient."""
    lead = draw(st.one_of(st.just(CycScalar(1)), nonzero_scalars))
    return Poly(draw(st.lists(scalars, min_size=k - 1, max_size=k - 1)) + [lead])


@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(2, 5))
def test_the_lift_and_its_identity_read_k_from_eta(data, k):
    eta = data.draw(etas(k))
    v = MomentFunctional(data.draw(st.lists(scalars, min_size=1, max_size=7)))
    assert lift_power(eta) == k
    u = lift_functional(v, eta)
    expected = [ZERO] * (k * (v.order + 1))
    for n, vn in enumerate(v.moments):
        for i, e in enumerate(eta.coeffs):
            expected[k * n + k - 1 - i] = e * vn
    assert u.moments == tuple(expected)
    assert verify_susvq(series_from_functional(u), series_from_functional(v), eta, Q).ok


@settings(max_examples=25, deadline=None)
@given(st.data(), st.integers(2, 4))
def test_the_ascended_pair_annihilates_the_lift(data, k):
    eta = data.draw(etas(k))
    qk = Q.pow(k)
    # a in (0, 1) keeps a != q^(-n-1), so the little q^k-Laguerre moments exist
    a = data.draw(st.fractions(min_value=Fraction(1, 9), max_value=Fraction(8, 9), max_denominator=9))
    pair = little_q_laguerre_pair(a, qk)
    v = pearson_moments(pair, data.draw(nonzero_fractions), 8, qk)
    residual = pearson_residual(lift_functional(v, eta), ascend_pearson(pair, eta, Q), Q)
    assert residual and not any(residual)


@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(2, 5))
def test_a_simple_set_of_k_polynomials_round_trips(data, k):
    basis = [data.draw(etas(j + 1)) for j in range(k)]
    f = Poly(data.draw(st.lists(scalars, max_size=3 * k + 2)))
    comps = simple_set_decompose(f, basis)
    assert len(comps) == k
    assert sum((basis[j] * compose_xk(comps[j], k) for j in range(k)), Poly.zero()) == f


@pytest.mark.parametrize("eta", [Poly.zero(), Poly.one(), Poly.constant(Fraction(2, 3))])
def test_a_zero_or_constant_eta_is_a_qmap_error(eta):
    v = MomentFunctional([1, 2, 3])
    pair = little_q_laguerre_pair(Fraction(1, 4), Q)
    calls = (
        lambda: lift_power(eta),
        lambda: lift_functional(v, eta),
        lambda: acd_mapped(ACDTriple(Poly.one(), Poly.x(), Poly.one()), eta, Q),
        lambda: verify_susvq(series_from_functional(v), series_from_functional(v), eta, Q),
        lambda: ascend_pearson(pair, eta, Q),
    )
    for call in calls:
        with pytest.raises(QmapError, match=r"^eta must have degree k - 1 >= 1, got degree"):
            call()
