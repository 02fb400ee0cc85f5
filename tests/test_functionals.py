"""Moment functionals: operators, duality, and Pearson moment generation."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from qmap import (
    CycScalar,
    MomentFunctional,
    PearsonPair,
    Poly,
    QParam,
    act,
    compose_xk,
    dilate_functional,
    dilate_poly,
    hahn_functional,
    hahn_poly,
    left_mul,
    pearson_moments,
    pearson_residual,
    recurrence_from_moments,
    sigma_star,
    u_poly,
)
from qmap.errors import QmapError, RegularityError, TruncationError
from qmap.families import (
    FAMILY_JACOBI,
    FAMILY_LAGUERRE,
    family_pair,
    jacobi_regularity_failures,
    laguerre_regularity_failures,
    little_q_jacobi_pair,
    little_q_laguerre_pair,
    regularity_failures,
)
from qmap import opseq
from qmap.opseq import pair_recurrence

from conftest import random_nonzero_scalar, random_poly, random_scalar
from helpers import family_recurrence, pair_candidate_oracle

X = Poly.x()


def _random_functional(rng, order):
    return MomentFunctional([random_scalar(rng) for _ in range(order + 1)])


def test_act_examples():
    u = MomentFunctional([5, 7, 11, 13])
    assert act(u, Poly.one()) == CycScalar(5)
    assert act(u, X * X + 1) == CycScalar(16)
    with pytest.raises(TruncationError):
        act(u, Poly.monomial(4))


def test_left_mul_examples():
    rng = random.Random(21)
    u = _random_functional(rng, 10)
    assert left_mul(Poly.one(), u) == u
    xu = left_mul(X, u)
    assert xu.order == 9
    assert all(xu.moment(n) == u.moment(n + 1) for n in range(10))
    tau = CycScalar(Fraction(2, 7))
    w = left_mul(X * X + tau * X, u)
    assert all(w.moment(n) == u.moment(n + 2) + tau * u.moment(n + 1) for n in range(9))


def test_left_mul_composes():
    rng = random.Random(22)
    for _ in range(200):
        u = _random_functional(rng, 12)
        f = random_poly(rng, 3)
        g = random_poly(rng, 3)
        if f.is_zero or g.is_zero:
            continue
        assert left_mul(f * g, u) == left_mul(f, left_mul(g, u))


def test_hahn_functional_examples(q_half):
    rng = random.Random(23)
    u = _random_functional(rng, 8)
    hu = hahn_functional(u, q_half)
    assert hu.moment(0) == CycScalar(0)
    assert hu.moment(1) == -u.moment(0)
    assert hu.order == u.order + 1


def test_hahn_duality(q_half):
    rng = random.Random(24)
    for _ in range(200):
        u = _random_functional(rng, 11)
        f = random_poly(rng, 10)
        assert act(hahn_functional(u, q_half), f) == -act(u, hahn_poly(f, q_half))


def test_dilate_functional(q_half):
    rng = random.Random(25)
    u = _random_functional(rng, 9)
    assert dilate_functional(u, 1) == u
    d = CycScalar(Fraction(3, 4))
    assert dilate_functional(u, d).moment(2) == d * d * u.moment(2)
    for _ in range(100):
        f = random_poly(rng, 9)
        dd = random_nonzero_scalar(rng)
        assert act(dilate_functional(u, dd), f) == act(u, dilate_poly(f, dd))


def test_sigma_star(q_half):
    rng = random.Random(26)
    u = _random_functional(rng, 17)
    s = sigma_star(u, 3)
    assert s.order == 5
    assert s.moment(1) == u.moment(3)
    for _ in range(100):
        f = random_poly(rng, 5)
        assert act(s, f) == act(u, compose_xk(f, 3))


def test_u_poly_examples():
    rng = random.Random(27)
    u = _random_functional(rng, 6)
    assert u_poly(u, Poly.one()) == Poly.constant(u.moment(0))
    assert u_poly(u, X) == Poly([u.moment(1), u.moment(0)])
    assert u_poly(u, X * X) == Poly([u.moment(2), u.moment(1), u.moment(0)])


def test_substitution_relations_on_moments(q_half):
    # functional-level relations through the power substitution
    rng = random.Random(28)
    k = 3
    qk = q_half.pow(k)
    for _ in range(200):
        u = _random_functional(rng, 20)
        f = random_poly(rng, 4)
        # f sigma*(u) = sigma*(f(x^k) u)
        lhs = left_mul(f, sigma_star(u, k)) if not f.is_zero else None
        if lhs is not None:
            rhs = sigma_star(left_mul(compose_xk(f, k), u), k)
            n = min(lhs.order, rhs.order)
            assert lhs.moments[: n + 1] == rhs.moments[: n + 1]
        # sigma*(H_q u) = [k]_q H_{q^k} sigma*(x^{k-1} u)
        lhs2 = sigma_star(hahn_functional(u, q_half), k)
        rhs2 = hahn_functional(sigma_star(left_mul(Poly.monomial(k - 1), u), k), qk)
        bk = q_half.bracket(k)
        n2 = min(lhs2.order, rhs2.order)
        assert lhs2.moments[: n2 + 1] == tuple(bk * m for m in rhs2.moments[: n2 + 1])


def test_hahn_poly_power_substitution_identity(q_half):
    # H_q(f(x^k))(x) = [k]_q x^{k-1} (H_{q^k} f)(x^k)
    rng = random.Random(29)
    for k in (2, 3, 4):
        qk = q_half.pow(k)
        for _ in range(70):
            f = random_poly(rng, 6)
            lhs = hahn_poly(compose_xk(f, k), q_half)
            rhs = q_half.bracket(k) * Poly.monomial(k - 1) * compose_xk(hahn_poly(f, qk), k)
            assert lhs == rhs


# -- Pearson generation -----------------------------------------------------


def test_little_q_laguerre_moments(q_half):
    pair = little_q_laguerre_pair(Fraction(1, 4), q_half)
    u = pearson_moments(pair, 1, 20, q_half)
    assert u.moment(1) == Fraction(7, 8)
    assert u.moment(2) == Fraction(105, 128)
    # recursion u_{n+1} = (1 - a q^{n+1}) u_n
    a = CycScalar(Fraction(1, 4))
    for n in range(20):
        assert u.moment(n + 1 if n < 20 else n) is not None
    acc = CycScalar(1)
    for n in range(1, 21):
        acc = acc * (1 - a * q_half.power(n))
        assert u.moment(n) == acc


def test_family_dispatch(q_half):
    a, b = Fraction(1, 4), Fraction(1, 5)
    assert family_pair(FAMILY_LAGUERRE, a, None, q_half) == little_q_laguerre_pair(a, q_half)
    assert family_pair(FAMILY_JACOBI, a, b, q_half) == little_q_jacobi_pair(a, b, q_half)
    assert regularity_failures(FAMILY_LAGUERRE, 8, None, q_half, 4) == laguerre_regularity_failures(8, q_half, 4)
    assert regularity_failures(FAMILY_LAGUERRE, 8, None, q_half, 4) == ["a = q^-3"]
    assert regularity_failures(FAMILY_JACOBI, a, 4, q_half, 4) == jacobi_regularity_failures(a, 4, q_half, 4)
    assert regularity_failures(FAMILY_JACOBI, a, 4, q_half, 4) == ["ab = q^-0", "b = q^-2"]


def test_jacobi_regularity_covers_the_moments_it_is_asked_for(q_half):
    # the Pearson row that solves for u_m divides by 1 - ab q^(m+1): ab = q^-m breaks order 10 iff 2 <= m <= 11
    a = Fraction(1, 4)
    for m in range(2, 14):
        b = 4 * Fraction(2) ** m
        try:
            pearson_moments(little_q_jacobi_pair(a, b, q_half), 1, 10, q_half)
            generated = True
        except RegularityError:
            generated = False
        assert (f"ab = q^-{m}" in jacobi_regularity_failures(a, b, q_half, 4, 10)) == (not generated), m
    assert jacobi_regularity_failures(a, 4 * 2 ** 11, q_half, 4) == []  # the moments to order n_max = 4 exist


_small = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_pair_recurrence_is_the_chebyshev_on_the_pair_moments(data):
    # a family's pair or a random classical one: deg Phi <= 2 with phi_0 free, deg Psi = 1
    omega = data.draw(st.booleans())
    coeffs = st.builds(CycScalar, _small, _small if omega else st.just(Fraction(0)))
    scalars = coeffs.filter(bool)
    try:
        Q = QParam(data.draw(scalars), 16)
    except ValueError:  # a root of unity of order <= 16
        assume(False)
    n = data.draw(st.integers(1, 6))
    family = data.draw(st.sampled_from((FAMILY_LAGUERRE, FAMILY_JACOBI, None)))
    if family is None:
        deg = data.draw(st.integers(0, 2))
        phi = Poly(data.draw(st.lists(coeffs, min_size=deg, max_size=deg)) + [data.draw(scalars)])
        pair = PearsonPair(phi, Poly([data.draw(coeffs), data.draw(scalars)]))
    else:
        a, b = data.draw(scalars), data.draw(scalars)
        assume(not regularity_failures(family, a, b, Q, 2 * n + 1))
        pair = family_pair(family, a, b, Q)
        assert pair_recurrence(pair, Q, n) == family_recurrence(family, a, b, Q, n)
    try:
        expected = recurrence_from_moments(pearson_moments(pair, data.draw(scalars), 2 * n - 1, Q), n)[0]
    except QmapError:
        with pytest.raises(QmapError):
            pair_recurrence(pair, Q, n)
        return
    assert pair_recurrence(pair, Q, n) == expected


def _candidate_outcome(candidate, pair, Q, n):
    try:
        return candidate(pair, Q, n)
    except (QmapError, ValueError) as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_pair_levels_on_integers_are_the_scalar_formula(data):
    # opseq._pair_candidate works on integers of Z[w]; the CycScalar formula it replaced
    # (helpers.pair_candidate_oracle) gives the same b, a (a zero a kept) and lambda, or the same
    # error: wrong degrees, a zero gap (drawn on purpose through ab = Q^-(2j-1)), or a q validated
    # to too low an order
    omega = data.draw(st.booleans())
    coeffs = st.builds(CycScalar, _small, _small if omega else st.just(Fraction(0)))
    scalars = coeffs.filter(bool)
    try:
        Q = QParam(data.draw(scalars), data.draw(st.integers(4, 16)))
    except ValueError:  # a root of unity of low order
        assume(False)
    n = data.draw(st.integers(0, 12))
    shape = data.draw(st.sampled_from(("family", "gap", "random")))
    if shape == "random":
        deg = data.draw(st.integers(0, 3))
        phi = Poly(data.draw(st.lists(coeffs, min_size=deg, max_size=deg)) + [data.draw(scalars)])
        pair = PearsonPair(phi, Poly([data.draw(coeffs), data.draw(scalars)]))
    else:
        a = data.draw(scalars)
        b = Q.q ** -(2 * data.draw(st.integers(1, 6)) - 1) * a.inv() if shape == "gap" else data.draw(scalars)
        pair = little_q_jacobi_pair(a, b, Q) if shape == "gap" or data.draw(st.booleans()) else little_q_laguerre_pair(a, Q)
    got = _candidate_outcome(opseq._pair_candidate, pair, Q, n)
    expected = _candidate_outcome(pair_candidate_oracle, pair, Q, n)
    if isinstance(expected[0], list):
        b, a, eigen = expected
        expected = b, a, eigen[: n + 1]
    assert got == expected


def test_pair_recurrence_rejects_a_zero_gap_and_the_wrong_degrees(q_half):
    Q = q_half.pow(3)
    pair = family_pair(FAMILY_JACOBI, 2, Q.q ** -5 / 2, Q)  # ab = Q^-5: the closed form divides by 1 - ab Q^5
    assert pair_recurrence(pair, Q, 2) == family_recurrence(FAMILY_JACOBI, 2, Q.q ** -5 / 2, Q, 2)
    with pytest.raises(QmapError, match=r"^pair recurrence: lambda_3 = lambda_1$"):
        pair_recurrence(pair, Q, 3)
    with pytest.raises(QmapError, match=r"^pair recurrence: need deg Phi <= 2 and deg Psi = 1, have 3 and 1$"):
        pair_recurrence(PearsonPair(Poly.monomial(3), X), Q, 2)
    with pytest.raises(QmapError, match=r"^pair recurrence: need deg Phi <= 2 and deg Psi = 1, have 1 and 0$"):
        pair_recurrence(PearsonPair(X, Poly.one()), Q, 2)


def test_little_q_laguerre_brute_force_oracle(q_half):
    # solve the first two residual rows as a 2x2 linear system in (u_1, u_2)
    pair = little_q_laguerre_pair(Fraction(1, 4), q_half)
    phi, psi = pair.phi, pair.psi
    qs = q_half.q

    # row n: -[n]_q (phi u)_{n-1} - (psi u)_n = 0, phi = x so (phi u)_m = u_{m+1}
    # n=0: psi_0 u_0 + psi_1 u_1 = 0
    u1 = -(psi.coeff(0)) / psi.coeff(1)
    # n=1: -u_1 - (psi_0 u_1 + psi_1 u_2) = 0
    u2 = (-u1 - psi.coeff(0) * u1) / psi.coeff(1)
    assert u1 == Fraction(7, 8)
    assert u2 == Fraction(105, 128)


def test_little_q_jacobi_moments(q_half):
    pair = little_q_jacobi_pair(Fraction(1, 3), Fraction(1, 5), q_half)
    v = pearson_moments(pair, 1, 40, q_half)
    # one-step oracle: u_1 = (1 - a q) / (1 - a b q^2); frozen value
    assert v.moment(1) == Fraction(50, 59)
    res = pearson_residual(v, pair, q_half)
    assert len(res) >= 40
    assert not any(res)


def test_pearson_residual_detects_perturbation(q_half):
    pair = little_q_laguerre_pair(Fraction(1, 4), q_half)
    u = pearson_moments(pair, 1, 12, q_half)
    assert not any(pearson_residual(u, pair, q_half))
    bumped = list(u.moments)
    bumped[3] = bumped[3] + 1
    res = pearson_residual(MomentFunctional(bumped), pair, q_half)
    assert any(res)


def test_pearson_regularity_error(q_half):
    # jacobi with ab = q^{-3}: the u_2 coefficient cancels at row n=1
    pair = little_q_jacobi_pair(q_half.q ** -1, q_half.q ** -2, q_half)
    with pytest.raises(RegularityError, match="regularity condition"):
        pearson_moments(pair, 1, 8, q_half)


def test_laguerre_degeneracy_surfaces_in_recovery(q_half):
    # a = q^{-2} zeroes every moment from u_2 on; the generation runs but the
    # functional is not regular, which the moment-recovery step reports
    from qmap import recurrence_from_moments

    pair = little_q_laguerre_pair(q_half.q ** -2, q_half)
    u = pearson_moments(pair, 1, 16, q_half)
    assert u.moment(2) == CycScalar(0)
    with pytest.raises(RegularityError, match="level 2"):
        recurrence_from_moments(u, 6)


def test_pearson_rejects_underdetermined(q_half):
    # deg Psi = 2 leaves u_1 undetermined by the row stepping
    pair = PearsonPair(X, Poly([1, 1, 1]))
    with pytest.raises(RegularityError):
        pearson_moments(pair, 1, 6, q_half)


def test_functional_serialization():
    u = MomentFunctional([1, Fraction(1, 2), CycScalar(0, 1)])
    strings = u.to_strings()
    assert strings == ["1/1", "1/2", "0/1+1/1*w"]
