"""Formal Laurent series, the q-difference equation, and the lifted triples."""

import random
from fractions import Fraction

import pytest

from qmap import (
    ACDTriple,
    CycScalar,
    LaurentSeries,
    MomentFunctional,
    Poly,
    acd_from_pearson,
    hahn_qinv_series,
    lift_functional,
    pearson_moments,
    poly_mul_series,
    series_from_functional,
    stieltjes_residual,
    substitute_zk,
    verify_susvq,
)
from qmap.families import (
    little_q_jacobi_acd,
    little_q_jacobi_pair,
    little_q_laguerre_acd,
    little_q_laguerre_pair,
)

from conftest import cached_case_bundle, random_poly, random_scalar
from helpers import series_evaluate

X = Poly.x()


def _random_series(rng, depth, poly_deg=-1):
    pp = random_poly(rng, poly_deg) if poly_deg >= 0 else Poly.zero()
    return LaurentSeries(pp, [random_scalar(rng) for _ in range(depth)])


def test_series_from_functional_round_trip():
    u = MomentFunctional([1, 2, Fraction(3, 5)])
    S = series_from_functional(u)
    assert S.poly_part.is_zero
    assert S.principal == (CycScalar(-1), CycScalar(-2), CycScalar(Fraction(-3, 5)))
    assert S.depth == u.order + 1
    back = MomentFunctional([-c for c in S.principal])
    assert back == u


def test_series_linearity():
    rng = random.Random(51)
    u = MomentFunctional([random_scalar(rng) for _ in range(6)])
    w = MomentFunctional([random_scalar(rng) for _ in range(6)])
    both = MomentFunctional([a + b for a, b in zip(u.moments, w.moments)])
    assert series_from_functional(both) == series_from_functional(u) + series_from_functional(w)
    # a difference is known to the shallower depth, either way round
    short = MomentFunctional(w.moments[:4])
    diff = MomentFunctional([a - b for a, b in zip(u.moments, short.moments)])
    assert series_from_functional(u) - series_from_functional(short) == series_from_functional(diff)
    assert series_from_functional(short) - series_from_functional(u) == -series_from_functional(diff)
    # with polynomial parts, term by term equals adding the negation
    for depths in ((7, 3), (2, 6), (5, 5), (0, 4)):
        S, T = (_random_series(rng, d, poly_deg=rng.randint(0, 4)) for d in depths)
        D = S - T
        assert D == S + (-T)
        assert D.depth == min(depths)
        assert D.poly_part == S.poly_part - T.poly_part
        assert D.principal == tuple(x - y for x, y in zip(S.principal, T.principal))


def test_hahn_qinv_series_basic(q_half):
    # H_{1/q} z^{-1} = -q z^{-2}
    S = LaurentSeries(Poly.zero(), [1, 0, 0])
    H = hahn_qinv_series(S, q_half)
    assert H.principal[0] == CycScalar(0)
    assert H.principal[1] == -q_half.q
    assert H.depth == 4
    # constants die
    C = LaurentSeries(Poly.constant(5), [0])
    assert hahn_qinv_series(C, q_half).poly_part.is_zero


def test_hahn_qinv_series_difference_quotient_oracle(q_half):
    # evaluate (S(z/q) - S(z)) / ((1/q - 1) z) at sample points on truncations
    rng = random.Random(52)
    qi = q_half.q.inv()
    for _ in range(60):
        S = _random_series(rng, 8, poly_deg=rng.randint(-1, 4))
        H = hahn_qinv_series(S, q_half)
        for z in (CycScalar(2), CycScalar(3), CycScalar(Fraction(5, 7)), CycScalar(-2), CycScalar(Fraction(-7, 3))):
            lhs = (series_evaluate(S, qi * z) - series_evaluate(S, z)) / ((qi - 1) * z)
            # the difference quotient of the truncation only agrees with the
            # truncated image where the image is tracked: compare through
            # evaluation of H itself, whose deepest term comes from S's last
            assert series_evaluate(H, z) == lhs


def test_poly_mul_series_shift():
    u = MomentFunctional([7, 11, 13])
    S = series_from_functional(u)
    zS = poly_mul_series(X, S)
    assert zS.poly_part == Poly.constant(-7)
    assert zS.principal == (CycScalar(-11), CycScalar(-13))
    one = poly_mul_series(Poly.one(), S)
    assert one == S


def test_poly_mul_series_associativity():
    rng = random.Random(53)
    for _ in range(200):
        A = random_poly(rng, 3)
        B = random_poly(rng, 3)
        S = _random_series(rng, 12, poly_deg=2)
        da = A.degree if not A.is_zero else 0
        db = B.degree if not B.is_zero else 0
        if da + db > S.depth:
            continue
        left = poly_mul_series(A * B, S)
        right = poly_mul_series(A, poly_mul_series(B, S))
        d = min(left.depth, right.depth)
        assert left.truncated(d) == right.truncated(d)


def test_poly_mul_depth_exhaustion():
    S = LaurentSeries(Poly.zero(), [1, 2])
    with pytest.raises(ValueError):
        poly_mul_series(Poly.monomial(3), S)


def test_substitute_zk():
    v = MomentFunctional([2, 3])
    Sv = series_from_functional(v)
    S3 = substitute_zk(Sv, 3)
    assert S3.depth == 6
    assert S3.principal == (CycScalar(0), CycScalar(0), CycScalar(-2), CycScalar(0), CycScalar(0), CycScalar(-3))
    with pytest.raises(ValueError):
        substitute_zk(LaurentSeries(Poly.one(), [1]), 2)


def test_lift_matches_series_identity(q_half):
    # the unit lift: series_from_functional(lift(v)) = eta * S_v(z^k)
    rng = random.Random(54)
    for k in (2, 3):
        v_moments = [CycScalar(1)] + [random_scalar(rng) for _ in range(6)]
        v = MomentFunctional(v_moments)
        eta = Poly([random_scalar(rng) for _ in range(k - 1)] + [1])
        u = lift_functional(v, eta)
        lhs = series_from_functional(u)
        rhs = poly_mul_series(eta, substitute_zk(series_from_functional(v), k))
        d = min(lhs.depth, rhs.depth)
        assert lhs.truncated(d) == rhs.truncated(d)


def test_residual_zero_for_classical_families(q_half):
    pair = little_q_laguerre_pair(Fraction(1, 4), q_half)
    u = pearson_moments(pair, 1, 30, q_half)
    t = acd_from_pearson(pair, u, q_half)
    res = stieltjes_residual(t, series_from_functional(u), q_half)
    assert res.is_zero and res.depth >= 12

    pj = little_q_jacobi_pair(Fraction(1, 3), Fraction(1, 5), q_half)
    v = pearson_moments(pj, 1, 30, q_half)
    tj = acd_from_pearson(pj, v, q_half)
    resj = stieltjes_residual(tj, series_from_functional(v), q_half)
    assert resj.is_zero and resj.depth >= 12


def test_acd_matches_known_triples(q_half, q_third):
    for q in (q_half, q_third):
        pair = little_q_laguerre_pair(Fraction(1, 4), q)
        u = pearson_moments(pair, 1, 12, q)
        t = acd_from_pearson(pair, u, q)
        expected = little_q_laguerre_acd(Fraction(1, 4), q, u.moment(0))
        assert (t.A, t.C, t.D) == (expected.A, expected.C, expected.D)

        pj = little_q_jacobi_pair(Fraction(1, 3), Fraction(1, 5), q)
        v = pearson_moments(pj, 1, 12, q)
        tj = acd_from_pearson(pj, v, q)
        expectedj = little_q_jacobi_acd(Fraction(1, 3), Fraction(1, 5), q, v.moment(0))
        assert (tj.A, tj.C, tj.D) == (expectedj.A, expectedj.C, expectedj.D)


def test_residual_detects_corruption(q_half):
    pair = little_q_laguerre_pair(Fraction(1, 4), q_half)
    u = pearson_moments(pair, 1, 20, q_half)
    t = acd_from_pearson(pair, u, q_half)
    bad = ACDTriple(t.A, t.C, t.D + 1)
    res = stieltjes_residual(bad, series_from_functional(u), q_half)
    assert not res.is_zero
    assert res.poly_part == Poly.constant(-1)


def test_acd_mapped_residual_and_bracket_identity(q_half):
    b = cached_case_bundle(1, q_half)
    res = stieltjes_residual(b.acd, series_from_functional(b.u), q_half)
    assert res.is_zero and res.depth >= 12
    # [k]_{1/q} = [k]_q q^{1-k}
    for k in (2, 3, 5):
        assert q_half.bracket_inv(k) == q_half.bracket(k) * q_half.power(k - 1).inv()


def test_verify_susvq_cases(q_half):
    for cid in (1, 13):
        b = cached_case_bundle(cid, q_half)
        rep = verify_susvq(series_from_functional(b.u), series_from_functional(b.v), b.eta, q_half)
        assert rep.ok and rep.depth >= 12


def test_verify_susvq_k2_smoke(q_half):
    # any monic eta of degree 1 and any v make the identity hold for the lift
    q2 = q_half.pow(2)
    pair = little_q_laguerre_pair(Fraction(1, 4), q2)
    v = pearson_moments(pair, 1, 16, q2)
    eta = Poly([Fraction(-1, 3), 1])  # x - tau with tau = 1/3
    u = lift_functional(v, eta)
    rep = verify_susvq(series_from_functional(u), series_from_functional(v), eta, q_half)
    assert rep.ok


@pytest.mark.parametrize("eta", [Poly([2, 2]), Poly([Fraction(1, 3), 5])])
def test_verify_susvq_non_monic_eta(q_half, eta):
    # the unit lift has u_0 = lc(eta) v_0, and the identity holds with no rescale
    q2 = q_half.pow(2)
    v = pearson_moments(little_q_laguerre_pair(Fraction(1, 4), q2), 1, 16, q2)
    u = lift_functional(v, eta)
    assert u.moment(0) == eta.lc
    rep = verify_susvq(series_from_functional(u), series_from_functional(v), eta, q_half)
    assert rep.ok


def test_verify_susvq_detects_perturbation(q_half):
    b = cached_case_bundle(1, q_half)
    bad = list(b.u.moments)
    bad[5] = bad[5] + 1
    rep = verify_susvq(
        series_from_functional(MomentFunctional(bad)), series_from_functional(b.v), b.eta, q_half
    )
    assert not rep.ok
