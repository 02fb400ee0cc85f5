"""Formal Laurent series, the q-difference equation, and the lifted triples.

The table's two checks are compared with their series compositions in
``helpers``: ``stieltjes_residual`` (integer rows) on random and on real
triples, ``verify_susvq`` (the closed form of the lift lemma) on lifts that
are cut, extended, perturbed or given polynomial parts, both at rational and
Q(w) q, t and S.  The series algebra of those compositions is tested here
too, and the bracket identity the lemma rests on is checked on ``QParam``'s
tables.
"""

import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from qmap import (
    ZERO,
    ACDTriple,
    OMEGA,
    CycScalar,
    LaurentSeries,
    MomentFunctional,
    Poly,
    QParam,
    acd_from_pearson,
    lift_functional,
    pearson_moments,
    series_from_functional,
    stieltjes_residual,
    verify_susvq,
)
from qmap.cubic_cases import build_case, case_fixture
from qmap.errors import QmapError
from qmap.families import (
    little_q_jacobi_acd,
    little_q_jacobi_pair,
    little_q_laguerre_acd,
    little_q_laguerre_pair,
)

from conftest import cached_case_bundle, random_poly, random_scalar
from helpers import (
    call_spy,
    hahn_qinv_series,
    kernel_scalars,
    poly_mul_series,
    series_evaluate,
    series_sub,
    stieltjes_residual_oracle,
    substitute_zk,
    verify_susvq_oracle,
)

X = Poly.x()


def _random_series(rng, depth, poly_deg=-1):
    pp = random_poly(rng, poly_deg) if poly_deg >= 0 else Poly.zero()
    return LaurentSeries(pp, [random_scalar(rng) for _ in range(depth)])


def _to_depth(S, depth):
    return LaurentSeries(S.poly_part, S.principal[:depth])


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
    assert series_sub(series_from_functional(both), series_from_functional(w)) == series_from_functional(u)
    # a difference is known to the shallower depth, either way round
    short = MomentFunctional(w.moments[:4])
    diff = MomentFunctional([a - b for a, b in zip(u.moments, short.moments)])
    back = MomentFunctional([b - a for a, b in zip(u.moments, short.moments)])
    assert series_sub(series_from_functional(u), series_from_functional(short)) == series_from_functional(diff)
    assert series_sub(series_from_functional(short), series_from_functional(u)) == series_from_functional(back)
    # with polynomial parts, each part subtracts on its own
    for depths in ((7, 3), (2, 6), (5, 5), (0, 4)):
        S, T = (_random_series(rng, d, poly_deg=rng.randint(0, 4)) for d in depths)
        D = series_sub(S, T)
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
        assert _to_depth(left, d) == _to_depth(right, d)


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
        assert _to_depth(lhs, d) == _to_depth(rhs, d)


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


@pytest.mark.parametrize("eta", [Poly([2, 2]), Poly([Fraction(1, 3), 5]), Poly([1, Fraction(-1, 2), 3]), Poly([0, 0, 0, 2])])
def test_verify_susvq_non_monic_eta(q_half, monkeypatch, eta):
    # the unit lift has u_0 = lc(eta) v_0, and the identity holds with no rescale
    qk = q_half.pow(eta.degree + 1)
    v = pearson_moments(little_q_laguerre_pair(Fraction(1, 4), qk), 1, 16, qk)
    u = lift_functional(v, eta)
    assert u.moment(0) == eta.lc
    Su, Sv = series_from_functional(u), series_from_functional(v)
    formed = call_spy(monkeypatch, LaurentSeries, "__init__")
    rep = verify_susvq(Su, Sv, eta, q_half)
    assert rep.ok and formed == []


def test_verify_susvq_detects_perturbation(q_half):
    b = cached_case_bundle(1, q_half)
    bad = list(b.u.moments)
    bad[5] = bad[5] + 1
    rep = verify_susvq(
        series_from_functional(MomentFunctional(bad)), series_from_functional(b.v), b.eta, q_half
    )
    assert not rep.ok


# -- the integer residual and the lift lemma against the series oracles --------

small = st.fractions(min_value=-3, max_value=3, max_denominator=5)


def _values(omega: bool):
    """Zero and rational values, and w-only and mixed ones when ``omega`` is set."""
    return kernel_scalars(small) if omega else st.one_of(st.just(ZERO), st.builds(CycScalar, small))


def _polys(values, max_degree: int):
    return st.lists(values, max_size=max_degree + 1).map(Poly)


@st.composite
def qparams(draw, omega: bool, orders=st.integers(1, 20)):
    """A rational or Q(w) q, admissible to a drawn order; small orders put brackets out of range."""
    try:
        return QParam(CycScalar(draw(small.filter(bool)), draw(small) if omega else 0), draw(orders))
    except ValueError:  # q^n = 1 within the order
        assume(False)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (QmapError, ValueError) as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=200, deadline=None)
@given(st.data(), st.booleans(), st.booleans())
def test_the_residual_matches_its_oracle(data, omega_q, omega_s):
    q, values = data.draw(qparams(omega_q)), _values(omega_s)
    S = LaurentSeries(data.draw(_polys(values, 3)), data.draw(st.lists(values, max_size=12)))
    t = ACDTriple(data.draw(_polys(values, 4).filter(bool)), data.draw(_polys(values, 4)), data.draw(_polys(values, 5)))
    if data.draw(st.booleans()):  # q keeps the weights' form of a deeper call, past S's depth
        q.q_bracket_form(q.max_order + 1)
    assert _outcome(stieltjes_residual, t, S, q) == _outcome(stieltjes_residual_oracle, t, S, q)


Q_HALF, Q_OMEGA = QParam(Fraction(1, 2), 160), QParam(CycScalar(Fraction(1, 2), Fraction(1, 3)), 64)
_REAL = {}


def _real(name: str):
    """A build or a classical triple whose residual and identity vanish, with (t, u, v, eta, q)."""
    if name not in _REAL:
        if name == "laguerre at Q(w) q":
            pair = little_q_laguerre_pair(Fraction(1, 4) + OMEGA, Q_OMEGA)
            u = pearson_moments(pair, 1, 40, Q_OMEGA)
            _REAL[name] = acd_from_pearson(pair, u, Q_OMEGA), u, None, None, Q_OMEGA
        else:
            cid, tau = {"case 1": (1, None), "case 13": (13, None), "case 1 at tau = -w": (1, -OMEGA)}[name]
            case = case_fixture(cid, Q_HALF, None if tau is None else {"tau": tau})
            b = build_case(case, Q_HALF, 48)
            _REAL[name] = b.acd, b.u, b.v, b.eta, Q_HALF
    return _REAL[name]


def _perturbed(data, u: MomentFunctional, values) -> MomentFunctional:
    at = data.draw(st.sampled_from((None, 0, 7, 30)))
    if at is None:
        return u
    moments = list(u.moments)
    moments[at] = moments[at] + data.draw(values.filter(bool))
    return MomentFunctional(moments)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from(("case 1", "case 13", "case 1 at tau = -w", "laguerre at Q(w) q")), st.booleans())
def test_the_residual_of_a_real_triple_matches_its_oracle(data, name, omega):
    t, u, _, _, q = _real(name)
    values = _values(omega)
    S = series_from_functional(_perturbed(data, u, values))
    S = LaurentSeries(data.draw(st.one_of(st.just(Poly.zero()), _polys(values, 2))), S.principal)
    spoil = data.draw(st.sampled_from((None, "A", "C", "D")))
    if spoil is not None:  # one more term, at a degree that may change the depth
        j = data.draw(st.integers(0, getattr(t, spoil).degree + 1))
        spoiled = getattr(t, spoil) + data.draw(values.filter(bool)) * Poly.monomial(j)
        assume(spoil != "A" or not spoiled.is_zero)  # the term cancelled a constant A: no triple to test
        t = replace(t, **{spoil: spoiled})
    assert _outcome(stieltjes_residual, t, S, q) == _outcome(stieltjes_residual_oracle, t, S, q)


def test_a_real_residual_is_zero_to_the_depth_of_its_oracle():
    for name in ("case 1", "case 13", "case 1 at tau = -w", "laguerre at Q(w) q"):
        t, u, _, _, q = _real(name)
        S = series_from_functional(u)
        res = stieltjes_residual(t, S, q)
        assert res.is_zero and res == stieltjes_residual_oracle(t, S, q)
        assert res.depth == min(S.depth + 1 - t.A.degree, S.depth - t.C.degree)


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(2, 5), st.booleans(), st.booleans())
def test_the_identity_matches_its_oracle(data, k, omega_q, omega_s):
    q, values = data.draw(qparams(omega_q)), _values(omega_s)
    lead = data.draw(st.one_of(st.just(CycScalar(1)), values.filter(bool)))
    eta = Poly(data.draw(st.lists(values, min_size=k - 1, max_size=k - 1)) + [lead])
    v = MomentFunctional(data.draw(st.lists(values, min_size=1, max_size=8)))
    # Su: the lift cut short or run on past it, then perhaps perturbed at one entry
    su = list(series_from_functional(lift_functional(v, eta)).principal) + data.draw(st.lists(values, max_size=4))
    su = su[: data.draw(st.integers(0, len(su)))]
    if su and data.draw(st.booleans()):
        at = data.draw(st.one_of(st.sampled_from((0, 7, 30)), st.integers(0, len(su) - 1)))
        if at < len(su):
            su[at] = su[at] + data.draw(values.filter(bool))
    parts = st.one_of(st.just(Poly.zero()), _polys(values, 3))
    Su = LaurentSeries(data.draw(parts), su)
    sv = series_from_functional(v).principal
    Sv = LaurentSeries(data.draw(parts), sv[: data.draw(st.sampled_from((0, len(sv) // 2, len(sv))))])
    assert _outcome(verify_susvq, Su, Sv, eta, q) == _outcome(verify_susvq_oracle, Su, Sv, eta, q)


@pytest.mark.parametrize(
    "order, eta, v_moments, message",
    [
        (8, Poly([1, 0, 1]), [], "depth 3 exhausted by multiplication with degree 4"),  # Sv.depth = 0 at k = 3
        (1, Poly([1, 0, 1]), [1], "bracket index 3 out of validated range"),  # [k]_{1/q} past q's order
        (4, Poly([2, 1]), [1, 2, 3, 4], "bracket index 4 out of validated range"),  # Sv past q^k's order
    ],
)
def test_a_lift_raises_where_the_series_comparison_does(order, eta, v_moments, message):
    # the lift holds in each case, so only the range guards send it to the series comparison
    q = QParam(Fraction(1, 2), order)
    Sv = LaurentSeries(Poly.zero(), [-CycScalar(m) for m in v_moments])
    Su = LaurentSeries(Poly.zero(), [e * c for c in Sv.principal for e in reversed(eta.coeffs)])
    assert _outcome(verify_susvq, Su, Sv, eta, q) == _outcome(verify_susvq_oracle, Su, Sv, eta, q) == ("ValueError", message)


@pytest.mark.parametrize("name", ["case 1", "case 13", "case 1 at tau = -w"])
@pytest.mark.parametrize("at", [None, 0, 7, 30])
def test_the_identity_of_a_build_names_a_perturbed_moment(monkeypatch, name, at):
    _, u, v, eta, q = _real(name)
    moments = list(u.moments)
    if at is not None:
        moments[at] = moments[at] + 1
    Su, Sv = series_from_functional(MomentFunctional(moments)), series_from_functional(v)
    formed = call_spy(monkeypatch, LaurentSeries, "__init__")
    rep = verify_susvq(Su, Sv, eta, q)
    assert formed == []  # the closed form names the entry without forming a series
    assert rep == verify_susvq_oracle(Su, Sv, eta, q)
    assert rep.ok == (at is None)
    assert rep.first_nonzero == (None if at is None else f"z^-{at + 2}")
    assert rep.depth == min(3 * (Sv.depth - 1) + 2, Su.depth + 1)


SUBSTITUTION = "substitution requires a vanishing polynomial part"


@pytest.mark.parametrize(
    "q, sv_part, su_depth, message",
    [
        (QParam(Fraction(1, 2), 8), Poly.one(), 4, SUBSTITUTION),  # S_v(z^k) needs no constant part
        (QParam(Fraction(1, 2), 8), Poly.one(), 11, "bracket index 10 out of validated range"),  # after H_{1/q} S_u
        # q = -w: q^2 is admissible to order 2 with [3]_{q^2} = 0, so H_{1/q^2} S_v has no polynomial part
        (QParam(-OMEGA, 5), Poly.monomial(3), 2, SUBSTITUTION),
        (QParam(-OMEGA, 5), Poly.monomial(3), 7, "bracket index 7 out of validated range"),
    ],
)
def test_the_errors_come_in_the_order_of_forming_both_sides(q, sv_part, su_depth, message):
    eta = Poly([0, 1])
    Sv, Su = LaurentSeries(sv_part, [1, 2]), LaurentSeries(Poly.zero(), [1] * su_depth)
    assert _outcome(verify_susvq, Su, Sv, eta, q) == _outcome(verify_susvq_oracle, Su, Sv, eta, q) == ("ValueError", message)


@pytest.mark.parametrize("poly_part, bump", [(Poly.zero(), 1), (Poly.monomial(3), 0), (Poly.monomial(2), 0)])
def test_a_vanishing_last_weight_hides_its_entry(poly_part, bump):
    # q = w^2 is admissible to order 2 but [3]_q = 0: H_{1/q} drops z^3 and the weight of z^-4
    q = QParam(OMEGA * OMEGA, 2)
    eta, v = Poly([0, 1]), MomentFunctional([1, 2])
    su = list(series_from_functional(lift_functional(v, eta)).principal)[:3]
    su[2] = su[2] + bump
    Su, Sv = LaurentSeries(poly_part, su), series_from_functional(v)
    rep = verify_susvq(Su, Sv, eta, q)
    assert rep == verify_susvq_oracle(Su, Sv, eta, q)
    assert (rep.ok, rep.depth, rep.first_nonzero) == ((True, 4, None) if poly_part.degree != 2 else (False, 4, "z^1"))


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(2, 6), st.booleans())
def test_the_bracket_lemma_holds_on_the_tables(data, k, omega):
    # [km]_q = [k]_q [m]_{q^k}, as q [km]_q = [k]_{1/q} q^k [m]_{q^k}: verify_susvq's lift route rests on it
    q = data.draw(qparams(omega, st.integers(k, 40)))
    qk = q.pow(k)
    for m in range((q.max_order + 1) // k + 1):
        assert q.q_bracket(k * m) == q.bracket_inv(k) * qk.q_bracket(m)
