"""Mapping construction, block conditions, interleaving, and the moment lift."""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from qmap import (
    BlockView,
    CycScalar,
    MomentFunctional,
    PearsonPair,
    Poly,
    QParam,
    Recurrence,
    act,
    build_mapping,
    check_conditions,
    compose_xk,
    delta_det,
    left_mul,
    lift_functional,
    ops_from_recurrence,
    pearson_moments,
    recurrence_from_moments,
    sigma_star,
    verify_interleave,
)
from qmap import mapping as mapping_module
from qmap.errors import MappingConditionError, QmapError, RegularityError
from qmap.mapping import ascend_recurrence
from qmap.opseq import next_level, proved_recurrence

from conftest import cached_case_bundle, random_scalar
from helpers import certify_recurrence_oracle, jacobi_moments, pi_k_oracle, r_shift_poly_oracle

X = Poly.x()
small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=5)


def test_chebyshev_style_quadratic_map():
    # b = 0, a_n = 1/4: p_{2n}(x) = q_n(x^2) with r_0 = 1/4, r_n = 1/2, s_n = 1/16
    N = 12
    rec = Recurrence([0] * N, [Fraction(1, 4)] * (N - 1))
    view = BlockView(rec, 2)
    rep = check_conditions(view, 4)
    assert rep.ok
    assert rep.eta == X
    md = build_mapping(view, Fraction(1, 4), 4)
    assert md.pi_k == X * X
    assert md.r[0] == Fraction(1, 4)
    assert all(r == Fraction(1, 2) for r in md.r[1:])
    assert all(s == Fraction(1, 16) for s in md.s)

    q_ops = ops_from_recurrence(Recurrence(md.r, md.s), 5)
    p_ops = ops_from_recurrence(rec, N)
    for n in range(4):
        assert p_ops[2 * n] == compose_xk(q_ops[n], 2)
    il = verify_interleave(p_ops, md, q_ops, 3)
    assert il.ok


def test_case1_conditions_and_pi3(q_half):
    b = cached_case_bundle(1, q_half)
    view = BlockView(b.rec_p, 3)
    rep = check_conditions(view, 6)
    assert rep.ok
    assert rep.eta == b.eta
    assert b.mapping.pi_k == Poly.monomial(3)
    # eta_2 = x^2 + tau x + k_tau with k_tau = a_0^{(1)} + tau^2
    tau = b.case.params["tau"]
    assert b.eta == Poly([view.a(0, 1) + tau * tau, tau, 1])


def test_condition_detector_perturbed_b(q_half):
    b = cached_case_bundle(1, q_half)
    bs = list(b.rec_p.b)
    bs[15] = bs[15] + 1  # b_5^{(0)}
    view = BlockView(Recurrence(bs, b.rec_p.a), 3)
    rep = check_conditions(view, 6)
    assert not rep.ok
    assert not rep.b_constant


def test_condition_iv_detector(q_half):
    b = cached_case_bundle(1, q_half)
    a = list(b.rec_p.a)
    a[9] = a[9] * 2  # a_10 = a_3^{(1)}
    view = BlockView(Recurrence(b.rec_p.b, a), 3)
    rep = check_conditions(view, 6)
    assert not rep.ok


def test_condition_ii_detector(q_half):
    b = cached_case_bundle(1, q_half)
    a = list(b.rec_p.a)
    a[7] = a[7] + 1  # a_8 = a_2^{(2)} enters Delta_2(2, 2) and no other condition
    view = BlockView(Recurrence(b.rec_p.b, a), 3)
    rep = check_conditions(view, 6)
    assert (rep.ok, rep.b_constant, rep.delta_constant, rep.r_constant) == (False, True, False, True)
    assert rep.failures == ("condition (ii): Delta_2(m+2, m+k-1) varies with n",)
    with pytest.raises(MappingConditionError, match=r"^condition \(ii\): Delta_2\(m\+2, m\+k-1\) varies with n$"):
        build_mapping(view, b.mapping.r0, 6)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_condition_iii_holds_at_m0(data):
    # theta_0 = Delta_0(1, -1) = 1 divides Delta_n(2, k-1), which is monic of
    # degree k-1 for any recurrence, so the general condition (iii) cannot fail
    k = data.draw(st.integers(2, 4))
    blocks = data.draw(st.integers(1, 4))
    size = k * (blocks + 1)
    scalars = st.builds(CycScalar, small_fractions, small_fractions)
    b = data.draw(st.lists(scalars, min_size=size, max_size=size))
    a = data.draw(st.lists(scalars.filter(bool), min_size=size - 1, max_size=size - 1))
    view = BlockView(Recurrence(b, a), k)
    assert delta_det(view, 0, 1, -1) == Poly.one()
    for n in range(blocks + 1):
        eta = delta_det(view, n, 2, k - 1)
        assert eta.degree == k - 1 and eta.lc == 1


def test_build_mapping_matches_moment_side(q_half):
    b = cached_case_bundle(1, q_half)
    rec_q, _ = recurrence_from_moments(b.v, b.v.order // 2)
    n = min(len(b.mapping.r), len(rec_q.b))
    assert b.mapping.r[:n] == rec_q.b[:n]
    assert b.mapping.s[: n - 1] == rec_q.a[: n - 1]
    assert b.mapping.r[0] == b.mapping.r0 == b.v.moment(1) * b.v.moment(0).inv()
    # s_1 = a_1^{(0)} a_0^{(1)} a_0^{(2)}
    view = BlockView(b.rec_p, 3)
    assert b.mapping.s[0] == view.a(1, 0) * view.a(0, 1) * view.a(0, 2)


@pytest.mark.parametrize("case_id", [1, 13])
def test_condition_report_keeps_r_at_zero(q_half, case_id):
    b = cached_case_bundle(case_id, q_half)
    view = BlockView(b.rec_p, 3)
    N = len(b.mapping.r) - 1
    rep = check_conditions(view, N)
    assert rep.ok
    assert rep.r_at_zero == tuple(r_shift_poly_oracle(view, 0, n, rep.eta).coeff(0) for n in range(N + 1))
    assert b.mapping.r == tuple(b.mapping.r0 + c for c in rep.r_at_zero)


@pytest.mark.parametrize("case_id", [1, 13])
def test_build_mapping_computes_each_block0_determinant_once(q_half, case_id, monkeypatch):
    b = cached_case_bundle(case_id, q_half)
    view = BlockView(b.rec_p, 3)
    N = len(b.mapping.r) - 1
    calls = Counter()
    original = mapping_module.delta_det

    def counted(view, n, i, j):
        calls[n, i, j] += 1
        return original(view, n, i, j)

    monkeypatch.setattr(mapping_module, "delta_det", counted)
    mapping = build_mapping(view, b.mapping.r0, N)
    monkeypatch.undo()
    block0 = {key: c for key, c in calls.items() if key[0] == 0}
    assert block0 and set(block0.values()) == {1}

    # the four-term r_n(0) formula is checked in test_condition_report_keeps_r_at_zero
    assert mapping.conditions == check_conditions(view, N)
    assert mapping.pi_k == pi_k_oracle(view, 0, mapping.eta, b.mapping.r0)


def test_build_mapping_computes_each_r_shift_once(q_half, monkeypatch):
    b = cached_case_bundle(1, q_half)
    calls = []
    original = mapping_module._r_shift_poly

    def counted(view, n, fixed):
        calls.append(n)
        return original(view, n, fixed)

    monkeypatch.setattr(mapping_module, "_r_shift_poly", counted)
    build_mapping(BlockView(b.rec_p, 3), b.mapping.r0, 6)
    assert calls == list(range(1, 7))


def test_interleave_and_detector(q_half):
    b = cached_case_bundle(1, q_half)
    il = verify_interleave(b.p_ops, b.mapping, b.q_ops, 6)
    assert il.ok

    bad_a = list(b.rec_p.a)
    bad_a[4] = bad_a[4] + 1
    bad_view = BlockView(Recurrence(b.rec_p.b, bad_a), 3)
    from dataclasses import replace

    bad_mapping = replace(b.mapping, view=bad_view)
    il2 = verify_interleave(b.p_ops, bad_mapping, b.q_ops, 3)
    assert not il2.ok


def test_interleave_top_slot_reduces_to_composition(q_half):
    # j = k-1 collapses to p_{k(n+1)} = q_{n+1}(pi_k), since theta_0 = 1
    b = cached_case_bundle(1, q_half)
    for n in range(6):
        assert b.p_ops[3 * (n + 1)] == compose_xk(b.q_ops[n + 1], 3)


def test_lift_functional_examples(q_half):
    tau = CycScalar(Fraction(-4, 3))
    ktau = CycScalar(Fraction(1, 3))
    eta = Poly([ktau, tau, 1])
    rng = random.Random(41)
    v = MomentFunctional([random_scalar(rng) for _ in range(8)])
    v = MomentFunctional([CycScalar(1)] + list(v.moments[1:]))
    u = lift_functional(v, eta)
    assert u.order == 3 * v.order + 2
    assert u.moment(0) == CycScalar(1)
    for n in range(v.order + 1):
        assert u.moment(3 * n) == v.moment(n)
        assert u.moment(3 * n + 1) == tau * v.moment(n)
        assert u.moment(3 * n + 2) == ktau * v.moment(n)


def test_lift_sparsity_when_ktau_zero(q_half):
    b = cached_case_bundle(1, q_half)
    assert not b.eta.coeff(0)
    assert all(not b.u.moment(3 * n + 2) for n in range(b.v.order + 1))


def test_lift_requires_degree():
    # k = deg eta + 1 >= 2, so a zero or constant eta names no lift
    v = MomentFunctional([1, 2, 3])
    for eta in (Poly.zero(), Poly.one()):
        with pytest.raises(QmapError, match="eta must have degree k - 1 >= 1"):
            lift_functional(v, eta)


def test_sigma_star_dual_basis_identities(q_half):
    # sigma*(p_j u) vanishes for j = 1..k-1 and returns v at j = 0 (u is the unit lift of v)
    b = cached_case_bundle(1, q_half)
    sv = sigma_star(b.u, 3)
    assert sv.moments[: b.v.order + 1] == b.v.moments
    for j in (1, 2):
        w = sigma_star(left_mul(b.p_ops[j], b.u), 3)
        assert not any(w.moments)


def test_build_mapping_raises_on_bad_blocks():
    rng = random.Random(42)
    b = [random_scalar(rng, 3, 3) for _ in range(12)]
    a = [CycScalar(Fraction(1, 2))] * 11
    view = BlockView(Recurrence(b, a), 3)
    with pytest.raises(MappingConditionError):
        build_mapping(view, 0, 3)


# -- the ascent: the block conditions solved forwards -------------------------


@pytest.mark.parametrize("case_id", [1, 5, 13])
def test_ascent_matches_the_chebyshev_on_u_at_k3(q_half, case_id):
    b = cached_case_bundle(case_id, q_half)
    Np = b.u.order // 2
    rec_p, _ = recurrence_from_moments(b.u, Np)
    rec_q, _ = recurrence_from_moments(b.v, b.v.order // 2)
    levels = 3 * len(rec_q.b)
    up = ascend_recurrence(rec_q.b, rec_q.a, b.eta, levels)
    assert levels == Np - 1
    assert (up.b, up.a) == (rec_p.b[:levels], rec_p.a[: levels - 1])


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_ascent_inverts_the_mapping(data):
    # whatever monic eta of degree 2 and (r_n, s_n) are, the ascended blocks map back to
    # (r_n, s_n), with Delta_0(2, 2) = eta and pi_3 = x^3
    k = 3
    scalars = st.builds(CycScalar, small_fractions, small_fractions)
    nonzero = scalars.filter(bool)
    Nq = data.draw(st.integers(2, 5))
    eta = Poly(data.draw(st.lists(scalars, min_size=k - 1, max_size=k - 1)) + [1])
    r = data.draw(st.lists(scalars, min_size=Nq, max_size=Nq))
    rec_q = Recurrence(r, data.draw(st.lists(nonzero, min_size=Nq - 1, max_size=Nq - 1)))
    try:
        up = ascend_recurrence(r, rec_q.a, eta, k * Nq)
    except RegularityError:
        return
    assert len(up.b) == k * Nq
    mapping = build_mapping(BlockView(up, k), r[0], Nq - 1)
    assert (mapping.r, mapping.s) == (rec_q.b, rec_q.a)
    assert delta_det(BlockView(up, k), 0, 2, k - 1) == mapping.eta == eta
    assert mapping.pi_k == Poly.monomial(k)


def _raises_at(level, r, s, eta):
    """The ascent stops at ``level`` and no sooner: its ``level`` levels stand, and one more raises."""
    assert len(ascend_recurrence(r, s, eta, level).b) == level
    with pytest.raises(RegularityError, match=rf"^not regular at level {level}: <u, p_{level}\^2> = 0$"):
        ascend_recurrence(r, s, eta, level + 1)


def test_ascent_declines_a_vanishing_coefficient():
    # block 0: eta_0 = eta_1^2 makes a_0^(1) = eta_0 - eta_1^2 = 0, whatever r_0 is
    _raises_at(1, [5], [], Poly([1, 1, 1]))
    assert len(ascend_recurrence([5], [], Poly([2, 1, 1]), 3).b) == 3
    # eta = x^2 + 1/2 and r_0 = -1 give a_0^(1) = 1/2 and a_0^(2) = -9/2; then
    # s_1 = a_0^(1) a_0^(1) a_0^(2) = -9/8 makes a_1^(0) = a_0^(1), so a_1^(1) = 0
    eta = Poly([Fraction(1, 2), 0, 1])
    _raises_at(4, [-1, 5], [Fraction(-9, 8)], eta)
    assert len(ascend_recurrence([-1, 5], [1], eta, 6).b) == 6
    # a_n^(2) = -eta(b_n^(2)): eta = (x - 3/2)^2, r_0 = 0 and s_1 = 27/16 give a_1^(0) = 1,
    # and r_1 = 23/8 then makes b_1^(2) = 3/2, a root of eta, so a_1^(2) = 0
    eta = Poly([Fraction(9, 4), -3, 1])
    _raises_at(5, [0, Fraction(23, 8)], [Fraction(27, 16)], eta)
    assert len(ascend_recurrence([0, 1], [Fraction(27, 16)], eta, 6).b) == 6
    # a zero s_B, as next_level gives when h_B = 0, is the zero a_{3B}
    _raises_at(3, [0], [0], eta)


def test_a_zero_past_the_kept_levels_is_not_read():
    # odd V = 5 (Nq = 2): u's order 17 fixes 9 levels and a build keeps Np = 8.  With
    # eta = (x - 3/2)^2, r_2 = -5621/136 makes b_2^(2) = 3/2 a root of eta, so a_2^(2),
    # at level 3 Nq + 2 = 8, is 0: the ascent to 8 levels is u's, and both routes raise at 9
    rec = Recurrence([1, 2, Fraction(-5621, 136)], [3, 5])
    eta = Poly([Fraction(9, 4), -3, 1])
    v = MomentFunctional(jacobi_moments(rec, 1, 5))
    rec_q, q_ops = recurrence_from_moments(v, 2)
    r, s = next_level(v, rec_q, q_ops)
    assert (r, s) == (rec.b, rec.a)
    u = lift_functional(v, eta)
    assert ascend_recurrence(r, s, eta, 8) == recurrence_from_moments(u, 8)[0]
    for route in (lambda: ascend_recurrence(r, s, eta, 9), lambda: recurrence_from_moments(u, 9)):
        with pytest.raises(RegularityError, match=r"^not regular at level 8: <u, p_8\^2> = 0$"):
            route()


# -- the ascent lemma: q's recurrence proved on v is p's on u -----------------

LEMMA_Q = QParam(Fraction(1, 2), 64).pow(3)


@st.composite
def proved_q_side(draw):
    """(v, rec_q, q_ops): v of order V = 2 Nq or 2 Nq + 1 and its recurrence proved on Nq levels.

    v comes from a random q^3-classical pair (deg Phi <= 2, deg Psi = 1) through the build's
    own step, or from a random recurrence with nonzero a_n through its Jacobi matrix, rational
    or Q(w); a third of the draws then shift v_{2 Nq} so that h_Nq = <v, x^Nq q_Nq> = 0.
    """
    omega = draw(st.booleans())
    scalars = st.builds(CycScalar, small_fractions, small_fractions if omega else st.just(Fraction(0)))
    Nq = draw(st.integers(1, 4))
    V = 2 * Nq + draw(st.integers(0, 1))
    if draw(st.booleans()):
        deg = draw(st.integers(0, 2))
        phi = Poly(draw(st.lists(scalars, min_size=deg, max_size=deg)) + [draw(scalars.filter(bool))])
        pair = PearsonPair(phi, Poly([draw(scalars), draw(scalars.filter(bool))]))
        try:
            v = pearson_moments(pair, 1, V, LEMMA_Q)
            rec_q = proved_recurrence(v, pair, LEMMA_Q, Nq)[0]
            q_ops = ops_from_recurrence(rec_q, Nq)
        except RegularityError:
            assume(False)
    else:
        b = draw(st.lists(scalars, min_size=Nq + 1, max_size=Nq + 1))
        a = draw(st.lists(scalars.filter(bool), min_size=Nq, max_size=Nq))
        v = MomentFunctional(jacobi_moments(Recurrence(b, a), draw(scalars.filter(bool)), V))
        rec_q, q_ops = recurrence_from_moments(v, Nq)
    if draw(st.integers(0, 2)) == 0:
        moments = list(v.moments)
        moments[2 * Nq] -= act(v, Poly.monomial(Nq) * q_ops[Nq])
        v = MomentFunctional(moments)
    return v, rec_q, q_ops


@settings(max_examples=80, deadline=None)
@given(proved_q_side(), st.data())
def test_the_ascent_of_a_proved_q_is_u_recurrence(side, data):
    # the lemma: with q_0..q_Nq v's own, its next level and eta ascend to u's recurrence, and
    # raise where u is not regular, on every level count u's moments fix: the build's
    # Np = u.order // 2 and (u.order + 1) // 2.  A build checks no level of the ascent,
    # so this guards them all
    v, rec_q, q_ops = side
    omega = data.draw(st.booleans())
    scalars = st.builds(CycScalar, small_fractions, small_fractions if omega else st.just(Fraction(0)))
    e1 = data.draw(scalars)
    e0 = e1 * e1 if data.draw(st.integers(0, 4)) == 0 else data.draw(scalars)  # a_0^(1) = e0 - e1^2 = 0
    eta = Poly([e0, e1, 1])
    u = lift_functional(v, eta)
    r, s = next_level(v, rec_q, q_ops)
    for levels in (u.order // 2, (u.order + 1) // 2):
        try:
            rec_p, p_ops = recurrence_from_moments(u, levels)
        except RegularityError as exc:
            with pytest.raises(RegularityError) as ascent:
                ascend_recurrence(r, s, eta, levels)
            assert str(ascent.value) == str(exc)
            continue
        up = ascend_recurrence(r, s, eta, levels)
        assert up == rec_p
        # the certificate on u, which builds ran before the lemma, is its oracle too: u is
        # semiclassical here, so the eigen proof of a classical pair does not apply
        assert certify_recurrence_oracle(u, up, levels) == (rec_p, p_ops)
