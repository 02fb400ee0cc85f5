"""Mapping construction, block conditions, interleaving, and the moment lift."""

import random
from fractions import Fraction

import pytest

from qmap import (
    BlockView,
    CycScalar,
    MomentFunctional,
    Poly,
    Recurrence,
    build_mapping,
    check_conditions,
    compose_xk,
    left_mul,
    lift_functional,
    sigma_star,
    verify_interleave,
)
from qmap import mapping as mapping_module
from qmap.errors import MappingConditionError, QmapError

from conftest import cached_case_bundle, random_scalar

X = Poly.x()


def test_chebyshev_style_quadratic_map():
    # b = 0, a_n = 1/4: p_{2n}(x) = q_n(x^2) with r_0 = 1/4, r_n = 1/2, s_n = 1/16
    N = 12
    rec = Recurrence([0] * N, [Fraction(1, 4)] * (N - 1))
    view = BlockView(rec, 2)
    rep = check_conditions(view, 0, 4)
    assert rep.ok
    assert rep.eta == X
    md, q_ops = build_mapping(view, 0, Fraction(1, 4), 4)
    assert md.pi_k == X * X
    assert md.r[0] == Fraction(1, 4)
    assert all(r == Fraction(1, 2) for r in md.r[1:])
    assert all(s == Fraction(1, 16) for s in md.s)

    from qmap import ops_from_recurrence

    p_ops = ops_from_recurrence(rec, N)
    for n in range(4):
        assert p_ops[2 * n] == compose_xk(q_ops[n], 2)
    il = verify_interleave(p_ops, md, q_ops, 3)
    assert il.ok


def test_case1_conditions_and_pi3(q_half):
    b = cached_case_bundle(1, q_half)
    view = BlockView(b.rec_p, 3)
    rep = check_conditions(view, 0, 6)
    assert rep.ok
    assert rep.theta == Poly.one()
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
    rep = check_conditions(view, 0, 6)
    assert not rep.ok
    assert not rep.b_constant


def test_condition_iv_detector(q_half):
    b = cached_case_bundle(1, q_half)
    a = list(b.rec_p.a)
    a[9] = a[9] * 2  # a_10 = a_3^{(1)}
    view = BlockView(Recurrence(b.rec_p.b, a), 3)
    rep = check_conditions(view, 0, 6)
    assert not rep.ok


def test_build_mapping_matches_moment_side(q_half):
    b = cached_case_bundle(1, q_half)
    for n in range(min(len(b.q_ops_mapped), len(b.q_ops))):
        assert b.q_ops_mapped[n] == b.q_ops[n]
    assert b.mapping.r[0] == b.r0
    # s_1 = a_1^{(0)} a_0^{(1)} a_0^{(2)}
    view = BlockView(b.rec_p, 3)
    assert b.mapping.s[0] == view.a(1, 0) * view.a(0, 1) * view.a(0, 2)


@pytest.mark.parametrize("case_id", [1, 13])
def test_condition_report_keeps_r_at_zero(q_half, case_id):
    b = cached_case_bundle(case_id, q_half)
    view = BlockView(b.rec_p, 3)
    N = len(b.mapping.r) - 1
    rep = check_conditions(view, 0, N)
    assert rep.ok
    assert rep.r_at_zero == tuple(mapping_module._r_shift_poly(view, 0, n, rep.eta).coeff(0) for n in range(N + 1))
    assert b.mapping.r == tuple(b.r0 + c for c in rep.r_at_zero)


def test_build_mapping_computes_each_r_shift_once(q_half, monkeypatch):
    b = cached_case_bundle(1, q_half)
    calls = []
    original = mapping_module._r_shift_poly

    def counted(view, m, n, eta):
        calls.append(n)
        return original(view, m, n, eta)

    monkeypatch.setattr(mapping_module, "_r_shift_poly", counted)
    build_mapping(BlockView(b.rec_p, 3), 0, b.r0, 6)
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
    # j = k-1 collapses to p_{k(n+1)} = theta * q_{n+1}(pi_k)
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
    u = lift_functional(v, eta, 3, 1)
    assert u.order == 3 * v.order + 2
    assert u.moment(0) == CycScalar(1)
    for n in range(v.order + 1):
        assert u.moment(3 * n) == v.moment(n)
        assert u.moment(3 * n + 1) == tau * v.moment(n)
        assert u.moment(3 * n + 2) == ktau * v.moment(n)


def test_lift_sparsity_when_ktau_zero(q_half):
    b = cached_case_bundle(1, q_half)
    assert not b.ktau
    assert all(not b.u.moment(3 * n + 2) for n in range(b.v.order + 1))


def test_lift_requires_degree_and_v0():
    v = MomentFunctional([1, 2, 3])
    with pytest.raises(QmapError):
        lift_functional(v, Poly([1, 1]), 3, 1)  # degree 1 != 2
    bad = MomentFunctional([0, 1])
    with pytest.raises(QmapError):
        lift_functional(bad, Poly([0, 1]), 2, 1)


def test_sigma_star_dual_basis_identities(q_half):
    # sigma*(p_j u) vanishes for j = 1..k-1 and returns (u0/v0) v at j = 0
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
        build_mapping(view, 0, 0, 3)
