"""Reduction to co-prime triples, class computation, and pair transport."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qmap import (
    ACDTriple,
    CycScalar,
    PearsonPair,
    Poly,
    ascend_pearson,
    class_bounds_check,
    class_from_acd,
    descend_pearson,
    divrem,
    lift_functional,
    pearson_moments,
    pearson_residual,
    phi_psi_from_acd,
    poly_gcd,
    reduce_acd,
)
from qmap.families import little_q_jacobi_pair, little_q_laguerre_pair

from conftest import cached_case_bundle, random_nonzero_scalar, random_poly
from helpers import reduce_acd_oracle, scale_acd

X = Poly.x()


def _divide_triple(t: ACDTriple, g: Poly) -> ACDTriple:
    out = []
    for f in (t.A, t.C, t.D):
        quot, rem = divrem(f, g)
        assert rem.is_zero, f"{g!s} does not divide {f!s}"
        out.append(quot)
    return ACDTriple(*out)


def test_reduce_is_idempotent_and_coprime():
    rng = random.Random(61)
    for _ in range(80):
        A = random_poly(rng, 4)
        C = random_poly(rng, 4)
        D = random_poly(rng, 3)
        if A.is_zero:
            continue
        t = ACDTriple(A, C, D)
        red, _ = reduce_acd(t)
        g = poly_gcd(poly_gcd(red.A, red.C), red.D)
        assert g.is_zero or g.degree == 0
        red2, trace2 = reduce_acd(red)
        assert red2 == red and not trace2


def test_reduce_recovers_constructed_factor():
    rng = random.Random(62)
    # co-prime seed triple
    t = ACDTriple(X + 1, Poly([1, 0, 1]), Poly.constant(3))
    f = (X - 1) * (X - 1)
    blown = ACDTriple(t.A * f, t.C * f, t.D * f)
    red, trace = reduce_acd(blown)
    assert red == t  # A was already monic
    prod = Poly.one()
    for g in trace:
        prod = prod * g
    assert prod == f


small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=5)


def _polys(omega: bool, max_degree: int):
    om = small_fractions if omega else st.just(Fraction(0))
    scalars = st.builds(CycScalar, small_fractions, om)
    return st.lists(scalars, max_size=max_degree + 1).map(Poly)


@settings(max_examples=80, deadline=None)
@given(st.data(), st.booleans())
def test_reduce_matches_the_loop_oracle(data, omega):
    # a triple times a common factor of degree 0-3: one division leaves a constant gcd
    A, C, D = (data.draw(_polys(omega, 3)) for _ in range(3))
    factor = data.draw(_polys(omega, 3).filter(lambda f: not f.is_zero))
    if A.is_zero:
        A = Poly.one()
    t = ACDTriple(A * factor, C * factor, D * factor)
    red, trace = reduce_acd(t)
    red_oracle, trace_oracle = reduce_acd_oracle(t)
    assert red == red_oracle
    assert len(trace) <= 1
    prod = Poly.one()
    for g in trace_oracle:
        prod = prod * g
    assert (trace[0] if trace else Poly.one()) == prod


def test_scalar_invariance():
    rng = random.Random(63)
    for _ in range(60):
        A = random_poly(rng, 3)
        if A.is_zero:
            continue
        C = random_poly(rng, 4)
        D = random_poly(rng, 2)
        if C.is_zero and D.is_zero:
            continue
        t = ACDTriple(A, C, D)
        s = random_nonzero_scalar(rng)
        red1, _ = reduce_acd(t)
        red2, _ = reduce_acd(scale_acd(t, s))
        assert red1 == red2


def test_class_values():
    assert class_from_acd(ACDTriple(Poly.one(), Poly([1, 1]), Poly.constant(1))) == 0
    assert class_from_acd(ACDTriple(Poly.one(), Poly([0, 0, 1]), Poly([1, 1]))) == 1
    with pytest.raises(Exception):
        class_from_acd(ACDTriple(Poly.one(), Poly.zero(), Poly.zero()))


def test_bounds_check():
    assert class_bounds_check(1, 0, 3).ok
    assert class_bounds_check(2, 0, 3).ok
    assert class_bounds_check(9, 2, 3).ok
    rep = class_bounds_check(4, 2, 3)
    assert not rep.ok and not rep.down_ok
    # classical specialization: s <= k-1 forces s_tilde = 0
    rep2 = class_bounds_check(2, 1, 3)
    assert not rep2.classical_ok


# -- the documented reduction chain for case (1) ------------------------------

from helpers import chain_stage2 as _chain_stage2
from helpers import chain_stage3 as _chain_stage3
from helpers import chain_stage4 as _chain_stage4
from helpers import chain_stage5 as _chain_stage5


def test_case1_reduction_chain(q_half):
    b = cached_case_bundle(1, q_half)
    tau = b.case.params["tau"]
    a = b.case.params["a"]
    u0 = b.u.moment(0)
    v0 = b.v.moment(0)

    stage2 = _divide_triple(b.acd, Poly.monomial(2) * v0)
    expected2 = _chain_stage2(q_half, tau, a, u0)
    assert (stage2.A, stage2.C, stage2.D) == (expected2.A, expected2.C, expected2.D)

    stage3 = _divide_triple(stage2, X)
    expected3 = _chain_stage3(q_half, tau, a, u0)
    assert (stage3.A, stage3.C, stage3.D) == (expected3.A, expected3.C, expected3.D)

    stage4 = _divide_triple(stage3, X)
    expected4 = _chain_stage4(q_half, tau, u0)
    assert (stage4.A, stage4.C, stage4.D) == (expected4.A, expected4.C, expected4.D)

    stage5 = _divide_triple(stage4, Poly([tau, 1]))
    expected5 = _chain_stage5(q_half, tau, u0)
    assert (stage5.A, stage5.C, stage5.D) == (expected5.A, expected5.C, expected5.D)

    # the gcd route removes the same total factor (recorded in the trace)
    red, trace = reduce_acd(b.acd)
    total = Poly.one()
    for g in trace:
        total = total * g
    assert total == Poly.monomial(4) * Poly([tau, 1])
    assert (red.A, red.C, red.D) == (expected5.A, expected5.C, expected5.D)
    assert class_from_acd(red) == 1


def test_stage4_triple_is_the_class2_configuration(q_half, q_third):
    # with tau^3 != -1 (tau = 1) the chain stops one step earlier: class 2
    for q in (q_half, q_third):
        b = cached_case_bundle(4, q)
        tau = b.case.params["tau"]
        red, _ = reduce_acd(b.acd)
        expected4 = _chain_stage4(q, tau, b.u.moment(0))
        assert (red.A, red.C, red.D) == (expected4.A, expected4.C, expected4.D)
        assert class_from_acd(red) == 2


def test_phi_psi_case1_and_case4(q_half):
    qs = q_half.q
    b1 = cached_case_bundle(1, q_half)
    tau = b1.case.params["tau"]
    pair1 = phi_psi_from_acd(b1.report.reduced, q_half)
    assert pair1.phi == Poly.one()
    assert pair1.psi == qs.inv() * Poly([-(tau ** 2), tau, (qs - 1).inv()])

    b4 = cached_case_bundle(4, q_half)
    tau4 = b4.case.params["tau"]
    pair4 = phi_psi_from_acd(b4.report.reduced, q_half)
    assert pair4.phi == Poly([tau4 * qs.inv(), 1])
    assert pair4.psi == (qs ** -2 * (qs - 1).inv()) * Poly([qs ** 2 - 1, 0, tau4 * qs, 1])


def test_recovered_pair_annihilates_u(q_half):
    for cid in (1, 4, 13):
        b = cached_case_bundle(cid, q_half)
        res = pearson_residual(b.u, PearsonPair(b.report.phi, b.report.psi), q_half)
        assert not any(res)


# -- pair transport -----------------------------------------------------------


def test_descend_case13(q_half):
    b = cached_case_bundle(13, q_half)
    a, c = b.case.params["a"], b.case.params["c"]
    qs = q_half.q
    basis = [b.p_ops[j] for j in range(3)]
    pair_v = descend_pearson(
        PearsonPair(b.report.phi, b.report.psi), b.report.s, basis, q_half, b.v
    )
    assert pair_v.phi == X * Poly([-(c ** 3), 1])
    g0 = (qs ** -3 * a.inv() * (qs ** 3 - 1).inv()) * Poly([c ** 3 * (1 - a * qs ** 3), a * qs ** 3 - c ** 3])
    assert pair_v.psi == g0
    # identifies v as the jacobi family at (a, 1/(c^3 q^3))
    family = little_q_jacobi_pair(a, c ** -3 * qs ** -3, q_half.pow(3))
    assert pair_v.phi == family.phi and pair_v.psi == family.psi
    # degree display: max(deg f0 - 2, deg g0 - 1) = floor(s/k)
    assert max(pair_v.phi.degree - 2, pair_v.psi.degree - 1) == b.report.s // 3


def test_descend_case1_exercises_positive_shift(q_half):
    # s = 1, k = 3 gives p = 1; the result is the mapped family's own pair
    b = cached_case_bundle(1, q_half)
    basis = [b.p_ops[j] for j in range(3)]
    pair_v = descend_pearson(
        PearsonPair(b.report.phi, b.report.psi), b.report.s, basis, q_half, b.v
    )
    family = little_q_laguerre_pair(b.case.params["a"], q_half.pow(3))
    assert pair_v.phi == family.phi and pair_v.psi == family.psi
    assert max(pair_v.phi.degree - 2, pair_v.psi.degree - 1) == b.report.s // 3


def test_descend_degree_display_all_cases(q_half):
    for cid in (2, 5, 9):
        b = cached_case_bundle(cid, q_half)
        basis = [b.p_ops[j] for j in range(3)]
        pair_v = descend_pearson(
            PearsonPair(b.report.phi, b.report.psi), b.report.s, basis, q_half, b.v
        )
        assert max(pair_v.phi.degree - 2, pair_v.psi.degree - 1) == b.report.s // 3
        assert not any(pearson_residual(b.v, pair_v, q_half.pow(3)))


def test_ascend_cases(q_half):
    for cid, family_pair in ((1, None), (13, None)):
        b = cached_case_bundle(cid, q_half)
        basis = [b.p_ops[j] for j in range(3)]
        pair_v = descend_pearson(
            PearsonPair(b.report.phi, b.report.psi), b.report.s, basis, q_half, b.v
        )
        pair_u = ascend_pearson(pair_v, b.eta, q_half)
        res = pearson_residual(b.u, pair_u, q_half)
        assert not any(res)
        # the ascended pair is generally non-minimal
        assert max(pair_u.phi.degree - 2, pair_u.psi.degree - 1) >= b.report.s


def test_ascend_k2_smoke(q_half):
    q2 = q_half.pow(2)
    pair = little_q_laguerre_pair(Fraction(1, 4), q2)
    v = pearson_moments(pair, 1, 20, q2)
    eta = Poly([Fraction(-1, 3), 1])
    u = lift_functional(v, eta)
    pair_u = ascend_pearson(pair, eta, q_half)
    res = pearson_residual(u, pair_u, q_half)
    assert not any(res)
