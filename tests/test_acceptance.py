"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  All tolerances are pinned here; the exact checks use equality in Q(w),
the numeric checks use the stated absolute bounds.

Criterion 6 note: the compact closed form circulating for the case-13 seed
a_0^{(2)} is internally inconsistent with the annihilation system that defines
it (see test_cubic_cases.test_published_a02_closed_form_is_inconsistent and
the corrected form asserted there); criterion 6 is therefore split into the
attainable reconstruction checks and a pinned witness of that discrepancy,
which is expected to fail until the stated form is corrected.
"""

import random
import time
from fractions import Fraction

import pytest

from qmap import (
    BlockView,
    CycScalar,
    MomentFunctional,
    PearsonPair,
    Poly,
    QParam,
    act,
    class_bounds_check,
    compose_xk,
    delta_det,
    descend_pearson,
    embed_complex,
    hahn_functional,
    hahn_poly,
    left_mul,
    orthogonality_check,
    pearson_moments,
    pearson_residual,
    reduce_acd,
    series_from_functional,
    sigma_star,
    simple_set_decompose,
    stieltjes_residual,
    verify_susvq,
)
from qmap.cubic_cases import CASE_IDS, inverse_reconstruct_case13
from qmap.families import (
    little_q_jacobi_acd,
    little_q_jacobi_pair,
    little_q_laguerre_acd,
    little_q_laguerre_pair,
)
from qmap.measures import case13_measure, case1_measure, discrete_lift, root_of_unity_identities
from qmap.opseq import Recurrence

from conftest import cached_case_bundle, random_monic_poly, random_nonzero_scalar, random_poly, random_scalar
from helpers import chain_stage5, delta_bruteforce

X = Poly.x()
Q_SAMPLES = (Fraction(1, 2), Fraction(1, 3))


def _report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {criterion}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def all_bundles(q_half, q_third):
    """All 26 case builds, with the total build time for criterion 3."""
    start = time.perf_counter()
    bundles = {}
    for q in (q_half, q_third):
        for cid in CASE_IDS:
            bundles[(cid, str(q.q))] = cached_case_bundle(cid, q, 48)
    return bundles, time.perf_counter() - start


def test_criterion_1_pearson_residuals(q_half):
    start = time.perf_counter()
    N = 48
    pair_l = little_q_laguerre_pair(Fraction(1, 4), q_half)
    u = pearson_moments(pair_l, 1, N, q_half)
    res_l = pearson_residual(u, pair_l, q_half)
    pair_j = little_q_jacobi_pair(Fraction(1, 3), Fraction(1, 5), q_half)
    v = pearson_moments(pair_j, 1, N, q_half)
    res_j = pearson_residual(v, pair_j, q_half)
    elapsed = time.perf_counter() - start
    ok = not any(res_l) and not any(res_j) and len(res_l) >= 47 and len(res_j) >= 46 and elapsed < 1.0
    _report("1 (pearson residuals)", ok, f"{len(res_l)}+{len(res_j)} residual rows, {elapsed:.3f}s")


def test_criterion_2_known_triples():
    ok = True
    for qv in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 5)):
        q = QParam(qv, 96)
        pair = little_q_laguerre_pair(Fraction(1, 4), q)
        u = pearson_moments(pair, 1, 12, q)
        from qmap import acd_from_pearson

        got = acd_from_pearson(pair, u, q)
        want = little_q_laguerre_acd(Fraction(1, 4), q, 1)
        ok &= (got.A, got.C, got.D) == (want.A, want.C, want.D) and got.A.lc == CycScalar(1)

        pj = little_q_jacobi_pair(Fraction(1, 3), Fraction(1, 5), q)
        v = pearson_moments(pj, 1, 12, q)
        gotj = acd_from_pearson(pj, v, q)
        wantj = little_q_jacobi_acd(Fraction(1, 3), Fraction(1, 5), q, 1)
        ok &= (gotj.A, gotj.C, gotj.D) == (wantj.A, wantj.C, wantj.D) and gotj.A.lc == CycScalar(1)
    _report("2 (classical-family triples)", ok, "q in {1/2, 1/3, 2/5}, exact equality")


def test_criterion_3_cubic_decomposition(all_bundles):
    bundles, build_time = all_bundles
    ok = True
    for (cid, qtext), b in bundles.items():
        for n in range(9):
            ok &= b.p_ops[3 * n] == compose_xk(b.q_ops[n], 3)
        ok &= orthogonality_check(b.u, b.p_ops, 16).ok
    ok &= build_time < 30.0
    _report("3 (cubic decomposition)", ok, f"26 builds in {build_time:.2f}s, n <= 8, orthogonality n,m <= 16")


def test_criterion_4_class_and_canonical_pair(all_bundles, q_half):
    bundles, _ = all_bundles
    ok = True
    for (cid, qtext), b in bundles.items():
        expect_s = 1 if cid <= 3 else 2
        ok &= b.report.s == expect_s
        ok &= b.report.phi == b.expected_pair.phi and b.report.phi.lc == CycScalar(1)
        ok &= b.report.psi == b.expected_pair.psi

    # reduction chain for case (1): recorded trace removes z^4 (z + tau) in
    # total, and the reduced triple equals the final documented stage
    b1 = bundles[(1, "1/2")]
    tau = b1.case.params["tau"]
    red, trace = reduce_acd(b1.acd)
    total = Poly.one()
    for g in trace:
        total = total * g
    final = chain_stage5(q_half, tau, b1.u.moment(0))
    ok &= total == Poly.monomial(4) * Poly([tau, 1])
    ok &= (red.A, red.C, red.D) == (final.A, final.C, final.D)
    _report("4 (class + canonical pair)", ok, "13 cases x 2 q samples, exact; case-1 chain reproduced")


def test_criterion_5_class_bounds(all_bundles):
    bundles, _ = all_bundles
    ok = True
    for (cid, qtext), b in bundles.items():
        rep = class_bounds_check(b.report.s, 0, 3)
        ok &= rep.ok and b.report.s in (1, 2)
        ok &= b.report.s <= 6
    _report("5 (class bounds)", ok, "s~ <= floor(s/3), s <= 6, classical specialization")


def test_criterion_6_inverse_reconstruction(q_half):
    a, c, tau = Fraction(1, 7), Fraction(1, 3), Fraction(-4, 3)
    rec = inverse_reconstruct_case13(a, c, tau, q_half)
    b = cached_case_bundle(13, q_half)
    view = BlockView(b.rec_p, 3)
    qs = q_half.q
    cs, as_ = CycScalar(c), CycScalar(a)
    taus = CycScalar(tau)
    denom = (cs ** 3 - as_ * qs ** 3) * (cs * cs + taus * cs + taus * taus)
    ok = rec.r0 == cs ** 3 * (cs ** 3 - as_ * qs ** 3).inv() * (1 - as_ * qs ** 3)
    ok &= rec.b01 == cs + as_ * qs ** 3 * (cs ** 3 - 1) * denom.inv()
    ok &= rec.b02 == cs + cs ** 3 * (1 - cs ** 3) * denom.inv()
    ok &= rec.b01 + rec.b02 == -taus
    # the four values against the independently recovered recurrence
    ok &= (rec.r0, rec.b01, rec.b02, rec.a02) == (b.mapping.r0, view.b(0, 1), view.b(0, 2), view.a(0, 2))

    # descent: f0 = y (y - c^3) and the matching g0; v identified as the
    # jacobi family at (a, 1/(c^3 q^3))
    basis = [b.p_ops[j] for j in range(3)]
    pair_v = descend_pearson(PearsonPair(b.report.phi, b.report.psi), b.report.s, basis, q_half, b.v)
    ok &= pair_v.phi == X * Poly([-(cs ** 3), 1])
    g0 = (qs ** -3 * as_.inv() * (qs ** 3 - 1).inv()) * Poly(
        [cs ** 3 * (1 - as_ * qs ** 3), as_ * qs ** 3 - cs ** 3]
    )
    ok &= pair_v.psi == g0
    family = little_q_jacobi_pair(as_, cs ** -3 * qs ** -3, q_half.pow(3))
    ok &= pair_v.phi == family.phi and pair_v.psi == family.psi
    _report("6 (inverse reconstruction + descent)", ok, "r0/b01/b02 closed forms, f0/g0, family id")


def test_criterion_6_a02_stated_closed_form(q_half):
    """Pinned as stated; fails because the stated a_0^{(2)} display is wrong.

    The reconstruction value is fixed by <u, Psi> = <u, p_j> = 0 and the
    seed relations, equals the independently recovered a_0^{(2)} of the
    orthogonal sequence, and satisfies the corrected closed form
    -c^3 q^3 a (1-c^3)^2 / D^2 (verified symbolically modulo
    (tau+c)^3 = -1).  The stated form +c^3 q^3 a (1-c^3) / D^2 differs from
    it by the sign and one factor of (1-c^3), so asserting it must fail.
    """
    a, c, tau = CycScalar(Fraction(1, 7)), CycScalar(Fraction(1, 3)), CycScalar(Fraction(-4, 3))
    qs = q_half.q
    rec = inverse_reconstruct_case13(a, c, tau, q_half)
    denom = (c ** 3 - a * qs ** 3) * (c * c + tau * c + tau * tau)
    stated = c ** 3 * qs ** 3 * a * (1 - c ** 3) * (denom * denom).inv()
    ok = rec.a02 == stated
    _report("6b (a02 as stated)", ok, f"computed {rec.a02}, stated form {stated}")


def test_criterion_7_stieltjes_identities(all_bundles):
    bundles, _ = all_bundles
    ok = True
    min_depth = None
    for (cid, qtext), b in bundles.items():
        q = b.q
        Su = series_from_functional(b.u)
        res = stieltjes_residual(b.acd, Su, q)
        ok &= res.is_zero and res.depth >= 12
        min_depth = res.depth if min_depth is None else min(min_depth, res.depth)
        rep = verify_susvq(Su, series_from_functional(b.v), b.eta, q)
        ok &= rep.ok and rep.depth >= 12
    _report("7 (stieltjes identities)", ok, f"residual + substitution identity, min depth {min_depth}")


def test_criterion_8_discrete_measures(q_half):
    start = time.perf_counter()
    b1 = cached_case_bundle(1, q_half, N=36)
    b13 = cached_case_bundle(13, q_half, N=36)
    m1 = case1_measure(0.5, 200)
    m13 = case13_measure(1 / 7, 1 / 3, 0.5, 200)
    ok = True
    for b, m in ((b1, m1), (b13, m13)):
        numeric = discrete_lift(m, b.eta, 10)
        for n in range(11):
            ok &= abs(numeric[n] - embed_complex(b.u.moment(n))) <= 1e-10
    n200 = discrete_lift(m1, b1.eta, 10)
    n400 = discrete_lift(case1_measure(0.5, 400), b1.eta, 10)
    ok &= max(abs(x - y) for x, y in zip(n200, n400)) < 1e-13
    n200j = discrete_lift(m13, b13.eta, 10)
    n400j = discrete_lift(case13_measure(1 / 7, 1 / 3, 0.5, 400), b13.eta, 10)
    ok &= max(abs(x - y) for x, y in zip(n200j, n400j)) < 1e-13
    elapsed = time.perf_counter() - start
    ok &= elapsed < 2.0
    _report("8 (discrete measures)", ok, f"|err| <= 1e-10 for n <= 10 at L=200, {elapsed:.2f}s")


def test_criterion_9_omega_identities():
    rng = random.Random(90)
    count = 0
    ok = True
    while count < 100:
        tau = CycScalar(Fraction(rng.randint(-12, 12), rng.randint(1, 9)))
        ktau = CycScalar(Fraction(rng.randint(-12, 12), rng.randint(1, 9)))
        mu = CycScalar(Fraction(rng.randint(1, 40), rng.randint(1, 9)))
        b01 = CycScalar(Fraction(rng.randint(-7, 7), rng.randint(1, 7)))
        rep = root_of_unity_identities(Poly([ktau, tau, 1]), mu, b01)
        ok &= rep.quadratic_sum_ok and rep.vanish_p1_ok and rep.vanish_p2_ok
        count += 1
    _report("9 (omega identities)", ok, f"{count} random rational (tau, k_tau, mu) instances, exact")


def test_criterion_10_property_suites(q_half):
    rng = random.Random(100)
    qk = q_half.pow(3)
    failures = 0

    # duality of the q-derivative, 200 instances
    for _ in range(200):
        u = MomentFunctional([random_scalar(rng) for _ in range(12)])
        f = random_poly(rng, 10)
        if act(hahn_functional(u, q_half), f) != -act(u, hahn_poly(f, q_half)):
            failures += 1

    # substitution relations on moments and polynomials, 200 instances
    for _ in range(200):
        u = MomentFunctional([random_scalar(rng) for _ in range(18)])
        f = random_poly(rng, 4)
        if not f.is_zero:
            lhs = left_mul(f, sigma_star(u, 3))
            rhs = sigma_star(left_mul(compose_xk(f, 3), u), 3)
            n = min(lhs.order, rhs.order)
            if lhs.moments[: n + 1] != rhs.moments[: n + 1]:
                failures += 1
        lhs2 = sigma_star(hahn_functional(u, q_half), 3)
        rhs2 = hahn_functional(sigma_star(left_mul(Poly.monomial(2), u), 3), qk)
        bk = q_half.bracket(3)
        n2 = min(lhs2.order, rhs2.order)
        if lhs2.moments[: n2 + 1] != tuple(bk * m for m in rhs2.moments[: n2 + 1]):
            failures += 1
        g = random_poly(rng, 5)
        if hahn_poly(compose_xk(g, 3), q_half) != bk * Poly.monomial(2) * compose_xk(hahn_poly(g, qk), 3):
            failures += 1

    # simple-set decomposition round trip, 200 instances
    for _ in range(200):
        k = rng.randint(2, 4)
        basis = [random_monic_poly(rng, j) for j in range(k)]
        f = random_poly(rng, 12)
        comps = simple_set_decompose(f, basis)
        rebuilt = sum((basis[j] * compose_xk(comps[j], k) for j in range(k)), Poly.zero())
        if rebuilt != f:
            failures += 1

    # determinant recurrence vs the explicit-matrix oracle, 200 instances
    checked = 0
    while checked < 200:
        size = 14
        b = [random_scalar(rng, 4, 4) for _ in range(size)]
        a = [random_nonzero_scalar(rng, 4, 4) for _ in range(size - 1)]
        view = BlockView(Recurrence(b, a), rng.randint(2, 4))
        n = rng.randint(0, 2)
        i = rng.randint(1, 5)
        j = rng.randint(i - 2, i + 3)
        if n * view.k + j >= size:
            continue
        if delta_det(view, n, i, j) != delta_bruteforce(view, n, i, j):
            failures += 1
        checked += 1

    _report("10 (property suites)", failures == 0, f"4 suites x 200 randomized exact instances, {failures} failures")
