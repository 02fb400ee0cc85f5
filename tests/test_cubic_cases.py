"""The thirteen-case catalog: fixtures, constraints, builds, reconstruction."""

import copy
import json
import pickle
import sys
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qmap import (
    BlockView,
    CycScalar,
    OMEGA,
    PearsonPair,
    Poly,
    QParam,
    Recurrence,
    class_bounds_check,
    compose_xk,
    cubic_cases,
    descend_pearson,
    lift_functional,
    orthogonality_check,
    pearson_moments,
    pearson_residual,
    recurrence_from_moments,
    series_from_functional,
    stieltjes_residual,
    verify_susvq,
)
from qmap.cubic_cases import CASE_IDS, build_power_case, case_fixture, inverse_reconstruct_case13, validate_case
from qmap.errors import CaseError, MappingConditionError, QmapError, RegularityError, SingularCaseError
from qmap.families import FAMILY_JACOBI, FAMILY_LAGUERRE, family_pair
from qmap.mapping import ascend_recurrence, build_mapping
from qmap import cli, functionals, mapping as mapping_module, opseq, stieltjes

from conftest import cached_case_bundle
from helpers import (
    call_spy,
    family_recurrence,
    mapping_failure_oracle,
    no_candidate,
    ops_from_recurrence_oracle,
    patch_candidate,
    power_identity_oracle,
    repeated_lambda,
    spy_everywhere,
    zero_a,
)


def test_fixtures_validate_everywhere(q_half, q_third):
    for q in (q_half, q_third):
        for cid in CASE_IDS:
            case = case_fixture(cid, q)
            val = validate_case(case, q)
            assert val.ok, (cid, str(q.q), val.failures)


def test_validate_case1_spec_values(q_half):
    case = case_fixture(1, q_half)
    assert case.params["a"] == CycScalar(2)
    assert case.params["tau"] == CycScalar(-1)
    assert validate_case(case, q_half).ok


def test_validate_detects_bad_tau(q_half):
    case = case_fixture(1, q_half, {"tau": 1})
    val = validate_case(case, q_half)
    assert not val.ok
    assert any("tau^3" in f for f in val.failures)


def test_validate_case13_spec_fixture(q_half):
    case = case_fixture(13, q_half)
    p = case.params
    assert p["c"] == Fraction(1, 3)
    assert p["tau"] == Fraction(-4, 3)
    assert p["a"] == Fraction(1, 7)
    assert p["b"] == CycScalar(216)
    assert p["tau"] + p["c"] == CycScalar(-1)
    assert validate_case(case, q_half).ok


def test_case13_q_third_uses_shifted_parameters(q_third):
    # the q=1/2 parameters violate c != -tau q/(1+q) at q=1/3
    bad = case_fixture(13, q_third, {"c": Fraction(1, 3), "tau": Fraction(-4, 3)})
    assert not validate_case(bad, q_third).ok
    good = case_fixture(13, q_third)
    assert validate_case(good, q_third).ok


def test_case_discrimination_3_9_13(q_half):
    # same (q, tau): the b-constraints separate cases 3, 8 and 9
    case3 = case_fixture(3, q_half)
    case8 = case_fixture(8, q_half)
    case9 = case_fixture(9, q_half)
    assert case3.params["b"] == -q_half.q ** -3 and case3.expected_class == 1
    assert case8.params["b"] != -q_half.q ** -3 and case8.expected_class == 2
    assert case9.params["a"] != q_half.q.inv() and case9.expected_class == 2


@pytest.mark.parametrize("cid", CASE_IDS)
def test_build_case_core_identities(cid, q_half):
    b = cached_case_bundle(cid, q_half)
    # cubic composition p_{3n} = q_n(x^3) for n <= 8
    for n in range(9):
        assert b.p_ops[3 * n] == compose_xk(b.q_ops[n], 3)
    # class and canonical pair
    assert b.report.s == b.case.expected_class
    assert b.report.phi == b.expected_pair.phi
    assert b.report.psi == b.expected_pair.psi
    # block seeds from the catalog
    view = BlockView(b.rec_p, 3)
    assert view.b(0, 0) == b.case.params["tau"]


def test_block_seed_a01(q_half):
    # the catalog's a_0^{(1)} column, both shapes
    for cid, expect in (
        (1, lambda p, q: -(p["tau"] ** 2)),
        (6, lambda p, q: -(p["tau"] ** 2) * q.bracket(3) * ((1 + q.q) ** 2).inv()),
        (13, lambda p, q: -(p["c"] ** 2 + p["tau"] * p["c"] + p["tau"] ** 2)),
    ):
        b = cached_case_bundle(cid, q_half)
        view = BlockView(b.rec_p, 3)
        assert view.a(0, 1) == expect(b.case.params, q_half)


def test_ktau_zero_exactly_for_minus_tau_squared_cases(q_half):
    for cid in CASE_IDS:
        b = cached_case_bundle(cid, q_half)
        if cid in (1, 2, 3, 4, 5, 7, 8, 9):
            assert not b.eta.coeff(0)
            assert all(not b.u.moment(3 * n + 2) for n in range(b.v.order))
        else:
            assert b.eta.coeff(0)


def test_orthogonality_of_built_cases(q_half):
    for cid in (1, 6, 13):
        b = cached_case_bundle(cid, q_half)
        assert orthogonality_check(b.u, b.p_ops, 16).ok
        assert orthogonality_check(b.v, b.q_ops, 8).ok


def test_omega_branch_case1(q_half):
    # tau = -w is also a cube root of -1; the pipeline stays exact in Q(w)
    b = cached_case_bundle(1, q_half, N=36, overrides=(("tau", -OMEGA),))
    assert b.report.s == 1
    assert b.report.phi == b.expected_pair.phi
    assert b.report.psi == b.expected_pair.psi
    assert any(c.om for c in b.report.psi.coeffs)  # genuinely leaves Q


def test_invalid_fixture_raises_case_error(q_half):
    case = case_fixture(1, q_half, {"tau": 2})
    with pytest.raises(CaseError, match="validate"):
        from qmap.cubic_cases import build_case

        build_case(case, q_half, 24)


def test_validation_reaches_the_levels_that_n_reads(q_half):
    # at N = 144 q's recurrence runs on levels 0..23, so a = (q^3)^-20 cannot build
    q = QParam(Fraction(1, 2), 448)
    case = case_fixture(5, q, {"a": 2 ** 60})
    assert validate_case(case, q).ok  # N = 48 reads no level that a = q^-20 breaks
    assert validate_case(case, q, 144).failures == ("regularity: a = q^-20",)
    with pytest.raises(CaseError) as info:
        cubic_cases.build_case(case, q, 144)
    assert str(info.value) == "case 5 stage validate: regularity: a = q^-20"
    # a = q^-25 first breaks level 25, which N = 144 does not reach
    assert validate_case(case_fixture(5, q, {"a": 2 ** 75}), q, 144).ok


def test_validation_reaches_the_moments_of_v(monkeypatch):
    # pearson_moments to order V = 48 divides by 1 - ab Q^(m+1) for m <= 48, so ab = Q^-25 cannot build
    q = QParam(Fraction(1, 2), 448)
    case = case_fixture(7, q, {"b": 4 * q.pow(3).q ** -25})
    with pytest.raises(CaseError) as info:
        cubic_cases.build_case(case, q, 144)
    assert str(info.value) == "case 7 stage validate: regularity: ab = q^-25"
    monkeypatch.setattr(cli, "case_fixture", lambda cid, q: case)
    row = cli._run_table_entry(7, "1/2", q, 144)
    assert row == {"case": 7, "q": "1/2", "ok": False, "error": "regularity: ab = q^-25"}


@pytest.mark.parametrize("cid, top", [(1, 23), (7, 49)])
def test_validation_reports_the_levels_past_the_validated_order(cid, top):
    # Q = q^3 is validated to order 64 // 3 = 21, but N = 144 reads levels to 23 and Jacobi moments to 49
    q = QParam(Fraction(1, 2), 64)
    message = f"regularity: n = 21..{top} not checked: q^22 is past the validated order 21"
    assert validate_case(case_fixture(cid, q), q, 144).failures == (message,)
    with pytest.raises(CaseError) as info:
        cubic_cases.build_case(case_fixture(cid, q), q, 144)
    assert str(info.value) == f"case {cid} stage validate: {message}"


def test_stage_error_names_the_case(q_half, monkeypatch):
    def irregular(u, N):
        raise RegularityError("not regular at level 0: <u, p_0^2> = 0")

    # with no candidate the proof on v fails, so the Chebyshev on v runs
    patch_candidate(monkeypatch, no_candidate)
    monkeypatch.setattr(opseq, "recurrence_from_moments", irregular)
    with pytest.raises(CaseError) as info:
        cubic_cases.build_case(case_fixture(1, q_half), q_half, 12)
    assert str(info.value) == "case 1 stage recurrence-q: not regular at level 0: <u, p_0^2> = 0"


def _run_map(capsys, *argv):
    """``qmap map``'s exit code and JSON report."""
    code = cli.main(["map", *argv])
    return code, json.loads(capsys.readouterr().out)


def _map_of(monkeypatch, capsys, bundle):
    """``qmap map`` run on a given bundle in place of the one it builds."""
    monkeypatch.setattr(cli, "_case_bundle", lambda args: bundle)
    return _run_map(capsys, "--case", str(bundle.case.id), "--q", "1/2")


# at N = 24 q's recurrence holds r_0..r_3 and s_1..s_3, so q_0..q_4 are compared
@pytest.mark.parametrize("field, index", [("r", 0), ("r", 3), ("s", 0), ("s", 2)])
def test_mapped_recurrence_mismatch_names_the_first_differing_q(q_half, monkeypatch, capsys, field, index):
    # a build reads the mapping in closed form; a spoiled one is named by the comparison with
    # q's recurrence that builds made before (the oracle), and `qmap map` rejects it
    good = cubic_cases.build_case(case_fixture(1, q_half), q_half, 24)
    assert (len(good.mapping.r), len(good.q_ops)) == (4, 5)
    values = list(getattr(good.mapping, field))
    values[index] = values[index] + 1
    bad = replace(good.mapping, **{field: tuple(values)})
    mapped = ops_from_recurrence_oracle(Recurrence(bad.r, bad.s), len(bad.r))
    n = next(n for n, (ours, theirs) in enumerate(zip(mapped, good.q_ops)) if ours != theirs)
    assert n == index + (1 if field == "r" else 2)
    rec_q, _ = recurrence_from_moments(good.v, good.v.order // 2)
    assert mapping_failure_oracle(good.mapping, rec_q) is None
    assert mapping_failure_oracle(bad, rec_q) == f"mapping: mapped q_{n} disagrees with moment-side q_{n}"
    code, report = _map_of(monkeypatch, capsys, replace(good, mapping=bad))
    assert (code, report["conditions_ok"]) == (1, False)


def test_pi_k_mismatch_names_the_power_identity_stage(q_half, monkeypatch, capsys):
    good = cubic_cases.build_case(case_fixture(1, q_half), q_half, 24)
    bad = replace(good.mapping, pi_k=Poly.monomial(3) + Poly.x())
    rec_q, _ = recurrence_from_moments(good.v, good.v.order // 2)
    assert mapping_failure_oracle(bad, rec_q) == "power-identity: pi_k != x^3"
    code, report = _map_of(monkeypatch, capsys, replace(good, mapping=bad))
    assert (code, report["conditions_ok"], report["interleave_ok"]) == (1, False, False)


def test_build_case_is_the_power_builder_at_k3(q_half, monkeypatch):
    b = cached_case_bundle(1, q_half)
    p = b.case.params
    pair = family_pair(b.case.family, p["a"], p.get("b"), q_half.pow(3))
    spy = _ChebyshevSpy(monkeypatch)
    bare = build_power_case(pair, b.eta, q_half, 48)
    # the pair's recurrence and eta alone give p's by the ascent, and the power lemma the mapping
    assert spy.calls == []
    assert bare.mapping.k == b.mapping.k == 3
    assert bare.case is None and bare.expected_pair is None
    assert replace(bare, case=b.case, expected_pair=b.expected_pair) == b
    spy.calls.clear()
    patch_candidate(monkeypatch, no_candidate)
    # with no candidate, the Chebyshev on v gives q's recurrence, once, for the ascent and the mapping
    assert build_power_case(pair, b.eta, q_half, 48) == bare
    assert spy.calls == [(b.v.order, b.v.order // 2)]


# -- the k-generic builder away from k = 3 -------------------------------------

Q_POWER = QParam(Fraction(1, 2), 196)
FAMILIES = ((FAMILY_LAGUERRE, Fraction(1, 4), None), (FAMILY_JACOBI, Fraction(1, 4), Fraction(1, 5)))
# (eta, class s of u); k = deg eta + 1
POWER_ETAS = (
    (Poly([1, 1]), 1),
    (Poly.x(), 1),
    (Poly([Fraction(2, 3), 1]), 2),
    (Poly([Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), 1]), 6),  # k = 4, s = 2k - 2
)


def _draw_power_input(data, Ns):
    """k = 2..4, eta monic of degree k - 1, a family of FAMILIES and N from Ns."""
    k = data.draw(st.integers(2, 4))
    coeffs = data.draw(st.lists(st.fractions(-3, 3, max_denominator=4), min_size=k - 1, max_size=k - 1))
    family, a, b = data.draw(st.sampled_from(FAMILIES))
    return k, Poly(coeffs + [1]), family, a, b, data.draw(st.sampled_from(Ns))


def _power_bundle(eta: Poly, family: str, a, b):
    q = Q_POWER
    return build_power_case(family_pair(family, a, b, q.pow(eta.degree + 1)), eta, q, 60)


@pytest.mark.parametrize("family, a, b", FAMILIES)
@pytest.mark.parametrize("eta, s", POWER_ETAS)
def test_build_power_case_away_from_k3(eta, s, family, a, b):
    q, k = Q_POWER, eta.degree + 1
    bundle = _power_bundle(eta, family, a, b)
    assert bundle.mapping.k == k
    assert bundle.report.s == s
    assert bundle.mapping.conditions.ok
    assert bundle.mapping.pi_k == Poly.monomial(k)
    for n in range(6):
        assert bundle.p_ops[k * n] == compose_xk(bundle.q_ops[n], k)
    Su = series_from_functional(bundle.u)
    assert stieltjes_residual(bundle.acd, Su, q).is_zero
    assert verify_susvq(Su, series_from_functional(bundle.v), eta, q).ok
    assert class_bounds_check(s, 0, k).ok
    pair_u = PearsonPair(bundle.report.phi, bundle.report.psi)
    pair_v = descend_pearson(pair_u, s, [bundle.p_ops[j] for j in range(k)], q, bundle.v)
    assert not any(pearson_residual(bundle.v, pair_v, q.pow(k)))
    if s <= k - 1:
        # the theorem's conclusion: v is q^k-classical, deg Phi <= 2 and deg Psi = 1
        assert (pair_v.phi.degree, pair_v.psi.degree) == ((1, 1) if family == FAMILY_LAGUERRE else (2, 1))


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_power_identity_follows_from_the_mapping_checks(data):
    # every build that passes must pass the dense p_{kn} = q_n(x^k) oracle
    k, eta, family, a, b, N = _draw_power_input(data, (12, 24, 36))
    try:
        bundle = build_power_case(family_pair(family, a, b, Q_POWER.pow(k)), eta, Q_POWER, N)
    except CaseError:
        return
    assert bundle.mapping.pi_k == Poly.monomial(k)
    assert power_identity_oracle(bundle) is None


@pytest.mark.parametrize("family, a, b", FAMILIES)
def test_build_power_case_irregular_lift(family, a, b):
    eta = Poly([Fraction(2, 3), 1, 1, 1])
    with pytest.raises(CaseError, match=r"^power case stage recurrence-p: not regular at level 1"):
        _power_bundle(eta, family, a, b)


@pytest.mark.parametrize("eta", [Poly.one(), Poly.zero(), Poly([2, 2])])
def test_build_power_case_rejects_constant_or_non_monic_eta(eta, monkeypatch):
    def no_moments(*args):
        raise AssertionError("moments computed for a rejected eta")

    monkeypatch.setattr(cubic_cases, "pearson_moments", no_moments)
    pair = family_pair(FAMILY_LAGUERRE, Fraction(1, 4), None, Q_POWER)
    with pytest.raises(CaseError) as info:
        build_power_case(pair, eta, Q_POWER, 60, label="case k1")
    assert str(info.value) == f"case k1 stage power: eta must be monic of degree k - 1 >= 1, got {eta}"


# -- p's recurrence: ascended from q's proved on v, or the Chebyshev on u ------


class _ChebyshevSpy:
    """Wraps the Chebyshev where a build reads it (p's recurrence in cubic_cases, q's with its
    polynomials in opseq.proved_recurrence) and records each functional's order and N."""

    def __init__(self, monkeypatch, fail=None):
        self.calls = []
        self.fail = fail
        monkeypatch.setattr(cubic_cases, "chebyshev_recurrence", lambda u, N: self(u, N)[0])
        monkeypatch.setattr(opseq, "recurrence_from_moments", self)

    def __call__(self, u, N):
        self.calls.append((u.order, N))
        if self.fail is not None and self.fail(u, N):
            raise RegularityError("not regular at level 3: <u, p_3^2> = 0")
        return recurrence_from_moments(u, N)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_power_case_recurrence_matches_the_chebyshev_on_u(data):
    # one route per k: the ascent at k = 3 never runs the Chebyshev on u, whether it builds or
    # raises, and any other k runs it once; either gives u's recurrence or its exact error
    k, eta, family, a, b, N = _draw_power_input(data, (12, 24, 36))
    qk = Q_POWER.pow(k)
    pair = family_pair(family, a, b, qk)
    u = lift_functional(pearson_moments(pair, 1, cubic_cases._v_order(N, k), qk), eta)
    with pytest.MonkeyPatch.context() as patch:
        spy = _ChebyshevSpy(patch)
        try:
            outcome = build_power_case(pair, eta, Q_POWER, N)
        except CaseError as exc:
            outcome = str(exc)
    on_u = [call for call in spy.calls if call[0] == u.order]  # q's, if any, is on v
    assert on_u == ([] if k == 3 else [(u.order, u.order // 2)])
    if isinstance(outcome, str):
        with pytest.raises(QmapError) as direct:
            recurrence_from_moments(u, u.order // 2)
        assert outcome == f"power case stage recurrence-p: {direct.value}"
        return
    assert outcome.u == u
    assert (outcome.rec_p, outcome.p_ops) == recurrence_from_moments(u, u.order // 2)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_a_candidate_never_changes_the_outcome(data):
    # the pair's recurrence, proved on v, seeds the ascent, or the Chebyshev on v decides
    k, eta, family, a, b, N = _draw_power_input(data, (12, 24))
    Q = Q_POWER.pow(k)
    if data.draw(st.booleans()):
        pair = family_pair(family, a, b, Q)
    else:  # a classical pair of no named family: deg Phi <= 2, deg Psi = 1
        small = st.fractions(-3, 3, max_denominator=4)
        deg = data.draw(st.integers(0, 2))
        phi = Poly(data.draw(st.lists(small, min_size=deg, max_size=deg)) + [data.draw(small.filter(bool))])
        pair = PearsonPair(phi, Poly([data.draw(small), data.draw(small.filter(bool))]))
    outcomes = []
    for candidate in (True, False):
        with pytest.MonkeyPatch.context() as patch:
            if not candidate:
                patch_candidate(patch, no_candidate)
            try:
                outcomes.append(build_power_case(pair, eta, Q_POWER, N))
            except CaseError as exc:
                outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]


# at N = 24 `qmap map` re-derives blocks 0..3 of p's Np = 13 levels, that is levels 0..11
@pytest.mark.parametrize(
    "field, level, message",
    [
        ("b", 0, "condition (i): b_1^(0) != b_0^(0)"),
        ("b", 1, "condition (ii): Delta_1(m+2, m+k-1) varies with n"),
        ("b", 6, "condition (i): b_2^(0) != b_0^(0)"),
        ("b", 11, "condition (ii): Delta_3(m+2, m+k-1) varies with n"),
        ("a", 1, "condition (iv): r_1(x) depends on x"),
        ("a", 6, "condition (iv): r_2(x) depends on x"),
        ("a", 11, "condition (ii): Delta_3(m+2, m+k-1) varies with n"),
    ],
)
def test_a_perturbed_ascent_fails_at_stage_mapping(q_half, monkeypatch, capsys, field, level, message):
    # a build checks nothing on u and reads the mapping in closed form, so a spoiled level builds;
    # `qmap map` re-derives the block conditions and fails inside blocks 0..3.  The top level
    # 3 Nq = 12 lies past them, and the ascent lemma's test guards every level
    def perturbed(r, s, eta, levels):
        up = ascend_recurrence(r, s, eta, levels)
        assert len(up.b) == levels == 13
        return _wrong(up, field, level)

    monkeypatch.setattr(cubic_cases, "ascend_recurrence", perturbed)
    spy = _ChebyshevSpy(monkeypatch)
    mapping = cubic_cases.build_case(case_fixture(1, q_half), q_half, 24).mapping
    with pytest.raises(MappingConditionError) as info:
        build_mapping(mapping.view, mapping.r0, len(mapping.r) - 1)
    assert str(info.value) == message
    code, report = _run_map(capsys, "--case", "1", "--q", "1/2", "--N", "24")
    assert (code, report["conditions_ok"]) == (1, False)
    assert spy.calls == []


@pytest.mark.parametrize("case_id, overrides", [(13, ()), (1, (("tau", -OMEGA),))])
def test_a_build_forms_no_row_over_u_moments(q_half, monkeypatch, case_id, overrides):
    # a rational catalog build and a Q(w) branch build prove q's recurrence on v and read
    # v's last moments for its next level; the ascent gives p's, and nothing reads u's moments
    proved, scaled = [], []
    real_proof = opseq.proved_pair_recurrence
    monkeypatch.setattr(opseq, "proved_pair_recurrence", lambda u, *args: proved.append(u) or real_proof(u, *args))
    for module in (functionals, opseq, stieltjes):
        real = module._scaled
        monkeypatch.setattr(module, "_scaled", lambda values, real=real: scaled.append(tuple(values)) or real(values))
    bundle = cubic_cases.build_case(case_fixture(case_id, q_half, dict(overrides)), q_half, 24)
    Np = bundle.u.order // 2
    assert proved == [bundle.v]
    assert not any(len(x) > 3 and x == bundle.u.moments[: len(x)] for x in scaled)
    assert (bundle.rec_p, bundle.p_ops) == recurrence_from_moments(bundle.u, Np)


def test_the_ascent_is_certified_on_every_catalog_and_branch_build(workloads, monkeypatch):
    # the benchmark's own builds: 26 catalog cases, 2 deep and 4 Q(w) branch builds
    spy = _ChebyshevSpy(monkeypatch)
    built = spy_everywhere(monkeypatch, mapping_module.build_mapping)
    real_lift, lifted = cubic_cases.lift_functional, []
    monkeypatch.setattr(cubic_cases, "lift_functional", lambda *args: lifted.append(real_lift(*args)) or lifted[-1])
    real_proof, proved = opseq.proved_pair_recurrence, []

    def proof(u, *args):
        proved.append((u, real_proof(u, *args)))
        return proved[-1][1]

    monkeypatch.setattr(opseq, "proved_pair_recurrence", proof)
    for workload, builds in (("catalog", 26), ("deep", 2), ("branch", 4)):
        for calls in (spy.calls, built, lifted, proved):
            calls.clear()
        for call in workloads.build(workload, 0):
            call.run()
        # no Chebyshev: q's recurrence is the one its pair fixes, and p's is ascended from it and eta
        assert spy.calls == [], workload
        assert built == [], workload  # the mapping in closed form, by the power lemma
        # one eigen proof per build, on v, and each proves the pair's recurrence: none runs on u
        assert len(proved) == len(lifted) == builds, workload
        assert all(result is not None for _, result in proved), workload
        assert not any(v is u for v, _ in proved for u in lifted), workload


def test_no_benchmark_call_reads_a_row_of_moments_but_u_poly(workloads, monkeypatch):
    # the eigen-recurrence proof forms no row of v's moments and takes q's next level from the
    # pair: in a build, the row kernel runs for u_poly (the D of v's triple) only; `qmap ops` at
    # the certify sizes proves its pair, so it runs no orthogonality scan either
    callers = []
    real = functionals._correlate

    def spy(*args):
        callers.append(sys._getframe(1).f_code.co_name)
        return real(*args)

    for module in (functionals, opseq):
        monkeypatch.setattr(module, "_correlate", spy)
    scanned = spy_everywhere(monkeypatch, opseq.orthogonality_check)
    for workload in ("catalog", "deep", "branch"):
        callers.clear()
        for call in workloads.build(workload, 0):
            call.run()
        assert set(callers) == {"u_poly"}, workload
    for call in workloads.build("certify", 0):
        assert call.output(call.run())[1]
    assert scanned == []


@pytest.mark.parametrize("case_id, overrides", [(13, ()), (1, (("tau", -OMEGA),))])
def test_a_k3_build_forms_no_polynomial_and_no_next_level_row(q_half, monkeypatch, case_id, overrides):
    # the proof gives q's N levels and level N from the pair: no three-term step, no next_level
    # and no row kernel in opseq; q_ops is formed when read, and it is the Chebyshev's q_0..q_Nq
    stepped = spy_everywhere(monkeypatch, opseq._step)
    leveled = spy_everywhere(monkeypatch, opseq.next_level)
    correlated = call_spy(monkeypatch, opseq, "_correlate")
    bundle = cubic_cases.build_case(case_fixture(case_id, q_half, dict(overrides)), q_half, 48)
    assert stepped == leveled == correlated == []
    q_ops = bundle.q_ops
    assert len(stepped) == len(q_ops) - 1 == bundle.v.order // 2
    assert q_ops == recurrence_from_moments(bundle.v, bundle.v.order // 2)[1]


def _wrong(rec: Recurrence, field: str, level: int) -> Recurrence:
    b, a = list(rec.b), list(rec.a)
    if field == "b":
        b[level] = b[level] + 1
    else:
        a[level - 1] = a[level - 1] + (1 if a[level - 1] != -1 else 2)
    return Recurrence(b, a)


@pytest.mark.parametrize("cid", [1, 13])
@pytest.mark.parametrize("field, level", [("b", 0), ("a", 1), ("a", 4), ("b", 7), ("a", 7)])
def test_a_wrong_candidate_is_rejected_on_v_and_the_chebyshev_decides(q_half, monkeypatch, cid, field, level):
    # at N = 48, Nq = 8: the proof derives levels 0..7 and level 8 from lambda, mu, nu, so a wrong
    # candidate is one that fails a hypothesis of the lemma.  For a_level that is a_level = 0; for
    # b_level, lambda_{level+1} = lambda_level, the gap that c_{level+1} in b_level divides by.  The
    # top level 7 too is rejected, and the Chebyshev on v gives q's recurrence
    good = cached_case_bundle(cid, q_half)  # built before the patches, so the spy sees one build
    patch_candidate(monkeypatch, zero_a(level) if field == "a" else repeated_lambda(level + 1, level))
    spy = _ChebyshevSpy(monkeypatch)
    assert cubic_cases.build_case(case_fixture(cid, q_half), q_half, 48) == good
    assert spy.calls == [(16, 8)]  # never the Chebyshev on u


def test_a_zero_denominator_candidate_builds_by_the_fallback(q_half, monkeypatch):
    # case 7 is little q^3-Jacobi; at ab = Q^-(2n-1) the gap lambda_n - lambda_{n-2} is zero
    good = cached_case_bundle(7, q_half)  # built before the patches
    real = opseq._pair_candidate
    a = case_fixture(7, q_half).params["a"]

    def singular(pair, Q, n):
        return real(family_pair(FAMILY_JACOBI, a, Q.q ** -(2 * n - 1) * a.inv(), Q), Q, n)

    monkeypatch.setattr(opseq, "_pair_candidate", singular)
    spy = _ChebyshevSpy(monkeypatch)
    bundle = cubic_cases.build_case(case_fixture(7, q_half), q_half, 48)
    with pytest.raises(QmapError, match=r"^pair recurrence: lambda_8 = lambda_6$"):
        singular(None, q_half.pow(3), 8)
    assert spy.calls == [(bundle.v.order, bundle.v.order // 2)]
    assert bundle == good


def _shifted_r(mapping):
    return replace(mapping, r=(mapping.r[0] + 1,) + mapping.r[1:])


def _bent_pi_k(mapping):
    return replace(mapping, pi_k=mapping.pi_k + Poly.x())


def _conditions_fail(mapping):
    raise MappingConditionError("condition (i): b_1^(0) != b_0^(0)")


@pytest.mark.parametrize("candidate", [False, True])
@pytest.mark.parametrize("cid", [1, 13])
@pytest.mark.parametrize(
    "spoil, message",
    [
        (_shifted_r, "stage mapping: mapped q_1 disagrees with moment-side q_1"),
        (_bent_pi_k, "stage power-identity: pi_k != x^3"),
        (_conditions_fail, "stage mapping: condition (i): b_1^(0) != b_0^(0)"),
    ],
)
def test_with_no_candidate_a_spoiled_mapping_names_its_stage(q_half, monkeypatch, capsys, candidate, cid, spoil, message):
    # with the pair's recurrence as q's candidate or with none, `qmap map` builds the same closed
    # form and re-derives it once; spoiled there, the mapping fails the check that named its stage
    # when builds derived it (the oracle), and map exits 1
    good = cached_case_bundle(cid, q_half)  # built before the patches
    rec_q, _ = recurrence_from_moments(good.v, good.v.order // 2)
    real, named = cli.build_mapping, []

    def spoiled(*args):
        try:
            mapping = spoil(real(*args))
        except MappingConditionError as exc:
            named.append(f"stage mapping: {exc}")
            raise
        named.append(f"stage {mapping_failure_oracle(mapping, rec_q)}")
        return mapping

    monkeypatch.setattr(cli, "build_mapping", spoiled)
    if not candidate:
        patch_candidate(monkeypatch, no_candidate)
    spy = _ChebyshevSpy(monkeypatch)
    code, report = _run_map(capsys, "--case", str(cid), "--q", "1/2", "--N", "48")
    assert (code, report["conditions_ok"]) == (1, False)
    assert report["mapping"] == good.mapping.to_dict()
    assert named == [message]
    # v's Chebyshev runs only with no candidate, once, for the ascent and the closed form
    assert spy.calls.count((16, 8)) == (0 if candidate else 1)


def test_the_comparison_covers_every_candidate_level(q_half):
    # build_power_case's orders: v to V = _v_order(N, k), u to k (V + 1) - 1 and
    # Np = u.order // 2.  The closed form holds q's V // 2 levels, exactly the Ncond + 1 that
    # builds compared when they derived the mapping, and p's blocks 0..V // 2 - 1 all exist
    for k in range(2, 17):
        for N in range(1, 1000):
            V = cubic_cases._v_order(N, k)
            Np = (k * (V + 1) - 1) // 2
            assert max((Np - k) // k, 1) + 1 == V // 2 and k * (V // 2) <= Np, (k, N)
    bundle = cached_case_bundle(1, q_half)
    assert len(bundle.mapping.r) == len(bundle.q_ops) - 1 == bundle.v.order // 2


@pytest.mark.parametrize("N, V, Np", [(12, 4, 7), (15, 5, 8)])
@pytest.mark.parametrize("cid", [1, 13])
def test_the_next_level_of_q_gives_p_its_top_levels(q_half, monkeypatch, cid, N, V, Np):
    # Nq = 2 levels of q ascend to 6 of p; a_2 adds level 6, and at odd V b_2 adds level 7
    # (the ascent stops at Np): no Chebyshev, none on u
    spy = _ChebyshevSpy(monkeypatch)
    bundle = cubic_cases.build_case(case_fixture(cid, q_half), q_half, N)
    assert (bundle.v.order, bundle.u.order // 2) == (V, Np)
    assert spy.calls == []
    assert (bundle.rec_p, bundle.p_ops) == recurrence_from_moments(bundle.u, Np)


@pytest.mark.parametrize("N", [12, 15, 24, 27])
def test_v_irregular_at_its_last_level_fails_at_stage_recurrence_p(monkeypatch, N):
    # a = Q^-Nq makes the little q^3-Laguerre norm h_Nq vanish: the next level of q has
    # a_Nq = 0, and the ascent names level 3 Nq, as the Chebyshev on u would, without it
    eta = Poly([Fraction(2, 3), 1, 1])
    Q = Q_POWER.pow(3)
    Nq = cubic_cases._v_order(N) // 2
    pair = family_pair(FAMILY_LAGUERRE, Q.q ** -Nq, None, Q)
    spy = _ChebyshevSpy(monkeypatch)
    with pytest.raises(CaseError) as info:
        build_power_case(pair, eta, Q_POWER, N)
    assert str(info.value) == f"power case stage recurrence-p: not regular at level {3 * Nq}: <u, p_{3 * Nq}^2> = 0"
    assert type(info.value.__cause__) is RegularityError
    assert spy.calls == []


@pytest.mark.parametrize("eta", [POWER_ETAS[0][0], POWER_ETAS[3][0]])
def test_k2_and_k4_keep_the_chebyshev_on_u(monkeypatch, eta):
    # only k = 3 is ascended: no work is spent on p's block 0, and the pair's recurrence stands for q's
    spy = _ChebyshevSpy(monkeypatch)
    bundle = _power_bundle(eta, *FAMILIES[1])
    assert bundle.mapping.k == eta.degree + 1
    assert spy.calls == [(bundle.u.order, bundle.u.order // 2)]


@pytest.mark.parametrize("family, a, b", FAMILIES)
@pytest.mark.parametrize("eta", [POWER_ETAS[0][0], POWER_ETAS[3][0]])
def test_k2_and_k4_prove_q_on_v_and_keep_the_chebyshev_on_u(monkeypatch, eta, family, a, b):
    # rec_p is the Chebyshev on u, and the pair's recurrence at Q = q^k is proved on v
    k = eta.degree + 1
    Q = Q_POWER.pow(k)
    pair = family_pair(family, a, b, Q)
    spy = _ChebyshevSpy(monkeypatch)
    bare = _power_bundle(eta, family, a, b)
    assert spy.calls == [(bare.u.order, bare.u.order // 2)]  # no call on v
    Nq = bare.v.order // 2
    assert opseq.pair_recurrence(pair, Q, Nq) == family_recurrence(family, a, b, Q, Nq)
    # with no candidate, or one whose lambda repeat that the proof on v rejects, the Chebyshev on v decides
    for spoil in (no_candidate, repeated_lambda(3, 2)):
        spy.calls.clear()
        with pytest.MonkeyPatch.context() as patch:
            patch_candidate(patch, spoil)
            assert build_power_case(pair, eta, Q_POWER, 60) == bare
        assert spy.calls == [(bare.v.order, bare.v.order // 2), (bare.u.order, bare.u.order // 2)]  # q's first


def test_a_failing_v_side_still_names_the_recurrence_q_stage(q_half, monkeypatch):
    # with no candidate q's recurrence is settled first, so its failure is
    # named before any work is spent on p's side
    eta = cached_case_bundle(1, q_half).eta  # built before the patches
    patch_candidate(monkeypatch, no_candidate)
    spy = _ChebyshevSpy(monkeypatch, fail=lambda u, N: u.order == 16)  # v at N = 48
    case = case_fixture(1, q_half)
    pair = family_pair(case.family, case.params["a"], None, q_half.pow(3))
    with pytest.raises(CaseError) as info:
        build_power_case(pair, eta, q_half, 48, "case 1")
    assert str(info.value) == "case 1 stage recurrence-q: not regular at level 3: <u, p_3^2> = 0"
    assert spy.calls == [(16, 8)]  # no Chebyshev on u, (50, 25)


def test_a_build_reads_no_polynomial_of_its_sequences(q_half, monkeypatch):
    # q_ops stays integer forms through the build, p_ops is not formed, and no determinant of
    # p's blocks is taken: a build forms no Poly of a form at all; one is built when read
    built = call_spy(monkeypatch, opseq, "_poly")
    bundle = cubic_cases.build_case(case_fixture(13, q_half), q_half, 48)
    assert built == []
    expected = ops_from_recurrence_oracle(bundle.rec_p, len(bundle.p_ops) - 1)
    assert [bundle.p_ops[j] for j in range(len(bundle.p_ops))] == list(expected)


def test_no_build_derives_the_mapping_or_forms_p(q_half, monkeypatch):
    # the power lemma's closed form stands for build_mapping and its block conditions, at k = 3
    # (rational and Q(w)) and on the Chebyshev route at k = 2 and 4; p's polynomials wait for a read
    built = spy_everywhere(monkeypatch, mapping_module.build_mapping)
    checked = spy_everywhere(monkeypatch, mapping_module.check_conditions)
    formed = spy_everywhere(monkeypatch, opseq.ops_from_recurrence)
    bundles = [
        cubic_cases.build_case(case_fixture(cid, q_half, overrides), q_half, 48)
        for cid, overrides in ((1, None), (13, None), (5, {"tau": -OMEGA}))
    ]
    bundles += [_power_bundle(eta, *family) for eta in (POWER_ETAS[0][0], POWER_ETAS[3][0]) for family in FAMILIES]
    assert {b.mapping.k for b in bundles} == {2, 3, 4}
    assert built == checked == []
    assert not any(args[0] == b.rec_p for b in bundles for args in formed)


def test_p_ops_is_formed_once_when_first_read(q_half, monkeypatch):
    formed = spy_everywhere(monkeypatch, opseq.ops_from_recurrence)
    bundle = cubic_cases.build_case(case_fixture(13, q_half), q_half, 48)
    Np = bundle.u.order // 2
    assert formed == [] and "p_ops" not in vars(bundle)
    first = bundle.p_ops
    assert first == ops_from_recurrence_oracle(bundle.rec_p, Np)
    assert bundle.p_ops is first and formed == [(bundle.rec_p, Np)]
    # compared, hashed, replaced and pickled by rec_p: a copy forms its own when read
    for other in (replace(bundle), pickle.loads(pickle.dumps(bundle)), copy.deepcopy(bundle)):
        assert other == bundle and hash(other) == hash(bundle) and "p_ops" not in vars(other)
        assert other.p_ops == first
    assert len(formed) == 4


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_the_closed_form_mapping_is_the_block_oracle(data):
    # the power lemma: wherever a build passes, at k = 2..5 with rational or Q(w) eta, the closed
    # form is what build_mapping derives from p's blocks 0..Ncond, by value and by its JSON bytes
    k = data.draw(st.integers(2, 5))
    small = st.fractions(-3, 3, max_denominator=4)
    scalars = st.builds(CycScalar, small, small if data.draw(st.booleans()) else st.just(Fraction(0)))
    eta = Poly(data.draw(st.lists(scalars, min_size=k - 1, max_size=k - 1)) + [1])
    family, a, b = data.draw(st.sampled_from(FAMILIES))
    N = data.draw(st.sampled_from((12, 24, 36)))
    try:
        bundle = build_power_case(family_pair(family, a, b, Q_POWER.pow(k)), eta, Q_POWER, N)
    except CaseError:
        return
    mapping, v, Np = bundle.mapping, bundle.v, bundle.u.order // 2
    oracle = build_mapping(BlockView(bundle.rec_p, k), v.moment(1) * v.moment(0).inv(), max((Np - k) // k, 1))
    assert oracle == mapping
    assert json.dumps(oracle.to_dict()) == json.dumps(mapping.to_dict())


def test_case_and_bundle_hash_and_their_params_are_read_only(q_half):
    case = case_fixture(1, q_half)
    with pytest.raises(TypeError):
        case.params["a"] = CycScalar(3)
    assert case.params == {"a": CycScalar(2), "tau": CycScalar(-1)}
    assert hash(case) == hash(case_fixture(1, q_half))
    bundle = cached_case_bundle(1, q_half)
    assert hash(bundle) == hash(pickle.loads(pickle.dumps(bundle)))
    assert copy.deepcopy(case) == case


# -- case 13 inverse reconstruction -------------------------------------------


def test_inverse_reconstruction_values(q_half):
    rec = inverse_reconstruct_case13(Fraction(1, 7), Fraction(1, 3), Fraction(-4, 3), q_half)
    assert rec.r0 == Fraction(55, 29)
    assert rec.b01 + rec.b02 == Fraction(4, 3)  # -tau
    # ground truth from the forward pipeline
    b = cached_case_bundle(13, q_half)
    view = BlockView(b.rec_p, 3)
    assert rec.r0 == b.mapping.r0
    assert rec.b01 == view.b(0, 1)
    assert rec.b02 == view.b(0, 2)
    assert rec.a02 == view.a(0, 2)


def test_inverse_reconstruction_other_parameters(q_third):
    case = case_fixture(13, q_third)
    rec = inverse_reconstruct_case13(case.params["a"], case.params["c"], case.params["tau"], q_third)
    b = cached_case_bundle(13, q_third)
    view = BlockView(b.rec_p, 3)
    assert (rec.r0, rec.b01, rec.b02, rec.a02) == (b.mapping.r0, view.b(0, 1), view.b(0, 2), view.a(0, 2))


def test_inverse_reconstruction_singular_configuration(q_half):
    # c^3 = a q^3 is rejected up front
    with pytest.raises(SingularCaseError):
        inverse_reconstruct_case13(Fraction(8, 27), Fraction(1, 3), Fraction(-4, 3), q_half)


def test_published_a02_closed_form_is_inconsistent(q_half):
    """The compact a_0^{(2)} display circulating for this case drops a factor.

    The value determined by the annihilation system (and by the recovered
    recurrence itself) is -c^3 q^3 a (1-c^3)^2 / D^2, not
    +c^3 q^3 a (1-c^3) / D^2; keep a pinned witness of the discrepancy.
    """
    a, c, tau = CycScalar(Fraction(1, 7)), CycScalar(Fraction(1, 3)), CycScalar(Fraction(-4, 3))
    qs = q_half.q
    rec = inverse_reconstruct_case13(a, c, tau, q_half)
    denom = (c ** 3 - a * qs ** 3) * (c * c + tau * c + tau * tau)
    stated = c ** 3 * qs ** 3 * a * (1 - c ** 3) * (denom * denom).inv()
    corrected = -(c ** 3) * qs ** 3 * a * (1 - c ** 3) ** 2 * (denom * denom).inv()
    assert rec.a02 == corrected == Fraction(-672, 841)
    assert rec.a02 != stated


@pytest.mark.parametrize("cid, tau", [(1, None), (13, None), (1, -OMEGA)], ids=["case1", "case13", "case1-tau=-w"])
def test_a_build_makes_as_many_fractions_at_every_order(monkeypatch, cid, tau):
    # every exact stage runs on CycScalar's integer triples: no Fraction per level or coefficient
    real = Fraction.__new__
    made = []
    for N in (48, 144):
        q = QParam(Fraction(1, 2), max(64, 3 * N + 16))
        case = case_fixture(cid, q, None if tau is None else {"tau": tau})
        count = [0]

        def counting(cls, *args, **kwargs):
            count[0] += 1
            return real(cls, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(Fraction, "__new__", counting)
            cubic_cases.build_case(case, q, N)
        made.append(count[0])
    assert made[0] == made[1]
