"""Catalog of the thirteen cubic cases and their end-to-end builders.

Each case fixes the mapped family (little q^3-Laguerre or little q^3-Jacobi),
the block seeds b_0^{(0)} = tau and a_0^{(1)}, and parameter constraints; the
expected class is 1 for cases 1-3 and 2 for cases 4-13.  For every case the
canonical distributional pair (Phi, Psi) of the original functional is encoded
as a parameter-dependent constructor, so one encoding serves every q sample.

The builder runs the whole pipeline: family moments at q^3, the lift through
eta_2 = x^2 + tau x + k_tau, recurrence recovery on both sides, the mapping
construction with its condition checks, the lifted (A, C, D), and the class
report.  ``inverse_reconstruct_case13`` solves the inverse problem for case 13
from the annihilation system and checks the closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .classifier import ClassReport, classify
from .errors import CaseError, SingularCaseError
from .families import (
    FAMILY_JACOBI,
    FAMILY_LAGUERRE,
    jacobi_regularity_failures,
    laguerre_regularity_failures,
    little_q_jacobi_pair,
    little_q_laguerre_pair,
)
from .functionals import MomentFunctional, PearsonPair, pearson_moments
from .mapping import MappingData, build_mapping, lift_functional
from .opseq import BlockView, OPSequence, Recurrence, recurrence_from_moments
from .polyalg import Poly, compose_xk
from .scalars import CycScalar, ONE, QParam
from .stieltjes import ACDTriple, acd_from_pearson, acd_mapped

__all__ = [
    "CubicCase",
    "CaseValidation",
    "CaseBundle",
    "CASE_IDS",
    "case_fixture",
    "expected_phi_psi",
    "expected_class",
    "validate_case",
    "build_case",
    "inverse_reconstruct_case13",
]

CASE_IDS = tuple(range(1, 14))

_LAGUERRE_CASES = {1, 4, 5, 6}
_BRACKET_A01_CASES = {6, 10, 11, 12}  # a_0^{(1)} = -tau^2 [3]_q / (1+q)^2


@dataclass(frozen=True)
class CubicCase:
    id: int
    family: str
    params: dict
    expected_class: int


@dataclass(frozen=True)
class CaseValidation:
    ok: bool
    failures: tuple[str, ...] = ()


@dataclass(frozen=True)
class CaseBundle:
    """Everything a case build produces, for downstream checks and reports."""

    case: CubicCase
    q: QParam
    pair_v: PearsonPair
    v: MomentFunctional
    eta: Poly
    ktau: CycScalar
    u: MomentFunctional
    rec_p: Recurrence
    p_ops: OPSequence
    rec_q: Recurrence
    q_ops: OPSequence
    r0: CycScalar
    mapping: MappingData
    q_ops_mapped: OPSequence
    vt: ACDTriple
    acd: ACDTriple
    report: ClassReport
    expected_pair: PearsonPair = field(repr=False)


def _a01(case_id: int, tau: CycScalar, q: QParam, c: Optional[CycScalar]) -> CycScalar:
    if case_id == 13:
        return -(c * c + tau * c + tau * tau)
    if case_id in _BRACKET_A01_CASES:
        return -(tau * tau) * q.bracket(3) * ((1 + q.q) ** 2).inv()
    return -(tau * tau)


def case_fixture(case_id: int, q: QParam, overrides: Optional[dict] = None) -> CubicCase:
    """Default rational parameter choices for a case at the given q.

    Constraints that force a cube root of -1 take the rational branch by
    default; pass overrides (e.g. tau = -w) to exercise the other branches.
    """
    if case_id not in CASE_IDS:
        raise ValueError(f"unknown case id {case_id}")
    qs = q.q
    quarter = CycScalar(Fraction(1, 4))
    fifth = CycScalar(Fraction(1, 5))
    p: dict = {}
    if case_id == 1:
        p = {"a": qs.inv(), "tau": CycScalar(-1)}
    elif case_id == 2:
        p = {"a": qs.inv(), "tau": CycScalar(-1), "b": fifth}
    elif case_id == 3:
        p = {"a": qs.inv(), "tau": ONE, "b": -(qs ** -3)}
    elif case_id == 4:
        p = {"a": qs.inv(), "tau": ONE}
    elif case_id == 5:
        p = {"a": quarter, "tau": CycScalar(-1)}
    elif case_id == 6:
        p = {"a": quarter, "tau": -(1 + qs)}
    elif case_id == 7:
        p = {"a": quarter, "tau": CycScalar(-1), "b": fifth}
    elif case_id == 8:
        p = {"a": qs.inv(), "tau": ONE, "b": fifth}
    elif case_id == 9:
        p = {"a": quarter, "tau": ONE, "b": -(qs ** -3)}
    elif case_id == 10:
        p = {"a": quarter, "tau": -(1 + qs), "b": fifth}
    elif case_id == 11:
        p = {"a": quarter, "tau": -(1 + qs) * qs.inv(), "b": ONE}
    elif case_id == 12:
        p = {"a": quarter, "tau": ONE, "b": -((1 + qs) ** 3) * qs ** -6}
    elif case_id == 13:
        if qs == CycScalar(Fraction(1, 2)):
            c, tau = CycScalar(Fraction(1, 3)), CycScalar(Fraction(-4, 3))
        else:
            c, tau = CycScalar(Fraction(1, 2)), CycScalar(Fraction(-3, 2))
        p = {"a": CycScalar(Fraction(1, 7)), "c": c, "tau": tau, "b": c ** -3 * qs ** -3}
    if overrides:
        p.update({k: CycScalar.coerce(v) for k, v in overrides.items()})
        if case_id == 13 and "c" in overrides and "b" not in overrides:
            p["b"] = p["c"] ** -3 * qs ** -3
    family = FAMILY_LAGUERRE if case_id in _LAGUERRE_CASES else FAMILY_JACOBI
    return CubicCase(case_id, family, p, expected_class(case_id))


def expected_class(case_id: int) -> int:
    return 1 if case_id <= 3 else 2


def _constraint_failures(case: CubicCase, q: QParam) -> list[str]:
    qs = q.q
    p = case.params
    a = p.get("a")
    b = p.get("b")
    tau = p.get("tau")
    c = p.get("c")
    out: list[str] = []

    def need(cond: bool, text: str):
        if not cond:
            out.append(text)

    cid = case.id
    if cid in (1, 2):
        need(a == qs.inv(), "a = 1/q")
        need(tau ** 3 == -ONE, "tau^3 = -1")
    elif cid == 3:
        need(a == qs.inv(), "a = 1/q")
        need(bool(tau), "tau != 0")
        need(tau ** 3 != -ONE, "tau^3 != -1")
        if tau:
            need(b == -(tau ** -3) * qs ** -3, "b = -1/(tau^3 q^3)")
    elif cid == 4:
        need(a == qs.inv(), "a = 1/q")
        need(bool(tau), "tau != 0")
        need(tau ** 3 != -ONE, "tau^3 != -1")
    elif cid in (5, 7):
        need(a != qs.inv(), "a != 1/q")
        need(tau ** 3 == -ONE, "tau^3 = -1")
    elif cid in (6, 10):
        need(tau ** 3 == -((1 + qs) ** 3), "tau^3 = -(1+q)^3")
    elif cid == 8:
        need(a == qs.inv(), "a = 1/q")
        need(bool(tau), "tau != 0")
        need(tau ** 3 != -ONE, "tau^3 != -1")
        if tau:
            need(b != -(tau ** -3) * qs ** -3, "b != -1/(tau^3 q^3)")
    elif cid == 9:
        need(a != qs.inv(), "a != 1/q")
        need(bool(tau), "tau != 0")
        need(tau ** 3 != -ONE, "tau^3 != -1")
        if tau:
            need(b == -(tau ** -3) * qs ** -3, "b = -1/(tau^3 q^3)")
    elif cid == 11:
        need(tau ** 3 == -(qs ** -3) * (1 + qs) ** 3, "tau^3 = -(1+q)^3/q^3")
        need(b == ONE, "b = 1")
    elif cid == 12:
        need(bool(tau), "tau != 0")
        need(tau ** 3 != -((1 + qs) ** 3), "tau^3 != -(1+q)^3")
        if tau:
            need(b == -((1 + qs) ** 3) * tau ** -3 * qs ** -6, "b = -(1+q)^3/(tau^3 q^6)")
    elif cid == 13:
        need(bool(c), "c != 0")
        need(c != -tau * qs * (1 + qs).inv(), "c != -tau q/(1+q)")
        need(bool(c * c + tau * c + tau * tau), "c^2 + tau c + tau^2 != 0")
        need((tau + c) ** 3 == -ONE, "(tau+c)^3 = -1")
        if c:
            need(b == c ** -3 * qs ** -3, "b = 1/(c^3 q^3)")
    return out


def validate_case(case: CubicCase, q: QParam, n_max: int = 16) -> CaseValidation:
    """Check the case constraints plus the mapped family's regularity at q^3."""
    failures = _constraint_failures(case, q)
    q3 = q.pow(3)
    a = case.params.get("a")
    if case.family == FAMILY_LAGUERRE:
        failures += [f"regularity: {t}" for t in laguerre_regularity_failures(a, q3, n_max)]
    else:
        failures += [f"regularity: {t}" for t in jacobi_regularity_failures(a, case.params.get("b"), q3, n_max)]
    return CaseValidation(not failures, tuple(failures))


def expected_phi_psi(case: CubicCase, q: QParam) -> PearsonPair:
    """Canonical (Phi, Psi) of the original functional for this case."""
    qs = q.q
    p = case.params
    a = p.get("a")
    b = p.get("b")
    tau = p.get("tau")
    c = p.get("c")
    cid = case.id
    if cid == 1:
        phi = Poly.one()
        psi = qs.inv() * Poly([-(tau ** 2), tau, (qs - 1).inv()])
    elif cid == 2:
        phi = Poly([-(qs ** -3) * b.inv(), 0, 0, ONE])
        psi = (qs ** -4 * b.inv()) * Poly([tau ** 2, -tau, (qs - 1).inv() * (qs ** 4 * b - 1)])
    elif cid == 3:
        phi = Poly([qs.inv() * tau ** 3, -qs.inv() * (1 - qs) * tau ** 2, qs.inv() * (1 - qs) * tau, ONE])
        psi = Poly([qs.inv() * tau ** 2, -qs.inv() * tau, (qs - 1).inv() * (1 - qs ** -4 * b.inv())])
    elif cid == 4:
        phi = Poly([tau * qs.inv(), ONE])
        psi = (qs ** -2 * (qs - 1).inv()) * Poly([qs ** 2 - 1, 0, tau * qs, ONE])
    elif cid == 5:
        phi = Poly.x()
        psi = (qs ** -3 * a.inv()) * Poly([qs * (qs - 1).inv() * (a * qs ** 2 - 1), -(tau ** 2), tau, (qs - 1).inv()])
    elif cid == 6:
        phi = Poly.x()
        psi = (qs ** -3 * a.inv()) * Poly(
            [qs ** 2 * (qs - 1).inv() * (a * qs - 1), -(tau ** 2) * (1 + qs).inv(), tau, (qs - 1).inv()]
        )
    elif cid == 7:
        phi = Poly([0, -(qs ** -3) * b.inv(), 0, 0, ONE])
        psi = (qs ** -6 * (qs - 1).inv() * b.inv() * a.inv()) * Poly(
            [qs - a * qs ** 3, tau ** 2 * (qs - 1), tau * (1 - qs), a * b * qs ** 6 - 1]
        )
    elif cid == 8:
        phi = Poly([-(qs ** -4) * b.inv() * tau, -(qs ** -3) * b.inv(), 0, qs.inv() * tau, ONE])
        psi = (qs ** -5 * (qs - 1).inv() * b.inv()) * Poly(
            [1 - qs ** 2, 0, tau * qs * (b * qs ** 3 - 1), qs ** 5 * b - 1]
        )
    elif cid == 9:
        phi = Poly([0, tau ** 3 * qs.inv(), tau ** 2 * qs.inv() * (qs - 1), qs.inv() * tau * (1 - qs), ONE])
        psi = (qs ** -6 * (qs - 1).inv() * b.inv() * a.inv()) * Poly(
            [
                a * b * qs ** 4 * tau ** 3 * (qs - 1) + 1 - a * qs,
                a * b * qs ** 5 * tau ** 2 * (qs - 1),
                a * b * qs ** 5 * tau * (1 - qs),
                a * b * qs ** 6 - 1,
            ]
        )
    elif cid == 10:
        phi = Poly([0, -(qs ** -3) * b.inv(), 0, 0, ONE])
        psi = (a.inv() * b.inv() * qs ** -6) * Poly(
            [qs ** 2 * (qs - 1).inv() * (1 - a * qs), (qs + 1).inv() * tau ** 2, -tau, (qs - 1).inv() * (a * b * qs ** 6 - 1)]
        )
    elif cid == 11:
        phi = Poly(
            [
                0,
                tau ** 3 * qs.inv() * (qs + 1) ** -3,
                tau ** 2 * qs.inv() * (qs + 1) ** -2 * (qs - 1),
                tau * qs.inv() * (qs + 1).inv() * (1 - qs),
                ONE,
            ]
        )
        psi = (a.inv() * qs ** -4) * Poly(
            [
                (qs + 1) ** -3 * (qs - 1).inv() * qs.inv() * (a * qs ** 3 * tau ** 3 * (qs - 1) + (qs + 1) ** 3 * (1 - a)),
                tau ** 2 * (qs + 1) ** -2 * (a * qs ** 3 + 1),
                -tau * qs.inv() * (qs + 1).inv() * (a * qs ** 4 + 1),
                qs ** -2 * (qs - 1).inv() * (a * qs ** 6 - 1),
            ]
        )
    elif cid == 12:
        phi = Poly(
            [
                0,
                qs * tau ** 3 * (qs + 1) ** -3,
                tau ** 2 * (qs + 1).inv() * (qs - 1),
                tau * qs.inv() * (1 - qs),
                ONE,
            ]
        )
        psi = Poly(
            [
                (qs - 1).inv() * a.inv() * (qs + 1) ** -3 * tau ** 3 * (a * qs - 1),
                tau ** 2 * (qs + 1).inv(),
                -tau * qs.inv(),
                a.inv() * (qs - 1).inv() * (qs + 1) ** -3 * (tau ** 3 + a * (qs ** 3 + 1) + 3 * a * qs * (qs + 1)),
            ]
        )
    elif cid == 13:
        phi = Poly([0, -(c ** 3) * qs.inv(), c ** 2 * qs.inv() * (qs - 1), c * qs.inv() * (qs - 1), ONE])
        psi = (a.inv() * b.inv() * qs ** -6) * Poly(
            [
                -(qs - 1).inv() * (c ** 3 * a * b * qs ** 4 * (qs - 1) + qs * (a - 1)),
                c ** 2 * (a * b * qs ** 5 + 1) + tau * (tau + 2 * c),
                c * (a * b * qs ** 5 - 1) - tau,
                (qs - 1).inv() * (a * b * qs ** 6 - 1),
            ]
        )
    else:
        raise ValueError(f"unknown case id {cid}")
    return PearsonPair(phi, psi)


def family_pair(case: CubicCase, q3: QParam) -> PearsonPair:
    if case.family == FAMILY_LAGUERRE:
        return little_q_laguerre_pair(case.params["a"], q3)
    return little_q_jacobi_pair(case.params["a"], case.params["b"], q3)


def build_case(case: CubicCase, q: QParam, N: int = 48) -> CaseBundle:
    """Run the full pipeline for a case; N is the target order for u."""
    val = validate_case(case, q)
    if not val.ok:
        raise CaseError(f"case {case.id} stage validate: " + "; ".join(val.failures))

    def stage(name, fn):
        try:
            return fn()
        except Exception as exc:  # noqa: BLE001 - re-tag with the stage name
            raise CaseError(f"case {case.id} stage {name}: {exc}") from exc

    q3 = q.pow(3)
    tau = case.params["tau"]
    a01 = _a01(case.id, tau, q, case.params.get("c"))
    ktau = a01 + tau * tau
    eta = Poly([ktau, tau, ONE])

    pair_v = stage("family-pair", lambda: family_pair(case, q3))
    Nv = max(N // 3, 4)
    v = stage("moments-v", lambda: pearson_moments(pair_v, 1, Nv, q3))
    u = stage("lift", lambda: lift_functional(v, eta, 3, 1))
    Np = u.order // 2
    rec_p, p_ops = stage("recurrence-p", lambda: recurrence_from_moments(u, Np))
    rec_q, q_ops = stage("recurrence-q", lambda: recurrence_from_moments(v, v.order // 2))

    for n in range(min(len(q_ops), len(p_ops) // 3)):
        if p_ops[3 * n] != compose_xk(q_ops[n], 3):
            raise CaseError(f"case {case.id} stage cubic-identity: p_(3n) != q_n(x^3) at n={n}")

    view = BlockView(rec_p, 3)
    r0 = v.moment(1) * v.moment(0).inv()
    Ncond = max((Np - 3) // 3, 1)
    mapping, q_mapped = stage("mapping", lambda: build_mapping(view, 0, r0, Ncond))
    for n in range(min(len(q_mapped), len(q_ops))):
        if q_mapped[n] != q_ops[n]:
            raise CaseError(f"case {case.id} stage mapping: mapped q_{n} disagrees with moment-side q_{n}")

    vt = stage("acd-v", lambda: acd_from_pearson(pair_v, v, q3))
    acd = stage("acd-mapped", lambda: acd_mapped(vt, eta, 3, q, 1, 1))
    report = stage("classify", lambda: classify(acd, q))
    expected = expected_phi_psi(case, q)
    return CaseBundle(
        case, q, pair_v, v, eta, ktau, u, rec_p, p_ops, rec_q, q_ops, r0, mapping, q_mapped, vt, acd, report, expected
    )


@dataclass(frozen=True)
class Case13Reconstruction:
    r0: CycScalar
    b01: CycScalar
    b02: CycScalar
    a02: CycScalar


def inverse_reconstruct_case13(a, c, tau, q: QParam) -> Case13Reconstruction:
    """Recover the mapped-side seeds of case 13 from annihilation conditions.

    The system <u, Psi> = <u, p_j> = 0 (j = 1, 2, 3) pins down the first
    moments of u (the b_0^{(1)} dependence cancels between the p_1 and p_2
    rows) and hence r_0 = u_3/u_0; the remaining seeds follow from the shape
    of eta_2 and pi_3.  The returned values are checked against their closed
    forms before returning.
    """
    a = CycScalar.coerce(a)
    c = CycScalar.coerce(c)
    tau = CycScalar.coerce(tau)
    qs = q.q
    if c ** 3 == a * qs ** 3:
        raise SingularCaseError("c^3 = a q^3 makes the reconstruction singular")
    case = case_fixture(13, q, {"a": a, "c": c, "tau": tau})
    psi = expected_phi_psi(case, q).psi

    u0 = ONE
    u1 = tau                 # <u, p_1> = 0 with p_1 = x - tau
    u2 = -c * (c + tau)      # <u, p_2> = 0; the b_0^{(1)} terms cancel
    # <u, Psi> = 0 solved for u_3:
    u3 = -(psi.coeff(0) * u0 + psi.coeff(1) * u1 + psi.coeff(2) * u2) * psi.coeff(3).inv()
    r0 = u3                  # <u, p_3> = 0 with p_3 = x^3 - r_0

    a01 = -(c * c + tau * c + tau * tau)
    b02 = tau + (tau ** 3 - r0) * a01.inv()
    b01 = -tau - b02
    a02 = b01 * b02 - a01 - tau * tau

    denom = (c ** 3 - a * qs ** 3) * (c * c + tau * c + tau * tau)
    r0_closed = c ** 3 * (c ** 3 - a * qs ** 3).inv() * (1 - a * qs ** 3)
    b01_closed = c + a * qs ** 3 * (c ** 3 - 1) * denom.inv()
    b02_closed = c + c ** 3 * (1 - c ** 3) * denom.inv()
    # The compact form of a_0^{(2)} consistent with the system above (checked
    # symbolically modulo (tau+c)^3 = -1 and against the recovered recurrence):
    a02_closed = -(c ** 3) * qs ** 3 * a * (1 - c ** 3) ** 2 * (denom * denom).inv()
    for name, got, want in (
        ("r0", r0, r0_closed),
        ("b01", b01, b01_closed),
        ("b02", b02, b02_closed),
        ("a02", a02, a02_closed),
    ):
        if got != want:
            raise CaseError(f"case 13 reconstruction: {name} = {got} disagrees with closed form {want}")
    return Case13Reconstruction(r0, b01, b02, a02)
