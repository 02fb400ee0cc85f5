"""Catalog of the thirteen cubic cases and their end-to-end builders.

Each case fixes the mapped family (little q^3-Laguerre or little q^3-Jacobi),
the block seeds b_0^{(0)} = tau and a_0^{(1)}, and parameter constraints; the
expected class is 1 for cases 1-3 and 2 for cases 4-13.  For every case the
canonical distributional pair (Phi, Psi) of the original functional is encoded
as a parameter-dependent constructor, so one encoding serves every q sample.

``build_case`` is the one place that fixes the power k = 3: it validates a case
and hands eta_2 = x^2 + tau x + k_tau and the family pair at q^3 to
``build_power_case``, which runs the pipeline for any k = deg eta + 1 in one
pass: moments at q^k, the lift, q's recurrence and its next level from its
pair alone, proved on v by the eigen-recurrence lemma (``opseq.proved_recurrence``,
else the Chebyshev on v), p's recurrence (at k = 3 ascended from q's, its next
level and eta, u's by the ascent lemma with no check on u; at any other k the
Chebyshev on u), the mapping in the closed form of the power lemma (see
README), the lifted (A, C, D) and the class report.  A build forms no
polynomial: p's and q's are formed when ``CaseBundle.p_ops`` and
``CaseBundle.q_ops`` are first read.
``inverse_reconstruct_case13`` solves the inverse problem for case 13.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from functools import cached_property
from fractions import Fraction
from typing import Optional

from .classifier import ClassReport, classify
from .errors import CaseError, SingularCaseError
from .families import FAMILY_JACOBI, FAMILY_LAGUERRE, family_pair, regularity_failures
from .functionals import MomentFunctional, PearsonPair, pearson_moments
from .mapping import ConditionReport, MappingData, ascend_recurrence, lift_functional, lift_power
from .opseq import BlockView, OPSequence, Recurrence, chebyshev_recurrence, ops_from_recurrence, proved_recurrence
from .polyalg import Poly
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
    "build_power_case",
    "inverse_reconstruct_case13",
]

CASE_IDS = tuple(range(1, 14))
_K = 3  # the power of the catalog: p_{3n}(x) = q_n(x^3)
_REGULARITY_LEVELS = 16  # validate_case checks the mapped family's regularity for n = 0..16 at least

_LAGUERRE_CASES = {1, 4, 5, 6}
_BRACKET_A01_CASES = {6, 10, 11, 12}  # a_0^{(1)} = -tau^2 [3]_q / (1+q)^2


class CaseParams(Mapping):
    """A case's parameters by name: read-only, hashable, compared by value."""

    __slots__ = ("_values",)

    def __init__(self, values=()):
        self._values = dict(values)

    def __getitem__(self, name):
        return self._values[name]

    def __iter__(self):
        return iter(self._values)

    def __len__(self):
        return len(self._values)

    def __hash__(self):
        return hash(frozenset(self._values.items()))

    def __repr__(self):
        return f"CaseParams({self._values!r})"


@dataclass(frozen=True)
class CubicCase:
    id: int
    family: str
    params: CaseParams
    expected_class: int

    def __post_init__(self):
        object.__setattr__(self, "params", CaseParams(self.params))


@dataclass(frozen=True)
class CaseValidation:
    ok: bool
    failures: tuple[str, ...] = ()


@dataclass(frozen=True)
class CaseBundle:
    """Everything a build at the power k = ``mapping.k`` produces; ``case`` and
    ``expected_pair`` are set by ``build_case`` only.  A build forms no polynomial:
    ``p_ops`` is formed from rec_p and ``q_ops`` (q_0..q_Nq) from the mapping's r
    and s, each when first read, and kept; bundles compare, hash and pickle by
    their recurrences."""

    q: QParam
    v: MomentFunctional
    eta: Poly
    u: MomentFunctional
    rec_p: Recurrence
    mapping: MappingData
    acd: ACDTriple
    report: ClassReport
    case: Optional[CubicCase] = None
    expected_pair: Optional[PearsonPair] = field(default=None, repr=False)

    @cached_property
    def p_ops(self) -> OPSequence:
        return ops_from_recurrence(self.rec_p, len(self.rec_p.b))

    @cached_property
    def q_ops(self) -> OPSequence:
        return ops_from_recurrence(Recurrence(self.mapping.r, self.mapping.s), len(self.mapping.r))

    def __getstate__(self):
        return {name: value for name, value in vars(self).items() if name not in ("p_ops", "q_ops")}


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


def _v_order(N: int, k: int = _K) -> int:
    """The order V of v that ``build_power_case`` generates for the target order N of u.

    q's Nq = V // 2 levels are the former Ncond + 1 that builds compared, Ncond = max((Np - k) // k, 1),
    and p's blocks 0..Nq - 1 exist for ``qmap map`` to re-derive: k Nq <= Np = (k (V + 1) - 1) // 2.
    """
    return max(N // k, 4)


def validate_case(case: CubicCase, q: QParam, N: int = 48) -> CaseValidation:
    """Check the case constraints plus the mapped family's regularity at q^3.

    Regularity is checked for n = 0..max(16, V // 2 - 1), with V = _v_order(N):
    q's recurrence then runs on levels 0..V // 2 - 1, and a family level n
    names the norm of level n + 1.  The moments of v to order V are checked as
    well.
    """
    failures = _constraint_failures(case, q)
    p = case.params
    V = _v_order(N)
    levels = max(_REGULARITY_LEVELS, V // 2 - 1)
    regular = regularity_failures(case.family, p["a"], p.get("b"), q.pow(_K), levels, V)
    failures += [f"regularity: {t}" for t in regular]
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


def build_power_case(pair_v: PearsonPair, eta: Poly, q: QParam, N: int = 48, label: str = "power case") -> CaseBundle:
    """Run the full pipeline at the power k = deg eta + 1; N is the target order for u.

    v has the pair ``pair_v`` at q^k and v_0 = 1; u is its lift, S_u(z) = eta(z) S_v(z^k)
    with eta monic.
    q's recurrence and its level Nq are ``proved_recurrence(v, pair_v, q^k, Nq)``,
    Nq = v.order // 2: the pair's, by the eigen-recurrence lemma (README), with no
    polynomial formed and no row of v's moments read, else the Chebyshev on v and
    ``next_level``.  p's (stage ``recurrence-p``) has one route per k: at k = 3 q's
    levels and eta give it by the ascent, u's by the ascent lemma (see README), so
    nothing reads u's moments; at any other k it is the Chebyshev on u.  Both are
    the functionals' own, so the mapping is the power lemma's closed form (README).
    A failing stage raises a CaseError whose message starts with ``label``.
    """
    if eta.degree < 1 or eta.lc != ONE:
        raise CaseError(f"{label} stage power: eta must be monic of degree k - 1 >= 1, got {eta}")
    k = lift_power(eta)

    def stage(name, fn):
        try:
            return fn()
        except Exception as exc:  # noqa: BLE001 - re-tag with the stage name
            raise CaseError(f"{label} stage {name}: {exc}") from exc

    qk = q.pow(k)
    v = stage("moments-v", lambda: pearson_moments(pair_v, 1, _v_order(N, k), qk))
    u = stage("lift", lambda: lift_functional(v, eta))
    Np = u.order // 2
    # q^k is validated to v's order V >= 2 Nq, past the Nq that lambda_0..lambda_{Nq+1} read, Nq = V // 2
    rec_q, level = stage("recurrence-q", lambda: proved_recurrence(v, pair_v, qk, v.order // 2))
    if k == 3:  # u's recurrence by the ascent lemma: no Chebyshev, no row over u's moments
        rec_p = stage("recurrence-p", lambda: ascend_recurrence(*level, eta, Np))
    else:
        rec_p = stage("recurrence-p", lambda: chebyshev_recurrence(u, Np))
    # the power lemma: the block conditions hold, pi_k = x^k and (r, s) = rec_q, r_0 = v_1 / v_0
    r0 = rec_q.b[0]
    conditions = ConditionReport(True, True, True, True, eta, (), tuple([r - r0 for r in rec_q.b]))
    mapping = MappingData(r0, Poly.monomial(k), eta, rec_q.b, rec_q.a, conditions, BlockView(rec_p, k))

    vt = stage("acd-v", lambda: acd_from_pearson(pair_v, v, qk))
    acd = stage("acd-mapped", lambda: acd_mapped(vt, eta, q))
    report = stage("classify", lambda: classify(acd, q))
    return CaseBundle(q, v, eta, u, rec_p, mapping, acd, report)


def build_case(case: CubicCase, q: QParam, N: int = 48) -> CaseBundle:
    """Run the full pipeline for a catalog case at k = 3; N is the target order for u."""
    val = validate_case(case, q, N)
    if not val.ok:
        raise CaseError(f"case {case.id} stage validate: " + "; ".join(val.failures), val.failures)
    p = case.params
    tau = p["tau"]
    eta = Poly([_a01(case.id, tau, q, p.get("c")) + tau * tau, tau, ONE])
    # validation has ruled out a = 0 and ab = 0, the only parameters the pair rejects
    pair_v = family_pair(case.family, p["a"], p.get("b"), q.pow(_K))
    bundle = build_power_case(pair_v, eta, q, N, f"case {case.id}")
    return replace(bundle, case=case, expected_pair=expected_phi_psi(case, q))


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
