"""Construction and verification of the polynomial mapping p_{kn+m} = theta_m q_n(pi_k).

Given the block view of a recurrence this module checks the four structural
conditions on the blocks, builds (pi_k, theta_m, eta, r_n, s_n) and the mapped
sequence q_n, verifies the interleaving identities for the in-between degrees,
and lifts a functional v to the functional u whose Stieltjes series is
eta(z) * S_v(z^k) (up to the u_0/v_0 normalization; the m = 0 situation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .errors import MappingConditionError, QmapError
from .functionals import MomentFunctional
from .opseq import BlockView, OPSequence, Recurrence, delta_det, ops_from_recurrence
from .polyalg import Poly, compose, divrem
from .scalars import CycScalar, ZERO

__all__ = [
    "ConditionReport",
    "MappingData",
    "InterleaveReport",
    "check_conditions",
    "build_mapping",
    "verify_interleave",
    "lift_functional",
]


@dataclass(frozen=True)
class ConditionReport:
    """Pass/fail record for the four block conditions.

    ``r_at_zero[n]`` is the constant r_n(0) of condition (iv) for n = 0..N
    (r_0(0) = 0); it stops at the first failing block.
    """

    ok: bool
    b_constant: bool
    delta_constant: bool
    divisible: bool
    r_constant: bool
    failures: tuple[str, ...] = ()
    theta: Optional[Poly] = None
    eta: Optional[Poly] = None
    r_at_zero: tuple[CycScalar, ...] = ()


@dataclass(frozen=True)
class MappingData:
    """Everything the mapping produces, plus the view it came from."""

    k: int
    m: int
    r0: CycScalar
    pi_k: Poly
    theta_m: Poly
    eta: Poly
    r: tuple[CycScalar, ...]
    s: tuple[CycScalar, ...]
    conditions: ConditionReport
    view: BlockView = field(repr=False)

    def to_dict(self):
        return {
            "k": self.k,
            "m": self.m,
            "r0": str(self.r0),
            "pi_k": self.pi_k.to_strings(),
            "theta_m": self.theta_m.to_strings(),
            "eta": self.eta.to_strings(),
            "r": [str(v) for v in self.r],
            "s": [str(v) for v in self.s],
        }


@dataclass(frozen=True)
class InterleaveReport:
    ok: bool
    checked: int
    first_failure: Optional[tuple[int, int]] = None


def _r_shift_poly(view: BlockView, m: int, n: int, eta: Poly) -> Poly:
    """The combination whose x-independence is the fourth block condition.

    Defined for n >= 1; the n = 0 value is identically zero, which makes the
    recurrence coefficient of the mapped sequence start from the free r_0.
    """
    if n == 0:
        return Poly.zero()
    k = view.k
    t1 = view.a(n, m + 1) * delta_det(view, n, m + 3, m + k - 1)
    t2 = view.a(0, m + 1) * delta_det(view, 0, m + 3, m + k - 1)
    t3 = view.a(n, m) * delta_det(view, n - 1, m + 2, m + k - 2)
    t4 = view.a(0, m) * (delta_det(view, 0, 1, m - 2) * eta)
    return t1 - t2 + t3 - t4


def check_conditions(view: BlockView, m: int, N: int) -> ConditionReport:
    """Verify the four structural conditions on blocks n = 0..N.

    (i) b_n^{(m)} constant in n; (ii) Delta_n(m+2, m+k-1; x) constant in n;
    (iii) that polynomial factors as theta_m * eta with theta_m = p_m;
    (iv) the r-combination is constant in x for every n.
    """
    k = view.k
    if not 0 <= m <= k - 1:
        raise ValueError(f"m must lie in [0, {k - 1}]")
    failures: list[str] = []

    b0 = view.b(0, m)
    b_const = True
    for n in range(1, N + 1):
        if view.b(n, m) != b0:
            b_const = False
            failures.append(f"condition (i): b_{n}^({m}) != b_0^({m})")
            break

    delta0 = delta_det(view, 0, m + 2, m + k - 1)
    delta_const = True
    for n in range(1, N + 1):
        if delta_det(view, n, m + 2, m + k - 1) != delta0:
            delta_const = False
            failures.append(f"condition (ii): Delta_{n}(m+2, m+k-1) varies with n")
            break

    theta = delta_det(view, 0, 1, m - 1)  # equals p_m for the block recurrence
    quot, rem = divrem(delta0, theta)
    divisible = rem.is_zero and quot.degree == k - 1 - m
    eta = quot if divisible else None
    if not divisible:
        failures.append("condition (iii): Delta_0(m+2, m+k-1) is not theta_m times a degree k-1-m factor")

    r_const = divisible
    r_at_zero = [ZERO]
    if divisible:
        for n in range(1, N + 1):
            rn = _r_shift_poly(view, m, n, eta)
            if rn.degree > 0:
                r_const = False
                failures.append(f"condition (iv): r_{n}(x) depends on x")
                break
            r_at_zero.append(rn.coeff(0))

    ok = b_const and delta_const and divisible and r_const
    return ConditionReport(
        ok, b_const, delta_const, divisible, r_const, tuple(failures), theta, eta, tuple(r_at_zero)
    )


def build_mapping(view: BlockView, m: int, r0, N: int) -> tuple[MappingData, OPSequence]:
    """Construct the mapping data and the mapped monic sequence q_0..q_{N+1}.

    Requires the block conditions to hold up to N.  The mapped recurrence is
    q_{n+1} = (x - r_n) q_n - s_n q_{n-1} with r_n = r_0 + r_n(0) and
    s_n = a_n^{(m)} a_{n-1}^{(m+1)} ... a_{n-1}^{(m+k-1)}, and q_1(0) = -r_0.
    """
    r0 = CycScalar.coerce(r0)
    report = check_conditions(view, m, N)
    if not report.ok:
        raise MappingConditionError("; ".join(report.failures) or "block conditions failed")
    theta, eta = report.theta, report.eta
    k = view.k

    pi_k = delta_det(view, 0, 1, m) * eta - view.a(0, m + 1) * delta_det(view, 0, m + 3, m + k - 1) + Poly.constant(r0)
    if pi_k.degree != k:
        raise MappingConditionError(f"pi_k came out with degree {pi_k.degree}, expected {k}")

    r = [r0 + c for c in report.r_at_zero]
    s: list[CycScalar] = []
    for n in range(1, N + 1):
        sn = view.a(n, m)
        for i in range(1, k):
            sn = sn * view.a(n - 1, m + i)
        s.append(sn)

    q_ops = ops_from_recurrence(Recurrence(r, s), N + 1)
    data = MappingData(k, m, r0, pi_k, theta, eta, tuple(r), tuple(s), report, view)
    return data, q_ops


def verify_interleave(p_ops: OPSequence, mapping: MappingData, q_ops: OPSequence, N: int) -> InterleaveReport:
    """Check the in-between-degree identities of the mapping for n <= N.

    For each j = 0..k-1:
        eta * p_{kn+m+j+1} = Delta_n(m+2, m+j) q_{n+1}(pi_k)
            + (prod_{i=1}^{j+1} a_n^{(m+i)}) Delta_n(m+j+3, m+k-1) q_n(pi_k).
    """
    view, k, m = mapping.view, mapping.k, mapping.m
    checked = 0
    for n in range(N + 1):
        qn = compose(q_ops[n], mapping.pi_k)
        qn1 = compose(q_ops[n + 1], mapping.pi_k)
        prod = CycScalar(1)
        for j in range(k):
            prod = prod * view.a(n, m + j + 1)
            lhs = mapping.eta * p_ops[k * n + m + j + 1]
            rhs = delta_det(view, n, m + 2, m + j) * qn1 + prod * (delta_det(view, n, m + j + 3, m + k - 1) * qn)
            checked += 1
            if lhs != rhs:
                return InterleaveReport(False, checked, (n, j))
    return InterleaveReport(True, checked)


def lift_functional(v: MomentFunctional, eta: Poly, k: int, u0) -> MomentFunctional:
    """Moments of the functional u with S_u(z) = (u0/v0) eta(z) S_v(z^k).

    Writing eta(z) = sum_i e_i z^i of degree k-1, matching powers of 1/z gives
    u_{kn + (k-1-i)} = (u0/v0) e_i v_n for every tracked n and every i.
    """
    if eta.degree != k - 1:
        raise QmapError(f"eta must have degree {k - 1}, got {eta.degree}")
    v0 = v.moment(0)
    if not v0:
        raise QmapError("v_0 must be nonzero to lift")
    scale = CycScalar.coerce(u0) * v0.inv()
    out = [ZERO] * (k * (v.order + 1))
    for n, vn in enumerate(v.moments):
        base = scale * vn
        for i, e in enumerate(eta.coeffs):
            out[k * n + (k - 1 - i)] = base * e
    return MomentFunctional(out)
