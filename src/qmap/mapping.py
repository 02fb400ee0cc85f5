"""The polynomial mapping p_{kn}(x) = q_n(pi_k(x)), the moment lift, and the ascent at k = 3.

This is the block map p_{kn+m} = theta_m q_n(pi_k) at m = 0, theta_0 = 1.
From the block view of a recurrence ``build_mapping`` checks the block
conditions and derives (pi_k, eta) and the mapped recurrence (r_n, s_n); a
case build reads them in the closed form of the power lemma (README) instead.
``verify_interleave`` checks the in-between degrees, ``lift_functional``
lifts v to u with S_u(z) = eta(z) S_v(z^k), and ``ascend_recurrence`` runs
the block conditions forwards at k = 3, from q's recurrence and eta to p's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from math import prod
from typing import Optional

from .errors import MappingConditionError, QmapError, RegularityError
from .functionals import MomentFunctional
from .opseq import BlockView, OPSequence, Recurrence, delta_det
from .polyalg import Poly, compose
from .scalars import CycScalar, ONE, ZERO

__all__ = [
    "ConditionReport",
    "MappingData",
    "InterleaveReport",
    "check_conditions",
    "build_mapping",
    "verify_interleave",
    "lift_functional",
    "lift_power",
]


@dataclass(frozen=True)
class ConditionReport:
    """Pass/fail record for the block conditions (i), (ii) and (iv).

    Condition (iii), that Delta_0(m+2, m+k-1) is theta_m times a factor of
    degree k-1-m, holds trivially at m = 0: theta_0 = 1 and Delta_0(2, k-1)
    is monic of degree k-1, so ``eta`` is Delta_0(2, k-1) itself.
    ``r_at_zero[n]`` is the constant r_n(0) of condition (iv) for n = 0..N
    (r_0(0) = 0); it stops at the first failing block.
    """

    ok: bool
    b_constant: bool
    delta_constant: bool
    r_constant: bool
    eta: Poly
    failures: tuple[str, ...] = ()
    r_at_zero: tuple[CycScalar, ...] = ()


@dataclass(frozen=True)
class MappingData:
    """Everything the mapping produces, plus the view it came from."""

    r0: CycScalar
    pi_k: Poly
    eta: Poly
    r: tuple[CycScalar, ...]
    s: tuple[CycScalar, ...]
    conditions: ConditionReport
    view: BlockView = field(repr=False)

    @property
    def k(self) -> int:
        return self.view.k

    def to_dict(self):
        return {
            "k": self.k,
            "m": 0,  # the map JSON and the bench digests keep m and theta_m (theta_0 = 1)
            "r0": str(self.r0),
            "pi_k": self.pi_k.to_strings(),
            "theta_m": ["1/1"],
            "eta": self.eta.to_strings(),
            "r": [str(v) for v in self.r],
            "s": [str(v) for v in self.s],
        }


@dataclass(frozen=True)
class InterleaveReport:
    ok: bool
    checked: int
    first_failure: Optional[tuple[int, int]] = None


def _r_shift_poly(view: BlockView, n: int, fixed: Poly) -> Poly:
    """The combination whose x-independence is the block condition (iv).

    ``fixed`` is its n-independent part a_0^{(1)} Delta_0(3, k-1), computed
    once per block check.  Defined for blocks n >= 1; at n = 0 the combination
    is zero, so the mapped recurrence starts from the free r_0
    (``check_conditions`` records r_0(0) = 0).
    """
    k = view.k
    t1 = view.a(n, 1) * delta_det(view, n, 3, k - 1)
    t3 = view.a(n, 0) * delta_det(view, n - 1, 2, k - 2)
    return t1 + t3 - fixed


def check_conditions(view: BlockView, N: int) -> ConditionReport:
    """Verify the block conditions on blocks n = 0..N.

    (i) b_n^{(0)} constant in n; (ii) eta = Delta_n(2, k-1; x) constant in n;
    (iv) the r-combination is constant in x for every n.  Condition (iii)
    holds trivially at m = 0 (see ``ConditionReport``).
    """
    k = view.k
    failures: list[str] = []

    b0 = view.b(0, 0)
    b_const = True
    for n in range(1, N + 1):
        if view.b(n, 0) != b0:
            b_const = False
            failures.append(f"condition (i): b_{n}^(0) != b_0^(0)")
            break

    eta = delta_det(view, 0, 2, k - 1)
    delta_const = True
    for n in range(1, N + 1):
        if delta_det(view, n, 2, k - 1) != eta:
            delta_const = False
            failures.append(f"condition (ii): Delta_{n}(m+2, m+k-1) varies with n")
            break

    r_const = True
    r_at_zero = [ZERO]
    tail = view.a(0, 1) * delta_det(view, 0, 3, k - 1)
    for n in range(1, N + 1):
        rn = _r_shift_poly(view, n, tail)
        if rn.degree > 0:
            r_const = False
            failures.append(f"condition (iv): r_{n}(x) depends on x")
            break
        r_at_zero.append(rn.coeff(0))

    ok = b_const and delta_const and r_const
    return ConditionReport(ok, b_const, delta_const, r_const, eta, tuple(failures), tuple(r_at_zero))


def build_mapping(view: BlockView, r0, N: int) -> MappingData:
    """Derive the mapping data from the blocks 0..N, with the mapped q_0..q_{N+1} as its recurrence.

    Raises MappingConditionError unless the block conditions hold up to N.
    The mapped recurrence is q_{n+1} = (x - r_n) q_n - s_n q_{n-1} with
    r_n = r_0 + r_n(0) for n = 0..N and s_n = a_n^{(0)} a_{n-1}^{(1)} ...
    a_{n-1}^{(k-1)} for n = 1..N.  Used by ``qmap map`` and as the tests'
    oracle of the closed form that a case build reads.
    """
    r0 = CycScalar.coerce(r0)
    report = check_conditions(view, N)
    if not report.ok:
        raise MappingConditionError("; ".join(report.failures) or "block conditions failed")
    k = view.k

    # pi_k = (x - b_0^{(0)}) eta - a_0^{(1)} Delta_0(3, k-1) + r_0, and the first two
    # terms are Delta_0(1, k-1) = p_k expanded along its first row
    pi_k = delta_det(view, 0, 1, k - 1) + r0

    r = tuple(r0 + c for c in report.r_at_zero)
    s = tuple(prod((view.a(n - 1, i) for i in range(1, k)), start=view.a(n, 0)) for n in range(1, N + 1))
    return MappingData(r0, pi_k, report.eta, r, s, report, view)


def verify_interleave(p_ops: OPSequence, mapping: MappingData, q_ops: OPSequence, N: int) -> InterleaveReport:
    """Check the in-between-degree identities of the mapping for n <= N.

    For each j = 0..k-1:
        eta * p_{kn+j+1} = Delta_n(2, j) q_{n+1}(pi_k)
            + (prod_{i=1}^{j+1} a_n^{(i)}) Delta_n(j+3, k-1) q_n(pi_k).
    """
    view, k = mapping.view, mapping.k
    checked = 0
    for n in range(N + 1):
        qn = compose(q_ops[n], mapping.pi_k)
        qn1 = compose(q_ops[n + 1], mapping.pi_k)
        prod = CycScalar(1)
        for j in range(k):
            prod = prod * view.a(n, j + 1)
            lhs = mapping.eta * p_ops[k * n + j + 1]
            rhs = delta_det(view, n, 2, j) * qn1 + prod * (delta_det(view, n, j + 3, k - 1) * qn)
            checked += 1
            if lhs != rhs:
                return InterleaveReport(False, checked, (n, j))
    return InterleaveReport(True, checked)


def lift_power(eta: Poly) -> int:
    """The power k = deg eta + 1 fixed by the cofactor eta = Delta_0(2, k-1); a zero or constant eta fixes none."""
    if eta.degree < 1:
        raise QmapError(f"eta must have degree k - 1 >= 1, got degree {eta.degree}")
    return eta.degree + 1


def lift_functional(v: MomentFunctional, eta: Poly) -> MomentFunctional:
    """Moments of the unit lift u of v, whose Stieltjes series is S_u(z) = eta(z) S_v(z^k).

    With k = deg eta + 1 and eta(z) = sum_i e_i z^i, matching powers of 1/z
    gives u_{kn + (k-1-i)} = e_i v_n for every tracked n and every i; so
    u_0 = lc(eta) v_0.
    """
    k = lift_power(eta)
    out = [ZERO] * (k * (v.order + 1))
    for n, vn in enumerate(v.moments):
        for i, e in enumerate(eta.coeffs):
            out[k * n + (k - 1 - i)] = vn * e
    return MomentFunctional(out)


def ascend_recurrence(r, s, eta: Poly, levels: int) -> Recurrence:
    """p's first ``levels`` levels at k = 3 (fewer if r and s fix fewer), from q's r_0.., s_1.. and eta.

    eta is monic of degree 2.  The block conditions of ``check_conditions`` are solved for block n from
    block n - 1 (Charris and Ismail, "Sieved orthogonal polynomials VII",
    Trans. AMS 340, 1993), with s_n = a_n^{(0)} a_{n-1}^{(1)} a_{n-1}^{(2)} and
    the constant r_n - r_0 of condition (iv); block 0 is fixed by
    p_3 = (x - b_0^{(0)}) eta - a_0^{(1)} (x - b_0^{(2)}) = x^3 - r_0.  With
    a_0^{(0)} = 0, for every n:

    - b_n^{(0)} = eta_1 (condition (i)), a_n^{(0)} = s_n / (a_{n-1}^{(1)} a_{n-1}^{(2)});
    - a_n^{(1)} = eta_0 - eta_1^2 - a_n^{(0)} (x-coefficient of (iv)),
      b_n^{(2)} = (eta_1 eta_0 - r_n - a_n^{(0)} b_{n-1}^{(1)}) / a_n^{(1)};
    - b_n^{(1)} = -eta_1 - b_n^{(2)} and a_n^{(2)} = b_n^{(1)} b_n^{(2)} - eta_0 (condition (ii)).

    When q_0..q_B are v's monic orthogonal polynomials, the result is the recurrence
    of u = ``lift_functional(v, eta)`` (the ascent lemma in README), and the first zero
    a_m with 0 < m < ``levels`` raises the Chebyshev's RegularityError: u is not regular there.
    """
    e1, e0 = eta.coeff(1), eta.coeff(0)

    def ascent():  # (b_m, a_m) for m = 0, 1, ..., each a_m checked before anything divides by it
        an1 = an2 = ONE  # a_{-1}^{(1)} = a_{-1}^{(2)} = 1 and s_0 = 0 give a_0^{(0)} = 0
        bn1 = ZERO
        for n, sn in enumerate((ZERO, *s)):
            an0 = sn * (an1 * an2).inv()
            yield e1, _regular(3 * n, an0)
            an1 = _regular(3 * n + 1, e0 - e1 * e1 - an0)
            bn2 = (e1 * e0 - r[n] - an0 * bn1) * an1.inv()
            bn1 = -e1 - bn2
            yield bn1, an1
            an2 = _regular(3 * n + 2, bn1 * bn2 - e0)
            yield bn2, an2

    b, a = zip(*islice(ascent(), min(levels, 3 * len(r) + 1)))  # level 3 n + 1 is the first to read r_n
    return Recurrence(b, a[1:])


def _regular(m: int, am: CycScalar) -> CycScalar:
    if m and not am:
        raise RegularityError(f"not regular at level {m}: <u, p_{m}^2> = 0")
    return am
