"""Numeric verification of the discrete measure representations.

The mapped-side functional v of the cubic cases admits a discrete measure
sum a_l delta at nodes mu_l^3; the original functional u is then represented
on the rotated node set {w^p mu_l} with weights (a_l / (3 mu_l^2)) w^p
eta_2(w^p mu_l).  This module evaluates those sums in double precision and
provides the exact cube-root-of-unity identities that make the rotation
correct: sum_p w^p eta_2(w^p mu) = 3 mu^2 and the vanishing of the first- and
second-residue contributions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .polyalg import Poly
from .scalars import CycScalar, OMEGA, embed_complex

__all__ = [
    "qpochhammer",
    "DiscreteMeasure",
    "case1_measure",
    "case13_measure",
    "discrete_lift",
    "RootIdentityReport",
    "root_of_unity_identities",
]

_TAIL_EPS = 1e-17
_MAX_TERMS = 20000


def qpochhammer(a: complex, q: float, l: Optional[int] = None) -> complex:
    """(a; q)_l = prod_{i<l} (1 - a q^i); l = None means the infinite product.

    The infinite product needs 0 < q < 1 and is truncated once |a q^i| drops
    below 1e-17, far under double rounding.
    """
    if l is not None:
        if l < 0:
            raise ValueError("l must be nonnegative")
        out = 1.0 + 0.0j
        for i in range(l):
            out *= 1.0 - a * q ** i
        return out
    if not 0.0 < q < 1.0:
        raise ValueError("infinite q-Pochhammer needs 0 < q < 1")
    out = 1.0 + 0.0j
    term = complex(a)
    for _ in range(_MAX_TERMS):
        if abs(term) < _TAIL_EPS:
            break
        out *= 1.0 - term
        term *= q
    return out


@dataclass(frozen=True)
class DiscreteMeasure:
    """Weights a_l attached to base nodes mu_l (the mapped functional sits on mu_l^3)."""

    weights: tuple[complex, ...]
    nodes: tuple[complex, ...]

    def __post_init__(self):
        if len(self.weights) != len(self.nodes):
            raise ValueError("weights and nodes must have equal length")
        if any(n == 0 for n in self.nodes):
            raise ValueError("nodes must be nonzero")

    @property
    def truncation(self) -> int:
        return len(self.weights)


def case1_measure(q: float, L: int) -> DiscreteMeasure:
    """Weights (q^2; q^3)_inf q^(2l) / (q^3; q^3)_l at nodes q^l."""
    if not 0.0 < q < 1.0:
        raise ValueError("measure representation needs 0 < q < 1")
    q3 = q ** 3
    norm = qpochhammer(q * q, q3)
    weights = []
    nodes = []
    denom = 1.0 + 0.0j
    for l in range(L):
        if l:
            denom *= 1.0 - q3 ** l
        weights.append(norm * q ** (2 * l) / denom)
        nodes.append(complex(q ** l))
    return DiscreteMeasure(tuple(weights), tuple(nodes))


def case13_measure(a: float, c: float, q: float, L: int) -> DiscreteMeasure:
    """Weights of the mapped little q^3-Jacobi functional at b = 1/(c^3 q^3).

    a_l = ((a q^3; q^3)_inf / (a c^-3 q^3; q^3)_inf)
          * ((c^-3; q^3)_l / (q^3; q^3)_l) * (a q^3)^l,  nodes mu_l = q^l;
    stated for 0 < a < 1/q.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("measure representation needs 0 < q < 1")
    if not 0.0 < a < 1.0 / q:
        raise ValueError("representation stated for 0 < a < 1/q")
    q3 = q ** 3
    cm3 = c ** -3
    norm = qpochhammer(a * q3, q3) / qpochhammer(a * cm3 * q3, q3)
    weights = []
    nodes = []
    num = 1.0 + 0.0j
    den = 1.0 + 0.0j
    z = 1.0 + 0.0j
    for l in range(L):
        if l:
            num *= 1.0 - cm3 * q3 ** (l - 1)
            den *= 1.0 - q3 ** l
            z *= a * q3
        weights.append(norm * num / den * z)
        nodes.append(complex(q ** l))
    return DiscreteMeasure(tuple(weights), tuple(nodes))


def discrete_lift(measure: DiscreteMeasure, eta2: Poly, n_max: int) -> list[complex]:
    """Approximate moments of the rotated ("lifted") functional, normalized to u0 = v0.

    u_n ~ sum_l (a_l / (3 mu_l^2)) sum_{p=0..2} w^p eta_2(w^p mu_l) (w^p mu_l)^n,
    summed left to right for reproducibility.
    """
    if eta2.degree != 2:
        raise ValueError("eta2 must have degree 2")
    w = embed_complex(OMEGA)
    eta_c = [embed_complex(cf) for cf in eta2.coeffs]

    def eta_at(z: complex) -> complex:
        return (eta_c[2] * z + eta_c[1]) * z + eta_c[0]

    out = [0.0 + 0.0j] * (n_max + 1)
    for a_l, mu in zip(measure.weights, measure.nodes):
        base = a_l / (3.0 * mu * mu)
        wp = 1.0 + 0.0j
        for _ in range(3):
            node = wp * mu
            coeff = base * wp * eta_at(node)
            zn = 1.0 + 0.0j
            for n in range(n_max + 1):
                out[n] += coeff * zn
                zn *= node
            wp *= w
    return out


@dataclass(frozen=True)
class RootIdentityReport:
    ok: bool
    quadratic_sum_ok: bool
    vanish_p1_ok: bool
    vanish_p2_ok: bool


def root_of_unity_identities(eta2: Poly, mu: CycScalar, b01=None) -> RootIdentityReport:
    """Exact Q(w) verification of the rotation identities at a node mu.

    With eta2 = x^2 + tau x + k_tau: sum_p w^p eta2(w^p mu) = 3 mu^2, and the
    weighted sums against p_1(x) f_1(x^3) and p_2(x) f_2(x^3) vanish for
    monomial f_1, f_2 (p_1 = x - tau; p_2 built from any b01 seed, whose value
    drops out of the identity).
    """
    if eta2.degree != 2 or eta2.lc != CycScalar(1):
        raise ValueError("eta2 must be monic of degree 2")
    mu = CycScalar.coerce(mu)
    tau = eta2.coeff(1)
    ktau = eta2.coeff(0)
    a01 = ktau - tau * tau
    b01 = CycScalar.coerce(b01) if b01 is not None else CycScalar(Fraction(1))
    p1 = Poly([-tau, 1])
    p2 = Poly([tau * b01 - a01, -(tau + b01), 1])

    powers = [CycScalar(1), OMEGA, OMEGA * OMEGA]

    def rotated_sum(extra: Poly, m: int) -> CycScalar:
        acc = CycScalar(0)
        for wp in powers:
            node = wp * mu
            acc = acc + wp * eta2(node) * extra(node) * (node ** (3 * m))
        return acc

    quad_ok = rotated_sum(Poly.one(), 0) == 3 * mu * mu
    vanish1 = all(not rotated_sum(p1, m) for m in (0, 1, 2))
    vanish2 = all(not rotated_sum(p2, m) for m in (0, 1, 2))
    return RootIdentityReport(quad_ok and vanish1 and vanish2, quad_ok, vanish1, vanish2)
