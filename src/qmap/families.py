"""The two q-classical families used as mapped sequences: canonical pairs,
their known (A, C, D) triples and regularity predicates.

Both are stated at a generic parameter; the power-case pipeline instantiates
them at q^k.  A family's recurrence is not stated here: ``opseq.pair_recurrence``
reads it from the canonical pair.
"""

from __future__ import annotations

from .functionals import PearsonPair
from .polyalg import Poly
from .scalars import CycScalar, ONE, QParam
from .stieltjes import ACDTriple

__all__ = [
    "little_q_laguerre_pair",
    "little_q_jacobi_pair",
    "little_q_laguerre_acd",
    "little_q_jacobi_acd",
    "laguerre_regularity_failures",
    "jacobi_regularity_failures",
    "family_pair",
    "regularity_failures",
    "FAMILY_LAGUERRE",
    "FAMILY_JACOBI",
]

FAMILY_LAGUERRE = "little-q-laguerre"
FAMILY_JACOBI = "little-q-jacobi"


def little_q_laguerre_pair(a, q: QParam) -> PearsonPair:
    """Phi = x, Psi = (x - 1 + a q) / (a q (q - 1))."""
    a = CycScalar.coerce(a)
    qs = q.q
    c = (a * qs * (qs - 1)).inv()
    return PearsonPair(Poly.x(), c * Poly([a * qs - 1, ONE]))


def little_q_jacobi_pair(a, b, q: QParam) -> PearsonPair:
    """Phi = x (x - 1/(b q)), Psi = ((a b q^2 - 1) x + 1 - a q) / (a b q^2 (q - 1))."""
    a = CycScalar.coerce(a)
    b = CycScalar.coerce(b)
    qs = q.q
    phi = Poly.x() * Poly([-(b * qs).inv(), ONE])
    c = (a * b * qs * qs * (qs - 1)).inv()
    psi = c * Poly([1 - a * qs, a * b * qs * qs - 1])
    return PearsonPair(phi, psi)


def little_q_laguerre_acd(a, q: QParam, u0=1) -> ACDTriple:
    """A = x, C = q (x - 1 + a q)/(a (q - 1)) - q, D = u_0 q / (a (q - 1))."""
    a = CycScalar.coerce(a)
    u0 = CycScalar.coerce(u0)
    qs = q.q
    c = qs * (a * (qs - 1)).inv()
    A = Poly.x()
    C = c * Poly([a * qs - 1, ONE]) - Poly.constant(qs)
    D = Poly.constant(u0 * c)
    return ACDTriple(A, C, D)


def little_q_jacobi_acd(a, b, q: QParam, u0=1) -> ACDTriple:
    """A = x (x - 1/b),
    C = q ((a b q^2 - 1) x + 1 - a q)/(a b (q - 1)) - q^2 (1/q + 1) x + q/b,
    D = u_0 (q (a b q^2 - 1)/(a b (q - 1)) - q^2)."""
    a = CycScalar.coerce(a)
    b = CycScalar.coerce(b)
    u0 = CycScalar.coerce(u0)
    qs = q.q
    A = Poly.x() * Poly([-b.inv(), ONE])
    c = qs * (a * b * (qs - 1)).inv()
    C = c * Poly([1 - a * qs, a * b * qs * qs - 1]) - Poly([-(qs * b.inv()), qs * qs * (qs.inv() + 1)])
    D = Poly.constant(u0 * (c * (a * b * qs * qs - 1) - qs * qs))
    return ACDTriple(A, C, D)


def laguerre_regularity_failures(a, q: QParam, n_max: int) -> list[str]:
    """Violations of a != 0 and a != q^(-n-1) for n = 0..n_max; levels past q's validated order are one failure."""
    a = CycScalar.coerce(a)
    out = []
    if not a:
        out.append("a = 0")
    for n in range(n_max + 1):
        if n + 1 > q.max_order:
            out.append(f"n = {n}..{n_max} not checked: q^{n + 1} is past the validated order {q.max_order}")
            break
        if a * q.power(n + 1) == ONE:
            out.append(f"a = q^-{n + 1}")
    return out


def jacobi_regularity_failures(a, b, q: QParam, n_max: int, order: int | None = None) -> list[str]:
    """Violations of ab != 0, ab != q^(-n), and a, b != q^(-n-1) for n = 0..n_max.

    The moments to ``order`` (default n_max) also need ab != q^(-n) for n up to
    order + 1, as the Pearson row that solves for u_n divides by 1 - ab q^(n+1).
    The levels past q's validated order are reported as one failure.
    """
    a = CycScalar.coerce(a)
    b = CycScalar.coerce(b)
    out = []
    if not (a * b):
        out.append("ab = 0")
        return out
    top = max(n_max, (n_max if order is None else order) + 1)
    for n in range(top + 1):
        if n + 1 > q.max_order:
            out.append(f"n = {n}..{top} not checked: q^{n + 1} is past the validated order {q.max_order}")
            break
        if a * b * q.power(n) == ONE:
            out.append(f"ab = q^-{n}")
        if n <= n_max and a * q.power(n + 1) == ONE:
            out.append(f"a = q^-{n + 1}")
        if n <= n_max and b * q.power(n + 1) == ONE:
            out.append(f"b = q^-{n + 1}")
    return out


def family_pair(family: str, a, b, q: QParam) -> PearsonPair:
    """The canonical pair of FAMILY_LAGUERRE or FAMILY_JACOBI; b is read only for the latter."""
    if family == FAMILY_LAGUERRE:
        return little_q_laguerre_pair(a, q)
    return little_q_jacobi_pair(a, b, q)


def regularity_failures(family: str, a, b, q: QParam, n_max: int, order: int | None = None) -> list[str]:
    """The regularity violations of FAMILY_LAGUERRE or FAMILY_JACOBI up to level n_max, with moments to ``order``."""
    if family == FAMILY_LAGUERRE:
        return laguerre_regularity_failures(a, q, n_max)
    return jacobi_regularity_failures(a, b, q, n_max, order)
