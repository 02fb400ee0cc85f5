"""Truncated formal Laurent series and the q-difference equation they satisfy.

A series is a polynomial part plus a principal part in 1/z whose first
``depth`` coefficients are known exactly; every check states the depth it
reaches, so that a zero check is never vacuous.  The module implements the
q-difference equation A (H_{1/q} S_u) = C S_u + D: the residual as an integer
zero test on ``functionals``' rows, the construction of (A, C, D) from a
distributional pair, the lifted (A, C, D) of a power substitution, and the
substitution identity relating S_u and S_v in the closed form of the lift
lemma (README).  Neither check forms a series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .functionals import MomentFunctional, PearsonPair, _rows, _scalars, _scaled, _sum_rows, _times, u_poly
from .mapping import lift_power
from .polyalg import Poly, compose_xk, dilate_poly, hahn_poly_qinv, theta0
from .scalars import CycScalar, QParam, ZERO

__all__ = [
    "LaurentSeries",
    "ACDTriple",
    "SeriesReport",
    "series_from_functional",
    "stieltjes_residual",
    "acd_from_pearson",
    "acd_mapped",
    "verify_susvq",
]


@dataclass(frozen=True, slots=True)
class LaurentSeries:
    """poly_part(z) + sum_{n < depth} principal[n] z^(-n-1), exact to depth."""

    poly_part: Poly
    principal: tuple[CycScalar, ...]

    def __init__(self, poly_part: Poly, principal=()):
        principal = tuple([c if isinstance(c, CycScalar) else CycScalar.coerce(c) for c in principal])
        object.__setattr__(self, "poly_part", poly_part)
        object.__setattr__(self, "principal", principal)

    @property
    def depth(self) -> int:
        return len(self.principal)

    @classmethod
    def from_poly(cls, p: Poly, depth: int = 0) -> "LaurentSeries":
        return cls(p, (ZERO,) * depth)

    @property
    def is_zero(self) -> bool:
        return self.poly_part.is_zero and not any(self.principal)

    def __repr__(self):
        return f"LaurentSeries(poly={self.poly_part!s}, depth={self.depth})"


@dataclass(frozen=True)
class ACDTriple:
    """The polynomials of the q-difference equation A (H_{1/q} S) = C S + D."""

    A: Poly
    C: Poly
    D: Poly

    def __post_init__(self):
        if self.A.is_zero:
            raise ValueError("A must be nonzero")


@dataclass(frozen=True)
class SeriesReport:
    ok: bool
    depth: int
    first_nonzero: Optional[str] = None


def series_from_functional(u: MomentFunctional) -> LaurentSeries:
    """S_u(z) = -sum_n u_n z^(-n-1); depth = order + 1."""
    return LaurentSeries(Poly.zero(), [-m for m in u.moments])


def stieltjes_residual(t: ACDTriple, S: LaurentSeries, q: QParam) -> LaurentSeries:
    """A (H_{1/q} S) - C S - D; identically zero certifies the equation.

    With h_m = -q [m]_q s_{m-1} the principal part of H_{1/q} S, entry l is
    sum_j A_j h_{j+l} - sum_j C_j s_{j+l}; the polynomial part is the
    correlations of h and s against A[1:] and C[1:], plus A H(pp) - C pp - D.
    Each entry is one sum of integer rows (see README), so a zero residual
    makes no scalar.
    """
    A, C, pp = t.A, t.C, S.poly_part
    hpp = hahn_poly_qinv(pp, q)
    w = q.q_bracket_form(S.depth)  # it may run past the depth, and _times stops at the shorter form
    da, dc = A.degree, max(C.degree, 0)
    for d, deg in ((S.depth + 1, da), (S.depth, dc)):
        if d < deg:
            raise ValueError(f"depth {d} exhausted by multiplication with degree {deg}")
    depth = min(S.depth + 1 - da, S.depth - dc)
    R, O, D = _scaled(S.principal)
    ns, h = (R, O, -D), _times(w, ([0] + R, O and [0] + O, -D))  # a form over -D is the negated vector
    a, a1, c, c1 = (_scaled(x) for x in (A.coeffs, A.coeffs[1:], C.coeffs, C.coeffs[1:]))
    Rd, Od, Dd = _scaled((t.D if pp.is_zero else t.D - A * hpp + C * pp).coeffs)
    principal = _sum_rows([_rows(a, h, depth), _rows(c, ns, depth)], depth)
    poly = _sum_rows([_rows(h, a1, da), _rows(ns, c1, dc), (Rd, Od, -Dd)], max(da, dc, len(Rd)))
    if any(any(X) or any(Y or ()) for X, Y, _ in (principal, poly)):
        return LaurentSeries(Poly(_scalars(*poly)), _scalars(*principal))
    return LaurentSeries.from_poly(Poly.zero(), depth)


def acd_from_pearson(pair: PearsonPair, u: MomentFunctional, q: QParam) -> ACDTriple:
    """The (A, C, D) induced by a distributional pair and its moments.

    A = q^t h_{1/q} Phi,  C = q^t (q Psi - H_{1/q} Phi),
    D = q^t (q (u theta0 Psi) - H_{1/q} (u theta0 Phi)),  t = deg Phi.
    """
    phi, psi = pair.phi, pair.psi
    t = phi.degree
    qt = q.power(t)
    qs = q.q
    A = qt * dilate_poly(phi, qs.inv())
    C = qt * (qs * psi - hahn_poly_qinv(phi, q))
    D = qt * (qs * u_poly(u, theta0(psi)) - hahn_poly_qinv(u_poly(u, theta0(phi)), q))
    return ACDTriple(A, C, D)


def acd_mapped(vt: ACDTriple, eta: Poly, q: QParam) -> ACDTriple:
    """Lift the triple of v through the power substitution with cofactor eta, at k = deg eta + 1.

    A(z) = eta(z) At(z^k),
    C(z) = [k]_{1/q} z^(k-1) eta(z/q) Ct(z^k) + (H_{1/q} eta)(z) At(z^k),
    D(z) = [k]_{1/q} z^(k-1) eta(z/q) eta(z) Dt(z^k).

    This is the triple of the unit lift u = lift_functional(v, eta), with
    S_u(z) = eta(z) S_v(z^k).
    """
    k = lift_power(eta)
    bk = q.bracket_inv(k)
    zk1 = Poly.monomial(k - 1)
    eta_qinv = dilate_poly(eta, q.q.inv())
    At = compose_xk(vt.A, k)
    Ct = compose_xk(vt.C, k)
    Dt = compose_xk(vt.D, k)
    A = eta * At
    C = bk * (zk1 * eta_qinv * Ct) + hahn_poly_qinv(eta, q) * At
    D = bk * (zk1 * eta_qinv * eta * Dt)
    return ACDTriple(A, C, D)


def _within(S: LaurentSeries, q: QParam) -> None:
    """Raise as H_{1/q} of S would: it reads q [n]_q up to n = max(deg S.poly_part, S.depth)."""
    if max(S.poly_part.degree, S.depth) > q.max_order + 1:
        raise ValueError(f"bracket index {q.max_order + 2} out of validated range")


def verify_susvq(Su: LaurentSeries, Sv: LaurentSeries, eta: Poly, q: QParam) -> SeriesReport:
    """Certify the substitution identity between the series of v and of its unit lift u, at k = deg eta + 1:

    [k]_{1/q} z^(k-1) eta(z/q) (H_{1/q^k} S_v)(z^k)
        = (H_{1/q} S_u)(z) - (H_{1/q} eta)(z) S_v(z^k),

    which is H_{1/q} applied to S_u(z) = eta(z) S_v(z^k).  By the lift lemma
    (see README) the left side minus the right is -H_{1/q}(S_u - L) with
    L = eta(z) S_v(z^k), known to depth min(k (Sv.depth - 1) + 2, Su.depth + 1).
    Its polynomial part is -H_{1/q}(Su.poly_part) and its entry at z^(-m-2) is
    q [m+1]_q (su_m - e_{k-1-m mod k} sv_{m div k}), so the first nonzero
    coefficient is read off with one product per entry.  q [m+1]_q != 0 for
    m < q.max_order, and it is 0 at m = q.max_order when q^(m+1) = 1.
    """
    # the errors of forming both sides, in their order: H_{1/q^k} S_v, its
    # substitution z -> z^k and the product on the left, then H_{1/q} S_u and S_v(z^k)
    k = lift_power(eta)
    if k > q.max_order + 1:
        raise ValueError(f"bracket index {k} out of validated range")
    qk = q.pow(k)
    _within(Sv, qk)
    if hahn_poly_qinv(Sv.poly_part, qk):
        raise ValueError("substitution requires a vanishing polynomial part")
    if Sv.depth == 0 and k > 2:
        raise ValueError(f"depth {k} exhausted by multiplication with degree {2 * k - 2}")
    _within(Su, q)
    if Sv.poly_part:
        raise ValueError("substitution requires a vanishing polynomial part")
    depth = min(k * (Sv.depth - 1) + 2, Su.depth + 1)
    e, su, sv = eta.coeffs, Su.principal, Sv.principal
    at = next((f"z^{i}" for i, c in enumerate(hahn_poly_qinv(Su.poly_part, q).coeffs) if c), None)
    mismatch = (m for m in range(depth - 1) if su[m] != e[k - 1 - m % k] * sv[m // k] and q.q_bracket(m + 1))
    at = at or next((f"z^-{m + 2}" for m in mismatch), None)
    return SeriesReport(at is None, depth, at)
