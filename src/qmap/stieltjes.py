"""Truncated formal Laurent series and the q-difference equation they satisfy.

A series is a polynomial part plus a principal part in 1/z whose first
``depth`` coefficients are known exactly; the depth is threaded through every
operation so that a zero check is never vacuous.  The module implements the
q-difference equation A (H_{1/q} S_u) = C S_u + D: the residual as an integer
zero test on ``functionals``' rows, the construction of (A, C, D) from a
distributional pair, the lifted (A, C, D) of a power substitution, and the
substitution identity relating S_u and S_v, proved by the lift lemma (README)
and compared as series only when the lift fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .functionals import MomentFunctional, PearsonPair, _correlate, _rows, _scalars, _scaled, _sum_rows, _times, u_poly
from .mapping import lift_power
from .polyalg import Poly, compose_xk, dilate_poly, hahn_poly_qinv, theta0
from .scalars import CycScalar, QParam, ZERO

__all__ = [
    "LaurentSeries",
    "ACDTriple",
    "SeriesReport",
    "series_from_functional",
    "hahn_qinv_series",
    "poly_mul_series",
    "substitute_zk",
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
        principal = tuple(c if isinstance(c, CycScalar) else CycScalar.coerce(c) for c in principal)
        object.__setattr__(self, "poly_part", poly_part)
        object.__setattr__(self, "principal", principal)

    @property
    def depth(self) -> int:
        return len(self.principal)

    @classmethod
    def from_poly(cls, p: Poly, depth: int = 0) -> "LaurentSeries":
        return cls(p, (ZERO,) * depth)

    def truncated(self, depth: int) -> "LaurentSeries":
        if depth > self.depth:
            raise ValueError(f"cannot deepen a series ({self.depth} -> {depth})")
        return LaurentSeries(self.poly_part, self.principal[:depth])

    def __add__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        pp = tuple(x + y for x, y in zip(self.principal, other.principal))
        return LaurentSeries(self.poly_part + other.poly_part, pp)

    def __sub__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        pp = tuple(x - y for x, y in zip(self.principal, other.principal))
        return LaurentSeries(self.poly_part - other.poly_part, pp)

    def __neg__(self):
        return LaurentSeries(-self.poly_part, tuple(-c for c in self.principal))

    @property
    def is_zero(self) -> bool:
        return self.poly_part.is_zero and not any(self.principal)

    def first_nonzero(self) -> Optional[str]:
        """Human-readable locator of the first nonzero coefficient, or None."""
        if not self.poly_part.is_zero:
            for i, c in enumerate(self.poly_part.coeffs):
                if c:
                    return f"z^{i}"
        for n, c in enumerate(self.principal):
            if c:
                return f"z^-{n + 1}"
        return None

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
    return LaurentSeries(Poly.zero(), tuple(-m for m in u.moments))


def hahn_qinv_series(S: LaurentSeries, q: QParam) -> LaurentSeries:
    """Apply H at parameter 1/q termwise.

    On the principal side z^(-n-1) maps to -q [n+1]_q z^(-n-2), so the depth
    grows by one; the polynomial part maps through the 1/q-brackets.  The
    stored parameter stays q itself.
    """
    pp = hahn_poly_qinv(S.poly_part, q)
    out = [ZERO] * (S.depth + 1)
    for n, c in enumerate(S.principal):
        out[n + 1] = -(q.q_bracket(n + 1) * c)
    return LaurentSeries(pp, out)


def poly_mul_series(A: Poly, S: LaurentSeries) -> LaurentSeries:
    """A(z) * S(z); the surviving principal depth shrinks by deg A.

    With A = sum_j a_j z^j and principal coefficients s_n, both parts are
    correlations: z^(-l-1) gets sum_j a_j s_{j+l} for l < depth - deg A, and
    z^e gets sum_n s_n a_{n+1+e} for e < deg A on top of A * poly_part.
    """
    if A.is_zero:
        return LaurentSeries.from_poly(Poly.zero(), S.depth)
    da = A.degree
    if S.depth < da:
        raise ValueError(f"depth {S.depth} exhausted by multiplication with degree {da}")
    s = _scaled(S.principal)
    principal = _correlate(_scaled(A.coeffs), s, S.depth - da)
    poly_part = Poly(_correlate(s, _scaled(A.coeffs[1:]), da)) + A * S.poly_part
    return LaurentSeries(poly_part, principal)


def substitute_zk(S: LaurentSeries, k: int) -> LaurentSeries:
    """Replace z by z^k in a series with no polynomial part."""
    if not S.poly_part.is_zero:
        raise ValueError("substitution requires a vanishing polynomial part")
    if k < 1:
        raise ValueError("k must be >= 1")
    out = [ZERO] * (k * S.depth)
    for n, c in enumerate(S.principal):
        out[k * n + k - 1] = c
    return LaurentSeries(Poly.zero(), out)


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
    w = _scaled([q.q_bracket(n) for n in range(S.depth + 1)])
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


def verify_susvq(Su: LaurentSeries, Sv: LaurentSeries, eta: Poly, q: QParam) -> SeriesReport:
    """Certify the substitution identity between the series of v and of its unit lift u, at k = deg eta + 1:

    [k]_{1/q} z^(k-1) eta(z/q) (H_{1/q^k} S_v)(z^k)
        = (H_{1/q} S_u)(z) - (H_{1/q} eta)(z) S_v(z^k),

    which is H_{1/q} applied to S_u(z) = eta(z) S_v(z^k).  By the lift lemma
    (see README) it holds when neither series has a polynomial part and Su's
    principal part is the lift of Sv's on the entries the identity reads;
    else the two sides are formed as series, which names the first nonzero
    coefficient.
    """
    k = lift_power(eta)
    depth = min(k * (Sv.depth - 1) + 2, Su.depth + 1)
    # outside these ranges the series comparison raises
    if depth >= 0 and max(k, Su.depth) <= q.max_order + 1 and Sv.depth <= q.pow(k).max_order + 1:
        e, su, sv = eta.coeffs, Su.principal, Sv.principal
        if not (Su.poly_part or Sv.poly_part) and all(su[m] == e[k - 1 - m % k] * sv[m // k] for m in range(depth - 1)):
            return SeriesReport(True, depth, None)
    qk = q.pow(k)
    lhs_mult = (q.bracket_inv(k) * Poly.monomial(k - 1)) * dilate_poly(eta, q.q.inv())
    lhs = poly_mul_series(lhs_mult, substitute_zk(hahn_qinv_series(Sv, qk), k))
    rhs = hahn_qinv_series(Su, q) - poly_mul_series(hahn_poly_qinv(eta, q), substitute_zk(Sv, k))
    diff = lhs - rhs
    return SeriesReport(diff.is_zero, diff.depth, diff.first_nonzero())
