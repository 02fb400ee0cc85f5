"""Truncated formal Laurent series and the q-difference equation they satisfy.

A series is a polynomial part plus a principal part in 1/z whose first
``depth`` coefficients are known exactly; the depth is threaded through every
operation so that a zero check is never vacuous.  The module implements the
q-difference equation A (H_{1/q} S_u) = C S_u + D: residual evaluation, the
construction of (A, C, D) from a distributional pair, the lifted (A, C, D) of
a power substitution, and the substitution identity relating S_u and S_v.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .functionals import MomentFunctional, PearsonPair, u_poly
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


class LaurentSeries:
    """poly_part(z) + sum_{n < depth} principal[n] z^(-n-1), exact to depth."""

    __slots__ = ("poly_part", "principal")

    def __init__(self, poly_part: Poly, principal=()):
        principal = tuple(c if isinstance(c, CycScalar) else CycScalar.coerce(c) for c in principal)
        object.__setattr__(self, "poly_part", poly_part)
        object.__setattr__(self, "principal", principal)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentSeries is immutable")

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
        d = min(self.depth, other.depth)
        pp = tuple(self.principal[i] + other.principal[i] for i in range(d))
        return LaurentSeries(self.poly_part + other.poly_part, pp)

    def __sub__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return LaurentSeries(-self.poly_part, tuple(-c for c in self.principal))

    def scale(self, s) -> "LaurentSeries":
        s = CycScalar.coerce(s)
        return LaurentSeries(self.poly_part * s, tuple(c * s for c in self.principal))

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

    def evaluate(self, z) -> CycScalar:
        """Exact value of the truncation at a nonzero scalar point."""
        z = CycScalar.coerce(z)
        acc = self.poly_part(z)
        zi = z.inv()
        p = CycScalar(1)
        for c in self.principal:
            p = p * zi
            acc = acc + c * p
        return acc

    def __eq__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return self.poly_part == other.poly_part and self.principal == other.principal

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

    def scale(self, s) -> "ACDTriple":
        s = CycScalar.coerce(s)
        return ACDTriple(self.A * s, self.C * s, self.D * s)


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
        out[n + 1] = -(q.q * q.bracket(n + 1) * c)
    return LaurentSeries(pp, out)


def poly_mul_series(A: Poly, S: LaurentSeries) -> LaurentSeries:
    """A(z) * S(z); the surviving principal depth shrinks by deg A."""
    if A.is_zero:
        return LaurentSeries.from_poly(Poly.zero(), S.depth)
    da = A.degree
    out_depth = S.depth - da
    if out_depth < 0:
        raise ValueError(f"depth {S.depth} exhausted by multiplication with degree {da}")
    poly_acc = list((A * S.poly_part).coeffs)
    principal = [ZERO] * out_depth
    for j, aj in enumerate(A.coeffs):
        if not aj:
            continue
        for n, c in enumerate(S.principal):
            if not c:
                continue
            e = j - n - 1
            if e >= 0:
                while len(poly_acc) <= e:
                    poly_acc.append(ZERO)
                poly_acc[e] = poly_acc[e] + aj * c
            else:
                idx = -e - 1
                if idx < out_depth:
                    principal[idx] = principal[idx] + aj * c
    return LaurentSeries(Poly(poly_acc), principal)


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
    """A (H_{1/q} S) - C S - D; identically zero certifies the equation."""
    term1 = poly_mul_series(t.A, hahn_qinv_series(S, q))
    term2 = poly_mul_series(t.C, S)
    depth = min(term1.depth, term2.depth)
    d_series = LaurentSeries.from_poly(t.D, depth)
    return term1 - term2 - d_series


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


def acd_mapped(vt: ACDTriple, eta: Poly, k: int, q: QParam, u0, v0) -> ACDTriple:
    """Lift the triple of v through the power substitution with cofactor eta.

    A(z) = v0 eta(z) At(z^k),
    C(z) = v0 ([k]_{1/q} z^(k-1) eta(z/q) Ct(z^k) + (H_{1/q} eta)(z) At(z^k)),
    D(z) = u0 [k]_{1/q} z^(k-1) eta(z/q) eta(z) Dt(z^k).
    """
    u0 = CycScalar.coerce(u0)
    v0 = CycScalar.coerce(v0)
    bk = q.bracket_inv(k)
    zk1 = Poly.monomial(k - 1)
    eta_qinv = dilate_poly(eta, q.q.inv())
    At = compose_xk(vt.A, k)
    Ct = compose_xk(vt.C, k)
    Dt = compose_xk(vt.D, k)
    A = v0 * (eta * At)
    C = v0 * (bk * (zk1 * eta_qinv * Ct) + hahn_poly_qinv(eta, q) * At)
    D = u0 * bk * (zk1 * eta_qinv * eta * Dt)
    return ACDTriple(A, C, D)


def verify_susvq(Su: LaurentSeries, Sv: LaurentSeries, eta: Poly, k: int, q: QParam) -> SeriesReport:
    """Certify the substitution identity between the two series:

    [k]_{1/q} z^(k-1) eta(z/q) (H_{1/q^k} S_v)(z^k)
        = (v0/u0) (H_{1/q} S_u)(z) - (H_{1/q} eta)(z) S_v(z^k).
    """
    u0 = -Su.principal[0]
    v0 = -Sv.principal[0]
    qk = q.pow(k)
    lhs_mult = (q.bracket_inv(k) * Poly.monomial(k - 1)) * dilate_poly(eta, q.q.inv())
    lhs = poly_mul_series(lhs_mult, substitute_zk(hahn_qinv_series(Sv, qk), k))
    rhs = hahn_qinv_series(Su, q).scale(v0 * u0.inv())
    rhs = rhs - poly_mul_series(hahn_poly_qinv(eta, q), substitute_zk(Sv, k))
    diff = lhs - rhs
    return SeriesReport(diff.is_zero, diff.depth, diff.first_nonzero())
