"""Dense univariate polynomial algebra over Q(w).

Polynomials are coefficient tuples, constant term first, trailing zeros
trimmed.  The zero polynomial is the empty tuple and reports degree -inf.
On top of the ring operations the module provides the q-difference operator
on polynomials, the constant-stripping operator theta0, dilations, power
substitution x -> x^k, monic gcd, and the decomposition of a polynomial over
a finite simple set grouped by exponent residues mod k.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest

from .scalars import CycScalar, ONE, QParam, ZERO, format_scalar

__all__ = [
    "Poly",
    "divrem",
    "poly_gcd",
    "compose",
    "compose_xk",
    "hahn_poly",
    "hahn_poly_qinv",
    "theta0",
    "dilate_poly",
    "simple_set_decompose",
]

NEG_INF = float("-inf")


def _coeff(x) -> CycScalar:
    if isinstance(x, CycScalar):
        return x
    if isinstance(x, (int, Fraction)):
        return CycScalar(x)
    raise TypeError(f"bad polynomial coefficient {x!r}")


@dataclass(frozen=True, slots=True)
class Poly:
    """Immutable dense polynomial with CycScalar coefficients."""

    coeffs: tuple[CycScalar, ...]

    def __init__(self, coeffs=()):
        cs = [_coeff(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return cls(())

    @classmethod
    def one(cls) -> "Poly":
        return cls((ONE,))

    @classmethod
    def x(cls) -> "Poly":
        return cls((ZERO, ONE))

    @classmethod
    def monomial(cls, n: int) -> "Poly":
        return cls((ZERO,) * n + (ONE,))

    @classmethod
    def constant(cls, c) -> "Poly":
        return cls((_coeff(c),))

    # -- structure ----------------------------------------------------------

    @property
    def degree(self):
        """Degree as an int, or -inf for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self) -> CycScalar:
        """Leading coefficient (zero for the zero polynomial)."""
        return self.coeffs[-1] if self.coeffs else ZERO

    def coeff(self, i: int) -> CycScalar:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else ZERO

    def __bool__(self):
        return bool(self.coeffs)

    def __len__(self):
        return len(self.coeffs)

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        o = _as_poly(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(out)

    __radd__ = __add__

    def __sub__(self, other):
        o = _as_poly(other)
        if o is None:
            return NotImplemented
        return Poly([x - y for x, y in zip_longest(self.coeffs, o.coeffs, fillvalue=ZERO)])

    def __rsub__(self, other):
        o = _as_poly(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, Poly):
            a, b = self.coeffs, other.coeffs
            if not a or not b:
                return Poly.zero()
            out = [ZERO] * (len(a) + len(b) - 1)
            for i, ai in enumerate(a):
                if not ai:
                    continue
                for j, bj in enumerate(b):
                    if bj:
                        out[i + j] = out[i + j] + ai * bj
            return Poly(out)
        if isinstance(other, (int, Fraction, CycScalar)):
            s = _coeff(other)
            if not s:
                return Poly.zero()
            return Poly([c * s for c in self.coeffs])
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, CycScalar)):
            return self * _coeff(other).inv()
        return NotImplemented

    def monic(self) -> "Poly":
        if not self.coeffs:
            raise ZeroDivisionError("zero polynomial has no monic form")
        lead = self.lc
        if lead == ONE:
            return self
        return self * lead.inv()

    def __call__(self, point) -> CycScalar:
        """Evaluate at a scalar (Horner)."""
        z = _coeff(point) if not isinstance(point, CycScalar) else point
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    # -- comparison -----------------------------------------------------------

    def __eq__(self, other):
        o = _as_poly(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Poly({self!s})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            cs = format_scalar(c)
            if i == 0:
                parts.append(cs)
            elif i == 1:
                parts.append(f"({cs})*x")
            else:
                parts.append(f"({cs})*x^{i}")
        return " + ".join(parts)

    def to_strings(self):
        """Serialization: list of scalar strings, constant term first."""
        return [format_scalar(c) for c in self.coeffs]


def _as_poly(x):
    if isinstance(x, Poly):
        return x
    if isinstance(x, (int, Fraction, CycScalar)):
        return Poly((_coeff(x),))
    return None


def divrem(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Quotient and remainder with a = q*b + r and deg r < deg b."""
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    if a.degree < b.degree:
        return Poly.zero(), a
    rem = list(a.coeffs)
    db, lead_inv = b.degree, b.lc.inv()
    quot = [ZERO] * (len(a.coeffs) - db)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i]
        if not c:
            continue
        f = c * lead_inv
        quot[i - db] = f
        for j, bj in enumerate(b.coeffs):
            rem[i - db + j] = rem[i - db + j] - f * bj
    return Poly(quot), Poly(rem)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor by the Euclidean algorithm."""
    while not b.is_zero:
        a, b = b, divrem(a, b)[1]
    if a.is_zero:
        return a
    return a.monic()


def compose(a: Poly, b: Poly) -> Poly:
    """a(b(x)) by Horner over polynomials."""
    acc = Poly.zero()
    for c in reversed(a.coeffs):
        acc = acc * b + Poly.constant(c)
    return acc


def compose_xk(a: Poly, k: int) -> Poly:
    """a(x^k): spread coefficient i to position k*i."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if a.is_zero:
        return a
    out = [ZERO] * (k * a.degree + 1)
    for i, c in enumerate(a.coeffs):
        out[k * i] = c
    return Poly(out)


def hahn_poly(f: Poly, q: QParam) -> Poly:
    """(H_q f)(x) = (f(qx) - f(x)) / ((q-1)x); sends x^n to [n]_q x^(n-1)."""
    return Poly([q.bracket(n) * f.coeffs[n] for n in range(1, len(f.coeffs))])


def hahn_poly_qinv(f: Poly, q: QParam) -> Poly:
    """H at parameter 1/q, computed from q itself via [n]_{1/q} = q^(1-n)[n]_q."""
    return Poly([q.bracket_inv(n) * f.coeffs[n] for n in range(1, len(f.coeffs))])


def theta0(f: Poly) -> Poly:
    """(f(x) - f(0)) / x: drop the constant term and shift down."""
    return Poly(f.coeffs[1:])


def dilate_poly(f: Poly, d) -> Poly:
    """f(d*x): coefficient i picks up the factor d^i."""
    d = _coeff(d)
    out = []
    p = ONE
    for i, c in enumerate(f.coeffs):
        if i:
            p = p * d
        out.append(c * p)
    return Poly(out)


def simple_set_decompose(f: Poly, basis) -> list[Poly]:
    """Split f over a simple set of k = len(basis) polynomials, grouping powers mod k.

    Given basis polynomials p_0, ..., p_{k-1} with deg p_j = j, returns
    components c_0, ..., c_{k-1} with deg c_j <= deg(f)//k and

        f(x) = sum_j p_j(x) * c_j(x^k).

    The coefficient of x^(k*n + j) in the sum only involves level-n
    component coefficients, through the upper-triangular system
    f[k*n + j] = sum_{i >= j} p_i[j] * c_i[n], solved by back substitution.
    """
    basis = list(basis)
    k = len(basis)
    if k < 2:
        raise ValueError("a simple set needs at least 2 elements")
    for j, p in enumerate(basis):
        if p.degree != j:
            raise ValueError(f"basis element {j} has degree {p.degree}, expected {j}: not a simple set")
    if f.is_zero:
        return [Poly.zero() for _ in range(k)]
    levels = f.degree // k + 1
    comp = [[ZERO] * levels for _ in range(k)]
    for n in range(levels):
        for j in range(k - 1, -1, -1):
            acc = f.coeff(k * n + j)
            for i in range(j + 1, k):
                acc = acc - basis[i].coeff(j) * comp[i][n]
            comp[j][n] = acc * basis[j].lc.inv()
    return [Poly(c) for c in comp]
