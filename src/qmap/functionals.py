"""Truncated moment functionals and the functional-level q-difference calculus.

A functional is represented by the finite moment vector it is known on; the
length of the vector is the *effective order* and every operation computes
the effective order of its result.  Residual checks therefore can only ever
assert within the range actually determined by the inputs, never vacuously.
"""

from __future__ import annotations

from .errors import RegularityError, TruncationError
from .polyalg import Poly
from .scalars import CycScalar, QParam, ZERO, format_scalar

__all__ = [
    "MomentFunctional",
    "PearsonPair",
    "act",
    "left_mul",
    "hahn_functional",
    "dilate_functional",
    "sigma_star",
    "u_poly",
    "pearson_moments",
    "pearson_residual",
]


class MomentFunctional:
    """Moments (u_0, ..., u_N); N is the effective order."""

    __slots__ = ("moments",)

    def __init__(self, moments):
        ms = tuple(m if isinstance(m, CycScalar) else CycScalar.coerce(m) for m in moments)
        if not ms:
            raise ValueError("a functional needs at least the moment u_0")
        object.__setattr__(self, "moments", ms)

    def __setattr__(self, name, value):
        raise AttributeError("MomentFunctional is immutable")

    @property
    def order(self) -> int:
        return len(self.moments) - 1

    def moment(self, n: int) -> CycScalar:
        if not 0 <= n <= self.order:
            raise TruncationError(f"moment index {n} beyond effective order {self.order}")
        return self.moments[n]

    def __eq__(self, other):
        if not isinstance(other, MomentFunctional):
            return NotImplemented
        return self.moments == other.moments

    def __hash__(self):
        return hash(self.moments)

    def __repr__(self):
        head = ", ".join(format_scalar(m) for m in self.moments[:4])
        tail = ", ..." if self.order >= 4 else ""
        return f"MomentFunctional([{head}{tail}], order={self.order})"

    def to_strings(self):
        return [format_scalar(m) for m in self.moments]


class PearsonPair:
    """The polynomial pair (Phi, Psi) of a distributional q-difference equation."""

    __slots__ = ("phi", "psi")

    def __init__(self, phi: Poly, psi: Poly):
        if phi.is_zero:
            raise ValueError("Phi must be nonzero")
        if psi.is_zero:
            raise ValueError("Psi must be nonzero")
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "psi", psi)

    def __setattr__(self, name, value):
        raise AttributeError("PearsonPair is immutable")

    def __eq__(self, other):
        if not isinstance(other, PearsonPair):
            return NotImplemented
        return self.phi == other.phi and self.psi == other.psi

    def __hash__(self):
        return hash((self.phi, self.psi))

    def __repr__(self):
        return f"PearsonPair(phi={self.phi!s}, psi={self.psi!s})"


def act(u: MomentFunctional, f: Poly) -> CycScalar:
    """<u, f> = sum_i f_i u_i; requires deg f within the effective order."""
    if f.degree > u.order:
        raise TruncationError(f"polynomial degree {f.degree} exceeds effective order {u.order}")
    acc = ZERO
    for i, c in enumerate(f.coeffs):
        if c:
            acc = acc + c * u.moments[i]
    return acc


def left_mul(phi: Poly, u: MomentFunctional) -> MomentFunctional:
    """(phi u)_n = <u, phi x^n>; effective order drops by deg phi."""
    if phi.is_zero:
        return MomentFunctional([ZERO] * (u.order + 1))
    d = phi.degree
    if d > u.order:
        raise TruncationError(f"deg phi = {d} exceeds effective order {u.order}")
    out = []
    for n in range(u.order - d + 1):
        acc = ZERO
        for i, c in enumerate(phi.coeffs):
            if c:
                acc = acc + c * u.moments[n + i]
        out.append(acc)
    return MomentFunctional(out)


def hahn_functional(u: MomentFunctional, q: QParam) -> MomentFunctional:
    """(H_q u)_n = -[n]_q u_{n-1}; effective order grows by one."""
    out = [ZERO]
    for n in range(1, u.order + 2):
        out.append(-(q.bracket(n) * u.moments[n - 1]))
    return MomentFunctional(out)


def dilate_functional(u: MomentFunctional, d) -> MomentFunctional:
    """(h_d u)_n = d^n u_n."""
    d = CycScalar.coerce(d)
    out = []
    p = CycScalar(1)
    for n, m in enumerate(u.moments):
        if n:
            p = p * d
        out.append(p * m)
    return MomentFunctional(out)


def sigma_star(u: MomentFunctional, k: int) -> MomentFunctional:
    """Moments through x -> x^k by duality: result_n = u_{k n}."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return MomentFunctional([u.moments[k * n] for n in range(u.order // k + 1)])


def u_poly(u: MomentFunctional, f: Poly) -> Poly:
    """The polynomial <u_y, (x f(x) - y f(y)) / (x - y)>.

    Coefficient j of the result is sum_{i >= j} f_i u_{i-j}.
    """
    if f.degree > u.order:
        raise TruncationError(f"polynomial degree {f.degree} exceeds effective order {u.order}")
    if f.is_zero:
        return Poly.zero()
    out = []
    for j in range(f.degree + 1):
        acc = ZERO
        for i in range(j, f.degree + 1):
            c = f.coeffs[i]
            if c:
                acc = acc + c * u.moments[i - j]
        out.append(acc)
    return Poly(out)


def _residual_row(phi: Poly, psi: Poly, q: QParam, n: int):
    """Index/weight pairs of <H_q(Phi u) - Psi u, x^n> as a linear form in moments."""
    terms = {}
    bn = q.bracket(n)
    if bn:
        for i, c in enumerate(phi.coeffs):
            if c:
                idx = n - 1 + i
                w = -(bn * c)
                terms[idx] = terms.get(idx, ZERO) + w
    for i, c in enumerate(psi.coeffs):
        if c:
            terms[n + i] = terms.get(n + i, ZERO) - c
    return {i: w for i, w in terms.items() if w}


def pearson_moments(pair: PearsonPair, u0, N: int, q: QParam) -> MomentFunctional:
    """Generate (u_0, ..., u_N) satisfying <H_q(Phi u) - Psi u, x^n> = 0.

    Each residual row is solved for the single highest moment it contains;
    the stepping index is derived from deg Phi and deg Psi, so both shapes of
    classical pair (deg Phi - 1 above or below deg Psi) are covered by the
    same bookkeeping.  A vanishing coefficient on the new moment means a
    regularity condition of the family fails at that index.
    """
    u0 = CycScalar.coerce(u0)
    phi, psi = pair.phi, pair.psi
    t, d = phi.degree, psi.degree
    moments = [u0]
    n = 0
    limit = N + t + d + 3
    while len(moments) <= N:
        if n > limit:
            raise RegularityError("Pearson rows stopped producing new moments; pair is degenerate")
        m = len(moments)
        row = _residual_row(phi, psi, q, n)
        top = max(row) if row else -1
        structural_top = n + d if n == 0 else max(n - 1 + t, n + d)
        if top > m:
            raise RegularityError(
                f"Pearson row n={n} involves moment u_{top} before u_{m} is known; "
                f"generation from this pair is underdetermined"
            )
        if top < m:
            if structural_top >= m:
                raise RegularityError(
                    f"leading coefficient for moment u_{m} vanishes at Pearson row n={n}; "
                    f"a regularity condition of the family is violated at this index"
                )
            value = sum((w * moments[i] for i, w in row.items()), ZERO)
            if value:
                raise RegularityError(f"Pearson row n={n} is inconsistent with the generated moments")
            n += 1
            continue
        lead = row.pop(m)
        known = sum((w * moments[i] for i, w in row.items()), ZERO)
        moments.append(-(known * lead.inv()))
        n += 1
    return MomentFunctional(moments)


def pearson_residual(u: MomentFunctional, pair: PearsonPair, q: QParam):
    """Entries <H_q(Phi u) - Psi u, x^n> for every n the truncation supports."""
    w1 = hahn_functional(left_mul(pair.phi, u), q)
    w2 = left_mul(pair.psi, u)
    n_max = min(w1.order, w2.order)
    return tuple(w1.moments[n] - w2.moments[n] for n in range(n_max + 1))
