"""Truncated moment functionals and the functional-level q-difference calculus.

A functional is represented by the finite moment vector it is known on; the
length of the vector is the *effective order* and every operation computes
the effective order of its result.  Residual checks therefore can only ever
assert within the range actually determined by the inputs, never vacuously.

Rows of correlations sum_i c_i v_{i+l} are read from canonical integer forms
(R, O, D), value i being (R[i] + O[i] w)/D with one D for both components;
``_scaled`` makes them, and ``opseq`` stores p_n in them.  ``_correlate``
reads the moments themselves: phi u, u_poly and the mixed-moment table of
``orthogonality_check``.  Its integer rows (``_rows``) serve the two residuals
too.  ``stieltjes.stieltjes_residual`` folds the Hahn weights into S's form
(``_times``), adds the rows over one denominator (``_sum_rows``) and makes
scalars (``_scalars``) only of a nonzero residual; ``pearson_residual``, the
one check of u's Pearson equation (``qmap ops``, ``classifier`` and
``opseq.proved_pair_recurrence``), does the same on u's moments.
``pearson_moments`` solves the same rows for u, one moment per row.  ``_dot``
is left for single dot products.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from operator import mul

from .errors import RegularityError, TruncationError
from .polyalg import Poly
from .scalars import CycScalar, QParam, ZERO, _reduced, _scaled, format_scalar

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


@dataclass(frozen=True, slots=True)
class MomentFunctional:
    """Moments (u_0, ..., u_N); N is the effective order."""

    moments: tuple[CycScalar, ...]

    def __init__(self, moments):
        ms = tuple([m if isinstance(m, CycScalar) else CycScalar.coerce(m) for m in moments])
        if not ms:
            raise ValueError("a functional needs at least the moment u_0")
        object.__setattr__(self, "moments", ms)

    @property
    def order(self) -> int:
        return len(self.moments) - 1

    def moment(self, n: int) -> CycScalar:
        if not 0 <= n <= self.order:
            raise TruncationError(f"moment index {n} beyond effective order {self.order}")
        return self.moments[n]

    def __repr__(self):
        head = ", ".join(format_scalar(m) for m in self.moments[:4])
        tail = ", ..." if self.order >= 4 else ""
        return f"MomentFunctional([{head}{tail}], order={self.order})"

    def to_strings(self):
        return [format_scalar(m) for m in self.moments]


@dataclass(frozen=True, slots=True)
class PearsonPair:
    """The polynomial pair (Phi, Psi) of a distributional q-difference equation."""

    phi: Poly
    psi: Poly

    def __post_init__(self):
        if self.phi.is_zero:
            raise ValueError("Phi must be nonzero")
        if self.psi.is_zero:
            raise ValueError("Psi must be nonzero")

    def __repr__(self):
        return f"PearsonPair(phi={self.phi!s}, psi={self.psi!s})"


def _dot(coeffs, values) -> CycScalar:
    """sum_i coeffs[i] values[i] over the shorter of the two, skipping zero terms."""
    acc = ZERO
    for c, v in zip(coeffs, values):
        if c and v:
            acc = acc + c * v
    return acc


def _rows(c: tuple, v: tuple, length: int) -> tuple:
    """The integer row (X, Y, den) of [sum_i c_i v_{i+l} for l < length]: entry l is (X[l] + Y[l] w)/den.

    c and v are canonical forms (R, O, D), or any (R, O, D) with D != 0, and
    den = D_c D_v.  Each entry is integer dot products of the numerators, so
    no gcd is taken inside a sum.  Rational c and v take one dot per entry and
    give Y = None; otherwise the component dots recombine as integers with
    w^2 = -1 - w.
    """
    (Rc, Oc, Dc), (Rv, Ov, Dv) = c, v
    n, zero = len(Rc), [0] * length

    def dots(ci, vi):
        if ci is None or vi is None:
            return zero
        return [sum(map(mul, ci, vi[l : l + n])) for l in range(length)]

    re_re = dots(Rc, Rv)
    if Oc is None and Ov is None:
        return re_re, None, Dc * Dv
    re_om, om_re, om_om = dots(Rc, Ov), dots(Oc, Rv), dots(Oc, Ov)
    return [x - z for x, z in zip(re_re, om_om)], [y + t - z for y, t, z in zip(re_om, om_re, om_om)], Dc * Dv


def _scalars(X: list, Y, den: int) -> list[CycScalar]:
    """The values (X[l] + Y[l] w)/den of an integer row, den of either sign.

    Each entry is made canonical by one gcd of its integers and den, with no
    Fraction; a rational row (Y None) keeps a zero w-part, so later arithmetic
    stays on the rational path.
    """
    if Y is None:
        return [_reduced(x, 0, den) for x in X]
    return [_reduced(x, y, den) for x, y in zip(X, Y)]


def _correlate(c: tuple, v: tuple, length: int) -> list[CycScalar]:
    """[sum_i c_i v_{i+l} for l < length] from the canonical forms (R, O, D) of c and v: ``_rows`` made scalars."""
    return _scalars(*_rows(c, v, length))


def _times(a: tuple, b: tuple) -> tuple:
    """The form (R, O, D_a D_b) of the products a_i b_i of two forms, over the shorter."""
    (Ra, Oa, Da), (Rb, Ob, Db) = a, b
    R = list(map(mul, Ra, Rb))
    if Oa is None and Ob is None:
        return R, None, Da * Db
    Oa, Ob = Oa or [0] * len(Ra), Ob or [0] * len(Rb)
    bd = list(map(mul, Oa, Ob))
    # (x + y w)(s + t w) = (x s - y t) + (x t + y s - y t) w
    O = [x * t + y * s - z for x, y, s, t, z in zip(Ra, Oa, Rb, Ob, bd)]
    return [r - z for r, z in zip(R, bd)], O, Da * Db


def _sum_rows(rows, length: int) -> tuple:
    """The integer row (X, Y, den) of the entrywise sum of rows (X, Y, den), zero-padded to length.

    den is the lcm of the rows' dens, one gcd per row and none per entry; Y is
    None when every row's is.
    """
    den = lcm(*[d for *_, d in rows])
    X, Y = [0] * length, None
    for x, y, d in rows:
        f = den // d
        X[: len(x)] = [s + a * f for s, a in zip(X, x)]
        if y is not None:
            Y = Y or [0] * length
            Y[: len(y)] = [s + b * f for s, b in zip(Y, y)]
    return X, Y, den


def act(u: MomentFunctional, f: Poly) -> CycScalar:
    """<u, f> = sum_i f_i u_i; requires deg f within the effective order."""
    if f.degree > u.order:
        raise TruncationError(f"polynomial degree {f.degree} exceeds effective order {u.order}")
    return _dot(f.coeffs, u.moments)


def left_mul(phi: Poly, u: MomentFunctional) -> MomentFunctional:
    """(phi u)_n = <u, phi x^n>; effective order drops by deg phi."""
    if phi.is_zero:
        return MomentFunctional([ZERO] * (u.order + 1))
    d = phi.degree
    if d > u.order:
        raise TruncationError(f"deg phi = {d} exceeds effective order {u.order}")
    return MomentFunctional(_correlate(_scaled(phi.coeffs), _scaled(u.moments), u.order - d + 1))


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
    return Poly(_correlate(_scaled(u.moments[: f.degree + 1]), _scaled(f.coeffs), f.degree + 1))


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
    # row n, times -1, is <Psi u - H_q(Phi u), x^n> = sum_i ([n]_q phi_i + psi_{i-1}) u_{n-1+i}
    width = max(t + 1, d + 2)
    phis, psis = [phi.coeff(i) for i in range(width)], [psi.coeff(i - 1) for i in range(width)]
    moments = [u0]
    n = 0
    limit = N + t + d + 3
    while len(moments) <= N:
        if n > limit:
            raise RegularityError("Pearson rows stopped producing new moments; pair is degenerate")
        m = len(moments)
        bn = q.bracket(n)
        row = {n - 1 + i: w for i, (f, g) in enumerate(zip(phis, psis)) if (w := bn * f + g if f else g)}
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


def pearson_residual(u: MomentFunctional, pair: PearsonPair, q: QParam) -> tuple[CycScalar, ...]:
    """Entries <H_q(Phi u) - Psi u, x^n> for every n the truncation supports: n <= N - deg Phi + 1 and n <= N - deg Psi.

    Read on integers: times -q, entry n is q [n]_q (Phi u)_{n-1} + (q Psi u)_n, the rows of Phi
    and of q Psi over the form of u's moments, the first weighted by ``QParam.q_bracket_form``,
    summed over one denominator.  An entry becomes a scalar only when it is nonzero, and is then
    scaled by -1/q, so a zero residual costs O(N) products of a small integer with a large one.
    q [n]_q is read for those n only.
    """
    N = u.order
    for name, f in (("phi", pair.phi), ("psi", pair.psi)):
        if f.degree > N:
            raise TruncationError(f"deg {name} = {f.degree} exceeds effective order {N}")
    length = min(N - pair.phi.degree + 2, N - pair.psi.degree + 1)
    moments = _scaled(u.moments)
    X, Y, den = _rows(_scaled(pair.phi.coeffs), moments, length - 1)
    hahn = _times(q.q_bracket_form(length - 1), ([0] + X, Y and [0] + Y, den))
    X, Y, den = _sum_rows([hahn, _rows(_scaled([q.q * c for c in pair.psi.coeffs]), moments, length)], length)
    scale = -q.q.inv()
    return tuple([scale * _reduced(x, y, den) if x or y else ZERO for x, y in zip(X, Y or [0] * length)])
