"""Exact scalar arithmetic in Q(w), where w is a primitive cube root of unity.

Every exact quantity in this package is a :class:`CycScalar`, held as its
canonical integer triple (r, o, d): the value (r + o*w)/d with d > 0,
gcd(r, o, d) = 1 and the reduction rule ``w**2 = -1 - w``.  Purely rational
values (o = 0, so r/d in lowest terms) stay rational under all field
operations, so a pipeline fed rational data never leaves Q; the w-part only
activates for genuinely complex inputs such as cube-root-of-unity branch
choices.  The arithmetic is written on the integers, with no Fraction made: a
rational product takes Fraction's two cross gcds and a rational sum its gcd of
the two denominators, a Q(w) result is reduced by one three-way gcd, and the
inverse is the conjugate over the integer norm r^2 - r*o + o^2.

The module also provides :class:`QParam`, the q-difference parameter together
with its admissibility guarantee (``q**n != 1`` up to a declared order) and
precomputed q-brackets, plus string (de)serialization and the double-precision
embedding used by the numeric-measure checks.
"""

from __future__ import annotations

import math
import re as _regex
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

__all__ = [
    "CycScalar",
    "QParam",
    "ZERO",
    "ONE",
    "OMEGA",
    "embed_complex",
    "format_scalar",
    "parse_scalar",
]

_OMEGA_COMPLEX = complex(-0.5, math.sqrt(3.0) / 2.0)
_HASH_MODULUS, _HASH_INF = sys.hash_info.modulus, sys.hash_info.inf

# The one zero w-part ``CycScalar.om`` returns, so ``x.om is _Q0`` for every rational x.
_Q0 = Fraction(0)


@dataclass(frozen=True, slots=True)
class CycScalar:
    """Element (r + o*w)/d of Q(w), with ``w**2 + w + 1 = 0``, held as its canonical triple.

    d > 0 and gcd(r, o, d) = 1, so equal values have equal triples; a rational
    value has o = 0 and r/d in lowest terms.  ``CycScalar(re, om)`` takes the
    components of re + om*w as int or Fraction, and the properties ``re`` and
    ``om`` read them back as Fractions.  Instances are immutable and hashable,
    a rational hashing like its Fraction.  Arithmetic accepts plain ``int``
    and ``Fraction`` operands and coerces them.
    """

    r: int
    o: int
    d: int

    def __init__(self, re=0, om=0):
        for x in (re, om):
            if not isinstance(x, (int, Fraction)):
                raise TypeError(f"expected int or Fraction, got {type(x).__name__}")
        (a, b), (c, e) = re.as_integer_ratio(), om.as_integer_ratio()
        d = lcm(b, e)
        object.__setattr__(self, "r", a * (d // b))
        object.__setattr__(self, "o", c * (d // e))
        object.__setattr__(self, "d", d)

    @property
    def re(self) -> Fraction:
        """The rational part r/d."""
        return Fraction(self.r, self.d)

    @property
    def om(self) -> Fraction:
        """The w-part o/d; the shared ``_Q0`` when it is zero."""
        return Fraction(self.o, self.d) if self.o else _Q0

    # -- coercion ---------------------------------------------------------

    @staticmethod
    def coerce(x) -> "CycScalar":
        s = _co(x)
        if s is not None:
            return s
        if isinstance(x, str):
            return parse_scalar(x)
        raise TypeError(f"cannot interpret {x!r} as a Q(w) scalar")

    # -- predicates -------------------------------------------------------

    def __bool__(self) -> bool:
        return self.r != 0 or self.o != 0

    def norm(self) -> Fraction:
        """Field norm re^2 - re*om + om^2; zero exactly for the zero element."""
        r, o = self.r, self.o
        return Fraction(r * r - r * o + o * o, self.d * self.d)

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        if type(other) is not CycScalar:
            other = _co(other)
            if other is None:
                return NotImplemented
        return _sum(self.r, self.o, self.d, other.r, other.o, other.d)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not CycScalar:
            other = _co(other)
            if other is None:
                return NotImplemented
        return _sum(self.r, self.o, self.d, -other.r, -other.o, other.d)

    def __rsub__(self, other):
        if type(other) is not CycScalar:
            other = _co(other)
            if other is None:
                return NotImplemented
        return _sum(other.r, other.o, other.d, -self.r, -self.o, self.d)

    def __neg__(self):
        return _triple(-self.r, -self.o, self.d)

    def __mul__(self, other):
        if type(other) is not CycScalar:
            other = _co(other)
            if other is None:
                return NotImplemented
        r1, o1, d1, r2, o2, d2 = self.r, self.o, self.d, other.r, other.o, other.d
        if o1 or o2:
            # (r1 + o1 w)(r2 + o2 w) with w^2 = -1 - w
            oo = o1 * o2
            return _reduced(r1 * r2 - oo, r1 * o2 + o1 * r2 - oo, d1 * d2)
        # Fraction's product: cancel across, and the result is in lowest terms
        g = gcd(r1, d2)
        if g != 1:
            r1, d2 = r1 // g, d2 // g
        g = gcd(r2, d1)
        if g != 1:
            r2, d1 = r2 // g, d1 // g
        return _triple(r1 * r2, 0, d1 * d2)

    __rmul__ = __mul__

    def inv(self) -> "CycScalar":
        r, o, d = self.r, self.o, self.d
        if o:
            # the conjugate (r - o) - o*w over the norm r^2 - r*o + o^2 > 0
            return _reduced(d * (r - o), -d * o, r * r - r * o + o * o)
        if r > 0:
            return _triple(d, 0, r)
        if r:
            return _triple(-d, 0, -r)
        raise ZeroDivisionError("division by zero in Q(w)")

    def __truediv__(self, other):
        o = _co(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        o = _co(other)
        if o is None:
            return NotImplemented
        return o * self.inv()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inv() ** (-n)
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- comparison / hashing ---------------------------------------------

    def __eq__(self, other):
        o = _co(other)
        if o is None:
            return NotImplemented
        return self.r == o.r and self.o == o.o and self.d == o.d

    def __hash__(self):
        if self.o:
            return hash((self.r, self.o, self.d))
        # a rational value equals its Fraction, so it hashes as Fraction.__hash__ does
        r, d = self.r, self.d
        if d == 1:
            return hash(r)
        try:
            h = hash(hash(abs(r)) * pow(d, -1, _HASH_MODULUS))
        except ValueError:  # d has no inverse modulo the hash modulus
            h = _HASH_INF
        h = h if r >= 0 else -h
        return -2 if h == -1 else h

    # -- rendering ----------------------------------------------------------

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return f"CycScalar({format_scalar(self)!r})"


_new = object.__new__
_set_r, _set_o, _set_d = CycScalar.r.__set__, CycScalar.o.__set__, CycScalar.d.__set__


def _triple(r: int, o: int, d: int) -> CycScalar:
    """Trusted constructor of the CycScalar whose canonical triple is (r, o, d)."""
    s = _new(CycScalar)
    _set_r(s, r)
    _set_o(s, o)
    _set_d(s, d)
    return s


def _reduced(r: int, o: int, d: int) -> CycScalar:
    """The CycScalar (r + o*w)/d for any integers with d != 0: one three-way gcd, which takes d's sign."""
    g = gcd(r, o, d)
    if d < 0:
        g = -g
    if g != 1:
        r, o, d = r // g, o // g, d // g
    return _triple(r, o, d)


def _sum(r1: int, o1: int, d1: int, r2: int, o2: int, d2: int) -> CycScalar:
    """(r1 + o1*w)/d1 + (r2 + o2*w)/d2 for canonical triples, by Fraction's addition.

    With g = gcd(d1, d2), a prime that divides both numerators and d1/g (or
    d2/g) would divide a whole operand's triple, so the result's content is
    gcd(r, o, g): 1 at once when g = 1.
    """
    g = gcd(d1, d2)
    if g == 1:
        return _triple(r1 * d2 + r2 * d1, o1 * d2 + o2 * d1, d1 * d2)
    s, t = d1 // g, d2 // g
    r, o = r1 * t + r2 * s, o1 * t + o2 * s
    g2 = gcd(r, o, g)
    if g2 == 1:
        return _triple(r, o, s * d2)
    return _triple(r // g2, o // g2, s * (d2 // g2))


def _co(x):
    """x as a CycScalar if it is one, an int or a Fraction, else None."""
    if isinstance(x, CycScalar):
        return x
    if isinstance(x, int):
        return _triple(int(x), 0, 1)  # a bool is held as the int it equals
    if isinstance(x, Fraction):
        return _triple(x.numerator, 0, x.denominator)
    return None


ZERO = CycScalar(0)
ONE = CycScalar(1)
OMEGA = CycScalar(0, 1)


def format_scalar(s: CycScalar) -> str:
    """Canonical string form: ``p/q`` when om = 0, else ``p/q+r/s*w``, each part in lowest terms."""
    return _format(s.r, s.o, s.d)


def _format(r: int, o: int, d: int) -> str:
    """``format_scalar`` of (r + o*w)/d for any integers with d > 0: each part is reduced by its own gcd."""
    g = gcd(r, d)
    re_part = f"{r // g}/{d // g}"
    if not o:
        return re_part
    g = gcd(o, d)
    return f"{re_part}{'+' if o > 0 else '-'}{abs(o) // g}/{d // g}*w"


_RAT = r"[+-]?\d+(?:/\d+)?"
_FULL_RE = _regex.compile(
    rf"^\s*(?:"
    rf"(?P<re_only>{_RAT})"
    rf"|(?P<re>{_RAT})(?P<sign>[+-])(?P<om>\d+(?:/\d+)?)\*w"
    rf"|(?P<om_only>{_RAT})\*w"
    rf"|(?P<w_sign>[+-]?)w"
    rf")\s*$"
)


def parse_scalar(text: str) -> CycScalar:
    """Parse the canonical scalar forms; inverse of :func:`format_scalar`."""
    m = _FULL_RE.match(text)
    if m is None:
        raise ValueError(f"cannot parse scalar {text!r}")
    try:
        if m.group("re_only") is not None:
            return CycScalar(Fraction(m.group("re_only")))
        if m.group("om_only") is not None:
            return CycScalar(0, Fraction(m.group("om_only")))
        if m.group("w_sign") is not None and m.group("re") is None:
            return CycScalar(0, -1 if m.group("w_sign") == "-" else 1)
        om = Fraction(m.group("om"))
        if m.group("sign") == "-":
            om = -om
        return CycScalar(Fraction(m.group("re")), om)
    except ZeroDivisionError:
        raise ValueError(f"cannot parse scalar {text!r}: zero denominator") from None


def embed_complex(s: CycScalar) -> complex:
    """Double-precision image of s under w -> exp(2*pi*i/3)."""
    # int true division rounds correctly, as float(Fraction) does
    return complex(s.r / s.d) + complex(s.o / s.d) * _OMEGA_COMPLEX


def _scaled(values) -> tuple:
    """The canonical integer form (R, O, D) of ``values``: value i is (R[i] + O[i] w)/D.

    D > 0 is the lcm of the values' own denominators d, hence the least common
    one, and each value's triple is scaled by D/d; O is None when every w-part
    is zero.  R and O are lists, since the row kernel reads a form once (tuples
    raised a ``catalog`` bench pass's tracemalloc peak from 373 to 395 KB,
    CPython 3.11); ``opseq.OPSequence`` keeps them as they are.
    """
    D = lcm(*[x.d for x in values])
    R = [x.r * (D // x.d) for x in values]
    if not any(x.o for x in values):
        return R, None, D
    return R, [x.o * (D // x.d) for x in values], D


@dataclass(frozen=True, slots=True)
class QParam:
    """A q-difference parameter with admissibility checked to a finite order.

    Construction verifies ``q != 0`` and ``q**n != 1`` for ``1 <= n <=
    max_order`` and caches the powers and q-brackets used throughout the
    package, the products q [n]_q and the parameters q**k built by :meth:`pow`.
    Instances compare and hash by (q, max_order) and are safe to share.
    """

    q: CycScalar
    max_order: int
    _powers: tuple = field(init=False, compare=False, repr=False)
    _brackets: tuple = field(init=False, compare=False, repr=False)
    _q_brackets: list = field(init=False, compare=False, repr=False)
    _q_bracket_form: list = field(init=False, compare=False, repr=False)
    _pows: dict = field(init=False, compare=False, repr=False)

    def __init__(self, q, max_order: int = 64):
        q = CycScalar.coerce(q)
        if not q:
            raise ValueError("q must be nonzero")
        if max_order < 1:
            raise ValueError("max_order must be positive")
        powers = [ONE]
        brackets = [ZERO]
        p = ONE
        for n in range(1, max_order + 1):
            brackets.append(brackets[-1] + p)
            p = p * q
            if p == ONE:
                raise ValueError(f"inadmissible q: q^{n} = 1 (order checked up to {max_order})")
            powers.append(p)
        brackets.append(brackets[-1] + p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "max_order", max_order)
        object.__setattr__(self, "_powers", tuple(powers))
        object.__setattr__(self, "_brackets", tuple(brackets))
        object.__setattr__(self, "_q_brackets", [])
        object.__setattr__(self, "_q_bracket_form", [])
        object.__setattr__(self, "_pows", {})

    def power(self, n: int) -> CycScalar:
        """q**n for -max_order <= n <= max_order."""
        if abs(n) > self.max_order:
            raise ValueError(f"power {n} exceeds validated order {self.max_order}")
        if n < 0:
            return self._powers[-n].inv()
        return self._powers[n]

    def bracket(self, n: int) -> CycScalar:
        """The basic q-number [n]_q = 1 + q + ... + q^(n-1); [0]_q = 0."""
        if not 0 <= n < len(self._brackets):
            raise ValueError(f"bracket index {n} out of validated range")
        return self._brackets[n]

    def q_bracket(self, n: int) -> CycScalar:
        """q [n]_q, the weight of H_{1/q} on z^(-n).

        Formed once per n, when first asked for: a table of every n raised
        the tracemalloc peak of a ``catalog`` bench pass by about 40 KB
        (CPython 3.11), one grown on demand by about 12 KB.
        """
        if not 0 <= n < len(self._brackets):
            raise ValueError(f"bracket index {n} out of validated range")
        table = self._q_brackets
        while len(table) <= n:
            table.append(self.q * self._brackets[len(table)])
        return table[n]

    def q_bracket_form(self, n: int) -> tuple:
        """The ``_scaled`` form (R, O, D) of q [m]_q for m = 0..n or further, made again only
        when it falls short of n: ``stieltjes_residual`` reads one n per q and N."""
        held = self._q_bracket_form
        if not held or len(held[0][0]) <= n:
            held[:] = [_scaled([self.q_bracket(m) for m in range(n + 1)])]
        return held[0]

    def bracket_inv(self, n: int) -> CycScalar:
        """[n] at parameter 1/q, via [n]_{1/q} = q^(1-n) [n]_q."""
        if n == 0:
            return ZERO
        return self.bracket(n) * self.power(n - 1).inv()

    def pow(self, k: int) -> "QParam":
        """The parameter q**k, admissible up to max_order // k; built once per k."""
        if k < 1:
            raise ValueError("k must be >= 1")
        qk = self._pows.get(k)
        if qk is None:
            qk = self._pows[k] = QParam(self.q ** k, max(1, self.max_order // k))
        return qk

    def __repr__(self):
        return f"QParam({format_scalar(self.q)!r}, max_order={self.max_order})"

