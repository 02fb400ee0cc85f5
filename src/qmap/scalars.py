"""Exact scalar arithmetic in Q(w), where w is a primitive cube root of unity.

Every exact quantity in this package is a :class:`CycScalar` ``a + b*w`` with
rational ``a``, ``b`` and the reduction rule ``w**2 = -1 - w``.  Purely
rational values (``b = 0``) stay rational under all field operations, so a
pipeline fed rational data never leaves Q; the w-component only activates for
genuinely complex inputs such as cube-root-of-unity branch choices.

The module also provides :class:`QParam`, the q-difference parameter together
with its admissibility guarantee (``q**n != 1`` up to a declared order) and
precomputed q-brackets, plus string (de)serialization and the double-precision
embedding used by the numeric-measure checks.
"""

from __future__ import annotations

import math
import re as _regex
from dataclasses import dataclass, field
from fractions import Fraction

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


# The one w-part zero: every CycScalar with om == 0 holds this object, so the
# rational fast paths test ``om is _Q0``.  The identity test only picks the
# path; the general Q(w) formulas give the same value for any zero w-part.
_Q0 = Fraction(0)


def _fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


@dataclass(frozen=True, slots=True)
class CycScalar:
    """Element ``re + om*w`` of Q(w), with ``w**2 + w + 1 = 0``.

    Instances are immutable and hashable.  Arithmetic accepts plain ``int``
    and ``Fraction`` operands and coerces them.
    """

    re: Fraction
    om: Fraction

    def __init__(self, re=0, om=0):
        object.__setattr__(self, "re", _fraction(re))
        om = _fraction(om)
        object.__setattr__(self, "om", om if om else _Q0)

    def __reduce__(self):
        # through the constructor, so a copy's zero w-part is the shared _Q0
        return CycScalar, (self.re, self.om)

    # -- coercion ---------------------------------------------------------

    @staticmethod
    def coerce(x) -> "CycScalar":
        if isinstance(x, CycScalar):
            return x
        if isinstance(x, (int, Fraction)):
            return CycScalar(x)
        if isinstance(x, str):
            return parse_scalar(x)
        raise TypeError(f"cannot interpret {x!r} as a Q(w) scalar")

    @staticmethod
    def _co(x):
        if type(x) is CycScalar or isinstance(x, CycScalar):
            return x
        if isinstance(x, (int, Fraction)):
            return CycScalar(x)
        return None

    # -- predicates -------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.om)

    def norm(self) -> Fraction:
        """Field norm re^2 - re*om + om^2; zero exactly for the zero element."""
        return self.re * self.re - self.re * self.om + self.om * self.om

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        if self.om is _Q0 and o.om is _Q0:
            return _make(self.re + o.re)
        return _make(self.re + o.re, self.om + o.om)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        if self.om is _Q0 and o.om is _Q0:
            return _make(self.re - o.re)
        return _make(self.re - o.re, self.om - o.om)

    def __rsub__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        if self.om is _Q0 and o.om is _Q0:
            return _make(o.re - self.re)
        return _make(o.re - self.re, o.om - self.om)

    def __neg__(self):
        if self.om is _Q0:
            return _make(-self.re)
        return _make(-self.re, -self.om)

    def __mul__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        a, b, c, d = self.re, self.om, o.re, o.om
        if b is _Q0 and d is _Q0:
            return _make(a * c)
        # (a + b*w)(c + d*w) with w^2 = -1 - w
        bd = b * d
        return _make(a * c - bd, a * d + b * c - bd)

    __rmul__ = __mul__

    def inv(self) -> "CycScalar":
        if self.om is _Q0:
            if not self.re:
                raise ZeroDivisionError("division by zero in Q(w)")
            return _make(1 / self.re)
        n = self.norm()
        # conjugate is (re - om) - om*w
        return _make((self.re - self.om) / n, -self.om / n)

    def __truediv__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        o = self._co(other)
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
        o = self._co(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.om == o.om

    def __hash__(self):
        # a rational value equals its re, so it must hash like it
        if not self.om:
            return hash(self.re)
        return hash((self.re, self.om))

    # -- rendering ----------------------------------------------------------

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return f"CycScalar({format_scalar(self)!r})"


_new = object.__new__
_set_re = CycScalar.re.__set__
_set_om = CycScalar.om.__set__


def _make(re: Fraction, om: Fraction = _Q0) -> CycScalar:
    """Trusted constructor for results built from Fractions the class holds.

    Skips the type checks of ``CycScalar(re, om)`` and keeps every zero
    w-part as the shared ``_Q0``.
    """
    s = _new(CycScalar)
    _set_re(s, re)
    _set_om(s, om if om is _Q0 or om else _Q0)
    return s


ZERO = CycScalar(0)
ONE = CycScalar(1)
OMEGA = CycScalar(0, 1)


def format_scalar(s: CycScalar) -> str:
    """Canonical string form: ``p/q`` when om = 0, else ``p/q+r/s*w``."""
    re_part = f"{s.re.numerator}/{s.re.denominator}"
    if not s.om:
        return re_part
    sign = "+" if s.om > 0 else "-"
    om = abs(s.om)
    return f"{re_part}{sign}{om.numerator}/{om.denominator}*w"


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
    return complex(s.re) + complex(s.om) * _OMEGA_COMPLEX


def _scaled(values) -> tuple:
    """The canonical integer form (R, O, D) of ``values``: value i is (R[i] + O[i] w)/D.

    D > 0 is the lcm of every denominator of both components, hence the least
    common one; O is None when every w-part is zero.  R and O are lists, since
    the row kernel reads a form once (tuples raised a ``catalog`` bench pass's
    tracemalloc peak from 373 to 395 KB, CPython 3.11); ``opseq.OPSequence``,
    which compares and hashes its forms, makes tuples.
    """
    re, om = [x.re for x in values], [x.om for x in values]
    if not any(om):
        om = None
    D = math.lcm(*(f.denominator for f in (re if om is None else re + om)))
    R = [f.numerator * (D // f.denominator) for f in re]
    return R, (None if om is None else [f.numerator * (D // f.denominator) for f in om]), D


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

