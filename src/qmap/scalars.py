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


def _fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class CycScalar:
    """Element ``re + om*w`` of Q(w), with ``w**2 + w + 1 = 0``.

    Instances are immutable and hashable.  Arithmetic accepts plain ``int``
    and ``Fraction`` operands and coerces them.
    """

    __slots__ = ("re", "om")

    def __init__(self, re=0, om=0):
        object.__setattr__(self, "re", _fraction(re))
        object.__setattr__(self, "om", _fraction(om))

    def __setattr__(self, name, value):
        raise AttributeError("CycScalar is immutable")

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
        if isinstance(x, CycScalar):
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
        return CycScalar(self.re + o.re, self.om + o.om)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        return CycScalar(self.re - o.re, self.om - o.om)

    def __rsub__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        return CycScalar(o.re - self.re, o.om - self.om)

    def __neg__(self):
        return CycScalar(-self.re, -self.om)

    def __mul__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        a, b, c, d = self.re, self.om, o.re, o.om
        if not b and not d:
            return CycScalar(a * c)
        # (a + b*w)(c + d*w) with w^2 = -1 - w
        bd = b * d
        return CycScalar(a * c - bd, a * d + b * c - bd)

    __rmul__ = __mul__

    def inv(self) -> "CycScalar":
        n = self.norm()
        if not n:
            raise ZeroDivisionError("division by zero in Q(w)")
        if not self.om:
            return CycScalar(1 / self.re)
        # conjugate is (re - om) - om*w
        return CycScalar((self.re - self.om) / n, -self.om / n)

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
        return hash((self.re, self.om))

    # -- rendering ----------------------------------------------------------

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return f"CycScalar({format_scalar(self)!r})"


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


def embed_complex(s: CycScalar) -> complex:
    """Double-precision image of s under w -> exp(2*pi*i/3)."""
    return complex(s.re) + complex(s.om) * _OMEGA_COMPLEX


class QParam:
    """A q-difference parameter with admissibility checked to a finite order.

    Construction verifies ``q != 0`` and ``q**n != 1`` for ``1 <= n <=
    max_order`` and caches the powers and q-brackets used throughout the
    package, and the parameters q**k built by :meth:`pow`.  Instances are
    immutable in intent and safe to share.
    """

    __slots__ = ("q", "max_order", "_powers", "_brackets", "_pows")

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
        object.__setattr__(self, "_pows", {})

    def __setattr__(self, name, value):
        raise AttributeError("QParam is immutable")

    def power(self, n: int) -> CycScalar:
        """q**n for -max_order <= n <= max_order."""
        if n < 0:
            return self._powers[-n].inv()
        if n >= len(self._powers):
            raise ValueError(f"power {n} exceeds validated order {self.max_order}")
        return self._powers[n]

    def bracket(self, n: int) -> CycScalar:
        """The basic q-number [n]_q = 1 + q + ... + q^(n-1); [0]_q = 0."""
        if not 0 <= n < len(self._brackets):
            raise ValueError(f"bracket index {n} out of validated range")
        return self._brackets[n]

    def bracket_inv(self, n: int) -> CycScalar:
        """[n] at parameter 1/q, via [n]_{1/q} = q^(1-n) [n]_q."""
        if n == 0:
            return ZERO
        return self.bracket(n) * self.power(n - 1).inv()

    def inverse(self) -> "QParam":
        """The parameter 1/q (same admissibility order)."""
        return QParam(self.q.inv(), self.max_order)

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

