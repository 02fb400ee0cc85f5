"""Monic orthogonal polynomial sequences and block-indexed recurrences.

Generation from a three-term recurrence, recovery of the recurrence from
moments, orthogonality certification, the block view b_n^{(j)} = b_{nk+j}
with its wraparound convention, and the tridiagonal determinants
Delta_n(i, j; x) that drive the polynomial-mapping machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import QmapError, RegularityError, TruncationError
from .functionals import MomentFunctional, act
from .polyalg import Poly
from .scalars import CycScalar, ONE, ZERO

__all__ = [
    "Recurrence",
    "BlockView",
    "OPSequence",
    "OrthogonalityReport",
    "ops_from_recurrence",
    "recurrence_from_moments",
    "orthogonality_check",
    "delta_det",
]


class Recurrence:
    """Coefficients of p_{n+1} = (x - b_n) p_n - a_n p_{n-1}.

    Stores b_0..b_{N-1} and a_1..a_{N-1}; the unused a_0 is fixed to 1 by
    convention.  All stored a_n must be nonzero (regularity).
    """

    __slots__ = ("b", "a")

    def __init__(self, b, a):
        b = tuple(CycScalar.coerce(x) for x in b)
        a = tuple(CycScalar.coerce(x) for x in a)
        for i, an in enumerate(a):
            if not an:
                raise RegularityError(f"recurrence coefficient a_{i + 1} is zero")
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "a", a)

    def __setattr__(self, name, value):
        raise AttributeError("Recurrence is immutable")

    def b_at(self, n: int) -> CycScalar:
        if not 0 <= n < len(self.b):
            raise QmapError(f"b_{n} not available (have b_0..b_{len(self.b) - 1})")
        return self.b[n]

    def a_at(self, n: int) -> CycScalar:
        if n == 0:
            return ONE
        if not 1 <= n <= len(self.a):
            raise QmapError(f"a_{n} not available (have a_1..a_{len(self.a)})")
        return self.a[n - 1]

    def __eq__(self, other):
        if not isinstance(other, Recurrence):
            return NotImplemented
        return self.b == other.b and self.a == other.a

    def __repr__(self):
        return f"Recurrence(len_b={len(self.b)}, len_a={len(self.a)})"


class BlockView:
    """Block indexing of a recurrence: b_n^{(j)} = b_{nk+j}, a_n^{(j)} = a_{nk+j}.

    Indices beyond j = k-1 wrap into the next block automatically, since
    b_n^{(k+j)} and b_{n+1}^{(j)} address the same flat coefficient.
    """

    __slots__ = ("rec", "k")

    def __init__(self, rec: Recurrence, k: int):
        if k < 2:
            raise ValueError("block size k must be >= 2")
        object.__setattr__(self, "rec", rec)
        object.__setattr__(self, "k", k)

    def __setattr__(self, name, value):
        raise AttributeError("BlockView is immutable")

    def b(self, n: int, j: int) -> CycScalar:
        return self.rec.b_at(n * self.k + j)

    def a(self, n: int, j: int) -> CycScalar:
        return self.rec.a_at(n * self.k + j)


class OPSequence:
    """Monic polynomials p_0..p_N with deg p_n = n."""

    __slots__ = ("polys",)

    def __init__(self, polys):
        polys = tuple(polys)
        for n, p in enumerate(polys):
            if p.degree != n or p.lc != ONE:
                raise ValueError(f"element {n} is not monic of degree {n}")
        object.__setattr__(self, "polys", polys)

    def __setattr__(self, name, value):
        raise AttributeError("OPSequence is immutable")

    def __getitem__(self, n: int) -> Poly:
        return self.polys[n]

    def __len__(self):
        return len(self.polys)

    def __iter__(self):
        return iter(self.polys)

    def __eq__(self, other):
        if not isinstance(other, OPSequence):
            return NotImplemented
        return self.polys == other.polys

    def __repr__(self):
        return f"OPSequence(p_0..p_{len(self.polys) - 1})"


def ops_from_recurrence(rec: Recurrence, N: int) -> OPSequence:
    """p_0..p_N from the three-term recurrence, p_{-1} = 0, p_0 = 1."""
    if N > len(rec.b):
        raise QmapError(f"need b_0..b_{N - 1} for p_{N}, have {len(rec.b)}")
    x = Poly.x()
    polys = [Poly.one()]
    prev = Poly.zero()
    for n in range(N):
        cur = polys[-1]
        nxt = (x - Poly.constant(rec.b_at(n))) * cur
        if n:
            nxt = nxt - rec.a_at(n) * prev
        prev = cur
        polys.append(nxt)
    return OPSequence(polys)


def recurrence_from_moments(u: MomentFunctional, N: int) -> tuple[Recurrence, OPSequence]:
    """Recover b_0..b_{N-1}, a_1..a_{N-1} and p_0..p_N orthogonal for u.

    Uses the Chebyshev algorithm (Gautschi, "On generating orthogonal
    polynomials", SIAM J. Sci. Stat. Comput. 3, 1982) on the mixed moments
    sigma_{n,l} = <u, x^l p_n>, starting from sigma_{0,l} = u_l and
    sigma_{-1,l} = 0:

        sigma_{n,l} = sigma_{n-1,l+1} - b_{n-1} sigma_{n-1,l} - a_{n-1} sigma_{n-2,l},
        a_n = sigma_{n,n} / sigma_{n-1,n-1},
        b_n = sigma_{n,n+1} / sigma_{n,n} - sigma_{n-1,n} / sigma_{n-1,n-1}.

    That is O(N^2) scalar operations with two rows of sigma alive at a time;
    the polynomials are then generated by ops_from_recurrence.  Since
    sigma_{n,n} = <u, p_n^2>, a vanishing sigma_{n,n} names the level at
    which u stops being regular.
    """
    if 2 * N > u.order:
        raise TruncationError(f"need effective order >= {2 * N}, have {u.order}")
    b: list[CycScalar] = []
    a: list[CycScalar] = []
    # row[j] = sigma_{n, n+j} for j = 0..2(N-n)-1; prev is the row of level n-1
    row = list(u.moments[: 2 * N])
    prev: list[CycScalar] = []
    ratio_prev = ZERO
    for n in range(N):
        if n:
            bn = b[-1]
            if n == 1:
                nxt = [s2 - bn * s1 for s1, s2 in zip(row[1:], row[2:])]
            else:
                an = a[-1]
                nxt = [s2 - bn * s1 - an * t for s1, s2, t in zip(row[1:], row[2:], prev[2:])]
            prev, row = row, nxt
        hn = row[0]
        if not hn:
            raise RegularityError(f"not regular at level {n}: <u, p_{n}^2> = 0")
        hn_inv = hn.inv()
        ratio = row[1] * hn_inv
        b.append(ratio - ratio_prev)
        if n:
            a.append(hn * h_prev_inv)
        h_prev_inv, ratio_prev = hn_inv, ratio
    rec = Recurrence(b, a)
    return rec, ops_from_recurrence(rec, N)


@dataclass(frozen=True)
class OrthogonalityReport:
    ok: bool
    pairs_checked: int
    first_failure: Optional[tuple[int, int]] = None
    message: str = ""


def orthogonality_check(u: MomentFunctional, ops: OPSequence, n_max: Optional[int] = None) -> OrthogonalityReport:
    """Certify <u, p_n p_m> = 0 for n != m and != 0 on the diagonal.

    Checks every pair with n, m <= n_max whose product degree stays inside
    the effective order of u.
    """
    limit = len(ops) - 1 if n_max is None else min(n_max, len(ops) - 1)
    pairs = 0
    for n in range(limit + 1):
        for m in range(n, limit + 1):
            if n + m > u.order:
                continue
            val = act(u, ops[n] * ops[m])
            pairs += 1
            if n == m and not val:
                return OrthogonalityReport(False, pairs, (n, m), f"<u, p_{n}^2> = 0")
            if n != m and val:
                return OrthogonalityReport(False, pairs, (n, m), f"<u, p_{n} p_{m}> != 0")
    return OrthogonalityReport(True, pairs)


def delta_det(view: BlockView, n: int, i: int, j: int) -> Poly:
    """Tridiagonal determinant Delta_n(i, j; x) of the block recurrence.

    Base cases: 0 if j < i-2, 1 if j = i-2, x - b_n^{(i-1)} if j = i-1; for
    j >= i it satisfies the second-order recurrence in j
    Delta_n(i,j) = (x - b_n^{(j)}) Delta_n(i,j-1) - a_n^{(j)} Delta_n(i,j-2).
    """
    if n < 0 or i < 1:
        raise QmapError(f"delta_det indices out of range: n={n}, i={i}")
    if j < i - 2:
        return Poly.zero()
    if j == i - 2:
        return Poly.one()
    x = Poly.x()
    prev2 = Poly.one()
    prev1 = x - Poly.constant(view.b(n, i - 1))
    for t in range(i, j + 1):
        cur = (x - Poly.constant(view.b(n, t))) * prev1 - view.a(n, t) * prev2
        prev2, prev1 = prev1, cur
    return prev1
