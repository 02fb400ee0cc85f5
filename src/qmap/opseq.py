"""Monic orthogonal polynomial sequences and block-indexed recurrences.

Generation from a three-term recurrence, recovery of the recurrence from
moments, orthogonality certification, the block view b_n^{(j)} = b_{nk+j}
with its wraparound convention, and the tridiagonal determinants
Delta_n(i, j; x) that drive the polynomial-mapping machinery.

Every polynomial the three-term recurrence generates is held as the canonical
integer form (R, O, D) of ``functionals._scaled``, coefficient i being
(R[i] + O[i] w)/D, and stepped by one integer kernel (``_step``); the row
kernel ``_correlate`` reads the forms as they are, and a Poly is built only
when it is read.  ``proved_recurrence`` is the one step from a functional and
its pair to its recurrence, for ``qmap ops`` and for q's in a case build: the
pair's N levels, all proved by two rows of mixed moments, else the Chebyshev
algorithm (``recurrence_from_moments``), whose one level ``next_level`` reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Optional

from .errors import QmapError, RegularityError, TruncationError
from .functionals import MomentFunctional, PearsonPair, _correlate, _dot, _scaled
from .polyalg import Poly
from .scalars import CycScalar, ONE, QParam, ZERO

__all__ = [
    "Recurrence",
    "BlockView",
    "OPSequence",
    "OrthogonalityReport",
    "ops_from_recurrence",
    "pair_recurrence",
    "chebyshev_recurrence",
    "recurrence_from_moments",
    "orthogonality_check",
    "delta_det",
]


@dataclass(frozen=True, slots=True)
class Recurrence:
    """Coefficients of p_{n+1} = (x - b_n) p_n - a_n p_{n-1}.

    Stores b_0..b_{N-1} and a_1..a_{N-1}; the unused a_0 is fixed to 1 by
    convention.  All stored a_n must be nonzero (regularity).
    """

    b: tuple[CycScalar, ...]
    a: tuple[CycScalar, ...]

    def __init__(self, b, a):
        b = tuple(CycScalar.coerce(x) for x in b)
        a = tuple(CycScalar.coerce(x) for x in a)
        for i, an in enumerate(a):
            if not an:
                raise RegularityError(f"recurrence coefficient a_{i + 1} is zero")
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "a", a)

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

    def __repr__(self):
        return f"Recurrence(len_b={len(self.b)}, len_a={len(self.a)})"


@dataclass(frozen=True, slots=True)
class BlockView:
    """Block indexing of a recurrence: b_n^{(j)} = b_{nk+j}, a_n^{(j)} = a_{nk+j}.

    Indices beyond j = k-1 wrap into the next block automatically, since
    b_n^{(k+j)} and b_{n+1}^{(j)} address the same flat coefficient.
    """

    rec: Recurrence
    k: int

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("block size k must be >= 2")

    def b(self, n: int, j: int) -> CycScalar:
        return self.rec.b_at(n * self.k + j)

    def a(self, n: int, j: int) -> CycScalar:
        return self.rec.a_at(n * self.k + j)


def _parts(x: CycScalar) -> tuple[int, int, int]:
    """x as (r, o, d) with x = (r + o w)/d and d the lcm of its two denominators.

    Not ``functionals._scaled((x,))``: its lists, made twice a step, raised the
    tracemalloc peak of a ``catalog`` bench pass from 373 to 456 KB (CPython 3.11).
    """
    re, om = x.re, x.om
    if not om:
        return re.numerator, 0, re.denominator
    d = lcm(re.denominator, om.denominator)
    return re.numerator * (d // re.denominator), om.numerator * (d // om.denominator), d


def _poly(form) -> Poly:
    """The Poly of a canonical form."""
    R, O, D = form
    if O is None:
        return Poly([Fraction(r, D) for r in R])
    return Poly([CycScalar(Fraction(r, D), Fraction(o, D)) for r, o in zip(R, O)])


_ONE_FORM = ((1,), None, 1)


def _step(cur, prev, b: CycScalar, a: Optional[CycScalar]) -> tuple:
    """The form of (x - b) P - a P_prev from the forms of P and P_prev (None for P_prev = 0).

    With L = lcm(D·den(b), D_prev·den(a)) every coefficient of L times the
    result is an integer; one running gcd of L and those numerators, stopped as
    soon as it reaches 1, makes the form canonical.  The leading numerator is
    L itself, since P is monic.
    """
    R, O, D = cur
    br, bo, bd = _parts(b)
    L = D * bd
    if prev is None:
        ar = ao = 0
        Rp, Op = (), None
    else:
        ar, ao, ad = _parts(a)
        Rp, Op, Dp = prev
        L = lcm(L, Dp * ad)
        sa = L // (Dp * ad)
        ar, ao = sa * ar, sa * ao
    s = L // D
    br, bo = (s // bd) * br, (s // bd) * bo
    # The aligned copies are lists: small tuples freed here wait in CPython's
    # tuple free lists until a full collection, which raised the bench's
    # peak_rss_mb with the number of passes a run completes.
    zeros = [0] * (len(R) + 1 - len(Rp))
    xR, R, Rp = [0, *R], [*R, 0], [*Rp, *zeros]  # x P, P and P_prev, aligned on n + 2 coefficients
    if O is None and Op is None and not bo and not ao:
        re = [s * h - br * r - ar * t for h, r, t in zip(xR, R, Rp)]
        om = None
    else:
        xO, O = ([0, *O], [*O, 0]) if O is not None else ([0] * len(R), [0] * len(R))
        Op = [*Op, *zeros] if Op is not None else [0] * len(R)
        # (B_r + B_o w)(R + O w) = (B_r R - B_o O) + (B_r O + B_o (R - O)) w, from w^2 = -1 - w
        re = [s * h - br * r + bo * o - ar * t + ao * v for h, r, o, t, v in zip(xR, R, O, Rp, Op)]
        om = [s * h - br * o - bo * (r - o) - ar * v - ao * (t - v) for h, r, o, t, v in zip(xO, R, O, Rp, Op)]
        if not any(om):
            om = None
    g = L
    for x in re if om is None else (*re, *om):
        if x:
            g = gcd(g, x)
            if g == 1:
                break
    if g != 1:
        re = [x // g for x in re]
        om = None if om is None else [x // g for x in om]
        L //= g
    return tuple(re), (None if om is None else tuple(om)), L


def _forms(b, a, start: int, stop: int) -> list:
    """Forms of P_0, ..., P_{stop-start} with P_{s+1} = (x - b(t)) P_s - a(t) P_{s-1}, t = start + s.

    The one three-term loop of the package, run on canonical integer forms from
    P_{-1} = 0 and P_0 = 1, so a(start) is never read; each step reads b(t) before a(t).
    """
    prev, cur = None, _ONE_FORM
    out = [cur]
    for t in range(start, stop):
        bt = b(t)
        prev, cur = cur, _step(cur, prev, bt, None if prev is None else a(t))
        out.append(cur)
    return out


@dataclass(frozen=True, slots=True)
class OPSequence:
    """Monic polynomials p_0..p_N with deg p_n = n, held as canonical integer forms.

    ``forms[n]`` is the canonical form (R, O, D) of ``_scaled`` as tuples:
    coefficient i of p_n is (R[i] + O[i] w)/D with the least D > 0, and O is
    None when p_n is rational.  ``ops_from_recurrence`` and
    ``certify_recurrence`` make the forms, and the row kernel reads them as
    they are; the Poly p_n is built anew on each read of ``seq[n]`` or
    iteration.  A case build reads none of q's and forms none of p's:
    ``CaseBundle.p_ops`` is formed from rec_p when first read.
    ``OPSequence(polys)`` checks that each element is monic of its index's
    degree.  Equality, hashing, copy and pickle work on the canonical forms,
    so a sequence compares equal however it was made.
    """

    forms: tuple

    def __init__(self, polys):
        forms = []
        for n, p in enumerate(polys):
            if p.degree != n or p.lc != ONE:
                raise ValueError(f"element {n} is not monic of degree {n}")
            R, O, D = _scaled(p.coeffs)
            # tuples, as _step makes them: the forms are compared and hashed
            forms.append((tuple(R), None if O is None else tuple(O), D))
        object.__setattr__(self, "forms", tuple(forms))

    @classmethod
    def _of_forms(cls, forms) -> "OPSequence":
        seq = object.__new__(cls)
        object.__setattr__(seq, "forms", tuple(forms))
        return seq

    def __getitem__(self, n: int) -> Poly:
        return _poly(self.forms[n])

    def __len__(self):
        return len(self.forms)

    def __iter__(self):
        return map(_poly, self.forms)

    def __repr__(self):
        return f"OPSequence(p_0..p_{len(self.forms) - 1})"


def ops_from_recurrence(rec: Recurrence, N: int) -> OPSequence:
    """p_0..p_N from the three-term recurrence, p_{-1} = 0, p_0 = 1, as integer forms.

    Each level costs O(n) integer operations and one content gcd; no Poly is
    built until the sequence is read.
    """
    if N > len(rec.b):
        raise QmapError(f"need b_0..b_{N - 1} for p_{N}, have {len(rec.b)}")
    return OPSequence._of_forms(_forms(rec.b_at, rec.a_at, 0, N))


def pair_recurrence(pair: PearsonPair, q: QParam, n: int) -> Recurrence:
    """The monic b_0..b_{n-1}, a_1..a_{n-1} of a q-classical functional, from its pair alone.

    When <u, Phi H_q f + Psi f> = 0 for every f, with deg Phi <= 2 and
    deg Psi = 1, u's monic orthogonal polynomials are eigenfunctions of
    L = Phi H_q H_{1/q} + Psi H_{1/q} (Medem, Alvarez-Nodarse and Marcellan,
    J. Comput. Appl. Math. 135, 2001).  With t_m = [m]_{1/q} [m-1]_q,
    L x^m = lambda_m x^m + mu_m x^{m-1} + nu_m x^{m-2}, where
    lambda_m = phi_2 t_m + psi_1 [m]_{1/q}, mu_m = phi_1 t_m + psi_0 [m]_{1/q}
    and nu_m = phi_0 t_m.  Writing p_m = x^m + c_m x^{m-1} + d_m x^{m-2},

        c_m = mu_m / (lambda_m - lambda_{m-1}),
        d_m = (nu_m + c_m mu_{m-1}) / (lambda_m - lambda_{m-2}),

    and b_m = c_m - c_{m+1}, a_m = d_m - d_{m+1} - b_m c_m.  Only
    lambda_0..lambda_n are read, so q must be validated to order n - 1;
    ``proved_recurrence`` reads all n levels and proves them on u.  A
    one-line QmapError names wrong degrees, a zero gap lambda_m - lambda_j
    (the moments to order 2n - 1 then do not exist either) or a zero a_m (a
    RegularityError from ``Recurrence``).
    """
    phi, psi = pair.phi, pair.psi
    if phi.degree > 2 or psi.degree != 1:
        raise QmapError(f"pair recurrence: need deg Phi <= 2 and deg Psi = 1, have {phi.degree} and {psi.degree}")
    lam, mu, c, d = [], [], [], []

    def over_gap(x, m, j):
        gap = lam[m] - lam[m - j]
        if not gap:
            raise QmapError(f"pair recurrence: lambda_{m} = lambda_{m - j}")
        return x * gap.inv()

    for m in range(n + 1):
        inv = q.bracket_inv(m)
        t = inv * q.bracket(m - 1) if m else ZERO
        lam.append(phi.coeff(2) * t + psi.coeff(1) * inv)
        mu.append(phi.coeff(1) * t + psi.coeff(0) * inv)
        c.append(over_gap(mu[m], m, 1) if m else ZERO)
        d.append(over_gap(phi.coeff(0) * t + c[m] * mu[m - 1], m, 2) if m > 1 else ZERO)
    b = [c[m] - c[m + 1] for m in range(n)]
    return Recurrence(b, [d[m] - d[m + 1] - b[m] * c[m] for m in range(1, n)])


def chebyshev_recurrence(u: MomentFunctional, N: int) -> Recurrence:
    """Recover b_0..b_{N-1}, a_1..a_{N-1} of u, with no polynomial formed.

    The package's one Chebyshev algorithm (Gautschi, "On generating orthogonal
    polynomials", SIAM J. Sci. Stat. Comput. 3, 1982), on the mixed moments
    sigma_{n,l} = <u, x^l p_n>, starting from sigma_{0,l} = u_l and
    sigma_{-1,l} = 0:

        sigma_{n,l} = sigma_{n-1,l+1} - b_{n-1} sigma_{n-1,l} - a_{n-1} sigma_{n-2,l},
        a_n = sigma_{n,n} / sigma_{n-1,n-1},
        b_n = sigma_{n,n+1} / sigma_{n,n} - sigma_{n-1,n} / sigma_{n-1,n-1}.

    That is O(N^2) scalar operations with two rows of sigma alive at a time.
    Since sigma_{n,n} = <u, p_n^2>, a vanishing sigma_{n,n} names the level at
    which u stops being regular.  A case build runs it for p's at k != 3 only.
    """
    if 2 * N - 1 > u.order:
        raise TruncationError(f"need effective order >= {2 * N - 1}, have {u.order}")
    b: list[CycScalar] = []
    a: list[CycScalar] = []
    row, ratio_prev = list(u.moments[: 2 * N]), ZERO
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
    return Recurrence(b, a)


def recurrence_from_moments(u: MomentFunctional, N: int) -> tuple[Recurrence, OPSequence]:
    """``chebyshev_recurrence(u, N)`` and p_0..p_N: ``proved_recurrence``'s fallback, for ``qmap ops`` and q's."""
    rec = chebyshev_recurrence(u, N)
    return rec, ops_from_recurrence(rec, N)


def certify_recurrence(u: MomentFunctional, cand: Recurrence, N: int) -> Optional[tuple[Recurrence, OPSequence]]:
    """Prove that the candidate's first N levels are u's and return them with p_0..p_N; None if they are not proved.

    The levels generate p_0..p_N.  If <u, x^l p_N> = 0 for l < N,
    <u, x^l p_{N-1}> = 0 for l < N - 1 and <u, x^{N-1} p_{N-1}> != 0, then
    p_0..p_N are u's monic orthogonal polynomials, u is regular below level N
    and the levels are u's own: running the recurrence downwards (every
    a_n != 0),

        a_n <u, x^l p_{n-1}> = <u, x^{l+1} p_n> - b_n <u, x^l p_n> - <u, x^l p_{n+1}>,

    makes each p_n with n < N orthogonal to x^l for l < n with
    <u, x^n p_n> != 0.  So the result is exactly ``recurrence_from_moments(u, N)``.
    The two rows, N entries each, read u_0..u_{2N-1}: 2N integer dot products
    of the forms of p_N and p_{N-1} with the ``_scaled`` form of the moments
    (``_correlate``), with no gcd inside a sum and no Poly built.  None when
    the candidate has fewer than N levels, when N < 1, when u lacks u_{2N-1},
    or when a condition fails.
    """
    if not 0 < N <= len(cand.b) or 2 * N - 1 > u.order:
        return None
    forms = _forms(cand.b_at, cand.a_at, 0, N)
    moments = _scaled(u.moments[: 2 * N])
    row = _correlate(forms[N], moments, N)
    prev = _correlate(forms[N - 1], moments, N)
    if any(row) or any(prev[: N - 1]) or not prev[N - 1]:
        return None
    return Recurrence(cand.b[:N], cand.a[: N - 1]), OPSequence._of_forms(forms)


def proved_recurrence(u: MomentFunctional, pair: PearsonPair, q: QParam, N: int) -> tuple[Recurrence, OPSequence]:
    """u's recurrence on N levels and p_0..p_N: the pair's, proved on u, else the Chebyshev algorithm.

    ``certify_recurrence`` proves every level of ``pair_recurrence(pair, q, N)``;
    when the pair fixes none (a QmapError) or is not proved,
    ``recurrence_from_moments(u, N)`` decides, and its errors are the caller's.
    """
    try:
        proved = certify_recurrence(u, pair_recurrence(pair, q, N), N)
    except QmapError:
        proved = None
    return proved or recurrence_from_moments(u, N)


def next_level(u: MomentFunctional, rec: Recurrence, ops: OPSequence) -> tuple[tuple, tuple]:
    """``rec``'s (b, a) with u's a_N, and b_N too when u holds u_{2N+1} and a_N != 0; a_N = 0 if u is not regular at N.

    ``rec`` and ``ops`` are u's proved N = len(rec.b) levels and p_0..p_N.
    With h_n = <u, x^n p_n>, this is the Chebyshev algorithm's level N:

        a_N = h_N / h_{N-1},    b_N = <u, x^{N+1} p_N> / h_N - <u, x^N p_{N-1}> / h_{N-1},

    two dot products of p_{N-1} and p_N against u's last moments, four with
    b_N.  Each row is cut to the moments it reads, since ``_correlate`` sums
    a short slice without complaint.
    """
    N = len(rec.b)
    if u.order < 2 * N:
        raise TruncationError(f"level {N} needs effective order >= {2 * N}, have {u.order}")
    width = 2 if u.order > 2 * N else 1  # the second entry of each row is b_N's
    prev = _correlate(ops.forms[N - 1], _scaled(u.moments[N - 1 : 2 * N - 2 + width]), width)
    cur = _correlate(ops.forms[N], _scaled(u.moments[N : 2 * N + width]), width)
    b = rec.b if width == 1 or not cur[0] else rec.b + (cur[1] / cur[0] - prev[1] / prev[0],)
    return b, rec.a + (cur[0] / prev[0],)


@dataclass(frozen=True)
class OrthogonalityReport:
    ok: bool
    pairs_checked: int
    first_failure: Optional[tuple[int, int]] = None
    message: str = ""


def orthogonality_check(u: MomentFunctional, ops: OPSequence, n_max: Optional[int] = None) -> OrthogonalityReport:
    """Certify <u, p_n p_m> = 0 for n != m and != 0 on the diagonal.

    Checks every pair n <= m <= n_max whose product degree n + m stays
    inside the effective order of u, in the order n, then m, and reports the
    first pair that fails.  No product p_n p_m is formed: by bilinearity

        <u, p_n p_m> = sum_{j <= n} c_{n,j} sigma_{m,j},
        sigma_{m,j} = <u, x^j p_m> = sum_i c_{m,i} u_{i+j},

    with c_{n,j} the coefficients of p_n.  A pair needs sigma_{m,j} only for
    j <= n <= min(m, order - m), so row m of the table is min(m, order - m) + 1
    integer dot products of length m + 1 per nonzero component pair, from
    ``_correlate`` on the canonical forms of the moments and of p_m (the
    latter as the sequence holds it), with no gcd inside a sum.  Each pair is
    one Q(w) dot product of length n + 1 with the integer numerators R + O w
    of p_n's form: that is D_n <u, p_n p_m>, which vanishes with it, so no
    Poly is built.  O(N^3) operations in all, against O(N^4) scalar
    operations for the N^2/2 dense products.
    """
    limit = len(ops) - 1 if n_max is None else min(n_max, len(ops) - 1)
    moments = _scaled(u.moments)
    sigma = [_correlate(ops.forms[m], moments, min(m, u.order - m) + 1) for m in range(limit + 1)]
    pairs = 0
    for n in range(limit + 1):
        R, O, _ = ops.forms[n]
        cn = [CycScalar(r) for r in R] if O is None else [CycScalar(r, o) for r, o in zip(R, O)]
        for m in range(n, limit + 1):
            if n + m > u.order:
                continue
            val = _dot(cn, sigma[m])
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
    Delta_n(i,j) = (x - b_n^{(j)}) Delta_n(i,j-1) - a_n^{(j)} Delta_n(i,j-2),
    which the integer kernel runs; only the last determinant becomes a Poly.
    """
    if n < 0 or i < 1:
        raise QmapError(f"delta_det indices out of range: n={n}, i={i}")
    if j < i - 2:
        return Poly.zero()
    return _poly(_forms(lambda t: view.b(n, t), lambda t: view.a(n, t), i - 1, j + 1)[-1])
