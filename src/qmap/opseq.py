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
its pair to its N levels and its level N, for ``qmap ops`` and for q's in a
case build: the pair's, read on integers from the eigenvalues of
L = Phi H_q H_{1/q} + Psi H_{1/q} (``_pair_candidate``) and proved by the
eigen-recurrence lemma (``proved_pair_recurrence``), with no polynomial
formed and no row of moments read; else the Chebyshev algorithm
(``recurrence_from_moments``) and its next level (``next_level``).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from typing import Optional

from .errors import QmapError, RegularityError, TruncationError
from .functionals import MomentFunctional, PearsonPair, _correlate, _dot, _pearson_holds, _scaled
from .polyalg import Poly
from .scalars import CycScalar, ONE, QParam, ZERO, _format, _reduced

__all__ = [
    "Recurrence",
    "BlockView",
    "OPSequence",
    "OrthogonalityReport",
    "ops_from_recurrence",
    "pair_recurrence",
    "proved_pair_recurrence",
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
        b = tuple([CycScalar.coerce(x) for x in b])
        a = tuple([CycScalar.coerce(x) for x in a])
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


def _poly(form) -> Poly:
    """The Poly of a canonical form, each coefficient made canonical by one gcd."""
    R, O, D = form
    return Poly([_reduced(r, o, D) for r, o in zip(R, O or [0] * len(R))])


def _step(cur, prev, b: CycScalar, a: Optional[CycScalar]) -> tuple:
    """The form of (x - b) P - a P_prev from the forms of P and P_prev (None for P_prev = 0).

    b and a are read as the triples (r, o, d) they hold.  With
    L = lcm(D·b.d, D_prev·a.d) every coefficient of L times the result is an
    integer; one running gcd of L and those numerators, stopped as soon as it
    reaches 1, makes the form canonical.  The leading numerator is L itself,
    since P is monic.
    """
    R, O, D = cur
    br, bo, bd = b.r, b.o, b.d
    L = D * bd
    if prev is None:
        ar = ao = 0
        Rp, Op = (), None
    else:
        ar, ao, ad = a.r, a.o, a.d
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
    for x in re if om is None else [*re, *om]:
        if x:
            g = gcd(g, x)
            if g == 1:
                break
    if g != 1:
        re = [x // g for x in re]
        om = None if om is None else [x // g for x in om]
        L //= g
    return re, om, L


def _forms(b, a, start: int, stop: int) -> list:
    """Forms of P_0, ..., P_{stop-start} with P_{s+1} = (x - b(t)) P_s - a(t) P_{s-1}, t = start + s.

    The one three-term loop of the package, run on canonical integer forms from
    P_{-1} = 0 and P_0 = 1, so a(start) is never read; each step reads b(t) before a(t).
    """
    prev, cur = None, ([1], None, 1)
    out = [cur]
    for t in range(start, stop):
        bt = b(t)
        prev, cur = cur, _step(cur, prev, bt, None if prev is None else a(t))
        out.append(cur)
    return out


@dataclass(frozen=True, slots=True)
class OPSequence:
    """Monic polynomials p_0..p_N with deg p_n = n, held as canonical integer forms.

    ``forms[n]`` is the canonical form (R, O, D) of ``_scaled``, R and O
    lists: coefficient i of p_n is (R[i] + O[i] w)/D with the least D > 0,
    and O is None when p_n is rational.  Lists, not tuples: CPython 3.11 keeps
    each freed 20-element tuple on a free list that it never takes from, and
    only a full collection empties it.  The kernels read the forms as they are,
    and ``to_strings`` formats them; the Poly p_n is built anew on each read of
    ``seq[n]`` or iteration.  A case build forms no sequence:
    ``CaseBundle.q_ops`` and ``CaseBundle.p_ops`` are formed when first read.
    ``OPSequence(polys)`` checks that each element is monic of its index's
    degree.  Equality, hashing, copy and pickle work on the canonical forms,
    so a sequence compares equal however it was made; nothing changes a form.
    """

    forms: tuple

    def __init__(self, polys):
        forms = []
        for n, p in enumerate(polys):
            if p.degree != n or p.lc != ONE:
                raise ValueError(f"element {n} is not monic of degree {n}")
            forms.append(_scaled(p.coeffs))
        object.__setattr__(self, "forms", tuple(forms))

    @classmethod
    def _of_forms(cls, forms) -> "OPSequence":
        seq = object.__new__(cls)
        object.__setattr__(seq, "forms", tuple(forms))
        return seq

    def __hash__(self):
        return hash(tuple([(tuple(R), O and tuple(O), D) for R, O, D in self.forms]))

    def __getitem__(self, n: int) -> Poly:
        return _poly(self.forms[n])

    def __len__(self):
        return len(self.forms)

    def __iter__(self):
        return map(_poly, self.forms)

    def __repr__(self):
        return f"OPSequence(p_0..p_{len(self.forms) - 1})"

    def to_strings(self) -> list[list[str]]:
        """Each p_n's ``Poly.to_strings``, each coefficient formatted from the form with no Poly built."""
        return [[_format(r, o, D) for r, o in zip(R, O or [0] * len(R))] for R, O, D in self.forms]


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

    and b_m = c_m - c_{m+1}, a_m = d_m - d_{m+1} - b_m c_m, reading
    lambda_0..lambda_n, so q must be validated to order n - 1.  A one-line
    QmapError names wrong degrees, a zero gap lambda_m - lambda_j or a zero
    a_m (a RegularityError from ``Recurrence``).
    """
    return Recurrence(*_pair_candidate(pair, q, n)[:2])


def _eis_mul(x: tuple, y: tuple) -> tuple:
    """(a + b w)(c + e w) on integer pairs, with w^2 = -1 - w."""
    (a, b), (c, e) = x, y
    be = b * e
    return a * c - be, a * e + b * c - be


def _eis_over(x: tuple, y: tuple) -> CycScalar:
    """x / y for integer pairs, y != 0: x times the conjugate (c - e) - e w of y = c + e w, over its norm."""
    c, e = y
    if not e:
        return _reduced(*x, c)
    return _reduced(*_eis_mul(x, (c - e, -e)), c * c - c * e + e * e)


def _eis_add(x: tuple, y: tuple) -> tuple:
    return x[0] + y[0], x[1] + y[1]


def _eis_sub(x: tuple, y: tuple) -> tuple:
    return x[0] - y[0], x[1] - y[1]


def _pair_candidate(pair: PearsonPair, q: QParam, n: int) -> tuple[list, list, list]:
    """``pair_recurrence``'s b_0..b_{n-1} and a_1..a_{n-1}, a zero a_m kept, and lambda_0..lambda_n.

    On integers: write q = rho / sigma with rho = r + o w and sigma = d from q's triple, and
    1/rho = kappa / nu with nu an integer (kappa = 1, nu = r for a rational q; else kappa is rho's
    conjugate and nu its norm).  Then B_m = sigma^{m-1} [m]_q = sigma B_{m-1} + rho^{m-1} and
    [m]_{1/q} = B_m kappa^{m-1} / nu^{m-1}, so the scale W_m = (nu sigma)^{m-1} makes
    Lambda_m = W_m lambda_m, M_m = W_m mu_m and N_m = W_m nu_m integers of Z[w] (times the pair's
    common denominator, which every quotient below cancels):

        Lambda_m = K_m (phi_2 sigma B_{m-1} + psi_1 sigma^{m-1}),  K_m = B_m kappa^{m-1},

    and likewise M_m with phi_1, psi_0 and N_m = K_m phi_0 sigma B_{m-1}.  With W_m = y W_{m-1},
    y = nu sigma, the gaps are G1_m = Lambda_m - y Lambda_{m-1} and
    G2_m = Lambda_m - y^2 Lambda_{m-2} over W_m, so c_m = M_m / G1_m and
    d_m = (N_m G1_m + y M_m M_{m-1}) / (G1_m G2_m): one quotient, one gcd, each.  Every integer
    is held as the pair (a, b) for a + b w, b = 0 on rational input.
    """
    phi, psi = pair.phi, pair.psi
    if phi.degree > 2 or psi.degree != 1:
        raise QmapError(f"pair recurrence: need deg Phi <= 2 and deg Psi = 1, have {phi.degree} and {psi.degree}")
    R, O, E = _scaled([phi.coeff(0), phi.coeff(1), phi.coeff(2), psi.coeff(0), psi.coeff(1)])
    f0, f1, f2, g0, g1 = zip(R, O or [0] * 5)
    r, o, sigma = q.q.r, q.q.o, q.q.d
    if o:
        rho, kappa, nu = (r, o), (r - o, -o), r * r - r * o + o * o
    else:
        rho, kappa, nu = (r, 0), (1, 0), r
    y = nu * sigma
    s, y1, y2 = (sigma, 0), (y, 0), (y * y, 0)
    one, zero = (1, 0), (0, 0)
    B_prev, B, rho_pow, kappa_pow, sigma_pow, W = zero, one, one, one, one, E
    Lam, M_prev, lam, c, d = [zero], zero, [ZERO], [ZERO], [ZERO]
    for m in range(1, n + 1):
        q.bracket(m)  # [m]_q exists: q is validated to order m - 1
        if m > 1:
            rho_pow, kappa_pow, W = _eis_mul(rho_pow, rho), _eis_mul(kappa_pow, kappa), W * y
            sigma_pow = _eis_mul(sigma_pow, s)
            B_prev, B = B, _eis_add(_eis_mul(s, B), rho_pow)
        K, sB = _eis_mul(B, kappa_pow), _eis_mul(s, B_prev)
        L = _eis_mul(K, _eis_add(_eis_mul(f2, sB), _eis_mul(g1, sigma_pow)))
        M = _eis_mul(K, _eis_add(_eis_mul(f1, sB), _eis_mul(g0, sigma_pow)))
        gap1 = _eis_sub(L, _eis_mul(y1, Lam[m - 1]))
        if gap1 == zero:
            raise QmapError(f"pair recurrence: lambda_{m} = lambda_{m - 1}")
        c.append(_eis_over(M, gap1))
        if m > 1:
            gap2 = _eis_sub(L, _eis_mul(y2, Lam[m - 2]))
            if gap2 == zero:
                raise QmapError(f"pair recurrence: lambda_{m} = lambda_{m - 2}")
            top = _eis_add(_eis_mul(_eis_mul(K, _eis_mul(f0, sB)), gap1), _eis_mul(y1, _eis_mul(M, M_prev)))
            d.append(_eis_over(top, _eis_mul(gap1, gap2)))
        else:
            d.append(ZERO)
        Lam.append(L)
        M_prev = M
        lam.append(_eis_over(L, (W, 0)))
    b = [c[m] - c[m + 1] for m in range(n)]
    return b, [d[m] - d[m + 1] - b[m] * c[m] for m in range(1, n)], lam


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


def proved_pair_recurrence(u: MomentFunctional, pair: PearsonPair, q: QParam, N: int) -> Optional[tuple[Recurrence, tuple]]:
    """u's N levels and its level N from the pair alone, if the eigen-recurrence lemma (README) proves them, else None.

    Proved when N >= 1, u_0 != 0, u holds u_{2N} and satisfies the pair's Pearson
    equation on u_0..u_V, V = min(u.order, 2N + 1), lambda_0..lambda_{N+1} are
    distinct and the pair's a_1..a_{N-1} are nonzero.  Then the pair's N levels are
    ``recurrence_from_moments(u, N)``'s, and its level N is ``next_level``'s (b, a):
    a_N = h_N / h_{N-1}, read raw, so a zero a_N is "not regular at N", and b_N
    when V = 2N + 1 and a_N != 0.  No polynomial is formed and no row of moments
    read: the cost is the pair's levels and the Pearson rows, small times large.
    """
    V = min(u.order, 2 * N + 1)
    if N < 1 or V < 2 * N or not u.moments[0]:
        return None
    try:
        b, a, lam = _pair_candidate(pair, q, N + 1)
        rec = Recurrence(b[:N], a[: N - 1])
    except QmapError:
        return None
    if len(set(lam)) <= N + 1 or not _pearson_holds(u, pair, q, V):
        return None
    return rec, (tuple(b) if V > 2 * N and a[-1] else rec.b, rec.a + (a[-1],))


def proved_recurrence(u: MomentFunctional, pair: PearsonPair, q: QParam, N: int) -> tuple[Recurrence, tuple]:
    """u's N levels and its level N (``next_level``'s (b, a)): ``proved_pair_recurrence``, else
    ``recurrence_from_moments(u, N)`` and ``next_level``, whose errors are the caller's.

    Needs N >= 1 and u holding u_{2N} (u.order >= 2N): the fallback reads level N, so
    N = 0 raises QmapError and u.order = 2N - 1 raises TruncationError."""
    proved = proved_pair_recurrence(u, pair, q, N)
    if proved is not None:
        return proved
    rec, ops = recurrence_from_moments(u, N)
    return rec, next_level(u, rec, ops)


def next_level(u: MomentFunctional, rec: Recurrence, ops: OPSequence) -> tuple[tuple, tuple]:
    """``rec``'s (b, a) with u's a_N, and b_N too when u holds u_{2N+1} and a_N != 0; a_N = 0 if u is not regular at N.

    ``rec`` and ``ops`` are u's N = len(rec.b) levels and p_0..p_N, as the
    Chebyshev algorithm gives them where the pair's proof does not apply (the
    proof gives level N from the pair).  With h_n = <u, x^n p_n>, this is the
    Chebyshev algorithm's level N:

        a_N = h_N / h_{N-1},    b_N = <u, x^{N+1} p_N> / h_N - <u, x^N p_{N-1}> / h_{N-1},

    two dot products of p_{N-1} and p_N against u's last moments, four with
    b_N.  Each row is cut to the moments it reads, since ``_correlate`` sums
    a short slice without complaint.
    """
    N = len(rec.b)
    if N < 1:
        raise QmapError("next_level needs at least one proved level, have 0")
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

    Checks every pair n <= m <= n_max with n + m inside u's effective order,
    in the order n, then m, and reports the first that fails.  By bilinearity
    <u, p_n p_m> = sum_{j <= n} c_{n,j} sigma_{m,j} with
    sigma_{m,j} = <u, x^j p_m>: row m of sigma is min(m, order - m) + 1 entries
    of ``_correlate``, and each pair one dot product with p_n's numerators
    (D_n <u, p_n p_m>), so no Poly is built; O(N^3) operations in all.
    ``qmap ops`` runs it only where the pair's proof fails.
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
