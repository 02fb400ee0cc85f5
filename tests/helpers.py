"""Independent oracles and reference data shared between test modules."""

from __future__ import annotations

import sys
from fractions import Fraction
from operator import add, sub
from typing import Optional

from hypothesis import strategies as st

from qmap import (
    ONE,
    ZERO,
    ACDTriple,
    CycScalar,
    LaurentSeries,
    MomentFunctional,
    OPSequence,
    Poly,
    Recurrence,
    act,
    compose_xk,
    dilate_poly,
    divrem,
    hahn_functional,
    hahn_poly_qinv,
    left_mul,
    poly_gcd,
)
from qmap.errors import QmapError, RegularityError, TruncationError
from qmap.families import FAMILY_LAGUERRE
from qmap.functionals import _correlate, _dot, _scaled
from qmap import opseq
from qmap.mapping import lift_power
from qmap.opseq import OrthogonalityReport, _forms, delta_det
from qmap.scalars import parse_scalar
from qmap.stieltjes import SeriesReport

X = Poly.x()


# -- Q(w) arithmetic on two Fractions, as CycScalar did it before its integer triple --
# Every result goes through the public, validating constructor; ``radd`` and
# ``rmul`` are ``add`` and ``mul`` with the operands' roles unchanged.


def _co_oracle(x):
    if isinstance(x, CycScalar):
        return x
    if isinstance(x, (int, Fraction)):
        return CycScalar(x)
    return None


def add_oracle(self, other):
    o = _co_oracle(other)
    if o is None:
        return NotImplemented
    return CycScalar(self.re + o.re, self.om + o.om)


def sub_oracle(self, other):
    o = _co_oracle(other)
    if o is None:
        return NotImplemented
    return CycScalar(self.re - o.re, self.om - o.om)


def rsub_oracle(self, other):
    o = _co_oracle(other)
    if o is None:
        return NotImplemented
    return CycScalar(o.re - self.re, o.om - self.om)


def neg_oracle(self):
    return CycScalar(-self.re, -self.om)


def mul_oracle(self, other):
    o = _co_oracle(other)
    if o is None:
        return NotImplemented
    a, b, c, d = self.re, self.om, o.re, o.om
    if not b and not d:
        return CycScalar(a * c)
    # (a + b*w)(c + d*w) with w^2 = -1 - w
    bd = b * d
    return CycScalar(a * c - bd, a * d + b * c - bd)


def inv_oracle(self):
    n = self.norm()
    if not n:
        raise ZeroDivisionError("division by zero in Q(w)")
    if not self.om:
        return CycScalar(1 / self.re)
    # conjugate is (re - om) - om*w
    return CycScalar((self.re - self.om) / n, -self.om / n)


def truediv_oracle(self, other):
    o = _co_oracle(other)
    if o is None:
        return NotImplemented
    return mul_oracle(self, inv_oracle(o))


def rtruediv_oracle(self, other):
    o = _co_oracle(other)
    if o is None:
        return NotImplemented
    return mul_oracle(o, inv_oracle(self))


def ops_from_recurrence_oracle(rec: Recurrence, N: int) -> OPSequence:
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


def jacobi_moments(rec, u0, order):
    """mu_m = u_0 (J^m)_{00} for the tridiagonal matrix J of the recurrence.

    The vector holds the coordinates of u_0 x^m in the basis p_0, p_1, ...;
    multiplication by x maps c to c_{k-1} + b_k c_k + a_{k+1} c_{k+1}.  The
    truncation to len(rec.b) rows is exact for m <= 2 len(rec.b) - 1.
    """
    size = len(rec.b)
    vec = [u0] + [ZERO] * (size - 1)
    out = []
    for _ in range(order + 1):
        out.append(vec[0])
        vec = [
            (vec[k - 1] if k else ZERO) + rec.b[k] * vec[k] + (rec.a_at(k + 1) * vec[k + 1] if k + 1 < size else ZERO)
            for k in range(size)
        ]
    return out


def recurrence_from_moments_oracle(u: MomentFunctional, N: int) -> tuple[Recurrence, OPSequence]:
    """Recover b_0..b_{N-1}, a_1..a_{N-1} and p_0..p_N orthogonal for u.

    Uses the inner-product quotients b_n = <u, x p_n^2>/<u, p_n^2> and
    a_n = <u, p_n^2>/<u, p_{n-1}^2>; a vanishing norm names the level at
    which u stops being regular.
    """
    if 2 * N - 1 > u.order:
        raise TruncationError(f"need effective order >= {2 * N - 1}, have {u.order}")
    x = Poly.x()
    polys = [Poly.one()]
    b: list[CycScalar] = []
    a: list[CycScalar] = []
    h_prev: Optional[CycScalar] = None
    for n in range(N):
        pn = polys[-1]
        pn2 = pn * pn
        hn = act(u, pn2)
        if not hn:
            raise RegularityError(f"not regular at level {n}: <u, p_{n}^2> = 0")
        b.append(act(u, x * pn2) * hn.inv())
        nxt = (x - Poly.constant(b[-1])) * pn
        if n:
            a.append(hn * h_prev.inv())
            nxt = nxt - a[-1] * polys[-2]
        h_prev = hn
        polys.append(nxt)
    return Recurrence(b, a), OPSequence(polys)


def certify_recurrence_oracle(u: MomentFunctional, cand: Recurrence, N: int) -> Optional[tuple[Recurrence, OPSequence]]:
    """The candidate's first N levels and p_0..p_N if two rows of mixed moments prove them u's; None otherwise.

    The certificate builds ran before the eigen proof, and still the proof of a
    semiclassical u, where the symmetry lemma does not apply.  If
    <u, x^l p_N> = 0 for l < N, <u, x^l p_{N-1}> = 0 for l < N - 1 and
    <u, x^{N-1} p_{N-1}> != 0, then running the recurrence downwards (every
    a_n != 0),

        a_n <u, x^l p_{n-1}> = <u, x^{l+1} p_n> - b_n <u, x^l p_n> - <u, x^l p_{n+1}>,

    makes each p_n with n < N orthogonal to x^l for l < n with
    <u, x^n p_n> != 0, so the result is exactly ``recurrence_from_moments(u, N)``.
    The rows, N entries each, read u_0..u_{2N-1}.  None when the candidate has
    fewer than N levels, when N < 1, when u lacks u_{2N-1}, or when a
    condition fails.
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


def orthogonality_check_oracle(u: MomentFunctional, ops: OPSequence, n_max: Optional[int] = None) -> OrthogonalityReport:
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


def next_level_oracle(u: MomentFunctional, rec: Recurrence, ops: OPSequence) -> tuple[tuple, tuple]:
    """``rec``'s (b, a) with u's a_N, and b_N too when u holds u_{2N+1} and a_N != 0, from two rows over p_{N-1} and p_N.

    ``rec`` and ``ops`` are u's N = len(rec.b) >= 1 levels and p_0..p_N; with
    h_n = <u, x^n p_n>, a_N = h_N / h_{N-1} and
    b_N = <u, x^{N+1} p_N> / h_N - <u, x^N p_{N-1}> / h_{N-1}.  This was the
    Chebyshev route's level N before the Chebyshev loop ran one row further.
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


# -- the Pearson equation, before its integer rows --------------------------------


def pearson_residual_oracle(u: MomentFunctional, pair, q) -> tuple:
    """Entries <H_q(Phi u) - Psi u, x^n> composed from the functional operators, as far as both sides reach."""
    w1 = hahn_functional(left_mul(pair.phi, u), q)
    w2 = left_mul(pair.psi, u)
    n_max = min(w1.order, w2.order)
    return tuple([w1.moments[n] - w2.moments[n] for n in range(n_max + 1)])


def _residual_row(phi: Poly, psi: Poly, q, n: int) -> dict:
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


def pearson_moments_oracle(pair, u0, N: int, q) -> MomentFunctional:
    """``pearson_moments`` as it read each row from ``_residual_row``, a dict summed term by term."""
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


# -- correlation rows one Q(w) product at a time, as before the integer kernel --


def left_mul_oracle(phi: Poly, u: MomentFunctional) -> MomentFunctional:
    """(phi u)_n = <u, phi x^n>; effective order drops by deg phi."""
    if phi.is_zero:
        return MomentFunctional([ZERO] * (u.order + 1))
    d = phi.degree
    if d > u.order:
        raise TruncationError(f"deg phi = {d} exceeds effective order {u.order}")
    return MomentFunctional([_dot(phi.coeffs, u.moments[n : n + d + 1]) for n in range(u.order - d + 1)])


def u_poly_oracle(u: MomentFunctional, f: Poly) -> Poly:
    """Coefficient j is sum_{i >= j} f_i u_{i-j}."""
    if f.degree > u.order:
        raise TruncationError(f"polynomial degree {f.degree} exceeds effective order {u.order}")
    if f.is_zero:
        return Poly.zero()
    return Poly([_dot(f.coeffs[j:], u.moments) for j in range(f.degree + 1)])


def sigma_row_oracle(p: Poly, u: MomentFunctional, length: int) -> list:
    """sigma_j = <u, x^j p> for j < length, one row of orthogonality_check's table."""
    return [_dot(p.coeffs, u.moments[j:]) for j in range(length)]


# -- the series algebra of the table's two Stieltjes checks, before the integer
# residual and the closed form of the lift lemma --------------------------------


def series_sub(S: LaurentSeries, T: LaurentSeries) -> LaurentSeries:
    """S - T term by term, known to the shallower depth."""
    pp = tuple(x - y for x, y in zip(S.principal, T.principal))
    return LaurentSeries(S.poly_part - T.poly_part, pp)


def first_nonzero(S: LaurentSeries) -> Optional[str]:
    """Human-readable locator of the first nonzero coefficient, or None."""
    for i, c in enumerate(S.poly_part.coeffs):
        if c:
            return f"z^{i}"
    for n, c in enumerate(S.principal):
        if c:
            return f"z^-{n + 1}"
    return None


def hahn_qinv_series(S: LaurentSeries, q) -> LaurentSeries:
    """H at parameter 1/q termwise: z^(-n-1) maps to -q [n+1]_q z^(-n-2), so the depth grows by one."""
    pp = hahn_poly_qinv(S.poly_part, q)
    out = [ZERO] * (S.depth + 1)
    for n, c in enumerate(S.principal):
        out[n + 1] = -(q.q_bracket(n + 1) * c)
    return LaurentSeries(pp, out)


def poly_mul_series(A: Poly, S: LaurentSeries) -> LaurentSeries:
    """A(z) * S(z) by the product of every pair of terms; the depth shrinks by deg A."""
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
    out = [ZERO] * (k * S.depth)
    for n, c in enumerate(S.principal):
        out[k * n + k - 1] = c
    return LaurentSeries(Poly.zero(), out)


def stieltjes_residual_oracle(t: ACDTriple, S: LaurentSeries, q) -> LaurentSeries:
    """A (H_{1/q} S) - C S - D composed from the series operations."""
    term1 = poly_mul_series(t.A, hahn_qinv_series(S, q))
    term2 = poly_mul_series(t.C, S)
    depth = min(term1.depth, term2.depth)
    return series_sub(series_sub(term1, term2), LaurentSeries.from_poly(t.D, depth))


def verify_susvq_oracle(Su: LaurentSeries, Sv: LaurentSeries, eta: Poly, q) -> SeriesReport:
    """The substitution identity of ``verify_susvq``, both sides formed as series and subtracted."""
    k = lift_power(eta)
    lhs_mult = (q.bracket_inv(k) * Poly.monomial(k - 1)) * dilate_poly(eta, q.q.inv())
    lhs = poly_mul_series(lhs_mult, substitute_zk(hahn_qinv_series(Sv, q.pow(k)), k))
    rhs = series_sub(hahn_qinv_series(Su, q), poly_mul_series(hahn_poly_qinv(eta, q), substitute_zk(Sv, k)))
    diff = series_sub(lhs, rhs)
    return SeriesReport(diff.is_zero, diff.depth, first_nonzero(diff))


def dense_det(matrix):
    """General Laplace expansion along the first column (oracle only)."""
    size = len(matrix)
    if size == 0:
        return Poly.one()
    if size == 1:
        return matrix[0][0]
    total = Poly.zero()
    sign = 1
    for r in range(size):
        entry = matrix[r][0]
        if not entry.is_zero:
            minor = [row[1:] for idx, row in enumerate(matrix) if idx != r]
            total = total + sign * entry * dense_det(minor)
        sign = -sign
    return total


def delta_bruteforce(view, n, i, j):
    """Explicit-matrix determinant oracle for Delta_n(i, j; x)."""
    if j < i - 2:
        return Poly.zero()
    if j == i - 2:
        return Poly.one()
    rows = list(range(i - 1, j + 1))
    size = len(rows)
    matrix = [[Poly.zero()] * size for _ in range(size)]
    for r, t in enumerate(rows):
        matrix[r][r] = X - Poly.constant(view.b(n, t))
        if r + 1 < size:
            matrix[r][r + 1] = Poly.one()
            matrix[r + 1][r] = Poly.constant(view.a(n, rows[r + 1]))
    return dense_det(matrix)


def r_shift_poly_oracle(view, m, n, eta):
    """The condition-(iv) combination with all four terms formed for every n."""
    if n == 0:
        return Poly.zero()
    k = view.k
    t1 = view.a(n, m + 1) * delta_det(view, n, m + 3, m + k - 1)
    t2 = view.a(0, m + 1) * delta_det(view, 0, m + 3, m + k - 1)
    t3 = view.a(n, m) * delta_det(view, n - 1, m + 2, m + k - 2)
    t4 = view.a(0, m) * (delta_det(view, 0, 1, m - 2) * eta)
    return t1 - t2 + t3 - t4


def pi_k_oracle(view, m, eta, r0):
    """pi_k = Delta_0(1, m) eta - a_0^{(m+1)} Delta_0(m+3, m+k-1) + r_0, formed directly."""
    k = view.k
    return delta_det(view, 0, 1, m) * eta - view.a(0, m + 1) * delta_det(view, 0, m + 3, m + k - 1) + Poly.constant(r0)


def power_identity_oracle(bundle) -> Optional[int]:
    """The dense check p_{kn} = q_n(x^k) over every n both sequences reach.

    Returns the first failing n, or None.  ``build_power_case`` reads the
    identity from the power lemma (README) instead.
    """
    k = bundle.mapping.k
    for n in range(min(len(bundle.q_ops), len(bundle.p_ops) // k)):
        if bundle.p_ops[k * n] != compose_xk(bundle.q_ops[n], k):
            return n
    return None


def mapping_failure_oracle(mapping, rec_q: Recurrence) -> Optional[str]:
    """The stage and message of the first check that the mapping fails against q's recurrence; None if it passes.

    The checks a build made on ``build_mapping``'s output before it read the
    mapping in the closed form of the power lemma.
    """
    # monic sequences agree up to q_n iff their (b_j, a_j) agree for j < n; a_0 = s_0 = 1
    pairs = zip(zip(mapping.r, (ONE,) + mapping.s), zip(rec_q.b, (ONE,) + rec_q.a))
    for n, (mapped, moment_side) in enumerate(pairs, 1):
        if mapped != moment_side:
            return f"mapping: mapped q_{n} disagrees with moment-side q_{n}"
    if mapping.pi_k != Poly.monomial(mapping.k):
        return f"power-identity: pi_k != x^{mapping.k}"
    return None


def spy_everywhere(monkeypatch, fn) -> list:
    """Record the positional arguments of each call of ``fn`` through every ``qmap`` module that holds it."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if module is not None and (name == "qmap" or name.startswith("qmap.")):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, spy)
    return calls


def no_candidate(*args):
    raise QmapError("no candidate")


def patch_candidate(monkeypatch, spoil) -> None:
    """Make every pair proof read spoil(b, a, lam) for the pair's levels b, a and eigenvalues lam."""
    real = opseq._pair_candidate
    monkeypatch.setattr(opseq, "_pair_candidate", lambda *args: spoil(*real(*args)))


def repeated_lambda(m: int, j: int = 0):
    """A spoil for ``patch_candidate`` that sets lambda_m = lambda_j and keeps the levels."""

    def spoil(b, a, lam):
        return b, a, [*lam[:m], lam[j], *lam[m + 1 :]]

    return spoil


def zero_a(m: int):
    """A spoil for ``patch_candidate`` that sets a_m = 0 and keeps b and lambda."""

    def spoil(b, a, lam):
        return b, [*a[: m - 1], ZERO, *a[m:]], lam

    return spoil


def pair_candidate_oracle(pair, q, n: int) -> tuple[list, list, list]:
    """``opseq._pair_candidate`` on CycScalar arithmetic, as it was before its integer form.

    Returns b_0..b_{n-1}, a_1..a_{n-1} (a zero kept) and lambda_0..lambda_n, mu_0..mu_n and
    nu_0..nu_n as one list: with t_m = [m]_{1/q} [m-1]_q, lambda_m = phi_2 t_m + psi_1 [m]_{1/q},
    mu_m = phi_1 t_m + psi_0 [m]_{1/q} and nu_m = phi_0 t_m, then
    c_m = mu_m / (lambda_m - lambda_{m-1}), d_m = (nu_m + c_m mu_{m-1}) / (lambda_m - lambda_{m-2}),
    b_m = c_m - c_{m+1} and a_m = d_m - d_{m+1} - b_m c_m.
    """
    phi, psi = pair.phi, pair.psi
    if phi.degree > 2 or psi.degree != 1:
        raise QmapError(f"pair recurrence: need deg Phi <= 2 and deg Psi = 1, have {phi.degree} and {psi.degree}")
    lam, mu, nu, c, d = [], [], [], [], []

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
        nu.append(phi.coeff(0) * t)
        c.append(over_gap(mu[m], m, 1) if m else ZERO)
        d.append(over_gap(nu[m] + c[m] * mu[m - 1], m, 2) if m > 1 else ZERO)
    b = [c[m] - c[m + 1] for m in range(n)]
    return b, [d[m] - d[m + 1] - b[m] * c[m] for m in range(1, n)], lam + mu + nu


def eigen_holds_oracle(forms, eigen) -> bool:
    """Whether L p_n = lambda_n p_n for every form p_n, L being the operator of ``opseq.pair_recurrence``.

    ``eigen`` is the ``_scaled`` form of lambda_0..lambda_N, mu_0..mu_N and
    nu_0..nu_N (``pair_candidate_oracle``'s list).  On p_n's numerators c_j, coefficient
    j < n of (L - lambda_n) p_n is (lambda_j - lambda_n) c_j + mu_{j+1} c_{j+1} +
    nu_{j+2} c_{j+2}, up to the two denominators.  The check a build's proof made on
    p_0..p_N before the eigen-recurrence lemma (README) made it a consequence.
    """
    R, O, _ = eigen
    K = len(R) // 3
    parts = [(E[:K], E[K + 1 : 2 * K], E[2 * K + 2 :] + [0]) for E in (R, O) if E is not None]

    def row(part, C, n):  # the coefficients j < n for one integer part of the values and of p_n
        lam, mu, nu = parts[part]
        terms = zip(lam[:n], mu, nu, C, C[1:], [*C[2:], 0])
        return [(l - lam[n]) * c + m * c1 + v * c2 for l, m, v, c, c1, c2 in terms]

    for n, (C, Co, _) in enumerate(forms):
        if O is None:
            rows = (row(0, C, n), row(0, Co or (), n))
        else:  # (e + f w)(c + d w) = (e c - f d) + (e d + f (c - d)) w
            Co = Co or [0] * len(C)
            diff = list(map(sub, C, Co))
            rows = (map(sub, row(0, C, n), row(1, Co, n)), map(add, row(0, Co, n), row(1, diff, n)))
        if any(map(any, rows)):
            return False
    return True


def family_recurrence(family: str, a, b, Q, n: int) -> Recurrence:
    """The monic b_0..b_{n-1}, a_1..a_{n-1} of FAMILY_LAGUERRE or FAMILY_JACOBI at parameter Q.

    The closed forms of Koekoek, Lesky and Swarttouw, *Hypergeometric
    Orthogonal Polynomials and Their q-Analogues* (Springer 2010), section
    14.20 (little q-Laguerre) and section 14.12 (little q-Jacobi), in the
    normalisation of the pairs of ``qmap.families``: the oracle of
    ``opseq.pair_recurrence``.  Little Q-Laguerre: b_j = Q^j (1 + a) -
    a Q^{2j} (1 + Q) and a_j = a Q^{2j-1} (1 - Q^j)(1 - a Q^j).  Little
    Q-Jacobi: b_j = A_j + C_j and a_j = A_{j-1} C_j with
    A_j = Q^j (1 - a Q^{j+1})(1 - ab Q^{j+1}) / ((1 - ab Q^{2j+1})(1 - ab Q^{2j+2})) and
    C_j = a Q^j (1 - Q^j)(1 - b Q^j) / ((1 - ab Q^{2j})(1 - ab Q^{2j+1})).
    A zero denominator raises a QmapError, and so does a zero a_j (a
    RegularityError from ``Recurrence``).
    """
    a = CycScalar.coerce(a)
    Qs = Q.q
    pw = [ONE]
    for _ in range(2 * n):
        pw.append(pw[-1] * Qs)
    if family == FAMILY_LAGUERRE:
        bs = [pw[j] * (1 + a) - a * pw[2 * j] * (1 + Qs) for j in range(n)]
        return Recurrence(bs, [a * pw[2 * j - 1] * (1 - pw[j]) * (1 - a * pw[j]) for j in range(1, n)])
    b = CycScalar.coerce(b)
    ab = a * b
    den = []  # den[m] = 1 - ab Q^m for m <= 2n
    for m, p in enumerate(pw):
        d = 1 - ab * p
        if not d:
            raise QmapError(f"{family} recurrence: 1 - ab Q^{m} = 0")
        den.append(d)
    A = [pw[j] * (1 - a * pw[j + 1]) * (1 - ab * pw[j + 1]) * (den[2 * j + 1] * den[2 * j + 2]).inv() for j in range(n)]
    C = [a * pw[j] * (1 - pw[j]) * (1 - b * pw[j]) * (den[2 * j] * den[2 * j + 1]).inv() for j in range(n)]
    return Recurrence([x + y for x, y in zip(A, C)], [A[j - 1] * C[j] for j in range(1, n)])


# -- conveniences that only the tests use --------------------------------------


def kernel_scalars(fractions):
    """Q(w) values of every shape the integer kernels branch on: zero, rational, w-only and mixed."""
    return st.one_of(
        st.just(ZERO),
        st.builds(CycScalar, fractions),
        st.builds(lambda om: CycScalar(0, om), fractions),
        st.builds(CycScalar, fractions, fractions),
    )


def call_spy(monkeypatch, owner, name: str) -> list:
    """Record the positional arguments of each call of ``owner.name`` for the rest of the test."""
    calls = []
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs))
    return calls


def poly_from_strings(items) -> Poly:
    """The inverse of ``Poly.to_strings``."""
    return Poly([parse_scalar(s) for s in items])


def series_evaluate(S, z) -> CycScalar:
    """Exact value of the truncated series S at a nonzero scalar point."""
    z = CycScalar.coerce(z)
    acc = S.poly_part(z)
    zi = z.inv()
    p = CycScalar(1)
    for c in S.principal:
        p = p * zi
        acc = acc + c * p
    return acc


def reduce_acd_oracle(t: ACDTriple) -> tuple[ACDTriple, tuple[Poly, ...]]:
    """``reduce_acd`` as a loop: divide by the monic gcd of (A, C, D) until it is constant."""
    A, C, D = t.A, t.C, t.D
    trace: list[Poly] = []
    while True:
        g = poly_gcd(poly_gcd(A, C), D)
        if g.is_zero or g.degree == 0:
            break
        A = divrem(A, g)[0]
        C = divrem(C, g)[0]
        D = divrem(D, g)[0]
        trace.append(g)
    lead = A.lc.inv()
    return ACDTriple(A * lead, C * lead, D * lead), tuple(trace)


def scale_acd(t: ACDTriple, s) -> ACDTriple:
    """(sA, sC, sD): the same Stieltjes equation, scaled by a nonzero scalar."""
    s = CycScalar.coerce(s)
    return ACDTriple(t.A * s, t.C * s, t.D * s)


# -- the documented reduction chain of the laguerre-type class-1 case ---------
# Stage 2 is the raw lifted triple divided by v0 z^2; stage 3 divides by z
# at eta roots (0, -tau); stage 4 divides by z once more when a = 1/q;
# stage 5 divides by (z + tau) when tau^3 = -1.


def chain_stage2(q, tau, a, u0):
    qs = q.q
    z1, z2 = CycScalar(0), -tau
    ell = a.inv() * (qs ** 3 - 1).inv() * qs ** 3
    bk = q.bracket_inv(3)
    f1 = Poly([-z1, qs.inv()]) * Poly([-z2, qs.inv()])  # (z/q - z1)(z/q - z2)
    A = X * Poly([-z1, 1]) * Poly([-z2, 1])
    C = bk * f1 * (ell * Poly([a * qs ** 3 - 1, 0, 0, 1]) - Poly.constant(qs ** 3)) + X * Poly(
        [-(z1 + z2), qs.inv() + 1]
    )
    D = u0 * bk * ell * f1 * Poly([-z1, 1]) * Poly([-z2, 1])
    return ACDTriple(A, C, D)


def chain_stage3(q, tau, a, u0):
    qs = q.q
    c = qs.inv() * (qs - 1).inv() * a.inv()
    A = X * Poly([tau, 1])
    C = c * Poly([tau * qs * (a * qs - 1), a * qs ** 2 - 1, 0, tau * qs, 1])
    D = u0 * c * X * Poly([tau * qs, 1]) * Poly([tau, 1])
    return ACDTriple(A, C, D)


def chain_stage4(q, tau, u0):
    qs = q.q
    A = Poly([tau, 1])
    C = (qs - 1).inv() * Poly([qs - 1, 0, tau * qs, 1])
    D = u0 * (qs - 1).inv() * Poly([tau * qs, 1]) * Poly([tau, 1])
    return ACDTriple(A, C, D)


def chain_stage5(q, tau, u0):
    qs = q.q
    A = Poly.one()
    C = (qs - 1).inv() * Poly([tau ** 2 * (1 - qs), -tau * (1 - qs), 1])
    D = u0 * (qs - 1).inv() * Poly([tau * qs, 1])
    return ACDTriple(A, C, D)
