"""Recurrences, moment-based recovery, orthogonality, block determinants."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from qmap import (
    OMEGA,
    ONE,
    ZERO,
    BlockView,
    CycScalar,
    MomentFunctional,
    OPSequence,
    PearsonPair,
    Poly,
    QParam,
    Recurrence,
    act,
    delta_det,
    hahn_poly,
    hahn_poly_qinv,
    ops_from_recurrence,
    orthogonality_check,
    pearson_moments,
    recurrence_from_moments,
)
from qmap.errors import QmapError, RegularityError, TruncationError
from qmap.families import little_q_jacobi_pair, little_q_laguerre_pair
from qmap.functionals import _scaled
from qmap import opseq
from qmap.opseq import OrthogonalityReport

from conftest import random_nonzero_scalar, random_scalar
from helpers import (
    call_spy,
    certify_recurrence_oracle,
    eigen_holds_oracle,
    jacobi_moments,
    kernel_scalars,
    next_level_oracle,
    ops_from_recurrence_oracle,
    orthogonality_check_oracle,
    pair_candidate_oracle,
    patch_candidate,
    recurrence_from_moments_oracle,
    repeated_lambda,
    zero_a,
)

X = Poly.x()


def _random_recurrence(rng, n):
    b = [random_scalar(rng, 4, 4) for _ in range(n)]
    a = [random_nonzero_scalar(rng, 4, 4) for _ in range(n - 1)]
    return Recurrence(b, a)


def test_ops_from_recurrence_examples():
    rec = Recurrence([0, 0, 0], [1, 1])
    ops = ops_from_recurrence(rec, 2)
    assert ops[2] == X * X - 1

    tau = Fraction(2, 3)
    rec2 = Recurrence([tau, 0], [1])
    assert ops_from_recurrence(rec2, 1)[1] == X - tau


def test_ops_from_recurrence_expansion():
    rng = random.Random(31)
    for _ in range(50):
        rec = _random_recurrence(rng, 3)
        ops = ops_from_recurrence(rec, 2)
        b0, b1, a1 = rec.b_at(0), rec.b_at(1), rec.a_at(1)
        assert ops[2] == (X - b0) * (X - b1) - Poly.constant(a1)


def test_recurrence_from_moments_regularity_error():
    # Dirac-like moments (1, 0, 0, ...) fail at level 1
    u = MomentFunctional([1] + [0] * 10)
    with pytest.raises(RegularityError, match="level 1"):
        recurrence_from_moments(u, 4)


def test_truncation_error_message():
    with pytest.raises(TruncationError) as exc:
        recurrence_from_moments(MomentFunctional([1] * 7), 4)
    assert str(exc.value) == "need effective order >= 7, have 6"


# -- Chebyshev recovery against the inner-product oracle ----------------------

small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=5)


def _scalars(omega: bool):
    return st.builds(CycScalar, small_fractions, small_fractions if omega else st.just(Fraction(0)))


@st.composite
def regular_recurrences(draw):
    """A recurrence with b_0..b_N, a_1..a_N (all a_n != 0) and a nonzero u_0."""
    scalars = _scalars(draw(st.booleans()))
    N = draw(st.integers(1, 7))
    b = draw(st.lists(scalars, min_size=N + 1, max_size=N + 1))
    a = draw(st.lists(scalars.filter(bool), min_size=N, max_size=N))
    return Recurrence(b, a), draw(scalars.filter(bool))


def _outcome(recover, u, N):
    try:
        return recover(u, N)
    except RegularityError as exc:
        return "RegularityError", str(exc)


@settings(max_examples=60, deadline=None)
@given(regular_recurrences(), st.integers(1, 4))
def test_recovery_reads_only_u_up_to_2n_minus_1(data, extra):
    # the Chebyshev algorithm and the oracle both stop at u_{2N-1}
    rec, u0 = data
    N = len(rec.b)
    longer = jacobi_moments(rec, u0, 2 * N - 1 + extra)
    exact = MomentFunctional(longer[: 2 * N])
    assert exact.order == 2 * N - 1
    expected = _outcome(recurrence_from_moments, MomentFunctional(longer), N)
    assert _outcome(recurrence_from_moments, exact, N) == expected
    assert _outcome(recurrence_from_moments_oracle, exact, N) == expected


@settings(max_examples=80, deadline=None)
@given(regular_recurrences())
def test_chebyshev_recovers_generating_recurrence(data):
    rec, u0 = data
    N = len(rec.b) - 1
    u = MomentFunctional(jacobi_moments(rec, u0, 2 * N))
    got = recurrence_from_moments(u, N)
    assert got == recurrence_from_moments_oracle(u, N)
    assert got[0] == Recurrence(rec.b[:N], rec.a[: N - 1])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_chebyshev_matches_oracle_on_raw_moments(data):
    omega = data.draw(st.booleans())
    entries = st.one_of(st.integers(-2, 2).map(Fraction), small_fractions)
    scalars = st.builds(CycScalar, entries, entries if omega else st.just(Fraction(0)))
    N = data.draw(st.integers(0, 6))
    u = MomentFunctional(data.draw(st.lists(scalars, min_size=2 * N + 1, max_size=2 * N + 3)))
    assert _outcome(recurrence_from_moments, u, N) == _outcome(recurrence_from_moments_oracle, u, N)


# -- the two-polynomial certificate, now the oracle of the eigen proof -----------


def _truncated(rec: Recurrence, M: int) -> Recurrence:
    return Recurrence(rec.b[:M], rec.a[: M - 1])


@settings(max_examples=50, deadline=None)
@given(regular_recurrences(), st.data())
def test_certificate_completes_a_true_candidate_like_the_chebyshev(data, draw):
    # any N of u's own levels, from a candidate of N levels or more, are proved from
    # u_0..u_{2N-1} and are exactly what the Chebyshev recovers
    rec, u0 = data
    N = draw.draw(st.integers(1, len(rec.b)))
    u = MomentFunctional(jacobi_moments(rec, u0, 2 * N - 1))
    cand = rec if draw.draw(st.booleans()) else _truncated(rec, N)
    assert certify_recurrence_oracle(u, cand, N) == recurrence_from_moments(u, N)


@settings(max_examples=50, deadline=None)
@given(regular_recurrences(), st.data())
def test_certificate_rejects_a_changed_level(data, draw):
    rec, u0 = data
    N = draw.draw(st.integers(1, len(rec.b)))
    level = draw.draw(st.integers(0, N - 1))
    u = MomentFunctional(jacobi_moments(rec, u0, 2 * N - 1))
    b, a = list(rec.b[:N]), list(rec.a[: N - 1])
    if level and draw.draw(st.booleans()):
        a[level - 1] = a[level - 1] + (1 if a[level - 1] != -1 else 2)
    else:
        b[level] = b[level] + 1
    assert certify_recurrence_oracle(u, Recurrence(b, a), N) is None


def test_certificate_needs_every_moment_its_rows_read(q_half):
    u = pearson_moments(little_q_laguerre_pair(Fraction(1, 4), q_half), 1, 24, q_half)
    rec, ops = recurrence_from_moments(u, 12)
    assert certify_recurrence_oracle(u, rec, 12) == (rec, ops)
    assert certify_recurrence_oracle(MomentFunctional(u.moments[:24]), rec, 12) == (rec, ops)  # u_0..u_23
    assert certify_recurrence_oracle(MomentFunctional(u.moments[:23]), rec, 12) is None  # no u_23
    assert certify_recurrence_oracle(u, _truncated(rec, 11), 12) is None  # 11 levels for N = 12


def test_proved_recurrence_certifies_the_pair_or_runs_the_chebyshev(q_half, monkeypatch):
    pair = little_q_laguerre_pair(Fraction(1, 4), q_half)
    u = pearson_moments(pair, 1, 24, q_half)
    chebyshev, calls = opseq._chebyshev_levels, []
    monkeypatch.setattr(opseq, "_chebyshev_levels", lambda u, N: calls.append(N) or chebyshev(u, N))
    for N in (1, 12):  # N = 1 too: the proof gives every level the pair gives, and level N
        rec, ops = recurrence_from_moments(u, N)
        expected = rec, next_level_oracle(u, rec, ops)
        calls.clear()
        assert opseq.proved_recurrence(u, pair, q_half, N) == expected and calls == []
        # the pair of another functional: its recurrence is not u's, and its Pearson equation says so
        other = little_q_laguerre_pair(Fraction(1, 3), q_half)
        assert opseq.proved_recurrence(u, other, q_half, N) == expected and calls == [N]
        # a pair that fixes no recurrence (deg Phi = 3)
        assert opseq.proved_recurrence(u, PearsonPair(Poly.monomial(3), X), q_half, N) == expected and calls == [N, N]


def test_proved_recurrence_falls_back_to_the_chebyshev_regularity_error(q_half):
    # (1, 0, 1, 0, 1, 0, ...) is not regular at level 2, so no 4-level candidate is proved,
    # and the Chebyshev's own error reaches the caller
    u = MomentFunctional([1, 0, 1, 0, 1, 0, 0, 0, 0])
    with pytest.raises(RegularityError) as direct:
        recurrence_from_moments(u, 4)
    assert str(direct.value) == "not regular at level 2: <u, p_2^2> = 0"
    for pair in (little_q_laguerre_pair(Fraction(1, 4), q_half), PearsonPair(Poly.monomial(3), X)):
        with pytest.raises(RegularityError) as fallback:
            opseq.proved_recurrence(u, pair, q_half, 4)
        assert str(fallback.value) == str(direct.value)


@settings(max_examples=60, deadline=None)
@given(regular_recurrences(), st.data())
def test_next_level_is_the_chebyshev_level(data, draw):
    # the fallback's one row past u's N levels: u_{2N} gives a_N, u_{2N+1} gives b_N, and no
    # more moments are read (N = 2 is the V = 4 and V = 5 of a build)
    rec, u0 = data
    N = len(rec.b) - 1
    if N < 1:
        return
    moments = jacobi_moments(rec, u0, 2 * N + 1)
    even, odd = MomentFunctional(moments[:-1]), MomentFunctional(moments)
    proved, ops = recurrence_from_moments(even, N)
    assert opseq._chebyshev_levels(even, N) == (proved, (rec.b[:N], rec.a[:N]))
    assert opseq._chebyshev_levels(odd, N) == (proved, (rec.b[: N + 1], rec.a[:N]))
    longer = MomentFunctional(moments + [draw.draw(_scalars(True))])
    assert opseq._chebyshev_levels(longer, N) == opseq._chebyshev_levels(odd, N)
    with pytest.raises(TruncationError, match=rf"^level {N} needs effective order >= {2 * N}, have {2 * N - 1}$"):
        opseq._chebyshev_levels(MomentFunctional(moments[:-2]), N)
    # h_N = <u, x^N p_N> moves one for one with u_{2N}, since p_N is monic: a_N = 0, and no b_N
    h = act(even, Poly.monomial(N) * ops[N])
    singular = moments[: 2 * N] + [moments[2 * N] - h] + moments[2 * N + 1 :][: draw.draw(st.integers(0, 1))]
    assert opseq._chebyshev_levels(MomentFunctional(singular), N) == (proved, (proved.b, proved.a + (ZERO,)))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_the_fallback_level_is_the_next_level_oracle(data):
    # any moments, regular or not, of order 2N - 2 to 2N + 2: the Chebyshev run one row further
    # gives the N levels and level N of the Chebyshev and the two rows over p_{N-1} and p_N, or
    # the same error, in the same order (effective order, then regularity, then level N's moment)
    N = data.draw(st.integers(1, 6))
    entries = st.one_of(st.sampled_from([ZERO, ONE, -ONE]), _scalars(data.draw(st.booleans())))
    u = MomentFunctional(data.draw(st.lists(entries, min_size=2 * N - 1, max_size=2 * N + 3)))
    try:
        got = opseq._chebyshev_levels(u, N)
    except QmapError as exc:
        got = type(exc).__name__, str(exc)
    assert got == _levels(u, N)


# One candidate per condition of the lemma (README) that only that condition rejects, at M = N = 2.
_EXACT_U = jacobi_moments(Recurrence([1, 2, 3], [2, 3]), 1, 5)  # b_0, b_1 = 1, 2 and a_1 = 2
CERTIFICATE_FAILURES = {
    # p_1 = x - 1 is u's own, but p_2 = (x - 3)(x - 1) - 2 = u's p_2 - p_1: <u, x p_2> != 0
    "p_M orthogonal": (_EXACT_U, Recurrence([1, 3], [2])),
    # p_2 = (x - 1)(x - 2) - 2 is u's own, but p_1 = x - 2 is not: <u, p_1> != 0
    "p_(M-1) orthogonal": (_EXACT_U, Recurrence([2, 1], [2])),
    # u = x^4-moment only: every zero condition holds and <u, x p_1> = u_2 = 0
    "<u, x^(M-1) p_(M-1)> != 0": ([0, 0, 0, 0, 1, 0], Recurrence([0, 0], [1])),
}


@pytest.mark.parametrize("condition", list(CERTIFICATE_FAILURES))
def test_certificate_rejects_each_failed_condition(condition):
    moments, cand = CERTIFICATE_FAILURES[condition]
    assert certify_recurrence_oracle(MomentFunctional(moments), cand, 2) is None


def test_certificate_proves_the_levels_below_a_zero_diagonal():
    # u = (1, 0, 1, 0, 1, 0) stops being regular at level 2, <u, x^2 p_2> = 0, but its
    # two levels are u's, and the certificate proves them as the Chebyshev recovers them
    u = MomentFunctional([1, 0, 1, 0, 1, 0])
    cand = Recurrence([0, 0], [1])
    assert certify_recurrence_oracle(u, cand, 2) == recurrence_from_moments(u, 2) == (cand, ops_from_recurrence(cand, 2))


# -- the eigen proof of a classical pair's recurrence --------------------------

PROOF_QS = (QParam(Fraction(1, 2), 64), QParam(Fraction(-3, 2), 64), QParam(CycScalar(Fraction(1, 3), Fraction(1, 2)), 64))


@st.composite
def classical_functionals(draw, order):
    """(pair, q, u): deg Phi <= 2, deg Psi = 1, rational or Q(w), and u = pearson_moments(pair, u_0, order, q)."""
    scalars = _scalars(draw(st.booleans()))
    deg = draw(st.integers(0, 2))
    phi = Poly(draw(st.lists(scalars, min_size=deg, max_size=deg)) + [draw(scalars.filter(bool))])
    pair = PearsonPair(phi, Poly([draw(scalars), draw(scalars.filter(bool))]))
    q = draw(st.sampled_from(PROOF_QS))
    try:
        u = pearson_moments(pair, draw(scalars.filter(bool)), order, q)
    except RegularityError:
        assume(False)
    return pair, q, u


def _L(pair: PearsonPair, q: QParam, f: Poly) -> Poly:
    """L f = Phi H_q H_{1/q} f + Psi H_{1/q} f, by Poly arithmetic."""
    g = hahn_poly_qinv(f, q)
    return pair.phi * hahn_poly(g, q) + pair.psi * g


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10).flatmap(classical_functionals))
def test_L_is_u_symmetric_on_the_moments_that_exist(functional):
    # the lemma: <u, (L f) g> = -<u, Phi (H_q f)(H_q g)> by u's Pearson equation, for i + j <= order
    pair, q, u = functional
    for i in range(u.order + 1):
        for j in range(u.order + 1 - i):
            f, g = Poly.monomial(i), Poly.monomial(j)
            lhs = act(u, _L(pair, q, f) * g)
            assert lhs == act(u, f * _L(pair, q, g)) == -act(u, pair.phi * hahn_poly(f, q) * hahn_poly(g, q))
    # and L x^m = lambda_m x^m + mu_m x^(m-1) + nu_m x^(m-2), the values the pair's levels are read from
    N = u.order // 2
    try:
        *_, eigen = pair_candidate_oracle(pair, q, N)
    except QmapError:
        return
    assert opseq._pair_candidate(pair, q, N)[2] == eigen[: N + 1]
    for m in range(N + 1):
        values = (eigen[m], eigen[N + 1 + m], eigen[2 * N + 2 + m])
        assert _L(pair, q, Poly.monomial(m)) == sum((c * Poly.monomial(m - i) for i, c in enumerate(values) if i <= m), Poly.zero())


def _levels(u: MomentFunctional, N: int):
    """The Chebyshev algorithm's N levels and the oracle's next level (b, a), as the fallback gave
    them before its one more row, or the exact error."""
    try:
        rec, ops = recurrence_from_moments(u, N)
        return rec, next_level_oracle(u, rec, ops)
    except QmapError as exc:
        return type(exc).__name__, str(exc)


@st.composite
def lemma_functionals(draw, N: int, V: int):
    """(pair, q, u) of ``classical_functionals`` to order V, or, in a sixth of the draws, little
    q-Laguerre or q-Jacobi at a = q^-N, whose pair's a_N is 0: u is not regular at level N."""
    if draw(st.integers(0, 5)):
        return draw(classical_functionals(V))
    q = draw(st.sampled_from(PROOF_QS))
    a = q.q ** -N
    laguerre, b = draw(st.booleans()), draw(_scalars(draw(st.booleans())).filter(bool))
    try:  # a Jacobi b = 1/q at a = 1/q makes Psi = 0, which PearsonPair refuses
        pair = little_q_laguerre_pair(a, q) if laguerre else little_q_jacobi_pair(a, b, q)
        return pair, q, pearson_moments(pair, 1, V, q)
    except (RegularityError, ValueError):
        assume(False)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_the_eigen_proof_is_the_certificate_and_the_chebyshev(data):
    # the eigen-recurrence lemma, at V = 2N and 2N + 1: whenever the proof returns, the pair's
    # p_0..p_{N+1} are eigenpolynomials of L (the oracle a build checked before), its N levels are
    # the Chebyshev's and the certificate's, and its level N is next_level's, a_N = 0 included.
    # proved_recurrence is that value, or the Chebyshev's exact error, either way
    N = data.draw(st.integers(1, 6))
    V = 2 * N + data.draw(st.integers(0, 1))
    pair, q, u = data.draw(lemma_functionals(N, V))
    if data.draw(st.integers(0, 4)) == 0:
        u = MomentFunctional([ZERO] * len(u.moments))  # u_0 = 0
    proved = opseq.proved_pair_recurrence(u, pair, q, N)
    chebyshev = _levels(u, N)
    assert _outcome(lambda u, N: opseq.proved_recurrence(u, pair, q, N), u, N) == chebyshev
    if proved is None:
        return
    assert proved == chebyshev
    rec, (b_next, a_next) = proved
    b, a, eigen = pair_candidate_oracle(pair, q, N + 1)
    assert (rec.b, rec.a, a_next) == (tuple(b[:N]), tuple(a[: N - 1]), tuple(a))
    assert b_next == (tuple(b) if V > 2 * N and a[-1] else rec.b)
    forms = opseq._forms(lambda t: b[t], lambda t: a[t - 1], 0, N + 1)
    assert eigen_holds_oracle(forms, _scaled(eigen))
    assert certify_recurrence_oracle(u, rec, N) == recurrence_from_moments(u, N)
    if not a[-1]:  # not regular at N: an (N + 1)-level recurrence refuses the zero
        with pytest.raises(RegularityError):
            Recurrence(b, a)


# One spoiled input per hypothesis of the lemma at N = 6, u to u_13, each rejected; the
# Chebyshev, one row further for level N, then decides, with its own value or message
SPOILED_PROOFS = {
    "lambda distinct": (repeated_lambda(3), lambda m: m, None),
    "lambda_{N+1} distinct": (repeated_lambda(7, 6), lambda m: m, None),
    "a_1..a_{N-1} nonzero": (zero_a(2), lambda m: m, None),
    "u_0 != 0": (None, lambda m: [ZERO] * len(m), "not regular at level 0: <u, p_0^2> = 0"),
    "u_{2N-1} exists": (None, lambda m: m[:11], "need effective order >= 11, have 10"),
    "u_{2N} exists": (None, lambda m: m[:12], "level 6 needs effective order >= 12, have 11"),
    "Pearson equation to u_{2N-1}": (None, lambda m: m[:11] + [m[11] + 1] + m[12:], None),
    "Pearson equation to u_{2N}": (None, lambda m: m[:12] + [m[12] + 1] + m[13:], None),
    "Pearson equation to u_{2N+1}": (None, lambda m: m[:13] + [m[13] + 1], None),
}


@pytest.mark.parametrize("condition", list(SPOILED_PROOFS))
def test_each_spoiled_condition_falls_back_to_the_chebyshev(q_half, monkeypatch, condition):
    spoil, moments, message = SPOILED_PROOFS[condition]
    pair = little_q_laguerre_pair(Fraction(1, 4), q_half)
    good = list(pearson_moments(pair, 1, 13, q_half).moments)
    assert opseq.proved_pair_recurrence(MomentFunctional(good), pair, q_half, 6) is not None
    u = MomentFunctional(moments(good))
    if spoil is not None:
        patch_candidate(monkeypatch, spoil)
    stepped = call_spy(monkeypatch, opseq, "_step")
    assert opseq.proved_pair_recurrence(u, pair, q_half, 6) is None
    assert stepped == []  # the proof forms no polynomial, spoiled or not
    if message is None:
        assert opseq.proved_recurrence(u, pair, q_half, 6) == _levels(u, 6)
    else:
        with pytest.raises(QmapError) as info:
            opseq.proved_recurrence(u, pair, q_half, 6)
        assert str(info.value) == message


def test_level_n_needs_a_proved_level(q_half):
    # N = 0 proves nothing, so the Chebyshev gives level 0 with h_{-1} = 1: a_0 = u_0, and
    # b_0 = u_1 / u_0 when u holds u_1 and u_0 != 0
    pair = little_q_laguerre_pair(Fraction(1, 4), q_half)
    u = pearson_moments(pair, 1, 4, q_half)
    assert opseq.proved_pair_recurrence(u, pair, q_half, 0) is None
    level0 = Recurrence([], []), ((u.moments[1],), (u.moments[0],))
    assert opseq.proved_recurrence(u, pair, q_half, 0) == level0
    assert opseq.proved_recurrence(MomentFunctional(u.moments[:1]), pair, q_half, 0) == (Recurrence([], []), ((), (ONE,)))
    assert opseq.proved_recurrence(MomentFunctional([0, 1]), pair, q_half, 0) == (Recurrence([], []), ((), (ZERO,)))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_the_proof_reads_no_bracket_past_its_pearson_rows(data):
    # the proof's Pearson rows 0..V - 1 read q [m]_q for m <= V - 1, as the integer test before
    # pearson_residual did, at every deg Phi, so a q validated just that far proves what a
    # wide one does: deg Phi = 0 reads no further (the composed residual read to V + 1)
    N = data.draw(st.integers(1, 5))
    V = 2 * N + data.draw(st.integers(0, 1))
    scalars = _scalars(data.draw(st.booleans()))
    deg = data.draw(st.sampled_from([0, 0, 1, 2]))
    phi = Poly(data.draw(st.lists(scalars, min_size=deg, max_size=deg)) + [data.draw(scalars.filter(bool))])
    pair = PearsonPair(phi, Poly([data.draw(scalars), data.draw(scalars.filter(bool))]))
    wide = data.draw(st.sampled_from(PROOF_QS))
    try:
        u = pearson_moments(pair, data.draw(scalars.filter(bool)), V, wide)
    except RegularityError:
        assume(False)
    if data.draw(st.booleans()):  # a spoiled moment, which the Pearson rows reject
        moments = list(u.moments)
        moments[data.draw(st.integers(1, V))] += 1
        u = MomentFunctional(moments)
    expected = opseq.proved_pair_recurrence(u, pair, wide, N)
    # the least max_order with [m]_q for m <= max(N + 1, V - 1), the candidate's and the rows'
    tight = QParam(wide.q, max(N, V - 2))
    assert opseq.proved_pair_recurrence(u, pair, tight, N) == expected


def test_a_zero_a_at_level_n_is_read_raw(q_half):
    # little q-Laguerre at a = 2^6 = q^-6 is regular below level 6 and not at it: the proof
    # gives the 6 levels and a_6 = 0 with no b_6, as the Chebyshev's level 6 does
    pair = little_q_laguerre_pair(q_half.q ** -6, q_half)
    u = pearson_moments(pair, 1, 13, q_half)
    rec, (b, a) = opseq.proved_pair_recurrence(u, pair, q_half, 6)
    assert (b, a[-1]) == (rec.b, ZERO)
    assert (rec, (b, a)) == _levels(u, 6)
    with pytest.raises(RegularityError, match=r"^not regular at level 6: <u, p_6\^2> = 0$"):
        recurrence_from_moments(u, 7)


# -- the coefficient-level generator against the Poly-arithmetic oracle --------


@settings(max_examples=80, deadline=None)
@given(regular_recurrences(), st.data())
def test_ops_from_recurrence_matches_oracle(data, draw):
    rec, _ = data
    N = draw.draw(st.integers(0, len(rec.b)))
    assert ops_from_recurrence(rec, N) == ops_from_recurrence_oracle(rec, N)


# -- the integer kernel: canonical forms against the Poly-arithmetic oracle ------


@st.composite
def kernel_recurrences(draw):
    """b_0..b_{N-1} and a_1..a_{N-1}, either all rational or of mixed shapes."""
    scalars = kernel_scalars(small_fractions) if draw(st.booleans()) else st.builds(CycScalar, small_fractions)
    N = draw(st.integers(1, 8))
    b = draw(st.lists(scalars, min_size=N, max_size=N))
    a = draw(st.lists(scalars.filter(bool), min_size=N - 1, max_size=N - 1))
    return Recurrence(b, a)


@settings(max_examples=150, deadline=None)
@given(kernel_recurrences(), st.data())
def test_integer_kernel_matches_oracle(rec, draw):
    N = draw.draw(st.integers(0, len(rec.b)))
    got = ops_from_recurrence(rec, N)
    expected = ops_from_recurrence_oracle(rec, N)  # OPSequence(polys): the forms of the oracle's polys
    assert got == expected
    assert hash(got) == hash(expected)
    assert list(got) == list(expected)


@settings(max_examples=100, deadline=None)
@given(kernel_recurrences(), st.integers(2, 4), st.data())
def test_delta_det_matches_bruteforce(rec, k, draw):
    N = len(rec.b)
    n = draw.draw(st.integers(0, (N - 1) // k))
    i = draw.draw(st.integers(1, N - n * k))
    j = draw.draw(st.integers(i - 3, N - 1 - n * k))
    view = BlockView(rec, k)
    assert delta_det(view, n, i, j) == _delta_bruteforce(view, n, i, j)


def test_a_sequence_of_polynomials_equals_the_generated_one():
    rec = Recurrence([OMEGA, 0, Fraction(1, 2)], [Fraction(-2, 3) * OMEGA, 3])
    polys = [Poly.one(), X - OMEGA, X * X - OMEGA * X + Fraction(2, 3) * OMEGA]
    generated = ops_from_recurrence(rec, 2)
    assert OPSequence(polys) == generated
    assert hash(OPSequence(polys)) == hash(generated)
    assert OPSequence(polys[:2]) != generated


@pytest.mark.parametrize("polys", [[Poly.one(), 2 * X], [Poly.one(), X * X], [X]])
def test_a_sequence_of_polynomials_must_be_monic_by_degree(polys):
    with pytest.raises(ValueError, match="is not monic of degree"):
        OPSequence(polys)


@pytest.mark.parametrize(
    "b, a, message",
    [
        ([1, 2], [1], "need b_0..b_2 for p_3, have 2"),
        ([1, 2, 3], [1], "a_2 not available (have a_1..a_1)"),
    ],
)
def test_ops_from_recurrence_too_short(b, a, message):
    for generate in (ops_from_recurrence, ops_from_recurrence_oracle):
        with pytest.raises(QmapError) as exc:
            generate(Recurrence(b, a), 3)
        assert str(exc.value) == message


@pytest.mark.parametrize(
    "b, a, i, message",
    [
        ([1, 2, 3, 4, 5], [1, 1, 1, 1], 1, "b_5 not available (have b_0..b_4)"),
        ([1, 2, 3, 4, 5, 6], [1, 1, 1], 1, "a_4 not available (have a_1..a_3)"),
        # the seed Delta_1(2, 1) = x - b_4 reads no a_4
        ([1, 2, 3, 4, 5, 6], [1, 1, 1], 2, "a_5 not available (have a_1..a_3)"),
    ],
)
def test_delta_det_block_too_short(b, a, i, message):
    # the messages of the step-by-step expansion: b_n^{(t)} before a_n^{(t)}, t = i-1..j
    with pytest.raises(QmapError) as exc:
        delta_det(BlockView(Recurrence(b, a), 3), 1, i, 2)
    assert str(exc.value) == message


def test_generation_forms_no_polynomial_arithmetic(q_half, monkeypatch):
    u = pearson_moments(little_q_laguerre_pair(Fraction(1, 4), q_half), 1, 48, q_half)
    rec = recurrence_from_moments(u, 24)[0]
    expected = ops_from_recurrence_oracle(rec, 24)
    deltas = [_delta_bruteforce(BlockView(rec, 3), 1, i, i + 3) for i in (1, 2, 3)]

    def refuse(*args):
        raise AssertionError("the generator used Poly arithmetic")

    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__rsub__", "__neg__"):
        monkeypatch.setattr(Poly, name, refuse)
    assert ops_from_recurrence(rec, 24) == expected
    assert [delta_det(BlockView(rec, 3), 1, i, i + 3) for i in (1, 2, 3)] == deltas


@pytest.mark.parametrize(
    "nodes",
    [(0, 1, 2), (1, -1, 2, Fraction(1, 3)), (0, OMEGA, 1, 2 - OMEGA, Fraction(-1, 2))],
)
def test_regularity_failure_at_deep_level(nodes):
    # k distinct nodes with unit weights: regular through level k-1, not at k
    k = len(nodes)
    nodes = [CycScalar.coerce(z) for z in nodes]
    u = MomentFunctional([sum((z ** m for z in nodes), ZERO) for m in range(2 * k + 5)])
    message = f"not regular at level {k}: <u, p_{k}^2> = 0"
    for recover in (recurrence_from_moments, recurrence_from_moments_oracle):
        with pytest.raises(RegularityError) as exc:
            recover(u, k + 2)
        assert str(exc.value) == message


def test_recurrence_round_trip(q_half):
    pair = little_q_laguerre_pair(Fraction(1, 4), q_half)
    u = pearson_moments(pair, 1, 24, q_half)
    rec, ops = recurrence_from_moments(u, 12)
    ops2 = ops_from_recurrence(rec, 12)
    assert all(ops[i] == ops2[i] for i in range(13))


def test_orthogonality_and_norm_telescoping(q_half):
    pair = little_q_laguerre_pair(Fraction(1, 4), q_half)
    u = pearson_moments(pair, 1, 24, q_half)
    rec, ops = recurrence_from_moments(u, 12)
    rep = orthogonality_check(u, ops, 12)
    assert rep.ok

    # <u, p_n^2> = a_1 a_2 ... a_n u_0
    prod = u.moment(0)
    for n in range(1, 12):
        prod = prod * rec.a_at(n)
        assert act(u, ops[n] * ops[n]) == prod


def test_orthogonality_detects_swapped_moments(q_half):
    pair = little_q_laguerre_pair(Fraction(1, 4), q_half)
    u = pearson_moments(pair, 1, 24, q_half)
    _, ops = recurrence_from_moments(u, 10)
    bad = list(u.moments)
    bad[4], bad[5] = bad[5], bad[4]
    rep = orthogonality_check(MomentFunctional(bad), ops, 10)
    assert not rep.ok
    assert rep.first_failure is not None


# -- mixed-moment certificate against the dense-product oracle ----------------

n_max_values = st.one_of(st.none(), st.integers(-1, 10))


@settings(max_examples=50, deadline=None)
@given(regular_recurrences(), n_max_values)
def test_orthogonality_matches_oracle_on_recurrence_moments(data, n_max):
    rec, u0 = data
    N = len(rec.b) - 1
    u = MomentFunctional(jacobi_moments(rec, u0, 2 * N))
    ops = ops_from_recurrence(rec, N)
    report = orthogonality_check(u, ops, n_max)
    assert report == orthogonality_check_oracle(u, ops, n_max)
    assert report.ok


@settings(max_examples=100, deadline=None)
@given(regular_recurrences(), n_max_values, st.data())
def test_orthogonality_matches_oracle_on_perturbed_moments(data, n_max, draw):
    # a short u leaves the pairs with n + m > order unchecked; perturbing
    # u_k first breaks the pair n = max(0, k - limit), m = k - n, so a k in
    # the upper half of u moves the failure off the row n = 0
    rec, u0 = data
    N = len(rec.b) - 1
    order = draw.draw(st.integers(0, 2 * N))
    moments = jacobi_moments(rec, u0, order)
    index = draw.draw(st.integers(order // 2, order))
    moments[index] = moments[index] + draw.draw(_scalars(draw.draw(st.booleans())).filter(bool))
    u = MomentFunctional(moments)
    ops = ops_from_recurrence(rec, N)
    assert orthogonality_check(u, ops, n_max) == orthogonality_check_oracle(u, ops, n_max)


def _laguerre_24(q):
    u = pearson_moments(little_q_laguerre_pair(Fraction(1, 4), q), 1, 48, q)
    return u, recurrence_from_moments(u, 24)[1]


@pytest.mark.parametrize("index, failure, pairs", [(5, (0, 5), 6), (30, (6, 24), 154)])
def test_orthogonality_first_failure_of_perturbed_laguerre(q_half, index, failure, pairs):
    u, ops = _laguerre_24(q_half)
    bad = list(u.moments)
    bad[index] = bad[index] + 1
    bad = MomentFunctional(bad)
    report = orthogonality_check(bad, ops)
    assert report == orthogonality_check_oracle(bad, ops)
    assert (report.first_failure, report.pairs_checked) == (failure, pairs)
    assert report.message == f"<u, p_{failure[0]} p_{failure[1]}> != 0"


def test_orthogonality_forms_no_polynomial_product(q_half, monkeypatch):
    u, ops = _laguerre_24(q_half)

    def refuse(*args):
        raise AssertionError("orthogonality_check formed a Poly product")

    monkeypatch.setattr(Poly, "__mul__", refuse)
    monkeypatch.setattr(Poly, "__rmul__", refuse)
    assert orthogonality_check(u, ops) == OrthogonalityReport(True, 325)


# -- block determinants -------------------------------------------------------


from helpers import delta_bruteforce as _delta_bruteforce


def test_delta_base_cases(q_half):
    rng = random.Random(32)
    rec = _random_recurrence(rng, 12)
    view = BlockView(rec, 3)
    assert delta_det(view, 1, 4, 2) == Poly.one()
    assert delta_det(view, 0, 3, 0).is_zero
    assert delta_det(view, 0, 2, 1) == X - rec.b_at(1)


def test_delta_2x2_expansion():
    rng = random.Random(33)
    rec = _random_recurrence(rng, 8)
    view = BlockView(rec, 3)
    d = delta_det(view, 0, 1, 1)
    assert d == (X - rec.b_at(0)) * (X - rec.b_at(1)) - Poly.constant(rec.a_at(1))


def test_delta_against_cofactor_oracle():
    rng = random.Random(34)
    count = 0
    while count < 220:
        rec = _random_recurrence(rng, 14)
        k = rng.randint(2, 4)
        view = BlockView(rec, k)
        n = rng.randint(0, 2)
        i = rng.randint(1, 5)
        j = rng.randint(i - 2, i + 3)
        if n * k + j >= len(rec.b):
            continue
        assert delta_det(view, n, i, j) == _delta_bruteforce(view, n, i, j)
        count += 1


def test_delta_top_corner_is_the_polynomial_itself():
    # Delta_0(1, m-1; x) = p_m(x) for any recurrence
    rng = random.Random(37)
    for _ in range(40):
        rec = _random_recurrence(rng, 9)
        ops = ops_from_recurrence(rec, 8)
        view = BlockView(rec, 3)
        for m in range(9):
            assert delta_det(view, 0, 1, m - 1) == ops[m]


def test_delta_block_shift_convention():
    # Delta_n(k+i, k+j; x) = Delta_{n+1}(i, j; x)
    rng = random.Random(35)
    rec = _random_recurrence(rng, 16)
    for k in (2, 3):
        view = BlockView(rec, k)
        for i in range(1, 4):
            for j in range(i - 1, i + 2):
                if 2 * k + j >= len(rec.b):
                    continue
                assert delta_det(view, 0, k + i, k + j) == delta_det(view, 1, i, j)
                assert delta_det(view, 1, k + i, k + j) == delta_det(view, 2, i, j)


def test_block_view_wraparound():
    rng = random.Random(36)
    rec = _random_recurrence(rng, 12)
    view = BlockView(rec, 3)
    for n in range(2):
        for j in range(3):
            assert view.b(n, 3 + j) == view.b(n + 1, j)
            assert view.a(n, 3 + j) == view.a(n + 1, j)


def test_recurrence_serialization():
    rec = Recurrence([1, 2], [Fraction(1, 2)])
    assert [str(v) for v in rec.b] == ["1/1", "2/1"]
    assert [str(v) for v in rec.a] == ["1/2"]
