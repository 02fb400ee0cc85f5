"""Recurrences, moment-based recovery, orthogonality, block determinants."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qmap import (
    OMEGA,
    ZERO,
    BlockView,
    CycScalar,
    MomentFunctional,
    OPSequence,
    PearsonPair,
    Poly,
    Recurrence,
    act,
    delta_det,
    ops_from_recurrence,
    orthogonality_check,
    pearson_moments,
    recurrence_from_moments,
)
from qmap.errors import QmapError, RegularityError, TruncationError
from qmap.families import little_q_laguerre_pair
from qmap import opseq
from qmap.opseq import OrthogonalityReport, certify_recurrence

from conftest import random_nonzero_scalar, random_scalar
from helpers import jacobi_moments, kernel_scalars, ops_from_recurrence_oracle, orthogonality_check_oracle, recurrence_from_moments_oracle

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


# -- the two-polynomial certificate --------------------------------------------


def _truncated(rec: Recurrence, M: int) -> Recurrence:
    return Recurrence(rec.b[:M], rec.a[: M - 1])


@settings(max_examples=50, deadline=None)
@given(regular_recurrences(), st.data())
def test_certificate_completes_a_true_candidate_like_the_chebyshev(data, draw):
    # any M of u's own levels are proved, and the close runs the Chebyshev on the rest
    rec, u0 = data
    N = len(rec.b) - 1
    if N < 2:
        return
    M = draw.draw(st.integers(1, N - 1))
    moments = jacobi_moments(rec, u0, 2 * N)
    expected = recurrence_from_moments(MomentFunctional(moments), N)
    assert certify_recurrence(MomentFunctional(moments[:-1]), _truncated(rec, M), N) == expected


@settings(max_examples=50, deadline=None)
@given(regular_recurrences(), st.data())
def test_certificate_rejects_a_changed_level(data, draw):
    rec, u0 = data
    N = len(rec.b) - 1
    if N < 2:
        return
    M = draw.draw(st.integers(1, N - 1))
    level = draw.draw(st.integers(0, M - 1))
    u = MomentFunctional(jacobi_moments(rec, u0, 2 * N))
    b, a = list(rec.b[:M]), list(rec.a[: M - 1])
    if level and draw.draw(st.booleans()):
        a[level - 1] = a[level - 1] + (1 if a[level - 1] != -1 else 2)
    else:
        b[level] = b[level] + 1
    assert certify_recurrence(u, Recurrence(b, a), N) is None


def test_certificate_needs_every_moment_its_rows_read(q_half):
    u = pearson_moments(little_q_laguerre_pair(Fraction(1, 4), q_half), 1, 24, q_half)
    rec, ops = recurrence_from_moments(u, 12)
    cand = _truncated(rec, 11)
    assert certify_recurrence(u, cand, 12) == (rec, ops)
    assert certify_recurrence(MomentFunctional(u.moments[:24]), cand, 12) == (rec, ops)  # u_0..u_23
    assert certify_recurrence(MomentFunctional(u.moments[:23]), cand, 12) is None  # no u_23
    assert certify_recurrence(u, _truncated(rec, 1), 1) is None  # M = min(1, N - 1) = 0


def test_proved_recurrence_certifies_the_pair_or_runs_the_chebyshev(q_half, monkeypatch):
    pair = little_q_laguerre_pair(Fraction(1, 4), q_half)
    u = pearson_moments(pair, 1, 24, q_half)
    expected = recurrence_from_moments(u, 12)
    chebyshev, calls = opseq.recurrence_from_moments, []
    monkeypatch.setattr(opseq, "recurrence_from_moments", lambda u, N: calls.append(N) or chebyshev(u, N))
    assert opseq.proved_recurrence(u, pair, q_half, 12) == expected and calls == []
    # the pair of another functional: its recurrence is not u's, and the certificate says so
    other = little_q_laguerre_pair(Fraction(1, 3), q_half)
    assert opseq.proved_recurrence(u, other, q_half, 12) == expected and calls == [12]
    # a pair that fixes no recurrence (deg Phi = 3)
    assert opseq.proved_recurrence(u, PearsonPair(Poly.monomial(3), X), q_half, 12) == expected and calls == [12, 12]


@settings(max_examples=60, deadline=None)
@given(regular_recurrences(), st.data())
def test_next_level_is_the_chebyshev_level(data, draw):
    # u's levels 0..N-1 proved: u_{2N} gives a_N, u_{2N+1} gives b_N, and each row reads
    # exactly the moments up to u's order (N = 2 is the V = 4 and V = 5 of a build)
    rec, u0 = data
    N = len(rec.b) - 1
    if N < 1:
        return
    moments = jacobi_moments(rec, u0, 2 * N + 1)
    even, odd = MomentFunctional(moments[:-1]), MomentFunctional(moments)
    proved, ops = recurrence_from_moments(even, N)
    assert opseq.next_level(even, proved, ops) == Recurrence(rec.b[:N], rec.a[:N])
    assert opseq.next_level(odd, proved, ops) == Recurrence(rec.b[: N + 1], rec.a[:N])
    with pytest.raises(TruncationError):
        opseq.next_level(MomentFunctional(moments[:-2]), proved, ops)
    # h_N = <u, x^N p_N> moves one for one with u_{2N}, since p_N is monic
    h = act(even, Poly.monomial(N) * ops[N])
    singular = moments[: 2 * N] + [moments[2 * N] - h] + moments[2 * N + 1 :][: draw.draw(st.integers(0, 1))]
    assert opseq.next_level(MomentFunctional(singular), proved, ops) is None


# One candidate per condition of the lemma that only that condition rejects (N = 3, M = 2).
_EXACT_U = jacobi_moments(Recurrence([1, 2, 3], [2, 3]), 1, 5)  # b_0, b_1 = 1, 2 and a_1 = 2
CERTIFICATE_FAILURES = {
    # p_2 = (x - 1)(x - 2) - 2 is u's own, but p_1 = x - 2 is not: <u, p_1> != 0
    "p_(M-1) orthogonal": (_EXACT_U, Recurrence([2, 1], [2])),
    # u = x^4-moment only: every zero condition holds and <u, x p_1> = u_2 = 0
    "<u, x^(M-1) p_(M-1)> != 0": ([0, 0, 0, 0, 1, 0], Recurrence([0, 0], [1])),
    # u = (1, 0, 1, 0, 1, 0) stops being regular at level 2: <u, x^2 p_2> = 0
    "<u, x^M p_M> != 0": ([1, 0, 1, 0, 1, 0], Recurrence([0, 0], [1])),
}


@pytest.mark.parametrize("condition", list(CERTIFICATE_FAILURES))
def test_certificate_rejects_each_failed_condition(condition):
    moments, cand = CERTIFICATE_FAILURES[condition]
    assert certify_recurrence(MomentFunctional(moments), cand, 3) is None


def test_certificate_close_reports_the_chebyshev_regularity_error():
    # (1, 0, 1, 0, 1, 0, ...): p_1 = x is proved, the close finds p_2 = x^2 - 1 with <u, p_2^2> = 0
    u = MomentFunctional([1, 0, 1, 0, 1, 0, 0, 0, 0])
    with pytest.raises(RegularityError) as direct:
        recurrence_from_moments(u, 4)
    cand = Recurrence([0], [])
    with pytest.raises(RegularityError) as closed:
        certify_recurrence(u, cand, 4)
    assert str(closed.value) == str(direct.value) == "not regular at level 2: <u, p_2^2> = 0"


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
@given(kernel_recurrences(), st.data())
def test_seeded_kernel_continues_like_the_oracle(rec, draw):
    # the certificate's close: seeded with p_{M-1}, p_M, stepping t = M..N-1
    N = len(rec.b)
    if N < 2:
        return
    M = draw.draw(st.integers(1, N - 1))
    expected = ops_from_recurrence_oracle(rec, N)
    head = opseq._forms(rec.b_at, rec.a_at, 0, M)
    tail = opseq._forms(rec.b_at, rec.a_at, M, N, (head[M - 1], head[M]))
    assert tail[0] is head[M]
    assert [opseq._poly(f) for f in tail] == [expected[n] for n in range(M, N + 1)]


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
