"""The correlation kernel against the per-entry Q(w) loops it replaced.

``functionals._correlate`` computes every row sum_i c_i v_{i+l} of the
package: phi u, u_poly and the mixed moments of ``opseq``; its integer rows
make the residual of ``stieltjes``.
Each caller is compared here with its predecessor loop in ``helpers`` on
rational and Q(w) inputs whose two sides take their shapes independently (so
a rational side meets a Q(w) side), including zero coefficients, rows of
length <= 0, deg phi = order and the errors the callers raise.
"""

from itertools import zip_longest

from hypothesis import assume, given, settings, strategies as st

from qmap import ZERO, CycScalar, MomentFunctional, Poly, left_mul, u_poly
from qmap.errors import TruncationError
from qmap.functionals import _correlate, _rows, _scaled, _sum_rows, _times
from qmap.functionals import _scalars as _row_values
from qmap.scalars import _Q0

from helpers import kernel_scalars, left_mul_oracle, sigma_row_oracle, u_poly_oracle

small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=7)


def _scalars(omega: bool):
    """Zero, rational, w-only and mixed values, or zero and rationals when ``omega`` is false."""
    if omega:
        return kernel_scalars(small_fractions)
    return st.one_of(st.just(ZERO), st.builds(CycScalar, small_fractions))


def _vectors(omega: bool, min_size: int = 0, max_size: int = 10):
    return st.lists(_scalars(omega), min_size=min_size, max_size=max_size)


@st.composite
def functional_and_poly(draw, extra_degree: int = 0):
    """(u, f, omega) with deg f up to order + extra_degree; deg f = order is drawn often.

    u and f draw their shapes independently; omega is false when both are rational.
    """
    omega_u, omega_f = draw(st.booleans()), draw(st.booleans())
    u = MomentFunctional(draw(_vectors(omega_u, 1, 12)))
    deg = draw(st.one_of(st.just(u.order), st.integers(0, u.order + extra_degree)))
    f = Poly(draw(_vectors(omega_f, deg + 1, deg + 1)))
    return u, f, omega_u or omega_f


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (TruncationError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def _rational_path_kept(values):
    return all(x.om is _Q0 for x in values if not x.om)


@settings(max_examples=150, deadline=None)
@given(st.data(), st.booleans(), st.booleans(), st.integers(-3, 14))
def test_kernel_matches_the_dot_loop(data, omega_c, omega_v, length):
    c = data.draw(_vectors(omega_c))
    v = data.draw(_vectors(omega_v))
    row = _correlate(_scaled(c), _scaled(v), length)
    assert row == [sum((ci * vi for ci, vi in zip(c, v[l:])), ZERO) for l in range(length)]
    assert _rational_path_kept(row)


@settings(max_examples=150, deadline=None)
@given(st.data(), st.booleans(), st.booleans(), st.integers(0, 12))
def test_products_and_row_sums_match_scalar_arithmetic(data, omega_a, omega_b, length):
    # the residual's pieces: elementwise products of forms, a form over -D, rows summed over one denominator
    a, b = data.draw(_vectors(omega_a)), data.draw(_vectors(omega_b))
    assert _row_values(*_times(_scaled(a), _scaled(b))) == [x * y for x, y in zip(a, b)]
    R, O, D = _scaled(b)
    rows = [_rows(_scaled(a), (R, O, -D), length), _scaled(data.draw(_vectors(omega_b, 0, length)))]
    got = _row_values(*_sum_rows(rows, length))
    assert len(got) == length
    assert got == [x + y for x, y in zip_longest(*(_row_values(*row) for row in rows), fillvalue=ZERO)][:length]
    assert _rational_path_kept(got)


@settings(max_examples=100, deadline=None)
@given(st.data(), st.integers(-3, 14))
def test_kernel_keeps_the_rational_fast_path(data, length):
    c, v = data.draw(_vectors(False)), data.draw(_vectors(False))
    row = _correlate(_scaled(c), _scaled(v), length)
    assert len(row) == max(length, 0)
    assert all(x.om is _Q0 for x in row)


@settings(max_examples=150, deadline=None)
@given(functional_and_poly(extra_degree=2))
def test_left_mul_matches_oracle(data):
    u, phi, omega = data
    out = _outcome(left_mul, phi, u)
    assert out == _outcome(left_mul_oracle, phi, u)
    if not omega and isinstance(out, MomentFunctional):
        assert all(x.om is _Q0 for x in out.moments)


@settings(max_examples=150, deadline=None)
@given(functional_and_poly(extra_degree=2))
def test_u_poly_matches_oracle(data):
    u, f, omega = data
    out = _outcome(u_poly, u, f)
    assert out == _outcome(u_poly_oracle, u, f)
    if not omega and isinstance(out, Poly):
        assert all(x.om is _Q0 for x in out.coeffs)


@settings(max_examples=150, deadline=None)
@given(functional_and_poly(), st.integers(-2, 4))
def test_sigma_rows_match_oracle(data, extra):
    # one row of orthogonality_check's table: sigma_j = <u, x^j p_m>, j <= min(m, order - m)
    u, p, _ = data
    assume(not p.is_zero)
    m = p.degree
    length = min(m, u.order - m) + 1 + extra
    assert _correlate(_scaled(p.coeffs), _scaled(u.moments), length) == sigma_row_oracle(p, u, length)

