"""Polynomials in the shift variable: every helper keeps the trimmed form."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qheun import xpoly
from qheun.symkernel import RatFun, parse_expr, sym

_COEFFS = [parse_expr(text, {"u", "v"}) for text in (
    "0", "0", "1", "-2", "1/3", "u", "u - 1", "2*u*v", "1/(u + 1)",
    "(u - v)/3")]
_X = sym("x")

coeffs = st.sampled_from(_COEFFS)
xpolys = st.lists(coeffs, max_size=4).map(xpoly.trim)
nonzero_xpolys = xpolys.filter(bool)
# Euclid over unreduced rational-function coefficients grows quickly, so
# gcd and lcm get short polynomials over Q and one parameter
small_xpolys = st.lists(st.sampled_from(_COEFFS[:6]), max_size=3).map(
    xpoly.trim)


def _assert_trimmed(p):
    assert isinstance(p, list)
    assert all(isinstance(c, RatFun) for c in p)
    assert not p or not p[-1].is_zero


def _value(p):
    return xpoly.eval_at(p, _X)


@settings(max_examples=60, deadline=None)
@given(xpolys, nonzero_xpolys, coeffs, st.integers(0, 3))
def test_helpers_return_trimmed_lists(a, b, c, extra):
    results = [xpoly.trim(list(a) + [RatFun(0)] * extra),
               xpoly.scale(a, c), xpoly.mul(a, b), xpoly.mul(b, a),
               xpoly.shift_arg(a, c), xpoly.reverse(a, len(a) + extra),
               xpoly.monic(a), *xpoly.divmod_x(a, b),
               *xpoly.from_ratfun(_value(a) / _value(b), "x")]
    for p in results:
        _assert_trimmed(p)


@settings(max_examples=40, deadline=None)
@given(small_xpolys, small_xpolys)
def test_gcd_and_lcm_return_trimmed_lists(a, b):
    for p in (xpoly.gcd(a, b), xpoly.lcm(a, b)):
        _assert_trimmed(p)


@settings(max_examples=60, deadline=None)
@given(xpolys, nonzero_xpolys)
def test_divmod_x_is_division_with_remainder(a, b):
    quot, rem = xpoly.divmod_x(a, b)
    assert xpoly.degree(rem) < xpoly.degree(b)
    assert _value(a) == _value(quot) * _value(b) + _value(rem)
    assert xpoly.eq(xpoly.divexact(xpoly.mul(a, b), b), a)


def test_reverse_and_division_refuse_bad_arguments():
    with pytest.raises(ValueError, match="below actual degree"):
        xpoly.reverse([RatFun(1), RatFun(2), RatFun(3)], 1)
    with pytest.raises(ZeroDivisionError):
        xpoly.divmod_x([RatFun(1)], [])


def test_trim_is_the_boundary():
    assert xpoly.trim([1, Fraction(1, 2), 0, RatFun(0)]) == [
        RatFun(1), RatFun(Fraction(1, 2))]
    assert xpoly.trim((0, 0)) == []
    # a factor that vanishes turns every positive degree into a zero
    assert xpoly.shift_arg([RatFun(1), sym("u")], RatFun(0)) == [RatFun(1)]
