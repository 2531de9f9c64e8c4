import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noonloss.roots import bisect_root, integer_argmin


@pytest.mark.parametrize("f, lo, hi", [
    (lambda x: x * x - 2.0, 0.0, 2.0),
    (lambda x: 2.0 - x * x, 0.0, 2.0),  # decreasing through the root
    (lambda x: math.log(x) + 30.0, 1e-20, 1.0),
])
def test_bisect_root_float_neighbours_straddle_the_sign_change(f, lo, hi):
    root = bisect_root(f, lo, hi)
    below, above = math.nextafter(root, -math.inf), math.nextafter(root, math.inf)
    # a float where f is exactly 0 may be returned as is
    assert f(root) == 0.0 or (f(below) < 0.0) != (f(above) < 0.0)


def test_bisect_root_returns_an_exact_zero_at_an_endpoint():
    calls = []

    def f(x):
        calls.append(x)
        return x - 1.0

    assert bisect_root(f, 1.0, 3.0) == 1.0
    assert bisect_root(f, -1.0, 1.0) == 1.0
    assert calls == [1.0, 3.0, -1.0, 1.0]


def test_bisect_root_without_a_sign_change_raises():
    with pytest.raises(ValueError, match="no sign change"):
        bisect_root(lambda x: x * x + 1.0, -1.0, 1.0)


def _never_called(n):
    raise AssertionError(f"step evaluated at {n}")


def test_integer_argmin_takes_ceil_iff_the_step_at_floor_is_negative():
    calls = []

    def step(value):
        def at(n):
            calls.append(n)
            return value
        return at

    assert integer_argmin(3.4, 100, step(-5e-324)) == 4
    assert integer_argmin(3.4, 100, step(5e-324)) == 3
    # an exact tie keeps the smaller N
    assert integer_argmin(3.4, 100, step(0.0)) == 3
    assert integer_argmin(3.4, 100, step(-0.0)) == 3
    assert calls == [3, 3, 3, 3]


def test_integer_argmin_clamps_to_cap():
    assert integer_argmin(7.5, 5, _never_called) == 5
    assert integer_argmin(5.5, 5, _never_called) == 5
    assert integer_argmin(4.5, 5, lambda n: -1.0) == 5
    assert integer_argmin(4.5, 5, lambda n: 1.0) == 4


def test_integer_argmin_root_below_one_returns_one():
    assert integer_argmin(1e-9, 10, _never_called) == 1
    assert integer_argmin(0.5, 10, _never_called) == 1


def test_integer_argmin_integral_root_has_one_candidate():
    assert integer_argmin(6.0, 10, _never_called) == 6


def test_integer_argmin_walks_by_the_step_past_2_pow_48():
    # an ulp is 2 past 2**53: the float root may lie an integer or more from the argmin
    root = 2.0 ** 53
    at = 2 ** 53
    assert integer_argmin(root, 2 ** 60, lambda n: n - (at - 3)) == at - 3
    assert integer_argmin(root, 2 ** 60, lambda n: n - (at + 2)) == at + 2
    assert integer_argmin(root, 2 ** 60, lambda n: float(n - at)) == at
    # an exact tie keeps the smaller N, and the walk stops at the cap
    assert integer_argmin(root, 2 ** 60, lambda n: 0.0 if n >= at - 1 else -1.0) == at - 1
    assert integer_argmin(root, at + 1, lambda n: -1.0) == at + 1
    assert integer_argmin(root, at - 2, lambda n: float(n - at)) == at - 2
    assert integer_argmin(root, at - 2, lambda n: float(n - (at - 5))) == at - 5


def _clamped_floor_ceil_argmin(root, cap, step):
    """integer_argmin below 2**48 in its earlier form, clamped by min and max."""
    small = min(max(1, math.floor(root)), cap)
    large = min(max(1, math.ceil(root)), cap)
    if small == large:
        return small
    return large if step(small) < 0.0 else small


def _near_integers(k):
    x = float(k)
    return st.sampled_from([x, math.nextafter(x, -math.inf), math.nextafter(x, math.inf)])


_ROOTS_BELOW_WALK = st.one_of(
    st.floats(-5.0, 2.0 ** 48, exclude_max=True),
    st.integers(-5, 2 ** 48 - 1).flatmap(_near_integers),
)


@settings(max_examples=500, deadline=None)
@given(root=_ROOTS_BELOW_WALK, cap=st.sampled_from([1, 2, 10 ** 18]),
       sign=st.sampled_from([-1.0, -0.0, 0.0, 1.0]))
def test_integer_argmin_matches_the_min_max_clamp(root, cap, sign):
    got_calls, want_calls = [], []

    def step(calls):
        def at(n):
            calls.append(n)
            return sign
        return at

    assert integer_argmin(root, cap, step(got_calls)) == _clamped_floor_ceil_argmin(root, cap, step(want_calls))
    assert got_calls == want_calls


@pytest.mark.parametrize("cap", [1, 2, 10 ** 18])
@pytest.mark.parametrize("root", [math.nan, math.inf, -math.inf])
def test_integer_argmin_non_finite_root_raises_as_math_floor_does(root, cap):
    with pytest.raises(Exception) as want:
        _clamped_floor_ceil_argmin(root, cap, _never_called)
    with pytest.raises(type(want.value)):
        integer_argmin(root, cap, _never_called)
