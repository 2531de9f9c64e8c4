import math

import pytest

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
