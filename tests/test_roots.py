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


def test_integer_argmin_tie_keeps_smaller_n():
    calls = []

    def flat(n):
        calls.append(n)
        return 1.0 if n == 3 else 1.0 - 5e-16

    assert integer_argmin(3.4, 100, flat) == 3
    assert calls == [3, 4]
    assert integer_argmin(3.4, 100, lambda n: 1.0 if n == 3 else 1.0 - 2e-15) == 4


def test_integer_argmin_clamps_to_cap():
    assert integer_argmin(7.5, 5, lambda n: -n) == 5
    assert integer_argmin(5.5, 5, lambda n: -n) == 5
    assert integer_argmin(4.5, 5, lambda n: -n) == 5
    assert integer_argmin(4.5, 5, lambda n: n) == 4


def test_integer_argmin_root_below_one_returns_one():
    assert integer_argmin(1e-9, 10, lambda n: -n) == 1
    assert integer_argmin(0.5, 10, lambda n: -n) == 1


def test_integer_argmin_integral_root_has_one_candidate():
    calls = []

    def objective(n):
        calls.append(n)
        return math.log(n)

    assert integer_argmin(6.0, 10, objective) == 6
    assert calls == []
