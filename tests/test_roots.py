import math

from noonloss.roots import integer_argmin


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
