"""Bisection of a bracketed sign change, used by the single-measurement
optimum, and the integer step that ends both integer optimizers."""

import math

__all__ = ["bisect_root", "integer_argmin"]


def bisect_root(f, lo: float, hi: float) -> float:
    """Root of f on [lo, hi] by bisection, to the last ulp.

    The endpoints must bracket a sign change.  Halves the bracket until its
    midpoint equals an endpoint: the result and a float neighbour straddle it.
    """
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo < 0.0) == (fhi < 0.0):
        raise ValueError(f"no sign change on [{lo}, {hi}]")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (fmid < 0.0) == (flo < 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def integer_argmin(root: float, cap: int, step) -> int:
    """The integer N in [1, cap] minimizing an objective f convex in N, given
    a float estimate ``root`` of its real minimizer and its forward difference
    in the log, ``step(N) = ln f(N + 1) - ln f(N)``.

    Below _WALK_FROM the pick is the better of floor(root) and ceil(root),
    each clamped to [1, cap]: ceil iff step(floor) < 0.  From there on the
    root's few-ulp error can reach an integer (an ulp is 2 past 2**53), and
    the pick walks from floor(root) by the sign of the step instead.

    The caller writes the difference so that the large terms of the two logs
    never meet; an exact 0 keeps the smaller N, which is cheaper to prepare.
    """
    small = min(max(1, math.floor(root)), cap)
    if root >= _WALK_FROM:
        n = small
        while n < cap and step(n) < 0.0:
            n += 1
        if n == small:
            while n > 1 and step(n - 1) >= 0.0:
                n -= 1
        return n
    large = min(max(1, math.ceil(root)), cap)
    if small == large:
        return small
    return large if step(small) < 0.0 else small


# A root below 2**48 has an error of at most a few of its ulps (2**-4 there),
# far from the half integer that would move the argmin out of floor/ceil.
_WALK_FROM = 2.0 ** 48
