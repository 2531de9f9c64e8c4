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


def integer_argmin(root: float, cap: int, log_objective) -> int:
    """The better of floor(root) and ceil(root), each clamped to [1, cap],
    by ``log_objective``.  A tie within 1e-15 keeps the smaller N, which is
    cheaper to prepare.
    """
    small = min(max(1, math.floor(root)), cap)
    large = min(max(1, math.ceil(root)), cap)
    if small == large:
        return small
    f_small = log_objective(small)
    return large if log_objective(large) < f_small - 1e-15 else small
