"""Bracketed bisection for the transcendental equations behind the
optimal-photon-number searches, and the integer step that ends each search."""

import math

__all__ = ["bisect_root", "expand_upper", "integer_argmin"]


def bisect_root(f, lo: float, hi: float, *, tol: float = 1e-12) -> float:
    """Root of f on [lo, hi] by bisection, to absolute tolerance ``tol``.

    The endpoints must bracket a sign change.  Stops early once the midpoint
    can no longer be distinguished from an endpoint in floating point.
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
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid
        if hi - lo <= tol:
            break
    return 0.5 * (lo + hi)


def expand_upper(f, lo: float, hi0: float = 1.0) -> float:
    """Double an upper endpoint from ``hi0`` until f(hi) > 0.

    Meant for increasing f with f(lo) < 0; pairs with :func:`bisect_root`.
    """
    hi = max(hi0, lo)
    for _ in range(200):
        if f(hi) > 0.0:
            return hi
        hi *= 2.0
    raise RuntimeError("could not bracket a sign change")


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
