"""Optimal photon number for a single lossy NOON measurement, the small-loss
scaling constants, and the critical loss above which more photons never help."""

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

from . import analytics
from .roots import bisect_root, expand_upper, integer_argmin

__all__ = [
    "DEFAULT_N_CAP",
    "InvalidEta",
    "OptimumResult",
    "n_min_integer",
    "solve_nu",
    "mu_from_nu",
    "asymptotic_optimum",
    "eta_critical",
    "loss_critical",
]

DEFAULT_N_CAP = 10 ** 9
_ROOT_TOL = 1e-12


class InvalidEta(ValueError):
    """Transmissivity outside the domain of the requested optimum."""


@dataclass(frozen=True)
class OptimumResult:
    """Integer and continuous minimizers of the optimal-phase precision.

    ``asymptotic_n`` and ``asymptotic_precision`` are the small-loss
    predictions nu/L and mu*L evaluated at this channel's loss.
    """

    n_star: int
    precision_at_opt: float
    continuous_n: float
    asymptotic_n: float
    asymptotic_precision: float


@lru_cache(maxsize=1)
def solve_nu() -> float:
    """Positive root of x = 2(exp(-x) + 1), about 2.218.

    The small-loss optimal photon number approaches nu/L.
    """
    return bisect_root(lambda x: 2.0 * (math.exp(-x) + 1.0) - x, 1.0, 4.0, tol=0.0)


def mu_from_nu(nu: float) -> float:
    """(1/nu) * sqrt((exp(nu) + 1)/2): precision at the optimum is mu*L."""
    if nu <= 0:
        raise ValueError(f"nu must be positive, got {nu!r}")
    return math.sqrt(0.5 * (math.exp(nu) + 1.0)) / nu


def asymptotic_optimum(loss: float) -> tuple[float, float]:
    """Small-loss predictions (nu/L, mu*L) for the optimal N and precision."""
    if not (0.0 < loss < 1.0):
        raise ValueError(f"loss must lie in (0, 1), got {loss!r}")
    nu = solve_nu()
    return nu / loss, mu_from_nu(nu) * loss


def eta_critical() -> float:
    """(sqrt(7) - 2)/3: below this transmissivity, two photons are worse than one."""
    return (math.sqrt(7.0) - 2.0) / 3.0


def loss_critical() -> float:
    """1 - eta_critical, about 0.785; above it precision never improves with N."""
    return 1.0 - eta_critical()


def n_min_integer(eta: float, n_cap: int = DEFAULT_N_CAP) -> OptimumResult:
    """Smallest integer N in [1, n_cap] minimizing the optimal-phase precision.

    Locates the sign change of d_log_precision_dN by bracketing and bisection
    in continuous N, then compares the two neighboring integers; when the
    derivative is already positive at N = 1 (large loss) the answer is 1.
    Ties between adjacent integers go to the smaller N.

    Raises :class:`InvalidEta` unless 0 < eta < 1; the lossless precision
    improves monotonically with N and has no interior optimum.
    """
    if not (0.0 < eta < 1.0):
        raise InvalidEta(f"an interior optimum needs 0 < eta < 1, got {eta!r}")
    n_cap = operator.index(n_cap)
    if n_cap < 1:
        raise ValueError(f"n_cap must be >= 1, got {n_cap}")

    def slope(x: float) -> float:
        return analytics.d_log_precision_dN(x, eta)

    # slope(lo) < 0 always: -1/N dominates |ln eta|/2 for any float eta
    lo = 1e-9
    hi = expand_upper(slope, lo, 1.0)
    root = bisect_root(slope, lo, hi, tol=_ROOT_TOL)

    best = integer_argmin(root, n_cap, lambda n: analytics.log_min_phase_opt_continuous(n, eta))

    loss = 1.0 - eta
    nu = solve_nu()
    return OptimumResult(
        n_star=best,
        precision_at_opt=analytics.min_phase_opt_continuous(best, eta),
        continuous_n=root,
        asymptotic_n=nu / loss,
        asymptotic_precision=mu_from_nu(nu) * loss,
    )
