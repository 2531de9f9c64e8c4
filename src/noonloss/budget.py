"""Splitting a fixed photon budget over repeated NOON measurements and
comparing against the unentangled coherent-state baseline.

With N photons per state and M = N_T / N measurements, the budgeted NOON
precision factors as R_NOON / sqrt(eta N_T), where R_NOON is the kappa-free
ratio to the baseline kappa / sqrt(eta N_T).
"""

import math
import operator
from dataclasses import dataclass

from .analytics import (_N_MAX, _exp_or_inf, _float_range, _int_text, _log_2n, _log_step, _photon_number,
                        _validate_eta, optimal_phase_grid)
# bisect_root is unused here; perfbench's tracer patches every roots function in budget by name
from .roots import bisect_root, integer_argmin

__all__ = [
    "PhotonBudget",
    "unentangled_precision",
    "noon_precision_budgeted",
    "r_noon",
    "r_noon_continuous",
    "log_r_noon",
    "n_tilde_min_integer",
    "solve_nu_tilde",
    "mu_tilde",
    "l_tilde_critical",
    "d_rnoon_dN_largeloss",
]


@dataclass(frozen=True)
class PhotonBudget:
    """Average total photon count N_T, with the baseline constant kappa.

    kappa is the order-unity prefactor of the unentangled precision
    kappa / sqrt(eta N_T); it is not pinned down further and defaults to 1.
    """

    n_total: int
    kappa: float = 1.0

    def __post_init__(self) -> None:
        n_total = operator.index(self.n_total)
        if n_total < 1:
            raise ValueError(f"n_total must be >= 1, got {_int_text(n_total)}")
        _float_range(n_total, "n_total")
        # chained, as math.isfinite overflows for an int past DBL_MAX
        if not 0.0 < self.kappa <= _N_MAX:
            raise ValueError(f"kappa must be positive and finite, got {_int_text(self.kappa)}")
        object.__setattr__(self, "n_total", n_total)


def unentangled_precision(b: PhotonBudget, eta: float) -> float:
    """kappa / sqrt(eta N_T); independent of how the budget is split."""
    _validate_eta(eta)
    return b.kappa / math.sqrt(eta * b.n_total)


def log_r_noon(n: float, eta: float) -> float:
    """ln R_NOON, finite even where the linear value overflows."""
    _validate_eta(eta, n)
    log_eta = math.log(eta)
    a = -n * log_eta
    if a == math.inf:  # a/2 may not overflow, and the other terms are far below its ulp
        return -0.5 * n * log_eta
    return 0.5 * (log_eta + a + math.log1p(math.exp(-a)) - _log_2n(n))


def r_noon_continuous(n: float, eta: float) -> float:
    """R_NOON with N treated as a real number (for derivative work)."""
    _validate_eta(eta, n)
    return optimal_phase_grid([n], eta, ratio=True)[0]


def r_noon(n: int, eta: float) -> float:
    """sqrt(eta (eta**-N + 1) / (2N)): budgeted NOON precision over baseline.

    Equals 1/sqrt(N) at eta = 1.  Falls back to log-domain evaluation when
    N |ln eta| is large; the float value may then be +inf.
    """
    return r_noon_continuous(_photon_number(n), eta)


def noon_precision_budgeted(n: int, b: PhotonBudget, eta: float) -> float:
    """sqrt((eta**-N + 1) / (2 N N_T)), the precision after M = N_T/N rounds.

    M enters only as 1/sqrt(M) and may be fractional.  N cannot exceed the
    budget.
    """
    n = operator.index(n)
    if not 1 <= n <= b.n_total:
        raise ValueError(f"per-measurement N must satisfy 1 <= N <= N_T = {b.n_total}, got {_int_text(n)}")
    return optimal_phase_grid([n], eta, n_total=b.n_total)[0]


def solve_nu_tilde() -> float:
    """Root of x = exp(-x) + 1, 1 + W(1/e) with W the Lambert W function,
    correctly rounded: the budgeted optimum uses about nu_tilde/L photons per
    state at small loss."""
    return 1.2784645427610737


def mu_tilde() -> float:
    """sqrt((exp(nu_tilde) + 1) / (2 nu_tilde)), correctly rounded: the best
    budgeted precision approaches mu_tilde * sqrt(L / N_T)."""
    return 1.3399853500446604


def l_tilde_critical() -> float:
    """2 - sqrt(2), correctly rounded: above this loss, R_NOON increases with
    N everywhere."""
    return 0.585786437626905


def n_tilde_min_integer(eta: float, b: PhotonBudget) -> int:
    """Integer N in [1, N_T] minimizing R_NOON.

    At eta = 1 the whole budget goes into a single measurement.  Otherwise
    d ln R_NOON/dN = 0 reduces to -N ln(eta) = nu_tilde, so the continuous
    minimizer is ``solve_nu_tilde() / -ln(eta)``; the two neighboring
    integers are compared by the sign of the forward difference of ln R_NOON
    (an exact tie goes to the smaller N) and the result clamped to the budget.
    """
    if not 0.0 < eta < 1.0:
        _validate_eta(eta)
        return b.n_total
    big_l = -math.log(eta)
    return integer_argmin(solve_nu_tilde() / big_l, b.n_total, lambda n: _log_step(n, eta, big_l, 0.5))


def d_rnoon_dN_largeloss(n: float, eta: float) -> float:
    """Large-loss limit form of dR_NOON/dN: -ln(eta) eta**(-(N-1)/2) / (8 sqrt(2N)).

    Positive for every N when eta < 1, so deep in the lossy regime R_NOON
    only grows with N.  This is the limiting expression, not the exact
    derivative.
    """
    _validate_eta(eta, n)
    if eta == 1.0:
        raise ValueError(f"the large-loss form needs 0 < eta < 1, got {eta!r}")
    log_eta = math.log(eta)
    scale = _exp_or_inf(-0.5 * (n - 1.0) * log_eta)
    if scale == math.inf:  # so is the value, also past DBL_MAX/2, where sqrt(2N) overflows
        return math.inf
    return -log_eta * scale / (8.0 * math.sqrt(2.0 * n))
