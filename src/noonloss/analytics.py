"""Closed-form moments, SNR, and minimum detectable phase for NOON-state
interferometry with photon loss in one arm.

Loss is modeled as a beam splitter of intensity transmissivity ``eta`` in
front of the detector, so every quantity here is an explicit function of the
photon number N, the transmissivity, and the operating phase.  The matching
brute-force checks for the moment formulas live in
:mod:`noonloss.fock_oracle`.
"""

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

__all__ = [
    "DEGENERACY_TOL",
    "LossChannel",
    "NoonProbe",
    "OperatingPoint",
    "SnrResult",
    "PrecisionReport",
    "mean_detection",
    "variance_detection",
    "snr_lossy",
    "min_phase_at",
    "log_min_phase_at",
    "min_phase_opt",
    "log_min_phase_opt",
    "min_phase_opt_continuous",
    "log_min_phase_opt_continuous",
    "d_precision_dN",
    "d_log_precision_dN",
    "precision_report",
]

# |sin(N(phi0 + theta_t))| at or below this counts as a blind operating point.
DEGENERACY_TOL = 1e-14

# Above this value of N*|ln eta| the factor eta**-N is handled through its
# logarithm; a direct power would overflow well before N reaches useful sizes.
_LOG_DOMAIN_CUTOFF = 500.0

_LN2 = math.log(2.0)


def _validate_eta(eta: float) -> None:
    if not (0.0 < eta <= 1.0):
        raise ValueError(f"eta must lie in (0, 1], got {eta!r}")


def _exp_or_inf(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _log_half_1p_exp(a: float) -> float:
    """ln((e**a + 1)/2) for any a >= 0, without overflow."""
    return a + math.log1p(math.exp(-a)) - _LN2


def _inv_eta_pow(n: float, eta: float) -> float:
    """eta**(-n), evaluated through the exponent when it is large; may be inf."""
    a = -n * math.log(eta)
    if a > _LOG_DOMAIN_CUTOFF:
        return _exp_or_inf(a)
    return eta ** -n


@dataclass(frozen=True)
class LossChannel:
    """One-arm loss channel: fraction ``eta`` of the intensity survives.

    ``theta_t`` is the phase of the transmission coefficient; pure loss
    corresponds to the default ``theta_t = 0``.
    """

    eta: float
    theta_t: float = 0.0

    def __post_init__(self) -> None:
        _validate_eta(self.eta)
        if not math.isfinite(self.theta_t):
            raise ValueError(f"theta_t must be finite, got {self.theta_t!r}")

    @property
    def loss(self) -> float:
        return 1.0 - self.eta

    @classmethod
    def from_loss(cls, loss: float, theta_t: float = 0.0) -> "LossChannel":
        return cls(1.0 - loss, theta_t)


@dataclass(frozen=True)
class NoonProbe:
    """An N-photon NOON probe state, (|N,0> + |0,N>)/sqrt(2)."""

    n: int

    def __post_init__(self) -> None:
        n = operator.index(self.n)
        if n < 1:
            raise ValueError(f"photon number must be >= 1, got {n}")
        object.__setattr__(self, "n", n)


@dataclass(frozen=True)
class OperatingPoint:
    """Operating phase phi0 and the small phase change delta_phi to detect."""

    phi0: float
    delta_phi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.phi0) and math.isfinite(self.delta_phi)):
            raise ValueError("phi0 and delta_phi must be finite")


class SnrResult(NamedTuple):
    value: float
    degenerate: bool


@dataclass(frozen=True)
class PrecisionReport:
    """Bundle of detection statistics at one (N, eta, phi0) point."""

    mean: float
    variance: float
    snr: float
    min_phase: float
    log_min_phase: float
    degenerate: bool


def mean_detection(probe: NoonProbe, ch: LossChannel, phi: float) -> float:
    """<A'_N> = eta**(N/2) * cos(N(phi + theta_t))."""
    n = probe.n
    return ch.eta ** (n / 2.0) * math.cos(n * (phi + ch.theta_t))


def variance_detection(probe: NoonProbe, ch: LossChannel, phi: float) -> float:
    """Var A'_N = (1 + eta**N)/2 - eta**N * cos^2(N(phi + theta_t))."""
    n = probe.n
    eta_n = ch.eta ** n
    c = math.cos(n * (phi + ch.theta_t))
    return 0.5 * (1.0 + eta_n) - eta_n * c * c


def _noise_term(n: int, eta: float, cos_angle: float) -> float:
    """(eta**-N + 1)/2 - cos^2, the noise denominator of the lossy SNR."""
    inv = _inv_eta_pow(n, eta)
    return 0.5 * (inv + 1.0) - cos_angle * cos_angle


def snr_lossy(probe: NoonProbe, ch: LossChannel, op: OperatingPoint) -> SnrResult:
    """Small-change signal-to-noise ratio at phi0.

    Returns the quadratic-in-delta_phi SNR.  At operating points where the
    signal slope vanishes (sin(N(phi0 + theta_t)) = 0 within DEGENERACY_TOL)
    the detector is blind; the value 0 is returned with ``degenerate`` set
    instead of raising.
    """
    n = probe.n
    angle = n * (op.phi0 + ch.theta_t)
    s = math.sin(angle)
    if abs(s) <= DEGENERACY_TOL:
        return SnrResult(0.0, True)
    noise = _noise_term(n, ch.eta, math.cos(angle))
    return SnrResult((n * s * op.delta_phi) ** 2 / noise, False)


def min_phase_at(probe: NoonProbe, ch: LossChannel, phi0: float) -> float:
    """Minimum detectable phase change (unit SNR) at operating phase phi0.

    Returns +inf at degenerate operating points.
    """
    n = probe.n
    angle = n * (phi0 + ch.theta_t)
    s = abs(math.sin(angle))
    if s <= DEGENERACY_TOL:
        return math.inf
    return math.sqrt(_noise_term(n, ch.eta, math.cos(angle))) / (n * s)


def log_min_phase_at(probe: NoonProbe, ch: LossChannel, phi0: float) -> float:
    """ln of min_phase_at, computed without forming eta**-N directly."""
    n = probe.n
    angle = n * (phi0 + ch.theta_t)
    s = abs(math.sin(angle))
    if s <= DEGENERACY_TOL:
        return math.inf
    c = math.cos(angle)
    a = -n * math.log(ch.eta)
    # (e**a + 1)/2 - c^2 = e**a * (0.5 + (0.5 - c^2) e**-a); the bracket is
    # positive whenever the operating point is nondegenerate.
    log_noise = a + math.log(0.5 + (0.5 - c * c) * math.exp(-a))
    return 0.5 * log_noise - math.log(n * s)


def min_phase_opt_continuous(n: float, eta: float) -> float:
    """min_phase at the optimal operating phase, N treated as a real number."""
    if n <= 0:
        raise ValueError(f"photon number must be positive, got {n!r}")
    _validate_eta(eta)
    inv = _inv_eta_pow(n, eta)
    if math.isinf(inv):
        return _exp_or_inf(log_min_phase_opt_continuous(n, eta))
    return math.sqrt(0.5 * (inv + 1.0)) / n


def min_phase_opt(probe: NoonProbe, eta: float) -> float:
    """sqrt((eta**-N + 1)/2) / N, the precision at the optimal phase.

    Equals 1/N exactly at eta = 1 and diverges as N grows for any eta < 1.
    For very lossy, high-N inputs the float result may be +inf; the log-domain
    value from :func:`log_min_phase_opt` stays finite.
    """
    return min_phase_opt_continuous(probe.n, eta)


def log_min_phase_opt_continuous(n: float, eta: float) -> float:
    """ln of the optimal-phase precision, stable for any N*|ln eta|."""
    if n <= 0:
        raise ValueError(f"photon number must be positive, got {n!r}")
    _validate_eta(eta)
    a = -n * math.log(eta)
    return 0.5 * _log_half_1p_exp(a) - math.log(n)


def log_min_phase_opt(probe: NoonProbe, eta: float) -> float:
    return log_min_phase_opt_continuous(probe.n, eta)


def d_precision_dN(n_real: float, eta: float) -> float:
    """Derivative of the optimal-phase precision with respect to real N.

    -(1/N^2) sqrt((eta**-N + 1)/2) - (eta**-N ln eta)/(4N) / sqrt((eta**-N + 1)/2)
    """
    if n_real <= 0:
        raise ValueError(f"photon number must be positive, got {n_real!r}")
    _validate_eta(eta)
    log_eta = math.log(eta)
    a = -n_real * log_eta
    # factor out e**(a/2): both terms share it, and it is the only piece
    # that can overflow
    s = math.sqrt(0.5 * (1.0 + math.exp(-a)))
    bracket = -s / (n_real * n_real) - log_eta / (4.0 * n_real * s)
    if bracket == 0.0:
        return 0.0
    return _exp_or_inf(0.5 * a) * bracket


def d_log_precision_dN(n_real: float, eta: float) -> float:
    """d/dN of ln(optimal-phase precision): -1/N - ln(eta) / (2(eta**N + 1)).

    Its root in N is the continuous minimizer of the precision for fixed eta.
    """
    if n_real <= 0:
        raise ValueError(f"photon number must be positive, got {n_real!r}")
    _validate_eta(eta)
    return -1.0 / n_real - math.log(eta) / (2.0 * (eta ** n_real + 1.0))


def precision_report(probe: NoonProbe, ch: LossChannel, op: OperatingPoint) -> PrecisionReport:
    """Evaluate mean, variance, SNR, and minimum phase at one operating point."""
    snr = snr_lossy(probe, ch, op)
    return PrecisionReport(
        mean=mean_detection(probe, ch, op.phi0),
        variance=variance_detection(probe, ch, op.phi0),
        snr=snr.value,
        min_phase=min_phase_at(probe, ch, op.phi0),
        log_min_phase=log_min_phase_at(probe, ch, op.phi0),
        degenerate=snr.degenerate,
    )
