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
import sys
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
    "precision_grid",
    "optimal_phase_grid",
]

# |sin(N(phi0 + theta_t))| at or below this counts as a blind operating point.
DEGENERACY_TOL = 1e-14

_LN2 = math.log(2.0)
# eta**-N overflows for certain once -N log2(eta) passes log2(DBL_MAX), about
# 1024, by more than the rounding of N log2(eta) (about 5e-13 there)
_POW_OVERFLOWS = math.log2(sys.float_info.max) + 1e-9
# e**x overflows for certain once x passes ln(DBL_MAX), about 709.78, by more
# than the rounding of x (about 1e-13 there)
_EXP_OVERFLOWS = math.log(sys.float_info.max) + 1e-9
# the one upper bound of every check of N, int or float: past it float(N)
# overflows or rounds an int down to DBL_MAX
_N_MAX = sys.float_info.max
# _log_step's float form is within about eps*L of the exact difference by a
# count of its roundings, and within 0.78 eps*L of its 60-digit value at the
# 20,000 steps of 10,000 seeded losses in [1e-16, 0.99]; outside four times
# that its sign is exact
_STEP_SLACK = 4.0 * sys.float_info.epsilon
# N * N is a finite normal double exactly for N in [2**-511, 2**512)
_SQUARE_NORMAL = (2.0 ** -511, 2.0 ** 512)


def _int_text(value) -> str:
    """``value`` as an error message shows it: an int past DBL_MAX either
    way by its bit count, as its digits can pass the int-to-str limit."""
    if isinstance(value, int) and not -_N_MAX <= value <= _N_MAX:
        return f"{'a negative' if value < 0 else 'an'} int of {value.bit_length()} bits"
    return repr(value)


def _real_n_error(n) -> ValueError:
    return ValueError(f"photon number must lie in (0, DBL_MAX], got {_int_text(n)}")


def _validate_eta(eta: float, n: float = 1.0) -> None:
    """eta in (0, 1]; the forms that treat N as a real number also pass N,
    which must be positive and at most DBL_MAX and is checked first."""
    # chained and without float(), as it runs in the bisection loop
    if not 0 < n <= _N_MAX:
        raise _real_n_error(n)
    if not (0.0 < eta <= 1.0):
        raise ValueError(f"eta must lie in (0, 1], got {eta!r}")


def _float_range(value: int, name: str) -> int:
    """``value``, or a ValueError naming it where it is past DBL_MAX: the
    message of every int past the bound."""
    if not value <= _N_MAX:
        raise ValueError(f"{name} must be at most DBL_MAX, got {_int_text(value)}")
    return value


def _photon_number(n) -> int:
    n = operator.index(n)
    if n < 1:
        raise ValueError(f"photon number must be >= 1, got {_int_text(n)}")
    return _float_range(n, "photon number")


def _validate_phases(phi0: float, delta_phi: float) -> None:
    try:
        if math.isfinite(phi0) and math.isfinite(delta_phi):
            return
    except OverflowError:  # an int past DBL_MAX
        raise ValueError(f"phi0 and delta_phi must be finite, got phi0 = {_int_text(phi0)}, "
                         f"delta_phi = {_int_text(delta_phi)}") from None
    raise ValueError("phi0 and delta_phi must be finite")


def _exp_or_inf(x: float) -> float:
    """e**x, or inf past DBL_MAX.

    Decided without raising past _EXP_OVERFLOWS, since most log-form fig cells
    overflow; the try catches the band below that line.
    """
    if x > _EXP_OVERFLOWS:
        return math.inf
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _log_half_1p_exp(a: float) -> float:
    """ln((e**a + 1)/2) for any a >= 0, without overflow."""
    return a + math.log1p(math.exp(-a)) - _LN2


def _log_step(n: int, eta: float, big_l: float, weight: float) -> float:
    """ln f(N + 1) - ln f(N) of f = sqrt(e**(NL) + 1) / N**weight at
    L = -ln(eta) > 0: the forward difference whose sign ends both integer
    optimizers, with weight 1 for the optimal-phase precision and 1/2 for
    R_NOON, each up to a constant factor.

    Its square-root part is half of ln((e**((N+1)L) + 1)/(e**(NL) + 1)),
    written L + log1p(expm1(-L)/(1 + e**(NL))) so that no large term forms;
    past the overflow of e**(NL) it is exactly L.  Within _STEP_SLACK * L of
    0, where the float form's sign may be its rounding's, the difference is
    taken at 60 digits from the exact eta instead.
    """
    d = 0.5 * (big_l + math.log1p(math.expm1(-big_l) / (1.0 + _exp_or_inf(n * big_l)))) \
        - weight * math.log1p(1.0 / n)
    if abs(d) > _STEP_SLACK * big_l:
        return d
    import decimal  # here, as few solves get this far: at import it costs about 4 ms
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        big_l = -decimal.Decimal(eta).ln()
        ratio = (((n + 1) * big_l).exp() + 1) / ((n * big_l).exp() + 1)
        return float(ratio.ln() / 2 - decimal.Decimal(weight) * (decimal.Decimal(n + 1) / n).ln())


def _log_2n(n: float) -> float:
    """ln(2N), also past DBL_MAX/2, where 2N overflows."""
    two_n = 2.0 * n
    return math.log(two_n) if two_n < math.inf else _LN2 + math.log(n)


def _inv_eta_pow(n: float, eta: float) -> float:
    """eta**-n, exact to an ulp, or inf past DBL_MAX.

    This decides whether eta**-N overflows for every scalar form, each of
    which takes its own log form where it gets inf.  The two grid loops,
    optimal_phase_grid and precision_grid's eta sweep, write the same test out
    inline, and tests hold both to it bit for bit across its lines.
    """
    # decided without raising, since most fig rows overflow; math.log2 costs about a
    # third of math.log in CPython
    if -n * math.log2(eta) > _POW_OVERFLOWS:
        return math.inf
    try:
        return eta ** -n
    except OverflowError:  # within the rounding of N log2(eta) of log2(DBL_MAX)
        return math.inf


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
        try:
            if math.isfinite(self.theta_t):
                return
        except OverflowError:  # an int past DBL_MAX
            pass
        raise ValueError(f"theta_t must be finite, got {_int_text(self.theta_t)}")

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
        object.__setattr__(self, "n", _photon_number(self.n))


@dataclass(frozen=True)
class OperatingPoint:
    """Operating phase phi0 and the small phase change delta_phi to detect."""

    phi0: float
    delta_phi: float

    def __post_init__(self) -> None:
        _validate_phases(self.phi0, self.delta_phi)


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


def _optimal_phi0(n: int, theta_t: float) -> float:
    """The first solution of N(phi0 + theta_t) = pi/2."""
    return 0.5 * math.pi / n - theta_t


def _angle(n: int, phi: float, theta_t: float) -> float:
    """N(phi + theta_t), the argument of every sin and cos below; finite phases
    can still give an infinite product, which is rejected here, as is an int
    phase past DBL_MAX."""
    try:
        if type(phi) is not float or type(theta_t) is not float:
            # numpy scalars as Python floats: numpy's own sum and product would
            # overflow with a RuntimeWarning before the check, or wrap in int64
            phi, theta_t = (x if type(x) is int else float(x) for x in (phi, theta_t))
        angle = n * (phi + theta_t)
        if math.isfinite(angle):
            return angle
    except OverflowError:  # an int phase past DBL_MAX
        pass
    raise ValueError(f"N*(phi0 + theta_t) must be finite, got N = {n}, phi0 = {_int_text(phi)}, "
                     f"theta_t = {_int_text(theta_t)}")


def _mean(n: int, eta: float, c: float) -> float:
    """mean_detection at c = cos(N(phi + theta_t))."""
    return eta ** (n / 2.0) * c


def _variance(n: int, eta: float, s: float) -> float:
    """variance_detection at s = sin(N(phi + theta_t)), as (1 - eta**N)/2 + eta**N s^2: no cancellation."""
    return -0.5 * math.expm1(n * math.log(eta)) + eta ** n * (s * s)


def mean_detection(probe: NoonProbe, ch: LossChannel, phi: float) -> float:
    """<A'_N> = eta**(N/2) * cos(N(phi + theta_t))."""
    n = probe.n
    return _mean(n, ch.eta, math.cos(_angle(n, phi, ch.theta_t)))


def variance_detection(probe: NoonProbe, ch: LossChannel, phi: float) -> float:
    """Var A'_N = (1 + eta**N)/2 - eta**N * cos^2(N(phi + theta_t))."""
    n = probe.n
    return _variance(n, ch.eta, math.sin(_angle(n, phi, ch.theta_t)))


def _log_min_phase(n: int, eta: float, s: float) -> float:
    """ln(sqrt(noise) / (N s)) at |sin| = s, without forming eta**-N; inf at
    a blind operating point."""
    if s <= DEGENERACY_TOL:
        return math.inf
    # a = N|ln eta| may overflow where a/2 does not; halving commutes with
    # rounding, so a/2 is formed first and 2 * (a/2) is a, or inf
    half_a = (0.5 * n) * -math.log(eta)
    a = 2.0 * half_a
    # noise / s^2 = e**a * (-expm1(-a)/(2 s^2) + e**-a): both terms are
    # nonnegative, and at eta = 1 the bracket is exactly 1
    return half_a + 0.5 * math.log(-0.5 * math.expm1(-a) / (s * s) + math.exp(-a)) - math.log(n)


def _snr_min_phase(n: int, eta: float, s: float, delta_phi: float):
    """(snr, min_phase, degenerate) at |sin(N(phi0 + theta_t))| = s.

    The noise term (eta**-N - 1)/2 + s^2 is a sum of two nonnegative terms,
    accurate near blind operating points, where the equal
    (eta**-N + 1)/2 - cos^2 cancels.  A blind operating point
    (s <= DEGENERACY_TOL) gives (0, inf, True).  Where the noise term
    overflows, min_phase is exp(ln min_phase); where it or the signal
    (N s delta_phi)**2 overflows, the SNR is (delta_phi / min_phase)**2
    through ln(min_phase).
    """
    if s <= DEGENERACY_TOL:
        return 0.0, math.inf, True
    # eta**-N - 1: below eta**-N = e (N|ln eta| = 1) expm1 avoids the cancellation
    # as eta -> 1; above, the power is exact to an ulp, while expm1 would scale the
    # rounding of N ln eta by N|ln eta|
    inv = _inv_eta_pow(n, eta)
    noise = 0.5 * (math.expm1(-n * math.log(eta)) if inv < math.e else inv - 1.0) + s * s
    if noise < math.inf:
        min_phase = math.sqrt(noise) / (n * s)
        try:
            return (n * s * delta_phi) ** 2 / noise, min_phase, False
        except OverflowError:  # the signal alone overflows
            log_min_phase = _log_min_phase(n, eta, s)
    else:
        log_min_phase = _log_min_phase(n, eta, s)
        min_phase = _exp_or_inf(log_min_phase)
    snr = 0.0 if delta_phi == 0.0 else _exp_or_inf(2.0 * (math.log(abs(delta_phi)) - log_min_phase))
    return snr, min_phase, False


def snr_lossy(probe: NoonProbe, ch: LossChannel, op: OperatingPoint) -> SnrResult:
    """Small-change signal-to-noise ratio at phi0.

    Returns the quadratic-in-delta_phi SNR.  At operating points where the
    signal slope vanishes (sin(N(phi0 + theta_t)) = 0 within DEGENERACY_TOL)
    the detector is blind; the value 0 is returned with ``degenerate`` set
    instead of raising.  Where the signal or the noise term overflows, the
    value comes from ln(min_phase).
    """
    n = probe.n
    snr, _, degenerate = _snr_min_phase(n, ch.eta, abs(math.sin(_angle(n, op.phi0, ch.theta_t))), op.delta_phi)
    return SnrResult(snr, degenerate)


def min_phase_at(probe: NoonProbe, ch: LossChannel, phi0: float) -> float:
    """Minimum detectable phase change (unit SNR) at operating phase phi0.

    Returns +inf at degenerate operating points.  Where the noise term
    overflows, the value is exp(log_min_phase_at), finite wherever that is.
    """
    n = probe.n
    return _snr_min_phase(n, ch.eta, abs(math.sin(_angle(n, phi0, ch.theta_t))), 0.0)[1]


def log_min_phase_at(probe: NoonProbe, ch: LossChannel, phi0: float) -> float:
    """ln of min_phase_at, computed without forming eta**-N directly."""
    n = probe.n
    return _log_min_phase(n, ch.eta, abs(math.sin(_angle(n, phi0, ch.theta_t))))


def _optimal_phase(n, eta: float, n_total=None, ratio: bool = False) -> float:
    """sqrt((eta**-N + 1)/2) / N, the precision at the optimal phase, from one
    _inv_eta_pow; with ``n_total`` the budgeted precision sqrt((eta**-N + 1)/2)
    / sqrt(N N_T), and with ``ratio`` R_NOON = sqrt(eta (eta**-N + 1)/(2N)).

    Where eta**-N overflows each is exp of its log form.  There
    a = N|ln eta| > 709, so adding ln(1 + eta**N) = ln(1 + e**-a) < 1e-307 to
    it changes no bit: the log forms leave that term out.
    """
    inv = _inv_eta_pow(n, eta)
    if inv < math.inf:
        if ratio:
            # past DBL_MAX/2, where 2N overflows, eta**-N is finite only at eta = 1
            two_n = 2.0 * n
            return math.sqrt(eta * (inv + 1.0) / two_n if two_n < math.inf else 0.5 * (eta * (inv + 1.0)) / n)
        root = math.sqrt(0.5 * (inv + 1.0))
        if n_total is None:
            return root / n
        try:
            return root / math.sqrt(n * n_total)
        except OverflowError:  # N N_T past the float range, each factor within it
            return root / (math.sqrt(n) * math.sqrt(n_total))
    log_eta = math.log(eta)
    a = -n * log_eta
    if ratio:
        return _exp_or_inf(0.5 * (log_eta + a - _log_2n(n)))
    log_n = math.log(n) if n_total is None else 0.5 * math.log(n * n_total)
    return _exp_or_inf(0.5 * (a - _LN2) - log_n)


def min_phase_opt_continuous(n: float, eta: float) -> float:
    """min_phase at the optimal operating phase, N treated as a real number."""
    _validate_eta(eta, n)
    return _optimal_phase(n, eta)


def min_phase_opt(probe: NoonProbe, eta: float) -> float:
    """sqrt((eta**-N + 1)/2) / N, the precision at the optimal phase.

    Equals 1/N exactly at eta = 1 and diverges as N grows for any eta < 1.
    For very lossy, high-N inputs the float result may be +inf; the log-domain
    value from :func:`log_min_phase_opt` stays finite.
    """
    return min_phase_opt_continuous(probe.n, eta)


def log_min_phase_opt_continuous(n: float, eta: float) -> float:
    """ln of the optimal-phase precision, stable for any N*|ln eta|."""
    _validate_eta(eta, n)
    log_eta = math.log(eta)
    a = -n * log_eta
    if a == math.inf:  # a/2 may not overflow, and the other terms are far below its ulp
        return -0.5 * n * log_eta
    return 0.5 * _log_half_1p_exp(a) - math.log(n)


def log_min_phase_opt(probe: NoonProbe, eta: float) -> float:
    return log_min_phase_opt_continuous(probe.n, eta)


def d_precision_dN(n_real: float, eta: float) -> float:
    """Derivative of the optimal-phase precision with respect to real N.

    -(1/N^2) sqrt((eta**-N + 1)/2) - (eta**-N ln eta)/(4N) / sqrt((eta**-N + 1)/2)
    """
    _validate_eta(eta, n_real)
    log_eta = math.log(eta)
    a = -n_real * log_eta
    # factor out e**(a/2): both terms share it, and it is the only piece
    # that can overflow; it can do so where the product does not, so it is
    # applied as a/2 + ln|bracket|
    s = math.sqrt(0.5 * (1.0 + math.exp(-a)))
    if _SQUARE_NORMAL[0] <= n_real < _SQUARE_NORMAL[1]:
        bracket = -s / (n_real * n_real) - log_eta / (4.0 * n_real * s)
        log_n = 0.0
    else:
        # N * N would leave the normal range (and 4N overflow past DBL_MAX/4):
        # this is N times the bracket, and ln N comes off its log
        bracket = -s / n_real - log_eta / (4.0 * s)
        log_n = math.log(n_real)
    if bracket == 0.0:
        return 0.0
    return math.copysign(_exp_or_inf(0.5 * a + math.log(abs(bracket)) - log_n), bracket)


def d_log_precision_dN(n_real: float, eta: float) -> float:
    """d/dN of ln(optimal-phase precision): -1/N - ln(eta) / (2(eta**N + 1)).

    Its root in N is the continuous minimizer of the precision for fixed eta.
    """
    _validate_eta(eta, n_real)
    return -1.0 / n_real - math.log(eta) / (2.0 * (eta ** n_real + 1.0))


def precision_report(probe: NoonProbe, ch: LossChannel, op: OperatingPoint) -> PrecisionReport:
    """Evaluate mean, variance, SNR, and minimum phase at one operating point."""
    n, eta = probe.n, ch.eta
    angle = _angle(n, op.phi0, ch.theta_t)
    c, s = math.cos(angle), abs(math.sin(angle))
    snr, min_phase, degenerate = _snr_min_phase(n, eta, s, op.delta_phi)
    return PrecisionReport(mean=_mean(n, eta, c), variance=_variance(n, eta, s), snr=snr,
                           min_phase=min_phase, log_min_phase=_log_min_phase(n, eta, s),
                           degenerate=degenerate)


def _build_point(n, eta: float, theta_t: float, phi0, delta_phi: float):
    """(probe, channel, operating point) of one point, built channel first;
    ``phi0=None`` is the optimal phase pi/(2N) - theta_t."""
    ch = LossChannel(eta, theta_t)
    probe = NoonProbe(n)
    return probe, ch, OperatingPoint(_optimal_phi0(probe.n, theta_t) if phi0 is None else phi0, delta_phi)


def precision_grid(n, eta, theta_t: float, phi0, delta_phi: float):
    """mean, variance, snr, min_phase and min_phase_opt over a sweep, as five lists.

    Exactly one of ``n``, ``eta`` and ``phi0`` is a sequence, the swept
    variable; the others are held fixed.  ``phi0=None`` is the optimal phase
    pi/(2N) - theta_t at each point.  Every value equals, bit for bit, the
    matching field of :func:`precision_report` or :func:`min_phase_opt` at
    that point.  Points are checked in grid order, and the first one outside
    the domain raises the ValueError its LossChannel, NoonProbe or
    OperatingPoint would.

    An eta sweep (the CLI's ``--var eta`` and ``--var L``) runs in one loop
    of its own, with the angle's sin and cos taken once; N and phi0 sweeps
    evaluate the scalar forms at each point.
    """
    n_seq, eta_seq, phi_seq = (hasattr(x, "__len__") for x in (n, eta, phi0))
    if n_seq + eta_seq + phi_seq != 1:
        raise TypeError("exactly one of n, eta and phi0 must be a sequence")
    if not len(n if n_seq else eta if eta_seq else phi0):
        return [], [], [], [], []
    # the first point holds every fixed value; after it only the swept one can fail
    probe, _, op = _build_point(n[0] if n_seq else n, eta[0] if eta_seq else eta, theta_t,
                                phi0[0] if phi_seq else phi0, delta_phi)
    if eta_seq:
        return _eta_columns(probe.n, eta, _angle(probe.n, op.phi0, theta_t), delta_phi)

    def points():
        """(N, eta, angle) of each point, in grid order."""
        if n_seq:
            for k in map(_photon_number, n):
                yield k, eta, _angle(k, _optimal_phi0(k, theta_t) if phi0 is None else phi0, theta_t)
        else:
            for p in phi0:
                _validate_phases(p, delta_phi)
                yield probe.n, eta, _angle(probe.n, p, theta_t)

    mean, variance, snr, min_phase, opt = [], [], [], [], []
    for k, e, angle in points():
        s = abs(math.sin(angle))
        mean.append(_mean(k, e, math.cos(angle)))
        variance.append(_variance(k, e, s))
        snr_k, min_phase_k, _ = _snr_min_phase(k, e, s, delta_phi)
        snr.append(snr_k)
        min_phase.append(min_phase_k)
        opt.append(_optimal_phase(k, e))
    return mean, variance, snr, min_phase, opt


def _eta_columns(n: int, etas, angle: float, delta_phi: float):
    """precision_grid's five columns over the checked etas of an eta sweep at
    fixed N and angle, in grid order.

    The forms of _mean, _variance, _snr_min_phase, _inv_eta_pow and
    _optimal_phase, written out: the angle's sin and cos, and the signal, are
    fixed down the sweep, and each point takes log(eta) and eta**-N once, for
    the noise term and min_phase_opt alike.  Only the paths past ln(DBL_MAX)
    call the scalar log forms.
    """
    n = float(n)  # as each form converts an int N, once here
    c, s = math.cos(angle), abs(math.sin(angle))
    ss, half_n, log_n = s * s, n / 2.0, math.log(n)
    blind = s <= DEGENERACY_TOL
    ns = n * s
    try:
        signal = (ns * delta_phi) ** 2
    except OverflowError:  # the log path at every point, as in _snr_min_phase; an inf product squares to inf
        signal = None
    mean, variance, snr, min_phase, opt = [], [], [], [], []
    for e in etas:
        if not 0.0 < e <= 1.0:
            _validate_eta(e)
        n_log = n * math.log(e)
        mean.append(e ** half_n * c)
        variance.append(-0.5 * math.expm1(n_log) + e ** n * ss)
        if -n * math.log2(e) > _POW_OVERFLOWS:
            inv = math.inf
        else:
            try:
                inv = e ** -n
            except OverflowError:
                inv = math.inf
        if blind:
            snr.append(0.0)
            min_phase.append(math.inf)
        else:
            noise = 0.5 * (math.expm1(-n_log) if inv < math.e else inv - 1.0) + ss
            if noise < math.inf and signal is not None:
                snr.append(signal / noise)
                min_phase.append(math.sqrt(noise) / ns)
            else:
                log_min_phase = _log_min_phase(n, e, s)
                snr.append(0.0 if delta_phi == 0.0 else _exp_or_inf(2.0 * (math.log(abs(delta_phi)) - log_min_phase)))
                min_phase.append(math.sqrt(noise) / ns if noise < math.inf else _exp_or_inf(log_min_phase))
        opt.append(math.sqrt(0.5 * (inv + 1.0)) / n if inv < math.inf else _exp_or_inf(0.5 * (-n_log - _LN2) - log_n))
    return mean, variance, snr, min_phase, opt


def optimal_phase_grid(ns, eta: float, ratio: bool = False) -> list:
    """min_phase_opt_continuous, or with ``ratio`` R_NOON (r_noon_continuous),
    at each N of ``ns``: the columns of the fig2 and fig3 sweeps.

    eta is checked once, and each N in grid order; every value equals, bit
    for bit, the scalar function's at that point.
    """
    _validate_eta(eta)
    # the forms of _inv_eta_pow and _optimal_phase, written out: eta is fixed
    # down the column, so its logs are taken once, and a call per point would
    # cost more than the forms themselves
    log2_eta, log_eta = math.log2(eta), math.log(eta)
    column = []
    for n in ns:
        if not 0 < n <= _N_MAX:
            raise _real_n_error(n)
        if -n * log2_eta > _POW_OVERFLOWS:
            inv = math.inf
        else:
            try:
                inv = eta ** -n
            except OverflowError:
                inv = math.inf
        if inv < math.inf:
            if ratio:
                two_n = 2.0 * n
                value = math.sqrt(eta * (inv + 1.0) / two_n if two_n < math.inf else 0.5 * (eta * (inv + 1.0)) / n)
            else:
                value = math.sqrt(0.5 * (inv + 1.0)) / n
        else:
            a = -n * log_eta
            value = _exp_or_inf(0.5 * (log_eta + a - _log_2n(n)) if ratio else 0.5 * (a - _LN2) - math.log(n))
        column.append(value)
    return column
