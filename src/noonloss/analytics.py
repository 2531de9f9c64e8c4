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

__all__ = [
    "DEGENERACY_TOL",
    "LossChannel",
    "NoonProbe",
    "OperatingPoint",
    "PrecisionReport",
    "mean_detection",
    "variance_detection",
    "min_phase_opt",
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
# the least normal double: below it a product keeps fewer bits, or reads 0
_DBL_MIN = sys.float_info.min
# _log_step's float form is within about eps*L of the exact difference by a
# count of its roundings, and within 0.78 eps*L of its 60-digit value at the
# 20,000 steps of 10,000 seeded losses in [1e-16, 0.99]; outside four times
# that its sign is exact
_STEP_SLACK = 4.0 * sys.float_info.epsilon


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
    # chained and without float(), which overflows for an int past DBL_MAX
    if not 0 < n <= _N_MAX:
        raise _real_n_error(n)
    if not (0.0 < eta <= 1.0):
        raise ValueError(f"eta must lie in (0, 1], got {_int_text(eta)}")


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
    """ln((e**a + 1)/2) for any a >= 0, without overflow, and below a = 1,
    where the second form would cancel, from expm1 within a few ulps."""
    if a < 1.0:
        return math.log1p(0.5 * math.expm1(a))
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
        # chained, as 1.0 - loss overflows for an int past DBL_MAX
        if not 0.0 <= loss < 1.0:
            raise ValueError(f"loss must lie in [0, 1), got {_int_text(loss)}")
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


@dataclass(frozen=True)
class PrecisionReport:
    """Bundle of detection statistics at one (N, eta, phi0) point.

    At a blind point (``degenerate``) snr is 0 and min_phase inf.  min_phase,
    the delta_phi of unit SNR, and log_min_phase do not depend on delta_phi.
    """

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


def mean_detection(probe: NoonProbe, ch: LossChannel, phi: float) -> float:
    """<A'_N> = eta**(N/2) * cos(N(phi + theta_t))."""
    n = probe.n
    return ch.eta ** (n / 2.0) * math.cos(_angle(n, phi, ch.theta_t))


def variance_detection(probe: NoonProbe, ch: LossChannel, phi: float) -> float:
    """Var A'_N = (1 + eta**N)/2 - eta**N * cos^2(N(phi + theta_t)), written
    (1 - eta**N)/2 + eta**N sin^2: no cancellation."""
    n, eta, s = probe.n, ch.eta, math.sin(_angle(probe.n, phi, ch.theta_t))
    return -0.5 * math.expm1(n * math.log(eta)) + eta ** n * (s * s)


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


def min_phase_opt_continuous(n: float, eta: float) -> float:
    """min_phase at the optimal operating phase, N treated as a real number."""
    _validate_eta(eta, n)
    return optimal_phase_grid([n], eta)[0]


def min_phase_opt(probe: NoonProbe, eta: float) -> float:
    """sqrt((eta**-N + 1)/2) / N, the precision at the optimal phase.

    Equals 1/N exactly at eta = 1 and diverges as N grows for any eta < 1.
    For very lossy, high-N inputs the float result may be +inf; the log-domain
    value from :func:`log_min_phase_opt_continuous` stays finite.
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


def d_precision_dN(n_real: float, eta: float) -> float:
    """Derivative of the optimal-phase precision with respect to real N.

    -(1/N^2) sqrt((eta**-N + 1)/2) - (eta**-N ln eta)/(4N) / sqrt((eta**-N + 1)/2),
    taken as the precision times d_log_precision_dN.  Where the precision
    overflows but the product need not, the product is exp of the sum of
    their logs.
    """
    precision, d_log = min_phase_opt_continuous(n_real, eta), d_log_precision_dN(n_real, eta)
    if precision == math.inf and d_log:
        return math.copysign(_exp_or_inf(log_min_phase_opt_continuous(n_real, eta) + math.log(abs(d_log))), d_log)
    return precision * d_log


def d_log_precision_dN(n_real: float, eta: float) -> float:
    """d/dN of ln(optimal-phase precision): -1/N - ln(eta) / (2(eta**N + 1)).

    Its root in N is the continuous minimizer of the precision for fixed eta.
    """
    # _validate_eta's test inline, as this runs in the bisection loop; its call raises the message
    if not (0 < n_real <= _N_MAX and 0.0 < eta <= 1.0):
        _validate_eta(eta, n_real)
    return -1.0 / n_real - math.log(eta) / (2.0 * (eta ** n_real + 1.0))


def precision_report(probe: NoonProbe, ch: LossChannel, op: OperatingPoint) -> PrecisionReport:
    """Evaluate mean, variance, SNR, and minimum phase at one operating point."""
    n, eta = probe.n, ch.eta
    angle = _angle(n, op.phi0, ch.theta_t)
    s = abs(math.sin(angle))
    (mean,), (variance,), (snr,), (min_phase,), _ = _eta_columns(n, [eta], angle, op.delta_phi)
    return PrecisionReport(mean=mean, variance=variance, snr=snr, min_phase=min_phase,
                           log_min_phase=_log_min_phase(n, eta, s), degenerate=s <= DEGENERACY_TOL)


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

    An eta sweep (the CLI's ``--var eta`` and ``--var L``) is one
    _eta_columns loop, with the angle's sin and cos taken once; N and phi0
    sweeps call it on one point at a time, as precision_report does.
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
        """(N, angle) of each point, in grid order."""
        if n_seq:
            for k in map(_photon_number, n):
                yield k, _angle(k, _optimal_phi0(k, theta_t) if phi0 is None else phi0, theta_t)
        else:
            for p in phi0:
                _validate_phases(p, delta_phi)
                yield probe.n, _angle(probe.n, p, theta_t)

    columns = [], [], [], [], []
    for k, angle in points():
        for column, (value,) in zip(columns, _eta_columns(k, [eta], angle, delta_phi)):
            column.append(value)
    return columns


def _eta_columns(n: int, etas, angle: float, delta_phi: float):
    """mean, variance, snr, min_phase and min_phase_opt at fixed N and angle
    over ``etas``, in grid order: an eta sweep, and on one eta every scalar query.

    The noise term (eta**-N - 1)/2 + s^2, s = |sin(angle)|, sums two
    nonnegative terms, so it stays accurate near blind points (s <=
    DEGENERACY_TOL: snr 0, min_phase inf), where (eta**-N + 1)/2 - cos^2
    cancels.  Where it or the signal (N s delta_phi)**2 overflows, snr and
    min_phase come from ln(min_phase).
    """
    n = float(n)  # as each form converts an int N, once here
    c, s = math.cos(angle), abs(math.sin(angle))
    ss, half_n, log_n = s * s, n / 2.0, math.log(n)
    blind = s <= DEGENERACY_TOL
    ns = n * s
    try:
        signal = (ns * delta_phi) ** 2
    except OverflowError:  # the log path at every point; an inf product squares to inf
        signal = None
    mean, variance, snr, min_phase, opt = [], [], [], [], []
    for e in etas:
        if not 0.0 < e <= 1.0:
            _validate_eta(e)
        n_log = n * math.log(e)
        mean.append(e ** half_n * c)
        variance.append(-0.5 * math.expm1(n_log) + e ** n * ss)
        # eta**-N, or inf, decided without raising as most lossy rows overflow (log2 costs
        # a third of log in CPython); the try catches the rounding band of N log2(eta)
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
            # eta**-N - 1: below e, expm1 avoids the cancellation as eta -> 1; above, the
            # power is exact to an ulp, while expm1 would scale N ln eta's rounding by N|ln eta|
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


def optimal_phase_grid(ns, eta: float, ratio: bool = False, n_total=None) -> list:
    """The precision at the optimal phase, sqrt((eta**-N + 1)/2) / N, at each N
    of ``ns``; with ``ratio`` R_NOON = sqrt(eta (eta**-N + 1)/(2N)), and with
    ``n_total`` the budgeted sqrt((eta**-N + 1)/2) / sqrt(N N_T): the fig2 and
    fig3 columns, and on one N every scalar query's.

    eta and ``n_total``, which ``ratio`` excludes, are checked once, and each
    N in grid order.  Where eta**-N overflows, a = N|ln eta| > 709 and each
    value is exp of its log form, which leaves out ln(1 + e**-a) < 1e-307 as
    it changes no bit.
    """
    _validate_eta(eta)
    if n_total is not None:
        if ratio:
            raise ValueError("R_NOON takes no n_total")
        if not 0 < n_total <= _N_MAX:
            raise ValueError(f"n_total must lie in (0, DBL_MAX], got {_int_text(n_total)}")
    log2_eta, log_eta = math.log2(eta), math.log(eta)
    column = []
    for n in ns:
        if not 0 < n <= _N_MAX:
            raise _real_n_error(n)
        # eta**-N as in _eta_columns: the one test of its overflow per swept axis
        if -n * log2_eta > _POW_OVERFLOWS:
            inv = math.inf
        else:
            try:
                inv = eta ** -n
            except OverflowError:
                inv = math.inf
        if inv < math.inf:
            if ratio:
                # past DBL_MAX/2, where 2N overflows, eta**-N is finite only at eta = 1; at a
                # subnormal N the quotient may overflow where its root does not: a root of each
                two_n = 2.0 * n
                q = eta * (inv + 1.0) / two_n if two_n < math.inf else 0.5 * (eta * (inv + 1.0)) / n
                value = math.sqrt(q) if q < math.inf else math.sqrt(eta * (inv + 1.0)) / math.sqrt(two_n)
            elif n_total is None:
                value = math.sqrt(0.5 * (inv + 1.0)) / n
            else:
                # N N_T only where it is a normal float: past DBL_MAX a float one reads inf and an
                # int one does not convert, below DBL_MIN it loses bits or reads 0: a root of each
                n_nt = n * n_total
                scale = math.sqrt(n_nt) if _DBL_MIN <= n_nt <= _N_MAX else math.sqrt(n) * math.sqrt(n_total)
                value = math.sqrt(0.5 * (inv + 1.0)) / scale
        else:
            a = -n * log_eta
            if ratio:
                value = _exp_or_inf(0.5 * (log_eta + a - _log_2n(n)))
            else:
                # log takes an int N N_T of any size, but a float one out of the normal range
                # reads inf or a subnormal: a log of each
                log_n = math.log(n) if n_total is None else 0.5 * (
                    math.log(n * n_total) if _DBL_MIN <= n * n_total < math.inf else math.log(n) + math.log(n_total))
                value = _exp_or_inf(0.5 * (a - _LN2) - log_n)
        column.append(value)
    return column
