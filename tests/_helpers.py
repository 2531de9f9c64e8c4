"""Shared scaffolding for the test suite."""

import csv
import io
import json
import math
import operator
import sys
from contextlib import redirect_stderr, redirect_stdout

import mpmath

from noonloss.analytics import _LN2, _POW_OVERFLOWS, DEGENERACY_TOL, _exp_or_inf, _log_2n, _log_min_phase
from noonloss.cli import main


def run_cli(*argv):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def parse_csv(text):
    """Parse CLI CSV output into (columns, rows of floats/strings)."""
    reader = csv.reader(io.StringIO(text))
    columns = next(reader)
    rows = []
    for raw in reader:
        row = []
        for cell in raw:
            try:
                row.append(float(cell))
            except ValueError:
                row.append(cell)
        rows.append(row)
    return columns, rows


def doubling_bracket(f):
    """The first of 1, 2, 4, ... where f > 0: the upper end of a bisection
    bracket for an increasing f that is negative near 0."""
    hi = 1.0
    while not f(hi) > 0.0:
        assert hi < math.inf, "f never turns positive"
        hi *= 2.0
    return hi


def central_diff(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def derivative_grid(solve_nu):
    """100 (N, eta) points spread multiplicatively around the continuous
    minimizer so the derivatives under test stay away from zero."""
    etas = [0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85, 0.95]
    ratios = [0.3, 0.5, 0.7, 1.4, 2.0, 3.0, 4.0, 6.0, 8.0, 10.0]
    points = []
    nu = solve_nu()
    for eta in etas:
        n_star = nu / (-math.log(eta))
        points.extend((ratio * n_star, eta) for ratio in ratios)
    return points


def mp_log_precision(n, eta):
    """ln of the optimal-phase precision sqrt((eta**-N + 1)/2) / N at 60 digits."""
    with mpmath.workdps(60):
        eta = mpmath.mpf(eta)
        return 0.5 * mpmath.log((eta ** -n + 1) / 2) - mpmath.log(n)


def mp_log_r_noon(n, eta):
    """ln R_NOON = ln sqrt(eta (eta**-N + 1) / (2N)) at 60 digits."""
    with mpmath.workdps(60):
        eta = mpmath.mpf(eta)
        return 0.5 * mpmath.log(eta * (eta ** -n + 1) / (2 * n))


def exact_integer_argmin(root, cap, mp_log_objective, eta):
    """The integer N in [1, cap] minimizing the convex ``mp_log_objective(N, eta)``
    at 60 digits, a tie keeping the smaller N, walked from floor(root) clamped to
    [1, cap]: exact also where a float root past 2**52 lies an integer or more
    from the argmin."""
    n = min(max(1, math.floor(root)), cap)
    f = lambda m: mp_log_objective(m, eta)
    while n < cap and f(n + 1) < f(n):
        n += 1
    while n > 1 and f(n - 1) <= f(n):
        n -= 1
    return n


# ---------------------------------------------------------------------------
# written-out references: each closed form as a scalar function of one point,
# with its own overflow test; the bit-for-bit tests hold the two column loops,
# analytics._eta_columns and analytics.optimal_phase_grid, to these

def _inv_eta_pow(n: float, eta: float) -> float:
    """eta**-n, exact to an ulp, or inf past DBL_MAX: the test of the
    overflow of eta**-N that the two column loops each write out inline."""
    # decided without raising, since most fig rows overflow; math.log2 costs about a
    # third of math.log in CPython
    if -n * math.log2(eta) > _POW_OVERFLOWS:
        return math.inf
    try:
        return eta ** -n
    except OverflowError:  # within the rounding of N log2(eta) of log2(DBL_MAX)
        return math.inf


def _mean(n: int, eta: float, c: float) -> float:
    """mean_detection at c = cos(N(phi + theta_t))."""
    return eta ** (n / 2.0) * c


def _variance(n: int, eta: float, s: float) -> float:
    """variance_detection at s = sin(N(phi + theta_t)), as (1 - eta**N)/2 + eta**N s^2: no cancellation."""
    return -0.5 * math.expm1(n * math.log(eta)) + eta ** n * (s * s)


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
            two_n = 2.0 * n
            if two_n == math.inf:  # past DBL_MAX/2 eta**-N is finite only at eta = 1
                return math.sqrt(0.5 * (eta * (inv + 1.0)) / n)
            if eta * (inv + 1.0) / two_n == math.inf:  # a subnormal N: the quotient overflows, its root does not
                return math.sqrt(eta * (inv + 1.0)) / math.sqrt(two_n)
            return math.sqrt(eta * (inv + 1.0) / two_n)
        root = math.sqrt(0.5 * (inv + 1.0))
        if n_total is None:
            return root / n
        if sys.float_info.min <= n * n_total <= sys.float_info.max:
            return root / math.sqrt(n * n_total)
        return root / (math.sqrt(n) * math.sqrt(n_total))  # N N_T out of the normal range, each factor within it
    log_eta = math.log(eta)
    a = -n * log_eta
    if ratio:
        return _exp_or_inf(0.5 * (log_eta + a - _log_2n(n)))
    if n_total is None:
        log_n = math.log(n)
    elif n * n_total == math.inf or n * n_total < sys.float_info.min:
        # a float N N_T out of the normal range; log takes an int one of any size
        log_n = 0.5 * (math.log(n) + math.log(n_total))
    else:
        log_n = 0.5 * math.log(n * n_total)
    return _exp_or_inf(0.5 * (a - _LN2) - log_n)


# ---------------------------------------------------------------------------
# written-out reference for fock_oracle.inner: the sums that its plain loops
# replaced, kept verbatim; the bit-for-bit tests hold inner to them

def inner_reference(x, y):
    """<x|y> as ``sum()`` of the terms from 0j: a generator over ``x``'s
    entries, or a ``map`` chain where ``x is y``.  Before Python 3.14,
    ``sum()`` adds complex terms one by one with a plain complex ``+``."""
    if x is y:
        amps = x.amps.values()
        return sum(map(operator.mul, map(complex.conjugate, amps), amps), start=0j)
    if len(x.amps) > len(y.amps):
        return inner_reference(y, x).conjugate()
    return sum(
        (amp.conjugate() * y.amps[occ] for occ, amp in x.amps.items() if occ in y.amps),
        start=0j,
    )


# ---------------------------------------------------------------------------
# written-out reference for cli.render_json's values: the rule that wrote each
# float cell as json.dumps(float("%.12g" % x)), kept verbatim; the render tests
# hold every document that render_json writes to this one's, parsed

def _dumps_cell(value):
    if isinstance(value, int):  # bools too
        return int(value)
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return float(f"{value:.12g}")
    return value


def json_dumps_reference(names, rows, json_object_if_single):
    """The records of ``rows`` as json.dumps(..., indent=2) writes them, each
    float as float("%.12g" % x), inf, -inf and nan as strings; a single row
    as one object if ``json_object_if_single``."""
    records = [dict(zip(names, map(_dumps_cell, row))) for row in rows]
    doc = records[0] if len(records) == 1 and json_object_if_single else records
    return json.dumps(doc, indent=2) + "\n"


def json_document(text):
    """The JSON ``text`` parsed so that == tells documents apart by all they
    hold: objects as lists of (key, value) pairs in order, each number tagged
    with its type, a float by its bits, so that 0.0 and -0.0 differ."""
    return json.loads(text, object_pairs_hook=list, parse_int=lambda s: ("int", int(s)),
                      parse_float=lambda s: ("float", float(s).hex()))
