"""Shared scaffolding for the test suite."""

import csv
import io
import math
from contextlib import redirect_stderr, redirect_stdout

import mpmath

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
