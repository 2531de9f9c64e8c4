"""The four benchmark workloads: seeded inputs, one timed pass, and an
independent correctness check of what the pass produced.

Each workload builds all of its inputs from the seed in its constructor, so
constructing one is the end of set-up.  ``run()`` is the timed pass and calls
the program exactly as a user would; ``snapshot()`` captures what the pass
produced, and ``check(codes, snapshot)`` returns how many items of that pass
are wrong.  The references in this file are written from the paper's
formulas in log-sum-exp form and share no code with ``noonloss``.
"""

import json
import math
import random
import sys
from array import array
from functools import cached_property
from pathlib import Path
from time import perf_counter_ns

import numpy as np

from noonloss import budget, cli, optimal_search

LN2 = math.log(2.0)
# ln of the largest double: a true value above this must print as inf
LOG_MAX = math.log(sys.float_info.max)
# true values this close to the overflow line may round either way
OVERFLOW_BAND = 1e-9

SWEEP_RTOL = 1e-9
VERIFY_TOL = 1e-10
PRECISION_RTOL = 1e-12
# slope and objective comparisons allow a few ulps of rounding in the reference
ULP_SLACK = 64 * sys.float_info.epsilon


def log_opt_precision(n, eta):
    """ln( sqrt((eta**-n + 1)/2) / n ), the precision at the optimal phase."""
    a = -n * np.log(eta)
    return 0.5 * (np.logaddexp(a, 0.0) - LN2) - np.log(n)


def log_r_noon(n, eta):
    """ln( sqrt(eta (eta**-n + 1) / (2n)) ), the budgeted ratio R_NOON."""
    a = -n * np.log(eta)
    return 0.5 * (np.log(eta) + np.logaddexp(a, 0.0) - np.log(2.0 * n))


def bad_against_log(got, log_want, rtol=SWEEP_RTOL):
    """Mask of entries of ``got`` that disagree with exp(log_want).

    A true value past the overflow line must read +inf, one below it must be
    finite and within ``rtol``; inside the rounding band either is accepted.
    """
    got = np.asarray(got, dtype=float)
    log_want = np.asarray(log_want, dtype=float)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        want = np.exp(np.minimum(log_want, LOG_MAX))
        close = np.abs(got - want) <= rtol * want
    over = log_want > LOG_MAX + OVERFLOW_BAND
    under = log_want < LOG_MAX - OVERFLOW_BAND
    return np.where(over, ~np.isposinf(got),
                    np.where(under, ~close, ~(close | np.isposinf(got))))


class CliWorkload:
    """A workload made of ``cli.main`` calls writing to files."""

    name = ""

    def __init__(self, workdir):
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.argvs = []
        self.outs = []

    def _call(self, argv, out_name):
        out = self.workdir / out_name
        self.argvs.append(argv + ["--out", str(out)])
        self.outs.append(out)

    def run(self):
        main = cli.main
        return [main(argv) for argv in self.argvs]

    def snapshot(self):
        return tuple(p.read_bytes() if p.exists() else b"" for p in self.outs)

    def output_bytes(self):
        return sum(p.stat().st_size for p in self.outs if p.exists())

    def check(self, codes, snapshot):
        if any(code != 0 for code in codes):
            return self.items
        try:
            return min(self.items, self.check_outputs(snapshot))
        except (ValueError, KeyError, TypeError, IndexError):
            return self.items


class SweepEtaJson(CliWorkload):
    """``sweep --var eta`` over [0.2, 1] at a seeded N, rendered as JSON."""

    name = "sweep_eta_json"
    columns = ["eta", "mean", "variance", "snr", "min_phase", "min_phase_opt"]

    def __init__(self, seed, workdir, steps=100_000):
        super().__init__(workdir)
        rng = random.Random(seed)
        self.n = rng.randint(2, 64)
        self.steps = steps
        self.items = steps
        self.start, self.stop = 0.2, 1.0
        self._call(["sweep", "--var", "eta", "--start", "0.2", "--stop", "1.0",
                    "--steps", str(steps), "--n", str(self.n), "--format", "json"],
                   "sweep_eta.json")

    def check_outputs(self, snapshot):
        doc = json.loads(snapshot[0])
        if not isinstance(doc, list) or len(doc) != self.steps:
            return self.items
        if any(list(rec) != self.columns for rec in doc):
            return self.items
        # infinities arrive as the strings "inf"/"-inf"
        got = np.array([list(rec.values()) for rec in doc], dtype=object).astype(float)
        n = float(self.n)
        eta = np.linspace(self.start, self.stop, self.steps)
        dphi = 0.01
        log_noise = np.logaddexp(-n * np.log(eta), 0.0) - LN2  # ln((eta^-N + 1)/2)
        # at the optimal phase pi/(2N): cos = 0 and |sin| = 1 exactly
        bad = ~(np.abs(got[:, 0] - eta) <= 1e-11 * eta)
        bad |= ~(np.abs(got[:, 1]) <= SWEEP_RTOL * eta ** (n / 2.0))
        bad |= bad_against_log(got[:, 2], np.log(0.5 * (1.0 + eta ** n)))
        bad |= bad_against_log(got[:, 3], 2.0 * math.log(n * dphi) - log_noise)
        bad |= bad_against_log(got[:, 4], 0.5 * log_noise - math.log(n))
        bad |= bad_against_log(got[:, 5], log_opt_precision(n, eta))
        return int(np.count_nonzero(bad))


class SweepFigCsv(CliWorkload):
    """``sweep --fig2`` then ``sweep --fig3`` over N in [1, 1e9], as CSV."""

    name = "sweep_fig_csv"

    def __init__(self, seed, workdir, steps=300_000, stop=1e9):
        super().__init__(workdir)
        rng = random.Random(seed)
        self.loss = 10.0 ** rng.uniform(-4.0, -2.0)
        self.eta = 1.0 - self.loss  # how the program reads --loss
        common = ["--loss", repr(self.loss), "--start", "1", "--stop", repr(stop),
                  "--scale", "log", "--steps", str(steps), "--format", "csv"]
        self._call(["sweep", "--fig2"] + common, "fig2.csv")
        self._call(["sweep", "--fig3"] + common, "fig3.csv")
        self.steps, self.stop = steps, stop

    @cached_property
    def ns(self):
        """The distinct photon numbers of the log grid, as floats."""
        grid = np.rint(np.geomspace(1.0, self.stop, self.steps))  # nondecreasing
        return grid[np.concatenate(([True], np.diff(grid) != 0))]

    @cached_property
    def items(self):
        return 2 * len(self.ns)

    def _table(self, payload, header):
        lines = payload.decode().splitlines()
        if lines[0] != header or len(lines) != len(self.ns) + 1:
            raise ValueError("unexpected table shape")
        table = np.array([line.split(",") for line in lines[1:]], dtype=float)
        bad = table[:, 0] != self.ns
        return table, bad

    def check_outputs(self, snapshot):
        n, eta = self.ns, self.eta
        fig2, bad2 = self._table(snapshot[0], "N,delta_phi_min,sql_reference")
        bad2 |= bad_against_log(fig2[:, 1], log_opt_precision(n, eta))
        bad2 |= bad_against_log(fig2[:, 2], -0.5 * np.log(2.0 * eta * n))
        fig3, bad3 = self._table(snapshot[1], "N,R_NOON")
        bad3 |= bad_against_log(fig3[:, 1], log_r_noon(n, eta))
        return int(np.count_nonzero(bad2) + np.count_nonzero(bad3))


class VerifyOracle(CliWorkload):
    """``verify --grid dense`` against the Fock-basis oracle up to N = 64."""

    name = "verify_oracle"

    def __init__(self, seed, workdir, max_n=64):
        super().__init__(workdir)
        rng = random.Random(seed)
        self.max_n = max_n
        # dense grid: 6 etas x 2 thetas x 16 phases, plus 5 seeded cases per N
        self.items = max_n * (6 * 2 * 16 + 5)
        self._call(["verify", "--max-n", str(max_n), "--grid", "dense",
                    "--seed", str(rng.randrange(2 ** 31)), "--format", "json"],
                   "verify.json")

    def check_outputs(self, snapshot):
        doc = json.loads(snapshot[0])
        ok = (doc["passed"] == 1 and doc["points"] == self.items
              and doc["max_n"] == self.max_n and doc["grid"] == "dense"
              and float(doc["max_abs_deviation"]) <= VERIFY_TOL)
        return 0 if ok else self.items


class OptimizeGrid:
    """Integer optima over a seeded loss grid, called through the library.

    Losses are log-uniform over [1e-10, 0.99], which spans the budgeted and
    unbudgeted critical losses and the region where N* hits the 10^9 cap.
    One solve is ``n_min_integer`` plus ``n_tilde_min_integer`` at one loss.
    """

    name = "optimize_grid"

    def __init__(self, seed, workdir=None, points=40_000):
        rng = np.random.default_rng(random.Random(seed).getrandbits(64))
        losses = 10.0 ** rng.uniform(-10.0, math.log10(0.99), points)
        self.etas = [float(1.0 - x) for x in losses]
        totals = np.floor(10.0 ** rng.uniform(1.0, 15.0, points)).astype(np.int64)
        self.budgets = [budget.PhotonBudget(int(t)) for t in totals]
        self.n_cap = optimal_search.DEFAULT_N_CAP
        self.items = points
        self.latency_ns = array("q")
        self._last = None

    def run(self):
        n_min = optimal_search.n_min_integer
        n_tilde = budget.n_tilde_min_integer
        clock = perf_counter_ns
        count = self.items
        n_star, precision, n_tl = [0] * count, [0.0] * count, [0] * count
        latency = array("q", bytes(8 * count))
        for i, (eta, b) in enumerate(zip(self.etas, self.budgets)):
            t0 = clock()
            res = n_min(eta)
            nt = n_tilde(eta, b)
            latency[i] = clock() - t0
            n_star[i], precision[i], n_tl[i] = res.n_star, res.precision_at_opt, nt
        self.latency_ns.extend(latency)
        self._last = (n_star, precision, n_tl)
        return [0]

    def snapshot(self):
        return self._last

    def output_bytes(self):
        return 0

    def check(self, codes, snapshot):
        if snapshot is None or any(code != 0 for code in codes):
            return self.items
        n_star, precision, n_tl = (np.asarray(x) for x in snapshot)
        eta = np.asarray(self.etas)
        caps = np.asarray([b.n_total for b in self.budgets], dtype=float)
        bad = _not_integer_argmin(n_star.astype(float), eta, float(self.n_cap),
                                  log_opt_precision, _slope_log_precision)
        bad |= ~(np.abs(precision - np.exp(log_opt_precision(n_star.astype(float), eta)))
                 <= PRECISION_RTOL * precision)
        bad |= _not_integer_argmin(n_tl.astype(float), eta, caps, log_r_noon, _slope_log_r_noon)
        return int(np.count_nonzero(bad))


def _slope_log_precision(x, eta):
    """d/dx of log_opt_precision, as b / (2 (1 + e^(-b x))) - 1/x with b = -ln eta."""
    b = -np.log(eta)
    return 0.5 * b / (1.0 + np.exp(-b * x)) - 1.0 / x


def _slope_log_r_noon(x, eta):
    """d/dx of log_r_noon, 0.5 (b / (1 + e^(-b x)) - 1/x) with b = -ln eta."""
    b = -np.log(eta)
    return 0.5 * (b / (1.0 + np.exp(-b * x)) - 1.0 / x)


def _not_integer_argmin(n, eta, cap, objective, slope):
    """Mask of n that are not an integer minimizer of ``objective`` on [1, cap].

    The objective is strictly convex in real N, so n is a minimizer iff the
    real minimizer lies within one of n (slope <= 0 at n - 1 unless n = 1,
    slope >= 0 at n + 1 unless n = cap) and n is no worse than either
    neighbour.  Near 1e9 the neighbours differ by less than an ulp, which is
    why the slope test carries the weight there.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        below = np.maximum(n - 1.0, 1.0)
        above = n + 1.0
        s_tol = ULP_SLACK / n
        f = objective(n, eta)
        f_tol = ULP_SLACK * np.maximum(1.0, np.abs(f))
        bad = (n < 1) | (n > cap) | (n != np.floor(n))
        inner_lo = n > 1
        inner_hi = n < cap
        bad |= inner_lo & ~(slope(below, eta) <= s_tol)
        bad |= inner_hi & ~(slope(above, eta) >= -s_tol)
        bad |= inner_lo & ~(f <= objective(below, eta) + f_tol)
        bad |= inner_hi & ~(f <= objective(above, eta) + f_tol)
    return bad


WORKLOADS = {w.name: w for w in (SweepEtaJson, SweepFigCsv, VerifyOracle, OptimizeGrid)}


def make(name, seed, workdir, **sizes):
    """Build workload ``name`` from ``seed``; ``sizes`` shrink it for tests."""
    return WORKLOADS[name](seed, workdir, **sizes)
