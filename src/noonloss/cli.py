"""Command-line front end: point queries, parameter sweeps, optimizers,
constants, figure-style data dumps, and closed-form-vs-oracle verification.

Exit codes: 0 success, 1 verification failure, 2 usage or domain error.
"""

import argparse
import csv
import io
import json
import math
import random
import re
import sys
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import analytics, budget, fock_oracle, optimal_search
from .analytics import LossChannel, NoonProbe

__all__ = ["main", "entrypoint", "run_verification", "SweepSpec"]

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2

VERIFY_TOL = 1e-10

SWEEP_VARIABLES = ("N", "eta", "L", "phi0")


class UsageError(Exception):
    """Bad flag combination or out-of-domain request."""


# ---------------------------------------------------------------------------
# output formatting

@dataclass
class Table:
    """Named columns of equal length, rendered column by column.

    Each column holds values of one type (bool, int, float or str), so its
    formatter is chosen once.  Point queries pass one-row columns; a
    single-row table renders as one JSON object unless
    ``json_object_if_single`` is False, as sweeps set it.
    """

    names: list[str]
    columns: list
    json_object_if_single: bool = True

    def __len__(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    @classmethod
    def row(cls, names: list[str], values: list) -> "Table":
        """A one-row table: one value per column."""
        return cls(names, [[value] for value in values])


FLOAT_FORMAT = "%.12g"
CHUNK_ROWS = 1000
# characters per write of emit's output (see _write)
WRITE_CHARS = 1 << 18

# where json.dumps(float(text)) differs from text = "%.12g" % value, besides a
# text with no "." (integral values, inf, -inf and nan): an exponent of 12 to
# 15, which repr writes out in full, and a subnormal, where repr keeps fewer
# digits
_REENCODE = re.compile(r"e(?:\+1[2-5](?!\d)|-3(?:0[89]|[12]\d))")
# the same exponent at the end of a JSON cell's line, which no key reaches
_REENCODE_AT_END = re.compile(rf"(?:{_REENCODE.pattern}),?\n")


def _numeric_format(column) -> str | None:
    """The % conversion of a column, from the type of its first cell:
    FLOAT_FORMAT for floats, "%d" for ints and bools, None otherwise."""
    first = column[0] if len(column) else None
    if isinstance(first, float):
        return FLOAT_FORMAT
    if isinstance(first, (int, np.integer)):
        return "%d"
    return None


def _cells(column, float_format, other_format):
    """The cells of ``column`` formatted by its type: ints and bools as
    integers, floats and anything else by the given functions."""
    conversion = _numeric_format(column)
    if conversion == "%d":
        return map("%d".__mod__, column)
    return map(float_format if conversion else other_format, column)


def _text_cells(column):
    """Floats to 12 significant digits, with inf, -inf and nan spelled so."""
    return _cells(column, FLOAT_FORMAT.__mod__, str)


def _json_float(value: float) -> str:
    """What json.dumps writes for float("%.12g" % value), so that CSV and
    JSON agree; inf, -inf and nan become the strings "inf", "-inf", "nan"."""
    text = FLOAT_FORMAT % value
    if "." in text and not _REENCODE.search(text):
        return text
    return _reencoded(text)


def _reencoded(text: str) -> str:
    """What _json_float writes for a %.12g ``text`` with no "." or a match
    of _REENCODE."""
    if text[-1] in "fn":
        return f'"{text}"'
    return repr(float(text))


def _json_cells(column):
    return _cells(column, _json_float, json.dumps)


def _chunks(row: str, sep: str, table: Table):
    """(rows, text) of each run of CHUNK_ROWS rows of a numeric table, the
    last run shorter: the rows formatted by the % template ``row`` and
    joined by ``sep``, one % string per run."""
    width, length = len(table.columns), len(table)
    cells = tuple(chain.from_iterable(zip(*table.columns)))
    whole = sep.join([row] * CHUNK_ROWS)
    for start in range(0, length, CHUNK_ROWS):
        rows = min(CHUNK_ROWS, length - start)
        template = whole if rows == CHUNK_ROWS else sep.join([row] * rows)
        yield rows, template % cells[start * width:(start + rows) * width]


def render_csv(table: Table) -> str:
    """The table as csv.writer writes it, one line per row.

    The header, and every table with a column that is not numeric, go
    through csv.writer.  A numeric cell never needs quoting, so a table of
    numbers only is formatted CHUNK_ROWS rows at a time by one % template,
    which is the same text at less than half the cost.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table.names)
    conversions = [_numeric_format(column) for column in table.columns]
    if None in conversions:
        writer.writerows(zip(*map(_text_cells, table.columns)))
        return buf.getvalue()
    buf.writelines(text for _, text in _chunks(",".join(conversions) + "\n", "", table))
    return buf.getvalue()


def render_json(table: Table) -> str:
    """The layout of json.dumps(records, indent=2), written from a template.

    A table of several rows and numbers only is formatted CHUNK_ROWS records
    at a time by one % template, floats as FLOAT_FORMAT.  A chunk keeps that
    text when each of its float cells has a "." and none ends in a match of
    _REENCODE, which the count of dots and one search tell; otherwise
    _reencode_cells finds the cells that break the rule, by the dots on
    each line and the places of those matches, and re-encodes them alone.
    """
    keys = [json.dumps(name) for name in table.names]
    if len(table) == 1 and table.json_object_if_single:
        row = next(zip(*map(_json_cells, table.columns)))
        return "{\n" + ",\n".join(f"  {key}: {cell}" for key, cell in zip(keys, row)) + "\n}\n"
    if not len(table):
        return "[]\n"
    conversions = [_numeric_format(column) for column in table.columns]
    fields = [f"    {key.replace('%', '%%')}: " for key in keys]
    if None in conversions:
        record = "  {\n" + ",\n".join(field + "%s" for field in fields) + "\n  }"
        return "[\n" + ",\n".join(map(record.__mod__, zip(*map(_json_cells, table.columns)))) + "\n]\n"
    record = "  {\n" + ",\n".join(map(str.__add__, fields, conversions)) + "\n  }"
    key_dots = [key.count(".") for key in keys]
    is_float = [conversion == FLOAT_FORMAT for conversion in conversions]
    dots = sum(key_dots) + sum(is_float)
    # per line of a record, "  {", one line per field and "  }": the dots of
    # a float cell's line (0 on any other), and where a cell starts after
    # the newline before its line and stops before the one after it
    line_dots = np.array([0, *(d + 1 if f else 0 for d, f in zip(key_dots, is_float)), 0])
    value_start = np.array([0, *(len(f"    {key}: ") + 1 for key in keys), 0])
    value_stop = np.array([0, *[1] * (len(keys) - 1), 0, 0])
    chunk_dots = np.tile(line_dots, CHUNK_ROWS)
    parts = ["[\n"]
    for rows, text in _chunks(record, ",\n", table):
        if text.count(".") != rows * dots or _REENCODE_AT_END.search(text):
            text = _reencode_cells(text, chunk_dots, value_start, value_stop)
        parts += text, ",\n"
    parts[-1] = "\n]\n"
    return "".join(parts)


def _reencode_cells(text: str, line_dots, value_start, value_stop) -> str:
    """The chunk ``text`` of render_json with each float cell that
    _json_float writes differently from FLOAT_FORMAT passed through
    _reencoded, the rest of the text kept.

    Such a cell's line holds fewer dots than ``line_dots`` gives for it
    (the key's and the one of the value), or it ends in a match of
    _REENCODE.  ``line_dots`` runs over the lines of the chunk, the other
    two over the lines of one record (see render_json).
    """
    # json.dumps writes the keys in ASCII, so characters are bytes here;
    # line k ends at ends[k] and holds dots[k] dots
    chars = np.frombuffer(text.encode("ascii"), np.uint8)
    ends = np.append(np.flatnonzero(chars == ord("\n")), len(text))
    dots = np.bincount(np.searchsorted(ends, np.flatnonzero(chars == ord("."))), minlength=len(ends))
    hits = [match.start() for match in _REENCODE_AT_END.finditer(text)]
    lines = np.union1d(np.flatnonzero(dots < line_dots[:len(ends)]), np.searchsorted(ends, hits))
    where = lines % len(value_start)
    starts = (ends[lines - 1] + value_start[where]).tolist()
    stops = (ends[lines] - value_stop[where]).tolist()
    # the kept text before, between and after those cells, with the cells
    out = [None] * (2 * len(starts) + 1)
    out[0::2] = map(text.__getitem__, map(slice, [0, *stops], [*starts, None]))
    out[1::2] = map(_reencoded, map(text.__getitem__, map(slice, starts, stops)))
    return "".join(out)


def render_text(table: Table) -> str:
    cells = [list(_text_cells(column)) for column in table.columns]
    if len(table) == 1:
        width = max(map(len, table.names))
        return "".join(f"{name:<{width}} = {column[0]}\n" for name, column in zip(table.names, cells))
    widths = [max([len(name), *map(len, column)]) for name, column in zip(table.names, cells)]
    lines = ["  ".join(name.ljust(w) for name, w in zip(table.names, widths)).rstrip()]
    padded = [[cell.ljust(w) for cell in column] for column, w in zip(cells, widths)]
    lines += ["  ".join(row).rstrip() for row in zip(*padded)]
    return "\n".join(lines) + "\n"


def emit(table: Table, fmt: str, out_path: str | None) -> None:
    renderer = {"csv": render_csv, "json": render_json, "text": render_text}[fmt]
    payload = renderer(table)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            _write(fh, payload)
    else:
        _write(sys.stdout, payload)


def _write(stream, text: str) -> None:
    """Write ``text`` to a text stream WRITE_CHARS characters at a time.

    A text stream encodes each write whole, so one write of a large payload
    holds a second copy of all of it: for a 100,000-point sweep's 19 MB of
    JSON, a second 19 MB block per call, whose place in the heap moves the
    process's peak memory by as much from one run to the next.
    """
    for start in range(0, len(text), WRITE_CHARS):
        stream.write(text[start:start + WRITE_CHARS])


# ---------------------------------------------------------------------------
# sweeps

@dataclass
class SweepSpec:
    """One swept variable over [start, stop] with the rest held fixed."""

    variable: str
    start: float
    stop: float
    steps: int
    scale: str = "linear"

    def __post_init__(self) -> None:
        if self.variable not in SWEEP_VARIABLES:
            raise ValueError(f"sweep variable must be one of {SWEEP_VARIABLES}, got {self.variable!r}")
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ValueError(f"start and stop must be finite, got [{self.start}, {self.stop}]")
        if not self.start < self.stop:
            raise ValueError(f"start must be < stop, got [{self.start}, {self.stop}]")
        if not math.isfinite(self.stop - self.start):
            raise ValueError(f"stop - start must be finite, got [{self.start}, {self.stop}]")
        if self.steps < 2:
            raise ValueError(f"steps must be >= 2, got {self.steps}")
        if self.scale not in ("linear", "log"):
            raise ValueError(f"scale must be 'linear' or 'log', got {self.scale!r}")
        if self.scale == "log" and self.start <= 0:
            raise ValueError("log scale requires start > 0")

    def grid(self) -> list:
        # a linear grid can round past DBL_MAX only at its last point, which
        # numpy sets to stop; a log grid near DBL_MAX can overflow anywhere
        # inside, and each of its points lies in [start, stop]
        with np.errstate(over="ignore"):
            if self.scale == "log":
                values = np.minimum(np.geomspace(self.start, self.stop, self.steps), self.stop)
            else:
                values = np.linspace(self.start, self.stop, self.steps)
        if self.variable == "N":
            # rounded as floats, sorted; a cast to int64 would wrap past 2**63,
            # so only the points below it take that cast
            ns = np.unique(np.rint(values))
            lo, hi = np.searchsorted(ns, [1.0, 2.0 ** 63])
            return ns[lo:hi].astype(np.int64).tolist() + list(map(int, ns[hi:].tolist()))
        return [float(v) for v in values]


# ---------------------------------------------------------------------------
# verification grid

# name: (etas, thetas, phases evenly spaced over [0, 2 pi), cap on max_n); each
# grid checks every (eta, theta_t, phi) of the three at each N
VERIFY_GRIDS = {
    "dense": ((0.1, 0.3, 0.5, 0.7, 0.9, 1.0), (0.0, 0.37), 16, fock_oracle.MAX_PHOTONS),
    "fast": ((0.3, 0.7, 1.0), (0.0,), 8, 6),
}


def run_verification(max_n: int = 12, grid: str = "dense", seed=None,
                     prefactor_scale: float = 1.0) -> tuple[float, int]:
    """Compare oracle moments against the closed forms over the named grid
    of :data:`VERIFY_GRIDS`, at each N up to ``max_n``.

    Returns the maximum absolute deviation over means and variances, and the
    number of grid points checked.  A seed adds 5 randomly drawn
    (eta, theta_t, phi) cases per photon number, drawn in that order.
    ``prefactor_scale`` = s scales the oracle's detection operator (mean by
    s, variance by s**2), so that the verify sentinel can prove the check
    bites.

    The grid's channels and phases are the same at every N, so each channel
    is built once per call; each seeded case builds its own.  Each N visits
    every channel for all its phases in a row, the order the oracle's memos
    are sized for.
    """
    etas, thetas, phases, _ = VERIFY_GRIDS[grid]
    angles = [2.0 * math.pi * k / phases for k in range(phases)]
    grid_cases = [(ch, phi) for ch in (LossChannel(eta, theta) for eta in etas for theta in thetas)
                  for phi in angles]
    rng = random.Random(seed)
    max_dev = 0.0
    points = 0
    for n in range(1, max_n + 1):
        cases = grid_cases
        if seed is not None:
            drawn = [(rng.uniform(0.05, 1.0), rng.uniform(-math.pi, math.pi),
                      rng.uniform(0.0, 2.0 * math.pi)) for _ in range(5)]
            cases = grid_cases + [(LossChannel(eta, theta), phi) for eta, theta, phi in drawn]
        probe = NoonProbe(n)
        for ch, phi in cases:
            mean_o, var_o = fock_oracle.oracle_moments(n, ch, phi)
            mean_o, var_o = prefactor_scale * mean_o, prefactor_scale ** 2 * var_o
            dev = max(abs(mean_o - analytics.mean_detection(probe, ch, phi)),
                      abs(var_o - analytics.variance_detection(probe, ch, phi)))
            max_dev = max(max_dev, dev)
            points += 1
    return max_dev, points


# ---------------------------------------------------------------------------
# argument plumbing

def _read_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, value = line.split("=", 1)
            values[key.strip().lower().replace("-", "_")] = value.strip()
    return values


def _apply_config(parser: argparse.ArgumentParser, argv, args: argparse.Namespace) -> argparse.Namespace:
    """Parse ``argv`` again with the config file's values as the subcommand's
    defaults, so that flags win.

    Each value is converted and choice-checked by its option's own argparse
    action; unknown keys and flag-only options are ignored.  A bad value is
    an error only where no flag overrides it.
    """
    actions = {action.dest: action for action in args.subparser._actions if action.nargs != 0}
    defaults = {}
    for key, raw in _read_config(args.config).items():
        if key not in actions:
            continue
        action = actions[key]
        try:
            value = action.type(raw) if action.type else raw
            if action.choices is not None and value not in action.choices:
                choices = ", ".join(map(repr, action.choices))
                raise ValueError(f"invalid choice: {raw!r} (choose from {choices})")
        except ValueError as exc:
            value = UsageError(f"config key {key}: {exc}")
        defaults[key] = value
    args.subparser.set_defaults(**defaults)
    args = parser.parse_args(argv)
    for key in defaults:
        if isinstance(getattr(args, key), UsageError):
            raise getattr(args, key)
    return args


def _resolve_eta(args: argparse.Namespace) -> float:
    if (args.eta is None) == (args.loss is None):
        raise UsageError("exactly one of --eta or --loss is required")
    if args.eta is not None:
        return args.eta
    return 1.0 - args.loss


# ---------------------------------------------------------------------------
# commands

def cmd_constants(args: argparse.Namespace) -> int:
    nu = optimal_search.solve_nu()
    mu = optimal_search.mu_from_nu(nu)
    eta_c = optimal_search.eta_critical()
    l_c = optimal_search.loss_critical()
    nu_t = budget.solve_nu_tilde()
    mu_t = budget.mu_tilde()
    l_tc = budget.l_tilde_critical()
    eta_tc = 1.0 - l_tc

    values = {
        "nu": nu,
        "mu": mu,
        "eta_c": eta_c,
        "L_c": l_c,
        "nu_tilde": nu_t,
        "mu_tilde": mu_t,
        "L_tilde_c": l_tc,
    }
    residuals = {
        "nu_residual": abs(nu - 2.0 * (math.exp(-nu) + 1.0)),
        "mu_residual": abs(mu * nu - math.sqrt(0.5 * (math.exp(nu) + 1.0))),
        "eta_c_residual": abs(3.0 * eta_c ** 2 + 4.0 * eta_c - 1.0),
        "L_c_residual": abs(l_c - (1.0 - eta_c)),
        "nu_tilde_residual": abs(nu_t - math.exp(-nu_t) - 1.0),
        "mu_tilde_residual": abs(2.0 * nu_t * mu_t ** 2 - (math.exp(nu_t) + 1.0)),
        "L_tilde_c_residual": abs(eta_tc ** 2 + 2.0 * eta_tc - 1.0),
    }

    if args.format == "text" and not args.out:
        for name, value in values.items():
            res = residuals[name + "_residual"]
            sys.stdout.write(f"{name:<10} ≈ {value:.9g}   (residual {res:.2e})\n")
        return EXIT_OK
    table = Table.row(list(values) + list(residuals), list(values.values()) + list(residuals.values()))
    emit(table, args.format, args.out)
    return EXIT_OK


def cmd_precision(args: argparse.Namespace) -> int:
    eta = _resolve_eta(args)
    if args.n is None:
        raise UsageError("--n is required")
    probe, ch, op = analytics._build_point(args.n, eta, args.theta_t, args.phi0, args.dphi)
    report = analytics.precision_report(probe, ch, op)
    mp_opt = analytics.min_phase_opt(probe, eta)

    columns = ["n", "eta", "loss", "theta_t", "phi0", "delta_phi", "mean", "variance",
               "snr", "degenerate", "min_phase", "log_min_phase", "min_phase_opt"]
    row = [args.n, eta, 1.0 - eta, args.theta_t, op.phi0, args.dphi, report.mean, report.variance,
           report.snr, report.degenerate, report.min_phase, report.log_min_phase, mp_opt]

    if args.budget is not None:
        b = budget.PhotonBudget(args.budget, args.kappa)
        columns += ["n_total", "kappa", "m_nearest", "delta_phi_noon", "delta_phi_un", "r_noon"]
        row += [b.n_total, b.kappa, round(b.n_total / args.n),
                budget.noon_precision_budgeted(args.n, b, eta),
                budget.unentangled_precision(b, eta),
                budget.r_noon(args.n, eta)]

    emit(Table.row(columns, row), args.format, args.out)
    return EXIT_OK


def _sql_reference(ns, eta: float) -> list:
    """1/sqrt(2 eta N) at each N, the fig2 reference column; where 2 eta N
    overflows, from the roots of 2 eta and N."""
    two_eta = 2.0 * eta
    return [1.0 / math.sqrt(x) if (x := two_eta * n) < math.inf else 1.0 / (math.sqrt(two_eta) * math.sqrt(n))
            for n in ns]


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.fig2 or args.fig3:
        eta = _resolve_eta(args)
        LossChannel(eta)  # domain check up front
        loss = 1.0 - eta
        const = optimal_search.solve_nu() if args.fig2 else budget.solve_nu_tilde()
        stop_default = max(1000.0, 10.0 * const / loss) if loss > 0 else 1e4
        var = "N"
        start = args.start if args.start is not None else 1.0
        stop = args.stop if args.stop is not None else stop_default
        steps = args.steps if args.steps is not None else 200
        scale = args.scale
        if scale is None:
            scale = "log" if start > 0 and stop / start > 100 else "linear"
    else:
        if args.var is None:
            raise UsageError("one of --fig2, --fig3, or --var is required")
        if args.start is None or args.stop is None:
            raise UsageError("--start and --stop are required for generic sweeps")
        var, start, stop = args.var, args.start, args.stop
        steps = args.steps if args.steps is not None else 100
        scale = args.scale if args.scale is not None else "linear"
        if var != "N" and args.n is None:
            raise UsageError(f"--n is required when sweeping {var}")
        eta = _resolve_eta(args) if var in ("N", "phi0") else None

    grid = SweepSpec(var, start, stop, steps, scale).grid()
    if not grid:
        raise UsageError("sweep range contains no photon numbers >= 1")
    if args.fig2:
        names = ["N", "delta_phi_min", "sql_reference"]
        columns = [grid, analytics.optimal_phase_grid(grid, eta), _sql_reference(grid, eta)]
    elif args.fig3:
        names, columns = ["N", "R_NOON"], [grid, analytics.optimal_phase_grid(grid, eta, ratio=True)]
    else:
        n, phi0 = args.n, args.phi0
        if var == "N":
            n = grid
        elif var == "eta":
            eta = grid
        elif var == "L":
            eta = [1.0 - value for value in grid]
        else:
            phi0 = grid
        names = [var, "mean", "variance", "snr", "min_phase", "min_phase_opt"]
        columns = [grid, *analytics.precision_grid(n, eta, args.theta_t, phi0, args.dphi)]
    emit(Table(names, columns, json_object_if_single=False), args.format, args.out)
    return EXIT_OK


def cmd_optimize(args: argparse.Namespace) -> int:
    eta = _resolve_eta(args)
    loss = 1.0 - eta

    if args.budget is None:
        res = optimal_search.n_min_integer(eta, args.n_cap)
        regime = "L > L_c: precision nondecreasing in N" if loss > optimal_search.loss_critical() \
            else "L < L_c: interior optimum"
        columns = ["eta", "loss", "n_star", "precision_at_opt", "continuous_n",
                   "asymptotic_n", "asymptotic_precision", "n_rel_dev", "precision_rel_dev", "regime"]
        row = [eta, loss, res.n_star, res.precision_at_opt, res.continuous_n,
               res.asymptotic_n, res.asymptotic_precision,
               (res.asymptotic_n - res.n_star) / res.n_star,
               (res.asymptotic_precision - res.precision_at_opt) / res.precision_at_opt,
               regime]
        emit(Table.row(columns, row), args.format, args.out)
        return EXIT_OK

    b = budget.PhotonBudget(args.budget, args.kappa)
    n_tilde = budget.n_tilde_min_integer(eta, b)
    precision = budget.noon_precision_budgeted(n_tilde, b, eta)
    regime = "L > L_tilde_c: R_NOON increasing in N" if loss > budget.l_tilde_critical() \
        else "L < L_tilde_c: interior optimum"
    columns = ["eta", "loss", "n_total", "n_tilde", "r_noon_at_opt", "precision_budgeted", "regime"]
    row = [eta, loss, b.n_total, n_tilde, budget.r_noon(n_tilde, eta), precision, regime]
    if 0.0 < loss < 1.0:
        nu_t = budget.solve_nu_tilde()
        asym_n = nu_t / loss
        asym_p = budget.mu_tilde() * math.sqrt(loss / b.n_total)
        columns += ["asymptotic_n_tilde", "asymptotic_precision", "n_tilde_rel_dev"]
        row += [asym_n, asym_p, (asym_n - n_tilde) / n_tilde]
    emit(Table.row(columns, row), args.format, args.out)
    return EXIT_OK


def cmd_budget(args: argparse.Namespace) -> int:
    eta = _resolve_eta(args)
    if args.budget is None:
        raise UsageError("--budget is required")
    b = budget.PhotonBudget(args.budget, args.kappa)
    n_tilde = budget.n_tilde_min_integer(eta, b)
    n = args.n if args.n is not None else n_tilde
    dp_noon = budget.noon_precision_budgeted(n, b, eta)
    dp_un = budget.unentangled_precision(b, eta)
    r = budget.r_noon(n, eta)
    columns = ["eta", "loss", "n_total", "kappa", "n", "m_nearest", "n_tilde",
               "delta_phi_noon", "delta_phi_un", "r_noon", "precision_ratio"]
    row = [eta, 1.0 - eta, b.n_total, b.kappa, n, round(b.n_total / n), n_tilde,
           dp_noon, dp_un, r, r / b.kappa]
    emit(Table.row(columns, row), args.format, args.out)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    if not 1 <= args.max_n <= fock_oracle.MAX_PHOTONS:
        raise UsageError(f"--max-n must be in [1, {fock_oracle.MAX_PHOTONS}]")
    max_n = min(args.max_n, VERIFY_GRIDS[args.grid][-1])
    max_dev, points = run_verification(max_n, args.grid, args.seed, 1.001 if args.corrupt_prefactor else 1.0)

    passed = max_dev <= VERIFY_TOL
    table = Table.row(["max_n", "grid", "points", "max_abs_deviation", "tolerance", "passed"],
                      [max_n, args.grid, points, max_dev, VERIFY_TOL, int(passed)])
    emit(table, args.format, args.out)
    if args.format == "text" and not args.out:
        sys.stdout.write("PASS\n" if passed else "FAIL\n")
    return EXIT_OK if passed else EXIT_VERIFY_FAIL


# ---------------------------------------------------------------------------
# parser

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("text", "csv", "json"), default="text",
                   help="output format (default text)")
    p.add_argument("--out", default=None, metavar="FILE", help="write output to FILE instead of stdout")
    p.add_argument("--config", default=None, metavar="FILE",
                   help="key=value file providing defaults; flags win")
    p.set_defaults(subparser=p)


def _add_channel(p: argparse.ArgumentParser) -> None:
    p.add_argument("--eta", type=float, default=None, help="intensity transmissivity, 0 < eta <= 1")
    p.add_argument("--loss", type=float, default=None, help="loss L = 1 - eta, 0 <= L < 1")
    p.add_argument("--theta-t", type=float, default=0.0, dest="theta_t",
                   help="transmission phase (default 0, pure loss)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noonloss",
        description="Phase-measurement precision of NOON states through a lossy arm.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="small-loss scaling constants and critical losses")
    _add_common(p)
    p.set_defaults(handler=cmd_constants)

    p = sub.add_parser("precision", help="detection statistics at one (N, eta, phi0) point")
    _add_channel(p)
    p.add_argument("--n", type=int, default=None, help="photons per NOON state")
    p.add_argument("--phi0", type=float, default=None,
                   help="operating phase (default: the optimal pi/(2N) - theta_t)")
    p.add_argument("--dphi", type=float, default=0.01, help="phase change to detect (default 0.01)")
    p.add_argument("--budget", type=int, default=None, metavar="N_T",
                   help="also compare against an N_T photon budget")
    p.add_argument("--kappa", type=float, default=1.0, help="baseline constant (default 1)")
    _add_common(p)
    p.set_defaults(handler=cmd_precision)

    p = sub.add_parser("sweep", help="sweep one variable and emit a table")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--fig2", action="store_true",
                       help="precision vs N with the 1/sqrt(2 eta N) reference column")
    group.add_argument("--fig3", action="store_true", help="R_NOON vs N")
    group.add_argument("--var", choices=SWEEP_VARIABLES, default=None, help="swept variable")
    p.add_argument("--start", type=float, default=None)
    p.add_argument("--stop", type=float, default=None)
    p.add_argument("--steps", type=int, default=None, help="number of grid points")
    p.add_argument("--scale", choices=("linear", "log"), default=None)
    _add_channel(p)
    p.add_argument("--n", type=int, default=None, help="fixed N for eta/L/phi0 sweeps")
    p.add_argument("--phi0", type=float, default=None, help="fixed operating phase")
    p.add_argument("--dphi", type=float, default=0.01, help="phase change for the snr column")
    _add_common(p)
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("optimize", help="optimal photons per state for a given loss")
    _add_channel(p)
    p.add_argument("--budget", type=int, default=None, metavar="N_T",
                   help="optimize the budgeted ratio R_NOON instead")
    p.add_argument("--kappa", type=float, default=1.0, help="baseline constant (default 1)")
    p.add_argument("--n-cap", type=int, default=optimal_search.DEFAULT_N_CAP, dest="n_cap",
                   help="search bound on N (default 10^9)")
    _add_common(p)
    p.set_defaults(handler=cmd_optimize)

    p = sub.add_parser("budget", help="budgeted NOON precision vs the unentangled baseline")
    _add_channel(p)
    p.add_argument("--budget", type=int, default=None, metavar="N_T", help="total photon budget")
    p.add_argument("--kappa", type=float, default=1.0, help="baseline constant (default 1)")
    p.add_argument("--n", type=int, default=None,
                   help="photons per state (default: the optimal N_tilde)")
    _add_common(p)
    p.set_defaults(handler=cmd_budget)

    p = sub.add_parser("verify", help="check closed forms against the Fock-basis oracle")
    p.add_argument("--max-n", type=int, default=12, dest="max_n",
                   help=f"largest photon number checked (<= {fock_oracle.MAX_PHOTONS}, default 12)")
    p.add_argument("--grid", choices=tuple(VERIFY_GRIDS), default="dense")
    p.add_argument("--seed", type=int, default=None,
                   help="add randomly drawn channel/phase cases per N")
    p.add_argument("--corrupt-prefactor", action="store_true", help=argparse.SUPPRESS)
    _add_common(p)
    p.set_defaults(handler=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.config:
            args = _apply_config(parser, argv, args)
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"error: {exc} (domains: 0 < eta <= 1, 0 <= L < 1, N >= 1, N_T >= 1)", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    raise SystemExit(main())
