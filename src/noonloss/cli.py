"""Command-line front end: point queries, parameter sweeps, optimizers,
constants, figure-style data dumps, and closed-form-vs-oracle verification.

Exit codes: 0 success, 1 verification failure, 2 usage or domain error.
"""

import argparse
import csv
import json
import math
import os
import random
import re
import shutil
import signal
import sys
import tempfile
import threading
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from . import analytics, budget, fock_oracle, optimal_search
from .analytics import _N_MAX, LossChannel, NoonProbe, _int_text

__all__ = ["main", "entrypoint", "run_verification", "SweepSpec"]

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2

VERIFY_TOL = 1e-10

SWEEP_VARIABLES = ("N", "eta", "L", "phi0")
MAX_STEPS = sys.maxsize // 8  # the most items a list can hold


class UsageError(Exception):
    """Bad flag combination or out-of-domain request."""


# ---------------------------------------------------------------------------
# output formatting

@dataclass
class Table:
    """Named columns of equal length, given as blocks of rows and rendered
    one block at a time.

    A block is a list of columns, one per name, over the same rows; no block
    is empty, and a sweep's blocks hold at most CHUNK_ROWS rows each.
    ``blocks`` may be a generator, so that each block is computed just
    before it is written.  Each column holds values of one type (bool, int, float or str)
    in every block, so its formatter is chosen once, from the first block.
    A point query is one one-row block; a one-row table renders as one JSON
    object unless ``json_object_if_single`` is False, as sweeps set it.
    """

    names: list[str]
    blocks: Iterable[list]
    json_object_if_single: bool = True

    @classmethod
    def row(cls, names: list[str], values: list) -> "Table":
        """A one-row table: one value per column."""
        return cls(names, [[[value] for value in values]])


FLOAT_FORMAT = "%.12g"
CHUNK_ROWS = 1000


def _numeric_format(column) -> str | None:
    """The % conversion of a column, from the type of its first cell:
    FLOAT_FORMAT for floats, "%d" for ints and bools, None otherwise."""
    first = column[0]
    if isinstance(first, float):
        return FLOAT_FORMAT
    if isinstance(first, int):
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
    """The JSON cell of ``value``: its FLOAT_FORMAT text, the CSV cell,
    where that has a "."; any other text goes through _mended."""
    text = FLOAT_FORMAT % value
    return text if "." in text else _mended(text)


def _mended(text: str) -> str:
    """The JSON cell of a FLOAT_FORMAT ``text`` with no ".": an exponent
    keeps it a JSON float, an integral text takes ".0", and inf, -inf and
    nan become the strings "inf", "-inf", "nan"."""
    if "e" in text:
        return text
    if text[-1] in "fn":
        return f'"{text}"'
    return text + ".0"


def _json_cells(column):
    return _cells(column, _json_float, json.dumps)


def _chunks(row: str, sep: str, blocks):
    """(rows, text) of each block of a numeric table: its rows formatted by
    the % template ``row`` and joined by ``sep``, one % string per block."""
    whole = sep.join([row] * CHUNK_ROWS)
    for block in blocks:
        rows = len(block[0])
        template = whole if rows == CHUNK_ROWS else sep.join([row] * rows)
        yield rows, template % tuple(chain.from_iterable(zip(*block)))


def _write_blocks(stream, texts, first, rest, sep: str) -> None:
    """Write the texts of the block ``first`` and the blocks ``rest`` to
    ``stream``, joined by ``sep``; ``texts`` maps blocks to their texts.

    Where _fork_helper hands the second half of ``rest`` to a helper
    process, this process writes the first half meanwhile and then copies
    the helper's text after it in 64 KiB slices.  A failed helper is an
    OSError naming it; on any exception here the helper is killed and
    reaped first.
    """
    helper = _fork_helper(texts, rest, sep)
    head = texts(chain([first], rest))
    if helper is None:
        _write_joined(stream, head, sep)
        return
    pid, tail = helper
    with tail:
        try:
            _write_joined(stream, head, sep)
            status = os.waitpid(pid, 0)[1]
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            raise OSError(f"the sweep's helper process {pid} exited with status {code}")
        tail.seek(0)
        shutil.copyfileobj(tail, stream)


def _write_joined(stream, texts, sep: str) -> None:
    stream.write(next(texts))
    for text in texts:
        stream.write(sep)
        stream.write(text)


def _fork_helper(texts, rest, sep: str):
    """(pid, file) of a forked helper process that takes the second half of
    the sweep blocks ``rest`` off it and writes ``sep`` and the text of each
    to the file, an unlinked temporary one; None where a fork would not pay:
    ``rest`` is no sweep's, or that half is under 2 blocks, or os.fork is
    missing, another thread runs (the child could deadlock), one CPU is
    available, or the file or the process cannot be made.

    The helper leaves only through os._exit, with status 0 once the file
    holds every text and 1 otherwise, and after the block in hand where
    this process has died: it never returns into its callers, whose exits
    would flush this process's buffered output a second time, and writes
    nothing to stdout or stderr.
    """
    count = len(rest.starts) // 2 if isinstance(rest, _SweepBlocks) else 0
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    if count < 2 or not hasattr(os, "fork") or threading.active_count() > 1 or cpus < 2:
        return None
    try:
        tail = tempfile.TemporaryFile("w+", encoding="utf-8")
    except OSError:
        return None
    parent = os.getpid()
    try:
        pid = os.fork()
    except OSError:
        tail.close()
        return None
    if pid == 0:
        status = 1
        try:
            for text in texts(rest.cut(count)):
                if os.getppid() != parent:  # the parent died: nothing reads the file
                    os._exit(1)
                tail.write(sep)
                tail.write(text)
            tail.flush()
            status = 0
        finally:
            os._exit(status)
    rest.cut(count)
    return pid, tail


def render_csv(table: Table, stream) -> None:
    """Write the table to the text ``stream`` as csv.writer writes it, one
    line per row.

    The header, and every table with a column that is not numeric, go
    through csv.writer, one write per line.  A numeric cell never needs
    quoting, so a table of numbers only is formatted by one % template per
    block, which is the same text at less than half the cost, and written
    one block at a time.
    """
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(table.names)
    blocks = iter(table.blocks)
    first = next(blocks, None)
    if first is None:
        return
    conversions = [_numeric_format(column) for column in first]
    if None in conversions:
        for block in chain([first], blocks):
            writer.writerows(zip(*map(_text_cells, block)))
        return
    row = ",".join(conversions) + "\n"
    _write_blocks(stream, lambda part: (text for _, text in _chunks(row, "", part)), first, blocks, "")


def render_json(table: Table, stream) -> None:
    """Write the layout of json.dumps(records, indent=2) to the text
    ``stream``, from a template, one block of records per write.

    A table of numbers only is formatted by one % template per block,
    floats as FLOAT_FORMAT.  A block whose count of dots shows a "." in each
    float cell is written as it is; otherwise _mend_chunk passes the cells
    without one through _mended.
    """
    keys = [json.dumps(name) for name in table.names]
    blocks = iter(table.blocks)
    first = next(blocks, None)
    if first is None:
        stream.write("[]\n")
        return
    if table.json_object_if_single and len(first[0]) == 1:
        second = next(blocks, None)
        if second is None:
            row = next(zip(*map(_json_cells, first)))
            stream.write("{\n" + ",\n".join(f"  {key}: {cell}" for key, cell in zip(keys, row)) + "\n}\n")
            return
        blocks = chain([second], blocks)
    conversions = [_numeric_format(column) for column in first]
    fields = [f"    {key.replace('%', '%%')}: " for key in keys]
    if None in conversions:
        record = "  {\n" + ",\n".join(field + "%s" for field in fields) + "\n  }"

        def texts(part):
            return (",\n".join(map(record.__mod__, zip(*map(_json_cells, block)))) for block in part)
    else:
        record = "  {\n" + ",\n".join(map(str.__add__, fields, conversions)) + "\n  }"
        # per float column: its line in a record, after "  {", where its cell
        # starts on that line, and the "," after the cell on all but the last
        cells = [(j + 1, len(f"    {key}: "), "," if j + 1 < len(keys) else "")
                 for j, (key, conversion) in enumerate(zip(keys, conversions)) if conversion == FLOAT_FORMAT]
        dots = sum(key.count(".") for key in keys) + len(cells)

        def texts(part):
            return (text if text.count(".") == rows * dots else _mend_chunk(text, cells, len(keys) + 2)
                    for rows, text in _chunks(record, ",\n", part))
    stream.write("[\n")
    _write_blocks(stream, texts, first, blocks, ",\n")
    stream.write("\n]\n")


def _mend_chunk(text: str, cells, period: int) -> str:
    """The chunk ``text`` of render_json, records of ``period`` lines, with
    each float cell that has no "." passed through _mended; ``cells`` places
    the float cells of a record as render_json lists them."""
    lines = text.split("\n")
    for first, start, tail in cells:
        for k in range(first, len(lines), period):
            line = lines[k]
            if line.find(".", start) < 0:
                lines[k] = line[:start] + _mended(line[start:len(line) - len(tail)]) + tail
    return "\n".join(lines)


def render_text(table: Table, stream) -> None:
    """Write the table to the text ``stream`` as aligned columns, or as
    "name = value" lines for a single row, one write per line.

    The widths of the columns depend on every row, so the text of every
    cell is gathered before the first write: a text sweep holds all of its
    rows' cells, unlike a CSV or JSON one.
    """
    cells = [[] for _ in table.names]
    for block in table.blocks:
        for column_cells, column in zip(cells, block):
            column_cells.extend(_text_cells(column))
    if len(cells[0]) == 1:
        width = max(map(len, table.names))
        stream.writelines(f"{name:<{width}} = {column[0]}\n" for name, column in zip(table.names, cells))
        return
    widths = [max([len(name), *map(len, column)]) for name, column in zip(table.names, cells)]
    stream.write("  ".join(name.ljust(w) for name, w in zip(table.names, widths)).rstrip() + "\n")
    padded = [map(str.ljust, column, repeat(w)) for column, w in zip(cells, widths)]
    stream.writelines("  ".join(row).rstrip() + "\n" for row in zip(*padded))


def emit(table: Table, fmt: str, out_path: str | None) -> None:
    """Render ``table`` in ``fmt`` straight to ``out_path``, or to stdout."""
    renderer = {"csv": render_csv, "json": render_json, "text": render_text}[fmt]
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            renderer(table, fh)
    else:
        renderer(table, sys.stdout)


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
        span = f"[{analytics._int_text(self.start)}, {analytics._int_text(self.stop)}]"
        # chained, as math.isfinite overflows for an int past DBL_MAX
        if not (-_N_MAX <= self.start <= _N_MAX and -_N_MAX <= self.stop <= _N_MAX):
            raise ValueError(f"start and stop must be finite, got {span}")
        if not self.start < self.stop:
            raise ValueError(f"start must be < stop, got {span}")
        if not self.stop - self.start <= _N_MAX:
            raise ValueError(f"stop - start must be finite, got {span}")
        if self.steps < 2:
            raise ValueError(f"steps must be >= 2, got {analytics._int_text(self.steps)}")
        if self.steps > MAX_STEPS:
            raise ValueError(f"steps must be at most {MAX_STEPS}, got {analytics._int_text(self.steps)}")
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

    Returns the maximum absolute deviation over means and variances, NaN if
    any deviation is NaN, and the number of grid points checked.  A seed
    adds 5 randomly drawn (eta, theta_t, phi) cases per photon number, drawn
    in that order.
    ``prefactor_scale`` = s scales the oracle's detection operator (mean by
    s, variance by s**2), so that the verify sentinel can prove the check
    bites.

    The grid's channels and phases are the same at every N, so each channel
    and its powers of t and r up to ``max_n`` are formed once per call; each
    seeded case forms its own up to its N.  At each N the pass forms that
    N's ladder row once, builds each channel's detector once from the row
    and the channel's powers, and keeps a dict of that N's NOON kets, which
    the oracle fills at each phase's first point; it hands the detector and
    the kets down to every point of the channel.
    """
    if grid not in VERIFY_GRIDS:
        raise ValueError(f"grid must be a key of VERIFY_GRIDS {tuple(VERIFY_GRIDS)}, got {grid!r}")
    if not 1 <= max_n <= fock_oracle.MAX_PHOTONS:
        raise ValueError(f"max_n must be in [1, {fock_oracle.MAX_PHOTONS}], got {_int_text(max_n)}")
    etas, thetas, phases, _ = VERIFY_GRIDS[grid]
    angles = [2.0 * math.pi * k / phases for k in range(phases)]
    grid_channels = [(ch, angles, fock_oracle._channel_powers(ch, max_n))
                     for ch in (LossChannel(eta, theta) for eta in etas for theta in thetas)]
    scale_squared = prefactor_scale ** 2
    rng = random.Random(seed)
    max_dev = 0.0
    points = 0
    for n in range(1, max_n + 1):
        channels = grid_channels
        if seed is not None:
            drawn = [(LossChannel(rng.uniform(0.05, 1.0), rng.uniform(-math.pi, math.pi)),
                      rng.uniform(0.0, 2.0 * math.pi)) for _ in range(5)]
            channels = grid_channels + [(ch, (phi,), fock_oracle._channel_powers(ch, n)) for ch, phi in drawn]
        probe = NoonProbe(n)
        row = fock_oracle._ladder_row(n)
        kets = {}
        for ch, channel_phases, powers in channels:
            detector = fock_oracle._channel_detector(n, ch, _row=row, _powers=powers)
            for phi in channel_phases:
                mean_o, var_o = fock_oracle.oracle_moments(n, ch, phi, _kets=kets, _detector=detector)
                mean_o, var_o = prefactor_scale * mean_o, scale_squared * var_o
                # max() would drop a NaN that is not its first argument; a NaN
                # deviation is kept, so that it fails the check
                for dev in (abs(mean_o - analytics.mean_detection(probe, ch, phi)),
                            abs(var_o - analytics.variance_detection(probe, ch, phi))):
                    if dev > max_dev or math.isnan(dev):
                        max_dev = dev
                points += 1
    return max_dev, points


# ---------------------------------------------------------------------------
# argument plumbing

def _read_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
                key, value = line.split("=", 1)
                values[key.strip().lower().replace("-", "_")] = value.strip()
    except UnicodeDecodeError as exc:  # a ValueError, which main would show with the domain hint
        raise UsageError(f"{path}: not UTF-8 text ({exc.reason})") from None
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

        def kernel(ns):
            return [ns, analytics.optimal_phase_grid(ns, eta), _sql_reference(ns, eta)]
    elif args.fig3:
        names = ["N", "R_NOON"]

        def kernel(ns):
            return [ns, analytics.optimal_phase_grid(ns, eta, ratio=True)]
    else:
        names = [var, "mean", "variance", "snr", "min_phase", "min_phase_opt"]

        def kernel(points):
            n, etas, phi0 = args.n, eta, args.phi0
            if var == "N":
                n = points
            elif var == "eta":
                etas = points
            elif var == "L":
                etas = [1.0 - value for value in points]
            else:
                phi0 = points
            return [points, *analytics.precision_grid(n, etas, args.theta_t, phi0, args.dphi)]
    emit(Table(names, _sweep_blocks(grid, kernel), json_object_if_single=False), args.format, args.out)
    return EXIT_OK


def _sweep_blocks(grid: list, kernel):
    """The blocks of a sweep: ``kernel``'s columns of each run of CHUNK_ROWS
    grid points, each computed as the renderer asks for it.

    A domain error must leave no partial table, so the first block and the
    last point are computed here, before the output is opened.  Between
    them they meet every bad point, as each per-point domain error of a
    sweep lies in a run at the head or the tail of its grid: the eta and L
    grids are monotone and (0, 1] is an interval; at a fixed phi0,
    |N(phi0 + theta_t)| only grows with N, and over a phi0 grid it falls and
    then rises; at the optimal phase it stays finite; and the fig columns
    take every N >= 1.  Where either raises, the kernel runs over
    the whole grid, which raises the first bad point's error in grid order.
    The same argument holds for the blocks that a renderer's helper process
    computes (_fork_helper): they lie between the first block and the last
    point, so none of them raises a domain error.
    """
    try:
        first = kernel(grid[:CHUNK_ROWS])
        kernel(grid[-1:])
    except ValueError:
        kernel(grid)
        raise
    return _SweepBlocks(grid, kernel, first)


class _SweepBlocks:
    """The blocks of a sweep, each computed as it is asked for: ``first``,
    then ``kernel`` of each later run of CHUNK_ROWS grid points, which start
    at ``starts``."""

    def __init__(self, grid: list, kernel, first: list):
        self.grid, self.kernel, self.first = grid, kernel, [first]
        self.starts = range(CHUNK_ROWS, len(grid), CHUNK_ROWS)

    def __iter__(self):
        return self

    def __next__(self) -> list:
        if self.first:
            return self.first.pop()
        if not self.starts:
            raise StopIteration
        k, self.starts = self.starts[0], self.starts[1:]
        return self.kernel(self.grid[k:k + CHUNK_ROWS])

    def cut(self, count: int):
        """Take the last ``count`` blocks off; returns a generator of them."""
        keep = len(self.starts) - count
        tail, self.starts = self.starts[keep:], self.starts[:keep]
        return (self.kernel(self.grid[k:k + CHUNK_ROWS]) for k in tail)


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

class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads a negative number in any float spelling,
    such as -1e-3, -2E-1 or -inf, as a value, not a flag (argparse's own
    pattern takes only -1 and -1.5), and reports a parse error as one
    ``error:`` line without the usage block; add_subparsers makes its
    parsers so too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        digits = r"\d(?:_?\d)*"
        self._negative_number_matcher = re.compile(
            rf"-(?:(?:(?:{digits})?\.{digits}|{digits}\.?)(?:e[-+]?{digits})?|inf(?:inity)?|nan)\Z", re.IGNORECASE)

    def error(self, message):
        self.exit(EXIT_USAGE, f"error: {message}\n")


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
    parser = _Parser(
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
    except (UsageError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc} (domains: 0 < eta <= 1, 0 <= L < 1, N >= 1, N_T >= 1)", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    raise SystemExit(main())
