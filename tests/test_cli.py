import ast
import json
import math
import pathlib
import random
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import noonloss
from noonloss import analytics, cli, fock_oracle
from noonloss.analytics import LossChannel, NoonProbe
from noonloss.cli import EXIT_OK, EXIT_USAGE, EXIT_VERIFY_FAIL, SweepSpec

from _helpers import parse_csv, run_cli


def test_constants_json():
    code, out, _ = run_cli("constants", "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert abs(doc["nu"] - 2.218) < 1e-3
    assert abs(doc["mu"] - 1.018) < 1e-3
    assert abs(doc["nu_tilde"] - 1.279) < 1e-3
    assert abs(doc["mu_tilde"] - 1.340) < 1e-3
    assert abs(doc["eta_c"] - (math.sqrt(7.0) - 2.0) / 3.0) < 1e-9
    assert abs(doc["L_c"] - 0.785) < 1e-3
    assert abs(doc["L_tilde_c"] - (2.0 - math.sqrt(2.0))) < 1e-9
    for key, value in doc.items():
        if key.endswith("_residual"):
            assert value < 1e-10


def test_constants_text():
    code, out, _ = run_cli("constants")
    assert code == EXIT_OK
    assert "nu" in out and "2.2177" in out
    assert "L_tilde_c" in out


def test_precision_lossless():
    code, out, _ = run_cli("precision", "--n", "10", "--eta", "1", "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["min_phase"] == pytest.approx(0.1, rel=1e-9)
    assert doc["min_phase_opt"] == pytest.approx(0.1, rel=1e-12)


def test_precision_lossy():
    code, out, _ = run_cli("precision", "--n", "2", "--loss", "0.5", "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["min_phase"] == pytest.approx(0.790569, abs=1e-6)


def test_precision_with_budget():
    code, out, _ = run_cli("precision", "--n", "2", "--eta", "0.5", "--budget", "100", "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["delta_phi_noon"] == pytest.approx(0.111803, abs=1e-6)
    assert doc["delta_phi_un"] == pytest.approx(1.0 / math.sqrt(50.0), rel=1e-9)
    assert doc["m_nearest"] == 50


def test_precision_degenerate_point_emits_inf():
    code, out, _ = run_cli("precision", "--n", "2", "--eta", "0.9", "--phi0", "0", "--format", "csv")
    assert code == EXIT_OK
    columns, rows = parse_csv(out)
    row = dict(zip(columns, rows[0]))
    assert row["degenerate"] == 1
    assert row["min_phase"] == math.inf  # parsed from the literal "inf" token
    assert row["snr"] == 0.0


def test_near_degenerate_lossless_point():
    # (eta**-N + 1)/2 - cos^2 cancelled to 0 here: min_phase read 0, snr divided by zero
    code, out, err = run_cli("precision", "--n", "1", "--eta", "1", "--phi0", "1e-10")
    assert (code, err) == (EXIT_OK, "")
    assert "min_phase     = 1\n" in out and "log_min_phase = 0\n" in out
    code, out, err = run_cli("sweep", "--var", "phi0", "--start", "0", "--stop", "1e-9", "--steps", "3",
                             "--n", "1", "--eta", "1", "--format", "csv")
    assert (code, err) == (EXIT_OK, "")
    columns, rows = parse_csv(out)
    assert [row[columns.index("min_phase")] for row in rows] == [math.inf, 1.0, 1.0]


def test_eta_loss_flags_are_exclusive_and_required():
    code, _, err = run_cli("precision", "--n", "2", "--eta", "0.5", "--loss", "0.5")
    assert code == EXIT_USAGE and "error" in err
    code, _, err = run_cli("precision", "--n", "2")
    assert code == EXIT_USAGE and "error" in err


def test_domain_error_exit_code():
    code, _, err = run_cli("precision", "--n", "2", "--eta", "1.5")
    assert code == EXIT_USAGE
    assert "eta" in err


def test_sweep_fig2_monotone_large_loss():
    code, out, _ = run_cli("sweep", "--fig2", "--loss", "0.99", "--start", "1", "--stop", "50",
                           "--steps", "50", "--scale", "linear", "--format", "csv")
    assert code == EXIT_OK
    columns, rows = parse_csv(out)
    assert columns == ["N", "delta_phi_min", "sql_reference"]
    values = [r[1] for r in rows]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert rows[0][2] == pytest.approx(1.0 / math.sqrt(2 * 0.01), rel=1e-9)


def test_sweep_fig2_small_loss_minimum():
    code, out, _ = run_cli("sweep", "--fig2", "--loss", "1e-6", "--start", "1", "--stop", "1e7",
                           "--steps", "1200", "--scale", "log", "--format", "csv")
    assert code == EXIT_OK
    _, rows = parse_csv(out)
    best = min(rows, key=lambda r: r[1])
    assert abs(best[1] - 1.018e-6) / 1.018e-6 < 0.01
    assert abs(best[0] - 2.218e6) / 2.218e6 < 0.01


def test_sweep_fig3_increasing_large_loss():
    # stay below N ~ 310, where the emitted ratio saturates to "inf"
    code, out, _ = run_cli("sweep", "--fig3", "--loss", "0.99", "--start", "1", "--stop", "300",
                           "--steps", "300", "--scale", "linear", "--format", "csv")
    assert code == EXIT_OK
    columns, rows = parse_csv(out)
    assert columns == ["N", "R_NOON"]
    values = [r[1] for r in rows]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_sweep_generic_eta():
    code, out, _ = run_cli("sweep", "--var", "eta", "--start", "0.2", "--stop", "1.0",
                           "--steps", "9", "--n", "3", "--format", "csv")
    assert code == EXIT_OK
    columns, rows = parse_csv(out)
    assert columns[0] == "eta" and len(rows) == 9
    opt = [r[columns.index("min_phase_opt")] for r in rows]
    assert all(b < a for a, b in zip(opt, opt[1:]))  # less loss, better precision


def test_sweep_usage_errors():
    code, _, _ = run_cli("sweep", "--var", "eta", "--start", "0.2", "--stop", "0.9", "--steps", "5")
    assert code == EXIT_USAGE  # missing --n
    code, _, _ = run_cli("sweep", "--var", "N", "--eta", "0.5", "--start", "0", "--stop", "10",
                         "--steps", "5", "--scale", "log")
    assert code == EXIT_USAGE  # log scale from zero
    code, _, _ = run_cli("sweep", "--var", "N", "--eta", "0.5", "--start", "1", "--stop", "10", "--steps", "1")
    assert code == EXIT_USAGE  # too few steps
    code, _, _ = run_cli("sweep", "--eta", "0.5")
    assert code == EXIT_USAGE  # neither preset nor variable


# only counts whose float64 grid is larger than any address space, so that its
# allocation fails at once; 2**63 - 1 ended in an IndexError inside numpy
@pytest.mark.parametrize("steps", [10 ** 17, 10 ** 18, 2 ** 63 - 1, 2 ** 63, 10 ** 30])
@pytest.mark.parametrize("mode", [["--var", "eta", "--n", "2", "--start", "0.1", "--stop", "1"],
                                  ["--fig2", "--eta", "0.5"],
                                  ["--var", "N", "--eta", "0.5", "--start", "1", "--stop", "10"]],
                         ids=["eta", "fig2", "N"])
def test_sweep_with_more_steps_than_memory_is_a_usage_error(mode, steps):
    code, out, err = run_cli("sweep", *mode, "--steps", str(steps))
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err
    if steps > cli.MAX_STEPS:
        assert err.startswith(f"error: steps must be at most {cli.MAX_STEPS}, got {steps}")


@pytest.mark.parametrize("steps, shown", [(-10 ** 5000, "a negative int of 16610 bits"),
                                         (10 ** 5000, "an int of 16610 bits")], ids=["-10**5000", "10**5000"])
def test_sweep_spec_names_a_step_count_past_the_int_to_str_limit_by_its_bits(steps, shown):
    # the message of -10**5000 formed its digits, past Python's 4,300-digit limit, and raised that instead
    with pytest.raises(ValueError, match=f", got {shown}$"):
        SweepSpec("eta", 0.1, 1.0, steps)


_POINT = ["precision", "--n", "2", "--eta", "0.5"]


@pytest.mark.parametrize("argv, flag, value", [
    (_POINT, "--phi0", "-1e-3"),
    (_POINT, "--theta-t", "-2E-1"),
    (_POINT, "--dphi", "-1e-2"),
    (_POINT, "--phi0", "-1_0.5e-1_0"),
    (_POINT, "--phi0", "-inf"),
    (_POINT, "--phi0", "-Infinity"),
    (["sweep", "--var", "phi0", "--n", "2", "--eta", "0.5", "--stop", "1", "--steps", "3"], "--start", "-1e-3"),
    (["optimize"], "--loss", "-5E-1"),
])
def test_negative_numbers_in_every_float_spelling_are_values(argv, flag, value):
    # argparse's own pattern reads only -1 and -1.5 as numbers: "--phi0 -1e-3" printed the usage
    # and "expected one argument", although "--phi0=-1e-3" worked
    spaced = run_cli(*argv, flag, value, "--format", "json")
    assert spaced == run_cli(*argv, f"{flag}={value}", "--format", "json")
    assert "usage" not in spaced[2]


@pytest.mark.parametrize("argv", [
    [],                                           # golden no_subcommand
    ["precision", "--n", "two", "--eta", "0.5"],  # golden precision_bad_int_flag
    ["sweep", "--fig2", "--var", "eta"],          # golden sweep_fig_and_var
    ["constants", "--bogus"],                     # golden unknown_flag
    ["verify", "--grid", "bogus"],                # golden verify_bad_grid_flag
    ["precision", "--n", "abc"],
    # argparse joins unrecognized tokens raw, so each line break shows as its escape
    ["constants", "a\nb"],
    ["constants", "a\rb"],
    ["constants", "a\u2028b"],
])
def test_parse_errors_are_one_error_line(argv):
    # argparse's message alone, without the usage block it prints before it
    code, out, err = run_cli(*argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: ") and err.endswith("\n") and err.splitlines(keepends=True) == [err], err


@pytest.mark.parametrize("argv, message", [
    (["budget", "--loss=--"], "argument --loss: invalid float value: '--'"),
    (["precision", "--eta", "0.5", "--n=--"], "argument --n: invalid int value: '--'"),
    (["verify", "--max-n=--"], "argument --max-n: invalid int value: '--'"),
    (["verify", "--grid", "fast", "--seed=--"], "argument --seed: invalid int value: '--'"),
    (["constants", "--format=--"], "argument --format: invalid choice: '--' (choose from 'text', 'csv', 'json')"),
])
def test_a_double_dash_option_value_is_read_as_that_value(argv, message):
    # argparse before Python 3.13 dropped "--" given after "=" and took the
    # empty list left as the value, which ended in a TypeError traceback
    assert run_cli(*argv) == (EXIT_USAGE, "", f"error: {message}\n")


def test_a_double_dash_out_or_config_value_names_that_file(tmp_path, monkeypatch):
    # the empty list left by argparse read as no --out and no --config
    monkeypatch.chdir(tmp_path)
    assert run_cli("constants", "--format", "json", "--out=--")[:2] == (EXIT_OK, "")
    assert json.loads((tmp_path / "--").read_text(encoding="utf-8"))
    (tmp_path / "--").write_text("format = bogus\n", encoding="utf-8")
    code, out, err = run_cli("constants", "--config=--")
    assert (code, out) == (EXIT_USAGE, "") and err.startswith("error: ") and err.count("\n") == 1, err


def test_sweep_json_csv_agree():
    args = ("sweep", "--fig2", "--loss", "0.5", "--start", "1", "--stop", "40",
            "--steps", "40", "--scale", "linear")
    code_c, out_c, _ = run_cli(*args, "--format", "csv")
    code_j, out_j, _ = run_cli(*args, "--format", "json")
    assert code_c == code_j == EXIT_OK
    columns, rows = parse_csv(out_c)
    docs = json.loads(out_j)
    assert len(docs) == len(rows)
    for row, doc in zip(rows, docs):
        for name, cell in zip(columns, row):
            json_value = math.inf if doc[name] == "inf" else doc[name]
            assert json_value == cell


def test_sweep_json_and_csv_agree_cell_for_cell():
    # min_phase runs through [1e11, 1e12) and [1e12, 1e16) at low eta, where a
    # %.12g text reads 999768412082 or 1.5e+12, and eta ends on an integral 1
    args = ("sweep", "--var", "eta", "--start", "0.2", "--stop", "1", "--steps", "3000", "--n", "64")
    code_c, out_c, _ = run_cli(*args, "--format", "csv")
    code_j, out_j, _ = run_cli(*args, "--format", "json")
    assert code_c == code_j == EXIT_OK
    columns, rows = parse_csv(out_c)
    docs = json.loads(out_j)
    assert len(docs) == len(rows) == 3000
    assert any(1e11 <= row[columns.index("min_phase")] < 1e16 for row in rows)
    for row, doc in zip(rows, docs):
        assert list(doc) == columns
        for name, cell in zip(columns, row):
            value = doc[name]
            assert type(value) is float, (name, value)
            assert math.copysign(1.0, value) == math.copysign(1.0, cell) and value == cell, (name, value, cell)


def test_csv_round_trip_preserves_printed_precision():
    code, out, _ = run_cli("sweep", "--fig3", "--eta", "0.7", "--start", "1", "--stop", "20",
                           "--steps", "20", "--scale", "linear", "--format", "csv")
    assert code == EXIT_OK
    for line in out.splitlines()[1:]:
        for cell in line.split(","):
            value = float(cell)
            assert f"{value:.12g}" == cell or str(int(value)) == cell


def test_optimize_matches_scan():
    code, out, _ = run_cli("optimize", "--eta", "0.99", "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    scan = min(range(1, 2001), key=lambda n: noonloss.log_min_phase_opt_continuous(n, 0.99))
    assert doc["n_star"] == scan
    assert doc["continuous_n"] == pytest.approx(noonloss.solve_nu() / -math.log(0.99), rel=1e-9)


def test_optimize_large_loss_regime_note():
    code, out, _ = run_cli("optimize", "--eta", "0.1", "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["n_star"] == 1
    assert "L > L_c" in doc["regime"]


def test_optimize_budget_mode():
    code, out, _ = run_cli("optimize", "--eta", "0.9999", "--budget", "1000000", "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert abs(doc["n_tilde"] - round(noonloss.solve_nu_tilde() / 1e-4)) <= 1


def test_optimize_lossless_without_budget_is_domain_error():
    code, _, err = run_cli("optimize", "--eta", "1")
    assert code == EXIT_USAGE and "eta" in err


def test_budget_command():
    code, out, _ = run_cli("budget", "--eta", "0.5", "--budget", "100", "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["n_tilde"] == noonloss.n_tilde_min_integer(0.5, noonloss.PhotonBudget(100))
    assert doc["delta_phi_un"] == pytest.approx(1.0 / math.sqrt(50.0), rel=1e-9)
    assert doc["precision_ratio"] == pytest.approx(doc["r_noon"], rel=1e-9)  # kappa = 1
    code, _, _ = run_cli("budget", "--eta", "0.5")
    assert code == EXIT_USAGE  # budget size missing


def test_verify_passes():
    code, out, _ = run_cli("verify", "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["passed"] == 1
    assert doc["max_abs_deviation"] < 1e-12


def test_verify_seeded_random_cases():
    code, out, _ = run_cli("verify", "--grid", "fast", "--seed", "7", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["passed"] == 1


def test_verify_corrupted_prefactor_fails():
    code, out, _ = run_cli("verify", "--grid", "fast", "--corrupt-prefactor", "--format", "json")
    assert code == EXIT_VERIFY_FAIL
    assert json.loads(out)["passed"] == 0


def test_verify_corrupt_prefactor_does_not_leak(monkeypatch):
    # direct oracle calls made while the sentinel runs must see the true operator
    original = fock_oracle.verify_moments
    direct = []

    def spy(*args):
        direct.append(fock_oracle.oracle_moments(1, LossChannel(1.0), 0.0)[0])
        direct.append(original(1, [LossChannel(1.0)], [0.0], [()])[1][0])
        return original(*args)

    monkeypatch.setattr(fock_oracle, "verify_moments", spy)
    code, _, _ = run_cli("verify", "--grid", "fast", "--corrupt-prefactor", "--format", "json")
    assert code == EXIT_VERIFY_FAIL
    assert len(direct) == 2 and all(abs(mean - 1.0) <= 1e-12 for mean in direct)


def _verification_per_point(max_n, grid, seed, prefactor_scale):
    """run_verification with a fresh LossChannel and phase at every point,
    each oracle call building its own NOON ket and detector: the loop that
    building the grid's channels once per call and the pass's reuse of kets
    and detectors replaced, kept as the bit-for-bit reference."""
    etas, thetas, phases, _ = cli.VERIFY_GRIDS[grid]
    rng = random.Random(seed)
    max_dev = 0.0
    points = 0
    for n in range(1, max_n + 1):
        cases = [(eta, theta, 2.0 * math.pi * k / phases)
                 for eta in etas for theta in thetas for k in range(phases)]
        if seed is not None:
            cases += [(rng.uniform(0.05, 1.0), rng.uniform(-math.pi, math.pi),
                       rng.uniform(0.0, 2.0 * math.pi)) for _ in range(5)]
        probe = NoonProbe(n)
        for eta, theta, phi in cases:
            ch = LossChannel(eta, theta)
            mean_o, var_o = fock_oracle.oracle_moments(n, ch, phi)
            mean_o, var_o = prefactor_scale * mean_o, prefactor_scale ** 2 * var_o
            dev = max(abs(mean_o - analytics.mean_detection(probe, ch, phi)),
                      abs(var_o - analytics.variance_detection(probe, ch, phi)))
            max_dev = max(max_dev, dev)
            points += 1
    return max_dev, points


@pytest.mark.parametrize("prefactor_scale", [1.0, 1.001])
@pytest.mark.parametrize("seed", [None, 0, 5])
@pytest.mark.parametrize("grid, max_n", [("fast", 6), ("dense", 5)])
def test_verification_matches_the_per_point_loop_bit_for_bit(grid, max_n, seed, prefactor_scale, monkeypatch):
    # the pass's points are the per-point loop's (N, eta, theta_t, phi), in the
    # same order and with the same moments, so the seeded draws still come out
    # as (eta, theta_t, phi) per case
    calls = []
    real_pass, real_point = fock_oracle.verify_moments, fock_oracle.oracle_moments

    def recording_pass(*args):
        records, means, variances = result = real_pass(*args)
        points = [(n, ch, phi) for n, ch, phases in records for phi in phases]
        for (n, ch, phi), mean, var in zip(points, means, variances, strict=True):
            calls.append((n, ch.eta.hex(), ch.theta_t.hex(), phi.hex(), mean.hex(), var.hex()))
        return result

    def recording_point(n, ch, phi):
        moments = real_point(n, ch, phi)
        calls.append((n, ch.eta.hex(), ch.theta_t.hex(), phi.hex(), *(x.hex() for x in moments)))
        return moments

    monkeypatch.setattr(fock_oracle, "verify_moments", recording_pass)
    monkeypatch.setattr(fock_oracle, "oracle_moments", recording_point)
    got = cli.run_verification(max_n, grid, seed, prefactor_scale)
    got_calls, calls[:] = calls[:], []
    want = _verification_per_point(max_n, grid, seed, prefactor_scale)
    assert (got[0].hex(), got[1]) == (want[0].hex(), want[1])
    assert got_calls == calls and len(calls) == want[1]
    if seed is not None:
        # the last 5 points of each N are its seeded cases, drawn eta, theta_t, phi
        per_n = len(calls) // max_n
        rng = random.Random(seed)
        drawn = []
        for n in range(1, max_n + 1):
            for _ in range(5):
                eta = rng.uniform(0.05, 1.0)
                theta = rng.uniform(-math.pi, math.pi)
                phi = rng.uniform(0.0, 2.0 * math.pi)
                drawn.append((n, eta.hex(), theta.hex(), phi.hex()))
        assert [call[:4] for i, call in enumerate(got_calls) if i % per_n >= per_n - 5] == drawn


def test_run_verification_enters_the_oracle_once(monkeypatch):
    passes, points = [], []
    real = fock_oracle.verify_moments
    monkeypatch.setattr(fock_oracle, "verify_moments", lambda *args: passes.append(args) or real(*args))
    monkeypatch.setattr(fock_oracle, "oracle_moments", lambda *args, **kwargs: points.append(args))
    assert cli.run_verification(3, "fast", 7)[1] == 3 * (3 * 8 + 5)
    assert len(passes) == 1 and points == []


def test_cli_names_no_private_fock_oracle_attribute():
    # the oracle's reuse across a verify pass stays inside fock_oracle
    tree = ast.parse(pathlib.Path(cli.__file__).read_text(encoding="utf-8"))
    private = [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
               and isinstance(node.value, ast.Name) and node.value.id == "fock_oracle" and node.attr.startswith("_")]
    private += [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and (node.module or "").endswith("fock_oracle") for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_run_verification_with_an_unknown_grid_is_a_value_error():
    # VERIFY_GRIDS["bogus"] raised KeyError
    with pytest.raises(ValueError, match=r"^grid must be a key of VERIFY_GRIDS \('dense', 'fast'\), got 'bogus'$"):
        cli.run_verification(2, "bogus")


def test_verify_max_n_bound():
    code, _, _ = run_cli("verify", "--max-n", "65")
    assert code == EXIT_USAGE


@pytest.mark.parametrize("max_n, shown", [(0, "0"), (-3, "-3"), (65, "65"), (10 ** 400, "an int of 1329 bits")],
                         ids=["0", "-3", "65", "10**400"])
def test_run_verification_checks_max_n_before_any_oracle_call(max_n, shown, monkeypatch):
    # 0 and -3 returned (0.0, 0), a pass that checked nothing; 65 raised only after every point to N = 64
    calls = []
    monkeypatch.setattr(fock_oracle, "verify_moments", lambda *args: calls.append(args))
    monkeypatch.setattr(fock_oracle, "oracle_moments", lambda *args, **kwargs: calls.append(args))
    with pytest.raises(ValueError, match=rf"^max_n must be in \[1, 64\], got {shown}$"):
        cli.run_verification(max_n)
    assert calls == []


@pytest.mark.parametrize("which, bad_points", [(1, range(48)), (0, [0]), (0, [20]), (0, [47])],
                         ids=["variance-everywhere", "mean-first", "mean-20", "mean-last"])
def test_verify_fails_on_a_nan_deviation(which, bad_points, monkeypatch):
    # max() dropped a NaN that was not its first argument: a NaN variance at
    # every point, or a NaN mean at one, passed with the other points' maximum
    original = fock_oracle.verify_moments
    points = []

    def nan_at_bad_points(*args):
        result = original(*args)
        for i in bad_points:
            result[1 + which][i] = math.nan
        points.append(len(result[1]))
        return result

    monkeypatch.setattr(fock_oracle, "verify_moments", nan_at_bad_points)
    code, out, _ = run_cli("verify", "--max-n", "2", "--grid", "fast", "--format", "csv")
    columns, rows = parse_csv(out)
    assert points == [rows[0][columns.index("points")]] == [48]
    assert math.isnan(rows[0][columns.index("max_abs_deviation")])
    assert rows[0][columns.index("passed")] == 0
    assert code == EXIT_VERIFY_FAIL


def test_config_file_defaults_and_flag_override(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("steps = 7\nformat = json\n# comment\n")
    args = ("sweep", "--fig3", "--eta", "0.5", "--start", "1", "--stop", "100",
            "--scale", "linear", "--config", str(cfg))
    code, out, _ = run_cli(*args)
    assert code == EXIT_OK
    assert len(json.loads(out)) == 7  # steps and format came from the file
    code, out, _ = run_cli(*args, "--steps", "5")
    assert code == EXIT_OK
    assert len(json.loads(out)) == 5  # flag wins


@pytest.mark.parametrize("argv, line, message", [
    (["constants"], "format = xml", "config key format: invalid choice: 'xml' (choose from 'text', 'csv', 'json')"),
    (["precision", "--n", "2", "--eta", "0.5"], "format = xml",
     "config key format: invalid choice: 'xml' (choose from 'text', 'csv', 'json')"),
    (["verify", "--max-n", "2"], "grid = bogus", "config key grid: invalid choice: 'bogus' (choose from 'dense', 'fast')"),
    (["sweep", "--n", "2", "--start", "0.2", "--stop", "0.9"], "var = x",
     "config key var: invalid choice: 'x' (choose from 'N', 'eta', 'L', 'phi0')"),
], ids=["constants-format", "precision-format", "verify-grid", "sweep-var"])
def test_config_value_outside_choices_is_a_usage_error(tmp_path, argv, line, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    code, out, err = run_cli(*argv, "--config", str(cfg))
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"error: {message}\n"


def test_config_file_not_utf8_is_a_usage_error_naming_the_file(tmp_path):
    # the UnicodeDecodeError, a ValueError, printed the domain hint and not the file
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"steps = 5\nformat = j\xffson\n")
    code, out, err = run_cli("precision", "--n", "2", "--eta", "0.5", "--config", str(cfg))
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"error: {cfg}: not UTF-8 text (invalid start byte)\n"


def test_out_file(tmp_path):
    target = tmp_path / "constants.json"
    code, out, _ = run_cli("constants", "--format", "json", "--out", str(target))
    assert code == EXIT_OK
    assert out == ""
    doc = json.loads(target.read_text())
    assert abs(doc["nu"] - 2.218) < 1e-3


def test_out_into_a_missing_directory_is_one_error_line_without_the_domain_hint(tmp_path):
    # the domain hint belongs to a bad value, not to a file the system cannot open
    target = tmp_path / "missing" / "x.json"
    code, out, err = run_cli("constants", "--format", "json", "--out", str(target))
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"error: [Errno 2] No such file or directory: {str(target)!r}\n"
    assert not target.parent.exists()


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec("N", 5.0, 1.0, 10)
    with pytest.raises(ValueError):
        SweepSpec("bogus", 1.0, 5.0, 10)
    with pytest.raises(ValueError):
        SweepSpec("eta", 0.0, 1.0, 10, scale="log")
    for start, stop in ((1.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0), (0.0, math.nan)):
        with pytest.raises(ValueError, match=r"start and stop must be finite"):
            SweepSpec("N", start, stop, 10)
    big = sys.float_info.max
    for start, stop in ((-1e308, 1e308), (-big, big), (-big, 1e308)):
        with pytest.raises(ValueError, match=r"stop - start must be finite"):
            SweepSpec("eta", start, stop, 10)
    # math.isfinite raised OverflowError for an int past DBL_MAX, and for an
    # int width past it
    with pytest.raises(ValueError, match=r"start and stop must be finite, got \[an int of 1329 bits, an int of 1333 bits\]$"):
        SweepSpec("eta", 10 ** 400, 10 ** 401, 10)
    with pytest.raises(ValueError, match=r"stop - start must be finite"):
        SweepSpec("eta", -int(big), int(big), 10)
    # a last point that rounds past DBL_MAX inside numpy is pinned to stop, without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        eta_grid = SweepSpec("eta", -big, 0.0, 252).grid()
        n_grid = SweepSpec("N", 1.0, big, 3, scale="log").grid()
    assert eta_grid[0] == -big and eta_grid[-1] == 0.0 and all(map(math.isfinite, eta_grid))
    assert n_grid[0] == 1 and n_grid[-1] == int(big)
    ns = SweepSpec("N", 1.0, 10.0, 10).grid()
    assert ns == list(range(1, 11))
    # photon numbers past 2**63 stay exact integers
    assert SweepSpec("N", 1.0, 1e20, 3).grid() == [1, 5 * 10 ** 19, 10 ** 20]


@settings(max_examples=200, deadline=None)
@given(st.floats(-1e300, 1e300), st.floats(0.0, 1e300), st.integers(2, 50), st.sampled_from(["linear", "log"]))
@example(1.0, 2.0 ** 64, 9, "linear")  # points on both sides of 2**63
@example(-3.0, 7.0, 11, "linear")
def test_n_grid_equals_the_rounded_points(start, width, steps, scale):
    stop = start + width
    assume(start < stop and (scale == "linear" or start > 0))
    spec = SweepSpec("N", start, stop, steps, scale)
    with np.errstate(over="ignore"):
        if scale == "log":
            points = np.minimum(np.geomspace(start, stop, steps), stop)
        else:
            points = np.linspace(start, stop, steps)
    want = [int(v) for v in np.unique(np.rint(points)) if v >= 1]
    got = spec.grid()
    assert got == want and all(type(n) is int for n in got)


@pytest.mark.parametrize("start, stop, steps, scale", [
    (0.2, 1.0, 100_000, "linear"),
    (-sys.float_info.max, 0.0, 252, "linear"),
    (-3.0, 7.0, 11, "linear"),
    (1e-300, 1.0, 10_001, "log"),
    (1.0, sys.float_info.max, 1001, "log"),  # points near DBL_MAX that numpy pins to stop
    (5e-324, 1e-300, 7, "log"),
])
def test_float_grid_is_the_per_point_floats_bit_for_bit(start, stop, steps, scale):
    with np.errstate(over="ignore"):
        if scale == "log":
            points = np.minimum(np.geomspace(start, stop, steps), stop)
        else:
            points = np.linspace(start, stop, steps)
    got = SweepSpec("phi0", start, stop, steps, scale).grid()
    assert all(type(v) is float for v in got)
    assert list(map(float.hex, got)) == [float(v).hex() for v in points]
    assert got[-1] == stop


def test_sql_reference_past_half_dbl_max():
    # 2 eta N overflows past N = DBL_MAX/2 at eta = 1: the column read 0 there
    code, out, _ = run_cli("sweep", "--fig2", "--eta", "1", "--start", "1e307", "--stop", "1.7e308",
                           "--steps", "3", "--scale", "linear", "--format", "csv")
    assert code == EXIT_OK
    _, rows = parse_csv(out)
    assert len(rows) == 3
    for n, _, sql in rows:
        assert sql == pytest.approx(math.sqrt(0.5 / n), rel=1e-11, abs=0.0)


def test_sweep_infinite_range_is_one_usage_error_under_warnings_as_errors():
    for ends, err in ((["--start", "1", "--stop", "inf"], "error: start and stop must be finite, got [1.0, inf]"),
                      (["--start=-1e308", "--stop=1e308"], "error: stop - start must be finite, got [-1e+308, 1e+308]")):
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-m", "noonloss", "sweep", "--var", "N", "--eta", "0.5",
             *ends, "--steps", "3"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == EXIT_USAGE
        assert proc.stdout == ""
        assert proc.stderr.startswith(err)
        assert proc.stderr.count("\n") == 1


def test_overflowing_signal_gives_a_value_not_a_traceback():
    # (3 * 1e200)**2 overflows a double: the SNR is inf, min_phase stays finite
    code, out, err = run_cli("precision", "--n", "3", "--eta", "0.5", "--dphi", "1e200", "--format", "json")
    assert (code, err) == (EXIT_OK, "")
    doc = json.loads(out)
    assert doc["snr"] == "inf"
    assert doc["min_phase"] == pytest.approx(math.sqrt(4.5) / 3, rel=1e-12)


@pytest.mark.parametrize("argv", [
    ["precision", "--n", "3", "--eta", "0.5", "--phi0", "1e308"],
    ["sweep", "--var", "phi0", "--eta", "0.5", "--n", "3", "--start", "0", "--stop", "1e308", "--steps", "3"],
    ["sweep", "--var", "N", "--eta", "0.5", "--phi0", "1e300", "--start", "1", "--stop", "1e10", "--steps", "3",
     "--scale", "log"],
])
def test_overflowing_angle_is_a_domain_error(argv):
    # finite phi0, but N*(phi0 + theta_t) passes DBL_MAX
    code, out, err = run_cli(*argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: N*(phi0 + theta_t) must be finite, got N = ")
    assert "phi0 = 1e+" in err and "theta_t = 0.0" in err and err.count("\n") == 1


HUGE = str(10 ** 400)  # float(HUGE) overflows


def _assert_too_large_for_a_float(argv, name):
    code, out, err = run_cli(*argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith(f"error: {name} must be at most DBL_MAX, got an int of 1329 bits ") and err.count("\n") == 1


def test_precision_with_a_photon_number_past_the_float_range():
    _assert_too_large_for_a_float(["precision", "--n", HUGE, "--eta", "0.5"], "photon number")


def test_budget_with_a_budget_past_the_float_range():
    _assert_too_large_for_a_float(["budget", "--eta", "0.5", "--budget", HUGE], "n_total")


def test_optimize_with_a_budget_past_the_float_range():
    _assert_too_large_for_a_float(["optimize", "--eta", "0.5", "--budget", HUGE], "n_total")


def test_budget_whose_n_times_n_total_passes_the_float_range():
    # N = N_T = 1e200 lie in the float range, their product does not
    code, out, err = run_cli("budget", "--eta", "1", "--budget", str(10 ** 200), "--format", "json")
    assert (code, err) == (EXIT_OK, "")
    doc = json.loads(out)
    assert doc["delta_phi_noon"] == pytest.approx(1e-200, rel=1e-15)
    assert doc["r_noon"] == pytest.approx(1e-100, rel=1e-15)


def test_budget_where_the_baseline_underflows():
    # kappa / sqrt(eta N_T) rounds to 0; the ratio is R_NOON / kappa, not a division by it
    code, out, err = run_cli("budget", "--eta", "1", "--budget", str(10 ** 18), "--kappa", "5e-324",
                             "--n", "2", "--format", "json")
    assert (code, err) == (EXIT_OK, "")
    doc = json.loads(out)
    assert doc["delta_phi_un"] == 0.0
    assert doc["precision_ratio"] == "inf"


_LOG_SWEEP_NEAR_DBL_MAX = ["sweep", "--var", "N", "--eta", "0.5", "--scale", "log",
                           "--start", "1.797693134862315e308", "--stop", "1.7976931348623157e+308", "--steps", "50"]


def test_log_sweep_near_dbl_max():
    # np.geomspace returned inf for 48 of the 50 points, and int(inf) raised OverflowError
    code, out, err = run_cli(*_LOG_SWEEP_NEAR_DBL_MAX, "--format", "csv")
    assert (code, err) == (EXIT_OK, "")
    _, rows = parse_csv(out)
    assert [int(row[0]) for row in rows] == [int(1.797693134862315e308), int(sys.float_info.max)]


def test_module_invocation_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "noonloss", "constants", "--format", "json"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert abs(json.loads(proc.stdout)["nu"] - 2.218) < 1e-3


@pytest.mark.parametrize("fmt", ["csv", "json", "text"])
def test_sweep_into_a_reader_that_closes_after_one_line(fmt):
    # the renderers write as they go, so the closed pipe reaches them mid-table
    proc = subprocess.Popen(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "noonloss", "sweep", "--var", "eta", "--start", "0.2",
         "--stop", "1", "--steps", "100000", "--n", "41", "--format", fmt],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == EXIT_USAGE
    assert first.startswith({"csv": "eta,mean,", "json": "[", "text": "eta "}[fmt])
    assert err.startswith("error: [Errno 32] Broken pipe") and err.count("\n") == 1, err


@pytest.mark.parametrize("fmt", ["csv", "json", "text"])
def test_eta_sweep_with_a_bad_eta_mid_grid_writes_nothing(tmp_path, fmt):
    # the first block and the last point are computed before the first write, so the error leaves no partial table
    argv = ["sweep", "--var", "eta", "--start", "0.5", "--stop", "1.5", "--n", "3", "--format", fmt]
    target = tmp_path / "out"
    for extra in ([], ["--out", str(target)]):
        code, out, err = run_cli(*argv, *extra)
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: eta must lie in (0, 1], got 1.00505050505") and err.count("\n") == 1
        assert not target.exists()


# (variable, start, stop, scale, the fixed flags) of 5,000-step sweeps whose bad points all lie past the
# first CHUNK_ROWS rows: eta past 1, L at 1, and N(phi0 + theta_t) past DBL_MAX at the largest N or phi0
_TAIL_ERROR_SWEEPS = {
    "eta-past-1": ("eta", 0.5, 1.01, "linear", {"n": 3}),
    "L-at-1": ("L", 0.0, 1.0, "linear", {"n": 3}),
    "N-angle-overflow": ("N", 1.0, 1e10, "log", {"eta": 0.5, "phi0": 1e300}),
    "phi0-angle-overflow": ("phi0", 0.0, 1e308, "linear", {"eta": 0.5, "n": 3}),
}


def _first_bad_point(var, start, stop, scale, fixed):
    """(index, message) of the first grid point whose one-point sweep raises."""
    for k, x in enumerate(SweepSpec(var, start, stop, 5000, scale).grid()):
        point = {"n": fixed.get("n"), "eta": fixed.get("eta"), "phi0": fixed.get("phi0"),
                 {"N": "n", "L": "eta"}.get(var, var): [1.0 - x if var == "L" else x]}
        try:
            analytics.precision_grid(point["n"], point["eta"], 0.0, point["phi0"], 0.01)
        except ValueError as exc:
            return k, str(exc)
    raise AssertionError("no point of the sweep raises")


@pytest.mark.parametrize("fmt", ["csv", "json", "text"])
@pytest.mark.parametrize("sweep", list(_TAIL_ERROR_SWEEPS), ids=list(_TAIL_ERROR_SWEEPS))
def test_a_sweep_with_bad_points_past_its_first_block_writes_nothing(tmp_path, sweep, fmt):
    var, start, stop, scale, fixed = _TAIL_ERROR_SWEEPS[sweep]
    index, message = _first_bad_point(var, start, stop, scale, fixed)
    assert index >= cli.CHUNK_ROWS
    argv = ["sweep", "--var", var, "--start", repr(start), "--stop", repr(stop), "--steps", "5000",
            "--scale", scale, "--format", fmt]
    for flag, value in fixed.items():
        argv += [f"--{flag}", repr(value)]
    target = tmp_path / "out"
    for extra in ([], ["--out", str(target)]):
        code, out, err = run_cli(*argv, *extra)
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith(f"error: {message} (domains: ") and err.count("\n") == 1, err
        assert not target.exists()


def _traced_peak(target, fmt, steps):
    """The traced (tracemalloc) peak, in bytes, of an eta sweep of ``steps``
    rows written in ``fmt`` to the file ``target``."""
    argv = ["sweep", "--var", "eta", "--start", "0.2", "--stop", "1", "--steps", str(steps), "--n", "41",
            "--format", fmt, "--out", str(target)]
    tracemalloc.start()
    try:
        result = run_cli(*argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == (EXIT_OK, "", "")
    assert target.read_text(encoding="utf-8").count("\n") == {"csv": steps + 1, "json": 8 * steps + 2}[fmt]
    return peak


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_sweep_to_a_file_holds_one_block_of_rows(tmp_path, fmt):
    # each block is computed just before it is written, so only the grid grows with the row count:
    # its list, and its numpy array while it is built, about 40 bytes a row; every column held at
    # once costs about 190
    small, large = (_traced_peak(tmp_path / f"out.{fmt}", fmt, steps) for steps in (10_000, 100_000))
    assert (large - small) / 90_000 <= 64, (small, large)


_RANGE_ENDS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e6, math.inf, -math.inf, math.nan]),
    # finite ends whose difference or last grid point overflows
    st.sampled_from([1e308, -1e308, sys.float_info.max, -sys.float_info.max]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@st.composite
def _sweep_argv(draw):
    mode = draw(st.sampled_from([["--fig2"], ["--fig3"], ["--var", "N"], ["--var", "eta"],
                                 ["--var", "L"], ["--var", "phi0"]]))
    argv = ["sweep", *mode, "--n", "3", "--format", draw(st.sampled_from(["text", "csv", "json"]))]
    if mode[-1] not in ("eta", "L"):
        argv += ["--eta", draw(st.sampled_from(["0.7", "1"]))]
    for flag in ("--start", "--stop"):
        value = draw(st.none() | _RANGE_ENDS)
        if value is not None:
            argv += draw(st.sampled_from([[f"{flag}={value!r}"], [flag, repr(value)]]))
    scale = draw(st.sampled_from([None, "linear", "log"]))
    if scale is not None:
        argv += ["--scale", scale]
    steps = draw(st.none() | st.integers(-1, 10 ** 4))
    if steps is not None:
        argv += draw(st.sampled_from([[f"--steps={steps}"], ["--steps", str(steps)]]))
    return argv


@settings(max_examples=200, deadline=None)
@given(_sweep_argv())
@example(_LOG_SWEEP_NEAR_DBL_MAX)
def test_sweep_range_fuzz(argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(*argv)
    assert code in (EXIT_OK, EXIT_VERIFY_FAIL, EXIT_USAGE)
    assert err == "" or (err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")), err
    # a failing sweep writes no row, however many blocks its grid spans
    assert code != EXIT_USAGE or out == "", out[:200]


_FUZZ_INTS = st.sampled_from([0, -1, 1, 2, 6, 2 ** 63, 10 ** 400]).map(str)
_FUZZ_FLOATS = st.one_of(
    st.sampled_from([math.inf, -math.inf, math.nan, 0.0, -0.0, 5e-324, -5e-324, sys.float_info.min, 1e308, -1e308]),
    st.floats(),
).map(repr)
# tokens that parse as neither, some holding line breaks
_FUZZ_JUNK = st.sampled_from(["", "x", "1e", "--", "-", "0x1", "1.5.2", "a\nb", "\n", "7\n", "-\r", "1\u2028"]) | st.text(max_size=6)
_CHANNEL = ["--eta", "--loss", "--theta-t"]
# subcommand: (its int flags, its float flags)
_FUZZ_FLAGS = {
    "constants": ([], []),
    "precision": (["--n", "--budget"], _CHANNEL + ["--phi0", "--dphi", "--kappa"]),
    "sweep": (["--n"], _CHANNEL + ["--phi0", "--dphi", "--start", "--stop"]),
    "optimize": (["--budget", "--n-cap"], _CHANNEL + ["--kappa"]),
    "budget": (["--budget", "--n"], _CHANNEL + ["--kappa"]),
    "verify": (["--max-n", "--seed"], []),
}


@st.composite
def _cli_argv(draw, out_dir):
    command = draw(st.sampled_from(sorted(_FUZZ_FLAGS)))
    int_flags, float_flags = _FUZZ_FLAGS[command]
    argv = [command]
    if command == "sweep":
        argv += draw(st.sampled_from([["--fig2"], ["--fig3"], *(["--var", var] for var in cli.SWEEP_VARIABLES)]))
    elif command == "verify":
        argv += ["--grid", "fast"]
    values = {flag: _FUZZ_INTS for flag in int_flags} | {flag: _FUZZ_FLOATS for flag in float_flags}
    values["--format"] = st.sampled_from(["text", "csv", "json"])
    values["--out"] = st.sampled_from([str(out_dir / "out"), str(out_dir / "no" / "out"), str(out_dir), "--"])
    for flag in draw(st.lists(st.sampled_from(sorted(values)), unique=True)):
        # a junk --out would name a file anywhere
        value = draw(values[flag] if flag == "--out" else values[flag] | _FUZZ_JUNK)
        argv += draw(st.sampled_from([[f"{flag}={value}"], [flag, value]]))
    return argv


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_subcommand_fuzz(tmp_path, monkeypatch, data):
    # from inside tmp_path, where a token that argparse takes for --out writes
    monkeypatch.chdir(tmp_path)
    argv = data.draw(_cli_argv(tmp_path))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(*argv)
    assert code in ((EXIT_OK, EXIT_VERIFY_FAIL, EXIT_USAGE) if argv[0] == "verify" else (EXIT_OK, EXIT_USAGE))
    assert err == "" or (err.startswith("error: ") and err.endswith("\n") and err.splitlines(keepends=True) == [err]), err
    assert code != EXIT_USAGE or out == "", out[:200]
