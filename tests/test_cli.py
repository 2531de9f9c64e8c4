import json
import math
import subprocess
import sys
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import noonloss
from noonloss import fock_oracle
from noonloss.analytics import LossChannel
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
    # a direct oracle call made while the sentinel runs must see the true operator
    original = fock_oracle.oracle_moments
    direct = []

    def spy(*args, **kwargs):
        if not direct:
            direct.append(original(1, LossChannel(1.0), 0.0)[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(fock_oracle, "oracle_moments", spy)
    code, _, _ = run_cli("verify", "--grid", "fast", "--corrupt-prefactor", "--format", "json")
    assert code == EXIT_VERIFY_FAIL
    assert direct and abs(direct[0] - 1.0) <= 1e-12


def test_verify_max_n_bound():
    code, _, _ = run_cli("verify", "--max-n", "65")
    assert code == EXIT_USAGE


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


def test_out_file(tmp_path):
    target = tmp_path / "constants.json"
    code, out, _ = run_cli("constants", "--format", "json", "--out", str(target))
    assert code == EXIT_OK
    assert out == ""
    doc = json.loads(target.read_text())
    assert abs(doc["nu"] - 2.218) < 1e-3


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
    assert err.startswith(f"error: {name} is too large for a float, got {HUGE} ") and err.count("\n") == 1


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


def test_module_invocation_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "noonloss", "constants", "--format", "json"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert abs(json.loads(proc.stdout)["nu"] - 2.218) < 1e-3


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
            argv.append(f"{flag}={value!r}")  # '=' keeps argparse from reading '-inf' as a flag
    scale = draw(st.sampled_from([None, "linear", "log"]))
    if scale is not None:
        argv += ["--scale", scale]
    steps = draw(st.none() | st.integers(-1, 10 ** 4))
    if steps is not None:
        argv.append(f"--steps={steps}")
    return argv


@settings(max_examples=200, deadline=None)
@given(_sweep_argv())
def test_sweep_range_fuzz(argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run_cli(*argv)
    assert code in (EXIT_OK, EXIT_VERIFY_FAIL, EXIT_USAGE)
    assert err == "" or (err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")), err
