"""Golden gate: CLI invocations and optimizer answers must stay byte-identical.

Each CLI case runs ``cli.main`` in a scratch working directory and records the
exit code, stdout, stderr and the bytes of ``--out``.  ``optima.json`` holds
the integer optima for seeded (eta, N_T) pairs spread over the whole domain;
a one-ulp change in a log-domain kernel flips some of their tie-breaks.

``oracle.json`` pins the Fock oracle's floats bit for bit: a digest of every
``verify_moments`` pair that a dense ``verify --max-n 64 --seed`` run asks for,
moments under other reflection phases, and detector outputs of a few kets.

``kernels.json`` pins the point queries bit for bit: every
``precision_report`` field, and ``min_phase`` and ``log_min_phase`` again at
delta_phi = 0, at seeded points and at the edge cases of each rule
(blind and near-blind phases, eta = 1 and 1 - 1e-16, an overflowing noise
term or signal, delta_phi = 0, eta**-N on either side of DBL_MAX), and the
optimal-phase forms ``min_phase_opt_continuous``, ``r_noon_continuous`` and
``noon_precision_budgeted`` at the same points.  Each is a one-point call of
the column loop that a sweep runs over many points, ``analytics._eta_columns``
or ``analytics.optimal_phase_grid``, so these pins hold the sweeps' forms too.

The files are written only for a deliberate output change, which then belongs
in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import math
import random
from pathlib import Path
from unittest import mock

import pytest

from noonloss import PhotonBudget, fock_oracle, n_min_integer, n_tilde_min_integer
from noonloss.analytics import LossChannel, NoonProbe, OperatingPoint, min_phase_opt_continuous, precision_report
from noonloss.budget import noon_precision_budgeted, r_noon_continuous
from noonloss.cli import run_verification
from noonloss.fock_oracle import FockKet, Occupation, apply_detector, build_noon_input, oracle_moments

from _helpers import run_cli

GOLDEN = Path(__file__).resolve().parent / "golden"
CFG, OUT = "run.cfg", "out.txt"

# name -> (argv, config file text or None)
CASES = {
    # constants
    "constants_text": (["constants"], None),
    "constants_csv": (["constants", "--format", "csv"], None),
    "constants_json": (["constants", "--format", "json"], None),
    "constants_text_out": (["constants", "--out", OUT], None),
    # precision
    "precision_text": (["precision", "--n", "2", "--eta", "0.5"], None),
    "precision_csv_theta": (["precision", "--n", "3", "--loss", "0.1", "--theta-t", "0.37",
                             "--dphi", "0.02", "--format", "csv"], None),
    "precision_json_budget": (["precision", "--n", "2", "--eta", "0.5", "--budget", "100",
                               "--kappa", "1.2", "--format", "json"], None),
    "precision_degenerate": (["precision", "--n", "2", "--eta", "0.9", "--phi0", "0",
                              "--format", "csv"], None),
    "precision_overflow_json_out": (["precision", "--n", "2000", "--eta", "0.5", "--format", "json",
                                     "--out", OUT], None),
    "precision_missing_n": (["precision", "--eta", "0.5"], None),
    "precision_eta_and_loss": (["precision", "--n", "2", "--eta", "0.5", "--loss", "0.5"], None),
    "precision_no_channel": (["precision", "--n", "2"], None),
    "precision_eta_out_of_domain": (["precision", "--n", "2", "--eta", "1.5"], None),
    "precision_kappa_negative": (["precision", "--n", "2", "--eta", "0.5", "--budget", "10",
                                  "--kappa", "-1"], None),
    "precision_bad_int_flag": (["precision", "--n", "two", "--eta", "0.5"], None),
    # sweep presets
    "sweep_fig2_text": (["sweep", "--fig2", "--loss", "0.5", "--start", "1", "--stop", "20",
                         "--steps", "20", "--scale", "linear"], None),
    "sweep_fig2_csv_default_range": (["sweep", "--fig2", "--loss", "0.01", "--format", "csv"], None),
    "sweep_fig2_lossless": (["sweep", "--fig2", "--eta", "1", "--steps", "30", "--format", "csv"], None),
    "sweep_fig2_dense_cutoff": (["sweep", "--fig2", "--loss", "1e-4", "--start", "3e6", "--stop", "8e6",
                                 "--steps", "2000", "--format", "csv"], None),
    "sweep_fig3_dense_cutoff": (["sweep", "--fig3", "--loss", "1e-4", "--start", "3e6", "--stop", "8e6",
                                 "--steps", "2000", "--format", "csv"], None),
    # more than 1,000 rows, not a multiple of 1,000, across the overflow of eta**-N
    "sweep_fig2_csv_1525_rows": (["sweep", "--fig2", "--loss", "1e-3", "--start", "1", "--stop", "1e7",
                                  "--steps", "2000", "--format", "csv"], None),
    "sweep_fig3_csv_1525_rows": (["sweep", "--fig3", "--loss", "1e-3", "--start", "1", "--stop", "1e7",
                                  "--steps", "2000", "--format", "csv"], None),
    # chunks of 1,000 rows whose cells go from finite to inf past ln(DBL_MAX): fig2 near N = 1.45e6,
    # fig3 near N = 1.43e6
    "sweep_fig2_csv_exp_overflow": (["sweep", "--fig2", "--loss", "1e-3", "--start", "1e6", "--stop", "2e6",
                                     "--steps", "2000", "--format", "csv"], None),
    "sweep_fig3_csv_exp_overflow": (["sweep", "--fig3", "--loss", "1e-3", "--start", "1e6", "--stop", "2e6",
                                     "--steps", "2000", "--format", "csv"], None),
    # 2N overflows past DBL_MAX/2, where R_NOON read 0
    "sweep_fig3_csv_past_half_dbl_max": (["sweep", "--fig3", "--eta", "0.5", "--start", "1e307", "--stop", "1.7e308",
                                          "--steps", "3", "--scale", "linear", "--format", "csv"], None),
    "sweep_fig3_text_overflow": (["sweep", "--fig3", "--loss", "0.99", "--start", "1", "--stop", "400",
                                  "--steps", "12"], None),
    "sweep_fig3_json_default_range": (["sweep", "--fig3", "--eta", "0.5", "--format", "json"], None),
    "sweep_fig3_csv_out": (["sweep", "--fig3", "--eta", "0.7", "--start", "1", "--stop", "20",
                            "--steps", "20", "--format", "csv", "--out", OUT], None),
    # generic sweeps
    "sweep_var_eta_csv": (["sweep", "--var", "eta", "--start", "0.2", "--stop", "1.0", "--steps", "9",
                           "--n", "3", "--format", "csv"], None),
    "sweep_var_eta_json_theta": (["sweep", "--var", "eta", "--start", "0.2", "--stop", "1.0",
                                  "--steps", "5", "--n", "4", "--theta-t", "0.2", "--format", "json"], None),
    "sweep_var_N_text": (["sweep", "--var", "N", "--eta", "0.9", "--start", "1", "--stop", "12",
                          "--steps", "12"], None),
    "sweep_var_N_log_json_phi0": (["sweep", "--var", "N", "--loss", "0.01", "--start", "1", "--stop", "1000",
                                   "--steps", "15", "--scale", "log", "--phi0", "0.1", "--format", "json"], None),
    "sweep_var_L_csv": (["sweep", "--var", "L", "--start", "0", "--stop", "0.9", "--steps", "7", "--n", "4",
                         "--dphi", "0.05", "--format", "csv"], None),
    "sweep_var_phi0_csv": (["sweep", "--var", "phi0", "--loss", "0.2", "--start", "0", "--stop", "1.5",
                            "--steps", "6", "--n", "2", "--format", "csv"], None),
    # dense generic sweeps: values in 1e12..1e16, tiny means, overflow to inf
    "sweep_var_eta_json_dense": (["sweep", "--var", "eta", "--start", "0.01", "--stop", "1.0",
                                  "--steps", "2000", "--n", "19", "--theta-t", "0.2", "--format", "json"],
                                 None),
    # JSON across chunks of 1,000 rows: min_phase in [1e10, 1e16) at low eta and the integral eta = 1.0
    # at the end; an int column on the template; blind points with snr 0.0 and min_phase "inf"
    "sweep_var_eta_json_3000_rows": (["sweep", "--var", "eta", "--start", "0.2", "--stop", "1.0",
                                      "--steps", "3000", "--n", "41", "--format", "json"], None),
    # an eta sweep across the overflow of eta**-N (eta near 0.094 at N = 300) and past ln(DBL_MAX) in the
    # log forms (eta near 0.0085), where min_phase and min_phase_opt turn to "inf"
    "sweep_var_eta_json_pow_and_exp_overflow": (["sweep", "--var", "eta", "--start", "1e-3", "--stop", "1",
                                                 "--steps", "1500", "--n", "300", "--format", "json"], None),
    # a loss sweep at a blind phase: snr 0 and min_phase inf at every point, eta = 1 in the first row
    "sweep_var_L_csv_blind": (["sweep", "--var", "L", "--start", "0", "--stop", "0.99", "--steps", "1200",
                               "--n", "5", "--phi0", "0", "--format", "csv"], None),
    "sweep_var_N_json_1001_rows": (["sweep", "--var", "N", "--loss", "0.1", "--start", "1", "--stop", "1001",
                                    "--steps", "1001", "--format", "json"], None),
    "sweep_var_phi0_json_blind": (["sweep", "--var", "phi0", "--eta", "0.5", "--start", "0",
                                   "--stop", "3.141592653589793", "--steps", "1001", "--n", "2",
                                   "--format", "json"], None),
    "sweep_var_N_log_csv": (["sweep", "--var", "N", "--loss", "1e-3", "--start", "1", "--stop", "1e7",
                             "--steps", "300", "--scale", "log", "--format", "csv"], None),
    "sweep_var_N_csv_2345_rows_inf": (["sweep", "--var", "N", "--loss", "0.5", "--start", "1", "--stop", "2345",
                                       "--steps", "2345", "--dphi", "1e200", "--format", "csv"], None),
    "sweep_var_phi0_text_degenerate": (["sweep", "--var", "phi0", "--eta", "0.8", "--start", "0",
                                        "--stop", "3.14159", "--steps", "7", "--n", "3"], None),
    "sweep_var_L_text_to_0_9": (["sweep", "--var", "L", "--start", "0.5", "--stop", "0.9", "--steps", "5",
                                 "--n", "7", "--phi0", "0.3", "--theta-t", "-0.1"], None),
    "sweep_var_N_single_row_json": (["sweep", "--var", "N", "--eta", "0.5", "--start", "1", "--stop", "1.4",
                                     "--steps", "2", "--format", "json"], None),
    # the first bad grid point names the error; per point: eta, theta_t, N, phi0/dphi
    "sweep_var_eta_from_zero": (["sweep", "--var", "eta", "--start", "0", "--stop", "1", "--steps", "5",
                                 "--n", "2"], None),
    "sweep_var_eta_past_one": (["sweep", "--var", "eta", "--start", "0.5", "--stop", "1.5", "--steps", "5",
                                "--n", "2"], None),
    "sweep_theta_t_nan_before_late_eta": (["sweep", "--var", "eta", "--start", "0.5", "--stop", "1.5",
                                           "--steps", "5", "--n", "2", "--theta-t", "nan"], None),
    "sweep_var_L_negative": (["sweep", "--var", "L", "--start", "-0.5", "--stop", "0.5", "--steps", "5",
                              "--n", "2", "--theta-t", "nan", "--dphi", "inf"], None),
    "sweep_dphi_inf": (["sweep", "--var", "eta", "--start", "0.2", "--stop", "0.9", "--steps", "5",
                        "--n", "2", "--dphi", "inf"], None),
    "sweep_theta_t_nan": (["sweep", "--var", "N", "--eta", "0.5", "--start", "1", "--stop", "5", "--steps", "5",
                           "--theta-t", "nan"], None),
    "sweep_n_zero_before_dphi": (["sweep", "--var", "phi0", "--eta", "0.5", "--start", "0", "--stop", "1",
                                  "--steps", "3", "--n", "0", "--dphi", "inf"], None),
    "sweep_missing_n": (["sweep", "--var", "eta", "--start", "0.2", "--stop", "0.9", "--steps", "5"], None),
    "sweep_log_from_zero": (["sweep", "--var", "N", "--eta", "0.5", "--start", "0", "--stop", "10",
                             "--steps", "5", "--scale", "log"], None),
    "sweep_too_few_steps": (["sweep", "--var", "N", "--eta", "0.5", "--start", "1", "--stop", "10",
                             "--steps", "1"], None),
    "sweep_no_mode": (["sweep", "--eta", "0.5"], None),
    "sweep_missing_start": (["sweep", "--var", "N", "--eta", "0.5", "--stop", "10"], None),
    "sweep_start_after_stop": (["sweep", "--var", "eta", "--n", "2", "--start", "0.9", "--stop", "0.2"], None),
    "sweep_var_N_missing_channel": (["sweep", "--var", "N", "--start", "1", "--stop", "10"], None),
    "sweep_no_photon_numbers": (["sweep", "--fig2", "--eta", "0.5", "--start", "0.1", "--stop", "0.4",
                                 "--steps", "5", "--scale", "linear"], None),
    "sweep_fig2_eta_zero": (["sweep", "--fig2", "--eta", "0"], None),
    "sweep_fig_and_var": (["sweep", "--fig2", "--var", "eta"], None),
    # optimize
    "optimize_text": (["optimize", "--loss", "0.01"], None),
    "optimize_json_large_loss": (["optimize", "--eta", "0.1", "--format", "json"], None),
    "optimize_capped": (["optimize", "--loss", "1e-12", "--format", "json"], None),
    "optimize_n_cap": (["optimize", "--loss", "1e-3", "--n-cap", "100", "--format", "json"], None),
    "optimize_n_cap_zero": (["optimize", "--loss", "0.1", "--n-cap", "0"], None),
    "optimize_budget_text": (["optimize", "--eta", "0.9999", "--budget", "1000000"], None),
    "optimize_budget_lossless_json": (["optimize", "--eta", "1", "--budget", "50", "--format", "json"], None),
    "optimize_budget_kappa_csv": (["optimize", "--loss", "0.3", "--budget", "1000", "--kappa", "2",
                                   "--format", "csv"], None),
    "optimize_lossless_no_budget": (["optimize", "--eta", "1"], None),
    # the larger neighbour of each root is better by 1.9e-17 (n_tilde) and 3.4e-17 (n_star) in the log,
    # far below 1e-15: a 60-digit mpmath argmin picks n_tilde = 127846453 and n_star = 73923836
    "optimize_budget_root_near_half": (["optimize", "--loss", "1e-8", "--budget", "1000000000000000"], None),
    "optimize_root_near_half": (["optimize", "--loss", "3e-8"], None),
    # budget
    "budget_text": (["budget", "--eta", "0.5", "--budget", "100"], None),
    "budget_json_fixed_n": (["budget", "--loss", "0.01", "--budget", "10000", "--n", "50", "--kappa", "1.2",
                             "--format", "json"], None),
    "budget_missing_budget": (["budget", "--eta", "0.5"], None),
    "budget_n_over_budget": (["budget", "--eta", "0.5", "--budget", "10", "--n", "11"], None),
    # verify
    "verify_text": (["verify"], None),
    "verify_fast_json": (["verify", "--grid", "fast", "--format", "json"], None),
    "verify_seed_csv": (["verify", "--grid", "fast", "--seed", "7", "--format", "csv"], None),
    "verify_corrupt_text": (["verify", "--grid", "fast", "--corrupt-prefactor"], None),
    "verify_corrupt_json_out": (["verify", "--max-n", "3", "--corrupt-prefactor", "--format", "json",
                                 "--out", OUT], None),
    "verify_max_n_too_big": (["verify", "--max-n", "65"], None),
    "verify_bad_grid_flag": (["verify", "--grid", "bogus"], None),
    # config files
    "config_values": (["sweep", "--fig3", "--eta", "0.5", "--config", CFG],
                      "steps = 7\nformat = json\nstart = 1\nstop = 100\nscale = linear  # inline\n# comment\n"),
    "config_flag_wins": (["sweep", "--fig3", "--eta", "0.5", "--steps", "5", "--format", "csv",
                          "--config", CFG],
                         "steps = 7\nformat = json\nstart = 1\nstop = 100\nscale = linear\n"),
    "config_point_defaults": (["precision", "--config", CFG],
                              "n = 3\neta = 0.8\ntheta-t = 0.1\ndphi = 0.02\nkappa = 1.5\nbudget = 300\n"
                              "FORMAT = json\n"),
    "config_verify": (["verify", "--config", CFG], "grid = fast\nmax_n = 3\nseed = 2\nformat = csv\n"),
    "config_optimize_out": (["optimize", "--config", CFG], "loss = 1e-3\nn_cap = 50\nformat = json\nout = out.txt\n"),
    "config_unknown_key": (["constants", "--config", CFG], "colour = blue\nformat = csv\n"),
    "config_flag_only_key": (["sweep", "--eta", "0.5", "--start", "1", "--stop", "10", "--steps", "3",
                              "--config", CFG], "fig2 = 1\n"),
    "config_malformed_line": (["constants", "--config", CFG], "format = csv\nsteps 7\n"),
    "config_bad_int": (["sweep", "--fig3", "--eta", "0.5", "--config", CFG], "steps = seven\n"),
    "config_bad_value_under_flag": (["sweep", "--fig3", "--eta", "0.5", "--start", "1", "--stop", "9",
                                     "--steps", "4", "--config", CFG], "steps = seven\n"),
    "config_missing_file": (["constants", "--config", "missing.cfg"], None),
    # argparse
    "no_subcommand": ([], None),
    "unknown_flag": (["constants", "--bogus"], None),
    "help_sweep": (["sweep", "--help"], None),
    "help_verify": (["verify", "--help"], None),
}


def run_case(argv, config, workdir):
    """(exit code, stdout, stderr, --out text or None) of one case run in ``workdir``."""
    if config is not None:
        (workdir / CFG).write_text(config, encoding="utf-8")
    code, out, err = run_cli(*argv)
    target = workdir / OUT
    written = target.read_bytes().decode("utf-8") if target.exists() else None
    return {"argv": argv, "config": config, "exit": code, "stdout": out, "stderr": err, "out": written}


def optima_inputs(count=2000, seed=2006):
    """Seeded (eta, N_T) pairs: loss log-uniform in [1e-10, 0.99], N_T in [10, 1e15]."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(count):
        loss = 10.0 ** rng.uniform(-10.0, math.log10(0.99))
        n_total = int(10.0 ** rng.uniform(1.0, 15.0))
        pairs.append((1.0 - loss, n_total))
    return pairs


def optima_rows():
    return [[eta, nt, n_min_integer(eta).n_star, n_tilde_min_integer(eta, PhotonBudget(nt))]
            for eta, nt in optima_inputs()]


def oracle_digest(seed=5):
    """(points, sha256) over the float.hex of every oracle (mean, variance)
    of a dense verification to N = 64 with 5 seeded extra cases per N, in the
    order ``verify_moments`` returns them to ``run_verification``."""
    digest = hashlib.sha256()
    real = fock_oracle.verify_moments

    def recording(*args):
        records, means, variances = result = real(*args)
        for mean, var in zip(means, variances):
            digest.update(f"{mean.hex()} {var.hex()}\n".encode())
        return result

    with mock.patch.object(fock_oracle, "verify_moments", recording):
        _, points = run_verification(max_n=64, seed=seed)
    return [points, digest.hexdigest()]


def reflection_rows():
    """Oracle moments at small N under several conventions for arg(r)."""
    return [[n, phase, *(x.hex() for x in oracle_moments(n, LossChannel(0.6, 0.2), 0.7,
                                                          reflection_phase=phase))]
            for n in (1, 2, 3, 4) for phase in (0.0, math.pi / 2, 1.3, -2.0)]


def _detector_cases():
    """(ket, n, channel): both ladder branches, a summed lowering image, a lossless
    channel, and amplitudes at and just above the support cut-off."""
    mixed = {Occupation(0, 2, 1): 0.3 + 0.1j, Occupation(0, 0, 3): -0.5, Occupation(0, 3, 0): 0.25j,
             Occupation(3, 0, 0): 0.8, Occupation(1, 1, 0): 0.4}
    return [
        (build_noon_input(5, 0.4), 5, LossChannel(0.7, 0.2)),
        (FockKet(mixed, photon_cap=3), 3, LossChannel(0.35, -1.1)),
        (build_noon_input(4, 1.9), 4, LossChannel(1.0, 0.3)),
        (FockKet({Occupation(12, 0, 0): 1.0}, photon_cap=12), 12, LossChannel(0.05, 2.5)),
        (FockKet({Occupation(3, 0, 0): 1e-301, Occupation(0, 1, 2): 1.0}, photon_cap=3), 3, LossChannel(0.5)),
        (FockKet({Occupation(6, 0, 0): 1.5e-300}, photon_cap=6), 6, LossChannel(0.9, 0.1)),
    ]


def detector_rows():
    """``apply_detector`` outputs as [n_a, n_b, n_v, real hex, imag hex], in dict order."""
    return [[[*occ, amp.real.hex(), amp.imag.hex()] for occ, amp in apply_detector(ket, n, ch).amps.items()]
            for ket, n, ch in _detector_cases()]


def oracle_golden():
    return {"verify_digest": oracle_digest(), "reflection_phase": reflection_rows(), "detector": detector_rows()}


def kernel_points(count=300, seed=2020):
    """(n, eta, theta_t, phi0, delta_phi): named edge cases, then seeded points
    with N log-uniform in [1, 1e6] and eta from (0, 1] or within 1e-16..1e-1 of 1."""
    edges = [
        (2, 0.9, 0.0, 0.0, 0.01),  # blind, sin = 0
        (1, 0.5, 0.0, 1e-15, 0.01),  # blind, 0 < |sin| <= DEGENERACY_TOL
        (3, 0.7, 0.0, math.pi / 3 + 1e-15, 0.01),  # blind: N phi0 rounds to within 3e-15 of pi
        (1, 1.0, 0.0, 1e-10, 0.01),  # near-blind, lossless
        (1, 0.9, 0.0, 2e-14, 0.01),  # near-blind, just above the tolerance
        (3, 0.7, 0.2, math.pi / 3 - 0.2 + 1e-12, 0.01),
        (5, 1.0, 0.0, 0.3, 0.02),  # eta = 1
        (5, 1.0, 0.0, math.pi / 10, 0.02),
        (3, 1.0 - 1e-16, 0.0, 0.4, 0.01),  # eta = 1 - 1e-16
        (3, 1.0 - 1e-16, 0.0, math.pi / 3 + 1e-12, 0.01),
        (2000, 0.5, 0.0, math.pi / 4000, 0.01),  # noise term overflows, optimal phase
        (2000, 0.5, 0.3, 1.1, 0.01),
        (2000, 0.5, 0.0, math.pi / 4000, 0.0),
        (1000, 0.55, 0.0, math.pi / 2000, 0.01),  # 500 < N|ln eta| < ln(DBL_MAX)
        (3, 0.5, 0.0, math.pi / 6, 1e200),  # signal overflows
        (3, 1e-100, 0.0, math.pi / 6, 1e160),
        (4, 0.6, 0.1, 0.5, 0.0),  # delta_phi = 0
        (20000, math.exp(-712 / 20000), 0.0, math.pi / 40000, 1.0),
        (1023, 0.5, 0.0, math.pi / 2046, 0.01),  # eta**-N = 2**1023, the largest finite power of 2
        (1024, 0.5, 0.0, math.pi / 2048, 0.01),  # eta**-N = 2**1024 overflows inside the rounding margin
    ]
    rng = random.Random(seed)
    points = []
    for _ in range(count):
        n = int(10.0 ** rng.uniform(0.0, 6.0))
        eta = 1.0 - rng.random() if rng.random() < 0.7 else 1.0 - 10.0 ** rng.uniform(-16.0, -1.0)
        points.append((n, eta, rng.uniform(-3.0, 3.0), rng.uniform(-10.0, 10.0), 10.0 ** rng.uniform(-6.0, 0.0)))
    return edges + points


KERNEL_BUDGET = PhotonBudget(10 ** 12)  # above every N of kernel_points()


def kernel_rows():
    """[point, precision_report fields, [snr, degenerate], min_phase and log_min_phase at delta_phi = 0,
    optimal-phase forms], floats as hex.  The optimal-phase forms are min_phase_opt_continuous and
    r_noon_continuous at N and at N + 0.375, and noon_precision_budgeted at N under KERNEL_BUDGET.
    The [snr, degenerate] and delta_phi = 0 slots held three point queries that precision_report
    replaced; they stay so that the file need not be written again."""
    rows = []
    for n, eta, theta_t, phi0, dphi in kernel_points():
        probe, ch = NoonProbe(n), LossChannel(eta, theta_t)
        r = precision_report(probe, ch, OperatingPoint(phi0, dphi))
        at_zero = precision_report(probe, ch, OperatingPoint(phi0, 0.0))
        rows.append([[n, eta, theta_t, phi0, dphi],
                     [r.mean.hex(), r.variance.hex(), r.snr.hex(), r.min_phase.hex(), r.log_min_phase.hex(),
                      r.degenerate],
                     [r.snr.hex(), r.degenerate],
                     at_zero.min_phase.hex(), at_zero.log_min_phase.hex(),
                     [f(x, eta).hex() for f in (min_phase_opt_continuous, r_noon_continuous) for x in (n, n + 0.375)]
                     + [noon_precision_budgeted(n, KERNEL_BUDGET, eta).hex()]])
    return rows


def test_scalar_kernels_are_bit_identical():
    want = json.loads((GOLDEN / "kernels.json").read_text(encoding="utf-8"))
    assert kernel_rows() == want


@pytest.fixture(scope="module")
def golden_oracle():
    return json.loads((GOLDEN / "oracle.json").read_text(encoding="utf-8"))


def test_oracle_verify_moments_are_bit_identical(golden_oracle):
    assert oracle_digest() == golden_oracle["verify_digest"]


def test_oracle_reflection_phase_moments_are_bit_identical(golden_oracle):
    assert reflection_rows() == golden_oracle["reflection_phase"]


def test_detector_amplitudes_are_bit_identical(golden_oracle):
    assert detector_rows() == golden_oracle["detector"]


@pytest.fixture(scope="module")
def golden_cli():
    return json.loads((GOLDEN / "cli.json").read_text(encoding="utf-8"))


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage and help to the terminal
    return tmp_path


def test_golden_covers_every_case(golden_cli):
    assert sorted(golden_cli) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_case_is_byte_identical(name, golden_cli, workdir):
    argv, config = CASES[name]
    assert run_case(argv, config, workdir) == golden_cli[name]


def test_optima_are_identical():
    want = json.loads((GOLDEN / "optima.json").read_text(encoding="utf-8"))
    assert optima_rows() == want


def _write_golden():
    import os
    import tempfile

    os.environ["COLUMNS"] = "80"
    GOLDEN.mkdir(exist_ok=True)
    home = os.getcwd()
    results = {}
    try:
        for name, (argv, config) in CASES.items():
            with tempfile.TemporaryDirectory() as tmp:
                os.chdir(tmp)
                results[name] = run_case(argv, config, Path(tmp))
                os.chdir(home)
    finally:
        os.chdir(home)
    (GOLDEN / "cli.json").write_text(json.dumps(results, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    (GOLDEN / "optima.json").write_text(
        "[\n" + ",\n".join(json.dumps(row) for row in optima_rows()) + "\n]\n", encoding="utf-8")
    (GOLDEN / "oracle.json").write_text(json.dumps(oracle_golden(), indent=1) + "\n", encoding="utf-8")
    (GOLDEN / "kernels.json").write_text(
        "[\n" + ",\n".join(json.dumps(row) for row in kernel_rows()) + "\n]\n", encoding="utf-8")


if __name__ == "__main__":
    _write_golden()
