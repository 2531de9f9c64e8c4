"""Acceptance gate: each test pins one top-level claim at its stated
tolerance and runtime bound, and prints a PASS line (visible with -s)."""

import math
import time
from contextlib import contextmanager

import numpy as np

from noonloss import analytics, budget, cli, optimal_search
from noonloss.roots import bisect_root

from _helpers import central_diff, derivative_grid, parse_csv, run_cli


@contextmanager
def criterion(label: str, time_limit: float):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < time_limit, f"{label}: took {elapsed:.2f}s, limit {time_limit}s"
    print(f"PASS {label} ({elapsed:.2f}s)")


def test_criterion_1_oracle_equivalence():
    with criterion("1: oracle equivalence, N <= 12, |dev| <= 1e-12", 5.0):
        max_dev, points = cli.run_verification(max_n=12)
        assert points == 12 * 6 * 2 * 16
        assert max_dev <= 1e-12


def test_criterion_2_lossless_limit():
    with criterion("2: lossless min phase = 1/N up to N = 1e6, rel 1e-12", 1.0):
        ns = np.unique(np.rint(np.geomspace(1, 1e6, 200)).astype(np.int64))
        for n in ns:
            value = analytics.min_phase_opt(analytics.NoonProbe(int(n)), 1.0)
            assert abs(value - 1.0 / n) <= 1e-12 / n


def test_criterion_3_constants():
    with criterion("3: scaling constants and critical losses", 0.1):
        nu = optimal_search.solve_nu()
        mu = optimal_search.mu_from_nu(nu)
        nu_t = budget.solve_nu_tilde()
        mu_t = budget.mu_tilde()
        eta_c = optimal_search.eta_critical()
        assert abs(nu - 2.218) <= 1e-3
        assert abs(mu - 1.018) <= 1e-3
        assert abs(nu_t - 1.279) <= 1e-3
        assert abs(mu_t - 1.340) <= 1e-3
        assert abs(eta_c - 0.215) <= 1e-3
        assert abs(eta_c - (math.sqrt(7.0) - 2.0) / 3.0) <= 1e-9
        assert abs(optimal_search.loss_critical() - 0.785) <= 1e-3
        assert abs(budget.l_tilde_critical() - 0.586) <= 1e-3
        assert abs(budget.l_tilde_critical() - (2.0 - math.sqrt(2.0))) <= 1e-9


def test_criterion_4_small_loss_accuracy():
    with criterion("4: asymptotic optimum within 1% at L = 0.01", 1.0):
        eta = 0.99
        ns = np.arange(1, 3001, dtype=float)
        a = -ns * math.log(eta)
        logs = 0.5 * (np.logaddexp(a, 0.0) - math.log(2.0)) - np.log(ns)
        idx = int(np.argmin(logs))
        n_exact, p_exact = int(ns[idx]), float(np.exp(logs[idx]))
        n_asym, p_asym = optimal_search.asymptotic_optimum(0.01)
        assert abs(n_asym - n_exact) / n_exact < 0.01
        assert abs(p_asym - p_exact) / p_exact < 0.01


def test_criterion_5_fig2b_reproduction():
    with criterion("5: small-loss precision curve, minimum and SQL crossover", 5.0):
        code, out, _ = run_cli("sweep", "--fig2", "--loss", "1e-6", "--start", "1",
                               "--stop", "1e8", "--steps", "3000", "--scale", "log",
                               "--format", "csv")
        assert code == 0
        _, rows = parse_csv(out)
        best = min(rows, key=lambda r: r[1])
        assert abs(best[1] - 1.018e-6) / 1.018e-6 < 0.01
        assert abs(best[0] - 2.218e6) / 2.218e6 < 0.01
        # Heisenberg scaling at the start of the curve
        n0, dp0, _ = rows[0]
        assert n0 == 1 and abs(dp0 - 1.0) < 1e-4
        # dips below the 1/sqrt(2 eta N) reference near the optimum, then
        # blows back past it as loss dominates
        assert best[1] < best[2]
        n_end, dp_end, sql_end = rows[-1]
        assert dp_end > sql_end


def test_criterion_6_monotone_regime_and_interior_gains():
    with criterion("6: precision monotone for L > L_c, interior gains below", 1.0):
        for loss in (0.80, 0.90, 0.99):
            eta = 1.0 - loss
            logs = [analytics.log_min_phase_opt_continuous(n, eta) for n in range(1, 1001)]
            assert all(b >= a for a, b in zip(logs, logs[1:]))
        for loss in (0.3, 0.5):
            eta = 1.0 - loss
            logs = [analytics.log_min_phase_opt_continuous(n, eta) for n in range(1, 200)]
            assert min(logs[1:]) < logs[0]


def test_criterion_7_budget_regimes():
    with criterion("7: budget ratio regimes and optimum location", 5.0):
        # log domain: the linear ratio overflows the float range near N = 310
        values = [budget.log_r_noon(n, 0.01) for n in range(1, 501)]
        assert all(b > a for a, b in zip(values, values[1:]))

        b = budget.PhotonBudget(10 ** 7)
        n_tilde = budget.n_tilde_min_integer(1.0 - 1e-6, b)
        assert abs(n_tilde - round(budget.solve_nu_tilde() / 1e-6)) <= 1

        assert budget.n_tilde_min_integer(1.0, b) == b.n_total
        assert budget.noon_precision_budgeted(b.n_total, b, 1.0) == 1.0 / b.n_total


def test_criterion_8_threshold_exactness():
    with criterion("8: critical transmissivities located to 1e-9", 0.1):
        single = bisect_root(
            lambda e: analytics.min_phase_opt_continuous(1.0, e) - analytics.min_phase_opt_continuous(2.0, e),
            0.05, 0.95)
        assert abs(single - (math.sqrt(7.0) - 2.0) / 3.0) <= 1e-9
        budgeted = bisect_root(
            lambda e: budget.r_noon_continuous(1.0, e) - budget.r_noon_continuous(2.0, e),
            0.05, 0.95)
        assert abs(budgeted - (math.sqrt(2.0) - 1.0)) <= 1e-9


def test_criterion_9_derivative_consistency():
    with criterion("9: derivatives vs finite differences, rel 1e-6", 1.0):
        points = derivative_grid(optimal_search.solve_nu)
        assert len(points) == 100
        for n, eta in points:
            h = 1e-5 * n
            fd_log = central_diff(lambda x: analytics.log_min_phase_opt_continuous(x, eta), n, h)
            a_log = analytics.d_log_precision_dN(n, eta)
            assert abs(a_log - fd_log) <= 1e-6 * abs(a_log)
            fd_lin = central_diff(lambda x: analytics.min_phase_opt_continuous(x, eta), n, h)
            a_lin = analytics.d_precision_dN(n, eta)
            assert abs(a_lin - fd_lin) <= 1e-6 * abs(a_lin)
        for eta in (0.01, 0.03, 0.05):
            for n in range(1, 101):
                assert budget.d_rnoon_dN_largeloss(float(n), eta) > 0.0
