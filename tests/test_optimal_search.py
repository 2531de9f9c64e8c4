import math
import random
import sys

import numpy as np
import pytest

from noonloss import analytics, optimal_search
from noonloss.optimal_search import (
    DEFAULT_N_CAP,
    InvalidEta,
    asymptotic_optimum,
    eta_critical,
    loss_critical,
    mu_from_nu,
    n_min_integer,
    solve_nu,
)
from noonloss.roots import bisect_root

from _helpers import doubling_bracket, exact_integer_argmin, mp_log_precision


def _scan_argmin(eta, n_max):
    """Independent argmin of the log precision by exhaustive scan."""
    ns = np.arange(1, n_max + 1, dtype=float)
    a = -ns * math.log(eta)
    logs = 0.5 * (np.logaddexp(a, 0.0) - math.log(2.0)) - np.log(ns)
    return int(ns[np.argmin(logs)])


def test_solve_nu():
    nu = solve_nu()
    assert abs(nu - 2.218) < 5e-4
    assert abs(nu - 2.0 * (math.exp(-nu) + 1.0)) < 1e-11
    f = lambda x: 2.0 * (math.exp(-x) + 1.0) - x
    assert f(1.0) > 0.0 and f(4.0) < 0.0


def test_mu_from_nu():
    mu = mu_from_nu(solve_nu())
    assert abs(mu - 1.018) < 5e-4
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            mu_from_nu(bad)
    # well-conditioned around the root
    assert abs(mu_from_nu(2.218) - mu_from_nu(2.218 + 1e-9)) < 1e-6


@pytest.mark.parametrize("nu, shown", [(10 ** 400, "an int of 1329 bits"), (-10 ** 5000, "a negative int of 16610 bits")],
                         ids=["10**400", "-10**5000"])
def test_mu_from_nu_past_dbl_max_is_a_value_error(nu, shown):
    # 10**400 raised OverflowError from exp(-nu) in the overflow fallback, and
    # -10**5000 the int-to-str limit's error in place of this message
    with pytest.raises(ValueError, match=rf"^nu must lie in \(0, DBL_MAX\], got {shown}$"):
        mu_from_nu(nu)
    assert mu_from_nu(int(sys.float_info.max)) == math.inf


def test_eta_critical():
    eta_c = eta_critical()
    assert abs(eta_c - (math.sqrt(7.0) - 2.0) / 3.0) < 1e-9
    assert abs(eta_c - 0.215250437) < 1e-9
    two, one = analytics.NoonProbe(2), analytics.NoonProbe(1)
    assert analytics.min_phase_opt(two, eta_c + 1e-6) < analytics.min_phase_opt(one, eta_c + 1e-6)
    assert analytics.min_phase_opt(two, eta_c - 1e-6) > analytics.min_phase_opt(one, eta_c - 1e-6)


def test_loss_critical():
    assert abs(loss_critical() - 0.785) < 1e-3
    # L = 0.9: the precision never improves with N
    logs = [analytics.log_min_phase_opt_continuous(n, 0.1) for n in range(1, 501)]
    assert all(b >= a - 1e-12 for a, b in zip(logs, logs[1:]))
    # L = 0.5 < L_c: some N > 1 beats N = 1
    logs = [analytics.log_min_phase_opt_continuous(n, 0.5) for n in range(1, 50)]
    assert min(logs[1:]) < logs[0]


def test_n_min_integer_large_loss():
    res = n_min_integer(0.1)
    assert res.n_star == 1
    assert res.continuous_n < 1.0


def test_n_min_integer_small_loss():
    res = n_min_integer(1.0 - 1e-6)
    assert abs(res.n_star - 2.218e6) / 2.218e6 < 0.01


def test_n_min_integer_matches_scan():
    assert n_min_integer(0.99).n_star == _scan_argmin(0.99, 2000)


def test_n_min_integer_invalid_eta():
    for bad in (0.0, 1.0, 1.5, -0.2):
        with pytest.raises(InvalidEta):
            n_min_integer(bad)
    with pytest.raises(ValueError):
        n_min_integer(0.5, n_cap=0)


def test_fixed_point_residual():
    for eta in (0.3, 0.5, 0.7, 0.9, 0.99, 1.0 - 1e-4):
        root = n_min_integer(eta).continuous_n
        assert abs(root + 2.0 * (eta ** root + 1.0) / math.log(eta)) < 1e-6 * root


def test_continuous_root_is_nu_over_log_eta():
    # the substitution z = N |ln eta| maps the fixed point onto z = 2(e^-z + 1)
    for eta in (0.4, 0.8, 0.99, 1.0 - 1e-5):
        root = n_min_integer(eta).continuous_n
        assert root == pytest.approx(solve_nu() / -math.log(eta), rel=1e-9)


# etas log-spaced from 1e-300 to 0.5, then losses log-spaced from 0.5 to
# 1e-16, whose eta is the last float below 1
SEEDED_GRID_ETAS = [float(eta) for eta in (*np.geomspace(1e-300, 0.5, 150), *(1.0 - np.geomspace(0.5, 1e-16, 150)))]


def _full_bracket_search(eta):
    """n_min_integer's search from [1e-9, first power of 2 past the root], ended by a
    60-digit comparison of the neighbours."""
    def slope(x):
        return analytics.d_log_precision_dN(x, eta)

    root = bisect_root(slope, 1e-9, doubling_bracket(slope))
    return exact_integer_argmin(root, DEFAULT_N_CAP, mp_log_precision, eta), root


def test_seeded_bracket_matches_full_bracket():
    for eta in SEEDED_GRID_ETAS:
        n_star, root = _full_bracket_search(eta)
        res = n_min_integer(eta)
        assert res.n_star == n_star, eta
        assert abs(res.continuous_n - root) <= math.ulp(root), eta


def test_seeded_bracket_without_a_sign_change_raises(monkeypatch):
    # with nu doubled the bracket lies wholly past the root: a wrong closed
    # form is an error, not a silently wrong optimum
    nu = solve_nu()
    monkeypatch.setattr(optimal_search, "solve_nu", lambda: 2.0 * nu)
    with pytest.raises(ValueError, match="no sign change"):
        n_min_integer(0.9)


def test_seeded_bracket_evaluates_the_slope_at_most_20_times(monkeypatch):
    calls = []
    slope = analytics.d_log_precision_dN

    def counting_slope(n, eta):
        calls.append(n)
        return slope(n, eta)

    monkeypatch.setattr(analytics, "d_log_precision_dN", counting_slope)
    for eta in SEEDED_GRID_ETAS:
        calls.clear()
        n_min_integer(eta)
        assert 0 < len(calls) <= 20, eta


def test_scan_equivalence_random_etas():
    rng = random.Random(2024)
    nu = solve_nu()
    for _ in range(50):
        eta = rng.uniform(0.3, 0.999)
        res = n_min_integer(eta)
        n_max = int(10.0 * nu / (1.0 - eta)) + 2
        assert res.n_star == _scan_argmin(eta, n_max)


def test_local_optimality_and_root_proximity():
    for eta in (0.5, 0.9, 0.995):
        res = n_min_integer(eta)
        for neighbor in (res.n_star - 1, res.n_star + 1):
            if neighbor >= 1:
                assert res.precision_at_opt <= analytics.min_phase_opt_continuous(neighbor, eta)
        if res.continuous_n >= 1.0:
            assert abs(res.continuous_n - res.n_star) <= 1.0


def test_precision_at_opt_is_the_checked_form_bit_for_bit():
    # precision_at_opt skips the checks of min_phase_opt_continuous, and none of its bits
    rng = random.Random(2020)
    for _ in range(2000):
        eta = 1.0 - 10.0 ** rng.uniform(-16.0, math.log10(0.99))
        res = n_min_integer(eta)
        assert res.precision_at_opt == analytics.min_phase_opt_continuous(res.n_star, eta), eta


def test_asymptotic_optimum_small_loss_accuracy():
    n_asym, p_asym = asymptotic_optimum(0.01)
    n_exact = _scan_argmin(0.99, 3000)
    p_exact = analytics.min_phase_opt_continuous(n_exact, 0.99)
    assert abs(n_asym - n_exact) / n_exact < 0.01
    assert abs(p_asym - p_exact) / p_exact < 0.01


def test_asymptotic_optimum_values():
    n_asym, p_asym = asymptotic_optimum(1e-6)
    assert n_asym == pytest.approx(2.218e6, rel=1e-3)
    assert p_asym == pytest.approx(1.018e-6, rel=1e-3)
    with pytest.raises(ValueError):
        asymptotic_optimum(0.0)
    with pytest.raises(ValueError):
        asymptotic_optimum(1.0)


def test_exact_vs_asymptotic_ratio():
    for loss in (1e-2, 1e-3, 1e-4):
        res = n_min_integer(1.0 - loss)
        assert res.n_star / res.asymptotic_n == pytest.approx(1.0, abs=0.01)


def test_nondecreasing_regime():
    # For L > L_c the precision never improves at any integer step, and the
    # continuous derivative is nonnegative from N = 2 on.  (At N = 1 the
    # derivative can still dip negative for L just above L_c; only the
    # integer comparison from N = 1 is monotone there.)
    rng = random.Random(11)
    l_c = loss_critical()
    for _ in range(20):
        loss = rng.uniform(l_c, 1.0 - 1e-9)
        eta = 1.0 - loss
        for n in range(2, 1001, 7):
            assert analytics.d_precision_dN(float(n), eta) >= 0.0
        logs = [analytics.log_min_phase_opt_continuous(n, eta) for n in range(1, 200)]
        assert all(b >= a - 1e-12 for a, b in zip(logs, logs[1:]))
