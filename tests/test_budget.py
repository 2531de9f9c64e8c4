import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from noonloss import analytics
from noonloss.budget import (
    PhotonBudget,
    d_rnoon_dN_largeloss,
    l_tilde_critical,
    log_r_noon,
    mu_tilde,
    n_tilde_min_integer,
    noon_precision_budgeted,
    r_noon,
    r_noon_continuous,
    solve_nu_tilde,
    unentangled_precision,
)
from noonloss.roots import bisect_root

from _helpers import central_diff, doubling_bracket, exact_integer_argmin, mp_log_r_noon


def test_photon_budget_validation():
    with pytest.raises(ValueError):
        PhotonBudget(0)
    with pytest.raises(ValueError):
        PhotonBudget(10, kappa=0.0)
    with pytest.raises(ValueError):
        PhotonBudget(10, kappa=-1.0)
    assert PhotonBudget(10).kappa == 1.0


def test_unentangled_precision_examples():
    assert unentangled_precision(PhotonBudget(100), 1.0) == pytest.approx(0.1, rel=1e-15)
    assert unentangled_precision(PhotonBudget(100), 0.25) == pytest.approx(0.2, rel=1e-15)
    assert unentangled_precision(PhotonBudget(400, kappa=2.0), 0.5) == pytest.approx(2.0 / math.sqrt(200.0), rel=1e-12)


def test_unentangled_precision_split_invariance():
    # only the total enters; per-measurement N never appears
    assert unentangled_precision(PhotonBudget(600), 0.7) == unentangled_precision(PhotonBudget(600, kappa=1.0), 0.7)


def test_noon_precision_budgeted_examples():
    b = PhotonBudget(100)
    assert noon_precision_budgeted(100, b, 1.0) == 1.0 / 100
    assert noon_precision_budgeted(1, b, 1.0) == pytest.approx(0.1, rel=1e-15)
    got = noon_precision_budgeted(2, b, 0.5)
    assert got == pytest.approx(math.sqrt(0.0125), rel=1e-12)
    # same thing through the single-measurement precision and 1/sqrt(M)
    assert got == pytest.approx(analytics.min_phase_opt_continuous(2, 0.5) / math.sqrt(50.0), rel=1e-12)


def test_noon_precision_budgeted_rejects_overspend():
    b = PhotonBudget(10)
    with pytest.raises(ValueError):
        noon_precision_budgeted(11, b, 0.5)
    with pytest.raises(ValueError):
        noon_precision_budgeted(0, b, 0.5)


def test_r_noon_examples():
    assert r_noon(4, 1.0) == 0.5
    for eta in (0.2, 0.5, 0.9):
        assert r_noon(1, eta) == pytest.approx(math.sqrt(0.5 * (1.0 + eta)), rel=1e-14)
    assert r_noon(1, 0.5) == pytest.approx(math.sqrt(0.75), rel=1e-12)
    # the budget threshold is exactly the N=1 / N=2 tie, eta^2 + 2 eta - 1 = 0
    eta_tie = math.sqrt(2.0) - 1.0
    assert r_noon(1, eta_tie) == pytest.approx(r_noon(2, eta_tie), abs=1e-9)
    with pytest.raises(ValueError):
        r_noon(0, 0.5)


@given(
    n=st.integers(1, 500),
    eta=st.floats(0.05, 1.0),
    n_total=st.integers(1, 10 ** 9),
)
def test_identity_with_baseline(n, eta, n_total):
    assume(n <= n_total)
    assume(-n * math.log(eta) < 600.0)
    b = PhotonBudget(n_total)
    lhs = noon_precision_budgeted(n, b, eta)
    rhs = r_noon(n, eta) / math.sqrt(eta * n_total)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_n_tilde_examples():
    assert n_tilde_min_integer(1.0, PhotonBudget(50)) == 50
    assert n_tilde_min_integer(0.01, PhotonBudget(50)) == 1

    eta = 1.0 - 1e-4
    got = n_tilde_min_integer(eta, PhotonBudget(10 ** 6))
    assert abs(got - round(solve_nu_tilde() / 1e-4)) <= 1
    # exhaustive scan around the continuous minimizer confirms the argmin
    root = solve_nu_tilde() / -math.log(eta)
    window = np.arange(int(root) - 50, int(root) + 51, dtype=float)
    a = -window * math.log(eta)
    log_r = 0.5 * (math.log(eta) + a + np.log1p(np.exp(-a)) - np.log(2.0 * window))
    assert got == int(window[np.argmin(log_r)])


def bisected_n_tilde(eta, b):
    """The bracket-and-bisect search on d ln R_NOON/dN that the closed-form root replaced,
    ended by a 60-digit comparison of the neighbours."""
    if eta == 1.0:
        return b.n_total
    log_eta = math.log(eta)

    def slope(x):
        return 0.5 * (-log_eta / (1.0 + eta ** x) - 1.0 / x)

    root = bisect_root(slope, 1e-9, doubling_bracket(slope))
    return exact_integer_argmin(root, b.n_total, mp_log_r_noon, eta)


@settings(max_examples=300, deadline=None)
@given(
    eta=st.one_of(st.floats(-15.0, math.log10(0.99)).map(lambda u: 1.0 - 10.0 ** u),
                  st.floats(-300.0, 0.0).map(lambda u: 10.0 ** u)),
    n_total=st.integers(1, 10 ** 18),
)
# roots near 4.1e13 and 2.4e12 whose neighbours ln R_NOON ties in double precision
@example(eta=0.9999999999999691, n_total=10 ** 18)
@example(eta=0.9999999999994738, n_total=10 ** 18)
# a float root past 2**53 at ...326.0, where the bisected one rounds to ...328 (the real one is ...326.35)
@example(eta=0.9999999999999999, n_total=11_515_384_876_770_327)
def test_n_tilde_closed_form_matches_the_bisection(eta, n_total):
    b = PhotonBudget(n_total)
    assert n_tilde_min_integer(eta, b) == bisected_n_tilde(eta, b)


def test_n_tilde_root_past_2_pow_51():
    # the closed-form root 3838461625590109.0 is an integer, where the bisection stopped at ...108
    eta, b = 0.9999999999999997, PhotonBudget(10 ** 16)
    got = n_tilde_min_integer(eta, b)
    assert abs(got - 3838461625590108) <= 1
    assert log_r_noon(3838461625590108, eta) == log_r_noon(3838461625590109, eta)


def test_solve_nu_tilde():
    nu_t = solve_nu_tilde()
    assert abs(nu_t - math.exp(-nu_t) - 1.0) < 1e-11
    assert abs(nu_t - 1.279) < 1e-3
    f = lambda x: math.exp(-x) + 1.0 - x
    assert f(1.0) > 0.0 and f(2.0) < 0.0


def test_mu_tilde():
    mu_t = mu_tilde()
    assert abs(mu_t - 1.340) < 5e-4
    assert mu_t > 1.0
    # asymptotic budget precision vs the exact optimum at small loss
    eta, n_total = 1.0 - 1e-4, 10 ** 6
    b = PhotonBudget(n_total)
    exact = noon_precision_budgeted(n_tilde_min_integer(eta, b), b, eta)
    asym = mu_t * math.sqrt(1e-4 / n_total)
    assert asym == pytest.approx(1.340e-5, rel=1e-3)
    assert abs(asym - exact) / exact < 0.01


def test_l_tilde_critical():
    l_tc = l_tilde_critical()
    assert abs(l_tc - (2.0 - math.sqrt(2.0))) < 1e-12
    assert abs(l_tc - 0.585786) < 1e-6
    # L = 0.6 > L_tilde_c: R_NOON only grows with N
    values = [r_noon(n, 0.4) for n in range(1, 501)]
    assert all(b > a for a, b in zip(values, values[1:]))
    # L = 0.5 < L_tilde_c: two photons beat one
    assert r_noon(2, 0.5) < r_noon(1, 0.5)


def test_threshold_bisection():
    root = bisect_root(lambda e: r_noon_continuous(1.0, e) - r_noon_continuous(2.0, e), 0.05, 0.95)
    assert abs(root - (math.sqrt(2.0) - 1.0)) < 1e-9


def test_d_rnoon_largeloss_value():
    got = d_rnoon_dN_largeloss(1.0, 0.01)
    assert got == pytest.approx(-math.log(0.01) / (8.0 * math.sqrt(2.0)), rel=1e-14)
    assert got == pytest.approx(0.407043, abs=1e-6)
    with pytest.raises(ValueError):
        d_rnoon_dN_largeloss(1.0, 1.0)
    with pytest.raises(ValueError):
        d_rnoon_dN_largeloss(0.0, 0.5)


def test_d_rnoon_largeloss_positive():
    for eta in (0.01, 0.03, 0.05):
        for n in range(1, 101):
            assert d_rnoon_dN_largeloss(float(n), eta) > 0.0


def test_d_rnoon_largeloss_tracks_exact_derivative_shape():
    # The limit form is not the exact derivative: as eta -> 0 the true slope
    # approaches 4x the limit expression, with a 1/(N ln eta) correction.
    # Pin that relationship so the exponential structure stays verified.
    eta = 1e-3
    for n in (2.0, 3.0, 5.0):
        fd = central_diff(lambda x: r_noon_continuous(x, eta), n, n * 1e-6)
        assert fd > 0.0
        ratio = fd / d_rnoon_dN_largeloss(n, eta)
        expected = 4.0 * (1.0 + 1.0 / (n * math.log(eta)))
        assert ratio == pytest.approx(expected, rel=5e-2)


# past DBL_MAX/2, where 2N overflows, each of these read 0, -inf or nan


def test_r_noon_continuous_past_half_dbl_max():
    assert r_noon_continuous(9e307, 0.5) == math.inf
    assert r_noon_continuous(1e308, 1.0) == pytest.approx(1e-154, rel=1e-15, abs=0.0)


def test_log_r_noon_past_half_dbl_max():
    # 0.5 (ln eta + N|ln eta| + ln(1 + eta**N) - ln 2N): at eta = 0.5 the N term leaves the others below its ulp
    assert log_r_noon(9e307, 0.5) == pytest.approx(0.5 * 9e307 * math.log(2.0), rel=1e-15)
    assert log_r_noon(1e308, 1.0) == pytest.approx(-0.5 * math.log(1e308), rel=1e-15)


def test_log_r_noon_where_n_ln_eta_overflows():
    # N|ln eta| = 2.07e308 overflows, half of it does not: the value read inf
    assert log_r_noon(3e305, 1e-300) == pytest.approx(-0.5 * 3e305 * math.log(1e-300), rel=1e-15)


def test_d_rnoon_largeloss_past_half_dbl_max():
    assert d_rnoon_dN_largeloss(9e307, 0.5) == math.inf


def test_lossless_advantage():
    # with no loss the NOON scheme wins by kappa * sqrt(N_T)
    b = PhotonBudget(400, kappa=2.0)
    n_opt = n_tilde_min_integer(1.0, b)
    assert n_opt == 400
    ratio = unentangled_precision(b, 1.0) / noon_precision_budgeted(n_opt, b, 1.0)
    assert ratio == pytest.approx(2.0 * math.sqrt(400.0), rel=1e-12)


def test_large_loss_parity_with_baseline():
    # deep loss: N = 1 NOON precision reduces to 1/sqrt(2 eta N_T)
    eta, b = 1e-6, PhotonBudget(100)
    got = noon_precision_budgeted(1, b, eta)
    assert abs(got / (1.0 / math.sqrt(2.0 * eta * b.n_total)) - 1.0) < 1e-5
