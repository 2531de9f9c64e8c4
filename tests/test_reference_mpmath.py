"""The closed forms against 50-digit mpmath: variance_detection and
precision_report's min_phase, snr and log_min_phase at any operating point,
the optimal-phase and budgeted forms on both sides of the overflow of
eta**-N, d_precision_dN, mu_from_nu past the overflow of exp(nu), the
continuous single-measurement optimum nu / -ln(eta), and, at 60 digits, both integer
optimizers' picks between the neighbours of their roots, with the forward
difference that decides them, and the log forms of the optimal-phase
precision and R_NOON within 2 ulps at eta within about 1e-15 of 1.  The seven constants that
``noonloss constants`` prints must equal the correctly rounded doubles of
their closed forms at 60 digits.

The references take the operating angle N(phi0 + theta_t) as the functions
form it in floating point, so that they measure the error of the closed
forms, not the conditioning of sin near a blind operating point.  mpmath is
a test-only dependency.
"""

import math
import sys
from unittest import mock

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from noonloss import analytics
from noonloss.analytics import (LossChannel, NoonProbe, OperatingPoint, d_precision_dN, log_min_phase_opt_continuous,
                                min_phase_opt, min_phase_opt_continuous, optimal_phase_grid, precision_report,
                                variance_detection)
from noonloss.budget import (PhotonBudget, l_tilde_critical, log_r_noon, mu_tilde, n_tilde_min_integer,
                             noon_precision_budgeted, r_noon, r_noon_continuous, solve_nu_tilde)
from noonloss.optimal_search import (DEFAULT_N_CAP, eta_critical, loss_critical, mu_from_nu, n_min_integer,
                                     solve_nu)

from _helpers import exact_integer_argmin, mp_log_precision, mp_log_r_noon

mpmath.mp.dps = 50
RTOL = 1e-13
# relative accuracy is claimed where the value is a normal double
NORMAL = (1e-300, sys.float_info.max)

etas = st.one_of(
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    st.integers(1, 16).map(lambda k: 1.0 - 10.0 ** -k),
    st.floats(-16.0, -1.0).map(lambda x: 1.0 - 10.0 ** x),
    st.sampled_from([1.0, 1.0 - 1e-16, 1e-300]),
)
ns = st.one_of(st.integers(1, 64), st.integers(1, 10 ** 6))


@st.composite
def points(draw):
    """(n, eta, theta_t, phi0, delta_phi) with |sin(N(phi0 + theta_t))| in [1e-12, 1]."""
    n, eta = draw(ns), draw(etas)
    sin_target = 10.0 ** draw(st.floats(-12.0, 0.0))
    angle = draw(st.integers(0, 3)) * math.pi + draw(st.sampled_from([1.0, -1.0])) * math.asin(sin_target)
    theta_t = draw(st.one_of(st.just(0.0), st.floats(-3.0, 3.0)))
    phi0 = angle / n - theta_t
    assume(1e-12 <= abs(math.sin(n * (phi0 + theta_t))) <= 1.0)
    return n, eta, theta_t, phi0, draw(st.floats(1e-6, 1.0))


def rel_err(got, want):
    return abs(mpmath.mpf(got) - want) / abs(want)


@settings(max_examples=400, deadline=None)
@given(points())
@example((1, 1.0, 0.0, 1e-10, 0.01))
@example((1, 1.0, 0.0, 1e-8, 0.01))
@example((3, 1.0 - 1e-16, 0.0, math.pi / 3 + 1e-12, 0.01))
@example((20000, math.exp(-712 / 20000), 0.0, math.pi / 40000, 1.0))  # noise term past DBL_MAX, snr normal
def test_against_mpmath(point):
    n, eta, theta_t, phi0, dphi = point
    probe, ch = NoonProbe(n), LossChannel(eta, theta_t)
    s = mpmath.sin(mpmath.mpf(n * (phi0 + theta_t)))
    noise = (mpmath.mpf(eta) ** -n - 1) / 2 + s * s
    min_phase = mpmath.sqrt(noise) / (n * abs(s))
    snr = (n * s * mpmath.mpf(dphi)) ** 2 / noise
    eta_n = mpmath.mpf(eta) ** n
    variance = (1 - eta_n) / 2 + eta_n * s * s
    assert rel_err(variance_detection(probe, ch, phi0), variance) <= RTOL

    report = precision_report(probe, ch, OperatingPoint(phi0, dphi))
    log_want = mpmath.log(min_phase)
    log_tol = RTOL * max(1.0, abs(log_want))
    assert abs(report.log_min_phase - log_want) <= log_tol
    # past DBL_MAX for the noise term both values come from ln(min_phase), so
    # their relative error is that logarithm's absolute error (twice it for snr)
    overflow = noise > NORMAL[1]
    if NORMAL[0] <= min_phase <= NORMAL[1]:
        assert rel_err(report.min_phase, min_phase) <= (log_tol if overflow else RTOL)
    if NORMAL[0] <= snr <= NORMAL[1]:
        assert not report.degenerate
        assert rel_err(report.snr, snr) <= (2 * log_tol if overflow else RTOL)


def test_min_phase_finite_where_only_the_noise_term_overflows():
    # true value sqrt((1e400 - 1)/2 + 1/2) / 2 = 3.5355e199
    got = precision_report(NoonProbe(2), LossChannel(1e-200), OperatingPoint(math.pi / 4, 0.0)).min_phase
    assert math.isfinite(got)
    want = mpmath.sqrt((mpmath.mpf(1e-200) ** -2 - 1) / 2 + mpmath.sin(mpmath.mpf(math.pi / 2)) ** 2) / 2
    assert rel_err(got, want) <= RTOL * abs(mpmath.log(want))


def test_snr_where_only_the_signal_overflows():
    # (3 * 1e160)**2 overflows; the noise term is about 5e299
    n, eta, phi0, dphi = 3, 1e-100, math.pi / 6, 1e160
    got = precision_report(NoonProbe(n), LossChannel(eta), OperatingPoint(phi0, dphi))
    s = mpmath.sin(mpmath.mpf(n * phi0))
    want = (n * s * mpmath.mpf(dphi)) ** 2 / ((mpmath.mpf(eta) ** -n - 1) / 2 + s * s)
    assert not got.degenerate
    assert rel_err(got.snr, want) <= 2 * RTOL * abs(mpmath.log(want))


@pytest.mark.parametrize("ns, eta, n_total", [
    ([2], 1.0, sys.float_info.max), ([1e300], 1.0, 10 ** 12), ([2.0], 1e-160, int(1e308)), ([1e300], 0.5, 10 ** 12),
    ([2 ** 600], 1.0, 2 ** 500), ([2 ** 600], 0.5, 2 ** 500),
], ids=["float-n_total", "float-n", "log-form", "log-form-inf", "int-finite", "int-log-form"])
def test_optimal_phase_grid_budgeted_past_dbl_max_in_n_n_total(ns, eta, n_total):
    # a float N N_T past DBL_MAX read inf, so the finite form read 0 and the log form
    # exp(-inf) = 0; an int one raised where it did not convert, and stays as it was
    n = mpmath.mpf(ns[0])
    want = mpmath.sqrt((mpmath.mpf(eta) ** -n + 1) / (2 * n * n_total))
    got = optimal_phase_grid(ns, eta, n_total=n_total)[0]
    if want > NORMAL[1]:
        assert got == math.inf
    else:
        assert rel_err(got, want) <= RTOL * max(1.0, abs(mpmath.log(want)))


@pytest.mark.parametrize("ns, eta, n_total", [([0.5], 1.0, 5e-324), ([1e-300], 1e-300, 1e-30), ([0.5], 0.5, 1e-310)],
                         ids=["n_total-5e-324", "zero-product", "subnormal-product"])
def test_optimal_phase_grid_budgeted_below_dbl_min_in_n_n_total(ns, eta, n_total):
    # N N_T below DBL_MIN: a product that read 0 raised ZeroDivisionError, a subnormal one lost bits
    n = mpmath.mpf(ns[0])
    want = mpmath.sqrt((mpmath.mpf(eta) ** -n + 1) / (2 * n * mpmath.mpf(n_total)))
    assert rel_err(optimal_phase_grid(ns, eta, n_total=n_total)[0], want) <= 1e-15


# where eta**-N is a finite double the forms take the power, exact to an ulp
POWER_RTOL = 1e-15
LN_DBL_MAX = math.log(sys.float_info.max)
# a = N|ln eta|: below the former 500 cutoff, between it and overflow, past overflow
exponents = st.one_of(st.floats(0.0, 500.0), st.floats(500.0, LN_DBL_MAX), st.floats(LN_DBL_MAX, 1e5))


@st.composite
def optimal_points(draw):
    """(n, eta, n_total, x) with n an integer in [1, 1e9], a = N|ln eta| drawn
    from ``exponents`` or 0 (eta = 1), n_total in [n, 1e6 n], and x, the real N
    of the continuous forms: n plus a fraction, or any real in [1, DBL_MAX]."""
    n = draw(st.one_of(st.integers(1, 64), st.integers(1, 10 ** 9)))
    eta = math.exp(-draw(st.one_of(st.just(0.0), exponents)) / n)
    assume(eta > 0.0)
    x = draw(st.one_of(st.floats(0.0, 1.0).map(lambda frac: n + frac), st.floats(1.0, NORMAL[1])))
    return n, eta, n * draw(st.integers(1, 10 ** 6)), x


def check_linear(got, want, power_finite):
    """POWER_RTOL where eta**-N is finite, else the log form's bound 1e-13*max(1, |ln want|)."""
    tol = POWER_RTOL if power_finite else RTOL * max(1.0, abs(mpmath.log(want)))
    if want > NORMAL[1]:
        assert got == math.inf or rel_err(got, want) <= tol
    elif want >= NORMAL[0]:
        assert rel_err(got, want) <= tol


def check_log(got, want):
    """Within 1e-13 max(1, |want|), or the infinity of its sign past DBL_MAX."""
    if abs(want) > NORMAL[1]:
        assert got == math.copysign(math.inf, want)
    else:
        assert abs(got - want) <= RTOL * max(1.0, abs(want))


@settings(max_examples=400, deadline=None)
@given(optimal_points())
@example((1193, 0.6, 1193, 1193.0))  # N|ln eta| = 609: errors near 1e-13 under the former 500 cutoff
@example((6891946, 1.0 - 1e-4, 10 ** 9, 6891946.0))
@example((6736, 0.9, 6736, 6736.5))  # N|ln eta| = 709.73, just below ln(DBL_MAX)
@example((1, 1.0 - 1e-16, 1, 1.0))
@example((1, 0.5, 1, 9e307))  # 2N overflows: R_NOON read 0 and ln R_NOON -inf
@example((1, 1.0, 1, NORMAL[1]))
@example((1, 0.5, 1, 5e-324))  # subnormal N: eta (eta**-N + 1) / 2N overflowed, so R_NOON read inf
@example((1, 1.0, 1, 5e-324))
@example((1, 0.5, 1, 1e-310))
@example((1, 1.0, 1, 1e-310))
@example((1, 0.5, 1, 5e-309))
@example((1, 1.0, 1, 5e-309))
def test_overflow_rule_against_mpmath(point):
    n, eta, n_total, x = point
    for k, got in ((n, [min_phase_opt(NoonProbe(n), eta), r_noon(n, eta),
                        noon_precision_budgeted(n, PhotonBudget(n_total), eta)]),
                   (x, [min_phase_opt_continuous(x, eta), r_noon_continuous(x, eta)])):
        k_mp, eta_mp = mpmath.mpf(k), mpmath.mpf(eta)
        inv = eta_mp ** -k_mp
        half = (inv + 1) / 2
        want = [mpmath.sqrt(half) / k_mp, mpmath.sqrt(eta_mp * half / k_mp), mpmath.sqrt(half / (k_mp * n_total))]
        for g, w in zip(got, want):
            check_linear(g, w, inv < NORMAL[1] * (1 - POWER_RTOL))
        check_log(log_min_phase_opt_continuous(k, eta), mpmath.log(want[0]))
        check_log(log_r_noon(k, eta), mpmath.log(want[1]))


@settings(max_examples=400, deadline=None)
# N from 5e-324 to DBL_MAX, where N * N and 4N leave the float range
@given(st.one_of(st.floats(1e-3, 1e6), st.floats(-323.3, 308.25).map(lambda u: 10.0 ** u)), etas)
@example(5784.284426816044, 0.7819844212390401)  # e**(a/2) overflows, the derivative is 1.155e304
@example(1.0, 1.0)
@example(9e307, 0.5)  # 4N overflowed: the derivative read 0.0
@example(1e-200, 0.5)  # N * N underflowed: ZeroDivisionError
@example(1.2e-154, 0.5)  # N * N is subnormal
@example(1e-154, 1.0)
@example(1.5e154, 1.0)  # N * N overflows, the derivative -1/N**2 is a subnormal
def test_d_precision_dN_against_mpmath(n, eta):
    n_mp, eta_mp = mpmath.mpf(n), mpmath.mpf(eta)
    inv = eta_mp ** -n_mp
    root = mpmath.sqrt((inv + 1) / 2)
    terms = [-root / n_mp ** 2, -inv * mpmath.log(eta_mp) / (4 * n_mp * root)]
    want = sum(terms)
    got = d_precision_dN(n, eta)
    if abs(want) > mpmath.mpf(NORMAL[1]) * (1 + 1e-12):
        assert got == math.copysign(math.inf, want)
    elif abs(want) >= NORMAL[0]:
        # the two terms cancel near the minimizer: the error is bounded relative to their size
        scale = abs(terms[0]) + abs(terms[1])
        assert abs(mpmath.mpf(got) - want) <= RTOL * max(1.0, abs(mpmath.log(scale))) * scale


def test_constants_are_correctly_rounded():
    # the values `noonloss constants` prints; nu = 2(e**-nu + 1) and
    # nu_tilde = e**-nu_tilde + 1 solved by Lambert W, and float(mpf) rounds
    # to the nearest double
    nu = solve_nu()
    got = {"nu": nu, "mu": mu_from_nu(nu), "eta_c": eta_critical(), "L_c": loss_critical(),
           "nu_tilde": solve_nu_tilde(), "mu_tilde": mu_tilde(), "L_tilde_c": l_tilde_critical()}
    with mpmath.workdps(60):
        nu = 2 + mpmath.lambertw(2 / mpmath.e ** 2).real
        nu_t = 1 + mpmath.lambertw(1 / mpmath.e).real
        assert abs(nu - 2 * (mpmath.exp(-nu) + 1)) < 1e-55 and abs(nu_t - mpmath.exp(-nu_t) - 1) < 1e-55
        eta_c = (mpmath.sqrt(7) - 2) / 3
        want = {
            "nu": nu,
            "mu": mpmath.sqrt((mpmath.exp(nu) + 1) / 2) / nu,
            "eta_c": eta_c,
            "L_c": 1 - eta_c,
            "nu_tilde": nu_t,
            "mu_tilde": mpmath.sqrt((mpmath.exp(nu_t) + 1) / (2 * nu_t)),
            "L_tilde_c": 2 - mpmath.sqrt(2),
        }
        wrong = {name: (got[name], float(value)) for name, value in want.items() if got[name] != float(value)}
    assert not wrong


@pytest.mark.parametrize("nu", [709.0, 710.0, 1e3, 1e5])
def test_mu_from_nu_past_the_overflow_of_exp_nu(nu):
    want = mpmath.sqrt((mpmath.exp(nu) + 1) / 2) / nu
    got = mu_from_nu(nu)
    if want > NORMAL[1]:
        assert got == math.inf
    else:
        assert rel_err(got, want) <= RTOL


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.floats(-15.0, math.log10(0.99)).map(lambda u: 1.0 - 10.0 ** u),
                 st.floats(-300.0, -1.0).map(lambda u: 10.0 ** u)))
@example(0.1)
@example(0.2)
def test_continuous_optimum_within_four_ulps(eta):
    # the root of d ln(precision)/dN is exactly nu / -ln(eta): N |ln eta| = 2(eta**N + 1)
    want = mpmath.findroot(lambda x: 2 * (mpmath.exp(-x) + 1) - x, solve_nu()) / -mpmath.log(mpmath.mpf(eta))
    got = n_min_integer(eta).continuous_n
    assert abs(mpmath.mpf(got) - want) <= 4 * math.ulp(got)


# the loss bands where the former 1e-15 tie margin picked the wrong neighbour of the root most
# often (N_T = 10**18, cap 1e9), and the large losses where the neighbours are far apart
optimum_losses = st.one_of(st.floats(-15.0, -12.0), st.floats(-9.0, -6.0),
                           st.floats(-6.0, math.log10(0.79))).map(lambda u: 10.0 ** u)


@settings(max_examples=300, deadline=None)
@given(optimum_losses)
@example(1e-8)  # the golden optimize cases: ln R_NOON and the log precision of the
@example(3e-8)  # neighbours differ by 1.9e-17 and 3.4e-17
@example(1.0 - 0.9999999999999838)  # the float difference reads +7.9e-31, the exact one -4.6e-31
@example(1.0 - 0.9999999999999994)  # a root of ...064.5: the float difference reads exactly 0
# roots past 2**52 an integer or more from the argmin: n_star 19975401847803104 -> ...101,
# n_tilde 5757692438385162 -> ...163, n_star 6658467282601034 -> ...033
@example(1.0 - 0.9999999999999999)
@example(1.0 - 0.9999999999999998)
@example(1.0 - 0.9999999999999997)
def test_integer_optima_are_the_exact_argmin_of_their_neighbours(loss):
    eta = 1.0 - loss
    res = n_min_integer(eta)
    assert res.n_star == exact_integer_argmin(res.continuous_n, DEFAULT_N_CAP, mp_log_precision, eta)
    root = solve_nu_tilde() / -math.log(eta)
    assert n_tilde_min_integer(eta, PhotonBudget(10 ** 18)) == exact_integer_argmin(root, 10 ** 18, mp_log_r_noon, eta)


@settings(max_examples=300, deadline=None)
@given(st.one_of(optimum_losses, st.floats(-16.0, math.log10(0.99)).map(lambda u: 10.0 ** u)),
       st.integers(-2, 2))
@example(1.0 - 0.9999999999999838, 0)
def test_log_step_float_form_is_within_a_quarter_of_its_slack(loss, offset):
    # where its sign is read from the float form, that sign is exact: the form is within eps*L
    # of the 60-digit difference (0.78 eps*L at worst over 10,000 seeded losses), and it is
    # read only outside _STEP_SLACK*L = 4 eps*L of 0
    eta = 1.0 - loss
    big_l = -math.log(eta)
    # (nu, weight of ln N) of the optimal-phase precision and of R_NOON
    for nu, weight, mp_log_objective in ((solve_nu(), 1.0, mp_log_precision), (solve_nu_tilde(), 0.5, mp_log_r_noon)):
        n = max(1, math.floor(nu / big_l) + offset)
        want = mp_log_objective(n + 1, eta) - mp_log_objective(n, eta)
        with mock.patch.object(analytics, "_STEP_SLACK", 0.0):
            got = analytics._log_step(n, eta, big_l, weight)
        assert abs(got - want) <= sys.float_info.epsilon * big_l, weight


# eta within about 1e-15 of 1 (the last, 1 - 1.2e-15), where both log forms are near -ln N: at N = 1 they
# are near zero, where ln((e**a + 1)/2) taken as a + log1p(exp(-a)) - ln 2 cancelled (9% off at the last
# eta, and no correct digit below a = 1e-16)
@pytest.mark.parametrize("eta", [1.0 - k * 2.0 ** -53 for k in (1, 2, 3, 5, 9, 11)])
@pytest.mark.parametrize("n", [1, 2, 3, 64, 10 ** 6])
def test_log_forms_near_eta_one_within_two_ulps(n, eta):
    for got, want in ((log_min_phase_opt_continuous(n, eta), mp_log_precision(n, eta)),
                      (log_r_noon(n, eta), mp_log_r_noon(n, eta))):
        assert abs(mpmath.mpf(got) - want) <= 2 * math.ulp(float(want)), (got, want)
