"""The closed forms against 50-digit mpmath: variance_detection, min_phase_at,
snr_lossy and log_min_phase_at at any operating point, the optimal-phase
and budgeted forms on both sides of the overflow of eta**-N,
d_precision_dN, and the constants nu and nu_tilde.

The references take the operating angle N(phi0 + theta_t) as the functions
form it in floating point, so that they measure the error of the closed
forms, not the conditioning of sin near a blind operating point.  mpmath is
a test-only dependency.
"""

import math
import sys

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from noonloss.analytics import (LossChannel, NoonProbe, OperatingPoint, d_precision_dN, log_min_phase_at,
                                log_min_phase_opt_continuous, min_phase_at, min_phase_opt, min_phase_opt_continuous,
                                snr_lossy, variance_detection)
from noonloss.budget import (PhotonBudget, log_r_noon, noon_precision_budgeted, r_noon, r_noon_continuous,
                             solve_nu_tilde)
from noonloss.optimal_search import solve_nu

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

    log_want = mpmath.log(min_phase)
    log_tol = RTOL * max(1.0, abs(log_want))
    assert abs(log_min_phase_at(probe, ch, phi0) - log_want) <= log_tol
    # past DBL_MAX for the noise term both values come from ln(min_phase), so
    # their relative error is that logarithm's absolute error (twice it for snr)
    overflow = noise > NORMAL[1]
    if NORMAL[0] <= min_phase <= NORMAL[1]:
        assert rel_err(min_phase_at(probe, ch, phi0), min_phase) <= (log_tol if overflow else RTOL)
    if NORMAL[0] <= snr <= NORMAL[1]:
        result = snr_lossy(probe, ch, OperatingPoint(phi0, dphi))
        assert not result.degenerate
        assert rel_err(result.value, snr) <= (2 * log_tol if overflow else RTOL)


def test_min_phase_at_finite_where_only_the_noise_term_overflows():
    # true value sqrt((1e400 - 1)/2 + 1/2) / 2 = 3.5355e199
    got = min_phase_at(NoonProbe(2), LossChannel(1e-200), math.pi / 4)
    assert math.isfinite(got)
    want = mpmath.sqrt((mpmath.mpf(1e-200) ** -2 - 1) / 2 + mpmath.sin(mpmath.mpf(math.pi / 2)) ** 2) / 2
    assert rel_err(got, want) <= RTOL * abs(mpmath.log(want))


def test_snr_where_only_the_signal_overflows():
    # (3 * 1e160)**2 overflows; the noise term is about 5e299
    n, eta, phi0, dphi = 3, 1e-100, math.pi / 6, 1e160
    got = snr_lossy(NoonProbe(n), LossChannel(eta), OperatingPoint(phi0, dphi))
    s = mpmath.sin(mpmath.mpf(n * phi0))
    want = (n * s * mpmath.mpf(dphi)) ** 2 / ((mpmath.mpf(eta) ** -n - 1) / 2 + s * s)
    assert not got.degenerate
    assert rel_err(got.value, want) <= 2 * RTOL * abs(mpmath.log(want))


# where eta**-N is a finite double the forms take the power, exact to an ulp
POWER_RTOL = 1e-15
LN_DBL_MAX = math.log(sys.float_info.max)
# a = N|ln eta|: below the former 500 cutoff, between it and overflow, past overflow
exponents = st.one_of(st.floats(0.0, 500.0), st.floats(500.0, LN_DBL_MAX), st.floats(LN_DBL_MAX, 1e5))


@st.composite
def optimal_points(draw):
    """(n, eta, n_total) with n an integer in [1, 1e9], a = N|ln eta| drawn from
    ``exponents`` and n_total in [n, 1e6 n]."""
    n = draw(st.one_of(st.integers(1, 64), st.integers(1, 10 ** 9)))
    eta = math.exp(-draw(exponents) / n)
    assume(eta > 0.0)
    return n, eta, n * draw(st.integers(1, 10 ** 6))


def check_linear(got, want, power_finite):
    """POWER_RTOL where eta**-N is finite, else the log form's bound 1e-13*max(1, |ln want|)."""
    tol = POWER_RTOL if power_finite else RTOL * max(1.0, abs(mpmath.log(want)))
    if want > NORMAL[1]:
        assert got == math.inf or rel_err(got, want) <= tol
    elif want >= NORMAL[0]:
        assert rel_err(got, want) <= tol


@settings(max_examples=400, deadline=None)
@given(optimal_points(), st.floats(0.0, 1.0))
@example((1193, 0.6, 1193), 0.0)  # N|ln eta| = 609: errors near 1e-13 under the former 500 cutoff
@example((6891946, 1.0 - 1e-4, 10 ** 9), 0.0)
@example((6736, 0.9, 6736), 0.5)  # N|ln eta| = 709.73, just below ln(DBL_MAX)
@example((1, 1.0 - 1e-16, 1), 0.0)
def test_overflow_rule_against_mpmath(point, frac):
    n, eta, n_total = point
    x = n + frac  # a real N for the continuous forms
    for k, got in ((n, [min_phase_opt(NoonProbe(n), eta), r_noon(n, eta),
                        noon_precision_budgeted(n, PhotonBudget(n_total), eta)]),
                   (x, [min_phase_opt_continuous(x, eta), r_noon_continuous(x, eta)])):
        k_mp, eta_mp = mpmath.mpf(k), mpmath.mpf(eta)
        inv = eta_mp ** -k_mp
        half = (inv + 1) / 2
        want = [mpmath.sqrt(half) / k_mp, mpmath.sqrt(eta_mp * half / k_mp), mpmath.sqrt(half / (k_mp * n_total))]
        for g, w in zip(got, want):
            check_linear(g, w, inv < NORMAL[1] * (1 - POWER_RTOL))
        for g, w in ((log_min_phase_opt_continuous(k, eta), mpmath.log(want[0])),
                     (log_r_noon(k, eta), mpmath.log(want[1]))):
            assert abs(g - w) <= RTOL * max(1.0, abs(w))


@settings(max_examples=300, deadline=None)
@given(st.floats(1e-3, 1e6), etas)
@example(5784.284426816044, 0.7819844212390401)  # e**(a/2) overflows, the derivative is 1.155e304
@example(1.0, 1.0)
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


def test_root_constants_within_one_ulp():
    # nu = 2(e**-nu + 1) and nu_tilde = e**-nu_tilde + 1; the budget optimum is nu_tilde / -ln(eta)
    for got, f in ((solve_nu(), lambda x: 2 * (mpmath.exp(-x) + 1) - x),
                   (solve_nu_tilde(), lambda x: mpmath.exp(-x) + 1 - x)):
        want = mpmath.findroot(f, got)
        assert abs(mpmath.mpf(got) - want) <= math.ulp(got)
