import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from noonloss import analytics, fock_oracle, optimal_search
from noonloss.analytics import (
    LossChannel,
    NoonProbe,
    OperatingPoint,
    d_log_precision_dN,
    d_precision_dN,
    log_min_phase_opt_continuous,
    mean_detection,
    min_phase_opt,
    min_phase_opt_continuous,
    optimal_phase_grid,
    precision_grid,
    precision_report,
    variance_detection,
)
from noonloss.budget import (PhotonBudget, d_rnoon_dN_largeloss, log_r_noon, noon_precision_budgeted, r_noon_continuous,
                             unentangled_precision)

from _helpers import _inv_eta_pow, _mean, _optimal_phase, _snr_min_phase, _variance, central_diff, derivative_grid


# ---------------------------------------------------------------------------
# domain types

def test_loss_channel_validation():
    for bad in (0.0, -0.1, 1.2, float("nan")):
        with pytest.raises(ValueError):
            LossChannel(bad)
    with pytest.raises(ValueError):
        LossChannel(0.5, math.inf)
    ch = LossChannel(0.25)
    assert ch.theta_t == 0.0
    assert ch.loss == 0.75
    assert LossChannel.from_loss(0.75).eta == 0.25


@pytest.mark.parametrize("loss, shown", [(10 ** 400, "an int of 1329 bits"), (-10 ** 5000, "a negative int of 16610 bits"),
                                         (1.0, "1.0"), (-0.1, "-0.1"), (math.nan, "nan")],
                         ids=["10**400", "-10**5000", "1.0", "-0.1", "nan"])
def test_loss_channel_from_a_loss_outside_the_domain_is_a_value_error(loss, shown):
    # 1.0 - loss raised OverflowError for an int past DBL_MAX
    with pytest.raises(ValueError, match=re.escape(f"loss must lie in [0, 1), got {shown}")):
        LossChannel.from_loss(loss)


def test_noon_probe_validation():
    for bad in (0, -3):
        with pytest.raises(ValueError):
            NoonProbe(bad)
    with pytest.raises(TypeError):
        NoonProbe(2.5)
    assert NoonProbe(3).n == 3


def test_operating_point_validation():
    with pytest.raises(ValueError):
        OperatingPoint(math.nan, 0.01)
    with pytest.raises(ValueError):
        OperatingPoint(0.1, math.inf)


# ---------------------------------------------------------------------------
# mean and variance

def test_mean_detection_examples():
    assert mean_detection(NoonProbe(1), LossChannel(1.0), 0.0) == pytest.approx(1.0, rel=1e-15)
    assert mean_detection(NoonProbe(2), LossChannel(0.25), 0.0) == pytest.approx(0.25, rel=1e-15)
    # nonzero transmission phase, checked against the Fock-basis engine
    ch = LossChannel(0.5, 0.1)
    mean_o, _ = fock_oracle.oracle_moments(3, ch, 0.2)
    assert mean_detection(NoonProbe(3), ch, 0.2) == pytest.approx(mean_o, abs=1e-12)


def test_variance_detection_examples():
    assert variance_detection(NoonProbe(1), LossChannel(1.0), 0.0) == pytest.approx(0.0, abs=1e-15)
    # cos^2 = 0 pins the variance at its upper bound (1 + eta^N)/2
    assert variance_detection(NoonProbe(2), LossChannel(0.5), math.pi / 4) == pytest.approx(0.625, abs=1e-15)
    ch = LossChannel(0.5, 0.1)
    _, var_o = fock_oracle.oracle_moments(3, ch, 0.2)
    assert variance_detection(NoonProbe(3), ch, 0.2) == pytest.approx(var_o, abs=1e-12)


@given(
    n=st.integers(1, 16),
    eta=st.floats(0.01, 1.0),
    theta=st.floats(-3.0, 3.0),
    phi=st.floats(-7.0, 7.0),
)
def test_variance_bounds_property(n, eta, theta, phi):
    var = variance_detection(NoonProbe(n), LossChannel(eta, theta), phi)
    eta_n = eta ** n
    assert 0.5 * (1.0 - eta_n) - 1e-12 <= var <= 0.5 * (1.0 + eta_n) + 1e-12


# ---------------------------------------------------------------------------
# SNR

def test_snr_lossless_example():
    res = precision_report(NoonProbe(5), LossChannel(1.0), OperatingPoint(math.pi / 10, 0.01))
    assert not res.degenerate
    assert res.snr == pytest.approx(25.0 * 1e-4, rel=1e-12)


def test_snr_example_with_fd_oracle():
    probe, ch = NoonProbe(1), LossChannel(0.5)
    op = OperatingPoint(math.pi / 2, 0.1)
    snr = precision_report(probe, ch, op).snr
    assert snr == pytest.approx(0.01 / 1.5, rel=1e-12)

    # independent route: slope of the oracle mean and the oracle variance
    h = 1e-6
    m_plus, _ = fock_oracle.oracle_moments(1, ch, op.phi0 + h)
    m_minus, _ = fock_oracle.oracle_moments(1, ch, op.phi0 - h)
    _, var_o = fock_oracle.oracle_moments(1, ch, op.phi0)
    slope = (m_plus - m_minus) / (2.0 * h)
    assert snr == pytest.approx((slope * op.delta_phi) ** 2 / var_o, rel=1e-6)


def test_snr_degenerate_flag():
    res = precision_report(NoonProbe(2), LossChannel(0.9), OperatingPoint(0.0, 0.01))
    assert res.snr == 0.0
    assert res.degenerate


# ---------------------------------------------------------------------------
# minimum detectable phase at a given operating point

def test_min_phase_examples():
    assert precision_report(NoonProbe(4), LossChannel(1.0), OperatingPoint(math.pi / 8, 0.0)).min_phase == \
        pytest.approx(0.25, rel=1e-12)
    assert precision_report(NoonProbe(1), LossChannel(0.5), OperatingPoint(0.0, 0.0)).min_phase == math.inf
    value = precision_report(NoonProbe(2), LossChannel(0.5), OperatingPoint(math.pi / 4, 0.0)).min_phase
    assert value == pytest.approx(math.sqrt(2.5) / 2.0, rel=1e-12)


def test_snr_is_unity_at_min_phase():
    for n in (1, 2, 3, 5, 8):
        for eta in (0.3, 0.7, 1.0):
            for offset in (0.15, 0.6, 1.1):
                probe, ch = NoonProbe(n), LossChannel(eta)
                phi0 = offset / n
                dphi = precision_report(probe, ch, OperatingPoint(phi0, 0.0)).min_phase
                if math.isinf(dphi):
                    continue
                res = precision_report(probe, ch, OperatingPoint(phi0, dphi))
                assert res.snr == pytest.approx(1.0, rel=1e-10)
                assert res.min_phase == dphi  # independent of delta_phi


def test_log_min_phase_matches_linear():
    probe, ch = NoonProbe(3), LossChannel(0.4, 0.2)
    report = precision_report(probe, ch, OperatingPoint(0.3, 0.0))
    assert math.exp(report.log_min_phase) == pytest.approx(report.min_phase, rel=1e-12)
    # sin(N(phi0+theta)) = 0
    assert precision_report(probe, ch, OperatingPoint(-0.2, 0.0)).log_min_phase == math.inf


# ---------------------------------------------------------------------------
# optimal-phase precision

def test_min_phase_opt_examples():
    assert min_phase_opt(NoonProbe(10), 1.0) == 0.1
    # consistency with the general form at the optimal phase
    at_opt = precision_report(NoonProbe(2), LossChannel(0.5), OperatingPoint(math.pi / 4, 0.0)).min_phase
    assert min_phase_opt(NoonProbe(2), 0.5) == pytest.approx(at_opt, rel=1e-12)
    # the critical transmissivity is exactly the N=1 / N=2 tie
    eta_c = optimal_search.eta_critical()
    assert min_phase_opt(NoonProbe(1), eta_c) == pytest.approx(min_phase_opt(NoonProbe(2), eta_c), abs=1e-9)


def test_min_phase_opt_lossless_exact():
    for n in (1, 2, 3, 10, 137, 4096, 99991, 10 ** 6):
        assert min_phase_opt(NoonProbe(n), 1.0) == 1.0 / n


@given(
    n=st.integers(1, 40),
    eta_lo=st.floats(0.05, 0.999),
    gap=st.floats(1e-6, 0.5),
)
def test_min_phase_opt_degrades_with_loss(n, eta_lo, gap):
    eta_hi = min(eta_lo + gap, 1.0)
    assume(eta_hi - eta_lo >= 1e-6)
    probe = NoonProbe(n)
    assert min_phase_opt(probe, eta_lo) > min_phase_opt(probe, eta_hi)


def test_min_phase_opt_diverges():
    # for any tested eta < 1 the precision blows past 10^3 radians by N = 10^6
    for eta in (0.5, 0.9, 0.99):
        assert log_min_phase_opt_continuous(10 ** 6, eta) > math.log(1000.0)


def test_min_phase_opt_validation():
    with pytest.raises(ValueError):
        min_phase_opt(NoonProbe(2), 0.0)
    with pytest.raises(ValueError):
        min_phase_opt_continuous(0.0, 0.5)


REAL_N_FORMS = [
    min_phase_opt_continuous, log_min_phase_opt_continuous, d_precision_dN, d_log_precision_dN,
    r_noon_continuous, log_r_noon, d_rnoon_dN_largeloss,
    pytest.param(lambda n, eta: optimal_phase_grid([2.0, n], eta), id="optimal_phase_grid"),
    pytest.param(lambda n, eta: optimal_phase_grid([2.0, n], eta, ratio=True), id="optimal_phase_grid_ratio"),
]


@pytest.mark.parametrize("form", REAL_N_FORMS, ids=lambda form: form.__name__)
@pytest.mark.parametrize("n", [math.nan, math.inf, -math.inf])
def test_real_n_forms_reject_non_finite_n(form, n):
    with pytest.raises(ValueError, match="photon number"):
        form(n, 0.5)


@pytest.mark.parametrize("form", REAL_N_FORMS, ids=lambda form: form.__name__)
def test_real_n_forms_reject_an_int_past_the_float_range(form):
    # -N ln(eta) used to end in OverflowError: int too large to convert to float
    with pytest.raises(ValueError, match="photon number"):
        form(10 ** 400, 0.5)


_BAD_N = [0, -0.0, -1, math.nan, math.inf, 10 ** 400]
_BAD_ETA = [0, -0.1, 1.5, math.nan]


@pytest.mark.parametrize("n, eta", [(n, 0.5) for n in _BAD_N] + [(2.0, eta) for eta in _BAD_ETA]
                         + [(n, eta) for n in _BAD_N for eta in _BAD_ETA])
def test_d_log_precision_dN_raises_the_domain_message(n, eta):
    # the checked form, _validate_eta(eta, n), names a bad N before a bad eta
    with pytest.raises(ValueError) as want:
        analytics._validate_eta(eta, n)
    with pytest.raises(ValueError) as got:
        d_log_precision_dN(n, eta)
    assert str(got.value) == str(want.value)
    if n != 2.0:
        assert str(got.value).startswith("photon number")


def test_one_upper_bound_for_n():
    # an int just past DBL_MAX still passes float(), which rounds it down; the
    # integer types and the real-N forms reject it alike
    top = int(sys.float_info.max)
    assert NoonProbe(top).n == top
    assert d_log_precision_dN(top, 0.5) == d_log_precision_dN(sys.float_info.max, 0.5)
    with pytest.raises(ValueError, match="photon number must be at most DBL_MAX, got an int of 1024 bits"):
        NoonProbe(top + 1)
    with pytest.raises(ValueError, match="photon number"):
        d_log_precision_dN(top + 1, 0.5)


# bounds that an int past DBL_MAX fails either way
_BOUNDED_BOTH_WAYS = {
    "NoonProbe": NoonProbe,
    "PhotonBudget": PhotonBudget,
    "real_n_form": lambda n: min_phase_opt_continuous(n, 0.5),
    "optimal_phase_grid": lambda n: optimal_phase_grid([2, n], 0.5),
    "optimal_phase_grid_n_total": lambda n: optimal_phase_grid([2], 0.5, n_total=n),
    "LossChannel": LossChannel,
    "unentangled_precision": lambda eta: unentangled_precision(PhotonBudget(10), eta),
    "d_rnoon_dN_largeloss": lambda eta: d_rnoon_dN_largeloss(2.0, eta),
    "InvalidEta": optimal_search.n_min_integer,
    "asymptotic_optimum": optimal_search.asymptotic_optimum,
    "apply_detector": lambda n: fock_oracle.apply_detector(fock_oracle.build_noon_input(2, 0.1), n, LossChannel(0.5)),
    "noon_precision_budgeted": lambda n: noon_precision_budgeted(n, PhotonBudget(10), 0.5),
}
# lower bounds only
_BOUNDED_BELOW = {
    "n_cap": lambda n: optimal_search.n_min_integer(0.5, n),
    "photon_cap": lambda n: fock_oracle.FockKet({}, n),
}
_PAST_THE_DIGIT_LIMIT = {"10**5000": (10 ** 5000, "an int of 16610 bits"),
                         "-10**5000": (-10 ** 5000, "a negative int of 16610 bits")}


@pytest.mark.parametrize("make, n, shown", [
    pytest.param(make, n, shown, id=f"{value_id}-{make_id}")
    for value_id, (n, shown) in _PAST_THE_DIGIT_LIMIT.items()
    for make_id, make in [*_BOUNDED_BOTH_WAYS.items(), *(_BOUNDED_BELOW.items() if n < 0 else ())]
])
def test_int_past_the_digit_limit_gets_the_bound_message(make, n, shown):
    # the message formatted the int, which raised "Exceeds the limit (4300
    # digits) for integer string conversion" in place of the bound's message
    subject = "photon number|n_total|eta|loss|n_cap|photon_cap|detector photon number|per-measurement N"
    with pytest.raises(ValueError, match=f"^(?:{subject}|an interior optimum) (?:must|needs) .*, got {shown}$"):
        make(n)


# ---------------------------------------------------------------------------
# log-domain evaluation

def test_log_min_phase_opt_examples():
    assert log_min_phase_opt_continuous(1, 1.0) == pytest.approx(0.0, abs=1e-15)
    got = log_min_phase_opt_continuous(10000, 0.5)
    expected = 0.5 * (10000 * math.log(2.0) - math.log(2.0)) - math.log(10000.0)
    assert got == pytest.approx(expected, abs=1e-9)
    assert log_min_phase_opt_continuous(2, 0.5) == pytest.approx(math.log(math.sqrt(2.5) / 2.0), rel=1e-12)


def test_log_min_phase_opt_where_n_ln_eta_overflows():
    # N|ln eta| = 2.07e308 overflows, half of it does not: the value read inf
    assert log_min_phase_opt_continuous(3e305, 1e-300) == pytest.approx(-0.5 * 3e305 * math.log(1e-300), rel=1e-15)


def test_log_min_phase_where_n_ln_eta_overflows():
    # N|ln eta| = 2.07e308 overflows, half of it does not: the value read inf;
    # at the optimal phase it is the optimal-phase form
    n = 3 * 10 ** 305
    report = precision_report(NoonProbe(n), LossChannel(1e-300), OperatingPoint(phi0=math.pi / (2 * n), delta_phi=0.01))
    assert report.log_min_phase == log_min_phase_opt_continuous(n, 1e-300)
    assert report.log_min_phase == pytest.approx(1.0361632918473204e308, rel=1e-15)


def test_exp_log_consistency():
    for n in (1, 2, 7, 50, 400, 10 ** 5):
        for eta in (0.2, 0.6, 0.97, 1.0):
            lin = min_phase_opt_continuous(n, eta)
            if math.isinf(lin):
                continue
            assert math.exp(log_min_phase_opt_continuous(n, eta)) == pytest.approx(lin, rel=1e-12)


# ---------------------------------------------------------------------------
# derivatives

def test_d_precision_examples():
    assert d_precision_dN(1.0, 1.0) == pytest.approx(-1.0, rel=1e-12)
    assert d_precision_dN(2.0, 0.01) > 0.0  # large loss: more photons only hurt


def test_d_precision_dN_past_a_quarter_of_dbl_max_overflows():
    # 4.0 * N overflowed, so the second term read 0 and so did the derivative
    assert d_precision_dN(4e307, 0.5) == math.inf
    assert d_precision_dN(9e307, 0.5) == math.inf
    assert d_precision_dN(sys.float_info.max, 1.0 - 1e-16) == math.inf


def test_d_precision_dN_where_n_squared_underflows_overflows_to_minus_inf():
    # N * N underflowed to 0: ZeroDivisionError; -1/N**2 is past -DBL_MAX
    assert d_precision_dN(1e-200, 0.5) == -math.inf
    assert d_precision_dN(5e-324, 1e-300) == -math.inf
    assert d_precision_dN(1e-200, 1.0) == -math.inf


def test_d_precision_dN_keeps_its_value_outside_the_normal_range_of_n_squared():
    # at eta = 1 the derivative is -1/N**2: a subnormal at N = 1.5e154, where
    # N * N overflowed and the value read 0.0
    for n in (1.5e154, 2.0 ** 512, 1e160):
        assert d_precision_dN(n, 1.0) == pytest.approx(-1.0 / n / n, rel=1e-9, abs=1e-322)
        assert d_precision_dN(n, 1.0) < 0.0
    assert d_precision_dN(1e300, 1.0) == 0.0
    # just below 2**-511, where N * N was subnormal, as just above it
    for n in (1.2e-154, 1.49e-154, 1.5e-154):
        assert d_precision_dN(n, 0.5) == pytest.approx(-1.0 / n / n, rel=1e-12)


def test_d_precision_vanishes_at_continuous_minimizer():
    eta = 1.0 - 1e-6
    n_star = optimal_search.n_min_integer(eta).continuous_n
    slope_scale = min_phase_opt_continuous(n_star, eta) / n_star
    assert abs(d_precision_dN(n_star, eta)) <= 1e-4 * slope_scale
    # cross-check through a finite difference of the log precision
    fd = central_diff(lambda x: log_min_phase_opt_continuous(x, eta), n_star, 1e-3)
    assert abs(fd) <= 1e-4 / n_star


def test_d_log_precision_examples():
    assert d_log_precision_dN(1.0, 1.0) == pytest.approx(-1.0, rel=1e-12)
    # near the continuous minimizer for L = 1e-6
    assert abs(d_log_precision_dN(2.218e6, 1.0 - 1e-6)) < 1e-10
    assert d_log_precision_dN(1.0, 0.5) == pytest.approx(-1.0 + math.log(2.0) / 3.0, rel=1e-12)


def test_derivatives_match_finite_differences():
    worst_log = worst_lin = 0.0
    for n, eta in derivative_grid(optimal_search.solve_nu):
        h = 1e-5 * n
        fd_log = central_diff(lambda x: log_min_phase_opt_continuous(x, eta), n, h)
        a_log = d_log_precision_dN(n, eta)
        worst_log = max(worst_log, abs(a_log - fd_log) / abs(a_log))
        fd_lin = central_diff(lambda x: min_phase_opt_continuous(x, eta), n, h)
        a_lin = d_precision_dN(n, eta)
        worst_lin = max(worst_lin, abs(a_lin - fd_lin) / abs(a_lin))
    assert worst_log < 1e-6
    assert worst_lin < 1e-6


# ---------------------------------------------------------------------------
# bundled report

def test_precision_report_fields():
    probe, ch = NoonProbe(3), LossChannel(0.6, 0.05)
    op = OperatingPoint(0.4, 0.01)
    report = precision_report(probe, ch, op)
    assert report.mean == mean_detection(probe, ch, op.phi0)
    assert report.variance == variance_detection(probe, ch, op.phi0)
    assert report.variance >= 0.0
    assert report.snr >= 0.0
    assert not report.degenerate
    assert math.exp(report.log_min_phase) == pytest.approx(report.min_phase, rel=1e-12)


def test_precision_report_degenerate():
    report = precision_report(NoonProbe(2), LossChannel(0.9), OperatingPoint(0.0, 0.01))
    assert report.degenerate
    assert report.snr == 0.0
    assert math.isinf(report.min_phase)
    assert math.isinf(report.log_min_phase)


# ---------------------------------------------------------------------------
# whole-grid kernel

def _point_reference(n, eta, theta_t, phi0, delta_phi):
    """The five sweep columns at one point from the written-out scalar forms,
    checked as the scalar API checks them."""
    ch, probe = LossChannel(eta, theta_t), NoonProbe(n)
    op = OperatingPoint(0.5 * math.pi / probe.n - theta_t if phi0 is None else phi0, delta_phi)
    angle = analytics._angle(probe.n, op.phi0, theta_t)
    c, s = math.cos(angle), abs(math.sin(angle))
    snr, min_phase, _ = _snr_min_phase(probe.n, eta, s, delta_phi)
    return [_mean(probe.n, eta, c), _variance(probe.n, eta, s), snr, min_phase, _optimal_phase(probe.n, eta)]


def _grid_reference(n, eta, theta_t, phi0, delta_phi):
    """Row by row, stopping at the first point that raises, as a per-point loop does."""
    size = len(next(x for x in (n, eta, phi0) if isinstance(x, list)))
    rows = []
    for i in range(size):
        point = [x[i] if isinstance(x, list) else x for x in (n, eta, phi0)]
        rows.append(_point_reference(point[0], point[1], theta_t, point[2], delta_phi))
    return [list(column) for column in zip(*rows)] if rows else [[]] * 5


def _bits(columns):
    return [[float.hex(v) for v in column] for column in columns]


@st.composite
def sweeps(draw, etas, phases, ns):
    """(n, eta, theta_t, phi0, delta_phi) with exactly one of n, eta, phi0 a list."""
    var = draw(st.sampled_from(["n", "eta", "phi0"]))
    values = {"n": ns, "eta": etas, "phi0": phases}
    point = {k: draw(v) for k, v in values.items()}
    if var == "phi0" or draw(st.booleans()):
        point["phi0"] = draw(phases)
    else:
        point["phi0"] = None
    point[var] = draw(st.lists(values[var], max_size=12))
    return point["n"], point["eta"], draw(phases), point["phi0"], draw(phases)


VALID = dict(
    etas=st.one_of(st.floats(1e-3, 0.99), st.sampled_from([0.5, 0.9, 1e-9, 0.3, 1.0, 1.0 - 1e-16])),
    phases=st.one_of(st.floats(-10.0, 10.0), st.just(0.0)),
    ns=st.one_of(st.integers(1, 80), st.just(2000)),
)


@settings(max_examples=200, deadline=None)
@given(sweeps(**VALID))
def test_precision_grid_equals_precision_report_bit_for_bit(sweep):
    assert _bits(precision_grid(*sweep)) == _bits(_grid_reference(*sweep))


def _first_error(fn, *args):
    try:
        fn(*args)
    except ValueError as exc:
        return str(exc)
    return None


BAD = dict(etas=st.sampled_from([0.0, -0.5, 1.5, math.nan, math.inf]),
           phases=st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308]),
           ns=st.integers(-3, 0))


@st.composite
def bad_sweeps(draw):
    """A valid sweep with a few fixed or swept values replaced by bad ones."""
    sweep = list(draw(sweeps(**VALID)))
    slots = {0: "ns", 1: "etas", 2: "phases", 3: "phases", 4: "phases"}
    for _ in range(draw(st.integers(1, 3))):
        slot = draw(st.sampled_from(sorted(slots)))
        if isinstance(sweep[slot], list) and sweep[slot]:
            sweep[slot] = list(sweep[slot])
            sweep[slot][draw(st.integers(0, len(sweep[slot]) - 1))] = draw(BAD[slots[slot]])
        elif sweep[slot] is not None and not isinstance(sweep[slot], list):
            sweep[slot] = draw(BAD[slots[slot]])
    return tuple(sweep)


@settings(max_examples=300, deadline=None)
@given(bad_sweeps())
def test_precision_grid_raises_the_first_points_message(sweep):
    assert _first_error(precision_grid, *sweep) == _first_error(_grid_reference, *sweep)


@pytest.mark.parametrize("sweep", [
    (2, [0.5, 0.7, 1.5], 0.0, None, 0.01),
    (2, [0.5, 0.0], 0.0, None, 0.01),
    (3, 0.5, 0.0, [0.1, 0.2, math.nan], 0.01),
    ([1, 2, 0], 0.5, 0.0, None, 0.01),
    ([1, 2], 0.5, math.nan, None, math.inf),
    (0, [1.5], math.nan, None, 0.01),
    (0, [0.5], 0.0, None, math.inf),
    # N*(phi0 + theta_t) overflows although phi0 and theta_t are finite
    (3, 0.5, 0.0, [0.0, 1e308, math.nan], 0.01),
    ([1, 10 ** 10, 0], 0.5, 0.0, 1e300, 0.01),
    (3, [0.5, 1.5], 0.0, 1e308, 0.01),
    (3, [1.5], 0.0, 1e308, 0.01),
    ([1, 2], 0.5, 1e308, 1e308, 0.01),
])
def test_precision_grid_error_order_examples(sweep):
    assert _first_error(precision_grid, *sweep) == _first_error(_grid_reference, *sweep) is not None


def test_precision_grid_needs_one_swept_variable():
    with pytest.raises(TypeError):
        precision_grid(2, 0.5, 0.0, None, 0.01)
    with pytest.raises(TypeError):
        precision_grid([2], [0.5], 0.0, None, 0.01)


def _optimal_phase_reference(ns, eta, ratio):
    """The written-out scalar form at each N, after one check of eta, stopping
    at the first N that raises."""
    LossChannel(eta)
    column = []
    for n in ns:
        analytics._validate_eta(eta, n)
        column.append(_optimal_phase(n, eta, ratio=ratio))
    return column


# N|ln eta| on both sides of ln(DBL_MAX) = 709.78, N real or integer up to DBL_MAX, past DBL_MAX/2
# where 2N overflows, and subnormal, where R_NOON's quotient overflows and N N_T leaves the normal range
optimal_ns = st.one_of(st.integers(1, 10 ** 9), st.integers(1, int(sys.float_info.max)),
                       st.floats(1e-3, 1e9), st.floats(1e-3, sys.float_info.max),
                       st.sampled_from([1, 1e-300, 1e300, 9e307, sys.float_info.max, 5e-324, 1e-310]))
optimal_etas = st.one_of(st.floats(0.0, 1.0, exclude_min=True), st.sampled_from([1.0, 1.0 - 1e-16, 5e-324]),
                         st.floats(-12.0, -1.0).map(lambda x: 1.0 - 10.0 ** x))


@settings(max_examples=200, deadline=None)
@given(st.lists(optimal_ns, max_size=20), optimal_etas, st.booleans())
def test_optimal_phase_grid_equals_the_scalar_forms_bit_for_bit(ns, eta, ratio):
    assert _bits([optimal_phase_grid(ns, eta, ratio)]) == _bits([_optimal_phase_reference(ns, eta, ratio)])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(optimal_ns, st.sampled_from([0, -1, -0.5, 0.0])), max_size=8),
       st.one_of(optimal_etas, BAD["etas"]), st.booleans())
def test_optimal_phase_grid_raises_the_first_points_message(ns, eta, ratio):
    assert _first_error(optimal_phase_grid, ns, eta, ratio) == _first_error(_optimal_phase_reference, ns, eta, ratio)


# N_T up to DBL_MAX, where N N_T passes it: the int product's sqrt raises OverflowError
@settings(max_examples=200, deadline=None)
@given(st.lists(optimal_ns, max_size=20), optimal_etas,
       st.one_of(st.integers(1, 10 ** 12), st.integers(1, int(sys.float_info.max))))
@example([2 ** 600, 10 ** 9], 1.0, 2 ** 500)  # eta**-N finite, N N_T past DBL_MAX
@example([2 ** 600, 10 ** 9], 0.5, 2 ** 500)  # the log form's N N_T past DBL_MAX
def test_optimal_phase_grid_budgeted_equals_the_scalar_form_bit_for_bit(ns, eta, n_total):
    want = [_optimal_phase(n, eta, n_total) for n in ns]
    assert _bits([optimal_phase_grid(ns, eta, n_total=n_total)]) == _bits([want])


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(1, 80), st.integers(1, 2 ** 60)),
       st.one_of(VALID["etas"], st.floats(5e-324, 1.0)), VALID["phases"], VALID["phases"],
       st.one_of(VALID["phases"], st.sampled_from([1e200, 1e308])))
def test_point_queries_equal_the_written_out_forms_bit_for_bit(n, eta, theta_t, phi0, delta_phi):
    # each query is a one-point call of _eta_columns, so the reference is the written-out form
    probe, ch = NoonProbe(n), LossChannel(eta, theta_t)
    angle = analytics._angle(n, phi0, theta_t)
    s = abs(math.sin(angle))
    snr, min_phase, degenerate = _snr_min_phase(n, eta, s, delta_phi)
    report = precision_report(probe, ch, OperatingPoint(phi0, delta_phi))
    got = [report.mean, report.variance, report.snr, report.min_phase,
           precision_report(probe, ch, OperatingPoint(phi0, 0.0)).min_phase,
           mean_detection(probe, ch, phi0), variance_detection(probe, ch, phi0)]
    want = [_mean(n, eta, math.cos(angle)), _variance(n, eta, s), snr, min_phase,
            _snr_min_phase(n, eta, s, 0.0)[1], _mean(n, eta, math.cos(angle)), _variance(n, eta, math.sin(angle))]
    assert _bits([got]) == _bits([want])
    assert report.degenerate == degenerate


def _first_true(pred, lo, hi):
    """The least float N in (lo, hi] where ``pred`` holds, for a ``pred``
    false at lo, true at hi and monotone between."""
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return hi
        lo, hi = (lo, mid) if pred(mid) else (mid, hi)


def _ulps_around(n, count=4):
    """``count`` floats on each side of n, and n."""
    below, above = [n], [n]
    for _ in range(count):
        below.append(math.nextafter(below[-1], 0.0))
        above.append(math.nextafter(above[-1], math.inf))
    return below[:0:-1] + above


@pytest.mark.parametrize("eta", [1e-300, 0.5, 0.9, 1.0 - 1e-3, 1.0 - 1e-12])
@pytest.mark.parametrize("ratio", [False, True], ids=["min_phase", "r_noon"])
def test_optimal_phase_grid_is_bit_identical_at_the_pow_and_exp_lines(eta, ratio):
    # a few ulps of N on both sides of each line: where -N log2(eta) passes
    # _POW_OVERFLOWS and where eta**-N itself overflows, which the try catches
    # below that line; and where the log form's exponent passes ln(DBL_MAX)
    pow_line = analytics._POW_OVERFLOWS / -math.log2(eta)
    pow_overflow = _first_true(lambda n: _inv_eta_pow(n, eta) == math.inf, 1e-3, 1e300)
    exp_overflow = _first_true(lambda n: _optimal_phase(n, eta, ratio=ratio) == math.inf, pow_overflow, 1e300)
    assert pow_overflow < pow_line < exp_overflow
    for line in (pow_line, pow_overflow, exp_overflow):
        ns = _ulps_around(line)
        want = [_optimal_phase(n, eta, ratio=ratio) for n in ns]
        assert _bits([optimal_phase_grid(ns, eta, ratio)]) == _bits([want])
    # the exp line is where the values turn from finite to inf
    assert math.isfinite(want[3]) and want[4] == math.inf


@pytest.mark.parametrize("dphi", [0.01, 0.0, 1e200, 1e308], ids=["dphi", "zero", "signal_sq_overflows",
                                                                  "signal_overflows"])
@pytest.mark.parametrize("theta_t, phi0", [(0.0, None), (0.37, None), (0.0, 0.0), (0.37, 1.1)],
                         ids=["optimal", "optimal_theta", "blind", "arbitrary"])
@pytest.mark.parametrize("n", [2000, 10 ** 6, 10 ** 9, 2 ** 53 + 1])
def test_precision_grid_eta_sweep_is_bit_identical_at_the_pow_and_exp_lines(n, theta_t, phi0, dphi):
    # a few ulps of eta on both sides of each line: where -N log2(eta) passes
    # _POW_OVERFLOWS, where eta**-N itself overflows, and where the log forms
    # of min_phase_opt and (off the blind points) min_phase pass ln(DBL_MAX);
    # then eta = 1, 1 - 1e-16 and the least subnormal
    phi = 0.5 * math.pi / n - theta_t if phi0 is None else phi0
    s = abs(math.sin(analytics._angle(n, phi, theta_t)))
    pow_line = 2.0 ** (-analytics._POW_OVERFLOWS / n)
    pow_overflow = _first_true(lambda eta: _inv_eta_pow(n, eta) < math.inf, 5e-324, 1.0)
    opt_line = _first_true(lambda eta: _optimal_phase(n, eta) < math.inf, 5e-324, pow_overflow)
    lines = [pow_line, pow_overflow, opt_line]
    if _snr_min_phase(n, 1.0, s, 0.0)[1] < math.inf:
        lines.append(_first_true(lambda eta: _snr_min_phase(n, eta, s, 0.0)[1] < math.inf, 5e-324, pow_overflow))
    etas = [eta for line in lines for eta in _ulps_around(line)] + [1.0, 1.0 - 1e-16, 5e-324]
    sweep = (n, etas, theta_t, phi0, dphi)
    want = _grid_reference(*sweep)
    assert _bits(precision_grid(*sweep)) == _bits(want)
    # min_phase_opt turns from inf to finite at its exp line, below the overflow of eta**-N
    assert opt_line < pow_overflow
    at = etas.index(opt_line)
    assert want[4][at - 1] == math.inf and math.isfinite(want[4][at])


def _exp_reference(x):
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def test_exp_or_inf_is_exp_on_both_sides_of_its_line():
    # a few ulps around ln(DBL_MAX), where exp turns to overflow, and around
    # _EXP_OVERFLOWS, past which it is not tried
    for line in (math.log(sys.float_info.max), analytics._EXP_OVERFLOWS):
        xs = _ulps_around(line)
        assert _bits([[analytics._exp_or_inf(x) for x in xs]]) == _bits([[_exp_reference(x) for x in xs]])
    assert math.isfinite(_exp_reference(math.log(sys.float_info.max)))


@pytest.mark.parametrize("kwargs, message", [
    ({"n_total": 0}, "n_total must lie in (0, DBL_MAX], got 0"),
    ({"n_total": -5}, "n_total must lie in (0, DBL_MAX], got -5"),
    ({"n_total": math.nan}, "n_total must lie in (0, DBL_MAX], got nan"),
    ({"n_total": math.inf}, "n_total must lie in (0, DBL_MAX], got inf"),
    ({"n_total": 10 ** 400}, "n_total must lie in (0, DBL_MAX], got an int of 1329 bits"),
    ({"n_total": 100, "ratio": True}, "R_NOON takes no n_total"),
], ids=["0", "-5", "nan", "inf", "10**400", "ratio"])
def test_optimal_phase_grid_checks_n_total(kwargs, message):
    # 0 raised ZeroDivisionError, -5 a bare math domain error and 10**400 an
    # OverflowError; nan read [nan], and ratio with n_total read R_NOON
    for ns in ([2], []):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            optimal_phase_grid(ns, 0.5, **kwargs)


@pytest.mark.parametrize("eta, want", [(0.5, math.inf), (1.0, 1e-154)])
def test_optimal_phase_grid_ratio_past_half_dbl_max(eta, want):
    # 2N overflows at N = 1e308: R_NOON read 0.0 at both points
    assert optimal_phase_grid([1e308], eta, ratio=True)[0] == pytest.approx(want, rel=1e-15, abs=0.0)


# an int phase past DBL_MAX: float conversion raised OverflowError: int too large to convert to float
INT_PHASES = [(10 ** 400, "an int of 1329 bits"), (-10 ** 5000, "a negative int of 16610 bits")]


@pytest.mark.parametrize("form", [mean_detection, variance_detection])
@pytest.mark.parametrize("phi, shown", INT_PHASES, ids=["10**400", "-10**5000"])
def test_int_phase_past_dbl_max_in_the_angle_is_a_value_error(form, phi, shown):
    # phi + theta_t in analytics._angle raised the OverflowError; precision_report's
    # OperatingPoint rejects such a phase before the angle is formed
    for theta in (0.0, 0):
        with pytest.raises(ValueError, match=re.escape(f"N*(phi0 + theta_t) must be finite, got N = 2, "
                                                       f"phi0 = {shown}, theta_t = {theta!r}")):
            form(NoonProbe(2), LossChannel(0.5, theta), phi)


@pytest.mark.parametrize("form", [
    mean_detection, variance_detection,
    pytest.param(lambda probe, ch, phi: precision_report(probe, ch, OperatingPoint(phi, 0.0)).min_phase,
                 id="report_min_phase"),
    pytest.param(lambda probe, ch, phi: precision_report(probe, ch, OperatingPoint(phi, 0.0)).log_min_phase,
                 id="report_log_min_phase"),
])
def test_numpy_scalar_phases_in_the_angle_take_python_arithmetic(form):
    # numpy's scalar sum and product overflowed with a RuntimeWarning before the check, an
    # exception under -W error, and an int64 product wrapped
    probe, ch = NoonProbe(2), LossChannel(0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape("N*(phi0 + theta_t) must be finite, got N = 2, "
                                                       "phi0 = 1e+308, theta_t = 0.0")):
            form(probe, ch, np.float64(1e308))
        with pytest.raises(ValueError, match=re.escape("N*(phi0 + theta_t) must be finite")):
            form(probe, LossChannel(0.5, np.float64(1.7e308)), np.float64(1.7e308))
        assert form(probe, ch, np.int64(2 ** 62)) == form(probe, ch, 2 ** 62)
        assert form(probe, LossChannel(0.5, np.float64(0.25)), np.float64(0.3)) == \
            form(probe, LossChannel(0.5, 0.25), 0.3)


@pytest.mark.parametrize("theta, shown", INT_PHASES, ids=["10**400", "-10**5000"])
def test_loss_channel_int_theta_past_dbl_max_is_a_value_error(theta, shown):
    with pytest.raises(ValueError, match=f"^theta_t must be finite, got {shown}$"):
        LossChannel(0.5, theta)
    assert LossChannel(0.5, 10 ** 300).theta_t == 10 ** 300


@pytest.mark.parametrize("phi, shown", INT_PHASES, ids=["10**400", "-10**5000"])
def test_operating_point_int_phase_past_dbl_max_is_a_value_error(phi, shown):
    with pytest.raises(ValueError, match=f"^phi0 and delta_phi must be finite, got phi0 = {shown}, delta_phi = 0.01$"):
        OperatingPoint(phi, 0.01)
    with pytest.raises(ValueError, match=f"^phi0 and delta_phi must be finite, got phi0 = 0.1, delta_phi = {shown}$"):
        OperatingPoint(0.1, phi)
    # the phi0 sweep checks each point's phases
    with pytest.raises(ValueError, match=f"got phi0 = {shown}, delta_phi = 0.01$"):
        precision_grid(2, 0.5, 0.0, [0.1, phi], 0.01)
    # a non-finite float keeps the message without values
    with pytest.raises(ValueError, match="^phi0 and delta_phi must be finite$"):
        OperatingPoint(math.nan, phi)
