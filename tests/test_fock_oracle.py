import cmath
import math
import operator
import random
import re
import sys
import warnings
from collections import defaultdict
from math import comb, factorial
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noonloss import analytics, cli, fock_oracle
from noonloss.analytics import LossChannel, NoonProbe
from noonloss.fock_oracle import (
    MAX_PHOTONS,
    FockKet,
    Occupation,
    _channel_detector,
    _channel_powers,
    _ladder_row,
    apply_detector,
    build_noon_input,
    inner,
    oracle_moments,
)

from _helpers import inner_reference


def test_build_noon_input_single_photon():
    ket = build_noon_input(1, 0.0)
    amp = 1.0 / math.sqrt(2.0)
    assert ket.amps[Occupation(1, 0, 0)] == pytest.approx(amp)
    assert ket.amps[Occupation(0, 1, 0)] == pytest.approx(amp)
    assert ket.photon_cap == 1


def test_build_noon_input_phase():
    # N * phi = pi flips the sign of the |0,N> branch
    ket = build_noon_input(2, math.pi / 2)
    amp = ket.amps[Occupation(0, 2, 0)]
    assert amp.real == pytest.approx(-1.0 / math.sqrt(2.0), abs=1e-12)
    assert abs(amp.imag) < 1e-12


def test_build_noon_input_normalized():
    assert build_noon_input(3, 0.2).norm_squared() == pytest.approx(1.0, abs=1e-15)


def test_build_noon_input_rejects_zero_photons():
    with pytest.raises(ValueError):
        build_noon_input(0, 0.0)


def test_fock_ket_validation():
    with pytest.raises(ValueError, match=re.escape("negative occupation Occupation(n_a=-1, n_b=0, n_v=0)")):
        FockKet({Occupation(-1, 0, 0): 1.0}, photon_cap=2)
    with pytest.raises(ValueError, match=re.escape("negative occupation Occupation(n_a=0, n_b=1, n_v=-2)")):
        FockKet({(0, 1, np.int64(-2)): 1.0}, photon_cap=2)
    with pytest.raises(ValueError, match=re.escape("occupation Occupation(n_a=2, n_b=1, n_v=0) exceeds photon cap 2")):
        FockKet({Occupation(2, 1, 0): 1.0}, photon_cap=2)
    with pytest.raises(ValueError, match=re.escape("occupation Occupation(n_a=0, n_b=0, n_v=3) exceeds photon cap 2")):
        FockKet({(0, 0, 3): 1.0}, photon_cap=np.int64(2))
    with pytest.raises(ValueError, match=re.escape("photon_cap must be >= 0, got -1")):
        FockKet({}, photon_cap=-1)
    # tiny amplitudes are dropped from the support
    ket = FockKet({Occupation(1, 0, 0): 1.0, Occupation(0, 1, 0): 1e-301}, photon_cap=1)
    assert Occupation(0, 1, 0) not in ket.amps


@pytest.mark.parametrize("occ, cap, message", [
    ((-(10 ** 5000), 0, 0), 3, "negative occupation Occupation(n_a=a negative int of 16610 bits, n_b=0, n_v=0)"),
    ((0, 10 ** 5000, 0), 3, "occupation Occupation(n_a=0, n_b=an int of 16610 bits, n_v=0) exceeds photon cap 3"),
    ((0, 0, 10 ** 5001), 10 ** 5000,
     "occupation Occupation(n_a=0, n_b=0, n_v=an int of 16613 bits) exceeds photon cap an int of 16610 bits"),
], ids=["negative", "past-cap", "past-a-huge-cap"])
def test_fock_ket_names_an_occupation_past_the_int_to_str_limit_by_its_bits(occ, cap, message):
    # the messages formatted the raw Occupation, whose digits pass Python's 4,300-digit limit
    with pytest.raises(ValueError) as info:
        FockKet({occ: 1.0}, photon_cap=cap)
    assert str(info.value) == message


@pytest.mark.parametrize("key", [
    (1, 0, 0),
    (np.int64(1), np.int64(0), np.int64(0)),
    Occupation(np.int64(1), 0, 0),
    Occupation(True, False, 0),
    Occupation(1, 0, 0),
])
def test_fock_ket_keys_become_occupations_of_int(key):
    ket = FockKet({key: 0.5, (0, 1, 0): 2}, photon_cap=1)
    assert list(ket.amps) == [(1, 0, 0), (0, 1, 0)]
    for occ, amp in ket.amps.items():
        assert type(occ) is Occupation
        assert [type(x) for x in occ] == [int, int, int]
        assert type(amp) is complex
    assert list(ket.amps.values()) == [0.5 + 0j, 2 + 0j]


@pytest.mark.parametrize("key", [(1.0, 0, 0), Occupation(1.0, 0, 0), (0, np.float64(1.0), 0)])
def test_fock_ket_rejects_non_integral_occupations(key):
    with pytest.raises(TypeError):
        FockKet({key: 1.0}, photon_cap=1)


def test_apply_detector_lossless_single_photon():
    ket = FockKet({Occupation(1, 0, 0): 1.0}, photon_cap=1)
    out = apply_detector(ket, 1, LossChannel(1.0))
    assert set(out.amps) == {Occupation(0, 1, 0)}
    assert out.amps[Occupation(0, 1, 0)] == pytest.approx(1.0)


def test_apply_detector_annihilation_branch():
    # t = 0.7: the lowering branch picks up one factor of t
    ket = FockKet({Occupation(0, 1, 0): 1.0}, photon_cap=1)
    out = apply_detector(ket, 1, LossChannel(0.49))
    assert set(out.amps) == {Occupation(1, 0, 0)}
    assert out.amps[Occupation(1, 0, 0)] == pytest.approx(0.7, rel=1e-12)


def test_apply_detector_expectation_two_photons():
    ket = build_noon_input(2, 0.3)
    out = apply_detector(ket, 2, LossChannel(0.8))
    assert inner(ket, out).real == pytest.approx(0.8 * math.cos(0.6), abs=1e-12)


def test_apply_detector_rejects_mismatch():
    ket = build_noon_input(3, 0.0)
    with pytest.raises(ValueError):
        apply_detector(ket, 2, LossChannel(0.5))  # ket holds 3 photons
    with pytest.raises(ValueError):
        apply_detector(ket, 0, LossChannel(0.5))
    with pytest.raises(ValueError):
        apply_detector(ket, MAX_PHOTONS + 1, LossChannel(0.5))


def _random_ket(rng, n):
    amps = {}
    for _ in range(6):
        n_a = rng.choice([0, n])
        rest = n - n_a if rng.random() < 0.7 else rng.randrange(0, n - n_a + 1)
        n_b = rng.randrange(0, rest + 1)
        occ = Occupation(n_a, n_b, rest - n_b)
        amps[occ] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return FockKet(amps, photon_cap=n)


def test_no_photon_creation():
    rng = random.Random(7)
    for n in (1, 2, 4, 7):
        ch = LossChannel(rng.uniform(0.1, 1.0), rng.uniform(-1, 1))
        out = apply_detector(_random_ket(rng, n), n, ch)
        assert all(occ.total <= n for occ in out.amps)


def test_hermiticity_on_random_kets():
    rng = random.Random(21)
    for n in (1, 2, 3, 5):
        ch = LossChannel(rng.uniform(0.1, 0.95), rng.uniform(-1, 1))
        x, y = _random_ket(rng, n), _random_ket(rng, n)
        lhs = inner(x, apply_detector(y, n, ch))
        rhs = inner(y, apply_detector(x, n, ch)).conjugate()
        assert cmath.isclose(lhs, rhs, abs_tol=1e-12)


def test_reflection_phase_convention_is_unobservable():
    for phase in (0.0, 1.234, -2.0):
        for n in (1, 3, 6):
            ref = oracle_moments(n, LossChannel(0.6, 0.2), 0.7)
            alt = oracle_moments(n, LossChannel(0.6, 0.2), 0.7, reflection_phase=phase)
            assert alt[0] == pytest.approx(ref[0], abs=1e-12)
            assert alt[1] == pytest.approx(ref[1], abs=1e-12)


def test_inner_examples():
    v = build_noon_input(2, 0.0)
    assert inner(v, v).real == pytest.approx(1.0, abs=1e-15)
    disjoint_a = FockKet({Occupation(1, 0, 0): 1.0}, photon_cap=1)
    disjoint_b = FockKet({Occupation(0, 1, 0): 1.0}, photon_cap=1)
    assert inner(disjoint_a, disjoint_b) == 0
    # <NOON(0)|NOON(pi/2)> = (1 + e^{i pi})/2 = 0 for two photons
    overlap = inner(build_noon_input(2, 0.0), build_noon_input(2, math.pi / 2))
    assert abs(overlap) < 1e-12


def test_inner_conjugate_symmetry():
    x = build_noon_input(3, 0.4)
    y = apply_detector(x, 3, LossChannel(0.5, 0.1))
    assert cmath.isclose(inner(x, y), inner(y, x).conjugate(), abs_tol=1e-14)


def test_oracle_moments_examples():
    mean, var = oracle_moments(1, LossChannel(1.0), 0.0)
    assert mean == pytest.approx(1.0, abs=1e-12)
    assert var == pytest.approx(0.0, abs=1e-12)

    mean, var = oracle_moments(2, LossChannel(0.5), math.pi / 4)
    assert mean == pytest.approx(0.0, abs=1e-12)
    assert var == pytest.approx(0.625, abs=1e-12)

    probe, ch = NoonProbe(6), LossChannel(0.3, 0.2)
    mean, var = oracle_moments(6, ch, 1.1)
    assert mean == pytest.approx(analytics.mean_detection(probe, ch, 1.1), abs=1e-12)
    assert var == pytest.approx(analytics.variance_detection(probe, ch, 1.1), abs=1e-12)


def test_lossless_specialization():
    ch = LossChannel(1.0)
    for n in range(1, 13):
        for k in range(8):
            phi = 2.0 * math.pi * k / 8 + 0.13
            mean, var = oracle_moments(n, ch, phi)
            assert mean == pytest.approx(math.cos(n * phi), abs=1e-12)
            assert var == pytest.approx(math.sin(n * phi) ** 2, abs=1e-12)


@pytest.mark.parametrize("phi", [math.inf, -math.inf, math.nan, 1e308])
def test_non_finite_phase_is_rejected_not_dropped(phi):
    # a NaN amplitude used to be pruned as if it were tiny, so
    # oracle_moments(2, LossChannel(0.5), inf) returned (0.0, 0.5000000000000001);
    # a finite phi whose N*phi overflows raised a bare "math domain error"
    with pytest.raises(ValueError, match=re.escape(f"N*phi must be finite, got N = 2, phi = {phi!r}")):
        build_noon_input(2, phi)
    with pytest.raises(ValueError, match=re.escape("N*phi must be finite")):
        oracle_moments(2, LossChannel(0.5), phi)


@pytest.mark.parametrize("amp", [
    complex(math.nan),
    math.nan,
    math.inf,
    complex(0.0, -math.inf),
    complex(1e-310, math.nan),
    complex(math.inf, math.nan),
])
def test_fock_ket_rejects_non_finite_amplitudes(amp):
    with pytest.raises(ValueError, match=re.escape(f"amplitude of Occupation(n_a=1, n_b=0, n_v=0) must be finite, got {amp!r}")):
        FockKet({(1, 0, 0): amp}, photon_cap=1)
    with pytest.raises(ValueError, match="must be finite"):
        FockKet({Occupation(0, 1, 0): 0.5, Occupation(1, 0, 0): amp}, photon_cap=1)


def test_fock_ket_amplitude_whose_modulus_overflows_is_a_value_error():
    # abs() of it raised a bare OverflowError
    amp = complex(1.7e308, 1.7e308)
    with pytest.raises(ValueError, match=re.escape(f"amplitude of Occupation(n_a=1, n_b=0, n_v=0) has a modulus "
                                                   f"past the float range, got {amp!r}")):
        FockKet({(1, 0, 0): amp}, photon_cap=1)


@pytest.mark.parametrize("amp, shown", [(10 ** 400, "an int of 1329 bits"), (-10 ** 5000, "a negative int of 16610 bits")],
                         ids=["10**400", "-10**5000"])
def test_fock_ket_int_amplitude_past_dbl_max_is_a_value_error(amp, shown):
    # an int modulus compares below inf, so the ket kept it and complex() raised OverflowError
    with pytest.raises(ValueError, match=re.escape(f"amplitude of Occupation(n_a=0, n_b=0, n_v=1) has a modulus "
                                                   f"past the float range, got {shown}")):
        FockKet({(0, 0, 1): amp}, 3)
    # an int amplitude within the float range is an amplitude like any other
    assert FockKet({(0, 0, 1): 10 ** 300}, 3).amps == {Occupation(0, 0, 1): complex(10 ** 300)}


def test_fock_ket_norm_squared_past_the_float_range_is_inf():
    # abs(a) ** 2 raised OverflowError past about 1.3e154
    assert FockKet({(1, 0, 0): complex(1e200, 0)}, 1).norm_squared() == math.inf
    assert FockKet({(1, 0, 0): complex(3.0, 4.0), (0, 1, 0): 1j}, 1).norm_squared() == 26.0


def test_nan_reflection_phase_is_rejected_not_dropped():
    # r = NaN made every coefficient NaN, and the pruned output ket gave
    # finite moments that were wrong
    with pytest.raises(ValueError, match="must be finite"):
        oracle_moments(3, LossChannel(0.5), 0.2, reflection_phase=math.nan)


def _apply_detector_per_call(ket, n, ch, reflection_phase=math.pi / 2):
    """apply_detector with every ladder weight, channel coefficient and
    output key built afresh on each call, the weights from factorials, kept
    as the bit-for-bit reference."""
    t = cmath.rect(math.sqrt(ch.eta), ch.theta_t)
    r = cmath.rect(math.sqrt(1.0 - ch.eta), reflection_phase)
    tc, rc = t.conjugate(), r.conjugate()
    ladder = [comb(n, k) * math.sqrt(factorial(k) * factorial(n - k) / factorial(n)) for k in range(n + 1)]
    out = defaultdict(complex)
    for occ, amp in ket.amps.items():
        if occ.n_a == n and occ.n_b == 0 and occ.n_v == 0:
            for k in range(n + 1):
                coeff = ladder[k] * tc ** k * rc ** (n - k)
                if coeff != 0:
                    out[Occupation(0, k, n - k)] += amp * coeff
        if occ.n_a == 0 and occ.n_b + occ.n_v == n:
            k = occ.n_b
            coeff = ladder[k] * t ** k * r ** (n - k)
            if coeff != 0:
                out[Occupation(n, 0, 0)] += amp * coeff
    return FockKet(dict(out), photon_cap=n)


def _bits(ket):
    return [(occ, amp.real.hex(), amp.imag.hex()) for occ, amp in ket.amps.items()]


def _mixed_ket(rng, n):
    """|n,0,0>, several lowering components (0, k, n - k) that all fold into
    |n,0,0>, and components below n photons that neither branch touches;
    some parts are signed zeros."""
    parts = [-0.0, 0.0, 1e-3, -0.7, 0.25, rng.uniform(-1, 1)]
    amps = {Occupation(n, 0, 0): complex(rng.choice(parts), rng.uniform(-1, 1))}
    for k in rng.sample(range(n + 1), min(n + 1, 4)):
        amps[Occupation(0, k, n - k)] = complex(rng.uniform(-1, 1), rng.choice(parts))
    if n > 1:
        amps[Occupation(0, 1, n - 2)] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return FockKet(amps, photon_cap=n)


def _pass_detectors(n, ch, phase):
    """The detectors a verify pass may hand down: built from scratch, and
    built from the channel's powers up to MAX_PHOTONS and n's ladder row."""
    return (_channel_detector(n, ch, phase),
            _channel_detector(n, ch, phase, _row=_ladder_row(n), _powers=_channel_powers(ch, MAX_PHOTONS, phase)))


def test_pass_detector_equals_the_per_call_expansion_bit_for_bit():
    rng = random.Random(2024)
    # eta = 1 (r = 0), a vanishing t, and theta of either zero, then random cases
    cases = [(n, eta, theta, math.pi / 2) for n in (1, 7, MAX_PHOTONS) for eta in (1.0, 1e-30)
             for theta in (0.0, -0.0)]
    for _ in range(300):
        cases.append((rng.choice([1, 2, 3, 7, 16, 33, MAX_PHOTONS]),
                      rng.choice([1.0, 1e-30, 0.5, rng.uniform(0.01, 1.0)]),
                      rng.choice([0.0, -0.0, rng.uniform(-math.pi, math.pi)]),
                      rng.choice([math.pi / 2, 0.0, rng.uniform(-4.0, 4.0)])))
    for n, eta, theta, phase in cases:
        ch = LossChannel(eta, theta)
        # one detector for the channel, as a verify pass builds it, applied to several kets
        detectors = _pass_detectors(n, ch, phase)
        for ket in (_mixed_ket(rng, n), _random_ket(rng, n), build_noon_input(n, rng.uniform(0, 7))):
            want = _bits(_apply_detector_per_call(ket, n, ch, phase))
            assert _bits(apply_detector(ket, n, ch, reflection_phase=phase)) == want
            for detector in detectors * 2:
                got = apply_detector(ket, n, ch, reflection_phase=phase, _detector=detector)
                assert _bits(got) == want
                # each output holds a copy: clearing one leaves the detector's image whole
                got.amps.clear()


def test_dense_grid_channels_take_their_pass_tables_bit_for_bit():
    # each dense channel's powers, formed once up to MAX_PHOTONS as a verify
    # pass forms them, serve its detector at every n
    etas, thetas, _, _ = cli.VERIFY_GRIDS["dense"]
    channels = [LossChannel(eta, theta) for eta in etas for theta in thetas]
    assert len(channels) == 12
    rng = random.Random(64)
    for ch in channels:
        powers = _channel_powers(ch, MAX_PHOTONS)
        for n in range(1, MAX_PHOTONS + 1):
            detector = _channel_detector(n, ch, _row=_ladder_row(n), _powers=powers)
            for ket in (_mixed_ket(rng, n), build_noon_input(n, 0.3)):
                got = apply_detector(ket, n, ch, _detector=detector)
                assert _bits(got) == _bits(_apply_detector_per_call(ket, n, ch))


def test_channel_powers_are_each_formed_by_pow_bit_for_bit():
    # a running product rounds differently from CPython's square-and-multiply
    for eta, theta, phase in ((0.3, 0.37, math.pi / 2), (1.0, -0.0, 0.0), (1e-30, 2.5, -1.0), (0.9, 0.0, 3.0)):
        t = cmath.rect(math.sqrt(eta), theta)
        r = cmath.rect(math.sqrt(1.0 - eta), phase)
        got = _channel_powers(LossChannel(eta, theta), MAX_PHOTONS, phase)
        for table, z in zip(got, (t.conjugate(), r.conjugate(), t, r)):
            assert len(table) == MAX_PHOTONS + 1
            assert [_inner_bits(p) for p in table] == [_inner_bits(z ** k) for k in range(MAX_PHOTONS + 1)]


def test_lossless_detector_leaves_out_the_zero_terms():
    # eta = 1: r = 0, so only k = n survives in the raising branch, and only
    # the lowering component (0, n, 0) reaches |n,0,0>
    ch = LossChannel(1.0, 0.3)
    for n in (1, 5, MAX_PHOTONS):
        _, raising, *_ = _channel_detector(n, ch)
        assert [key for key, _ in raising] == [Occupation(0, n, 0)]
        images = [apply_detector(FockKet({Occupation(0, k, n - k): 1.0}, photon_cap=n), n, ch).amps
                  for k in range(n + 1)]
        assert [list(image) for image in images] == [[]] * n + [[Occupation(n, 0, 0)]]


@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_signed_zero_channels_take_their_own_detector_bit_for_bit(zero):
    # a channel or reflection phase of either zero, and its twin of the other
    # sign, each built once and applied to several kets: the same moments
    rng = random.Random(5)
    for n in (1, 2, 6, 17):
        kets = [_mixed_ket(rng, n), build_noon_input(n, 0.3)]
        for eta in (0.5, 1.0, 0.9):
            for theta, phase in ((zero, 1.1), (0.4, zero), (zero, zero)):
                ch, twin = LossChannel(eta, theta), LossChannel(eta, -theta if theta == 0 else theta)
                detector = _channel_detector(n, ch, phase)
                for ket in kets:
                    got = apply_detector(ket, n, ch, reflection_phase=phase, _detector=detector)
                    assert _bits(got) == _bits(_apply_detector_per_call(ket, n, ch, phase))
                twin_phase = -phase if phase == 0 else phase
                assert oracle_moments(n, ch, 0.3, reflection_phase=phase, _detector=detector) == \
                    oracle_moments(n, twin, 0.3, reflection_phase=twin_phase)


NOON_AMP = 1.0 / math.sqrt(2.0)


@pytest.mark.parametrize("amp", [complex(NOON_AMP, 0.0), complex(NOON_AMP, -0.0), complex(NOON_AMP, 0.3),
                                 complex(0.5, 0.0), complex(0.5, -0.0), complex(0.0, 0.5), complex(-0.0, 0.5),
                                 complex(0.3, -0.2)])
def test_signed_zero_source_amplitudes_take_the_detector_image_bit_for_bit(amp):
    # an |n,0,0> amplitude equal to a NOON input's, 1/sqrt(2), takes the
    # image the detector formed for it, whatever the sign of its zero
    # imaginary part; any other is formed afresh.  At theta = 0 the (0, n, 0)
    # coefficient is real, and -0.0 times it less 0.5 times its +0.0
    # imaginary part is -0.0
    fresh_images = 0 if amp == NOON_AMP else 1
    for n in (1, 4, 17):
        for eta, theta in ((0.5, 0.0), (1.0, 0.0), (1.0, -0.0), (1.0, math.pi), (0.8, 1.3), (1e-30, -2.0)):
            ch = LossChannel(eta, theta)
            ket = FockKet({Occupation(n, 0, 0): amp}, photon_cap=n)
            want = _bits(_apply_detector_per_call(ket, n, ch))
            assert _bits(apply_detector(ket, n, ch)) == want
            detector = _channel_detector(n, ch)
            with mock.patch.object(fock_oracle, "_raising_image", wraps=fock_oracle._raising_image) as image:
                assert _bits(apply_detector(ket, n, ch, _detector=detector)) == want
            assert image.call_count == fresh_images


def test_lowering_components_before_the_source_keep_the_dict_order():
    # |n,0,0> is then summed into first and the image follows it
    n, ch = 5, LossChannel(0.6, 0.4)
    lowering = {Occupation(0, k, n - k): complex(0.1 * k + 0.05, -0.2) for k in (3, 0, 5)}
    ket = FockKet({**lowering, Occupation(n, 0, 0): complex(0.6, 0.1)}, photon_cap=n)
    for detector in (None, _channel_detector(n, ch)):
        got = apply_detector(ket, n, ch, _detector=detector)
        assert _bits(got) == _bits(_apply_detector_per_call(ket, n, ch))
        assert list(got.amps)[0] == Occupation(n, 0, 0)
        assert list(got.amps)[1:] == [Occupation(0, k, n - k) for k in range(n + 1)]


def test_raising_image_terms_below_the_support_floor_are_pruned():
    # 1e-299 |n,0,0> at eta = 0.1: the raising terms with most quanta in b fall
    # below 1e-300 and are dropped, as by the per-call expansion
    n, ch = 6, LossChannel(0.1, 0.3)
    ket = FockKet({Occupation(n, 0, 0): complex(1e-299, 0.0)}, photon_cap=n)
    for detector in (None, _channel_detector(n, ch)):
        got = apply_detector(ket, n, ch, _detector=detector)
        assert _bits(got) == _bits(_apply_detector_per_call(ket, n, ch))
        assert 0 < len(got.amps) < n + 1
        assert all(abs(amp) >= 1e-300 for amp in got.amps.values())
    # and the lowering sum into |n,0,0> keeps the same rule
    tiny = FockKet({Occupation(0, 1, n - 1): complex(1e-300, 0.0)}, photon_cap=n)
    assert apply_detector(tiny, n, ch).amps == {}


def _moment_bits(moments):
    return [x.hex() for x in moments]


def test_pass_second_moment_is_the_self_product_bit_for_bit():
    # each dense channel at every N, as a verify pass builds its detector, and
    # channels at eta 1 and 1e-30 with theta of either zero.  At eta 1e-30 the
    # lowering amplitude at |N,0,0>, t**N / sqrt(2), falls below 1e-300 from
    # N = 20 on and is dropped, so the second moment is the detector's noon_norm alone
    etas, thetas, phases, _ = cli.VERIFY_GRIDS["dense"]
    channels = [LossChannel(eta, theta) for eta in etas for theta in thetas]
    channels += [LossChannel(eta, theta) for eta in (1.0, 1e-30) for theta in (0.0, -0.0)]
    angles = [2.0 * math.pi * k / phases for k in range(phases)]
    absent = set()
    for ch in channels:
        powers = _channel_powers(ch, MAX_PHOTONS)
        for n in range(1, MAX_PHOTONS + 1):
            detector = _channel_detector(n, ch, _row=_ladder_row(n), _powers=powers)
            kets = {}
            for phi in angles[n % 4::4]:
                got = oracle_moments(n, ch, phi, _kets=kets, _detector=detector)
                assert _moment_bits(got) == _moment_bits(oracle_moments(n, ch, phi))
                psi = kets[phi]
                a_psi = apply_detector(psi, n, ch, _detector=detector)
                mean, second_moment = inner(psi, a_psi).real, inner(a_psi, a_psi)
                assert _moment_bits(got) == _moment_bits((mean, second_moment.real - mean * mean))
                norm = detector.noon_norm
                if detector.top in a_psi.amps:
                    norm += a_psi.amps[detector.top].conjugate() * a_psi.amps[detector.top]
                else:
                    absent.add((n, ch.eta))
                assert _inner_bits(norm) == _inner_bits(second_moment)
    assert {n for n, eta in absent} == set(range(20, MAX_PHOTONS + 1))
    assert {eta for n, eta in absent} == {1e-30}


def test_oracle_moments_calls_the_module_global_detector_and_inner():
    # the benchmark's tracer wraps these by name among the module's globals
    with mock.patch.object(fock_oracle, "build_noon_input", wraps=build_noon_input) as build, \
            mock.patch.object(fock_oracle, "apply_detector", wraps=apply_detector) as detector, \
            mock.patch.object(fock_oracle, "inner", wraps=inner) as product:
        got = fock_oracle.oracle_moments(3, LossChannel(0.7, 0.2), 0.4)
        assert (build.call_count, detector.call_count, product.call_count) == (1, 1, 2)
        # handed a dict of kets, as a verify pass does, the first call at a phase
        # builds its ket and the next reuses it; without a detector each call
        # takes both inner products
        kets = {}
        for calls in (2, 2):
            assert fock_oracle.oracle_moments(3, LossChannel(0.7, 0.2), 0.4, _kets=kets) == got
            assert list(kets) == [0.4] and build.call_count == calls
        assert product.call_count == 6
        # handed a detector too, each call takes <psi|A psi> alone: the detector
        # holds the phase-free part of ||A psi||^2
        handed = _channel_detector(3, LossChannel(0.7, 0.2))
        for calls in (7, 8):
            assert fock_oracle.oracle_moments(3, LossChannel(0.7, 0.2), 0.4, _kets=kets, _detector=handed) == got
            assert (build.call_count, detector.call_count, product.call_count) == (2, calls - 3, calls)
    assert got == oracle_moments(3, LossChannel(0.7, 0.2), 0.4)


@pytest.mark.parametrize("wrap", [np.float64, np.array, lambda x: x])
def test_detector_takes_any_real_channel_values(wrap):
    # the detector is formed from the same floats whatever number types the channel holds
    ket = build_noon_input(4, 0.3)
    ch = LossChannel(wrap(0.625), wrap(0.25))
    got = apply_detector(ket, 4, ch, reflection_phase=wrap(1.5))
    assert _bits(got) == _bits(_apply_detector_per_call(ket, 4, LossChannel(0.625, 0.25), 1.5))


def _inner_bits(z):
    return z.real.hex(), z.imag.hex()


def test_inner_with_itself_equals_the_general_path_bit_for_bit():
    rng = random.Random(11)
    kets = [_random_ket(rng, n) for n in (1, 2, 5, 9) for _ in range(5)]
    kets += [_mixed_ket(rng, n) for n in (1, 4, 30)]
    kets.append(FockKet({Occupation(1, 0, 0): complex(-0.0, 0.5), Occupation(0, 1, 0): complex(0.3, -0.0),
                         Occupation(0, 0, 1): complex(-0.0, -1e-3)}, photon_cap=1))
    kets.append(FockKet({}, photon_cap=2))
    kets.append(apply_detector(build_noon_input(6, 0.7), 6, LossChannel(0.4, 0.2)))
    for x in kets:
        copy = FockKet(dict(x.amps), x.photon_cap)
        assert copy is not x
        assert _inner_bits(inner(x, x)) == _inner_bits(inner(x, copy))
    assert _inner_bits(inner(kets[-2], kets[-2])) == ((0.0).hex(), (0.0).hex())


_OCCUPATIONS = [Occupation(a, b, c) for a in range(3) for b in range(3) for c in range(3) if a + b + c <= 2]
_PARTS = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(min_value=-1e300, max_value=1e300))
_KETS = st.dictionaries(st.sampled_from(_OCCUPATIONS), st.builds(complex, _PARTS, _PARTS)).map(
    lambda amps: FockKet(amps, photon_cap=2))


@pytest.mark.skipif(sys.version_info >= (3, 14), reason="from Python 3.14 on, sum() compensates a complex sum")
@settings(max_examples=300, deadline=None)
@given(x=_KETS, y=_KETS)
@example(x=FockKet({}, 2), y=FockKet({}, 2))
@example(x=FockKet({}, 2), y=FockKet({(1, 0, 0): complex(-0.0, 0.5)}, 2))
@example(x=FockKet({(1, 0, 0): 0.5, (0, 2, 0): -0.25j}, 2), y=FockKet({(0, 1, 0): 1.0, (0, 0, 2): 0.5}, 2))
@example(x=FockKet({(1, 0, 0): complex(-0.0, 0.5), (0, 1, 0): complex(0.3, -0.0), (0, 0, 1): complex(-0.0, -1e-3)}, 2),
         y=FockKet({(0, 1, 0): complex(-0.0, -0.0), (1, 0, 0): complex(0.5, -0.0)}, 2))
@example(x=FockKet({(1, 0, 0): 1e300, (0, 1, 0): 1.0, (0, 0, 1): -1e300}, 2),
         y=FockKet({(0, 0, 1): 1.0, (1, 0, 0): 1.0, (0, 1, 0): 1.0}, 2))
def test_inner_adds_as_the_sums_it_replaced_bit_for_bit(x, y):
    # both orders, so that one call of each unequal pair takes the conjugate of
    # the swapped product, and each ket with itself, the x is y path
    for a, b in ((x, y), (y, x), (x, x), (y, y)):
        assert _inner_bits(inner(a, b)) == _inner_bits(inner_reference(a, b))


@pytest.mark.parametrize("n, phi, bits", [(10**400, 0.5, 1329), (2**1100, 0.0, 1101), (2**1024, -1e-300, 1025),
                                          (10**5000, 0.5, 16610)], ids=["10**400", "2**1100", "2**1024", "10**5000"])
def test_photon_number_past_the_float_range_is_a_value_error(n, phi, bits):
    # n * phi raised a bare "OverflowError: int too large to convert to float"
    message = re.escape(f"photon number must be at most DBL_MAX, got an int of {bits} bits")
    with pytest.raises(ValueError, match=message):
        build_noon_input(n, phi)
    with pytest.raises(ValueError, match=message):
        oracle_moments(n, LossChannel(0.5), phi)


@pytest.mark.parametrize("eta", [0.5, 1.0])
@pytest.mark.parametrize("phase", [math.nan, math.inf, -math.inf])
def test_non_finite_reflection_phase_is_a_value_error(phase, eta):
    # at eta < 1, inf gave "math domain error" and NaN a NaN amplitude; at
    # eta = 1, r = 0 whatever its phase, so both were accepted
    message = re.escape(f"reflection_phase must be finite, got {phase!r}")
    with pytest.raises(ValueError, match=message):
        oracle_moments(3, LossChannel(eta), 0.2, reflection_phase=phase)
    with pytest.raises(ValueError, match=message):
        apply_detector(build_noon_input(2, 0.1), 2, LossChannel(eta, 0.3), reflection_phase=phase)


@pytest.mark.parametrize("phase, shown", [(10 ** 400, "an int of 1329 bits"), (-10 ** 5000, "a negative int of 16610 bits")],
                         ids=["10**400", "-10**5000"])
def test_int_reflection_phase_past_dbl_max_is_a_value_error(phase, shown):
    # float() of it raised OverflowError before the finiteness check
    message = re.escape(f"reflection_phase must be finite, got {shown}")
    with pytest.raises(ValueError, match=message):
        oracle_moments(3, LossChannel(0.5), 0.2, reflection_phase=phase)
    with pytest.raises(ValueError, match=message):
        apply_detector(build_noon_input(2, 0.1), 2, LossChannel(0.5, 0.3), reflection_phase=phase)


def test_oracle_built_kets_hold_occupations_of_int_within_the_cap():
    # these kets skip the public constructor's key checks, so their keys must be built right
    rng = random.Random(31)
    for n in (1, 2, 5, 17, MAX_PHOTONS):
        for eta in (1.0, 0.5, 1e-30, rng.uniform(0.01, 1.0)):
            ch = LossChannel(eta, rng.uniform(-math.pi, math.pi))
            noon = build_noon_input(n, rng.uniform(0.0, 7.0))
            kets = [noon] + [apply_detector(ket, n, ch, reflection_phase=rng.uniform(-4.0, 4.0))
                             for ket in (noon, _mixed_ket(rng, n), _random_ket(rng, n))]
            for ket in kets:
                assert type(ket.photon_cap) is int and ket.photon_cap == n
                assert type(ket.amps) is dict and ket.amps
                for occ, amp in ket.amps.items():
                    assert type(occ) is Occupation
                    assert [type(x) for x in occ] == [int, int, int]
                    assert min(occ) >= 0 and occ.total <= n
                    assert type(amp) is complex
                    assert 1e-300 <= abs(amp) < math.inf


def test_detector_output_keeps_the_amplitude_rule():
    # finite inputs whose detector sum overflows still fail the finiteness check
    ket = FockKet({(0, 1, 1): 1.7e308 + 0j, (0, 2, 0): 1.7e308 + 0j}, 2)
    with pytest.raises(ValueError, match=re.escape("amplitude of Occupation(n_a=2, n_b=0, n_v=0) must be finite")):
        apply_detector(ket, 2, LossChannel(0.5, 0.0), reflection_phase=0.0)
    # and outputs below 1e-300 are dropped: 1.2e-300 times 0.5, 0.71 and 0.5
    tiny = FockKet({(2, 0, 0): 1.2e-300 + 0j}, 2)
    assert apply_detector(tiny, 2, LossChannel(0.5, 0.0), reflection_phase=0.0).amps == {}


def test_lowering_sum_whose_modulus_passes_dbl_max_is_a_value_error():
    # both parts of the sum, about 1.7e308 + 1.7e308j, are finite, but abs() of
    # it raises OverflowError, which must end in the amplitude rule's ValueError
    ket = FockKet({(0, 1, 0): 1.2e308 + 1.2e308j, (0, 0, 1): 1.2e308 - 1.2e308j}, 1)
    message = re.escape("amplitude of Occupation(n_a=1, n_b=0, n_v=0) has a modulus past the float range")
    for _ in range(2):
        with pytest.raises(ValueError, match=message):
            apply_detector(ket, 1, LossChannel(0.5))


@pytest.mark.parametrize("phi, shown", [(10 ** 400, "an int of 1329 bits"), (-10 ** 5000, "a negative int of 16610 bits")],
                         ids=["10**400", "-10**5000"])
def test_build_noon_input_int_phase_past_dbl_max_is_a_value_error(phi, shown):
    # math.isfinite(n * phi) raised OverflowError: int too large to convert to float
    for _ in range(2):
        with pytest.raises(ValueError, match=re.escape(f"N*phi must be finite, got N = 2, phi = {shown}")):
            build_noon_input(2, phi)


def test_oracle_moments_int_phase_past_dbl_max_is_a_value_error():
    with pytest.raises(ValueError, match=re.escape("N*phi must be finite, got N = 2, phi = an int of 1329 bits")):
        oracle_moments(2, LossChannel(0.5), 10 ** 400)
    # an int phase within the float range is a phase like any other
    assert oracle_moments(2, LossChannel(0.5), 10 ** 300) == oracle_moments(2, LossChannel(0.5), float(10 ** 300))


def _noon_input_per_call(n, phi):
    """The NOON input built through the public FockKet constructor, kept as
    the bit-for-bit reference.  N*phi is a Python product, exact for an int
    phase."""
    n = operator.index(n)
    angle = n * (phi if isinstance(phi, int) else float(phi))
    amp = 1.0 / math.sqrt(2.0)
    return FockKet({Occupation(n, 0, 0): complex(amp), Occupation(0, n, 0): cmath.exp(1j * angle) * amp}, n)


_rng = random.Random(17)
# (n, phi) and an "equal" twin that a dict of kets keyed by phase, as a
# verify pass keeps one N's, takes as the same entry
NOON_TWINS = [
    ((3, 0.0), (3, -0.0)),
    ((3, -0.0), (3, 0.0)),
    ((64, np.float64(-0.0)), (64, np.float64(0.0))),
    ((5, np.float32(-0.0)), (5, np.float32(0.0))),
    ((2, 0), (2, -0.0)),
    ((2, 3), (2, 3.0)),
    ((2, 3.0), (2, np.float64(3.0))),
    ((10 ** 20, np.float32(0.5)), (10 ** 20, 0.5)),
    ((7, -2 ** 60), (7, float(-2 ** 60))),
    ((True, 0.3), (1, 0.3)),
    ((1, 0.3), (True, 0.3)),
    ((np.int64(5), 0.3), (5, 0.3)),
    ((5, 0.3), (np.int64(5), np.float64(0.3))),
    ((1, 1.7e308), (1, np.float64(1.7e308))),
    ((2, -8.9e307), (np.int64(2), -8.9e307)),
    ((64, 2.8e306), (64, np.float64(2.8e306))),
    *(((n, phi), (n, np.float64(phi))) for n, phi in
      ((_rng.randint(1, MAX_PHOTONS), _rng.uniform(-10.0, 10.0)) for _ in range(20))),
]


@pytest.mark.parametrize("key, twin", NOON_TWINS)
def test_noon_input_equals_its_twins_and_the_constructor_build_bit_for_bit(key, twin):
    # the ket built for the twin, which a dict keyed by phase hands back for this key, holds this key's bits
    got = build_noon_input(*key)
    want = _noon_input_per_call(*key)
    assert _bits(got) == _bits(want) == _bits(build_noon_input(*twin))
    assert got.photon_cap == want.photon_cap and type(got.photon_cap) is int
    assert all(type(x) is int for occ in got.amps for x in occ)


def test_numpy_scalar_phases_are_checked_as_python_floats():
    # numpy's scalar product overflowed with a RuntimeWarning before the check, an exception
    # under -W error; an int64 product wrapped, and an int N past int64 did not convert
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for phi in (np.float64(1e308), np.float64(-1e308)):
            with pytest.raises(ValueError, match=re.escape("N*phi must be finite, got N = 2, phi = ")):
                build_noon_input(2, phi)
            with pytest.raises(ValueError, match=re.escape("N*phi must be finite")):
                oracle_moments(2, LossChannel(0.5), phi)
        for n, phi in ((2, np.int64(2 ** 62)), (3, np.int64(-2 ** 62)), (2 ** 70, np.int64(2))):
            assert _bits(build_noon_input(n, phi)) == _bits(_noon_input_per_call(n, phi))


def test_float32_phase_past_the_float32_range_takes_the_float64_product():
    # N*phi = 6e38 passed the float64 check, then 1j * N * phi overflowed as numpy
    # complex64: a RuntimeWarning, an exception under -W error, not a ket
    phi = np.float32(3e38)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ket = build_noon_input(2, phi)
        moments = oracle_moments(2, LossChannel(0.5), phi)
    assert _bits(ket) == _bits(build_noon_input(2, float(phi)))
    assert moments == oracle_moments(2, LossChannel(0.5), float(phi))


@pytest.mark.parametrize("n, phi, message", [
    (0, 0.0, "a NOON probe needs at least one photon"),
    (np.int64(-1), 0.3, "a NOON probe needs at least one photon"),
    (10 ** 400, 0.0, "photon number must be at most DBL_MAX, got an int of 1329 bits"),
    (2, math.inf, "N*phi must be finite, got N = 2, phi = inf"),
    (2, math.nan, "N*phi must be finite, got N = 2, phi = nan"),
    (2, 1e308, "N*phi must be finite, got N = 2, phi = 1e+308"),
    (2, 10 ** 308, "N*phi must be finite, got N = 2, phi = "),
    (2, 10 ** 400, "N*phi must be finite, got N = 2, phi = an int of 1329 bits"),
])
def test_bad_noon_inputs_raise_on_every_call_and_are_never_stored(n, phi, message):
    # nor kept in the dict of kets that a verify pass hands the oracle
    kets = {}
    for _ in range(3):
        with pytest.raises(ValueError, match=re.escape(message)):
            build_noon_input(n, phi)
        with pytest.raises(ValueError, match=re.escape(message)):
            oracle_moments(n, LossChannel(0.5), phi, _kets=kets)
        assert kets == {}


def test_a_verify_pass_builds_each_noon_ket_and_detector_once_per_n():
    # 16 dense grid phases and 5 seeded ones at each N, 12 grid channels and 5 seeded ones;
    # the grid channels' powers once per pass, the seeded ones' and the ladder row once per N
    with mock.patch.object(fock_oracle, "build_noon_input", wraps=build_noon_input) as build, \
            mock.patch.object(fock_oracle, "_channel_detector", wraps=_channel_detector) as detector, \
            mock.patch.object(fock_oracle, "_channel_powers", wraps=_channel_powers) as powers, \
            mock.patch.object(fock_oracle, "_ladder_row", wraps=_ladder_row) as row, \
            mock.patch.object(fock_oracle, "inner", wraps=inner) as product:
        assert cli.run_verification(8, "dense", 5) == cli.run_verification(8, "dense", 5)
    assert (build.call_count, detector.call_count) == (2 * 8 * 21, 2 * 8 * 17)
    # one inner call per point, <psi|A psi>: each detector holds its NOON image's norm
    assert product.call_count == 2 * 8 * (12 * 16 + 5)
    assert (powers.call_count, row.call_count) == (2 * (12 + 8 * 5), 2 * 8)
    assert [c.args[0] for c in build.call_args_list[:21]] == [1] * 21
    assert [c.args[1] for c in powers.call_args_list[:13]] == [8] * 12 + [1]


def test_ladder_weights_are_the_factorial_quotient_bit_for_bit():
    for n in range(1, MAX_PHOTONS + 1):
        for k, (key, weight) in enumerate(_ladder_row(n)):
            assert key == (0, k, n - k) and type(key) is Occupation
            want = comb(n, k) * math.sqrt(factorial(k) * factorial(n - k) / factorial(n))
            assert weight.hex() == want.hex()
