import cmath
import math
import operator
import random
import re
import warnings
from collections import defaultdict
from types import MappingProxyType
from unittest import mock

import numpy as np
import pytest

from noonloss import analytics, cli, fock_oracle
from noonloss.analytics import LossChannel, NoonProbe
from noonloss.fock_oracle import (
    MAX_PHOTONS,
    FockKet,
    Occupation,
    _detector_terms,
    _ladder_table,
    _raising_image,
    apply_detector,
    build_noon_input,
    inner,
    oracle_moments,
)


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
    """apply_detector with every channel coefficient and output key built
    afresh on each call: the expansion that the per-channel memo replaced,
    kept as the bit-for-bit reference."""
    t = cmath.rect(math.sqrt(ch.eta), ch.theta_t)
    r = cmath.rect(math.sqrt(1.0 - ch.eta), reflection_phase)
    tc, rc = t.conjugate(), r.conjugate()
    ladder = _ladder_table(n).coefficients
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


def test_memoized_detector_equals_the_per_call_expansion_bit_for_bit():
    rng = random.Random(2024)
    for _ in range(300):
        n = rng.choice([1, 2, 3, 7, 16, 33, MAX_PHOTONS])
        eta = rng.choice([1.0, 1e-30, 0.5, rng.uniform(0.01, 1.0)])
        ch = LossChannel(eta, rng.choice([0.0, -0.0, rng.uniform(-math.pi, math.pi)]))
        phase = rng.choice([math.pi / 2, 0.0, rng.uniform(-4.0, 4.0)])
        for ket in (_mixed_ket(rng, n), _random_ket(rng, n), build_noon_input(n, rng.uniform(0, 7))):
            # twice: once filling the memo (or hitting it), once hitting it
            for _ in range(2):
                got = apply_detector(ket, n, ch, reflection_phase=phase)
                assert _bits(got) == _bits(_apply_detector_per_call(ket, n, ch, phase))


def test_lossless_detector_leaves_out_the_zero_terms():
    # eta = 1: r = 0, so only k = n survives in the raising branch
    for n in (1, 5, MAX_PHOTONS):
        raising, lowering = _detector_terms(n, 1.0, 0.3, math.pi / 2)
        assert [key for key, _ in raising] == [Occupation(0, n, 0)]
        assert [c != 0 for c in lowering] == [False] * n + [True]


@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_signed_zero_channels_reuse_the_memo_bit_for_bit(zero):
    # +0.0 and -0.0 are one cache key: each is queried after the other filled the memo
    rng = random.Random(5)
    for n in (1, 2, 6, 17):
        ket = _mixed_ket(rng, n)
        for eta in (0.5, 1.0, 0.9):
            for (theta, phase), (warm_theta, warm_phase) in (((zero, 1.1), (-zero, 1.1)),
                                                             ((0.4, zero), (0.4, -zero)),
                                                             ((zero, zero), (-zero, -zero))):
                apply_detector(ket, n, LossChannel(eta, warm_theta), reflection_phase=warm_phase)
                hits = _detector_terms.cache_info().hits
                ch = LossChannel(eta, theta)
                got = apply_detector(ket, n, ch, reflection_phase=phase)
                assert _detector_terms.cache_info().hits == hits + 1
                assert _bits(got) == _bits(_apply_detector_per_call(ket, n, ch, phase))
                assert oracle_moments(n, ch, 0.3, reflection_phase=phase) == \
                    oracle_moments(n, LossChannel(eta, warm_theta), 0.3, reflection_phase=warm_phase)


def test_detector_memo_stays_within_its_bound():
    bound = _detector_terms.cache_info().maxsize
    ket = build_noon_input(3, 0.2)
    for i in range(bound + 40):
        ch = LossChannel(0.2 + 0.7 * i / (bound + 40))
        got = apply_detector(ket, 3, ch)
        assert _bits(got) == _bits(_apply_detector_per_call(ket, 3, ch))
        assert _detector_terms.cache_info().currsize <= bound


def test_raising_image_memo_stays_within_its_bound():
    assert _raising_image.cache_info().maxsize == 64
    for n in (3, MAX_PHOTONS):
        ket = build_noon_input(n, 0.2)
        for i in range(64 + 40):
            ch = LossChannel(0.2 + 0.7 * i / (64 + 40), 0.1)
            got = apply_detector(ket, n, ch)
            assert _bits(got) == _bits(_apply_detector_per_call(ket, n, ch))
            assert _raising_image.cache_info().currsize <= 64
            # each ket holds a copy: clearing one leaves the memo's entry whole
            got.amps.clear()
            assert _bits(apply_detector(ket, n, ch)) == _bits(_apply_detector_per_call(ket, n, ch))


@pytest.mark.parametrize("amp", [complex(0.5, 0.0), complex(0.5, -0.0), complex(0.0, 0.5), complex(-0.0, 0.5),
                                 complex(0.3, -0.2)])
def test_signed_zero_source_amplitudes_share_an_image_bit_for_bit(amp):
    # the |n,0,0> amplitude with the signs of its zero parts flipped is the
    # same memo key: the image filled by the other sign must hold this sign's
    # bits; at theta = 0 the (0, n, 0) coefficient is real, and -0.0 times it
    # less 0.5 times its +0.0 imaginary part is -0.0
    flipped = complex(-amp.real if amp.real == 0 else amp.real, -amp.imag if amp.imag == 0 else amp.imag)
    for n in (1, 4, 17):
        for eta, theta in ((0.5, 0.0), (1.0, 0.0), (1.0, -0.0), (1.0, math.pi), (0.8, 1.3), (1e-30, -2.0)):
            ch = LossChannel(eta, theta)
            warm = FockKet({Occupation(n, 0, 0): flipped}, photon_cap=n)
            ket = FockKet({Occupation(n, 0, 0): amp}, photon_cap=n)
            assert _bits(apply_detector(warm, n, ch)) == _bits(_apply_detector_per_call(warm, n, ch))
            hits = _raising_image.cache_info().hits
            got = apply_detector(ket, n, ch)
            assert _raising_image.cache_info().hits == hits + 1
            assert _bits(got) == _bits(_apply_detector_per_call(ket, n, ch))


def test_lowering_components_before_the_source_keep_the_dict_order():
    # |n,0,0> is then summed into first and the image follows it
    n, ch = 5, LossChannel(0.6, 0.4)
    lowering = {Occupation(0, k, n - k): complex(0.1 * k + 0.05, -0.2) for k in (3, 0, 5)}
    ket = FockKet({**lowering, Occupation(n, 0, 0): complex(0.6, 0.1)}, photon_cap=n)
    for _ in range(2):
        got = apply_detector(ket, n, ch)
        assert _bits(got) == _bits(_apply_detector_per_call(ket, n, ch))
        assert list(got.amps)[0] == Occupation(n, 0, 0)
        assert list(got.amps)[1:] == [Occupation(0, k, n - k) for k in range(n + 1)]


def test_raising_image_terms_below_the_support_floor_are_pruned():
    # 1e-299 |n,0,0> at eta = 0.1: the raising terms with most quanta in b fall
    # below 1e-300 and are dropped, as by the per-call expansion
    n, ch = 6, LossChannel(0.1, 0.3)
    ket = FockKet({Occupation(n, 0, 0): complex(1e-299, 0.0)}, photon_cap=n)
    for _ in range(2):
        got = apply_detector(ket, n, ch)
        assert _bits(got) == _bits(_apply_detector_per_call(ket, n, ch))
        assert 0 < len(got.amps) < n + 1
        assert all(abs(amp) >= 1e-300 for amp in got.amps.values())
    # and the lowering sum into |n,0,0> keeps the same rule
    tiny = FockKet({Occupation(0, 1, n - 1): complex(1e-300, 0.0)}, photon_cap=n)
    assert apply_detector(tiny, n, ch).amps == {}


def test_oracle_moments_calls_the_module_global_detector_and_inner():
    # the benchmark's tracer wraps these by name among the module's globals
    with mock.patch.object(fock_oracle, "build_noon_input", wraps=build_noon_input) as build, \
            mock.patch.object(fock_oracle, "apply_detector", wraps=apply_detector) as detector, \
            mock.patch.object(fock_oracle, "inner", wraps=inner) as product:
        got = fock_oracle.oracle_moments(3, LossChannel(0.7, 0.2), 0.4)
    assert (build.call_count, detector.call_count, product.call_count) == (1, 1, 2)
    assert got == oracle_moments(3, LossChannel(0.7, 0.2), 0.4)


@pytest.mark.parametrize("wrap", [np.float64, np.array, lambda x: x])
def test_detector_memo_takes_any_real_channel_values(wrap):
    # a 0-d array is unhashable; the memo must still see the same floats
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


def test_oracle_built_kets_hold_occupations_of_int_within_the_cap():
    # these kets skip the public constructor's key checks, so their keys must be built right
    rng = random.Random(31)
    for n in (1, 2, 5, 17, MAX_PHOTONS):
        for eta in (1.0, 0.5, 1e-30, rng.uniform(0.01, 1.0)):
            ch = LossChannel(eta, rng.uniform(-math.pi, math.pi))
            noon = build_noon_input(n, rng.uniform(0.0, 7.0))
            kets = [noon] + [apply_detector(ket, n, ch, reflection_phase=rng.uniform(-4.0, 4.0))
                             for ket in (noon, _mixed_ket(rng, n), _random_ket(rng, n))]
            # the memoized NOON input is shared, so its mapping is read-only
            for ket, mapping in zip(kets, (MappingProxyType, dict, dict, dict)):
                assert type(ket.photon_cap) is int and ket.photon_cap == n
                assert type(ket.amps) is mapping and ket.amps
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
    """The NOON input built afresh through the public FockKet constructor: the
    build that the memo replaced, kept as the bit-for-bit reference."""
    n = operator.index(n)
    amp = 1.0 / math.sqrt(2.0)
    return FockKet({Occupation(n, 0, 0): complex(amp), Occupation(0, n, 0): cmath.exp(1j * n * phi) * amp}, n)


_rng = random.Random(17)
# (n, phi) and an "equal" twin that Python may key as the same entry
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
def test_memoized_noon_input_equals_a_fresh_build_bit_for_bit(key, twin):
    # each key is queried after its twin filled the memo, then again as a hit
    fock_oracle._noon_input.cache_clear()
    build_noon_input(*twin)
    for _ in range(2):
        got = build_noon_input(*key)
        want = _noon_input_per_call(*key)
        assert _bits(got) == _bits(want)
        assert got.photon_cap == want.photon_cap and type(got.photon_cap) is int
        assert all(type(x) is int for occ in got.amps for x in occ)


def test_numpy_scalar_phases_are_checked_as_python_floats():
    # numpy's scalar product overflowed with a RuntimeWarning before the check, an exception
    # under -W error; an int64 product wrapped, and an int N past int64 did not convert
    fock_oracle._noon_input.cache_clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for phi in (np.float64(1e308), np.float64(-1e308)):
            with pytest.raises(ValueError, match=re.escape("N*phi must be finite, got N = 2, phi = ")):
                build_noon_input(2, phi)
            with pytest.raises(ValueError, match=re.escape("N*phi must be finite")):
                oracle_moments(2, LossChannel(0.5), phi)
        for n, phi in ((2, np.int64(2 ** 62)), (3, np.int64(-2 ** 62)), (2 ** 70, np.int64(2))):
            assert _bits(build_noon_input(n, phi)) == _bits(_noon_input_per_call(n, phi))


def test_memoized_noon_input_is_read_only():
    # a caller that cleared the shared ket's dict emptied every later build of (2, 0.3)
    fock_oracle._noon_input.cache_clear()
    ket, want = build_noon_input(2, 0.3), _bits(_noon_input_per_call(2, 0.3))
    moments = oracle_moments(2, LossChannel(0.5), 0.3)
    with pytest.raises(AttributeError):
        ket.amps.clear()
    with pytest.raises(TypeError):
        ket.amps[Occupation(1, 1, 0)] = 1.0
    with pytest.raises(TypeError):
        del ket.amps[Occupation(2, 0, 0)]
    assert build_noon_input(2, 0.3) is ket and _bits(ket) == want
    assert oracle_moments(2, LossChannel(0.5), 0.3) == moments


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
    fock_oracle._noon_input.cache_clear()
    for _ in range(3):
        with pytest.raises(ValueError, match=re.escape(message)):
            build_noon_input(n, phi)
        assert fock_oracle._noon_input.cache_info().currsize == 0


def test_noon_input_memo_stays_within_its_bound():
    bound = fock_oracle._noon_input.cache_info().maxsize
    assert bound == 32
    for n in (1, 2, 40):
        for k in range(bound + 40):
            phi = 0.1 * k
            assert _bits(build_noon_input(n, phi)) == _bits(_noon_input_per_call(n, phi))
            assert fock_oracle._noon_input.cache_info().currsize <= bound


def test_each_verify_pass_takes_the_same_noon_input_misses():
    # a pass starts cold at N = 1 whatever an earlier pass left: an unbounded
    # memo, or one keyed without N, would let the second pass miss less often
    fock_oracle._noon_input.cache_clear()
    counts = []
    for _ in range(2):
        before = fock_oracle._noon_input.cache_info()
        assert cli.run_verification(64, "dense", 5) == (5.806466418789569e-14, 12608)
        after = fock_oracle._noon_input.cache_info()
        counts.append((after.hits - before.hits, after.misses - before.misses))
    assert counts == [(11264, 1344)] * 2
