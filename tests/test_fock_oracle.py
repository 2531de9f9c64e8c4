import cmath
import math
import random
import re

import numpy as np
import pytest

from noonloss import analytics
from noonloss.analytics import LossChannel, NoonProbe
from noonloss.fock_oracle import (
    MAX_PHOTONS,
    FockKet,
    Occupation,
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
