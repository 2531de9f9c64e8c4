"""Brute-force Fock-basis engine for the lossy NOON detection observable.

States live in an explicit three-mode occupation basis: signal mode ``a``,
detected mode ``b``, and the loss port ``V`` of the beam splitter that
models the loss.  The NOON input is memoized on (N, phi) and the type of
phi, in a memo bounded to 32 entries, room for the phases of one N, which a
verify pass revisits at every channel.  The detection operator is applied by
expanding the beam-splitter ladder polynomials term by term.  The
channel-free part of each term, binomial times factorial weight from exact
integers, is tabulated once per photon number and memoized, together with
that N's keys |N,0,0> and |0,k,N-k>.  The channel's terms, that table times
powers of t and r, are computed once per channel and kept in a small bounded
memo, so the phases that share one channel reuse them.  The raising branch's
image of |N,0,0> depends on the channel and that one amplitude only, which
is 1/sqrt(2) for every NOON input, so it too is kept in a small bounded
memo, after the amplitude checks; each call copies it and forms only the
lowering sum into |N,0,0>.  The kets built here, the NOON input and each
detector output, skip the public :class:`FockKet` constructor's key checks,
as their keys are ``Occupation``s of ints within the cap by construction;
every amplitude they hold has passed the amplitude checks.  Nothing here
uses the closed-form moment formulas from :mod:`noonloss.analytics`; this
module exists to check them.
"""

import cmath
import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial
from types import MappingProxyType
from typing import NamedTuple

from .analytics import LossChannel, _float_range, _int_text

__all__ = [
    "MAX_PHOTONS",
    "Occupation",
    "FockKet",
    "build_noon_input",
    "apply_detector",
    "inner",
    "oracle_moments",
]

# Exact integer factorials stay cheap and float-convertible up to here, and
# the oracle is only ever needed at modest photon numbers.
MAX_PHOTONS = 64

# Amplitudes below this magnitude are dropped to keep the support finite.
_SUPPORT_EPS = 1e-300


class Occupation(NamedTuple):
    n_a: int
    n_b: int
    n_v: int

    @property
    def total(self) -> int:
        return self.n_a + self.n_b + self.n_v


def _checked_key(occ, cap: int) -> Occupation:
    """``occ`` as an Occupation of ints, or a ValueError if it is negative or past ``cap``."""
    # an Occupation of exact ints is kept as is
    if type(occ) is not Occupation or not (type(occ[0]) is type(occ[1]) is type(occ[2]) is int):
        occ = Occupation(*map(operator.index, occ))
    n_a, n_b, n_v = occ
    if n_a < 0 or n_b < 0 or n_v < 0:
        raise ValueError(f"negative occupation {occ}")
    if n_a + n_b + n_v > cap:
        raise ValueError(f"occupation {occ} exceeds photon cap {cap}")
    return occ


def _checked_amplitudes(pairs) -> dict:
    """The amplitude rule of every ket (see :class:`FockKet`): a dict of the
    ``(occupation, amplitude)`` pairs it keeps, amplitudes as given."""
    kept = {}
    for occ, amp in pairs:
        try:
            mag = abs(amp)
        except OverflowError:  # finite components whose modulus passes DBL_MAX
            raise ValueError(f"amplitude of {occ} has a modulus past the float range, got {amp!r}") from None
        if _SUPPORT_EPS <= mag < math.inf:
            kept[occ] = amp
        elif not mag < _SUPPORT_EPS:  # NaN or infinite
            raise ValueError(f"amplitude of {occ} must be finite, got {amp!r}")
    return kept


@dataclass(frozen=True)
class FockKet:
    """Finite superposition of three-mode occupation states.

    ``amps`` maps :class:`Occupation` to a complex amplitude; every key must
    respect ``photon_cap``.  Kets are treated as immutable once built.
    Physically prepared states are normalized; unnormalized kets appear only
    as results of operator application.

    The constructor converts each key to an ``Occupation`` of ints and checks
    it against the cap; the kets of :func:`build_noon_input` and
    :func:`apply_detector` skip that, as their keys are built so.  Every
    amplitude of every ket passes the amplitude checks: a NaN or infinite
    amplitude, or one whose modulus passes DBL_MAX, is a ValueError, and
    finite amplitudes below 1e-300 are dropped.
    """

    amps: dict[Occupation, complex]
    photon_cap: int

    def __post_init__(self) -> None:
        cap = operator.index(self.photon_cap)
        if cap < 0:
            raise ValueError(f"photon_cap must be >= 0, got {cap}")
        # each key is checked just before its amplitude, so the first bad entry
        # names the error; complex() comes after, so messages show amplitudes as given
        kept = _checked_amplitudes((_checked_key(occ, cap), amp) for occ, amp in self.amps.items())
        object.__setattr__(self, "amps", {occ: complex(amp) for occ, amp in kept.items()})
        object.__setattr__(self, "photon_cap", cap)

    @classmethod
    def _of_checked_entries(cls, amps: dict[Occupation, complex], cap: int) -> "FockKet":
        """A ket that checks nothing: the keys of ``amps`` are already
        ``Occupation``s of ints within ``cap``, an int, and its amplitudes
        complex and kept by the amplitude rule."""
        ket = object.__new__(cls)
        object.__setattr__(ket, "amps", amps)
        object.__setattr__(ket, "photon_cap", cap)
        return ket

    def norm_squared(self) -> float:
        # abs(a) ** 2 raises OverflowError past about 1.3e154; this reads inf
        return sum(a.real * a.real + a.imag * a.imag for a in self.amps.values())


def build_noon_input(n: int, phi: float) -> FockKet:
    """NOON state with phase phi in mode b and vacuum in the loss port.

    (|N,0,0> + e**(i N phi) |0,N,0>) / sqrt(2)

    The ket is memoized (see :func:`_noon_input`) and shared between calls,
    so its ``amps`` is a read-only mapping.
    """
    return _noon_input(operator.index(n), phi)


@lru_cache(maxsize=32, typed=True)
def _noon_input(n: int, phi: float) -> FockKet:
    """:func:`build_noon_input` at an int ``n``, checked and built on a memo
    miss only: a bad input raises on every call and is never stored.

    A verify pass runs N in the outer loop and asks for each N's 16 dense
    grid phases once per channel, 12 channels in a row, then for 5 seeded
    phases once each.  Measured over a dense pass to N = 64 at seed 5, a
    bound of 16 keeps all 11,264 hits (1,344 misses) and a bound of 15 none,
    as each phase is then evicted just before its next use; 32 leaves room
    for all 21 phases of one N.  N is in the key, so a pass starts cold at
    N = 1 and never reuses an earlier pass's kets.  ``typed`` keeps ints,
    floats and numpy scalars of one value apart; within one type only +0.0
    and -0.0 are equal with different bits, and they build the same ket bit
    for bit."""
    if n < 1:
        raise ValueError("a NOON probe needs at least one photon")
    # past DBL_MAX, n * phi is an OverflowError
    _float_range(n, "photon number")
    try:
        # a numpy scalar phase is checked as a Python float, the factor that
        # 1j * n * phi multiplies by: numpy's own product would overflow with a
        # RuntimeWarning before the check, or wrap in int64
        finite = math.isfinite(n * (phi if type(phi) is int else float(phi)))
    except OverflowError:  # an int phase whose product with N passes DBL_MAX
        finite = False
    if not finite:
        raise ValueError(f"N*phi must be finite, got N = {n}, phi = {_int_text(phi)}")
    amp = 1.0 / math.sqrt(2.0)
    # read-only, as every caller shares it
    return FockKet._of_checked_entries(
        MappingProxyType(_checked_amplitudes((
            (Occupation(n, 0, 0), complex(amp)),
            (Occupation(0, n, 0), cmath.exp(1j * n * phi) * amp),
        ))),
        n,
    )


class _LadderTable(NamedTuple):
    """The channel-free part of the n-photon detector."""

    top: Occupation                      # |n,0,0>
    raising_keys: tuple[Occupation, ...]  # Occupation(0, k, n - k) for k = 0..n
    coefficients: tuple[float, ...]      # comb(n, k) * sqrt(k! (n-k)! / n!) for k = 0..n


@lru_cache(maxsize=None)
def _ladder_table(n: int) -> _LadderTable:
    """The keys and the ladder coefficients, the channel-free part of every
    term of an n-quantum ladder expansion.  Callers check
    1 <= n <= MAX_PHOTONS first, so the cache holds at most MAX_PHOTONS tables."""
    return _LadderTable(
        Occupation(n, 0, 0),
        tuple(Occupation(0, k, n - k) for k in range(n + 1)),
        tuple(comb(n, k) * math.sqrt(factorial(k) * factorial(n - k) / factorial(n)) for k in range(n + 1)),
    )


@lru_cache(maxsize=64)
def _detector_terms(n: int, eta: float, theta_t: float,
                    reflection_phase: float) -> tuple[tuple[tuple[Occupation, complex], ...], tuple[complex, ...]]:
    """The channel's terms of the n-photon detector: the raising branch as
    (Occupation(0, k, n - k), coefficient) pairs with the zero coefficients
    left out, and the lowering coefficient for each k = 0..n.  A verify pass
    visits each channel for all its phases in a row, so a small bound keeps
    every hit.  A non-finite reflection phase is a ValueError, checked here
    so that only a memo miss pays for it."""
    if not math.isfinite(reflection_phase):
        raise ValueError(f"reflection_phase must be finite, got {reflection_phase!r}")
    t = cmath.rect(math.sqrt(eta), theta_t)
    r = cmath.rect(math.sqrt(1.0 - eta), reflection_phase)
    tc, rc = t.conjugate(), r.conjugate()
    _, keys, ladder = _ladder_table(n)
    raising = tuple((key, coeff) for k, key in enumerate(keys)
                    if (coeff := ladder[k] * tc ** k * rc ** (n - k)) != 0)
    lowering = tuple(ladder[k] * t ** k * r ** (n - k) for k in range(n + 1))
    return raising, lowering


@lru_cache(maxsize=64)
def _raising_image(n: int, eta: float, theta_t: float, reflection_phase: float,
                   amp: complex) -> dict[Occupation, complex]:
    """The raising branch's image of ``amp`` |n,0,0>, as the amplitude rule
    keeps it.  Keyed like :func:`_detector_terms` plus the amplitude, which is
    the same for every NOON input, so a verify pass hits it at every phase
    of a channel.  Complex keys are equal only where their parts are, and a
    signed zero in ``amp`` can change only a zero part of a product, which
    ``0j +`` makes +0.0, so each entry holds the bits that a fresh sum would.
    Callers only copy the dict; it is never handed out."""
    raising, _ = _detector_terms(n, eta, theta_t, reflection_phase)
    return _checked_amplitudes((key, 0j + amp * coeff) for key, coeff in raising)


def apply_detector(ket: FockKet, n: int, ch: LossChannel, *, reflection_phase: float = math.pi / 2) -> FockKet:
    """Apply the lossy N-photon detection operator to ``ket``.

    The operator couples |N,0,0> with the beam-splitter image of |0,N,0>:
    a raising branch creates (t* b^dag + r* V^dag)**N on the emptied modes
    after projecting onto <N,0|, and the Hermitian-conjugate lowering branch
    annihilates (t b + r V)**N before projecting onto <0,0|.  Both carry the
    1/sqrt(N!) normalization of the N-quantum mode states.

    ``reflection_phase`` fixes arg(r); it never affects measured moments
    because the loss port starts in vacuum, and tests assert exactly that.
    The result is generally not normalized.  Raises if the ket holds more
    than ``n`` photons in any component.
    """
    n = operator.index(n)
    if not 1 <= n <= MAX_PHOTONS:
        raise ValueError(f"detector photon number must be in [1, {MAX_PHOTONS}], got {n}")
    for occ in ket.amps:
        if occ.total > n:
            raise ValueError(f"ket component {occ} holds more than {n} photons")

    # float() keys the memos on plain floats whatever number types the channel holds
    channel = (n, float(ch.eta), float(ch.theta_t), float(reflection_phase))
    _, lowering = _detector_terms(*channel)

    top = _ladder_table(n).top
    out: dict[Occupation, complex] = {}
    for occ, amp in ket.amps.items():
        if occ == top:
            # raising branch: k quanta into b, n - k into the loss port, each
            # key written once, so its checked image is copied whole
            out.update(_raising_image(*channel, amp))
        elif occ.n_a == 0 and occ.n_b + occ.n_v == n:
            # lowering branch: only the term annihilating exactly n_b quanta
            # from b and n_v from V survives the vacuum projector
            coeff = lowering[occ.n_b]
            if coeff != 0:
                out[top] = out.get(top, 0j) + amp * coeff
    # the one amplitude summed here, the lowering sum, takes the amplitude rule
    if top in out and not _checked_amplitudes(((top, out[top]),)):
        del out[top]
    return FockKet._of_checked_entries(out, n)


def inner(x: FockKet, y: FockKet) -> complex:
    """<x|y> over the shared support."""
    if x is y:
        # the general sum below in the same order, without a lookup per entry
        # or a generator step
        amps = x.amps.values()
        return sum(map(operator.mul, map(complex.conjugate, amps), amps), start=0j)
    if len(x.amps) > len(y.amps):
        return inner(y, x).conjugate()
    return sum(
        (amp.conjugate() * y.amps[occ] for occ, amp in x.amps.items() if occ in y.amps),
        start=0j,
    )


def oracle_moments(n: int, ch: LossChannel, phi: float, *, reflection_phase: float = math.pi / 2) -> tuple[float, float]:
    """Mean and variance of the detection operator, from state vectors alone.

    The second moment uses Hermiticity: <A'^2> = ||A' psi||^2.
    """
    psi = build_noon_input(n, phi)
    a_psi = apply_detector(psi, n, ch, reflection_phase=reflection_phase)
    mean = inner(psi, a_psi).real
    second_moment = inner(a_psi, a_psi).real
    return mean, second_moment - mean * mean
