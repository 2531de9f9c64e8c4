"""Brute-force Fock-basis engine for the lossy NOON detection observable.

States live in an explicit three-mode occupation basis: signal mode ``a``,
detected mode ``b``, and the loss port ``V`` of the beam splitter that
models the loss.  The detection operator is applied by expanding the
beam-splitter ladder polynomials term by term.  The channel-free part of
each term, the keys |0,k,N-k> and binomial times factorial weight, is N's
ladder row; one channel's terms, that row times powers of t and r, make up
its detector.  Each public function builds these on every call, but
:func:`verify_moments`, the oracle side of a verify pass, reuses them and
the NOON kets across the pass.  The kets built here, the NOON input and
each detector output, skip the public :class:`FockKet` constructor's key
checks, as their keys are ``Occupation``s of ints within the cap by
construction; every amplitude they hold has passed the amplitude checks.
Nothing here uses the closed-form moment formulas from
:mod:`noonloss.analytics`; this module exists to check them.
"""

import cmath
import math
import operator
from array import array
from dataclasses import dataclass
from math import comb
from typing import NamedTuple

from .analytics import _N_MAX, LossChannel, _float_range, _int_text

__all__ = [
    "MAX_PHOTONS",
    "Occupation",
    "FockKet",
    "build_noon_input",
    "apply_detector",
    "inner",
    "oracle_moments",
    "verify_moments",
]

# Exact integer binomials stay cheap and float-convertible up to here, and
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
    if n_a < 0 or n_b < 0 or n_v < 0 or n_a + n_b + n_v > cap:
        # each field through _int_text, as an int's digits can pass the int-to-str limit
        shown = "Occupation(" + ", ".join(f"{name}={_int_text(value)}" for name, value in zip(occ._fields, occ)) + ")"
        if min(occ) < 0:
            raise ValueError(f"negative occupation {shown}")
        raise ValueError(f"occupation {shown} exceeds photon cap {_int_text(cap)}")
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
        if _SUPPORT_EPS <= mag <= _N_MAX:
            kept[occ] = amp
        elif _N_MAX < mag < math.inf:  # an int modulus past DBL_MAX, which compares below inf
            raise ValueError(f"amplitude of {occ} has a modulus past the float range, got {_int_text(amp)}")
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
            raise ValueError(f"photon_cap must be >= 0, got {_int_text(cap)}")
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


# the amplitude of |N,0,0> in every NOON input, and the modulus of |0,N,0>'s
_NOON_AMP = complex(1.0 / math.sqrt(2.0))


def build_noon_input(n: int, phi: float) -> FockKet:
    """NOON state with phase phi in mode b and vacuum in the loss port.

    (|N,0,0> + e**(i N phi) |0,N,0>) / sqrt(2)
    """
    n = operator.index(n)
    if n < 1:
        raise ValueError("a NOON probe needs at least one photon")
    # past DBL_MAX, n * phi is an OverflowError
    _float_range(n, "photon number")
    try:
        # a numpy scalar phase is taken as a Python float, and the phase factor
        # is formed from this checked product: numpy's own product would
        # overflow with a RuntimeWarning (as complex64 for a float32 phase) or
        # wrap in int64
        angle = n * (phi if type(phi) is int else float(phi))
        finite = math.isfinite(angle)
    except OverflowError:  # an int phase whose product with N passes DBL_MAX
        finite = False
    if not finite:
        raise ValueError(f"N*phi must be finite, got N = {n}, phi = {_int_text(phi)}")
    return FockKet._of_checked_entries(
        _checked_amplitudes((
            (Occupation(n, 0, 0), _NOON_AMP),
            (Occupation(0, n, 0), cmath.exp(1j * angle) * _NOON_AMP.real),
        )),
        n,
    )


def _ladder_row(n: int) -> tuple[tuple[Occupation, float], ...]:
    """The channel-free part of every term of an n-quantum ladder expansion:
    the pairs (Occupation(0, k, n - k), comb(n, k) * sqrt(k! (n-k)! / n!))
    for k = 0..n.  Python rounds an int quotient correctly, so
    1 / comb(n, k) has the bits of the factorial quotient."""
    return tuple((Occupation(0, k, n - k), comb(n, k) * math.sqrt(1 / comb(n, k))) for k in range(n + 1))


def _channel_powers(ch: LossChannel, m: int, reflection_phase: float = math.pi / 2) -> tuple[list[complex], ...]:
    """The lists t*^k, r*^k, t^k and r^k for k = 0..m of ``ch``'s beam-splitter
    amplitudes, which serve its detector at every n <= m.  Each entry is
    formed by ``**``, as a running product would round differently."""
    # chained, as float() overflows for an int past DBL_MAX
    if not -_N_MAX <= reflection_phase <= _N_MAX:
        raise ValueError(f"reflection_phase must be finite, got {_int_text(reflection_phase)}")
    # float() computes in plain floats whatever number types the channel holds
    eta = float(ch.eta)
    t = cmath.rect(math.sqrt(eta), float(ch.theta_t))
    r = cmath.rect(math.sqrt(1.0 - eta), float(reflection_phase))
    return tuple([z ** k for k in range(m + 1)] for z in (t.conjugate(), r.conjugate(), t, r))


class _Detector(NamedTuple):
    """The n-photon detector of one channel."""

    top: Occupation                                  # |n,0,0>
    raising: tuple[tuple[Occupation, complex], ...]  # (|0,k,n-k>, coefficient), zero coefficients left out
    row: tuple[tuple[Occupation, float], ...]        # n's ladder row, whose weights the lowering branch takes
    t: list[complex]                                 # t^k for k = 0..n at least, as _channel_powers forms them
    r: list[complex]                                 # r^k likewise
    noon_image: dict[Occupation, complex]            # the raising image of a NOON input's |n,0,0>
    noon_norm: complex                               # _self_product of noon_image's amplitudes


def _raising_image(raising, amp: complex) -> dict[Occupation, complex]:
    """The raising branch's image of ``amp`` |n,0,0>, as the amplitude rule keeps it."""
    return _checked_amplitudes((key, 0j + amp * coeff) for key, coeff in raising)


def _channel_detector(n: int, ch: LossChannel, row: tuple, powers: tuple) -> _Detector:
    """The n-photon detector of ``ch`` (see :func:`apply_detector`) from n's
    ladder ``row`` and the channel's ``_channel_powers`` up to n or more, for
    an int ``n`` in [1, MAX_PHOTONS]; the lowering coefficients are left to
    :func:`apply_detector`, as a NOON input meets only one of them."""
    tc, rc, t, r = powers
    raising = tuple((key, coeff) for k, (key, weight) in enumerate(row)
                    if (coeff := weight * tc[k] * rc[n - k]) != 0)
    noon_image = _raising_image(raising, _NOON_AMP)
    return _Detector(Occupation(n, 0, 0), raising, row, t, r, noon_image, _self_product(noon_image.values()))


def apply_detector(ket: FockKet, n: int, ch: LossChannel, *, reflection_phase: float = math.pi / 2,
                   _detector: _Detector | None = None) -> FockKet:
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

    ``_detector``, private, is this detector as :func:`verify_moments`
    builds it once per channel and N; without it, it is built here.
    """
    n = operator.index(n)
    if not 1 <= n <= MAX_PHOTONS:
        raise ValueError(f"detector photon number must be in [1, {MAX_PHOTONS}], got {_int_text(n)}")
    for occ in ket.amps:
        # Occupation.total written out, without a property call per component
        if occ[0] + occ[1] + occ[2] > n:
            raise ValueError(f"ket component {occ} holds more than {n} photons")
    detector = _detector or _channel_detector(n, ch, _ladder_row(n), _channel_powers(ch, n, reflection_phase))
    top, raising, row, t, r, noon_image, _ = detector

    out: dict[Occupation, complex] = {}
    for occ, amp in ket.amps.items():
        if occ == top:
            # raising branch: k quanta into b, n - k into the loss port, each
            # key written once, so its checked image is copied whole.  An
            # amplitude equal to a NOON input's takes that image: a -0.0 part
            # can change only a zero part of a product, which 0j + makes +0.0
            out.update(noon_image if amp == _NOON_AMP else _raising_image(raising, amp))
        elif occ.n_a == 0 and occ.n_b + occ.n_v == n:
            # lowering branch: only the term annihilating exactly n_b quanta
            # from b and n_v from V survives the vacuum projector
            k = occ.n_b
            coeff = row[k][1] * t[k] * r[n - k]
            if coeff != 0:
                out[top] = out.get(top, 0j) + amp * coeff
    # the one amplitude summed here, the lowering sum, takes the amplitude rule:
    # a modulus in range keeps it, and any other goes to _checked_amplitudes,
    # which drops it below 1e-300 and raises the rule's ValueError otherwise
    if top in out:
        try:
            kept = _SUPPORT_EPS <= abs(out[top]) < math.inf
        except OverflowError:  # finite parts whose modulus passes DBL_MAX
            kept = False
        if not kept and not _checked_amplitudes(((top, out[top]),)):
            del out[top]
    return FockKet._of_checked_entries(out, n)


def _self_product(amps) -> complex:
    """0j plus conj(a) * a for each of ``amps`` in turn: <x|x> as :func:`inner` adds it."""
    total = 0j
    for amp in amps:
        total += amp.conjugate() * amp
    return total


def inner(x: FockKet, y: FockKet) -> complex:
    """<x|y> over the shared support.

    Each term conj(x) * y is added to a total that starts at 0j, in the order
    of ``x``'s entries, with one complex ``+``: the order and the operations
    of the ``sum(<terms>, start=0j)`` that these loops replaced, so the bits
    are its bits, without a generator step per entry."""
    if x is y:
        # the general sum below, without a lookup per entry
        return _self_product(x.amps.values())
    if len(x.amps) > len(y.amps):
        return inner(y, x).conjugate()
    y_amps = y.amps
    total = 0j
    for occ, amp in x.amps.items():
        if occ in y_amps:
            total += amp.conjugate() * y_amps[occ]
    return total


def oracle_moments(n: int, ch: LossChannel, phi: float, *,
                   reflection_phase: float = math.pi / 2) -> tuple[float, float]:
    """Mean and variance of the detection operator, from state vectors alone;
    the second moment uses Hermiticity: <A'^2> = ||A' psi||^2."""
    psi = build_noon_input(n, phi)
    a_psi = apply_detector(psi, n, ch, reflection_phase=reflection_phase)
    mean = inner(psi, a_psi).real
    return mean, inner(a_psi, a_psi).real - mean * mean


def verify_moments(max_n: int, channels, phases, drawn) -> tuple[list, array, array]:
    """The oracle moments of a verify pass, each with the bits of its
    :func:`oracle_moments` call: at each N = 1..``max_n``, each of
    ``channels`` at each of ``phases``, then each of ``drawn[N - 1]``'s
    (channel, phi) cases.  Returns a record (N, channel, its phases) per
    channel or case, and the means and variances of their points, in that
    order, as two ``array('d')``s.

    Powers of t and r are formed once per channel, the ladder row once per
    N, a detector once per channel and N, and a NOON ket once per phase and
    N.  The second moment is the detector's NOON-image norm plus the term of
    the lowering amplitude at |N,0,0> when it is kept: the additions of
    ``inner(a_psi, a_psi)``, whose A psi holds the image first and that
    amplitude last.  ``build_noon_input``, ``apply_detector`` and ``inner``
    are called through the module's globals.
    """
    if not 1 <= max_n <= MAX_PHOTONS:
        raise ValueError(f"max_n must be in [1, {MAX_PHOTONS}], got {_int_text(max_n)}")
    if len(drawn) != max_n:
        raise ValueError(f"drawn must hold one sequence of cases per N, got {len(drawn)} for max_n = {max_n}")
    grid = [(ch, phases, _channel_powers(ch, max_n)) for ch in channels]
    records, means, variances = [], array("d"), array("d")
    for n in range(1, max_n + 1):
        row, kets = _ladder_row(n), {}
        for ch, channel_phases, powers in grid + [(ch, (phi,), _channel_powers(ch, n)) for ch, phi in drawn[n - 1]]:
            detector = _channel_detector(n, ch, row, powers)
            for phi in channel_phases:
                if (psi := kets.get(phi)) is None:
                    psi = kets[phi] = build_noon_input(n, phi)
                a_psi = apply_detector(psi, n, ch, _detector=detector)
                mean = inner(psi, a_psi).real
                norm = detector.noon_norm
                if (lowered := a_psi.amps.get(detector.top)) is not None:
                    norm += lowered.conjugate() * lowered
                means.append(mean)
                variances.append(norm.real - mean * mean)
            records.append((n, ch, channel_phases))
    return records, means, variances
