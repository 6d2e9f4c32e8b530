"""Weak-coherent BB84 link simulation at pulse-slot granularity.

Models one fiber link end to end: Poisson photon source, channel and
insertion loss, an optional eavesdropper, gated detectors with dark counts
and dead time, and interferometer phase drift with training-frame feedback.

:func:`sample_link_window` is the one link sampler, for every attacker. It
draws click slots directly, via the renewal structure of the gated-detector
process, so cost scales with the number of clicks instead of the number of
slots, for every attacker. Without the photon-number-splitting attacker
every gate of a link has one click law, :attr:`LinkParams.click_law`,
which the link computes once and caches. Behind her it walks from click
to click over the photons her loss budget lets through and the dark
counts, and draws what she learned (``eve_tally``) at the law's level.
A click's one uniform picks its class and a signal event's flip, and all
the bits the clicks need (bases, values, the intercept-resend attacker's
basis and guess) come from one bit draw. Only the flips depend on the
interferometer phase, so a :class:`WindowStream` draws windows ahead and
works out all but their flips, and each call takes the next slots of the
current window and finishes them at its own phase: a round's training
frame and data window are two consecutive pieces of one window. A plain
seed or generator is a stream of one window.
The generator calls and their order, and so a stream's window count, are
part of the byte-identical-records contract (see its docstring), and a
change of attacker discards the windows a stream has drawn. A per-slot
frame simulation of the same law is kept in the test suite as its
declared statistical oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from itertools import accumulate, pairwise
from typing import NamedTuple, Optional

import numpy as np

from .bits import random_bits
from .errors import refuse_assignment

__all__ = [
    "LinkParams",
    "ClickLaw",
    "DetectionRecord",
    "EveKind",
    "EveTally",
    "EveModel",
    "PhaseState",
    "signal_click_probability",
    "sifted_error_floor",
    "phase_error_rate",
    "wrap_phase",
    "WindowStream",
    "sample_link_window",
    "advance_phase",
    "apply_training_feedback",
]

# Slot numbers are int64, which a 1e20 Hz gate rate overflows within a
# window. 1 GHz covers the fastest gated detectors, and no detector is
# dead for a second. Weak-coherent sources run below 10 photons a pulse;
# 100 keeps the photon-number splitter's draws well inside their numerics.
MAX_PULSE_RATE_HZ = 1e9
MAX_DEAD_TIME_S = 1.0
MAX_MEAN_PHOTON_NUMBER = 100.0


class ClickLaw(NamedTuple):
    """One gate's click law on a link with no attacker.

    ``q`` is the chance the gate clicks at all. A click is a signal event
    (a photon is detected and the other detector stays dark), a dark event
    (no photon, exactly one detector darks) or a double, in that order of
    its class uniform on [0, q).
    """

    q: float               # the gate clicks: signal, dark or double
    p_signal_event: float  # kept as a signal event
    p_dark_event: float    # kept as a dark event


@dataclass(frozen=True)
class LinkParams:
    """Physical parameters of one weak-coherent QKD link.

    Defaults describe a 5 MHz gated system; detector constants are
    calibration knobs, overridable per link in the topology. The derived
    :attr:`click_law` and :attr:`dead_slots` are computed on first use and
    cached on the instance; ``dataclasses.replace`` builds a new instance,
    which derives its own.
    """

    pulse_rate_hz: float = 5e6
    mean_photon_number: float = 0.5
    channel_loss_db: float = 0.0
    insertion_loss_db: float = 0.0
    detector_efficiency: float = 0.10
    dark_count_prob: float = 1e-5
    dead_time_s: float = 1e-5
    intrinsic_error: float = 0.02

    def __post_init__(self):
        # Each check fails on NaN. The one infinity allowed is a loss: a
        # dark fiber, whose transmittance is 0.
        if not 0 < self.pulse_rate_hz <= MAX_PULSE_RATE_HZ:
            raise ValueError(f"pulse_rate_hz must be in (0, {MAX_PULSE_RATE_HZ:g}]")
        if not 0 <= self.mean_photon_number <= MAX_MEAN_PHOTON_NUMBER:
            raise ValueError(
                f"mean_photon_number must be in [0, {MAX_MEAN_PHOTON_NUMBER:g}]")
        if not (self.channel_loss_db >= 0 and self.insertion_loss_db >= 0):
            raise ValueError("losses must be non-negative")
        if not 0.0 <= self.detector_efficiency <= 1.0:
            raise ValueError("detector_efficiency must be in [0, 1]")
        if not 0.0 <= self.dark_count_prob <= 1.0:
            raise ValueError("dark_count_prob must be in [0, 1]")
        if not 0 <= self.dead_time_s <= MAX_DEAD_TIME_S:
            raise ValueError(f"dead_time_s must be in [0, {MAX_DEAD_TIME_S:g}]")
        if not 0.0 <= self.intrinsic_error <= 0.5:
            raise ValueError("intrinsic_error must be in [0, 0.5]")

    @property
    def total_loss_db(self) -> float:
        return self.channel_loss_db + self.insertion_loss_db

    @property
    def total_transmittance(self) -> float:
        """Power transmittance of fiber plus photonic-path insertion loss."""
        return 10.0 ** (-self.total_loss_db / 10.0)

    @cached_property
    def dead_slots(self) -> int:
        """Number of gate slots the detectors stay disabled after a click."""
        product = self.dead_time_s * self.pulse_rate_hz
        # Guard against float noise pushing an exact product over the ceiling.
        return int(math.ceil(product - 1e-9)) if product > 0 else 0

    @cached_property
    def click_law(self) -> ClickLaw:
        """The per-gate :class:`ClickLaw`, which every window of this link reads."""
        p_sig = signal_click_probability(self)
        d = self.dark_count_prob
        return ClickLaw(1.0 - (1.0 - p_sig) * (1.0 - d) ** 2, p_sig * (1.0 - d),
                        (1.0 - p_sig) * 2.0 * d * (1.0 - d))


class _DetectionFields(NamedTuple):
    frame_id: str
    slot_index: np.ndarray
    rx_basis: np.ndarray
    rx_value: np.ndarray
    is_dark: np.ndarray
    eve_tally: Optional["EveTally"] = None


class DetectionRecord(_DetectionFields):
    """Receiver-side click record for one window.

    ``is_dark`` and ``eve_tally`` are simulator-internal ground truth and
    must never be read by protocol layers (sifting sees only slot, basis,
    value). ``eve_tally`` is set behind the photon-number-splitting
    attacker only; behind no attacker or intercept-resend it is ``None``.
    The engine never reads it, and it is not written to the records.

    A validated named tuple: construction coerces the arrays to ``int64``,
    ``uint8``, ``uint8`` and ``bool`` and checks them, ``_replace`` goes
    through the same checks, and assignment raises
    ``dataclasses.FrozenInstanceError``.
    """

    __slots__ = ()
    __setattr__ = refuse_assignment

    def __new__(cls, frame_id: str, slot_index, rx_basis, rx_value, is_dark,
                eve_tally: Optional["EveTally"] = None) -> "DetectionRecord":
        slot_index = np.asarray(slot_index, dtype=np.int64)
        rx_basis = np.asarray(rx_basis, dtype=np.uint8)
        rx_value = np.asarray(rx_value, dtype=np.uint8)
        is_dark = np.asarray(is_dark, dtype=bool)
        n = slot_index.size
        if not n == rx_basis.size == rx_value.size == is_dark.size:
            sizes = (n, rx_basis.size, rx_value.size, is_dark.size)
            raise ValueError("slot_index, rx_basis, rx_value and is_dark must have equal "
                             f"lengths, got {', '.join(map(str, sizes))}")
        if n > 1 and not (slot_index[1:] > slot_index[:-1]).all():
            raise ValueError("slot_index must be strictly increasing")
        return tuple.__new__(cls, (frame_id, slot_index, rx_basis, rx_value, is_dark,
                                   eve_tally))

    @classmethod
    def _make(cls, iterable) -> "DetectionRecord":
        return cls(*iterable)

    @property
    def n_events(self) -> int:
        return int(self.slot_index.size)

    def min_gap(self) -> Optional[int]:
        if self.n_events < 2:
            return None
        return int(np.diff(self.slot_index).min())

    @classmethod
    def empty(cls, frame_id: str, eve_tally: Optional["EveTally"] = None
              ) -> "DetectionRecord":
        z = np.zeros(0, dtype=np.int64)
        return cls(frame_id, z, z.astype(np.uint8), z.astype(np.uint8), z.astype(bool),
                   eve_tally)


class EveKind(Enum):
    NONE = "none"
    INTERCEPT_RESEND = "intercept_resend"
    PHOTON_NUMBER_SPLIT = "photon_number_split"


@dataclass(frozen=True)
class EveTally:
    """What the photon-number-splitting attacker achieved on one window.

    ``multi_photon_emissions`` counts the pulses of two or more photons,
    ``learned_bits`` those of them she took a photon from (she learns each
    one's bit at basis announcement), and ``suppressed_singles`` the
    single-photon pulses she removed to spend her loss budget.
    """

    learned_bits: int = 0
    multi_photon_emissions: int = 0
    suppressed_singles: int = 0


@dataclass(frozen=True)
class EveModel:
    """Eavesdropper configuration attached to a link.

    ``intercept_fraction`` applies to the intercept-resend attacker only.
    What the photon-number-splitting attacker achieved on a window is the
    ``eve_tally`` of the :func:`sample_link_window` record that takes its
    last slot.
    """

    kind: EveKind = EveKind.NONE
    intercept_fraction: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.intercept_fraction <= 1.0:
            raise ValueError("intercept_fraction must be in [0, 1]")

    @classmethod
    def intercept_resend(cls, fraction: float = 1.0) -> "EveModel":
        return cls(kind=EveKind.INTERCEPT_RESEND, intercept_fraction=fraction)

    @classmethod
    def photon_number_split(cls) -> "EveModel":
        return cls(kind=EveKind.PHOTON_NUMBER_SPLIT)


def wrap_phase(phi: float) -> float:
    """Wrap an angle to (-pi, pi]; in-range values pass through exactly."""
    if -math.pi < phi <= math.pi:
        return phi
    wrapped = math.pi - ((math.pi - phi) % (2.0 * math.pi))
    # The modulo rounds to 2pi just above pi, which would give -pi.
    return math.pi if wrapped == -math.pi else wrapped


@dataclass(frozen=True)
class PhaseState:
    """Interferometer phase mismatch and the feedback controller's state.

    The probe fields carry the two-sided sign probe across feedback calls:
    a fresh correction is applied tentatively, the next training reading
    decides whether to keep it or swing the other way.
    """

    phase_error_rad: float = 0.0
    drift_rate_rad_per_s: float = 0.0
    feedback_gain: float = 0.5
    probe_correction: Optional[float] = None
    probe_reference_qber: float = 0.0
    preferred_sign: int = 1

    def __post_init__(self):
        probe = 0.0 if self.probe_correction is None else self.probe_correction
        if not all(map(math.isfinite, (self.phase_error_rad, self.drift_rate_rad_per_s,
                                       probe, self.probe_reference_qber))):
            raise ValueError("phase state values must be finite")
        if not 0.0 < self.feedback_gain <= 1.0:
            raise ValueError("feedback_gain must be in (0, 1]")
        if self.drift_rate_rad_per_s < 0:
            raise ValueError("drift_rate_rad_per_s must be non-negative")
        object.__setattr__(self, "phase_error_rad", wrap_phase(self.phase_error_rad))


def phase_error_rate(phase_error_rad: float) -> float:
    """QBER contribution of an interferometer phase offset."""
    return (1.0 - math.cos(phase_error_rad)) / 2.0


def signal_click_probability(params: LinkParams) -> float:
    """Per-gate probability that at least one signal photon is detected."""
    mu_eff = (params.mean_photon_number * params.total_transmittance
              * params.detector_efficiency)
    return float(-np.expm1(-mu_eff))


def sifted_error_floor(params: LinkParams) -> float:
    """Expected sifted error rate at zero phase offset.

    Mixes the intrinsic misalignment floor on signal detections with the
    50% error rate of dark-count detections, weighted by each event type's
    share. Receivers subtract this floor from training readings so the
    phase feedback does not chase detector noise.
    """
    law = params.click_law
    p_signal_event, p_dark_event = law.p_signal_event, law.p_dark_event
    total = p_signal_event + p_dark_event
    if total <= 0.0:
        return params.intrinsic_error
    return (params.intrinsic_error * p_signal_event + 0.5 * p_dark_event) / total


def _renewal_slots(rng: np.random.Generator, q: float, dead: int, n_slots: int,
                   windows: int = 1) -> list[np.ndarray]:
    """Click slots of ``windows`` windows whose live gates each click with
    probability q, one array per window.

    Clicks form a renewal process: a geometric wait on live slots, which
    is ``floor(E / -log1p(-q)) + 1`` for a standard exponential E (1 at
    q = 1), then a dead window. One draw of ``windows`` first batches is
    read as one row per window; a row that does not cover its window
    draws further batches, row by row, until it does. The click count's
    variance is at most its mean, so a first batch four square roots of
    the mean past it rarely needs a second. Slots strictly increase, so
    the ones inside the window are a prefix.
    """
    expect = int(n_slots / (dead + 1.0 / q)) + 1
    margin = 4 * math.isqrt(expect) + 16
    rate = -math.log1p(-q) if q < 1.0 else math.inf

    def gaps(size: int) -> np.ndarray:
        """``size`` click gaps, dead window included."""
        e = rng.standard_exponential(size)
        e /= rate
        g = e.astype(np.int64)  # truncation, which is floor on e >= 0
        g += dead + 1
        return g

    batch = max(64, expect + margin)
    s = gaps(windows * batch).reshape(windows, batch)
    s.cumsum(axis=1, out=s)
    # A window starts at slot 0, so its first click waits no dead window.
    s -= dead + 1
    rows = []
    for row in s:
        inside = int(np.searchsorted(row, n_slots))
        parts = [row[:inside]]
        count = inside
        while inside == row.size:
            # The row's offset rides on the next batch's first gap.
            start = int(row[-1])
            row = gaps(max(64, expect - count + margin))
            row[0] += start
            row.cumsum(out=row)
            inside = int(np.searchsorted(row, n_slots))
            parts.append(row[:inside])
            count += inside
        rows.append(parts[0] if len(parts) == 1 else np.concatenate(parts))
    return rows


def _pns_tallies(rng: np.random.Generator, params: LinkParams, n_slots: int,
                 windows: int) -> list[EveTally]:
    """The photon-number splitter's :class:`EveTally` on each of
    ``windows`` windows, at the law's level: a multinomial of a window's
    pulses by photon number, then a binomial per class of the pulses her
    budget robs, a pulse of n photons with probability min(1, n (1 - t))."""
    mu = params.mean_photon_number
    n = np.arange(int(mu + 12.0 * math.sqrt(mu)) + 40)  # the last class takes the tail
    pmf = math.exp(-mu) * np.cumprod(np.append(1.0, mu / n[1:]))
    pmf[-1] = max(0.0, 1.0 - pmf[:-1].sum())
    counts = rng.multinomial(n_slots, pmf, size=windows)
    robbed = rng.binomial(counts, np.minimum(1.0, n * (1.0 - params.total_transmittance)))
    return [EveTally(int(r[2:].sum()), int(c[2:].sum()), int(r[1]))
            for r, c in zip(robbed, counts)]


def _pns_walk(rng: np.random.Generator, params: LinkParams, n_slots: int,
              windows: int) -> tuple[list[np.ndarray], np.ndarray]:
    """Click slots of ``windows`` windows behind the photon-number
    splitter, one array per window, and whether each click's slot holds a
    detected photon (else dark counts only).

    Her prefix-sum budget delivers emitted photon ``floor((j - 1) / t) + 1``
    as the j-th, and emission is a Poisson process of ``mu`` a slot. So
    from a live slot the next detected photon is geometric(eta) delivered
    photons on, a gamma of its emitted-photon step over ``mu`` slots later,
    and the next dark a geometric wait. The earlier one clicks and ``dead``
    slots go dead; a Poisson draw counts the photons emitted meanwhile, and
    a photon past a dark click's dead time stays pending. Each window, her
    budget too, starts fresh at slot 0."""
    mu, t, d = params.mean_photon_number, params.total_transmittance, params.dark_count_prob
    eta, p_dark = params.detector_efficiency, d * (2.0 - d)  # either detector darks
    photons = mu > 0.0 and t > 0.0 and eta > 0.0
    # Geometric waits, floor(E / rate) of an exponential E; none at rate 0.
    rates = np.array([[(-math.log1p(-eta) if eta < 1.0 else math.inf) if photons else 0.0],
                      [-math.log1p(-p_dark) if p_dark < 1.0 else math.inf]])
    batch = min(int(windows * n_slots * params.click_law.q) + 64, 1 << 16)
    gamma, poisson, floor, ceil = rng.standard_gamma, rng.poisson, math.floor, math.ceil
    rows, signal, hops, i = [], [], (), 0
    for _ in range(windows):
        slots, live, emitted, at = [], 0, 0, None if photons else math.inf
        while True:
            if i == len(hops):
                e = rng.standard_exponential((2, batch))
                e = np.divide(e, rates, out=np.full_like(e, math.inf), where=rates > 0.0)
                (hops, darks), i = np.floor(e).tolist(), 0
            if at is None:
                # Past the next delivered photon, hops[i] more go undetected.
                before = emitted * t
                step = floor((ceil(before) - before + hops[i]) / t) + 1
                at = live + gamma(step) / mu
                emitted += step
            dark = live + darks[i]
            i += 1
            lit = at < dark + 1.0
            click = floor(at) if lit else dark
            if click >= n_slots:
                break
            slots.append(click)
            signal.append(lit)
            live = int(click) + params.dead_slots + 1
            if at < live:
                # The photon clicked, or a dark count's dead time took it.
                emitted += int(poisson(mu * (live - at)))
                at = None
        rows.append(np.array(slots, dtype=np.int64))
    return rows, np.array(signal, dtype=bool)


class _Clicks(NamedTuple):
    """Kept clicks of one or more windows, worked out but for their flips.

    A signal event flips when its class uniform ``u`` is below the link's
    ``p_signal_event * perr``. A click's rx value is ``unflipped``, and
    ``unflipped ^ measured`` where it flips.
    """

    slots: np.ndarray
    u: np.ndarray
    tx_basis: np.ndarray
    tx_value: np.ndarray
    rx_basis: np.ndarray
    is_dark: np.ndarray
    measured: np.ndarray   # a signal event measured in its pulse's basis
    unflipped: np.ndarray  # the rx value, were no signal event to flip

    def cut(self, start: int, end: int) -> "_Clicks":
        return _Clicks(*(a[start:end] for a in self))


def _work_out(slots, u, bits, hit, p_signal_event, p_dark_event):
    """The kept clicks among drawn ones, and the indices kept (``None``
    when all are). ``hit`` is the intercept-resend hit mask, or ``None``."""
    # The classes are consecutive ranges of u, so a kept click that is not
    # a signal event is a dark one; the rest are doubles, dropped.
    is_signal = u < p_signal_event
    keep = u < p_signal_event + p_dark_event
    # One row per use; a click is never both wrong-basis and dark.
    tx_basis, tx_value, rx_basis, other_value = bits[:4]
    pulse_basis, pulse_value = tx_basis, tx_value
    if hit is not None:
        # Interception leaves the click law unchanged in this model, so it
        # conditions independently on each signal event.
        eve_basis, eve_guess = bits[4:]
        eve_value = np.where(eve_basis == pulse_basis, pulse_value, eve_guess)
        pulse_basis = np.where(hit, eve_basis, pulse_basis)
        pulse_value = np.where(hit, eve_value, pulse_value)
    # Selecting bits by a coin-toss condition is cheaper as an xor mask
    # than np.where; in place, on the other value's row:
    #   unflipped = other ^ (measured & (pulse_value ^ other))
    measured = rx_basis == pulse_basis
    measured &= is_signal
    mask = pulse_value ^ other_value
    mask &= measured
    unflipped = other_value
    unflipped ^= mask
    clicks = _Clicks(slots, u, tx_basis, tx_value, rx_basis, ~is_signal, measured, unflipped)
    if keep.all():
        return clicks, None
    kept = keep.nonzero()[0]
    return _Clicks(*(a[kept] for a in clicks)), kept


class WindowStream:
    """A session's source of link windows: a generator that draws windows
    of ``n_slots`` slots ahead, ``windows`` at a time, for every attacker.

    What a window draws does not depend on its phase: click slots, class
    uniforms, per-click bits, the intercept-resend hits and the
    photon-number splitter's tally. So :func:`sample_link_window` draws
    the windows in one set of generator calls (see its draw contract) and
    works them out, doubles dropped, but for their flips. Each call takes
    the next ``n_slots`` of the current window, rebased to start at slot
    0, and finishes them at its own phase; the window is done when its
    last slot is taken, and a call that asks past its end raises. Dead
    time runs across the pieces, as in one pulse train. A split window's
    ``eve_tally`` rides on the piece that takes its last slot, and the
    earlier pieces carry an empty one.

    Windows drawn for one link and attacker are discarded when a call comes
    for another. A plain seed or generator passed to :func:`sample_link_window`
    is a stream of one window.
    """

    def __init__(self, rng_seed, n_slots: int, windows: int = 1):
        if windows < 1:
            raise ValueError("a window stream draws at least one window at a time")
        self.rng = np.random.default_rng(rng_seed)
        self.n_slots = n_slots
        self.windows = windows
        self.discard()

    def discard(self):
        """Drop the windows drawn and not yet finished."""
        self._drawn: list = []  # each drawn window's (kept clicks, tally), the current one last
        self._drawn_for = None  # the (params, attacker) they were drawn for
        self._taken = 0  # slots of the current window already taken

    def _take(self, params: LinkParams, eve: Optional[EveModel],
              n_slots: int) -> tuple[_Clicks, Optional[EveTally]]:
        """The kept clicks of the current window's next ``n_slots``, and
        the tally their record carries."""
        if self._drawn_for != (params, eve):
            self.discard()
        start, end = self._taken, self._taken + n_slots
        if end > self.n_slots:
            raise ValueError(f"{n_slots} slots from slot {start} are longer than the rest "
                             f"of the stream's {self.n_slots}-slot window")
        if not self._drawn:
            self._draw(params, eve)
        clicks, tally = self._drawn.pop()
        if end < self.n_slots:
            cut = int(np.searchsorted(clicks.slots, end))
            self._drawn.append((clicks.cut(cut, clicks.slots.size), tally))
            clicks = clicks.cut(0, cut)
            if tally is not None:
                tally = EveTally()
        self._taken = end if end < self.n_slots else 0
        if start:
            clicks = clicks._replace(slots=clicks.slots - start)
        return clicks, tally

    def _draw(self, params: LinkParams, eve: Optional[EveModel]):
        rng, law = self.rng, params.click_law
        pns = eve is not None and eve.kind is EveKind.PHOTON_NUMBER_SPLIT
        if pns:
            tallies = _pns_tallies(rng, params, self.n_slots, self.windows)
            rows, signal = _pns_walk(rng, params, self.n_slots, self.windows)
        else:
            rows = _renewal_slots(rng, law.q, params.dead_slots, self.n_slots, self.windows)
            tallies = [None] * self.windows
        ends = list(accumulate(row.size for row in rows))
        slots = rows[0] if len(rows) == 1 else np.concatenate(rows)
        u = rng.random(ends[-1])
        if pns:
            # Her clicks on the link's own scale; a signal slot's double (the
            # other detector darks) and a dark slot's (both do) pass both.
            d, p_sig = params.dark_count_prob, signal_click_probability(params)
            dark = u * (d * (2.0 - d))  # uniform while either detector darks
            dark = np.where(dark < 2.0 * d * (1.0 - d), dark * (1.0 - p_sig), np.inf)
            u = np.where(signal, np.where(u < 1 - d, u * p_sig, np.inf), law.p_signal_event + dark)
        else:
            u *= law.q
        total = ends[-1]
        hit = None
        if total:
            intercept = eve is not None and eve.kind is EveKind.INTERCEPT_RESEND
            bits = random_bits(rng, (6 if intercept else 4) * total).reshape(-1, total)
            if intercept:
                hit = rng.random(total) < eve.intercept_fraction
        else:
            bits = np.zeros((4, 0), dtype=np.uint8)
        clicks, kept = _work_out(slots, u, bits, hit, law.p_signal_event, law.p_dark_event)
        if kept is not None:
            ends = np.searchsorted(kept, ends).tolist()
        self._drawn = [(clicks.cut(a, b), t) for (a, b), t in zip(pairwise([0, *ends]), tallies)]
        self._drawn.reverse()
        self._drawn_for = params, eve


def sample_link_window(params: LinkParams, phase: PhaseState, n_slots: int, rng_seed,
                       eve: Optional[EveModel] = None,
                       frame_id: str = "window") -> tuple[np.ndarray, np.ndarray, DetectionRecord]:
    """Sample a transmission window by drawing click slots directly.

    Returns ``(tx_basis, tx_value, record)`` where the tx arrays give the
    transmitter's random choices at the event slots only (non-click slots
    never reach any protocol layer, so their bits are irrelevant).
    ``rng_seed`` is a seed, a generator or a :class:`WindowStream`; a seed
    or a generator is a stream of one window of ``n_slots`` slots.

    Statistically identical to a per-slot simulation of a frame of
    uniformly random slots, for every attacker, at a cost that scales with
    clicks, not slots. Behind the photon-number splitter the ``eve_tally``
    of the record that takes a window's last slot counts what she learned
    over the whole window (an earlier piece's is empty); behind any other
    attacker it is ``None``.

    Without her every gate has the link's cached :class:`ClickLaw`: the
    click slots are a renewal process of live gates that each click with
    probability ``q``, and a click's uniform on [0, q) picks its class
    and, below ``p_signal_event * perr``, a signal event's flip. Behind her
    the clicks come from a walk over her photons and the dark counts, and
    their uniforms are mapped onto the same thresholds.

    The generator calls, their sizes and their order are part of the
    byte-identical-records contract. A call that finds no window left in
    its stream for its link and attacker draws the stream's next ``K``
    windows of its ``n`` slots, with ``M`` clicks among them:

    1. without the photon-number splitter, one exponential draw of ``K``
       first batches, read as one row per window, then, row by row, the
       further batches of each row that does not cover its ``n`` slots;
       behind her, a multinomial and a binomial draw of the ``K`` tallies,
       then the walk, window after window: two-row exponential batches,
       each when the last is used up, and a gamma and a Poisson per photon;
    2. one draw of ``M`` click class uniforms, window after window;
    3. one :func:`~qkdnet.bits.random_bits` draw of ``4 * M`` bits
       (``6 * M`` behind intercept-resend), read as rows of ``M``: tx
       basis, tx value, rx basis, the value a wrong-basis signal event or
       a dark event reads, and then the attacker's basis and guess;
    4. the ``M`` intercept-resend ``hit`` uniforms, when that attacker is
       present.

    Steps 3 and 4 are skipped when ``M`` is 0. Calls take the drawn
    windows in order, ``n_slots`` at a time, so records depend on ``K``
    and on the order and sizes of the calls too, and a stream drawn for
    another link or attacker is discarded first. Reordering any of it
    changes every record. An empty call draws nothing and takes no slots.
    """
    kind = eve.kind if eve is not None else EveKind.NONE
    pns = kind is EveKind.PHOTON_NUMBER_SPLIT
    if n_slots <= 0 or (not pns and params.click_law.q <= 0.0):
        z = np.zeros(0, dtype=np.uint8)
        return z, z, DetectionRecord.empty(frame_id, EveTally() if pns else None)
    stream = rng_seed if isinstance(rng_seed, WindowStream) else WindowStream(rng_seed, n_slots)
    clicks, tally = stream._take(params, eve if kind is not EveKind.NONE else None, n_slots)
    slots, u, tx_basis, tx_value, rx_basis, is_dark, measured, unflipped = clicks
    perr = min(max(params.intrinsic_error + phase_error_rate(phase.phase_error_rad), 0.0), 1.0)
    # A signal event's u is uniform on [0, p_signal_event), so u below
    # p_signal_event * perr flips it: probability perr, independent of the
    # bits and the hit.
    flip = u < params.click_law.p_signal_event * perr
    flip &= measured
    return tx_basis, tx_value, DetectionRecord(frame_id, slots, rx_basis, unflipped ^ flip,
                                               is_dark, tally)


def advance_phase(phase: PhaseState, dt_s: float, rng_seed) -> PhaseState:
    """Random-walk the interferometer phase over ``dt_s`` seconds."""
    if dt_s < 0:
        raise ValueError("dt_s must be non-negative")
    if dt_s == 0.0 or phase.drift_rate_rad_per_s == 0.0:
        return phase
    rng = np.random.default_rng(rng_seed)
    step = rng.normal(0.0, phase.drift_rate_rad_per_s * math.sqrt(dt_s))
    return replace(phase, phase_error_rad=phase.phase_error_rad + step)


def apply_training_feedback(phase: PhaseState, training_qber: float,
                            intrinsic_error: float = 0.0,
                            deadband: float = 0.0) -> PhaseState:
    """One step of the phase-correcting feedback loop.

    Estimates the phase-offset magnitude by inverting the error model on a
    training-frame QBER reading (after subtracting the known intrinsic
    floor), then steps toward zero by ``feedback_gain`` times the estimate.
    The sign is settled by a two-sided probe: a correction is applied
    tentatively and the next reading either confirms it or swings the full
    amount the other way. Corrections are capped at pi/2 per step.
    """
    if not 0.0 <= training_qber <= 0.5:
        raise ValueError("training_qber must be in [0, 0.5]")

    if phase.probe_correction is not None:
        correction = phase.probe_correction
        if training_qber <= phase.probe_reference_qber:
            return replace(phase, probe_correction=None)
        # Probe made things worse: swing to the mirror correction.
        sign = -1 if correction > 0 else 1
        return replace(
            phase,
            phase_error_rad=phase.phase_error_rad - 2.0 * correction,
            probe_correction=None,
            preferred_sign=sign,
        )

    q_phase = min(max(training_qber - intrinsic_error, 0.0), 0.5)
    if q_phase <= deadband:
        return phase
    estimate = math.acos(1.0 - 2.0 * q_phase)
    correction = phase.preferred_sign * min(phase.feedback_gain * estimate, math.pi / 2.0)
    if correction == 0.0:
        return phase
    return replace(
        phase,
        phase_error_rad=phase.phase_error_rad + correction,
        probe_correction=correction,
        probe_reference_qber=training_qber,
    )
