"""Weak-coherent BB84 link simulation at pulse-slot granularity.

Models one fiber link end to end: Poisson photon source, channel and
insertion loss, an optional eavesdropper, gated detectors with dark counts
and dead time, and interferometer phase drift with training-frame feedback.

:func:`sample_link_window` is the one link sampler, for every attacker. It
draws click slots directly, via the renewal structure of the gated-detector
process, so cost scales with the number of clicks instead of the number of
slots. Without the photon-number-splitting attacker every gate of a link
has one click law, :attr:`LinkParams.click_law`, which the link computes
once and caches. Behind that attacker it draws a photon number per slot
(her loss budget needs every pulse), detector draws only where photons
arrive, and reports what she learned (``eve_tally``). A click's one
uniform picks its class and a signal event's flip, and all the bits the
clicks need (bases, values, the intercept-resend attacker's basis and
guess) come from one bit draw. Without the photon-number splitter only
the flips depend on the interferometer phase, so a :class:`WindowStream`
draws several windows at once and works out all but their flips, and
each call finishes one window at its own phase; a plain seed or
generator is a stream of one window.
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
from itertools import accumulate
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
# numpy's Poisson sampler refuses means above about 9.2e18.
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
        return ClickLaw(1.0 - (1.0 - p_sig) * (1.0 - d) ** 2, *_event_probabilities(p_sig, d))


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
    ``eve_tally`` of that window's :func:`sample_link_window` record.
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


def _event_probabilities(p_sig, d: float):
    """Signal-event and dark-event probabilities of a gate whose signal
    photons are detected with probability ``p_sig`` (a float, or an array
    with one entry per click) and whose detectors each dark with ``d``."""
    return p_sig * (1.0 - d), (1.0 - p_sig) * 2.0 * d * (1.0 - d)


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


def _live_clicks(slots: np.ndarray, dead: int) -> np.ndarray:
    """Indices of the clicks that non-paralyzable dead time lets through.

    Every click that registers, kept or later discarded as a double,
    disables both detectors for the next ``dead`` gates.
    """
    if dead <= 0 or slots.size < 2:
        return np.arange(slots.size)
    live = []
    next_ok = 0
    for i, s in enumerate(slots.tolist()):
        if s >= next_ok:
            live.append(i)
            next_ok = s + dead + 1
    return np.asarray(live, dtype=np.intp)


def _empty_window(frame_id: str, tally: Optional[EveTally] = None
                  ) -> tuple[np.ndarray, np.ndarray, DetectionRecord]:
    z = np.zeros(0, dtype=np.uint8)
    return z, z, DetectionRecord.empty(frame_id, tally)


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


def _pns_clicks(params: LinkParams, n_slots: int, rng: np.random.Generator):
    """Click slots behind the photon-number-splitting attacker, with each
    click's class uniform on [0, q), its slot's signal-click probability,
    and the window's :class:`EveTally`."""
    photons = rng.poisson(params.mean_photon_number, size=n_slots)
    # She replaces the fiber with a lossless one and removes whole photons
    # from a budget that accrues at the honest channel's absorption rate,
    # so she never creates anomalous loss. As a prefix sum: she has taken
    # the floor of (photons sent so far) * (1 - t). The cap of n binds
    # only by rounding.
    sent = np.flatnonzero(photons)
    n = photons[sent]
    taken = np.diff((np.cumsum(n) * (1.0 - params.total_transmittance)).astype(n.dtype),
                    prepend=0)
    arriving = n - np.minimum(taken, n)
    # From a multi-photon pulse that loses any she keeps one and learns its
    # bit after basis announcement; a single photon she takes is suppressed.
    multi = n >= 2
    robbed = taken > 0
    tally = EveTally(learned_bits=int(np.count_nonzero(robbed & multi)),
                     multi_photon_emissions=int(np.count_nonzero(multi)),
                     suppressed_singles=int(np.count_nonzero(robbed & (n == 1))))
    lit = arriving > 0
    lit_slots = sent[lit]
    k = arriving[lit]

    # A lit slot clicks unless every arriving photon is missed and neither
    # detector darks; its uniform then also picks the click's class.
    d = params.dark_count_prob
    p_sig = 1.0 - (1.0 - params.detector_efficiency) ** k
    u = rng.random(lit_slots.size)
    clicked = u < 1.0 - (1.0 - p_sig) * (1.0 - d) ** 2
    slots, u, p_sig = lit_slots[clicked], u[clicked], p_sig[clicked]
    p_dark = 1.0 - (1.0 - d) ** 2
    if p_dark > 0.0:
        # Dark clicks on unlit slots only: a lit slot's uniform holds its darks.
        dark, = _renewal_slots(rng, p_dark, 0, n_slots)
        dark = dark[np.append(lit_slots, n_slots)[np.searchsorted(lit_slots, dark)] != dark]
        slots = np.concatenate((slots, dark))
        order = np.argsort(slots, kind="stable")
        slots = slots[order]
        u = np.concatenate((u, rng.random(dark.size) * p_dark))[order]
        p_sig = np.concatenate((p_sig, np.zeros(dark.size)))[order]

    live = _live_clicks(slots, params.dead_slots)
    return slots[live], u[live], p_sig[live], tally


class _Clicks(NamedTuple):
    """Kept clicks of one or more windows, worked out but for their flips.

    A signal event flips when its class uniform ``u`` (on [0, q)) is below
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
    """A session's source of link windows: a generator that draws
    ``windows`` windows of up to ``n_slots`` slots at a time.

    Without the photon-number-splitting attacker, what a window draws does
    not depend on its phase: click slots, class uniforms, per-click bits
    and the intercept-resend hits. So :func:`sample_link_window` draws the
    next ``windows`` windows in one set of generator calls (see its draw
    contract) and works them out together, doubles dropped, but for their
    flips; each call then finishes the next window at its own phase, cut
    to its own ``n_slots``. A cut window is a prefix of the drawn one,
    which is exact: a renewal process started at slot 0 does not depend
    on its horizon.

    Windows drawn for one link and attacker are discarded when a call comes
    for another; behind the photon-number splitter every window is drawn
    alone, straight from :attr:`rng`. A plain seed or generator passed to
    :func:`sample_link_window` is a stream of one window.
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
        self._drawn: list = []  # each drawn window's kept clicks, the next one last
        self._drawn_for = None  # the (params, attacker) they were drawn for

    def _next(self, params: LinkParams, eve: Optional[EveModel], n_slots: int) -> _Clicks:
        """The next drawn window's kept clicks inside ``n_slots``."""
        if n_slots > self.n_slots:
            raise ValueError(f"a window of {n_slots} slots is longer than the "
                             f"stream's {self.n_slots}")
        if self._drawn_for != (params, eve):
            self.discard()
        if not self._drawn:
            self._draw(params, eve)
        clicks = self._drawn.pop()
        if n_slots < self.n_slots:
            clicks = clicks.cut(0, int(np.searchsorted(clicks.slots, n_slots)))
        return clicks

    def _draw(self, params: LinkParams, eve: Optional[EveModel]):
        rng, law = self.rng, params.click_law
        rows = _renewal_slots(rng, law.q, params.dead_slots, self.n_slots, self.windows)
        ends = list(accumulate(row.size for row in rows))
        total = ends[-1]
        u = rng.random(total)
        u *= law.q
        hit = None
        if total:
            intercept = eve is not None
            bits = random_bits(rng, (6 if intercept else 4) * total).reshape(-1, total)
            if intercept:
                hit = rng.random(total) < eve.intercept_fraction
        else:
            bits = np.zeros((4, 0), dtype=np.uint8)
        slots = rows[0] if len(rows) == 1 else np.concatenate(rows)
        clicks, kept = _work_out(slots, u, bits, hit, law.p_signal_event, law.p_dark_event)
        if kept is not None:
            ends = np.searchsorted(kept, ends).tolist()
        self._drawn = [clicks.cut(start, end) for start, end in zip([0, *ends[:-1]], ends)]
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
    uniformly random slots, for every attacker. Without the
    photon-number-splitting attacker, cost scales with clicks, not slots.
    With her, every slot gets a photon number (her loss budget needs every
    pulse) but only the slots photons reach get detector draws, and the
    record's ``eve_tally`` counts what she learned over the whole window;
    counting draws nothing. Behind any other attacker it is ``None``.

    Without PNS every gate has the link's cached :class:`ClickLaw`: the
    click slots are a renewal process of live gates that each click with
    probability ``q``, and a click's uniform on [0, q) picks its class
    and, below ``p_signal_event * perr``, a signal event's flip.

    The generator calls, their sizes and their order are part of the
    byte-identical-records contract. Without PNS, a call that finds no
    window left in its stream for its link and attacker draws the
    stream's next ``K`` windows of ``n`` slots, with ``M`` clicks among
    them:

    1. one exponential draw of ``K`` first batches, read as one row per
       window, then, row by row, the further batches of each row that
       does not cover its ``n`` slots;
    2. one draw of ``M`` click class uniforms, window after window;
    3. one :func:`~qkdnet.bits.random_bits` draw of ``4 * M`` bits
       (``6 * M`` behind intercept-resend), read as rows of ``M``: tx
       basis, tx value, rx basis, the value a wrong-basis signal event or
       a dark event reads, and then the attacker's basis and guess;
    4. the ``M`` intercept-resend ``hit`` uniforms, when that attacker is
       present.

    Steps 3 and 4 are skipped when ``M`` is 0. Calls take the drawn
    windows in order, so records depend on ``K`` and on the order of the
    calls too, and a stream drawn for another link or attacker is
    discarded first. With PNS a window draws alone, after discarding the
    stream's drawn windows: photon numbers, the lit slots' click
    uniforms, exponential batches of dark clicks (when darks can occur)
    and their class uniforms, then, with ``m`` clicks, the ``4 * m`` bits
    of step 3. Reordering any of it changes every record. An empty window
    draws nothing and takes no drawn window.
    """
    kind = eve.kind if eve is not None else EveKind.NONE
    pns = kind is EveKind.PHOTON_NUMBER_SPLIT
    tally = EveTally() if pns else None
    if n_slots <= 0:
        return _empty_window(frame_id, tally)
    stream = rng_seed if isinstance(rng_seed, WindowStream) else WindowStream(rng_seed, n_slots)
    if pns:
        stream.discard()
        rng = stream.rng
        slots, u, p_sig, tally = _pns_clicks(params, n_slots, rng)
        if slots.size == 0:
            return _empty_window(frame_id, tally)
        p_signal_event, p_dark_event = _event_probabilities(p_sig, params.dark_count_prob)
        bits = random_bits(rng, 4 * slots.size).reshape(4, -1)
        clicks, kept = _work_out(slots, u, bits, None, p_signal_event, p_dark_event)
        if kept is not None:
            p_signal_event = p_signal_event[kept]
    else:
        # Every slot has the link's one click law.
        law = params.click_law
        if law.q <= 0.0:
            return _empty_window(frame_id)
        clicks = stream._next(params, eve if kind is EveKind.INTERCEPT_RESEND else None,
                              n_slots)
        p_signal_event = law.p_signal_event
    slots, u, tx_basis, tx_value, rx_basis, is_dark, measured, unflipped = clicks
    if slots.size == 0:
        return _empty_window(frame_id, tally)

    perr = min(max(params.intrinsic_error + phase_error_rate(phase.phase_error_rad), 0.0), 1.0)
    # A signal event's u is uniform on [0, p_signal_event), so u below
    # p_signal_event * perr flips it: probability perr, independent of the
    # bits and the hit.
    flip = u < p_signal_event * perr
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
    return PhaseState(phase.phase_error_rad + step, phase.drift_rate_rad_per_s,
                      phase.feedback_gain, phase.probe_correction,
                      phase.probe_reference_qber, phase.preferred_sign)


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
