"""Weak-coherent BB84 link simulation at pulse-slot granularity.

Models one fiber link end to end: Poisson photon source, channel and
insertion loss, an optional eavesdropper, gated detectors with dark counts
and dead time, and interferometer phase drift with training-frame feedback.

Two sampling paths produce detection events under the same per-slot law:

* :func:`transmit_frame` walks every slot of an explicit frame (the
  Monte-Carlo reference path, also the only path that supports the
  photon-number-splitting attacker).
* :func:`sample_link_window` samples click slots directly via the renewal
  structure of the gated-detector process, so cost scales with the number
  of clicks instead of the number of slots. Long scenario runs use this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional

import numpy as np

from .bits import random_bits
from .errors import FrameTooLargeError

__all__ = [
    "LinkParams",
    "PulseFrame",
    "DetectionRecord",
    "EveKind",
    "EveTally",
    "EveModel",
    "PhaseState",
    "click_probability",
    "signal_click_probability",
    "dark_click_probability",
    "sifted_error_floor",
    "phase_error_rate",
    "wrap_phase",
    "transmit_frame",
    "sample_link_window",
    "advance_phase",
    "apply_training_feedback",
    "DEFAULT_MAX_FRAME_SLOTS",
]

# Resource guard for the dense per-slot path.
DEFAULT_MAX_FRAME_SLOTS = 1 << 21


@dataclass(frozen=True)
class LinkParams:
    """Physical parameters of one weak-coherent QKD link.

    Defaults describe a 5 MHz gated system; detector constants are
    calibration knobs, overridable per link in the topology.
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
        if self.pulse_rate_hz <= 0:
            raise ValueError("pulse_rate_hz must be positive")
        if self.mean_photon_number < 0:
            raise ValueError("mean_photon_number must be non-negative")
        if self.channel_loss_db < 0 or self.insertion_loss_db < 0:
            raise ValueError("losses must be non-negative")
        if not 0.0 <= self.detector_efficiency <= 1.0:
            raise ValueError("detector_efficiency must be in [0, 1]")
        if not 0.0 <= self.dark_count_prob <= 1.0:
            raise ValueError("dark_count_prob must be in [0, 1]")
        if self.dead_time_s < 0:
            raise ValueError("dead_time_s must be non-negative")
        if not 0.0 <= self.intrinsic_error <= 0.5:
            raise ValueError("intrinsic_error must be in [0, 0.5]")

    @property
    def total_loss_db(self) -> float:
        return self.channel_loss_db + self.insertion_loss_db

    @property
    def total_transmittance(self) -> float:
        """Power transmittance of fiber plus photonic-path insertion loss."""
        return 10.0 ** (-self.total_loss_db / 10.0)

    @property
    def dead_slots(self) -> int:
        """Number of gate slots the detectors stay disabled after a click."""
        product = self.dead_time_s * self.pulse_rate_hz
        # Guard against float noise pushing an exact product over the ceiling.
        return int(math.ceil(product - 1e-9)) if product > 0 else 0


@dataclass(frozen=True)
class PulseFrame:
    """Transmitter-side frame: per-slot basis and value choices."""

    frame_id: str
    basis: np.ndarray
    value: np.ndarray

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=np.uint8)
        value = np.asarray(self.value, dtype=np.uint8)
        if basis.size == 0:
            raise ValueError("frame must contain at least one slot")
        if basis.shape != value.shape:
            raise ValueError("basis and value arrays must have equal length")
        if (basis.size and basis.max() > 1) or (value.size and value.max() > 1):
            raise ValueError("basis and value entries must be single bits")
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "value", value)

    @property
    def n_slots(self) -> int:
        return int(self.basis.size)

    @classmethod
    def random(cls, frame_id: str, n_slots: int, rng: np.random.Generator) -> "PulseFrame":
        return cls(frame_id, random_bits(rng, n_slots), random_bits(rng, n_slots))


@dataclass(frozen=True)
class DetectionRecord:
    """Receiver-side click record for one frame.

    ``is_dark`` and ``eve_tally`` (set by :func:`transmit_frame` only) are
    simulator-internal ground truth and must never be read by protocol
    layers (sifting sees only slot, basis, value).
    """

    frame_id: str
    slot_index: np.ndarray
    rx_basis: np.ndarray
    rx_value: np.ndarray
    is_dark: np.ndarray
    eve_tally: Optional["EveTally"] = None

    def __post_init__(self):
        object.__setattr__(self, "slot_index", np.asarray(self.slot_index, dtype=np.int64))
        object.__setattr__(self, "rx_basis", np.asarray(self.rx_basis, dtype=np.uint8))
        object.__setattr__(self, "rx_value", np.asarray(self.rx_value, dtype=np.uint8))
        object.__setattr__(self, "is_dark", np.asarray(self.is_dark, dtype=bool))
        s = self.slot_index
        if s.size > 1 and not (s[1:] > s[:-1]).all():
            raise ValueError("slot_index must be strictly increasing")

    @property
    def n_events(self) -> int:
        return int(self.slot_index.size)

    def min_gap(self) -> Optional[int]:
        if self.n_events < 2:
            return None
        return int(np.diff(self.slot_index).min())

    @classmethod
    def empty(cls, frame_id: str) -> "DetectionRecord":
        z = np.zeros(0, dtype=np.int64)
        return cls(frame_id, z, z.astype(np.uint8), z.astype(np.uint8), z.astype(bool))


class EveKind(Enum):
    NONE = "none"
    INTERCEPT_RESEND = "intercept_resend"
    PHOTON_NUMBER_SPLIT = "photon_number_split"


@dataclass(frozen=True)
class EveTally:
    """What the attacker achieved on one :func:`transmit_frame` call."""

    learned_bits: int = 0
    multi_photon_emissions: int = 0
    suppressed_singles: int = 0


@dataclass(frozen=True)
class EveModel:
    """Eavesdropper configuration attached to a link.

    ``intercept_fraction`` applies to the intercept-resend attacker only.
    What the attacker achieved on a frame is ``record.eve_tally`` of that
    frame's :func:`transmit_frame` record.
    """

    kind: EveKind = EveKind.NONE
    intercept_fraction: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.intercept_fraction <= 1.0:
            raise ValueError("intercept_fraction must be in [0, 1]")

    @classmethod
    def none(cls) -> "EveModel":
        return cls(kind=EveKind.NONE)

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
    return math.pi - ((math.pi - phi) % (2.0 * math.pi))


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


def dark_click_probability(params: LinkParams) -> float:
    """Per-gate probability that at least one of the two detectors darks."""
    d = params.dark_count_prob
    return 1.0 - (1.0 - d) ** 2


def click_probability(params: LinkParams) -> float:
    """Per-gate click probability, signal and dark counts combined.

    Poisson source of mean ``mu``, thinned by transmittance and detector
    efficiency; dark counts on either detector fire independently.
    """
    p_signal = signal_click_probability(params)
    p_dark = dark_click_probability(params)
    return 1.0 - (1.0 - p_signal) * (1.0 - p_dark)


def sifted_error_floor(params: LinkParams) -> float:
    """Expected sifted error rate at zero phase offset.

    Mixes the intrinsic misalignment floor on signal detections with the
    50% error rate of dark-count detections, weighted by each event type's
    share. Receivers subtract this floor from training readings so the
    phase feedback does not chase detector noise.
    """
    p_sig = signal_click_probability(params)
    d = params.dark_count_prob
    p_signal_event = p_sig * (1.0 - d)
    p_dark_event = (1.0 - p_sig) * 2.0 * d * (1.0 - d)
    total = p_signal_event + p_dark_event
    if total <= 0.0:
        return params.intrinsic_error
    return (params.intrinsic_error * p_signal_event + 0.5 * p_dark_event) / total


def _pns_channel(photons: np.ndarray, transmittance: float) -> np.ndarray:
    """Photon-number-splitting attacker standing in for the lossy channel.

    She replaces the fiber with a lossless one and removes photons herself,
    from a loss budget that accrues at the honest channel's expected
    absorption rate, so she never creates anomalous loss. Each pulse loses
    as many whole photons as the budget holds, at most all of them. From a
    multi-photon pulse that loses any she keeps one and learns its bit after
    basis announcement, without inducing errors; a single photon she takes
    is suppressed.
    """
    delivered = photons.copy()
    budget = 0.0
    accrual = 1.0 - transmittance
    for i in np.flatnonzero(photons):
        n = int(photons[i])
        budget += n * accrual
        taken = min(n, int(budget))
        budget -= taken
        delivered[i] = n - taken
    return delivered


def transmit_frame(params: LinkParams, phase: PhaseState, eve: Optional[EveModel],
                   frame: PulseFrame, rng_seed,
                   max_slots: int = DEFAULT_MAX_FRAME_SLOTS) -> DetectionRecord:
    """Simulate one frame slot by slot and return the receiver's clicks.

    Per slot: Poisson photon number, attacker action, channel thinning,
    random receiver basis, error model on matched-basis detections, dark
    counts, double-click discard, and non-paralyzable dead time. The same
    (params, phase, eve, frame, seed) always yields the same record.
    """
    n = frame.n_slots
    if n > max_slots:
        raise FrameTooLargeError(
            f"frame has {n} slots, exceeding the per-frame maximum of {max_slots}")
    rng = np.random.default_rng(rng_seed)
    kind = eve.kind if eve is not None else EveKind.NONE
    transmittance = params.total_transmittance

    photons = rng.poisson(params.mean_photon_number, size=n)
    multi = photons >= 2
    pulse_basis = frame.basis
    pulse_value = frame.value

    if kind is EveKind.INTERCEPT_RESEND:
        hit = (rng.random(n) < eve.intercept_fraction) & (photons > 0)
        eve_basis = random_bits(rng, n)
        eve_guess = random_bits(rng, n)
        eve_value = np.where(eve_basis == pulse_basis, pulse_value, eve_guess)
        pulse_basis = np.where(hit, eve_basis, pulse_basis).astype(np.uint8)
        pulse_value = np.where(hit, eve_value, pulse_value).astype(np.uint8)
    if kind is EveKind.PHOTON_NUMBER_SPLIT:
        arriving = _pns_channel(photons, transmittance)
        taken = arriving < photons
        tally = EveTally(learned_bits=int(np.count_nonzero(taken & multi)),
                         multi_photon_emissions=int(np.count_nonzero(multi)),
                         suppressed_singles=int(np.count_nonzero(taken & ~multi)))
    else:
        arriving = rng.binomial(photons, transmittance)
        tally = EveTally(multi_photon_emissions=int(np.count_nonzero(multi)))

    eta = params.detector_efficiency
    sig_click = rng.random(n) < -np.expm1(np.log1p(-eta) * arriving) if eta < 1.0 \
        else arriving > 0

    rx_basis = random_bits(rng, n)
    perr = min(max(params.intrinsic_error + phase_error_rate(phase.phase_error_rad), 0.0), 1.0)
    flips = rng.random(n) < perr
    mismatch_value = random_bits(rng, n)
    matched = rx_basis == pulse_basis
    sig_value = np.where(matched, pulse_value ^ flips, mismatch_value).astype(np.uint8)

    d = params.dark_count_prob
    dark0 = rng.random(n) < d
    dark1 = rng.random(n) < d
    fired0 = dark0 | (sig_click & (sig_value == 0))
    fired1 = dark1 | (sig_click & (sig_value == 1))
    any_click = fired0 | fired1

    # Non-paralyzable dead time: every click (kept or double-discarded)
    # disables both detectors for the next dead_slots gates.
    dead = params.dead_slots
    candidates = np.flatnonzero(any_click)
    if dead > 0 and candidates.size:
        kept = []
        next_ok = 0
        for s in candidates:
            if s >= next_ok:
                kept.append(s)
                next_ok = s + dead + 1
        candidates = np.asarray(kept, dtype=np.int64)

    double = fired0[candidates] & fired1[candidates]
    events = candidates[~double]
    return DetectionRecord(
        frame_id=frame.frame_id,
        slot_index=events,
        rx_basis=rx_basis[events],
        rx_value=np.where(fired1[events], 1, 0).astype(np.uint8),
        is_dark=~sig_click[events],
        eve_tally=tally,
    )


def _empty_window(frame_id: str) -> tuple[np.ndarray, np.ndarray, DetectionRecord]:
    z = np.zeros(0, dtype=np.uint8)
    return z, z, DetectionRecord.empty(frame_id)


def sample_link_window(params: LinkParams, phase: PhaseState, n_slots: int, rng_seed,
                       eve: Optional[EveModel] = None,
                       frame_id: str = "window") -> tuple[np.ndarray, np.ndarray, DetectionRecord]:
    """Sample a transmission window by drawing click slots directly.

    Returns ``(tx_basis, tx_value, record)`` where the tx arrays give the
    transmitter's random choices at the event slots only (non-click slots
    never reach any protocol layer, so their bits are irrelevant).

    Statistically identical to :func:`transmit_frame` over a frame of
    uniformly random slots; cost scales with clicks, not slots. The
    photon-number-splitting attacker needs per-slot bookkeeping and is not
    supported here, except over an empty window.

    The generator calls, their sizes and their order are part of the
    byte-identical-records contract: geometric batches, click class, tx
    basis, tx value, the intercept-resend draws (hit, basis, guess) when
    that attacker is present, rx basis, flip, mismatch value, dark value.
    Reordering them changes every record.
    """
    if n_slots <= 0:
        return _empty_window(frame_id)
    if eve is not None and eve.kind is EveKind.PHOTON_NUMBER_SPLIT:
        raise ValueError("PNS attacker requires the per-slot transmit_frame path")
    rng = np.random.default_rng(rng_seed)

    p_sig = signal_click_probability(params)
    d = params.dark_count_prob
    q = 1.0 - (1.0 - p_sig) * (1.0 - d) ** 2
    if q <= 0.0:
        return _empty_window(frame_id)

    dead = params.dead_slots
    # Click slots form a renewal process: geometric wait on live slots,
    # then a dead window. Draw in batches until the window is covered.
    # Slots strictly increase, so the ones inside the window are a prefix.
    slots = []
    count = 0
    start = 0
    expect = int(n_slots / (dead + 1.0 / q)) + 1
    while True:
        batch = max(64, expect - count + 16)
        s = rng.geometric(q, size=batch)
        s += dead
        s.cumsum(out=s)
        s += start - dead - 1
        inside = int(np.searchsorted(s, n_slots))
        slots.append(s[:inside])
        count += inside
        if inside < batch:
            break
        start = int(s[-1]) + dead + 1
    click_slots = slots[0] if len(slots) == 1 else np.concatenate(slots)
    m = click_slots.size
    if m == 0:
        return _empty_window(frame_id)

    # Classify each click: signal event, dark event, or double (discarded).
    # The classes are consecutive ranges of u, so a kept click that is not
    # a signal event is a dark one.
    p_signal_event = p_sig * (1.0 - d)
    p_dark_event = (1.0 - p_sig) * 2.0 * d * (1.0 - d)
    u = rng.random(m) * q
    is_signal = u < p_signal_event
    keep = u < p_signal_event + p_dark_event

    tx_basis = random_bits(rng, m)
    tx_value = random_bits(rng, m)
    pulse_basis = tx_basis
    pulse_value = tx_value
    if eve is not None and eve.kind is EveKind.INTERCEPT_RESEND:
        # Interception leaves the click law unchanged in this model, so it
        # conditions independently on each signal event.
        hit = rng.random(m) < eve.intercept_fraction
        eve_basis = random_bits(rng, m)
        eve_guess = random_bits(rng, m)
        eve_value = np.where(eve_basis == pulse_basis, pulse_value, eve_guess)
        pulse_basis = np.where(hit, eve_basis, pulse_basis)
        pulse_value = np.where(hit, eve_value, pulse_value)

    rx_basis = random_bits(rng, m)
    perr = min(max(params.intrinsic_error + phase_error_rate(phase.phase_error_rad), 0.0), 1.0)
    flips = rng.random(m) < perr
    mismatch_value = random_bits(rng, m)
    # Bits are 0 or 1, so selecting by basis match is an xor mask, which
    # is cheaper than np.where on a condition that is a coin toss per click.
    matched = rx_basis == pulse_basis
    sig_value = mismatch_value ^ (matched & (pulse_value ^ flips ^ mismatch_value))
    dark_value = random_bits(rng, m)
    rx_value = np.where(is_signal, sig_value, dark_value)

    is_dark = ~is_signal
    if not keep.all():
        click_slots, rx_basis, rx_value, is_dark, tx_basis, tx_value = (
            a[keep] for a in (click_slots, rx_basis, rx_value, is_dark, tx_basis, tx_value))
    record = DetectionRecord(
        frame_id=frame_id,
        slot_index=click_slots,
        rx_basis=rx_basis,
        rx_value=rx_value,
        is_dark=is_dark,
    )
    return tx_basis, tx_value, record


def advance_phase(phase: PhaseState, dt_s: float, rng_seed) -> PhaseState:
    """Random-walk the interferometer phase over ``dt_s`` seconds."""
    if dt_s < 0:
        raise ValueError("dt_s must be non-negative")
    if dt_s == 0.0 or phase.drift_rate_rad_per_s == 0.0:
        return phase
    rng = np.random.default_rng(rng_seed)
    step = rng.normal(0.0, phase.drift_rate_rad_per_s * math.sqrt(dt_s))
    return replace(phase, phase_error_rad=wrap_phase(phase.phase_error_rad + step))


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
            phase_error_rad=wrap_phase(phase.phase_error_rad - 2.0 * correction),
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
        phase_error_rad=wrap_phase(phase.phase_error_rad + correction),
        probe_correction=correction,
        probe_reference_qber=training_qber,
    )
