"""2x2 passive photonic switch: BAR/CROSS connectivity and realignment.

The switch couples two transmitter ports to two receiver ports. BAR maps
first to first and second to second; CROSS swaps them. A reconfiguration
takes 8 ms, during which no photons pass, and happens on a periodic
schedule (default every 15 minutes) or at explicitly listed times. After
each change the receiver must rediscover its new transmitter and realign
its interferometer by running training frames through the phase feedback
loop before key generation can resume.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from .bits import derive_seed
from .errors import ConfigurationError
from .physlink import (
    LinkParams,
    PhaseState,
    apply_training_feedback,
    sample_link_window,
)
from .qkdproto.sifting import sift_bb84_events

SWITCHING_TIME_S = 0.008

DEFAULT_SCHEDULE_PERIOD_S = 900.0
DEFAULT_INSERTION_LOSS_DB = 0.8
DEFAULT_REALIGN_QBER_THRESHOLD = 0.05
REALIGN_FRAME_BUDGET = 200
DEFAULT_TRAINING_SLOTS = 1 << 17


class SwitchPosition(Enum):
    BAR = "bar"
    CROSS = "cross"

    def toggled(self) -> "SwitchPosition":
        return SwitchPosition.CROSS if self is SwitchPosition.BAR else SwitchPosition.BAR


class ToggleEvent(NamedTuple):
    time_s: float
    switch_id: str
    position: SwitchPosition


@dataclass(frozen=True)
class SwitchState:
    """Connectivity state of one 2x2 switch, with its reconfiguration plan.

    ``toggle_times_s`` overrides the periodic schedule when non-empty.
    """

    switch_id: str = "switch"
    tx_ports: Tuple[str, str] = ("Alice", "Anna")
    rx_ports: Tuple[str, str] = ("Bob", "Boris")
    position: SwitchPosition = SwitchPosition.BAR
    busy_until_s: float = 0.0
    schedule_period_s: float = DEFAULT_SCHEDULE_PERIOD_S
    insertion_loss_db: float = DEFAULT_INSERTION_LOSS_DB
    toggle_times_s: Tuple[float, ...] = ()
    toggles_done: int = 0

    def __post_init__(self):
        # A period inside the reconfiguration blackout keeps the switch busy
        # for ever, and toggles out of order would move time backwards.
        if not self.schedule_period_s > SWITCHING_TIME_S:
            raise ValueError(f"schedule_period_s must exceed the {SWITCHING_TIME_S} s "
                             f"switching time, got {self.schedule_period_s!r}")
        times = self.toggle_times_s
        if any(t < 0 for t in times) or any(b < a for a, b in zip(times, times[1:])):
            raise ValueError(f"toggle_times_s must be >= 0 and non-decreasing, got {times!r}")
        if len(set(self.tx_ports)) != 2 or len(set(self.rx_ports)) != 2:
            raise ConfigurationError("switch needs two distinct ports per side")

    @property
    def next_toggle_s(self) -> Optional[float]:
        if self.toggle_times_s:
            if self.toggles_done >= len(self.toggle_times_s):
                return None
            return self.toggle_times_s[self.toggles_done]
        return (self.toggles_done + 1) * self.schedule_period_s

    def is_busy(self, now_s: float) -> bool:
        return now_s < self.busy_until_s and self.busy_until_s - now_s <= SWITCHING_TIME_S


def resolve_path(state: SwitchState, tx: str, now_s: float = 0.0) -> Optional[str]:
    """Receiver currently coupled to transmitter ``tx``; None while switching.

    BAR connects first transmitter port to first receiver port; CROSS swaps.
    """
    if tx not in state.tx_ports:
        raise ConfigurationError(f"unknown transmitter port {tx!r} on switch {state.switch_id!r}")
    if state.is_busy(now_s):
        return None
    idx = state.tx_ports.index(tx)
    if state.position is SwitchPosition.CROSS:
        idx = 1 - idx
    return state.rx_ports[idx]


def resolve_transmitter(state: SwitchState, rx: str, now_s: float = 0.0) -> Optional[str]:
    """Inverse mapping: which transmitter feeds receiver ``rx`` right now."""
    if rx not in state.rx_ports:
        raise ConfigurationError(f"unknown receiver port {rx!r} on switch {state.switch_id!r}")
    if state.is_busy(now_s):
        return None
    idx = state.rx_ports.index(rx)
    if state.position is SwitchPosition.CROSS:
        idx = 1 - idx
    return state.tx_ports[idx]


def schedule_tick(state: SwitchState, now_s: float) -> Tuple[SwitchState, List[ToggleEvent]]:
    """Apply every reconfiguration due at or before ``now_s``.

    Each toggle flips the position and opens an 8 ms blackout window.
    Returned events feed the sessions that must re-key and realign.
    """
    events: List[ToggleEvent] = []
    while True:
        due = state.next_toggle_s
        if due is None or due > now_s:
            break
        state = replace(
            state,
            position=state.position.toggled(),
            busy_until_s=due + SWITCHING_TIME_S,
            toggles_done=state.toggles_done + 1,
        )
        events.append(ToggleEvent(due, state.switch_id, state.position))
    return state, events


@dataclass
class RealignmentOutcome:
    converged: bool
    frames_spent: int
    phase: PhaseState
    last_training_qber: Optional[float]


def realign_receiver(params: LinkParams, phase: PhaseState, seed,
                     qber_threshold: float = DEFAULT_REALIGN_QBER_THRESHOLD,
                     training_slots: int = DEFAULT_TRAINING_SLOTS,
                     deadband: float = 0.0,
                     error_floor: Optional[float] = None) -> RealignmentOutcome:
    """Run training frames until the training QBER drops below threshold.

    Models the receiver-side discovery sequence after a connectivity
    change: each frame's publicly known bits yield an error reading that
    drives one feedback step. ``error_floor`` is the link's known
    phase-independent error rate (defaults to the intrinsic floor),
    subtracted before inverting the error model. A frame with no usable
    detection still spends budget. Non-convergence within the budget marks
    the link degraded upstream.
    """
    floor = params.intrinsic_error if error_floor is None else error_floor
    last_q: Optional[float] = None
    for frame_idx in range(REALIGN_FRAME_BUDGET):
        frame_seed = derive_seed(0, "realign", seed, frame_idx)
        tx_basis, tx_value, record = sample_link_window(
            params, phase, training_slots, frame_seed, frame_id=f"train-{frame_idx}")
        alice, bob, _ = sift_bb84_events(tx_basis, tx_value, record)
        if alice.size == 0:
            continue
        last_q = float(np.count_nonzero(alice != bob)) / alice.size
        if last_q < qber_threshold:
            return RealignmentOutcome(True, frame_idx + 1, phase, last_q)
        phase = apply_training_feedback(phase, min(last_q, 0.5),
                                        intrinsic_error=floor,
                                        deadband=deadband)
    return RealignmentOutcome(False, REALIGN_FRAME_BUDGET, phase, last_q)
