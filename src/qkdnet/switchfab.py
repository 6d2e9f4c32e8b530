"""2x2 passive photonic switch: BAR/CROSS connectivity and realignment.

The switch couples two transmitter ports to two receiver ports. BAR maps
first to first and second to second; CROSS swaps them. A reconfiguration
takes 8 ms, during which no photons pass, and happens on a periodic
schedule (default every 15 minutes), at explicitly listed times, or on
command. After each change the receiver must rediscover its new
transmitter and realign its interferometer by running training frames
through the phase feedback loop before key generation can resume.

Every switch decision is made here: :func:`toggle` is the one place a
switch flips, and :func:`schedule_tick` the one place its schedule
advances, so a toggle on command never moves the periodic schedule.

Realignment rule: each training frame's sifted error rate is read
against the link's phase-independent floor ``f``, its
:func:`~qkdnet.physlink.sifted_error_floor`. A reading below
``max(0.05, f + 0.03)`` ends realignment; any other reading drives one
feedback step with ``f`` subtracted and a deadband of
:data:`FEEDBACK_DEADBAND`, for at most :data:`REALIGN_FRAME_BUDGET`
frames; a frame with fewer than :data:`REALIGN_MIN_SIFTED_BITS` sifted
bits reads nothing. The engine's periodic training frames use the same deadband.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from .bits import derive_seed
from .errors import ConfigurationError, refuse_assignment
from .physlink import (
    LinkParams,
    PhaseState,
    apply_training_feedback,
    sample_link_window,
    sifted_error_floor,
)
from .qkdproto.sifting import sift_bb84_events

SWITCHING_TIME_S = 0.008

DEFAULT_SCHEDULE_PERIOD_S = 900.0
DEFAULT_INSERTION_LOSS_DB = 0.8
REALIGN_FRAME_BUDGET = 200
# Fewest sifted bits a reading needs: 32 read a QBER of 0.1 as 0 in 3.4% of frames.
REALIGN_MIN_SIFTED_BITS = 32
# Training error above the floor that the phase feedback leaves uncorrected.
FEEDBACK_DEADBAND = 0.012


class SwitchPosition(Enum):
    BAR = "bar"
    CROSS = "cross"

    def toggled(self) -> "SwitchPosition":
        return SwitchPosition.CROSS if self is SwitchPosition.BAR else SwitchPosition.BAR


class SwitchEvent(NamedTuple):
    """One reconfiguration: the switch's new position from ``time_s`` on."""

    time_s: float
    switch_id: str
    position: str

    __setattr__ = refuse_assignment


@dataclass(frozen=True)
class SwitchState:
    """Connectivity state of one 2x2 switch, with its reconfiguration plan.

    ``toggle_times_s`` overrides the periodic schedule when non-empty.
    The blackout of the last toggle, at ``toggled_at_s``, holds from that
    instant up to, not including, ``busy_until_s``.
    """

    switch_id: str
    tx_ports: Tuple[str, str]
    rx_ports: Tuple[str, str]
    position: SwitchPosition = SwitchPosition.BAR
    toggled_at_s: float = -math.inf
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

    @property
    def busy_until_s(self) -> float:
        return self.toggled_at_s + SWITCHING_TIME_S

    def is_busy(self, now_s: float) -> bool:
        return self.toggled_at_s <= now_s < self.busy_until_s


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


def toggle(state: SwitchState, at_s: float) -> Tuple[SwitchState, SwitchEvent]:
    """Flip the switch at ``at_s``, opening the 8 ms blackout; the schedule
    is left alone."""
    state = replace(state, position=state.position.toggled(), toggled_at_s=at_s)
    return state, SwitchEvent(at_s, state.switch_id, state.position.value)


def schedule_tick(state: SwitchState, now_s: float) -> Tuple[SwitchState, List[SwitchEvent]]:
    """Apply every scheduled reconfiguration due at or before ``now_s``.

    Returned events feed the sessions that must re-key and realign.
    """
    events: List[SwitchEvent] = []
    while True:
        due = state.next_toggle_s
        if due is None or due > now_s:
            break
        state, event = toggle(replace(state, toggles_done=state.toggles_done + 1), due)
        events.append(event)
    return state, events


@dataclass
class RealignmentOutcome:
    converged: bool
    frames_spent: int
    phase: PhaseState
    last_training_qber: Optional[float]


def realign_receiver(params: LinkParams, phase: PhaseState, seed,
                     training_slots: int) -> RealignmentOutcome:
    """Run ``training_slots``-slot training frames under the module's
    realignment rule until a reading passes.

    Models the receiver-side discovery sequence after a connectivity
    change: each frame's publicly known bits yield an error reading. A
    frame too sparse to read still spends budget. Non-convergence
    within the budget marks the link degraded upstream.
    """
    floor = sifted_error_floor(params)
    threshold = max(0.05, floor + 0.03)
    last_q: Optional[float] = None
    for frame_idx in range(REALIGN_FRAME_BUDGET):
        frame_seed = derive_seed(0, "realign", seed, frame_idx)
        tx_basis, tx_value, record = sample_link_window(
            params, phase, training_slots, frame_seed, frame_id=f"train-{frame_idx}")
        alice, bob, _ = sift_bb84_events(tx_basis, tx_value, record)
        if alice.size < REALIGN_MIN_SIFTED_BITS:
            continue
        last_q = float(np.count_nonzero(alice != bob)) / alice.size
        if last_q < threshold:
            return RealignmentOutcome(True, frame_idx + 1, phase, last_q)
        phase = apply_training_feedback(phase, min(last_q, 0.5),
                                        intrinsic_error=floor,
                                        deadband=FEEDBACK_DEADBAND)
    return RealignmentOutcome(False, REALIGN_FRAME_BUDGET, phase, last_q)
