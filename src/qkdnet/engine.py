"""Deterministic event-loop engine: executes a scenario to completion.

Simulated time only; a network day runs in seconds of wall clock. All
randomness flows from per-entity streams derived from the scenario seed,
and the heap orders (time, priority, sequence), so identical scenarios
reproduce bit-identical reports.

Per QKD session, each round samples a window of pulse slots (cost scales
with detections), sifts into a pool, and every time the pool crosses the
block target runs the full post-processing pipeline: QBER sampling,
Cascade, entropy estimation, privacy amplification, authentication charge,
and a reservoir deposit. A round takes one window of its session's
:class:`~qkdnet.physlink.WindowStream`, which draws them
``_WINDOWS_PER_DRAW`` (8) at a time, so records depend on that constant.
A training round takes its window in two :func:`sample_link_window`
calls: the training frame is its first slots, at the round's phase, and
the data window the rest, at the phase the feedback leaves. A change of
attacker discards the windows drawn and not yet used, and the run drops
what is left at its end. Switch toggles force block boundaries, pause
the affected sessions, and trigger receiver realignment against the new
transmitter before key generation resumes.

A started session (states in ``_State``) has at most one pending event,
and ``Engine._schedule`` is the only code that pushes one: it bumps the
session's token, so the new event retires whatever was pending, and it
pushes nothing for a halted session. ``Engine._resume`` takes a paused
session (just started, restored, re-paired by a toggle, or after a failed
realignment) back to key: a ``realign`` once its switch's blackout ends,
the zero-click watch starting there, or, while its pairing is away, a
token bump that parks it. A ``realign`` or ``round`` without light makes
the session ``UNLIT``, with one ``watchdog`` that flags the cut 5 s after
the last click, then nothing until a restore or a toggle resumes it. A
lit ``realign`` is answered by a ``realigned`` event when its frames are
spent: the next ``round`` of an ``ACTIVE`` session, or, if it failed, a
``realign`` at once. Handlers act only on the event that carries the
current token, except that a failed realignment reaches the health monitor
either way: its frames were spent. So every health row is stamped at the
event that emits it.

A relay session moves one hop per event; a blocked one has no timer: the
relay coordinator holds it and, after each event, hands back the ones a key
deposit or a health transition let move.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import replace
from enum import Enum
from typing import Dict, List, Optional, Sequence

import numpy as np

from .bits import derive_rng, random_bits
from .errors import (
    AuthenticationStarvation,
    InvariantViolation,
    ReconciliationFailure,
)
from .keyrelay import HealthMonitor, RelayCoordinator, RelayStatus
from .keystore import ConsumePurpose, KeyOrigin, KeyStore, pair_key
from .netgraph import LinkHealth, QkdChannel, Topology
from .physlink import (
    EveModel,
    LinkParams,
    WindowStream,
    advance_phase,
    apply_training_feedback,
    sample_link_window,
    sifted_error_floor,
)
from .qkdproto import (
    AUTH_KEY_BITS_PER_TAG,
    estimate_qber,
    privacy_amplify,
    reconcile_cascade,
    secret_length,
    sift_bb84_events,
    sift_sarg_events,
    usable_fraction,
)
from .qkdproto.cascade import MAX_QBER_HINT
from .qkdproto.qber import DEFAULT_MIN_SAMPLE
from .qkdproto.sifting import SiftingProtocol
from .report import BlockRecord, MetricsReport, RelayOutcome, ReservoirRow, SeriesRow
from .scenario import EventKind, Scenario
from .switchfab import (FEEDBACK_DEADBAND, SwitchEvent, SwitchState, realign_receiver,
                        resolve_path, schedule_tick, toggle)

# Heap priorities at equal timestamps.
_P_SCENARIO = 0
_P_TOGGLE = 1
_P_REALIGN = 2
_P_RELAY = 3
_P_ROUND = 4
_P_METRICS = 5
_SESSION_PRIORITY = {"realign": _P_REALIGN, "realigned": _P_REALIGN,
                     "round": _P_ROUND, "watchdog": _P_ROUND}

# Cadences and budgets of the event loop.
_ROUND_DURATION_S = 0.25
_METRICS_INTERVAL_S = 1.0
_SAMPLE_FRACTION = 0.10  # of a block's sifted bits, sacrificed to estimate QBER
_TRAINING_INTERVAL_S = 4.0
_TRAINING_TARGET_BITS = 256
_TRAINING_MAX_SLOTS = 1 << 21
# A session's round windows are drawn this many at a time (see WindowStream).
_WINDOWS_PER_DRAW = 8
RELAY_RESERVE_BITS = 1024  # a relay hop leaves this much beyond pad and tag

_MIN_QBER_HINT = 0.01
_TAGS_PER_BLOCK_ROUND = 2  # one batched tag per direction per protocol round
# Training readings above this are treated as an attack or outage signature,
# not a phase error: correcting on them would steer the interferometer on
# garbage. Health monitoring raises the alarm instead.
_TRAINING_PANIC_QBER = 0.20


class _State(Enum):
    IDLE = "idle"        # not started; an attacker or a sifting change may come first
    DARK = "dark"        # started, no key yet: realigning, or waiting for a pairing
    ACTIVE = "active"    # realigned: every round samples a data window
    UNLIT = "unlit"      # found no light: waiting for a restore or a toggle
    HALTED = "halted"    # out of authentication key, for good


class _Session:
    """Engine-internal state of one logical QKD channel's session."""

    def __init__(self, engine: "Engine", channel: QkdChannel):
        self.engine = engine
        self.channel = channel
        self.pair = channel.pair
        self.params: LinkParams = channel.params
        self.sifting: SiftingProtocol = channel.sifting
        seed = engine.scenario.seed
        cid = channel.channel_id
        init_phase = float(derive_rng(seed, "phase0", cid).uniform(-math.pi, math.pi))
        self.phase = replace(channel.phase, phase_error_rad=init_phase)
        self.eve: Optional[EveModel] = None
        self.error_floor = sifted_error_floor(self.params)
        # Training frames sized so each one yields roughly the target
        # number of matched-basis bits on this particular channel, but
        # never longer than one round's slot budget, nor shorter than one
        # slot: an empty frame would realign in no time, for ever. Below
        # 4 Hz a round holds no slot but the frame one; no such round comes
        # to train only because a 1-slot frame never sifts the
        # REALIGN_MIN_SIFTED_BITS that realignment needs.
        p_click = self.params.click_law.q
        if p_click > 0:
            want = int(math.ceil(2.0 * _TRAINING_TARGET_BITS / p_click))
        else:
            want = _TRAINING_MAX_SLOTS
        round_slots = int(_ROUND_DURATION_S * self.params.pulse_rate_hz)
        cap = max(1, min(_TRAINING_MAX_SLOTS, round_slots))
        self.training_slots = min(max(want, min(1 << 16, cap)), cap)
        self.state = _State.IDLE
        self.tuning = False
        self.tuning_rounds = 0
        self.token = 0
        self.pool_a: List[np.ndarray] = []
        self.pool_b: List[np.ndarray] = []
        self.pool_bits = 0
        self.pool_t0: Optional[float] = None
        self.last_t = 0.0
        self.last_phase_t = 0.0
        self.last_training_t = -math.inf
        self.block_count = 0
        self.realign_count = 0
        # What the next metrics row reports, gathered since the last one.
        self.interval_sifted = 0
        self.interval_secret = 0
        self.interval_qbers: List[float] = []
        self.windows = WindowStream(derive_rng(seed, "win", cid), round_slots,
                                    _WINDOWS_PER_DRAW)
        self.rng_qber = derive_rng(seed, "qber", cid)
        self.rng_pa = derive_rng(seed, "pa", cid)
        self.rng_phase = derive_rng(seed, "phase", cid)
        self.rng_announce = derive_rng(seed, "announce", cid)
        self.rng_cascade = derive_rng(seed, "cascade", cid)

    @property
    def cid(self) -> str:
        return self.channel.channel_id

    def lit(self, now_s: float) -> bool:
        """Whether light reaches the receiver: no link of the channel is cut
        and its switched pairing, if any, is made."""
        return (not any(l in self.engine.cut_links for l in self.channel.link_ids)
                and self.connected(now_s))

    def connected(self, now_s: float) -> bool:
        if self.channel.via_switch is None:
            return True
        switch = self.engine.switches[self.channel.via_switch]
        return resolve_path(switch, self.channel.tx, now_s) == self.channel.rx

    def flush_pool(self):
        """Discard in-flight sifted bits (forced block boundary)."""
        self.pool_a = []
        self.pool_b = []
        self.pool_bits = 0
        self.pool_t0 = None

    def drift_to(self, now_s: float):
        dt = now_s - self.last_phase_t
        if dt > 0:
            self.phase = advance_phase(self.phase, dt, self.rng_phase)
            self.last_phase_t = now_s


class Engine:
    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.topology: Topology = scenario.topology
        self.knobs = scenario.knobs
        # The run's own switch state: toggles replace entries here and
        # never in the topology, so rerunning the scenario starts afresh.
        self.switches = dict(self.topology.switches)
        self.store = KeyStore()
        self.health = HealthMonitor()
        self.cut_links: set = set()
        self.coordinator = RelayCoordinator(
            self.topology, self.health, self.store,
            derive_rng(scenario.seed, "relay"),
            reserve_bits=RELAY_RESERVE_BITS)
        self.sessions: Dict[str, _Session] = {}
        self._heap: List[tuple] = []
        self._seq = 0
        self.series: List[SeriesRow] = []
        self.blocks: List[BlockRecord] = []
        self.switch_events: List[SwitchEvent] = []

    # -- plumbing ------------------------------------------------------------

    def _push(self, time_s: float, priority: int, kind: str, payload: tuple = ()):
        heapq.heappush(self._heap, (time_s, priority, self._seq, kind, payload))
        self._seq += 1

    def _schedule(self, session: _Session, time_s: float, kind: str, *args):
        """Make ``kind`` at ``time_s`` the session's one pending event, its
        handler taking ``args`` after the token; a halted session gets none."""
        if session.state is _State.HALTED:
            return
        session.token += 1
        self._push(time_s, _SESSION_PRIORITY[kind], kind, (session.cid, session.token, *args))

    def _resume(self, session: _Session, now: float):
        """End a paused session's block and realign it once its switch has
        settled, its zero-click watch starting there, or park it unpaired."""
        session.state = _State.DARK
        session.flush_pool()
        via = session.channel.via_switch
        at = now if via is None else max(now, self.switches[via].busy_until_s)
        if session.connected(at):
            self.health.watch(session.cid, at)
            self._schedule(session, at, "realign")
        else:
            session.token += 1  # parked: the toggle that pairs it again realigns it

    def _go_unlit(self, session: _Session, now: float):
        """End the block in progress and wait, with one watchdog for the cut:
        due when the zero-click window runs out, or now if it already has."""
        session.state = _State.UNLIT
        session.flush_pool()
        self._schedule(session, max(now, self.health.cut_due(session.cid)), "watchdog")

    def _session(self, channel_id: str) -> _Session:
        if channel_id not in self.sessions:
            self.sessions[channel_id] = _Session(
                self, self.topology.channel_by_id(channel_id))
        return self.sessions[channel_id]

    def _preposition(self):
        """Out-of-band initial segments: explicitly configured pairs get
        theirs, then every other QKD-linked pair an authentication bootstrap."""
        bits = {pair_key(pre.a, pre.b): pre.bits for pre in self.topology.prepositioned}
        for channel in self.topology.qkd_channels():
            bits.setdefault(channel.pair, self.knobs.prepositioned_auth_bits)
        for pair, n in bits.items():
            rng = derive_rng(self.scenario.seed, "preposition", pair)
            self.store.reservoir(*pair).deposit(
                f"preposition:{pair[0]}|{pair[1]}", np.packbits(random_bits(rng, n)), n,
                KeyOrigin.PREPOSITIONED, 0.0)

    # -- run -----------------------------------------------------------------

    def run(self) -> MetricsReport:
        duration = self.scenario.duration_s
        self._preposition()
        for ev in self.scenario.events:
            self._push(ev.time_s, _P_SCENARIO, "scenario", (ev,))
        for sid, sw in self.switches.items():
            nxt = sw.next_toggle_s
            if nxt is not None and nxt <= duration:
                self._push(nxt, _P_TOGGLE, "toggle", (sid,))
        self._push(_METRICS_INTERVAL_S, _P_METRICS, "metrics", ())

        now = 0.0
        while self._heap:
            time_s, _prio, _seq, kind, payload = heapq.heappop(self._heap)
            if time_s < now:
                raise InvariantViolation(
                    f"{kind} event at {time_s} s popped after time reached {now} s")
            if time_s > duration:
                break
            now = time_s
            getattr(self, f"_on_{kind}")(time_s, *payload)
            # Step, at this instant and in request order, the blocked relay
            # sessions this event let move.
            if self.coordinator.waiting:
                for session in self.coordinator.wake():
                    self._push(now, _P_RELAY, "relay", (session.session_id,))

        for session in self.sessions.values():
            session.windows.discard()
        return self._build_report()

    # -- event handlers --------------------------------------------------------

    def _on_scenario(self, now: float, ev):
        kind = ev.kind
        if kind is EventKind.START_QKD:
            session = self._session(ev.args["channel"])
            session.last_t = session.last_phase_t = now
            self._resume(session, now)
        elif kind is EventKind.RELAY_REQUEST:
            session = self.coordinator.request(
                ev.args["src"], ev.args["dst"], ev.args["bits"], now)
            if session.status is RelayStatus.PATH_PENDING:
                self.coordinator.wait(session)
            else:
                self._push(now + self.knobs.relay_hop_latency_s, _P_RELAY,
                           "relay", (session.session_id,))
        elif kind is EventKind.CUT_LINK:
            self.cut_links.add(ev.args["link"])
        elif kind is EventKind.RESTORE_LINK:
            self.cut_links.discard(ev.args["link"])
            for session in self.sessions.values():
                if session.state is _State.UNLIT and session.lit(now):
                    self._resume(session, now)
        elif kind is EventKind.ENABLE_EVE:
            self._session(ev.args["channel"]).eve = ev.args["eve"]
        elif kind is EventKind.SWITCH_TOGGLE:
            sw, event = toggle(self.switches[ev.args["switch"]], now)
            self._install(sw, [event], now)
        elif kind is EventKind.SET_SIFTING:
            session = self._session(ev.args["channel"])
            session.flush_pool()
            session.sifting = ev.args["protocol"]

    def _on_toggle(self, now: float, switch_id: str):
        sw, events = schedule_tick(self.switches[switch_id], now)
        nxt = sw.next_toggle_s
        if nxt is not None and nxt <= self.scenario.duration_s:
            self._push(nxt, _P_TOGGLE, "toggle", (switch_id,))
        self._install(sw, events, now)

    def _install(self, sw: SwitchState, events: Sequence[SwitchEvent], now: float):
        """Take on a switch's new state and the toggles that led to it;
        pause every session behind it and realign the new pairings."""
        self.switches[sw.switch_id] = sw
        self.switch_events.extend(events)
        for session in self.sessions.values():
            if (session.channel.via_switch == sw.switch_id
                    and session.state not in (_State.IDLE, _State.HALTED)):
                self._resume(session, now)

    def _on_realign(self, now: float, channel_id: str, token: int):
        session = self.sessions[channel_id]
        if token != session.token:
            return
        if not session.lit(now):
            self._go_unlit(session, now)
            return
        session.drift_to(now)
        outcome = realign_receiver(
            session.params, session.phase,
            seed=(self.scenario.seed, channel_id, session.realign_count),
            training_slots=session.training_slots)
        session.phase = outcome.phase
        session.realign_count += 1
        resume_at = (now + outcome.frames_spent * session.training_slots
                     / session.params.pulse_rate_hz)
        self._schedule(session, resume_at, "realigned", outcome.converged)

    def _on_realigned(self, now: float, channel_id: str, token: int, converged: bool):
        session = self.sessions[channel_id]
        if not converged:
            self.health.force(channel_id, LinkHealth.DEGRADED, now,
                              "realignment failed to converge")
        if token != session.token:
            return
        if not converged:
            self._resume(session, now)
            return
        self.health.watch(channel_id, now)
        session.state = _State.ACTIVE
        session.last_t = session.last_phase_t = now
        # Fine-tune densely right after realignment: the acceptance
        # threshold leaves a residual offset worth trimming before it
        # shows up in many blocks.
        session.tuning = True
        session.tuning_rounds = 0
        self._schedule(session, now + _ROUND_DURATION_S, "round")

    def _on_watchdog(self, now: float, channel_id: str, token: int):
        if token == self.sessions[channel_id].token:
            self.health.report_clicks(channel_id, 0, now)

    def _on_round(self, now: float, channel_id: str, token: int):
        session = self.sessions[channel_id]
        if token != session.token:
            return
        if not session.lit(now):
            # Cut fiber kills the sync channel too: gates never open.
            self._go_unlit(session, now)
            return
        session.drift_to(now)

        training_cost = training_clicks = 0
        # A pending probe correction is evaluated on the very next round;
        # leaving it to the regular cadence would hold a possibly wrong
        # correction through many blocks. Fresh sessions also train every
        # round until the feedback settles into its deadband.
        if (now - session.last_training_t >= _TRAINING_INTERVAL_S
                or session.phase.probe_correction is not None
                or session.tuning):
            training_cost = session.training_slots
            training_clicks = self._run_training(session, now)

        data_slots = max(0, session.windows.n_slots - training_cost)
        tx_basis, tx_value, record = sample_link_window(
            session.params, session.phase, data_slots, session.windows, eve=session.eve,
            frame_id=f"{channel_id}:{session.block_count}")
        self.health.report_clicks(channel_id, training_clicks + record.n_events, now)
        if session.sifting is SiftingProtocol.SARG:
            alice, bob, _ = sift_sarg_events(
                tx_basis, tx_value, record, announce_seed=session.rng_announce)
        else:
            alice, bob, _ = sift_bb84_events(tx_basis, tx_value, record)
        if alice.size:
            if session.pool_t0 is None:
                session.pool_t0 = session.last_t
            session.pool_a.append(alice)
            session.pool_b.append(bob)
            session.pool_bits += alice.size
            session.interval_sifted += int(alice.size)
        if (session.pool_bits >= self.knobs.block_target_bits
                and session.pool_bits * _SAMPLE_FRACTION >= DEFAULT_MIN_SAMPLE):
            self._process_block(session, now)

        session.last_t = now
        self._schedule(session, now + _ROUND_DURATION_S, "round")

    def _run_training(self, session: _Session, now: float) -> int:
        """One training frame, the first slots of the round's window, whose
        public bits drive a feedback step; returns its clicks."""
        session.last_training_t = now
        tx_basis, tx_value, record = sample_link_window(
            session.params, session.phase, session.training_slots, session.windows,
            eve=session.eve, frame_id=f"{session.cid}:train")
        alice, bob, _ = sift_bb84_events(tx_basis, tx_value, record)
        if alice.size:
            q = float(np.count_nonzero(alice != bob)) / alice.size
            # A reading above the panic level blocks a fresh estimate, but a
            # pending probe still gets its verdict: keeping its correction
            # unjudged could lock the phase at a wrong offset.
            if q <= _TRAINING_PANIC_QBER or session.phase.probe_correction is not None:
                new_phase = apply_training_feedback(
                    session.phase, min(q, 0.5),
                    intrinsic_error=session.error_floor,
                    deadband=FEEDBACK_DEADBAND)
                # The feedback returns its input unchanged only when no
                # probe was pending and the reading needs no correction.
                settled = new_phase is session.phase
            else:
                new_phase, settled = session.phase, False
            if session.tuning:
                session.tuning_rounds += 1
                if settled or session.tuning_rounds > 40:
                    session.tuning = False
            session.phase = new_phase
        return record.n_events

    def _process_block(self, session: _Session, now: float):
        cid = session.cid
        alice = np.concatenate(session.pool_a)
        bob = np.concatenate(session.pool_b)
        t0 = session.pool_t0 if session.pool_t0 is not None else now
        session.flush_pool()
        session.block_count += 1
        block_id = f"{cid}#{session.block_count}"
        pair = session.pair

        # Authentication charge for the round's batched public messages.
        try:
            self.store.reservoir(*pair).consume(
                _TAGS_PER_BLOCK_ROUND * AUTH_KEY_BITS_PER_TAG,
                ConsumePurpose.AUTHENTICATION, now, consumer=f"{block_id}:auth")
        except AuthenticationStarvation:
            session.state = _State.HALTED
            return

        estimate = estimate_qber(alice, bob, _SAMPLE_FRACTION, session.rng_qber)
        qber = estimate.qber
        self.health.report_block(cid, qber, now)
        # A disagreement fraction beyond 1/2 (anti-correlated outcomes) is
        # the same evidence of compromise; the series caps at 0.5.
        session.interval_qbers.append(min(qber, 0.5))

        beta = usable_fraction(session.channel.estimator, session.sifting, session.params)

        def record_block(leaked: int, secret_bits: int, discarded: bool):
            self.blocks.append(BlockRecord(
                block_id=block_id, channel_id=cid, t_start=t0, t_end=now,
                sifted_bits=int(alice.size), disclosed_bits=estimate.disclosed,
                qber=qber, usable_fraction=beta, bits_leaked=leaked,
                secret_bits=secret_bits, discarded=discarded,
                via_switch=session.channel.via_switch))

        if qber > MAX_QBER_HINT:
            record_block(estimate.disclosed, 0, True)
            return
        # Cascade's parities only add to the leak, so a block whose sample
        # alone prices it at zero is kept unreconciled.
        if secret_length(estimate.remaining_alice.size, qber, estimate.disclosed, beta) == 0:
            record_block(estimate.disclosed, 0, False)
            return
        hint = min(max(qber, _MIN_QBER_HINT), MAX_QBER_HINT)
        try:
            corrected, parities = reconcile_cascade(
                estimate.remaining_alice, estimate.remaining_bob, hint,
                rng_seed=session.rng_cascade)
        except ReconciliationFailure:
            record_block(estimate.disclosed, 0, True)
            return
        leaked = estimate.disclosed + parities
        m = secret_length(int(corrected.size), qber, leaked, beta)
        if m > 0:
            # Equal reconciled keys amplify to equal secrets under one seed,
            # so both sides share a single amplification.
            if not np.array_equal(estimate.remaining_alice, corrected):
                raise InvariantViolation(
                    f"block {block_id}: keys diverge after reconciliation")
            pa_seed = random_bits(session.rng_pa, corrected.size + m - 1)
            secret = privacy_amplify(estimate.remaining_alice, m, pa_seed)
            self.store.reservoir(*pair).deposit(block_id, np.packbits(secret), m,
                                                KeyOrigin.DIRECT_QKD, now)
            session.interval_secret += m
        record_block(leaked, m, False)

    def _on_relay(self, now: float, session_id: str):
        session = self.coordinator.sessions[session_id]
        if session.terminal:
            return
        outcome = self.coordinator.step(session, now)
        if outcome in ("advanced", "rerouted"):
            self._push(now + self.knobs.relay_hop_latency_s, _P_RELAY,
                       "relay", (session_id,))
        elif outcome in ("starved", "pending"):
            self.coordinator.wait(session)

    def _on_metrics(self, now: float):
        for cid, session in self.sessions.items():
            if session.state is _State.IDLE:
                continue
            qbers = session.interval_qbers
            self.series.append(SeriesRow(
                time_s=now, link_id=cid,
                sifted_bps=session.interval_sifted / _METRICS_INTERVAL_S,
                qber=(sum(qbers) / len(qbers)) if qbers else None,
                secret_bps=session.interval_secret / _METRICS_INTERVAL_S,
                reservoir_bits=self.store.available(*session.pair)))
            session.interval_sifted = session.interval_secret = 0
            session.interval_qbers = []
        nxt = now + _METRICS_INTERVAL_S
        if nxt <= self.scenario.duration_s:
            self._push(nxt, _P_METRICS, "metrics", ())

    # -- report -----------------------------------------------------------------

    def _build_report(self) -> MetricsReport:
        relay_outcomes = [RelayOutcome(
            session_id=s.session_id, src=s.src, dst=s.dst,
            bits=s.r_length_bits, status=s.status.value,
            path=tuple(s.path), requested_at=s.requested_at,
            delivered_at=s.delivered_at, regenerations=s.regenerations,
            failure_cause=s.failure_cause) for s in self.coordinator.sessions.values()]
        reservoirs = (ReservoirRow("|".join(pair), r.deposited, r.consumed, r.available)
                      for pair, r in self.store.reservoirs.items())
        return MetricsReport(
            scenario_name=self.scenario.name,
            seed=self.scenario.seed,
            duration_s=self.scenario.duration_s,
            series=self.series,
            blocks=self.blocks,
            relay_sessions=relay_outcomes,
            health_log=list(self.health.transitions),
            switch_events=self.switch_events,
            audit=list(self.store.audit),
            final_reservoirs={row.pair: row for row in reservoirs},
        ).validate()


def run_scenario(scenario: Scenario) -> MetricsReport:
    """Execute the scenario's deterministic event loop to completion."""
    return Engine(scenario).run()
