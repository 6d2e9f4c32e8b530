"""Deterministic event-loop engine: executes a scenario to completion.

Simulated time only; a network day runs in seconds of wall clock. All
randomness flows from per-entity streams derived from the scenario seed,
and the heap orders (time, priority, sequence), so identical scenarios
reproduce bit-identical reports.

Per QKD session, each round samples a window of pulse slots (cost scales
with detections), sifts into a pool, and every time the pool crosses the
block target runs the full post-processing pipeline: QBER sampling,
Cascade, entropy estimation, privacy amplification, authentication charge,
and a reservoir deposit. Switch toggles force block boundaries, pause the
affected sessions, and trigger receiver realignment against the new
transmitter before key generation resumes.
"""

from __future__ import annotations

import heapq
import math
from bisect import insort
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from .bits import derive_rng, random_bits
from .errors import (
    AuthenticationStarvation,
    InvariantViolation,
    ReconciliationFailure,
)
from .keyrelay import HealthMonitor, RelayCoordinator, RelayStatus
from .keystore import ConsumePurpose, KeyOrigin, KeyStore, pair_key
from .netgraph import QkdChannel, Topology
from .physlink import (
    EveKind,
    EveModel,
    LinkParams,
    PulseFrame,
    advance_phase,
    apply_training_feedback,
    click_probability,
    sample_link_window,
    sifted_error_floor,
    transmit_frame,
)
from .qkdproto import (
    AUTH_KEY_BITS_PER_TAG,
    EntropyEstimator,
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
from .report import BlockRecord, MetricsReport, RelayOutcome, SeriesRow, SwitchEvent
from .scenario import EventKind, Scenario
from .switchfab import (REALIGN_FRAME_BUDGET, SWITCHING_TIME_S, realign_receiver,
                        resolve_path, schedule_tick)

# Heap priorities at equal timestamps.
_P_SCENARIO = 0
_P_TOGGLE = 1
_P_REALIGN = 2
_P_RELAY = 3
_P_ROUND = 4
_P_METRICS = 5

# Cadences and budgets of the event loop.
_ROUND_DURATION_S = 0.25
_METRICS_INTERVAL_S = 1.0
_SAMPLE_FRACTION = 0.10  # of a block's sifted bits, sacrificed to estimate QBER
_TRAINING_INTERVAL_S = 4.0
_TRAINING_TARGET_BITS = 256
_TRAINING_MAX_SLOTS = 1 << 21
_FEEDBACK_DEADBAND = 0.012
RELAY_RESERVE_BITS = 1024  # a relay hop leaves this much beyond pad and tag

_MIN_QBER_HINT = 0.01
_TAGS_PER_BLOCK_ROUND = 2  # one batched tag per direction per protocol round
# Training readings above this are treated as an attack or outage signature,
# not a phase error: correcting on them would steer the interferometer on
# garbage. Health monitoring raises the alarm instead.
_TRAINING_PANIC_QBER = 0.20


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
        # slot: an empty frame would realign in no time, for ever.
        p_click = click_probability(self.params)
        if p_click > 0:
            want = int(math.ceil(2.0 * _TRAINING_TARGET_BITS / p_click))
        else:
            want = _TRAINING_MAX_SLOTS
        round_slots = int(_ROUND_DURATION_S * self.params.pulse_rate_hz)
        cap = max(1, min(_TRAINING_MAX_SLOTS, round_slots))
        self.training_slots = min(max(want, min(1 << 16, cap)), cap)
        self.started = False
        self.active = False
        self.halted = False
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
        self.rng_window = derive_rng(seed, "win", cid)
        self.rng_train = derive_rng(seed, "train", cid)
        self.rng_qber = derive_rng(seed, "qber", cid)
        self.rng_pa = derive_rng(seed, "pa", cid)
        self.rng_phase = derive_rng(seed, "phase", cid)
        self.rng_announce = derive_rng(seed, "announce", cid)
        self.rng_cascade = derive_rng(seed, "cascade", cid)

    @property
    def cid(self) -> str:
        return self.channel.channel_id

    def is_cut(self) -> bool:
        return any(l in self.engine.cut_links for l in self.channel.link_ids)

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
        # Blocked relay sessions as (request index, session id), kept in
        # request order. No timer wakes them: a key deposit or a health
        # transition does, through _resume_relays.
        self._request_index: Dict[str, int] = {}
        self._waiting: List[Tuple[int, str]] = []
        self._deposits = 0
        self._heap: List[tuple] = []
        self._seq = 0
        self._accum: Dict[str, dict] = {}
        self.series: List[SeriesRow] = []
        self.blocks: List[BlockRecord] = []
        self.switch_events: List[SwitchEvent] = []

    # -- plumbing ------------------------------------------------------------

    def _push(self, time_s: float, priority: int, kind: str, payload: tuple = ()):
        heapq.heappush(self._heap, (time_s, priority, self._seq, kind, payload))
        self._seq += 1

    def _session(self, channel_id: str) -> _Session:
        if channel_id not in self.sessions:
            self.sessions[channel_id] = _Session(
                self, self.topology.channel_by_id(channel_id))
            self._accum[channel_id] = {"sifted": 0, "secret": 0, "qbers": []}
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
                f"preposition:{pair[0]}|{pair[1]}", random_bits(rng, n),
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
            handler = getattr(self, f"_on_{kind}")
            supply = self._deposits, len(self.health.transitions)
            handler(time_s, *payload)
            if self._waiting and supply != (self._deposits, len(self.health.transitions)):
                self._resume_relays(now)

        return self._build_report()

    # -- event handlers --------------------------------------------------------

    def _on_scenario(self, now: float, ev):
        kind = ev.kind
        if kind is EventKind.START_QKD:
            cid = f"{ev.args['tx']}-{ev.args['rx']}"
            session = self._session(cid)
            session.started = True
            session.last_t = session.last_phase_t = now
            # A disconnected switched pairing waits for its toggle; a cut
            # link still realigns (and fails) so the zero-click watch runs.
            if session.connected(now):
                self._push(now, _P_REALIGN, "realign", (session.cid, session.token))
        elif kind is EventKind.RELAY_REQUEST:
            session = self.coordinator.request(
                ev.args["src"], ev.args["dst"], ev.args["bits"], now)
            self._request_index[session.session_id] = len(self._request_index)
            if session.status is RelayStatus.PATH_PENDING:
                self._wait(session.session_id)
            else:
                self._push(now + self.knobs.relay_hop_latency_s, _P_RELAY,
                           "relay", (session.session_id,))
        elif kind is EventKind.CUT_LINK:
            self.cut_links.add(ev.args["link"])
        elif kind is EventKind.RESTORE_LINK:
            self.cut_links.discard(ev.args["link"])
        elif kind is EventKind.ENABLE_EVE:
            session = self._session(ev.args["channel"])
            eve = ev.args["eve"]
            session.eve = None if eve.kind is EveKind.NONE else eve
        elif kind is EventKind.SWITCH_TOGGLE:
            sid = ev.args["switch"]
            sw = self.switches[sid]
            sw = replace(sw, position=sw.position.toggled(),
                         busy_until_s=now + SWITCHING_TIME_S)
            self.switches[sid] = sw
            self.switch_events.append(SwitchEvent(now, sid, sw.position.value))
            self._reconfigure(sid, now)
        elif kind is EventKind.SET_SIFTING:
            session = self._session(ev.args["channel"])
            session.flush_pool()
            session.sifting = ev.args["protocol"]

    def _on_toggle(self, now: float, switch_id: str):
        sw, events = schedule_tick(self.switches[switch_id], now)
        self.switches[switch_id] = sw
        for tev in events:
            self.switch_events.append(
                SwitchEvent(tev.time_s, switch_id, tev.position.value))
        nxt = sw.next_toggle_s
        if nxt is not None and nxt <= self.scenario.duration_s:
            self._push(nxt, _P_TOGGLE, "toggle", (switch_id,))
        if events:
            self._reconfigure(switch_id, now)

    def _reconfigure(self, switch_id: str, now: float):
        """Pause every session behind the switch; realign the new pairings."""
        for session in self.sessions.values():
            if session.channel.via_switch != switch_id or not session.started:
                continue
            session.flush_pool()
            session.active = False
            session.token += 1
            self.health.unwatch(session.cid)
            if session.connected(now + SWITCHING_TIME_S):
                self._push(now + SWITCHING_TIME_S, _P_REALIGN, "realign",
                           (session.cid, session.token))

    def _on_realign(self, now: float, channel_id: str, token: int):
        session = self.sessions[channel_id]
        if token != session.token or session.halted:
            return
        session.drift_to(now)
        params = session.params
        if session.is_cut():
            # No light: the realignment burns its whole frame budget.
            outcome_converged = False
            frames = REALIGN_FRAME_BUDGET
        else:
            outcome = realign_receiver(
                params, session.phase,
                seed=(self.scenario.seed, channel_id, session.realign_count),
                qber_threshold=max(0.05, session.error_floor + 0.03),
                training_slots=session.training_slots,
                deadband=_FEEDBACK_DEADBAND,
                error_floor=session.error_floor)
            session.phase = outcome.phase
            outcome_converged = outcome.converged
            frames = outcome.frames_spent
        session.realign_count += 1
        realign_duration = frames * session.training_slots / params.pulse_rate_hz
        resume_at = now + realign_duration
        self.health.report_realignment(channel_id, outcome_converged, resume_at)
        if not outcome_converged:
            # Keep watching so a cut is still detected during the outage.
            self.health.watch(channel_id, resume_at)
            self._push(resume_at, _P_ROUND, "round", (channel_id, session.token))
            return
        session.active = True
        session.token += 1
        session.last_t = resume_at
        session.last_phase_t = resume_at
        # Fine-tune densely right after realignment: the acceptance
        # threshold leaves a residual offset worth trimming before it
        # shows up in many blocks.
        session.tuning = True
        session.tuning_rounds = 0
        self.health.watch(channel_id, resume_at)
        self._push(resume_at + _ROUND_DURATION_S, _P_ROUND, "round", (channel_id, session.token))

    def _on_round(self, now: float, channel_id: str, token: int):
        session = self.sessions[channel_id]
        if session.halted or token != session.token:
            return
        if not session.active:
            if not session.is_cut() and session.connected(now):
                # The outage cleared: try realignment again.
                session.token += 1
                self._push(now, _P_REALIGN, "realign", (channel_id, session.token))
                return
            # Idle but under cut surveillance.
            self.health.report_clicks(channel_id, 0, now)
            self._push(now + _ROUND_DURATION_S, _P_ROUND, "round", (channel_id, token))
            return
        params = session.params
        session.drift_to(now)

        round_slots = int(_ROUND_DURATION_S * params.pulse_rate_hz)
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

        data_slots = max(0, round_slots - training_cost)
        if session.is_cut() or not session.connected(now):
            # Cut fiber kills the sync channel too: gates never open.
            self.health.report_clicks(channel_id, 0, now)
        else:
            tx_basis, tx_value, record = self._sample_data(session, data_slots)
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
                self._accum[channel_id]["sifted"] += int(alice.size)
            if (session.pool_bits >= self.knobs.block_target_bits
                    and session.pool_bits * _SAMPLE_FRACTION >= DEFAULT_MIN_SAMPLE):
                self._process_block(session, now)

        session.last_t = now
        self._push(now + _ROUND_DURATION_S, _P_ROUND, "round", (channel_id, token))

    def _run_training(self, session: _Session, now: float) -> int:
        """One training frame, whose public bits drive a feedback step; returns its clicks."""
        session.last_training_t = now
        params = session.params
        if session.is_cut() or not session.connected(now):
            return 0
        # The PNS attacker neither disturbs training statistics nor is
        # supported by the window sampler; training skips her.
        eve = session.eve
        if eve is not None and eve.kind is EveKind.PHOTON_NUMBER_SPLIT:
            eve = None
        tx_basis, tx_value, record = sample_link_window(
            params, session.phase, session.training_slots, session.rng_train,
            eve=eve, frame_id=f"{session.cid}:train")
        alice, bob, _ = sift_bb84_events(tx_basis, tx_value, record)
        if alice.size:
            q = float(np.count_nonzero(alice != bob)) / alice.size
            if q <= _TRAINING_PANIC_QBER:
                new_phase = apply_training_feedback(
                    session.phase, min(q, 0.5),
                    intrinsic_error=session.error_floor,
                    deadband=_FEEDBACK_DEADBAND)
            else:
                # No phase verdict at this QBER: keep a pending probe's correction.
                new_phase = replace(session.phase, probe_correction=None)
            if session.tuning:
                session.tuning_rounds += 1
                settled = (new_phase is session.phase
                           and new_phase.probe_correction is None)
                if settled or session.tuning_rounds > 40:
                    session.tuning = False
            session.phase = new_phase
        return record.n_events

    def _sample_data(self, session: _Session, n_slots: int):
        params = session.params
        eve = session.eve
        if n_slots > 0 and eve is not None and eve.kind is EveKind.PHOTON_NUMBER_SPLIT:
            # The PNS attacker needs per-slot budget bookkeeping.
            frame = PulseFrame.random(f"{session.cid}:{session.block_count}",
                                      n_slots, session.rng_window)
            record = transmit_frame(params, session.phase, eve, frame,
                                    session.rng_window, max_slots=n_slots)
            slots = record.slot_index
            return frame.basis[slots], frame.value[slots], record
        return sample_link_window(params, session.phase, n_slots,
                                  session.rng_window, eve=eve,
                                  frame_id=f"{session.cid}:{session.block_count}")

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
            session.halted = True
            session.active = False
            self.health.unwatch(cid)
            return

        estimate = estimate_qber(alice, bob, _SAMPLE_FRACTION, session.rng_qber)
        qber = estimate.qber
        self.health.report_block(cid, qber, now)
        # A disagreement fraction beyond 1/2 (anti-correlated outcomes) is
        # the same evidence of compromise; the series caps at 0.5.
        self._accum[cid]["qbers"].append(min(qber, 0.5))

        beta = usable_fraction(
            EntropyEstimator(kind=session.channel.estimator, sifting=session.sifting),
            session.params)

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
            self.store.reservoir(*pair).deposit(block_id, secret,
                                                KeyOrigin.DIRECT_QKD, now)
            self._deposits += 1
            self._accum[cid]["secret"] += m
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
            self._wait(session_id)
        elif outcome == "delivered":
            self._deposits += 1

    def _wait(self, session_id: str):
        insort(self._waiting, (self._request_index[session_id], session_id))

    def _resume_relays(self, now: float):
        """Step, at this instant and in request order, every blocked relay
        session that the key deposit or health transition just seen lets move."""
        sessions = self.coordinator.sessions
        ready = self.coordinator.movable(sessions[sid] for _, sid in self._waiting)
        if not ready:
            return
        woken = {s.session_id for s in ready}
        self._waiting = [w for w in self._waiting if w[1] not in woken]
        for session in ready:
            self._push(now, _P_RELAY, "relay", (session.session_id,))

    def _on_metrics(self, now: float):
        for cid, session in self.sessions.items():
            if not session.started:
                continue
            acc = self._accum[cid]
            qber = (sum(acc["qbers"]) / len(acc["qbers"])) if acc["qbers"] else None
            self.series.append(SeriesRow(
                time_s=now, link_id=cid,
                sifted_bps=acc["sifted"] / _METRICS_INTERVAL_S,
                qber=qber,
                secret_bps=acc["secret"] / _METRICS_INTERVAL_S,
                reservoir_bits=self.store.available(*session.pair)))
            self._accum[cid] = {"sifted": 0, "secret": 0, "qbers": []}
        nxt = now + _METRICS_INTERVAL_S
        if nxt <= self.scenario.duration_s:
            self._push(nxt, _P_METRICS, "metrics", ())

    # -- report -----------------------------------------------------------------

    def _build_report(self) -> MetricsReport:
        relay_outcomes = []
        for s in self.coordinator.sessions.values():
            relay_outcomes.append(RelayOutcome(
                session_id=s.session_id, src=s.src, dst=s.dst,
                bits=s.r_length_bits, status=s.status.value,
                path=tuple(s.path), requested_at=s.requested_at,
                delivered_at=s.delivered_at, regenerations=s.regenerations,
                failure_cause=s.failure_cause))
        reservoirs = {}
        for pair in self.store.pairs():
            r = self.store.reservoirs[pair]
            reservoirs["|".join(pair)] = {
                "deposited": r.deposited, "consumed": r.consumed,
                "available": r.available}
        return MetricsReport(
            scenario_name=self.scenario.name,
            seed=self.scenario.seed,
            duration_s=self.scenario.duration_s,
            series=self.series,
            blocks=self.blocks,
            relay_sessions=relay_outcomes,
            health_log=[t.to_dict() for t in self.health.transitions],
            switch_events=self.switch_events,
            audit=list(self.store.audit),
            final_reservoirs=reservoirs,
        ).validate()


def run_scenario(scenario: Scenario) -> MetricsReport:
    """Execute the scenario's deterministic event loop to completion."""
    return Engine(scenario).run()
