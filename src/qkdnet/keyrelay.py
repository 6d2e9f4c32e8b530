"""Trusted-network key relay: path selection, hop-by-hop one-time-pad
transport of a fresh secret, failure discovery, and rerouting.

The relay graph's edges are node pairs that share key material (QKD-backed
pairs gated by link health, plus prepositioned pairs), each weighted by the
key it holds: one graph serves every request size, a hop taking an edge
whose level covers its need. A session carries a fresh random secret R
from source to destination, re-encrypted with each pair's one-time-pad key
at every hop; R sits in plaintext only inside the path's trusted nodes.
Failures discovered from QKD telemetry (sustained high error rate,
zero-click windows, realignment failures) take links out of the graph;
sessions in flight write off what they consumed, regenerate R, and reroute
around the failure. A session that starves or finds no path waits with no
timer, filed by what can free it, and one readiness rule says when it can
move (see :class:`RelayCoordinator`).
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterable, List, NamedTuple, Optional, Set, Tuple

import numpy as np

from .bits import random_bits
from .errors import NoPathError, refuse_assignment
from .keystore import ConsumePurpose, KeyOrigin, KeyStore, pair_key
from .netgraph import LinkHealth, Topology
from .qkdproto.auth import AUTH_KEY_BITS_PER_TAG, auth_tag, verify_tag
from .qkdproto.wire import Record, RecordType, encode_record

QBER_THRESHOLD = 0.12
CONSECUTIVE_BLOCKS = 3
ZERO_CLICK_WINDOW_S = 5.0


class HealthTransition(NamedTuple):
    """One change of a channel's health, and its ``health`` record row:
    ``old`` and ``new`` are :class:`~qkdnet.netgraph.LinkHealth` values."""

    time_s: float
    channel_id: str
    old: str
    new: str
    cause: str

    __setattr__ = refuse_assignment


class HealthMonitor:
    """Derives per-channel health from QKD-session telemetry.

    A channel goes Degraded after three consecutive blocks above the QBER
    threshold (set well below the intercept-resend signature and well above
    the normal operating point), Cut after a zero-click window, and
    recovers to Up after three consecutive clean blocks; ``force`` sets a
    failed realignment's or relay hop's verdict. Each transition is stamped
    with the time of the report, made at the event that causes it.
    """

    def __init__(self):
        self._status: Dict[str, LinkHealth] = {}
        # Consecutive blocks of one kind: +n above the QBER threshold, -n clean.
        self._streak: Dict[str, int] = {}
        self._last_click: Dict[str, float] = {}
        self.transitions: List[HealthTransition] = []

    def status(self, channel_id: str) -> LinkHealth:
        return self._status.get(channel_id, LinkHealth.UP)

    def watch(self, channel_id: str, time_s: float):
        """Reset the zero-click baseline as a session resumes: silence during
        a deliberate pause (switched away, realigning) is not evidence of a cut.
        """
        self._last_click[channel_id] = time_s

    def cut_due(self, channel_id: str) -> float:
        """When the channel is flagged cut if no click comes first."""
        return self._last_click[channel_id] + ZERO_CLICK_WINDOW_S

    def _set(self, channel_id: str, new: LinkHealth, time_s: float, cause: str):
        old = self.status(channel_id)
        if old is new:
            return
        self._status[channel_id] = new
        # Recovery evidence must postdate the failure (and vice versa).
        self._streak[channel_id] = 0
        self.transitions.append(HealthTransition(time_s, channel_id, old.value, new.value, cause))

    def report_block(self, channel_id: str, qber: float, time_s: float):
        """Feed one completed block's error rate into the health state."""
        streak = self._streak.get(channel_id, 0)
        if qber > QBER_THRESHOLD:
            streak = self._streak[channel_id] = max(streak, 0) + 1
            if streak >= CONSECUTIVE_BLOCKS:
                self._set(channel_id, LinkHealth.DEGRADED, time_s,
                          f"qber {qber:.3f} above {QBER_THRESHOLD} for {streak} blocks")
        else:
            streak = self._streak[channel_id] = min(streak, 0) - 1
            if (-streak >= CONSECUTIVE_BLOCKS
                    and self.status(channel_id) is not LinkHealth.UP):
                self._set(channel_id, LinkHealth.UP, time_s, f"{-streak} clean blocks")

    def report_clicks(self, channel_id: str, n_events: int, time_s: float):
        """Feed click telemetry; a long zero-click interval means a cut."""
        if n_events > 0:
            self._last_click[channel_id] = time_s
            return
        last = self._last_click.get(channel_id, time_s)
        # Not ``time_s - last``, which can round below the window at ``cut_due``.
        if time_s >= last + ZERO_CLICK_WINDOW_S and \
                self.status(channel_id) is not LinkHealth.CUT:
            self._set(channel_id, LinkHealth.CUT, time_s,
                      f"no clicks for {time_s - last:.1f} s")

    def force(self, channel_id: str, health: LinkHealth, time_s: float, cause: str):
        self._set(channel_id, health, time_s, cause)


class RelayStatus(Enum):
    PATH_PENDING = "path_pending"
    IN_FLIGHT = "in_flight"
    DELIVERED = "delivered"
    FAILED = "failed"


@dataclass
class HopTranscript:
    hop_index: int
    tx_node: str
    rx_node: str
    pair: Tuple[str, str]
    otp_offset_start: int
    otp_offset_end: int
    message: bytes
    time_s: float

    @property
    def ciphertext(self) -> np.ndarray:
        """The hop's packed one-time-pad ciphertext: the end of ``message``."""
        n_bytes = (self.otp_offset_end - self.otp_offset_start + 7) // 8
        return np.frombuffer(self.message, dtype=np.uint8, offset=len(self.message) - n_bytes)


@dataclass
class RelaySession:
    session_id: str
    src: str
    dst: str
    r_length_bits: int
    requested_at: float
    status: RelayStatus = RelayStatus.PATH_PENDING
    path: List[str] = field(default_factory=list)
    next_hop: int = 0
    secret: Optional[np.ndarray] = None            # R, packed as np.packbits
    delivered_secret: Optional[np.ndarray] = None  # R as the destination opens it
    delivered_at: Optional[float] = None
    hop_transcripts: List[HopTranscript] = field(default_factory=list)
    regenerations: int = 0
    failure_cause: str = ""
    seq: int = 0  # place in request order, from 1

    @property
    def terminal(self) -> bool:
        return self.status in (RelayStatus.DELIVERED, RelayStatus.FAILED)


def hop_need(r_length: int, reserve_bits: int = 0) -> int:
    """Bits a pair must hold to carry one hop of an ``r_length``-bit relay:
    the one-time pad and its authentication tag, plus the reserve the hop
    must leave behind."""
    return r_length + AUTH_KEY_BITS_PER_TAG + reserve_bits


def pair_up(topology: Topology, health: HealthMonitor, pair: Tuple[str, str]) -> bool:
    """Whether a sorted node pair can relay: one of its quantum channels is
    up, or it has none (a prepositioned-only pair has no link to fail)."""
    channels = topology.channel_ids_by_pair.get(pair)
    return channels is None or any(health.status(c) is LinkHealth.UP for c in channels)


def relay_pairs(topology: Topology) -> Set[Tuple[str, str]]:
    """The node pairs that can ever carry a hop: those joined by a quantum
    channel or given prepositioned key."""
    pairs = set(topology.channel_ids_by_pair)
    pairs.update(pair_key(p.a, p.b) for p in topology.prepositioned)
    return pairs


def relay_graph(topology: Topology, health: HealthMonitor,
                store: KeyStore) -> Dict[str, Dict[str, int]]:
    """Key levels over the up pairs: ``graph[a][b]`` is the bits pair
    (a, b) holds now. A hop needing ``need`` bits may use an edge whose
    level is at least ``need``."""
    graph: Dict[str, Dict[str, int]] = {n: {} for n in topology.nodes}
    for pair in relay_pairs(topology):
        if pair_up(topology, health, pair):
            a, b = pair
            graph[a][b] = graph[b][a] = store.available(a, b)
    return graph


def _layers(topology: Topology, graph: Dict[str, Dict[str, int]], src: str, need: int,
            dst: Optional[str] = None) -> Dict[str, int]:
    """Hop count from src to each node a relay of ``need``-bit hops can
    reach, stopping after the layer that reaches dst. Untrusted nodes are
    reached but never passed through: they cannot take interior positions."""
    dist = {src: 0}
    frontier = [src]
    while frontier and dst not in dist:
        nxt = []
        for node in frontier:
            for peer, level in graph[node].items():
                if level < need or peer in dist:
                    continue
                dist[peer] = dist[node] + 1
                if topology.nodes[peer].trusted:
                    nxt.append(peer)
        frontier = nxt
    return dist


def find_path(topology: Topology, graph: Dict[str, Dict[str, int]],
              src: str, dst: str, need: int) -> List[str]:
    """Shortest usable relay path from src to dst over a :func:`relay_graph`.

    Every hop must hold ``need`` bits (see :func:`hop_need`). Hop count
    first; ties broken by the larger minimum key level along the path, then
    by lexicographic node sequence. Interior nodes must be trusted. Raises
    :class:`NoPathError` when nothing qualifies.
    """
    if src == dst:
        raise ValueError("relay source and destination must differ")
    for node in (src, dst):
        if node not in topology.nodes:
            raise ValueError(f"unknown node {node!r}")
    dist = _layers(topology, graph, src, need, dst)
    if dst not in dist:
        raise NoPathError(f"no qualifying relay path {src} -> {dst} for {need}-bit hops")

    # Walking back from dst over the shortest-path layers, each node's
    # widest bottleneck to dst, and its next hops with the width each gives.
    width = {dst: float("inf")}
    hops: Dict[str, List[Tuple[str, float]]] = {}
    layer = [dst]
    while src not in width:
        prev = []
        for node in layer:
            for peer, level in graph[node].items():
                if level < need or dist.get(peer) != dist[node] - 1 or \
                        (peer != src and not topology.nodes[peer].trusted):
                    continue
                w = min(level, width[node])
                if peer not in hops:
                    hops[peer] = []
                    width[peer] = w
                    prev.append(peer)
                elif w > width[peer]:
                    width[peer] = w
                hops[peer].append((node, w))
        layer = prev
    # Walking forward, the smallest next node that keeps src's width.
    path = [src]
    while path[-1] != dst:
        path.append(min(node for node, w in hops[path[-1]] if w >= width[src]))
    return path


class RelayCoordinator:
    """Executes relay sessions over the shared key store.

    Owns session state and the blocked sessions. :meth:`wait` files one
    under what can free it: a starved session under its next-hop pair, a
    path-pending one under its hop need (see :func:`hop_need`), source
    and destination.
    :meth:`wake` reads what changed since its last call from one change
    feed, the store's audit log and the health transitions, each read by
    cursor, and examines only the sessions filed under a change. The same
    feed keeps one :func:`relay_graph` of pair levels current, which path
    search and the wake-up both read for every request size. One readiness
    rule, :meth:`_ready`, decides which of the examined sessions a step
    would move.
    """

    def __init__(self, topology: Topology, health: HealthMonitor, store: KeyStore,
                 rng: np.random.Generator, reserve_bits: int = 0):
        self.topology = topology
        self.health = health
        self.store = store
        self.rng = rng
        # Headroom a hop must leave in the pair reservoir so concurrent
        # QKD authentication upkeep cannot be starved by relay traffic.
        self.reserve_bits = reserve_bits
        self.sessions: Dict[str, RelaySession] = {}
        self._counter = 0
        # Blocked sessions by request number, each filed in one queue: a
        # starved one under its next-hop pair, a path-pending one under its
        # hop need and then (source, destination). _filed_in names a
        # session's queue by the dict that holds it, its key there and, for
        # a path-pending one, its hop need; _needs holds the hop needs
        # filed, sorted.
        self.waiting: Dict[int, RelaySession] = {}
        self._filed_in: Dict[int, Tuple[dict, object, Optional[int]]] = {}
        self._starved: Dict[Tuple[str, str], Dict[int, RelaySession]] = {}
        self._pending: Dict[int, Dict[Tuple[str, str], Dict[int, RelaySession]]] = {}
        self._needs: List[int] = []
        # The change feed (the store's audit log and the health
        # transitions) is read by cursor into the kept relay graph. What it
        # showed since the last wake-up: pairs with a deposit or a health
        # transition, and each rise of a pair's level as the interval
        # (old, new], a pair that is down counting as -1.
        self._graph = relay_graph(topology, health, store)
        self._audit_seen = len(store.audit)
        self._transitions_seen = len(health.transitions)
        self._touched: Set[Tuple[str, str]] = set()
        self._rises: List[Tuple[int, int]] = []
        self._pairs = relay_pairs(topology)
        self._pair_of_channel = {cid: pair for pair, ids in topology.channel_ids_by_pair.items()
                                 for cid in ids}

    # -- session lifecycle --------------------------------------------------

    def request(self, src: str, dst: str, r_length_bits: int,
                time_s: float = 0.0) -> RelaySession:
        """Start a relay session (the session API's start call)."""
        self._counter += 1
        session = RelaySession(
            session_id=f"relay-{self._counter}", src=src, dst=dst,
            r_length_bits=r_length_bits, requested_at=time_s, seq=self._counter)
        self.sessions[session.session_id] = session
        self._select_path(session)
        return session

    def _write_off(self, session: RelaySession, time_s: float, reason: str) -> bool:
        """Write off every one-time pad the session consumed, so none is
        ever reused; whether any hop had been transmitted."""
        for t in session.hop_transcripts:
            self.store.reservoir(*t.pair).write_off(
                t.otp_offset_start, t.otp_offset_end, time_s,
                reason=f"{session.session_id} {reason}")
        sent = bool(session.hop_transcripts)
        session.hop_transcripts = []
        return sent

    def _select_path(self, session: RelaySession) -> bool:
        """Put the session in flight from the first hop of a fresh path, if
        one qualifies; a session's first path draws its secret."""
        self._drain()
        try:
            session.path = find_path(self.topology, self._graph, session.src, session.dst,
                                     hop_need(session.r_length_bits, self.reserve_bits))
        except NoPathError:
            return False
        session.next_hop = 0
        session.status = RelayStatus.IN_FLIGHT
        if session.secret is None:
            session.secret = np.packbits(random_bits(self.rng, session.r_length_bits))
        return True

    # -- blocked sessions ---------------------------------------------------

    def _drain(self):
        """Read the change feed since the last look and bring the kept relay
        graph up to date at the pairs it touched."""
        audit, transitions = self.store.audit, self.health.transitions
        if self._audit_seen == len(audit) and self._transitions_seen == len(transitions):
            return
        changed = set()
        for rec in audit[self._audit_seen:]:
            if rec.kind == "deposit":
                self._touched.add(rec.pair)
                changed.add(rec.pair)
            elif rec.kind == "consume":
                changed.add(rec.pair)
        for t in transitions[self._transitions_seen:]:
            pair = self._pair_of_channel.get(t.channel_id)
            if pair is not None:
                self._touched.add(pair)
                changed.add(pair)
        self._audit_seen, self._transitions_seen = len(audit), len(transitions)
        for pair in changed & self._pairs:
            a, b = pair
            old = self._graph[a].get(b, -1)
            if pair_up(self.topology, self.health, pair):
                new = self._graph[a][b] = self._graph[b][a] = self.store.available(a, b)
            else:
                new = -1
                self._graph[a].pop(b, None)
                self._graph[b].pop(a, None)
            if new > old:
                self._rises.append((old, new))

    def wait(self, session: RelaySession):
        """File a session whose step just starved or found no path."""
        need = None
        if session.status is RelayStatus.PATH_PENDING:
            need = hop_need(session.r_length_bits, self.reserve_bits)
            holder = self._pending.get(need)
            if holder is None:
                holder = self._pending[need] = {}
                insort(self._needs, need)
            key = session.src, session.dst
        else:
            holder = self._starved
            key = pair_key(session.path[session.next_hop], session.path[session.next_hop + 1])
        holder.setdefault(key, {})[session.seq] = session
        self._filed_in[session.seq] = holder, key, need
        self.waiting[session.seq] = session

    def _unfile(self, session: RelaySession):
        holder, key, need = self._filed_in.pop(session.seq)
        queue = holder[key]
        del queue[session.seq]
        if not queue:
            del holder[key]
            if need is not None and not holder:
                del self._pending[need]
                del self._needs[bisect_left(self._needs, need)]
        del self.waiting[session.seq]

    def wake(self) -> List[RelaySession]:
        """Unfile and return, in request order, every filed session that a
        step would move now.

        Only a deposit or a health transition can free a session (a
        consume only lowers a level). So only two kinds of session are
        examined: those starved on a pair with one since the last call, and
        the path-pending ones whose hop need lies in a level rise since
        then, after one walk per need and source, and only where the walk
        reaches their destination. Each rise ``(old, new]`` finds the needs
        it crosses by bisecting the sorted ones filed, so the needs no rise
        crosses are never looked at.
        """
        self._drain()
        if not self._touched and not self._rises:
            return []
        candidates = [s for pair in self._touched
                      for s in self._starved.get(pair, {}).values()]
        needs = self._needs
        grown = set()  # the filed hop needs that a rise crossed
        for old, new in self._rises:
            grown.update(needs[bisect_right(needs, old):bisect_right(needs, new)])
        reach: Dict[Tuple[int, str], Dict[str, int]] = {}
        for need in grown:
            for (src, dst), queue in self._pending[need].items():
                if (need, src) not in reach:
                    reach[need, src] = _layers(self.topology, self._graph, src, need)
                if dst in reach[need, src]:
                    candidates.extend(queue.values())
        self._touched, self._rises = set(), []
        ready = sorted(self._ready(candidates, self._graph, reach), key=lambda s: s.seq)
        for session in ready:
            self._unfile(session)
        return ready

    def _ready(self, sessions: Iterable[RelaySession], graph: Dict[str, Dict[str, int]],
               reach: Dict[Tuple[int, str], Dict[str, int]]) -> List[RelaySession]:
        """The blocked sessions among ``sessions`` that a step would move now.

        A starved session can move once its next hop is funded or no longer
        up (the step then reroutes it); a path-pending one once its
        destination is reachable through trusted nodes. ``graph`` is the
        current :func:`relay_graph`; ``reach`` caches the walk for each hop
        need and source.
        """
        ready = []
        for session in sessions:
            need = hop_need(session.r_length_bits, self.reserve_bits)
            if session.status is RelayStatus.PATH_PENDING:
                if (need, session.src) not in reach:
                    reach[need, session.src] = _layers(self.topology, graph, session.src, need)
                if session.dst in reach[need, session.src]:
                    ready.append(session)
                continue
            level = graph[session.path[session.next_hop]].get(
                session.path[session.next_hop + 1], -1)
            if level >= need or level < 0:
                ready.append(session)
        return ready

    def step(self, session: RelaySession, time_s: float) -> str:
        """Advance the session by at most one hop.

        Returns one of 'pending', 'advanced', 'delivered', 'starved',
        'rerouted', 'failed' describing what happened.
        """
        if session.terminal:
            return session.status.value
        if session.status is RelayStatus.PATH_PENDING and not self._select_path(session):
            return "pending"
        hop = session.next_hop
        tx, rx = session.path[hop], session.path[hop + 1]
        if not pair_up(self.topology, self.health, pair_key(tx, rx)):
            return self.reroute(session, time_s,
                                cause=f"hop {tx}->{rx} unhealthy")
        reservoir = self.store.reservoir(tx, rx)
        if reservoir.available < hop_need(session.r_length_bits, self.reserve_bits):
            return "starved"
        otp_start = reservoir.consumed
        pad = reservoir.consume(session.r_length_bits, ConsumePurpose.ONE_TIME_PAD,
                                time_s, consumer=f"{session.session_id}:hop{hop}")
        auth_key = reservoir.consume(AUTH_KEY_BITS_PER_TAG, ConsumePurpose.AUTHENTICATION,
                                     time_s, consumer=f"{session.session_id}:hop{hop}:auth")

        ciphertext = session.secret ^ pad
        payload = struct.pack("<IH", session.r_length_bits, hop) + ciphertext.tobytes()
        record = Record(RecordType.RELAY_HOP, frame_id=session.seq, payload=payload)
        message = encode_record(record)
        tag = auth_tag(auth_key, message)
        if not verify_tag(auth_key, message, tag):
            cause = "authentication failure"
            self._write_off(session, time_s, cause)
            reservoir.write_off(otp_start, otp_start + session.r_length_bits, time_s,
                                reason=f"{session.session_id} {cause}")
            session.status = RelayStatus.FAILED
            session.failure_cause = f"authentication failed at hop {tx}->{rx}"
            for channel_id in self.topology.channel_ids_by_pair.get(pair_key(tx, rx), ()):
                self.health.force(channel_id, LinkHealth.DEGRADED, time_s,
                                  "relay authentication failure")
            return "failed"

        session.hop_transcripts.append(HopTranscript(
            hop_index=hop, tx_node=tx, rx_node=rx, pair=pair_key(tx, rx),
            otp_offset_start=otp_start, otp_offset_end=otp_start + session.r_length_bits,
            message=message, time_s=time_s))
        session.next_hop += 1
        if session.next_hop == len(session.path) - 1:
            session.delivered_secret = ciphertext ^ pad
            session.delivered_at = time_s
            session.status = RelayStatus.DELIVERED
            segment_id = f"{session.session_id}:r{session.regenerations}"
            self.store.reservoir(session.src, session.dst).deposit(
                segment_id, session.delivered_secret, session.r_length_bits,
                KeyOrigin.RELAY, time_s)
            return "delivered"
        return "advanced"

    def reroute(self, session: RelaySession, time_s: float, cause: str = "") -> str:
        """Abandon the current path and restart conservatively.

        Already-consumed one-time-pad bits are written off (logged, never
        reused); if any hop had been transmitted, R is discarded and a
        fresh secret is drawn.
        """
        if self._write_off(session, time_s, f"reroute: {cause}"):
            session.secret = np.packbits(random_bits(self.rng, session.r_length_bits))
            session.regenerations += 1
        if not self._select_path(session):
            session.status = RelayStatus.FAILED
            session.failure_cause = f"no alternate path ({cause})"
            return "failed"
        return "rerouted"
