"""Trusted-network key relay: path selection, hop-by-hop one-time-pad
transport of a fresh secret, failure discovery, and rerouting.

The relay graph's edges are node pairs that share key material (QKD-backed
pairs gated by link health, plus prepositioned pairs). A session carries a
fresh random secret R from source to destination, re-encrypted with each
pair's one-time-pad key at every hop; R sits in plaintext only inside the
path's trusted nodes. Failures discovered from QKD telemetry (sustained
high error rate, zero-click windows, realignment failures) take links out
of the graph; sessions in flight write off what they consumed, regenerate
R, and reroute around the failure.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from .bits import bits_to_bytes, random_bits, xor_bits
from .errors import NoPathError
from .keystore import ConsumePurpose, KeyOrigin, KeyStore, pair_key
from .netgraph import LinkHealth, Topology
from .qkdproto.auth import AUTH_KEY_BITS_PER_TAG, auth_tag, verify_tag
from .qkdproto.wire import Record, RecordType, encode_record

QBER_THRESHOLD = 0.12
CONSECUTIVE_BLOCKS = 3
ZERO_CLICK_WINDOW_S = 5.0


@dataclass(frozen=True)
class HealthTransition:
    time_s: float
    channel_id: str
    old: LinkHealth
    new: LinkHealth
    cause: str

    def to_dict(self) -> dict:
        return {"time_s": self.time_s, "channel_id": self.channel_id,
                "old": self.old.value, "new": self.new.value, "cause": self.cause}


class HealthMonitor:
    """Derives per-channel health from QKD-session telemetry.

    A channel goes Degraded after three consecutive blocks above the QBER
    threshold (set well below the intercept-resend signature and well above
    the normal operating point), Cut after a zero-click window, and
    recovers to Up after three consecutive clean blocks.
    """

    def __init__(self):
        self._status: Dict[str, LinkHealth] = {}
        self._bad: Dict[str, int] = {}
        self._clean: Dict[str, int] = {}
        self._last_click: Dict[str, float] = {}
        self._watched: Set[str] = set()
        self.transitions: List[HealthTransition] = []

    def status(self, channel_id: str) -> LinkHealth:
        return self._status.get(channel_id, LinkHealth.UP)

    def watch(self, channel_id: str, time_s: float):
        """Start zero-click surveillance (a session is supposed to be running).

        Resets the zero-click baseline: silence during a deliberate pause
        (switched away, realigning) is not evidence of a cut.
        """
        self._watched.add(channel_id)
        self._last_click[channel_id] = time_s

    def unwatch(self, channel_id: str):
        self._watched.discard(channel_id)

    def _set(self, channel_id: str, new: LinkHealth, time_s: float, cause: str):
        old = self.status(channel_id)
        if old is new:
            return
        self._status[channel_id] = new
        # Recovery evidence must postdate the failure (and vice versa).
        self._bad[channel_id] = 0
        self._clean[channel_id] = 0
        self.transitions.append(HealthTransition(time_s, channel_id, old, new, cause))

    def report_block(self, channel_id: str, qber: float, time_s: float):
        """Feed one completed block's error rate into the health state."""
        if qber > QBER_THRESHOLD:
            self._bad[channel_id] = self._bad.get(channel_id, 0) + 1
            self._clean[channel_id] = 0
            if self._bad[channel_id] >= CONSECUTIVE_BLOCKS:
                self._set(channel_id, LinkHealth.DEGRADED, time_s,
                          f"qber {qber:.3f} above {QBER_THRESHOLD} for "
                          f"{self._bad[channel_id]} blocks")
        else:
            self._clean[channel_id] = self._clean.get(channel_id, 0) + 1
            self._bad[channel_id] = 0
            if (self._clean[channel_id] >= CONSECUTIVE_BLOCKS
                    and self.status(channel_id) is not LinkHealth.UP):
                self._set(channel_id, LinkHealth.UP, time_s,
                          f"{self._clean[channel_id]} clean blocks")

    def report_clicks(self, channel_id: str, n_events: int, time_s: float):
        """Feed click telemetry; a long zero-click interval means a cut."""
        if n_events > 0:
            self._last_click[channel_id] = time_s
            return
        if channel_id not in self._watched:
            return
        last = self._last_click.get(channel_id, time_s)
        if time_s - last >= ZERO_CLICK_WINDOW_S and \
                self.status(channel_id) is not LinkHealth.CUT:
            self._set(channel_id, LinkHealth.CUT, time_s,
                      f"no clicks for {time_s - last:.1f} s")

    def report_realignment(self, channel_id: str, converged: bool, time_s: float):
        if not converged:
            self._set(channel_id, LinkHealth.DEGRADED, time_s,
                      "realignment failed to converge")

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
    ciphertext: np.ndarray
    otp_offset_start: int
    otp_offset_end: int
    auth_offset_start: int
    auth_offset_end: int
    message: bytes
    time_s: float


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
    secret: Optional[np.ndarray] = None
    delivered_secret: Optional[np.ndarray] = None
    delivered_at: Optional[float] = None
    hop_transcripts: List[HopTranscript] = field(default_factory=list)
    regenerations: int = 0
    failure_cause: str = ""

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


def relay_edges(topology: Topology, health: HealthMonitor, store: KeyStore,
                r_length: int, reserve_bits: int = 0) -> Dict[str, Set[str]]:
    """Adjacency over up pairs that can fund an ``r_length``-bit hop right now."""
    candidates = set(topology.channel_ids_by_pair)
    candidates.update(pair_key(p.a, p.b) for p in topology.prepositioned)
    need = hop_need(r_length, reserve_bits)
    adjacency: Dict[str, Set[str]] = {n: set() for n in topology.nodes}
    for pair in candidates:
        if store.available(*pair) < need or not pair_up(topology, health, pair):
            continue
        a, b = pair
        adjacency[a].add(b)
        adjacency[b].add(a)
    return adjacency


def _layers(topology: Topology, adjacency: Dict[str, Set[str]], src: str,
            dst: Optional[str] = None) -> Dict[str, int]:
    """Hop count from src to each node a relay can reach, stopping after the
    layer that reaches dst. Untrusted nodes are reached but never passed
    through: they cannot take interior positions."""
    dist = {src: 0}
    frontier = [src]
    while frontier and dst not in dist:
        nxt = []
        for node in frontier:
            for peer in adjacency[node]:
                if peer in dist:
                    continue
                dist[peer] = dist[node] + 1
                if topology.nodes[peer].trusted:
                    nxt.append(peer)
        frontier = nxt
    return dist


def find_path(topology: Topology, health: HealthMonitor, store: KeyStore,
              src: str, dst: str, r_length: int, reserve_bits: int = 0) -> List[str]:
    """Shortest usable relay path from src to dst.

    Every hop must hold :func:`hop_need` bits. Hop count first; ties broken
    by the larger minimum available key along the path, then by
    lexicographic node sequence. Interior nodes must be trusted. Raises
    :class:`NoPathError` when nothing qualifies.
    """
    if src == dst:
        raise ValueError("relay source and destination must differ")
    for node in (src, dst):
        if node not in topology.nodes:
            raise ValueError(f"unknown node {node!r}")
    adjacency = relay_edges(topology, health, store, r_length, reserve_bits)

    # BFS layering from src, then enumerate all shortest paths (networks
    # here are small) to apply the tie-break exactly.
    dist = _layers(topology, adjacency, src, dst)
    if dst not in dist:
        raise NoPathError(f"no qualifying relay path {src} -> {dst} for {r_length} bits")

    paths: List[List[str]] = []

    def extend(path: List[str]):
        node = path[-1]
        if node == dst:
            paths.append(list(path))
            return
        for peer in sorted(adjacency[node]):
            if dist.get(peer) == dist[node] + 1 and \
                    (peer == dst or topology.nodes[peer].trusted):
                path.append(peer)
                extend(path)
                path.pop()

    extend([src])

    def score(path: List[str]) -> Tuple[int, List[str]]:
        min_avail = min(store.available(a, b) for a, b in zip(path, path[1:]))
        return (-min_avail, path)

    return min(paths, key=score)


class RelayCoordinator:
    """Executes relay sessions over the shared key store.

    Owns session state and the per-node plaintext ledger used by the
    trusted-node exposure check: R must only ever appear at nodes on the
    delivering path.
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
        self.node_plaintexts: Dict[str, List[bytes]] = {n: [] for n in topology.nodes}
        self.corrupt_hops: Set[Tuple[str, int]] = set()  # fault injection for tests
        self._counter = 0

    # -- session lifecycle --------------------------------------------------

    def request(self, src: str, dst: str, r_length_bits: int,
                time_s: float = 0.0) -> RelaySession:
        """Start a relay session (the session API's start call)."""
        self._counter += 1
        session = RelaySession(
            session_id=f"relay-{self._counter}", src=src, dst=dst,
            r_length_bits=r_length_bits, requested_at=time_s)
        self.sessions[session.session_id] = session
        self._select_path(session)
        return session

    def status(self, session_id: str) -> RelayStatus:
        return self.sessions[session_id].status

    def cancel(self, session_id: str, time_s: float = 0.0) -> RelaySession:
        """Abort a session; key consumed so far is written off, never reused."""
        session = self.sessions[session_id]
        if session.terminal:
            return session
        for t in session.hop_transcripts:
            self.store.reservoir(*t.pair).write_off(
                t.otp_offset_start, t.otp_offset_end, time_s,
                reason=f"{session.session_id} cancelled")
        session.hop_transcripts = []
        session.status = RelayStatus.FAILED
        session.failure_cause = "cancelled"
        return session

    def _select_path(self, session: RelaySession) -> bool:
        """Put the session in flight from the first hop of a fresh path, if
        one qualifies; a session's first path draws its secret."""
        try:
            session.path = find_path(self.topology, self.health, self.store,
                                     session.src, session.dst, session.r_length_bits,
                                     self.reserve_bits)
        except NoPathError:
            return False
        session.next_hop = 0
        session.status = RelayStatus.IN_FLIGHT
        if session.secret is None:
            session.secret = random_bits(self.rng, session.r_length_bits)
            self.node_plaintexts[session.src].append(bits_to_bytes(session.secret))
        return True

    def movable(self, sessions: Iterable[RelaySession]) -> List[RelaySession]:
        """The blocked sessions among ``sessions`` that a step would move now.

        A starved session can move once its next hop is funded or no longer
        up (the step then reroutes it); a path-pending one once its
        destination is reachable through trusted nodes. Every answer comes
        from one relay graph per request size, built on first need.
        """
        graphs: Dict[int, Dict[str, Set[str]]] = {}
        reach: Dict[Tuple[int, str], Dict[str, int]] = {}
        ready = []
        for session in sessions:
            r = session.r_length_bits
            if r not in graphs:
                graphs[r] = relay_edges(self.topology, self.health, self.store,
                                        r, self.reserve_bits)
            if session.status is RelayStatus.PATH_PENDING:
                if (r, session.src) not in reach:
                    reach[r, session.src] = _layers(self.topology, graphs[r], session.src)
                if session.dst in reach[r, session.src]:
                    ready.append(session)
                continue
            tx, rx = session.path[session.next_hop], session.path[session.next_hop + 1]
            if rx in graphs[r][tx] or not pair_up(self.topology, self.health, pair_key(tx, rx)):
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
        key = reservoir.consume(session.r_length_bits, ConsumePurpose.ONE_TIME_PAD,
                                time_s, consumer=f"{session.session_id}:hop{hop}")
        auth_start = reservoir.consumed
        auth_key = reservoir.consume(AUTH_KEY_BITS_PER_TAG, ConsumePurpose.AUTHENTICATION,
                                     time_s, consumer=f"{session.session_id}:hop{hop}:auth")

        ciphertext = xor_bits(session.secret, key)
        payload = struct.pack("<IH", session.r_length_bits, hop) + bits_to_bytes(ciphertext)
        record = Record(RecordType.RELAY_HOP, frame_id=self._counter, payload=payload)
        message = encode_record(record)
        tag = auth_tag(auth_key, message)
        if (session.session_id, hop) in self.corrupt_hops:
            message = message[:-1] + bytes([message[-1] ^ 0x01])
        if not verify_tag(auth_key, message, tag):
            session.status = RelayStatus.FAILED
            session.failure_cause = f"authentication failed at hop {tx}->{rx}"
            for channel_id in self.topology.channel_ids_by_pair.get(pair_key(tx, rx), ()):
                self.health.force(channel_id, LinkHealth.DEGRADED, time_s,
                                  "relay authentication failure")
            return "failed"

        recovered = xor_bits(ciphertext, key)
        self.node_plaintexts[rx].append(bits_to_bytes(recovered))
        session.hop_transcripts.append(HopTranscript(
            hop_index=hop, tx_node=tx, rx_node=rx, pair=pair_key(tx, rx),
            ciphertext=ciphertext,
            otp_offset_start=otp_start, otp_offset_end=otp_start + session.r_length_bits,
            auth_offset_start=auth_start,
            auth_offset_end=auth_start + AUTH_KEY_BITS_PER_TAG,
            message=message, time_s=time_s))
        session.next_hop += 1
        if session.next_hop == len(session.path) - 1:
            session.delivered_secret = recovered
            session.delivered_at = time_s
            session.status = RelayStatus.DELIVERED
            segment_id = f"{session.session_id}:r{session.regenerations}"
            self.store.reservoir(session.src, session.dst).deposit(
                segment_id, session.secret, KeyOrigin.RELAY, time_s)
            return "delivered"
        return "advanced"

    def reroute(self, session: RelaySession, time_s: float, cause: str = "") -> str:
        """Abandon the current path and restart conservatively.

        Already-consumed one-time-pad bits are written off (logged, never
        reused); if any hop had been transmitted, R is discarded and a
        fresh secret is drawn.
        """
        partially_transmitted = bool(session.hop_transcripts)
        for t in session.hop_transcripts:
            self.store.reservoir(*t.pair).write_off(
                t.otp_offset_start, t.otp_offset_end, time_s,
                reason=f"{session.session_id} reroute: {cause}")
        session.hop_transcripts = []
        if partially_transmitted:
            session.secret = random_bits(self.rng, session.r_length_bits)
            session.regenerations += 1
            self.node_plaintexts[session.src].append(bits_to_bytes(session.secret))
        if not self._select_path(session):
            session.status = RelayStatus.FAILED
            session.failure_cause = f"no alternate path ({cause})"
            return "failed"
        return "rerouted"

    def drive(self, session: RelaySession, time_s: float, max_steps: int = 1000) -> str:
        """Step the session until it blocks or finishes (synchronous mode)."""
        outcome = "pending"
        for _ in range(max_steps):
            outcome = self.step(session, time_s)
            if outcome in ("pending", "starved", "delivered", "failed"):
                break
        return outcome
