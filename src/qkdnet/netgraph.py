"""Topology model, strict config ingestion, and built-in presets.

The config document is JSON with a versioned header. Parsing is strict:
unknown keys are rejected so scenarios stay reproducible. The schema is
documented in docs/formats.md; :func:`load_topology` accepts a dict or a
JSON string.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .errors import ConfigurationError, ValidationError
from .physlink import LinkParams, PhaseState
from .qkdproto.secrecy import EstimatorKind
from .qkdproto.sifting import SiftingProtocol
from .schema import choice, document, fields, integer, items, number, text
from .switchfab import (DEFAULT_INSERTION_LOSS_DB, DEFAULT_SCHEDULE_PERIOD_S,
                        SwitchPosition, SwitchState)

CONFIG_VERSION = 1
DEFAULT_FIBER_LOSS_DB_PER_KM = 0.2
DEFAULT_DRIFT_RATE_RAD_PER_S = 0.02
DEFAULT_FEEDBACK_GAIN = 0.5
DEFAULT_PREPOSITIONED_BITS = 1 << 20
# A pair's prepositioned key is drawn one byte per bit and then packed, so
# it costs that many bytes at set-up: at most 256 MiB.
MAX_PREPOSITIONED_BITS = 1 << 28

_LINK_PARAM_FIELDS = (
    "pulse_rate_hz", "mean_photon_number", "channel_loss_db", "insertion_loss_db",
    "detector_efficiency", "dark_count_prob", "dead_time_s", "intrinsic_error",
)


class NodeRole(Enum):
    TX = "tx"
    RX = "rx"
    RELAY = "relay"

    @property
    def can_transmit(self) -> bool:
        return self in (NodeRole.TX, NodeRole.RELAY)

    @property
    def can_receive(self) -> bool:
        return self in (NodeRole.RX, NodeRole.RELAY)


class LinkHealth(Enum):
    UP = "up"
    DEGRADED = "degraded"
    CUT = "cut"


@dataclass(frozen=True)
class Node:
    node_id: str
    role: NodeRole
    trusted: bool = True


@dataclass(frozen=True)
class Link:
    """One physical strand. Loss comes from length unless overridden."""

    link_id: str
    a: str
    b: str
    length_km: float = 0.0
    loss_db_override: Optional[float] = None
    params: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "params", MappingProxyType(dict(self.params)))


@dataclass(frozen=True)
class ChannelOverride:
    """Per-logical-channel parameter overrides (tx -> rx pair)."""

    tx: str
    rx: str
    params: Mapping[str, float] = field(default_factory=dict)
    estimator: Optional[EstimatorKind] = None
    sifting: Optional[SiftingProtocol] = None
    drift_rate_rad_per_s: Optional[float] = None
    feedback_gain: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "params", MappingProxyType(dict(self.params)))


_NO_OVERRIDE = ChannelOverride(tx="", rx="")


@dataclass(frozen=True)
class Preposition:
    """Out-of-band initial key segment shared by a pair (e.g. for relay
    adjacency without a quantum channel, and authentication bootstrap)."""

    a: str
    b: str
    bits: int = DEFAULT_PREPOSITIONED_BITS


@dataclass(frozen=True)
class QkdChannel:
    """A logical quantum channel: direct strand or a switched leg pair,
    with the physics, protocols and phase dynamics resolved for it when
    its topology loaded."""

    channel_id: str
    tx: str
    rx: str
    link_ids: Tuple[str, ...]
    via_switch: Optional[str]
    params: LinkParams
    sifting: SiftingProtocol
    estimator: EstimatorKind
    phase: PhaseState  # drift rate and feedback gain, at phase offset 0

    @property
    def pair(self) -> Tuple[str, str]:
        return tuple(sorted((self.tx, self.rx)))


@dataclass(frozen=True)
class Topology:
    """A network's structure, read-only once built: its indexes below are
    computed once and can never go stale."""

    name: str
    nodes: Mapping[str, Node]
    links: Mapping[str, Link]
    switches: Mapping[str, SwitchState]
    channels: Tuple[ChannelOverride, ...] = ()
    prepositioned: Tuple[Preposition, ...] = ()
    fiber_loss_db_per_km: float = DEFAULT_FIBER_LOSS_DB_PER_KM
    default_params: Mapping[str, float] = field(default_factory=dict)
    drift_rate_rad_per_s: float = DEFAULT_DRIFT_RATE_RAD_PER_S
    feedback_gain: float = DEFAULT_FEEDBACK_GAIN
    description: str = ""

    def __post_init__(self):
        for name in ("nodes", "links", "switches", "default_params"):
            object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))
        for name in ("channels", "prepositioned"):
            object.__setattr__(self, name, tuple(getattr(self, name)))

    # -- loss accounting ---------------------------------------------------

    def link_loss_db(self, link_id: str) -> float:
        link = self._link(link_id)
        if link.loss_db_override is not None:
            return link.loss_db_override
        return link.length_km * self.fiber_loss_db_per_km

    def link_budget(self, path: Union[str, Sequence[str]]) -> float:
        """Total loss of a single strand, or of the switched channel whose
        two legs the pair of strands is (in either order): both strand
        losses plus the switch's insertion loss. Strand overrides win over
        length-derived loss.
        """
        if isinstance(path, str):
            return self.link_loss_db(path)
        if len(path) == 1:
            return self.link_loss_db(path[0])
        if len(path) != 2:
            raise ValidationError("a path is one link id or a switched pair of link ids")
        legs = tuple(self._link(p).link_id for p in path)
        for ch in self._channels:
            if ch.via_switch is not None and ch.link_ids in (legs, legs[::-1]):
                return ch.params.total_loss_db
        raise ValidationError(
            f"links {legs[0]!r} and {legs[1]!r} are not the two legs of a switched channel")

    def _link(self, link_id: str) -> Link:
        if link_id not in self.links:
            raise ValidationError(f"unknown link {link_id!r}")
        return self.links[link_id]

    # -- logical channels ----------------------------------------------------

    # Indexes and resolved channels, built once (load_topology builds
    # them) and kept for the topology's lifetime.

    @cached_property
    def _channels(self) -> List[QkdChannel]:
        """Every logical channel, resolved. Merge order: link-parameter
        defaults, then each strand's overrides in path order, then the
        channel's override. Loss fields are computed from the path, not
        merged."""
        paths = [(l.a, l.b, (l.link_id,), None)
                 for l in sorted(self.links.values(), key=lambda l: l.link_id)
                 if l.a in self.nodes and l.b in self.nodes]
        for sid in sorted(self.switches):
            sw = self.switches[sid]
            legs = {n: self._leg_link(n, sid).link_id for n in (*sw.tx_ports, *sw.rx_ports)}
            paths += [(tx, rx, (legs[tx], legs[rx]), sid)
                      for tx in sw.tx_ports for rx in sw.rx_ports]
        # A channel's id joins its ends with "-", which node ids may contain.
        strands = {}
        for tx, rx, link_ids, _ in paths:
            strand = f"{tx}->{rx} over {'+'.join(link_ids)}"
            first = strands.setdefault(f"{tx}-{rx}", strand)
            if first != strand:
                raise ValidationError(f"channels {first} and {strand} share the id {tx}-{rx}")
        overrides = {(ov.tx, ov.rx): ov for ov in self.channels}
        unmatched = set(overrides) - {(tx, rx) for tx, rx, _, _ in paths}
        if unmatched:
            tx, rx = min(unmatched)
            raise ValidationError(f"channel override {tx}-{rx} names no logical channel "
                                  f"of the topology")
        # Channels that set neither drift nor gain share one phase state.
        try:
            default_phase = PhaseState(drift_rate_rad_per_s=self.drift_rate_rad_per_s,
                                       feedback_gain=self.feedback_gain)
        except ValueError as exc:
            raise ValidationError(f"defaults: {exc}") from exc
        channels = []
        for tx, rx, link_ids, sid in paths:
            ov = overrides.get((tx, rx), _NO_OVERRIDE)
            merged = dict(self.default_params)
            for link_id in link_ids:
                merged.update(self.links[link_id].params)
            merged.update(ov.params)
            merged["channel_loss_db"] = sum(self.link_loss_db(l) for l in link_ids)
            merged["insertion_loss_db"] = (self.switches[sid].insertion_loss_db if sid
                                           else merged.get("insertion_loss_db", 0.0))
            drift, gain = ov.drift_rate_rad_per_s, ov.feedback_gain
            try:
                params = LinkParams(**merged)
                phase = default_phase if drift is None and gain is None else PhaseState(
                    drift_rate_rad_per_s=self.drift_rate_rad_per_s if drift is None else drift,
                    feedback_gain=self.feedback_gain if gain is None else gain)
            except (ValueError, TypeError) as exc:
                raise ValidationError(f"channel {tx}-{rx}: invalid parameters: {exc}") from exc
            channels.append(QkdChannel(
                f"{tx}-{rx}", tx, rx, link_ids, sid, params,
                ov.sifting or SiftingProtocol.BB84,
                ov.estimator or EstimatorKind.SIMPLE_SHANNON, phase))
        return channels

    @cached_property
    def _channels_by_id(self) -> Dict[str, QkdChannel]:
        return {ch.channel_id: ch for ch in self._channels}

    @cached_property
    def channel_ids_by_pair(self) -> Dict[Tuple[str, str], Tuple[str, ...]]:
        """Ids of the channels joining each node pair, keyed by sorted pair."""
        by_pair: Dict[Tuple[str, str], List[str]] = {}
        for ch in self._channels:
            by_pair.setdefault(ch.pair, []).append(ch.channel_id)
        return {pair: tuple(ids) for pair, ids in by_pair.items()}

    def qkd_channels(self) -> List[QkdChannel]:
        """Enumerate logical channels: direct strands plus switched combos.

        The enumeration is structural: health plays no part.
        """
        return self._channels

    def channel_by_id(self, channel_id: str) -> QkdChannel:
        try:
            return self._channels_by_id[channel_id]
        except KeyError:
            raise ValidationError(f"unknown channel {channel_id!r}") from None

    def _leg_link(self, node_id: str, switch_id: str) -> Link:
        legs = [l for l in self.links.values()
                if {l.a, l.b} == {node_id, switch_id}]
        if len(legs) != 1:
            raise ValidationError(
                f"switch {switch_id!r} port {node_id!r} needs exactly one leg link, "
                f"found {len(legs)}")
        return legs[0]


# --------------------------------------------------------------------------
# Config parsing
# --------------------------------------------------------------------------

def _optional_number(raw: dict, key: str, where: str) -> Optional[float]:
    """An optional override: absent or null is None, else a finite number."""
    value = raw.get(key)
    return None if value is None else number(value, where, key)


def _parse_params(obj: dict, where: str) -> Dict[str, float]:
    fields(obj, where, (), _LINK_PARAM_FIELDS)
    return {k: number(v, where, k) for k, v in obj.items()}


def load_topology(config: Union[str, dict]) -> Topology:
    """Parse and fully validate a topology document (strict mode)."""
    config = fields(document(config, "topology"), "topology", ("version", "nodes", "links"),
                    ("name", "description", "switches", "channels", "prepositioned",
                     "defaults"))
    if type(config["version"]) is not int or config["version"] != CONFIG_VERSION:
        raise ValidationError(f"unsupported config version {config['version']!r}")

    defaults = fields(config.get("defaults", {}), "defaults", (),
                      ("fiber_loss_db_per_km", "params", "drift_rate_rad_per_s",
                       "feedback_gain"))

    nodes: Dict[str, Node] = {}
    for i, raw in enumerate(items(config["nodes"], "topology", "nodes")):
        where = f"nodes[{i}]"
        fields(raw, where, ("id", "role"), ("trusted",))
        node_id = text(raw["id"], where, "id")
        if "|" in node_id:
            # "|" joins a pair's ends in the report's reservoir rows.
            raise ValidationError(f"{where}: id must not contain '|', got {node_id!r}")
        role = choice(NodeRole, raw["role"], f"{where}.role")
        trusted = raw.get("trusted", True)
        if type(trusted) is not bool:
            raise ValidationError(f"{where}: trusted must be true or false, got {trusted!r}")
        if node_id in nodes:
            raise ValidationError(f"{where}: duplicate node id {node_id!r}")
        if role is NodeRole.RELAY and not trusted:
            raise ValidationError(f"{where}: relay node {node_id!r} must be trusted")
        nodes[node_id] = Node(node_id, role, trusted)
    if not nodes:
        raise ValidationError("nodes: at least one node is required")

    switches: Dict[str, SwitchState] = {}
    for i, raw in enumerate(items(config.get("switches", []), "topology", "switches")):
        where = f"switches[{i}]"
        fields(raw, where, ("id", "tx_ports", "rx_ports"),
               ("initial_position", "schedule_period_s", "insertion_loss_db",
                "toggle_times_s"))
        tx_ports, rx_ports = (tuple(text(port, where, "node", nodes)
                                    for port in items(raw[key], where, key))
                              for key in ("tx_ports", "rx_ports"))
        switch_id = text(raw["id"], where, "id")
        if switch_id in nodes or switch_id in switches:
            raise ValidationError(f"{where}: duplicate id {switch_id!r}")
        position = choice(SwitchPosition, raw.get("initial_position", "bar"),
                          f"{where}.initial_position")
        period = number(raw.get("schedule_period_s", DEFAULT_SCHEDULE_PERIOD_S),
                        where, "schedule_period_s")
        insertion = number(raw.get("insertion_loss_db", DEFAULT_INSERTION_LOSS_DB),
                           where, "insertion_loss_db")
        toggles = tuple(number(t, where, "toggle_times_s entry")
                        for t in items(raw.get("toggle_times_s", []), where, "toggle_times_s"))
        try:
            switches[switch_id] = SwitchState(
                switch_id=switch_id, tx_ports=tx_ports, rx_ports=rx_ports, position=position,
                schedule_period_s=period, insertion_loss_db=insertion,
                toggle_times_s=toggles)
        except (ValueError, ConfigurationError) as exc:
            raise ValidationError(f"{where}: {exc}") from exc

    links: Dict[str, Link] = {}
    endpoints = nodes.keys() | switches.keys()
    for i, raw in enumerate(items(config["links"], "topology", "links")):
        where = f"links[{i}]"
        fields(raw, where, ("id", "a", "b"), ("length_km", "loss_db_override", "params"))
        a, b = (text(raw[end], where, "endpoint", endpoints) for end in ("a", "b"))
        link_id = text(raw["id"], where, "id")
        if link_id in links:
            raise ValidationError(f"{where}: duplicate link id {link_id!r}")
        if a in nodes and b in nodes:
            if not (nodes[a].role.can_transmit and nodes[b].role.can_receive):
                raise ValidationError(
                    f"{where}: a QKD link needs a transmit-capable 'a' endpoint and a "
                    f"receive-capable 'b' endpoint ({a!r} is {nodes[a].role.value}, "
                    f"{b!r} is {nodes[b].role.value})")
        links[link_id] = Link(
            link_id=link_id, a=a, b=b,
            length_km=number(raw.get("length_km", 0.0), where, "length_km"),
            loss_db_override=_optional_number(raw, "loss_db_override", where),
            params=_parse_params(raw.get("params", {}), f"{where}.params"),
        )

    channels = []
    for i, raw in enumerate(items(config.get("channels", []), "topology", "channels")):
        where = f"channels[{i}]"
        fields(raw, where, ("tx", "rx"),
               ("params", "estimator", "sifting", "drift_rate_rad_per_s", "feedback_gain"))
        tx, rx = (text(raw[end], where, "node", nodes) for end in ("tx", "rx"))
        if any((ov.tx, ov.rx) == (tx, rx) for ov in channels):
            raise ValidationError(f"{where}: channel {tx}-{rx} is already listed")
        channels.append(ChannelOverride(
            tx=tx, rx=rx,
            params=_parse_params(raw.get("params", {}), f"{where}.params"),
            estimator=choice(EstimatorKind, raw["estimator"], f"{where}.estimator")
            if "estimator" in raw else None,
            sifting=choice(SiftingProtocol, raw["sifting"], f"{where}.sifting")
            if "sifting" in raw else None,
            drift_rate_rad_per_s=_optional_number(raw, "drift_rate_rad_per_s", where),
            feedback_gain=_optional_number(raw, "feedback_gain", where),
        ))

    prepositioned = []
    seeded = set()
    for i, raw in enumerate(items(config.get("prepositioned", []), "topology",
                                  "prepositioned")):
        where = f"prepositioned[{i}]"
        fields(raw, where, ("a", "b"), ("bits",))
        a, b = (text(raw[end], where, "node", nodes) for end in ("a", "b"))
        pair = tuple(sorted((a, b)))
        if pair in seeded or a == b:
            raise ValidationError(f"{where}: pair {pair[0]}|{pair[1]} must join two "
                                  f"distinct nodes and be listed once")
        seeded.add(pair)
        prepositioned.append(Preposition(a, b, integer(
            raw.get("bits", DEFAULT_PREPOSITIONED_BITS), where, "bits",
            0, MAX_PREPOSITIONED_BITS)))

    topology = Topology(
        name=text(config.get("name", ""), "topology", "name"),
        nodes=nodes,
        links=links,
        switches=switches,
        channels=channels,
        prepositioned=prepositioned,
        fiber_loss_db_per_km=number(
            defaults.get("fiber_loss_db_per_km", DEFAULT_FIBER_LOSS_DB_PER_KM),
            "defaults", "fiber_loss_db_per_km"),
        default_params=_parse_params(defaults.get("params", {}), "defaults.params"),
        drift_rate_rad_per_s=number(
            defaults.get("drift_rate_rad_per_s", DEFAULT_DRIFT_RATE_RAD_PER_S),
            "defaults", "drift_rate_rad_per_s"),
        feedback_gain=number(defaults.get("feedback_gain", DEFAULT_FEEDBACK_GAIN),
                             "defaults", "feedback_gain"),
        description=text(config.get("description", ""), "topology", "description"),
    )
    # Resolve every logical channel now: each must have valid physics and
    # phase dynamics, and the run reads them from here.
    topology.qkd_channels()
    return topology


# --------------------------------------------------------------------------
# Presets
# --------------------------------------------------------------------------

def cambridge_config() -> dict:
    """The six-node metro network preset.

    Two fiber transmitters (Alice at the lab, Anna 10 km out), two
    receivers (Bob at the lab, Boris 19 km out behind lossy campus
    segments), a 2x2 switch joining them, and a freespace pair (Ali, Baba)
    tied into the network by a prepositioned pair with Alice.

    Detector constants are calibrated, not measured: with mu=0.5 over the
    10 km path they put the Anna-Bob link near 1,000 secret bits/s at ~3%
    QBER. The Boris paths run mu=1.0 under the multiphoton-aware
    estimator, which prices their secret yield at exactly zero while
    sifted throughput continues. Freespace parameters are placeholders.
    The initial switch position couples Anna to Bob (and Alice to Boris).
    """
    calibrated = {
        "detector_efficiency": 0.004,
        "dark_count_prob": 1e-5,
        "intrinsic_error": 0.018,
        "mean_photon_number": 0.5,
        "pulse_rate_hz": 5e6,
        "dead_time_s": 1e-5,
    }
    return {
        "version": 1,
        "name": "cambridge",
        "description": "Six-node metro QKD network: four switched fiber "
                       "endpoints plus a freespace pair joined by key relay.",
        "nodes": [
            {"id": "Alice", "role": "tx", "trusted": True},
            {"id": "Anna", "role": "tx", "trusted": True},
            {"id": "Bob", "role": "rx", "trusted": True},
            {"id": "Boris", "role": "rx", "trusted": True},
            {"id": "Ali", "role": "tx", "trusted": True},
            {"id": "Baba", "role": "rx", "trusted": True},
        ],
        "switches": [
            {"id": "sw", "tx_ports": ["Alice", "Anna"], "rx_ports": ["Bob", "Boris"],
             "initial_position": "cross", "schedule_period_s": 900.0,
             "insertion_loss_db": 0.8}
        ],
        "links": [
            {"id": "alice-sw", "a": "Alice", "b": "sw", "length_km": 0.003},
            {"id": "anna-sw", "a": "Anna", "b": "sw", "length_km": 10.0},
            {"id": "sw-bob", "a": "sw", "b": "Bob", "length_km": 0.003},
            # 19 km strand whose measured attenuation (campus segments) far
            # exceeds its length-derived loss, hence the explicit override.
            {"id": "sw-boris", "a": "sw", "b": "Boris", "length_km": 19.0,
             "loss_db_override": 11.5},
            # Freespace pair; placeholder physics, exists to exercise key
            # relay across heterogeneous links.
            {"id": "ali-baba", "a": "Ali", "b": "Baba", "length_km": 0.5,
             "loss_db_override": 3.0,
             "params": {"pulse_rate_hz": 1e6, "detector_efficiency": 0.01,
                        "dark_count_prob": 1e-5, "intrinsic_error": 0.02}},
        ],
        "channels": [
            {"tx": "Alice", "rx": "Boris", "params": {"mean_photon_number": 1.0},
             "estimator": "multiphoton_aware"},
            {"tx": "Anna", "rx": "Boris", "params": {"mean_photon_number": 1.0},
             "estimator": "multiphoton_aware"},
        ],
        "prepositioned": [
            {"a": "Ali", "b": "Alice", "bits": DEFAULT_PREPOSITIONED_BITS},
        ],
        "defaults": {
            "fiber_loss_db_per_km": 0.2,
            "params": calibrated,
            "drift_rate_rad_per_s": 0.002,
            "feedback_gain": 0.5,
        },
    }


PRESETS = {
    "cambridge": cambridge_config,
}


def load_preset(name: str) -> Topology:
    if name not in PRESETS:
        raise ValidationError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    return load_topology(PRESETS[name]())
