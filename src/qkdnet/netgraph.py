"""Topology model, strict config ingestion, and built-in presets.

The config document is JSON with a versioned header. Parsing is strict:
unknown keys are rejected so scenarios stay reproducible. The schema is
documented in docs/formats.md; :func:`load_topology` accepts a dict or a
JSON string, and :func:`serialize_topology` emits the canonical form that
round-trips to an identical topology.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .errors import ConfigurationError, ValidationError
from .physlink import LinkParams, PhaseState
from .qkdproto.secrecy import EstimatorKind
from .qkdproto.sifting import SiftingProtocol
from .switchfab import (DEFAULT_INSERTION_LOSS_DB, DEFAULT_SCHEDULE_PERIOD_S,
                        SwitchPosition, SwitchState)

CONFIG_VERSION = 1
DEFAULT_FIBER_LOSS_DB_PER_KM = 0.2
DEFAULT_DRIFT_RATE_RAD_PER_S = 0.02
DEFAULT_FEEDBACK_GAIN = 0.5
DEFAULT_PREPOSITIONED_BITS = 1 << 20
_FLOAT_MAX = sys.float_info.max

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


class TopologyKind(Enum):
    FULL_MESH = "full_mesh"
    STAR = "star"


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
        overrides = {(ov.tx, ov.rx): ov for ov in self.channels}
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

    def channel_params(self, channel: QkdChannel) -> LinkParams:
        """Effective physical parameters of a logical channel."""
        return channel.params


def required_links(n_enclaves: int, topology_kind: TopologyKind) -> int:
    """Links needed to join n enclaves: full mesh n(n-1)/2, star n."""
    if n_enclaves < 2:
        raise ValidationError("a key-distribution network needs at least 2 enclaves")
    if topology_kind is TopologyKind.FULL_MESH:
        return n_enclaves * (n_enclaves - 1) // 2
    return n_enclaves


# --------------------------------------------------------------------------
# Config parsing
# --------------------------------------------------------------------------

def _require_keys(obj: dict, where: str, required: tuple, optional: tuple):
    if not isinstance(obj, dict):
        raise ValidationError(f"{where}: expected an object")
    for key in required:
        if key not in obj:
            raise ValidationError(f"{where}: missing required key {key!r}")
    allowed = set(required) | set(optional)
    for key in obj:
        if key not in allowed:
            raise ValidationError(f"{where}: unknown key {key!r}")


def _finite_number(value, where: str, name: str) -> float:
    """A JSON number: an int or float, neither NaN nor infinite. ``type()``
    and not ``isinstance()``, since a bool is an int but not a number here."""
    if type(value) in (int, float) and -_FLOAT_MAX <= value <= _FLOAT_MAX:
        return float(value)
    raise ValidationError(f"{where}: {name} must be a finite number, got {value!r}")


def _optional_number(raw: dict, key: str, where: str) -> Optional[float]:
    """An optional override: absent or null is None, else a finite number."""
    value = raw.get(key)
    return None if value is None else _finite_number(value, where, key)


def _parse_params(obj: dict, where: str) -> Dict[str, float]:
    _require_keys(obj, where, (), _LINK_PARAM_FIELDS)
    return {k: _finite_number(v, where, k) for k, v in obj.items()}


def _parse_enum(enum_cls, value, where: str):
    try:
        return enum_cls(value)
    except ValueError as exc:
        options = ", ".join(e.value for e in enum_cls)
        raise ValidationError(f"{where}: expected one of [{options}], got {value!r}") from exc


def load_topology(config: Union[str, dict]) -> Topology:
    """Parse and fully validate a topology document (strict mode)."""
    if isinstance(config, str):
        try:
            config = json.loads(config)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"config is not valid JSON: {exc}") from exc

    _require_keys(config, "topology", ("version", "nodes", "links"),
                  ("name", "description", "switches", "channels", "prepositioned",
                   "defaults"))
    if config["version"] != CONFIG_VERSION:
        raise ValidationError(f"unsupported config version {config['version']!r}")

    defaults = config.get("defaults", {})
    _require_keys(defaults, "defaults", (),
                  ("fiber_loss_db_per_km", "params", "drift_rate_rad_per_s",
                   "feedback_gain"))

    nodes: Dict[str, Node] = {}
    if not config["nodes"]:
        raise ValidationError("nodes: at least one node is required")
    for i, raw in enumerate(config["nodes"]):
        where = f"nodes[{i}]"
        _require_keys(raw, where, ("id", "role"), ("trusted",))
        role = _parse_enum(NodeRole, raw["role"], f"{where}.role")
        trusted = raw.get("trusted", True)
        if type(trusted) is not bool:
            raise ValidationError(f"{where}: trusted must be true or false, got {trusted!r}")
        node = Node(raw["id"], role, trusted)
        if node.node_id in nodes:
            raise ValidationError(f"{where}: duplicate node id {node.node_id!r}")
        if node.role is NodeRole.RELAY and not node.trusted:
            raise ValidationError(
                f"{where}: relay node {node.node_id!r} must be trusted")
        nodes[node.node_id] = node

    switches: Dict[str, SwitchState] = {}
    for i, raw in enumerate(config.get("switches", [])):
        where = f"switches[{i}]"
        _require_keys(raw, where, ("id", "tx_ports", "rx_ports"),
                      ("initial_position", "schedule_period_s", "insertion_loss_db",
                       "toggle_times_s"))
        for port in (*raw["tx_ports"], *raw["rx_ports"]):
            if port not in nodes:
                raise ValidationError(f"{where}: port references undefined node {port!r}")
        if raw["id"] in nodes or raw["id"] in switches:
            raise ValidationError(f"{where}: duplicate id {raw['id']!r}")
        position = _parse_enum(SwitchPosition, raw.get("initial_position", "bar"),
                               f"{where}.initial_position")
        period = _finite_number(raw.get("schedule_period_s", DEFAULT_SCHEDULE_PERIOD_S),
                                where, "schedule_period_s")
        insertion = _finite_number(raw.get("insertion_loss_db", DEFAULT_INSERTION_LOSS_DB),
                                   where, "insertion_loss_db")
        toggles = tuple(_finite_number(t, where, "toggle_times_s entry")
                        for t in raw.get("toggle_times_s", ()))
        try:
            switches[raw["id"]] = SwitchState(
                switch_id=raw["id"], tx_ports=tuple(raw["tx_ports"]),
                rx_ports=tuple(raw["rx_ports"]), position=position,
                schedule_period_s=period, insertion_loss_db=insertion,
                toggle_times_s=toggles)
        except (ValueError, ConfigurationError) as exc:
            raise ValidationError(f"{where}: {exc}") from exc

    links: Dict[str, Link] = {}
    endpoints = set(nodes) | set(switches)
    for i, raw in enumerate(config["links"]):
        where = f"links[{i}]"
        _require_keys(raw, where, ("id", "a", "b"),
                      ("length_km", "loss_db_override", "params"))
        for end in (raw["a"], raw["b"]):
            if end not in endpoints:
                raise ValidationError(f"{where}: endpoint references undefined node {end!r}")
        if raw["id"] in links:
            raise ValidationError(f"{where}: duplicate link id {raw['id']!r}")
        a, b = raw["a"], raw["b"]
        if a in nodes and b in nodes:
            if not (nodes[a].role.can_transmit and nodes[b].role.can_receive):
                raise ValidationError(
                    f"{where}: a QKD link needs a transmit-capable 'a' endpoint and a "
                    f"receive-capable 'b' endpoint ({a!r} is {nodes[a].role.value}, "
                    f"{b!r} is {nodes[b].role.value})")
        links[raw["id"]] = Link(
            link_id=raw["id"], a=a, b=b,
            length_km=_finite_number(raw.get("length_km", 0.0), where, "length_km"),
            loss_db_override=_optional_number(raw, "loss_db_override", where),
            params=_parse_params(raw.get("params", {}), f"{where}.params"),
        )

    channels = []
    for i, raw in enumerate(config.get("channels", [])):
        where = f"channels[{i}]"
        _require_keys(raw, where, ("tx", "rx"),
                      ("params", "estimator", "sifting", "drift_rate_rad_per_s",
                       "feedback_gain"))
        for end in (raw["tx"], raw["rx"]):
            if end not in nodes:
                raise ValidationError(f"{where}: references undefined node {end!r}")
        if any((ov.tx, ov.rx) == (raw["tx"], raw["rx"]) for ov in channels):
            raise ValidationError(f"{where}: channel {raw['tx']}-{raw['rx']} is already listed")
        channels.append(ChannelOverride(
            tx=raw["tx"], rx=raw["rx"],
            params=_parse_params(raw.get("params", {}), f"{where}.params"),
            estimator=_parse_enum(EstimatorKind, raw["estimator"], f"{where}.estimator")
            if "estimator" in raw else None,
            sifting=_parse_enum(SiftingProtocol, raw["sifting"], f"{where}.sifting")
            if "sifting" in raw else None,
            drift_rate_rad_per_s=_optional_number(raw, "drift_rate_rad_per_s", where),
            feedback_gain=_optional_number(raw, "feedback_gain", where),
        ))

    prepositioned = []
    seeded = set()
    for i, raw in enumerate(config.get("prepositioned", [])):
        where = f"prepositioned[{i}]"
        _require_keys(raw, where, ("a", "b"), ("bits",))
        for end in (raw["a"], raw["b"]):
            if end not in nodes:
                raise ValidationError(f"{where}: references undefined node {end!r}")
        pair = tuple(sorted((raw["a"], raw["b"])))
        if pair in seeded or pair[0] == pair[1]:
            raise ValidationError(f"{where}: pair {pair[0]}|{pair[1]} must join two "
                                  f"distinct nodes and be listed once")
        seeded.add(pair)
        bits = raw.get("bits", DEFAULT_PREPOSITIONED_BITS)
        if type(bits) is not int or bits < 0:
            raise ValidationError(f"{where}: bits must be an integer >= 0, got {bits!r}")
        prepositioned.append(Preposition(raw["a"], raw["b"], bits))

    topology = Topology(
        name=config.get("name", ""),
        nodes=nodes,
        links=links,
        switches=switches,
        channels=channels,
        prepositioned=prepositioned,
        fiber_loss_db_per_km=_finite_number(
            defaults.get("fiber_loss_db_per_km", DEFAULT_FIBER_LOSS_DB_PER_KM),
            "defaults", "fiber_loss_db_per_km"),
        default_params=_parse_params(defaults.get("params", {}), "defaults.params"),
        drift_rate_rad_per_s=_finite_number(
            defaults.get("drift_rate_rad_per_s", DEFAULT_DRIFT_RATE_RAD_PER_S),
            "defaults", "drift_rate_rad_per_s"),
        feedback_gain=_finite_number(defaults.get("feedback_gain", DEFAULT_FEEDBACK_GAIN),
                                     "defaults", "feedback_gain"),
        description=config.get("description", ""),
    )
    # Resolve every logical channel now: each must have valid physics and
    # phase dynamics, and the run reads them from here.
    topology.qkd_channels()
    return topology


def serialize_topology(topology: Topology) -> dict:
    """Canonical config form; load_topology(serialize_topology(t)) == t."""
    doc = {
        "version": CONFIG_VERSION,
        "name": topology.name,
        "description": topology.description,
        "nodes": [
            {"id": n.node_id, "role": n.role.value, "trusted": n.trusted}
            for n in sorted(topology.nodes.values(), key=lambda n: n.node_id)
        ],
        "links": [],
        "switches": [],
        "channels": [],
        "prepositioned": [],
        "defaults": {
            "fiber_loss_db_per_km": topology.fiber_loss_db_per_km,
            "params": dict(sorted(topology.default_params.items())),
            "drift_rate_rad_per_s": topology.drift_rate_rad_per_s,
            "feedback_gain": topology.feedback_gain,
        },
    }
    for link in sorted(topology.links.values(), key=lambda l: l.link_id):
        doc["links"].append({
            "id": link.link_id, "a": link.a, "b": link.b,
            "length_km": link.length_km,
            "loss_db_override": link.loss_db_override,
            "params": dict(sorted(link.params.items())),
        })
    for sw in sorted(topology.switches.values(), key=lambda s: s.switch_id):
        doc["switches"].append({
            "id": sw.switch_id,
            "tx_ports": list(sw.tx_ports),
            "rx_ports": list(sw.rx_ports),
            "initial_position": sw.position.value,
            "schedule_period_s": sw.schedule_period_s,
            "insertion_loss_db": sw.insertion_loss_db,
            "toggle_times_s": list(sw.toggle_times_s),
        })
    for ov in sorted(topology.channels, key=lambda o: (o.tx, o.rx)):
        entry = {"tx": ov.tx, "rx": ov.rx, "params": dict(sorted(ov.params.items()))}
        if ov.estimator:
            entry["estimator"] = ov.estimator.value
        if ov.sifting:
            entry["sifting"] = ov.sifting.value
        if ov.drift_rate_rad_per_s is not None:
            entry["drift_rate_rad_per_s"] = ov.drift_rate_rad_per_s
        if ov.feedback_gain is not None:
            entry["feedback_gain"] = ov.feedback_gain
        doc["channels"].append(entry)
    for pre in sorted(topology.prepositioned, key=lambda p: (p.a, p.b)):
        doc["prepositioned"].append({"a": pre.a, "b": pre.b, "bits": pre.bits})
    return doc


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
