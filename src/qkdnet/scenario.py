"""Scenario documents: what to run, on which topology, with which faults.

A scenario is JSON with a versioned header (strictly validated like the
topology schema): a topology reference (preset name or inline document), a
duration, a master seed, optional engine knobs, and a time-ordered list of
events. Identical (scenario, seed) always reproduces a bit-identical run.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import Mapping, NamedTuple, Tuple, Union

from .errors import ValidationError, refuse_assignment
from .netgraph import MAX_PREPOSITIONED_BITS, Topology, load_preset, load_topology
from .physlink import EveKind, EveModel
from .qkdproto.sifting import SiftingProtocol
from .schema import choice, document, fields, integer, items, number, text

SCENARIO_VERSION = 1


class EventKind(Enum):
    START_QKD = "start_qkd"
    RELAY_REQUEST = "relay_request"
    CUT_LINK = "cut_link"
    RESTORE_LINK = "restore_link"
    ENABLE_EVE = "enable_eve"
    SWITCH_TOGGLE = "switch_toggle"
    SET_SIFTING = "set_sifting"


class ScenarioEvent(NamedTuple):
    time_s: float
    kind: EventKind
    args: Mapping[str, object]  # read-only: load_scenario wraps a fresh dict

    __setattr__ = refuse_assignment


@dataclass(frozen=True)
class EngineKnobs:
    """The event loop's settable sizes and delay; its other cadences and
    budgets are constants of the engine."""

    block_target_bits: int = 4096
    relay_hop_latency_s: float = 0.05
    prepositioned_auth_bits: int = 1 << 20

    def __post_init__(self):
        # A negative delay would schedule the past, a bit count is a whole
        # number, and prepositioned key is drawn one byte per bit (then held
        # packed).
        integer(self.block_target_bits, "engine", "block_target_bits", 1)
        number(self.relay_hop_latency_s, "engine", "relay_hop_latency_s", 0)
        integer(self.prepositioned_auth_bits, "engine", "prepositioned_auth_bits",
                0, MAX_PREPOSITIONED_BITS)


@dataclass(frozen=True)
class Scenario:
    topology: Topology
    duration_s: float
    seed: int
    events: Tuple[ScenarioEvent, ...] = ()
    knobs: EngineKnobs = field(default_factory=EngineKnobs)
    name: str = ""

    def __post_init__(self):
        if not (math.isfinite(self.duration_s) and self.duration_s > 0):
            raise ValidationError(
                f"duration_s must be finite and positive, got {self.duration_s!r}")
        times = [e.time_s for e in self.events]
        if any(not 0 <= t <= self.duration_s for t in times):
            raise ValidationError("event times must lie within [0, duration]")
        if times != sorted(times):
            raise ValidationError("events must be time-ordered")
        start = EventKind.START_QKD
        started = set()
        for i, ev in enumerate(self.events):
            if ev.kind is start:
                if ev.args["channel"] in started:
                    raise ValidationError(f"events[{i}]: channel {ev.args['channel']!r} "
                                          f"is already started; a channel starts once")
                started.add(ev.args["channel"])


# Each event kind's fields: exactly these, no more and no fewer.
_EVENT_KEYS = {kind: frozenset(("t", "kind", *args)) for kind, args in {
    EventKind.START_QKD: ("tx", "rx"),
    EventKind.RELAY_REQUEST: ("src", "dst", "bits"),
    EventKind.CUT_LINK: ("link",),
    EventKind.RESTORE_LINK: ("link",),
    EventKind.ENABLE_EVE: ("channel", "eve"),
    EventKind.SWITCH_TOGGLE: ("switch",),
    EventKind.SET_SIFTING: ("channel", "protocol"),
}.items()}
_ANY_EVENT_KEY = frozenset().union(*_EVENT_KEYS.values())
# A kind's JSON string -> (kind, its keys): one lookup by the string, as an
# Enum member hashes in Python.
_KIND_KEYS = {kind.value: (kind, keys) for kind, keys in _EVENT_KEYS.items()}
_EVE_KINDS = {kind.value: kind for kind in EveKind}
_EVE_KEYS = frozenset(("kind", "fraction"))
_PROTOCOLS = {protocol.value: protocol for protocol in SiftingProtocol}
_KNOB_NAMES = tuple(EngineKnobs.__dataclass_fields__)

# A relay request's size travels as a u32 in the hop payload.
_MAX_RELAY_BITS = 2 ** 32 - 1
# What schema.number admits as a finite number.
_NUMBER_TYPES = (int, float)
_FLOAT_MAX = sys.float_info.max

# Members bound to module names: an attribute read off EventKind costs
# about 0.1 us, a module global a tenth of that.
_START_QKD = EventKind.START_QKD
_RELAY_REQUEST = EventKind.RELAY_REQUEST
_SWITCH_TOGGLE = EventKind.SWITCH_TOGGLE
_ENABLE_EVE = EventKind.ENABLE_EVE
_SET_SIFTING = EventKind.SET_SIFTING


def _at(i: int) -> str:
    return f"events[{i}]"


def _parse_eve(raw, i: int) -> EveModel:
    """Event ``i``'s attacker model, tested as ``_parse_event`` tests."""
    kind = raw.get("kind") if type(raw) is dict else None
    kind = _EVE_KINDS.get(kind) if type(kind) is str else None
    if kind is None or not raw.keys() <= _EVE_KEYS:
        fields(raw, f"{_at(i)}.eve", ("kind",), ("fraction",))
        kind = choice(EveKind, raw["kind"], f"{_at(i)}.eve.kind")
    fraction = raw.get("fraction", 1.0)
    if type(fraction) not in _NUMBER_TYPES or not 0 <= fraction <= 1:
        fraction = number(fraction, _at(i), "eve fraction", 0, 1)
    return EveModel(kind=kind, intercept_fraction=float(fraction))


def _parse_event(raw, i: int, topology: Topology, channels) -> ScenarioEvent:
    """Event ``i``, its references checked against the topology, whose
    channel ids ``channels`` maps from their (tx, rx) ends.

    Each field is tested once, inline. A field that fails its test goes to
    the schema reader that words its one-line error, so a valid event
    builds no message, and a malformed one is judged field by field in one
    fixed order: shape and kind, the kind's fields, then ``t``."""
    kind = raw.get("kind") if type(raw) is dict else None
    kind, keys = _KIND_KEYS.get(kind, (None, None)) if type(kind) is str else (None, None)
    if kind is None or raw.keys() != keys:
        where = _at(i)
        kind = choice(EventKind, fields(raw, where, ("t", "kind"), _ANY_EVENT_KEY)["kind"],
                      f"{where}.kind")
        if raw.keys() != _EVENT_KEYS[kind]:
            raise ValidationError(f"{where}: {kind.value} needs exactly "
                                  f"{sorted(_EVENT_KEYS[kind])}, got {sorted(raw)}")
    if kind is _RELAY_REQUEST:
        src, dst, bits = raw["src"], raw["dst"], raw["bits"]
        nodes = topology.nodes
        if type(src) is not str or src not in nodes:
            text(src, _at(i), "node", nodes)
        if type(dst) is not str or dst not in nodes:
            text(dst, _at(i), "node", nodes)
        if src == dst:
            raise ValidationError(f"{_at(i)}: relay source and destination must differ, "
                                  f"both are {src!r}")
        if type(bits) is not int or not 1 <= bits <= _MAX_RELAY_BITS:
            integer(bits, _at(i), "bits", 1, _MAX_RELAY_BITS)
        args = {"src": src, "dst": dst, "bits": bits}
    elif kind is _START_QKD:
        tx, rx = raw["tx"], raw["rx"]
        if type(tx) is not str:
            text(tx, _at(i), "tx")
        if type(rx) is not str:
            text(rx, _at(i), "rx")
        if (tx, rx) not in channels:
            raise ValidationError(f"{_at(i)}: no QKD channel from {tx!r} to {rx!r} "
                                  f"in the topology")
        args = {"channel": channels[tx, rx]}
    elif kind is _SWITCH_TOGGLE:
        switch = raw["switch"]
        if type(switch) is not str or switch not in topology.switches:
            text(switch, _at(i), "switch", topology.switches)
        args = {"switch": switch}
    elif kind is _ENABLE_EVE or kind is _SET_SIFTING:
        channel = raw["channel"]
        if type(channel) is not str or channel not in channels.values():
            text(channel, _at(i), "channel", channels.values())
        if kind is _ENABLE_EVE:
            args = {"channel": channel, "eve": _parse_eve(raw["eve"], i)}
        else:
            protocol = raw["protocol"]
            protocol = _PROTOCOLS.get(protocol) if type(protocol) is str else None
            if protocol is None:
                protocol = choice(SiftingProtocol, raw["protocol"], f"{_at(i)}.protocol")
            args = {"channel": channel, "protocol": protocol}
    else:  # cut_link or restore_link
        link = raw["link"]
        if type(link) is not str or link not in topology.links:
            text(link, _at(i), "link", topology.links)
        args = {"link": link}
    t = raw["t"]
    if type(t) not in _NUMBER_TYPES or not -_FLOAT_MAX <= t <= _FLOAT_MAX:
        number(t, _at(i), "t")
    return ScenarioEvent(float(t), kind, MappingProxyType(args))


def load_scenario(config: Union[str, dict]) -> Scenario:
    """Parse and validate a scenario document (strict mode)."""
    config = fields(document(config, "scenario"), "scenario",
                    ("version", "topology", "duration_s", "seed"), ("name", "engine", "events"))
    if type(config["version"]) is not int or config["version"] != SCENARIO_VERSION:
        raise ValidationError(f"unsupported scenario version {config['version']!r}")

    topo_ref = config["topology"]
    if type(topo_ref) is dict and topo_ref.keys() == {"preset"}:
        topology = load_preset(text(topo_ref["preset"], "topology", "preset"))
    elif type(topo_ref) is dict:
        topology = load_topology(topo_ref)
    else:
        raise ValidationError("topology: expected {'preset': name} or an inline document")

    knobs = EngineKnobs(**fields(config.get("engine", {}), "engine", (), _KNOB_NAMES))
    channels = {(c.tx, c.rx): c.channel_id for c in topology.qkd_channels()}
    events = tuple([_parse_event(raw, i, topology, channels)
                    for i, raw in enumerate(items(config.get("events", []), "scenario",
                                                  "events"))])
    return Scenario(
        topology=topology,
        duration_s=number(config["duration_s"], "scenario", "duration_s"),
        seed=integer(config["seed"], "scenario", "seed"),
        events=events,
        knobs=knobs,
        name=text(config.get("name", ""), "scenario", "name"),
    )


def default_preset_scenario(preset: str = "cambridge", duration_s: float = 600.0,
                            seed: int = 1) -> Scenario:
    """Convenience run: key generation on the preset's headline channels."""
    if preset != "cambridge":
        raise ValidationError(f"no default scenario for preset {preset!r}")
    return load_scenario({
        "version": 1,
        "name": f"{preset}-default",
        "topology": {"preset": preset},
        "duration_s": duration_s,
        "seed": seed,
        "events": [
            {"t": 0.0, "kind": "start_qkd", "tx": "Anna", "rx": "Bob"},
            {"t": 0.0, "kind": "start_qkd", "tx": "Alice", "rx": "Boris"},
        ],
    })
