"""Scenario documents: what to run, on which topology, with which faults.

A scenario is JSON with a versioned header (strictly validated like the
topology schema): a topology reference (preset name or inline document), a
duration, a master seed, optional engine knobs, and a time-ordered list of
events. Identical (scenario, seed) always reproduces a bit-identical run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import Mapping, Tuple, Union

from .errors import ValidationError
from .netgraph import MAX_PREPOSITIONED_BITS, Topology, _finite_number, load_preset, load_topology
from .physlink import EveKind, EveModel
from .qkdproto.sifting import SiftingProtocol

SCENARIO_VERSION = 1


class EventKind(Enum):
    START_QKD = "start_qkd"
    RELAY_REQUEST = "relay_request"
    CUT_LINK = "cut_link"
    RESTORE_LINK = "restore_link"
    ENABLE_EVE = "enable_eve"
    SWITCH_TOGGLE = "switch_toggle"
    SET_SIFTING = "set_sifting"


@dataclass(frozen=True)
class ScenarioEvent:
    time_s: float
    kind: EventKind
    args: Mapping[str, object]  # read-only: load_scenario wraps a fresh dict


# Each knob's admissible type and range: a negative delay would schedule
# the past, a negative budget would invert a check, a bit count is a whole
# number, and prepositioned key is held one byte per bit. A bool is never a
# number here (JSON true is not 1).
_KNOB_RANGES = {
    "block_target_bits": (int, 1, math.inf),
    "relay_hop_latency_s": ((int, float), 0, math.inf),
    "prepositioned_auth_bits": (int, 0, MAX_PREPOSITIONED_BITS),
}


@dataclass(frozen=True)
class EngineKnobs:
    """The event loop's settable sizes and delay; its other cadences and
    budgets are constants of the engine."""

    block_target_bits: int = 4096
    relay_hop_latency_s: float = 0.05
    prepositioned_auth_bits: int = 1 << 20

    def __post_init__(self):
        for name, (types, minimum, maximum) in _KNOB_RANGES.items():
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, types) \
                    or not minimum <= value <= maximum:
                kind = "an integer" if types is int else "a number"
                bound = f">= {minimum}" if maximum == math.inf else f"in [{minimum}, {maximum}]"
                raise ValidationError(
                    f"engine: {name} must be {kind} {bound}, got {value!r}")


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


_EVENT_FIELDS = {
    EventKind.START_QKD: {"tx", "rx"},
    EventKind.RELAY_REQUEST: {"src", "dst", "bits"},
    EventKind.CUT_LINK: {"link"},
    EventKind.RESTORE_LINK: {"link"},
    EventKind.ENABLE_EVE: {"channel", "eve"},
    EventKind.SWITCH_TOGGLE: {"switch"},
    EventKind.SET_SIFTING: {"channel", "protocol"},
}


# A relay request's size travels as a u32 in the hop payload.
_MAX_RELAY_BITS = 2 ** 32 - 1


def _parse_eve(raw: dict, where: str) -> EveModel:
    if not isinstance(raw, dict) or "kind" not in raw:
        raise ValidationError(f"{where}: eve needs a 'kind'")
    extra = set(raw) - {"kind", "fraction"}
    if extra:
        raise ValidationError(f"{where}: unknown eve keys {sorted(extra)}")
    try:
        kind = EveKind(raw["kind"])
    except ValueError as exc:
        raise ValidationError(f"{where}: unknown eve kind {raw['kind']!r}") from exc
    fraction = raw.get("fraction", 1.0)
    if type(fraction) not in (int, float) or not 0 <= fraction <= 1:
        raise ValidationError(f"{where}: eve fraction must be a number in [0, 1], "
                              f"got {fraction!r}")
    return EveModel(kind=kind, intercept_fraction=float(fraction))


def load_scenario(config: Union[str, dict]) -> Scenario:
    """Parse and validate a scenario document (strict mode)."""
    if isinstance(config, str):
        try:
            config = json.loads(config)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"scenario is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ValidationError("scenario: expected an object")
    allowed = {"version", "name", "topology", "duration_s", "seed", "engine", "events"}
    for key in ("version", "topology", "duration_s", "seed"):
        if key not in config:
            raise ValidationError(f"scenario: missing required key {key!r}")
    unknown = set(config) - allowed
    if unknown:
        raise ValidationError(f"scenario: unknown keys {sorted(unknown)}")
    if config["version"] != SCENARIO_VERSION:
        raise ValidationError(f"unsupported scenario version {config['version']!r}")

    topo_ref = config["topology"]
    if isinstance(topo_ref, dict) and set(topo_ref) == {"preset"}:
        topology = load_preset(topo_ref["preset"])
    elif isinstance(topo_ref, dict):
        topology = load_topology(topo_ref)
    else:
        raise ValidationError("topology: expected {'preset': name} or an inline document")

    knobs_raw = config.get("engine", {})
    valid_knobs = set(EngineKnobs.__dataclass_fields__)
    unknown = set(knobs_raw) - valid_knobs
    if unknown:
        raise ValidationError(f"engine: unknown keys {sorted(unknown)}")
    knobs = EngineKnobs(**knobs_raw)

    events = []
    for i, raw in enumerate(config.get("events", [])):
        where = f"events[{i}]"
        if not isinstance(raw, dict) or "t" not in raw or "kind" not in raw:
            raise ValidationError(f"{where}: events need 't' and 'kind'")
        try:
            kind = EventKind(raw["kind"])
        except ValueError as exc:
            raise ValidationError(f"{where}: unknown event kind {raw['kind']!r}") from exc
        required = _EVENT_FIELDS[kind]
        present = set(raw) - {"t", "kind"}
        if present != required:
            raise ValidationError(
                f"{where}: {kind.value} needs exactly {sorted(required)}, got {sorted(present)}")
        args = {k: raw[k] for k in required}
        if kind is EventKind.ENABLE_EVE:
            args["eve"] = _parse_eve(args["eve"], where)
        if kind is EventKind.SET_SIFTING:
            try:
                args["protocol"] = SiftingProtocol(args["protocol"])
            except ValueError as exc:
                raise ValidationError(f"{where}: unknown protocol {args['protocol']!r}") from exc
        if kind is EventKind.RELAY_REQUEST:
            bits = args["bits"]
            if type(bits) is not int or not 1 <= bits <= _MAX_RELAY_BITS:
                raise ValidationError(
                    f"{where}: bits must be an integer in [1, {_MAX_RELAY_BITS}], "
                    f"got {bits!r}")
        events.append(ScenarioEvent(_finite_number(raw["t"], where, "t"), kind,
                                    MappingProxyType(args)))

    seed = config["seed"]
    if type(seed) is not int:
        raise ValidationError(f"scenario: seed must be an integer, got {seed!r}")
    scenario = Scenario(
        topology=topology,
        duration_s=_finite_number(config["duration_s"], "scenario", "duration_s"),
        seed=seed,
        events=tuple(events),
        knobs=knobs,
        name=config.get("name", ""),
    )
    _validate_references(scenario)
    return scenario


def _validate_references(scenario: Scenario) -> None:
    topo = scenario.topology
    channel_ids = {c.channel_id for c in topo.qkd_channels()}
    for i, ev in enumerate(scenario.events):
        where = f"events[{i}]"
        a = ev.args
        if ev.kind is EventKind.START_QKD:
            cid = f"{a['tx']}-{a['rx']}"
            if cid not in channel_ids:
                raise ValidationError(f"{where}: no QKD channel {cid!r} in the topology")
        elif ev.kind in (EventKind.CUT_LINK, EventKind.RESTORE_LINK):
            if a["link"] not in topo.links:
                raise ValidationError(f"{where}: unknown link {a['link']!r}")
        elif ev.kind in (EventKind.ENABLE_EVE, EventKind.SET_SIFTING):
            if a["channel"] not in channel_ids:
                raise ValidationError(f"{where}: unknown channel {a['channel']!r}")
        elif ev.kind is EventKind.SWITCH_TOGGLE:
            if a["switch"] not in topo.switches:
                raise ValidationError(f"{where}: unknown switch {a['switch']!r}")
        elif ev.kind is EventKind.RELAY_REQUEST:
            for node in (a["src"], a["dst"]):
                if node not in topo.nodes:
                    raise ValidationError(f"{where}: unknown node {node!r}")
            if a["src"] == a["dst"]:
                raise ValidationError(f"{where}: relay source and destination must differ, "
                                      f"both are {a['src']!r}")


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
