"""Scenario schema, engine behavior, reports, and the CLI surface."""

import copy
import csv
import json
import math
import os
import pickle
import re
import subprocess
import sys
from collections import Counter
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest

from qkdnet import cli as cli_module
from qkdnet import engine as engine_module
from qkdnet import netgraph as ng
from qkdnet import switchfab as sf
from qkdnet.cli import main
from qkdnet.engine import RELAY_RESERVE_BITS, Engine, run_scenario
from qkdnet.errors import InvariantViolation, ValidationError
from qkdnet.keyrelay import QBER_THRESHOLD, ZERO_CLICK_WINDOW_S, HealthTransition, hop_need
from qkdnet.keystore import AuditRecord
from qkdnet.physlink import EveModel, WindowStream, sifted_error_floor
from qkdnet.report import (CSV_COLUMNS, BlockRecord, MetricsReport, RelayOutcome, ReservoirRow,
                           SeriesRow, read_records, verify_report)
from qkdnet.scenario import (EngineKnobs, EventKind, Scenario, ScenarioEvent,
                             default_preset_scenario, load_scenario)
from qkdnet.switchfab import RealignmentOutcome


def _minimal(duration=1.0, events=(), **engine):
    doc = {"version": 1, "name": "t", "topology": {"preset": "cambridge"},
           "duration_s": duration, "seed": 1, "events": list(events)}
    if engine:
        doc["engine"] = engine
    return doc


def test_scenario_requires_core_keys():
    with pytest.raises(ValidationError, match="duration_s"):
        load_scenario({"version": 1, "topology": {"preset": "cambridge"}, "seed": 1})


def test_scenario_rejects_unknown_keys_and_events():
    doc = _minimal()
    doc["extra"] = True
    with pytest.raises(ValidationError, match="extra"):
        load_scenario(doc)
    with pytest.raises(ValidationError, match="kind"):
        load_scenario(_minimal(events=[{"t": 0.0, "kind": "explode"}]))
    with pytest.raises(ValidationError, match="exactly"):
        load_scenario(_minimal(events=[{"t": 0.0, "kind": "cut_link"}]))
    # A relay size is a whole number that fits the hop payload's u32.
    for bits in (-8, 0, 1.5, True, "12", 2 ** 32):
        with pytest.raises(ValidationError, match="bits must be an integer"):
            load_scenario(_minimal(events=[
                {"t": 0.0, "kind": "relay_request", "src": "Anna", "dst": "Bob",
                 "bits": bits}]))
    for bits in (1, 2 ** 32 - 1):
        load_scenario(_minimal(events=[
            {"t": 0.0, "kind": "relay_request", "src": "Anna", "dst": "Bob",
             "bits": bits}]))
    # A seed is a whole number of any sign and size; nothing is coerced.
    for seed in (1.5, True, "12", "abc", None):
        with pytest.raises(ValidationError, match="seed must be an integer"):
            load_scenario({**_minimal(), "seed": seed})
    for seed in (-7, 2 ** 40):
        assert load_scenario({**_minimal(), "seed": seed}).seed == seed
    for fraction in ("0.5", True, "x", math.nan, 2.0, -0.1):
        with pytest.raises(ValidationError, match="eve fraction"):
            load_scenario(_minimal(events=[
                {"t": 0.0, "kind": "enable_eve", "channel": "Anna-Bob",
                 "eve": {"kind": "intercept_resend", "fraction": fraction}}]))
    for fraction in (0, 0.5, 1):
        load_scenario(_minimal(events=[
            {"t": 0.0, "kind": "enable_eve", "channel": "Anna-Bob",
             "eve": {"kind": "intercept_resend", "fraction": fraction}}]))


def test_scenario_event_ordering_enforced():
    events = [{"t": 5.0, "kind": "cut_link", "link": "anna-sw"},
              {"t": 1.0, "kind": "restore_link", "link": "anna-sw"}]
    with pytest.raises(ValidationError, match="time-ordered"):
        load_scenario(_minimal(duration=10.0, events=events))
    # Times are finite real numbers: a NaN or infinite one once loaded and
    # then hung the event loop.
    for duration in (math.nan, math.inf, -math.inf, True, "5", 10 ** 400):
        with pytest.raises(ValidationError, match="duration_s"):
            load_scenario(_minimal(duration=duration))
    for t in (math.nan, math.inf, True, "1.0"):
        with pytest.raises(ValidationError, match="events\\[0\\]: t"):
            load_scenario(_minimal(duration=10.0, events=[
                {"t": t, "kind": "cut_link", "link": "anna-sw"}]))
    with pytest.raises(ValidationError, match="duration_s"):
        load_scenario(json.dumps(_minimal(duration=math.nan)))


def test_scenario_validates_references():
    with pytest.raises(ValidationError, match="no QKD channel"):
        load_scenario(_minimal(events=[
            {"t": 0.0, "kind": "start_qkd", "tx": "Anna", "rx": "Boris2"}]))
    with pytest.raises(ValidationError, match="unknown link"):
        load_scenario(_minimal(events=[{"t": 0.0, "kind": "cut_link", "link": "zap"}]))


_CUT = {"t": 1.0, "kind": "cut_link", "link": "anna-sw"}
_RESTORE = {"t": 1.0, "kind": "restore_link", "link": "anna-sw"}
_START = {"t": 0.0, "kind": "start_qkd", "tx": "Anna", "rx": "Bob"}
_RELAY = {"t": 1.0, "kind": "relay_request", "src": "Anna", "dst": "Bob", "bits": 64}
_TOGGLE = {"t": 1.0, "kind": "switch_toggle", "switch": "sw"}
_EVE = {"t": 1.0, "kind": "enable_eve", "channel": "Anna-Bob",
        "eve": {"kind": "intercept_resend", "fraction": 0.5}}
_SIFT = {"t": 1.0, "kind": "set_sifting", "channel": "Anna-Bob", "protocol": "sarg"}
_DROP = object()


def _with(event, **change):
    """``event`` with keys replaced, added, or dropped (``_DROP``)."""
    out = {**event, **change}
    return {key: value for key, value in out.items() if value is not _DROP}


def _eve(**eve):
    return _with(_EVE, eve=eve)


_KINDS = ("start_qkd, relay_request, cut_link, restore_link, enable_eve, switch_toggle, "
          "set_sifting")
_BITS = "bits must be an integer in [1, 4294967295], got"
_EVE_KINDS = "events[0].eve.kind: expected one of [none, intercept_resend, photon_number_split]"
_FRACTION = "events[0]: eve fraction must be a finite number in [0, 1], got"

# Each malformed event list, and the whole one-line error its load raises.
_EVENT_ERRORS = {
    "not-an-object": ([5], "events[0]: expected an object, got 5"),
    "list-event": ([["t", 1.0]], "events[0]: expected an object, got ['t', 1.0]"),
    "missing-t": ([_with(_CUT, t=_DROP)], "events[0]: missing required key 't'"),
    "missing-kind": ([_with(_CUT, kind=_DROP)], "events[0]: missing required key 'kind'"),
    "unknown-key": ([_with(_CUT, colour="red")], "events[0]: unknown key 'colour'"),
    "unknown-key-and-kind": ([_with(_CUT, kind="explode", colour="red")],
                             "events[0]: unknown key 'colour'"),
    "wrong-keys-for-kind": ([_with(_CUT, link=_DROP, switch="sw")],
                            "events[0]: cut_link needs exactly ['kind', 'link', 't'], "
                            "got ['kind', 'switch', 't']"),
    "missing-field": ([_with(_RELAY, bits=_DROP)],
                      "events[0]: relay_request needs exactly ['bits', 'dst', 'kind', 'src', "
                      "'t'], got ['dst', 'kind', 'src', 't']"),
    "kind-list": ([_with(_CUT, kind=["x"])],
                  f"events[0].kind: expected one of [{_KINDS}], got ['x']"),
    "kind-unknown": ([_with(_CUT, kind="explode")],
                     f"events[0].kind: expected one of [{_KINDS}], got 'explode'"),
    "kind-number": ([_with(_CUT, kind=3)], f"events[0].kind: expected one of [{_KINDS}], got 3"),
    "t-string": ([_with(_CUT, t="1.0")], "events[0]: t must be a finite number, got '1.0'"),
    "t-true": ([_with(_CUT, t=True)], "events[0]: t must be a finite number, got True"),
    "t-null": ([_with(_CUT, t=None)], "events[0]: t must be a finite number, got None"),
    "t-nan": ([_with(_CUT, t=math.nan)], "events[0]: t must be a finite number, got nan"),
    "t-inf": ([_with(_CUT, t=math.inf)], "events[0]: t must be a finite number, got inf"),
    "t-huge-int": ([_with(_CUT, t=10 ** 400)],
                   "events[0]: t must be a finite number, got 1" + "0" * 400),
    "t-after-duration": ([_with(_CUT, t=10.5)], "event times must lie within [0, duration]"),
    "t-negative": ([_with(_CUT, t=-1.0)], "event times must lie within [0, duration]"),
    "start-tx-list": ([_with(_START, tx=["Anna"])],
                      "events[0]: tx must be a string, got ['Anna']"),
    "start-rx-number": ([_with(_START, rx=7)], "events[0]: rx must be a string, got 7"),
    "start-unknown-tx": ([_with(_START, tx="Zed")],
                         "events[0]: no QKD channel from 'Zed' to 'Bob' in the topology"),
    "start-no-channel": ([_with(_START, tx="Bob", rx="Anna")],
                         "events[0]: no QKD channel from 'Bob' to 'Anna' in the topology"),
    "start-bad-t": ([_with(_START, t="0")], "events[0]: t must be a finite number, got '0'"),
    "start-twice": ([_START, _with(_START, t=5.0)],
                    "events[1]: channel 'Anna-Bob' is already started; a channel starts once"),
    "relay-src-list": ([_with(_RELAY, src=["Anna"])],
                       "events[0]: node must be a string, got ['Anna']"),
    "relay-src-unknown": ([_with(_RELAY, src="Zed")], "events[0]: unknown node 'Zed'"),
    "relay-dst-object": ([_with(_RELAY, dst={})], "events[0]: node must be a string, got {}"),
    "relay-dst-unknown": ([_with(_RELAY, dst="Zed")], "events[0]: unknown node 'Zed'"),
    "relay-src-is-dst": ([_with(_RELAY, dst="Anna")],
                         "events[0]: relay source and destination must differ, both are 'Anna'"),
    "relay-bits-zero": ([_with(_RELAY, bits=0)], f"events[0]: {_BITS} 0"),
    "relay-bits-negative": ([_with(_RELAY, bits=-8)], f"events[0]: {_BITS} -8"),
    "relay-bits-over-u32": ([_with(_RELAY, bits=2 ** 32)], f"events[0]: {_BITS} 4294967296"),
    "relay-bits-float": ([_with(_RELAY, bits=1.5)], f"events[0]: {_BITS} 1.5"),
    "relay-bits-whole-float": ([_with(_RELAY, bits=64.0)], f"events[0]: {_BITS} 64.0"),
    "relay-bits-true": ([_with(_RELAY, bits=True)], f"events[0]: {_BITS} True"),
    "relay-bits-string": ([_with(_RELAY, bits="12")], f"events[0]: {_BITS} '12'"),
    "relay-bad-src-and-bits": ([_with(_RELAY, src="Zed", bits=0)],
                               "events[0]: unknown node 'Zed'"),
    "relay-bad-bits-and-t": ([_with(_RELAY, bits=0, t="x")], f"events[0]: {_BITS} 0"),
    "relay-bad-t": ([_with(_RELAY, t=None)], "events[0]: t must be a finite number, got None"),
    "cut-link-list": ([_with(_CUT, link=["anna-sw"])],
                      "events[0]: link must be a string, got ['anna-sw']"),
    "cut-link-unknown": ([_with(_CUT, link="zap")], "events[0]: unknown link 'zap'"),
    "restore-link-number": ([_with(_RESTORE, link=1)], "events[0]: link must be a string, got 1"),
    "restore-link-unknown": ([_with(_RESTORE, link="zap")], "events[0]: unknown link 'zap'"),
    "restore-bad-t": ([_with(_RESTORE, t=-math.inf)],
                      "events[0]: t must be a finite number, got -inf"),
    "toggle-switch-object": ([_with(_TOGGLE, switch={"sw": 1})],
                             "events[0]: switch must be a string, got {'sw': 1}"),
    "toggle-switch-unknown": ([_with(_TOGGLE, switch="sw2")], "events[0]: unknown switch 'sw2'"),
    "toggle-bad-t": ([_with(_TOGGLE, t=False)], "events[0]: t must be a finite number, got False"),
    "eve-channel-list": ([_with(_EVE, channel=["Anna-Bob"])],
                         "events[0]: channel must be a string, got ['Anna-Bob']"),
    "eve-channel-unknown": ([_with(_EVE, channel="Bob-Anna")],
                            "events[0]: unknown channel 'Bob-Anna'"),
    "eve-not-object": ([_with(_EVE, eve="intercept_resend")],
                       "events[0].eve: expected an object, got 'intercept_resend'"),
    "eve-null": ([_with(_EVE, eve=None)], "events[0].eve: expected an object, got None"),
    "eve-missing-kind": ([_eve(fraction=0.5)], "events[0].eve: missing required key 'kind'"),
    "eve-unknown-key": ([_eve(kind="none", rate=1)], "events[0].eve: unknown key 'rate'"),
    "eve-kind-unknown": ([_eve(kind="tap")], f"{_EVE_KINDS}, got 'tap'"),
    "eve-kind-list": ([_eve(kind=["none"])], f"{_EVE_KINDS}, got ['none']"),
    "eve-fraction-string": ([_eve(kind="intercept_resend", fraction="0.5")],
                            f"{_FRACTION} '0.5'"),
    "eve-fraction-true": ([_eve(kind="intercept_resend", fraction=True)], f"{_FRACTION} True"),
    "eve-fraction-over-1": ([_eve(kind="intercept_resend", fraction=2.0)], f"{_FRACTION} 2.0"),
    "eve-fraction-negative": ([_eve(kind="intercept_resend", fraction=-0.1)],
                              f"{_FRACTION} -0.1"),
    "eve-fraction-nan": ([_eve(kind="intercept_resend", fraction=math.nan)], f"{_FRACTION} nan"),
    "eve-bad-t": ([_with(_EVE, t="1")], "events[0]: t must be a finite number, got '1'"),
    "sifting-channel-list": ([_with(_SIFT, channel=["Anna-Bob"])],
                             "events[0]: channel must be a string, got ['Anna-Bob']"),
    "sifting-channel-unknown": ([_with(_SIFT, channel="Anna-Zed")],
                                "events[0]: unknown channel 'Anna-Zed'"),
    "sifting-protocol-unknown": ([_with(_SIFT, protocol="b92")],
                                 "events[0].protocol: expected one of [bb84, sarg], got 'b92'"),
    "sifting-protocol-list": ([_with(_SIFT, protocol=["sarg"])],
                              "events[0].protocol: expected one of [bb84, sarg], got ['sarg']"),
    "sifting-protocol-null": ([_with(_SIFT, protocol=None)],
                              "events[0].protocol: expected one of [bb84, sarg], got None"),
    "sifting-bad-t": ([_with(_SIFT, t=[1.0])], "events[0]: t must be a finite number, got [1.0]"),
    # The first malformed event in list order is named, and only once
    # every event has passed are the times and the starts checked.
    "two-bad-events": ([_START, _with(_RELAY, bits=0), _with(_CUT, link="zap")],
                       f"events[1]: {_BITS} 0"),
    "bad-event-after-misordered": ([_with(_CUT, t=5.0), _with(_RESTORE, t=2.0),
                                    _with(_TOGGLE, switch="zz")],
                                   "events[2]: unknown switch 'zz'"),
}


@pytest.mark.parametrize("case", sorted(_EVENT_ERRORS))
def test_malformed_event_raises_its_exact_error_line(case):
    events, message = _EVENT_ERRORS[case]
    with pytest.raises(ValidationError) as raised:
        load_scenario(_minimal(duration=10.0, events=events))
    assert str(raised.value) == message


def test_boundary_event_values_load():
    # t = 0 and t = duration_s, an integer t, and the ends of each range.
    scenario = load_scenario(_minimal(duration=10.0, events=[
        _with(_START, t=0), _with(_RELAY, t=0.0, bits=1),
        _eve(kind="intercept_resend", fraction=0), _eve(kind="none"),
        _with(_RELAY, t=5, bits=2 ** 32 - 1), _with(_TOGGLE, t=10), _with(_CUT, t=10.0)]))
    times = [event.time_s for event in scenario.events]
    assert times == [0.0, 0.0, 1.0, 1.0, 5.0, 10.0, 10.0]
    assert all(type(t) is float for t in times)
    assert [scenario.events[i].args["bits"] for i in (1, 4)] == [1, 2 ** 32 - 1]
    assert scenario.events[2].args["eve"] == EveModel.intercept_resend(0.0)
    assert scenario.events[3].args["eve"] == EveModel()


def test_load_leaves_its_document_alone():
    doc = _minimal(duration=10.0, events=[
        _START, _RELAY, _with(_CUT, t=2.0), _with(_RESTORE, t=3.0), _with(_EVE, t=4.0),
        _with(_TOGGLE, t=5.0), _with(_SIFT, t=6.0)], block_target_bits=2048)
    before = copy.deepcopy(doc)
    first = load_scenario(doc)
    assert doc == before
    assert {event.kind for event in first.events} == set(EventKind)
    assert load_scenario(doc) == first


def _one_event(**event):
    return _minimal(events=[{"t": 0.0, **event}])


# Each document raised a TypeError at load, or loaded, before every list,
# id, reference and name in a scenario had its JSON type checked.
_BAD_SCENARIOS = {
    "events-null": {**_minimal(), "events": None},
    "events-object": {**_minimal(), "events": {}},
    "engine-list": {**_minimal(), "engine": []},
    "engine-null": {**_minimal(), "engine": None},
    "preset-list": {**_minimal(), "topology": {"preset": []}},
    "name-number": {**_minimal(), "name": 5},
    "version-true": {**_minimal(), "version": True},
    "link-list": _one_event(kind="cut_link", link=["anna-sw"]),
    "switch-object": _one_event(kind="switch_toggle", switch={"sw": 1}),
    "src-list": _one_event(kind="relay_request", src=["Anna"], dst="Bob", bits=8),
    "dst-object": _one_event(kind="relay_request", src="Anna", dst={}, bits=8),
    "eve-channel-list": _one_event(kind="enable_eve", channel=["Anna-Bob"],
                                   eve={"kind": "none"}),
    "sifting-channel-list": _one_event(kind="set_sifting", channel=["Anna-Bob"],
                                       protocol="sarg"),
}


@pytest.mark.parametrize("case", sorted(_BAD_SCENARIOS))
def test_bad_scenario_structure_rejected_at_load(case):
    with pytest.raises(ValidationError):
        load_scenario(_BAD_SCENARIOS[case])


_START_TWICE = _minimal(duration=20.0, events=[
    {"t": 0.0, "kind": "start_qkd", "tx": "Anna", "rx": "Bob"},
    {"t": 5.0, "kind": "cut_link", "link": "anna-sw"},
    {"t": 10.0, "kind": "start_qkd", "tx": "Anna", "rx": "Bob"}])


def test_a_channel_starts_at_most_once(tmp_path, capsys):
    # A second start once ran a second round chain beside the first, and
    # the channel sampled every window twice.
    with pytest.raises(ValidationError,
                       match=r"events\[2\]: channel 'Anna-Bob' is already started"):
        load_scenario(_START_TWICE)
    once = load_scenario({**_START_TWICE, "events": _START_TWICE["events"][:2]})
    start = once.events[0]
    assert dict(start.args) == {"channel": "Anna-Bob"}
    again = ScenarioEvent(10.0, EventKind.START_QKD, start.args)
    with pytest.raises(ValidationError, match="already started"):
        Scenario(once.topology, once.duration_s, once.seed, once.events + (again,))
    with pytest.raises(ValidationError, match="already started"):
        replace(once, events=once.events + (again,))
    path = tmp_path / "twice.json"
    path.write_text(json.dumps(_START_TWICE))
    capsys.readouterr()
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "already started" in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_cli_run_on_null_events_exits_1(tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(_BAD_SCENARIOS["events-null"]))
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "events must be a list, got None" in err and "Traceback" not in err


def test_relay_request_to_itself_exits_1(tmp_path, capsys):
    doc = _minimal(duration=2.0, events=[
        {"t": 0.0, "kind": "start_qkd", "tx": "Anna", "rx": "Bob"},
        {"t": 0.5, "kind": "relay_request", "src": "Alice", "dst": "Alice", "bits": 64}])
    with pytest.raises(ValidationError, match="source and destination must differ"):
        load_scenario(doc)
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "source and destination must differ" in err and "Traceback" not in err


def test_engine_knob_validation():
    bad_knobs = [
        {"relay_hop_latency_s": -0.05}, {"block_target_bits": 0},
        {"prepositioned_auth_bits": -1}, {"relay_hop_latency_s": "0.05"},
        # Bit counts are whole numbers, and a JSON boolean is not a number.
        {"prepositioned_auth_bits": 1000.5}, {"block_target_bits": 4096.0},
        {"block_target_bits": True}, {"prepositioned_auth_bits": False},
        {"relay_hop_latency_s": True},
    ]
    for knobs in bad_knobs:
        with pytest.raises(ValidationError):
            EngineKnobs(**knobs)
    # Cadences and the other budgets are engine constants, not knobs, and
    # blocked relays wait for key or health events, with no retry timer.
    unknown = ["warp_speed", "relay_retry_interval_s",
               "round_duration_s", "sample_fraction", "training_interval_s",
               "training_target_bits", "training_max_slots", "feedback_deadband",
               "metrics_interval_s", "relay_reserve_bits", "min_sample_bits",
               "security_margin_bits"]
    for name in unknown:
        with pytest.raises(ValidationError, match=f"unknown key '{name}'"):
            load_scenario(_minimal(**{name: 1}))


def test_prepositioned_key_capped_at_load():
    # The keystore holds one byte per key bit, so an uncapped 2**34 would
    # ask for 16 GiB at set-up. Loading only: no engine is built here.
    cap = ng.MAX_PREPOSITIONED_BITS
    assert cap == 1 << 28
    topology = ng.cambridge_config()
    topology["prepositioned"][0]["bits"] = cap
    assert ng.load_topology(topology).prepositioned[0].bits == cap
    assert load_scenario(_minimal(prepositioned_auth_bits=cap)).knobs \
        .prepositioned_auth_bits == cap
    for bits in (cap + 1, 1 << 34):
        topology["prepositioned"][0]["bits"] = bits
        with pytest.raises(ValidationError, match="prepositioned\\[0\\]: bits"):
            ng.load_topology(topology)
        with pytest.raises(ValidationError, match="prepositioned_auth_bits"):
            load_scenario(_minimal(prepositioned_auth_bits=bits))


def test_unfundable_relay_waits_without_hanging():
    # With a zero retry interval this request once re-polled at one instant
    # forever. Nothing ever funds it, so it ends the run still pending.
    report = run_scenario(load_scenario(_minimal(duration=5.0, events=[
        {"t": 0.0, "kind": "relay_request", "src": "Ali", "dst": "Boris",
         "bits": 1 << 22}])))
    assert [s.status for s in report.relay_sessions] == ["path_pending"]


def test_pending_relay_moves_at_the_deposit_that_funds_it():
    # Anna-Bob starts with too little key for the request; its QKD blocks
    # top the pair up, and the relay must go out the instant one does.
    bits = 4500
    engine = Engine(load_scenario(_minimal(
        duration=20.0, prepositioned_auth_bits=4096, events=[
            {"t": 0.0, "kind": "start_qkd", "tx": "Anna", "rx": "Bob"},
            {"t": 0.0, "kind": "relay_request", "src": "Anna", "dst": "Bob",
             "bits": bits}])))
    report = engine.run()
    need = hop_need(bits, RELAY_RESERVE_BITS)
    available, funded_at = 0, None
    for rec in engine.store.audit:
        if rec.pair != ("Anna", "Bob"):
            continue
        size = rec.offset_end - rec.offset_start
        available += size if rec.kind == "deposit" else -size
        if rec.kind == "deposit" and rec.origin == "direct_qkd" and available >= need:
            funded_at = rec.time_s
            break
    assert funded_at is not None
    assert funded_at in [b.t_end for b in report.blocks]
    [session] = report.relay_sessions
    assert session.status == "delivered"
    assert session.delivered_at == funded_at


def test_event_loop_refuses_time_moving_backwards():
    engine = Engine(load_scenario(_minimal(duration=1.0)))
    engine._push(-1.0, 0, "metrics")
    with pytest.raises(InvariantViolation, match="metrics event at -1.0 s"):
        engine.run()


def test_engine_refuses_to_amplify_diverged_keys(monkeypatch):
    # Both sides share one amplification, which is sound only while the
    # reconciled keys are equal; Bob's key here differs in one bit.
    real = engine_module.reconcile_cascade

    def one_bit_off(*args, **kwargs):
        corrected, parities = real(*args, **kwargs)
        corrected = corrected.copy()
        corrected[0] ^= 1
        return corrected, parities

    monkeypatch.setattr(engine_module, "reconcile_cascade", one_bit_off)
    engine = Engine(load_scenario(_minimal(duration=6.0, events=[
        {"t": 0.0, "kind": "start_qkd", "tx": "Anna", "rx": "Bob"}])))
    with pytest.raises(InvariantViolation, match="keys diverge"):
        engine.run()


def test_run_leaves_attacker_models_untouched():
    # One event of each kind; their arguments, attacker models included,
    # must come out of a run as they went in. Alice-Boris trains for whole
    # rounds until its start-up tuning settles (1 to 8 rounds over seeds
    # 1-30, with or without an attacker), so the switch that ends the
    # channel toggles late enough for it to sift after 8 such rounds.
    sc = load_scenario(_minimal(duration=6.0, events=[
        {"t": 0.0, "kind": "start_qkd", "tx": "Anna", "rx": "Bob"},
        {"t": 0.0, "kind": "start_qkd", "tx": "Alice", "rx": "Boris"},
        {"t": 0.0, "kind": "enable_eve", "channel": "Anna-Bob",
         "eve": {"kind": "intercept_resend", "fraction": 0.5}},
        {"t": 0.0, "kind": "enable_eve", "channel": "Alice-Boris",
         "eve": {"kind": "photon_number_split"}},
        {"t": 1.0, "kind": "relay_request", "src": "Anna", "dst": "Bob", "bits": 256},
        {"t": 1.5, "kind": "set_sifting", "channel": "Anna-Bob", "protocol": "sarg"},
        {"t": 2.0, "kind": "cut_link", "link": "anna-sw"},
        {"t": 2.5, "kind": "restore_link", "link": "anna-sw"},
        {"t": 5.5, "kind": "switch_toggle", "switch": "sw"}]))
    assert {e.kind for e in sc.events} == set(EventKind)

    def snapshot():
        return pickle.dumps([(e.time_s, e.kind, dict(e.args)) for e in sc.events])

    before = snapshot()
    report = run_scenario(sc)
    assert {r.link_id for r in report.series if r.sifted_bps > 0} == \
        {"Anna-Bob", "Alice-Boris"}  # both attackers saw traffic
    assert snapshot() == before


def test_scenario_and_recorded_rows_are_frozen():
    sc = load_scenario(_minimal(duration=3.0, events=[
        {"t": 0.0, "kind": "start_qkd", "tx": "Anna", "rx": "Bob"}]))
    eve = EveModel.intercept_resend(0.5)
    record = AuditRecord(time_s=0.0, pair=("Anna", "Bob"), kind="deposit",
                         offset_start=0, offset_end=8)
    with pytest.raises(FrozenInstanceError):
        sc.duration_s = 4.0
    with pytest.raises(TypeError):
        sc.events[0].args["tx"] = "Alice"
    with pytest.raises(FrozenInstanceError):
        eve.intercept_fraction = 1.0
    with pytest.raises(FrozenInstanceError):
        record.offset_end = 16
    assert isinstance(sc.events, tuple)


def test_empty_scenario_produces_empty_report():
    report = run_scenario(load_scenario(_minimal(duration=1.0)))
    assert report.series == []
    assert report.blocks == []
    assert report.relay_sessions == []
    csv = report.emit_csv()
    assert csv == ",".join(CSV_COLUMNS) + "\n"


def test_short_run_emits_series_and_csv_rows():
    sc = load_scenario(_minimal(duration=60.0, events=[
        {"t": 0.0, "kind": "start_qkd", "tx": "Anna", "rx": "Bob"}]))
    report = run_scenario(sc)
    rows = report.channel_series("Anna-Bob")
    assert rows, "expected per-interval series rows"
    assert any(r.secret_bps > 0 for r in rows)
    # Mean block error rate sits near the link's error floor.
    topo = sc.topology
    floor = sifted_error_floor(topo.channel_by_id("Anna-Bob").params)
    assert abs(report.mean_qber("Anna-Bob") - floor) < 0.015
    lines = report.emit_csv().splitlines()
    assert len(lines) == 1 + len(report.series)
    assert all(len(line.split(",")) == len(CSV_COLUMNS) for line in lines)


def test_records_round_trip_and_verify():
    sc = load_scenario(_minimal(duration=30.0, events=[
        {"t": 0.0, "kind": "start_qkd", "tx": "Anna", "rx": "Bob"},
        {"t": 10.0, "kind": "relay_request", "src": "Anna", "dst": "Bob", "bits": 512}]))
    report = run_scenario(sc)
    records = [json.loads(line) for line in report.emit_records().splitlines()]
    rebuilt = MetricsReport.from_records(records)
    assert rebuilt == report
    assert rebuilt.emit_records() == report.emit_records()
    assert verify_report(rebuilt) == []


def test_set_sifting_switches_protocol():
    sc = load_scenario(_minimal(duration=120.0, events=[
        {"t": 0.0, "kind": "start_qkd", "tx": "Anna", "rx": "Bob"},
        {"t": 60.0, "kind": "set_sifting", "channel": "Anna-Bob", "protocol": "sarg"}]))
    report = run_scenario(sc)
    early = [r.sifted_bps for r in report.channel_series("Anna-Bob")
             if 20 <= r.time_s <= 55 and r.sifted_bps > 0]
    late = [r.sifted_bps for r in report.channel_series("Anna-Bob")
            if 70 <= r.time_s <= 115 and r.sifted_bps > 0]
    # SARG keeps ~1/4 of detections vs ~1/2 for traditional sifting.
    assert np.mean(late) < 0.65 * np.mean(early)
    assert report.secret_bits("Anna-Bob") > 0


def test_cut_and_restore_recovers_health(monkeypatch):
    rounds, windows = [], []
    on_round = Engine._on_round
    sample = engine_module.sample_link_window

    def spy_round(self, t, channel_id, token):
        rounds.append(t)
        on_round(self, t, channel_id, token)

    def spy_sample(*args, **kwargs):
        windows.append(rounds[-1])
        return sample(*args, **kwargs)

    monkeypatch.setattr(Engine, "_on_round", spy_round)
    monkeypatch.setattr(engine_module, "sample_link_window", spy_sample)
    sc = load_scenario(_minimal(duration=120.0, events=[
        {"t": 0.0, "kind": "start_qkd", "tx": "Anna", "rx": "Bob"},
        {"t": 30.0, "kind": "cut_link", "link": "anna-sw"},
        {"t": 60.0, "kind": "restore_link", "link": "anna-sw"}]))
    report = run_scenario(sc)
    states = [(h.time_s, h.new) for h in report.health_log if h.channel_id == "Anna-Bob"]
    # The one round that finds the link cut is the last until the restore
    # realigns the session: the watchdog flags the cut when the zero-click
    # window since the last lit round runs out, with no polling.
    assert len([t for t in rounds if 30.0 < t < 60.0]) == 1
    assert not [t for t in windows if 30.0 < t < 60.0]
    cut_at = [t for t, new in states if new == "cut"]
    assert cut_at == [max(t for t in rounds if t < 30.0) + ZERO_CLICK_WINDOW_S]
    assert states[-1][1] == "up"
    late_secret = [r.secret_bps for r in report.channel_series("Anna-Bob")
                   if r.time_s > 80]
    assert sum(late_secret) > 0  # generation resumed after restore


def test_dark_start_and_toggles_sample_each_channel_once_per_instant(monkeypatch):
    # Anna-Bob starts on a cut link, so its first realignment fails; a
    # toggle parks it while dark, the restore and a second toggle bring it
    # back. Alice-Boris runs out of authentication key and halts.
    now = [None]
    windows = []  # (time, channel, training frame) of every window sampled
    halted_at = {}
    on_round = Engine._on_round
    sample = engine_module.sample_link_window

    def spy_round(self, t, channel_id, token):
        now[0] = t
        on_round(self, t, channel_id, token)
        if self.sessions[channel_id].state is engine_module._State.HALTED:
            halted_at.setdefault(channel_id, t)

    def spy_sample(*args, frame_id, **kwargs):
        channel, frame = frame_id.rsplit(":", 1)
        windows.append((now[0], channel, frame == "train"))
        return sample(*args, frame_id=frame_id, **kwargs)

    monkeypatch.setattr(Engine, "_on_round", spy_round)
    monkeypatch.setattr(engine_module, "sample_link_window", spy_sample)
    report = run_scenario(load_scenario(_minimal(
        duration=40.0, prepositioned_auth_bits=300, events=[
            {"t": 0.0, "kind": "start_qkd", "tx": "Anna", "rx": "Bob"},
            {"t": 0.0, "kind": "start_qkd", "tx": "Alice", "rx": "Boris"},
            {"t": 0.0, "kind": "cut_link", "link": "anna-sw"},
            {"t": 5.0, "kind": "switch_toggle", "switch": "sw"},
            {"t": 12.0, "kind": "restore_link", "link": "anna-sw"},
            {"t": 20.0, "kind": "switch_toggle", "switch": "sw"}])))
    # Anna-Bob's realignment at 0 s finds no light and goes unlit; the 5 s
    # toggle parks it at the instant its cut falls due, so it logs no row
    # and samples nothing until the 20 s toggle pairs it again.
    assert not [h for h in report.health_log if h.channel_id == "Anna-Bob"]
    assert not [t for t, channel, _ in windows if channel == "Anna-Bob" and t < 20.0]
    # A session switched away has nothing pending, so its silence is no cut.
    assert all(h.new != "cut" for h in report.health_log)
    assert list(halted_at) == ["Alice-Boris"]
    data = [(t, channel) for t, channel, train in windows if not train]
    assert len(data) == len(set(data))
    assert any(channel == "Anna-Bob" and t > 20.0 for t, channel in data)
    assert not [t for t, channel, _ in windows
                if channel == "Alice-Boris" and t > halted_at["Alice-Boris"]]


def test_a_cut_after_a_silent_spell_is_watched_from_now(monkeypatch):
    # Behind 80 dB and no dark counts a session made active (a real
    # realignment no longer converges there, so it is stubbed to) sees no
    # clicks in its rounds: the cut at 30 s comes more than 5 s after the
    # last click, so the watchdog is due at once, not in the past.
    monkeypatch.setattr(engine_module, "realign_receiver",
                        lambda params, phase, seed, training_slots:
                        RealignmentOutcome(True, 1, phase, 0.0))
    report = run_scenario(load_scenario({
        "version": 1, "duration_s": 40.0, "seed": 1,
        "topology": {"version": 1,
                     "nodes": [{"id": "A", "role": "tx"}, {"id": "B", "role": "rx"}],
                     "links": [{"id": "a-b", "a": "A", "b": "B", "length_km": 5.0,
                                "loss_db_override": 80.0}],
                     "defaults": {"params": {"dark_count_prob": 0.0}}},
        "events": [{"t": 0.0, "kind": "start_qkd", "tx": "A", "rx": "B"},
                   {"t": 30.0, "kind": "cut_link", "link": "a-b"}]}))
    assert [(h.new, h.time_s < 30.0) for h in report.health_log] == [("cut", True)]
    assert verify_report(report) == []


def _four_channel_dark_start(duration, *extra):
    # Anna's channels start on a cut link, toggles at 5 and 20 s swap the
    # pairings, and the link is restored at 12 s. Extra events at 0 s go
    # first among the events at their time.
    starts = [{"t": 0.0, "kind": "start_qkd", "tx": tx, "rx": rx}
              for tx, rx in (("Anna", "Bob"), ("Alice", "Boris"), ("Alice", "Bob"),
                             ("Anna", "Boris"))]
    events = sorted([*extra, *starts,
                     {"t": 0.0, "kind": "cut_link", "link": "anna-sw"},
                     {"t": 5.0, "kind": "switch_toggle", "switch": "sw"},
                     {"t": 12.0, "kind": "restore_link", "link": "anna-sw"},
                     {"t": 20.0, "kind": "switch_toggle", "switch": "sw"}],
                    key=lambda e: e["t"])
    return run_scenario(load_scenario(_minimal(
        duration=duration, events=[e for e in events if e["t"] <= duration])))


# Cuts Alice-Boris, paired again by the 20 s toggle, for a second health row.
_ALICE_CUT = {"t": 22.0, "kind": "cut_link", "link": "alice-sw"}


def test_health_rows_are_stamped_in_order_within_the_run():
    # Anna-Boris realigns at 5.008 s on a cut link and is flagged cut at
    # 10.008 s; Alice-Boris, cut at 22 s, 5 s after its last click. Failed
    # realignments were once logged when they began, stamped when their
    # frames would be spent, so the log ran out of order, and the 10 s run,
    # which ends before Anna-Boris's cut falls due, had rows past its end.
    long = _four_channel_dark_start(60.0, _ALICE_CUT)
    rows = [(h.time_s, h.channel_id, h.new) for h in long.health_log]
    assert [(channel, new) for _, channel, new in rows] == [("Anna-Boris", "cut"),
                                                            ("Alice-Boris", "cut")]
    assert [t for t, _, _ in rows] == sorted(t for t, _, _ in rows)
    assert verify_report(long) == []
    short = _four_channel_dark_start(10.0, _ALICE_CUT)
    assert short.health_log == []
    assert verify_report(short) == []


def test_a_cut_channel_is_flagged_and_realigned_by_the_restore(monkeypatch):
    # A realignment that finds no light goes unlit like a round: Anna-Boris,
    # paired by the 5 s toggle, realigns when the blackout ends at 5.008 s,
    # is flagged cut 5 s later, and realigns again at the 12 s restore.
    realigns = []
    on_realign = Engine._on_realign

    def spy_realign(self, t, channel_id, token):
        if token == self.sessions[channel_id].token:
            realigns.append((t, channel_id))
        on_realign(self, t, channel_id, token)

    monkeypatch.setattr(Engine, "_on_realign", spy_realign)
    report = _four_channel_dark_start(60.0)
    assert [t for t, channel in realigns if channel == "Anna-Boris"] == [
        pytest.approx(5.008), 12.0]
    assert [(h.time_s, h.channel_id, h.new) for h in report.health_log] == [
        (pytest.approx(10.008), "Anna-Boris", "cut")]
    assert verify_report(report) == []


def test_a_start_inside_a_switch_blackout_realigns_when_it_ends():
    # The toggle at 5 s pairs Anna with Boris and blacks the switch out for
    # 8 ms; a start inside that blackout realigns once it ends and keys,
    # like a start just before or just after it.
    for start in (5.0, 5.004, 5.009):
        report = run_scenario(load_scenario(_minimal(duration=30.0, events=[
            {"t": 5.0, "kind": "switch_toggle", "switch": "sw"},
            {"t": start, "kind": "start_qkd", "tx": "Anna", "rx": "Boris"}])))
        blocks = [b for b in report.blocks if b.channel_id == "Anna-Boris"]
        assert blocks and blocks[0].t_start > max(start, 5.008), start


def test_eve_none_disables_attacker():
    sc = load_scenario(_minimal(duration=90.0, events=[
        {"t": 0.0, "kind": "start_qkd", "tx": "Anna", "rx": "Bob"},
        {"t": 30.0, "kind": "enable_eve", "channel": "Anna-Bob",
         "eve": {"kind": "intercept_resend", "fraction": 1.0}},
        {"t": 60.0, "kind": "enable_eve", "channel": "Anna-Bob",
         "eve": {"kind": "none"}}]))
    report = run_scenario(sc)
    eve_era = [b.qber for b in report.blocks if 33 < b.t_start < 58]
    calm = [b.qber for b in report.blocks if b.t_start > 64]
    assert eve_era and min(eve_era) > 0.2
    assert calm and max(calm) < 0.1


def test_default_preset_scenario_shape():
    sc = default_preset_scenario("cambridge", duration_s=10.0, seed=3)
    assert sc.duration_s == 10.0
    kinds = {e.kind.value for e in sc.events}
    assert kinds == {"start_qkd"}


def test_block_that_cannot_yield_is_kept_unreconciled(monkeypatch, tmp_path):
    # Alice-Boris's multiphoton-aware estimator credits none of its
    # detections, so its sample alone prices every block at zero: Cascade
    # and privacy amplification never see it, and the block leaks only its
    # sample.
    cascade_rngs, pa_lengths = [], []

    def reconcile(alice, bob, hint, rng_seed):
        cascade_rngs.append(rng_seed)
        return reconcile_cascade(alice, bob, hint, rng_seed=rng_seed)

    def amplify(key, target_len, seed):
        pa_lengths.append(target_len)
        return privacy_amplify(key, target_len, seed)

    reconcile_cascade, privacy_amplify = engine_module.reconcile_cascade, \
        engine_module.privacy_amplify
    monkeypatch.setattr(engine_module, "reconcile_cascade", reconcile)
    monkeypatch.setattr(engine_module, "privacy_amplify", amplify)
    engine = Engine(load_scenario(_minimal(duration=20.0, events=[
        {"t": 0.0, "kind": "start_qkd", "tx": "Anna", "rx": "Bob"},
        {"t": 0.0, "kind": "start_qkd", "tx": "Alice", "rx": "Boris"}])))
    report = engine.run()

    channel_of = {id(s.rng_cascade): cid for cid, s in engine.sessions.items()}
    assert {channel_of[id(rng)] for rng in cascade_rngs} == {"Anna-Bob"}
    assert sorted(pa_lengths) == sorted(b.secret_bits for b in report.blocks
                                        if b.channel_id == "Anna-Bob" and b.secret_bits)
    zero = [b for b in report.blocks if b.channel_id == "Alice-Boris"]
    assert zero and all(b.usable_fraction == 0.0 and not b.discarded for b in zero)
    assert all(b.bits_leaked == b.disclosed_bits and b.secret_bits == 0 for b in zero)
    records = tmp_path / "run.records.jsonl"
    records.write_text(report.emit_records())
    assert main(["verify", "--records", str(records)]) == 0


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_run_verify_presets_budget(tmp_path, capsys):
    scenario_path = tmp_path / "s.json"
    scenario_path.write_text(json.dumps(_minimal(duration=15.0, events=[
        {"t": 0.0, "kind": "start_qkd", "tx": "Anna", "rx": "Bob"}])))
    out_dir = tmp_path / "out"
    assert main(["run", "--scenario", str(scenario_path), "--out", str(out_dir),
                 "--format", "records"]) == 0
    records_path = out_dir / "metrics.records.jsonl"
    assert records_path.exists()
    assert main(["verify", "--records", str(records_path)]) == 0
    assert main(["presets"]) == 0
    assert "cambridge" in capsys.readouterr().out
    assert main(["budget", "--preset", "cambridge", "--path", "anna-sw"]) == 0
    assert "2.000" in capsys.readouterr().out


def test_cli_budget_on_an_unreadable_topology_exits_1(tmp_path, capsys):
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(b'{"name": "caf\xe9"}')
    for path in (tmp_path / "missing.json", not_utf8):
        assert main(["budget", "--topology", str(path), "--path", "a-b"]) == 1
        err = capsys.readouterr().err
        assert f"cannot read topology {path}" in err and "Traceback" not in err


def test_cli_run_csv_format(tmp_path):
    scenario_path = tmp_path / "s.json"
    scenario_path.write_text(json.dumps(_minimal(duration=5.0)))
    assert main(["run", "--scenario", str(scenario_path),
                 "--out", str(tmp_path / "o")]) == 0
    text = (tmp_path / "o" / "metrics.csv").read_text()
    assert text.splitlines()[0] == ",".join(CSV_COLUMNS)


def test_cli_csv_quotes_link_ids_that_hold_a_comma_or_a_quote(tmp_path):
    # The id was written bare, so a reader split A,1-B"2 into two fields.
    path = tmp_path / "s.json"
    path.write_text(json.dumps({
        "version": 1, "duration_s": 3.0, "seed": 1,
        "topology": {"version": 1,
                     "nodes": [{"id": "A,1", "role": "tx"}, {"id": 'B"2', "role": "rx"}],
                     "links": [{"id": "a-b", "a": "A,1", "b": 'B"2', "length_km": 5.0}]},
        "events": [{"t": 0.0, "kind": "start_qkd", "tx": "A,1", "rx": 'B"2'}]}))
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 0
    with open(tmp_path / "o" / "metrics.csv", newline="") as f:
        header, *rows = csv.reader(f)
    assert header == list(CSV_COLUMNS) and len(rows) == 3
    assert all(len(row) == 6 and row[1] == 'A,1-B"2' for row in rows)


def test_cli_run_into_an_unmakeable_out_dir_exits_1_before_the_run(tmp_path, capsys,
                                                                   monkeypatch):
    # --out naming a file once ran the whole simulation, then failed with a
    # FileExistsError traceback when the report was written.
    runs = []
    monkeypatch.setattr(cli_module, "run_scenario", runs.append)
    taken = tmp_path / "taken"
    taken.write_text("")
    for out in (taken, taken / "below"):
        assert main(["run", "--preset", "cambridge", "--duration", "2",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(
            f"validation error: cannot create output directory {out}: ")
    assert runs == []


def test_cli_run_into_an_unwritable_report_file_exits_1(tmp_path, capsys, monkeypatch):
    # A report file that is a directory once ended the run in an
    # IsADirectoryError traceback.
    monkeypatch.setattr(cli_module, "run_scenario",
                        lambda scenario: MetricsReport(scenario.name, scenario.seed,
                                                       scenario.duration_s))
    for fmt, name in (("csv", "metrics.csv"), ("records", "metrics.records.jsonl")):
        out = tmp_path / fmt
        (out / name).mkdir(parents=True)
        assert main(["run", "--preset", "cambridge", "--duration", "2",
                     "--out", str(out), "--format", fmt]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"validation error: cannot write {out / name}: Is a directory"]


def test_cli_validation_failure_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"version": 1, "topology": {"preset": "nope"},
                               "duration_s": 1, "seed": 1}))
    not_json = tmp_path / "not.json"
    not_json.write_text('{"version": 1,')
    link_list = tmp_path / "link_list.json"
    link_list.write_text(json.dumps(_BAD_SCENARIOS["link-list"]))
    out = tmp_path / "o"
    for path in (bad, tmp_path / "missing.json", not_json, link_list):
        assert main(["run", "--scenario", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "events[0]: link must be a string, got ['anna-sw']" in err
    assert "Traceback" not in err
    # Unreadable records: a missing file, a truncated line, and a block
    # record without a field, as every block record written before the
    # usable fraction was recorded is.
    good = tmp_path / "good.json"
    good.write_text(json.dumps(_minimal(duration=15.0, events=[
        {"t": 0.0, "kind": "start_qkd", "tx": "Anna", "rx": "Bob"},
        {"t": 1.0, "kind": "relay_request", "src": "Anna", "dst": "Bob", "bits": 256}])))
    assert main(["run", "--scenario", str(good), "--out", str(out),
                 "--format", "records"]) == 0
    lines = (out / "metrics.records.jsonl").read_text().splitlines()
    block = next(i for i, line in enumerate(lines) if '"type": "block"' in line)
    truncated = tmp_path / "truncated.jsonl"
    truncated.write_text("\n".join(lines[:-1] + [lines[-1][:-5]]) + "\n")
    old = json.loads(lines[block])
    del old["usable_fraction"]
    missing_field = tmp_path / "missing_field.jsonl"
    missing_field.write_text("\n".join(
        lines[:block] + [json.dumps(old)] + lines[block + 1:]) + "\n")
    capsys.readouterr()
    for path in (tmp_path / "missing.jsonl", truncated, missing_field):
        assert main(["verify", "--records", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"line {len(lines)}" in err and f"record {block + 1}" in err
    assert "usable_fraction" in err and "Traceback" not in err
    # Wrong-typed values are unreadable records too, not a crash in verify.
    for kind, field, value in (("block", "qber", "0.03"), ("audit", "offset_start", "5"),
                               ("relay", "path", 7), ("block", "discarded", "no"),
                               ("audit", "pair", ["Anna", 5]), ("block", "sifted_bits", True)):
        at = next(i for i, line in enumerate(lines) if f'"type": "{kind}"' in line)
        record = json.loads(lines[at])
        record[field] = value
        edited = tmp_path / f"{kind}_{field}.jsonl"
        edited.write_text("\n".join(
            lines[:at] + [json.dumps(record)] + lines[at + 1:]) + "\n")
        assert main(["verify", "--records", str(edited)]) == 1
        err = capsys.readouterr().err
        assert f"record {at + 1}: {field} must be" in err and "Traceback" not in err


def test_emitted_record_lines_are_sorted_key_json_dumps():
    # The records' bytes, which records_sha256 fingerprints: one
    # json.dumps(record, sort_keys=True) per line, non-ASCII escaped.
    odd = 'Ånna "the" \\ Bøb'
    report = MetricsReport(
        scenario_name="naïve \"run\"", seed=3, duration_s=2,
        series=[SeriesRow(1, odd, 0.5, None, 2, 7), SeriesRow(2.0, "A-B", 0.0, 0.25, 0.0, 0)],
        blocks=[BlockRecord("b-\u03b1", odd, 0, 1.5, 4096, 200, 0.03, 1, 900, 0,
                            discarded=True, via_switch=None),
                BlockRecord("b2", "A-B", 1.5, 2.0, 4096, 200, 0.02, 0.75, 880, 1000,
                            via_switch="sw")],
        relay_sessions=[RelayOutcome("r\\1", "Ånna", "Bøb", 512, "failed",
                                     ("Ånna", "x", "Bøb"), 0.25, None, 0, 'no "path"')],
        health_log=[HealthTransition(1, odd, "up", "cut", "zero clicks for 1.0 s")],
        audit=[AuditRecord(0.0, ("Ånna", "Bøb"), "deposit", 0, 64, origin="prepositioned",
                           segment_id="s\\0")],
        final_reservoirs={"Ånna|Bøb": ReservoirRow("Ånna|Bøb", 64, 0, 64)})
    text = report.emit_records()
    assert text == "".join(json.dumps(r, sort_keys=True) + "\n" for r in report.to_records())
    assert text.isascii() and "\\u00c5nna" in text and '\\"' in text
    assert '"time_s": 1, ' in text and '"qber": null' in text and '"discarded": true' in text
    assert MetricsReport.from_records(list(map(json.loads, text.splitlines()))) == report


def test_cli_verify_rejects_untyped_records_and_repeated_reservoirs(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["run", "--preset", "cambridge", "--duration", "5", "--out", str(out),
                 "--format", "records"]) == 0
    lines = (out / "metrics.records.jsonl").read_text().splitlines()
    reservoir = next(line for line in lines if '"type": "reservoir"' in line)
    capsys.readouterr()
    # A type that is no string crashed the reader; a second row for a pair
    # replaced the first, so verify checked only one of them; a second meta
    # record was skipped.
    for name, extra, message in (("untyped", '{"type": []}', "type must be a string"),
                                 ("repeated", reservoir, "a second reservoir row"),
                                 ("meta", lines[0], "a second meta record")):
        path = tmp_path / f"{name}.jsonl"
        path.write_text("\n".join(lines + [extra]) + "\n")
        assert main(["verify", "--records", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"record {len(lines) + 1}: {message}" in err and "Traceback" not in err


def test_cli_verify_needs_one_meta_record_first(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["run", "--preset", "cambridge", "--duration", "3", "--out", str(out),
                 "--format", "records"]) == 0
    lines = (out / "metrics.records.jsonl").read_text().splitlines()
    assert json.loads(lines[0])["type"] == "meta"
    capsys.readouterr()
    for name, stream, message in (("late", lines[1:] + lines[:1],
                                   "record 1: the stream must open with meta"),
                                  ("none", [], "no meta record")):
        path = tmp_path / f"{name}.jsonl"
        path.write_text("".join(line + "\n" for line in stream))
        assert main(["verify", "--records", str(path)]) == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err


def test_cli_verify_flags_out_of_range_series_rows(tmp_path, capsys):
    # The run raises on these rows; verify once passed them clean.
    out = tmp_path / "o"
    assert main(["run", "--preset", "cambridge", "--duration", "3", "--out", str(out),
                 "--format", "records"]) == 0
    lines = (out / "metrics.records.jsonl").read_text().splitlines()
    at = next(i for i, line in enumerate(lines) if '"type": "series"' in line)
    row = json.loads(lines[at])
    for field, value, message in (("qber", 0.9, "QBER 0.9 outside [0, 0.5]"),
                                  ("sifted_bps", -5.0, "negative rate"),
                                  ("secret_bps", -1, "negative rate"),
                                  ("time_s", 1e6, "time outside [0, 3.0]")):
        edited = {**row, field: value}
        path = tmp_path / f"{field}.jsonl"
        path.write_text("\n".join(lines[:at] + [json.dumps(edited)] + lines[at + 1:]) + "\n")
        capsys.readouterr()
        assert main(["verify", "--records", str(path)]) == 2
        assert capsys.readouterr().out.splitlines() == [
            f"FAIL series {row['link_id']} at t={edited['time_s']}: {message}"]
        report = read_records(path)
        with pytest.raises(InvariantViolation, match=re.escape(message)):
            report.validate()
    clean = MetricsReport("t", 1, 1.0, series=[SeriesRow(1.0, "A-B", 0.0, 0.5, 0.0, 0)])
    assert clean.validate() is clean and verify_report(clean) == []


def test_cli_verify_flags_block_and_delivery_times(tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(_minimal(duration=15.0, events=[
        {"t": 0.0, "kind": "start_qkd", "tx": "Anna", "rx": "Bob"},
        {"t": 1.0, "kind": "relay_request", "src": "Anna", "dst": "Bob", "bits": 256}])))
    out = tmp_path / "o"
    assert main(["run", "--scenario", str(path), "--out", str(out), "--format", "records"]) == 0
    assert main(["verify", "--records", str(out / "metrics.records.jsonl")]) == 0
    lines = (out / "metrics.records.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    at_block = next(i for i, r in enumerate(records) if r["type"] == "block")
    at_relay = next(i for i, r in enumerate(records)
                    if r["type"] == "relay" and r["status"] == "delivered")
    block, relay = records[at_block], records[at_relay]
    t0, t1, asked = block["t_start"], block["t_end"], relay["requested_at"]
    where = f"outside [{asked}, 15.0] from its request to the end of the run"
    for at, edit, message in (
            (at_block, {"t_start": t1, "t_end": t0},
             f"block {block['block_id']}: ends at t={t0} before it starts at t={t1}"),
            (at_block, {"t_start": -1.0}, f"block {block['block_id']}: time outside [0, 15.0]"),
            (at_block, {"t_end": 16.0}, f"block {block['block_id']}: time outside [0, 15.0]"),
            (at_relay, {"delivered_at": None},
             f"relay {relay['session_id']}: delivered without a delivered_at"),
            (at_relay, {"delivered_at": asked - 0.5},
             f"relay {relay['session_id']}: delivered at t={asked - 0.5}, {where}"),
            (at_relay, {"delivered_at": 16.0},
             f"relay {relay['session_id']}: delivered at t=16.0, {where}")):
        edited = tmp_path / "edited.jsonl"
        edited.write_text("\n".join(
            lines[:at] + [json.dumps({**records[at], **edit})] + lines[at + 1:]) + "\n")
        capsys.readouterr()
        assert main(["verify", "--records", str(edited)]) == 2
        assert capsys.readouterr().out.splitlines() == [f"FAIL {message}"]


def test_cli_verify_flags_rows_out_of_time_order_or_outside_the_run(tmp_path, capsys):
    out = tmp_path / "o"
    _four_channel_dark_start(30.0, {"t": 0.0, "kind": "relay_request", "src": "Alice",
                                    "dst": "Boris", "bits": 256},
                             _ALICE_CUT).write(out, "records")
    assert main(["verify", "--records", str(out / "metrics.records.jsonl")]) == 0
    lines = (out / "metrics.records.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in lines]

    def last_of(kind):
        """Position and number of the last row of a kind, and the row before's time."""
        at = [i for i, r in enumerate(records) if r["type"] == kind]
        assert len(at) >= 2
        return at[-1], len(at), records[at[-2]]["time_s"]

    edits = []
    for kind in ("health", "switch", "audit"):
        at, n, before = last_of(kind)
        assert before > 0
        edits += [(at, {"time_s": before / 2},
                   f"{kind} row {n}: t={before / 2} before the row before it at t={before}"),
                  (at, {"time_s": 31.0}, f"{kind} row {n}: t=31.0 outside [0, 30.0]")]
    at_relay = next(i for i, r in enumerate(records) if r["type"] == "relay")
    relay = records[at_relay]
    edits.append((at_relay, {"requested_at": -1.0},
                  f"relay {relay['session_id']}: requested at t=-1.0, outside [0, 30.0]"))
    for at, edit, message in edits:
        edited = tmp_path / "edited.jsonl"
        edited.write_text("\n".join(
            lines[:at] + [json.dumps({**records[at], **edit})] + lines[at + 1:]) + "\n")
        capsys.readouterr()
        assert main(["verify", "--records", str(edited)]) == 2
        assert capsys.readouterr().out.splitlines() == [f"FAIL {message}"]


def test_cli_overrides_apply_to_the_loaded_scenario(tmp_path, capsys):
    # Overrides once edited the raw document, so a JSON list crashed them.
    listed = tmp_path / "list.json"
    listed.write_text("[]")
    late = tmp_path / "late.json"
    late.write_text(json.dumps(_minimal(duration=10.0, events=[
        {"t": 5.0, "kind": "cut_link", "link": "anna-sw"}])))
    capsys.readouterr()
    for path, flags, message in ((listed, ["--seed", "3"], "scenario: expected an object"),
                                 (late, ["--duration", "2"], "event times"),
                                 (late, ["--duration", "nan"], "duration_s must be finite")):
        assert main(["run", "--scenario", str(path), *flags,
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err


def test_cli_verify_rederives_block_secret_lengths(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["run", "--preset", "cambridge", "--duration", "20", "--out", str(out),
                 "--format", "records"]) == 0
    lines = (out / "metrics.records.jsonl").read_text().splitlines()
    kept = next(i for i, line in enumerate(lines) if '"type": "block"' in line
                and json.loads(line)["secret_bits"] > 0)
    for field, edit in (("secret_bits", lambda v: v + 1),
                        ("usable_fraction", lambda v: v / 2)):
        record = json.loads(lines[kept])
        record[field] = edit(record[field])
        edited = tmp_path / f"{field}.jsonl"
        edited.write_text("\n".join(
            lines[:kept] + [json.dumps(record)] + lines[kept + 1:]) + "\n")
        capsys.readouterr()
        assert main(["verify", "--records", str(edited)]) == 2
        assert "leakage budget allows" in capsys.readouterr().out


def test_cli_verify_flags_authentication_draw_over_one_time_pad(tmp_path, capsys):
    # Disjoint consume ranges are the whole purpose-separation check: an
    # authentication draw over one-time-pad bits is a reused range.
    pair = ("Anna", "Bob")
    report = MetricsReport(scenario_name="t", seed=1, duration_s=1.0, audit=[
        AuditRecord(0.0, pair, "deposit", 0, 328, origin="prepositioned",
                    segment_id="s"),
        AuditRecord(0.5, pair, "consume", 0, 200, purpose="one_time_pad"),
        AuditRecord(0.5, pair, "consume", 100, 228, purpose="authentication")],
        final_reservoirs={"Anna|Bob": ReservoirRow("Anna|Bob", 328, 328, 0)})
    report.write(tmp_path, fmt="records")
    assert main(["verify", "--records", str(tmp_path / "metrics.records.jsonl")]) == 2
    assert capsys.readouterr().out.splitlines() == [
        "FAIL pair ('Anna', 'Bob'): consume ranges overlap at offset 100"]


def test_attack_from_start_reads_as_attack_not_cut():
    # Intercept-resend from t = 0: every training reading is above the
    # panic level, yet training must end and key blocks flow, so health
    # sees the attack's QBER instead of a silent channel.
    report = run_scenario(load_scenario(_minimal(duration=60.0, events=[
        {"t": 0.0, "kind": "start_qkd", "tx": "Anna", "rx": "Bob"},
        {"t": 0.0, "kind": "start_qkd", "tx": "Alice", "rx": "Boris"},
        {"t": 0.0, "kind": "enable_eve", "channel": "Alice-Boris",
         "eve": {"kind": "intercept_resend", "fraction": 1.0}}])))
    blocks = [b for b in report.blocks if b.channel_id == "Alice-Boris"]
    assert len(blocks) >= 3
    assert report.mean_qber("Alice-Boris") > QBER_THRESHOLD
    states = [h.new for h in report.health_log if h.channel_id == "Alice-Boris"]
    assert "degraded" in states and "cut" not in states


def _long_haul_chain_ratio(seed: int) -> float:
    """Acceptance criterion 7's 5-hop 100 km relay chain at ``seed``: bits
    delivered in its steady-state window over the bottleneck hop's budget."""
    params = {"detector_efficiency": 0.1, "dark_count_prob": 1e-5, "intrinsic_error": 0.01,
              "mean_photon_number": 0.5, "pulse_rate_hz": 5e6, "dead_time_s": 1e-5}
    nodes = [{"id": "N0", "role": "tx"}] + \
            [{"id": f"N{i}", "role": "relay"} for i in range(1, 5)] + \
            [{"id": "N5", "role": "rx"}]
    links = [{"id": f"hop{i}", "a": f"N{i}", "b": f"N{i+1}", "length_km": 100.0}
             for i in range(5)]
    chain = {"version": 1, "name": "longhaul", "nodes": nodes, "links": links,
             "defaults": {"fiber_loss_db_per_km": 0.2, "params": params,
                          "drift_rate_rad_per_s": 0.002, "feedback_gain": 0.5}}
    events = [{"t": 0.0, "kind": "start_qkd", "tx": f"N{i}", "rx": f"N{i+1}"}
              for i in range(5)]
    events += [{"t": 0.0, "kind": "relay_request", "src": "N0", "dst": "N5",
                "bits": 2048} for _ in range(150)]
    report = run_scenario(load_scenario({
        "version": 1, "name": "chain", "topology": chain, "duration_s": 360.0,
        "seed": seed, "engine": {"prepositioned_auth_bits": 65536}, "events": events}))
    t0, t1 = 120.0, 360.0

    def bits(pair, kind, **match):
        return sum(a.offset_end - a.offset_start for a in report.audit
                   if a.kind == kind and a.pair == pair and t0 < a.time_s <= t1
                   and all(getattr(a, k) == v for k, v in match.items()))

    pairs = [tuple(sorted((f"N{i}", f"N{i+1}"))) for i in range(5)]
    deposited, spent = min(((bits(pair, "deposit", origin="direct_qkd"),
                             bits(pair, "consume", purpose="authentication"))
                            for pair in pairs), key=lambda w: w[0])
    budget = deposited - spent
    delivered = sum(r.bits for r in report.relay_sessions
                    if r.status == "delivered" and t0 < (r.delivered_at or 0) <= t1)
    return delivered / budget if budget else math.inf


@pytest.mark.parametrize("seed", [5, 14])
def test_pending_phase_probe_always_gets_its_verdict(seed):
    # A training reading above the panic level must still judge a pending
    # probe. Left unjudged, the probe's correction can lock a hop at a wrong
    # phase offset: at seed 14 hop N3-N4 then runs at QBER near 0.3 and no
    # relay is delivered; at seed 5 the bottleneck hop starves (1.26x).
    assert _long_haul_chain_ratio(seed) == pytest.approx(1.0, abs=0.10)


def test_cli_seed_and_duration_overrides(tmp_path):
    scenario_path = tmp_path / "s.json"
    scenario_path.write_text(json.dumps(_minimal(duration=300.0)))
    assert main(["run", "--scenario", str(scenario_path), "--seed", "9",
                 "--duration", "2.0", "--out", str(tmp_path / "o"),
                 "--format", "records"]) == 0
    report = read_records(tmp_path / "o" / "metrics.records.jsonl")
    assert report.seed == 9 and report.duration_s == 2.0


def test_pns_attack_from_start_samples_empty_data_windows(monkeypatch, tmp_path):
    # Alice-Boris trains for whole rounds at first, so while the PNS
    # attacker is on, its training frames take whole windows and its data
    # windows are empty: the window sampler returns those without drawing.
    # Every non-empty call takes a whole window of the stream's slots, and
    # the stream draws her windows eight at a time, like any other: on the
    # first non-empty call and every eighth after it. Training frames and
    # data windows both come from the session's window stream.
    windows = []
    sample = engine_module.sample_link_window

    def spy_sample(params, phase, n_slots, stream, eve=None, frame_id="window"):
        before = stream.rng.bit_generator.state
        result = sample(params, phase, n_slots, stream, eve=eve, frame_id=frame_id)
        windows.append((n_slots, eve, stream.rng.bit_generator.state != before,
                        frame_id.endswith(":train")))
        assert n_slots in (0, stream.n_slots) and stream.windows == 8
        return result

    monkeypatch.setattr(engine_module, "sample_link_window", spy_sample)
    # 5 s holds the start-up training rounds, full data windows after them
    # and more than eight windows in all.
    report = run_scenario(load_scenario(_minimal(duration=5.0, events=[
        {"t": 0.0, "kind": "start_qkd", "tx": "Alice", "rx": "Boris"},
        {"t": 0.0, "kind": "enable_eve", "channel": "Alice-Boris",
         "eve": {"kind": "photon_number_split"}}])))
    assert all(eve is not None and eve.kind.value == "photon_number_split"
               for _, eve, _, _ in windows)
    data = [n for n, _, _, train in windows if not train]
    assert 0 in data and max(data) > 0
    assert any(train for *_, train in windows)
    assert not any(drew for n, _, drew, _ in windows if n == 0)
    drew = [drew for n, _, drew, _ in windows if n]
    assert len(drew) > 8 and drew == [i % 8 == 0 for i in range(len(drew))]
    path = tmp_path / "records.jsonl"
    path.write_text(report.emit_records())
    assert main(["verify", "--records", str(path)]) == 0


def _cambridge_pairs(duration: float, events=()) -> dict:
    return _minimal(duration=duration, events=[
        {"t": 0.0, "kind": "start_qkd", "tx": "Anna", "rx": "Bob"},
        {"t": 0.0, "kind": "start_qkd", "tx": "Alice", "rx": "Boris"}, *events])


def test_data_windows_are_sampled_once_per_lit_round(monkeypatch):
    # Every lit round makes one engine.sample_link_window call for its data
    # window, from the session's window stream, passing the round's data
    # slots: fewer after a training frame, none when training fills the
    # round (Alice-Boris's start-up tuning). A training frame is one more
    # call on the same stream, first, and the two calls take the round's
    # slots between them. The benchmark's traced mode wraps that name, so
    # it still times and counts every data window and training frame. With
    # no attacker, a session's stream draws once per eight rounds.
    calls = []
    rounds = []
    draws = Counter()
    sample, on_round, draw = engine_module.sample_link_window, Engine._on_round, WindowStream._draw

    def spy_sample(params, phase, n_slots, rng, eve=None, frame_id="window"):
        result = sample(params, phase, n_slots, rng, eve=eve, frame_id=frame_id)
        calls.append((frame_id, n_slots, rng, result[2].n_events))
        return result

    def spy_round(self, now, channel_id, token):
        session = self.sessions[channel_id]
        lit = token == session.token and session.lit(now)
        first = len(calls)
        on_round(self, now, channel_id, token)
        if lit:
            rounds.append((session, calls[first:]))

    def spy_draw(self, params, eve):
        draws[self] += 1
        draw(self, params, eve)

    monkeypatch.setattr(engine_module, "sample_link_window", spy_sample)
    monkeypatch.setattr(Engine, "_on_round", spy_round)
    monkeypatch.setattr(WindowStream, "_draw", spy_draw)
    doc = _cambridge_pairs(20.0)
    run_scenario(load_scenario(doc))
    trained = short = 0
    for session, made in rounds:
        *training, (frame_id, n_slots, rng, _) = made
        round_slots = int(0.25 * session.params.pulse_rate_hz)
        assert frame_id.startswith(f"{session.cid}:") and not frame_id.endswith(":train")
        assert rng is session.windows and rng.n_slots == round_slots
        if training:
            (train_id, train_slots, train_rng, _), = training
            assert train_id == f"{session.cid}:train"
            assert train_rng is session.windows
            assert train_slots + n_slots == round_slots
            trained += 1
            short += n_slots == 0
        else:
            assert n_slots == round_slots
    data = [c for c in calls if not c[0].endswith(":train")]
    assert len(data) == len(rounds) > 100 and trained > 10 and short > 0
    per_stream = Counter(session.windows for session, _ in rounds)
    assert {stream: draws[stream] for stream in per_stream} == {
        stream: -(-n // 8) for stream, n in per_stream.items()}

    child = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
    env = dict(os.environ, PYTHONPATH=str(Path(engine_module.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, str(child), "--trace"],
                         input=json.dumps(doc), env=env, capture_output=True, text=True,
                         check=True, timeout=120).stdout.splitlines()[-1]
    layers = json.loads(out)["layers"]
    assert layers["physlink.sample_calls"] == len(data) and layers["physlink.sample_s"] > 0
    assert layers["physlink.detections"] == sum(n for *_, n in data)
    assert layers["physlink.train_calls"] == trained


def test_intercept_resend_switched_on_mid_run_acts_from_the_next_window(tmp_path):
    # Anna-Bob's stream holds data windows drawn with no attacker when she
    # arrives at 20 s; they are discarded, so the first Anna-Bob block
    # that starts after 20 s is attacked throughout and reads about 0.26
    # (its sample holds about 440 bits). Were the drawn windows kept, its
    # first rounds would be clean and it would read 0.19.
    doc = _cambridge_pairs(60.0, [{"t": 20.0, "kind": "enable_eve", "channel": "Anna-Bob",
                                   "eve": {"kind": "intercept_resend", "fraction": 1.0}}])
    report = run_scenario(load_scenario(doc))
    assert report.emit_records() == run_scenario(load_scenario(doc)).emit_records()
    path = tmp_path / "records.jsonl"
    path.write_text(report.emit_records())
    assert main(["verify", "--records", str(path)]) == 0
    before = [b.qber for b in report.blocks if b.channel_id == "Anna-Bob" and b.t_end < 20.0]
    after = next(b for b in report.blocks if b.channel_id == "Anna-Bob" and b.t_start >= 20.0)
    assert before and max(before) < 0.1
    assert after.qber > 0.2


def test_link_rate_and_dead_time_are_bounded_at_load(tmp_path, capsys):
    # 1e300 Hz and 1e300 s of dead time once loaded and then overflowed the
    # link sampler with a traceback; 1e20 Hz overflowed int64 and ran on
    # for minutes.
    def two_nodes(params):
        return {"version": 1, "duration_s": 2.0, "seed": 1,
                "topology": {"version": 1,
                             "nodes": [{"id": "A", "role": "tx"}, {"id": "B", "role": "rx"}],
                             "links": [{"id": "a-b", "a": "A", "b": "B", "length_km": 5.0}],
                             "defaults": {"params": params}},
                "events": [{"t": 0.0, "kind": "start_qkd", "tx": "A", "rx": "B"}]}

    path = tmp_path / "s.json"
    path.write_text(json.dumps(two_nodes({"pulse_rate_hz": 1e9})))
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 0
    for params, message in (({"pulse_rate_hz": 1e300}, "pulse_rate_hz must be in (0, 1e+09]"),
                            ({"pulse_rate_hz": 1e20}, "pulse_rate_hz must be in (0, 1e+09]"),
                            ({"dead_time_s": 1e300}, "dead_time_s must be in [0, 1]")):
        path.write_text(json.dumps(two_nodes(params)))
        capsys.readouterr()
        assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"validation error: channel A-B: invalid parameters: {message}"]


def test_mean_photon_number_is_bounded_at_load(tmp_path, capsys):
    # A mean of 1e19 once loaded and then failed deep in the sampler behind
    # the photon-number-splitting attacker, with a traceback. Weak-coherent
    # sources run below 10 photons a pulse; the cap of 100 keeps the
    # attacker's tally and walk well inside their numerics.
    def pns_on(mu):
        return {"version": 1, "duration_s": 2.0, "seed": 1,
                "topology": {"version": 1,
                             "nodes": [{"id": "A", "role": "tx"}, {"id": "B", "role": "rx"}],
                             "links": [{"id": "a-b", "a": "A", "b": "B", "length_km": 5.0}],
                             "defaults": {"params": {"mean_photon_number": mu}}},
                "events": [{"t": 0.0, "kind": "start_qkd", "tx": "A", "rx": "B"},
                           {"t": 0.0, "kind": "enable_eve", "channel": "A-B",
                            "eve": {"kind": "photon_number_split"}}]}

    path = tmp_path / "s.json"
    path.write_text(json.dumps(pns_on(100)))
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 0
    path.write_text(json.dumps(pns_on(1e19)))
    capsys.readouterr()
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "validation error: channel A-B: invalid parameters: "
        "mean_photon_number must be in [0, 100]"]


def test_slow_pulse_rate_does_not_hang_the_event_loop(tmp_path):
    # Below 4 Hz a round holds no slot; a training frame still holds one, so
    # realignment takes time instead of rescheduling itself at one instant.
    topology = ng.cambridge_config()
    topology["defaults"]["params"]["pulse_rate_hz"] = 2.0
    path = tmp_path / "slow.json"
    path.write_text(json.dumps({
        "version": 1, "topology": topology, "duration_s": 10.0, "seed": 1,
        "events": [{"t": 0.0, "kind": "start_qkd", "tx": "Anna", "rx": "Bob"}]}))
    src = Path(engine_module.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-m", "qkdnet.cli", "run", "--scenario", str(path),
         "--out", str(tmp_path / "o")],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
        timeout=60)
    assert done.returncode == 0, done.stderr


def test_slow_pulse_rate_rounds_never_sample(monkeypatch, tmp_path):
    # At 2 Hz a round holds no slot and a training frame holds one, more
    # than the round. No round comes to take it: every realignment frame of
    # one slot falls short of the sifted bits realignment needs, so no
    # engine.sample_link_window call is made, and the run ends clean.
    rounds, frames = [], []
    engine_sample, realign_sample = engine_module.sample_link_window, sf.sample_link_window

    def spy_round(*args, **kwargs):
        rounds.append(args[2])
        return engine_sample(*args, **kwargs)

    def spy_realign(*args, **kwargs):
        frames.append(args[2])
        return realign_sample(*args, **kwargs)

    monkeypatch.setattr(engine_module, "sample_link_window", spy_round)
    monkeypatch.setattr(sf, "sample_link_window", spy_realign)
    topology = ng.cambridge_config()
    topology["defaults"]["params"]["pulse_rate_hz"] = 2.0
    engine = Engine(load_scenario({
        "version": 1, "topology": topology, "duration_s": 10.0, "seed": 1,
        "events": [{"t": 0.0, "kind": "start_qkd", "tx": "Anna", "rx": "Bob"}]}))
    report = engine.run()
    session = engine.sessions["Anna-Bob"]
    assert (session.windows.n_slots, session.training_slots) == (0, 1)
    assert rounds == [] and frames and set(frames) == {1}
    path = tmp_path / "records.jsonl"
    path.write_text(report.emit_records())
    assert main(["verify", "--records", str(path)]) == 0
