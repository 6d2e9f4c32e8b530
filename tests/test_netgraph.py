"""Topology model, config validation, budgets, presets."""

import dataclasses
import json
import math

import pytest

from qkdnet import netgraph as ng
from qkdnet.cli import main
from qkdnet.errors import ValidationError
from qkdnet.qkdproto import EstimatorKind
from qkdnet.qkdproto.sifting import SiftingProtocol


def _generic_switched():
    return {
        "version": 1,
        "nodes": [{"id": "T", "role": "tx"}, {"id": "U", "role": "tx"},
                  {"id": "R", "role": "rx"}, {"id": "V", "role": "rx"}],
        "switches": [{"id": "s", "tx_ports": ["T", "U"], "rx_ports": ["R", "V"],
                      "insertion_loss_db": 0.8}],
        "links": [
            {"id": "t-s", "a": "T", "b": "s", "length_km": 10.0},
            {"id": "u-s", "a": "U", "b": "s", "length_km": 0.003},
            {"id": "s-r", "a": "s", "b": "R", "length_km": 0.003},
            {"id": "s-v", "a": "s", "b": "V", "length_km": 19.0},
        ],
    }


def test_cambridge_preset_contents():
    topo = ng.load_preset("cambridge")
    assert set(topo.nodes) == {"Alice", "Anna", "Bob", "Boris", "Ali", "Baba"}
    assert set(topo.switches) == {"sw"}
    assert topo.links["anna-sw"].length_km == 10.0
    assert topo.links["sw-boris"].length_km == 19.0
    assert topo.links["sw-boris"].loss_db_override == 11.5
    # Freespace pair joined to the fiber network by a prepositioned pair.
    pairs = {(p.a, p.b) for p in topo.prepositioned}
    assert ("Ali", "Alice") in pairs
    channels = {c.channel_id for c in topo.qkd_channels()}
    assert {"Anna-Bob", "Alice-Bob", "Anna-Boris", "Alice-Boris", "Ali-Baba"} <= channels


def test_cambridge_boris_channels_run_hot_with_pns_pricing():
    topo = ng.load_preset("cambridge")
    boris = topo.channel_by_id("Alice-Boris")
    params = boris.params
    assert params.mean_photon_number == 1.0
    assert params.channel_loss_db == pytest.approx(11.5006)
    assert boris.estimator is EstimatorKind.MULTIPHOTON_AWARE
    annabob = topo.channel_by_id("Anna-Bob")
    p = annabob.params
    assert p.mean_photon_number == 0.5
    assert p.insertion_loss_db == 0.8


def test_link_budget_examples():
    topo = ng.load_topology(_generic_switched())
    assert topo.link_budget("t-s") == pytest.approx(2.0)
    assert topo.link_budget(("t-s", "s-v")) == pytest.approx(6.6)
    cambridge = ng.load_preset("cambridge")
    assert cambridge.link_budget("sw-boris") == pytest.approx(11.5)


def test_link_budget_additivity():
    topo = ng.load_topology(_generic_switched())
    combined = topo.link_budget(("t-s", "s-v"))
    parts = topo.link_budget("t-s") + topo.link_budget("s-v") + 0.8
    assert combined == pytest.approx(parts)


def test_link_budget_unknown_path():
    topo = ng.load_topology(_generic_switched())
    with pytest.raises(ValidationError):
        topo.link_budget("nope")
    with pytest.raises(ValidationError):
        topo.link_budget(("t-s", "t-s", "s-v"))


def test_loaded_topology_is_read_only():
    # Its indexes are built once, so no edit may slip in after first use.
    topo = ng.load_preset("cambridge")
    assert "Ali-Baba" in [c.channel_id for c in topo.qkd_channels()]
    with pytest.raises(TypeError):
        del topo.links["ali-baba"]
    with pytest.raises(TypeError):
        topo.nodes["Eve"] = topo.nodes["Ali"]
    with pytest.raises(TypeError):
        topo.switches["sw"] = None
    # Nor may the physics that channel resolution merges from them.
    with pytest.raises(TypeError):
        topo.default_params["mean_photon_number"] = 0.9
    with pytest.raises(TypeError):
        topo.links["ali-baba"].params["detector_efficiency"] = 0.5
    with pytest.raises(TypeError):
        topo.channels[0].params["mean_photon_number"] = 0.9
    with pytest.raises(AttributeError):
        topo.prepositioned.append(topo.prepositioned[0])
    with pytest.raises(AttributeError):
        topo.channels.clear()
    with pytest.raises(dataclasses.FrozenInstanceError):
        topo.links = {}
    assert "Ali-Baba" in [c.channel_id for c in topo.qkd_channels()]
    assert topo.channel_by_id("Anna-Bob").params.mean_photon_number == 0.5


def test_empty_node_list_rejected():
    with pytest.raises(ValidationError):
        ng.load_topology({"version": 1, "nodes": [], "links": []})


def test_dangling_endpoint_named_in_error():
    with pytest.raises(ValidationError, match="'X'"):
        ng.load_topology({"version": 1,
                          "nodes": [{"id": "A", "role": "tx"}],
                          "links": [{"id": "l", "a": "A", "b": "X"}]})


def test_unknown_keys_rejected():
    doc = _generic_switched()
    doc["surprise"] = 1
    with pytest.raises(ValidationError, match="surprise"):
        ng.load_topology(doc)
    doc = _generic_switched()
    doc["links"][0]["colour"] = "blue"
    with pytest.raises(ValidationError, match="colour"):
        ng.load_topology(doc)
    # Link health is run state, owned by the engine, not configuration.
    doc = _generic_switched()
    doc["links"][0]["health"] = "up"
    with pytest.raises(ValidationError, match="unknown key 'health'"):
        ng.load_topology(doc)
    # Informational wavelengths and offsets are not link physics.
    for name in ("data_wavelength_nm", "sync_wavelength_nm", "sync_offset_ns"):
        doc = _generic_switched()
        doc["links"][0]["params"] = {name: 1550.92}
        with pytest.raises(ValidationError, match=f"unknown key '{name}'"):
            ng.load_topology(doc)


def test_link_direction_capability_enforced():
    with pytest.raises(ValidationError, match="receive-capable"):
        ng.load_topology({"version": 1,
                          "nodes": [{"id": "A", "role": "tx"},
                                    {"id": "B", "role": "tx"}],
                          "links": [{"id": "l", "a": "A", "b": "B"}]})


def test_untrusted_relay_rejected():
    with pytest.raises(ValidationError, match="trusted"):
        ng.load_topology({"version": 1,
                          "nodes": [{"id": "A", "role": "relay", "trusted": False}],
                          "links": []})


def test_bad_version_rejected():
    doc = _generic_switched()
    doc["version"] = 99
    with pytest.raises(ValidationError):
        ng.load_topology(doc)


def test_json_string_input():
    topo = ng.load_topology(json.dumps(_generic_switched()))
    assert "t-s" in topo.links
    with pytest.raises(ValidationError, match="JSON"):
        ng.load_topology("{not json")


def test_cambridge_channels_resolved_at_load():
    topo = ng.load_preset("cambridge")
    resolved = {c.channel_id: c for c in topo.qkd_channels()}
    assert set(resolved) == {"Ali-Baba", "Alice-Bob", "Alice-Boris", "Anna-Bob", "Anna-Boris"}
    for cid, ch in resolved.items():
        hot = cid.endswith("-Boris")
        assert ch.params.mean_photon_number == (1.0 if hot else 0.5), cid
        assert ch.estimator is (EstimatorKind.MULTIPHOTON_AWARE if hot
                                else EstimatorKind.SIMPLE_SHANNON), cid
        assert ch.sifting is SiftingProtocol.BB84, cid
        assert (ch.phase.drift_rate_rad_per_s, ch.phase.feedback_gain) == (0.002, 0.5), cid
        assert ch.phase.phase_error_rad == 0.0
        assert ch.params.channel_loss_db == sum(topo.link_loss_db(l) for l in ch.link_ids)
        assert ch.params.insertion_loss_db == (0.8 if ch.via_switch else 0.0), cid
    assert resolved["Ali-Baba"].params.pulse_rate_hz == 1e6
    assert resolved["Ali-Baba"].params.detector_efficiency == 0.01
    assert resolved["Anna-Bob"].params.detector_efficiency == 0.004


def test_channel_override_sets_phase_dynamics_and_protocols():
    doc = _generic_switched()
    doc["defaults"] = {"drift_rate_rad_per_s": 0.03, "feedback_gain": 0.4}
    doc["channels"] = [{"tx": "T", "rx": "V", "drift_rate_rad_per_s": 0.01,
                        "feedback_gain": 0.25, "sifting": "sarg",
                        "params": {"mean_photon_number": 0.2}}]
    resolved = {c.channel_id: c for c in ng.load_topology(doc).qkd_channels()}
    tv = resolved["T-V"]
    assert (tv.phase.drift_rate_rad_per_s, tv.phase.feedback_gain) == (0.01, 0.25)
    assert tv.sifting is SiftingProtocol.SARG
    assert tv.estimator is EstimatorKind.SIMPLE_SHANNON
    assert tv.params.mean_photon_number == 0.2
    for cid in ("T-R", "U-R", "U-V"):
        ch = resolved[cid]
        assert (ch.phase.drift_rate_rad_per_s, ch.phase.feedback_gain) == (0.03, 0.4)
        assert ch.sifting is SiftingProtocol.BB84
        assert ch.params.mean_photon_number == 0.5


@pytest.mark.parametrize("field, value", [
    ("feedback_gain", 0), ("feedback_gain", 2), ("feedback_gain", math.nan),
    ("feedback_gain", "x"), ("drift_rate_rad_per_s", -1),
])
def test_bad_channel_phase_dynamics_rejected_at_load(field, value):
    doc = ng.cambridge_config()
    doc["channels"][0][field] = value
    with pytest.raises(ValidationError, match=r"channels\[0\]|channel Alice-Boris"):
        ng.load_topology(doc)


def test_link_budget_takes_a_switched_channels_legs_in_either_order(capsys):
    topo = ng.load_topology(_generic_switched())
    assert topo.link_budget(("s-v", "t-s")) == topo.link_budget(("t-s", "s-v"))
    for legs in (("s-r", "s-v"), ("t-s", "u-s")):
        with pytest.raises(ValidationError, match="legs of a switched channel"):
            topo.link_budget(legs)
    assert main(["budget", "--preset", "cambridge", "--path", "anna-sw,sw-boris"]) == 0
    assert main(["budget", "--preset", "cambridge", "--path", "sw-boris,anna-sw"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "anna-sw,sw-boris: 14.300 dB", "sw-boris,anna-sw: 14.300 dB"]


def _set(doc, path, value):
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


def _extra_tx_port(doc):
    doc["switches"][0]["tx_ports"].append("Ali")
    return doc


def _prepositioned_twice(doc):
    doc["prepositioned"].append({"a": "Alice", "b": "Ali", "bits": 1024})
    return doc


def _override_twice(doc):
    doc["channels"].append({"tx": "Alice", "rx": "Boris", "params": {"mean_photon_number": 0.1}})
    return doc


def _numeric_node(doc):
    doc["nodes"].append({"id": 7, "role": "rx"})
    doc["links"].append({"id": "ali-7", "a": "Ali", "b": 7, "length_km": 1.0})
    return doc


def _colliding_channel_ids(doc):
    doc["nodes"] += [{"id": "A", "role": "tx"}, {"id": "A-B", "role": "tx"},
                     {"id": "B-C", "role": "rx"}, {"id": "C", "role": "rx"}]
    doc["links"] += [{"id": "l1", "a": "A", "b": "B-C", "length_km": 1.0},
                     {"id": "l2", "a": "A-B", "b": "C", "length_km": 1.0}]
    return doc


def _parallel_strand(doc):
    doc["links"].append({**doc["links"][4], "id": "ali-baba-2"})
    return doc


# Each edit loaded (or crashed the run, or raised something other than a
# ValidationError) before topology values were checked instead of coerced.
_BAD_TOPOLOGIES = {
    "trusted-string": lambda d: _set(d, ("nodes", 0, "trusted"), "no"),
    "efficiency-bool": lambda d: _set(d, ("links", 4, "params", "detector_efficiency"), True),
    "length-bool": lambda d: _set(d, ("links", 1, "length_km"), True),
    "length-nan": lambda d: _set(d, ("links", 1, "length_km"), math.nan),
    "pulse-rate-string": lambda d: _set(d, ("defaults", "params", "pulse_rate_hz"), "abc"),
    "pulse-rate-nan": lambda d: _set(d, ("defaults", "params", "pulse_rate_hz"), math.nan),
    "mu-nan": lambda d: _set(d, ("channels", 0, "params", "mean_photon_number"), math.nan),
    # These loaded, then overflowed the link sampler or ran without end.
    "pulse-rate-1e300": lambda d: _set(d, ("defaults", "params", "pulse_rate_hz"), 1e300),
    "pulse-rate-1e20": lambda d: _set(d, ("links", 1, "params"), {"pulse_rate_hz": 1e20}),
    "dead-time-1e300": lambda d: _set(d, ("channels", 0, "params", "dead_time_s"), 1e300),
    "fiber-loss-string": lambda d: _set(d, ("defaults", "fiber_loss_db_per_km"), "x"),
    "period-zero": lambda d: _set(d, ("switches", 0, "schedule_period_s"), 0),
    "period-below-blackout": lambda d: _set(d, ("switches", 0, "schedule_period_s"), 1e-300),
    "toggle-negative": lambda d: _set(d, ("switches", 0, "toggle_times_s"), [-1.0]),
    "toggles-out-of-order": lambda d: _set(d, ("switches", 0, "toggle_times_s"), [2.0, 1.0]),
    "three-tx-ports": _extra_tx_port,
    "bits-float": lambda d: _set(d, ("prepositioned", 0, "bits"), 1.9),
    "bits-negative": lambda d: _set(d, ("prepositioned", 0, "bits"), -5),
    "bits-bool": lambda d: _set(d, ("prepositioned", 0, "bits"), True),
    "pair-listed-twice": _prepositioned_twice,
    "pair-of-one-node": lambda d: _set(d, ("prepositioned", 0, "b"), "Ali"),
    "override-listed-twice": _override_twice,
    # Both strands were channel "A-B-C" (or "Ali-Baba"), and channel_by_id
    # found only the second.
    "channel-ids-collide": _colliding_channel_ids,
    "parallel-strands": _parallel_strand,
    # Each edit below raised a TypeError at load, or loaded, before every
    # list, id, reference and name had its JSON type checked. The numeric
    # node id loaded and then crashed the run comparing it with a string.
    "nodes-number": lambda d: _set(d, ("nodes",), 5),
    "switches-null": lambda d: _set(d, ("switches",), None),
    "channels-object": lambda d: _set(d, ("channels",), {}),
    "prepositioned-number": lambda d: _set(d, ("prepositioned",), 5),
    "node-id-list": lambda d: _set(d, ("nodes", 0, "id"), ["Alice"]),
    "node-id-number": _numeric_node,
    "link-id-list": lambda d: _set(d, ("links", 0, "id"), ["alice-sw"]),
    "switch-id-list": lambda d: _set(d, ("switches", 0, "id"), ["sw"]),
    "tx-ports-number": lambda d: _set(d, ("switches", 0, "tx_ports"), 5),
    "port-list": lambda d: _set(d, ("switches", 0, "tx_ports", 1), ["Anna"]),
    "toggle-times-number": lambda d: _set(d, ("switches", 0, "toggle_times_s"), 5),
    "endpoint-list": lambda d: _set(d, ("links", 4, "a"), ["Ali"]),
    "override-tx-list": lambda d: _set(d, ("channels", 0, "tx"), ["Alice"]),
    "pair-end-object": lambda d: _set(d, ("prepositioned", 0, "a"), {"Ali": 1}),
    "name-number": lambda d: _set(d, ("name",), 5),
    "description-list": lambda d: _set(d, ("description",), []),
    "version-true": lambda d: _set(d, ("version",), True),
}


@pytest.mark.parametrize("case", sorted(_BAD_TOPOLOGIES))
def test_bad_topology_values_rejected_at_load(case):
    doc = _BAD_TOPOLOGIES[case](ng.cambridge_config())
    with pytest.raises(ValidationError):
        ng.load_topology(doc)


def test_colliding_channel_ids_name_both_strands():
    with pytest.raises(ValidationError, match="^channels A->B-C over l1 and A-B->C over l2 "
                                              "share the id A-B-C$"):
        ng.load_topology(_colliding_channel_ids(ng.cambridge_config()))


def test_node_id_holding_a_bar_rejected_at_load():
    # Strands A|B->C and A->B|C would run two reservoirs whose report rows
    # share the pair A|B|C, so verify would see a conservation mismatch.
    doc = ng.cambridge_config()
    doc["nodes"] += [{"id": "A|B", "role": "tx"}, {"id": "C", "role": "rx"},
                     {"id": "A", "role": "tx"}, {"id": "B|C", "role": "rx"}]
    doc["links"] += [{"id": "l1", "a": "A|B", "b": "C", "length_km": 1.0},
                     {"id": "l2", "a": "A", "b": "B|C", "length_km": 1.0}]
    with pytest.raises(ValidationError,
                       match=r"^nodes\[6\]: id must not contain '\|', got 'A\|B'$"):
        ng.load_topology(doc)


def test_cli_run_on_untrusted_string_exits_1(tmp_path, capsys):
    topology = _BAD_TOPOLOGIES["trusted-string"](ng.cambridge_config())
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"version": 1, "topology": topology, "duration_s": 5.0,
                                "seed": 1, "events": []}))
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "validation error: nodes[0]: trusted must be true or false, got 'no'"]


def test_cli_run_on_numeric_node_id_exits_1(tmp_path, capsys):
    topology = _BAD_TOPOLOGIES["node-id-number"](ng.cambridge_config())
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"version": 1, "topology": topology, "duration_s": 5.0,
                                "seed": 1, "events": []}))
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "nodes[6]: id must be a string, got 7" in err and "Traceback" not in err


def test_channel_override_naming_no_logical_channel_exits_1(tmp_path, capsys):
    # Bob-Alice is the reversed Alice-Bob: no logical channel runs that way,
    # so the override could never be applied.
    topology = ng.cambridge_config()
    topology["channels"] = topology.get("channels", []) + [
        {"tx": "Bob", "rx": "Alice", "params": {"mean_photon_number": 0.2}}]
    with pytest.raises(ValidationError, match="Bob-Alice names no logical channel"):
        ng.load_topology(topology)
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"version": 1, "topology": topology, "duration_s": 5.0,
                                "seed": 1, "events": []}))
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "Bob-Alice names no logical channel" in err and "Traceback" not in err
