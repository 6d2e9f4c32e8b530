"""Topology model, config validation, budgets, presets."""

import dataclasses
import json

import pytest

from qkdnet import netgraph as ng
from qkdnet.errors import ValidationError
from qkdnet.qkdproto import EstimatorKind


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
    params = topo.channel_params(boris)
    assert params.mean_photon_number == 1.0
    assert params.channel_loss_db == pytest.approx(11.5006)
    assert topo.channel_estimator_kind(boris) is EstimatorKind.MULTIPHOTON_AWARE
    annabob = topo.channel_by_id("Anna-Bob")
    p = topo.channel_params(annabob)
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


def test_required_links():
    assert ng.required_links(2, ng.TopologyKind.FULL_MESH) == 1
    assert ng.required_links(2, ng.TopologyKind.STAR) == 2
    assert ng.required_links(10, ng.TopologyKind.FULL_MESH) == 45
    assert ng.required_links(10, ng.TopologyKind.STAR) == 10
    assert ng.required_links(100, ng.TopologyKind.FULL_MESH) == 4950
    with pytest.raises(ValidationError):
        ng.required_links(1, ng.TopologyKind.STAR)


def test_round_trip_is_identity():
    for doc in (_generic_switched(), ng.cambridge_config()):
        topo = ng.load_topology(doc)
        canon = ng.serialize_topology(topo)
        reparsed = ng.load_topology(json.loads(json.dumps(canon)))
        assert reparsed == topo
        assert ng.serialize_topology(reparsed) == canon


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
    # Nor may the physics that channel_params merges from them.
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
    assert topo.channel_params(topo.channel_by_id("Anna-Bob")).mean_photon_number == 0.5


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
