"""Relay wake-ups: the coordinator's index of blocked sessions against its
declared oracle, :func:`oracles.movable`, and its cost as demand grows."""

import random

import numpy as np

from oracles import movable
from qkdnet import netgraph as ng
from qkdnet.engine import run_scenario
from qkdnet.keyrelay import HealthMonitor, RelayCoordinator, RelayStatus, hop_need
from qkdnet.keystore import ConsumePurpose, KeyOrigin, KeyStore
from qkdnet.netgraph import LinkHealth
from qkdnet.scenario import load_scenario

SIZES = (256, 1024, 3000)


def _mesh():
    """Four trusted relays, an untrusted transmitter U that may only be an
    endpoint, and S-D joined by prepositioned key alone."""
    nodes = ([{"id": n, "role": "relay"} for n in ("S", "A", "B", "D")]
             + [{"id": "U", "role": "tx", "trusted": False}])
    links = [{"id": f"{a}-{b}".lower(), "a": a, "b": b, "length_km": 1.0}
             for a, b in (("S", "A"), ("A", "B"), ("B", "D"), ("S", "B"),
                          ("U", "A"), ("U", "D"))]
    return ng.load_topology({"version": 1, "nodes": nodes, "links": links,
                             "prepositioned": [{"a": "S", "b": "D", "bits": 0}]})


def _wake_against_the_oracle(draw_size):
    """Random deposits, consumes, health flips, requests and steps, with
    ``wake()`` checked against ``movable`` after each."""
    topo = _mesh()
    channels = [ch.channel_id for ch in topo.qkd_channels()]
    pairs = sorted(topo.channel_ids_by_pair) + [("D", "S"), ("S", "U")]
    nodes = sorted(topo.nodes)
    woken_by_status = {RelayStatus.PATH_PENDING: 0, RelayStatus.IN_FLIGHT: 0}
    for seed in range(20):
        rng = random.Random(seed)
        bits = np.random.default_rng(seed)
        store = KeyStore()
        health = HealthMonitor()
        coord = RelayCoordinator(topo, health, store, np.random.default_rng(seed),
                                 reserve_bits=64)
        active = []
        for step in range(200):
            t = float(step)
            op = rng.choices(("deposit", "consume", "health", "request", "step"),
                             (8, 8, 4, 4, 8))[0]
            if op == "deposit":
                a, b = rng.choice(pairs)
                n = rng.randint(100, 4000)
                store.reservoir(a, b).deposit(
                    f"d{step}", np.packbits(bits.integers(0, 2, n, dtype=np.uint8)), n,
                    KeyOrigin.DIRECT_QKD, t)
            elif op == "consume":
                # Half the time, drain the next hop of a session in flight.
                in_flight = [s for s in active if s.status is RelayStatus.IN_FLIGHT]
                if in_flight and rng.random() < 0.5:
                    session = rng.choice(in_flight)
                    a, b = session.path[session.next_hop:session.next_hop + 2]
                else:
                    a, b = rng.choice(pairs)
                n = max(0, store.available(a, b) - rng.randint(0, 3000))
                store.reservoir(a, b).consume(n, ConsumePurpose.DELIVERY, t)
            elif op == "health":
                health.force(rng.choice(channels), rng.choice(list(LinkHealth)), t, "test")
            elif op == "request":
                src, dst = rng.sample(nodes, 2)
                session = coord.request(src, dst, draw_size(rng), t)
                if session.status is RelayStatus.PATH_PENDING:
                    coord.wait(session)
                else:
                    active.append(session)
            elif active:
                session = active.pop(rng.randrange(len(active)))
                outcome = coord.step(session, t)
                if outcome in ("advanced", "rerouted"):
                    active.append(session)
                elif outcome in ("starved", "pending"):
                    coord.wait(session)
            waiting = [coord.waiting[n] for n in sorted(coord.waiting)]
            expected = movable(coord, waiting)
            for session in expected:
                woken_by_status[session.status] += 1
            assert coord.wake() == expected, (seed, step, op)
            active.extend(expected)
    # Both kinds of blocked session were woken, many times over.
    assert min(woken_by_status.values()) >= 20, woken_by_status


def test_wake_matches_the_movable_oracle_under_random_changes():
    _wake_against_the_oracle(lambda rng: rng.choice(SIZES))


def test_wake_matches_the_movable_oracle_with_many_request_sizes():
    # One level rise then crosses some sizes' hop needs and not others'.
    _wake_against_the_oracle(lambda rng: rng.randint(200, 4000))


def test_a_rise_to_exactly_a_hop_need_wakes_that_size_only():
    topo = _mesh()
    store = KeyStore()
    coord = RelayCoordinator(topo, HealthMonitor(), store, np.random.default_rng(0),
                             reserve_bits=64)
    sessions = [coord.request("S", "D", r, 0.0) for r in (1000, 1001)]
    for session in sessions:
        coord.wait(session)
    need = hop_need(1000, 64)
    store.reservoir("S", "D").deposit(
        "fund", np.zeros(-(-need // 8), dtype=np.uint8), need, KeyOrigin.PREPOSITIONED, 1.0)
    assert coord.wake() == movable(coord, sessions) == sessions[:1]


def test_woken_path_pending_sessions_leave_no_empty_queues():
    topo = _mesh()
    store = KeyStore()
    coord = RelayCoordinator(topo, HealthMonitor(), store, np.random.default_rng(0))
    for i in range(50):
        session = coord.request("S", "D", 100 + i, float(i))
        assert session.status is RelayStatus.PATH_PENDING
        coord.wait(session)
    store.reservoir("S", "D").deposit(
        "fund", np.packbits(np.random.default_rng(1).integers(0, 2, 1000, dtype=np.uint8)),
        1000, KeyOrigin.PREPOSITIONED, 50.0)
    assert len(coord.wake()) == 50
    assert coord.waiting == {} and coord._pending == {}


def _chain_scenario(requests: int) -> dict:
    names = [f"N{i}" for i in range(8)]
    params = {"detector_efficiency": 0.1, "dark_count_prob": 1e-5,
              "intrinsic_error": 0.01, "mean_photon_number": 0.5,
              "pulse_rate_hz": 5e6, "dead_time_s": 1e-5}
    topology = {
        "version": 1, "name": "chain8",
        "nodes": ([{"id": names[0], "role": "tx"}]
                  + [{"id": n, "role": "relay"} for n in names[1:-1]]
                  + [{"id": names[-1], "role": "rx"}]),
        "links": [{"id": f"hop{i}", "a": names[i], "b": names[i + 1], "length_km": 100.0}
                  for i in range(len(names) - 1)],
        "defaults": {"fiber_loss_db_per_km": 0.2, "params": params,
                     "drift_rate_rad_per_s": 0.002, "feedback_gain": 0.5}}
    events = [{"t": 0.0, "kind": "start_qkd", "tx": a, "rx": b}
              for a, b in zip(names, names[1:])]
    rng = random.Random(7)
    for i in range(requests):
        src, dst = rng.sample(names, 2)
        events.append({"t": round(10.0 * i / requests, 6), "kind": "relay_request",
                       "src": src, "dst": dst, "bits": 2048})
    return {"version": 1, "name": "chain8-demand", "topology": topology,
            "duration_s": 20.0, "seed": 3,
            "engine": {"prepositioned_auth_bits": 1 << 15}, "events": events}


def _full_scan_wake(self):
    """The wake-up as a full scan: every waiting session through the oracle."""
    ready = movable(self, [self.waiting[n] for n in sorted(self.waiting)])
    for session in ready:
        self._unfile(session)
    return ready


def test_wakeups_examine_linearly_many_sessions_and_match_a_full_scan(monkeypatch):
    counts = {}
    ready_rule, wake = RelayCoordinator._ready, RelayCoordinator.wake

    def counted_ready(self, sessions, graph, reach):
        sessions = list(sessions)
        counts["examined"] += len(sessions)
        return ready_rule(self, sessions, graph, reach)

    def counted_wake(self):
        ready = wake(self)
        counts["woken"] += len(ready)
        return ready

    for scale in (1, 2, 4):
        requests = 150 * scale
        doc = _chain_scenario(requests)
        counts.update(examined=0, woken=0)
        with monkeypatch.context() as m:
            m.setattr(RelayCoordinator, "_ready", counted_ready)
            m.setattr(RelayCoordinator, "wake", counted_wake)
            indexed = run_scenario(load_scenario(doc)).emit_records()
        examined, woken = counts["examined"], counts["woken"]
        with monkeypatch.context() as m:
            m.setattr(RelayCoordinator, "wake", _full_scan_wake)
            full_scan = run_scenario(load_scenario(doc)).emit_records()
        assert indexed == full_scan, scale
        # Every session woken is examined once; the examinations that wake
        # nobody stay under one per request, so they grow linearly with
        # demand (a full scan after each deposit makes dozens per request).
        assert woken > 0
        assert examined - woken <= requests, (scale, examined, woken)


def test_wakeups_with_many_sizes_compute_no_hop_need_beyond_the_examined(monkeypatch):
    # With request sizes drawn from 1,000-4,000 bits, hundreds of distinct
    # hop needs wait at once. A wake-up finds the needs a level rise
    # crosses by bisecting the sorted ones, so it calls hop_need once per
    # session it examines and never for a size no rise crosses, however
    # many sizes wait.
    doc = _chain_scenario(600)
    rng = random.Random(11)
    for ev in doc["events"]:
        if ev["kind"] == "relay_request":
            ev["bits"] = rng.randint(1000, 4000)
    counts = dict(calls=0, in_wake=0, examined=0, rises=0, wakes=0, needs=0)
    need_of, ready_rule, wake = hop_need, RelayCoordinator._ready, RelayCoordinator.wake

    def counted_need(*args, **kwargs):
        counts["calls"] += 1
        return need_of(*args, **kwargs)

    def counted_ready(self, sessions, graph, reach):
        sessions = list(sessions)
        counts["examined"] += len(sessions)
        return ready_rule(self, sessions, graph, reach)

    def counted_wake(self):
        self._drain()
        counts["rises"] += len(self._rises)
        counts["wakes"] += 1
        counts["needs"] = max(counts["needs"], len(self._needs))
        before = counts["calls"]
        ready = wake(self)
        counts["in_wake"] += counts["calls"] - before
        return ready

    monkeypatch.setattr("qkdnet.keyrelay.hop_need", counted_need)
    monkeypatch.setattr(RelayCoordinator, "_ready", counted_ready)
    monkeypatch.setattr(RelayCoordinator, "wake", counted_wake)
    indexed = run_scenario(load_scenario(doc)).emit_records()
    assert counts["needs"] > 100 and counts["rises"] > 20, counts
    assert counts["in_wake"] == counts["examined"], counts
    monkeypatch.setattr(RelayCoordinator, "wake", _full_scan_wake)
    assert indexed == run_scenario(load_scenario(doc)).emit_records()
