"""Workload generator: scenario documents built from the benchmark seed.

The program under test sees only the returned document. Everything that
varies with ``--seed`` is drawn here: the scenario's master seed (which the
QKD sessions' random streams follow) and, for ``relay-chain``, the relay
endpoints and their open-loop arrival times.
"""

from __future__ import annotations

import random

# Name -> simulated seconds. BENCHMARK.json says why each workload is
# there; README.md gives each one's full shape.
WORKLOADS = {
    "metro": 150.0,
    "metro-bigblock": 150.0,
    "relay-chain": 30.0,
}

BIGBLOCK_TARGET_BITS = 1 << 15
CHAIN_NODES = 20
CHAIN_HOP_KM = 100.0
CHAIN_REQUESTS = 1000
CHAIN_REQUEST_BITS = 2048
# Criterion 7's long-haul link physics: 100 km hops that still yield key.
CHAIN_PARAMS = {"detector_efficiency": 0.1, "dark_count_prob": 1e-5,
                "intrinsic_error": 0.01, "mean_photon_number": 0.5,
                "pulse_rate_hz": 5e6, "dead_time_s": 1e-5}
# Prepositioned key per pair: enough to serve about a third of the demand
# before the backlog builds. With a quarter of it, how much path search a
# run does depends on the seed twice as much (the least and most of 8
# seeds differ 2x in find_path calls, against 1.24x here); with the default
# 2^20 bits nearly every request is served and no backlog forms.
CHAIN_PREPOSITIONED_BITS = 1 << 18


def _metro(seed: int, duration_s: float, engine: dict) -> dict:
    doc = {
        "version": 1, "name": "metro", "topology": {"preset": "cambridge"},
        "duration_s": duration_s, "seed": seed,
        "events": [
            {"t": 0.0, "kind": "start_qkd", "tx": "Anna", "rx": "Bob"},
            {"t": 0.0, "kind": "start_qkd", "tx": "Alice", "rx": "Boris"},
        ],
    }
    if engine:
        doc["engine"] = engine
    return doc


def _relay_chain(seed: int, duration_s: float) -> dict:
    names = [f"N{i}" for i in range(CHAIN_NODES)]
    nodes = ([{"id": names[0], "role": "tx"}]
             + [{"id": n, "role": "relay"} for n in names[1:-1]]
             + [{"id": names[-1], "role": "rx"}])
    links = [{"id": f"hop{i}", "a": names[i], "b": names[i + 1], "length_km": CHAIN_HOP_KM}
             for i in range(CHAIN_NODES - 1)]
    topology = {"version": 1, "name": "chain20", "nodes": nodes, "links": links,
                "defaults": {"fiber_loss_db_per_km": 0.2, "params": CHAIN_PARAMS,
                             "drift_rate_rad_per_s": 0.002, "feedback_gain": 0.5}}
    events = [{"t": 0.0, "kind": "start_qkd", "tx": names[i], "rx": names[i + 1]}
              for i in range(CHAIN_NODES - 1)]
    # Open loop: arrival times and endpoint pairs are fixed up front, over
    # the first half of the run, whatever the simulator does with them.
    # The seed draws the order, direction and arrival time of the requests;
    # every node pair is asked for equally often (the remainder drawn from
    # the seed too), so the demand mix, and with it the work, is the same
    # whatever the seed.
    rng = random.Random(f"relay-chain:{seed}")
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    demand = (pairs * (CHAIN_REQUESTS // len(pairs))
              + rng.sample(pairs, CHAIN_REQUESTS % len(pairs)))
    rng.shuffle(demand)
    arrivals = sorted(rng.uniform(0.0, duration_s / 2) for _ in demand)
    for t, (a, b) in zip(arrivals, demand):
        src, dst = (a, b) if rng.random() < 0.5 else (b, a)
        events.append({"t": round(t, 6), "kind": "relay_request", "src": src, "dst": dst,
                       "bits": CHAIN_REQUEST_BITS})
    return {"version": 1, "name": "relay-chain", "topology": topology,
            "duration_s": duration_s, "seed": seed,
            "engine": {"prepositioned_auth_bits": CHAIN_PREPOSITIONED_BITS},
            "events": events}


def build(name: str, seed: int, scale: float = 1.0) -> dict:
    """The scenario document of workload ``name`` for benchmark ``seed``.

    ``scale`` shortens the simulated duration; only the self-test uses it.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    duration_s = WORKLOADS[name] * scale
    if name == "metro":
        return _metro(seed, duration_s, {})
    if name == "metro-bigblock":
        return _metro(seed, duration_s, {"block_target_bits": BIGBLOCK_TARGET_BITS})
    return _relay_chain(seed, duration_s)
