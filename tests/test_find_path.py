"""Relay path selection against its declared oracle, and its cost on a mesh."""

import random
import time
from typing import List

import numpy as np
import pytest

from qkdnet import netgraph as ng
from qkdnet.errors import NoPathError
from qkdnet.keyrelay import HealthMonitor, _layers, find_path, hop_need, relay_graph
from qkdnet.keystore import KeyOrigin, KeyStore

R_LENGTH = 8


def _oracle(topology, health, store, src, dst, r_length) -> List[str]:
    """Test oracle: list every shortest path with trusted interior nodes,
    then take the one with the widest bottleneck, then the smallest node
    sequence."""
    need = hop_need(r_length)
    graph = relay_graph(topology, health, store)
    dist = _layers(topology, graph, src, need, dst)
    if dst not in dist:
        raise NoPathError(f"no qualifying relay path {src} -> {dst}")
    paths: List[List[str]] = []

    def extend(path: List[str]):
        node = path[-1]
        if node == dst:
            paths.append(list(path))
            return
        for peer in sorted(p for p, level in graph[node].items() if level >= need):
            if dist.get(peer) == dist[node] + 1 and \
                    (peer == dst or topology.nodes[peer].trusted):
                path.append(peer)
                extend(path)
                path.pop()

    extend([src])

    def score(path: List[str]):
        return (-min(store.available(a, b) for a, b in zip(path, path[1:])), path)

    return min(paths, key=score)


def _prepositioned_mesh(nodes, pairs, levels, seed=0):
    """A topology whose relay graph is ``pairs`` of prepositioned key, with
    ``levels[i]`` bits deposited for ``pairs[i]``."""
    topology = ng.load_topology({
        "version": 1, "links": [],
        "nodes": [{"id": n, "role": "relay"} if trusted
                  else {"id": n, "role": "tx", "trusted": False}
                  for n, trusted in nodes],
        "prepositioned": [{"a": a, "b": b, "bits": 0} for a, b in pairs]})
    store = KeyStore()
    rng = np.random.default_rng(seed)
    for (a, b), bits in zip(pairs, levels):
        store.reservoir(a, b).deposit(
            "seed", np.packbits(rng.integers(0, 2, bits, dtype=np.uint8)), bits,
            KeyOrigin.PREPOSITIONED)
    return topology, store


def test_find_path_matches_the_enumeration_oracle():
    need = hop_need(R_LENGTH)
    # Below, at and above the need, with repeats, so that ties are common.
    level_choices = [need - 1, need, need, need + 40, need + 40, need + 90]
    rng = random.Random(20)
    compared = multi_hop = no_path = 0
    for trial in range(1000):
        n = rng.randint(3, 8)
        nodes = [(f"N{i}", rng.random() < 0.75) for i in range(n)]
        names = [name for name, _ in nodes]
        pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]
                 if rng.random() < 0.45]
        levels = [rng.choice(level_choices) for _ in pairs]
        topology, store = _prepositioned_mesh(nodes, pairs, levels, seed=trial)
        health = HealthMonitor()
        for _ in range(3):
            src, dst = rng.sample(names, 2)
            graph = relay_graph(topology, health, store)
            try:
                expected = _oracle(topology, health, store, src, dst, R_LENGTH)
            except NoPathError:
                with pytest.raises(NoPathError):
                    find_path(topology, graph, src, dst, need)
                no_path += 1
                continue
            assert find_path(topology, graph, src, dst, need) == expected, \
                (trial, nodes, pairs, levels, src, dst)
            compared += 1
            multi_hop += len(expected) > 2
    # Paths, multi-hop paths and no-path cases are all common.
    assert compared > 1000 and multi_hop > 500 and no_path > 300


def test_find_path_on_a_12x12_grid_is_fast():
    side = 12
    names = [[f"n{r:02d}_{c:02d}" for c in range(side)] for r in range(side)]
    pairs = [(names[r][c], names[r][c + 1]) for r in range(side) for c in range(side - 1)]
    pairs += [(names[r][c], names[r + 1][c]) for r in range(side - 1) for c in range(side)]
    topology, store = _prepositioned_mesh(
        [(n, True) for row in names for n in row], pairs, [hop_need(R_LENGTH)] * len(pairs))
    t0 = time.perf_counter()
    path = find_path(topology, relay_graph(topology, HealthMonitor(), store),
                     names[0][0], names[-1][-1], hop_need(R_LENGTH))
    elapsed = time.perf_counter() - t0
    # Every corner-to-corner path ties on width: the smallest node sequence
    # runs along the first row, then down the last column.
    assert path == names[0] + [names[r][-1] for r in range(1, side)]
    assert elapsed < 1.0
