"""Hop-by-hop key relay through trusted nodes, with failure rerouting.

A fresh secret R travels a relay path one-time-pad encrypted under each
pairwise key. The demo walks the XOR algebra on a two-hop path, then cuts
the active path of a diamond network mid-relay and watches the session
write off its spent key, regenerate R, and deliver around the failure.

Run:  python demos/04_key_relay.py
"""

import numpy as np

from qkdnet import netgraph as ng
from qkdnet.keyrelay import HealthMonitor, RelayCoordinator, find_path, hop_need, relay_graph
from qkdnet.keystore import KeyOrigin, KeyStore, scan_one_time_use
from qkdnet.netgraph import LinkHealth

print("=== Two-hop relay, algebra in the open ===")
topo = ng.load_topology({
    "version": 1,
    "nodes": [{"id": "S", "role": "tx"}, {"id": "M", "role": "relay"},
              {"id": "D", "role": "rx"}],
    "links": [{"id": "s-m", "a": "S", "b": "M", "length_km": 1.0},
              {"id": "m-d", "a": "M", "b": "D", "length_km": 1.0}]})
store = KeyStore()
rng = np.random.default_rng(1)
for pair in (("S", "M"), ("M", "D")):
    store.reservoir(*pair).deposit(
        "qkd", np.packbits(rng.integers(0, 2, 4096, dtype=np.uint8)), 4096, KeyOrigin.DIRECT_QKD)
coord = RelayCoordinator(topo, HealthMonitor(), store, np.random.default_rng(2))
session = coord.request("S", "D", 64, time_s=0.0)
while coord.step(session, 0.1) in ("advanced", "rerouted"):
    pass
print(f"  path: {' -> '.join(session.path)}")
print(f"  R at source:      {session.secret.tobytes().hex()}")
for t in session.hop_transcripts:
    key = store.reservoirs[t.pair].peek(t.otp_offset_start, 64)
    print(f"  hop {t.tx_node}->{t.rx_node}: ciphertext {t.ciphertext.tobytes().hex()} "
          f"( = R xor K, and C xor K = {(t.ciphertext ^ key).tobytes().hex()} )")
print(f"  R at destination: {session.delivered_secret.tobytes().hex()}")
print(f"  (S,D) reservoir now holds {store.available('S', 'D')} relayed bits")

print("\n=== Diamond network: cut the active path mid-relay ===")
diamond = ng.load_topology({
    "version": 1,
    "nodes": [{"id": "S", "role": "tx"}, {"id": "R1", "role": "relay"},
              {"id": "R2", "role": "relay"}, {"id": "D", "role": "rx"}],
    "links": [{"id": "s-r1", "a": "S", "b": "R1", "length_km": 1.0},
              {"id": "s-r2", "a": "S", "b": "R2", "length_km": 1.0},
              {"id": "r1-d", "a": "R1", "b": "D", "length_km": 1.0},
              {"id": "r2-d", "a": "R2", "b": "D", "length_km": 1.0}]})
store = KeyStore()
for pair in (("S", "R1"), ("S", "R2"), ("R1", "D"), ("R2", "D")):
    store.reservoir(*pair).deposit(
        "qkd", np.packbits(rng.integers(0, 2, 8192, dtype=np.uint8)), 8192, KeyOrigin.DIRECT_QKD)
health = HealthMonitor()
coord = RelayCoordinator(diamond, health, store, np.random.default_rng(3))
session = coord.request("S", "D", 1024, time_s=0.0)
print(f"  chosen path: {' -> '.join(session.path)}")
coord.step(session, 0.1)
print(f"  hop 1 done; now cutting {session.path[1]}-D ...")
health.force(f"{session.path[1]}-D", LinkHealth.CUT, 0.2, "fiber cut")
coord.step(session, 0.3)
print(f"  rerouted to: {' -> '.join(session.path)} "
      f"(R regenerated {session.regenerations} time(s))")
while coord.step(session, 0.4) in ("advanced", "rerouted"):
    pass
print(f"  status: {session.status.value}; endpoints agree: "
      f"{np.array_equal(session.secret, session.delivered_secret)}")
writeoffs = [a for a in store.audit if a.kind == 'write_off']
print(f"  spent key written off: {sum(a.offset_end - a.offset_start for a in writeoffs)} "
      f"bits; reuse scan: {scan_one_time_use(store.audit) or 'clean'}")

print("\n=== Path selection considers hops, key stock, and health ===")
store2 = KeyStore()
for pair, bits in ((("S", "R1"), 9000), (("R1", "D"), 9000),
                   (("S", "R2"), 3000), (("R2", "D"), 3000)):
    store2.reservoir(*pair).deposit(
        "qkd", np.packbits(rng.integers(0, 2, bits, dtype=np.uint8)), bits, KeyOrigin.DIRECT_QKD)
path = find_path(diamond, relay_graph(diamond, HealthMonitor(), store2), "S", "D",
                 hop_need(2048))
print(f"  2048-bit request routes via the richer relay: {' -> '.join(path)}")
