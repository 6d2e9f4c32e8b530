"""Ten simulated minutes on the built-in metro preset.

Anna (10 km out) feeds Bob near 1,000 secret bits/s at ~3% QBER; the path
to Boris runs hot at mu=1.0 through 11.5 dB of campus fiber and sifts
continuously while the multiphoton-aware estimator prices its secret yield
at exactly zero. A key relay gives the two transmitters a shared reservoir
even though neither can detect the other's photons.

Run:  python demos/05_metro_day.py
"""

import time

from qkdnet.engine import run_scenario
from qkdnet.report import verify_report
from qkdnet.scenario import load_scenario

scenario = load_scenario({
    "version": 1, "name": "metro-day", "topology": {"preset": "cambridge"},
    "duration_s": 600.0, "seed": 1,
    "events": [
        {"t": 0.0, "kind": "start_qkd", "tx": "Anna", "rx": "Bob"},
        {"t": 0.0, "kind": "start_qkd", "tx": "Alice", "rx": "Boris"},
        {"t": 120.0, "kind": "relay_request", "src": "Alice", "dst": "Anna",
         "bits": 8192},
    ]})

start = time.monotonic()
report = run_scenario(scenario)
wall = time.monotonic() - start
print(f"simulated {scenario.duration_s:.0f} s in {wall:.1f} s of wall clock\n")

for cid in ("Anna-Bob", "Alice-Boris"):
    blocks = [b for b in report.blocks if b.channel_id == cid]
    print(f"{cid}:")
    print(f"  sifted   {report.sifted_bits(cid):>9,} bits "
          f"({report.sifted_bits(cid) / report.duration_s:,.0f} b/s)")
    print(f"  secret   {report.secret_bits(cid):>9,} bits "
          f"({report.secret_rate(cid):,.0f} b/s)")
    print(f"  mean QBER {report.mean_qber(cid):.4f} over {len(blocks)} blocks")

relay = report.relay_sessions[0]
print(f"\nrelay Alice->Anna: {relay.status} via {' -> '.join(relay.path)}")
print(f"Alice|Anna reservoir: "
      f"{report.final_reservoirs['Alice|Anna'].available:,} shared bits")

print("\nfive sample rows of the metrics series (time, link, sifted b/s, "
      "QBER, secret b/s, reservoir):")
for row in report.channel_series("Anna-Bob")[60:300:48]:
    q = f"{row.qber:.4f}" if row.qber is not None else "  -   "
    print(f"  t={row.time_s:>5.0f}s  {row.link_id}  {row.sifted_bps:>7.0f}  "
          f"{q}  {row.secret_bps:>6.0f}  {row.reservoir_bits:>9,}")

problems = verify_report(report)
print(f"\npost-run verification: {'all invariants hold' if not problems else problems}")
