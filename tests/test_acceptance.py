"""Acceptance criteria, one test per criterion, each printing pass/fail.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time

import numpy as np
import pytest

from oracles import PulseFrame, drive, estimate_secret_length, transmit_frame
from qkdnet import netgraph as ng
from qkdnet import physlink as pl
from qkdnet.bits import binary_entropy
from qkdnet.engine import run_scenario
from qkdnet.errors import ReconciliationFailure
from qkdnet.keyrelay import HealthMonitor, RelayCoordinator, RelayStatus
from qkdnet.keystore import KeyOrigin, KeyStore, scan_one_time_use
from qkdnet.qkdproto import (
    EstimatorKind,
    estimate_qber,
    privacy_amplify,
    reconcile_cascade,
    sift_bb84_events,
    sift_sarg_events,
)
from qkdnet.report import verify_report
from qkdnet.scenario import load_scenario
from qkdnet.switchfab import SwitchPosition, resolve_path


def _report(number, description, passed):
    print(f"{'PASS' if passed else 'FAIL'} criterion {number}: {description}")
    assert passed, f"criterion {number} failed: {description}"


def _clean_params(**kw):
    base = dict(mean_photon_number=0.5, channel_loss_db=0.0, insertion_loss_db=0.0,
                detector_efficiency=1.0, dark_count_prob=0.0, dead_time_s=0.0,
                intrinsic_error=0.0)
    base.update(kw)
    return pl.LinkParams(**base)


# ---------------------------------------------------------------------------
# 1 + 2: calibration run on the metro preset
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def calibration_run():
    scenario = load_scenario({
        "version": 1, "name": "calibration", "topology": {"preset": "cambridge"},
        "duration_s": 600.0, "seed": 1,
        "events": [
            {"t": 0.0, "kind": "start_qkd", "tx": "Anna", "rx": "Bob"},
            {"t": 0.0, "kind": "start_qkd", "tx": "Alice", "rx": "Boris"},
        ]})
    start = time.monotonic()
    report = run_scenario(scenario)
    return report, time.monotonic() - start


def test_criterion_1_anna_bob_calibration(calibration_run):
    report, wall = calibration_run
    qber = report.mean_qber("Anna-Bob")
    rate = report.secret_rate("Anna-Bob")
    ok = (0.02 <= qber <= 0.04) and (1000.0 / 3.0 <= rate <= 3000.0) and wall < 60.0
    _report(1, f"Anna-Bob 600 s: mean QBER {qber:.4f} in [0.02, 0.04], "
               f"secret rate {rate:.0f} b/s within 3x of 1000, "
               f"wall {wall:.1f}s < 60s", ok)


def test_criterion_2_bu_zero_yield(calibration_run):
    report, _ = calibration_run
    sifted = report.sifted_bits("Alice-Boris")
    secret = report.secret_bits("Alice-Boris")
    link = ng.load_preset("cambridge").channel_by_id("Alice-Boris").params
    analytic = estimate_secret_length(EstimatorKind.MULTIPHOTON_AWARE, 100_000, 0.03, 0, link)
    ok = sifted > 0 and secret == 0 and analytic == 0
    _report(2, f"mu=1.0 over 11.5 dB: sifted {sifted} bits flow while secret "
               f"yield is exactly {secret} (estimator gives {analytic})", ok)


# ---------------------------------------------------------------------------
# 3: sift fractions
# ---------------------------------------------------------------------------

def test_criterion_3_sift_fractions():
    params = _clean_params(mean_photon_number=20.0)
    frame = PulseFrame.random("accept", 100_000, np.random.default_rng(31))
    record = transmit_frame(params, pl.PhaseState(), None, frame, rng_seed=32)
    assert record.n_events == 100_000
    _, _, kept_bb84 = sift_bb84_events(*frame.sent(record), record)
    _, _, kept_sarg = sift_sarg_events(*frame.sent(record), record)
    f_bb84 = kept_bb84.size / record.n_events
    f_sarg = kept_sarg.size / record.n_events
    ok = abs(f_bb84 - 0.5) < 0.005 and abs(f_sarg - 0.25) < 0.005
    _report(3, f"kept fractions over 1e5 detections: BB84 {f_bb84:.4f} "
               f"(0.50 +- 0.005), SARG {f_sarg:.4f} (0.25 +- 0.005)", ok)


# ---------------------------------------------------------------------------
# 4: eavesdropper and cut signatures
# ---------------------------------------------------------------------------

def _clean_inline_topology():
    return {
        "version": 1, "name": "clean-line",
        "nodes": [{"id": "T", "role": "tx"}, {"id": "R", "role": "rx"}],
        "links": [{"id": "t-r", "a": "T", "b": "R", "length_km": 10.0}],
        "defaults": {
            "fiber_loss_db_per_km": 0.2,
            "params": {"detector_efficiency": 0.1, "dark_count_prob": 0.0,
                       "intrinsic_error": 0.0, "mean_photon_number": 0.5,
                       "pulse_rate_hz": 5e6, "dead_time_s": 1e-5},
            "drift_rate_rad_per_s": 0.0, "feedback_gain": 0.5}}


def test_criterion_4_eavesdropper_signature():
    scenario = load_scenario({
        "version": 1, "name": "eve", "topology": _clean_inline_topology(),
        "duration_s": 70.0, "seed": 41,
        "events": [
            {"t": 0.0, "kind": "start_qkd", "tx": "T", "rx": "R"},
            {"t": 20.0, "kind": "enable_eve", "channel": "T-R",
             "eve": {"kind": "intercept_resend", "fraction": 1.0}},
            {"t": 50.0, "kind": "cut_link", "link": "t-r"},
        ]})
    report = run_scenario(scenario)
    eve_blocks = [b for b in report.blocks if 20.5 <= b.t_start and b.t_end <= 50.0]
    mean_q = float(np.mean([b.qber for b in eve_blocks]))
    onset = [b.t_end for b in report.blocks if b.t_end > 20.0]
    degraded = [h for h in report.health_log if h.new == "degraded"]
    cut = [h for h in report.health_log if h.new == "cut"]
    blocks_until_flag = len([t for t in onset if t <= degraded[0].time_s]) \
        if degraded else 99
    ok = (abs(mean_q - 0.25) < 0.01
          and bool(degraded) and blocks_until_flag <= 3
          and bool(cut) and 0 < cut[0].time_s - 50.0 <= 5.5)
    _report(4, f"intercept-resend sifted QBER {mean_q:.4f} (0.25 +- 0.01), "
               f"Degraded after {blocks_until_flag} blocks, cut flagged "
               f"{cut[0].time_s - 50.0:.2f}s after the cut" if cut else
               "cut never flagged", ok)


# ---------------------------------------------------------------------------
# 5: randomized relay correctness and accounting
# ---------------------------------------------------------------------------

def test_criterion_5_relay_correctness_accounting():
    rng = np.random.default_rng(55)
    delivered = 0
    checked_hops = 0
    for trial in range(1000):
        n = int(rng.integers(3, 9))
        names = [f"N{i}" for i in range(n)]
        pairs = [(names[i], names[i + 1]) for i in range(n - 1)]
        for _ in range(int(rng.integers(0, 3))):
            a, b = sorted(int(x) for x in rng.choice(n, 2, replace=False))
            if b - a > 1 and (names[a], names[b]) not in pairs:
                pairs.append((names[a], names[b]))
        topo = ng.load_topology({
            "version": 1,
            "nodes": [{"id": x, "role": "relay"} for x in names],
            "links": [{"id": f"{a}-{b}".lower(), "a": a, "b": b, "length_km": 1.0}
                      for a, b in pairs]})
        store = KeyStore()
        r_len = int(rng.integers(64, 1024))
        for a, b in pairs:
            store.reservoir(a, b).deposit(
                "seed", np.packbits(rng.integers(0, 2, r_len + 512, dtype=np.uint8)),
                r_len + 512, KeyOrigin.DIRECT_QKD)
        coord = RelayCoordinator(topo, HealthMonitor(), store,
                                 np.random.default_rng(trial))
        src, dst = rng.choice(names, 2, replace=False)
        session = coord.request(str(src), str(dst), r_len, time_s=0.0)
        outcome = drive(coord, session, 1.0)
        if session.status is not RelayStatus.DELIVERED:
            continue
        delivered += 1
        assert np.array_equal(session.secret, session.delivered_secret)
        assert scan_one_time_use(store.audit) == []
        for t in session.hop_transcripts:
            key = store.reservoirs[t.pair].peek(t.otp_offset_start, r_len)
            assert np.array_equal(t.ciphertext ^ key, session.secret)
            checked_hops += 1
    ok = delivered >= 900 and checked_hops > 1000
    _report(5, f"{delivered}/1000 randomized sessions delivered with matching "
               f"endpoints, zero OTP reuse, transcript algebra verified on "
               f"{checked_hops} hops", ok)


# ---------------------------------------------------------------------------
# 6 + 8: rerouting, switch semantics, transmitter-to-transmitter relay
# ---------------------------------------------------------------------------

def _diamond_topology():
    fast = {"detector_efficiency": 0.1, "dark_count_prob": 1e-5, "intrinsic_error": 0.01,
            "mean_photon_number": 0.5, "pulse_rate_hz": 5e6, "dead_time_s": 1e-5}
    return {
        "version": 1, "name": "diamond",
        "nodes": [{"id": "S", "role": "tx"}, {"id": "R1", "role": "relay"},
                  {"id": "R2", "role": "relay"}, {"id": "D", "role": "rx"}],
        "links": [
            {"id": "s-r1", "a": "S", "b": "R1", "length_km": 5.0},
            {"id": "s-r2", "a": "S", "b": "R2", "length_km": 35.0},
            {"id": "r1-d", "a": "R1", "b": "D", "length_km": 5.0},
            {"id": "r2-d", "a": "R2", "b": "D", "length_km": 35.0}],
        "defaults": {"fiber_loss_db_per_km": 0.2, "params": fast,
                     "drift_rate_rad_per_s": 0.002, "feedback_gain": 0.5}}


def test_criterion_6_reroute_and_transitivity(switching_run):
    scenario = load_scenario({
        "version": 1, "name": "diamond-reroute", "topology": _diamond_topology(),
        "duration_s": 40.0, "seed": 11,
        "engine": {"relay_hop_latency_s": 6.0},
        "events": [
            {"t": 0.0, "kind": "start_qkd", "tx": "S", "rx": "R1"},
            {"t": 0.0, "kind": "start_qkd", "tx": "S", "rx": "R2"},
            {"t": 0.0, "kind": "start_qkd", "tx": "R1", "rx": "D"},
            {"t": 0.0, "kind": "start_qkd", "tx": "R2", "rx": "D"},
            {"t": 5.0, "kind": "relay_request", "src": "S", "dst": "D", "bits": 50000},
            {"t": 6.0, "kind": "cut_link", "link": "r1-d"},
        ]})
    report = run_scenario(scenario)
    session = report.relay_sessions[0]
    writeoffs = [a for a in report.audit if a.kind == "write_off"]
    rerouted_ok = (session.status == "delivered"
                   and session.path == ("S", "R2", "D")
                   and session.regenerations >= 1
                   and len(writeoffs) >= 1
                   and scan_one_time_use(report.audit) == [])
    # Transmitter-to-transmitter reservoir built across the switch.
    switching_report = switching_run
    alice_anna = switching_report.final_reservoirs.get("Alice|Anna")
    shared = alice_anna.available if alice_anna else 0
    transitive_ok = shared > 0
    relay_row = [r for r in switching_report.relay_sessions
                 if r.src == "Alice" and r.dst == "Anna"]
    transitive_ok = (transitive_ok and bool(relay_row)
                     and relay_row[0].status == "delivered"
                     and ("Bob" in relay_row[0].path or "Boris" in relay_row[0].path))
    _report(6, f"mid-relay cut rerouted {'/'.join(session.path)} with fresh R "
               f"and {len(writeoffs)} write-off(s); Alice-Anna reservoir "
               f"{shared} bits via trusted relay",
            bool(rerouted_ok and transitive_ok))


@pytest.fixture(scope="module")
def switching_run():
    scenario = load_scenario({
        "version": 1, "name": "switching", "topology": {"preset": "cambridge"},
        "duration_s": 1850.0, "seed": 3,
        "events": [
            {"t": 0.0, "kind": "start_qkd", "tx": "Anna", "rx": "Bob"},
            {"t": 0.0, "kind": "start_qkd", "tx": "Alice", "rx": "Boris"},
            {"t": 0.0, "kind": "start_qkd", "tx": "Alice", "rx": "Bob"},
            {"t": 0.0, "kind": "start_qkd", "tx": "Anna", "rx": "Boris"},
            {"t": 950.0, "kind": "relay_request", "src": "Alice", "dst": "Anna",
             "bits": 4096},
        ]})
    return run_scenario(scenario)


def test_criterion_8_switch_semantics(switching_run):
    report = switching_run
    toggles = [(s.time_s, s.position) for s in report.switch_events]
    toggles_ok = toggles == [(900.0, "bar"), (1800.0, "cross")]
    # BAR/CROSS port mappings, straight from the switch model.
    sw = ng.load_preset("cambridge").switches["sw"]
    bar = sw.__class__(**{**sw.__dict__, "position": SwitchPosition.BAR})
    mapping_ok = (resolve_path(bar, "Alice") == "Bob"
                  and resolve_path(bar, "Anna") == "Boris")
    cross = sw.__class__(**{**sw.__dict__, "position": SwitchPosition.CROSS})
    mapping_ok = mapping_ok and (resolve_path(cross, "Alice") == "Boris"
                                 and resolve_path(cross, "Anna") == "Bob")
    # Each reconfiguration is followed by realignment and resumed key
    # generation with the new peer.
    def window_secret(cid, lo, hi):
        return sum(b.secret_bits for b in report.blocks
                   if b.channel_id == cid and lo <= b.t_start and b.t_end <= hi)
    resumed_ok = (window_secret("Anna-Bob", 0, 900) > 0
                  and window_secret("Alice-Bob", 900, 1800) > 0
                  and window_secret("Anna-Bob", 1800, 1850) > 0)
    isolation_ok = not [b for b in report.blocks
                        if b.via_switch and any(b.t_start < t < b.t_end
                                                for t, _ in toggles)]
    verify_ok = verify_report(report) == []
    ok = toggles_ok and mapping_ok and resumed_ok and isolation_ok and verify_ok
    _report(8, f"toggles {toggles}, BAR/CROSS mapping exact, key generation "
               f"resumed with the new peers, no block spans a switch event", ok)


# ---------------------------------------------------------------------------
# 7: long-haul relay chain vs direct link
# ---------------------------------------------------------------------------

def test_criterion_7_long_haul():
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
    scenario = load_scenario({
        "version": 1, "name": "chain", "topology": chain,
        "duration_s": 360.0, "seed": 13,
        "engine": {"prepositioned_auth_bits": 65536},
        "events": events})
    report = run_scenario(scenario)

    # Steady-state window: the prepositioned material is spent early.
    t0, t1 = 120.0, 360.0
    window = {}
    for i in range(5):
        pair = tuple(sorted((f"N{i}", f"N{i+1}")))
        dep = sum(a.offset_end - a.offset_start for a in report.audit
                  if a.kind == "deposit" and a.pair == pair
                  and a.origin == "direct_qkd" and t0 < a.time_s <= t1)
        auth = sum(a.offset_end - a.offset_start for a in report.audit
                   if a.kind == "consume" and a.pair == pair
                   and a.purpose == "authentication" and t0 < a.time_s <= t1)
        window[pair] = (dep, auth)
    bottleneck = min(window, key=lambda p: window[p][0])
    dep, auth = window[bottleneck]
    delivered = sum(r.bits for r in report.relay_sessions
                    if r.status == "delivered" and t0 < (r.delivered_at or 0) <= t1)
    expected = dep - auth
    chain_ok = abs(delivered - expected) <= 0.10 * expected

    # A single 500 km fiber cannot yield secret key at mu=0.5.
    direct_link = pl.LinkParams(mean_photon_number=0.5, channel_loss_db=100.0,
                                detector_efficiency=0.1, dark_count_prob=1e-5)
    direct_analytic = estimate_secret_length(EstimatorKind.MULTIPHOTON_AWARE, 100_000, 0.03, 0,
                                             direct_link)
    direct_scenario = load_scenario({
        "version": 1, "name": "direct", "topology": {
            "version": 1, "nodes": [{"id": "A", "role": "tx"}, {"id": "B", "role": "rx"}],
            "links": [{"id": "long", "a": "A", "b": "B", "length_km": 500.0}],
            "channels": [{"tx": "A", "rx": "B", "estimator": "multiphoton_aware"}],
            "defaults": {"fiber_loss_db_per_km": 0.2, "params": params}},
        "duration_s": 120.0, "seed": 14,
        "events": [{"t": 0.0, "kind": "start_qkd", "tx": "A", "rx": "B"}]})
    direct_report = run_scenario(direct_scenario)
    direct_ok = direct_analytic == 0 and direct_report.secret_bits("A-B") == 0
    _report(7, f"500 km via 4 relays: delivered {delivered} bits vs bottleneck "
               f"budget {expected} ({delivered / expected:.2f}x, within 10%); "
               f"direct 500 km link yields {direct_report.secret_bits('A-B')} "
               f"secret bits", chain_ok and direct_ok)


# ---------------------------------------------------------------------------
# 9: protocol-stack soundness
# ---------------------------------------------------------------------------

def test_criterion_9_protocol_stack_soundness():
    # (a) Noiseless pipeline: identical secrets for 1000 seeds.
    params = _clean_params()
    identical = 0
    for seed in range(1000):
        frame = PulseFrame.random(f"p{seed}", 6000, np.random.default_rng(seed))
        record = transmit_frame(params, pl.PhaseState(), None, frame,
                                rng_seed=seed + 1_000_000)
        alice, bob, _ = sift_bb84_events(*frame.sent(record), record)
        sample = estimate_qber(alice, bob, 0.1, rng_seed=seed, min_sample=50)
        corrected, leaked = reconcile_cascade(
            sample.remaining_alice, sample.remaining_bob, 0.01, rng_seed=seed)
        m = estimate_secret_length(EstimatorKind.SIMPLE_SHANNON, corrected.size, sample.qber,
                                   leaked + sample.disclosed)
        pa_seed = np.random.default_rng(seed + 2_000_000).integers(
            0, 2, corrected.size + m - 1, dtype=np.uint8)
        secret_a = privacy_amplify(sample.remaining_alice, m, pa_seed)
        secret_b = privacy_amplify(corrected, m, pa_seed)
        if m > 0 and np.array_equal(secret_a, secret_b):
            identical += 1
    pipeline_ok = identical == 1000

    # (b) Cascade leakage within 1.25 n h2(q) at the stated error rates.
    n = 10_000
    leak_ok = True
    rng = np.random.default_rng(91)
    for q in (0.01, 0.03, 0.05):
        budget = 1.25 * n * binary_entropy(q)
        for trial in range(5):
            alice = rng.integers(0, 2, n, dtype=np.uint8)
            bob = alice.copy()
            bob[rng.choice(n, int(n * q), replace=False)] ^= 1
            _, leaked = reconcile_cascade(alice, bob, q, rng_seed=trial)
            leak_ok = leak_ok and leaked <= budget

    # (c) Reconciliation soundness at qber 0.05 over 1000 trials.
    failures = 0
    for trial in range(1000):
        alice = rng.integers(0, 2, n, dtype=np.uint8)
        bob = alice.copy()
        bob[rng.choice(n, 500, replace=False)] ^= 1
        try:
            corrected, _ = reconcile_cascade(alice, bob, 0.05, rng_seed=trial)
            if not np.array_equal(corrected, alice):
                failures += 1
        except ReconciliationFailure:
            failures += 1
    soundness_ok = failures / 1000 < 1e-3

    # (d) Privacy-amplification linearity, exhaustive over 8-bit keys.
    pa_seed = np.random.default_rng(92).integers(0, 2, 8 + 4 - 1, dtype=np.uint8)
    outs = [privacy_amplify(np.array([(v >> i) & 1 for i in range(8)], dtype=np.uint8),
                            4, pa_seed) for v in range(256)]
    linear_ok = all(np.array_equal(outs[a ^ b], outs[a] ^ outs[b])
                    for a in range(256) for b in range(256))
    ok = pipeline_ok and leak_ok and soundness_ok and linear_ok
    _report(9, f"noiseless pipeline identical for {identical}/1000 seeds, "
               f"cascade leakage within budget, {failures}/1000 reconciliation "
               f"failures, Toeplitz linearity exhaustive", ok)


# ---------------------------------------------------------------------------
# 10: determinism
# ---------------------------------------------------------------------------

def test_criterion_10_determinism():
    doc = {
        "version": 1, "name": "determinism", "topology": {"preset": "cambridge"},
        "duration_s": 90.0, "seed": 17,
        "events": [
            {"t": 0.0, "kind": "start_qkd", "tx": "Anna", "rx": "Bob"},
            {"t": 0.0, "kind": "start_qkd", "tx": "Alice", "rx": "Boris"},
            {"t": 10.0, "kind": "enable_eve", "channel": "Alice-Boris",
             "eve": {"kind": "intercept_resend", "fraction": 0.5}},
            {"t": 20.0, "kind": "relay_request", "src": "Anna", "dst": "Bob",
             "bits": 1024},
            {"t": 30.0, "kind": "switch_toggle", "switch": "sw"},
            {"t": 40.0, "kind": "set_sifting", "channel": "Anna-Boris",
             "protocol": "sarg"},
            {"t": 50.0, "kind": "cut_link", "link": "ali-baba"},
        ]}
    first = run_scenario(load_scenario(doc))
    # One Scenario object run twice: a run must leave its input unchanged.
    scenario = load_scenario(doc)
    second = run_scenario(scenario)
    third = run_scenario(scenario)
    ok = (all(r.emit_records() == first.emit_records()
              and r.emit_csv() == first.emit_csv() for r in (second, third))
          and scenario.topology == load_scenario(doc).topology)
    _report(10, "identical seed reproduces byte-identical metrics, audit log, "
                "and CSV", ok)
