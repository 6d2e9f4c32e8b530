"""Scenario schema, engine behavior, reports, and the CLI surface."""

import json
import math
import os
import pickle
import subprocess
import sys
from dataclasses import FrozenInstanceError
from pathlib import Path

import numpy as np
import pytest

from qkdnet import engine as engine_module
from qkdnet import netgraph as ng
from qkdnet.cli import main
from qkdnet.engine import RELAY_RESERVE_BITS, Engine, run_scenario
from qkdnet.errors import InvariantViolation, ValidationError
from qkdnet.keyrelay import QBER_THRESHOLD, hop_need
from qkdnet.keystore import AuditRecord
from qkdnet.physlink import EveModel, sifted_error_floor
from qkdnet.report import CSV_COLUMNS, MetricsReport, read_records, verify_report
from qkdnet.scenario import EngineKnobs, EventKind, default_preset_scenario, load_scenario


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
        with pytest.raises(ValidationError, match=f"unknown keys \\['{name}'\\]"):
            load_scenario(_minimal(**{name: 1}))


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
    # must come out of a run as they went in.
    sc = load_scenario(_minimal(duration=3.0, events=[
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
        {"t": 2.5, "kind": "switch_toggle", "switch": "sw"}]))
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
    floor = sifted_error_floor(topo.channel_params(topo.channel_by_id("Anna-Bob")))
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


def test_cut_and_restore_recovers_health():
    sc = load_scenario(_minimal(duration=120.0, events=[
        {"t": 0.0, "kind": "start_qkd", "tx": "Anna", "rx": "Bob"},
        {"t": 30.0, "kind": "cut_link", "link": "anna-sw"},
        {"t": 60.0, "kind": "restore_link", "link": "anna-sw"}]))
    report = run_scenario(sc)
    states = [(h["time_s"], h["new"]) for h in report.health_log
              if h["channel_id"] == "Anna-Bob"]
    assert any(new == "cut" for _, new in states)
    assert states[-1][1] == "up"
    late_secret = [r.secret_bps for r in report.channel_series("Anna-Bob")
                   if r.time_s > 80]
    assert sum(late_secret) > 0  # generation resumed after restore


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


def test_cli_run_csv_format(tmp_path):
    scenario_path = tmp_path / "s.json"
    scenario_path.write_text(json.dumps(_minimal(duration=5.0)))
    assert main(["run", "--scenario", str(scenario_path),
                 "--out", str(tmp_path / "o")]) == 0
    csv = (tmp_path / "o" / "metrics.csv").read_text()
    assert csv.splitlines()[0] == ",".join(CSV_COLUMNS)


def test_cli_validation_failure_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"version": 1, "topology": {"preset": "nope"},
                               "duration_s": 1, "seed": 1}))
    not_json = tmp_path / "not.json"
    not_json.write_text('{"version": 1,')
    out = tmp_path / "o"
    for path in (bad, tmp_path / "missing.json", not_json):
        assert main(["run", "--scenario", str(path), "--out", str(out)]) == 1
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
        final_reservoirs={"Anna|Bob": {"deposited": 328, "consumed": 328, "available": 0}})
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
    states = [h["new"] for h in report.health_log if h["channel_id"] == "Alice-Boris"]
    assert "degraded" in states and "cut" not in states


def test_cli_seed_and_duration_overrides(tmp_path):
    scenario_path = tmp_path / "s.json"
    scenario_path.write_text(json.dumps(_minimal(duration=300.0)))
    assert main(["run", "--scenario", str(scenario_path), "--seed", "9",
                 "--duration", "2.0", "--out", str(tmp_path / "o"),
                 "--format", "records"]) == 0
    report = read_records(tmp_path / "o" / "metrics.records.jsonl")
    assert report.seed == 9 and report.duration_s == 2.0


def test_pns_attack_from_start_samples_empty_data_windows(monkeypatch, tmp_path):
    # Alice-Boris trains for whole rounds at first, so its data windows are
    # empty while the PNS attacker is on: the window sampler returns them
    # without drawing, and the per-slot path only ever sees real windows.
    windows = []
    frames = []
    sample = engine_module.sample_link_window
    transmit = engine_module.transmit_frame

    def spy_sample(params, phase, n_slots, rng, eve=None, frame_id="window"):
        before = rng.bit_generator.state
        result = sample(params, phase, n_slots, rng, eve=eve, frame_id=frame_id)
        windows.append((n_slots, eve, rng.bit_generator.state == before))
        return result

    def spy_transmit(params, phase, eve, frame, rng, **kw):
        frames.append(frame.n_slots)
        return transmit(params, phase, eve, frame, rng, **kw)

    monkeypatch.setattr(engine_module, "sample_link_window", spy_sample)
    monkeypatch.setattr(engine_module, "transmit_frame", spy_transmit)
    # 1.8 s holds the two training rounds and one full per-slot window.
    report = run_scenario(load_scenario(_minimal(duration=1.8, events=[
        {"t": 0.0, "kind": "start_qkd", "tx": "Alice", "rx": "Boris"},
        {"t": 0.0, "kind": "enable_eve", "channel": "Alice-Boris",
         "eve": {"kind": "photon_number_split"}}])))
    assert any(n == 0 and eve is not None and eve.kind.value == "photon_number_split"
               for n, eve, _ in windows)
    assert all(undrawn for n, _, undrawn in windows if n == 0)
    assert frames and min(frames) > 0
    path = tmp_path / "records.jsonl"
    path.write_text(report.emit_records())
    assert main(["verify", "--records", str(path)]) == 0


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
