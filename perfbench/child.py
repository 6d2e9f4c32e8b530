"""One benchmark run: one scenario, in this fresh process, on one thread.

Usage: python3 child.py [--trace --spans PATH] < SCENARIO_JSON

Times the public API a user drives, in order:
``load_scenario`` + ``Engine(...)`` (set-up), ``Engine.run()``, then
``emit_records`` -> parse back -> ``MetricsReport.from_records`` ->
``verify_report`` (report). Untraced, set-up and report are repeated for a
fixed time budget and their medians kept. Times the host-speed kernel on
each side of the run, checks the outputs, and prints one JSON object on
the last line of stdout. All times are raw seconds; ``host_factor``
converts them to the reference host (see hostspeed.py).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from qkdnet.engine import Engine
from qkdnet.keystore import scan_one_time_use
from qkdnet.report import MetricsReport, verify_report
from qkdnet.scenario import load_scenario

import hostspeed
import layertrace

# Calibration kernel runs on each side of the timed run.
CALIBRATION_REPS = 8
# Untraced runs repeat set-up and report for at least this long, and at
# least MIN_REPEATS times, so that their medians are steady.
SETUP_BUDGET_S = 0.2
REPORT_BUDGET_S = 0.3
MIN_REPEATS = 3


def repeat(budget_s: float, fn) -> tuple:
    """Call ``fn`` until ``budget_s`` has passed, and at least MIN_REPEATS
    times. ``fn`` returns ``(times, value)``; returns every call's times and
    the last value only, so earlier values are freed and do not count in
    the run's peak RSS."""
    times = []
    end = perf_counter() + budget_s
    while len(times) < MIN_REPEATS or perf_counter() < end:
        t, value = fn()
        times.append(t)
    return times, value


def _model_outputs(report: MetricsReport, digest: str, n_records: int) -> dict:
    """Simulated, deterministic outputs: identical whatever the host speed."""
    channels = {}
    for block in report.blocks:
        ch = channels.setdefault(block.channel_id, {"blocks": 0, "sifted_bits": 0,
                                                    "secret_bits": 0})
        ch["blocks"] += 1
        ch["sifted_bits"] += block.sifted_bits
        ch["secret_bits"] += block.secret_bits
    latencies = [r.delivered_at - r.requested_at for r in report.relay_sessions
                 if r.status == "delivered"]
    return {
        "channels": dict(sorted(channels.items())),
        "relay_requested": len(report.relay_sessions),
        "relay_delivered": len(latencies),
        "relay_latency_s_p50": float(np.percentile(latencies, 50)) if latencies else None,
        "relay_latency_s_p95": float(np.percentile(latencies, 95)) if latencies else None,
        "audit_records": len(report.audit),
        "records": n_records,
        "records_sha256": digest,
    }


def _check(report: MetricsReport, parsed: MetricsReport, engine: Engine,
           problems: list) -> list:
    """Every way this run's outputs can be wrong, as messages."""
    errors = [f"verify_report: {p}" for p in problems]
    errors += [f"scan_one_time_use: {p}" for p in scan_one_time_use(engine.store.audit)]
    for sid, session in engine.coordinator.sessions.items():
        if session.status.value == "delivered" and not np.array_equal(
                session.delivered_secret, session.secret):
            errors.append(f"relay {sid}: delivered secret differs from the source's")
    if parsed != report:
        errors.append("records do not parse back to an equal report")
    if not any(b.secret_bits > 0 for b in report.blocks):
        errors.append("no channel produced any secret key")
    return errors


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", type=Path, default=None)
    args = ap.parse_args(argv)
    document = sys.stdin.read()

    tracer = None
    if args.trace:
        tracer = layertrace.Tracer()
        layertrace.install(tracer)

    def set_up():
        t0 = perf_counter()
        engine = Engine(load_scenario(document))
        return perf_counter() - t0, engine

    # A traced run sets up once, so the trace covers exactly one set-up.
    if tracer is not None:
        t, engine = set_up()
        setup_times = [t]
    else:
        setup_times, engine = repeat(SETUP_BUDGET_S, set_up)
    scenario = engine.scenario
    if tracer is not None:
        load = tracer.snapshot()
        tracer.reset()

    before_run = hostspeed.sample(CALIBRATION_REPS)
    t0 = perf_counter()
    report = engine.run()
    run_s = perf_counter() - t0
    if tracer is not None:
        run = tracer.snapshot()
        tracer.reset()
    after_run = hostspeed.sample(CALIBRATION_REPS)

    def report_pass():
        t0 = perf_counter()
        emitted = report.emit_records()
        t1 = perf_counter()
        parsed = MetricsReport.from_records([json.loads(line) for line in emitted.splitlines()])
        t2 = perf_counter()
        problems = verify_report(parsed)
        t3 = perf_counter()
        return (t3 - t0, t1 - t0, t2 - t1, t3 - t2), (emitted, parsed, problems)

    if tracer is not None:
        times, outputs = report_pass()
        pass_times = [times]
    else:
        pass_times, outputs = repeat(REPORT_BUDGET_S, report_pass)
    emitted, parsed, problems = outputs
    report_s, emit_s, parse_s, verify_s = (statistics.median(p) for p in zip(*pass_times))

    payload = emitted.encode()
    digest = hashlib.sha256(payload).hexdigest()
    errors = _check(report, parsed, engine, problems)
    result = {
        "host_factor": hostspeed.factor(before_run + after_run),
        "setup_s": statistics.median(setup_times),
        "run_s": run_s,
        "sim_s": scenario.duration_s,
        "report_s": report_s,
        "report": {"emit_s": emit_s, "parse_s": parse_s, "verify_s": verify_s,
                   "records": emitted.count("\n"), "bytes": len(payload)},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "model": _model_outputs(report, digest, emitted.count("\n")),
        "errors": errors,
    }
    if tracer is not None:
        layers = layertrace.layer_metrics(run, load, run_s)
        layers["keystore.bits_held"] = sum(
            seg.bits.size for r in engine.store.reservoirs.values() for seg in r.segments)
        layers["qkdproto.block_secret_ratio"] = (
            sum(b.secret_bits > 0 for b in report.blocks) / len(report.blocks)
            if report.blocks else 0.0)
        for key in ("emit_s", "parse_s", "verify_s", "records", "bytes"):
            layers[f"report.{key}"] = result["report"][key]
        result["layers"] = layers
        result["spans"] = tracer.n_spans
        if args.spans is not None:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
