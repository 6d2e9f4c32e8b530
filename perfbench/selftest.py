"""Self-test of the benchmark itself (not of the simulator).

Usage (from the repository root): python3 perfbench/selftest.py

For every workload, at a fifth of its simulated duration, runs one untraced
and one traced fresh process and asserts that:

* every end-to-end and per-layer metric named in BENCHMARK.json is
  reported, with the unit BENCHMARK.json gives it;
* the output checks pass;
* the traced records digest equals the untraced one (tracing changes no
  output).

It then shows that the checks catch bad outputs: a corrupted relay
delivery, a reused key range, and a run whose digest differs from the rest
of its set each count as a failed run.
"""

from __future__ import annotations

import copy
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run as bench  # noqa: E402
import workloads  # noqa: E402

SCALE = 0.2
SELFTEST_SEED = 7


def check_workload(name: str, spec: dict) -> str:
    document = json.dumps(workloads.build(name, SELFTEST_SEED, scale=SCALE))
    spans = bench.OUT / f"selftest-spans-{name}.npy"
    deadline = time.monotonic() + bench.HARD_LIMIT_S
    runs = [bench.run_child(document, traced, spans, deadline) for traced in (False, True)]
    for r in runs:
        assert not r["errors"], f"{name}: run failed: {r['errors']}"
    untraced, traced = runs
    assert untraced["model"]["records_sha256"] == traced["model"]["records_sha256"], \
        f"{name}: tracing changed the records"

    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = bench.aggregate(runs, trace=bool(trace))
        assert result["correct"] and result["failed"] == 0, f"{name}: {result}"
        metrics = result["metrics"]
        for metric in spec[section]:
            got = metrics.get(metric["name"])
            assert got is not None, f"{name}: {metric['name']} not reported"
            assert got["unit"] == metric["unit"], \
                f"{name}: {metric['name']} in {got['unit']}, expected {metric['unit']}"
        extra = set(metrics) - {m["name"] for m in spec[section]}
        assert not extra, f"{name}: metrics not declared in BENCHMARK.json: {sorted(extra)}"
    assert spans.is_file(), f"{name}: traced run wrote no spans"
    return (f"{name}: ok (run_s {untraced['run_s']:.3f} untraced, "
            f"{traced['run_s']:.3f} traced; digest {untraced['model']['records_sha256'][:12]})")


def check_checks() -> None:
    """The output checks reject corrupted outputs."""
    import child
    from qkdnet.engine import Engine
    from qkdnet.keystore import AuditRecord
    from qkdnet.report import MetricsReport, verify_report
    from qkdnet.scenario import load_scenario

    doc = workloads.build("relay-chain", SELFTEST_SEED, scale=SCALE)
    engine = Engine(load_scenario(doc))
    report = engine.run()

    def errors(rep: MetricsReport) -> list:
        parsed = MetricsReport.from_records(json.loads(json.dumps(rep.to_records())))
        return child._check(rep, parsed, engine, verify_report(parsed))

    assert errors(report) == [], errors(report)

    delivered = [s for s in engine.coordinator.sessions.values()
                 if s.status.value == "delivered"]
    assert delivered, "self-test scenario delivered no relay session"
    session = delivered[0]
    original = session.delivered_secret
    session.delivered_secret = original.copy()
    session.delivered_secret[0] ^= 1
    assert any("delivered secret differs" in e for e in errors(report))
    session.delivered_secret = original

    reused = copy.copy(report)
    first = next(a for a in report.audit if a.kind == "consume")
    reused.audit = report.audit + [AuditRecord(**{**first.__dict__, "consumer": "replay"})]
    assert any("overlap" in e for e in errors(reused)), "key reuse not detected"

    runs = [{"errors": [], "traced": False, "model": {"records_sha256": d}}
            for d in ("a", "a", "b")]
    bench.check_digests(runs)
    assert [bool(r["errors"]) for r in runs] == [False, False, True]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for name in workloads.WORKLOADS:
        print(check_workload(name, spec), flush=True)
    check_checks()
    print("output checks: ok (corrupted delivery, key reuse and digest mismatch rejected)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
