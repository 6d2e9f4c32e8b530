"""qkdnet benchmark: run one workload as a batch of fresh processes.

Usage (from the repository root):

    python3 perfbench/run.py --workload metro --seed 1 --seconds 36 --trace 0

Builds the workload's scenario document from ``--seed``, then runs it again
and again, one scenario per fresh single-threaded process (``child.py``),
until ``--seconds`` of wall time are used. Every run's outputs are checked
(see ``child._check``), and a run also fails if its records digest differs
from the other runs of the set.

``--trace 0`` prints the end-to-end metrics, each the median over the
runs, with times scaled to the reference host speed (see hostspeed.py).
``--trace 1`` alternates untraced and traced runs and prints the per-layer
metrics instead, including the tracing overhead. The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Every run must end this long after the benchmark started.
HARD_LIMIT_S = 170.0
# Times a run's process is tried to be started (see start_child).
SPAWN_ATTEMPTS = 5

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "run_s": "s",
    "sim_s_per_wall_s": "s/s",
    "report_s": "s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_ms_p50") or name.endswith("_ms_p95"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name == "report.bytes":
        return "bytes"
    if name.endswith("bits_in") or name.endswith("bits_out") or name.endswith("_bits") \
            or name.endswith("bits_held"):
        return "bits"
    return "count"


def tail_percentile(values):
    """The highest of p99/p95/p90/p75/p50 with at least ten samples above it."""
    n = len(values)
    for p in (99, 95, 90, 75, 50):
        if n - math.ceil(n * p / 100) >= 10:
            return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    return None, None


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # One thread per run; fixed string hashing so set iteration, and with
    # it the cost of a run, does not vary from process to process.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def start_child(cmd: list, document: str, deadline: float):
    """Run ``cmd`` with ``document`` on its standard input and wait for it.

    On a shared host, starting a process can fail for a moment (fork
    returns EAGAIN or ENOMEM). No run has begun then, so starting is tried
    again after a pause, SPAWN_ATTEMPTS times in all; the last error is
    raised.
    """
    for attempt in range(SPAWN_ATTEMPTS):
        try:
            return subprocess.run(cmd, input=document, capture_output=True, text=True,
                                  env=child_env(), cwd=HERE,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except OSError as exc:
            if attempt == SPAWN_ATTEMPTS - 1 or time.monotonic() + 1.0 > deadline:
                raise
            print(f"could not start a run ({exc}); trying again", file=sys.stderr)
            time.sleep(0.5 * 2 ** attempt)


def run_child(document: str, traced: bool, spans: Path, deadline: float) -> dict:
    """One run of ``document`` in a fresh ``child.py`` process."""
    cmd = [sys.executable, str(HERE / "child.py")]
    if traced:
        cmd += ["--trace", "--spans", str(spans)]
    t0 = time.monotonic()
    try:
        proc = start_child(cmd, document, deadline)
    except subprocess.TimeoutExpired:
        return {"traced": traced, "wall_s": time.monotonic() - t0,
                "errors": ["run timed out"]}
    except OSError as exc:
        return {"traced": traced, "wall_s": time.monotonic() - t0,
                "errors": [f"could not start the run: {exc}"]}
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        err = proc.stderr.strip().splitlines()[-5:] or ["no output"]
        return {"traced": traced, "wall_s": wall,
                "errors": [f"exit code {proc.returncode}: {' | '.join(err)}"]}
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"traced": traced, "wall_s": wall, "errors": ["no result printed"]}
    result.update(traced=traced, wall_s=wall)
    return result


def check_digests(runs) -> None:
    """Fail every run whose records digest differs from the set's majority."""
    digests = Counter(r["model"]["records_sha256"] for r in runs if not r["errors"])
    if not digests:
        return
    majority, _ = digests.most_common(1)[0]
    for r in runs:
        if not r["errors"] and r["model"]["records_sha256"] != majority:
            r["errors"].append("records digest differs from the other runs of this seed")


def summarize(values):
    p, tail = tail_percentile(values)
    out = {"median": statistics.median(values), "n": len(values)}
    if p is not None:
        out[f"p{p}"] = tail
    out["values"] = values
    return out


def measure(document: str, trace: bool, seconds: float, spans: Path) -> list:
    """Run fresh processes until ``seconds`` are used; traced mode alternates
    untraced and traced runs so the overhead is measured under the same host
    conditions."""
    started = time.monotonic()
    deadline, hard_deadline = started + seconds, started + HARD_LIMIT_S
    kinds = [False, True] if trace else [False]
    runs, last_wall = [], {}
    while True:
        for traced in kinds:
            runs.append(run_child(document, traced, spans, hard_deadline))
            last_wall[traced] = runs[-1]["wall_s"]
        # Start another round only if it would end no later than half a
        # round past the deadline.
        if deadline - time.monotonic() < 0.5 * sum(last_wall.values()) \
                or time.monotonic() >= hard_deadline:
            return runs


def aggregate(runs: list, trace: bool) -> dict:
    """Check the runs as a set and reduce them to the benchmark's result."""
    check_digests(runs)
    failed = [r for r in runs if r["errors"]]
    good = [r for r in runs if not r["errors"]]
    untraced = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    # Times are reported at the reference host speed (hostspeed.py), each
    # run's scaled by the calibration kernel timed in that same process.
    series = {
        "setup_s": [r["setup_s"] * r["host_factor"] for r in untraced],
        "run_s": [r["run_s"] * r["host_factor"] for r in untraced],
        "sim_s_per_wall_s": [r["sim_s"] / (r["run_s"] * r["host_factor"]) for r in untraced],
        "report_s": [r["report_s"] * r["host_factor"] for r in untraced],
        "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
    }
    summary = {k: summarize(v) for k, v in series.items() if v}
    if untraced:
        summary["raw_run_s"] = summarize([r["run_s"] for r in untraced])
        summary["host_factor"] = summarize([r["host_factor"] for r in untraced])
    if trace:
        layers = {}
        if traced and untraced:
            for name in traced[0]["layers"]:
                timed = layer_unit(name) in ("s", "ms")
                layers[name] = statistics.median(
                    r["layers"][name] * (r["host_factor"] if timed else 1) for r in traced)
            layers["trace.run_s"] = statistics.median(r["run_s"] * r["host_factor"]
                                                      for r in traced)
            layers["trace.overhead_s"] = layers["trace.run_s"] - summary["run_s"]["median"]
            layers["trace.spans"] = traced[0]["spans"]
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
    else:
        metrics = {k: {"value": summary[k]["median"], "unit": unit}
                   for k, unit in END_TO_END.items() if k in summary}
    return {
        "correct": not failed and bool(untraced) and (bool(traced) or not trace),
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": metrics,
        "summary": summary,
        "failures": [r["errors"][:3] for r in failed],
        "model": good[0]["model"] if good else None,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "qkdnet" / "__init__.py").is_file():
        print(f"error: no qkdnet sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    # On SIGTERM, unwind through subprocess.run, which kills the running
    # child and waits for it to end.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    document = json.dumps(workloads.build(args.workload, args.seed))
    runs = measure(document, bool(args.trace), args.seconds,
                   OUT / f"spans-{args.workload}.npy")
    result = aggregate(runs, bool(args.trace))

    for errors in result["failures"]:
        print(f"FAILED run: {errors}")
        print(f"FAILED run: {errors}", file=sys.stderr)
    if args.trace:
        for name, m in result["metrics"].items():
            print(f"{name:36s} {m['value']:>16.6g} {m['unit']}")
    else:
        for name, unit in END_TO_END.items():
            s = result["summary"].get(name)
            if s is None:
                continue
            tail = "".join(f", {k} {v:.6g}" for k, v in s.items() if k.startswith("p"))
            print(f"{name:18s} {s['median']:>12.6g} {unit:5s} (median of n={s['n']}{tail})")
        if "raw_run_s" in result["summary"]:
            print(f"{'raw run_s':18s} {result['summary']['raw_run_s']['median']:>12.6g} s     "
                  f"(unscaled; host factor median "
                  f"{result['summary']['host_factor']['median']:.4f})")
    print(f"failed runs {result['failed']} / attempted {result['attempted']}")
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "summary": result["summary"], "model": result["model"]}))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
