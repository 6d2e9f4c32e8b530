"""Measure a baseline set: every workload at ten seeds, plus one traced run.

Usage (from the repository root):

    python3 perfbench/baseline.py [--out perfbench/baseline.json]
                                  [--compare perfbench/baseline.json]

Runs ``run.py`` exactly as BENCHMARK.json declares it, once per seed and
workload, and records per workload: each end-to-end metric's ten values,
their median and quartile spread ((q3 - q1) / median, as
``statistics.quantiles(values, n=4)`` gives them), the model outputs and
record digests per seed, and the per-layer table of one traced run. With
``--compare`` it also reports, per workload and metric, how far this set's
median moved from the other set's, against the metric's bound, and
whether the model outputs are identical.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from run import tail_percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(spec: dict, workload: str, seed: int, trace: int) -> tuple:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n"
                         f"{proc.stdout}\n{proc.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def spread(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def environment() -> dict:
    import numpy
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {"git_sha": sha, "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "machine": platform.machine()}


def compare(new: dict, old: dict, spec: dict) -> bool:
    ok = True
    for workload, now in new["workloads"].items():
        before = old["workloads"].get(workload)
        if before is None:
            continue
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = before["end_to_end"][name]["median"], now["end_to_end"][name]["median"]
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            flag = "WORSE THAN BOUND" if worse > bound else "ok"
            ok &= worse <= bound
            print(f"compare {workload:15s} {name:18s} {a:.6g} -> {b:.6g} "
                  f"({worse:+.3f} worse, bound {bound}) {flag}")
        same = before["model"] == now["model"]
        ok &= same
        print(f"compare {workload:15s} model outputs and digests "
              f"{'identical' if same else 'DIFFER'}")
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    ap.add_argument("--out", type=Path, default=HERE / "baseline.json")
    ap.add_argument("--compare", type=Path, default=None)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    result = {"environment": environment(), "run_seconds": spec["run_seconds"],
              "seeds": args.seeds, "workloads": {}}
    for workload in names:
        values, runs, model, attempted, failed = {}, {}, {}, 0, 0
        for seed in args.seeds:
            detail, final = bench(spec, workload, seed, trace=0)
            attempted += final["attempted"]
            failed += final["failed"]
            for name, m in final["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                runs.setdefault(name, []).extend(detail["summary"][name]["values"])
            model[str(seed)] = detail["model"]
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {m['value']:.6g}" for k, m in final["metrics"].items()), flush=True)
        _, traced = bench(spec, workload, args.seeds[0], trace=1)
        end_to_end = {name: spread(v) for name, v in values.items()}
        for name, s in end_to_end.items():
            # Every run of every seed, pooled: the tail percentile with at
            # least ten runs beyond it.
            p, tail = tail_percentile(runs[name])
            s.update(runs=len(runs[name]), **({f"runs_p{p}": tail} if p else {}))
        for name, s in end_to_end.items():
            print(f"{workload:15s} {name:18s} median {s['median']:.6g} spread {s['spread']:.4f}"
                  f" (bound {bounds[name]}, a third {bounds[name] / 3:.4f})")
        result["workloads"][workload] = {
            "attempted": attempted, "failed": failed,
            "end_to_end": end_to_end,
            "per_layer_seed": args.seeds[0],
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
            "model": model,
        }
    ok = True
    if args.compare is not None:
        ok = compare(result, json.loads(args.compare.read_text()), spec)
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
