"""Check that two source trees' runs agree in distribution.

    python3 scenarios/stats.py A_TREE B_TREE

A_TREE and B_TREE are checkouts of this repository, each with its
``src/``. Every run of ``digest.py`` (each library document, each benchmark
workload) runs on tree A at seeds 1-20 and on tree B at seeds 21-40, so
that two copies of one tree make a real null test. Each run is a fresh
``python3`` with ``PYTHONPATH=<tree>/src``, over a pool of one worker per
CPU.

A run yields, per channel: its blocks, discarded blocks, sifted bits,
secret bits, mean block QBER, and the ``bits_leaked`` of its blocks with
``secret_bits > 0`` (a block that yields nothing may skip reconciliation,
so only the leak that is paid for counts); per run: the relays delivered,
their latency p50 and p95, and the problems ``verify_report`` finds. For
each, the script prints both trees' means over seeds and their Welch z,
and last the largest |z| with its metric and bound. It exits 1 when a |z|
passes its Bonferroni bound, when a metric comes from one tree only, or
when a run fails. The bound is the two-sided Student t
quantile, at the mean's Welch-Satterthwaite degrees of freedom, for a
family-wise alpha of 0.01 over the number of means compared (never below 3).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from statistics import NormalDist, fmean, variance

import numpy as np

SEEDS = 20
ALPHA = 0.01
MIN_THRESHOLD = 3.0
# Per-run totals: a run without the channel or relay counts zero. Other
# metrics are means over blocks or relays and are missing from such a run.
TOTALS = ("blocks", "discarded", "sifted_bits", "secret_bits", "yielding_leaked_bits",
          "relays_delivered", "verify_problems")


def outcome(report) -> dict:
    """One run's metrics from its :class:`~qkdnet.report.MetricsReport`."""
    from qkdnet.report import verify_report

    metrics: dict = {}
    qbers: dict = {}
    for b in report.blocks:
        for name, value in (("blocks", 1), ("discarded", int(b.discarded)),
                            ("sifted_bits", b.sifted_bits), ("secret_bits", b.secret_bits),
                            ("yielding_leaked_bits", b.bits_leaked if b.secret_bits > 0 else 0)):
            key = f"{b.channel_id} {name}"
            metrics[key] = metrics.get(key, 0) + value
        qbers.setdefault(b.channel_id, []).append(b.qber)
    for cid, q in qbers.items():
        metrics[f"{cid} mean_qber"] = fmean(q)
    latencies = [r.delivered_at - r.requested_at for r in report.relay_sessions
                 if r.status == "delivered"]
    metrics["relays_delivered"] = len(latencies)
    if latencies:
        metrics["relay_latency_s_p50"] = float(np.percentile(latencies, 50))
        metrics["relay_latency_s_p95"] = float(np.percentile(latencies, 95))
    metrics["verify_problems"] = len(verify_report(report))
    return metrics


def samples(runs: list) -> dict:
    """Metric -> its values over one tree's seeds of one run."""
    keys = set().union(*runs)
    return {key: [r.get(key, 0) for r in runs] if key.endswith(TOTALS)
            else [r[key] for r in runs if key in r] for key in keys}


def _spreads(a: list, b: list) -> list[tuple]:
    """(variance of the mean, degrees of freedom) of each sample that has a
    spread; a sample of one has none."""
    return [(variance(x) / len(x), len(x) - 1) for x in (a, b) if len(x) > 1]


def welch_z(a: list, b: list) -> float:
    """Welch's z of two samples' means."""
    se = math.sqrt(sum(v for v, _ in _spreads(a, b)))
    diff = fmean(a) - fmean(b)
    if se == 0.0:
        return 0.0 if diff == 0.0 else math.copysign(math.inf, diff)
    return diff / se


def welch_df(a: list, b: list) -> float:
    """The Welch-Satterthwaite degrees of freedom of :func:`welch_z`
    (infinite where neither sample has a spread, so z is 0 or infinite)."""
    spreads = _spreads(a, b)
    tails = sum(v * v / df for v, df in spreads)
    return sum(v for v, _ in spreads) ** 2 / tails if tails else math.inf


def _t_upper(t: float, df: float) -> float:
    """P(T > t) for Student's t with ``df`` degrees of freedom and t >= 0:
    half the regularized incomplete beta I_x(df / 2, 1 / 2) at
    x = df / (df + t^2), by Lentz's continued fraction (Numerical Recipes
    ``betacf``), applied to whichever of I_x(a, b) and 1 - I_{1-x}(b, a)
    converges fast."""
    a, b, x = df / 2, 0.5, df / (df + t * t)
    flip = x > (a + 1) / (a + b + 2)
    if flip:
        a, b, x = b, a, 1.0 - x
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x)) / a
    tiny = 1e-300
    c, d = 1.0, 1.0 / (1.0 - (a + b) * x / (a + 1) or tiny)
    h = d
    for m in range(1, 500):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 / (1.0 + num * d or tiny)
            c = 1.0 + num / c or tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    beta = front * h
    return (1.0 - beta if flip else beta) / 2


def t_quantile(p: float, df: float) -> float:
    """The t with P(T > t) = ``p`` (< 1/2) at ``df`` degrees of freedom.

    Newton's method from the normal quantile, which lies below: the tail
    is convex beyond 0, so each step stays below the root and the steps
    rise to it.
    """
    t = NormalDist().inv_cdf(1.0 - p)
    if math.isinf(df):
        return t
    scale = math.exp(math.lgamma((df + 1) / 2) - math.lgamma(df / 2)) / math.sqrt(df * math.pi)
    for _ in range(200):
        step = (_t_upper(t, df) - p) / (scale * (1.0 + t * t / df) ** (-(df + 1) / 2))
        t += step
        if abs(step) <= 1e-12 * t:
            break
    return t


def threshold(n_means: int, df: float) -> float:
    """Two-sided Bonferroni |z| bound for ALPHA over ``n_means`` means, at
    ``df`` degrees of freedom."""
    return max(MIN_THRESHOLD, t_quantile(ALPHA / (2 * n_means), df))


def compare(a: dict, b: dict) -> tuple[list, bool]:
    """Report lines and a verdict for two trees' samples, keyed alike."""
    keys = sorted(a.keys() | b.keys())
    lines, compared, ok = [], [], True  # compared: (|z|, key, bound) per mean
    for key in keys:
        if not a.get(key) or not b.get(key):
            lines.append(f"FAIL {key}: only in tree {'A' if a.get(key) else 'B'}")
            ok = False
            continue
        z, df = welch_z(a[key], b[key]), welch_df(a[key], b[key])
        bound = threshold(len(keys), df)
        compared.append((abs(z), key, bound))
        bad = abs(z) > bound
        ok &= not bad
        lines.append(f"{'FAIL' if bad else 'ok  '} {key}: A {fmean(a[key]):.6g} (n {len(a[key])})"
                     f"  B {fmean(b[key]):.6g} (n {len(b[key])})  z {z:+.2f}"
                     f"  df {df:.1f}  bound {bound:.2f}")
    limits = [bound for _, _, bound in compared]
    span = f"{min(limits):.2f}-{max(limits):.2f}" if limits else "none"
    # The first of equal |z|s, in key order.
    top = ("largest |z| {:.2f} at {} (bound {:.2f})".format(*max(compared, key=lambda c: c[0]))
           if compared else "no |z|")
    lines.append(f"{len(keys)} means compared; |z| bounds {span} (Bonferroni, family-wise "
                 f"alpha {ALPHA}, Student t at each mean's Welch-Satterthwaite df); {top}")
    return lines, ok


def _child() -> None:
    from qkdnet.engine import run_scenario
    from qkdnet.scenario import load_scenario

    print(json.dumps(outcome(run_scenario(load_scenario(sys.stdin.read())))))


def _run(tree: Path, doc: dict) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--child"],
                          input=json.dumps(doc), capture_output=True, text=True, env=env)
    if proc.returncode:
        raise RuntimeError(proc.stderr.strip().splitlines()[-1] if proc.stderr else "failed")
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("trees", nargs="*", type=Path, metavar="TREE")
    args = ap.parse_args(argv)
    if args.child:
        _child()
        return 0
    if len(args.trees) != 2:
        ap.error("give two trees, A_TREE and B_TREE")
    trees = [t.resolve() for t in args.trees]
    for tree in trees:
        if not (tree / "src" / "qkdnet").is_dir():
            ap.error(f"{tree} has no src/qkdnet")

    import digest  # beside this script, so on sys.path

    jobs = [(side, name, seed, doc) for side, first in ((0, 1), (1, SEEDS + 1))
            for seed in range(first, first + SEEDS) for name, doc in digest.runs(seed)]
    with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        futures = [pool.submit(_run, trees[side], doc) for side, _, _, doc in jobs]
    results: dict = {}
    failed = False
    for (side, name, seed, _), future in zip(jobs, futures):
        try:
            results.setdefault(name, ([], []))[side].append(future.result())
        except RuntimeError as exc:
            print(f"FAIL {name} seed {seed} on tree {'AB'[side]}: {exc}")
            failed = True
    if failed:
        return 1
    merged_a, merged_b = {}, {}
    for name, (runs_a, runs_b) in results.items():
        merged_a.update({f"{name} {k}": v for k, v in samples(runs_a).items()})
        merged_b.update({f"{name} {k}": v for k, v in samples(runs_b).items()})
    lines, ok = compare(merged_a, merged_b)
    print("\n".join(lines))
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
