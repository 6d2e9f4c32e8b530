"""Command-line entry points.

    qkdnet run --scenario day.json --seed 7 --out results/ --format csv
    qkdnet run --preset cambridge --out results/ --format records
    qkdnet verify --records results/metrics.records.jsonl
    qkdnet presets
    qkdnet budget --preset cambridge --path anna-sw,sw-boris

``budget --path`` takes one strand's link id, or the two leg link ids of a
switched channel in either order.

Exit codes: 0 success, 1 validation failure, 2 runtime invariant violation.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .engine import run_scenario
from .errors import InvariantViolation, ValidationError
from .netgraph import PRESETS, load_preset, load_topology
from .report import read_records, verify_report
from .scenario import default_preset_scenario, load_scenario

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INVARIANT = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qkdnet",
        description="Deterministic trusted-relay QKD network simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario and emit metrics")
    run_p.add_argument("--scenario", type=Path, help="scenario JSON file")
    run_p.add_argument("--preset", help="run the preset's default scenario instead")
    run_p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    run_p.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    run_p.add_argument("--format", choices=("csv", "records"), default="csv")
    run_p.add_argument("--duration", type=float, default=None,
                       help="override the scenario duration (seconds)")

    verify_p = sub.add_parser("verify", help="re-check invariants over emitted records")
    verify_p.add_argument("--records", type=Path, required=True,
                          help="metrics.records.jsonl from a previous run")

    sub.add_parser("presets", help="list built-in topology presets")

    budget_p = sub.add_parser("budget", help="link-budget calculator")
    group = budget_p.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", help="built-in preset name")
    group.add_argument("--topology", type=Path, help="topology JSON file")
    budget_p.add_argument("--path", required=True,
                          help="link id, or a switched channel's two leg link ids, comma-separated")
    return parser


def _cmd_run(args) -> int:
    if (args.scenario is None) == (args.preset is None):
        print("run: provide exactly one of --scenario or --preset", file=sys.stderr)
        return EXIT_VALIDATION
    if args.scenario is not None:
        try:
            text = args.scenario.read_text()
        except (OSError, ValueError) as exc:
            raise ValidationError(f"cannot read scenario {args.scenario}: {exc}") from exc
        scenario = load_scenario(text)
    else:
        scenario = default_preset_scenario(args.preset)
    # Scenario re-checks the duration against the event times.
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
    if args.duration is not None:
        scenario = replace(scenario, duration_s=args.duration)
    # An output path that cannot be a directory fails before the run, not
    # after it.
    try:
        args.out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"cannot create output directory {args.out}: {exc}") from exc
    report = run_scenario(scenario)
    written = report.write(args.out, fmt=args.format)
    for path in written:
        print(path)
    per_channel = sorted({b.channel_id for b in report.blocks})
    for cid in per_channel:
        mean_q = report.mean_qber(cid)
        print(f"{cid}: sifted {report.sifted_bits(cid)} bits, "
              f"secret {report.secret_bits(cid)} bits "
              f"({report.secret_rate(cid):.1f} b/s), "
              f"mean QBER {mean_q:.4f}" if mean_q is not None else f"{cid}: no blocks")
    delivered = sum(1 for r in report.relay_sessions if r.status == "delivered")
    if report.relay_sessions:
        print(f"relay sessions: {delivered}/{len(report.relay_sessions)} delivered")
    return EXIT_OK


def _cmd_verify(args) -> int:
    report = read_records(args.records)
    problems = verify_report(report)
    if problems:
        for p in problems:
            print(f"FAIL {p}")
        return EXIT_INVARIANT
    print("ok: series ranges, one timeline (health, switch and audit rows in time order, "
          "all times in the run), one-time-pad uniqueness (disjoint draws, so purpose "
          "separation), reservoir conservation, switch key isolation, block secret lengths")
    return EXIT_OK


def _cmd_presets(_args) -> int:
    for name, builder in sorted(PRESETS.items()):
        doc = builder()
        print(f"{name}: {doc.get('description', '')}")
    return EXIT_OK


def _cmd_budget(args) -> int:
    if args.preset:
        topology = load_preset(args.preset)
    else:
        try:
            text = args.topology.read_text()
        except (OSError, ValueError) as exc:
            raise ValidationError(f"cannot read topology {args.topology}: {exc}") from exc
        topology = load_topology(text)
    parts = [p.strip() for p in args.path.split(",") if p.strip()]
    path = parts[0] if len(parts) == 1 else tuple(parts)
    loss = topology.link_budget(path)
    print(f"{args.path}: {loss:.3f} dB")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "verify": _cmd_verify,
                "presets": _cmd_presets, "budget": _cmd_budget}
    try:
        return handlers[args.command](args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
