"""Command-line front end: sweep runs, static analytic comparison, schedules."""

from __future__ import annotations

import argparse
import os
import sys

from .analytics import Protocol, Variant, build_schedule, default_params
from .config import parse_config
from .experiment import analytic_compare, emit_report, run_sweep
from .protocols import NODE_CLASSES


def _cmd_run(args) -> int:
    scenario = parse_config(args.config)
    out_dir = args.out or scenario.out_dir
    trace_dir = os.path.join(out_dir, "traces") if args.trace else None
    rows = run_sweep(scenario, parallel=args.parallel, trace_dir=trace_dir)
    csv_path, summary_path = emit_report(rows, out_dir)
    with open(summary_path, "r", encoding="utf-8") as handle:
        print(handle.read(), end="")
    print(f"\nwrote {csv_path} and {summary_path}")
    failed = [row for row in rows if row.error]
    for row in failed:
        print(f"cell failed: {row.protocol} {row.variant} "
              f"pause={row.pause_time:g} seed={row.seed}: {row.error}",
              file=sys.stderr)
    return 0


def _cmd_compare(args) -> int:
    scenario = parse_config(args.config)
    _, table = analytic_compare(scenario)
    print(table, end="")
    return 0


def _cmd_schedule(args) -> int:
    protocol = Protocol(args.protocol)
    variant = Variant(args.variant)
    node_class = NODE_CLASSES[protocol]
    params = default_params(protocol, variant)
    schedule = build_schedule(protocol, variant)
    rings = node_class.discovery_rings(variant)
    print(f"{protocol.value} {variant.value} TTL schedule: "
          + " ".join(str(t) for t in schedule.rings))
    if rings != schedule.rings:
        print("discovery-layer rings (with retries): "
              + " ".join(str(t) for t in rings))
    cumulative = 0.0
    for i, ttl in enumerate(rings):
        wait = node_class.ring_wait(params, i, ttl)
        cumulative += wait
        print(f"  ring {i + 1}: ttl={ttl:<4d} wait={wait:.3f}s "
              f"cumulative={cumulative:.3f}s")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ringsim",
        description="Expanding-ring route-discovery simulator and cost model")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario sweep")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--trace", action="store_true",
                       help="write a per-cell event trace")
    p_run.add_argument("--parallel", type=int, default=1)
    p_run.set_defaults(fn=_cmd_run)

    p_cmp = sub.add_parser("compare",
                           help="static analytic-versus-simulated table")
    p_cmp.add_argument("--config", required=True)
    p_cmp.set_defaults(fn=_cmd_compare)

    p_sch = sub.add_parser("schedule", help="print a TTL schedule and waits")
    p_sch.add_argument("--protocol", required=True,
                       choices=[p.value for p in Protocol])
    p_sch.add_argument("--variant", required=True,
                       choices=[v.value for v in Variant])
    p_sch.set_defaults(fn=_cmd_schedule)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
