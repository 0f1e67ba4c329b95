"""Record the benchmark's committed reference data.

    python3 perfbench/record.py fingerprints
        Rewrite fingerprints.json: output SHA-256 and simulated counts of every
        workload at the default seed.  Only a change that alters simulation
        output on purpose should need this.

    python3 perfbench/record.py spread --workload static_probe --seeds 1-10 [--trace 1] [--baseline]
        Run the workload once per seed, each in a fresh process, and print each
        metric's median and quartile spread (Q3 - Q1 as a share of the
        median).  With --baseline, store the medians and the environment in
        baseline.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import run

BENCHMARK = run.ROOT / "BENCHMARK.json"


def record_fingerprints() -> None:
    run.import_ringsim()
    from tracer import Tracer
    from workloads import DEFAULT_SEED, WORKLOADS, scenario_text

    table = {}
    for name, workload in WORKLOADS.items():
        tracer = Tracer(spans=False)
        output, _ = run.wrapped_pass(tracer, scenario_text(workload, DEFAULT_SEED))
        if output.failed:
            raise SystemExit(f"{name}: {output.failed} failed operations")
        table[name] = run.fingerprint(output, tracer)
        print(name, table[name])
    with open(run.HERE / "fingerprints.json", "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=2)
        handle.write("\n")


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def spread(workload: str, seeds: list[int], trace: int, baseline: bool) -> None:
    with open(BENCHMARK, encoding="utf-8") as handle:
        seconds = json.load(handle)["run_seconds"]
    values: dict = {}
    for seed in seeds:
        proc = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, timeout=180, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        if not result["correct"]:
            raise SystemExit(f"seed {seed}: incorrect result\n{proc.stdout}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{name}={m['value']:.4g}" for name, m in result["metrics"].items()),
            flush=True)

    medians, spreads = {}, {}
    for name, vals in values.items():
        q1, q2, q3 = statistics.quantiles(vals, n=4)
        medians[name] = statistics.median(vals)
        spreads[name] = (q3 - q1) / medians[name] if medians[name] else 0.0
        print(f"{name}: median {medians[name]:.6g}  Q1 {q1:.6g}  Q3 {q3:.6g}  "
              f"spread {spreads[name]:.4f}  (n={len(vals)})")
    if baseline:
        path = run.HERE / "baseline.json"
        with open(path, encoding="utf-8") as handle:
            table = json.load(handle)
        env = run.environment()
        if table["environment"] != env:
            table = {"environment": env, "workloads": {}}
        entry = table["workloads"].setdefault(workload, {"median": {}, "spread": {}})
        entry[f"trace{trace}_seeds"] = seeds
        entry["seconds"] = seconds
        entry["median"].update(medians)
        entry["spread"].update(spreads)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(table, handle, indent=2)
            handle.write("\n")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("fingerprints")
    sp = sub.add_parser("spread")
    sp.add_argument("--workload", required=True)
    sp.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    sp.add_argument("--trace", type=int, choices=(0, 1), default=0)
    sp.add_argument("--baseline", action="store_true")
    args = parser.parse_args(argv)
    if args.command == "fingerprints":
        record_fingerprints()
    else:
        spread(args.workload, parse_seeds(args.seeds), args.trace, args.baseline)


if __name__ == "__main__":
    main()
