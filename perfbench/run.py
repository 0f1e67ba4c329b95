"""Run one ringsim benchmark workload and print its metrics.

    python3 perfbench/run.py --workload dsr_dense_mobile --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload static_probe --seed 1 --seconds 50 --trace 1

``--trace 0`` reports the end-to-end metrics: set-up time (median of fresh
interpreters), wall time (mean of untraced passes) and peak memory, the two
times rescaled to a nominal host speed (``hostspeed.py``).
``--trace 1`` wraps every layer boundary and reports the per-layer metrics.
Either way every pass is checked: no error rows, every census ring exact,
byte-identical output across passes, and at the default seed the committed
fingerprints.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_PROBES = 5
PROBE_EVERY_S = 1.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# name -> unit; the traced run reports every one on every workload (0 where a
# layer does no work, e.g. the route cache under AODV or mobility when static).
PER_LAYER = {
    "engine.events": "count",
    "engine.send.calls": "count",
    "engine.fanout": "ratio",
    "engine.send.self_s": "s",
    "engine.schedule_in.self_s": "s",
    "engine.dispatch.self_s": "s",
    "engine.init.s": "s",
    "protocols.on_packet.calls": "count",
    "protocols.on_packet.self_s": "s",
    "protocols.on_overhear.calls": "count",
    "protocols.on_overhear.self_s": "s",
    "protocols.on_hello_tick.calls": "count",
    "protocols.on_hello_tick.self_s": "s",
    "protocols.on_unicast_fail.calls": "count",
    "protocols.send_data.calls": "count",
    "protocols.route_cache.insert.calls": "count",
    "protocols.route_cache.insert.s": "s",
    "protocols.route_cache.lookup.calls": "count",
    "protocols.route_cache.lookup.s": "s",
    "protocols.route_cache.lookup.hit_ratio": "ratio",
    "protocols.route_cache.purge_link.calls": "count",
    "protocols.route_cache.purge_link.s": "s",
    "protocols.route_cache.purge_link.removed": "count",
    "protocols.route_cache.occupancy": "entries",
    "protocols.discovery.count": "count",
    "protocols.discovery.success_ratio": "ratio",
    "protocols.delivery_ratio": "ratio",
    "protocols.nrl": "ratio",
    "topology.unit_disk_neighbors.calls": "count",
    "topology.unit_disk_neighbors.s": "s",
    "topology.waypoint_step.calls": "count",
    "topology.waypoint_step.s": "s",
    "topology.generate_topology.s": "s",
    "topology.connectivity_profile.s": "s",
    "topology.bfs_rings.s": "s",
    "topology.location_distribution.s": "s",
    "analytics.total_search_cost.s": "s",
    "analytics.optimal_threshold.s": "s",
    "experiment.run_cell.s": "s",
    "experiment.analytic_schedule_cost.s": "s",
    "experiment.probe_discovery.s": "s",
    "experiment.rows_to_csv_text.s": "s",
    "config.parse_config_text.s": "s",
    "trace.overhead_frac": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def import_ringsim() -> None:
    """Put this checkout's src/ first on the path; refuse any other ringsim."""
    if not (SRC / "ringsim" / "__init__.py").is_file():
        raise SystemExit(f"error: no ringsim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ringsim
    if Path(ringsim.__file__).resolve().parent != SRC / "ringsim":
        raise SystemExit(f"error: imported ringsim from {ringsim.__file__}, not {SRC}")


def environment() -> dict:
    import numpy
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "machine": platform.machine()}


def measure_setup(text: str, probe) -> tuple[list[float], list[float]]:
    """Seconds of cold set-up, one fresh interpreter per sample.

    Returns the host seconds and the same rescaled by the probe samples
    taken just before and just after each one.
    """
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        before = probe.sample()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC)],
            input=text, capture_output=True, text=True, timeout=120, check=True)
        raw.append(float(proc.stdout.split()[-1]))
        scaled.append(raw[-1] * probe.scale([before, probe.sample()]))
    return raw, scaled


def fingerprint(output, tracer) -> dict:
    return {"output_sha256": output.sha256,
            "data_sent": tracer.extra["data_sent"],
            "data_delivered": tracer.extra["data_delivered"],
            "control_tx": tracer.extra["control_tx"],
            "engine_events": tracer.calls["engine.schedule_in"]}


def layer_metrics(tracer) -> dict:
    """Per-layer values of one traced pass (trace.overhead_frac added later)."""
    totals = tracer.totals()
    calls, extra = tracer.calls, tracer.extra

    def inclusive(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return totals.get(name, (0, 0.0, 0.0))[2]

    def ratio(num, den):
        return num / den if den else 0.0

    pc = "protocols.route_cache"
    discoveries = extra["discovery_success"] + extra["discovery_fail"]
    values = {
        "engine.events": calls["engine.schedule_in"],
        "engine.send.calls": calls["engine.send"],
        "engine.fanout": ratio(calls["protocols.on_packet"]
                               + calls["protocols.on_overhear"], calls["engine.send"]),
        "engine.send.self_s": own("engine.send"),
        "engine.schedule_in.self_s": own("engine.schedule_in"),
        "engine.dispatch.self_s": own("engine.run"),
        "engine.init.s": inclusive("engine.init"),
        "protocols.on_unicast_fail.calls": calls["protocols.on_unicast_fail"],
        "protocols.send_data.calls": calls["protocols.send_data"],
        f"{pc}.lookup.hit_ratio": ratio(extra["cache_hits"], calls[f"{pc}.lookup"]),
        f"{pc}.purge_link.removed": extra["cache_removed"],
        f"{pc}.occupancy": ratio(extra["cache_entries"], extra["cache_nodes"]),
        "protocols.discovery.count": discoveries,
        "protocols.discovery.success_ratio": ratio(extra["discovery_success"], discoveries),
        "protocols.delivery_ratio": ratio(extra["data_delivered"], extra["data_sent"]),
        "protocols.nrl": ratio(extra["control_tx"], extra["data_delivered"]),
    }
    for handler in ("on_packet", "on_overhear", "on_hello_tick"):
        values[f"protocols.{handler}.calls"] = calls[f"protocols.{handler}"]
        values[f"protocols.{handler}.self_s"] = own(f"protocols.{handler}")
    for name in (f"{pc}.insert", f"{pc}.lookup", f"{pc}.purge_link",
                 "topology.unit_disk_neighbors", "topology.waypoint_step"):
        values[f"{name}.calls"] = calls[name]
    for name in PER_LAYER:
        if name.endswith(".s") and name not in values:
            values[name] = inclusive(name[:-2])
    return values


class Run:
    """Checks and counts shared by the untraced and traced modes."""

    def __init__(self, workload, seed: int, committed: dict | None):
        self.workload = workload
        self.seed = seed
        self.committed = committed   # fingerprint to match, at the default seed
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference = None

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)

    def check_pass(self, label: str, output, tracer=None) -> None:
        """Count one pass's operations and compare it with the first pass."""
        self.attempted += output.attempted + 1
        self.failed += output.failed
        if output.failed:
            self.problems.append(f"{label}: {output.failed} failed operations")
        if self.reference is None:
            self.reference = output
        elif output.text != self.reference.text:
            self.fail(f"{label}: output differs from the first pass")
        if tracer is not None and self.committed is not None:
            got = fingerprint(output, tracer)
            if got != self.committed:
                self.fail(f"{label}: fingerprint {got} != committed {self.committed}")

    def result(self, metrics: dict, units: dict) -> dict:
        return {"correct": self.failed == 0 and self.attempted > 0,
                "attempted": self.attempted, "failed": self.failed,
                "metrics": {name: {"value": metrics[name], "unit": unit}
                            for name, unit in units.items()}}


def wrapped_pass(tracer, text: str):
    """One pass, config parsing included, under the tracer's wrappers.

    Returns the output and the seconds of the pass itself.
    """
    import ringsim.config as config
    from workloads import run_pass

    with tracer.installed(), tracer.span("bench.pass"):
        scenario = config.parse_config_text(text)
        start = time.perf_counter()
        output = run_pass(scenario)
        elapsed = time.perf_counter() - start
    return output, elapsed


def timed_rounds(run: Run, scenario, seconds: float, probe) -> tuple[float, dict]:
    """Run the pass's pieces round after round until ``seconds`` have passed.

    A pass is split into small independent pieces (``workloads.units``) plus
    the step that joins their output, and each is timed on its own.  A full
    round is joined and checked like any pass; the round the clock cuts off
    is not joined, but each part it made must equal that piece's part in the
    first round.  Between pieces, once every PROBE_EVERY_S, the host's speed
    is sampled.  The pass time is the sum of each piece's (and the join's)
    mean time, rescaled by the median probe sample (``hostspeed``).
    """
    from workloads import combine, units

    pieces = units(scenario)
    times: list[list[float]] = [[] for _ in range(len(pieces) + 1)]  # + join
    clock = time.perf_counter
    first_sample = len(probe.samples)
    probe.sample()
    start = last_sample = clock()
    first_parts = None
    rounds = 0
    while rounds == 0 or clock() - start < seconds:
        parts = []
        for piece, piece_times in zip(pieces, times):
            if rounds and clock() - start >= seconds:
                break
            begin = clock()
            parts.append(piece())
            piece_times.append(clock() - begin)
            if clock() - last_sample >= PROBE_EVERY_S:
                probe.sample()
                last_sample = clock()
        if len(parts) < len(pieces):
            run.attempted += 1
            if parts != first_parts[:len(parts)]:
                run.fail("cut-off round: a part differs from the first round's")
            break
        begin = clock()
        output = combine(scenario, parts)
        times[-1].append(clock() - begin)
        rounds += 1
        first_parts = first_parts or parts
        run.check_pass(f"timed round {rounds}", output)
    probe.sample()
    samples = probe.samples[first_sample:]
    host_pass_s = sum(statistics.fmean(piece_times) for piece_times in times)
    return host_pass_s * probe.scale(samples), {
        "rounds": rounds, "pieces": len(pieces),
        "piece_runs": sum(map(len, times[:-1])), "host_pass_s": host_pass_s,
        "probe_samples": len(samples), "probe_median_s": statistics.median(samples)}


def run_untraced(run: Run, text: str, seconds: float) -> tuple[dict, dict]:
    import ringsim.config as config
    from tracer import Tracer

    with hostspeed.Probe() as probe:
        setup_raw, setup = measure_setup(text, probe)
        if run.committed is not None:
            # At the default seed a pass with counting wrappers checks the
            # simulated counts too; the timed passes must then match its output.
            counting = Tracer(spans=False)
            run.check_pass("counting pass", wrapped_pass(counting, text)[0], counting)
        scenario = config.parse_config_text(text)
        wall_s, rounds = timed_rounds(run, scenario, seconds, probe)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {"wall_s": wall_s,
               "setup_s": statistics.median(setup),
               "peak_rss_mb": rss_kb / 1024.0}
    detail = {**rounds, "setup_host_s": setup_raw, "setup_s": setup,
              "output_sha256": run.reference.sha256}
    return metrics, detail


def run_traced(run: Run, text: str, stem: str) -> tuple[dict, dict]:
    """Untraced pass, counting pass, traced pass: same output, same counts."""
    import ringsim.config as config
    from tracer import Tracer
    from workloads import run_pass

    scenario = config.parse_config_text(text)
    start = time.perf_counter()
    run.check_pass("untraced pass", run_pass(scenario))
    untraced_s = time.perf_counter() - start

    counting = Tracer(spans=False)
    run.check_pass("counting pass", wrapped_pass(counting, text)[0], counting)
    tracer = Tracer(spans=True)
    output, traced_s = wrapped_pass(tracer, text)
    run.check_pass("traced pass", output, tracer)
    for counter in ("calls", "extra"):
        if getattr(tracer, counter) != getattr(counting, counter):
            run.fail(f"traced {counter} differ from the counting pass")
    tracer.dump(str(RESULTS / f"{stem}-spans.json"),
                {"workload": run.workload.name, "seed": run.seed})

    metrics = layer_metrics(tracer)
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    return metrics, {"untraced_pass_s": untraced_s, "traced_pass_s": traced_s,
                     "output_sha256": run.reference.sha256}


def compare_with_baseline(workload: str, env: dict, metrics: dict) -> str:
    with open(HERE / "baseline.json", encoding="utf-8") as handle:
        baseline = json.load(handle)
    if baseline["environment"] != env:
        return ("baseline: recorded on another machine "
                f"({baseline['environment']}); not compared")
    medians = baseline["workloads"].get(workload, {}).get("median", {})
    parts = [f"{name} x{metrics[name] / medians[name]:.3f}"
             for name in metrics if medians.get(name)]
    return "baseline: " + (", ".join(parts) if parts else "none for this mode")


def main(argv=None) -> int:
    args = parse_args(argv)
    import_ringsim()
    from workloads import DEFAULT_SEED, WORKLOADS, scenario_text

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    RESULTS.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    text = scenario_text(workload, args.seed)
    committed = None
    if args.seed == DEFAULT_SEED:
        with open(HERE / "fingerprints.json", encoding="utf-8") as handle:
            committed = json.load(handle).get(workload.name)
        if committed is None:
            raise SystemExit(f"error: no committed fingerprint for {workload.name}")
    run = Run(workload, args.seed, committed)
    if args.trace:
        metrics, detail = run_traced(run, text, stem)
        units = PER_LAYER
    else:
        metrics, detail = run_untraced(run, text, args.seconds)
        units = END_TO_END
    result = run.result(metrics, units)
    env = environment()

    print(f"workload {workload.name} seed {args.seed} trace {args.trace}")
    print(f"env {json.dumps(env)}")
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    print(f"detail {json.dumps(detail)}")
    print(f"fail_frac {run.failed / run.attempted:.6g} ({run.failed}/{run.attempted})")
    for problem in run.problems:
        print(f"FAIL {problem}")
    print(compare_with_baseline(workload.name, env, metrics))
    with open(RESULTS / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump({"workload": workload.name, "seed": args.seed,
                   "trace": args.trace, "environment": env, "scenario": text,
                   "detail": detail, "problems": run.problems,
                   "result": result}, handle, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
