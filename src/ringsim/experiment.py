"""Sweep execution, CSV/report emission, and analytic-versus-simulated checks."""

from __future__ import annotations

import csv
import io
import os
import statistics
from dataclasses import dataclass, fields
from multiprocessing import Pool
from typing import get_args, get_type_hints

from .analytics import (
    Protocol,
    Variant,
    build_schedule,
    default_params,
    ring_cost_simple,
    total_search_cost,
)
from .config import ConfigError, ScenarioConfig
from .engine import (
    Engine,
    MetricsRecord,
    RunConfig,
    compute_e2ed,
    compute_nrl,
    compute_throughput,
    format_trace,
)
from .protocols import NODE_CLASSES
from .topology import Arena, bfs_rings, connectivity_profile, generate_topology


@dataclass(frozen=True)
class ResultRow:
    """One sweep cell: metrics plus the matching closed-form search cost."""

    protocol: str
    variant: str
    pause_time: float
    seed: int
    throughput_bps: float | None = None
    e2ed_s: float | None = None
    nrl: float | None = None
    discovery_successes: int | None = None
    analytic_b_m: float | None = None
    sim_rreq_tx: int | None = None
    error: str = ""

    @property
    def key(self):
        return (self.protocol, self.variant, self.pause_time, self.seed)


CSV_COLUMNS = [f.name for f in fields(ResultRow)]


def analytic_schedule_cost(protocol: Protocol, variant: Variant, seed: int,
                           n_nodes: int, arena: Arena, p_s: float) -> float:
    """Closed-form expected broadcast count of one full schedule from node 0
    on the frozen topology the given seed generates."""
    graph = generate_topology(seed, n_nodes, arena)
    schedule = build_schedule(protocol, variant)
    profile = connectivity_profile(graph, 0, p_s,
                                   horizon=max(schedule.rings) - 1)
    return total_search_cost(schedule, profile)


def run_cell(scenario: ScenarioConfig, protocol: Protocol, variant: Variant,
             pause_time: float, seed: int, trace_dir: str | None = None) -> ResultRow:
    cfg = scenario.to_run_config(protocol, variant, pause_time, seed,
                                 trace=trace_dir is not None)
    engine = Engine(cfg)
    metrics = engine.run()
    _check_conservation(metrics)
    if trace_dir is not None:
        name = f"trace_{protocol.value}_{variant.value}_p{pause_time:g}_s{seed}.txt"
        with open(os.path.join(trace_dir, name), "w", encoding="utf-8") as handle:
            handle.write(format_trace(engine.trace))
    window = cfg.duration - cfg.warmup
    b_m = analytic_schedule_cost(protocol, variant, seed, scenario.nodes,
                                 scenario.arena, scenario.p_s)
    return ResultRow(
        protocol=protocol.value,
        variant=variant.value,
        pause_time=pause_time,
        seed=seed,
        throughput_bps=compute_throughput(metrics, window),
        e2ed_s=compute_e2ed(metrics),
        nrl=compute_nrl(metrics),
        discovery_successes=metrics.discovery_success,
        analytic_b_m=b_m,
        sim_rreq_tx=metrics.control_tx.get("RREQ", 0),
    )


def _check_conservation(metrics: MetricsRecord) -> None:
    """Every measured data packet ends delivered, dropped or still in flight."""
    dropped = sum(metrics.drops.values())
    if metrics.data_sent != (metrics.data_delivered + dropped
                             + metrics.data_inflight_end):
        raise RuntimeError(
            f"packet conservation violated: sent {metrics.data_sent} != "
            f"delivered {metrics.data_delivered} + dropped {dropped} + "
            f"in flight {metrics.data_inflight_end}")


def _cell_task(task) -> ResultRow:
    scenario, protocol, variant, pause_time, seed, trace_dir = task
    try:
        return run_cell(scenario, protocol, variant, pause_time, seed, trace_dir)
    except Exception as exc:  # keep the sweep alive, report the cell
        return ResultRow(protocol=protocol.value, variant=variant.value,
                         pause_time=pause_time, seed=seed,
                         error=f"{type(exc).__name__}: {exc}")


def sweep_cells(scenario: ScenarioConfig):
    cells = [(protocol, variant, pause, seed)
             for protocol in scenario.protocols
             for variant in scenario.variants
             for pause in scenario.pause_times
             for seed in scenario.seeds]
    cells.sort(key=lambda c: (c[0].value, c[1].value, c[2], c[3]))
    return cells


def run_sweep(scenario: ScenarioConfig, parallel: int = 1,
              trace_dir: str | None = None) -> list[ResultRow]:
    """Run every (protocol, variant, pause, seed) cell; output order is the
    sorted cell order no matter how cells execute."""
    if parallel < 1:
        raise ValueError(f"parallel must be >= 1, got {parallel}")
    if trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)
    tasks = [(scenario, p, v, pause, seed, trace_dir)
             for p, v, pause, seed in sweep_cells(scenario)]
    if parallel > 1 and len(tasks) > 1:
        # a pool starts all its workers at once: no more than there are cells
        with Pool(processes=min(parallel, len(tasks))) as pool:
            return pool.map(_cell_task, tasks)
    return [_cell_task(task) for task in tasks]


# ----------------------------------------------------------------- reporting

def _format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def rows_to_csv_text(rows: list[ResultRow]) -> str:
    if not rows:
        raise ValueError("cannot emit a report for zero rows")
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([_format_value(getattr(row, col)) for col in CSV_COLUMNS])
    return buffer.getvalue()


_ROW_TYPES = get_type_hints(ResultRow)


def _parse_cell(text: str, kind):
    if get_args(kind):  # `T | None`: an empty cell is None
        if text == "":
            return None
        kind = get_args(kind)[0]
    return kind(text)


def read_results_csv(path: str) -> list[ResultRow]:
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        header = reader.fieldnames or []
        if header != CSV_COLUMNS:
            missing = [col for col in CSV_COLUMNS if col not in header]
            extra = [col for col in header if col not in CSV_COLUMNS]
            raise ValueError(f"{path}: not a results file, the header must be "
                             f"{','.join(CSV_COLUMNS)} (missing {missing}, "
                             f"extra {extra})")
        return [ResultRow(**{col: _parse_cell(record[col], _ROW_TYPES[col])
                             for col in CSV_COLUMNS})
                for record in reader]


_METRICS = ("throughput_bps", "e2ed_s", "nrl")


def _group_stats(rows, metric):
    values = [getattr(r, metric) for r in rows if getattr(r, metric) is not None]
    excluded = len(rows) - len(values)
    if not values:
        return None, None, excluded
    mean = statistics.fmean(values)
    std = statistics.stdev(values) if len(values) > 1 else 0.0
    return mean, std, excluded


def summarize(rows: list[ResultRow]) -> str:
    """Per-(protocol, variant, pause) means and the ers2-minus-ers1 deltas.

    Negative e2ed/nrl deltas and positive throughput deltas mean the enhanced
    schedule improved on the default one.
    """
    if not rows:
        raise ValueError("cannot summarize zero rows")
    groups: dict = {}
    for row in rows:
        groups.setdefault((row.protocol, row.variant, row.pause_time), []).append(row)

    lines = ["scenario summary (mean +/- sample std over seeds)"]
    means: dict = {}
    for key in sorted(groups):
        protocol, variant, pause = key
        members = groups[key]
        failed = [r for r in members if r.error]
        lines.append(f"\n{protocol} {variant} pause={pause:g}s "
                     f"(seeds={len(members)}, failed={len(failed)})")
        for metric in _METRICS:
            mean, std, excluded = _group_stats(members, metric)
            means[(protocol, variant, pause, metric)] = mean
            if mean is None:
                lines.append(f"  {metric}: undefined in all seeds")
            else:
                note = f" (excluded {excluded})" if excluded else ""
                lines.append(f"  {metric}: {mean:.6g} +/- {std:.6g}{note}")

    lines.append("\ners2 - ers1 deltas (throughput up / e2ed,nrl down = improvement)")
    pairs = sorted({(p, pause) for p, v, pause in groups})
    for protocol, pause in pairs:
        parts = []
        for metric in _METRICS:
            a = means.get((protocol, "ers1", pause, metric))
            b = means.get((protocol, "ers2", pause, metric))
            if a is None or b is None:
                parts.append(f"{metric}=n/a")
            else:
                parts.append(f"{metric}={b - a:+.6g}")
        lines.append(f"  {protocol} pause={pause:g}s: " + " ".join(parts))
    return "\n".join(lines) + "\n"


def emit_report(rows: list[ResultRow], out_dir: str) -> tuple[str, str]:
    """Write results.csv and summary.txt under out_dir; returns their paths."""
    if not rows:
        raise ValueError("cannot emit a report for zero rows")
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "results.csv")
    with open(csv_path, "w", encoding="utf-8", newline="") as handle:
        handle.write(rows_to_csv_text(rows))
    summary_path = os.path.join(out_dir, "summary.txt")
    text = summarize(rows)
    with open(summary_path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return csv_path, summary_path


# ------------------------------------------------- analytic/simulated checks

@dataclass(frozen=True)
class ProbeResult:
    """One exhaustive discovery against an absent destination."""

    ring_ttls: tuple[int, ...]
    census_counts: tuple[int, ...]   # exact ring transmissions from hop counts
    sim_counts: tuple[int, ...]      # route-request sends observed per ring
    waits: tuple[float, ...]         # armed per-ring timeouts
    emit_times: tuple[float, ...]    # when the source opened each ring


def probe_discovery(protocol: Protocol, variant: Variant, seed: int,
                    n_nodes: int = 50, arena: Arena = Arena(1000.0, 1000.0, 250.0),
                    p_s: float = 1.0) -> ProbeResult:
    """Run one discovery from node 0 for a destination that does not exist.

    Every ring then times out, so each ring floods to its full TTL extent and
    the per-ring transmission counts can be compared with the hop-census
    prediction ring by ring.
    """
    node_class = NODE_CLASSES[protocol]
    params = default_params(protocol, variant)
    rings = node_class.discovery_rings(variant)
    waits = tuple(node_class.ring_wait(params, i, ttl)
                  for i, ttl in enumerate(rings))
    cfg = RunConfig(protocol=protocol, variant=variant, n_nodes=n_nodes,
                    arena=arena, v_max=0.0, pause_time=0.0,
                    duration=sum(waits) + 1.0, warmup=0.0, traffic_pairs=0,
                    p_s=p_s, seed=seed)
    engine = Engine(cfg)
    source, ghost = 0, n_nodes  # ghost: a node id nobody owns
    engine.schedule_in(0.0, engine.nodes[source].request_route, ghost)
    metrics = engine.run()

    counts = bfs_rings(engine.graph0, source)
    census = []
    for ttl in rings:
        padded = counts + (0,) * max(0, ttl - 1 - len(counts))
        census.append(ring_cost_simple(padded, ttl))

    # the source opens every ring itself, so its request keys enter the
    # per-request counts in ring order, and its request ids are ring indices
    sim = tuple(count for (orig, _), count in metrics.rreq_tx.items()
                if orig == source)
    return ProbeResult(ring_ttls=rings, census_counts=tuple(census),
                       sim_counts=sim, waits=waits,
                       emit_times=tuple(engine.nodes[source].rreq_opened))


def analytic_compare(scenario: ScenarioConfig) -> tuple[list[dict], str]:
    """Static-mode table of hop-census versus simulated per-ring discovery
    cost, with the armed waits and the observed ring intervals."""
    if scenario.v_max != 0:
        raise ConfigError("analytic comparison requires v_max = 0 (static mode)")
    rows = []
    for protocol in scenario.protocols:
        for variant in scenario.variants:
            for seed in scenario.seeds:
                probe = probe_discovery(protocol, variant, seed,
                                        n_nodes=scenario.nodes,
                                        arena=scenario.arena, p_s=scenario.p_s)
                intervals = [b - a for a, b in
                             zip(probe.emit_times, probe.emit_times[1:])]
                for i, ttl in enumerate(probe.ring_ttls):
                    census = probe.census_counts[i]
                    sim = probe.sim_counts[i]
                    err = abs(sim - census) / census
                    rows.append({
                        "protocol": protocol.value,
                        "variant": variant.value,
                        "seed": seed,
                        "ring": i + 1,
                        "ttl": ttl,
                        "census_tx": census,
                        "sim_tx": sim,
                        "tx_rel_err": err,
                        "wait_s": probe.waits[i],
                        "sim_interval_s": intervals[i] if i < len(intervals) else None,
                    })
    header = (f"{'proto':<6}{'var':<6}{'seed':>5}{'ring':>5}{'ttl':>5}"
              f"{'census':>8}{'sim':>6}{'err%':>7}{'wait_s':>9}{'interval_s':>11}")
    lines = [header]
    for r in rows:
        interval = f"{r['sim_interval_s']:.6f}" if r["sim_interval_s"] is not None else "-"
        lines.append(f"{r['protocol']:<6}{r['variant']:<6}{r['seed']:>5}"
                     f"{r['ring']:>5}{r['ttl']:>5}{r['census_tx']:>8}"
                     f"{r['sim_tx']:>6}{100 * r['tx_rel_err']:>7.2f}"
                     f"{r['wait_s']:>9.4f}{interval:>11}")
    return rows, "\n".join(lines) + "\n"
