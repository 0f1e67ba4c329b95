"""Benchmark workloads: scenario text generated from a seed, and one pass each.

Each workload is a ringsim scenario config (the same ``key = value`` text the
CLI reads) made from ``--seed``; the program receives only that text.  A pass
runs the workload once through the public API and returns its text output,
which must be byte-identical for equal seeds, traced or not.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, replace
from functools import partial

import ringsim.analytics as analytics
import ringsim.experiment as experiment
import ringsim.topology as topology

DEFAULT_SEED = 1

# 50 nodes, 1000 x 1000 m, 250 m range, v_max 30 m/s, pause 0, 10 CBR pairs at
# 4 pkt/s: the dense mobile cell of the directional acceptance test.  A cell
# here is 30 s long rather than 300 s: the cost of one cell varies by about
# 20 % from seed to seed, so a pass is made of many short independent cells to
# keep its total steady across seeds.
_MOBILE = """\
nodes = 50
arena_width = 1000.0
arena_height = 1000.0
radio_range = 250.0
v_max = 30.0
pause_times = [0]
duration = {duration}
warmup = 5.0
traffic_pairs = 10
traffic_rate = 4.0
packet_size = 512
protocols = [{protocol}]
variants = [ers1, ers2]
seeds = [{seeds}]
p_s = 1.0
"""

_STATIC = """\
nodes = 50
arena_width = 1000.0
arena_height = 1000.0
radio_range = 250.0
v_max = 0.0
pause_times = [0]
duration = 100.0
warmup = 0.0
traffic_pairs = 0
protocols = [aodv, dsr, dymo]
variants = [ers1, ers2]
seeds = [{seeds}]
p_s = 1.0
"""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    template: str
    cell_seeds: int        # independent topology/mobility seeds per pass
    fields: dict


WORKLOADS = {
    w.name: w for w in (
        Workload("dsr_dense_mobile",
                 "DSR ers1/ers2 mobile cells; the route cache and mobility do most "
                 "of the work",
                 _MOBILE, 20, {"protocol": "dsr", "duration": "30.0"}),
        Workload("static_probe",
                 "static analytic_compare plus ring analytics over many topologies; "
                 "full-TTL floods, hellos, BFS census and closed forms",
                 _STATIC, 220, {}),
    )
}


def cell_seeds(workload: Workload, seed: int) -> list[int]:
    """Distinct simulation seeds for one pass, drawn from the workload seed."""
    rng = random.Random(f"{workload.name}:{seed}")
    return sorted(rng.sample(range(1, 1_000_000), workload.cell_seeds))


def scenario_text(workload: Workload, seed: int) -> str:
    seeds = ", ".join(str(s) for s in cell_seeds(workload, seed))
    return workload.template.format(seeds=seeds, **workload.fields)


@dataclass(frozen=True)
class PassOutput:
    """What one pass produced and how many of its operations failed.

    An operation is one sweep row (mobile) or one census ring (static); it
    fails on an error row or when the simulated ring cost differs from the
    census.
    """

    text: str
    attempted: int
    failed: int

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.text.encode("utf-8")).hexdigest()


def units(scenario) -> list:
    """The pass as independent pieces, in output order, each timed on its own.

    A piece is a zero-argument callable returning its part of the output:
    one sweep cell (mobile), or one ``analytic_compare`` probe per protocol,
    variant and seed followed by the ring analytics of each seed (static).
    Library functions are looked up when a piece runs, so a piece made
    before the tracer is installed still goes through its wrappers.
    """
    if scenario.v_max == 0:
        probes = [replace(scenario, protocols=(p,), variants=(v,), seeds=(s,))
                  for p in scenario.protocols for v in scenario.variants
                  for s in scenario.seeds]
        return ([partial(_compare_piece, sub) for sub in probes]
                + [partial(_analytics_piece, scenario, s) for s in scenario.seeds])
    cells = [replace(scenario, protocols=(p,), variants=(v,), pause_times=(pause,),
                     seeds=(s,))
             for p, v, pause, s in experiment.sweep_cells(scenario)]
    return [partial(_sweep_piece, sub) for sub in cells]


def combine(scenario, parts: list) -> PassOutput:
    """The pass output from its pieces' parts, as one whole call would give it.

    Mobile: the rows of every cell, sorted as ``run_sweep`` sorts them, as
    ``rows_to_csv_text``.  Static: the ``analytic_compare`` table followed by
    one analytics line per seed, protocol and variant.
    """
    if scenario.v_max == 0:
        compares = parts[:len(parts) - len(scenario.seeds)]
        rows = [row for part_rows, _ in compares for row in part_rows]
        # Each probe's table repeats the header; keep the first one only.
        tables = [table for _, table in compares]
        text = "".join(tables[:1] + [t.split("\n", 1)[1] for t in tables[1:]]
                       + parts[len(compares):])
        failed = sum(1 for r in rows if r["sim_tx"] != r["census_tx"])
        return PassOutput(text, len(rows), failed)
    rows = sorted((row for part in parts for row in part), key=lambda r: r.key)
    text = experiment.rows_to_csv_text(rows)
    return PassOutput(text, len(rows), sum(1 for r in rows if r.error))


def run_pass(scenario) -> PassOutput:
    return combine(scenario, [piece() for piece in units(scenario)])


def _sweep_piece(cell):
    return experiment.run_sweep(cell)


def _compare_piece(probe):
    return experiment.analytic_compare(probe)


def _analytics_piece(scenario, seed) -> str:
    graph = topology.generate_topology(seed, scenario.nodes, scenario.arena)
    source = 0
    profile = topology.connectivity_profile(graph, source, scenario.p_s)
    lines = []
    for protocol in scenario.protocols:
        for variant in scenario.variants:
            schedule = analytics.build_schedule(protocol, variant)
            dist = topology.location_distribution(graph, source, schedule)
            t_fixed = analytics.ring_traversal_wait(
                1, analytics.default_params(protocol, variant))
            choice = analytics.optimal_threshold(
                profile, dist, t_fixed, max_l=len(profile.d_f) + 1)
            elt = analytics.expected_locating_time(t_fixed, dist)
            lines.append(f"{seed} {protocol.value} {variant.value} "
                         f"p={dist.p!r} d_f={profile.d_f!r} "
                         f"L={choice.threshold} cost={choice.expected_cost!r} "
                         f"time={choice.expected_time!r} elt={elt!r}\n")
    return "".join(lines)
