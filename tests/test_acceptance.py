"""Acceptance suite: one test (and one printed verdict line) per criterion.

Run with `pytest tests/test_acceptance.py -v -s`.  The directional criterion
is the slow one (about 83 s on a shared two-core host); everything else
finishes in seconds.
"""

import random
import time
from multiprocessing import Pool

import pytest

from ringsim.analytics import (
    ConnectivityProfile,
    LocationDistribution,
    Protocol,
    Variant,
    blind_flood_cost,
    build_schedule,
    default_params,
    dsr_expected_wait,
    expected_locating_time,
    ring_cost_ttl,
)
from ringsim.config import ScenarioConfig
from ringsim.engine import (
    Engine,
    RunConfig,
    compute_e2ed,
    compute_nrl,
    compute_throughput,
)
from ringsim.experiment import probe_discovery, rows_to_csv_text, run_sweep
from ringsim.protocols import RouteCache
from ringsim.topology import Arena, generate_topology, hop_distances

ALL_CELLS = [(p, v) for p in Protocol for v in Variant]
DENSE_ARENA = Arena(1000.0, 1000.0, 250.0)
# sparse variant of the same desk-scale scenario: multi-hop paths and real
# discovery failures, where ring-schedule speed can show up in delivery
SPARSE_ARENA = Arena(1000.0, 1000.0, 180.0)

SEEDS = tuple(range(1, 11))


def _verdict(name, ok, detail=""):
    print(f"\n{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ------------------------------------------------------------- criterion 1

def test_criterion_formula_exactness():
    start = time.perf_counter()
    rng = random.Random(20240917)
    for _ in range(1000):
        ttl = rng.randint(1, 10)
        d_f = tuple(rng.uniform(0.0, 6.0)
                    for _ in range(ttl - 1 + rng.randint(0, 3)))
        profile = ConnectivityProfile(p_s=rng.random(),
                                      d_avg=rng.uniform(0.0, 10.0), d_f=d_f)
        assert ring_cost_ttl(profile, ttl) == blind_flood_cost(profile, ttl)

    for tau in (0.030, 0.090):
        for m in range(1, 21):
            assert dsr_expected_wait(m, tau) == tau * (2 ** m - 1)

    assert expected_locating_time(0.1, LocationDistribution((1.0,))) == 0.05
    for l in range(1, 6):
        zeros = LocationDistribution((0.0,) * l)
        assert expected_locating_time(0.2, zeros) == (l + 0.5) * 0.2

    elapsed = time.perf_counter() - start
    _verdict("criterion-1 formula exactness", elapsed < 1.0,
             f"1000 ring tuples + wait closed forms exact, {elapsed:.2f}s")


# ------------------------------------------------------------- criterion 2

def test_criterion_schedule_fidelity():
    expected = {
        (Protocol.AODV, Variant.ERS1): (2, 4, 6, 35, 35, 35),
        (Protocol.AODV, Variant.ERS2): (3, 6, 9, 35, 35, 35),
        (Protocol.DSR, Variant.ERS1): (1, 255),
        (Protocol.DSR, Variant.ERS2): (3, 255),
        (Protocol.DYMO, Variant.ERS1): (2, 4, 6, 10, 20),
        (Protocol.DYMO, Variant.ERS2): (3, 6, 9, 20, 35, 75),
    }
    for cell, rings in expected.items():
        assert build_schedule(*cell).rings == rings
    _verdict("criterion-2 schedule fidelity", True,
             "all six protocol/variant TTL sequences exact")


# ------------------------------------------------------------- criterion 3

def _connected_seeds(count, n_nodes=50, arena=DENSE_ARENA):
    seeds, candidate = [], 0
    while len(seeds) < count:
        graph = generate_topology(candidate, n_nodes, arena)
        if all(d >= 0 for d in hop_distances(graph, 0)):
            seeds.append(candidate)
        candidate += 1
    return seeds


def test_criterion_census_cross_check():
    start = time.perf_counter()
    seeds = _connected_seeds(20)
    checked = 0
    for seed in seeds:
        for protocol, variant in ALL_CELLS:
            probe = probe_discovery(protocol, variant, seed, n_nodes=50,
                                    arena=DENSE_ARENA, p_s=1.0)
            assert probe.sim_counts == probe.census_counts, (
                f"{protocol.value}/{variant.value} seed {seed}: "
                f"{probe.sim_counts} != {probe.census_counts}")
            checked += len(probe.census_counts)
    elapsed = time.perf_counter() - start
    _verdict("criterion-3 analytic/simulation cross-check", elapsed < 30.0,
             f"{checked} rings on 20 topologies x 6 cells match exactly, "
             f"{elapsed:.1f}s")


# ------------------------------------------------------------- criterion 4

def test_criterion_retry_intervals():
    seed = _connected_seeds(1)[0]
    worst = 0.0
    for protocol, variant in ALL_CELLS:
        probe = probe_discovery(protocol, variant, seed, n_nodes=50,
                                arena=DENSE_ARENA, p_s=1.0)
        intervals = [b - a for a, b in zip(probe.emit_times,
                                           probe.emit_times[1:])]
        assert len(intervals) == len(probe.waits) - 1
        for interval, wait in zip(intervals, probe.waits):
            worst = max(worst, abs(interval - wait))
    _verdict("criterion-4 retry wait times", worst <= 1e-6,
             f"max deviation {worst:.2e}s across all six cells")


# ------------------------------------------------------------- criterion 5

def _directional_cell(task):
    protocol, variant, seed, radio_range = task
    cfg = RunConfig(protocol=protocol, variant=variant, seed=seed,
                    duration=300.0, warmup=50.0, v_max=30.0, pause_time=0.0,
                    arena=Arena(1000.0, 1000.0, radio_range))
    metrics = Engine(cfg).run()
    return (protocol.value, variant.value, seed, radio_range,
            compute_throughput(metrics, 250.0), compute_e2ed(metrics),
            compute_nrl(metrics))


def test_criterion_directional_reproduction():
    start = time.perf_counter()
    dense = [(p, v, s, DENSE_ARENA.radio_range)
             for p, v in ALL_CELLS for s in SEEDS]
    sparse = [(Protocol.DYMO, v, s, SPARSE_ARENA.radio_range)
              for v in Variant for s in SEEDS]
    with Pool(2) as pool:
        results = pool.map(_directional_cell, dense + sparse)
    table = {(p, v, s, r): (thr, e2ed, nrl)
             for p, v, s, r, thr, e2ed, nrl in results}

    def wins(protocol, radio, metric_index, improved):
        count = 0
        for seed in SEEDS:
            ers1 = table[(protocol, "ers1", seed, radio)][metric_index]
            ers2 = table[(protocol, "ers2", seed, radio)][metric_index]
            if ers1 is not None and ers2 is not None and improved(ers2, ers1):
                count += 1
        return count

    a = wins("aodv", 250.0, 2, lambda b, x: b < x)
    b_sparse = wins("dymo", 180.0, 0, lambda b, x: b > x)
    b_dense = wins("dymo", 250.0, 0, lambda b, x: b > x)
    c = wins("dsr", 250.0, 1, lambda b, x: b < x)
    elapsed = time.perf_counter() - start

    print(f"\n  (a) aodv nrl improved:        {a}/10 seeds (dense)")
    print(f"  (b) dymo throughput improved: {b_sparse}/10 seeds (sparse); "
          f"dense point gives {b_dense}/10 (delivery at ceiling, "
          f"differences sub-noise)")
    print(f"  (c) dsr e2ed improved:        {c}/10 seeds (dense)")
    print(f"  wall time {elapsed:.0f}s")

    ok = a >= 7 and b_sparse >= 7 and c >= 7 and elapsed < 600.0
    _verdict("criterion-5 directional reproduction", ok,
             f"a={a}/10 b={b_sparse}/10 c={c}/10 in {elapsed:.0f}s")


# ------------------------------------------------------------- criterion 6

def test_criterion_sweep_determinism():
    scenario = ScenarioConfig(nodes=12, arena_width=600.0, arena_height=600.0,
                              radio_range=180.0, v_max=10.0,
                              pause_times=(0.0, 5.0), duration=10.0,
                              warmup=1.0, traffic_pairs=3, traffic_rate=2.0,
                              protocols=(Protocol.AODV, Protocol.DSR),
                              variants=(Variant.ERS1, Variant.ERS2),
                              seeds=(1, 2))
    first = rows_to_csv_text(run_sweep(scenario))
    second = rows_to_csv_text(run_sweep(scenario, parallel=2))
    _verdict("criterion-6 determinism", first == second,
             f"{len(first.splitlines()) - 1} rows byte-identical across "
             "repeated (and parallel) sweeps")


# ------------------------------------------------------------- criterion 7

def _random_run(index):
    rng = random.Random(5000 + index)
    protocol = rng.choice(list(Protocol))
    variant = rng.choice(list(Variant))
    cfg = RunConfig(
        protocol=protocol, variant=variant,
        n_nodes=rng.randint(14, 24),
        arena=Arena(rng.uniform(450, 700), rng.uniform(450, 700),
                    rng.uniform(140, 220)),
        v_max=rng.choice([0.0, 10.0, 30.0]),
        pause_time=rng.choice([0.0, 5.0]),
        duration=rng.uniform(8.0, 12.0), warmup=0.0,
        traffic_pairs=3, traffic_rate=2.0,
        p_s=rng.choice([1.0, 0.7]),
        seed=index, trace=True)
    engine = Engine(cfg)
    metrics = engine.run()
    return cfg, engine, metrics


def test_criterion_property_suites(monkeypatch):
    insert = RouteCache.insert
    inserts = 0

    def capped_insert(cache, route):
        nonlocal inserts
        insert(cache, route)
        inserts += 1
        assert len(cache) <= cache.capacity, \
            f"cache of {len(cache)} routes over its capacity {cache.capacity}"

    monkeypatch.setattr(RouteCache, "insert", capped_insert)
    runs = 100
    for index in range(runs):
        inserts_before = inserts
        cfg, engine, metrics = _random_run(index)

        seen = set()
        for record in engine.trace:
            t, kind, node, pkt_kind, src, dst, ttl, request = record
            if kind != "send" or pkt_kind != "RREQ":
                continue
            req_id, ring_ttl = request
            key = (node, src, req_id)
            assert key not in seen, f"run {index}: duplicate rebroadcast {key}"
            seen.add(key)
            assert 0 <= ttl <= ring_ttl, \
                f"run {index}: ttl {ttl} outside ring bound {ring_ttl}"

        accounted = (metrics.data_delivered + sum(metrics.drops.values())
                     + metrics.data_inflight_end)
        assert accounted == metrics.data_sent, f"run {index}: leaked packets"

        if cfg.protocol is Protocol.DSR:
            # the spy checked the bound after each insert; it saw this run's
            assert inserts > inserts_before, f"run {index}: no cache insert"
            cap = engine.params.tap_cache_size
            assert all(node.cache.capacity == cap for node in engine.nodes)

    _verdict("criterion-7 property suites", True,
             f"{runs} randomized runs: duplicate suppression, TTL bounds, "
             "packet conservation, cache capacity all hold")
