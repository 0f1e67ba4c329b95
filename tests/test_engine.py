"""Event engine tests: link model, metrics, determinism, trace recounts."""

import hashlib
import heapq
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringsim.analytics import Protocol, Variant
from ringsim.engine import (
    Engine,
    MetricsRecord,
    RunConfig,
    compute_e2ed,
    compute_nrl,
    compute_throughput,
    format_trace,
)
from ringsim.packets import BROADCAST, CONTROL_KINDS, Packet
from ringsim.topology import Arena


def static_config(**overrides):
    base = dict(protocol=Protocol.AODV, variant=Variant.ERS1, n_nodes=2,
                arena=Arena(1000.0, 1000.0, 250.0), v_max=0.0, pause_time=0.0,
                duration=10.0, warmup=0.0, traffic_pairs=1, traffic_rate=4.0,
                seed=1, trace=True)
    base.update(overrides)
    return RunConfig(**base)


def test_link_model_serialization_delay():
    # a silent DSR pair: the only event is the one broadcast sent below
    engine = Engine(static_config(protocol=Protocol.DSR,
                                  arena=Arena(100.0, 100.0, 250.0),
                                  traffic_pairs=0, duration=1.0))
    arrivals = []
    engine.nodes[1].on_packet = lambda pkt, frm: arrivals.append(engine.now)
    hello = Packet("HELLO", 512, 0, BROADCAST, 1, 0.0)
    engine.schedule_in(0.0, engine.send, 0, hello)
    engine.run()
    assert arrivals == [512 * 8 / 2_000_000.0 + 0.001]
    assert arrivals[0] == pytest.approx(0.003048)


def test_config_validation_messages():
    with pytest.raises(ValueError, match="warmup"):
        RunConfig(duration=5.0, warmup=6.0)
    with pytest.raises(ValueError, match="p_s"):
        RunConfig(p_s=1.5)
    with pytest.raises(ValueError, match="n_nodes"):
        RunConfig(n_nodes=0)


def test_broadcast_reaches_all_neighbors():
    # five nodes in range of each other: one hello fans out to four deliveries
    cfg = static_config(n_nodes=5, arena=Arena(50.0, 50.0, 100.0),
                        traffic_pairs=0, duration=1.05)
    engine = Engine(cfg)
    engine.run()
    sends = [r for r in engine.trace if r[1] == "send" and r[3] == "HELLO"]
    recvs = [r for r in engine.trace if r[1] == "recv" and r[3] == "HELLO"]
    assert len(sends) >= 5
    assert len(recvs) == 4 * len(sends)


def test_two_node_flow_delivers_everything():
    cfg = static_config(arena=Arena(100.0, 100.0, 250.0), duration=10.0)
    engine = Engine(cfg)
    metrics = engine.run()
    assert metrics.data_sent > 0
    assert metrics.drops == {}
    assert metrics.data_delivered + metrics.data_inflight_end == metrics.data_sent
    assert metrics.data_inflight_end <= 1
    assert metrics.discovery_success == 1


def test_zero_traffic_run():
    cfg = static_config(traffic_pairs=0, duration=5.0)
    metrics = Engine(cfg).run()
    assert metrics.data_sent == 0
    assert metrics.data_delivered == 0
    assert metrics.control_tx.get("HELLO", 0) > 0
    assert compute_e2ed(metrics) is None
    assert compute_nrl(metrics) is None


def test_zero_traffic_dsr_is_silent():
    cfg = static_config(protocol=Protocol.DSR, traffic_pairs=0, duration=5.0)
    metrics = Engine(cfg).run()
    assert metrics.control_total == 0


def test_same_seed_same_metrics():
    cfg = RunConfig(protocol=Protocol.DYMO, variant=Variant.ERS2, n_nodes=20,
                    arena=Arena(600.0, 600.0, 180.0), v_max=15.0,
                    pause_time=1.0, duration=12.0, warmup=0.0,
                    traffic_pairs=4, seed=5)
    assert Engine(cfg).run() == Engine(cfg).run()


def test_different_seed_differs():
    base = dict(protocol=Protocol.DYMO, variant=Variant.ERS2, n_nodes=20,
                arena=Arena(600.0, 600.0, 180.0), v_max=15.0, pause_time=1.0,
                duration=12.0, warmup=0.0, traffic_pairs=4)
    a = Engine(RunConfig(seed=5, **base)).run()
    b = Engine(RunConfig(seed=6, **base)).run()
    assert a != b


# --------------------------------------------------------------- event queue

def silent_engine(duration):
    """An engine whose run schedules nothing of its own (DSR, no traffic)."""
    return Engine(static_config(protocol=Protocol.DSR, n_nodes=1,
                                traffic_pairs=0, duration=duration,
                                trace=False))


def test_schedule_in_rejects_negative_delay():
    engine = silent_engine(1.0)
    with pytest.raises(ValueError, match="past"):
        engine.schedule_in(-1e-9, lambda: None)


def test_event_at_duration_runs_and_later_one_does_not():
    engine = silent_engine(1.0)
    ran = []
    engine.schedule_in(1.0, ran.append, "at")
    engine.schedule_in(math.nextafter(1.0, math.inf), ran.append, "after")
    engine.run()
    assert ran == ["at"]
    assert engine.now == 1.0


def test_same_time_events_run_in_scheduling_order():
    engine = silent_engine(1.0)
    ran = []

    def first():
        ran.append(("a", engine.now))
        engine.schedule_in(0.0, lambda: ran.append(("d", engine.now)))
        engine.schedule_in(1e-17, lambda: ran.append(("e", engine.now)))

    engine.schedule_in(0.5, first)
    engine.schedule_in(0.5, lambda: ran.append(("b", engine.now)))
    engine.schedule_in(0.25, lambda: engine.schedule_in(
        0.25, lambda: ran.append(("c", engine.now))))
    engine.run()
    assert ran == [(name, 0.5) for name in "abcde"]


class _HeapQueue:
    """Plain reference event queue: one heap entry (time, seq, fn, args) per
    scheduled callback, popped while its time is within the duration."""

    def __init__(self, duration):
        self.duration = duration
        self.now = 0.0
        self._heap = []
        self._seq = 0

    def schedule_in(self, delay, fn, *args):
        heapq.heappush(self._heap, (self.now + delay, self._seq, fn, args))
        self._seq += 1

    def run(self):
        while self._heap and self._heap[0][0] <= self.duration:
            self.now, _, fn, args = heapq.heappop(self._heap)
            fn(*args)


_QUEUE_DURATION = 0.75

# how an event picks its delay; "tie" lands on a time scheduled earlier,
# "end" on the duration itself and "past" one ulp beyond it
_DELAY_KIND = st.sampled_from(
    ["zero", "tiny", "tenth", "quarter", "tie", "end", "past"])

# an event is (delay kind, tie pick, events it schedules when it runs)
_EVENT = st.recursive(
    st.tuples(_DELAY_KIND, st.integers(0, 15), st.just(())),
    lambda inner: st.tuples(_DELAY_KIND, st.integers(0, 15),
                            st.lists(inner, max_size=3).map(tuple)),
    max_leaves=30)


def _dispatch_log(queue, program):
    """Run `program` on `queue`; return (label, now) for every dispatch."""
    log = []
    times = [0.0]   # every time scheduled so far

    def delay_for(kind, pick):
        now = queue.now
        if kind == "tie":
            ahead = [t for t in times if t >= now]
            return ahead[pick % len(ahead)] - now
        if kind == "end":
            return _QUEUE_DURATION - now
        if kind == "past":
            return math.nextafter(_QUEUE_DURATION, math.inf) - now
        return {"zero": 0.0, "tiny": 1e-17, "tenth": 0.1, "quarter": 0.25}[kind]

    def schedule(event):
        kind, pick, children = event
        delay = delay_for(kind, pick)
        label = len(times)
        times.append(queue.now + delay)
        queue.schedule_in(delay, fire, label, children)

    def fire(label, children):
        log.append((label, queue.now))
        for child in children:
            schedule(child)

    for event in program:
        schedule(event)
    queue.run()
    return log


@settings(max_examples=300)
@given(program=st.lists(_EVENT, min_size=1, max_size=6))
def test_engine_queue_matches_heap_reference(program):
    engine_log = _dispatch_log(silent_engine(_QUEUE_DURATION), program)
    assert engine_log == _dispatch_log(_HeapQueue(_QUEUE_DURATION), program)


# ------------------------------------------------------------------- metrics

def test_throughput_definition():
    metrics = MetricsRecord(data_bytes_delivered=1000 * 512)
    assert compute_throughput(metrics, 100.0) == 40960.0
    assert compute_throughput(MetricsRecord(), 100.0) == 0.0
    with pytest.raises(ValueError):
        compute_throughput(metrics, 0.0)


def test_throughput_linear():
    single = MetricsRecord(data_bytes_delivered=512)
    double = MetricsRecord(data_bytes_delivered=1024)
    assert compute_throughput(double, 10.0) == 2 * compute_throughput(single, 10.0)


def test_e2ed_mean_and_undefined():
    assert compute_e2ed(MetricsRecord(delays=[0.32])) == 0.32
    assert compute_e2ed(MetricsRecord(delays=[0.1, 0.3])) == pytest.approx(0.2)
    assert compute_e2ed(MetricsRecord()) is None


def test_nrl_definition():
    metrics = MetricsRecord(data_delivered=5, control_tx={"RREQ": 7, "RREP": 3})
    assert compute_nrl(metrics) == 2.0
    assert compute_nrl(MetricsRecord(data_delivered=4)) == 0.0
    assert compute_nrl(MetricsRecord(control_tx={"RREQ": 9})) is None


def test_nrl_matches_trace_recount():
    cfg = RunConfig(protocol=Protocol.AODV, variant=Variant.ERS1, n_nodes=5,
                    arena=Arena(400.0, 100.0, 120.0), v_max=0.0, pause_time=0.0,
                    duration=12.0, warmup=2.0, traffic_pairs=2, seed=3,
                    trace=True)
    engine = Engine(cfg)
    metrics = engine.run()
    recount = sum(1 for r in engine.trace
                  if r[1] == "send" and r[3] in CONTROL_KINDS
                  and r[0] >= cfg.warmup)
    assert recount == metrics.control_total


def test_trace_is_causal_and_formattable():
    cfg = static_config(duration=3.0)
    engine = Engine(cfg)
    engine.run()
    times = [r[0] for r in engine.trace]
    assert times == sorted(times)
    text = format_trace(engine.trace)
    line = text.splitlines()[0]
    assert len(line.split()) == 8


def test_unicast_to_departed_neighbor_triggers_recovery():
    # nodes parked out of range; a fabricated route forces a unicast failure
    cfg = static_config(arena=Arena(1000.0, 1000.0, 50.0), traffic_pairs=1,
                        duration=2.0)
    engine = Engine(cfg)
    from ringsim.protocols import RouteEntry
    for nid, other in ((0, 1), (1, 0)):
        engine.nodes[nid].routes[other] = RouteEntry(
            next_hop=other, hop_count=1, valid_until=99.0, seq=1,
            seq_valid=True)
    metrics = engine.run()
    rreqs = [r for r in engine.trace if r[1] == "send" and r[3] == "RREQ"]
    fails = [r for r in engine.trace if r[1] == "drop" and r[7] == "link_fail"]
    assert fails, "the dead unicast must surface as a link failure"
    assert rreqs, "a discovery must follow the failed unicast"
    assert metrics.data_delivered == 0


def test_data_conservation_under_churn():
    for seed in range(4):
        cfg = RunConfig(protocol=Protocol.DYMO, variant=Variant.ERS1,
                        n_nodes=18, arena=Arena(700.0, 700.0, 170.0),
                        v_max=25.0, pause_time=0.0, duration=15.0, warmup=0.0,
                        traffic_pairs=4, seed=seed)
        metrics = Engine(cfg).run()
        accounted = (metrics.data_delivered + sum(metrics.drops.values())
                     + metrics.data_inflight_end)
        assert accounted == metrics.data_sent


def remove_link(engine, a, b):
    """Force a link down by editing the neighbor lists in place; the next
    mobility recompute would undo it."""
    for u, v in ((a, b), (b, a)):
        if v in engine.neighbor_lists[u]:
            engine.neighbor_lists[u].remove(v)


def test_remove_link_is_symmetric():
    cfg = static_config(arena=Arena(100.0, 100.0, 250.0), traffic_pairs=0)
    engine = Engine(cfg)
    assert 1 in engine.neighbor_lists[0]
    remove_link(engine, 0, 1)
    assert 1 not in engine.neighbor_lists[0]
    assert 0 not in engine.neighbor_lists[1]


def test_stale_cache_purged_after_mid_run_break():
    # line topology; the 2-3 link dies mid-run, forcing an error + cache purge
    cfg = RunConfig(protocol=Protocol.DSR, variant=Variant.ERS1, n_nodes=5,
                    arena=Arena(500.0, 100.0, 130.0), v_max=0.0,
                    pause_time=0.0, duration=8.0, warmup=0.0, traffic_pairs=0,
                    seed=1, trace=True)
    engine = Engine(cfg)
    line = [(i * 100.0 + 10.0, 50.0) for i in range(5)]
    from ringsim.topology import unit_disk_neighbors
    engine.neighbor_lists = unit_disk_neighbors(line, cfg.arena.radio_range)

    src, dst = engine.nodes[0], 4
    uid = [0]

    def send_one():
        from ringsim.packets import DataInfo, Packet
        pkt = Packet("DATA", 512, 0, dst, 64, engine.now,
                     DataInfo(uid=uid[0]))
        uid[0] += 1
        engine.metrics.data_sent += 1
        src.send_data(pkt)

    engine.schedule_in(0.0, send_one)
    engine.schedule_in(2.0, remove_link, engine, 2, 3)
    engine.schedule_in(2.5, send_one)
    metrics = engine.run()
    assert metrics.data_delivered >= 1
    rerrs = [r for r in engine.trace if r[1] == "send" and r[3] == "RERR"]
    assert rerrs, "broken source route must produce a route error"
    assert engine.nodes[0].cache.lookup(0, 4) is None \
        or (2, 3) not in zip(engine.nodes[0].cache.lookup(0, 4),
                             engine.nodes[0].cache.lookup(0, 4)[1:])
    assert metrics.discovery_success >= 1


# Recorded on CPython 3.11.7 with numpy 2.4.6.  Any change to what a run
# sends, drops, delivers or counts moves this hash; a refactor must not.
GOLDEN_SHA256 = "613f7cf078ea5ce7c7f3c322fdcb34dcd35a092ea4d0ed95845e008f1c607f41"


def test_golden_exact_output():
    digest = hashlib.sha256()
    for protocol in Protocol:
        for variant in Variant:
            for radio_range in (250.0, 180.0):
                cfg = RunConfig(protocol=protocol, variant=variant, n_nodes=30,
                                arena=Arena(800.0, 800.0, radio_range),
                                v_max=20.0, pause_time=0.0, duration=20.0,
                                warmup=2.0, traffic_pairs=5, traffic_rate=4.0,
                                seed=3, trace=True)
                engine = Engine(cfg)
                metrics = engine.run()
                digest.update(format_trace(engine.trace).encode())
                digest.update(repr(metrics).encode())
    assert digest.hexdigest() == GOLDEN_SHA256


# Recorded like GOLDEN_SHA256.  Paused random-waypoint motion: small arena
# and fast nodes, so every run has arrivals, pause countdowns and expiries.
GOLDEN_MOBILITY_SHA256 = (
    "82f77e2a38db379c83fdda1a422029ac5cd7a6001d9f03a446748df0f8742580")


def test_golden_mobility_output():
    digest = hashlib.sha256()
    for protocol in Protocol:
        for pause_time in (0.3, 1.0, 5.0):
            for seed in (1, 2):
                cfg = RunConfig(protocol=protocol, variant=Variant.ERS1,
                                n_nodes=30, arena=Arena(500.0, 500.0, 150.0),
                                v_max=30.0, pause_time=pause_time,
                                duration=20.0, warmup=2.0, traffic_pairs=5,
                                traffic_rate=4.0, seed=seed, trace=True)
                engine = Engine(cfg)
                metrics = engine.run()
                digest.update(format_trace(engine.trace).encode())
                digest.update(repr(metrics).encode())
    assert digest.hexdigest() == GOLDEN_MOBILITY_SHA256
