"""Event engine tests: link model, metrics, determinism, trace recounts."""

import hashlib
import heapq
import math
import weakref

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
from ringsim.packets import BROADCAST, Packet
from ringsim.protocols import Node, RouteCache
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
                  if r[1] == "send" and r[3] != "DATA"
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


def test_format_trace_renders_request_fields():
    """A request send carries ints; format_trace alone turns them into text."""
    records = [(1.5, "send", 4, "RREQ", 2, 9, 3, (7, 4)),
               (1.5, "recv", 5, "RREQ", 2, 9, 3, "-")]
    assert format_trace(records) == ("    1.500000 send 4 RREQ 2 9 3 q2.7r4\n"
                                     "    1.500000 recv 5 RREQ 2 9 3 -\n")


def test_data_drop_trace_names_dropping_node():
    """Out of range of each other, the source's discoveries fail, and each
    drop of its parked data is traced at the source, not the destination."""
    engine = Engine(static_config(protocol=Protocol.DSR, duration=3.0,
                                  arena=Arena(1000.0, 1000.0, 10.0)))
    metrics = engine.run()
    drops = [r for r in engine.trace if r[1] == "drop" and r[3] == "DATA"]
    assert len(drops) == metrics.drops["discovery_failed"] > 0
    assert all(r[7] == "discovery_failed" and r[2] == r[4] != r[5]
               for r in drops)


@pytest.mark.parametrize("protocol", list(Protocol))
def test_data_drop_lines_match_drop_counters(protocol):
    """A failed hand-off is traced as a fail, not a drop: the node may still
    salvage or re-queue the packet.  So with no warmup, the trace has one
    data drop line per counted drop."""
    cfg = RunConfig(protocol=protocol, n_nodes=30,
                    arena=Arena(800.0, 800.0, 180.0), v_max=20.0,
                    duration=20.0, warmup=0.0, traffic_pairs=5, seed=3,
                    trace=True)
    engine = Engine(cfg)
    metrics = engine.run()
    drops = [r for r in engine.trace if r[1] == "drop" and r[3] == "DATA"]
    assert any(r[1] == "fail" and r[3] == "DATA" for r in engine.trace)
    assert len(drops) == sum(metrics.drops.values()) > 0


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
def test_duplicate_requests_reach_engine_only_when_traced(trace, monkeypatch):
    """An untraced run makes no record call at all.  A traced run writes
    every trace line through record: one per duplicate line of its trace,
    and one recv record per on_packet call."""
    records, receptions = [], []
    record, on_packet = Engine.record, Node.on_packet

    def record_spy(self, kind, node, pkt, reason):
        records.append((kind, reason))
        record(self, kind, node, pkt, reason)

    def on_packet_spy(self, pkt, frm):
        receptions.append(pkt)
        on_packet(self, pkt, frm)

    monkeypatch.setattr(Engine, "record", record_spy)
    monkeypatch.setattr(Node, "on_packet", on_packet_spy)
    cfg = static_config(protocol=Protocol.DYMO, n_nodes=20,
                        arena=Arena(600.0, 600.0, 200.0), traffic_pairs=3,
                        duration=5.0, trace=trace)
    engine = Engine(cfg)
    metrics = engine.run()
    assert metrics.control_tx["RREQ"] > 0
    assert receptions
    if trace:
        duplicates = [r for r in engine.trace if r[7] == "duplicate"]
        assert duplicates
        assert records.count(("drop", "duplicate")) == len(duplicates)
        assert records.count(("recv", "-")) == len(receptions)
        assert len(records) == len(engine.trace)
    else:
        assert records == []


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
    fails = [r for r in engine.trace if r[1] == "fail" and r[7] == "link_fail"]
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


def two_node_config(protocol=Protocol.AODV):
    """A 2-node static run whose one flow delivers data."""
    return RunConfig(protocol=protocol, n_nodes=2,
                     arena=Arena(100.0, 100.0, 250.0), v_max=0.0,
                     duration=2.0, traffic_pairs=1)


def swallow_data_at_destination(monkeypatch):
    """Make a destination drop its data unseen: the run's books then do not
    balance."""
    handle_data = Node._handle_data

    def swallow(self, pkt, frm):
        if self.nid != pkt.dst:
            handle_data(self, pkt, frm)

    monkeypatch.setattr(Node, "_handle_data", swallow)


@pytest.mark.parametrize("protocol", list(Protocol))
def test_run_checks_packet_conservation(protocol, monkeypatch):
    """A bare run whose destination swallows its data raises: the engine
    checks its own books at the end of every run."""
    cfg = two_node_config(protocol)
    assert Engine(cfg).run().data_delivered > 0
    swallow_data_at_destination(monkeypatch)
    with pytest.raises(RuntimeError, match="packet conservation violated"):
        Engine(cfg).run()


def test_failed_conservation_check_frees_engine(monkeypatch,
                                                no_cycle_collector):
    """The check drops the events left past duration before it raises, so
    an engine whose check failed is freed as soon as its last reference
    goes."""
    swallow_data_at_destination(monkeypatch)
    engine = Engine(two_node_config())
    # not pytest.raises: its record of the traceback would hold the engine
    try:
        engine.run()
    except RuntimeError as err:
        message = str(err)
    else:
        pytest.fail("the unbalanced run did not raise")
    assert "packet conservation violated" in message
    ref = weakref.ref(engine)
    del engine
    assert ref() is None


@pytest.mark.parametrize("protocol", list(Protocol))
def test_lost_delivery_fails_conservation(protocol, monkeypatch):
    """A data delivery that drops out of the event queue leaves its packet
    held nowhere, so the run raises: only a pending delivery counts a packet
    as on the link."""
    schedule_in = Engine.schedule_in
    lost = []

    def lose_first_data_event(self, delay, fn, *args):
        if not lost and any(isinstance(arg, Packet) and arg.kind == "DATA"
                            for arg in args):
            lost.append(args)
            return
        schedule_in(self, delay, fn, *args)

    monkeypatch.setattr(Engine, "schedule_in", lose_first_data_event)
    with pytest.raises(RuntimeError, match="packet conservation violated"):
        Engine(two_node_config(protocol)).run()
    assert lost


@pytest.mark.parametrize("protocol", list(Protocol))
def test_on_link_count_matches_send_deliver_ledger(protocol, monkeypatch):
    """Differential: the data the engine finds in its pending on_packet
    events equals a ledger that adds each data unicast handed to the link
    and removes it when the next hop's on_packet runs."""
    send, on_packet = Engine.send, Node.on_packet
    ledger = set()

    def ledger_send(self, sender, pkt, next_hop=None):
        if pkt.kind == "DATA" and next_hop in self.neighbor_lists[sender]:
            ledger.add(pkt)
        send(self, sender, pkt, next_hop)

    def ledger_on_packet(self, pkt, frm):
        if pkt.kind == "DATA":
            ledger.remove(pkt)
        on_packet(self, pkt, frm)

    monkeypatch.setattr(Engine, "send", ledger_send)
    monkeypatch.setattr(Node, "on_packet", ledger_on_packet)
    on_link_ends = []
    for seed in range(1, 7):
        ledger.clear()
        cfg = RunConfig(protocol=protocol, n_nodes=20,
                        arena=Arena(600.0, 600.0, 200.0), v_max=20.0,
                        duration=10.0, warmup=1.0, traffic_pairs=6,
                        traffic_rate=8.0, seed=seed)
        engine = Engine(cfg)
        metrics = engine.run()
        queued = [pkt for node in engine.nodes
                  for pkt in node.pending_data_packets()]
        assert metrics.data_inflight_end == sum(
            pkt.created_at >= cfg.warmup for pkt in [*queued, *ledger])
        on_link_ends.append(len(ledger))
    if protocol is Protocol.DSR:
        assert any(on_link_ends), "no DSR run ended with data on the link"


def remove_link(engine, a, b):
    """Force a link down by giving both ends new neighbor rows without it;
    the next mobility recompute would undo it."""
    rows = list(engine.neighbor_lists)
    for u, v in ((a, b), (b, a)):
        rows[u] = tuple(w for w in rows[u] if w != v)
    engine.neighbor_lists = rows


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
    _, engine.neighbor_lists = unit_disk_neighbors(line, cfg.arena.radio_range)

    src, dst = engine.nodes[0], 4

    def send_one():
        from ringsim.packets import DataInfo, Packet
        pkt = Packet("DATA", 512, 0, dst, 64, engine.now, DataInfo())
        engine.metrics.data_sent += 1
        src.send_data(pkt)

    engine.schedule_in(0.0, send_one)
    engine.schedule_in(2.0, remove_link, engine, 2, 3)
    engine.schedule_in(2.5, send_one)
    metrics = engine.run()
    assert metrics.data_delivered >= 1
    rerrs = [r for r in engine.trace if r[1] == "send" and r[3] == "RERR"]
    assert rerrs, "broken source route must produce a route error"
    assert engine.nodes[0].cache.lookup(4) is None \
        or (2, 3) not in zip(engine.nodes[0].cache.lookup(4),
                             engine.nodes[0].cache.lookup(4)[1:])
    assert metrics.discovery_success >= 1


def test_cache_capacity_holds_while_caches_evict(monkeypatch):
    """Every insert of every DSR node leaves its cache within capacity, in a
    mobile run whose small caches fill and evict (the default 256 and 1024
    routes do not fill in a short run)."""
    insert = RouteCache.insert
    filled = set()

    def capped_insert(cache, route):
        insert(cache, route)
        assert len(cache) <= cache.capacity
        if len(cache) == cache.capacity:
            filled.add(cache.owner)

    monkeypatch.setattr(RouteCache, "insert", capped_insert)
    cfg = RunConfig(protocol=Protocol.DSR, variant=Variant.ERS2, n_nodes=20,
                    arena=Arena(600.0, 600.0, 200.0), v_max=20.0,
                    duration=10.0, traffic_pairs=6, traffic_rate=8.0, seed=1)
    engine = Engine(cfg)
    for node in engine.nodes:
        node.cache = RouteCache(4, node.nid)
    engine.run()
    assert len(filled) > cfg.n_nodes // 2


# Recorded on CPython 3.11.7 with numpy 2.4.6.  Any change to what a run
# sends, drops, delivers or counts moves this hash; a refactor must not.
# Re-recorded (was 613f7cf0…607f41) when data-drop trace lines began naming
# the node that dropped the packet instead of its destination; only the node
# column of those lines changed, and repr(metrics) is the same in every cell.
# Re-recorded (was dbffb8a1…f3c3d6) when MetricsRecord lost its count of
# requests received with a negative TTL, which no run could raise:
# repr(metrics) lost that field, always 0, in every cell, and nothing else
# changed.
# Re-recorded (was 2d8a74a8…dfbe252) when a unicast whose next hop has gone
# began to be traced as "fail … link_fail", not "drop … link_fail": only the
# kind column of those lines changed.
GOLDEN_SHA256 = "f029d3c6d7252ba86c6ff6b117e4903800efb10127a669c6d28426002276bed6"


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
# Re-recorded (was 82f77e2a…742580) with GOLDEN_SHA256, for the same reason,
# and again (was dc8dfada…c84658) with it when that counter went, and
# (was 6945ef19…f46a41) when failed hand-offs became "fail" lines.
GOLDEN_MOBILITY_SHA256 = (
    "c1b84194b460efad1454497af8b7aca16ff2b6f8ef8b45fa15496e63d7abf9c3")


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


@pytest.mark.parametrize("protocol", list(Protocol))
@pytest.mark.parametrize("mobile", [False, True], ids=["static", "mobile"])
def test_finished_engine_freed_without_cycle_collector(protocol, mobile,
                                                       no_cycle_collector):
    """Nodes hold a weak proxy of their engine and run() drops the events
    left past duration, so dropping a finished engine frees it at once; a
    node kept past its engine raises ReferenceError."""
    if mobile:
        cfg = RunConfig(protocol=protocol, n_nodes=12,
                        arena=Arena(500.0, 500.0, 200.0), v_max=10.0,
                        duration=8.0, warmup=1.0, traffic_pairs=3, seed=2,
                        trace=True)
    else:
        cfg = static_config(protocol=protocol, n_nodes=12, traffic_pairs=0,
                            trace=False)
    engine = Engine(cfg)
    engine.run()
    node = engine.nodes[0]
    ref = weakref.ref(engine)
    del engine
    assert ref() is None
    with pytest.raises(ReferenceError):
        node.engine.now
