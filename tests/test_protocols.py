"""Protocol state-machine tests driven by a recording fake engine."""

import inspect
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringsim.analytics import Protocol, Variant, default_params
from ringsim.engine import Engine, RunConfig
from ringsim.packets import DataInfo, Packet, RreqInfo, RrepInfo
from ringsim.protocols import (
    HELLO_INTERVAL,
    NODE_CLASSES,
    ROUTE_LIFETIME,
    AodvNode,
    HopByHopNode,
    Node,
    RouteCache,
    SourceRouteNode,
)
from ringsim.topology import Arena


class FakeEngine:
    """Records what a node asks of its engine; mirrors ``Engine``'s API."""

    def __init__(self, trace=False):
        self.now = 0.0
        self.trace = [] if trace else None
        self.sent = []        # (sender, packet, next_hop)
        self.timers = []      # (delay, fn, args)
        self.data_drops = []  # (node, packet, reason)
        self.delivered = []
        self.finished = []    # success flags
        self.records = []     # (kind, node, packet, reason)

    def send(self, sender, pkt, next_hop=None):
        self.sent.append((sender, pkt, next_hop))

    def schedule_in(self, delay, fn, *args):
        self.timers.append((delay, fn, args))

    def forward_coin(self):
        return True

    def data_delivered(self, pkt):
        self.delivered.append(pkt)

    def drop_data(self, node, pkt, reason):
        self.data_drops.append((node, pkt, reason))

    def discovery_finished(self, success):
        self.finished.append(success)

    def record(self, kind, node, pkt, reason):
        self.records.append((kind, node, pkt, reason))


def sent_kinds(engine):
    return [pkt.kind for _, pkt, _ in engine.sent]


@pytest.mark.parametrize("name", [name for name in vars(FakeEngine)
                                  if not name.startswith("_")])
def test_fake_engine_mirrors_engine(name):
    """Each public FakeEngine method exists on Engine with the same
    parameter names, so the fake cannot keep an API the engine dropped."""
    assert callable(getattr(Engine, name, None)), name
    fake = inspect.signature(getattr(FakeEngine, name)).parameters
    real = inspect.signature(getattr(Engine, name)).parameters
    assert list(fake) == list(real)


def make_node(protocol, variant, nid=0, trace=False):
    engine = FakeEngine(trace)
    params = default_params(protocol, variant)
    node = NODE_CLASSES[protocol](nid, variant, params, engine)
    return node, engine


def data_packet(src, dst):
    return Packet("DATA", 512, src, dst, 64, 0.0, DataInfo())


def rreq_packet(orig, target, req_id, ttl, route=(), orig_seq=1, ring_ttl=None):
    info = RreqInfo(req_id=req_id,
                    ring_ttl=ring_ttl if ring_ttl is not None else ttl,
                    orig_seq=orig_seq, route=route)
    return Packet("RREQ", 64, orig, target, ttl, 0.0, info)


# ------------------------------------------------------------ ring sequences

def test_discovery_rings_extend_dsr_retries():
    assert SourceRouteNode.discovery_rings(Variant.ERS1) == (1, 255, 255, 255)
    assert AodvNode.discovery_rings(Variant.ERS1) == (2, 4, 6, 35, 35, 35)


def test_ring_wait_values():
    aodv = default_params(Protocol.AODV, Variant.ERS1)
    assert AodvNode.ring_wait(aodv, 0, 2) == 0.32
    # the network traversal budget caps deep rings
    assert AodvNode.ring_wait(aodv, 3, 35) == pytest.approx(2.96)
    aodv2 = default_params(Protocol.AODV, Variant.ERS2)
    assert AodvNode.ring_wait(aodv2, 3, 35) == 1.1
    dsr = default_params(Protocol.DSR, Variant.ERS1)
    assert [SourceRouteNode.ring_wait(dsr, i, 255) for i in range(3)] \
        == [0.030, 0.060, 0.120]


# ----------------------------------------------------------------- discovery

def test_initiate_discovery_first_ring():
    node, engine = make_node(Protocol.AODV, Variant.ERS1)
    node.send_data(data_packet(0, 7))
    assert sent_kinds(engine) == ["RREQ"]
    _, rreq, next_hop = engine.sent[0]
    assert next_hop is None
    assert rreq.ttl == 2
    assert rreq.info.ring_ttl == 2
    delay, _, _ = engine.timers[0]
    assert delay == 0.32


def test_initiate_discovery_dsr_enhanced():
    node, engine = make_node(Protocol.DSR, Variant.ERS2)
    node.send_data(data_packet(0, 7))
    _, rreq, _ = engine.sent[0]
    assert rreq.ttl == 3
    assert engine.timers[0][0] == 0.09
    assert rreq.info.route == (0,)


@pytest.mark.parametrize("protocol", list(Protocol))
def test_node_reads_engine_clock(protocol):
    """Handlers take no time argument: what a node stamps and arms follows
    engine.now."""
    node, engine = make_node(protocol, Variant.ERS1, nid=0)
    engine.now = 3.0
    node.send_data(data_packet(0, 7))
    assert node.rreq_opened == [3.0]
    _, rreq, _ = engine.sent[0]
    assert rreq.kind == "RREQ" and rreq.created_at == 3.0
    wait = node.ring_wait(node.params, 0, node.rings[0])
    assert engine.timers[0][0] == wait
    if isinstance(node, HopByHopNode):
        # a passing request installs the reverse route to its originator
        node.on_packet(rreq_packet(5, 9, req_id=1, ttl=4), frm=5)
        assert node.routes[5].valid_until == 3.0 + ROUTE_LIFETIME


def test_pending_discovery_coalesces():
    node, engine = make_node(Protocol.AODV, Variant.ERS1)
    node.send_data(data_packet(0, 7))
    engine.now = 0.1
    node.send_data(data_packet(0, 7))
    assert sent_kinds(engine).count("RREQ") == 1
    assert len(node.pending[7].queue) == 2


def test_timeout_walks_schedule():
    node, engine = make_node(Protocol.AODV, Variant.ERS1)
    node.request_route(7)
    engine.now = 0.32
    delay, fn, args = engine.timers[0]
    fn(*args)
    assert [pkt.ttl for _, pkt, _ in engine.sent] == [2, 4]


def test_timeout_dsr_wait_doubles():
    node, engine = make_node(Protocol.DSR, Variant.ERS1)
    node.request_route(7)
    engine.now = 0.03
    delay, fn, args = engine.timers[0]
    assert delay == 0.030
    fn(*args)
    assert engine.sent[1][1].ttl == 255
    assert engine.timers[1][0] == 0.060


def test_schedule_exhaustion_drops_queue():
    node, engine = make_node(Protocol.AODV, Variant.ERS1)
    node.send_data(data_packet(0, 7))
    for step in range(len(node.rings)):
        delay, fn, args = engine.timers[step]
        engine.now += delay
        fn(*args)
    assert engine.finished == [False]
    # the source, node 0, drops its parked data
    assert [(n, r) for n, _, r in engine.data_drops] == [(0, "discovery_failed")]
    assert 7 not in node.pending


def test_stale_timeout_generation_ignored():
    node, engine = make_node(Protocol.AODV, Variant.ERS1)
    node.request_route(7)
    _, fn, args = engine.timers[0]
    fn(*args)   # ring 2 emitted under a new request id
    fn(*args)   # stale replay of the first timer must do nothing
    assert len([k for k in sent_kinds(engine) if k == "RREQ"]) == 2


@pytest.mark.parametrize("protocol", list(Protocol))
def test_stale_reply_timer_leaves_next_discovery_alone(protocol):
    node, engine = make_node(protocol, Variant.ERS1)
    node.request_route(7)
    _, stale_fn, stale_args = engine.timers[0]
    node._finish_discovery(7, True)
    node.request_route(7)
    stale_fn(*stale_args)   # the first discovery's timer fires late
    assert node.pending[7].ring_index == 0
    assert sent_kinds(engine).count("RREQ") == 2


def test_stale_repair_timer_leaves_next_repair_alone():
    node, engine, _ = _break_forwarded_link(Protocol.AODV, Variant.ERS1, 2)
    _, stale_fn, stale_args = engine.timers[0]
    node._install_route(9, next_hop=6, hops=2, seq=2, seq_valid=True)
    node._route_confirmed(9)
    assert 9 not in node.repairs
    del node.routes[9]
    pkt = data_packet(0, 9)
    node.on_packet(pkt, frm=0)    # no route again: a second repair for 9
    stale_fn(*stale_args)         # the first repair's timer fires late
    assert node.repairs[9].queue == deque([pkt])
    assert engine.data_drops == []
    assert sent_kinds(engine).count("RERR") == 0


# -------------------------------------------------------------------- RREQ

def test_duplicate_rreq_dropped():
    """A duplicate is suppressed either way; only a traced engine hears of it,
    after the record of its reception."""
    for trace in (True, False):
        node, engine = make_node(Protocol.AODV, Variant.ERS1, nid=5, trace=trace)
        node.on_packet(rreq_packet(0, 9, req_id=3, ttl=4), frm=0)
        engine.now = 0.1
        node.on_packet(rreq_packet(0, 9, req_id=3, ttl=4), frm=2)
        assert sent_kinds(engine) == ["RREQ"]
        assert [(k, n, r) for k, n, _, r in engine.records] == (
            [("recv", 5, "-"), ("recv", 5, "-"), ("drop", 5, "duplicate")]
            if trace else [])


def test_rreq_ttl_gates_rebroadcast():
    node, engine = make_node(Protocol.AODV, Variant.ERS1, nid=5)
    node.on_packet(rreq_packet(0, 9, req_id=1, ttl=1), frm=0)
    assert engine.sent == []
    node.on_packet(rreq_packet(0, 9, req_id=2, ttl=2), frm=0)
    fwd = engine.sent[0][1]
    assert fwd.ttl == 1
    assert fwd.info.ring_ttl - fwd.ttl == 1    # one hop travelled


def test_destination_replies_with_rrep():
    node, engine = make_node(Protocol.AODV, Variant.ERS1, nid=9)
    node.on_packet(rreq_packet(0, 9, req_id=1, ttl=4), frm=0)
    kinds = sent_kinds(engine)
    assert kinds == ["RREP"]
    _, rrep, next_hop = engine.sent[0]
    assert next_hop == 0          # reverse route learned from the request
    assert rrep.info.hops_from_target == 0


def test_dsr_destination_reply_carries_route():
    node, engine = make_node(Protocol.DSR, Variant.ERS1, nid=9)
    # one hop travelled: sent at ttl 4, received at 3
    node.on_packet(rreq_packet(0, 9, req_id=1, ttl=3, ring_ttl=4, route=(0, 4)),
                   frm=4)
    _, rrep, next_hop = engine.sent[0]
    assert rrep.kind == "RREP"
    assert rrep.info.route == (0, 4, 9)
    assert rrep.info.pos == 1
    assert next_hop == 4


def test_dsr_intermediate_replies_from_cache_unless_route_repeats():
    """A DSR intermediate joins the request's route to a cached route to the
    target and replies, unless the joined route would visit a node twice;
    then it forwards the request with itself appended."""
    node, engine = make_node(Protocol.DSR, Variant.ERS1, nid=5)
    node.cache.insert((5, 6, 9))
    node.on_packet(rreq_packet(0, 9, req_id=1, ttl=3, ring_ttl=4, route=(0, 4)),
                   frm=4)
    [(_, rrep, next_hop)] = engine.sent
    assert rrep.kind == "RREP"
    assert rrep.info.route == (0, 4, 5, 6, 9)
    assert rrep.info.pos == 1
    assert next_hop == 4

    node, engine = make_node(Protocol.DSR, Variant.ERS1, nid=5)
    node.cache.insert((5, 4, 9))
    node.on_packet(rreq_packet(0, 9, req_id=1, ttl=3, ring_ttl=4, route=(0, 4)),
                   frm=4)
    [(_, fwd, next_hop)] = engine.sent
    assert fwd.kind == "RREQ"
    assert fwd.info.route == (0, 4, 5)
    assert next_hop is None


def test_aodv_intermediate_replies_only_with_confirmed_seq():
    node, engine = make_node(Protocol.AODV, Variant.ERS1, nid=5)
    node._install_route(9, next_hop=6, hops=2, seq=4)  # reverse-learned
    node.on_packet(rreq_packet(0, 9, req_id=1, ttl=4), frm=0)
    assert sent_kinds(engine) == ["RREQ"]  # forwarded, not answered

    node2, engine2 = make_node(Protocol.AODV, Variant.ERS1, nid=5)
    node2._install_route(9, next_hop=6, hops=2, seq=4, seq_valid=True)
    node2.on_packet(rreq_packet(0, 9, req_id=1, ttl=4), frm=0)
    assert sent_kinds(engine2) == ["RREP"]


def test_dymo_intermediate_never_replies():
    node, engine = make_node(Protocol.DYMO, Variant.ERS1, nid=5)
    node._install_route(9, next_hop=6, hops=2, seq=4, seq_valid=True)
    node.on_packet(rreq_packet(0, 9, req_id=1, ttl=4), frm=0)
    assert sent_kinds(engine) == ["RREQ"]


# -------------------------------------------------------------- local repair

def _break_forwarded_link(protocol, variant, hops_to_dest, nid=3):
    """A forwarder with a route to 9 via 8 loses the link while sending data."""
    node, engine = make_node(protocol, variant, nid=nid)
    engine.now = 1.0
    if protocol is Protocol.DSR:
        pkt = _dsr_data((0, nid, 8, 9), pos=1, dst=9)
    else:
        node._install_route(9, next_hop=8, hops=hops_to_dest, seq=1)
        pkt = data_packet(0, 9)
    node.on_unicast_fail(pkt, next_hop=8)
    return node, engine, pkt


def test_local_repair_ttl_uses_last_hop_count():
    _, engine, _ = _break_forwarded_link(Protocol.AODV, Variant.ERS1, 3)
    assert engine.sent[0][1].ttl == 5          # hop count + extra ring margin
    _, engine2, _ = _break_forwarded_link(Protocol.AODV, Variant.ERS2, 3)
    assert engine2.sent[0][1].ttl == 4


def test_local_repair_rejected_off_protocol():
    # only the AODV model repairs locally; the others drop and report
    for protocol in (Protocol.DSR, Protocol.DYMO):
        node, engine, _ = _break_forwarded_link(protocol, Variant.ERS1, 3)
        assert "RREQ" not in sent_kinds(engine)
        assert [(n, r) for n, _, r in engine.data_drops] == [(3, "link_break")]
        assert not hasattr(node, "repairs")


def test_discovery_and_repair_for_one_destination_stay_apart():
    """An AODV node can be the source of a discovery for 9 and the repairer
    of a route to 9 at once; each record keeps its own packets and timer."""
    node, engine = make_node(Protocol.AODV, Variant.ERS1, nid=3)
    own = data_packet(3, 9)
    node.send_data(own)
    _, discovery_fn, discovery_args = engine.timers[0]
    forwarded = data_packet(0, 9)
    node.on_packet(forwarded, frm=0)
    _, repair_fn, repair_args = engine.timers[1]
    # packets compare by identity
    assert node.pending_data_packets() == [own, forwarded]

    repair_fn(*repair_args)
    assert engine.data_drops == [(3, forwarded, "repair_failed")]
    assert sent_kinds(engine) == ["RREQ", "RREQ", "RERR"]
    assert node.pending[9].queue == deque([own])

    discovery_fn(*discovery_args)
    assert sent_kinds(engine)[-1] == "RREQ"
    assert engine.sent[-1][1].ttl == 4
    assert node.pending_data_packets() == [own]


def test_repair_timeout_reports_upstream():
    node, engine, pkt = _break_forwarded_link(Protocol.AODV, Variant.ERS1, 2)
    assert node.pending_data_packets() == [pkt]
    delay, fn, args = engine.timers[0]
    engine.now = 1.0 + delay
    fn(*args)
    assert [(n, r) for n, _, r in engine.data_drops] == [(3, "repair_failed")]
    assert sent_kinds(engine) == ["RREQ", "RERR"]


# -------------------------------------------------------------- route cache

def test_cache_fifo_eviction():
    cache = RouteCache(3, 0)
    for route in ((0, 1), (0, 2), (0, 3), (0, 4)):
        cache.insert(route)
        assert len(cache) <= cache.capacity
    assert len(cache) == 3
    assert cache.lookup(1) is None
    assert cache.lookup(4) == (0, 4)


def test_cache_lookup_prefers_short_subroute():
    def owned_by(here):
        cache = RouteCache(10, here)
        cache.insert((0, 1, 2, 3, 9))
        cache.insert((0, 5, 9))
        return cache

    assert owned_by(0).lookup(9) == (0, 5, 9)
    assert owned_by(1).lookup(9) == (1, 2, 3, 9)
    assert owned_by(9).lookup(0) is None


def test_cache_purge_link():
    cache = RouteCache(10, 0)
    cache.insert((0, 1, 2, 3))
    cache.insert((0, 4, 3))
    assert cache.purge_link(2, 1) == 1
    assert cache.lookup(3) == (0, 4, 3)


def test_cache_rejects_invalid_routes():
    cache = RouteCache(4, 0)
    cache.insert((0,))
    cache.insert((0, 1, 0))
    assert len(cache) == 0


class _ScanRouteCache:
    """Plain reference cache: a FIFO deque, a set of known routes, and
    linear scans that locate nodes with try/index."""

    def __init__(self, capacity):
        self.capacity = capacity
        self._routes = deque()
        self._known = set()
        self.max_seen = 0

    def __len__(self):
        return len(self._routes)

    def insert(self, route):
        if len(route) < 2 or len(set(route)) != len(route):
            return
        if route in self._known:
            return
        if len(self._routes) >= self.capacity:
            oldest = self._routes.popleft()
            self._known.discard(oldest)
        self._routes.append(route)
        self._known.add(route)
        self.max_seen = max(self.max_seen, len(self._routes))

    def lookup(self, here, dest):
        best = None
        for route in self._routes:
            try:
                i = route.index(here)
                j = route.index(dest)
            except ValueError:
                continue
            if i < j:
                sub = route[i:j + 1]
                if best is None or len(sub) < len(best):
                    best = sub
        return best

    def purge_link(self, a, b):
        def uses(route):
            return any((route[k] == a and route[k + 1] == b)
                       or (route[k] == b and route[k + 1] == a)
                       for k in range(len(route) - 1))

        stale = [r for r in self._routes if uses(r)]
        for r in stale:
            self._routes.remove(r)
            self._known.discard(r)
        return len(stale)


_NODE = st.integers(0, 7)          # few ids, so routes overlap
_ANY_NODE = st.integers(-1, 9)     # also ids no route holds
_RECENT = st.integers(0, 7)        # how far back among the routes offered
_SPOT = st.integers(0, 5)          # a position in a route, taken modulo

_CACHE_OPS = st.lists(st.one_of(
    st.tuples(st.just("insert"), st.lists(_NODE, max_size=6, unique=True)),
    st.tuples(st.just("insert"), st.lists(_NODE, max_size=6)),  # loops too
    st.tuples(st.just("reinsert"), _RECENT),
    st.tuples(st.just("detour"), _RECENT, _SPOT, _NODE),  # equal-length rival
    st.tuples(st.just("purge_link"), _ANY_NODE, _ANY_NODE),
    st.tuples(st.just("purge_on"), _RECENT, _SPOT, st.booleans()),
), max_size=80)


@settings(max_examples=300)
@given(capacity=st.integers(1, 6), owner=_NODE, ops=_CACHE_OPS)
def test_cache_matches_scan_reference(capacity, owner, ops):
    cache, ref = RouteCache(capacity, owner), _ScanRouteCache(capacity)
    offered = [(0, 1, 2)]  # every route inserted so far, valid or not

    def recent(back):
        return offered[-1 - back % len(offered)] or (0,)

    for op, *args in ops:
        if op in ("insert", "reinsert", "detour"):
            if op == "insert":
                route = tuple(args[0])
            elif op == "reinsert":
                route = recent(args[0])
            else:  # swap one inner hop, so lookups see ties
                route = recent(args[0])
                i = 1 + args[1] % max(len(route) - 2, 1)
                route = route[:i] + (args[2],) + route[i + 1:]
            offered.append(route)
            name, call_args = "insert", (route,)
        elif op == "purge_link":
            name, call_args = op, args
        else:  # a link of a route, in either orientation
            route = recent(args[0])
            i = args[1] % len(route)
            a, b = route[i], route[(i + 1) % len(route)]
            name, call_args = "purge_link", ((a, b) if args[2] else (b, a))
        assert getattr(cache, name)(*call_args) == getattr(ref, name)(*call_args)
        assert len(cache) == len(ref)
        assert list(cache) == list(ref._routes)
        # every destination, so a route the index kept or lost shows at once;
        # the reference is told whose lookups these are
        for dest in range(-1, 10):
            assert cache.lookup(dest) == ref.lookup(owner, dest)


# -------------------------------------------------------------------- hello

def test_hello_declares_silent_neighbor_broken():
    node, engine = make_node(Protocol.AODV, Variant.ERS1, nid=3)
    node.last_heard[8] = 0.0
    engine.now = 2.4
    node._install_route(9, next_hop=8, hops=2, seq=1)
    node.routes[9].last_data_use = 2.4
    engine.now = 2.5
    node.on_hello_tick()
    assert sent_kinds(engine) == ["HELLO", "RREQ"]   # repair follows the break
    assert 8 not in node.last_heard
    assert 9 not in node.routes


def test_hello_keeps_recent_neighbor():
    node, engine = make_node(Protocol.AODV, Variant.ERS1, nid=3)
    node.last_heard[8] = 1.6
    engine.now = 2.5
    node.on_hello_tick()
    assert sent_kinds(engine) == ["HELLO"]
    assert 8 in node.last_heard


@pytest.mark.parametrize("protocol", [Protocol.AODV, Protocol.DYMO])
def test_hello_tick_rearms_itself(protocol):
    """A hello tick leaves one timer, HELLO_INTERVAL out, and firing it
    sends the next hello: the engine arms only the first tick."""
    node, engine = make_node(protocol, Variant.ERS1, nid=3)
    node.on_hello_tick()
    assert sent_kinds(engine) == ["HELLO"]
    [(delay, fn, args)] = engine.timers
    assert delay == HELLO_INTERVAL
    engine.now = HELLO_INTERVAL
    fn(*args)
    assert sent_kinds(engine) == ["HELLO", "HELLO"]
    assert [t[0] for t in engine.timers] == [HELLO_INTERVAL, HELLO_INTERVAL]


def _counted_run(monkeypatch, handler, protocol):
    """Calls of one Node handler over a short mobile run with traffic."""
    calls = []
    original = getattr(Node, handler)

    def counting(self, *args):
        calls.append(self.nid)
        return original(self, *args)

    monkeypatch.setattr(Node, handler, counting)
    cfg = RunConfig(protocol=protocol, variant=Variant.ERS1, n_nodes=15,
                    arena=Arena(500.0, 500.0, 200.0), v_max=10.0,
                    duration=8.0, traffic_pairs=3, seed=2)
    metrics = Engine(cfg).run()
    monkeypatch.undo()
    return len(calls), metrics


def test_dsr_sends_no_hellos(monkeypatch):
    ticks, metrics = _counted_run(monkeypatch, "on_hello_tick", Protocol.DSR)
    assert ticks == 0
    assert "HELLO" not in metrics.control_tx
    ticks, _ = _counted_run(monkeypatch, "on_hello_tick", Protocol.AODV)
    assert ticks > 0


def test_engine_arms_hellos_from_class_flag(monkeypatch):
    class SilentDymo(HopByHopNode):
        sends_hellos = False

    monkeypatch.setitem(NODE_CLASSES, Protocol.DYMO, SilentDymo)
    ticks, metrics = _counted_run(monkeypatch, "on_hello_tick", Protocol.DYMO)
    assert ticks == 0
    assert "HELLO" not in metrics.control_tx


# ---------------------------------------------------- salvage and gratuitous

def _dsr_data(route, pos, src=0, dst=3, salvage=0):
    info = DataInfo(route=route, pos=pos,
                    traveled=route[:pos + 1], salvage_count=salvage)
    return Packet("DATA", 512, src, dst, 64, 0.0, info)


def test_salvage_uses_cached_alternative():
    node, engine = make_node(Protocol.DSR, Variant.ERS1, nid=1)
    node.cache.insert((1, 4, 3))
    pkt = _dsr_data((0, 1, 2, 3), pos=1)
    engine.now = 1.0
    node.on_unicast_fail(pkt, next_hop=2)
    sender, sent, next_hop = engine.sent[0]
    assert sent is pkt and next_hop == 4
    assert pkt.info.route == (1, 4, 3)
    assert pkt.info.salvage_count == 1


def test_salvage_exhausted_drops_and_reports():
    node, engine = make_node(Protocol.DSR, Variant.ERS1, nid=1)
    node.cache.insert((1, 4, 3))
    pkt = _dsr_data((0, 1, 2, 3), pos=1, salvage=2)
    engine.now = 1.0
    node.on_unicast_fail(pkt, next_hop=2)
    assert [(n, r) for n, _, r in engine.data_drops] == [(1, "salvage_exhausted")]
    kinds = sent_kinds(engine)
    assert kinds == ["RERR"]
    _, rerr, next_hop = engine.sent[0]
    assert rerr.info.broken_link == (1, 2)
    assert next_hop == 0


def _dsr_rrep(route, pos):
    """A reply for route held by route[pos], on its way back to route[0]."""
    info = RrepInfo(route=route, pos=pos)
    return Packet("RREP", 64, route[-1], route[0], 0, 0.0, info)


def test_dsr_reply_walks_back_through_a_middle_node():
    node, engine = make_node(Protocol.DSR, Variant.ERS1, nid=4)
    rrep = _dsr_rrep((0, 4, 9), pos=1)
    node.on_packet(rrep, frm=9)
    assert (0, 4, 9) in node.cache
    assert engine.sent == [(4, rrep, 0)]
    assert rrep.info.pos == 0


def test_dsr_reply_at_its_requester_releases_parked_data():
    node, engine = make_node(Protocol.DSR, Variant.ERS1, nid=0)
    data = data_packet(0, 9)
    node.send_data(data)
    assert sent_kinds(engine) == ["RREQ"]
    node.on_packet(_dsr_rrep((0, 4, 9), pos=0), frm=4)
    assert engine.finished == [True]
    assert 9 not in node.pending
    assert engine.sent[1:] == [(0, data, 4)]
    assert (data.info.route, data.info.pos) == ((0, 4, 9), 1)


def test_dsr_error_walks_the_traveled_hops_back():
    # node 1 salvaged the data onto (1, 5, 3); then 5 loses its link to 3
    broken, engine5 = make_node(Protocol.DSR, Variant.ERS1, nid=5)
    info = DataInfo(route=(1, 5, 3), pos=1, traveled=(0, 1, 5),
                    salvage_count=1)
    broken.on_unicast_fail(Packet("DATA", 512, 0, 3, 64, 0.0, info),
                           next_hop=3)
    [(_, rerr, next_hop)] = engine5.sent
    assert rerr.kind == "RERR" and (rerr.src, rerr.dst) == (5, 0)
    assert rerr.info.route == (0, 1, 5) and rerr.info.pos == 1
    assert next_hop == 1

    middle, engine1 = make_node(Protocol.DSR, Variant.ERS1, nid=1)
    middle.cache.insert((1, 5, 3))
    middle.cache.insert((1, 2, 3))
    middle.on_packet(rerr, frm=5)
    assert list(middle.cache) == [(1, 2, 3)]
    assert engine1.sent == [(1, rerr, 0)]
    assert rerr.info.pos == 0

    source, engine0 = make_node(Protocol.DSR, Variant.ERS1, nid=0)
    source.cache.insert((0, 1, 5, 3))
    source.on_packet(rerr, frm=1)
    assert len(source.cache) == 0
    assert engine0.sent == []


def test_link_purge_on_failure():
    node, engine = make_node(Protocol.DSR, Variant.ERS1, nid=1)
    node.cache.insert((0, 1, 2, 3))
    pkt = _dsr_data((0, 1, 2, 3), pos=1)
    engine.now = 1.0
    node.on_unicast_fail(pkt, next_hop=2)
    assert node.cache.lookup(3) is None


def test_gratuitous_reply_shortens_route():
    node, engine = make_node(Protocol.DSR, Variant.ERS1, nid=3)
    pkt = _dsr_data((0, 1, 2, 3, 4), pos=1, dst=4)  # node 0 just sent to 1
    engine.now = 1.0
    node.on_overhear(pkt)
    _, rrep, next_hop = engine.sent[0]
    assert rrep.kind == "RREP"
    assert rrep.info.route == (0, 3, 4)
    assert rrep.info.pos == 0
    assert next_hop == 0


def test_gratuitous_reply_rate_limited():
    node, engine = make_node(Protocol.DSR, Variant.ERS1, nid=3)
    pkt = _dsr_data((0, 1, 2, 3, 4), pos=1, dst=4)
    engine.now = 1.0
    node.on_overhear(pkt)
    engine.now = 1.5
    node.on_overhear(pkt)
    assert len(engine.sent) == 1
    engine.now = 2.5
    node.on_overhear(pkt)
    assert len(engine.sent) == 2


def test_overhear_ignored_off_protocol(monkeypatch):
    for protocol in (Protocol.AODV, Protocol.DYMO):
        heard, metrics = _counted_run(monkeypatch, "on_overhear", protocol)
        assert heard == 0
        assert metrics.data_delivered > 0
    heard, _ = _counted_run(monkeypatch, "on_overhear", Protocol.DSR)
    assert heard > 0


def test_engine_overhears_from_class_flag(monkeypatch):
    class DeafDsr(SourceRouteNode):
        overhears = ()

    monkeypatch.setitem(NODE_CLASSES, Protocol.DSR, DeafDsr)
    heard, metrics = _counted_run(monkeypatch, "on_overhear", Protocol.DSR)
    assert heard == 0
    assert metrics.data_delivered > 0


@pytest.mark.parametrize("radio_range", [250.0, 180.0])
@pytest.mark.parametrize("variant", list(Variant))
def test_source_routed_sends_keep_their_route_contract(monkeypatch, variant,
                                                       radio_range):
    """Every DSR unicast goes between neighbors on its route: data from
    route[pos - 1] to route[pos], replies and errors from route[pos + 1] to
    route[pos] on their way back to route[0], their destination; overhearing
    sees only DATA and RREP.  A data packet reaches dispatch with no route
    yet, or with pos stepped to the dispatching node."""
    seen = {"DATA": 0, "RREP": 0, "RERR": 0}
    overheard = set()
    dispatched = set()   # whether a packet entered dispatch with a route
    send, overhear = Engine.send, Node.on_overhear
    dispatch = SourceRouteNode._dispatch_data

    def checked_send(self, sender, pkt, next_hop=None):
        info = pkt.info
        if pkt.kind == "DATA":
            assert 1 <= info.pos <= len(info.route) - 1
            assert info.route[info.pos - 1:info.pos + 1] == (sender, next_hop)
            seen["DATA"] += 1
        elif pkt.kind in ("RREP", "RERR"):
            # replies and errors walk their route back to route[0]
            assert info.route[0] == pkt.dst
            assert 0 <= info.pos < len(info.route) - 1
            assert info.route[info.pos:info.pos + 2] == (next_hop, sender)
            seen[pkt.kind] += 1
        return send(self, sender, pkt, next_hop)

    def checked_overhear(self, pkt):
        overheard.add(pkt.kind)
        return overhear(self, pkt)

    def checked_dispatch(self, pkt):
        info = pkt.info
        assert not info.route or info.route[info.pos] == self.nid
        dispatched.add(bool(info.route))
        return dispatch(self, pkt)

    monkeypatch.setattr(Engine, "send", checked_send)
    monkeypatch.setattr(Node, "on_overhear", checked_overhear)
    monkeypatch.setattr(SourceRouteNode, "_dispatch_data", checked_dispatch)
    cfg = RunConfig(protocol=Protocol.DSR, variant=variant, n_nodes=50,
                    arena=Arena(1000.0, 1000.0, radio_range), v_max=30.0,
                    duration=60.0, traffic_pairs=10, seed=1)
    Engine(cfg).run()
    assert overheard == {"DATA", "RREP"}
    assert min(seen.values()) > 0
    assert dispatched == {False, True}


def test_cache_update_surface():
    node, _ = make_node(Protocol.DSR, Variant.ERS2, nid=1)
    node.cache.insert((1, 2, 3))
    assert node.cache.lookup(3) == (1, 2, 3)
    aodv, _ = make_node(Protocol.AODV, Variant.ERS1, nid=1)
    assert aodv.cache is None
