"""Protocol state-machine tests driven by a recording fake engine."""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringsim.analytics import Protocol, Variant, default_params
from ringsim.engine import Engine, RunConfig
from ringsim.packets import DataInfo, Packet, RreqInfo
from ringsim.protocols import (
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
    def __init__(self):
        self.now = 0.0
        self.sent = []        # (sender, packet, next_hop)
        self.timers = []      # (delay, fn, args)
        self.data_drops = []  # (packet, reason)
        self.delivered = []
        self.finished = []    # success flags
        self.errors = 0
        self.other_drops = []

    def send(self, sender, pkt, next_hop=None):
        self.sent.append((sender, pkt, next_hop))

    def schedule_in(self, delay, fn, *args):
        self.timers.append((delay, fn, args))

    def forward_coin(self):
        return True

    def data_delivered(self, pkt):
        pkt.info.state = "delivered"
        self.delivered.append(pkt)

    def drop_data(self, pkt, reason):
        pkt.info.state = "dropped"
        self.data_drops.append((pkt, reason))

    def discovery_finished(self, success):
        self.finished.append(success)

    def protocol_error(self, node, pkt):
        self.errors += 1

    def record_drop(self, node, pkt, reason):
        self.other_drops.append((node, pkt, reason))

    def sent_kinds(self):
        return [pkt.kind for _, pkt, _ in self.sent]


def make_node(protocol, variant, nid=0):
    engine = FakeEngine()
    params = default_params(protocol, variant)
    node = NODE_CLASSES[protocol](nid, variant, params, engine)
    return node, engine


def data_packet(src, dst, uid=0):
    return Packet("DATA", 512, src, dst, 64, 0.0, DataInfo(uid=uid, flow=0))


def rreq_packet(orig, target, req_id, ttl, hop_count=0, route=(), orig_seq=1,
                ring_ttl=None):
    info = RreqInfo(orig=orig, req_id=req_id, target=target,
                    hop_count=hop_count,
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
    assert engine.sent_kinds() == ["RREQ"]
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
    node.send_data(data_packet(0, 7, uid=0))
    engine.now = 0.1
    node.send_data(data_packet(0, 7, uid=1))
    assert engine.sent_kinds().count("RREQ") == 1
    assert len(node.queues[7]) == 2


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
    assert [reason for _, reason in engine.data_drops] == ["discovery_failed"]
    assert 7 not in node.pending


def test_stale_timeout_generation_ignored():
    node, engine = make_node(Protocol.AODV, Variant.ERS1)
    node.request_route(7)
    _, fn, args = engine.timers[0]
    fn(*args)   # ring 2 emitted, generation bumped
    fn(*args)   # stale replay of the first timer must do nothing
    assert len([k for k in engine.sent_kinds() if k == "RREQ"]) == 2


@pytest.mark.xfail(strict=True, reason=(
    "known defect: every DiscoveryState starts at generation 1, so a reply "
    "timer left over from a finished discovery matches the next one"))
@pytest.mark.parametrize("protocol", list(Protocol))
def test_stale_reply_timer_leaves_next_discovery_alone(protocol):
    node, engine = make_node(protocol, Variant.ERS1)
    node.request_route(7)
    _, stale_fn, stale_args = engine.timers[0]
    node._finish_discovery(7, True)
    node.request_route(7)
    stale_fn(*stale_args)   # the first discovery's timer fires late
    assert node.pending[7].ring_index == 0
    assert engine.sent_kinds().count("RREQ") == 2


# -------------------------------------------------------------------- RREQ

def test_duplicate_rreq_dropped():
    node, engine = make_node(Protocol.AODV, Variant.ERS1, nid=5)
    node.on_packet(rreq_packet(0, 9, req_id=3, ttl=4), frm=0)
    engine.now = 0.1
    node.on_packet(rreq_packet(0, 9, req_id=3, ttl=4), frm=2)
    assert engine.sent_kinds() == ["RREQ"]
    assert [r for _, _, r in engine.other_drops] == ["duplicate"]


def test_rreq_ttl_gates_rebroadcast():
    node, engine = make_node(Protocol.AODV, Variant.ERS1, nid=5)
    node.on_packet(rreq_packet(0, 9, req_id=1, ttl=1), frm=0)
    assert engine.sent == []
    node.on_packet(rreq_packet(0, 9, req_id=2, ttl=2), frm=0)
    assert engine.sent[0][1].ttl == 1
    assert engine.sent[0][1].info.hop_count == 1


def test_negative_ttl_is_protocol_error():
    node, engine = make_node(Protocol.AODV, Variant.ERS1, nid=5)
    node.on_packet(rreq_packet(0, 9, req_id=1, ttl=-1), frm=0)
    assert engine.errors == 1
    assert engine.sent == []


def test_destination_replies_with_rrep():
    node, engine = make_node(Protocol.AODV, Variant.ERS1, nid=9)
    node.on_packet(rreq_packet(0, 9, req_id=1, ttl=4), frm=0)
    kinds = engine.sent_kinds()
    assert kinds == ["RREP"]
    _, rrep, next_hop = engine.sent[0]
    assert next_hop == 0          # reverse route learned from the request
    assert rrep.info.hops_from_target == 0


def test_dsr_destination_reply_carries_route():
    node, engine = make_node(Protocol.DSR, Variant.ERS1, nid=9)
    node.on_packet(rreq_packet(0, 9, req_id=1, ttl=4, hop_count=1, route=(0, 4)),
                   frm=4)
    _, rrep, next_hop = engine.sent[0]
    assert rrep.kind == "RREP"
    assert rrep.info.route == (0, 4, 9)
    assert rrep.info.return_route == (9, 4, 0)
    assert next_hop == 4


def test_aodv_intermediate_replies_only_with_confirmed_seq():
    node, engine = make_node(Protocol.AODV, Variant.ERS1, nid=5)
    node._install_route(9, next_hop=6, hops=2, seq=4)  # reverse-learned
    node.on_packet(rreq_packet(0, 9, req_id=1, ttl=4), frm=0)
    assert engine.sent_kinds() == ["RREQ"]  # forwarded, not answered

    node2, engine2 = make_node(Protocol.AODV, Variant.ERS1, nid=5)
    node2._install_route(9, next_hop=6, hops=2, seq=4, seq_valid=True)
    node2.on_packet(rreq_packet(0, 9, req_id=1, ttl=4), frm=0)
    assert engine2.sent_kinds() == ["RREP"]


def test_dymo_intermediate_never_replies():
    node, engine = make_node(Protocol.DYMO, Variant.ERS1, nid=5)
    node._install_route(9, next_hop=6, hops=2, seq=4, seq_valid=True)
    node.on_packet(rreq_packet(0, 9, req_id=1, ttl=4), frm=0)
    assert engine.sent_kinds() == ["RREQ"]


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
        assert "RREQ" not in engine.sent_kinds()
        assert [r for _, r in engine.data_drops] == ["link_break"]
        assert not hasattr(node, "repairs")


def test_repair_timeout_reports_upstream():
    node, engine, pkt = _break_forwarded_link(Protocol.AODV, Variant.ERS1, 2)
    assert node.pending_data_packets() == [pkt]
    delay, fn, args = engine.timers[0]
    engine.now = 1.0 + delay
    fn(*args)
    assert [reason for _, reason in engine.data_drops] == ["repair_failed"]
    assert engine.sent_kinds() == ["RREQ", "RERR"]


# -------------------------------------------------------------- route cache

def test_cache_fifo_eviction():
    cache = RouteCache(3)
    for route in ((0, 1), (0, 2), (0, 3), (0, 4)):
        cache.insert(route)
    assert len(cache) == 3
    assert cache.lookup(0, 1) is None
    assert cache.lookup(0, 4) == (0, 4)
    assert cache.max_seen == 3


def test_cache_lookup_prefers_short_subroute():
    cache = RouteCache(10)
    cache.insert((0, 1, 2, 3, 9))
    cache.insert((0, 5, 9))
    assert cache.lookup(0, 9) == (0, 5, 9)
    assert cache.lookup(1, 9) == (1, 2, 3, 9)
    assert cache.lookup(9, 0) is None


def test_cache_purge_link():
    cache = RouteCache(10)
    cache.insert((0, 1, 2, 3))
    cache.insert((0, 4, 3))
    assert cache.purge_link(2, 1) == 1
    assert cache.lookup(0, 3) == (0, 4, 3)


def test_cache_rejects_invalid_routes():
    cache = RouteCache(4)
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
    st.tuples(st.just("lookup"), _ANY_NODE, _ANY_NODE),
    st.tuples(st.just("lookup_on"), _RECENT, _SPOT, _SPOT),
    st.tuples(st.just("purge_link"), _ANY_NODE, _ANY_NODE),
    st.tuples(st.just("purge_on"), _RECENT, _SPOT, st.booleans()),
), max_size=80)


@settings(max_examples=300)
@given(capacity=st.integers(1, 6), ops=_CACHE_OPS)
def test_cache_matches_scan_reference(capacity, ops):
    cache, ref = RouteCache(capacity), _ScanRouteCache(capacity)
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
        elif op in ("lookup", "purge_link"):
            name, call_args = op, args
        elif op == "lookup_on":  # forward, reversed or here == dest
            route = recent(args[0])
            name, call_args = "lookup", (route[args[1] % len(route)],
                                         route[args[2] % len(route)])
        else:  # a link of a route, in either orientation
            route = recent(args[0])
            i = args[1] % len(route)
            a, b = route[i], route[(i + 1) % len(route)]
            name, call_args = "purge_link", ((a, b) if args[2] else (b, a))
        assert getattr(cache, name)(*call_args) == getattr(ref, name)(*call_args)
        assert len(cache) == len(ref)
        assert cache.max_seen == ref.max_seen


# -------------------------------------------------------------------- hello

def test_hello_declares_silent_neighbor_broken():
    node, engine = make_node(Protocol.AODV, Variant.ERS1, nid=3)
    node.last_heard[8] = 0.0
    engine.now = 2.4
    node._install_route(9, next_hop=8, hops=2, seq=1)
    node.routes[9].last_data_use = 2.4
    engine.now = 2.5
    node.on_hello_tick()
    assert engine.sent_kinds() == ["HELLO", "RREQ"]   # repair follows the break
    assert 8 not in node.last_heard
    assert 9 not in node.routes


def test_hello_keeps_recent_neighbor():
    node, engine = make_node(Protocol.AODV, Variant.ERS1, nid=3)
    node.last_heard[8] = 1.6
    engine.now = 2.5
    node.on_hello_tick()
    assert engine.sent_kinds() == ["HELLO"]
    assert 8 in node.last_heard


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
    info = DataInfo(uid=1, flow=0, route=route, pos=pos,
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
    assert [r for _, r in engine.data_drops] == ["salvage_exhausted"]
    kinds = engine.sent_kinds()
    assert kinds == ["RERR"]
    _, rerr, next_hop = engine.sent[0]
    assert rerr.info.broken_link == (1, 2)
    assert next_hop == 0


def test_link_purge_on_failure():
    node, engine = make_node(Protocol.DSR, Variant.ERS1, nid=1)
    node.cache.insert((0, 1, 2, 3))
    pkt = _dsr_data((0, 1, 2, 3), pos=1)
    engine.now = 1.0
    node.on_unicast_fail(pkt, next_hop=2)
    assert node.cache.lookup(1, 3) is None


def test_gratuitous_reply_shortens_route():
    node, engine = make_node(Protocol.DSR, Variant.ERS1, nid=3)
    pkt = _dsr_data((0, 1, 2, 3, 4), pos=1, dst=4)  # node 0 just sent to 1
    engine.now = 1.0
    node.on_overhear(pkt)
    _, rrep, next_hop = engine.sent[0]
    assert rrep.kind == "RREP"
    assert rrep.info.gratuitous
    assert rrep.info.route == (0, 3, 4)
    assert rrep.info.return_route == (3, 0)
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
        promiscuous = False

    monkeypatch.setitem(NODE_CLASSES, Protocol.DSR, DeafDsr)
    heard, metrics = _counted_run(monkeypatch, "on_overhear", Protocol.DSR)
    assert heard == 0
    assert metrics.data_delivered > 0


def test_cache_update_surface():
    node, _ = make_node(Protocol.DSR, Variant.ERS2, nid=1)
    node.cache.insert((1, 2, 3))
    assert node.cache.lookup(1, 3) == (1, 2, 3)
    aodv, _ = make_node(Protocol.AODV, Variant.ERS1, nid=1)
    assert aodv.cache is None
