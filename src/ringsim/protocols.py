"""Per-node reactive-routing behavior for AODV-, DSR-, and DYMO-style models.

Each simulated node owns one node object, built from :data:`NODE_CLASSES`.
The event engine feeds it packet deliveries, timer callbacks, and link-failure
signals; the node calls back into the engine to transmit packets and arm timers.

:class:`Node` is the expanding-ring-search core all three models share.  The
routing families plug into its hooks: :class:`SourceRouteNode` (DSR: route
cache, salvaging, overhearing), :class:`HopByHopNode` (DYMO: route table,
route errors, hellos) and its subclass :class:`AodvNode` (intermediate
replies, local repair).  Each class names its ``protocol`` and carries that
family's ring policy (``discovery_rings``, ``ring_wait``) and what the engine
owes it: ``overhears`` (the unicast kinds whose overheard copies go to
``_overhear``) and ``sends_hellos`` (the engine arms the first
``on_hello_tick``; ``_hello_tick`` re-arms the next, as a node arms its own
ring timers).  The engine-facing ``send_data`` and ``on_*`` handlers live on
:class:`Node` alone, so wrapping them there instruments every family.

There is one clock: nodes read the current time from ``engine.now``; the
engine passes none.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass, field

from .analytics import (
    ErsParams,
    Protocol,
    Variant,
    build_schedule,
    ring_traversal_wait,
)
from .packets import (
    BROADCAST,
    CONTROL_SIZE,
    Packet,
    RerrInfo,
    RreqInfo,
    RrepInfo,
)

ROUTE_LIFETIME = 10.0      # seconds a route stays valid after it was last used
QUEUE_LIMIT = 64           # data packets parked per destination awaiting a route
HELLO_INTERVAL = 1.0       # seconds between a hop-by-hop node's hellos
HELLO_LOSS_THRESHOLD = 2   # hello intervals of silence before a link is broken
MAX_MAIN_REXMT = 2         # extra DSR network-wide rings; salvages per packet


@dataclass
class RouteEntry:
    next_hop: int
    hop_count: int
    valid_until: float
    seq: int
    # reverse routes learned from passing requests carry no confirmed
    # destination sequence and must not answer discoveries for it
    seq_valid: bool = False
    last_data_use: float = float("-inf")


@dataclass
class PendingRequest:
    """One route search in progress, for a discovery or an AODV repair.

    ``req_id`` names the request whose reply timer is live: a timer armed for
    any other id is stale.  ``queue`` holds the data parked until it ends.
    """

    destination: int
    req_id: int = -1
    ring_index: int = 0
    queue: deque = field(default_factory=deque)


class RouteCache(dict):
    """FIFO-evicting store of source routes, capped at a fixed entry count.

    The cache is an insertion-ordered dict keyed by route (values unused):
    key order is the FIFO order, and ``route in cache`` is a plain dict
    lookup, cheap enough for callers to skip repeat inserts.  Only a route
    that holds the owner before its last position can answer the owner's
    lookups, so those routes are indexed a second time, in the same order,
    with the owner's position; the others still count toward capacity,
    eviction and purges.  Routes never repeat a node, so ``index`` is a
    node's only position.  Change the cache only through ``insert`` and
    ``purge_link``, which keep the index in step.
    """

    def __init__(self, capacity: int, owner: int):
        super().__init__()
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self.owner = owner
        # route -> the owner's index in it, for routes that can answer lookup
        self._from_owner: dict[tuple[int, ...], int] = {}

    def insert(self, route: tuple[int, ...]) -> None:
        if route in self or len(route) < 2 or len(set(route)) != len(route):
            return
        if len(self) >= self.capacity:
            oldest = next(iter(self))
            del self[oldest]
            self._from_owner.pop(oldest, None)
        self[route] = None
        owner = self.owner
        if owner in route and route[-1] != owner:
            self._from_owner[route] = route.index(owner)

    def lookup(self, dest: int) -> tuple[int, ...] | None:
        """Shortest cached sub-route from the owner to dest, oldest on ties."""
        best, best_hops = None, 0
        for route, i in self._from_owner.items():
            if dest in route:
                j = route.index(dest)
                if i < j and (best is None or j - i < best_hops):
                    best, best_hops = route[i:j + 1], j - i
        return best

    def purge_link(self, a: int, b: int) -> int:
        """Drop every route that traverses the (a, b) link in either direction."""
        stale = [r for r in self
                 if a in r and b in r and abs(r.index(a) - r.index(b)) == 1]
        for r in stale:
            del self[r]
            self._from_owner.pop(r, None)
        return len(stale)


class Node:
    """Expanding-ring-search core shared by every routing family.

    A family supplies these hooks: ``_dispatch_data`` (forward or queue a data
    packet), ``_learn_reverse`` (what a passing request teaches; returns the
    ``RreqInfo`` a forward carries: the received one when no route
    accumulates, else one with this node appended to the route),
    ``_reply_as_target`` and ``_reply_en_route`` (answer from intermediate
    state; True if it did), both given that record's route, ``_handle_rrep``,
    ``_handle_rerr``, ``_link_failed`` and ``ring_wait`` (reply timeout armed
    for one ring), plus ``_overhear`` or ``_hello_tick`` where the class sets
    ``overhears`` / ``sends_hellos``.  The request hooks take the request
    packet, whose src asks for a route to its dst.
    """

    protocol: Protocol
    overhears: tuple[str, ...] = ()  # unicast kinds the neighbors overhear
    sends_hellos = False   # engine arms the first hello tick, the node the rest
    cache: RouteCache | None = None
    _rreq_route: tuple[int, ...] = ()   # path a fresh request starts with

    def __init__(self, nid: int, variant: Variant, params: ErsParams, engine):
        self.nid = nid
        self.params = params
        self.engine = engine
        # fixed for the engine's life: an untraced node then makes no trace
        # call at all, for a reception or for a duplicate
        self.traced = engine.trace is not None
        self.rings = self.discovery_rings(variant)
        self.seq = 0
        # send time of each request this node originated; index = request id
        self.rreq_opened: list[float] = []
        self.seen_requests: set[tuple[int, int]] = set()
        self.pending: dict[int, PendingRequest] = {}

    # -------------------------------------------------------- engine handlers

    def send_data(self, pkt: Packet) -> None:
        """Entry point for locally generated traffic."""
        pkt.info.traveled = (self.nid,)
        self._dispatch_data(pkt)

    def on_packet(self, pkt: Packet, frm: int) -> None:
        """Reception of pkt, broadcast or unicast to this node, from frm."""
        if self.traced:
            self.engine.record("recv", self.nid, pkt, "-")
        kind = pkt.kind
        if kind == "RREQ":
            self._handle_rreq(pkt, frm)
        elif kind == "RREP":
            self._handle_rrep(pkt, frm)
        elif kind == "RERR":
            self._handle_rerr(pkt, frm)
        elif kind == "HELLO":
            # only classes that set sends_hellos send them, and keep last_heard
            self.last_heard[frm] = self.engine.now
        elif kind == "DATA":
            self._handle_data(pkt, frm)

    def on_overhear(self, pkt: Packet) -> None:
        """Promiscuous reception of a unicast addressed to a neighbor."""
        self._overhear(pkt)

    def on_hello_tick(self) -> None:
        """Broadcast a hello and declare neighbors silent too long broken."""
        self._hello_tick()

    def on_unicast_fail(self, pkt: Packet, next_hop: int) -> None:
        """The engine could not hand pkt to next_hop: the link is gone."""
        self._link_failed(pkt, next_hop)

    # ------------------------------------------------------------------ data

    def _handle_data(self, pkt: Packet, frm: int) -> None:
        info = pkt.info
        info.traveled = info.traveled + (self.nid,)
        if self.nid == pkt.dst:
            self.engine.data_delivered(pkt)
            return
        pkt.ttl -= 1
        if pkt.ttl <= 0:
            self.engine.drop_data(self.nid, pkt, "ttl_expired")
            return
        self._dispatch_data(pkt)

    def _enqueue_data(self, pkt: Packet) -> None:
        # callers only enqueue when no usable route exists, so a discovery is
        # always the drain path
        queue = self.request_route(pkt.dst).queue
        if len(queue) >= QUEUE_LIMIT:
            self.engine.drop_data(self.nid, queue.popleft(), "queue_overflow")
        queue.append(pkt)

    def pending_data_packets(self) -> list[Packet]:
        """Every data packet currently parked in this node (for conservation)."""
        return [pkt for state in self.pending.values() for pkt in state.queue]

    # ------------------------------------------------------------- discovery

    # functools.cache: the class attribute ``cache`` shadows a bare ``cache``
    @classmethod
    @functools.cache
    def discovery_rings(cls, variant: Variant) -> tuple[int, ...]:
        """Ring TTLs a discovery attempt actually walks; cached per class and
        variant, since every node of an engine asks."""
        return build_schedule(cls.protocol, variant).rings

    def request_route(self, dest: int) -> PendingRequest:
        """Start a discovery for dest unless one is already pending; return
        the pending record."""
        state = self.pending.get(dest)
        if state is None:
            self.seq += 1
            state = self.pending[dest] = PendingRequest(dest)
            self._emit_ring(state, self.rings[0], self._discovery_timeout)
        return state

    def _emit_ring(self, state: PendingRequest, ttl: int, on_timeout) -> None:
        """Flood a request for the search's destination to ttl hops as ring
        ``state.ring_index``, then arm its reply timer, which calls
        on_timeout(destination, req_id)."""
        now, dest = self.engine.now, state.destination
        req_id = state.req_id = len(self.rreq_opened)
        self.rreq_opened.append(now)
        self.seen_requests.add((self.nid, req_id))
        info = RreqInfo(req_id=req_id, ring_ttl=ttl, orig_seq=self.seq,
                        route=self._rreq_route)
        self.engine.send(self.nid, Packet("RREQ", CONTROL_SIZE, self.nid, dest,
                                          ttl, now, info))
        wait = self.ring_wait(self.params, state.ring_index, ttl)
        self.engine.schedule_in(wait, on_timeout, dest, req_id)

    def _discovery_timeout(self, dest: int, req_id: int) -> None:
        state = self.pending.get(dest)
        if state is None or state.req_id != req_id:
            return
        state.ring_index += 1
        if state.ring_index >= len(self.rings):
            self._finish_discovery(dest, False)
        else:
            self._emit_ring(state, self.rings[state.ring_index],
                            self._discovery_timeout)

    def _finish_discovery(self, dest: int, success: bool) -> None:
        state = self.pending.pop(dest, None)
        if state is None:
            return
        self.engine.discovery_finished(success)
        for pkt in state.queue:
            if success:
                self._dispatch_data(pkt)
            else:
                self.engine.drop_data(self.nid, pkt, "discovery_failed")

    def _handle_rreq(self, pkt: Packet, frm: int) -> None:
        # every request arrives with ttl >= 1: a ring or repair starts at 1 or
        # more, and a forward goes out only while the new ttl stays above 0
        key = (pkt.src, pkt.info.req_id)
        if key in self.seen_requests:
            if self.traced:
                self.engine.record("drop", self.nid, pkt, "duplicate")
            return
        self.seen_requests.add(key)
        fwd = self._learn_reverse(pkt, frm)
        if pkt.dst == self.nid:
            self._reply_as_target(pkt, fwd.route)
            return
        if self._reply_en_route(pkt, fwd.route):
            return
        new_ttl = pkt.ttl - 1
        if new_ttl > 0 and self.engine.forward_coin():
            self.engine.send(self.nid, Packet("RREQ", CONTROL_SIZE, pkt.src,
                                              pkt.dst, new_ttl,
                                              pkt.created_at, fwd))


class SourceRouteNode(Node):
    """DSR model: source routes from a route cache, salvaging, overhearing."""

    protocol = Protocol.DSR
    overhears = ("DATA", "RREP")

    def __init__(self, nid: int, variant: Variant, params: ErsParams, engine):
        super().__init__(nid, variant, params, engine)
        self.cache = RouteCache(params.tap_cache_size, nid)
        self._rreq_route = (nid,)
        self._grat_sent: dict[tuple[int, int], float] = {}

    @classmethod
    @functools.cache
    def discovery_rings(cls, variant: Variant) -> tuple[int, ...]:
        """The two-ring schedule plus MAX_MAIN_REXMT network-wide retries."""
        rings = super().discovery_rings(variant)
        return rings + (rings[-1],) * MAX_MAIN_REXMT

    @staticmethod
    def ring_wait(params: ErsParams, ring_index: int, ttl: int) -> float:
        """A fixed reply timeout, doubled per ring."""
        return params.nonprop_timeout * (2 ** ring_index)

    def _dispatch_data(self, pkt: Packet) -> None:
        info = pkt.info
        if not info.route or info.route[info.pos] != self.nid:
            route = self.cache.lookup(pkt.dst)
            if route is None:
                self._enqueue_data(pkt)
                return
            info.route = route
            info.pos = 0
        self._transmit_source_routed(pkt)

    def _transmit_source_routed(self, pkt: Packet) -> None:
        info = pkt.info
        nxt = info.route[info.pos + 1]
        info.pos += 1
        self.engine.send(self.nid, pkt, next_hop=nxt)

    def _learn_reverse(self, pkt: Packet, frm: int) -> RreqInfo:
        info = pkt.info
        path = info.route + (self.nid,)
        # links are symmetric, so the reversed prefix is a usable route back
        self.cache.insert(tuple(reversed(path)))
        return RreqInfo(req_id=info.req_id, ring_ttl=info.ring_ttl,
                        orig_seq=info.orig_seq, route=path)

    def _reply_as_target(self, pkt: Packet, path: tuple[int, ...]) -> None:
        self._send_rrep_source_routed(path, len(path) - 1)

    def _reply_en_route(self, pkt: Packet, path: tuple[int, ...]) -> bool:
        sub = self.cache.lookup(pkt.dst)
        if sub is None:
            return False
        full = path + sub[1:]
        if len(set(full)) != len(full):
            return False
        self._send_rrep_source_routed(full, len(path) - 1)
        return True

    def _send_rrep_source_routed(self, full_route: tuple[int, ...],
                                 replier: int) -> None:
        """Send full_route back from its node at index replier to its start."""
        info = RrepInfo(route=full_route, pos=replier)
        self._walk_back(Packet("RREP", CONTROL_SIZE, full_route[-1],
                               full_route[0], 0, self.engine.now, info))

    def _handle_rrep(self, pkt: Packet, frm: int) -> None:
        self.cache.insert(pkt.info.route)
        if self.nid == pkt.dst:
            self._finish_discovery(pkt.src, True)
            return
        self._walk_back(pkt)

    def _handle_rerr(self, pkt: Packet, frm: int) -> None:
        info = pkt.info
        if info.broken_link is not None:
            self.cache.purge_link(*info.broken_link)
        if self.nid != pkt.dst:
            self._walk_back(pkt)

    def _walk_back(self, pkt: Packet) -> None:
        # replies and errors walk their route back from the holder at pos to
        # route[0] == pkt.dst, so a holder that is not the destination always
        # has a previous hop
        info = pkt.info
        info.pos -= 1
        self.engine.send(self.nid, pkt, next_hop=info.route[info.pos])

    def _send_rerr_source_routed(self, data_pkt: Packet,
                                 broken: tuple[int, int]) -> None:
        # the data travelled from its source to this node, the last hop
        traveled = data_pkt.info.traveled
        info = RerrInfo(broken_link=broken, route=traveled,
                        pos=len(traveled) - 1)
        self._walk_back(Packet("RERR", CONTROL_SIZE, self.nid, data_pkt.src,
                               0, self.engine.now, info))

    def _link_failed(self, pkt: Packet, next_hop: int) -> None:
        self.cache.purge_link(self.nid, next_hop)
        if pkt.kind == "DATA":
            self._salvage_or_drop(pkt, next_hop)

    def _salvage_or_drop(self, pkt: Packet, broken_next: int) -> None:
        info = pkt.info
        if self.nid == pkt.src:
            # the source simply re-resolves: cached alternative or rediscovery
            info.route = ()
            info.pos = 0
            self._dispatch_data(pkt)
            return
        if info.salvage_count < MAX_MAIN_REXMT:
            alt = self.cache.lookup(pkt.dst)
            if alt is not None:
                info.salvage_count += 1
                info.route = alt
                info.pos = 0
                self._transmit_source_routed(pkt)
                return
            reason = "link_break"
        else:
            reason = "salvage_exhausted"
        self.engine.drop_data(self.nid, pkt, reason)
        self._send_rerr_source_routed(pkt, (self.nid, broken_next))

    def _overhear(self, pkt: Packet) -> None:
        """Cache overheard routes and shorten paths when possible.

        The engine hands over only DATA and RREP packets, and a DATA packet
        in flight has ``1 <= pos <= len(route) - 1``.
        """
        info = pkt.info
        route = info.route
        # most overheard routes are cached already: skip those inserts with
        # a dict lookup, not a method call
        if route not in self.cache:
            self.cache.insert(route)
        if pkt.kind == "RREP" or self.nid not in route:
            return
        sender_index = info.pos - 1
        own_index = route.index(self.nid)
        if own_index > sender_index + 1:
            key = (pkt.src, pkt.dst)
            now = self.engine.now
            if now - self._grat_sent.get(key, -1e9) < 1.0:
                return
            self._grat_sent[key] = now
            short = route[:sender_index + 1] + route[own_index:]
            self._send_rrep_source_routed(short, sender_index + 1)


class HopByHopNode(Node):
    """DYMO model: next-hop route table, route errors, hello link sensing.

    Only the destination answers a request; a forwarder that loses a route
    drops the packet and reports the destination unreachable.
    """

    protocol = Protocol.DYMO
    sends_hellos = True

    def __init__(self, nid: int, variant: Variant, params: ErsParams, engine):
        super().__init__(nid, variant, params, engine)
        self.routes: dict[int, RouteEntry] = {}
        self._last_hops: dict[int, int] = {}
        self.last_heard: dict[int, float] = {}

    @staticmethod
    def ring_wait(params: ErsParams, ring_index: int, ttl: int) -> float:
        """Scales with the ring TTL, capped by the network traversal budget."""
        return min(ring_traversal_wait(ttl, params), params.net_traversal_time)

    def _dispatch_data(self, pkt: Packet) -> None:
        dest = pkt.dst
        entry = self._valid_route(dest)
        if entry is not None:
            now = self.engine.now
            entry.valid_until = now + ROUTE_LIFETIME
            entry.last_data_use = now
            self.engine.send(self.nid, pkt, next_hop=entry.next_hop)
        elif self.nid == pkt.src:
            self._enqueue_data(pkt)
        else:
            self._route_lost(pkt, "no_route", [])

    def _route_lost(self, pkt: Packet, reason: str, active: list[int]) -> None:
        """A forwarder holds pkt but no route to its destination."""
        self.engine.drop_data(self.nid, pkt, reason)
        if pkt.dst not in active:
            active.append(pkt.dst)
        self._broadcast_rerr(tuple(active))

    def _neighbor_lost(self, active: list[int]) -> None:
        """Hellos stopped; active lists the destinations that carried data."""
        if active:
            self._broadcast_rerr(tuple(active))

    def _route_confirmed(self, dest: int) -> None:
        """A reply just installed a confirmed route to dest."""

    def _learn_reverse(self, pkt: Packet, frm: int) -> RreqInfo:
        # the request travelled ring_ttl - ttl hops to frm, and one more here
        info = pkt.info
        self._install_route(pkt.src, frm, info.ring_ttl - pkt.ttl + 1,
                            info.orig_seq)
        # no route accumulates, so the forward carries the record unchanged
        return info

    def _reply_as_target(self, pkt: Packet, path: tuple) -> None:
        self.seq += 1
        self._send_rrep(pkt.src, self.nid, 0, self.seq)

    def _reply_en_route(self, pkt: Packet, path: tuple) -> bool:
        return False

    def _send_rrep(self, orig: int, target: int, hops_from_target: int,
                   target_seq: int) -> None:
        entry = self._valid_route(orig)
        if entry is None:
            return
        now = self.engine.now
        entry.valid_until = now + ROUTE_LIFETIME
        info = RrepInfo(hops_from_target=hops_from_target,
                        target_seq=target_seq)
        pkt = Packet("RREP", CONTROL_SIZE, target, orig, 0, now, info)
        self.engine.send(self.nid, pkt, next_hop=entry.next_hop)

    def _handle_rrep(self, pkt: Packet, frm: int) -> None:
        info = pkt.info
        target = pkt.src
        hops = info.hops_from_target + 1
        self._install_route(target, frm, hops, info.target_seq, seq_valid=True)
        self._route_confirmed(target)
        if self.nid == pkt.dst:
            self._finish_discovery(target, True)
            return
        self._send_rrep(pkt.dst, target, hops, info.target_seq)

    def _handle_rerr(self, pkt: Packet, frm: int) -> None:
        affected = []
        for dest in pkt.info.unreachable:
            entry = self.routes.get(dest)
            if entry is not None and entry.next_hop == frm:
                del self.routes[dest]
                affected.append(dest)
        if affected:
            self._broadcast_rerr(tuple(affected))

    def _broadcast_rerr(self, dests: tuple[int, ...]) -> None:
        info = RerrInfo(unreachable=dests)
        self.engine.send(self.nid, Packet("RERR", CONTROL_SIZE, self.nid,
                                          BROADCAST, 1, self.engine.now, info))

    def _link_failed(self, pkt: Packet, next_hop: int) -> None:
        active = self._drop_routes_via(next_hop)
        if pkt.kind == "DATA":
            if self.nid == pkt.src:
                self._enqueue_data(pkt)
            else:
                self._route_lost(pkt, "link_break", active)

    def _hello_tick(self) -> None:
        now = self.engine.now
        self.engine.send(self.nid, Packet("HELLO", CONTROL_SIZE, self.nid,
                                          BROADCAST, 1, now, None))
        silence = HELLO_LOSS_THRESHOLD * HELLO_INTERVAL
        broken = [nbr for nbr, heard in self.last_heard.items()
                  if now - heard > silence]
        for nbr in broken:
            del self.last_heard[nbr]
            self._neighbor_lost(self._drop_routes_via(nbr))
        self.engine.schedule_in(HELLO_INTERVAL, self.on_hello_tick)

    def _valid_route(self, dest: int) -> RouteEntry | None:
        entry = self.routes.get(dest)
        if entry is None:
            return None
        if self.engine.now >= entry.valid_until:
            del self.routes[dest]
            return None
        return entry

    def _install_route(self, dest: int, next_hop: int, hops: int, seq: int,
                       seq_valid: bool = False) -> None:
        if dest == self.nid:
            return
        now = self.engine.now
        current = self.routes.get(dest)
        if current is not None and now < current.valid_until \
                and not (seq_valid and not current.seq_valid):
            if seq < current.seq:
                return
            if seq == current.seq and hops > current.hop_count:
                return
        last_use = current.last_data_use if current is not None else float("-inf")
        self.routes[dest] = RouteEntry(next_hop=next_hop, hop_count=hops,
                                       valid_until=now + ROUTE_LIFETIME,
                                       seq=seq, seq_valid=seq_valid,
                                       last_data_use=last_use)
        self._last_hops[dest] = hops

    def _drop_routes_via(self, next_hop: int) -> list[int]:
        """Forget every route through next_hop.

        Returns the destinations of those that carried data recently: only
        they are worth maintaining; reverse routes left behind by passing
        floods just expire.
        """
        via = [(dest, entry) for dest, entry in self.routes.items()
               if entry.next_hop == next_hop]
        for dest, _ in via:
            del self.routes[dest]
        now = self.engine.now
        return [dest for dest, entry in via
                if now - entry.last_data_use <= ROUTE_LIFETIME]


class AodvNode(HopByHopNode):
    """AODV model: intermediate replies from confirmed routes, local repair."""

    protocol = Protocol.AODV

    def __init__(self, nid: int, variant: Variant, params: ErsParams, engine):
        super().__init__(nid, variant, params, engine)
        self.repairs: dict[int, PendingRequest] = {}

    def _reply_en_route(self, pkt: Packet, path: tuple) -> bool:
        entry = self._valid_route(pkt.dst)
        if entry is None or not entry.seq_valid:
            return False
        self._send_rrep(pkt.src, pkt.dst, entry.hop_count, entry.seq)
        return True

    def _route_lost(self, pkt: Packet, reason: str, active: list[int]) -> None:
        self._start_repair(pkt.dst, pkt)

    def _neighbor_lost(self, active: list[int]) -> None:
        for dest in active:
            self._start_repair(dest)

    def _start_repair(self, dest: int, pkt: Packet | None = None) -> None:
        """Bounded re-discovery next to a broken link, sized by the last
        known hop count to dest."""
        state = self.repairs.get(dest)
        if state is None:
            state = self.repairs[dest] = PendingRequest(dest)
            ttl = max(1, self._last_hops.get(dest, 1)) + self.params.local_add_ttl
            self.seq += 1
            self._emit_ring(state, ttl, self._repair_timeout)
        if pkt is not None:
            state.queue.append(pkt)

    def _repair_timeout(self, dest: int, req_id: int) -> None:
        state = self.repairs.get(dest)
        if state is None or state.req_id != req_id:
            return
        if self._valid_route(dest) is not None:
            self._route_confirmed(dest)
            return
        del self.repairs[dest]
        for pkt in state.queue:
            self.engine.drop_data(self.nid, pkt, "repair_failed")
        self._broadcast_rerr((dest,))

    def _route_confirmed(self, dest: int) -> None:
        state = self.repairs.pop(dest, None)
        if state is None:
            return
        for pkt in state.queue:
            self._dispatch_data(pkt)

    def pending_data_packets(self) -> list[Packet]:
        return super().pending_data_packets() + [
            pkt for state in self.repairs.values() for pkt in state.queue]


NODE_CLASSES: dict[Protocol, type[Node]] = {
    cls.protocol: cls for cls in (AodvNode, SourceRouteNode, HopByHopNode)}
