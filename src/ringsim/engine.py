"""Deterministic discrete-event engine with a unit-disk broadcast link model.

One engine instance simulates one scenario cell: a fixed protocol and ring
variant, one seed, one pause time.  Broadcasts reach every current unit-disk
neighbor after serialization plus a per-hop processing latency; there is no
MAC contention, so the only losses come from mobility and the rebroadcast
coin.  Identical (config, seed) pairs produce bit-identical metrics.

Nodes borrow their engine through a weak proxy, and ``run()`` drops the
events still pending past ``duration``, so no reference cycle is left and a
finished engine is freed as soon as its last reference goes.  Keep the
engine referenced while you use its nodes: a node whose engine is gone
raises ``ReferenceError``.
"""

from __future__ import annotations

import heapq
import math
import random
import weakref
from dataclasses import dataclass, field

from .analytics import Protocol, Variant, default_params
from .packets import DATA_SIZE, DataInfo, Packet
from .protocols import HELLO_INTERVAL, NODE_CLASSES
from .topology import (
    Arena,
    Graph,
    generate_topology,
    init_waypoints,
    track_neighbors,
    unit_disk_neighbors,
    waypoint_step,
)

BANDWIDTH = 2_000_000.0   # bits per second on every link
HOP_LATENCY = 0.001       # seconds of processing per hop
MOBILITY_TICK = 0.1       # seconds between waypoint steps and neighbor recomputes
DATA_HOP_LIMIT = 64       # initial TTL of a data packet


@dataclass(frozen=True)
class RunConfig:
    protocol: Protocol = Protocol.AODV
    variant: Variant = Variant.ERS1
    n_nodes: int = 50
    arena: Arena = Arena(1000.0, 1000.0, 250.0)
    v_max: float = 30.0
    pause_time: float = 0.0
    duration: float = 300.0
    warmup: float = 0.0
    traffic_pairs: int = 10
    traffic_rate: float = 4.0
    packet_size: int = DATA_SIZE
    p_s: float = 1.0
    seed: int = 1
    trace: bool = False

    def __post_init__(self):
        # an infinite duration never ends and a NaN passes every comparison;
        # p_s is held to [0, 1] below
        problems = [f"{name} must be finite" for name in
                    ("v_max", "pause_time", "duration", "warmup", "traffic_rate")
                    if not math.isfinite(getattr(self, name))]
        if self.n_nodes < 1:
            problems.append("n_nodes must be >= 1")
        if self.duration <= self.warmup:
            problems.append("duration must exceed warmup")
        if self.warmup < 0:
            problems.append("warmup must be >= 0")
        if self.traffic_pairs < 0:
            problems.append("traffic_pairs must be >= 0")
        if self.traffic_pairs > 0 and self.n_nodes < 2:
            problems.append("traffic_pairs needs at least 2 nodes")
        if self.traffic_rate <= 0:
            problems.append("traffic_rate must be > 0")
        if self.packet_size < 1:
            problems.append("packet_size must be >= 1")
        if not 0.0 <= self.p_s <= 1.0:
            problems.append("p_s must lie in [0, 1]")
        if self.v_max < 0:
            problems.append("v_max must be >= 0")
        if self.pause_time < 0:
            problems.append("pause_time must be >= 0")
        if problems:
            raise ValueError("invalid run config: " + "; ".join(problems))


@dataclass
class MetricsRecord:
    """Counters a run accumulates; metric values are derived afterwards."""

    data_sent: int = 0
    data_delivered: int = 0
    data_bytes_delivered: int = 0
    delays: list = field(default_factory=list)
    control_tx: dict = field(default_factory=dict)   # control kind -> sends
    drops: dict = field(default_factory=dict)        # reason -> count
    discovery_success: int = 0
    discovery_fail: int = 0
    data_inflight_end: int = 0
    rreq_tx: dict = field(default_factory=dict)      # (orig, req_id) -> sends

    @property
    def control_total(self) -> int:
        return sum(self.control_tx.values())


def compute_throughput(metrics: MetricsRecord, duration: float) -> float:
    """Delivered payload bits per second over the measured window."""
    if duration <= 0:
        raise ValueError("duration must be > 0")
    return metrics.data_bytes_delivered * 8 / duration


def compute_e2ed(metrics: MetricsRecord) -> float | None:
    """Mean end-to-end delay of delivered data packets; None when undefined."""
    if not metrics.delays:
        return None
    return sum(metrics.delays) / len(metrics.delays)


def compute_nrl(metrics: MetricsRecord) -> float | None:
    """Control transmissions (per hop) per delivered data packet; None when undefined."""
    if metrics.data_delivered == 0:
        return None
    return metrics.control_total / metrics.data_delivered


class Engine:
    """Single-threaded event loop owning every node's protocol state."""

    def __init__(self, config: RunConfig):
        self.config = config
        self.now = 0.0
        # pending callbacks: a heap of distinct times, and per time a list of
        # (fn, args) in scheduling order
        self._times: list[float] = []
        self._buckets: dict[float, list[tuple]] = {}
        self.params = default_params(config.protocol, config.variant)
        self.metrics = MetricsRecord()
        self.trace: list[tuple] | None = [] if config.trace else None

        # each random stream is seeded from "<seed>:<name>" and built only
        # where it is drawn, so building or skipping one shifts no other
        seed = config.seed
        # forward_coin draws only below p_s = 1
        self._rng_forward = (random.Random(f"{seed}:forward")
                             if config.p_s < 1.0 else None)

        self.graph0: Graph = generate_topology(seed, config.n_nodes, config.arena)
        self.neighbor_lists = self.graph0.neighbors

        self.node_class = NODE_CLASSES[config.protocol]
        # looked up once, like params, and handed to every node
        rings = self.node_class.discovery_rings(config.variant)
        # a proxy, not self: nodes and engine form no cycle
        me = weakref.proxy(self)
        self.nodes = [self.node_class(i, rings, self.params, me)
                      for i in range(config.n_nodes)]
        # random-waypoint state and the neighbor tracker, only when nodes move
        self._waypoints = self._neighbors = self._rng_mobility = None
        if config.v_max > 0:
            self._rng_mobility = random.Random(f"{seed}:mobility")
            self._waypoints = init_waypoints(
                self.graph0.positions, config.arena, config.v_max,
                self._rng_mobility)
            self._neighbors = track_neighbors(
                self._waypoints, self.graph0.neighbors,
                config.arena.radio_range, MOBILITY_TICK)

    # ------------------------------------------------------------- scheduling

    def schedule_in(self, delay: float, fn, *args) -> None:
        if delay < 0:
            raise ValueError("cannot schedule into the past")
        at = self.now + delay
        bucket = self._buckets.get(at)
        if bucket is None:
            self._buckets[at] = [(fn, args)]
            heapq.heappush(self._times, at)
        else:
            bucket.append((fn, args))

    # -------------------------------------------------------------- main loop

    def run(self) -> MetricsRecord:
        cfg = self.config
        if self._waypoints is not None:
            self.schedule_in(MOBILITY_TICK, self._mobility_tick)
        if self.node_class.sends_hellos:
            proto = random.Random(f"{cfg.seed}:proto")
            for node in self.nodes:
                offset = proto.uniform(0, HELLO_INTERVAL)
                self.schedule_in(offset, node.on_hello_tick)
        if cfg.traffic_pairs:
            traffic = random.Random(f"{cfg.seed}:traffic")
            for _ in range(cfg.traffic_pairs):
                src = traffic.randrange(cfg.n_nodes)
                dst = traffic.randrange(cfg.n_nodes - 1)
                if dst >= src:
                    dst += 1
                interval = 1.0 / cfg.traffic_rate
                offset = traffic.uniform(0, interval)
                self.schedule_in(offset, self._traffic_tick, src, dst, interval)

        # a callback that schedules at the current time appends to the bucket
        # being iterated, so it runs later in this same pass
        times, buckets = self._times, self._buckets
        heappop, duration = heapq.heappop, cfg.duration
        while times and times[0] <= duration:
            now = self.now = heappop(times)
            for fn, args in buckets[now]:
                fn(*args)
            del buckets[now]
        self.now = duration
        self._account_in_flight()
        return self.metrics

    def _account_in_flight(self) -> None:
        # a data packet still held sits in one pending queue or on the link,
        # never in both.  On the link it is an argument of a pending on_packet
        # event and of its overheard copies; a packet is equal only to itself,
        # so the set holds it once.
        on_link = {arg for bucket in self._buckets.values()
                   for _, args in bucket for arg in args
                   if isinstance(arg, Packet) and arg.kind == "DATA"}
        # the callbacks past duration never run, and they hold bound methods
        # of the engine and its nodes: drop them before the check can raise
        self._times.clear()
        self._buckets.clear()
        held = [pkt for node in self.nodes for pkt in node.pending_data_packets()]
        held.extend(on_link)
        warmup = self.config.warmup
        metrics = self.metrics
        metrics.data_inflight_end = sum(pkt.created_at >= warmup for pkt in held)
        # every measured packet ends delivered or dropped, or is still held
        dropped = sum(metrics.drops.values())
        if metrics.data_sent != (metrics.data_delivered + dropped
                                 + metrics.data_inflight_end):
            raise RuntimeError(
                f"packet conservation violated: sent {metrics.data_sent} != "
                f"delivered {metrics.data_delivered} + dropped {dropped} + "
                f"in flight {metrics.data_inflight_end}")

    # ------------------------------------------------------------ tick events

    def _mobility_tick(self) -> None:
        cfg = self.config
        redrawn = waypoint_step(self._waypoints, MOBILITY_TICK, cfg.pause_time,
                                cfg.v_max, cfg.arena, self._rng_mobility)
        self.neighbor_lists = unit_disk_neighbors(self._neighbors,
                                                  self._waypoints, redrawn)
        self.schedule_in(MOBILITY_TICK, self._mobility_tick)

    def _traffic_tick(self, src: int, dst: int, interval: float) -> None:
        pkt = Packet("DATA", self.config.packet_size, src, dst,
                     DATA_HOP_LIMIT, self.now, DataInfo())
        if pkt.created_at >= self.config.warmup:
            self.metrics.data_sent += 1
        self.nodes[src].send_data(pkt)
        self.schedule_in(interval, self._traffic_tick, src, dst, interval)

    # ---------------------------------------------------------- transmissions

    def send(self, sender: int, pkt: Packet, next_hop: int | None = None) -> None:
        if pkt.kind != "DATA" and self.now >= self.config.warmup:
            self.metrics.control_tx[pkt.kind] = \
                self.metrics.control_tx.get(pkt.kind, 0) + 1
            if pkt.kind == "RREQ":
                key = (pkt.src, pkt.info.req_id)
                self.metrics.rreq_tx[key] = self.metrics.rreq_tx.get(key, 0) + 1
        if self.trace is not None:
            self.record("send", sender, pkt, "-" if pkt.kind != "RREQ"
                        else (pkt.info.req_id, pkt.info.ring_ttl))
        delay = pkt.size * 8 / BANDWIDTH + HOP_LATENCY
        if next_hop is None:
            for nb in self.neighbor_lists[sender]:
                self.schedule_in(delay, self.nodes[nb].on_packet, pkt, sender)
            return
        if next_hop in self.neighbor_lists[sender]:
            if pkt.kind in self.node_class.overhears:
                # overhearing neighbors must run before the next hop forwards
                for nb in self.neighbor_lists[sender]:
                    if nb != next_hop:
                        self.schedule_in(delay, self.nodes[nb].on_overhear, pkt)
            self.schedule_in(delay, self.nodes[next_hop].on_packet, pkt, sender)
        else:
            # a failed hand-off is not a loss: the node salvages, re-queues
            # or drops the packet, and only a drop is traced as one
            if self.trace is not None:
                self.record("fail", sender, pkt, "link_fail")
            self.nodes[sender].on_unicast_fail(pkt, next_hop)

    # ------------------------------------------------------- node-facing hooks

    def forward_coin(self) -> bool:
        return self.config.p_s >= 1.0 \
            or self._rng_forward.random() < self.config.p_s

    # a packet ends in exactly one call to data_delivered or drop_data; a
    # second end is counted again and fails the conservation check
    def data_delivered(self, pkt: Packet) -> None:
        if pkt.created_at >= self.config.warmup:
            self.metrics.data_delivered += 1
            self.metrics.data_bytes_delivered += pkt.size
            self.metrics.delays.append(self.now - pkt.created_at)

    def drop_data(self, node: int, pkt: Packet, reason: str) -> None:
        if pkt.created_at >= self.config.warmup:
            self.metrics.drops[reason] = self.metrics.drops.get(reason, 0) + 1
        if self.trace is not None:
            self.record("drop", node, pkt, reason)

    def discovery_finished(self, success: bool) -> None:
        if self.now < self.config.warmup:
            return
        if success:
            self.metrics.discovery_success += 1
        else:
            self.metrics.discovery_fail += 1

    # ------------------------------------------------------------------ trace

    # the one trace writer; callers check ``trace`` (nodes their ``traced``)
    # first, so an untraced run makes no call at all
    def record(self, kind: str, node: int, pkt: Packet, reason) -> None:
        self.trace.append((self.now, kind, node, pkt.kind, pkt.src, pkt.dst,
                           pkt.ttl, reason))


def format_trace(records: list[tuple]) -> str:
    """Stable text form: `time kind node pkt_kind src dst ttl reason` per line.

    Records hold those fields as values; ``kind`` is send, recv, drop or fail
    (a unicast whose next hop has gone), and ``node`` is where the event
    happened.
    Only here does a request send's ``(req_id, ring_ttl)`` reason become
    ``q<src>.<req_id>r<ring_ttl>``; no code parses the text."""
    lines = []
    for t, kind, node, pkt_kind, src, dst, ttl, reason in records:
        if not isinstance(reason, str):
            reason = "q{}.{}r{}".format(src, *reason)
        lines.append(f"{t:12.6f} {kind} {node} {pkt_kind} {src} {dst} {ttl} {reason}")
    return "\n".join(lines) + ("\n" if lines else "")
