"""Unit-disk topologies, hop-ring decomposition, and random-waypoint motion."""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .analytics import (
    ConnectivityProfile,
    LocationDistribution,
    RingPopulation,
    TtlSchedule,
)


@dataclass(frozen=True)
class Arena:
    """Rectangular deployment area with a common radio range, meters."""

    width: float
    height: float
    radio_range: float

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0 or self.radio_range <= 0:
            raise ValueError("arena dimensions and radio range must be > 0")


@dataclass(frozen=True)
class Graph:
    """Immutable unit-disk connectivity snapshot.

    Nodes i and j are adjacent iff their Euclidean distance is at most
    radio_range.  Neighbor lists are sorted, symmetric, self-loop free.
    """

    positions: tuple[tuple[float, float], ...]
    radio_range: float
    neighbors: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.positions)


def unit_disk_neighbors(positions: Sequence[tuple[float, float]],
                        radio_range: float) -> list[list[int]]:
    """Sorted neighbor lists under the unit-disk rule (distance <= range)."""
    pts = np.asarray(positions, dtype=float).reshape(len(positions), 2)
    x, y = pts[:, 0], pts[:, 1]
    dx = x[:, None] - x[None, :]
    dy = y[:, None] - y[None, :]
    within = dx * dx + dy * dy <= radio_range * radio_range
    np.fill_diagonal(within, False)
    # one nonzero over the whole matrix; its column indices come row-major,
    # so each row's neighbors are a contiguous, already sorted run
    cols = np.nonzero(within)[1].tolist()
    rows, start = [], 0
    for count in within.sum(axis=1).tolist():
        rows.append(cols[start:start + count])
        start += count
    return rows


def graph_from_positions(positions: Sequence[tuple[float, float]],
                         radio_range: float) -> Graph:
    nbrs = unit_disk_neighbors(positions, radio_range)
    return Graph(
        positions=tuple((float(x), float(y)) for x, y in positions),
        radio_range=radio_range,
        neighbors=tuple(tuple(row) for row in nbrs),
    )


def generate_topology(seed: int, n: int, arena: Arena) -> Graph:
    """Drop n nodes uniformly at random over the arena; same seed, same graph."""
    if n < 1:
        raise ValueError("need at least one node")
    rng = random.Random(seed)
    positions = [(rng.uniform(0.0, arena.width), rng.uniform(0.0, arena.height))
                 for _ in range(n)]
    return graph_from_positions(positions, arena.radio_range)


def hop_distances(graph: Graph, source: int) -> list[int]:
    """BFS hop distance from source to every node; -1 when unreachable."""
    if not 0 <= source < graph.n:
        raise ValueError(f"source {source} not in graph of {graph.n} nodes")
    dist = [-1] * graph.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in graph.neighbors[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def bfs_rings(graph: Graph, source: int) -> RingPopulation:
    """Count nodes at each exact hop distance from the source."""
    dist = hop_distances(graph, source)
    reach = [d for d in dist if d > 0]
    counts = [0] * (max(reach) if reach else 0)
    for d in reach:
        counts[d - 1] += 1
    return RingPopulation(counts=tuple(counts))


def connectivity_profile(graph: Graph, source: int, p_s: float,
                         horizon: int | None = None) -> ConnectivityProfile:
    """Measure per-hop forwarding degrees from a source.

    d_f[j] is the average number of hop-(j) neighbors per hop-(j-1) node,
    i.e. how many fresh nodes each member of the previous ring forwards to.
    Rings beyond the graph's reach have forwarding degree 0; pass ``horizon``
    to extend the list with those measured zeros.  d_avg is the mean over the
    returned entries (0 for an isolated source).
    """
    dist = hop_distances(graph, source)
    reach = [d for d in dist if d > 0]
    ecc = max(reach) if reach else 0
    rings: list[list[int]] = [[] for _ in range(ecc + 1)]
    for node, d in enumerate(dist):
        if d >= 0:
            rings[d].append(node)

    d_f: list[float] = []
    for j in range(1, ecc + 1):
        prev = rings[j - 1]
        nxt = set(rings[j])
        if not prev:
            d_f.append(0.0)
            continue
        edges = sum(1 for u in prev for v in graph.neighbors[u] if v in nxt)
        d_f.append(edges / len(prev))
    if horizon is not None:
        if horizon < len(d_f):
            d_f = d_f[:horizon]
        else:
            d_f.extend(0.0 for _ in range(horizon - len(d_f)))
    d_avg = sum(d_f) / len(d_f) if d_f else 0.0
    return ConnectivityProfile(p_s=p_s, d_avg=d_avg, d_f=tuple(d_f))


def location_distribution(graph: Graph, source: int,
                          schedule: TtlSchedule) -> LocationDistribution:
    """P(i) that a uniformly random destination is first covered by ring i."""
    if graph.n < 2:
        raise ValueError("location distribution needs at least two nodes")
    dist = hop_distances(graph, source)
    counts = [0] * len(schedule.rings)
    for node, d in enumerate(dist):
        if node == source or d < 0:
            continue
        for i, ttl in enumerate(schedule.rings):
            if d <= ttl:
                counts[i] += 1
                break
    total = graph.n - 1
    return LocationDistribution(p=tuple(c / total for c in counts))


@dataclass(frozen=True)
class WaypointState:
    """One node's random-waypoint state: where it is, where it heads, how fast."""

    position: tuple[float, float]
    waypoint: tuple[float, float]
    speed: float
    pause_remaining: float


def _draw_waypoint(arena: Arena, rng: random.Random) -> tuple[float, float]:
    return (rng.uniform(0.0, arena.width), rng.uniform(0.0, arena.height))


def _draw_speed(v_max: float, rng: random.Random) -> float:
    # Lower bound at a tenth of v_max avoids near-zero speeds that would
    # leave nodes stranded mid-trip for the rest of the run.
    return rng.uniform(0.1 * v_max, v_max)


def init_waypoint(position: tuple[float, float], arena: Arena, v_max: float,
                  rng: random.Random) -> WaypointState:
    return WaypointState(position=position, waypoint=_draw_waypoint(arena, rng),
                         speed=_draw_speed(v_max, rng), pause_remaining=0.0)


def waypoint_step(state: WaypointState, dt: float, pause_time: float,
                  v_max: float, arena: Arena, rng: random.Random) -> WaypointState:
    """Advance one node by dt seconds of random-waypoint motion.

    Paused nodes burn pause time; on expiry they draw a fresh waypoint and
    speed.  Moving nodes travel straight at their speed and stop at the
    waypoint, picking up pause_time there (or a new waypoint immediately when
    pause_time is zero).
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    if state.pause_remaining > 0:
        remaining = state.pause_remaining - dt
        if remaining > 0:
            return WaypointState(state.position, state.waypoint, state.speed,
                                 remaining)
        return WaypointState(position=state.position,
                             waypoint=_draw_waypoint(arena, rng),
                             speed=_draw_speed(v_max, rng),
                             pause_remaining=0.0)

    x, y = state.position
    wx, wy = state.waypoint
    dx, dy = wx - x, wy - y
    distance = math.hypot(dx, dy)
    step = state.speed * dt
    if distance <= step:
        if pause_time > 0:
            return WaypointState(state.waypoint, state.waypoint, state.speed,
                                 pause_time)
        return WaypointState(position=state.waypoint,
                             waypoint=_draw_waypoint(arena, rng),
                             speed=_draw_speed(v_max, rng),
                             pause_remaining=0.0)
    frac = step / distance
    return WaypointState((x + dx * frac, y + dy * frac), state.waypoint,
                         state.speed, state.pause_remaining)


def dump_topology(graph: Graph) -> str:
    """Plain-text dump: one `id x y` line per node, then one `i j` line per edge."""
    lines = [f"{i} {x:.3f} {y:.3f}" for i, (x, y) in enumerate(graph.positions)]
    for i, nbrs in enumerate(graph.neighbors):
        lines.extend(f"{i} {j}" for j in nbrs if i < j)
    return "\n".join(lines) + "\n"
