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
    TtlSchedule,
    avg_degree,
)


@dataclass(frozen=True)
class Arena:
    """Rectangular deployment area with a common radio range, meters."""

    width: float
    height: float
    radio_range: float

    def __post_init__(self):
        for name in ("width", "height", "radio_range"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"arena {name} must be finite")
        if self.width <= 0 or self.height <= 0 or self.radio_range <= 0:
            raise ValueError("arena dimensions and radio range must be > 0")


@dataclass(frozen=True)
class Graph:
    """Immutable unit-disk connectivity snapshot.

    Nodes i and j are adjacent iff their Euclidean distance is at most the
    radio range given to :func:`graph_from_positions`.  Neighbor lists are
    sorted, symmetric, self-loop free.
    """

    positions: tuple[tuple[float, float], ...]
    neighbors: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.positions)


# a boolean unit-disk adjacency matrix and the neighbor rows built from it
Adjacency = tuple[np.ndarray, list[tuple[int, ...]]]


def unit_disk_neighbors(positions: Sequence[tuple[float, float]] | np.ndarray,
                        radio_range: float,
                        prev: Adjacency | None = None) -> Adjacency:
    """Sorted neighbor rows under the unit-disk rule (distance <= range).

    Returns ``(within, rows)``: the boolean adjacency matrix and one sorted
    tuple of neighbor ids per node.  Pass an earlier result for the same nodes
    as ``prev`` and only the rows whose adjacency changed are rebuilt; every
    other row is the earlier tuple itself.  An (n, 2) float64 array, such as
    ``WaypointState.pos``, is read as is.
    """
    pts = np.asarray(positions, dtype=float).reshape(len(positions), 2)
    x, y = pts[:, 0], pts[:, 1]
    # dx * dx + dy * dy, computed in place: the same operations, the same bits
    dist2 = x[:, None] - x
    dist2 *= dist2
    dy2 = y[:, None] - y
    dy2 *= dy2
    dist2 += dy2
    within = dist2 <= radio_range * radio_range
    np.fill_diagonal(within, False)
    if prev is not None:
        prev_within, rows = prev
        rows = list(rows)
        for i in (within != prev_within).any(axis=1).nonzero()[0].tolist():
            rows[i] = tuple(within[i].nonzero()[0].tolist())
        return within, rows
    # one nonzero over the whole matrix; its column indices come row-major,
    # so each row's neighbors are a contiguous, already sorted run
    cols = tuple(within.nonzero()[1].tolist())
    rows, start = [], 0
    for count in within.sum(axis=1).tolist():
        rows.append(cols[start:start + count])
        start += count
    return within, rows


def graph_from_positions(positions: Sequence[tuple[float, float]],
                         radio_range: float) -> Graph:
    _, rows = unit_disk_neighbors(positions, radio_range)
    return Graph(
        positions=tuple((float(x), float(y)) for x, y in positions),
        neighbors=tuple(rows),
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


def bfs_rings(graph: Graph, source: int) -> tuple[int, ...]:
    """Count nodes at each exact hop distance: entry i holds distance i+1."""
    dist = hop_distances(graph, source)
    counts = [0] * max(dist)
    for d in dist:
        if d > 0:
            counts[d - 1] += 1
    return tuple(counts)


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
    ecc = max(dist)
    # per hop d < ecc: the nodes at d, and their edges to nodes at d + 1
    sizes, edges = [0] * ecc, [0] * ecc
    for u, d in enumerate(dist):
        if 0 <= d < ecc:
            sizes[d] += 1
            edges[d] += sum(dist[v] == d + 1 for v in graph.neighbors[u])
    d_f = [e / s for e, s in zip(edges, sizes)]
    if horizon is not None:
        if horizon < len(d_f):
            d_f = d_f[:horizon]
        else:
            d_f.extend(0.0 for _ in range(horizon - len(d_f)))
    d_avg = avg_degree(d_f, len(d_f)) if d_f else 0.0
    return ConnectivityProfile(p_s=p_s, d_avg=d_avg, d_f=tuple(d_f))


def location_distribution(graph: Graph, source: int,
                          schedule: TtlSchedule) -> LocationDistribution:
    """P(i) that a uniformly random destination is first covered by ring i."""
    if graph.n < 2:
        raise ValueError("location distribution needs at least two nodes")
    counts = bfs_rings(graph, source)
    total = graph.n - 1
    p, covered = [], 0
    # ring TTLs never decrease, so ring i covers what its TTL reaches beyond
    # the rings before it
    for ttl in schedule.rings:
        within = sum(counts[:ttl])
        p.append((within - covered) / total)
        covered = within
    return LocationDistribution(p=tuple(p))


@dataclass(eq=False)
class WaypointState:
    """Random-waypoint state of every node, one array row or entry per node.

    ``pos`` and ``wp`` are (n, 2) float64 positions and waypoints, ``speed``
    and ``pause`` (seconds of pause left) are float64 vectors.  The arrays are
    updated in place.
    """

    pos: np.ndarray
    wp: np.ndarray
    speed: np.ndarray
    pause: np.ndarray


def _draw_waypoint(arena: Arena, rng: random.Random) -> tuple[float, float]:
    return (rng.uniform(0.0, arena.width), rng.uniform(0.0, arena.height))


def _draw_speed(v_max: float, rng: random.Random) -> float:
    # Lower bound at a tenth of v_max avoids near-zero speeds that would
    # leave nodes stranded mid-trip for the rest of the run.
    return rng.uniform(0.1 * v_max, v_max)


def init_waypoints(positions: Sequence[tuple[float, float]], arena: Arena,
                   v_max: float, rng: random.Random) -> WaypointState:
    """Start every node moving: a waypoint and a speed drawn per node, in order."""
    n = len(positions)
    wp, speed = [], []
    for _ in range(n):
        wp.append(_draw_waypoint(arena, rng))
        speed.append(_draw_speed(v_max, rng))
    return WaypointState(pos=np.array(positions, dtype=float).reshape(n, 2),
                         wp=np.array(wp, dtype=float).reshape(n, 2),
                         speed=np.array(speed, dtype=float),
                         pause=np.zeros(n))


def waypoint_step(state: WaypointState, dt: float, pause_time: float,
                  v_max: float, arena: Arena, rng: random.Random) -> None:
    """Advance every node by dt seconds of random-waypoint motion, in place.

    Paused nodes burn pause time; on expiry they draw a fresh waypoint and
    speed.  Moving nodes travel straight at their speed and stop at the
    waypoint, picking up pause_time there (or a new waypoint immediately when
    pause_time is zero).

    Each node gets the same bits as stepping it alone in Python floats:
    distances come from ``math.hypot`` (``np.hypot`` and a square root of
    squares round differently), ``x + dx * frac`` is a separate multiply and
    add, and nodes that need a new waypoint and speed draw them after the
    arithmetic, in ascending index order.
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    pos, wp, speed, pause = state.pos, state.wp, state.speed, state.pause
    delta = wp - pos
    distance = np.fromiter(map(math.hypot, delta[:, 0].tolist(),
                               delta[:, 1].tolist()), float, len(speed))
    step = speed * dt
    paused = pause > 0
    arrived = ~paused & (distance <= step)
    moving = ~(paused | arrived)   # distance > step >= 0, so no zero divide
    frac = np.divide(step, distance, out=np.zeros_like(step), where=moving)
    np.add(pos, delta * frac[:, None], out=pos, where=moving[:, None])
    np.copyto(pos, wp, where=arrived[:, None])

    np.subtract(pause, dt, out=pause, where=paused)
    redraw = paused & (pause <= 0)
    if pause_time > 0:
        pause[arrived] = pause_time
    else:
        redraw |= arrived
    pause[redraw] = 0.0
    for i in np.flatnonzero(redraw).tolist():
        wp[i] = _draw_waypoint(arena, rng)
        speed[i] = _draw_speed(v_max, rng)
