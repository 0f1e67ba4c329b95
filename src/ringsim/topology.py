"""Unit-disk topologies, hop-ring decomposition, and random-waypoint motion."""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass
from typing import Sequence

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


def graph_from_positions(positions: Sequence[tuple[float, float]],
                         radio_range: float) -> Graph:
    """Build the unit-disk graph of the given (finite) positions in pure Python.

    Nodes i and j are adjacent iff ``dx * dx + dy * dy <= radio_range ** 2``,
    the same float operations as :func:`unit_disk_neighbors`, so the rows
    are the same bit for bit.
    """
    pts = tuple((float(x), float(y)) for x, y in positions)
    # a nan would leave the x order below unsorted
    if not all(math.isfinite(x) and math.isfinite(y) for x, y in pts):
        raise ValueError("node positions must be finite")
    r2 = radio_range * radio_range
    # a sweep in x order: once dx * dx alone exceeds r2, it does for every
    # later node too (rounding is monotone), and so does dx * dx + dy * dy
    by_x = sorted((x, y, i) for i, (x, y) in enumerate(pts))
    rows = [[] for _ in pts]
    for a, (xi, yi, i) in enumerate(by_x, 1):
        row = rows[i]
        for xj, yj, j in by_x[a:]:
            dx = xi - xj
            dx2 = dx * dx
            if dx2 > r2:
                break
            dy = yi - yj
            if dx2 + dy * dy <= r2:
                row.append(j)
                rows[j].append(i)
    for row in rows:
        row.sort()
    return Graph(positions=pts, neighbors=tuple(map(tuple, rows)))


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
    """Random-waypoint state of every node, one list entry per node.

    ``x`` and ``y`` are positions, ``wx`` and ``wy`` waypoints, ``speed`` is
    in m/s and ``pause`` is the seconds of pause left, all Python floats.
    The lists are updated in place.
    """

    x: list[float]
    y: list[float]
    wx: list[float]
    wy: list[float]
    speed: list[float]
    pause: list[float]


def _draw_waypoint(arena: Arena, rng: random.Random) -> tuple[float, float]:
    return (rng.uniform(0.0, arena.width), rng.uniform(0.0, arena.height))


def _draw_speed(v_max: float, rng: random.Random) -> float:
    # Lower bound at a tenth of v_max avoids near-zero speeds that would
    # leave nodes stranded mid-trip for the rest of the run.
    return rng.uniform(0.1 * v_max, v_max)


def init_waypoints(positions: Sequence[tuple[float, float]], arena: Arena,
                   v_max: float, rng: random.Random) -> WaypointState:
    """Start every node moving: a waypoint and a speed drawn per node, in order."""
    wx, wy, speed = [], [], []
    for _ in positions:
        x, y = _draw_waypoint(arena, rng)
        wx.append(x)
        wy.append(y)
        speed.append(_draw_speed(v_max, rng))
    return WaypointState(x=[float(x) for x, _ in positions],
                         y=[float(y) for _, y in positions],
                         wx=wx, wy=wy, speed=speed,
                         pause=[0.0] * len(positions))


def waypoint_step(state: WaypointState, dt: float, pause_time: float,
                  v_max: float, arena: Arena, rng: random.Random) -> list[int]:
    """Advance every node by dt seconds of random-waypoint motion, in place.

    Paused nodes burn pause time; on expiry they draw a fresh waypoint and
    speed.  Moving nodes travel straight at their speed and stop at the
    waypoint, picking up pause_time there (or a new waypoint immediately when
    pause_time is zero).  So no node moves farther than ``speed * dt``.

    Distances come from ``math.hypot``, and ``x + dx * frac`` is a separate
    multiply and add.  Nodes that need a new waypoint and speed draw them
    after every node has moved, in ascending index order.  Returns the ids
    of those nodes, ascending.
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    x, y, wx, wy = state.x, state.y, state.wx, state.wy
    speed, pause = state.speed, state.pause
    hypot = math.hypot
    redrawn = []
    for i, left in enumerate(pause):
        if left > 0:
            left -= dt
            if left > 0:
                pause[i] = left
            else:
                redrawn.append(i)
            continue
        xi, yi = x[i], y[i]
        dx, dy = wx[i] - xi, wy[i] - yi
        distance = hypot(dx, dy)
        step = speed[i] * dt
        if distance <= step:
            x[i], y[i] = wx[i], wy[i]
            if pause_time > 0:
                pause[i] = pause_time
            else:
                redrawn.append(i)
        else:
            frac = step / distance
            x[i] = xi + dx * frac
            y[i] = yi + dy * frac
    for i in redrawn:
        pause[i] = 0.0
        wx[i], wy[i] = _draw_waypoint(arena, rng)
        speed[i] = _draw_speed(v_max, rng)
    return redrawn


# Metres per tick that a pair's re-test schedule allows beyond the two
# nodes' steps, for rounding: in each moved coordinate, in each step's
# length and in the distance a re-test computes.  Each of these is a few
# parts in 1e16 of the largest coordinate, so this covers coordinates of
# up to about 1e8 m.
_ROUNDING_PER_TICK = 1e-6


@dataclass(eq=False)
class NeighborTracker:
    """Unit-disk neighbor rows of moving nodes, kept by a kinetic schedule.

    A pair of nodes at distance d can change its link only once the two
    have moved |d - r| between them, and a node moves at most
    ``speed * dt`` per tick.  So each re-test of a pair also schedules the
    next one, at the first tick by which the two, at their current speeds,
    could have covered |d - r|.  A node that draws a new speed has all its
    pairs re-tested at once.  Build one with :func:`track_neighbors` and
    advance it with :func:`unit_disk_neighbors`.

    Pair ``i * n + j`` (i < j) names nodes i and j.
    """

    radio_range: float
    dt: float
    rows: list[tuple[int, ...]]    # sorted neighbor ids of each node
    links: list[set[int]]          # the same adjacency, as sets
    reach: list[float]             # node -> speed * dt + half the rounding allowance
    when: list[int]                # pair -> tick of its next re-test
    due: dict[int, list[int]]      # tick -> pairs to re-test then, if ``when`` agrees
    ends: tuple[list[int], list[int]]   # pair -> i, and pair -> j
    tick: int = 0


def track_neighbors(state: WaypointState, rows: Sequence[tuple[int, ...]],
                    radio_range: float, dt: float) -> NeighborTracker:
    """Start tracking the unit-disk rows of the nodes at ``state``'s positions.

    ``rows`` are those nodes' rows now, as :func:`graph_from_positions`
    builds them; each is kept as the same object until it changes.  ``dt``
    is the step of every :func:`waypoint_step` to come.  Every pair is
    first re-tested at tick 1, which schedules its next re-test.
    """
    n = len(rows)
    half = _ROUNDING_PER_TICK / 2
    return NeighborTracker(
        radio_range=radio_range, dt=dt, rows=list(rows),
        links=[set(row) for row in rows],
        reach=[speed * dt + half for speed in state.speed],
        when=[1] * (n * n),
        due={1: [i * n + j for i in range(n) for j in range(i + 1, n)]},
        ends=([p // n for p in range(n * n)], [p % n for p in range(n * n)]))


def unit_disk_neighbors(tracker: NeighborTracker, state: WaypointState,
                        redrawn: Sequence[int]) -> list[tuple[int, ...]]:
    """Update the neighbor rows after one :func:`waypoint_step` of the nodes.

    ``redrawn`` are the ids the step returned.  Re-tests the pairs due at
    this tick and every pair of a redrawn node with ``dx * dx + dy * dy <=
    r * r``, the test of :func:`graph_from_positions`, and schedules each
    one's next re-test.  Returns the rows: those whose adjacency changed are
    new sorted tuples; every other row is the earlier tuple itself.  The
    list is new when any row changed.
    """
    t = tracker.tick = tracker.tick + 1
    n, x, y, reach = len(tracker.rows), state.x, state.y, tracker.reach
    when, due, links = tracker.when, tracker.due, tracker.links
    first, second = tracker.ends
    pairs = due.pop(t, [])
    for i in redrawn:
        reach[i] = state.speed[i] * tracker.dt + _ROUNDING_PER_TICK / 2
        # pairs (j, i) for j < i, then (i, j) for j > i
        for pair in (*range(i, n * i, n), *range(i * n + i + 1, i * n + n)):
            if when[pair] != t:
                when[pair] = t
                pairs.append(pair)
    r = tracker.radio_range
    r2 = r * r
    sqrt = math.sqrt
    changed = set()
    for pair in pairs:
        if when[pair] != t:
            continue   # rescheduled when a node of the pair drew a new speed
        i = first[pair]
        j = second[pair]
        dx = x[i] - x[j]
        dy = y[i] - y[j]
        d2 = dx * dx + dy * dy
        linked = d2 <= r2
        if linked != (j in links[i]):
            if linked:
                links[i].add(j)
                links[j].add(i)
            else:
                links[i].remove(j)
                links[j].remove(i)
            changed.add(i)
            changed.add(j)
        # the first tick by which the pair could have closed |d - r|: a
        # change k ticks on needs k * (reach[i] + reach[j]) > |d - r|
        at = when[pair] = t + 1 + int(abs(sqrt(d2) - r) / (reach[i] + reach[j]))
        bucket = due.get(at)
        if bucket is None:
            due[at] = [pair]
        else:
            bucket.append(pair)
    if changed:
        rows = tracker.rows = list(tracker.rows)
        for i in changed:
            rows[i] = tuple(sorted(links[i]))
    return tracker.rows
