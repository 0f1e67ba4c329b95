"""Topology generation, ring decomposition, and waypoint mobility tests."""

import math
import random
from array import array
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ringsim.analytics import ConnectivityProfile, TtlSchedule, avg_degree
from ringsim.topology import (
    Arena,
    WaypointState,
    bfs_rings,
    connectivity_profile,
    generate_topology,
    graph_from_positions,
    hop_distances,
    init_waypoints,
    location_distribution,
    track_neighbors,
    unit_disk_neighbors,
    waypoint_step,
)

ARENA = Arena(1000.0, 1000.0, 250.0)


def _path_graph(n=4, spacing=10.0, radio=10.0):
    return graph_from_positions([(i * spacing, 0.0) for i in range(n)], radio)


def test_generation_is_deterministic():
    a = generate_topology(42, 50, ARENA)
    b = generate_topology(42, 50, ARENA)
    assert a.positions == b.positions
    assert a.neighbors == b.neighbors
    c = generate_topology(43, 50, ARENA)
    assert c.positions != a.positions


def test_single_node_has_no_edges():
    graph = generate_topology(1, 1, ARENA)
    assert graph.neighbors == ((),)


def test_unit_disk_rule():
    near = graph_from_positions([(0.0, 0.0), (5.0, 0.0)], 10.0)
    assert near.neighbors == ((1,), (0,))
    border = graph_from_positions([(0.0, 0.0), (10.0, 0.0)], 10.0)
    assert border.neighbors == ((1,), (0,))
    far = graph_from_positions([(0.0, 0.0), (15.0, 0.0)], 10.0)
    assert far.neighbors == ((), ())
    assert graph_from_positions([(0.0, 0.0)], 250.0).neighbors == ((),)
    assert graph_from_positions([(0.0, 0.0), (250.0, 0.0)], 250.0).neighbors \
        == ((1,), (0,))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            graph_from_positions([(300.0, 0.0), (bad, 0.0), (0.0, 0.0)], 250.0)


def test_adjacency_symmetric_random():
    graph = generate_topology(9, 40, ARENA)
    for u, nbrs in enumerate(graph.neighbors):
        for v in nbrs:
            assert u in graph.neighbors[v]
            assert v != u


def test_bfs_rings_star():
    # five leaves on a 9.9 m circle: all touch the hub, none touch each other
    positions = [(0.0, 0.0)]
    for k in range(5):
        angle = 2 * math.pi * k / 5
        positions.append((9.9 * math.cos(angle), 9.9 * math.sin(angle)))
    graph = graph_from_positions(positions, 10.0)
    assert bfs_rings(graph, 0) == (5,)


def test_bfs_rings_path():
    assert bfs_rings(_path_graph(), 0) == (1, 1, 1)


def test_bfs_rings_matches_relaxation_oracle():
    graph = generate_topology(17, 30, Arena(400.0, 400.0, 120.0))
    n = graph.n
    dist = [math.inf] * n
    dist[0] = 0
    for _ in range(n):
        for u in range(n):
            for v in graph.neighbors[u]:
                if dist[u] + 1 < dist[v]:
                    dist[v] = dist[u] + 1
    counts = bfs_rings(graph, 0)
    depth = max((d for d in dist if d < math.inf), default=0)
    expected = tuple(sum(1 for d in dist if d == i) for i in range(1, depth + 1))
    assert counts == expected


def test_bfs_rings_invalid_source():
    with pytest.raises(ValueError):
        bfs_rings(_path_graph(), 9)


def test_ring_total_bounded_by_population():
    for seed in range(12):
        graph = generate_topology(seed, 25, Arena(700.0, 700.0, 160.0))
        counts = bfs_rings(graph, 0)
        reachable = sum(counts) + 1
        assert reachable <= graph.n
        connected = all(d >= 0 for d in hop_distances(graph, 0))
        assert (reachable == graph.n) == connected


def test_profile_complete_graph():
    graph = graph_from_positions([(0, 0), (1, 0), (0, 1), (1, 1), (0.5, 0.5)], 5.0)
    profile = connectivity_profile(graph, 0, p_s=1.0)
    assert profile.d_avg == 4.0
    assert profile.d_f == (4.0,)


def test_profile_path_graph():
    profile = connectivity_profile(_path_graph(), 0, p_s=1.0)
    assert profile.d_f == (1.0, 1.0, 1.0)
    assert profile.d_avg == 1.0


def test_profile_isolated_node():
    graph = graph_from_positions([(0.0, 0.0), (500.0, 0.0)], 10.0)
    profile = connectivity_profile(graph, 0, p_s=0.5)
    assert profile.d_avg == 0.0
    assert profile.d_f == ()
    assert profile.p_s == 0.5


def test_profile_horizon_padding():
    profile = connectivity_profile(_path_graph(), 0, p_s=1.0, horizon=6)
    assert profile.d_f == (1.0, 1.0, 1.0, 0.0, 0.0, 0.0)


def test_location_distribution_path():
    dist = location_distribution(_path_graph(), 0, TtlSchedule((1, 255)))
    assert dist.p == (1 / 3, 2 / 3)


def test_location_distribution_first_ring_covers_all():
    graph = graph_from_positions([(0, 0), (1, 0), (0, 1), (1, 1), (0.5, 0.5)], 5.0)
    dist = location_distribution(graph, 0, TtlSchedule((2, 5)))
    assert dist.p == (1.0, 0.0)


def test_location_distribution_unreachable_mass():
    graph = graph_from_positions([(0, 0), (5, 0), (900, 0), (905, 0)], 10.0)
    dist = location_distribution(graph, 0, TtlSchedule((1, 255)))
    assert sum(dist.p) < 1.0
    assert sum(dist.p) == pytest.approx(1 / 3)


def test_location_distribution_single_node():
    with pytest.raises(ValueError):
        location_distribution(graph_from_positions([(0, 0)], 10.0), 0,
                              TtlSchedule((1, 255)))


def test_location_mass_equals_reachable_fraction():
    for seed in range(8):
        graph = generate_topology(seed, 20, Arena(800.0, 800.0, 150.0))
        dist = location_distribution(graph, 0, TtlSchedule((2, 255)))
        reachable = sum(1 for d in hop_distances(graph, 0) if d > 0)
        assert sum(dist.p) == pytest.approx(reachable / (graph.n - 1))


def _location_reference(graph, source, schedule):
    """Plain P(i): each reachable node is counted at the first ring whose TTL
    covers its hop distance."""
    counts = [0] * len(schedule.rings)
    for node, d in enumerate(hop_distances(graph, source)):
        if node == source or d < 0:
            continue
        for i, ttl in enumerate(schedule.rings):
            if d <= ttl:
                counts[i] += 1
                break
    return tuple(c / (graph.n - 1) for c in counts)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 40),
       radio=st.floats(40.0, 400.0),
       rings=st.lists(st.integers(1, 12), min_size=1, max_size=6))
def test_location_distribution_matches_per_node_reference(seed, n, radio, rings):
    """The hop-census P(i) equals the per-node classification, bit for bit."""
    graph = generate_topology(seed, n, Arena(600.0, 600.0, radio))
    schedule = TtlSchedule(tuple(sorted(rings)))
    source = seed % n
    assert location_distribution(graph, source, schedule).p == \
        _location_reference(graph, source, schedule)


def _rings_reference(graph, source):
    """Per-ring member lists: entry d holds the nodes at hop distance d."""
    dist = hop_distances(graph, source)
    reach = [d for d in dist if d > 0]
    rings = [[] for _ in range((max(reach) if reach else 0) + 1)]
    for node, d in enumerate(dist):
        if d >= 0:
            rings[d].append(node)
    return rings


def _profile_reference(graph, source, p_s, horizon):
    """Forwarding degrees counted from the member lists of adjacent rings."""
    rings = _rings_reference(graph, source)
    d_f = []
    for j in range(1, len(rings)):
        prev, nxt = rings[j - 1], set(rings[j])
        edges = sum(1 for u in prev for v in graph.neighbors[u] if v in nxt)
        d_f.append(edges / len(prev))
    if horizon is not None:
        d_f = d_f[:horizon] + [0.0] * (horizon - len(d_f))
    d_avg = avg_degree(d_f, len(d_f)) if d_f else 0.0
    return ConnectivityProfile(p_s=p_s, d_avg=d_avg, d_f=tuple(d_f))


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 40),
       radio=st.floats(1.0, 400.0),
       horizon=st.none() | st.integers(0, 15))
@example(seed=3, n=1, radio=100.0, horizon=None)     # a lone node
@example(seed=3, n=8, radio=1.0, horizon=4)          # isolated source, padded
@example(seed=7, n=40, radio=150.0, horizon=2)       # truncated
def test_ring_census_matches_member_list_reference(seed, n, radio, horizon):
    """bfs_rings and connectivity_profile read rings from hop distances
    alone; both equal the member-list computation exactly."""
    graph = generate_topology(seed, n, Arena(600.0, 600.0, radio))
    source = seed % n
    rings = _rings_reference(graph, source)
    assert bfs_rings(graph, source) == tuple(len(r) for r in rings[1:])
    assert connectivity_profile(graph, source, 0.5, horizon) == \
        _profile_reference(graph, source, 0.5, horizon)


# ------------------------------------------------------------------ mobility

def _state(*nodes):
    """WaypointState from (position, waypoint, speed, pause_remaining) rows."""
    pos, wp, speed, pause = zip(*nodes)
    return WaypointState([float(x) for x, _ in pos], [float(y) for _, y in pos],
                         [float(x) for x, _ in wp], [float(y) for _, y in wp],
                         [float(v) for v in speed], [float(p) for p in pause])


def _node(state, i):
    return ((state.x[i], state.y[i]), (state.wx[i], state.wy[i]),
            state.speed[i], state.pause[i])


def _bits(values):
    """The float64 bytes of a list of floats, to compare bit for bit."""
    return array("d", values).tobytes()


def test_waypoint_pause_countdown():
    state = _state(((10.0, 10.0), (50.0, 50.0), 3.0, 5.0))
    rng = random.Random(0)
    assert waypoint_step(state, 1.0, 2.0, 30.0, ARENA, rng) == []
    assert (state.x[0], state.y[0]) == (10.0, 10.0)
    assert state.pause[0] == 4.0
    assert (state.wx[0], state.wy[0]) == (50.0, 50.0)


def test_waypoint_straight_advance():
    state = _state(((0.0, 0.0), (100.0, 0.0), 10.0, 0.0))
    waypoint_step(state, 1.0, 2.0, 30.0, ARENA, random.Random(0))
    assert state.x[0] == pytest.approx(10.0)
    assert state.y[0] == 0.0
    assert state.pause[0] == 0.0


def test_waypoint_arrival_starts_pause():
    state = _state(((0.0, 0.0), (5.0, 0.0), 10.0, 0.0))
    assert waypoint_step(state, 1.0, 7.0, 30.0, ARENA, random.Random(0)) == []
    assert (state.x[0], state.y[0]) == (5.0, 0.0)
    assert state.pause[0] == 7.0


def test_waypoint_zero_pause_redraws_target():
    state = _state(((0.0, 0.0), (5.0, 0.0), 10.0, 0.0))
    assert waypoint_step(state, 1.0, 0.0, 30.0, ARENA, random.Random(3)) == [0]
    assert (state.x[0], state.y[0]) == (5.0, 0.0)
    assert state.pause[0] == 0.0
    assert (state.wx[0], state.wy[0]) != (5.0, 0.0)
    assert 0 <= state.wx[0] <= ARENA.width
    assert 0 <= state.wy[0] <= ARENA.height


def test_waypoint_stays_inside_arena():
    rng = random.Random(11)
    arena = Arena(200.0, 120.0, 50.0)
    state = init_waypoints([(40.0, 40.0), (0.0, 120.0), (200.0, 0.0)], arena,
                           30.0, rng)
    for _ in range(800):
        waypoint_step(state, 0.1, 0.5, 30.0, arena, rng)
        assert all(0.0 <= x <= arena.width for x in state.x)
        assert all(0.0 <= y <= arena.height for y in state.y)
        assert all(0.0 < v <= 30.0 for v in state.speed)


def test_waypoint_trajectory_deterministic():
    def trajectory():
        rng = random.Random(77)
        state = init_waypoints([(10.0, 10.0), (500.0, 500.0)], ARENA, 20.0, rng)
        points = []
        for _ in range(200):
            waypoint_step(state, 0.1, 0.0, 20.0, ARENA, rng)
            points.append(_bits(state.x + state.y))
        return points

    assert trajectory() == trajectory()


def test_waypoint_branches_keep_untouched_fields():
    rng = random.Random(5)
    before = rng.getstate()
    state = _state(
        # paused, pause not yet over: only the countdown moves
        ((10.0, 10.0), (50.0, 50.0), 3.0, 5.0),
        # arrival with a pause: at the waypoint, speed kept, pause armed
        ((0.0, 0.0), (5.0, 0.0), 10.0, -0.5),
        # straight advance: waypoint, speed and pause_remaining carried over
        ((0.0, 0.0), (100.0, 0.0), 10.0, -0.5),
    )
    assert waypoint_step(state, 1.0, 7.0, 30.0, ARENA, rng) == []
    assert _node(state, 0) == ((10.0, 10.0), (50.0, 50.0), 3.0, 4.0)
    assert _node(state, 1) == ((5.0, 0.0), (5.0, 0.0), 10.0, 7.0)
    assert _node(state, 2) == ((10.0, 0.0), (100.0, 0.0), 10.0, -0.5)
    assert rng.getstate() == before  # none of these branches draws


def test_waypoint_step_rejects_nonpositive_dt():
    state = _state(((0.0, 0.0), (5.0, 0.0), 10.0, 0.0))
    for dt in (0.0, -0.1):
        with pytest.raises(ValueError):
            waypoint_step(state, dt, 0.0, 30.0, ARENA, random.Random(0))


@dataclass(frozen=True)
class _ScalarWaypoint:
    """Reference: one node's random-waypoint state in Python floats."""

    position: tuple[float, float]
    waypoint: tuple[float, float]
    speed: float
    pause_remaining: float


def _scalar_redraw(position, arena, v_max, rng):
    waypoint = (rng.uniform(0.0, arena.width), rng.uniform(0.0, arena.height))
    return _ScalarWaypoint(position, waypoint, rng.uniform(0.1 * v_max, v_max),
                           0.0)


def _scalar_step(state, dt, pause_time, v_max, arena, rng):
    """Reference: advance one node, drawing as soon as it needs a new trip."""
    if state.pause_remaining > 0:
        remaining = state.pause_remaining - dt
        if remaining > 0:
            return _ScalarWaypoint(state.position, state.waypoint, state.speed,
                                   remaining)
        return _scalar_redraw(state.position, arena, v_max, rng)
    x, y = state.position
    wx, wy = state.waypoint
    dx, dy = wx - x, wy - y
    distance = math.hypot(dx, dy)
    step = state.speed * dt
    if distance <= step:
        if pause_time > 0:
            return _ScalarWaypoint(state.waypoint, state.waypoint, state.speed,
                                   pause_time)
        return _scalar_redraw(state.waypoint, arena, v_max, rng)
    frac = step / distance
    return _ScalarWaypoint((x + dx * frac, y + dy * frac), state.waypoint,
                           state.speed, state.pause_remaining)


_DT = (0.1, 0.25, 0.5, 1.0)
_COORD = st.one_of(st.sampled_from((0.0, 3.0, 60.0, 200.0)),
                   st.floats(0.0, 200.0))


@st.composite
def _waypoint_start(draw):
    """A dt and node rows that hit every branch of the step on the first call."""
    dt = draw(st.sampled_from(_DT))
    nodes = []
    for _ in range(draw(st.integers(1, 8))):
        x, y = float(draw(st.integers(0, 100))), float(draw(st.integers(0, 100)))
        speed = draw(st.floats(0.5, 30.0))
        shape = draw(st.sampled_from(("free", "same", "exact", "triangle")))
        if shape == "free":            # anywhere, usually a straight advance
            x, y = draw(_COORD), draw(_COORD)
            waypoint = (draw(_COORD), draw(_COORD))
        elif shape == "same":          # zero distance: an arrival
            waypoint = (x, y)
        elif shape == "exact":         # distance == step along an axis
            waypoint = (x + speed * dt, y)
        else:                          # distance == step == 5k, not on an axis
            k = float(draw(st.integers(1, 20)))
            waypoint, speed = (x + 3 * k, y + 4 * k), 5 * k / dt
        pause = draw(st.sampled_from((0.0, dt, 0.5 * dt, 2.5 * dt, -0.5))
                     | st.floats(-1.0, 3.0))
        nodes.append(((x, y), waypoint, speed, pause))
    return dt, nodes


# rows for the edge cases, with dt = 0.5
_EDGE_ROWS = [
    ((10.0, 10.0), (50.0, 50.0), 3.0, 5.0),     # pause left > dt
    ((10.0, 10.0), (50.0, 50.0), 3.0, 0.5),     # pause left == dt
    ((10.0, 10.0), (50.0, 50.0), 3.0, 0.25),    # pause left < dt
    ((0.0, 0.0), (5.0, 0.0), 10.0, 0.0),        # distance == step
    ((6.0, 8.0), (9.0, 12.0), 10.0, 0.0),       # distance == step, 3-4-5
    ((7.0, 7.0), (7.0, 7.0), 4.0, 0.0),         # zero distance
    ((0.0, 0.0), (100.0, 0.0), 10.0, -0.5),     # negative pause carried
    ((0.0, 0.0), (5.0, 0.0), 10.0, -0.5),       # negative pause, arrival
]


@settings(max_examples=300)
@given(start=_waypoint_start(),
       pause_time=st.sampled_from((0.0, 0.3, 1.0)) | st.floats(0.0, 5.0),
       steps=st.integers(1, 40), seed=st.integers(0, 2**16))
@example(start=(0.5, _EDGE_ROWS), pause_time=0.0, steps=60, seed=7)
@example(start=(0.5, _EDGE_ROWS), pause_time=2.0, steps=60, seed=7)
def test_waypoint_step_matches_scalar_reference(start, pause_time, steps, seed):
    """State lists and random state equal the scalar reference's, bit for
    bit, and the step returns the nodes the reference drew for."""
    dt, nodes = start
    arena, v_max = Arena(200.0, 200.0, 50.0), 30.0
    state = _state(*nodes)
    reference = [_ScalarWaypoint(*node) for node in nodes]
    rng, ref_rng = random.Random(seed), random.Random(seed)
    for _ in range(steps):
        redrawn = waypoint_step(state, dt, pause_time, v_max, arena, rng)
        drew = []
        for i, s in enumerate(reference):
            before = ref_rng.getstate()
            reference[i] = _scalar_step(s, dt, pause_time, v_max, arena, ref_rng)
            if ref_rng.getstate() != before:
                drew.append(i)
        assert redrawn == drew
        expected = _state(*((s.position, s.waypoint, s.speed, s.pause_remaining)
                            for s in reference))
        for name in ("x", "y", "wx", "wy", "speed", "pause"):
            got, want = getattr(state, name), getattr(expected, name)
            assert all(type(v) is float for v in got)
            assert _bits(got) == _bits(want), name
        assert rng.getstate() == ref_rng.getstate()


def test_init_waypoints_draws_each_node_in_index_order():
    positions = [(1.0, 2.0), (3.0, 4.0), (5.0, 6.0)]
    state = init_waypoints(positions, ARENA, 30.0, random.Random(4))
    rng = random.Random(4)
    for i, position in enumerate(positions):
        want = _scalar_redraw(position, ARENA, 30.0, rng)
        assert _node(state, i) == (want.position, want.waypoint, want.speed,
                                   want.pause_remaining)


def _reference_neighbors(positions, radio_range):
    """Reference: a 3-D difference array and one flatnonzero per row."""
    pts = np.asarray(positions, dtype=float).reshape(len(positions), 2)
    diff = pts[:, None, :] - pts[None, :, :]
    within = (diff * diff).sum(axis=2) <= radio_range * radio_range
    np.fill_diagonal(within, False)
    return [tuple(np.flatnonzero(row).tolist()) for row in within]


def _full_build(positions, radio_range):
    """The pure-Python rows, checked against the per-row reference."""
    rows = graph_from_positions(positions, radio_range).neighbors
    assert list(rows) == _reference_neighbors(positions, radio_range)
    assert all(type(row) is tuple for row in rows)
    return rows


# coordinates with exact ties at the 250 m range among the random ones
_COORD = st.floats(0.0, 1000.0) | st.sampled_from([0.0, 125.0, 250.0, 500.0])


@settings(max_examples=300)
@given(positions=st.lists(st.tuples(_COORD, _COORD), min_size=1, max_size=50),
       radio_range=st.just(250.0) | st.floats(1.0, 400.0))
@example(positions=[(0.0, 0.0)], radio_range=250.0)                # lone node
@example(positions=[(0.0, 0.0), (250.0, 0.0)], radio_range=250.0)  # at range
@example(positions=[(0.0, 0.0), (250.0, 0.0), (250.000001, 0.0), (0.0, 250.0)],
         radio_range=250.0)                                        # 1 um past
@example(positions=[(7.0, 7.0), (7.0, 7.0), (7.0, 7.0), (900.0, 900.0)],
         radio_range=250.0)                                        # coincident
def test_graph_from_positions_matches_per_row_reference(positions, radio_range):
    _full_build(positions, radio_range)


def _tracked_tick(tracker, state, redrawn):
    """One tracker update after a step that redrew ``redrawn``: the rows equal
    a full rebuild, and each unchanged row is the earlier tuple itself."""
    before = list(tracker.rows)
    rows = unit_disk_neighbors(tracker, state, redrawn)
    assert tuple(rows) == graph_from_positions(
        list(zip(state.x, state.y)), tracker.radio_range).neighbors
    for row, old in zip(rows, before):
        assert type(row) is tuple
        if row == old:
            assert row is old


def _track(state, radio_range):
    rows = graph_from_positions(list(zip(state.x, state.y)), radio_range).neighbors
    tracker = track_neighbors(state, rows, radio_range, 0.1)
    assert all(row is old for row, old in zip(tracker.rows, rows))
    return tracker


def test_reused_rows_at_range_and_coincident():
    """Arrivals put pairs at exactly the range, 1 um past it and on one spot,
    then pause expiries redraw them; a head-on pair closes at the full speed
    bound, so its link forms at the very tick its re-test is due."""
    state = _state(
        ((0.0, 0.0), (0.0, 0.0), 1.0, 0.0),               # arrives at tick 1
        ((300.0, 0.0), (250.0, 0.0), 250.0, 0.0),         # 250 m from 0, tick 2
        ((0.0, 40.0), (0.0, 0.0), 200.0, 0.0),            # on 0's spot, tick 2
        ((250.000001, 60.0), (250.000001, 0.0), 300.0, 0.0),  # 1 um past
        ((100.0, 500.0), (900.0, 500.0), 20.0, 0.0),      # 701 m apart, closing
        ((801.0, 500.0), (0.0, 500.0), 10.0, 0.0),        # 3 m a tick: tick 151
    )
    tracker = _track(state, 250.0)
    rng = random.Random(2)
    for tick in range(1, 200):
        redrawn = waypoint_step(state, 0.1, 3.0, 30.0, ARENA, rng)
        _tracked_tick(tracker, state, redrawn)
        if tick == 2:
            assert tracker.rows[:4] == [(1, 2), (0, 2, 3), (0, 1), (1,)]
        assert (5 in tracker.rows[4]) == (tick >= 151)
    assert tracker.tick == 199
    again = unit_disk_neighbors(tracker, state, [])   # nothing moved
    assert all(row is old for row, old in zip(again, tracker.rows))


class _LatticeRandom(random.Random):
    """Draws waypoint coordinates on a 50 m lattice (speeds as usual), so
    nodes that arrive stop exactly at range of each other or on one spot."""

    def uniform(self, a, b):
        if a == 0.0:   # a waypoint coordinate in [0, side]
            return 50.0 * self.randint(0, int(b // 50.0))
        return super().uniform(a, b)


@settings(max_examples=100)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 30),
       pause_time=st.sampled_from([0.0, 0.5, 2.0]),
       v_max=st.floats(1.0, 30.0), still_every=st.integers(2, 7))
def test_reused_rows_match_full_rebuild_over_trajectories(
        seed, n, pause_time, v_max, still_every):
    """Random waypoint trajectories, one neighbor update per 0.1 s tick, and
    some ticks where nothing moved.  Nodes start and stop on a lattice at
    the range's spacing, so arrivals, pause expiries and redraws (faster
    ones too) put pairs exactly at range or on one spot."""
    arena = Arena(300.0, 300.0, 100.0)
    rng = _LatticeRandom(seed)
    positions = [(rng.uniform(0.0, 300.0), rng.uniform(0.0, 300.0))
                 for _ in range(n)]
    state = init_waypoints(positions, arena, v_max, rng)
    tracker = _track(state, arena.radio_range)
    for tick in range(1, 250):
        redrawn = []
        if tick % still_every:
            redrawn = waypoint_step(state, 0.1, pause_time, v_max, arena, rng)
        _tracked_tick(tracker, state, redrawn)


def test_trackers_of_several_node_counts_share_no_state():
    """Trackers of 7, 7, 12 and again 7 nodes, built in one process (so the
    pair tables are shared, replaced and rebuilt) and stepped in lockstep
    along different trajectories: every tick's rows of each equal a full
    rebuild."""
    arena = Arena(300.0, 300.0, 100.0)
    runs = []
    for seed, n in ((1, 7), (2, 7), (3, 12), (4, 7)):
        rng = random.Random(seed)
        positions = [(rng.uniform(0.0, 300.0), rng.uniform(0.0, 300.0))
                     for _ in range(n)]
        state = init_waypoints(positions, arena, 30.0, rng)
        runs.append((_track(state, arena.radio_range), state, rng))
    for tick in range(1, 200):
        for tracker, state, rng in runs:
            redrawn = waypoint_step(state, 0.1, 0.5, 30.0, arena, rng)
            _tracked_tick(tracker, state, redrawn)
    assert [len(tracker.rows) for tracker, _, _ in runs] == [7, 7, 12, 7]
