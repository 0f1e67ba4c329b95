"""Closed-form model tests: schedules, cost formulas, waiting times."""

import math
import random

import pytest

from ringsim.analytics import (
    ConnectivityProfile,
    ErsParams,
    LocationDistribution,
    Protocol,
    TtlSchedule,
    Variant,
    avg_degree,
    blind_flood_cost,
    build_schedule,
    default_params,
    dsr_expected_wait,
    expected_locating_time,
    optimal_threshold,
    ring_cost_simple,
    ring_cost_ttl,
    ring_traversal_wait,
    total_search_cost,
)
from ringsim.protocols import RouteCache

ALL_CELLS = [(p, v) for p in Protocol for v in Variant]


# ---------------------------------------------------------------- schedules

SCHEDULE_CASES = {
    (Protocol.AODV, Variant.ERS1): (2, 4, 6, 35, 35, 35),
    (Protocol.AODV, Variant.ERS2): (3, 6, 9, 35, 35, 35),
    (Protocol.DSR, Variant.ERS1): (1, 255),
    (Protocol.DSR, Variant.ERS2): (3, 255),
    (Protocol.DYMO, Variant.ERS1): (2, 4, 6, 10, 20),
    (Protocol.DYMO, Variant.ERS2): (3, 6, 9, 20, 35, 75),
}


# the fields the simulator reads: (node_traversal_time, net_traversal_time,
# local_add_ttl, nonprop_timeout, tap_cache_size)
PARAM_CASES = {
    (Protocol.AODV, Variant.ERS1): (0.040, 5.6, 2, 0.030, 1024),
    (Protocol.AODV, Variant.ERS2): (0.025, 1.1, 1, 0.030, 1024),
    (Protocol.DSR, Variant.ERS1): (0.040, 5.6, 2, 0.030, 1024),
    (Protocol.DSR, Variant.ERS2): (0.040, 5.6, 2, 0.090, 256),
    (Protocol.DYMO, Variant.ERS1): (0.040, 1.92, 2, 0.030, 1024),
    (Protocol.DYMO, Variant.ERS2): (0.025, 1.1, 2, 0.030, 1024),
}


@pytest.mark.parametrize("protocol,variant", ALL_CELLS)
def test_schedule_cells(protocol, variant):
    assert build_schedule(protocol, variant).rings == SCHEDULE_CASES[(protocol, variant)]


@pytest.mark.parametrize("protocol,variant", ALL_CELLS)
def test_param_cells(protocol, variant):
    p = default_params(protocol, variant)
    assert (p.node_traversal_time, p.net_traversal_time, p.local_add_ttl,
            p.nonprop_timeout, p.tap_cache_size) == PARAM_CASES[(protocol, variant)]


@pytest.mark.parametrize("protocol,variant", ALL_CELLS)
def test_schedule_is_ramp_then_net_diameter(protocol, variant):
    p = default_params(protocol, variant)
    ramp = tuple(range(p.ttl_start, p.ttl_threshold + 1, p.ttl_increment))
    assert build_schedule(protocol, variant).rings == ramp + p.net_diameter


@pytest.mark.parametrize("protocol,variant", ALL_CELLS)
def test_schedule_non_decreasing(protocol, variant):
    rings = build_schedule(protocol, variant).rings
    assert all(b >= a for a, b in zip(rings, rings[1:]))


@pytest.mark.parametrize("protocol", list(Protocol))
def test_enhanced_first_ring_larger(protocol):
    first1 = build_schedule(protocol, Variant.ERS1).rings[0]
    first2 = build_schedule(protocol, Variant.ERS2).rings[0]
    assert first2 > first1


def test_empty_schedule_rejected():
    with pytest.raises(ValueError, match="at least one ring"):
        TtlSchedule(rings=())
    with pytest.raises(ValueError, match="non-decreasing"):
        TtlSchedule(rings=(4, 2))


def test_params_invariants():
    with pytest.raises(ValueError):
        ErsParams(ttl_start=9, ttl_threshold=7)
    with pytest.raises(ValueError):
        ErsParams(ttl_increment=0)
    with pytest.raises(ValueError):
        RouteCache(0, 0)


# --------------------------------------------------------------- avg degree

def test_avg_degree_examples():
    assert avg_degree([4, 4, 4], 3) == 4.0
    assert avg_degree([6, 4, 2], 2) == 5.0
    assert avg_degree([7], 1) == 7.0


def test_avg_degree_errors():
    with pytest.raises(ValueError, match="profile has 2 forwarding degrees"):
        avg_degree([1.0, 2.0], 3)
    with pytest.raises(ValueError):
        avg_degree([1.0], 0)


# -------------------------------------------------------------- flood costs

def test_blind_flood_first_branch():
    profile = ConnectivityProfile(p_s=0.5, d_avg=6.0, d_f=())
    assert blind_flood_cost(profile, 1) == 3.0


def test_blind_flood_two_hops():
    profile = ConnectivityProfile(p_s=1.0, d_avg=4.0, d_f=(3.0,))
    assert blind_flood_cost(profile, 2) == 16.0


def test_blind_flood_zero_probability():
    profile = ConnectivityProfile(p_s=0.0, d_avg=5.0, d_f=(2.0, 2.0, 2.0))
    for depth in range(1, 5):
        assert blind_flood_cost(profile, depth) == 0.0


def test_blind_flood_insufficient_profile():
    profile = ConnectivityProfile(p_s=1.0, d_avg=4.0, d_f=(3.0,))
    with pytest.raises(ValueError, match="profile has 1 forwarding degrees"):
        blind_flood_cost(profile, 3)


def test_blind_flood_linear_in_d_avg():
    rng = random.Random(7)
    for _ in range(50):
        d_f = tuple(rng.uniform(0, 5) for _ in range(4))
        p_s = rng.random()
        base = ConnectivityProfile(p_s=p_s, d_avg=1.0, d_f=d_f)
        scaled = ConnectivityProfile(p_s=p_s, d_avg=3.5, d_f=d_f)
        assert blind_flood_cost(scaled, 5) == pytest.approx(
            3.5 * blind_flood_cost(base, 5), rel=1e-12)


# ------------------------------------------------- ring census (simple form)

def _relaxation_distances(n, edges, source):
    # independent oracle: exhaustive relaxation instead of BFS
    dist = {v: math.inf for v in range(n)}
    dist[source] = 0
    for _ in range(n):
        for a, b in edges:
            if dist[a] + 1 < dist[b]:
                dist[b] = dist[a] + 1
            if dist[b] + 1 < dist[a]:
                dist[a] = dist[b] + 1
    return dist


def test_ring_cost_simple_against_graph_census():
    # star-of-stars: 4 nodes at hop 1, each with two leaves at hop 2
    edges = [(0, k) for k in (1, 2, 3, 4)]
    edges += [(1, 5), (1, 6), (2, 7), (2, 8), (3, 9), (3, 10), (4, 11), (4, 12)]
    dist = _relaxation_distances(13, edges, 0)
    counts = [sum(1 for d in dist.values() if d == i) for i in (1, 2)]
    assert counts == [4, 8]
    for k in (1, 2, 3):
        inside = sum(1 for d in dist.values() if d <= k - 1)
        assert ring_cost_simple(counts, k) == inside
    assert ring_cost_simple([4, 8], 3) == 13
    assert ring_cost_simple([5], 2) == 6
    assert ring_cost_simple([], 1) == 1


def test_ring_cost_simple_errors():
    # a census ends at the source's eccentricity: hops past it hold no node
    assert ring_cost_simple([3], 3) == 4
    with pytest.raises(ValueError):
        ring_cost_simple([3], 0)


# ------------------------------------------------------ TTL form equivalence

def test_ring_cost_ttl_equals_blind_flood():
    rng = random.Random(1234)
    for _ in range(300):
        ttl = rng.randint(1, 10)
        d_f = tuple(rng.uniform(0, 6) for _ in range(ttl - 1 + rng.randint(0, 3)))
        profile = ConnectivityProfile(p_s=rng.random(), d_avg=rng.uniform(0, 10),
                                      d_f=d_f)
        assert ring_cost_ttl(profile, ttl) == blind_flood_cost(profile, ttl)


def test_ring_cost_ttl_example():
    profile = ConnectivityProfile(p_s=0.8, d_avg=5.0, d_f=())
    assert ring_cost_ttl(profile, 1) == 4.0


# --------------------------------------------------------- total search cost

def test_total_search_cost_single_ring():
    profile = ConnectivityProfile(p_s=1.0, d_avg=4.0, d_f=())
    schedule = TtlSchedule((1,))
    assert total_search_cost(schedule, profile) == 4.0


def test_total_search_cost_two_rings():
    profile = ConnectivityProfile(p_s=1.0, d_avg=4.0, d_f=(3.0,))
    schedule = TtlSchedule((1, 2))
    assert total_search_cost(schedule, profile) == 20.0


def test_total_search_cost_monotone_in_rings():
    rng = random.Random(99)
    for _ in range(50):
        d_f = tuple(rng.uniform(0, 5) for _ in range(9))
        profile = ConnectivityProfile(p_s=rng.random(), d_avg=rng.uniform(0, 8),
                                      d_f=d_f)
        rings = sorted(rng.randint(1, 10) for _ in range(4))
        costs = [
            total_search_cost(
                TtlSchedule(tuple(rings[:k])),
                profile)
            for k in range(1, 5)
        ]
        assert all(b >= a for a, b in zip(costs, costs[1:]))


# ------------------------------------------------------------ locating time

def test_expected_locating_time_cases():
    assert expected_locating_time(0.1, LocationDistribution((1.0,))) == 0.05
    assert expected_locating_time(0.1, LocationDistribution((0.5, 0.5))) \
        == pytest.approx(0.1, rel=1e-12)
    for l in range(1, 6):
        zeros = LocationDistribution((0.0,) * l)
        assert expected_locating_time(0.2, zeros) == (l + 0.5) * 0.2


def test_expected_locating_time_full_mass_identity():
    rng = random.Random(5)
    for _ in range(50):
        l = rng.randint(1, 8)
        raw = [rng.random() for _ in range(l)]
        total = sum(raw)
        p = tuple(x / total for x in raw)
        t = rng.uniform(0.01, 1.0)
        got = expected_locating_time(t, LocationDistribution(p))
        want = t * sum((i - 1) * pi for i, pi in enumerate(p, start=1)) + 0.5 * t
        assert got == pytest.approx(want, rel=1e-9)


def test_expected_locating_time_validates():
    with pytest.raises(ValueError):
        expected_locating_time(0.0, LocationDistribution((1.0,)))
    with pytest.raises(ValueError):
        LocationDistribution((0.9, 0.9))


# ----------------------------------------------------------------- DSR wait

def test_dsr_wait_examples():
    assert dsr_expected_wait(1, 0.030) == 0.030
    assert dsr_expected_wait(3, 0.030) == pytest.approx(0.210, rel=1e-12)
    assert dsr_expected_wait(2, 0.090) == pytest.approx(0.270, rel=1e-12)


def test_dsr_wait_matches_doubling_sum():
    # the per-ring doubling sum is the independent oracle for the closed form
    for tau in (0.030, 0.090, 0.017):
        for m in range(1, 21):
            oracle = sum(2 ** (k - 1) * tau for k in range(1, m + 1))
            assert dsr_expected_wait(m, tau) == pytest.approx(oracle, rel=1e-12)


def test_dsr_wait_validates():
    with pytest.raises(ValueError):
        dsr_expected_wait(0, 0.030)
    with pytest.raises(ValueError):
        dsr_expected_wait(2, 0.0)


# -------------------------------------------------------- ring traversal wait

def test_ring_traversal_wait_cases():
    ers1 = default_params(Protocol.AODV, Variant.ERS1)
    ers2 = default_params(Protocol.AODV, Variant.ERS2)
    assert ring_traversal_wait(2, ers1) == 0.32
    assert ring_traversal_wait(3, ers2) == 0.25
    with pytest.raises(ValueError):
        ring_traversal_wait(0, ers1)


# ---------------------------------------------------------------- threshold

def test_threshold_destination_in_first_ring():
    profile = ConnectivityProfile(p_s=1.0, d_avg=2.0, d_f=(2.0, 2.0))
    dist = LocationDistribution((1.0,))
    choice = optimal_threshold(profile, dist, 0.1, max_l=3)
    assert choice.threshold == 1


def test_threshold_single_candidate():
    profile = ConnectivityProfile(p_s=1.0, d_avg=2.0, d_f=(2.0, 2.0))
    dist = LocationDistribution((0.2, 0.8))
    assert optimal_threshold(profile, dist, 0.1, max_l=1).threshold == 1


def test_threshold_two_ring_hand_case():
    # ring costs: ttl1 = 2, ttl2 = 6, full flood (depth 3) = 14
    # L=1: 0.1*2 + 0.9*(2 + 14) = 14.6;  L=2: 0.1*2 + 0.9*8 = 7.4
    profile = ConnectivityProfile(p_s=1.0, d_avg=2.0, d_f=(2.0, 2.0))
    dist = LocationDistribution((0.1, 0.9))
    choice = optimal_threshold(profile, dist, 0.1, max_l=2)
    assert choice.threshold == 2
    assert choice.expected_cost == pytest.approx(7.4, rel=1e-12)


def test_threshold_brute_force_is_exhaustive():
    rng = random.Random(21)
    for _ in range(30):
        depth = rng.randint(2, 5)
        profile = ConnectivityProfile(
            p_s=rng.uniform(0.3, 1.0), d_avg=rng.uniform(0.5, 6.0),
            d_f=tuple(rng.uniform(0.2, 4.0) for _ in range(depth)))
        raw = [rng.random() for _ in range(depth)]
        scale = rng.uniform(0.3, 1.0) / sum(raw)
        dist = LocationDistribution(tuple(x * scale for x in raw))
        choice = optimal_threshold(profile, dist, 0.05, max_l=depth + 1)

        prefix, running = [], 0.0
        for ttl in range(1, depth + 2):
            running += ring_cost_ttl(profile, ttl)
            prefix.append(running)
        fallback = blind_flood_cost(profile, depth + 1)
        best = None
        for l in range(1, depth + 2):
            found = sum(dist.p[i - 1] for i in range(1, l + 1) if i <= len(dist.p))
            cost = sum(dist.p[i - 1] * prefix[i - 1]
                       for i in range(1, l + 1) if i <= len(dist.p))
            cost += max(0.0, 1.0 - found) * (prefix[l - 1] + fallback)
            if best is None or cost < best[1]:
                best = (l, cost)
        assert (choice.threshold, choice.expected_cost) == best
