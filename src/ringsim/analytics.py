"""Closed-form broadcast-cost and waiting-time model for expanding ring search.

Route discovery in reactive MANET protocols floods a route request with a
hop limit (TTL) that grows ring by ring until the destination answers or the
whole network has been searched.  This module holds one ``ErsParams`` row
for each of the three protocol models (AODV, DSR, DYMO) in their default
(ERS1) and enhanced (ERS2) tunings, the one rule that turns a row into its
TTL schedule, and the expected-cost and expected-wait formulas used to
reason about a schedule before simulating it.

All durations are seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache
from typing import Sequence


class Protocol(Enum):
    AODV = "aodv"
    DSR = "dsr"
    DYMO = "dymo"


class Variant(Enum):
    ERS1 = "ers1"  # protocol defaults
    ERS2 = "ers2"  # enlarged rings, retuned timers


RREQ_RETRIES = 2           # extra network-wide AODV rings after the first
TIMEOUT_BUFFER = 2.0       # hops of slack in the hop-by-hop reply timeout
DISCOVERY_HOP_LIMIT = 255  # TTL of DSR's network-wide ring


class InsufficientProfileError(ValueError):
    """A connectivity profile has fewer per-hop degrees than the query needs."""


class InvalidScheduleError(ValueError):
    """A TTL schedule is empty or otherwise unusable."""


@dataclass(frozen=True)
class ErsParams:
    """Constants that drive ring growth and retry timing for one protocol.

    Every family searches the same way: rings grow from ``ttl_start`` by
    ``ttl_increment`` while they stay within ``ttl_threshold``, then the
    search walks ``net_diameter``, its sequence of network-wide TTL values.
    """

    ttl_start: int = 2
    ttl_increment: int = 2
    ttl_threshold: int = 7
    net_diameter: tuple[int, ...] = (35,)
    node_traversal_time: float = 0.040
    net_traversal_time: float = 5.6
    local_add_ttl: int = 2
    nonprop_timeout: float = 0.030
    tap_cache_size: int = 1024

    def __post_init__(self):
        for name in ("node_traversal_time", "net_traversal_time",
                     "nonprop_timeout"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if self.ttl_start > self.ttl_threshold:
            raise ValueError("ttl_start must not exceed ttl_threshold")
        if self.ttl_increment < 1:
            raise ValueError("ttl_increment must be >= 1")
        if not self.net_diameter or max(self.net_diameter) < self.ttl_threshold:
            raise ValueError("net_diameter must reach at least ttl_threshold")


# ERS2 grows the hop-by-hop families' rings and shortens their per-hop timer
_ERS2_RAMP = dict(ttl_start=3, ttl_increment=3, ttl_threshold=9,
                  node_traversal_time=0.025)
_AODV_NET = (35,) * (1 + RREQ_RETRIES)

_DEFAULT_PARAMS = {
    (Protocol.AODV, Variant.ERS1): ErsParams(net_diameter=_AODV_NET),
    (Protocol.AODV, Variant.ERS2): ErsParams(
        net_diameter=_AODV_NET, net_traversal_time=1.1, local_add_ttl=1,
        **_ERS2_RAMP),
    (Protocol.DSR, Variant.ERS1): ErsParams(
        ttl_start=1, ttl_threshold=1, net_diameter=(DISCOVERY_HOP_LIMIT,)),
    (Protocol.DSR, Variant.ERS2): ErsParams(
        ttl_start=3, ttl_threshold=3, net_diameter=(DISCOVERY_HOP_LIMIT,),
        nonprop_timeout=0.090, tap_cache_size=256),
    (Protocol.DYMO, Variant.ERS1): ErsParams(
        net_diameter=(10, 20), net_traversal_time=1.92),
    (Protocol.DYMO, Variant.ERS2): ErsParams(
        net_diameter=(20, 35, 75), net_traversal_time=1.1, **_ERS2_RAMP),
}


def default_params(protocol: Protocol, variant: Variant) -> ErsParams:
    """Stock constants for each protocol under the default or enhanced tuning."""
    return _DEFAULT_PARAMS[protocol, variant]


@dataclass(frozen=True)
class TtlSchedule:
    """Ordered TTL values a discovery walks through, last ring(s) network-wide."""

    rings: tuple[int, ...]

    def __post_init__(self):
        if not self.rings:
            raise InvalidScheduleError("schedule must contain at least one ring")
        if any(b < a for a, b in zip(self.rings, self.rings[1:])):
            raise InvalidScheduleError("ring TTLs must be non-decreasing")
        if min(self.rings) < 1:
            raise InvalidScheduleError("ring TTLs must be >= 1")


@cache
def build_schedule(protocol: Protocol, variant: Variant) -> TtlSchedule:
    """Expand one cell's ring constants into its TTL sequence: the ramp from
    ttl_start by ttl_increment while within ttl_threshold, then net_diameter.

    Cached: every node class asks for its schedule, and schedules are
    immutable.
    """
    params = default_params(protocol, variant)
    ramp = range(params.ttl_start, params.ttl_threshold + 1, params.ttl_increment)
    return TtlSchedule(rings=(*ramp, *params.net_diameter))


@dataclass(frozen=True)
class ConnectivityProfile:
    """Forwarding statistics measured from (or assumed for) a topology.

    ``d_f[j]`` (0-indexed ``d_f[j-1]``) is the mean number of hop-(j) nodes a
    hop-(j-1) node forwards to; ``d_avg`` is the average connectivity degree;
    ``p_s`` the probability a receiving node rebroadcasts.
    """

    p_s: float
    d_avg: float
    d_f: tuple[float, ...]

    def __post_init__(self):
        if not 0.0 <= self.p_s <= 1.0:
            raise ValueError("p_s must lie in [0, 1]")
        if self.d_avg < 0:
            raise ValueError("d_avg must be >= 0")
        if any(d < 0 for d in self.d_f):
            raise ValueError("forwarding degrees must be >= 0")


@dataclass(frozen=True)
class LocationDistribution:
    """P(i) that the destination is first covered by ring i, i = 1..threshold."""

    p: tuple[float, ...]

    def __post_init__(self):
        if any(not 0.0 <= x <= 1.0 for x in self.p):
            raise ValueError("each P(i) must lie in [0, 1]")
        if sum(self.p) > 1.0 + 1e-9:
            raise ValueError("ring probabilities must sum to at most 1")

    @property
    def threshold(self) -> int:
        return len(self.p)


def avg_degree(d_f: Sequence[float], horizon: int) -> float:
    """Mean forwarding degree over the first ``horizon`` hops.

    The horizon is the full search diameter for flooding, or the number of
    rings actually searched for ERS.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if horizon > len(d_f):
        raise InsufficientProfileError(
            f"profile has {len(d_f)} forwarding degrees, horizon needs {horizon}")
    return sum(d_f[:horizon]) / horizon


def ring_cost_simple(counts: Sequence[int], k: int) -> int:
    """Exact transmission count of one TTL-k ring: source plus everyone within
    k-1 hops.  A census stops at the source's eccentricity: no node lies past it."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return 1 + sum(counts[: k - 1])


def ring_cost_ttl(profile: ConnectivityProfile, ttl: int) -> float:
    """Expected broadcast count of a single TTL-bounded ring.

    First hop costs p_s*d_avg; each deeper hop i adds
    d_avg * p_s**(i+1) * product(d_f[1..i]).
    """
    if ttl < 1:
        raise ValueError("ttl must be >= 1")
    if len(profile.d_f) < ttl - 1:
        raise InsufficientProfileError(
            f"profile has {len(profile.d_f)} forwarding degrees, ttl {ttl} needs {ttl - 1}")
    cost = profile.p_s * profile.d_avg
    prod = 1.0
    for i in range(1, ttl):
        prod *= profile.d_f[i - 1]
        cost += profile.d_avg * profile.p_s ** (i + 1) * prod
    return cost


# An unbounded flood searched to depth k_n costs what a TTL-k_n ring costs.
blind_flood_cost = ring_cost_ttl


def total_search_cost(schedule: TtlSchedule, profile: ConnectivityProfile) -> float:
    """Expected broadcast count of walking every ring of a schedule."""
    return sum(ring_cost_ttl(profile, ttl) for ttl in schedule.rings)


def expected_locating_time(t_fixed: float, dist: LocationDistribution) -> float:
    """Expected time to locate a destination under a fixed per-ring timeout.

    With timeout T per ring and P(i) the chance of success at ring i:
    T*sum((i-1)*P(i)) - L*T*sum(P(i)) + L*T + 0.5*T.
    """
    if t_fixed <= 0:
        raise ValueError("timeout must be > 0")
    l = dist.threshold
    weighted = sum((i - 1) * p for i, p in enumerate(dist.p, start=1))
    mass = sum(dist.p)
    return t_fixed * weighted - l * t_fixed * mass + l * t_fixed + 0.5 * t_fixed


def dsr_expected_wait(m: int, tau: float) -> float:
    """Cumulative DSR discovery wait over m rings with doubling timeouts.

    Ring k waits tau * 2**(k-1); the total over m rings is tau * (2**m - 1).
    """
    if m < 1:
        raise ValueError("ring count must be >= 1")
    if tau <= 0:
        raise ValueError("tau must be > 0")
    return tau * (2 ** m - 1)


def ring_traversal_wait(ttl: int, params: ErsParams) -> float:
    """Per-ring reply timeout for the hop-by-hop protocols: 2*node_traversal*(ttl+buffer)."""
    if ttl < 1:
        raise ValueError("ttl must be >= 1")
    return 2.0 * params.node_traversal_time * (ttl + TIMEOUT_BUFFER)


@dataclass(frozen=True)
class ThresholdChoice:
    """Outcome of the exhaustive threshold scan."""

    threshold: int
    expected_cost: float
    expected_time: float


def optimal_threshold(profile: ConnectivityProfile, dist: LocationDistribution,
                      t_fixed: float, max_l: int) -> ThresholdChoice:
    """Pick the ring threshold minimizing expected broadcast cost.

    Candidate thresholds L use unit-increment rings TTL = 1..L.  A search
    that succeeds at ring i pays the rings up to i; a search that exhausts L
    rings additionally pays a full network-wide flood.  The scan is
    exhaustive over L in [1, max_l] (bounded by the profile's depth) and ties
    break toward the smaller threshold.
    """
    if max_l < 1:
        raise ValueError("max_l must be >= 1")
    deepest = len(profile.d_f) + 1
    fallback = blind_flood_cost(profile, deepest)

    # running sums over rings 1..l: the cost of walking them, the expected
    # cost of the searches that succeed within them, and the mass found
    walked = expected = found = 0.0
    best_l, best_cost = 1, None
    for l in range(1, min(max_l, deepest) + 1):
        walked += ring_cost_ttl(profile, l)
        p_l = dist.p[l - 1] if l <= len(dist.p) else 0.0
        expected += p_l * walked
        found += p_l
        cost = expected + max(0.0, 1.0 - found) * (walked + fallback)
        if best_cost is None or cost < best_cost:
            best_l, best_cost = l, cost

    truncated = tuple(dist.p[:best_l]) + (0.0,) * max(0, best_l - len(dist.p))
    expected_time = expected_locating_time(t_fixed, LocationDistribution(truncated))
    return ThresholdChoice(threshold=best_l, expected_cost=best_cost,
                           expected_time=expected_time)
