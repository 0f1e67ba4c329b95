"""Wire-level packet records shared by the protocol logic and the event engine."""

from __future__ import annotations

from dataclasses import dataclass

DATA_SIZE = 512
CONTROL_SIZE = 64

BROADCAST = -1


@dataclass(slots=True)
class RreqInfo:
    """Route request state: which attempt, how far it may spread.  The
    header names the originator (src) and target (dst); hops travelled are
    ``ring_ttl - ttl``."""

    req_id: int
    ring_ttl: int
    orig_seq: int
    route: tuple[int, ...] = ()  # source-routing protocols accumulate the path


# Replies and errors: each family sets only the fields it reads.  Hop-by-hop
# nodes use the hop count, sequence number and unreachable destinations;
# source-routing nodes the route, position and broken link.
@dataclass(slots=True)
class RrepInfo:
    # the header names the target (src) and the requester (dst)
    hops_from_target: int = 0
    target_seq: int = 0
    route: tuple[int, ...] = ()  # source routing: full route requester..target
    pos: int = 0                 # index in route of the node holding the reply


@dataclass(slots=True)
class RerrInfo:
    unreachable: tuple[int, ...] = ()  # hop-by-hop: destinations lost
    broken_link: tuple[int, int] | None = None
    route: tuple[int, ...] = ()  # source routing: hops the data travelled
    pos: int = 0                 # index in route of the node holding the error


# A data packet has one holder at a time (a handler, a pending queue or the
# link) and ends once, delivered or dropped, so it carries no identity and no
# lifecycle state: the engine's conservation check sees a second end.
@dataclass(slots=True)
class DataInfo:
    route: tuple[int, ...] = ()     # current source route (source-routing only)
    pos: int = 0                    # index of the current holder in route
    traveled: tuple[int, ...] = ()  # hops actually visited, for error back-paths
    salvage_count: int = 0


@dataclass(slots=True, eq=False)  # equal only to itself, whatever its fields
class Packet:
    """One simulated packet; control kinds feed the routing-load numerator."""

    kind: str  # RREQ | RREP | RERR | HELLO | DATA
    size: int
    src: int
    dst: int
    ttl: int
    created_at: float
    info: object = None
