"""Wire-level packet records shared by the protocol logic and the event engine."""

from __future__ import annotations

from dataclasses import dataclass

DATA_SIZE = 512
CONTROL_SIZE = 64

CONTROL_KINDS = ("RREQ", "RREP", "RERR", "HELLO")
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


@dataclass(slots=True)
class RrepInfo:
    # the header names the target (src) and the requester (dst)
    hops_from_target: int
    target_seq: int
    route: tuple[int, ...] = ()  # source routing: full route requester..target
    pos: int = 0                 # index in route of the node holding the reply


@dataclass(slots=True)
class RerrInfo:
    unreachable: tuple[int, ...]
    broken_link: tuple[int, int] | None = None
    route: tuple[int, ...] = ()  # source routing: hops the data travelled
    pos: int = 0                 # index in route of the node holding the error


@dataclass(slots=True)
class DataInfo:
    uid: int
    route: tuple[int, ...] = ()     # current source route (source-routing only)
    pos: int = 0                    # index of the current holder in route
    traveled: tuple[int, ...] = ()  # hops actually visited, for error back-paths
    salvage_count: int = 0
    state: str = "active"           # active | delivered | dropped


@dataclass(slots=True)
class Packet:
    """One simulated packet; control kinds feed the routing-load numerator."""

    kind: str  # RREQ | RREP | RERR | HELLO | DATA
    size: int
    src: int
    dst: int
    ttl: int
    created_at: float
    info: object = None
