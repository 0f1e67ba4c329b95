"""Expanding-ring-search cost model and MANET route-discovery simulator."""

from .analytics import (
    ConnectivityProfile,
    ErsParams,
    InsufficientProfileError,
    InvalidScheduleError,
    LocationDistribution,
    Protocol,
    RingPopulation,
    ThresholdChoice,
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
from .config import ConfigError, ScenarioConfig, parse_config, parse_config_text
from .engine import (
    Engine,
    MetricsRecord,
    RunConfig,
    compute_e2ed,
    compute_nrl,
    compute_throughput,
    format_trace,
)
from .experiment import (
    ProbeResult,
    ResultRow,
    analytic_compare,
    emit_report,
    probe_discovery,
    read_results_csv,
    rows_to_csv_text,
    run_sweep,
    summarize,
)
from .packets import Packet
from .protocols import Node, RouteCache, RouteEntry
from .topology import (
    Arena,
    Graph,
    WaypointState,
    bfs_rings,
    connectivity_profile,
    dump_topology,
    generate_topology,
    graph_from_positions,
    hop_distances,
    init_waypoints,
    location_distribution,
    waypoint_step,
)

__version__ = "0.1.0"
