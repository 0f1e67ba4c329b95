"""Timing and counting wrappers installed around ringsim's layer boundaries.

A wrapper replaces the name a caller resolves at call time: a module global
such as ``ringsim.engine.waypoint_step`` (the engine imported it by name) or a
class attribute such as ``Engine.send``.  :meth:`Tracer.remove` puts every
original back.  Nothing under ``src/`` is edited.

Spans are aggregated as they close, keyed by (cell, name, parent name), so a
cell with hundreds of thousands of events costs a few dictionary entries.
Only spans near the root are kept whole (name, start, end, parent, cell).
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager

import ringsim.analytics as analytics
import ringsim.config as config
import ringsim.engine as engine
import ringsim.experiment as experiment
import ringsim.topology as topology
from ringsim.protocols import Node, RouteCache

# Spans that open a new simulation cell; every span inside carries its id.
CELL_SPANS = ("experiment.run_cell", "experiment.probe_discovery")

# Spans with fewer open ancestors than this are kept whole (the pass, the
# sweep, each cell and its Engine calls); deeper ones are only aggregated.
KEEP_DEPTH = 4


def targets():
    """(owner, attribute, span name) for every wrapped call site."""
    Engine = engine.Engine
    return [
        (config, "parse_config_text", "config.parse_config_text"),
        (experiment, "run_sweep", "experiment.run_sweep"),
        (experiment, "run_cell", "experiment.run_cell"),
        (experiment, "analytic_compare", "experiment.analytic_compare"),
        (experiment, "probe_discovery", "experiment.probe_discovery"),
        (experiment, "analytic_schedule_cost", "experiment.analytic_schedule_cost"),
        (experiment, "rows_to_csv_text", "experiment.rows_to_csv_text"),
        (experiment, "generate_topology", "topology.generate_topology"),
        (experiment, "connectivity_profile", "topology.connectivity_profile"),
        (experiment, "bfs_rings", "topology.bfs_rings"),
        (experiment, "total_search_cost", "analytics.total_search_cost"),
        (engine, "generate_topology", "topology.generate_topology"),
        (engine, "unit_disk_neighbors", "topology.unit_disk_neighbors"),
        (engine, "waypoint_step", "topology.waypoint_step"),
        (topology, "generate_topology", "topology.generate_topology"),
        (topology, "connectivity_profile", "topology.connectivity_profile"),
        (topology, "location_distribution", "topology.location_distribution"),
        (analytics, "optimal_threshold", "analytics.optimal_threshold"),
        (Engine, "__init__", "engine.init"),
        (Engine, "run", "engine.run"),
        (Engine, "send", "engine.send"),
        (Engine, "schedule_in", "engine.schedule_in"),
        (Engine, "discovery_finished", "engine.discovery_finished"),
        (Node, "send_data", "protocols.send_data"),
        (Node, "on_packet", "protocols.on_packet"),
        (Node, "on_overhear", "protocols.on_overhear"),
        (Node, "on_hello_tick", "protocols.on_hello_tick"),
        (Node, "on_unicast_fail", "protocols.on_unicast_fail"),
        (RouteCache, "insert", "protocols.route_cache.insert"),
        (RouteCache, "lookup", "protocols.route_cache.lookup"),
        (RouteCache, "purge_link", "protocols.route_cache.purge_link"),
    ]


class Tracer:
    """Counts every wrapped call; with ``spans=True`` also times them.

    ``calls`` counts calls per span name.  ``extra`` holds counts read from
    arguments and results: route-cache hits and purged routes, discovery
    outcomes, and the simulated totals every finished ``Engine.run`` returns.
    """

    def __init__(self, spans: bool):
        self.spans_on = spans
        self.calls: Counter = Counter()
        self.extra: Counter = Counter()
        self.stats: dict = {}        # cell -> {(name, parent): [calls, total, self]}
        self.spans: list = []        # (cell, name, parent, start, end), shallow only
        self._stack: list = []       # open frames: [name, start, child time]
        self._cell = "-"
        self._cell_stats = self.stats.setdefault(self._cell, {})
        self._next_cell = 0
        self._installed: list = []   # (owner, attribute, original, wrapper)
        self._hooks = {
            "engine.run": self._after_run,
            "engine.discovery_finished": self._after_discovery,
            "protocols.route_cache.lookup": self._after_lookup,
            "protocols.route_cache.purge_link": self._after_purge,
        }

    # ------------------------------------------------------------ install

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in targets():
            original = vars(owner)[attr]
            wrapper = self._wrap(original, name)
            setattr(owner, attr, wrapper)
            self._installed.append((owner, attr, original, wrapper))

    def remove(self) -> None:
        while self._installed:
            owner, attr, original, wrapper = self._installed.pop()
            if vars(owner)[attr] is not wrapper:
                raise RuntimeError(f"{attr} was re-patched while traced")
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.remove()

    def _wrap(self, fn, name):
        calls = self.calls
        hook = self._hooks.get(name)
        if not self.spans_on:
            def counting(*args, **kwargs):
                calls[name] += 1
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(args, kwargs, result)
                return result
            return counting

        stack = self._stack
        clock = time.perf_counter
        opens_cell = name in CELL_SPANS
        close = self._close

        def timed(*args, **kwargs):
            calls[name] += 1
            if opens_cell:
                self._enter_cell()
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                close(frame, end)
                if opens_cell:
                    self._leave_cell()
            if hook is not None:
                hook(args, kwargs, result)
            return result
        return timed

    # -------------------------------------------------------------- spans

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. around one pass."""
        frame = [name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._close(frame, end)

    def _close(self, frame, end: float) -> None:
        name, start, child = frame
        stack = self._stack
        duration = end - start
        if stack:
            parent_frame = stack[-1]
            parent_frame[2] += duration
            parent = parent_frame[0]
        else:
            parent = None
        key = (name, parent)
        agg = self._cell_stats.get(key)
        if agg is None:
            self._cell_stats[key] = [1, duration, duration - child]
        else:
            agg[0] += 1
            agg[1] += duration
            agg[2] += duration - child
        if len(stack) < KEEP_DEPTH:
            self.spans.append((self._cell, name, parent, start, end))

    def _enter_cell(self) -> None:
        self._cell = self._next_cell
        self._next_cell += 1
        self._cell_stats = self.stats.setdefault(self._cell, {})

    def _leave_cell(self) -> None:
        self._cell = "-"
        self._cell_stats = self.stats["-"]

    # -------------------------------------------------------------- hooks

    def _after_run(self, args, kwargs, metrics) -> None:
        extra = self.extra
        extra["data_sent"] += metrics.data_sent
        extra["data_delivered"] += metrics.data_delivered
        extra["control_tx"] += metrics.control_total
        for node in args[0].nodes:
            if node.cache is not None:
                extra["cache_nodes"] += 1
                extra["cache_entries"] += len(node.cache)

    def _after_discovery(self, args, kwargs, result) -> None:
        success = args[1] if len(args) > 1 else kwargs["success"]
        self.extra["discovery_success" if success else "discovery_fail"] += 1

    def _after_lookup(self, args, kwargs, route) -> None:
        if route is not None:
            self.extra["cache_hits"] += 1

    def _after_purge(self, args, kwargs, removed) -> None:
        self.extra["cache_removed"] += removed

    # ------------------------------------------------------------ reports

    def totals(self) -> dict:
        """name -> [calls, inclusive seconds, self seconds] over all cells.

        A name nested in itself counts its inner time twice in the inclusive
        figure: ``Engine.send`` can reach ``send`` again through
        ``on_unicast_fail``, so the metrics use self time for those names.
        """
        out: dict = {}
        for per_cell in self.stats.values():
            for (name, _parent), (calls, total, own) in per_cell.items():
                agg = out.setdefault(name, [0, 0.0, 0.0])
                agg[0] += calls
                agg[1] += total
                agg[2] += own
        return out

    def dump(self, path: str, header: dict) -> None:
        """Write the kept spans and the per-cell aggregates as JSON."""
        cells = {
            str(cell): [{"name": name, "parent": parent, "calls": c,
                         "total_s": t, "self_s": s}
                        for (name, parent), (c, t, s) in sorted(
                            per_cell.items(), key=lambda kv: (kv[0][0], str(kv[0][1])))]
            for cell, per_cell in self.stats.items() if per_cell
        }
        spans = [{"cell": cell, "name": name, "parent": parent,
                  "start": start, "end": end}
                 for cell, name, parent, start, end in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**header, "cells": cells, "spans": spans}, handle)
