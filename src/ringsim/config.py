"""Flat key = value scenario configuration for sweep runs.

Grammar: one `key = value` per line, `#` starts a comment, blank lines are
ignored, lists are written `[a, b, c]`.  Each key is a `ScenarioConfig` field
and parses as that field is typed: a tuple field takes a list of its item
type, an enum matches its values case-insensitively, and any other type is
called on the text.  Unknown keys are rejected; missing keys take the
documented defaults.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import get_args, get_origin, get_type_hints

from .analytics import Protocol, Variant
from .engine import RunConfig
from .topology import Arena


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ScenarioConfig:
    nodes: int = 50
    arena_width: float = 1000.0
    arena_height: float = 1000.0
    radio_range: float = 250.0
    v_max: float = 30.0
    pause_times: tuple[float, ...] = (0.0, 100.0, 200.0)
    duration: float = 900.0
    warmup: float = 50.0
    traffic_pairs: int = 10
    traffic_rate: float = 4.0
    packet_size: int = 512
    protocols: tuple[Protocol, ...] = (Protocol.AODV, Protocol.DSR, Protocol.DYMO)
    variants: tuple[Variant, ...] = (Variant.ERS1, Variant.ERS2)
    seeds: tuple[int, ...] = (1, 2, 3, 4, 5)
    p_s: float = 1.0
    out_dir: str = "results"

    def __post_init__(self):
        problems = [f"{name} must be non-empty"
                    for name in ("pause_times", "protocols", "variants", "seeds")
                    if not getattr(self, name)]
        if problems:
            raise ConfigError("invalid scenario: " + "; ".join(problems))
        # every other value is checked as the cells will be built from it
        for pause_time in self.pause_times:
            try:
                self.to_run_config(self.protocols[0], self.variants[0],
                                   pause_time, self.seeds[0])
            except ValueError as exc:
                raise ConfigError(f"invalid scenario: {exc}") from None

    @property
    def arena(self) -> Arena:
        return Arena(self.arena_width, self.arena_height, self.radio_range)

    def to_run_config(self, protocol: Protocol, variant: Variant,
                      pause_time: float, seed: int,
                      trace: bool = False) -> RunConfig:
        return RunConfig(
            protocol=protocol, variant=variant, n_nodes=self.nodes,
            arena=self.arena, v_max=self.v_max, pause_time=pause_time,
            duration=self.duration, warmup=self.warmup,
            traffic_pairs=self.traffic_pairs, traffic_rate=self.traffic_rate,
            packet_size=self.packet_size, p_s=self.p_s, seed=seed, trace=trace,
        )


_FIELD_TYPES = get_type_hints(ScenarioConfig)


def _parse_list(raw: str, lineno: int) -> list[str]:
    raw = raw.strip()
    if not (raw.startswith("[") and raw.endswith("]")):
        raise ConfigError(f"line {lineno}: list values must look like [a, b, c]")
    inner = raw[1:-1].strip()
    if not inner:
        raise ConfigError(f"line {lineno}: empty list")
    return [item.strip() for item in inner.split(",")]


def _parse_value(raw: str, kind, key: str, lineno: int):
    if issubclass(kind, Enum):
        try:
            return kind(raw.lower())
        except ValueError:
            allowed = ", ".join(member.value for member in kind)
            raise ConfigError(f"line {lineno}: {key} entries must be one of "
                              f"{allowed}, got {raw!r}") from None
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(
            f"line {lineno}: cannot parse {raw!r} as {kind.__name__} for {key}"
        ) from None


def parse_config_text(text: str) -> ScenarioConfig:
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, raw = (part.strip() for part in body.split("=", 1))
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        kind = _FIELD_TYPES[key]
        if get_origin(kind) is tuple:
            item_kind = get_args(kind)[0]
            values[key] = tuple(_parse_value(item, item_kind, key, lineno)
                                for item in _parse_list(raw, lineno))
        else:
            values[key] = _parse_value(raw, kind, key, lineno)
    return ScenarioConfig(**values)


def parse_config(path: str) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config_text(handle.read())
