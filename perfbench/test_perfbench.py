"""Tests of the benchmark itself, on scenarios small enough to run in seconds.

    python3 -m pytest perfbench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import ringsim.config as config  # noqa: E402
import ringsim.experiment as experiment  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

TINY_MOBILE = """\
nodes = 12
arena_width = 400.0
arena_height = 400.0
radio_range = 150.0
v_max = 20.0
pause_times = [0]
duration = 6.0
warmup = 1.0
traffic_pairs = 2
protocols = [aodv, dsr]
variants = [ers1, ers2]
seeds = [3]
"""

TINY_STATIC = """\
nodes = 12
arena_width = 400.0
arena_height = 400.0
radio_range = 150.0
v_max = 0.0
pause_times = [0]
duration = 10.0
warmup = 0.0
protocols = [aodv, dsr]
variants = [ers1]
seeds = [3, 4]
"""


def traced_pass(text):
    tracer = tracing.Tracer(spans=True)
    output, _ = run.wrapped_pass(tracer, text)
    return tracer, output


def wrapped_attributes():
    return {(id(owner), attr): vars(owner)[attr]
            for owner, attr, _name in tracing.targets()}


def test_wrappers_removed_after_traced_run_and_after_error():
    before = wrapped_attributes()
    traced_pass(TINY_MOBILE)
    assert wrapped_attributes() == before

    tracer = tracing.Tracer(spans=True)
    with pytest.raises(ZeroDivisionError):
        with tracer.installed():
            assert wrapped_attributes() != before
            1 / 0
    assert wrapped_attributes() == before


@pytest.mark.parametrize("text", [TINY_MOBILE, TINY_STATIC])
def test_traced_and_untraced_output_identical(text):
    plain = workloads.run_pass(config.parse_config_text(text))
    counting = tracing.Tracer(spans=False)
    counted, _ = run.wrapped_pass(counting, text)
    tracer, traced = traced_pass(text)
    assert plain.failed == 0
    assert plain.text == counted.text == traced.text
    assert counting.calls == tracer.calls
    assert counting.extra == tracer.extra
    assert run.fingerprint(counted, counting) == run.fingerprint(traced, tracer)


def test_pieces_join_to_the_whole_call_output():
    mobile = config.parse_config_text(TINY_MOBILE)
    whole = experiment.rows_to_csv_text(experiment.run_sweep(mobile))
    assert workloads.run_pass(mobile).text == whole

    static = config.parse_config_text(TINY_STATIC)
    _, table = experiment.analytic_compare(static)
    joined = workloads.run_pass(static).text
    assert joined.startswith(table)
    analytics_lines = joined[len(table):].splitlines()
    assert len(analytics_lines) == len(static.seeds) * len(static.protocols) \
        * len(static.variants)


def test_timed_rounds_checks_every_round_and_rescales_by_the_probe():
    scenario = config.parse_config_text(TINY_MOBILE)
    check = run.Run(workloads.WORKLOADS["dsr_dense_mobile"], seed=5, committed=None)
    with hostspeed.Probe() as probe:
        wall, detail = run.timed_rounds(check, scenario, 0.0, probe)
    assert probe._proc.returncode == 0    # the helper has ended
    assert detail["rounds"] == 1 and detail["piece_runs"] == 4
    assert check.failed == 0 and check.attempted == 4 + 1
    assert detail["probe_samples"] >= 2
    assert wall == pytest.approx(
        detail["host_pass_s"] * hostspeed.NOMINAL_S / detail["probe_median_s"])


def test_self_times_non_negative_and_sum_to_root():
    tracer, _ = traced_pass(TINY_MOBILE)
    root_calls, root_total, _ = tracer.stats["-"][("bench.pass", None)]
    assert root_calls == 1
    own_sum = 0.0
    for per_cell in tracer.stats.values():
        for (name, parent), (calls, total, own) in per_cell.items():
            assert calls > 0
            assert own >= -1e-12, (name, parent, own)
            assert own <= total + 1e-12
            own_sum += own
    assert math.isclose(own_sum, root_total, rel_tol=1e-9)
    # Every cell's spans sit under its run_cell span.
    for cell, per_cell in tracer.stats.items():
        if cell == "-":
            continue
        (cell_key,) = [k for k in per_cell if k[0] == "experiment.run_cell"]
        cell_total = per_cell[cell_key][1]
        assert math.isclose(sum(v[2] for v in per_cell.values()), cell_total,
                            rel_tol=1e-9)


def test_layer_metrics_cover_every_per_layer_name():
    tracer, _ = traced_pass(TINY_MOBILE)
    values = run.layer_metrics(tracer)
    assert set(values) | {"trace.overhead_frac"} == set(run.PER_LAYER)
    assert values["engine.events"] > 0
    assert values["protocols.route_cache.lookup.calls"] > 0
    assert values["topology.waypoint_step.calls"] > 0
    assert all(v >= 0 for v in values.values())


def test_injected_error_row_counts_as_failed(monkeypatch):
    original = experiment.run_cell

    def flaky(scenario, protocol, variant, *args, **kwargs):
        if protocol.value == "dsr" and variant.value == "ers2":
            raise RuntimeError("injected")
        return original(scenario, protocol, variant, *args, **kwargs)

    monkeypatch.setattr(experiment, "run_cell", flaky)
    output = workloads.run_pass(config.parse_config_text(TINY_MOBILE))
    assert (output.attempted, output.failed) == (4, 1)

    check = run.Run(workloads.WORKLOADS["dsr_dense_mobile"], seed=5, committed=None)
    check.check_pass("pass", output)
    result = check.result({}, {})
    assert result["correct"] is False
    assert (result["failed"], result["attempted"]) == (1, 5)


def test_fingerprint_mismatch_counts_as_failed():
    counting = tracing.Tracer(spans=False)
    output, _ = run.wrapped_pass(counting, TINY_STATIC)
    good = run.fingerprint(output, counting)
    check = run.Run(workloads.WORKLOADS["static_probe"], seed=1,
                    committed={**good, "engine_events": good["engine_events"] + 1})
    check.check_pass("pass", output, counting)
    assert check.failed == 1


def test_scenarios_follow_the_seed():
    for workload in workloads.WORKLOADS.values():
        a = workloads.scenario_text(workload, 7)
        assert a == workloads.scenario_text(workload, 7)
        assert a != workloads.scenario_text(workload, 8)
        config.parse_config_text(a)


def test_benchmark_json_matches_the_runner():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    committed = json.loads((HERE / "fingerprints.json").read_text())
    assert set(committed) == set(workloads.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "static_probe",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
