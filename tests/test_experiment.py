"""Config parsing, sweep execution, report emission, analytic comparison."""

import hashlib
import os
import re
from dataclasses import fields

import pytest

import ringsim.experiment as experiment
from ringsim.analytics import Protocol, Variant
from ringsim.cli import main as cli_main
from ringsim.config import (
    ConfigError,
    ScenarioConfig,
    parse_config,
    parse_config_text,
)
from ringsim.engine import Engine, RunConfig
from ringsim.experiment import (
    CSV_COLUMNS,
    ResultRow,
    analytic_compare,
    emit_report,
    probe_discovery,
    read_results_csv,
    rows_to_csv_text,
    run_sweep,
    summarize,
    sweep_cells,
)
from ringsim.protocols import AodvNode
from ringsim.topology import Arena


# -------------------------------------------------------------------- config

def test_empty_config_takes_defaults():
    cfg = parse_config_text("")
    assert cfg.nodes == 50
    assert (cfg.arena_width, cfg.arena_height) == (1000.0, 1000.0)
    assert cfg.radio_range == 250.0
    assert cfg.v_max == 30.0
    assert cfg.pause_times == (0.0, 100.0, 200.0)
    assert cfg.duration == 900.0
    assert cfg.warmup == 50.0
    assert cfg.packet_size == 512
    assert cfg.protocols == (Protocol.AODV, Protocol.DSR, Protocol.DYMO)
    assert cfg.variants == (Variant.ERS1, Variant.ERS2)
    assert cfg.seeds == (1, 2, 3, 4, 5)


def test_config_parses_values_and_comments():
    text = """
# scenario knobs
nodes = 20
pause_times = [0, 50]   # seconds
protocols = [AODV, dymo]
seeds = [7]
out_dir = out
"""
    cfg = parse_config_text(text)
    assert cfg.nodes == 20
    assert cfg.pause_times == (0.0, 50.0)
    assert cfg.protocols == (Protocol.AODV, Protocol.DYMO)
    assert cfg.seeds == (7,)
    assert cfg.out_dir == "out"


def test_config_single_pause_cell():
    cfg = parse_config_text("pause_times = [0]\n")
    assert cfg.pause_times == (0.0,)


@pytest.mark.parametrize("text,fragment", [
    ("nodes: 20\n", "key = value"),
    ("speed = 3\n", "unknown key"),
    ("nodes = twenty\n", "cannot parse"),
    ("nodes = 5\nnodes = 6\n", "duplicate"),
    ("pause_times = 0, 50\n", "list"),
    ("protocols = [olsr]\n", "one of"),
    ("duration = 40\nwarmup = 50\n", "duration must exceed warmup"),
    # value checks live in RunConfig and Arena; a scenario is checked as its
    # cells will be built
    ("nodes = 0\n", "n_nodes must be >= 1"),
    ("arena_width = 0\n", "arena dimensions and radio range must be > 0"),
    ("radio_range = -5\n", "arena dimensions and radio range must be > 0"),
    ("v_max = -1\n", "v_max must be >= 0"),
    ("pause_times = [0, -10]\n", "pause_time must be >= 0"),
    ("warmup = -1\n", "warmup must be >= 0"),
    ("traffic_pairs = -1\n", "traffic_pairs must be >= 0"),
    ("traffic_rate = 0\n", "traffic_rate must be > 0"),
    ("packet_size = 0\n", "packet_size must be >= 1"),
    ("p_s = 1.5\n", r"p_s must lie in \[0, 1\]"),
    ("nodes = 1\n", "traffic_pairs needs at least 2 nodes"),
    # each key parses as its ScenarioConfig field is typed
    ("seeds = [1, x]\n", "cannot parse 'x' as int for seeds"),
    ("pause_times = [0, soon]\n",
     "cannot parse 'soon' as float for pause_times"),
    ("variants = [ers3]\n", "variants entries must be one of ers1, ers2"),
    ("seeds = []\n", "empty list"),
    # a repeated entry would run the same cells twice
    ("seeds = [1, 1]\n", "seeds repeats 1"),
    ("pause_times = [0, 0.0]\n", "pause_times repeats 0.0"),
    ("protocols = [aodv, AODV]\n", "protocols repeats aodv"),
    ("variants = [ers2, ers1, ERS2]\n", "variants repeats ers2"),
    # an infinite duration never ends, and a NaN passes every comparison
    ("duration = inf\n", "duration must be finite"),
    ("duration = nan\n", "duration must be finite"),
    ("warmup = nan\n", "warmup must be finite"),
    ("v_max = nan\n", "v_max must be finite"),
    ("traffic_rate = inf\n", "traffic_rate must be finite"),
    ("traffic_rate = nan\n", "traffic_rate must be finite"),
    ("pause_times = [0, nan]\n", "pause_time must be finite"),
    ("arena_width = inf\n", "arena width must be finite"),
    ("arena_height = nan\n", "arena height must be finite"),
    ("radio_range = nan\n", "arena radio_range must be finite"),
])
def test_config_rejects_bad_input(text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config_text(text)


def test_config_accepts_one_node_without_traffic():
    cfg = parse_config_text("nodes = 1\ntraffic_pairs = 0\n")
    assert (cfg.nodes, cfg.traffic_pairs) == (1, 0)


@pytest.mark.parametrize("name", ["pause_times", "protocols", "variants", "seeds"])
def test_scenario_rejects_empty_list(name):
    # the parser never yields an empty list; only direct construction can
    with pytest.raises(ConfigError, match=f"{name} must be non-empty"):
        ScenarioConfig(**{name: ()})


EXAMPLE_CONFIG = os.path.join(os.path.dirname(__file__), os.pardir,
                              "scenario-example.cfg")


def test_example_config_is_the_default():
    assert parse_config(EXAMPLE_CONFIG) == ScenarioConfig()


def test_example_config_sets_every_field_once():
    # the parser takes its keys from ScenarioConfig, so the documented
    # example is the one key list that can fall behind
    with open(EXAMPLE_CONFIG, encoding="utf-8") as handle:
        keys = [body.split("=", 1)[0].strip() for body in
                (line.split("#", 1)[0] for line in handle) if "=" in body]
    assert sorted(keys) == sorted(f.name for f in fields(ScenarioConfig))


def test_config_error_carries_line_number():
    with pytest.raises(ConfigError, match="line 3"):
        parse_config_text("nodes = 5\n\nbogus = 1\n")


# --------------------------------------------------------------------- sweep

def tiny_scenario(**overrides):
    values = dict(nodes=8, arena_width=400.0, arena_height=400.0,
                  radio_range=150.0, v_max=5.0, pause_times=(0.0,),
                  duration=8.0, warmup=1.0, traffic_pairs=2, traffic_rate=2.0,
                  protocols=(Protocol.DYMO,), variants=(Variant.ERS1, Variant.ERS2),
                  seeds=(1, 2))
    values.update(overrides)
    return ScenarioConfig(**values)


def test_sweep_counts_cells():
    scenario = ScenarioConfig()
    assert len(sweep_cells(scenario)) == 3 * 2 * 3 * 5
    rows = run_sweep(tiny_scenario())
    assert len(rows) == 4
    assert [r.key for r in rows] == sorted(r.key for r in rows)
    assert all(r.error == "" for r in rows)
    assert all(r.analytic_b_m > 0 for r in rows)


def test_sweep_deterministic_bytes():
    a = rows_to_csv_text(run_sweep(tiny_scenario()))
    b = rows_to_csv_text(run_sweep(tiny_scenario()))
    assert a == b


def test_sweep_parallel_matches_serial():
    serial = run_sweep(tiny_scenario())
    parallel = run_sweep(tiny_scenario(), parallel=2)
    assert rows_to_csv_text(serial) == rows_to_csv_text(parallel)


def test_sweep_pool_never_outnumbers_cells(monkeypatch):
    started = []

    class InProcessPool:
        """Records the worker count asked for and maps in this process."""

        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return [fn(task) for task in tasks]

    monkeypatch.setattr(experiment, "Pool", InProcessPool)
    rows = run_sweep(tiny_scenario(), parallel=5000)
    assert started == [4]
    assert rows_to_csv_text(rows) == rows_to_csv_text(run_sweep(tiny_scenario()))


def test_sweep_isolates_cell_failure(monkeypatch):
    real = experiment.run_cell

    def sabotaged(scenario, protocol, variant, pause_time, seed, trace_dir=None):
        if seed == 2 and variant is Variant.ERS1:
            raise RuntimeError("boom")
        return real(scenario, protocol, variant, pause_time, seed, trace_dir)

    monkeypatch.setattr(experiment, "run_cell", sabotaged)
    rows = run_sweep(tiny_scenario())
    failed = [r for r in rows if r.error]
    assert len(failed) == 1
    assert "boom" in failed[0].error
    assert failed[0].throughput_bps is None
    assert len([r for r in rows if not r.error]) == 3


def test_sweep_checks_packet_conservation(monkeypatch):
    rows = run_sweep(tiny_scenario(protocols=tuple(Protocol), seeds=(1,)))
    assert len(rows) == 6 and all(r.error == "" for r in rows)

    class LeakyEngine(Engine):
        def run(self):
            metrics = super().run()
            metrics.data_sent += 1   # one packet that never ends anywhere
            return metrics

    monkeypatch.setattr(experiment, "Engine", LeakyEngine)
    rows = run_sweep(tiny_scenario(seeds=(1,)))
    assert len(rows) == 2
    assert all("packet conservation violated" in r.error for r in rows)
    assert all(r.throughput_bps is None for r in rows)


@pytest.mark.parametrize("parallel", [0, -1])
def test_sweep_rejects_parallel_below_one(parallel, tmp_path, capsys):
    with pytest.raises(ValueError, match="parallel must be >= 1"):
        run_sweep(tiny_scenario(), parallel=parallel)
    config = tmp_path / "tiny.cfg"
    config.write_text("nodes = 8\nprotocols = [dymo]\nseeds = [1]\n",
                      encoding="utf-8")
    out_dir = tmp_path / "out"
    for flags in ([], ["--trace"]):
        assert cli_main(["run", "--config", str(config), "--out", str(out_dir),
                         "--parallel", str(parallel)] + flags) == 2
        assert "error: parallel must be >= 1" in capsys.readouterr().err
        assert not out_dir.exists()


# ------------------------------------------------------------------- reports

def synthetic_rows():
    rows = []
    for protocol in ("aodv", "dsr", "dymo"):
        for variant in ("ers1", "ers2"):
            for pause in (0.0, 100.0, 200.0):
                for seed in range(1, 6):
                    # fixed pattern: enhanced variant slightly better
                    bump = 1.0 if variant == "ers2" else 0.0
                    rows.append(ResultRow(
                        protocol=protocol, variant=variant, pause_time=pause,
                        seed=seed, throughput_bps=1000.0 + 10 * bump + seed,
                        e2ed_s=None if seed == 5 else 0.5 - 0.1 * bump,
                        nrl=2.0 - 0.5 * bump, discovery_successes=3,
                        analytic_b_m=12.5, sim_rreq_tx=40))
    return rows


def test_summary_groups_and_deltas():
    text = summarize(synthetic_rows())
    assert text.count("pause=") >= 18
    assert "excluded 1" in text
    assert "nrl=-0.5" in text
    assert "throughput_bps=+10" in text


def test_csv_round_trip(tmp_path):
    rows = synthetic_rows()
    path = tmp_path / "results.csv"
    path.write_text(rows_to_csv_text(rows), encoding="utf-8")
    assert read_results_csv(str(path)) == rows


@pytest.mark.parametrize("drop,add", [
    ((), ("note",)),
    (("sim_rreq_tx",), ()),
    (("nrl",), ("routing_load",)),
])
def test_csv_rejects_foreign_header(tmp_path, drop, add):
    header = [col for col in CSV_COLUMNS if col not in drop] + list(add)
    path = tmp_path / "results.csv"
    path.write_text(",".join(header) + "\n" + ",".join("1" * len(header))
                    + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(
            f"missing {list(drop)}, extra {list(add)}")):
        read_results_csv(str(path))


def test_csv_round_trips_real_rows(tmp_path):
    rows = run_sweep(tiny_scenario(seeds=(3,)))
    csv_path, summary_path = emit_report(rows, str(tmp_path / "out"))
    assert read_results_csv(csv_path) == rows
    assert os.path.exists(summary_path)


def test_empty_report_rejected(tmp_path):
    with pytest.raises(ValueError):
        emit_report([], str(tmp_path))
    with pytest.raises(ValueError):
        summarize([])


# ---------------------------------------------------------- analytic compare

def test_analytic_compare_exact_in_static_mode():
    scenario = ScenarioConfig(nodes=30, v_max=0.0, pause_times=(0.0,),
                              radio_range=250.0, seeds=(1, 2),
                              protocols=(Protocol.AODV, Protocol.DSR),
                              variants=(Variant.ERS1,), duration=60.0,
                              warmup=0.0)
    rows, table = analytic_compare(scenario)
    assert rows
    assert all(r["tx_rel_err"] == 0.0 for r in rows)
    assert all(r["sim_tx"] == r["census_tx"] for r in rows)
    assert "census" in table


GOLDEN_COMPARE_SHA256 = (
    "2606493d21fe4df524fa235f3215111cbeb612404123c7cb407d092e90edc341")


def test_golden_compare_output():
    """Exact pin on the compare table: every protocol x variant, two seeds at
    p_s = 1 and one seed at p_s = 0.7, hashed as the CLI prints it."""
    digest = hashlib.sha256()
    for seeds, p_s in (((1, 2), 1.0), ((3,), 0.7)):
        scenario = ScenarioConfig(nodes=25, arena_width=800.0,
                                  arena_height=800.0, radio_range=250.0,
                                  v_max=0.0, pause_times=(0.0,), duration=60.0,
                                  warmup=0.0, seeds=seeds, p_s=p_s)
        _, table = analytic_compare(scenario)
        digest.update(table.encode())
    assert digest.hexdigest() == GOLDEN_COMPARE_SHA256


def _own_rreq_sends(trace, nid):
    """Times and tags of the requests nid originated, from the trace."""
    return [(t, tag) for t, kind, node, pkt_kind, _, _, _, tag in trace
            if kind == "send" and pkt_kind == "RREQ" and node == nid
            and tag.startswith(f"q{nid}.")]


PROBE_ARENA = Arena(800.0, 800.0, 250.0)


@pytest.mark.parametrize("protocol", list(Protocol))
@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("seed,p_s", [(1, 1.0), (2, 1.0), (5, 1.0), (6, 0.7)])
def test_probe_matches_traced_reference(protocol, variant, seed, p_s):
    """The untraced probe against a traced engine of the same run config,
    driven the same way: ring-open times and per-ring sends agree exactly."""
    probe = probe_discovery(protocol, variant, seed, n_nodes=30,
                            arena=PROBE_ARENA, p_s=p_s)
    cfg = RunConfig(protocol=protocol, variant=variant, n_nodes=30,
                    arena=PROBE_ARENA, v_max=0.0, pause_time=0.0,
                    duration=sum(probe.waits) + 1.0, warmup=0.0,
                    traffic_pairs=0, p_s=p_s, seed=seed, trace=True)
    engine = Engine(cfg)
    engine.schedule_in(0.0, engine.nodes[0].request_route, 30)
    engine.run()

    opened = _own_rreq_sends(engine.trace, 0)
    assert len(opened) == len(probe.ring_ttls)
    assert probe.emit_times == tuple(t for t, _ in opened)
    # every forwarder's send carries the request tag q<orig>.<req_id>r<ttl>
    per_request: dict = {}
    for _, kind, _, pkt_kind, _, _, _, tag in engine.trace:
        if kind == "send" and pkt_kind == "RREQ":
            request = tag.split("r")[0]
            per_request[request] = per_request.get(request, 0) + 1
    assert probe.sim_counts == tuple(per_request[tag.split("r")[0]]
                                     for _, tag in opened)
    if p_s == 1.0:
        assert probe.sim_counts == probe.census_counts


def test_local_repair_records_its_request(monkeypatch):
    """AODV forwarders that repair locally record their repair requests; every
    node's rreq_opened equals its own-request send times in the trace."""
    repairs = []
    real = AodvNode._start_repair

    def spy(self, dest, pkt=None):
        # a repair started for a held data packet is a forwarder's repair
        if dest not in self.repairs and pkt is not None:
            repairs.append((self.nid, self.engine.now, len(self.rreq_opened)))
        real(self, dest, pkt)

    monkeypatch.setattr(AodvNode, "_start_repair", spy)
    cfg = RunConfig(protocol=Protocol.AODV, variant=Variant.ERS1, n_nodes=30,
                    arena=Arena(800.0, 800.0, 180.0), v_max=20.0,
                    pause_time=0.0, duration=20.0, warmup=2.0,
                    traffic_pairs=5, seed=3, trace=True)
    engine = Engine(cfg)
    engine.run()
    assert repairs
    for nid, now, req_id in repairs:
        assert engine.nodes[nid].rreq_opened[req_id] == now
    for node in engine.nodes:
        assert node.rreq_opened == [t for t, _ in
                                    _own_rreq_sends(engine.trace, node.nid)]


def test_analytic_compare_requires_static():
    with pytest.raises(ConfigError, match="static"):
        analytic_compare(ScenarioConfig(v_max=10.0))


# ----------------------------------------------------------------------- CLI

def test_cli_schedule(capsys):
    assert cli_main(["schedule", "--protocol", "aodv", "--variant", "ers1"]) == 0
    out = capsys.readouterr().out
    assert "2 4 6 35 35 35" in out
    assert "0.320" in out


GOLDEN_SCHEDULE_SHA256 = (
    "5be02a4e568a46646bdbd24815df0b3068942fadf059e5321f3dde88e39621a2")


def test_golden_schedule_output(capsys):
    """Exact pin on `ringsim schedule` for every protocol x variant: the
    schedule, the discovery-layer rings and each ring's wait, as printed."""
    digest = hashlib.sha256()
    for protocol in Protocol:
        for variant in Variant:
            assert cli_main(["schedule", "--protocol", protocol.value,
                             "--variant", variant.value]) == 0
            digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == GOLDEN_SCHEDULE_SHA256


def test_cli_run_and_compare(tmp_path, capsys):
    config = tmp_path / "tiny.cfg"
    config.write_text(
        "nodes = 8\narena_width = 400\narena_height = 400\n"
        "radio_range = 150\nv_max = 5\npause_times = [0]\nduration = 8\n"
        "warmup = 1\ntraffic_pairs = 2\ntraffic_rate = 2\n"
        "protocols = [dymo]\nseeds = [1]\n", encoding="utf-8")
    out_dir = tmp_path / "results"
    assert cli_main(["run", "--config", str(config), "--out", str(out_dir)]) == 0
    assert (out_dir / "results.csv").exists()
    assert (out_dir / "summary.txt").exists()
    capsys.readouterr()

    static = tmp_path / "static.cfg"
    static.write_text(
        "nodes = 12\nradio_range = 250\nv_max = 0\npause_times = [0]\n"
        "duration = 30\nwarmup = 0\nprotocols = [dsr]\nvariants = [ers1]\n"
        "seeds = [1]\n", encoding="utf-8")
    assert cli_main(["compare", "--config", str(static)]) == 0
    assert "err%" in capsys.readouterr().out


def test_cli_run_writes_one_trace_per_cell(tmp_path, capsys):
    config = tmp_path / "tiny.cfg"
    config.write_text(
        "nodes = 6\narena_width = 300\narena_height = 300\n"
        "radio_range = 150\nv_max = 0\npause_times = [0, 5]\nduration = 3\n"
        "warmup = 0\ntraffic_pairs = 1\nprotocols = [aodv]\n"
        "variants = [ers1, ers2]\nseeds = [1]\n", encoding="utf-8")
    out_dir = tmp_path / "out"
    assert cli_main(["run", "--config", str(config), "--out", str(out_dir),
                     "--trace"]) == 0
    capsys.readouterr()
    assert sorted(os.listdir(out_dir / "traces")) == [
        f"trace_aodv_{variant}_p{pause}_s1.txt"
        for variant in ("ers1", "ers2") for pause in (0, 5)]
    for name in os.listdir(out_dir / "traces"):
        assert (out_dir / "traces" / name).read_text(encoding="utf-8")


def test_cli_rejects_one_node_with_traffic(tmp_path, capsys):
    config = tmp_path / "one.cfg"
    config.write_text("nodes = 1\n", encoding="utf-8")
    out_dir = tmp_path / "out"
    assert cli_main(["run", "--config", str(config), "--out", str(out_dir),
                     "--trace"]) == 2
    assert "traffic_pairs" in capsys.readouterr().err
    assert not out_dir.exists()


def test_cli_reports_config_errors(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("bogus = 1\n", encoding="utf-8")
    assert cli_main(["run", "--config", str(bad)]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_cli_missing_file(capsys):
    assert cli_main(["run", "--config", "/nonexistent/x.cfg"]) == 2
    assert "error" in capsys.readouterr().err
