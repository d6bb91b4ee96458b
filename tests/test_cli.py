import contextlib
import itertools
import random
import json
import time
import tracemalloc
from types import SimpleNamespace

import pytest

import netbrain.generators
import netbrain.harness
from helpers import ALL_SPECS, edges
from netbrain import _native, cli, fileio, generate, ingest_edge_list
from netbrain.cli import main


def run_cli(*args):
    return main([str(a) for a in args])


# --- generate ---------------------------------------------------------------


def test_generate_er_writes_edges_near_expectation(tmp_path, capsys):
    out = tmp_path / "g.txt"
    assert run_cli("generate", "er", "--n", 1000, "--k", 8, "--seed", 7, "--out", out) == 0
    g, _, report = ingest_edge_list(out)
    assert abs(report.lcc_edges - 4000) / 4000 < 0.05
    assert "k_avg" in capsys.readouterr().out


def test_generate_ws_exact_edge_count(tmp_path):
    out = tmp_path / "g.txt"
    assert run_cli("generate", "ws", "--n", 100, "--k", 4, "--p-rewire", 0, "--seed", 1, "--out", out) == 0
    _, _, report = ingest_edge_list(out)
    assert report.raw_edges == 200
    assert report.lcc_edges == 200


def test_generate_sbm_single_block_is_er_equivalent(tmp_path):
    out = tmp_path / "g.txt"
    assert (
        run_cli("generate", "sbm", "--n", 100, "--blocks", 1, "--mu", 0, "--k", 10, "--seed", 2, "--out", out)
        == 0
    )
    g, _, _ = ingest_edge_list(out)
    assert abs(g.mean_degree() - 10) < 2.5


@pytest.mark.parametrize("command", ["generate sbm", "run --model sbm"])
def test_sbm_above_the_edge_bound_is_one_error_line(tmp_path, capsys, command):
    out = tmp_path / "out"
    assert run_cli(*command.split(), "--n", 100000, "--k", 10, "--seed", 1, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: sbm would draw about 4.5e+07 edges") and err.count("\n") == 1
    assert not out.exists()


def test_generate_rejects_bad_parameters(tmp_path, capsys):
    out = tmp_path / "g.txt"
    assert run_cli("generate", "er", "--n", 10, "--k", 99, "--seed", 1, "--out", out) == 2
    assert "error" in capsys.readouterr().err


def test_generate_cm_from_degrees_file(tmp_path):
    degrees = tmp_path / "degs.txt"
    degrees.write_text("\n".join(["3"] * 40 + ["5"] * 40))
    out = tmp_path / "g.txt"
    assert run_cli("generate", "cm", "--degrees-file", degrees, "--seed", 4, "--out", out) == 0
    g, _, _ = ingest_edge_list(out)
    assert max(g.degrees()) <= 5


def test_generate_cm_above_the_edge_bound_exits_2_before_drawing(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(netbrain.generators, "build_graph_reported", lambda *args: pytest.fail("a graph was built"))
    degrees = tmp_path / "degs.txt"
    degrees.write_text("3200\n" * 3201)  # 5,121,600 edges
    assert run_cli("generate", "cm", "--degrees-file", degrees, "--seed", 4, "--out", tmp_path / "g.txt") == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "above the bound of 5,000,000" in err[0]
    assert not (tmp_path / "g.txt").exists()


def test_generate_cm_requires_degrees_file(tmp_path, capsys):
    assert run_cli("generate", "cm", "--out", tmp_path / "g.txt") == 2
    assert "degrees-file" in capsys.readouterr().err


# One flag per GeneratorSpec number field; the CLI takes all of them for any model.
SPEC_FLAGS = {
    "n": "--n",
    "k_avg": "--k",
    "seed": "--seed",
    "p_rewire": "--p-rewire",
    "mu": "--mu",
    "blocks": "--blocks",
    "alpha": "--alpha",
}


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.model)
def test_generate_writes_the_library_graph(tmp_path, spec):
    out = tmp_path / "g.txt"
    args = ["generate", spec.model, "--out", out]
    for field, flag in SPEC_FLAGS.items():
        args += [flag, getattr(spec, field)]
    if spec.degree_sequence:
        degrees = tmp_path / "degs.txt"
        degrees.write_text("\n".join(map(str, spec.degree_sequence)))
        args += ["--degrees-file", degrees]
    assert run_cli(*args) == 0
    lines = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    assert [tuple(map(int, line.split())) for line in lines] == edges(generate(spec).graph)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.model)
def test_generate_and_ingest_write_the_same_bytes_without_the_library(tmp_path, spec, monkeypatch):
    args = ["generate", spec.model]
    for field, flag in SPEC_FLAGS.items():
        args += [flag, getattr(spec, field)]
    if spec.degree_sequence:
        degrees = tmp_path / "degs.txt"
        degrees.write_text("\n".join(map(str, spec.degree_sequence)))
        args += ["--degrees-file", degrees]
    listing = tmp_path / "g.txt"
    outputs = {}
    for engine in ("native", "python"):
        if engine == "python":
            monkeypatch.setattr(_native, "LOADER", _native.Loader(cc="false", cache_dir=tmp_path / "cache"))
        assert run_cli(*args, "--out", tmp_path / f"g-{engine}.txt") == 0
        # Both ingest the same file, whose path their headers name.
        (tmp_path / f"g-{engine}.txt").replace(listing)
        assert run_cli("ingest", listing, "--out", tmp_path / engine) == 0
        names = ("graph.txt", "label_map.json", "ingest_report.json")
        outputs[engine] = [listing.read_bytes(), *((tmp_path / engine / name).read_bytes() for name in names)]
        outputs[engine].append(generate(spec))
    assert not _native.available()
    assert outputs["native"] == outputs["python"]


# --- ingest ------------------------------------------------------------------


def test_ingest_reports_and_writes_outputs(tmp_path, capsys):
    src = tmp_path / "raw.txt"
    src.write_text("5 900\n900 12\n12 12\n5 900\n")
    out = tmp_path / "ingested"
    assert run_cli("ingest", src, "--out", out) == 0
    printed = capsys.readouterr().out
    assert "1 self-loops" in printed and "1 duplicates" in printed
    mapping = json.loads((out / "label_map.json").read_text())
    assert mapping == {"5": 0, "12": 1, "900": 2}
    report = json.loads((out / "ingest_report.json").read_text())
    assert report["lcc_nodes"] == 3
    g, _, _ = ingest_edge_list(out / "graph.txt")
    assert g.n == 3 and g.m == 2


@pytest.mark.parametrize("label", ["+1", "1_0", "\u0663"], ids=["plus", "underscore", "arabic-indic"])
def test_ingest_refuses_labels_beyond_ascii_digits_in_one_error_line(tmp_path, capsys, label):
    src = tmp_path / "raw.txt"
    src.write_text(f"0 1\n{label} 2\n", encoding="utf-8")
    assert run_cli("ingest", src, "--out", tmp_path / "ingested") == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {src}:2: node labels must be non-negative integers")
    assert not (tmp_path / "ingested").exists()


# --- run ----------------------------------------------------------------------


def write_config(tmp_path, filename="cfg.json", **extra):
    cfg = {
        "generator": {"model": "er", "n": 80, "k_avg": 5.0, "seed": 3},
        "policies": ["standard"],
        "start": {"kind": "explicit", "nodes": [0, 1]},
        "repetitions_per_start": 2,
        "thresholds": [0.5, 1.0],
        "master_seed": 11,
    }
    if "edge_list" in extra:
        del cfg["generator"]
    cfg.update(extra)
    path = tmp_path / filename
    path.write_text(json.dumps(cfg))
    return path


def test_run_p3_explicit_brain(tmp_path):
    # Path graph from an edge list, brain at the middle: two one-step walks.
    net = tmp_path / "p3.txt"
    net.write_text("0 1\n1 2\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "edge_list": str(net),
                "policies": ["standard"],
                "start": {"kind": "explicit", "nodes": [1]},
                "repetitions_per_start": 1,
                "thresholds": [1.0],
                "master_seed": 0,
            }
        )
    )
    out = tmp_path / "res"
    assert run_cli("run", "--config", cfg, "--out", out) == 0
    lines = (out / "curves.csv").read_text().splitlines()
    assert lines[1].endswith("1.0000,2")  # both leaves need their own walk
    manifest = json.loads((out / "manifest.json").read_text())
    totals = manifest["totals"]
    assert (totals["walk_count"], totals["moves"], manifest["engine"]) == (2, 2, "native")
    flags = ["--policies", "standard", "--start", "explicit:1", "--reps", 1, "--thresholds", "1.0"]
    assert run_cli("run", "--edge-list", net, *flags, "--master-seed", 0, "--out", tmp_path / "flags") == 0
    assert read_run(tmp_path / "flags") == read_run(out)


def test_run_twice_is_byte_identical_except_manifest(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run_cli("run", "--config", cfg, "--out", out1) == 0
    assert run_cli("run", "--config", cfg, "--out", out2) == 0
    assert (out1 / "curves.csv").read_bytes() == (out2 / "curves.csv").read_bytes()
    assert (out1 / "aggregate.csv").read_bytes() == (out2 / "aggregate.csv").read_bytes()
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    m1.pop("created"), m2.pop("created")
    m1.pop("wall_time_s"), m2.pop("wall_time_s")
    assert m1 == m2


def test_run_with_step_cap_records_cap_hits(tmp_path):
    cfg = write_config(
        tmp_path,
        generator={"model": "er", "n": 400, "k_avg": 3.0, "seed": 5},
        step_cap=100,
    )
    out = tmp_path / "res"
    assert run_cli("run", "--config", cfg, "--out", out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["totals"]["cap_hits"] > 0
    assert manifest["config"]["step_cap"] == 100


def test_step_cap_beyond_int64_runs_as_no_cap(tmp_path):
    flags = ["run", "--model", "er", "--n", 50, "--k", 4, "--seed", 1, "--reps", 1, "--start", "hubs:1"]
    assert run_cli(*flags, "--out", tmp_path / "free") == 0
    assert run_cli(*flags, "--step-cap", 2**63, "--out", tmp_path / "capped") == 0
    free, capped = read_run(tmp_path / "free"), read_run(tmp_path / "capped")
    assert capped[:2] == free[:2]
    assert capped[2]["config"]["step_cap"] == 2**63


def test_run_from_flags_only(tmp_path):
    out = tmp_path / "res"
    assert (
        run_cli(
            "run",
            "--model", "er", "--n", 60, "--k", 5, "--seed", 2,
            "--policies", "standard,extended",
            "--start", "explicit:0,1",
            "--reps", 1,
            "--thresholds", "0.5,1.0",
            "--master-seed", 4,
            "--out", out,
        )
        == 0
    )
    lines = (out / "curves.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 * 2 * 2  # policies x starts x thresholds


def read_run(out):
    """The CSV bytes and the manifest of a run, without its timing fields."""
    manifest = json.loads((out / "manifest.json").read_text())
    manifest.pop("created"), manifest.pop("wall_time_s")
    return (out / "curves.csv").read_bytes(), (out / "aggregate.csv").read_bytes(), manifest


@pytest.mark.parametrize(
    "flag, block",
    [
        ("stride:20", {"kind": "degree_stride", "stride": 20}),
        ("hubs:3", {"kind": "top_hubs", "count": 3}),
        ("percentile:0.9", {"kind": "betweenness_percentile", "min_percentile": 0.9}),
        ("explicit:4,0", {"kind": "explicit", "nodes": [4, 0]}),
    ],
    ids=["stride", "hubs", "percentile", "explicit"],
)
def test_run_flags_and_config_file_give_identical_output(tmp_path, flag, block):
    cfg = write_config(
        tmp_path,
        generator={"model": "ws", "n": 80, "k_avg": 4.0, "p_rewire": 0.1, "seed": 3},
        policies=["standard", "look_ahead"],
        start=block,
        step_cap=40,
    )
    flags = [
        "--model", "ws", "--n", 80, "--k", 4, "--p-rewire", 0.1, "--seed", 3,
        "--policies", "standard,look_ahead", "--start", flag, "--reps", 2,
        "--step-cap", 40, "--thresholds", "0.5,1.0", "--master-seed", 11,
    ]
    assert run_cli("run", "--config", cfg, "--out", tmp_path / "file") == 0
    assert run_cli("run", *flags, "--out", tmp_path / "flags") == 0
    from_file, from_flags = read_run(tmp_path / "file"), read_run(tmp_path / "flags")
    assert from_flags == from_file
    assert from_flags[2]["config"]["start"] == block


def test_run_rejects_sweep_config(tmp_path, capsys):
    cfg = write_config(tmp_path, sweep={"axis": "k_avg", "values": [3, 5]})
    assert run_cli("run", "--config", cfg, "--out", tmp_path / "res") == 2
    assert "sweep" in capsys.readouterr().err


# --- sweep ----------------------------------------------------------------------


def test_sweep_writes_per_value_and_combined_files(tmp_path):
    cfg = write_config(
        tmp_path,
        generator={"model": "er", "n": 100, "k_avg": 4.0, "seed": 3},
        repetitions_per_start=1,
        sweep={"axis": "k_avg", "values": [4, 8]},
    )
    out = tmp_path / "sw"
    assert run_cli("sweep", "--config", cfg, "--out", out) == 0
    assert (out / "aggregate_k_avg_4.csv").exists()
    assert (out / "aggregate_k_avg_8.csv").exists()
    combined = (out / "aggregate_combined.csv").read_text().splitlines()
    assert len(combined) == 1 + 2 * 2  # two axis values x two thresholds
    assert any(line.startswith("k_avg=4,") for line in combined[1:])


def test_hub_degree_sweep_manifest_totals_match_run(tmp_path):
    run_cfg = write_config(tmp_path, "run.json", step_cap=10)
    sweep_cfg = write_config(tmp_path, "sweep.json", step_cap=10, sweep={"axis": "hub_degree"})
    assert run_cli("run", "--config", run_cfg, "--out", tmp_path / "run") == 0
    assert run_cli("sweep", "--config", sweep_cfg, "--out", tmp_path / "sw") == 0
    ran = json.loads((tmp_path / "run" / "manifest.json").read_text())
    swept = json.loads((tmp_path / "sw" / "manifest.json").read_text())
    assert sorted(ran["totals"]) == ["cap_hits", "cumulative_steps", "moves", "walk_count"]
    assert ran["totals"]["cap_hits"] > 0
    assert (swept["cells"], swept["totals"], swept["engine"]) == (ran["cells"], ran["totals"], ran["engine"])
    assert ran["cells"] == 4


def test_both_manifests_time_every_output_written_before_them(tmp_path, monkeypatch):
    # A clock that advances by one at each reading, read again after each
    # CSV is renamed into place: a manifest whose clock stopped before a
    # write reads less. Every file goes through `fileio._writing`.
    ticks = itertools.count()
    monkeypatch.setattr(cli, "time", SimpleNamespace(monotonic=lambda: next(ticks), strftime=time.strftime))
    written = []

    @contextlib.contextmanager
    def timed(path, writing=fileio._writing):
        with writing(path) as fh:
            yield fh
        if str(path).endswith(".csv"):
            written.append(cli.time.monotonic())

    monkeypatch.setattr(fileio, "_writing", timed)
    configs = {
        "run": write_config(tmp_path, "run.json"),
        "sweep": write_config(tmp_path, "sweep.json", sweep={"axis": "k_avg", "values": [4, 6]}),
    }
    for command, cfg in configs.items():
        written.clear()
        started = next(ticks) + 1  # the command's first reading
        assert run_cli(command, "--config", cfg, "--out", tmp_path / command) == 0
        manifest = json.loads((tmp_path / command / "manifest.json").read_text())
        assert len(written) == {"run": 2, "sweep": 3}[command]
        assert started + manifest["wall_time_s"] > max(written), command


@pytest.mark.parametrize("cpus, workers, expected, engine", [
    pytest.param(3, 1, 1, "native", id="3-1-1"),
    pytest.param(3, 5000, 3, "native", id="3-5000-3"),
    pytest.param(8, 5000, 4, "native", id="8-5000-4"),
    pytest.param(8, 5000, 1, "python", id="python-8-5000-1"),  # Python walks hold the GIL: no pool
])
def test_manifests_name_the_workers_in_effect(tmp_path, monkeypatch, cpus, workers, expected, engine):
    # Each run has 4 cells (2 starts x 2 repetitions); a k_avg sweep runs one
    # per value and a hub_degree sweep one in all.
    monkeypatch.setattr(_native, "_cpu_count", lambda: cpus)
    if engine == "python":
        monkeypatch.setattr(_native, "LOADER", _native.Loader(cc="false", cache_dir=tmp_path / "cache"))
    configs = {
        "run": write_config(tmp_path, "run.json"),
        "sweep": write_config(tmp_path, "sweep.json", sweep={"axis": "k_avg", "values": [4, 6]}),
        "hub": write_config(tmp_path, "hub.json", sweep={"axis": "hub_degree"}),
    }
    for name, cfg in configs.items():
        command = "run" if name == "run" else "sweep"
        out, serial = tmp_path / name, tmp_path / f"{name}-serial"
        assert run_cli(command, "--config", cfg, "--out", out, "--workers", workers) == 0
        assert run_cli(command, "--config", cfg, "--out", serial, "--workers", 1) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["engine"], manifest["workers"]) == (engine, expected), name
        csvs = sorted(p.name for p in out.glob("*.csv"))
        assert csvs == sorted(p.name for p in serial.glob("*.csv")) and csvs, name
        for csv in csvs:
            assert (out / csv).read_bytes() == (serial / csv).read_bytes(), (name, csv)


def test_oversize_run_exits_2_before_any_walk(tmp_path, capsys, monkeypatch):
    # Two starts x two repetitions x two thresholds keep 8 crossings.
    flags = ["run", "--model", "er", "--n", 60, "--k", 5, "--start", "explicit:0,1", "--reps", 2]
    flags += ["--thresholds", "0.5,1.0"]
    monkeypatch.setattr(netbrain.harness, "_MAX_CROSSINGS", 8)
    assert run_cli(*flags, "--out", tmp_path / "at-bound") == 0
    monkeypatch.setattr(netbrain.harness, "_MAX_CROSSINGS", 7)
    monkeypatch.setattr(netbrain.harness, "run_discovery", lambda *a, **k: pytest.fail("a walk ran"))
    assert run_cli(*flags, "--out", tmp_path / "over") == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "8 crossings, above the bound of 7" in err[0]


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_repetitions_are_bounded_when_the_config_is_read(tmp_path, capsys, monkeypatch, command):
    # With a betweenness start, the exact check comes only after the graph and Brandes.
    monkeypatch.setattr(netbrain.harness, "generate", lambda spec: pytest.fail("a graph was built"))
    monkeypatch.setattr(netbrain.harness, "betweenness", lambda g: pytest.fail("betweenness ran"))
    sweep_block = {"sweep": {"axis": "k_avg", "values": [4, 6]}} if command == "sweep" else {}
    cfg = write_config(tmp_path, start={"kind": "betweenness_percentile", "min_percentile": 0.9},
                       repetitions_per_start=10**9, **sweep_block)
    assert run_cli(command, "--config", cfg, "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: 1,000,000,000 cells of 2 thresholds")
    assert "2,000,000,000 crossings, above the bound of 10,000,000" in err[0]


def test_a_stall_under_a_cap_on_a_connected_graph_names_the_cap(tmp_path, capsys, monkeypatch):
    # No walk of at most 40 steps from node 12 reaches the last node of this
    # connected graph; the message must blame the cap, not connectivity.
    cfg = write_config(
        tmp_path,
        generator={"model": "ws", "n": 150, "k_avg": 4.0, "p_rewire": 0.1, "seed": 2},
        policies=["extended"],
        start={"kind": "betweenness_percentile", "min_percentile": 0.9},
        repetitions_per_start=3,
        step_cap=40,
    )
    errors = []
    for engine in ("native", "python"):
        if engine == "python":
            monkeypatch.setattr(_native, "LOADER", _native.Loader(cc="false", cache_dir=tmp_path))
        assert run_cli("run", "--config", cfg, "--out", tmp_path / engine) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] == (
        "error: no progress in 1500 consecutive walks (policy=extended, brain=12, known=149/150); "
        "the graph is connected, so the step cap of 40 keeps the rest out of reach\n"
    )


# --- bad values -------------------------------------------------------------------

ER_FLAGS = ["run", "--model", "er", "--n", 60, "--k", 5, "--reps", 1]


@pytest.mark.parametrize(
    "args, named",
    [
        (ER_FLAGS + ["--start", "stride:abc"], "--start"),
        (ER_FLAGS + ["--policies", "bogus"], "unknown policy 'bogus'"),
        (ER_FLAGS + ["--thresholds", "0.5,x"], "--thresholds"),
        (ER_FLAGS + ["--thresholds", ""], "--thresholds"),
        (
            ER_FLAGS + ["--policies", "standard,walkabout"],
            "unknown policy 'walkabout'; expected one of standard, extended, look_ahead",
        ),
        (ER_FLAGS + ["--step-cap", 0], "step_cap"),
        (["generate", "cm", "--degrees-file", "{tmp}/degrees.txt"], "degrees.txt"),
        (["generate", "cm", "--degrees-file", "{tmp}/degrees-underscore.txt"], "degrees-underscore.txt"),
        (["generate", "cm", "--degrees-file", "{tmp}/degrees-plus.txt"], "degrees-plus.txt"),
        (["generate", "cm", "--degrees-file", "{tmp}/degrees-arabic.txt"], "degrees-arabic.txt"),
        (["ingest", "{tmp}/latin1.txt"], "latin1.txt"),
        (["ingest", "{tmp}"], "{tmp}"),
        (["run", "--config", "{tmp}/cfg.json"], "generator.n"),
        (["run", "--config", "{tmp}/policies-int.json"], "policies"),
        (["run", "--config", "{tmp}/policies-str.json"], "policies"),
        (["run", "--config", "{tmp}/start-kind-list.json"], "start.kind"),
        (["run", "--config", "{tmp}/edge-list-int.json"], "edge_list"),
        (ER_FLAGS + ["--edge-list", "{tmp}/p3.txt"], "--edge-list"),
        (["run", "--config", "{tmp}/stride0.json"], "stride"),
        (["run", "--model", "er", "--n", 60, "--k", 5, "--reps", 0], "repetitions_per_start"),
        (ER_FLAGS + ["--start", "percentile:1.5"], "min_percentile"),
        (["sweep", "--config", "{tmp}/sweep-values.json"], "sweep.values"),
        (["run", "--config", "{tmp}/ok.json", "--reps", 0], "--reps"),
        (["run", "--config", "{tmp}/ok.json", "--policies", "look_ahead"], "--policies"),
        (["run", "--config", "{tmp}/ok.json", "--model", "er"], "--model"),
        (ER_FLAGS + ["--workers", 0], "workers"),
        (["sweep", "--config", "{tmp}/sweep-ok.json", "--workers", -3], "workers"),
        (["sweep", "--config", "{tmp}/hub-values.json"], "hub_degree"),
        (["generate", "waxman", "--n", 50, "--k", 4, "--seed", -1], "seed must be >= 0"),
        (["run", "--model", "waxman", "--n", 50, "--k", 4, "--seed", -1], "seed must be >= 0"),
        (["generate", "er", "--n", 50, "--k", 4, "--seed", -7], "seed must be >= 0"),
        (["run", "--config", "{tmp}/target.json"], "target_fraction must be in (0, 1]"),
        (["run", "--config", "{tmp}/beyond-target.json"], "beyond target_fraction"),
        (ER_FLAGS + ["--master-seed", -1], "master_seed must be an integer in [0, 2**64), got -1"),
        (["run", "--config", "{tmp}/master-seed.json"], f"master_seed must be an integer in [0, 2**64), got {2**64 + 5}"),
        (ER_FLAGS + ["--policies", "standard,standard"], "policies must be distinct, got standard, standard"),
        (["run", "--config", "{tmp}/policies-repeated.json"], "policies must be distinct, got extended, extended"),
    ],
    ids=[
        "start", "policies", "thresholds", "thresholds-empty", "policies-list", "step-cap", "degrees-file",
        "degrees-underscore", "degrees-plus", "degrees-arabic", "non-utf8", "directory",
        "config-type", "policies-int", "policies-str", "start-kind-list", "edge-list-int",
        "edge-list-and-model", "stride-0", "reps-0", "percentile", "sweep-values",
        "config-and-reps", "config-and-policies", "config-and-model", "workers-0", "workers-negative",
        "hub-degree-values", "waxman-seed", "run-waxman-seed", "er-seed", "target-fraction",
        "grid-beyond-target", "master-seed-negative", "master-seed-wide", "policies-repeated",
        "config-policies-repeated",
    ],
)
def test_bad_values_exit_2_with_one_error_line(tmp_path, capsys, monkeypatch, args, named):
    # Every check that needs no graph runs before a graph is built.
    monkeypatch.setattr(netbrain.harness, "generate", lambda spec: pytest.fail("a graph was built"))
    (tmp_path / "degrees.txt").write_text("3\n3\nx\n")
    # Tokens that int() reads, as 10, 1 and 3, but that are not ASCII digits.
    for name, token in (("underscore", "1_0"), ("plus", "+1"), ("arabic", "\u0663")):
        (tmp_path / f"degrees-{name}.txt").write_text(f"3\n{token}\n2\n", encoding="utf-8")
    (tmp_path / "latin1.txt").write_bytes("0 1\n# caf\u00e9\n".encode("latin-1"))
    (tmp_path / "p3.txt").write_text("0 1\n1 2\n")
    write_config(tmp_path, generator={"model": "er", "n": "80", "k_avg": 5.0, "seed": 3})
    write_config(tmp_path, "policies-int.json", policies=5)
    write_config(tmp_path, "policies-str.json", policies="standard")
    write_config(tmp_path, "start-kind-list.json", start={"kind": ["x"]})
    write_config(tmp_path, "edge-list-int.json", edge_list=5)
    write_config(tmp_path, "stride0.json", start={"kind": "degree_stride", "stride": 0})
    write_config(tmp_path, "sweep-values.json", sweep={"axis": "k_avg", "values": 5})
    write_config(tmp_path, "ok.json")
    write_config(tmp_path, "sweep-ok.json", sweep={"axis": "k_avg", "values": [4, 6]})
    write_config(tmp_path, "hub-values.json", sweep={"axis": "hub_degree", "values": [999, 12345]})
    write_config(tmp_path, "target.json", target_fraction=1.5)
    write_config(tmp_path, "beyond-target.json", target_fraction=0.6)
    write_config(tmp_path, "master-seed.json", master_seed=2**64 + 5)
    write_config(tmp_path, "policies-repeated.json", policies=["extended", "extended"])
    args = [str(a).format(tmp=tmp_path) for a in args] + ["--out", tmp_path / "out"]
    assert run_cli(*args) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert named.format(tmp=tmp_path) in err[0]


@pytest.mark.parametrize(
    "args, named",
    [
        (ER_FLAGS + ["--n", "x"], "argument --n: invalid int value: 'x'"),
        (ER_FLAGS + ["--master-seed", "1.5"], "argument --master-seed: invalid int value: '1.5'"),
        (["run", "--model", "grid", "--n", 60, "--k", 5], "argument --model: invalid choice: 'grid'"),
        (["generate", "er", "--n", 60, "--k", 5, "--bogus", 1], "unrecognized arguments: --bogus 1"),
        (["sweep"], "the following arguments are required: --config"),
        ([], "the following arguments are required: command"),
    ],
    ids=["int-flag", "master-seed-float", "choice", "unknown-flag", "missing-flag", "no-command"],
)
def test_flags_argparse_refuses_exit_2_with_one_error_line(tmp_path, capsys, args, named):
    with pytest.raises(SystemExit) as exc:
        run_cli(*args, "--out", tmp_path / "out") if args else run_cli()
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and named in err[0]


@pytest.mark.parametrize("workers", [1, 2])
def test_interrupt_is_one_error_line_and_exit_130(tmp_path, capsys, monkeypatch, workers):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_stream", interrupted)
    assert run_cli(*ER_FLAGS, "--workers", workers, "--out", tmp_path / "out") == 130
    assert capsys.readouterr().err == "error: interrupted\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("workers", [1, 2])
def test_interrupt_between_cells_leaves_no_curves_file(tmp_path, capsys, monkeypatch, workers):
    # The curves are written as the cells finish, under a temporary name that
    # is renamed only after the last cell.
    run_cell = netbrain.harness._run_cell
    ran = itertools.count()

    def interrupted(*args):
        if next(ran) == 5:
            raise KeyboardInterrupt
        return run_cell(*args)

    monkeypatch.setattr(netbrain.harness, "_run_cell", interrupted)
    flags = ["run", "--model", "er", "--n", 60, "--k", 5, "--start", "hubs:4", "--reps", 5]
    assert run_cli(*flags, "--workers", workers, "--out", tmp_path / "out") == 130
    assert capsys.readouterr().err == "error: interrupted\n"
    assert list((tmp_path / "out").iterdir()) == []


def test_run_outputs_equal_aggregate_of_the_curves(tmp_path):
    # `aggregate` and `netbrain run` share one summing path, so this checks
    # only the CLI's wiring: the files, cells and totals it writes from the
    # curves that the library returns. test_harness.py checks the sums.
    cfg_path = write_config(tmp_path, policies=["look_ahead", "standard"], thresholds=[0.25, 0.5, 1.0],
                            start={"kind": "top_hubs", "count": 3}, repetitions_per_start=4)
    assert run_cli("run", "--config", cfg_path, "--out", tmp_path / "run") == 0
    curves = netbrain.run_experiment(netbrain.load_config(cfg_path)[0])
    aggregates = netbrain.aggregate(curves)
    netbrain.write_aggregate_csv(aggregates, tmp_path / "aggregate.csv")
    netbrain.write_curves_csv(curves, tmp_path / "curves.csv")
    for name in ("aggregate.csv", "curves.csv"):
        assert (tmp_path / "run" / name).read_bytes() == (tmp_path / name).read_bytes(), name
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["cells"] == len(curves) == 24
    assert manifest["totals"] == {name: sum(getattr(c, name) for c in curves) for name in manifest["totals"]}


def _peak_traced_bytes(tmp_path, reps):
    """The peak of the memory Python allocated during one `netbrain run`."""
    flags = ["run", "--model", "er", "--n", 30, "--k", 4, "--seed", 1, "--start", "hubs:5", "--reps", reps]
    tracemalloc.start()
    try:
        assert run_cli(*flags, "--out", tmp_path / f"reps-{reps}") == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_run_memory_stays_flat_as_cells_grow(tmp_path):
    # 500 and 2,000 cells of 100 thresholds. A run that kept every curve and
    # then sorted every row grew by 52.8 MB between the two (measured once);
    # one that consumes each cell as it finishes may grow by a tenth of that.
    _peak_traced_bytes(tmp_path, 1)  # imports and caches
    small, large = (_peak_traced_bytes(tmp_path, reps) for reps in (100, 400))
    assert large - small < 52_800_000 // 10, (small, large)


def test_sweep_requires_sweep_block(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert run_cli("sweep", "--config", cfg, "--out", tmp_path / "sw") == 2
    assert "sweep" in capsys.readouterr().err


# --- fuzz -------------------------------------------------------------------------

HUGE = 10**400  # no float holds it
DEEP = "<200,000 nested lists>"  # spliced into the JSON text: deeper than the decoder recurses
DROP = object()  # the key or item is removed

# What a config value or list item becomes: wrong types, signs, NaN,
# infinities, huge integers, empty and nested lists, deep nesting, nothing.
CONFIG_MUTANTS = [None, True, "x", {}, [], [[[[1]]]], 0, -1, 1.5, float("nan"), float("inf"),
                  float("-inf"), HUGE, -HUGE, DEEP, DROP]
# What a flag value, or the item after its prefix ("explicit:", "0.5,"), becomes.
FLAG_MUTANTS = ["", "x", "-1", "0", "1.5", "nan", "inf", "-inf", "1e400", str(HUGE), str(-HUGE),
                "[[1]]", "True"]

START = {"kind": "explicit", "nodes": [0, 1]}
FUZZ_CONFIGS = {  # name: (command, generator or None for an edge list, start)
    "er": ("run", {"model": "er", "n": 40, "k_avg": 4.0, "seed": 1}, START),
    "ba": ("run", {"model": "ba", "n": 40, "k_avg": 4, "seed": 2},
           {"kind": "betweenness_percentile", "min_percentile": 0.9}),
    "ws": ("run", {"model": "ws", "n": 40, "k_avg": 4, "p_rewire": 0.1, "seed": 3},
           {"kind": "degree_stride", "stride": 10}),
    "waxman": ("run", {"model": "waxman", "n": 40, "k_avg": 4, "alpha": 0.5, "seed": 4},
               {"kind": "top_hubs", "count": 2}),
    "sbm": ("run", {"model": "sbm", "n": 40, "k_avg": 4, "blocks": 2, "mu": 0.02, "seed": 5}, START),
    "cm": ("run", {"model": "cm", "degree_sequence": [2, 2, 3, 3, 2, 2], "seed": 6},
           {"kind": "degree_stride", "stride": 2}),
    "edge-list": ("run", None, START),
    "sweep-n": ("sweep", {"model": "er", "n": 40, "k_avg": 4.0, "seed": 1}, START),
    "sweep-hub": ("sweep", {"model": "ba", "n": 40, "k_avg": 4, "seed": 2}, {"kind": "top_hubs", "count": 3}),
}
FUZZ_FLAGS = {
    "run": ["run", "--model", "er", "--n", "40", "--k", "4", "--seed", "1", "--policies", "standard,extended",
            "--start", "explicit:0,1", "--reps", "2", "--step-cap", "100", "--thresholds", "0.5,1.0",
            "--master-seed", "3", "--workers", "1"],
    "run-sbm": ["run", "--model", "sbm", "--n", "40", "--k", "4", "--blocks", "2", "--mu", "0.02",
                "--start", "percentile:0.9", "--reps", "1"],
    "generate-waxman": ["generate", "waxman", "--n", "40", "--k", "4", "--alpha", "0.5", "--seed", "4"],
    "generate-ws": ["generate", "ws", "--n", "40", "--k", "4", "--p-rewire", "0.1", "--seed", "3"],
}


def fuzz_config(name, tmp_path):
    """The command and valid config that `name` mutates."""
    command, generator, start = FUZZ_CONFIGS[name]
    cfg = {"policies": ["standard", "look_ahead"], "start": start, "repetitions_per_start": 2,
           "step_cap": 60, "thresholds": [0.5, 0.9], "target_fraction": 0.9, "master_seed": 7}
    if generator is None:
        (tmp_path / "ring.txt").write_text("".join(f"{v} {(v + 1) % 12}\n" for v in range(12)))
        cfg["edge_list"] = str(tmp_path / "ring.txt")
    else:
        cfg["generator"] = generator
    if name == "sweep-n":
        cfg["sweep"] = {"axis": "n", "values": [40, 50]}
    elif name == "sweep-hub":
        cfg["sweep"] = {"axis": "hub_degree"}
    return command, cfg


def value_paths(node, path=()):
    """The path of every value below `node`, through mapping keys and list indices."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from value_paths(value, path + (key,))


def value_at(node, path):
    for key in path:
        node = node[key]
    return node


def mutated(cfg, path, mutant):
    """A copy of `cfg` with the value at `path` replaced by `mutant`, or removed."""
    out = json.loads(json.dumps(cfg))
    node = value_at(out, path[:-1])
    if mutant is DROP:
        del node[path[-1]]
    else:
        node[path[-1]] = mutant
    return out


def cli_outcome(capsys, args):
    """The exit code and stderr lines of one command, or the exception it let out."""
    try:
        code = main([str(a) for a in args])
    except SystemExit as exc:  # argparse refusing a flag
        code = exc.code
    except Exception as exc:  # the fault the fuzz looks for
        code = f"{type(exc).__name__}: {exc}"[:200]
    return code, capsys.readouterr().err.splitlines()


def breaks_contract(code, err):
    """Not exit 0 without errors, nor exit 2 with one error line, first and
    last, and no traceback. Flags that argparse refuses itself take that
    form too: no usage lines."""
    errors = [line for line in err if "error:" in line or "Traceback" in line]
    if code == 0:
        return bool(errors)
    return not (code == 2 and errors == err[-1:] and err[0].startswith("error: "))


@pytest.fixture
def small_bounds(monkeypatch):
    # No mutation may build a large graph or run many cells.
    monkeypatch.setattr(netbrain.generators, "_MAX_EDGES", 1000)
    monkeypatch.setattr(netbrain.harness, "_MAX_CROSSINGS", 2000)


@pytest.mark.parametrize("name", FUZZ_CONFIGS)
def test_fuzzed_configs_exit_0_or_2_with_one_error_line(tmp_path, capsys, small_bounds, name):
    command, cfg = fuzz_config(name, tmp_path)
    args = [command, "--config", tmp_path / "cfg.json", "--out", tmp_path / "out"]
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert cli_outcome(capsys, args) == (0, [])
    paths = list(value_paths(cfg))
    cases = [[(path, m)] for path in paths for m in CONFIG_MUTANTS]
    cases += [[(path + ("unknown",), 1)] for path in [(), *paths] if isinstance(value_at(cfg, path), dict)]
    rng = random.Random(2018)  # and 60 pairs of them, drawn once
    cases += [rng.choice(cases) + rng.choice(cases) for _ in range(60)]
    broken = []
    for mutations in cases:
        d = cfg
        for path, mutant in mutations:
            try:
                d = mutated(d, path, mutant)
            except (KeyError, IndexError, TypeError):  # the other mutation removed this path
                pass
        (tmp_path / "cfg.json").write_text(json.dumps(d).replace(json.dumps(DEEP), "[" * 200_000))
        code, err = cli_outcome(capsys, args)
        if breaks_contract(code, err):
            broken.append((mutations, code, err[-1:]))
    assert not broken, broken[:5]


@pytest.mark.parametrize("name", FUZZ_FLAGS)
def test_fuzzed_flags_exit_0_or_2_with_one_error_line(tmp_path, capsys, small_bounds, name):
    base = FUZZ_FLAGS[name] + ["--out", tmp_path / ("g.txt" if name.startswith("generate") else "out")]
    assert cli_outcome(capsys, base) == (0, [])
    cases = [base + ["--bogus", "1"]]
    for i, value in enumerate(base[:-2]):
        if i < 2 or value.startswith("--"):
            continue  # the command, and a model given positionally
        prefix = value.partition(":")[0] + ":" if ":" in value else value.rpartition(",")[0] + ","
        mutants = FLAG_MUTANTS + [prefix + m for m in FLAG_MUTANTS if prefix != ","]
        cases += [base[:i] + [m] + base[i + 1:] for m in mutants]
    broken = []
    for args in cases:
        code, err = cli_outcome(capsys, args)
        if breaks_contract(code, err):
            broken.append((args, code, err[-1:]))
    assert not broken, broken[:5]
