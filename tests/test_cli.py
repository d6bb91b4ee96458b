import json

import pytest

from helpers import ALL_SPECS
from netbrain import generate, ingest_edge_list
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
    assert [tuple(map(int, line.split())) for line in lines] == generate(spec).graph.edges()


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


# --- run ----------------------------------------------------------------------


def write_config(tmp_path, **extra):
    cfg = {
        "generator": {"model": "er", "n": 80, "k_avg": 5.0, "seed": 3},
        "policies": ["standard"],
        "start": {"kind": "explicit", "nodes": [0, 1]},
        "repetitions_per_start": 2,
        "thresholds": [0.5, 1.0],
        "master_seed": 11,
    }
    cfg.update(extra)
    path = tmp_path / "cfg.json"
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
    assert manifest["cap_hits"] > 0
    assert manifest["config"]["step_cap"] == 100


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


# --- bad values -------------------------------------------------------------------

ER_FLAGS = ["run", "--model", "er", "--n", 60, "--k", 5, "--reps", 1]


@pytest.mark.parametrize(
    "args, named",
    [
        (ER_FLAGS + ["--start", "stride:abc"], "--start"),
        (ER_FLAGS + ["--policies", "bogus"], "--policies"),
        (ER_FLAGS + ["--thresholds", "0.5,x"], "--thresholds"),
        (ER_FLAGS + ["--step-cap", 0], "step_cap"),
        (["generate", "cm", "--degrees-file", "{tmp}/degrees.txt"], "degrees.txt"),
        (["ingest", "{tmp}/latin1.txt"], "latin1.txt"),
        (["ingest", "{tmp}"], "{tmp}"),
        (["run", "--config", "{tmp}/cfg.json"], "generator.n"),
    ],
    ids=[
        "start", "policies", "thresholds", "step-cap", "degrees-file", "non-utf8", "directory",
        "config-type",
    ],
)
def test_bad_values_exit_2_with_one_error_line(tmp_path, capsys, args, named):
    (tmp_path / "degrees.txt").write_text("3\n3\nx\n")
    (tmp_path / "latin1.txt").write_bytes("0 1\n# caf\u00e9\n".encode("latin-1"))
    write_config(tmp_path, generator={"model": "er", "n": "80", "k_avg": 5.0, "seed": 3})
    args = [str(a).format(tmp=tmp_path) for a in args] + ["--out", tmp_path / "out"]
    assert run_cli(*args) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert named.format(tmp=tmp_path) in err[0]


def test_sweep_requires_sweep_block(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert run_cli("sweep", "--config", cfg, "--out", tmp_path / "sw") == 2
    assert "sweep" in capsys.readouterr().err
