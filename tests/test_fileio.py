import json
import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from helpers import ALL_SPECS, edges, path_graph, wos_scale_degree_sequence
from netbrain import (
    ConfigError,
    DegreeRankedStride,
    ExperimentConfig,
    ExplicitStarts,
    GeneratorSpec,
    ParseError,
    WalkPolicy,
    aggregate,
    build_graph,
    config_from_dict,
    config_to_dict,
    generate,
    ingest_edge_list,
    largest_connected_component,
    load_config,
    run_experiment,
    save_config,
    write_aggregate_csv,
    write_curves_csv,
    write_edge_list,
)
from netbrain import _native, fileio, generators, harness, sweep
from netbrain.fileio import AGGREGATE_HEADER, CURVE_HEADER, _rank_labels
from netbrain.generators import MODELS


# --- edge-list ingest -----------------------------------------------------


def test_ingest_simple_path(tmp_path):
    f = tmp_path / "g.txt"
    f.write_text("0 1\n1 2\n")
    g, label_map, report = ingest_edge_list(f)
    assert g.degrees() == [1, 2, 1]
    assert label_map == {0: 0, 1: 1, 2: 2}
    assert report.raw_nodes == 3 and report.raw_edges == 2
    assert report.lcc_nodes == 3


def test_ingest_counts_duplicates_and_self_loops(tmp_path):
    f = tmp_path / "g.txt"
    f.write_text("0 1\n1 0\n0 0\n")
    g, _, report = ingest_edge_list(f)
    assert g.n == 2 and g.m == 1
    assert report.self_loops_dropped == 1
    assert report.duplicates_dropped == 1


def test_ingest_remaps_sparse_labels(tmp_path):
    f = tmp_path / "g.txt"
    f.write_text("# a sparse path\n5 900\n900 12\n")
    g, label_map, report = ingest_edge_list(f)
    assert g.n == 3
    assert label_map == {5: 0, 12: 1, 900: 2}
    assert g.degree(label_map[900]) == 2


def test_label_map_is_a_read_only_view_equal_to_the_dict(tmp_path):
    f = tmp_path / "g.txt"
    f.write_text("5 900\n900 12\n12 5\n40 41\n")
    _, label_map, _ = ingest_edge_list(f)
    expected = {5: 0, 12: 1, 900: 2}
    assert label_map == expected and expected == label_map and label_map != {5: 0}
    assert list(label_map.items()) == list(expected.items())
    assert list(label_map) == [5, 12, 900] and list(label_map.values()) == [0, 1, 2]
    assert 2 in label_map.values() and 3 not in label_map.values()
    assert label_map[900] == 2 and label_map.get(12.0) == 1 and 41 not in label_map
    for missing in (40, 901, -1, 2**70, 1.5, "5", None):
        assert missing not in label_map
        with pytest.raises(KeyError):
            label_map[missing]
    assert label_map.labels.tolist() == [5, 12, 900]
    with pytest.raises(ValueError):
        label_map.labels[0] = 6
    with pytest.raises(TypeError):
        label_map[7] = 3


@pytest.mark.parametrize("label", ["+1", "1_0", "\u0663", "-0", "\uff11"])
@pytest.mark.parametrize("engine", ["native", "python"])
def test_labels_must_be_ascii_digits(label, engine, tmp_path, monkeypatch):
    # `int` reads each of these labels; neither engine may.
    if engine == "python":
        monkeypatch.setattr(_native, "LOADER", _native.Loader(cc="false", cache_dir=tmp_path))
    f = tmp_path / "g.txt"
    f.write_text(f"0 1\n{label} 2\n", encoding="utf-8")
    with pytest.raises(ParseError, match=r"g\.txt:2: node labels must be non-negative integers in the digits 0-9"):
        ingest_edge_list(f)


@pytest.mark.parametrize("top", [10**6, 2**63, 1000], ids=["int64", "beyond-int64", "below-pair-count"])
def test_ingest_ranks_labels_like_a_sorted_dict(tmp_path, top):
    # Labels beyond int64 are read by the line loop and ranked as Python ints;
    # numpy, left to pick a dtype, takes float64 and merges 2**63 + 1 with 2**63.
    # Labels below the 1,202 labels of the file are ranked by a presence table.
    rng = random.Random(8)
    pool = [rng.randrange(top) for _ in range(300)] + [top, top + 1]
    pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(600)] + [(top, top + 1)]
    f = tmp_path / "g.txt"
    f.write_text("".join(f"{u} {v}\n" for u, v in pairs))
    g, label_map, report = ingest_edge_list(f)
    ranks = {label: i for i, label in enumerate(sorted({x for pair in pairs for x in pair}))}
    ranked = build_graph(len(ranks), [(ranks[u], ranks[v]) for u, v in pairs])
    expected, kept = largest_connected_component(ranked)
    lcc_map = {old: new for new, old in enumerate(kept.tolist())}
    assert g == expected
    assert label_map == {label: lcc_map[i] for label, i in ranks.items() if i in lcc_map}
    assert (report.raw_nodes, report.raw_edges) == (len(ranks), len(pairs))


@pytest.mark.parametrize("module", [generators, fileio], ids=["generate", "ingest_edge_list"])
def test_generate_and_ingest_each_call_the_lcc_once_in_their_own_module(module, tmp_path, monkeypatch):
    # perfbench/tracing.py rebinds the name in these two namespaces.
    calls = []

    def spy(g):
        calls.append(g.n)
        return largest_connected_component(g)

    monkeypatch.setattr(module, "largest_connected_component", spy)
    g = generate(GeneratorSpec(model="er", n=60, k_avg=3, seed=4)).graph
    write_edge_list(g, tmp_path / "g.txt")
    assert ingest_edge_list(tmp_path / "g.txt")[0] == g
    assert calls == [60 if module is generators else g.n]


@pytest.mark.parametrize("top", [0, 1, 7, 8, 9, 500, 2**40])
def test_rank_labels_matches_np_unique_on_both_sides_of_the_table(top, monkeypatch):
    # Four pairs hold 8 labels: a largest label of 7 or less takes the table.
    rng = np.random.default_rng(top)
    pairs = np.append(rng.integers(0, top + 1, size=7), top).reshape(4, 2)
    expected_labels, expected_ranks = np.unique(pairs, return_inverse=True)
    unique, calls = np.unique, []

    def counted_unique(*args, **kwargs):
        calls.append(args)
        return unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", counted_unique)
    labels, ranks = _rank_labels(pairs)
    assert len(calls) == (top >= pairs.size)
    assert labels.tolist() == expected_labels.tolist()
    assert ranks.tolist() == expected_ranks.reshape(-1, 2).tolist()


def test_ingest_keeps_only_lcc(tmp_path):
    f = tmp_path / "g.txt"
    f.write_text("0 1\n1 2\n7 8\n")
    g, label_map, report = ingest_edge_list(f)
    assert g.n == 3
    assert set(label_map) == {0, 1, 2}
    assert report.raw_nodes == 5 and report.lcc_nodes == 3


def test_ingest_rejects_malformed_line(tmp_path):
    f = tmp_path / "g.txt"
    f.write_text("0 1\n1 2 3\n")
    with pytest.raises(ParseError, match=":2"):
        ingest_edge_list(f)
    f.write_text("0 x\n")
    with pytest.raises(ParseError, match=":1"):
        ingest_edge_list(f)
    f.write_text("")
    with pytest.raises(ParseError, match="no edges"):
        ingest_edge_list(f)


def test_cm_round_trip_memory_is_bounded_and_its_edge_arrays_are_int32(tmp_path, monkeypatch):
    # The criterion-9 stand-in (94,850 edges) through generate(cm),
    # write_edge_list and ingest_edge_list. Measured tracemalloc peaks of the
    # three steps: 2,604, 2,830 and 2,409 KiB, where int64 stubs and ranks,
    # text copies of the lines and a dict of the labels took 3,431, 4,673
    # and 5,543 KiB. Each bound lies midway between the two, so any of those
    # copies coming back fails while numpy's temporaries may still vary.
    spec = GeneratorSpec(model="cm", degree_sequence=tuple(wos_scale_degree_sequence(11_000, 5)), seed=6)
    path = tmp_path / "edges.txt"
    write_edge_list(generate(spec).graph, path)  # imports and caches outside the measurement
    ingest_edge_list(path)
    peaks = []
    tracemalloc.start()
    try:
        g = generate(spec).graph
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        write_edge_list(g, path, header=["wos stand-in"])
        peaks.append(tracemalloc.get_traced_memory()[1])
        del g
        tracemalloc.reset_peak()
        ingest_edge_list(path)
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert all(peak < limit * 1024 for peak, limit in zip(peaks, (3018, 3752, 3976))), peaks

    seen = []

    def spy(module, name, array):
        real = getattr(module, name)

        def call(*args):
            result = real(*args)
            seen.append((name, array(args, result).dtype))
            return result

        monkeypatch.setattr(module, name, call)

    spy(_native, "shuffle", lambda args, _: args[1])  # the stubs
    spy(_native, "build_csr", lambda args, _: args[1])
    spy(fileio, "_rank_labels", lambda _, result: result[1])
    write_edge_list(generate(spec).graph, path)
    ingest_edge_list(path)
    assert seen == [("shuffle", np.int32), ("build_csr", np.int32), ("_rank_labels", np.int32), ("build_csr", np.int32)]


def test_roundtrip_preserves_degree_sequence(tmp_path):
    g = generate(GeneratorSpec(model="ba", n=300, k_avg=4, seed=5)).graph
    f = tmp_path / "g.txt"
    write_edge_list(g, f, header=["roundtrip check"])
    g2, label_map, _ = ingest_edge_list(f)
    assert g2.n == g.n and g2.m == g.m
    assert sorted(g2.degrees()) == sorted(g.degrees())
    assert edges(g2) == edges(g)  # labels were already dense and sorted
    # The bytes of one f-string line per edge, here with isolated nodes and long ids.
    rng = random.Random(6)
    sparse = build_graph(12_000, [(rng.randrange(12_000), rng.randrange(12_000)) for _ in range(5000)])
    for graph, header in ((g, ["roundtrip check"]), (sparse, [])):
        write_edge_list(graph, f, header=header)
        lines = [f"# {line}\n" for line in header]
        lines += [f"{u} {v}\n" for u in range(graph.n) for v in graph.adj[u] if u < v]
        assert f.read_bytes() == "".join(lines).encode()


# --- config files -----------------------------------------------------------


def full_config():
    return ExperimentConfig(
        generator=GeneratorSpec(model="ws", n=500, k_avg=4, seed=9, p_rewire=0.03),
        policies=(WalkPolicy.STANDARD, WalkPolicy.LOOK_AHEAD),
        start=DegreeRankedStride(stride=50),
        repetitions_per_start=3,
        step_cap=100,
        thresholds=(0.5, 0.9, 1.0),
        master_seed=1234,
    )


def test_config_roundtrip_identity(tmp_path):
    cfg = full_config()
    f = tmp_path / "cfg.json"
    save_config(cfg, f)
    cfg2, sweep_block = load_config(f)
    assert cfg2 == cfg
    assert sweep_block is None
    save_config(cfg2, f)
    cfg3, _ = load_config(f)
    assert cfg3 == cfg2
    early = replace(cfg, thresholds=(0.25, 0.5), target_fraction=0.5)
    save_config(early, f)
    assert json.loads(f.read_text())["target_fraction"] == 0.5
    assert load_config(f) == (early, None)


def test_examples_cover_every_model():
    assert sorted(s.model for s in ALL_SPECS) == sorted(MODELS)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.model)
def test_config_roundtrip_every_model(spec):
    cfg = replace(full_config(), generator=spec)
    assert config_from_dict(json.loads(json.dumps(config_to_dict(cfg)))) == (cfg, None)


# Every writer, given a text that goes into its output and a run's curves tagged with it.
WRITERS = {
    "edge_list": lambda path, text, curves: write_edge_list(path_graph(4), path, header=[text]),
    "curves": lambda path, text, curves: write_curves_csv(curves, path),
    "aggregate": lambda path, text, curves: write_aggregate_csv(aggregate(curves), path),
    "json": lambda path, text, curves: fileio.write_json(path, {"group": text}),
}


@pytest.mark.parametrize("writer", WRITERS)
def test_a_failed_write_leaves_no_file(tmp_path, monkeypatch, writer):
    # Each writer writes a temporary file beside its output and renames it once whole.
    cfg = ExperimentConfig(GeneratorSpec(model="er", n=30, k_avg=4, seed=1), ("standard",), ExplicitStarts((0,)),
                           repetitions_per_start=1, thresholds=(0.5,), target_fraction=0.5)
    write = WRITERS[writer]
    write(tmp_path / "whole.out", "x", run_experiment(cfg, group="x"))
    assert [p.name for p in tmp_path.iterdir()] == ["whole.out"]
    if writer != "json":  # which escapes it: a lone surrogate, which UTF-8 refuses
        with pytest.raises(UnicodeEncodeError):
            write(tmp_path / "out", "\udc80", run_experiment(cfg, group="\udc80"))
        assert [p.name for p in tmp_path.iterdir()] == ["whole.out"]

    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(fileio.os, "replace", interrupted)
    with pytest.raises(KeyboardInterrupt):
        write(tmp_path / "out", "x", run_experiment(cfg, group="x"))
    assert [p.name for p in tmp_path.iterdir()] == ["whole.out"]


def base_config_dict():
    return {
        "generator": {"model": "er", "n": 80, "k_avg": 5.0, "seed": 3},
        "policies": ["standard"],
        "start": {"kind": "explicit", "nodes": [0, 1]},
    }


@pytest.mark.parametrize(
    "key, value",
    [
        ("repetitions_per_start", 2.9),
        ("repetitions_per_start", "2"),
        ("master_seed", True),
        ("step_cap", 10.0),
        ("target_fraction", "1"),
        ("target_fraction", False),
        ("thresholds", ["0.5", 1.0]),
        ("generator.n", 80.7),
        ("generator.n", "80"),
        ("generator.seed", True),
        ("generator.k_avg", "5"),
        ("generator.k_avg", True),
        ("start.nodes", [0, 1.5]),
        ("policies", 5),
        ("policies", "standard"),
        ("start.kind", ["x"]),
        ("edge_list", 5),
        ("sweep.values", 5),
        ("sweep.values", []),
        ("sweep.values", ["4"]),
        ("sweep.axis", 5),
    ],
)
def test_config_types_are_strict(key, value):
    d = base_config_dict()
    if key == "edge_list":
        del d["generator"]
    if key.startswith("sweep."):
        d["sweep"] = {"axis": "k_avg", "values": [4]}
    *blocks, name = key.split(".")
    block = d[blocks[0]] if blocks else d
    block[name] = value
    with pytest.raises(ConfigError, match=key):
        config_from_dict(d)



def test_config_float_fields_accept_integers():
    d = base_config_dict()
    d["generator"]["k_avg"] = 5
    d["target_fraction"] = 1
    d["thresholds"] = [1]
    cfg, _ = config_from_dict(d)
    assert cfg.generator.k_avg == 5 and cfg.target_fraction == 1.0 and cfg.thresholds == (1.0,)


def test_cm_degree_sequence_must_be_integers():
    d = base_config_dict()
    d["generator"] = {"model": "cm", "degree_sequence": [2, 2, 2.0], "seed": 1}
    with pytest.raises(ConfigError, match="degree_sequence"):
        config_from_dict(d)


def test_config_unknown_keys_rejected():
    d = config_to_dict(full_config())
    d["typo_key"] = 1
    with pytest.raises(ConfigError, match="typo_key"):
        config_from_dict(d)


def test_config_unknown_generator_key_rejected():
    d = config_to_dict(full_config())
    d["generator"]["alpha"] = 0.5  # not a ws parameter
    with pytest.raises(ConfigError, match="alpha"):
        config_from_dict(d)


def test_config_unknown_start_key_rejected():
    d = config_to_dict(full_config())
    d["start"]["count"] = 3
    with pytest.raises(ConfigError, match="count"):
        config_from_dict(d)


def test_config_requires_exactly_one_graph_source():
    d = config_to_dict(full_config())
    d["edge_list"] = "x.txt"
    with pytest.raises(ConfigError, match="exactly one"):
        config_from_dict(d)
    del d["generator"]
    del d["edge_list"]
    with pytest.raises(ConfigError, match="exactly one"):
        config_from_dict(d)


def test_config_edge_list_source(tmp_path):
    cfg, _ = config_from_dict(
        {
            "edge_list": "net.txt",
            "policies": ["extended"],
            "start": {"kind": "top_hubs", "count": 4},
        }
    )
    assert cfg.generator == "net.txt"
    assert cfg.start.count == 4


def test_config_default_thresholds_omitted_in_serialization():
    cfg, _ = config_from_dict(
        {
            "generator": {"model": "er", "n": 100, "k_avg": 5.0, "seed": 1},
            "policies": ["standard"],
            "start": {"kind": "explicit", "nodes": [0]},
        }
    )
    assert len(cfg.thresholds) == 100
    d = config_to_dict(cfg)
    assert "thresholds" not in d


def test_config_sweep_block_roundtrip(tmp_path):
    cfg = full_config()
    block = {"axis": "p_rewire", "values": [0.01, 0.1, 1.0]}
    f = tmp_path / "cfg.json"
    save_config(cfg, f, sweep_block=block)
    cfg2, block2 = load_config(f)
    assert cfg2 == cfg
    assert block2 == block


WS = GeneratorSpec(model="ws", n=100, k_avg=4, seed=1)


@pytest.mark.parametrize(
    "generator, axis, values",
    [
        (WS, "voltage", [1, 2]),
        (GeneratorSpec(model="er", n=120, k_avg=6, seed=5), "p_rewire", [0.01, 0.5]),
        (WS, "k_avg", [4, 4.0, 6]),
        (WS, "p_rewire", [0.1, 2.0]),
        (WS, "model", ["er", "nope"]),
        (WS, "n", [100, 10**400]),
        (WS, "hub_degree", [999, 12345]),
        ("net.txt", "k_avg", [4, 6]),
    ],
    ids=["axis", "ignored-axis", "repeated", "value", "model", "huge-n", "hub_degree", "edge-list"],
)
def test_load_config_refuses_a_sweep_exactly_as_sweep_does(tmp_path, monkeypatch, generator, axis, values):
    monkeypatch.setattr(harness, "run_experiment", lambda *a, **k: pytest.fail("an experiment ran"))
    cfg = replace(full_config(), generator=generator)
    with pytest.raises(ConfigError) as by_sweep:
        sweep(cfg, axis, values)
    f = tmp_path / "cfg.json"
    save_config(cfg, f, sweep_block={"axis": axis, "values": values})
    with pytest.raises(ConfigError) as by_load:
        load_config(f)
    assert str(by_load.value) == str(by_sweep.value)


def test_load_config_takes_a_hub_degree_sweep_as_sweep_does(tmp_path):
    for block in ({"axis": "hub_degree"}, {"axis": "hub_degree", "values": None}):
        save_config(full_config(), tmp_path / "cfg.json", sweep_block=block)
        assert load_config(tmp_path / "cfg.json") == (full_config(), block)


@pytest.mark.parametrize(
    "text", ["[" * 200_000, '{"master_seed": ' + "7" * 5000 + "}"], ids=["nested", "digits"]
)
def test_load_config_names_the_file_it_cannot_decode(tmp_path, text):
    # Too deep for the decoder's recursion, or more digits than int() takes.
    f = tmp_path / "cfg.json"
    f.write_text(text)
    with pytest.raises(ParseError, match=f"{f}: invalid JSON"):
        load_config(f)


def test_config_rejects_bad_policy():
    with pytest.raises(ConfigError, match="polic"):
        config_from_dict(
            {
                "generator": {"model": "er", "n": 100, "k_avg": 5.0, "seed": 1},
                "policies": ["sideways"],
                "start": {"kind": "explicit", "nodes": [0]},
            }
        )


# --- CSV output -----------------------------------------------------------------


def run_small():
    cfg = ExperimentConfig(
        generator=GeneratorSpec(model="er", n=60, k_avg=5, seed=2),
        policies=(WalkPolicy.STANDARD, WalkPolicy.EXTENDED),
        start=ExplicitStarts(nodes=(0, 1)),
        repetitions_per_start=2,
        thresholds=(0.5, 1.0),
        master_seed=7,
    )
    return run_experiment(cfg)


def test_curve_csv_layout_and_order(tmp_path):
    curves = run_small()
    f = tmp_path / "curves.csv"
    write_curves_csv(curves, f)
    lines = f.read_text().splitlines()
    assert lines[0] == CURVE_HEADER
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == len(curves) * 2  # two thresholds per curve
    keys = [(r[0], r[1], int(r[2]), int(r[4]), r[5]) for r in rows]
    assert keys == sorted(keys)
    for r in rows:
        assert r[5] in ("0.5000", "1.0000")
        int(r[6])  # steps parse as integers


def test_curve_rows_with_equal_keys_keep_their_order(tmp_path):
    # Two curves with the same group, policy, start and repetition but other
    # steps and start degrees: a stable sort on the key keeps them in input
    # order, where sorting whole rows would order them by their later columns.
    first, second = run_small()[:2]
    twin = replace(second, group=first.group, policy=first.policy, start=first.start,
                   start_degree=first.start_degree + 100, repetition=first.repetition)
    assert twin.curve.crossings != first.curve.crossings
    for curves in ([first, twin], [twin, first]):
        rows = [
            (c.group, c.policy.value, c.start, c.repetition, threshold, c.start_degree, steps)
            for c in curves for threshold, steps in c.curve.crossings
        ]
        rows.sort(key=lambda r: r[:5])
        expected = "".join(f"{g},{p},{s},{d},{r},{t:.4f},{steps}\n" for g, p, s, r, t, d, steps in rows)
        f = tmp_path / "curves.csv"
        write_curves_csv(curves, f)
        assert f.read_text() == CURVE_HEADER + "\n" + expected
        degrees = [line.split(",")[3] for line in f.read_text().splitlines()[1:3]]
        assert degrees == [str(curves[0].start_degree), str(curves[1].start_degree)]


def _rows_sorted_whole(curves):
    """The curves CSV as a writer that sorts every row on its key, stably, would write it."""
    rows = [
        ((c.group, c.policy.value, c.start, c.repetition, threshold),
         f"{c.group},{c.policy.value},{c.start},{c.start_degree},{c.repetition},{threshold:.4f},{steps}\n")
        for c in curves for threshold, steps in c.curve.crossings
    ]
    rows.sort(key=lambda row: row[0])
    return CURVE_HEADER + "\n" + "".join(line for _, line in rows)


def test_curves_csv_equals_a_stable_sort_of_every_row(tmp_path):
    # Two groups, two threshold grids, curves that share a key (twins with
    # other steps and degrees, and exact duplicates), in seeded shuffles.
    curves = [replace(c, group="b") for c in run_small()]
    coarse = ExperimentConfig(
        generator=GeneratorSpec(model="er", n=60, k_avg=5, seed=2),
        policies=(WalkPolicy.LOOK_AHEAD, WalkPolicy.STANDARD),
        start=ExplicitStarts(nodes=(3, 0)),
        repetitions_per_start=2,
        thresholds=(0.25, 0.5, 0.75),
        target_fraction=0.75,
        master_seed=8,
    )
    curves += [replace(c, group="a") for c in run_experiment(coarse)]
    curves += [replace(c, start_degree=c.start_degree + 7, repetition=0) for c in curves[::3]]
    curves += curves[:4]
    rng = random.Random(25)
    f = tmp_path / "curves.csv"
    for _ in range(20):
        rng.shuffle(curves)
        write_curves_csv(curves, f)
        assert f.read_text() == _rows_sorted_whole(curves)


def test_aggregate_csv_layout(tmp_path):
    curves = run_small()
    f = tmp_path / "agg.csv"
    write_aggregate_csv(aggregate(curves), f)
    lines = f.read_text().splitlines()
    assert lines[0] == AGGREGATE_HEADER
    assert len(lines) == 1 + 2 * 2  # two policies x two thresholds
    for line in lines[1:]:
        group, policy, threshold, mean, sd, n = line.split(",")
        assert policy in ("standard", "extended")
        float(mean), float(sd)
        assert n == "4"


def test_csv_output_is_byte_stable(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_curves_csv(run_small(), a)
    write_curves_csv(run_small(), b)
    assert a.read_bytes() == b.read_bytes()


def test_ingested_graph_feeds_experiment(tmp_path):
    g = generate(GeneratorSpec(model="er", n=80, k_avg=5, seed=3)).graph
    f = tmp_path / "net.txt"
    write_edge_list(g, f)
    cfg = ExperimentConfig(
        generator=str(f),
        policies=(WalkPolicy.STANDARD,),
        start=ExplicitStarts(nodes=(0,)),
        repetitions_per_start=1,
        thresholds=(1.0,),
        master_seed=1,
    )
    curves = run_experiment(cfg)
    assert len(curves) == 1
    assert curves[0].curve.steps_at(1.0) > 0
