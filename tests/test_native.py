"""The native kernels against the Python code they replace.

`run_discovery` runs the kernel for a plain `random.Random` and the Python
engine (`_Walker`) for any subclass, so a subclass run is the reference.
`betweenness` runs the kernel whenever it loads; `_betweenness_python` is
its reference. The set-up kernels are compared with `random.shuffle`, with
the ingest line loop and with the numpy build, labels and edge lines, which
run when the library does not load. The kernels must build and load here:
these tests do not skip.
"""

import ctypes
import inspect
import itertools
import json
import os
import pickle
import random
import subprocess
import sys
import threading

import numpy as np
import pytest

from helpers import (
    CRITERION_8_CONFIG,
    bfs_components,
    brute_force_betweenness,
    connected_graphs_up_to_iso,
    cycle_graph,
    edges,
    path_graph,
    set_build_graph_reported,
    star_graph,
    trap_graph,
    wos_scale_degree_sequence,
)
from netbrain import (
    BetweennessPercentile,
    ConfigError,
    DiscoveryStallError,
    GeneratorSpec,
    ParseError,
    WalkPolicy,
    betweenness,
    build_graph,
    degree_ranked_nodes,
    generate,
    ingest_edge_list,
    largest_connected_component,
    run_discovery,
    select_starts,
    write_edge_list,
)
from netbrain import _native, dynamics, fileio, graph
from netbrain.cli import main as cli_main
from netbrain.generators import gen_cm

POLICIES = list(WalkPolicy)
CAPS = (None, 1, 7, 50)
TARGETS = (1.0, 0.6)
SEEDS = (0, 1)


class Reference(random.Random):
    """The Python engine's generator: the same stream, counted draws."""

    draws = 0

    def random(self):
        self.draws += 1
        return super().random()


GRAPHS = {
    "er": generate(GeneratorSpec(model="er", n=60, k_avg=4, seed=1)).graph,
    # Picks at a hub of a hundred nodes also test the low bits of each draw.
    "ba": generate(GeneratorSpec(model="ba", n=1000, k_avg=4, seed=2)).graph,
    "ws": generate(GeneratorSpec(model="ws", n=60, k_avg=4, seed=3, p_rewire=0.1)).graph,
    "star": star_graph(9),
    "c5": cycle_graph(5),
    "one-node": build_graph(1, []),
    "trap": trap_graph(30),
    # Most neighbours blocked or primed by the time a walk scans them.
    "dense": generate(GeneratorSpec(model="er", n=40, k_avg=30, seed=4)).graph,
    # The criterion-9 recipe at n = 2,000: hubs of several hundred neighbours.
    "cm": largest_connected_component(gen_cm(wos_scale_degree_sequence(2000, seed=5), seed=6))[0],
}
# Under any cap most walks from the CM graph's top hubs (degree 730) end at
# the hub, and a case that stalls there spends about a second of the Python
# engine on its 10 n idle walks (27 s for every cap): it runs uncapped only.
GRAPH_CAPS = {"cm": (None,)}


def discover(g, brain, policy, rng, **kwargs):
    """The curve and brain state of a discovery, or its stall message, and the rng end state."""
    try:
        outcome = run_discovery(g, brain, policy, rng, **kwargs)
    except DiscoveryStallError as exc:
        outcome = str(exc)
    return outcome, rng.getstate()


def test_kernel_builds_and_loads():
    for name in _native._ENTRY_POINTS:
        assert _native.LOADER.kernel(name) is not None


def test_kernel_arguments_convert_in_c():
    # numpy's ndpointer converts in Python, and ctypes wraps an interrupt that
    # lands there as an ArgumentError, which escapes the CLI's handler.
    for name in _native._ENTRY_POINTS:
        fn = _native.LOADER.kernel(name).args[0]
        assert all(inspect.isbuiltin(t.from_param) for t in fn.argtypes), name


def test_kernel_arrays_are_checked_before_the_call():
    g = cycle_graph(6)
    components = _native.LOADER.kernel("netbrain_components")
    labels = np.empty(g.n, dtype=np.int32)
    components(g.indptr, g.indices, g.n, labels, np.empty(g.n, dtype=np.int32))
    assert labels.tolist() == [0] * 6
    for bad in (labels.astype(np.int64), np.empty(2 * g.n, dtype=np.int32)[::2], labels.tolist()):
        with pytest.raises(TypeError, match="netbrain_components takes a C-contiguous int32 array"):
            components(g.indptr, g.indices, g.n, bad, np.empty(g.n, dtype=np.int32))


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
@pytest.mark.parametrize("name", GRAPHS)
def test_kernel_matches_python_engine(name, policy):
    assert _native.LOADER.kernel("netbrain_discover") is not None
    g = GRAPHS[name]
    for cap, target, seed in itertools.product(GRAPH_CAPS.get(name, CAPS), TARGETS, SEEDS):
        brain = degree_ranked_nodes(g)[seed % g.n]  # the top hubs
        kwargs = dict(step_cap=cap, target_fraction=target)
        reference = Reference(seed)
        expected = discover(g, brain, policy, reference, **kwargs)
        got = discover(g, brain, policy, random.Random(seed), **kwargs)
        assert got == expected, (cap, target, seed)
        if not isinstance(expected[0], str):
            _, state = expected[0]
            assert state.moves == reference.draws  # one draw per move
            if policy is WalkPolicy.STANDARD:
                assert state.cumulative_steps == state.moves


def test_policy_name_runs_its_policy_under_both_engines():
    # "standard" == WalkPolicy.STANDARD, so both engines must read a name as its member.
    for g, policy in itertools.product((star_graph(6), GRAPHS["er"]), POLICIES):
        expected = discover(g, 0, policy, Reference(3))
        for rng in (Reference(3), random.Random(3)):
            assert discover(g, 0, policy.value, rng) == expected, policy


@pytest.mark.parametrize("engine", [Reference, random.Random], ids=["python", "native"])
def test_unknown_policy_is_a_config_error_under_both_engines(engine):
    with pytest.raises(ConfigError, match="unknown policy 'bogus'"):
        run_discovery(GRAPHS["c5"], 0, "bogus", engine(0))


def test_kernel_resumes_after_idle_walks_on_a_connected_graph():
    # Without a cap, 10 * n idle walks on a connected graph are not a stall:
    # the kernel hands back, Python checks connectivity, and the kernel goes on.
    g = GRAPHS["trap"]
    walks = []
    for seed in range(4):
        expected = discover(g, 0, WalkPolicy.EXTENDED, Reference(seed))
        got = discover(g, 0, WalkPolicy.EXTENDED, random.Random(seed))
        assert got == expected
        walks.append(got[0][1].walk_count)
    assert max(walks) > 10 * g.n


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
def test_capped_disconnected_input_stalls_under_both_engines(policy):
    g = build_graph(8, [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (6, 7)])
    messages = []
    for rng in (Reference(5), random.Random(5)):
        with pytest.raises(DiscoveryStallError, match="no progress") as exc:
            run_discovery(g, 0, policy, rng, step_cap=7)
        messages.append((str(exc.value), rng.getstate()))
    assert messages[0] == messages[1]
    assert messages[0][0].endswith("known=4/8); is the graph connected?")


@pytest.mark.parametrize("engine", [Reference, random.Random], ids=["python", "native"])
def test_capped_stall_on_a_connected_graph_names_the_cap(engine):
    # A degree-sum cap below the brain's degree ends every extended walk
    # after one move, so the chain behind node 1 stays out of reach.
    g = build_graph(13, [(0, i) for i in range(1, 11)] + [(1, 11), (11, 12)])
    with pytest.raises(DiscoveryStallError) as exc:
        run_discovery(g, 0, WalkPolicy.EXTENDED, engine(3), step_cap=5)
    assert str(exc.value) == (
        "no progress in 130 consecutive walks (policy=extended, brain=0, known=11/13); "
        "the graph is connected, so the step cap of 5 keeps the rest out of reach"
    )


@pytest.mark.parametrize("cap", [2**62, 2**63, 2**64 + 3], ids=["2^62", "2^63", "2^64+3"])
@pytest.mark.parametrize("engine", [Reference, random.Random], ids=["python", "native"])
def test_caps_no_walk_reaches_run_as_no_cap(engine, cap):
    # The kernel's cap is an int64, which would keep only the low 64 bits of
    # these; on the trap graph the run also outlasts the idle-walk check.
    for name, policy in itertools.product(("er", "trap"), POLICIES):
        g = GRAPHS[name]
        expected = discover(g, 0, policy, engine(4))
        assert discover(g, 0, policy, engine(4), step_cap=cap) == expected, (name, policy)


def test_kernel_matches_python_engine_on_every_small_graph():
    # The exhaustive oracle's graphs (criterion 7) from every brain, so the
    # kernel meets every trajectory shape that the Python engine is checked on.
    graphs = [g for n in range(1, 7) for g in connected_graphs_up_to_iso(n)]
    runs = 0
    for gi, g in enumerate(graphs):
        for brain, policy, cap in itertools.product(range(g.n), POLICIES, (None, 1, 2, 3)):
            seed = 6 * gi + brain
            expected = discover(g, brain, policy, Reference(seed), step_cap=cap)
            got = discover(g, brain, policy, random.Random(seed), step_cap=cap)
            assert got == expected, (gi, brain, policy, cap)
            runs += 1
    assert (len(graphs), runs) == (143, 9720)


def test_csr_view_keeps_graph_equality_and_pickles():
    g = GRAPHS["ws"]
    assert g.indptr.tolist() == [0, *itertools.accumulate(len(a) for a in g.adj)]
    assert g.indices.tolist() == [w for a in g.adj for w in a]
    assert g.adj is g.adj  # built once
    data = pickle.dumps(g)
    copy = pickle.loads(data)
    assert copy == g and hash(copy) == hash(g)
    assert "adj" not in vars(copy)  # the tuples stay out of the pickle
    assert len(data) < 4 * (g.n + 1 + 2 * g.m) + 500  # n and the arrays, nothing more
    for a in (copy.indptr, copy.indices):
        assert a.dtype == np.int32 and not a.flags.writeable


# --- betweenness -----------------------------------------------------------------


def grid_graph(rows: int, cols: int):
    return build_graph(rows * cols, [
        (r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)
    ] + [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)])


def complete_bipartite_graph(a: int, b: int):
    return build_graph(a + b, [(u, a + v) for u in range(a) for v in range(b)])


def hypercube_graph(d: int):
    return build_graph(2**d, [(v, v ^ (1 << i)) for v in range(2**d) for i in range(d) if v < v ^ (1 << i)])


def diamond_chain(k: int):
    """k diamonds in a row: 2**k shortest paths between the two ends."""
    edges = []
    for i in range(k):
        a, top, bottom, b = 3 * i, 3 * i + 1, 3 * i + 2, 3 * i + 3
        edges += [(a, top), (a, bottom), (top, b), (bottom, b)]
    return build_graph(3 * k + 1, edges)


# Graphs with many shortest paths of equal length, where every node has
# several predecessors and the order of the additions into `delta` shows.
BETWEENNESS_GRAPHS = {
    "er": generate(GeneratorSpec(model="er", n=300, k_avg=6, seed=4)).graph,
    "ba": generate(GeneratorSpec(model="ba", n=400, k_avg=4, seed=5)).graph,
    "ws": generate(GeneratorSpec(model="ws", n=300, k_avg=6, seed=6, p_rewire=0.1)).graph,
    "waxman": generate(GeneratorSpec(model="waxman", n=300, k_avg=6, seed=7)).graph,
    "blocks": generate(GeneratorSpec(model="ba", n=700, k_avg=4, seed=10)).graph,
    "star": star_graph(9),
    "path": path_graph(7),
    "c5": cycle_graph(5),
    "disconnected": build_graph(9, [(0, 1), (1, 2), (2, 0), (2, 3), (4, 5), (5, 6), (6, 4)]),
    "one-node": build_graph(1, []),
    "empty": build_graph(0, []),
    "grid": grid_graph(9, 13),
    "k3-50": complete_bipartite_graph(3, 50),
    "q6": hypercube_graph(6),
    # Components of several sizes and isolated nodes: each source leaves most
    # nodes unreached, and they must score +0.0, not -0.0.
    "unreached": build_graph(40, [(i, i + 1) for i in range(0, 9)] + [
        (u, v) for u in range(12, 20) for v in range(u + 1, 20) if (u + v) % 3
    ] + [(25, 26), (26, 27), (27, 25), (30, 31)]),
    "2^53-paths": diamond_chain(53),  # the largest count the kernel keeps
}
THREADS = (1, 2, 3)


def native_betweenness(g):
    assert _native.LOADER.kernel("netbrain_betweenness") is not None
    values = _native.betweenness(g)
    assert values is not None  # no path count above 2**53
    return values


def test_block_graph_spans_several_blocks_with_a_partial_last_block():
    n = BETWEENNESS_GRAPHS["blocks"].n
    rows = _native._block_rows(n)
    assert n // rows > 2 * max(THREADS) and n % rows  # more blocks than are ever in flight


@pytest.mark.parametrize("name", BETWEENNESS_GRAPHS)
def test_betweenness_kernel_is_bit_identical_to_python(name, monkeypatch):
    g = BETWEENNESS_GRAPHS[name]
    expected = graph._betweenness_python(g)
    for threads in THREADS:
        monkeypatch.setattr(_native, "_cpu_count", lambda: threads)
        values = native_betweenness(g)
        # The bytes, not ==, so that -0.0 and +0.0 differ.
        assert np.array(values).tobytes() == np.array(expected).tobytes(), threads
        assert all(type(v) is float for v in values)
        assert betweenness(g) == values


@pytest.mark.parametrize("name", ["star", "path", "c5", "disconnected", "one-node", "empty"])
def test_betweenness_kernel_matches_enumeration_oracle(name):
    g = BETWEENNESS_GRAPHS[name]
    assert native_betweenness(g) == pytest.approx(brute_force_betweenness(g))


def test_percentile_starts_agree_under_both_paths(tmp_path, monkeypatch):
    g = generate(GeneratorSpec(model="waxman", n=500, k_avg=6, seed=8)).graph
    chosen = {}
    for engine, loader in (("native", _native.LOADER), ("python", _native.Loader(cc="false", cache_dir=tmp_path))):
        monkeypatch.setattr(_native, "LOADER", loader)
        for p in (0.0, 0.5, 0.98):
            chosen[engine, p] = select_starts(g, BetweennessPercentile(p), random.Random(3))
    assert _native.LOADER.kernel("netbrain_betweenness") is None  # the Python path ran
    for p in (0.0, 0.5, 0.98):
        assert chosen["native", p] == chosen["python", p]


def count_betweenness_calls(monkeypatch):
    """Record what each native call returns and count the Python loop's runs."""
    calls = {"native": [], "python": 0}
    native, python = _native.betweenness, graph._betweenness_python

    def counted_native(g):
        calls["native"].append(native(g))
        return calls["native"][-1]

    def counted_python(g):
        calls["python"] += 1
        return python(g)

    monkeypatch.setattr(_native, "betweenness", counted_native)
    monkeypatch.setattr(graph, "_betweenness_python", counted_python)
    return calls, python


def test_betweenness_falls_back_to_python_above_2_to_the_53_paths(monkeypatch):
    g = diamond_chain(54)
    calls, python = count_betweenness_calls(monkeypatch)
    values = betweenness(g)
    assert calls == {"native": [None], "python": 1}  # overflow reported, Python recomputed
    assert values == python(g)
    # At exactly 2**53 paths, the kernel's values stand.
    g = diamond_chain(53)
    calls["native"].clear()
    calls["python"] = 0
    assert betweenness(g) == python(g)
    assert calls["python"] == 0 and calls["native"][0] is not None


@pytest.mark.parametrize("threads", THREADS)
def test_overflow_in_a_later_block_falls_back_to_python(threads, monkeypatch):
    # A path on nodes 0..lead-1 fills the first blocks; only the two ends of
    # the 54-diamond chain that follows see more than 2**53 paths.
    lead = 200
    chain = diamond_chain(54)
    g = build_graph(lead + chain.n, [(i, i + 1) for i in range(lead - 1)] + [
        (lead + u, lead + v) for u, v in edges(chain)
    ])
    assert _native._block_rows(g.n) <= lead  # the chain starts after the first block
    monkeypatch.setattr(_native, "_cpu_count", lambda: threads)
    calls, python = count_betweenness_calls(monkeypatch)
    values = betweenness(g)
    assert calls == {"native": [None], "python": 1}
    assert values == python(g)


# --- set-up: the configuration model's shuffle ---------------------------------


@pytest.mark.parametrize("length", [0, 1, 2, 3, 1000, 193_494])
def test_shuffle_kernel_matches_random_shuffle(length):
    assert _native.LOADER.kernel("netbrain_shuffle") is not None
    for seed in (0, 1, 6, 2**40 + 3):
        expected, reference = list(range(length)), random.Random(seed)
        reference.shuffle(expected)
        got, rng = np.arange(length, dtype=np.int64), random.Random(seed)
        assert _native.shuffle(rng, got)
        assert got.tolist() == expected
        assert rng.getstate() == reference.getstate()


# --- set-up: the edge-list parse ----------------------------------------------

# name -> (file bytes, whether the kernel's grammar takes the file)
EDGE_FILES = {
    "plain": (b"1 2\n2 3\n", True),
    "crlf": (b"# head\r\n1 2\r\n\r\n2 3\r\n", True),
    "tabs-and-blanks": (b"  \t\n\t1\t2 \t\n 2  3\n   # note\n", True),
    "no-final-newline": (b"1 2\n2 3", True),
    "loops-duplicates-two-components": (b"5 5\n1 2\n2 1\n1 2\n2 9\n70 80\n", True),
    "18-digit-label": (b"999999999999999999 1\n1 0\n", True),
    "comment-controls": (b"#\x00\x0b\x0c\x1c\x7f\n1 2\n", True),
    "empty": (b"", True),
    "comments-only": (b"# a\n\n  # b\n", True),
    "lone-cr": (b"1 2\r2 3\n", False),
    "lone-cr-in-comment": (b"# c\r1 2\n", False),
    "cr-at-end": (b"1 2\n2 3\r", False),
    "vertical-tab": (b"1\x0b2\n", False),
    "form-feed-line": (b"\x0c\n1 2\n", False),
    "file-separator": (b"1\x1c2\n", False),
    "no-break-space": ("1\u00a02\n".encode(), False),
    "plus": (b"+1 2\n", False),
    "underscore": (b"1_0 2\n", False),
    "arabic-indic": ("\u0661 2\n2 3\n".encode(), False),
    "2^63": (b"9223372036854775808 1\n1 0\n", False),
    "19-digit-zero-padded": (b"0000000000000000001 2\n", False),
    "bom": (b"\xef\xbb\xbf1 2\n", False),
    "mid-line-comment": (b"1 2 # c\n", False),
    "negative": (b"1 2\n-1 2\n", False),
    "three-tokens": (b"1 2 3\n", False),
    "one-token": (b"1\n", False),
    "letters": (b"a b\n", False),
    "nul": (b"1 2\x00\n", False),
    "invalid-utf8-comment": (b"# \xff\n1 2\n", False),
}


def ingest_outcome(path):
    try:
        return ingest_edge_list(path)
    except ParseError as exc:
        return str(exc)


@pytest.mark.parametrize("name", EDGE_FILES)
def test_parse_kernel_matches_the_line_loop(name, tmp_path, monkeypatch):
    data, accepted = EDGE_FILES[name]
    path = tmp_path / "edges.txt"
    path.write_bytes(data)
    assert _native.LOADER.kernel("netbrain_parse_edges") is not None
    assert (_native.parse_edges(path) is not None) == accepted
    native = ingest_outcome(path)
    monkeypatch.setattr(_native, "LOADER", _native.Loader(cc="false", cache_dir=tmp_path / "cache"))
    python = ingest_outcome(path)
    assert _native.LOADER.kernel("netbrain_parse_edges") is None  # the line loop ran
    assert native == python
    if not isinstance(native, str):
        assert list(native[1].items()) == list(python[1].items())  # same order too


# --- set-up: the CSR build, the component labels and the edge lines ------------


def multigraph(seed, n, k):
    """About 1.5 k int64 edges on n nodes: k random pairs, a twentieth of them
    made self-loops, then half of them again, half of those reversed. The
    top quarter of the ids is never drawn, so some nodes stay isolated."""
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, max(1, n - n // 4), size=(k, 2))
    loops = rng.random(k) < 0.05
    edges[loops, 1] = edges[loops, 0]
    again = edges[rng.integers(0, max(1, k), size=k // 2)]
    again[: k // 4] = again[: k // 4, ::-1].copy()
    return rng.permutation(np.concatenate((edges, again)))


def star_edges(leaves, seed):
    """A star's edges, shuffled, a tenth of them repeated with the hub second."""
    edges = np.stack((np.zeros(leaves, dtype=np.int64), np.arange(1, leaves + 1)), axis=1)
    return np.random.default_rng(seed).permutation(np.concatenate((edges, edges[: leaves // 10, ::-1])))


# name -> (n, int64 edges)
SETUP_EDGES = {
    **{
        f"multigraph-{n}-{k}": (n, multigraph(n + k, n, k))
        for n, k in ((0, 0), (1, 0), (1, 3), (2, 5), (7, 12), (40, 90), (300, 2000), (2000, 1500), (5000, 900))
    },
    "no-edges": (6, np.empty((0, 2), dtype=np.int64)),
    "star-20000": (20_001, star_edges(20_000, 3)),
}


def edge_inputs(n, edges):
    """`edges` as int64, int32, uint64 and (when the ids fit) uint8 arrays,
    and as a strided and a column-major view."""
    yield edges
    for dtype in (np.int32, np.uint64, np.uint8):
        if n <= np.iinfo(dtype).max + 1:
            yield edges.astype(dtype)
    wide = np.zeros((len(edges), 4), dtype=np.int64)
    wide[:, ::2] = edges
    yield wide[:, ::2]
    yield np.asfortranarray(edges.astype(np.int32))


def csr(built):
    indptr, indices, *drops = built
    return indptr.tolist(), indices.tolist(), *drops


@pytest.mark.parametrize("name", SETUP_EDGES)
def test_build_kernel_matches_the_numpy_build(name, tmp_path, monkeypatch):
    n, edges = SETUP_EDGES[name]
    reference, drops = set_build_graph_reported(n, edges.tolist())
    expected = (reference.indptr.tolist(), reference.indices.tolist(), drops.self_loops, drops.duplicates)
    assert csr(graph._build_csr_numpy(n, edges)) == expected
    inputs = list(edge_inputs(n, edges))
    for given in inputs:
        assert csr(_native.build_csr(n, given)) == expected, given.dtype
        assert graph.build_graph_reported(n, given) == (reference, drops)
    # Without the library, the numpy build takes every input type too.
    monkeypatch.setattr(_native, "LOADER", _native.Loader(cc="false", cache_dir=tmp_path))
    for given in inputs:
        assert graph.build_graph_reported(n, given) == (reference, drops), given.dtype


@pytest.mark.parametrize("name", SETUP_EDGES)
def test_component_kernel_matches_the_numpy_labels_and_the_bfs_oracle(name):
    g = build_graph(*SETUP_EDGES[name])
    labels = _native.components(g)
    assert labels.tolist() == graph._component_labels_numpy(g).tolist()
    members = {}
    for v, label in enumerate(labels.tolist()):
        members.setdefault(label, []).append(v)
    assert list(members.values()) == bfs_components(g)


@pytest.mark.parametrize("name", [*SETUP_EDGES, "ids-of-1-to-7-digits"])
def test_edge_line_kernel_matches_the_python_lines(name):
    if name in SETUP_EDGES:
        g = build_graph(*SETUP_EDGES[name])
    else:
        g = build_graph(10**6 + 1, [(10**j - 1, 10**j) for j in range(7)] + [(0, 10**6), (5, 10**6)])
    text = _native.format_edges(g)
    assert text == fileio._format_edges(g)
    assert text == "".join(f"{u} {v}\n" for u, v in edges(g))


# --- the decline rule ----------------------------------------------------------


def extended_walker(rng):
    return dynamics._Walker(GRAPHS["er"], 0, WalkPolicy.EXTENDED, rng)


def edge_file(tmp_path, name):
    path = tmp_path / f"{name}.txt"
    path.write_bytes(EDGE_FILES[name][0])
    return path


# routine -> (a call it serves, a call outside its kernel's domain, its public caller)
DECLINES = {
    "discover": (
        lambda tmp: _native.discover(extended_walker(random.Random(1)), 600),
        lambda tmp: _native.discover(extended_walker(Reference(1)), 600),
        lambda tmp: discover(GRAPHS["er"], 0, WalkPolicy.EXTENDED, random.Random(1)),
    ),
    "betweenness": (
        lambda tmp: _native.betweenness(BETWEENNESS_GRAPHS["waxman"]),
        lambda tmp: _native.betweenness(diamond_chain(54)),
        lambda tmp: betweenness(BETWEENNESS_GRAPHS["waxman"]),
    ),
    "shuffle": (
        lambda tmp: _native.shuffle(random.Random(6), np.arange(1000, dtype=np.int64)),
        # A zero-stride view: 2**32 items in 8 bytes, which no kernel may touch.
        lambda tmp: _native.shuffle(random.Random(6), np.broadcast_to(np.int64(0), (2**32,))),
        lambda tmp: gen_cm(wos_scale_degree_sequence(2000, 5), seed=6),
    ),
    "parse_edges": (
        lambda tmp: _native.parse_edges(edge_file(tmp, "plain")),
        lambda tmp: _native.parse_edges(edge_file(tmp, "plus")),
        lambda tmp: ingest_outcome(edge_file(tmp, "loops-duplicates-two-components")),
    ),
    "build_csr": (
        lambda tmp: _native.build_csr(*SETUP_EDGES["multigraph-40-90"]),
        # 2**30 pairs in 8 bytes: 2 * k reaches 2**31 arcs, which no kernel may touch.
        lambda tmp: _native.build_csr(3, np.broadcast_to(np.int64(0), (2**30, 2))),
        lambda tmp: graph.build_graph_reported(*SETUP_EDGES["multigraph-40-90"]),
    ),
    # The next two serve every graph: they decline only without the library.
    "components": (
        lambda tmp: _native.components(GRAPHS["trap"]),
        None,
        lambda tmp: lcc_outcome(build_graph(*SETUP_EDGES["multigraph-2000-1500"])),
    ),
    "format_edges": (
        lambda tmp: _native.format_edges(GRAPHS["ws"]),
        None,
        lambda tmp: written_edge_list(tmp, GRAPHS["ws"]),
    ),
}


def lcc_outcome(g):
    lcc, kept = graph.largest_connected_component(g)
    return lcc, kept.tolist()


def written_edge_list(tmp_path, g):
    path = tmp_path / "written.txt"
    write_edge_list(g, path, header=["a header"])
    return path.read_bytes()


@pytest.mark.parametrize("routine", DECLINES)
def test_each_routine_declines_alone(routine, tmp_path, monkeypatch):
    # A routine declines with None (shuffle: False), never by raising, and
    # its caller then runs the Python code to the same result.
    serve, outside, caller = DECLINES[routine]
    declined = False if routine == "shuffle" else None
    assert serve(tmp_path) is not declined
    if outside is not None:
        assert outside(tmp_path) is declined
    expected = caller(tmp_path)
    monkeypatch.setattr(_native, "LOADER", _native.Loader(cc="false", cache_dir=tmp_path / "cache"))
    assert not _native.available()
    assert serve(tmp_path) is declined
    assert caller(tmp_path) == expected


# --- building and loading ------------------------------------------------------


def test_compile_failure_falls_back_to_python(tmp_path, monkeypatch):
    percentile = dict(CRITERION_8_CONFIG, start={"kind": "betweenness_percentile", "min_percentile": 0.9})
    runs = []
    for i, config in enumerate((CRITERION_8_CONFIG, percentile)):
        cfg = tmp_path / f"cfg{i}.json"
        cfg.write_text(json.dumps(config))
        runs.append((cfg, tmp_path / f"native{i}", tmp_path / f"python{i}"))
    for cfg, native_out, _ in runs:
        assert cli_main(["run", "--config", str(cfg), "--out", str(native_out)]) == 0
    cache = tmp_path / "cache"
    monkeypatch.setattr(_native, "LOADER", _native.Loader(cc="false", cache_dir=cache))
    for cfg, native_out, python_out in runs:
        assert cli_main(["run", "--config", str(cfg), "--out", str(python_out)]) == 0
        for name in ("curves.csv", "aggregate.csv"):
            assert (native_out / name).read_bytes() == (python_out / name).read_bytes()
        native = json.loads((native_out / "manifest.json").read_text())
        python = json.loads((python_out / "manifest.json").read_text())
        assert (native["engine"], python["engine"]) == ("native", "python")
        assert native["totals"]["moves"] == python["totals"]["moves"] > 0
    assert list(cache.iterdir()) == []  # the failed build left no file


def test_import_compiles_nothing(tmp_path):
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path), PYTHONPATH=str(_native.SOURCE.parents[1]))
    subprocess.run([sys.executable, "-c", "import netbrain, netbrain.cli"], env=env, check=True, timeout=60)
    assert list(tmp_path.iterdir()) == []


def test_threads_build_once_and_match_serial_runs(tmp_path, monkeypatch):
    loader = _native.Loader(cache_dir=tmp_path)  # a cold cache
    monkeypatch.setattr(_native, "LOADER", loader)
    jobs = [
        (generate(GeneratorSpec(model="er", n=2000, k_avg=6, seed=8)).graph, WalkPolicy.EXTENDED),
        (generate(GeneratorSpec(model="ba", n=2000, k_avg=6, seed=9)).graph, WalkPolicy.LOOK_AHEAD),
    ]
    results = [None] * len(jobs)
    barrier = threading.Barrier(len(jobs))

    def run(i):
        # The threads race to build the library from different entry points.
        g, policy = jobs[i]
        rng = random.Random(i)
        barrier.wait(timeout=60)
        if i % 2:
            results[i] = (betweenness(g), discover(g, 0, policy, rng))
        else:
            results[i] = (discover(g, 0, policy, rng), betweenness(g))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(jobs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert loader.kernel("netbrain_discover") is not None
    assert loader.kernel("netbrain_betweenness") is not None
    assert [p.suffix for p in tmp_path.iterdir()] == [".so"]
    # The references score each graph on one thread;
    # test_betweenness_kernel_is_bit_identical_to_python holds every thread
    # count to the Python loop.
    monkeypatch.setattr(_native, "_cpu_count", lambda: 1)
    for i, (g, policy) in enumerate(jobs):
        serial = discover(g, 0, policy, random.Random(i)), native_betweenness(g)
        assert results[i] == (serial[::-1] if i % 2 else serial)


def test_kernel_source_compiles_without_warnings(tmp_path):
    lib = tmp_path / "walk.so"
    done = subprocess.run(
        [
            "cc", "-std=c99", "-pedantic", "-Wall", "-Wextra", "-Wshadow", "-Wconversion", "-Werror",
            *_native.CFLAGS, "-o", str(lib), str(_native.SOURCE),
        ],
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0 and not done.stderr, done.stderr
    loaded = ctypes.CDLL(str(lib))
    for name in _native._ENTRY_POINTS:  # every entry point the loader binds
        assert hasattr(loaded, name)


# A subprocess that loads the library built at argv[1] in place of the
# loader's own and calls every entry point: discoveries of every policy on
# every small connected graph from every brain, on the trap graph and on a
# star from its centre under look_ahead, where `touched` fills up; then each
# of the other six kernels once.
SANITIZED_CALLS = """
import random, sys
from pathlib import Path
import numpy as np
from helpers import connected_graphs_up_to_iso, star_graph, trap_graph
from netbrain import WalkPolicy, _native, run_discovery
from netbrain.errors import DiscoveryStallError

loader = _native.LOADER
loader._library = lambda: Path(sys.argv[1])
assert _native.available()
graphs = [g for n in range(1, 7) for g in connected_graphs_up_to_iso(n)]
for i, g in enumerate(graphs + [trap_graph(30)]):
    for brain in range(min(g.n, 6)):
        for policy in WalkPolicy:
            for cap in (None, 1, 3):
                try:
                    run_discovery(g, brain, policy, random.Random(i), step_cap=cap)
                except DiscoveryStallError:
                    pass
for n in (2, 3, 10, 100):
    run_discovery(star_graph(n), 0, WalkPolicy.LOOK_AHEAD, random.Random(n))
g = trap_graph(5)
assert _native.betweenness(g) is not None
assert _native.shuffle(random.Random(1), np.arange(50, dtype=np.int64))
edge_list = Path(sys.argv[2])
edge_list.write_text("# edges\\n1 2\\r\\n2 3\\n\\n3 1")
assert _native.parse_edges(edge_list).tolist() == [[1, 2], [2, 3], [3, 1]]
assert _native.build_csr(4, np.array([[0, 1], [1, 0], [2, 2], [1, 3]])) is not None
assert _native.components(g) is not None
assert _native.format_edges(g) is not None
"""


def test_kernels_run_clean_under_address_and_undefined_sanitizers(tmp_path):
    try:
        found = subprocess.run(["gcc", "-print-file-name=libasan.so"], capture_output=True, text=True)
        libasan = found.stdout.strip()
    except OSError:  # no gcc
        libasan = ""
    if not os.path.isabs(libasan) or not os.path.isfile(libasan):
        pytest.skip("gcc names no libasan.so")
    lib = tmp_path / "walk-sanitized.so"
    subprocess.run(
        ["gcc", *_native.CFLAGS, "-fsanitize=address,undefined", "-fno-sanitize-recover=all",
         "-o", str(lib), str(_native.SOURCE)],
        check=True, capture_output=True, timeout=300,
    )
    tests = os.path.dirname(os.path.abspath(__file__))
    env = dict(
        os.environ,
        LD_PRELOAD=libasan,
        ASAN_OPTIONS="detect_leaks=0",
        PYTHONPATH=os.pathsep.join([str(_native.SOURCE.parents[1]), tests]),
    )
    done = subprocess.run(
        [sys.executable, "-c", SANITIZED_CALLS, str(lib), str(tmp_path / "edges.txt")],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr[:4000]
