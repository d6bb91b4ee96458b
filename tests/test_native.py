"""The native discovery kernel against the Python engine it replaces.

`run_discovery` runs the kernel for a plain `random.Random` and the Python
engine (`_Walker`) for any subclass, so a subclass run is the reference.
The kernel must build and load here: these tests do not skip.
"""

import itertools
import json
import os
import pickle
import random
import subprocess
import sys
import threading

import pytest

from helpers import CRITERION_8_CONFIG, cycle_graph, star_graph
from netbrain import (
    DiscoveryStallError,
    GeneratorSpec,
    WalkPolicy,
    build_graph,
    degree_ranked_nodes,
    generate,
    run_discovery,
)
from netbrain import _native
from netbrain.cli import main as cli_main

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


def trap_graph(k: int):
    """Brain 0 with k leaves and a neighbour a with k leaves of its own;
    a path a-b-c hangs off a. Under extended walks c is learned only on a
    walk 0 -> a -> b, with chance 1/(k+1)^2, so long idle runs happen on a
    connected graph."""
    a, b, c = k + 1, 2 * k + 2, 2 * k + 3
    edges = [(0, i) for i in range(1, k + 2)] + [(a, a + i) for i in range(1, k + 1)]
    return build_graph(2 * k + 4, edges + [(a, b), (b, c)])


GRAPHS = {
    "er": generate(GeneratorSpec(model="er", n=60, k_avg=4, seed=1)).graph,
    # Picks at a hub of a hundred nodes also test the low bits of each draw.
    "ba": generate(GeneratorSpec(model="ba", n=1000, k_avg=4, seed=2)).graph,
    "ws": generate(GeneratorSpec(model="ws", n=60, k_avg=4, seed=3, p_rewire=0.1)).graph,
    "star": star_graph(9),
    "c5": cycle_graph(5),
    "one-node": build_graph(1, []),
    "trap": trap_graph(30),
}


def discover(g, brain, policy, rng, **kwargs):
    """The curve and brain state of a discovery, or its stall message, and the rng end state."""
    try:
        outcome = run_discovery(g, brain, policy, rng, **kwargs)
    except DiscoveryStallError as exc:
        outcome = str(exc)
    return outcome, rng.getstate()


def test_kernel_builds_and_loads():
    assert _native.LOADER.kernel() is not None


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
@pytest.mark.parametrize("name", GRAPHS)
def test_kernel_matches_python_engine(name, policy):
    assert _native.LOADER.kernel() is not None
    g = GRAPHS[name]
    for cap, target, seed in itertools.product(CAPS, TARGETS, SEEDS):
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


def test_csr_view_keeps_graph_equality_and_pickles():
    g = GRAPHS["ws"]
    indptr, indices = g._csr
    assert indptr.tolist() == [0, *itertools.accumulate(len(a) for a in g.adj)]
    assert indices.tolist() == [w for a in g.adj for w in a]
    assert g._csr is g._csr  # built once
    copy = pickle.loads(pickle.dumps(g))
    assert copy == g and hash(copy) == hash(g)
    assert "_csr" not in vars(copy)


# --- building and loading ------------------------------------------------------


def test_compile_failure_falls_back_to_python(tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(CRITERION_8_CONFIG))
    native_out, python_out = tmp_path / "native", tmp_path / "python"
    assert cli_main(["run", "--config", str(cfg), "--out", str(native_out)]) == 0
    cache = tmp_path / "cache"
    monkeypatch.setattr(_native, "LOADER", _native.Loader(cc="false", cache_dir=cache))
    assert cli_main(["run", "--config", str(cfg), "--out", str(python_out)]) == 0
    for name in ("curves.csv", "aggregate.csv"):
        assert (native_out / name).read_bytes() == (python_out / name).read_bytes()
    native = json.loads((native_out / "manifest.json").read_text())
    python = json.loads((python_out / "manifest.json").read_text())
    assert (native["engine"], python["engine"]) == ("native", "python")
    assert native["total_moves"] == python["total_moves"] > 0
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
        g, policy = jobs[i]
        rng = random.Random(i)
        barrier.wait(timeout=60)
        results[i] = discover(g, 0, policy, rng)

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
    assert loader.kernel() is not None
    assert [p.suffix for p in tmp_path.iterdir()] == [".so"]
    for i, (g, policy) in enumerate(jobs):
        assert results[i] == discover(g, 0, policy, random.Random(i))


def test_kernel_source_compiles_without_warnings(tmp_path):
    done = subprocess.run(
        ["cc", "-std=c99", "-Wall", "-Wextra", "-Werror", "-c", str(_native.SOURCE), "-o", str(tmp_path / "walk.o")],
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0 and not done.stderr, done.stderr
