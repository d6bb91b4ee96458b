import random

import pytest

import numpy as np

from helpers import (
    bfs_components,
    brute_force_betweenness,
    complete_graph,
    cycle_graph,
    path_graph,
    random_connected_graph,
    set_build_graph_reported,
    star_graph,
)
from netbrain import (
    ConstructionError,
    betweenness,
    build_graph,
    degree_ranked_nodes,
    largest_connected_component,
)
from netbrain import _native, graph
from netbrain.generators import gen_er
from netbrain.graph import build_graph_reported, connected_components, is_connected


def test_build_path_graph():
    g = build_graph(3, [(0, 1), (1, 2)])
    assert g.degrees() == [1, 2, 1]
    assert g.m == 2


def test_build_drops_self_loops_and_duplicates():
    g, drops = build_graph_reported(2, [(0, 1), (1, 0), (0, 0)])
    assert g.m == 1
    assert drops.self_loops == 1
    assert drops.duplicates == 1


def test_build_complete_graph():
    g = build_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert g.degrees() == [3, 3, 3, 3]
    assert g.m == 6


def test_build_rejects_out_of_range_endpoint():
    with pytest.raises(ConstructionError, match=r"\(1, 5\)"):
        build_graph(3, [(0, 1), (1, 5)])


def random_multiset(rng, n, k):
    """k edges on n nodes with loops and repeats in both orientations; some nodes stay isolated."""
    pool = range(max(1, n - n // 4))  # the top quarter of the ids is never used
    edges = [(rng.choice(pool), rng.choice(pool)) for _ in range(k)]
    edges += [(v, u) for u, v in rng.sample(edges, k // 3)] + rng.sample(edges, k // 5)
    rng.shuffle(edges)
    return edges


def assert_same_build(got, expected):
    (g, drops), (ref, ref_drops) = got, expected
    assert (g, drops) == (ref, ref_drops)
    for a, b in ((g.indptr, ref.indptr), (g.indices, ref.indices)):
        assert a.dtype == b.dtype == np.int32 and not a.flags.writeable
        assert a.tolist() == b.tolist()
    assert type(g.m) is int and g.m == ref.m


@pytest.mark.parametrize("seed", range(6))
def test_array_build_matches_set_build(seed):
    rng = random.Random(seed)
    for n, k in ((0, 0), (1, 0), (1, 3), (2, 5), (7, 12), (40, 90), (300, 2000), (2000, 1500)):
        edges = random_multiset(rng, n, k) if n else []
        expected = set_build_graph_reported(n, edges)
        assert_same_build(build_graph_reported(n, edges), expected)
        assert_same_build(build_graph_reported(n, iter(edges)), expected)
        assert_same_build(build_graph_reported(n, np.array(edges, dtype=np.int64).reshape(-1, 2)), expected)


@pytest.mark.parametrize(
    "n, edges",
    [
        (0, [(0, 0)]),
        (3, [(0, 1), (2, 2), (1, 5), (-1, 0)]),
        (3, [(0, 0), (1, 0), (-1, 2), (1, 5)]),
        (3, [(0, 1), (0, 3)]),
        (4, [(1, 2), (2**70, 1), (9, 9)]),
        (4, [(1, 2), (5, 1), (2**70, 1)]),
        (4, [(1, 2), (0, -(2**64))]),
    ],
)
def test_array_build_names_the_first_edge_outside_the_range(n, edges):
    with pytest.raises(ConstructionError) as expected:
        set_build_graph_reported(n, edges)
    inputs = [edges, iter(edges)]
    if all(abs(x) < 2**63 for e in edges for x in e):
        inputs.append(np.array(edges, dtype=np.int64))
    for given in inputs:
        with pytest.raises(ConstructionError) as got:
            build_graph_reported(n, given)
        assert str(got.value) == str(expected.value)


@pytest.mark.parametrize(
    "edges",
    [
        [(0, 1.5)],
        [(0, "1")],
        [(0.0, 1.0)],
        [(0, np.float64(1))],
        [(0, 1, 2)],
        [(0, 1, 2), (2,)],
        [(0,)],
        [(0, None)],
        np.array([[0.0, 1.0]]),
        np.array([0, 1]),
    ],
    ids=["float", "str", "whole-floats", "numpy-float", "triple", "triple-and-single", "single", "none",
         "float-array", "flat-array"],
)
def test_build_refuses_anything_but_integer_pairs(edges):
    # No endpoint is cast: int64 would take 1.5, "1" and 1.0 as 1.
    for given in (edges, iter(edges)):
        with pytest.raises(ValueError, match="^edges must be pairs of integers$"):
            build_graph(3, given)
    assert build_graph(3, [(np.int32(0), np.int64(1)), (np.uint8(2), 1)]).edges() == [(0, 1), (1, 2)]


def test_build_refuses_graphs_beyond_int32(monkeypatch, tmp_path):
    with pytest.raises(ConstructionError, match="node count"):
        build_graph(2**31, [])
    # Only the numpy build can reach the arc bound: the kernel declines
    # 2 * k >= 2**31 input arcs (test_native's decline table).
    monkeypatch.setattr(_native, "LOADER", _native.Loader(cc="false", cache_dir=tmp_path))
    monkeypatch.setattr(graph, "_INT32", 12)  # 2 * m must stay below 12
    k4 = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    assert build_graph(5, k4[:5]).m == 5
    for edges in (k4, iter(k4), np.array(k4 + k4)):
        with pytest.raises(ConstructionError, match=r"2 \* m >= 2\*\*31"):
            build_graph(5, edges)


def shuffled_path(n: int, seed: int) -> list[tuple[int, int]]:
    ids = list(range(n))
    random.Random(seed).shuffle(ids)
    return list(zip(ids, ids[1:]))


def zigzag_path(n: int) -> list[tuple[int, int]]:
    """The path 0, n-1, 1, n-2, ...: each hop crosses the id range."""
    ids = [i // 2 if i % 2 == 0 else n - 1 - i // 2 for i in range(n)]
    return list(zip(ids, ids[1:]))


def random_forest(n: int, seed: int) -> list[tuple[int, int]]:
    """Each node links to an earlier one with probability 0.9, under shuffled ids."""
    rng = random.Random(seed)
    ids = list(range(n))
    rng.shuffle(ids)
    return [(ids[v], ids[rng.randrange(v)]) for v in range(1, n) if rng.random() < 0.9]


_rng = random.Random(11)
COMPONENT_GRAPHS = {
    **{
        f"multiset-{n}-{k}": build_graph(n, random_multiset(_rng, n, k))
        for n, k in ((1, 0), (5, 2), (60, 40), (600, 500), (600, 3000), (3000, 2500))
    },
    "shuffled-path": build_graph(2000, shuffled_path(2000, 3)),
    "zigzag-path": build_graph(2001, zigzag_path(2001)),
    "forest": build_graph(3000, random_forest(3000, 4)),
    "no-edges": build_graph(5, []),
    "empty": build_graph(0, []),
    "tie": build_graph(7, [(6, 2), (2, 5), (4, 1), (3, 4)]),  # {1, 3, 4} beats {2, 5, 6}
}


@pytest.mark.parametrize("name", COMPONENT_GRAPHS)
def test_components_and_lcc_match_the_bfs_oracle(name):
    g = COMPONENT_GRAPHS[name]
    components = bfs_components(g)
    assert connected_components(g) == components
    assert is_connected(g) == (len(components) <= 1)
    lcc, mapping = largest_connected_component(g)
    best = max(components, key=lambda c: (len(c), -c[0]), default=[])
    assert mapping == {old: new for new, old in enumerate(best)}
    expected, _ = set_build_graph_reported(
        len(best), [(mapping[u], mapping[v]) for u in best for v in g.adj[u]]
    )
    assert lcc == expected
    if len(best) == g.n:
        assert lcc is g


@pytest.mark.parametrize("seed", range(4))
def test_lcc_matches_a_rebuild_of_its_component(seed):
    rng = random.Random(seed)
    for n, k in ((1, 0), (5, 2), (60, 40), (600, 500), (600, 3000)):
        g = build_graph(n, random_multiset(rng, n, k))
        lcc, mapping = largest_connected_component(g)
        best = max(connected_components(g), key=lambda c: (len(c), -c[0]))
        assert mapping == {old: new for new, old in enumerate(best)}
        expected = set_build_graph_reported(
            len(best), [(mapping[u], mapping[v]) for u, v in g.edges() if u in mapping]
        )
        assert_same_build((lcc, expected[1]), expected)
        if lcc.n == g.n:
            assert lcc is g
        same, kept = graph._largest_component(g)  # generate's path, without the dict
        assert same == lcc and kept.tolist() == best


def test_adjacency_is_sorted_and_symmetric():
    g = build_graph(5, [(3, 1), (4, 0), (1, 0), (2, 4)])
    for u in range(g.n):
        assert list(g.adj[u]) == sorted(g.adj[u])
        for v in g.adj[u]:
            assert u in g.adj[v]


def test_degree_examples():
    assert complete_graph(4).degree(2) == 3
    s5 = star_graph(5)
    assert s5.degree(0) == 4
    assert s5.degree(3) == 1
    assert s5.degree(-5) == 4 and type(s5.degree(-1)) is int  # as the index of a sequence
    for v in (5, -6):
        with pytest.raises(IndexError):
            s5.degree(v)


def test_degree_sum_is_twice_edge_count():
    rng = random.Random(42)
    for _ in range(25):
        g = random_connected_graph(rng.randint(2, 8), rng)
        assert sum(g.degrees()) == 2 * g.m
    g = gen_er(300, 5, seed=9)
    assert sum(g.degrees()) == 2 * g.m


def test_lcc_two_triangles_tie_broken_by_smallest_label():
    edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
    g = build_graph(7, edges)  # plus isolated node 6
    lcc, mapping = largest_connected_component(g)
    assert lcc.n == 3 and lcc.m == 3
    assert mapping == {0: 0, 1: 1, 2: 2}


def test_lcc_connected_graph_is_identity():
    g = cycle_graph(6)
    lcc, mapping = largest_connected_component(g)
    assert lcc.n == 6
    assert mapping == {i: i for i in range(6)}
    assert lcc.edges() == g.edges()


def test_lcc_k4_beats_p3():
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (4, 5), (5, 6)]
    g = build_graph(7, edges)
    lcc, mapping = largest_connected_component(g)
    assert lcc.n == 4 and lcc.m == 6
    assert set(mapping) == {0, 1, 2, 3}


def test_lcc_output_is_connected_and_largest():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(2, 30)
        edges = [
            (rng.randrange(n), rng.randrange(n))
            for _ in range(rng.randint(0, 2 * n))
        ]
        g = build_graph(n, [(u, v) for u, v in edges if u != v])
        lcc, mapping = largest_connected_component(g)
        assert is_connected(lcc)
        # no discarded component may be larger
        from netbrain.graph import connected_components

        assert lcc.n == max(len(c) for c in connected_components(g))
        assert len(mapping) == lcc.n


def test_betweenness_p3_and_star():
    assert betweenness(path_graph(3)) == [0.0, 1.0, 0.0]
    assert betweenness(star_graph(5)) == [6.0, 0.0, 0.0, 0.0, 0.0]


def test_betweenness_c5_matches_enumeration_oracle():
    g = cycle_graph(5)
    oracle = brute_force_betweenness(g)
    assert oracle == pytest.approx([1.0] * 5)
    assert betweenness(g) == pytest.approx(oracle)


def test_betweenness_matches_oracle_on_small_random_graphs():
    rng = random.Random(2024)
    for _ in range(60):
        g = random_connected_graph(rng.randint(2, 8), rng)
        got = betweenness(g)
        want = brute_force_betweenness(g)
        assert got == pytest.approx(want, abs=1e-9)
        assert all(x >= 0 for x in got)


def test_degree_ranked_examples():
    assert degree_ranked_nodes(star_graph(5)) == [0, 1, 2, 3, 4]
    assert degree_ranked_nodes(complete_graph(4)) == [0, 1, 2, 3]
    assert degree_ranked_nodes(path_graph(3)) == [1, 0, 2]


def test_degree_ranked_is_permutation_with_non_increasing_degrees():
    rng = random.Random(5)
    for _ in range(20):
        g = random_connected_graph(rng.randint(2, 8), rng)
        order = degree_ranked_nodes(g)
        assert sorted(order) == list(range(g.n))
        degs = [g.degree(v) for v in order]
        assert all(a >= b for a, b in zip(degs, degs[1:]))
