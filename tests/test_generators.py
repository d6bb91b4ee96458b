import hashlib
import math
import random
import statistics
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import ALL_SPECS, average_clustering, cycle_graph, rowwise_gen_waxman, rowwise_waxman_beta
from netbrain import GeneratorSpec, ParameterError, generate, generators
from netbrain.generators import gen_ba, gen_cm, gen_er, gen_sbm, gen_waxman, gen_ws, sbm_intra_probability
from netbrain.graph import is_connected


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.model)
def test_same_seed_gives_identical_edges(spec):
    a = generate(spec).graph
    b = generate(spec).graph
    assert a.edges() == b.edges()


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.model)
def test_negative_seed_is_refused(spec):
    # numpy refuses one, and random.Random would run -7 as 7.
    with pytest.raises(ParameterError, match="seed must be >= 0, got -7"):
        generate(replace(spec, seed=-7))


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.model)
def test_outputs_are_simple_and_symmetric(spec):
    g = generate(spec).graph
    for u in range(g.n):
        assert u not in g.adj[u]
        assert len(set(g.adj[u])) == len(g.adj[u])
        for v in g.adj[u]:
            assert u in g.adj[v]
    assert sum(g.degrees()) == 2 * g.m


# sha256 of repr(graph.edges()), recorded before the G(n, p) samplers of ER
# and SBM were merged into one; a sampler change may not move an edge.
EDGE_DIGESTS = {
    "er": "1a96dbefdf1de6724cc1b9d7db17916921b45387aa52ec6bf121014dc6077a99",
    "ba": "4ecf653f549f3b0ac1b1dabcf9cd27d85519a8e9a202e12e439ade66230af9fc",
    "cm": "836fb744bfe269da5cae9150790d9c6aa5c05fc934d0a9396862849dfb2a6617",
    "ws": "3aabefbc97494f008959c9e132f4663c5b2e128d1955d2fb72fd716fe41b8e94",
    "waxman": "5970274f86a0a80431f6eabcb9af4898cff87eb86759f3c146ee9540dfbff72e",
    "sbm": "e43edf4b2fbf6f2663714d0be7f74b870f557c3e60faae93906f170dd62596a0",
    "gen_er": "29836a0dd28d952ce2c9eef044798b102ade672463c4b068a96c012194f0abaa",
    "gen_sbm": "802beaec4ab8a6c3f9ca5168ebaede31eb28e0e3daeeb91b34ef41b7acbd20d6",
}
PINNED_GRAPHS = [(s.model, lambda s=s: generate(s).graph) for s in ALL_SPECS] + [
    ("gen_er", lambda: gen_er(300, 6, seed=11)),  # raw, before LCC reduction
    ("gen_sbm", lambda: gen_sbm(303, 5, 0.02, 8, seed=12)),  # unequal blocks
]


@pytest.mark.parametrize("name, build", PINNED_GRAPHS, ids=[n for n, _ in PINNED_GRAPHS])
def test_generator_edges_are_pinned(name, build):
    edges = build().edges()
    assert hashlib.sha256(repr(edges).encode()).hexdigest() == EDGE_DIGESTS[name]


# --- ER ------------------------------------------------------------------


def test_er_probability_definition():
    # With k_avg = n - 1 the pair probability saturates at 1.
    g = gen_er(10, 9, seed=0)
    assert g.m == 45


def test_er_mean_degree_near_target():
    g = gen_er(1000, 8, seed=123)
    assert 7.6 <= g.mean_degree() <= 8.4


def test_er_mean_degree_within_5pct_over_seeds():
    means = [gen_er(1000, 8, seed=s).mean_degree() for s in range(20)]
    assert abs(statistics.fmean(means) - 8.0) / 8.0 < 0.05


def test_er_rejects_bad_k():
    with pytest.raises(ParameterError):
        gen_er(100, 0, seed=1)
    with pytest.raises(ParameterError):
        gen_er(100, 100, seed=1)


# --- BA ------------------------------------------------------------------


def test_ba_edge_count_formula():
    for n, m_attach in [(1000, 2), (500, 3), (50, 1)]:
        g = gen_ba(n, m_attach, seed=7)
        expected = math.comb(m_attach + 1, 2) + (n - m_attach - 1) * m_attach
        assert g.m == expected
        assert abs(g.mean_degree() - 2 * m_attach) < 0.5


def test_ba_seed_clique_boundary():
    g = gen_ba(4, 3, seed=0)
    assert g.m == 6  # K4, nothing left to grow
    with pytest.raises(ParameterError):
        gen_ba(4, 4, seed=0)


def test_ba_grows_heavy_hubs():
    for seed in range(10):
        g = gen_ba(5000, 2, seed=seed)
        assert max(g.degrees()) > 40


def test_ba_is_connected():
    assert is_connected(gen_ba(300, 2, seed=1))


# --- CM ------------------------------------------------------------------


def test_cm_single_edge():
    g = gen_cm([1, 1], seed=0)
    assert g.m == 1


def test_cm_triangle_when_matching_is_simple():
    # Seed 3 pins a stub matching without self-loops or duplicates; the
    # triangle is the only simple realization of [2, 2, 2].
    g = gen_cm([2, 2, 2], seed=3)
    assert g.degrees() == [2, 2, 2]


def test_cm_erasure_only_removes():
    seq = [2, 2, 2]
    g = gen_cm(seq, seed=0)  # this matching needs erasure
    assert g.m < 3
    for v, want in enumerate(seq):
        assert g.degree(v) <= want


def test_cm_from_ba_sequence_keeps_mean_degree():
    base = gen_ba(1000, 2, seed=21)
    seq = base.degrees()
    g = gen_cm(seq, seed=22)
    input_mean = statistics.fmean(seq)
    assert abs(g.mean_degree() - input_mean) / input_mean < 0.02
    for v, want in enumerate(seq):
        assert g.degree(v) <= want


def test_cm_rejects_odd_sum():
    with pytest.raises(ParameterError):
        gen_cm([1, 1, 1], seed=0)


# --- WS ------------------------------------------------------------------


def test_ws_zero_rewiring_is_ring_lattice():
    g = gen_ws(10, 2, 0.0, seed=0)
    assert g.edges() == cycle_graph(10).edges()


def test_ws_edge_count_is_exact_for_any_p():
    for p in (0.0, 0.03, 0.5, 1.0):
        g = gen_ws(1000, 4, p, seed=17)
        assert g.m == 2000


def test_ws_default_rewiring_moves_a_few_percent():
    g = gen_ws(1000, 4, 0.03, seed=11)
    lattice = {frozenset((u, (u + j) % 1000)) for j in (1, 2) for u in range(1000)}
    rewired = sum(1 for u, v in g.edges() if frozenset((u, v)) not in lattice)
    assert 30 <= rewired <= 90  # Binomial(2000, 0.03) under a pinned seed


def test_ws_full_rewiring_destroys_clustering():
    g = gen_ws(1000, 4, 1.0, seed=13)
    assert average_clustering(g) < 0.05


def test_ws_rejects_odd_k():
    with pytest.raises(ParameterError):
        gen_ws(100, 3, 0.1, seed=0)


# --- Waxman --------------------------------------------------------------


def test_waxman_calibrated_mean_degree():
    g = gen_waxman(1000, 8, 0.1, seed=31)
    assert 7.6 <= g.mean_degree() <= 8.4


def test_waxman_large_alpha_approaches_er_degree_spread():
    gw = gen_waxman(1000, 8, 1.0, seed=37)
    ge = gen_er(1000, 8, seed=37)
    var_w = statistics.pvariance(gw.degrees())
    var_e = statistics.pvariance(ge.degrees())
    assert var_w < 3 * var_e


def test_waxman_infeasible_k_suggests_larger_alpha():
    with pytest.raises(ParameterError, match="alpha"):
        gen_waxman(100, 80, 0.01, seed=0)


def test_waxman_refuses_pair_loops_above_the_bound():
    # n=20,000 weighs 199,990,000 pairs, n=20,001 weighs 200,010,000; the
    # check runs before any point is drawn, so no graph is built here.
    generators._check_waxman(20_000, 8, 0.1)
    with pytest.raises(ParameterError, match=r"200,010,000 node pairs for n=20001, above the bound of 200,000,000"):
        generators._check_waxman(20_001, 8, 0.1)
    with pytest.raises(ParameterError, match="above the bound"):
        GeneratorSpec(model="waxman", n=100_000, k_avg=8, seed=0).validate()


# (n, k_avg, alpha, seed, pairs per block). Blocks of 1 and 250 pairs make
# rows longer than a block; 250 and 1000 end blocks at varied rows.
WAXMAN_GRID = [
    (2, 0.5, 0.5, 1, None),
    (3, 0.5, 1.0, 2, None),
    (300, 6, 0.3, 3, 1),
    (300, 6, 0.3, 3, 250),
    (300, 6, 0.3, 3, 1000),
    (1000, 6, 0.1, 2018, None),  # the bench graph
    (1000, 6, 1.0, 4, None),  # beta = 0.0086: 14,152 candidates pass the bounds for 2,943 edges
    (600, 2, 1.0, 5, 64),  # holds more than n * k_avg candidates before the end
    (1200, 0.01, 0.0009, 6, None),  # 29,446 weights underflow to 0; 4 edges
    (1200, 4, 0.0009, 6, None),  # refused: beta = 289.755
    (3, 1.5, 1.0, 2, None),  # refused: beta = 1.148
    (3, 1.0, 1e-6, 3, None),  # refused: every weight underflows
]


def _outcome(call, *args):
    """The call's result, or the message of the ParameterError it raised."""
    try:
        return call(*args)
    except ParameterError as exc:
        return str(exc)


@pytest.mark.parametrize("n, k_avg, alpha, seed, block", WAXMAN_GRID)
def test_waxman_matches_the_row_by_row_reference(monkeypatch, n, k_avg, alpha, seed, block):
    if block is not None:
        monkeypatch.setattr(generators, "_WAXMAN_BLOCK_PAIRS", block)
    points = np.random.default_rng(seed).random((n, 2))
    assert _outcome(generators.waxman_beta, points, k_avg, alpha) == _outcome(
        rowwise_waxman_beta, points, k_avg, alpha
    )
    assert _outcome(lambda: gen_waxman(n, k_avg, alpha, seed).edges()) == _outcome(
        lambda: rowwise_gen_waxman(n, k_avg, alpha, seed).edges()
    )


def test_waxman_refusals_keep_their_messages():
    with pytest.raises(ParameterError, match=r"^degenerate point set for waxman calibration$"):
        gen_waxman(3, 1.0, 1e-6, seed=3)
    with pytest.raises(ParameterError, match=r"^degenerate point set for waxman calibration$"):
        generators.waxman_beta(np.zeros((1, 2)), 1.0, 0.5)  # one point weighs no pair
    with pytest.raises(
        ParameterError,
        match=r"^k_avg=4 unreachable at alpha=0\.0009 \(needs beta=289\.755 > 1\); increase alpha$",
    ):
        gen_waxman(1200, 4, 0.0009, seed=6)


def test_waxman_grid_filters_held_candidates_again(monkeypatch):
    # gen_waxman joins its held (u, v, r, w) arrays, one np.concatenate each,
    # to filter them again, and once more after the last block. In the grid's
    # n=600 case, more than n * k_avg candidates are filtered before the end.
    joined = []

    def concatenate(arrays):
        joined.append(sum(map(len, arrays)))
        return np.concatenate(arrays)

    monkeypatch.setattr(generators, "np", SimpleNamespace(**vars(np)))
    monkeypatch.setattr(generators.np, "concatenate", concatenate)
    monkeypatch.setattr(generators, "_WAXMAN_BLOCK_PAIRS", 64)
    assert gen_waxman(600, 2, 1.0, seed=5).edges() == rowwise_gen_waxman(600, 2, 1.0, 5).edges()
    assert max(joined[:-4]) > 600 * 2


@pytest.mark.parametrize("n, k_avg, alpha, limit_kib", [(1000, 6, 0.1, 1536), (3000, 6, 1.0, 2048)])
def test_waxman_memory_is_bounded_by_blocks_and_edges(n, k_avg, alpha, limit_kib):
    # Measured peaks: 709 and 1,328 KiB. Blocks of 65,536 pairs (512 KiB per
    # array) peak at 3,815 and 4,177 KiB; never filtering the held candidates
    # again peaks at 3,667 KiB for n=3000, where beta = 0.0029 and 59,798
    # candidates pass the block bounds for 8,946 edges; keeping every pair
    # takes O(n**2).
    gen_waxman(n, k_avg, alpha, seed=5)  # imports and caches outside the measurement
    tracemalloc.start()
    try:
        gen_waxman(n, k_avg, alpha, seed=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < limit_kib * 1024


@pytest.mark.parametrize("model", ["er", "ba", "ws", "waxman", "sbm"])
def test_models_refuse_expected_edges_above_the_bound(model):
    # n * k_avg / 2 against the bound of 5,000,000 edges; only the checks run.
    GeneratorSpec(model=model, n=20_000, k_avg=498, seed=0).validate()
    with pytest.raises(ParameterError, match=r"expect 5\.02e\+06 edges, above the bound of 5,000,000"):
        GeneratorSpec(model=model, n=20_000, k_avg=502, seed=0).validate()
    with pytest.raises(ParameterError, match="above the bound"):
        GeneratorSpec(model=model, n=10**6, k_avg=10**5, seed=0).validate()


def test_ba_refuses_attachments_above_the_edge_bound():
    with pytest.raises(ParameterError, match="give 5,000,001 edges, above the bound of 5,000,000"):
        gen_ba(5_000_001, 1, seed=0)  # refused before the seed clique is built
    # k_avg=3 expects 4.5M edges, but ba attaches round(1.5) = 2 per node: 6M.
    with pytest.raises(ParameterError, match="give 6,000,000 edges, above the bound of 5,000,000"):
        GeneratorSpec(model="ba", n=3_000_000, k_avg=3, seed=0).validate()


# --- SBM -----------------------------------------------------------------


def test_sbm_intra_probability_equation():
    # n=5000, 10 blocks, mu=1%, k=10: mu alone already exceeds the target.
    p_in = sbm_intra_probability(5000, 10, 0.01, 10)
    assert p_in == pytest.approx((10 - 0.01 * 4500) / 499)
    assert p_in < 0


def test_sbm_clamps_negative_p_in_with_warning(caplog):
    with caplog.at_level("WARNING"):
        g = gen_sbm(500, 10, 0.05, 5, seed=41)
    assert "clamped" in caplog.text
    # All edges are inter-block: k comes out near mu * (n - n_b) = 22.5.
    assert g.mean_degree() > 5


def test_sbm_single_block_degenerates_to_er():
    g = gen_sbm(100, 1, 0.0, 10, seed=43)
    assert abs(g.mean_degree() - 10) < 2.5
    assert sbm_intra_probability(100, 1, 0.0, 10) == pytest.approx(10 / 99)


def test_sbm_zero_mu_gives_disjoint_cliques():
    g = gen_sbm(10, 2, 0.0, 4, seed=0)
    # p_in = (4 - 0) / 4 = 1: two disjoint K5 blocks.
    assert g.m == 20
    assert sorted(g.degrees()) == [4] * 10
    from netbrain import largest_connected_component

    lcc, _ = largest_connected_component(g)
    assert lcc.n == 5 and lcc.m == 10


def test_sbm_rejects_unreachable_k():
    with pytest.raises(ParameterError):
        gen_sbm(100, 50, 0.0, 10, seed=0)  # p_in would exceed 1


def test_sbm_refuses_expected_edges_above_the_bound(monkeypatch):
    # Default mu=0.01 at n=100000: the clamp leaves mu * (n - n/blocks) = 900
    # as the mean degree, about 4.5e7 edges. Refused before any is drawn.
    def no_draws(*args):
        raise AssertionError("an edge was drawn")

    monkeypatch.setattr(generators, "_bernoulli_indices", no_draws)
    spec = GeneratorSpec(model="sbm", n=100000, k_avg=10, seed=0)
    with pytest.raises(ParameterError, match=r"about 4\.5e\+07 edges \(mean degree 900"):
        spec.validate()
    with pytest.raises(ParameterError, match="above the bound"):
        generate(spec)
    with pytest.raises(ParameterError, match="above the bound"):
        gen_sbm(100000, 10, 0.01, 10, seed=0)


def test_sbm_mean_degree_within_5pct_over_seeds():
    means = [gen_sbm(1000, 10, 0.002, 8, seed=s).mean_degree() for s in range(20)]
    assert abs(statistics.fmean(means) - 8.0) / 8.0 < 0.05


# --- generate() dispatch ---------------------------------------------------


def test_generate_reduces_supercritical_er_to_lcc():
    sizes = []
    for seed in range(5):
        res = generate(GeneratorSpec(model="er", n=5000, k_avg=3, seed=seed))
        assert is_connected(res.graph)
        sizes.append(res.stats.n)
        assert res.stats.nodes_outside_lcc == 5000 - res.stats.n
    assert all(3000 < s < 5000 for s in sizes)  # supercritical but not connected


def test_generate_ws_p0_keeps_full_graph():
    res = generate(GeneratorSpec(model="ws", n=100, k_avg=4, seed=1, p_rewire=0.0))
    assert res.stats.n == 100
    assert res.stats.nodes_outside_lcc == 0


def test_generate_ba_keeps_full_graph():
    res = generate(GeneratorSpec(model="ba", n=100, k_avg=4, seed=1))
    assert res.stats.n == 100


def test_generate_validates_spec():
    with pytest.raises(ParameterError):
        generate(GeneratorSpec(model="er", n=1, k_avg=1, seed=0))
    with pytest.raises(ParameterError):
        generate(GeneratorSpec(model="nope", n=10, k_avg=2, seed=0))
    with pytest.raises(ParameterError):
        generate(GeneratorSpec(model="cm", seed=0))  # missing sequence
