import itertools
import random
import statistics

import numpy as np
import pytest

from helpers import (
    complete_graph,
    cycle_graph,
    exact_first_walk_distribution,
    harmonic,
    path_graph,
    star_graph,
)
from netbrain import (
    ConfigError,
    DiscoveryStallError,
    GeneratorSpec,
    Termination,
    WalkPolicy,
    build_graph,
    default_thresholds,
    generate,
    run_discovery,
    run_walk,
)
from netbrain.errors import FieldTypeError

POLICIES = [WalkPolicy.STANDARD, WalkPolicy.EXTENDED, WalkPolicy.LOOK_AHEAD]



class ScriptedRandom(random.Random):
    """Returns the scripted draws in order, then falls back to the base stream."""

    def __init__(self, draws, seed=0):
        super().__init__(seed)
        self.draws = list(draws)

    def random(self):
        return self.draws.pop(0) if self.draws else super().random()


# --- movement rules ----------------------------------------------------------


@pytest.mark.parametrize("policy", POLICIES)
def test_first_move_from_p3_middle(policy):
    # Both ends are eligible, in adjacency order: a draw of 0 picks node 0,
    # a draw just below 1 picks node 2.
    g = path_graph(3)
    assert run_walk(g, 1, policy, ScriptedRandom([0.0])).visited_path[:2] == (1, 0)
    assert run_walk(g, 1, policy, ScriptedRandom([0.99])).visited_path[:2] == (1, 2)


def test_star_leaf_is_forced_dead_end():
    # leaf 1 -> center -> another leaf, whose only neighbor is blocked.
    g = star_graph(5)
    for seed in range(10):
        out = run_walk(g, 1, WalkPolicy.STANDARD, random.Random(seed))
        assert len(out.visited_path) == 3
        assert out.visited_path[:2] == (1, 0)
        assert out.terminated_by is Termination.DEAD_END


def test_extended_may_enter_primed_but_look_ahead_may_not():
    # Triangle 0-1-2 with a pendant 3 on node 2. Departing 0 primes 1 and 2;
    # at 1 the only unblocked neighbor is the primed node 2.
    g = build_graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    out = run_walk(g, 0, WalkPolicy.EXTENDED, ScriptedRandom([0.0, 0.0, 0.0]))
    assert out.visited_path == (0, 1, 2, 3)
    out = run_walk(g, 0, WalkPolicy.LOOK_AHEAD, ScriptedRandom([0.0]))
    assert out.visited_path == (0, 1)
    assert out.terminated_by is Termination.DEAD_END


def test_look_ahead_dead_end_on_c6():
    # After walking five consecutive cycle nodes, the last one sits between a
    # blocked neighbor and a primed one: no eligible move. The pendant 6 on
    # node 5 keeps the brain's knowledge short of full coverage.
    g = build_graph(7, [(i, (i + 1) % 6) for i in range(6)] + [(5, 6)])
    out = run_walk(g, 0, WalkPolicy.LOOK_AHEAD, ScriptedRandom([0.0] * 4))
    assert out.visited_path == (0, 1, 2, 3, 4)
    assert out.terminated_by is Termination.DEAD_END
    assert out.newly_known == set(range(6))


# --- step cost ----------------------------------------------------------------


def test_step_metric_standard_counts_moves():
    out = run_walk(path_graph(4), 0, WalkPolicy.STANDARD, random.Random(0))
    assert out.visited_path == (0, 1, 2, 3)
    assert out.steps == 3


def test_step_metric_degree_sum_on_star():
    out = run_walk(star_graph(5), 0, WalkPolicy.EXTENDED, ScriptedRandom([0.25]))
    assert out.visited_path == (0, 2)
    assert out.steps == 5


def test_step_metric_look_ahead_on_cycle():
    out = run_walk(cycle_graph(6), 0, WalkPolicy.LOOK_AHEAD, ScriptedRandom([0.0] * 4))
    assert out.visited_path == (0, 1, 2, 3, 4)
    assert out.steps == 10


# --- run_walk ------------------------------------------------------------------


def test_standard_walk_on_star_center():
    g = star_graph(5)
    for seed in range(20):
        out = run_walk(g, 0, WalkPolicy.STANDARD, random.Random(seed))
        assert len(out.visited_path) == 2
        assert out.visited_path[0] == 0
        assert out.steps == 1
        assert out.newly_known == {0, out.visited_path[1]}
        assert out.terminated_by is Termination.DEAD_END


def test_extended_walk_on_star_covers_everything():
    g = star_graph(5)
    out = run_walk(g, 0, WalkPolicy.EXTENDED, random.Random(3))
    assert out.steps == 5  # deg(center) + deg(leaf)
    assert out.newly_known == set(range(5))
    assert out.terminated_by is Termination.FULL_COVERAGE


def test_look_ahead_walk_on_c6():
    g = cycle_graph(6)
    for seed in range(10):
        out = run_walk(g, 0, WalkPolicy.LOOK_AHEAD, random.Random(seed))
        assert len(out.visited_path) == 5  # five consecutive nodes either way
        assert out.steps == 10
        assert out.newly_known == set(range(6))
        assert out.terminated_by is Termination.FULL_COVERAGE


def test_standard_walk_on_k4_never_dead_ends_early():
    g = complete_graph(4)
    for seed in range(10):
        out = run_walk(g, 0, WalkPolicy.STANDARD, random.Random(seed))
        assert out.steps == 3
        assert out.newly_known == {0, 1, 2, 3}
        assert out.terminated_by is Termination.FULL_COVERAGE


def test_walk_respects_prior_brain_knowledge():
    g = star_graph(5)
    out = run_walk(g, 0, WalkPolicy.STANDARD, random.Random(1), known={0, 1, 2, 3})
    # Only one leaf is missing; the walk may or may not hit it, but reports
    # only genuinely new nodes.
    assert out.newly_known <= {4}


@pytest.mark.parametrize(
    "policy, known, error, match",
    [
        ("bogus", None, ConfigError, "unknown policy 'bogus'"),
        (WalkPolicy.STANDARD, [-1], ValueError, "known node -1 outside"),
        (WalkPolicy.STANDARD, [4], ValueError, "known node 4 outside"),
        (WalkPolicy.EXTENDED, [1, 9], ValueError, "known node 9 outside"),
        (WalkPolicy.STANDARD, [True], FieldTypeError, "known must be a sequence of integers, got True in it"),
        (WalkPolicy.STANDARD, {0, 1.0}, FieldTypeError, "known must be a sequence of integers, got 1.0 in it"),
        (WalkPolicy.STANDARD, ["1"], FieldTypeError, "known must be a sequence of integers, got '1' in it"),
        (WalkPolicy.STANDARD, 5, FieldTypeError, "^known must be a sequence of integers, got 5$"),
    ],
)
def test_walk_rejects_bad_arguments(policy, known, error, match):
    with pytest.raises(error, match=match):
        run_walk(path_graph(4), 0, policy, random.Random(0), known=known)


@pytest.mark.parametrize("rng", [5, None, np.random.default_rng(0)], ids=["int", "none", "numpy"])
def test_walk_refuses_an_rng_that_is_not_a_random(rng):
    with pytest.raises(FieldTypeError, match="^rng must be a random.Random, got "):
        run_walk(path_graph(3), 0, WalkPolicy.EXTENDED, rng)


@pytest.mark.parametrize(
    "kwargs, error, match",
    [
        (dict(thresholds=[]), ConfigError, "must not be empty"),
        (dict(thresholds=[0.5, 1.5]), ConfigError, r"lie in \(0, 1\]"),
        (dict(thresholds=[0.0, 1.0]), ConfigError, r"lie in \(0, 1\]"),
        (dict(thresholds=[0.5, 0.5]), ConfigError, "strictly increasing"),
        (dict(target_fraction=0.0), ConfigError, "target_fraction"),
        (dict(target_fraction=1.5), ConfigError, "target_fraction"),
        (dict(brain=-1), ValueError, r"brain -1 outside \[0, 4\)"),
        (dict(brain=4), ValueError, r"brain 4 outside \[0, 4\)"),
        (dict(thresholds=[True]), FieldTypeError, "thresholds must be a sequence of numbers, got True in it"),
        (dict(thresholds=["a"]), FieldTypeError, "thresholds must be a sequence of numbers, got 'a' in it"),
        (dict(thresholds=0.5), FieldTypeError, "thresholds must be a sequence of numbers, got 0.5"),
        (dict(target_fraction=True), FieldTypeError, "target_fraction must be a number, got True"),
        (dict(target_fraction="1"), FieldTypeError, "target_fraction must be a number, got '1'"),
        (dict(brain=True), FieldTypeError, "brain must be an integer, got True"),
        (dict(brain=1.0), FieldTypeError, "brain must be an integer, got 1.0"),
        (dict(brain="1"), FieldTypeError, "brain must be an integer, got '1'"),
        (dict(rng=5), FieldTypeError, "^rng must be a random.Random, got 5$"),
        (dict(rng=random), FieldTypeError, "^rng must be a random.Random, got <module 'random'"),
    ],
    ids=[
        "no-thresholds", "threshold-above-1", "threshold-0", "thresholds-repeat",
        "target-0", "target-above-1", "brain-negative", "brain-n",
        "threshold-bool", "threshold-str", "thresholds-number", "target-bool", "target-str",
        "brain-bool", "brain-float", "brain-str", "rng-int", "rng-module",
    ],
)
def test_discovery_rejects_bad_arguments(kwargs, error, match):
    kwargs = dict(g=path_graph(4), brain=0, policy=WalkPolicy.STANDARD, rng=random.Random(0)) | kwargs
    with pytest.raises(error, match=match):
        run_discovery(**kwargs)



def test_numpy_brain_and_known_nodes_come_back_as_python_ints():
    g = path_graph(4)
    _, brain = run_discovery(g, np.int64(1), WalkPolicy.STANDARD, random.Random(0))
    assert type(brain.brain) is int and brain.brain == 1
    out = run_walk(g, np.int64(1), WalkPolicy.STANDARD, random.Random(0), known=np.array([0, 1]))
    assert {type(v) for v in out.visited_path} == {int}
    assert out.visited_path[0] == 1 and 0 not in out.newly_known

def test_walk_step_cap_uses_policy_metric():
    g = cycle_graph(50)
    out = run_walk(g, 0, WalkPolicy.STANDARD, random.Random(0), step_cap=5)
    assert out.steps == 5
    assert out.terminated_by is Termination.STEP_CAP
    out = run_walk(g, 0, WalkPolicy.EXTENDED, random.Random(0), step_cap=5)
    # Degree-sum metric: the start costs deg(brain)=2 and each move adds 2,
    # so the cap first binds after the second move.
    assert out.steps == 6
    assert out.terminated_by is Termination.STEP_CAP
    assert len(out.visited_path) == 3


def test_walk_path_is_self_avoiding_and_adjacent():
    rng = random.Random(99)
    g = generate(GeneratorSpec(model="er", n=100, k_avg=5, seed=8)).graph
    for policy in POLICIES:
        for _ in range(30):
            out = run_walk(g, 0, policy, rng)
            path = out.visited_path
            assert len(set(path)) == len(path)
            for a, b in zip(path, path[1:]):
                assert b in g.adj[a]
            if policy is WalkPolicy.STANDARD:
                assert out.steps == len(path) - 1
            else:
                assert out.steps == sum(len(g.adj[v]) for v in path)


def test_walk_consumes_one_draw_per_move():
    class CountingRandom(random.Random):
        draws = 0

        def random(self):
            CountingRandom.draws += 1
            return super().random()

    g = complete_graph(5)
    rng = CountingRandom(7)
    CountingRandom.draws = 0
    out = run_walk(g, 0, WalkPolicy.STANDARD, rng)
    assert CountingRandom.draws == len(out.visited_path) - 1


# --- run_discovery ---------------------------------------------------------------


def test_star_standard_is_coupon_collector():
    g = star_graph(21)
    totals = []
    for seed in range(400):
        _, brain = run_discovery(g, 0, WalkPolicy.STANDARD, random.Random(seed))
        totals.append(brain.cumulative_steps)
        assert brain.walk_count == brain.cumulative_steps  # every walk is 1 step
    mean = statistics.fmean(totals)
    expected = 20 * harmonic(20)
    se = statistics.stdev(totals) / len(totals) ** 0.5
    assert abs(mean - expected) <= 3 * se


@pytest.mark.parametrize("policy", [WalkPolicy.EXTENDED, WalkPolicy.LOOK_AHEAD])
def test_star_priming_covers_in_one_walk(policy):
    g = star_graph(5)
    for seed in range(25):
        curve, brain = run_discovery(g, 0, policy, random.Random(seed), thresholds=[1.0])
        assert brain.walk_count == 1
        assert brain.cumulative_steps == 5
        assert curve.crossings == ((1.0, 5),)


def test_k2_curve_is_single_step():
    g = complete_graph(2)
    curve, _ = run_discovery(g, 0, WalkPolicy.STANDARD, random.Random(0), thresholds=[1.0])
    assert curve.crossings == ((1.0, 1),)


def test_discovery_monotone_knowledge_and_steps():
    g = generate(GeneratorSpec(model="er", n=200, k_avg=6, seed=3)).graph
    curve, brain = run_discovery(g, 0, WalkPolicy.EXTENDED, random.Random(5))
    assert "known" not in vars(brain) and brain.known_mask == b"\x01" * g.n  # the set is built on first read
    assert brain.known == set(range(g.n))
    steps = [s for _, s in curve.crossings]
    assert steps == sorted(steps)
    assert len(curve.crossings) == len(default_thresholds())
    assert brain.cumulative_steps == curve.steps_at(1.0)


@pytest.mark.parametrize("policy", POLICIES)
def test_discovery_terminates_on_standard_menagerie(policy):
    graphs = {
        "P10": path_graph(10),
        "C10": cycle_graph(10),
        "K10": complete_graph(10),
        "S10": star_graph(10),
        "ER": generate(GeneratorSpec(model="er", n=200, k_avg=6, seed=0)).graph,
    }
    for name, g in graphs.items():
        for seed in range(100):
            _, brain = run_discovery(g, 0, policy, random.Random(seed), thresholds=[1.0])
            assert len(brain.known) == g.n, (name, seed)


@pytest.mark.parametrize("policy", POLICIES)
def test_discovery_is_deterministic_per_seed(policy):
    g = generate(GeneratorSpec(model="ws", n=120, k_avg=4, seed=2, p_rewire=0.05)).graph
    a, _ = run_discovery(g, 3, policy, random.Random(77))
    b, _ = run_discovery(g, 3, policy, random.Random(77))
    assert a == b


def test_discovery_stall_guard_fires_on_disconnected_graph():
    g = build_graph(3, [(0, 1)])  # node 2 unreachable: misuse
    with pytest.raises(DiscoveryStallError):
        run_discovery(g, 0, WalkPolicy.STANDARD, random.Random(0), thresholds=[1.0])


def test_discovery_stall_guard_fires_when_cap_blocks_coverage():
    # A degree-sum cap below the brain's degree ends every extended walk
    # after one move, so knowledge saturates at the brain's neighborhood and
    # the pendant chain behind node 1 stays unlearnable. Real non-termination,
    # not misuse: the guard must turn it into a diagnostic error.
    edges = [(0, i) for i in range(1, 11)] + [(1, 11), (11, 12)]
    g = build_graph(13, edges)
    with pytest.raises(DiscoveryStallError, match="no progress"):
        run_discovery(
            g, 0, WalkPolicy.EXTENDED, random.Random(3), step_cap=5, thresholds=[1.0]
        )


def test_discovery_target_fraction_stops_early():
    g = generate(GeneratorSpec(model="er", n=300, k_avg=5, seed=6)).graph
    grid = [0.25, 0.5]
    curve, brain = run_discovery(
        g, 0, WalkPolicy.STANDARD, random.Random(9), thresholds=grid, target_fraction=0.5
    )
    assert len(curve.crossings) == 2
    assert len(brain.known) < g.n


def test_first_walk_distribution_matches_enumeration_smoke():
    # A quick slice of the exhaustive acceptance oracle: C5 and a star seen
    # from a leaf, under each policy, uncapped and with step caps at, below
    # and above the brain's own degree-sum cost.
    cases = [(cycle_graph(5), 0), (star_graph(5), 1)]
    for (g, brain), step_cap, policy in itertools.product(cases, (None, 1, 2, 3, 6), POLICIES):
        exact = exact_first_walk_distribution(g, brain, policy, step_cap=step_cap)
        rng = random.Random(11)
        counts: dict[int, int] = {}
        trials = 4000
        for _ in range(trials):
            out = run_walk(g, brain, policy, rng, step_cap=step_cap)
            counts[out.steps] = counts.get(out.steps, 0) + 1
        assert set(counts) == set(exact), (brain, step_cap, policy)
        for steps, prob in exact.items():
            assert counts.get(steps, 0) / trials == pytest.approx(prob, abs=0.035)


def test_extended_vs_look_ahead_close_on_er_smoke():
    # Desk-scale version of the near-equivalence check; the acceptance suite
    # runs it at n=1000.
    g = generate(GeneratorSpec(model="er", n=300, k_avg=8, seed=14)).graph
    means = {}
    for policy in (WalkPolicy.EXTENDED, WalkPolicy.LOOK_AHEAD):
        vals = []
        for seed in range(30):
            curve, _ = run_discovery(
                g, 0, policy, random.Random(seed), thresholds=[0.9], target_fraction=0.9
            )
            vals.append(curve.steps_at(0.9))
        means[policy] = statistics.fmean(vals)
    gap = abs(means[WalkPolicy.EXTENDED] - means[WalkPolicy.LOOK_AHEAD])
    assert gap / means[WalkPolicy.LOOK_AHEAD] < 0.25


# --- run_discovery against a loop of run_walk -----------------------------------


def reach_cap(g, brain, policy):
    """The largest cost of a BFS-tree path from the brain. A cap of twice this
    binds often, yet lets capped discoveries on the graphs below finish."""
    cost = {brain: 0 if policy is WalkPolicy.STANDARD else g.degree(brain)}
    frontier = [brain]
    while frontier:
        nxt = []
        for u in frontier:
            for w in g.adj[u]:
                if w not in cost:
                    cost[w] = cost[u] + (1 if policy is WalkPolicy.STANDARD else g.degree(w))
                    nxt.append(w)
        frontier = nxt
    return max(cost.values())


ORACLE_GRAPHS = [
    GeneratorSpec(model="er", n=40, k_avg=4, seed=1),
    GeneratorSpec(model="ba", n=40, k_avg=4, seed=2),
    GeneratorSpec(model="ws", n=40, k_avg=4, seed=3, p_rewire=0.1),
]


@pytest.mark.parametrize("capped", [False, True])
@pytest.mark.parametrize("policy", POLICIES)
def test_discovery_matches_loop_of_full_rescan_walks(policy, capped):
    # run_walk starts from a fresh walker, so every departure reports its
    # whole neighbourhood: the reference for the once-per-discovery reports.
    total_cap_hits = 0
    for spec in ORACLE_GRAPHS:
        g = generate(spec).graph
        for seed in range(8):
            brain = seed % g.n
            cap = 2 * reach_cap(g, brain, policy) if capped else None
            rng_a = random.Random(seed)
            _, state = run_discovery(g, brain, policy, rng_a, step_cap=cap, thresholds=[1.0])
            rng_b = random.Random(seed)
            known: set[int] = set()
            walks = steps = cap_hits = 0
            while len(known) < g.n:
                out = run_walk(g, brain, policy, rng_b, step_cap=cap, known=known)
                known |= out.newly_known
                walks += 1
                steps += out.steps
                cap_hits += out.terminated_by is Termination.STEP_CAP
            assert (state.walk_count, state.cumulative_steps, state.cap_hits) == (walks, steps, cap_hits)
            assert state.known == known
            assert rng_a.getstate() == rng_b.getstate()
            total_cap_hits += cap_hits
    assert (total_cap_hits > 0) == capped


def test_discovery_idle_run_on_connected_graph_is_not_a_stall():
    # Draws of 0 always take the first eligible neighbor: every look-ahead
    # walk goes 0 -> 1 -> 5 and learns nothing after the first, so 10 * n
    # idle walks pass by chance. Without a cap on a connected graph progress
    # is certain, and the run must go on until the real draws reach 2-3-4.
    class ZeroesFirst(random.Random):
        calls = 0

        def random(self):
            self.calls += 1
            return 0.0 if self.calls <= 10_000 else super().random()

    g = build_graph(6, [(0, 1), (0, 2), (2, 3), (3, 4), (1, 5)])
    _, brain = run_discovery(g, 0, WalkPolicy.LOOK_AHEAD, ZeroesFirst(1), thresholds=[1.0])
    assert brain.known == set(range(6))
    assert brain.walk_count > 10 * g.n
