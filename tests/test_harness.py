import math
import random
import statistics
import sys
import threading
from dataclasses import fields
from fractions import Fraction

import pytest

from helpers import complete_graph, path_graph, star_graph
from netbrain import (
    AggregationError,
    BetweennessPercentile,
    ConfigError,
    DegreeRankedStride,
    DiscoveryStallError,
    ExperimentConfig,
    ExplicitStarts,
    GeneratorSpec,
    TopHubs,
    WalkCounts,
    WalkPolicy,
    aggregate,
    build_graph,
    derive_seed,
    generate,
    run_discovery,
    run_experiment,
    run_walk,
    select_starts,
    sweep,
)
from netbrain import _native, harness
from netbrain.harness import TaggedCurve


def small_config(**overrides):
    base = dict(
        generator=GeneratorSpec(model="er", n=120, k_avg=6, seed=5),
        policies=(WalkPolicy.STANDARD,),
        start=ExplicitStarts(nodes=(0, 1, 2)),
        repetitions_per_start=2,
        thresholds=(0.5, 1.0),
        master_seed=99,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# --- derive_seed -----------------------------------------------------------


def test_derive_seed_is_stable_and_sensitive():
    a = derive_seed(1, 2, 3)
    assert a == derive_seed(1, 2, 3)
    assert a != derive_seed(1, 2, 4)
    assert a != derive_seed(2, 2, 3)
    assert derive_seed(1, "x") != derive_seed(1, "y")


# --- select_starts -----------------------------------------------------------


def test_stride_on_5000_nodes_gives_100_starts():
    g = generate(GeneratorSpec(model="ba", n=5000, k_avg=4, seed=1)).graph
    starts = select_starts(g, DegreeRankedStride(stride=50), random.Random(0))
    assert len(starts) == 100
    degs = [g.degree(v) for v in starts]
    assert degs[0] == max(g.degrees())
    assert all(a >= b for a, b in zip(degs, degs[1:]))
    # last start sits in the bottom stride of the ranking
    from netbrain import degree_ranked_nodes

    assert starts[-1] in degree_ranked_nodes(g)[4950:]


def test_top_hubs_selects_highest_degrees():
    g = star_graph(6)
    assert select_starts(g, TopHubs(count=1), random.Random(0)) == [0]
    g = generate(GeneratorSpec(model="ba", n=200, k_avg=4, seed=2)).graph
    starts = select_starts(g, TopHubs(count=4), random.Random(0))
    ranked_degs = sorted(g.degrees(), reverse=True)
    assert [g.degree(v) for v in starts] == ranked_degs[:4]


def test_percentile_zero_includes_everyone_subsampled():
    g = generate(GeneratorSpec(model="er", n=300, k_avg=6, seed=3)).graph
    starts = select_starts(g, BetweennessPercentile(min_percentile=0.0), random.Random(4))
    assert len(starts) == 100  # capped
    assert len(set(starts)) == 100
    again = select_starts(g, BetweennessPercentile(min_percentile=0.0), random.Random(4))
    assert starts == again  # deterministic given graph + seed


def test_percentile_filters_by_betweenness():
    from netbrain import betweenness

    g = generate(GeneratorSpec(model="er", n=150, k_avg=5, seed=6)).graph
    starts = select_starts(g, BetweennessPercentile(min_percentile=0.9), random.Random(0))
    values = betweenness(g)
    cutoff = sorted(values)[int(0.9 * g.n)]
    assert all(values[v] >= cutoff for v in starts)
    assert 0 < len(starts) <= 100


def test_explicit_starts_validated():
    g = path_graph(4)
    assert select_starts(g, ExplicitStarts(nodes=(2, 0)), random.Random(0)) == [2, 0]
    with pytest.raises(ConfigError):
        select_starts(g, ExplicitStarts(nodes=(0, 9)), random.Random(0))
    with pytest.raises(ConfigError):
        select_starts(g, ExplicitStarts(nodes=()), random.Random(0))
    with pytest.raises(ConfigError):
        select_starts(g, ExplicitStarts(nodes=(1, 1)), random.Random(0))


# --- run_experiment -------------------------------------------------------------


def test_cell_count_is_policies_times_starts_times_reps():
    cfg = small_config(
        policies=(WalkPolicy.STANDARD, WalkPolicy.EXTENDED),
        start=ExplicitStarts(nodes=(0, 1, 2)),
        repetitions_per_start=5,
    )
    curves = run_experiment(cfg)
    assert len(curves) == 2 * 3 * 5
    tags = {(c.policy, c.start, c.repetition) for c in curves}
    assert len(tags) == 30


def test_policy_names_run_and_aggregate_as_their_members():
    named = run_experiment(small_config(policies=("standard", "look_ahead")))
    members = run_experiment(small_config(policies=(WalkPolicy.STANDARD, WalkPolicy.LOOK_AHEAD)))
    assert named == members
    assert aggregate(named) == aggregate(members)
    assert all(type(c.policy) is WalkPolicy for c in named)
    with pytest.raises(ConfigError, match="unknown policy 'bogus'"):
        small_config(policies=("standard", "bogus"))


@pytest.mark.parametrize("step_cap", [0, -3, 2.5, True])
def test_step_cap_below_one_rejected(step_cap):
    # One rule for configs and for the engine, under both engines; a cap that
    # is not an integer (a bool included) is refused by the same rule.
    with pytest.raises(ConfigError, match="step_cap"):
        small_config(step_cap=step_cap).validate()
    g = path_graph(5)
    with pytest.raises(ConfigError, match="step_cap"):
        run_walk(g, 0, WalkPolicy.STANDARD, random.Random(0), step_cap=step_cap)

    class PythonEngine(random.Random):
        """A subclass selects the Python engine, a plain Random the kernel."""

    for rng in (PythonEngine(0), random.Random(0)):
        with pytest.raises(ConfigError, match="step_cap"):
            run_discovery(g, 0, WalkPolicy.STANDARD, rng, step_cap=step_cap)


def test_run_experiment_is_deterministic():
    cfg = small_config()
    assert run_experiment(cfg) == run_experiment(cfg)


def test_mean_steps_increase_with_threshold():
    cfg = small_config(thresholds=(0.5, 1.0), repetitions_per_start=4)
    curves = run_experiment(cfg)
    mean_half = statistics.fmean(c.curve.steps_at(0.5) for c in curves)
    mean_full = statistics.fmean(c.curve.steps_at(1.0) for c in curves)
    assert mean_full > mean_half


def test_cells_are_independent_of_each_other():
    # Dropping a policy must not change the remaining cells' curves.
    both = run_experiment(small_config(policies=(WalkPolicy.STANDARD, WalkPolicy.EXTENDED)))
    only_ext = run_experiment(small_config(policies=(WalkPolicy.EXTENDED,)))
    # Policy index enters the seed, so compare extended cells by their own index.
    ext_cells_twice = {
        (c.start, c.repetition): c.curve for c in both if c.policy is WalkPolicy.EXTENDED
    }
    for c in only_ext:
        key = (c.start, c.repetition)
        assert key in ext_cells_twice


def engines(monkeypatch, tmp_path):
    """Select each walk engine in turn and yield its name: the kernel, then the
    Python engine of a host without a compiler."""
    yield "native"
    monkeypatch.setattr(_native, "LOADER", _native.Loader(cc="false", cache_dir=tmp_path))
    yield "python"


def test_parallel_workers_match_serial_results(monkeypatch, tmp_path):
    # More workers than cores, and threads switched often, so that cells
    # sharing a graph in a thread pool would show any interference.
    cfg = small_config(repetitions_per_start=3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for engine in engines(monkeypatch, tmp_path):
            assert ("native" if _native.available() else "python") == engine
            serial = run_experiment(cfg, workers=1)
            for workers in (2, 5):
                assert run_experiment(cfg, workers=workers) == serial
    finally:
        sys.setswitchinterval(interval)


def test_netbrain_threads_env_bounds_workers(monkeypatch):
    cfg = small_config(repetitions_per_start=2)
    baseline = run_experiment(cfg)
    monkeypatch.setenv("NETBRAIN_THREADS", "2")
    assert run_experiment(cfg) == baseline
    for env in ("lots", "0", "-3"):
        monkeypatch.setenv("NETBRAIN_THREADS", env)
        with pytest.raises(ConfigError, match="NETBRAIN_THREADS"):
            run_experiment(cfg)
    for workers in (0, -3):
        with pytest.raises(ConfigError, match="workers must be at least 1"):
            run_experiment(cfg, workers=workers)


class _PoolStarted(Exception):
    pass


def test_pool_never_has_more_workers_than_cells(monkeypatch, tmp_path):
    started = []

    def recorder(kind):
        def start(max_workers, **kwargs):
            started.append((kind, max_workers))
            raise _PoolStarted

        return start

    monkeypatch.setattr(harness, "ThreadPoolExecutor", recorder("threads"))
    monkeypatch.setattr(harness, "ProcessPoolExecutor", recorder("processes"))
    monkeypatch.setattr(_native, "_cpu_count", lambda: 3)
    two_cells = small_config(repetitions_per_start=1, start=ExplicitStarts(nodes=(0, 1)))
    four_cells = small_config(repetitions_per_start=2, start=ExplicitStarts(nodes=(0, 1)))
    one_cell = small_config(repetitions_per_start=1, start=ExplicitStarts(nodes=(0,)))
    for _ in engines(monkeypatch, tmp_path):
        for cfg in (two_cells, four_cells):
            with pytest.raises(_PoolStarted):
                run_experiment(cfg, workers=5000)
        # One cell runs in this process, whatever the worker count.
        assert len(run_experiment(one_cell, workers=5000)) == 1
    # The kernel's cells share the graph in threads; Python walks need
    # processes. Either pool has no more workers than cells or CPUs.
    assert started == [("threads", 2), ("threads", 3), ("processes", 2), ("processes", 3)]


def test_a_cell_error_reaches_the_caller_from_either_pool(monkeypatch, tmp_path):
    # A cap below the brain's degree ends every extended walk after one move,
    # so the chain behind node 1 stays unknown and every cell stalls.
    g = build_graph(13, [(0, i) for i in range(1, 11)] + [(1, 11), (11, 12)])
    cfg = small_config(
        policies=(WalkPolicy.EXTENDED,), start=ExplicitStarts(nodes=(0,)), step_cap=5, thresholds=(1.0,)
    )
    for _ in engines(monkeypatch, tmp_path):
        with pytest.raises(DiscoveryStallError, match="no progress"):
            run_experiment(cfg, graph=g, workers=2)


def test_concurrent_serial_experiments_in_threads_do_not_mix():
    # Two threads run serial experiments on different graphs at once; each
    # must get exactly the cells it would get alone.
    cfgs = [
        small_config(generator=GeneratorSpec(model="er", n=150, k_avg=6, seed=s), repetitions_per_start=4)
        for s in (5, 6)
    ]
    expected = [run_experiment(cfg, workers=1) for cfg in cfgs]
    barrier = threading.Barrier(len(cfgs))
    results = [None] * len(cfgs)

    def run(i):
        barrier.wait()
        results[i] = [run_experiment(cfgs[i], workers=1) for _ in range(3)]

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(cfgs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for got, want in zip(results, expected):
        assert got == [want] * 3


def test_start_degree_tag_is_correct():
    g = star_graph(8)
    cfg = small_config(start=ExplicitStarts(nodes=(0, 3)))
    curves = run_experiment(cfg, graph=g)
    for c in curves:
        assert c.start_degree == g.degree(c.start)


# --- aggregate -------------------------------------------------------------------


def _curve_with(steps_by_threshold, policy=WalkPolicy.STANDARD, group="", **tags):
    from netbrain import LearningCurve

    grid = tuple(sorted(steps_by_threshold))
    crossings = tuple((t, steps_by_threshold[t]) for t in grid)
    defaults = dict(start=0, start_degree=1, repetition=0)
    defaults.update(tags)
    return TaggedCurve(
        group=group, policy=policy, curve=LearningCurve(grid, crossings), **defaults
    )


def test_aggregate_single_curve_has_zero_sd():
    aggs = aggregate([_curve_with({0.5: 10, 1.0: 30})])
    assert len(aggs) == 1
    assert aggs[0].mean_steps == (10.0, 30.0)
    assert aggs[0].sd_steps == (0.0, 0.0)
    assert aggs[0].n_samples == 1


def test_aggregate_identical_curves_have_zero_sd():
    c = _curve_with({0.5: 10, 1.0: 30})
    d = _curve_with({0.5: 10, 1.0: 30}, repetition=1)
    aggs = aggregate([c, d])
    assert aggs[0].sd_steps == (0.0, 0.0)
    assert aggs[0].n_samples == 2


def test_aggregate_duplicates_shrink_sd_but_keep_mean():
    a = _curve_with({1.0: 10})
    b = _curve_with({1.0: 30}, repetition=1)
    base = aggregate([a, b])[0]
    doubled = aggregate([a, b, a, b])[0]
    assert doubled.mean_steps == base.mean_steps
    assert doubled.n_samples == 4
    assert doubled.sd_steps == base.sd_steps  # population sd is duplication-invariant


def _is_correctly_rounded_sqrt(root: float, value: Fraction) -> bool:
    """Whether `root` is the float nearest the square root of `value`: the
    root lies between the midpoints to its two float neighbours."""
    below = (Fraction(root) + Fraction(math.nextafter(root, -math.inf))) / 2 if root else 0
    above = (Fraction(root) + Fraction(math.nextafter(root, math.inf))) / 2
    return below * below <= value <= above * above


def _pstdev_columns():
    rng = random.Random(2018)
    columns = [[7], [2**60 + 3], [5] * 9, [2**53 + 1] * 4, [0, 1], [2**53, 2**53 + 1, 2**53 + 2]]
    for top in (10, 10**6, 2**53, 2**53 + 2**20, 2**64, 2**200):
        for size in (1, 2, 3, 40, 97):
            columns.append([rng.randint(0, top) for _ in range(size)])
            columns.append([top - rng.randint(0, 3) for _ in range(size)])  # tiny spread, huge values
    return columns


@pytest.mark.parametrize("column", _pstdev_columns())
def test_pstdev_is_the_correctly_rounded_root_of_the_exact_variance(column):
    n = len(column)
    variance = Fraction(n * sum(x * x for x in column) - sum(column) ** 2, n * n)
    sd = harness._pstdev(column)
    assert type(sd) is float and _is_correctly_rounded_sqrt(sd, variance)
    if sys.version_info >= (3, 11):  # before 3.11, pstdev rounds the variance first
        assert sd == statistics.pstdev(column)
    assert aggregate([_curve_with({1.0: x}, repetition=i) for i, x in enumerate(column)])[0].sd_steps == (sd,)


def test_aggregate_sums_every_counter_per_group():
    a = _curve_with({1.0: 10}, cumulative_steps=10, walk_count=2, moves=5, cap_hits=1)
    b = _curve_with({1.0: 30}, repetition=1, cumulative_steps=30, walk_count=3, moves=7)
    c = _curve_with({1.0: 4}, group="other", cumulative_steps=4, walk_count=1, moves=4)
    by_group = {agg.group: agg for agg in aggregate([a, b, c, a])}  # `a` counts twice
    counters = [f.name for f in fields(WalkCounts)]
    assert [getattr(by_group[""], name) for name in counters] == [50, 7, 17, 2]
    assert [getattr(by_group["other"], name) for name in counters] == [4, 1, 4, 0]
    assert (by_group[""].n_samples, by_group["other"].n_samples) == (3, 1)


def test_aggregate_rejects_mixed_grids():
    a = _curve_with({1.0: 10})
    b = _curve_with({0.5: 5, 1.0: 10}, repetition=1)
    with pytest.raises(AggregationError):
        aggregate([a, b])


def test_aggregate_rejects_uncrossed_thresholds():
    # A library run with a target below the top threshold never crosses it.
    curve, _ = run_discovery(
        path_graph(5), 0, WalkPolicy.STANDARD, random.Random(0), thresholds=(0.4, 1.0), target_fraction=0.4
    )
    assert curve.crossings == ((0.4, 1),)
    tagged = TaggedCurve("", WalkPolicy.STANDARD, start=0, start_degree=1, repetition=0, curve=curve)
    with pytest.raises(AggregationError, match="did not cross every threshold"):
        aggregate([tagged])


def test_aggregate_seeded_er_dispersion():
    cfg = small_config(repetitions_per_start=10, start=ExplicitStarts(nodes=(0,)))
    curves = run_experiment(cfg)
    aggs = aggregate(curves)
    assert aggs[0].n_samples == 10
    assert aggs[0].sd_steps[-1] > 0  # seeds disagree at the 100% threshold


# --- sweep -----------------------------------------------------------------------


def test_k_sweep_steps_decrease_with_degree():
    base = small_config(
        generator=GeneratorSpec(model="er", n=400, k_avg=4, seed=1),
        start=DegreeRankedStride(stride=40),
        repetitions_per_start=3,
        thresholds=(0.9,),
        target_fraction=0.9,
    )
    keyed = sweep(base, "k_avg", [3, 10, 30])
    means = [keyed[k][0].mean_steps[0] for k in (3, 10, 30)]
    assert means[0] > means[1] > means[2]


def test_model_sweep_shares_n_and_k():
    # k must be even so the sweep covers ws too.
    base = small_config(
        generator=GeneratorSpec(model="er", n=200, k_avg=4, seed=1),
        start=ExplicitStarts(nodes=(0,)),
        repetitions_per_start=2,
    )
    keyed = sweep(base, "model", ["er", "ws"])
    assert set(keyed) == {"er", "ws"}
    for aggs in keyed.values():
        assert aggs[0].n_samples == 2
        steps = aggs[0].mean_steps
        assert all(a <= b for a, b in zip(steps, steps[1:]))


def test_hub_degree_sweep_buckets_by_start_degree():
    base = small_config(
        generator=GeneratorSpec(model="ba", n=60, k_avg=4, seed=3),
        start=TopHubs(count=4),
        repetitions_per_start=2,
    )
    keyed = sweep(base, "hub_degree")
    g = generate(base.generator).graph
    hub_degs = sorted({g.degree(v) for v in select_starts(g, TopHubs(count=4), random.Random(0))})
    assert sorted(keyed) == hub_degs
    for degree_value, aggs in keyed.items():
        for a in aggs:
            assert a.group == f"deg={degree_value}"


def test_sweep_rejects_unknown_axis():
    with pytest.raises(ConfigError):
        sweep(small_config(), "voltage", [1, 2])


def test_sweep_refuses_an_edge_list_base():
    with pytest.raises(ConfigError, match="not an edge list"):
        sweep(small_config(generator="net.txt"), "k_avg", [4, 6])


def test_sweep_rejects_invalid_values():
    base = small_config(generator=GeneratorSpec(model="ws", n=100, k_avg=4, seed=1))
    with pytest.raises(ConfigError):
        sweep(base, "p_rewire", [2.0])


@pytest.mark.parametrize(
    "axis, values, named",
    [
        ("p_rewire", [0.1, 0.2, 2.0], "2.0"),
        ("model", ["ws", "er", "nope"], "'nope'"),
        ("k_avg", [4, 4.0, 6], "distinct"),
        ("hub_degree", [999, 12345], "no values"),
    ],
    ids=["p_rewire", "model", "duplicate", "hub_degree"],
)
def test_sweep_checks_every_value_before_running(monkeypatch, axis, values, named):
    calls = []
    monkeypatch.setattr(harness, "run_experiment", lambda *a, **k: calls.append(a) or [])
    base = small_config(generator=GeneratorSpec(model="ws", n=100, k_avg=4, seed=1))
    with pytest.raises(ConfigError, match=named):
        sweep(base, axis, values)
    assert calls == []


def test_sweep_checks_the_base_config_before_running(monkeypatch):
    calls = []
    monkeypatch.setattr(harness, "run_experiment", lambda *a, **k: calls.append(a) or [])
    base = small_config(generator=GeneratorSpec(model="ws", n=100, k_avg=4, seed=1), repetitions_per_start=0)
    for axis, values in (("hub_degree", None), ("k_avg", [4, 6])):
        with pytest.raises(ConfigError, match="repetitions_per_start"):
            sweep(base, axis, values)
    assert calls == []


@pytest.mark.parametrize(
    "generator, axis",
    [
        (GeneratorSpec(model="er", n=120, k_avg=6, seed=5), "p_rewire"),
        (GeneratorSpec(model="er", n=120, k_avg=6, seed=5), "mu"),
        (GeneratorSpec(model="cm", degree_sequence=(3,) * 40, seed=5), "k_avg"),
    ],
    ids=["er-p_rewire", "er-mu", "cm-k_avg"],
)
def test_sweep_rejects_axis_the_model_ignores(generator, axis):
    # These sweeps would run identical graphs under different labels.
    with pytest.raises(ConfigError, match=axis):
        sweep(small_config(generator=generator), axis, [0.01, 0.5])
