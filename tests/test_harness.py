import math
import random
import re
import statistics
import sys
import threading
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest

import netbrain.generators
from helpers import complete_graph, cycle_graph, path_graph, star_graph
from netbrain import (
    AggregationError,
    BetweennessPercentile,
    ConfigError,
    DegreeRankedStride,
    DiscoveryStallError,
    ExperimentConfig,
    ExplicitStarts,
    GeneratorSpec,
    NetbrainError,
    ParameterError,
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


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5, True, 5.0, "5"])
def test_master_seed_outside_64_bits_refused(seed):
    # derive_seed packs 64 bits: 2**64 + 5 would alias 5.
    rule = r"in \[0, 2\*\*64\)" if type(seed) is int else f"got {seed!r}"
    with pytest.raises(ConfigError, match=rf"master_seed must be an integer,? {rule}"):
        small_config(master_seed=seed)
    small_config(master_seed=0)
    small_config(master_seed=2**64 - 1)
    assert small_config(master_seed=np.uint64(2**64 - 1)).master_seed == 2**64 - 1


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


def test_configs_check_themselves_when_built_or_replaced():
    cfg = small_config()
    for changes, named in (
        ({"repetitions_per_start": 0}, "repetitions_per_start must be >= 1"),
        ({"target_fraction": 10**400}, "target_fraction must be in"),
        ({"target_fraction": -(10**400)}, "target_fraction must be in"),
        ({"thresholds": (0.5, 10**400)}, r"thresholds must lie in \(0, 1\]"),
        ({"start": BetweennessPercentile(10**400)}, r"min_percentile must be in \[0, 1\)"),
        ({"policies": ()}, "at least one walk policy"),
        ({"policies": ("standard", WalkPolicy.STANDARD)}, "policies must be distinct, got standard, standard"),
        ({"repetitions_per_start": True}, "repetitions_per_start must be an integer, got True"),
        ({"repetitions_per_start": 1.5}, "repetitions_per_start must be an integer, got 1.5"),
    ):
        with pytest.raises(ConfigError, match=named):
            replace(cfg, **changes)
    for n in (10**400, 2**31):  # checked before n meets a float; no Graph holds 2**31 nodes
        with pytest.raises(ParameterError, match=r"need n < 2\*\*31, got"):
            replace(cfg.generator, n=n)
    with pytest.raises(ConfigError, match="sweep value"):
        sweep(cfg, "n", [120, 10**400])


def test_specs_refuse_bools_and_non_integers_and_take_numpy_integers():
    spec = GeneratorSpec(model="er", n=30, k_avg=4, seed=1)
    for changes, named in (
        ({"n": 30.0}, "n must be an integer, got 30.0"),
        ({"seed": True}, "seed must be an integer, got True"),
        ({"blocks": 2.5}, "blocks must be an integer, got 2.5"),  # checked though er ignores it
        ({"k_avg": True}, "k_avg must be a number, got True"),
        ({"mu": "0.1"}, "mu must be a number, got '0.1'"),
        ({"model": "cm", "degree_sequence": (2, 2.0, 2)}, "degree_sequence must be a sequence of integers"),
        ({"model": "cm", "degree_sequence": (1, True)}, "degree_sequence must be a sequence of integers"),
    ):
        with pytest.raises(ParameterError, match=named):
            replace(spec, **changes)
    numpy_spec = replace(spec, n=np.int64(30), k_avg=np.float64(4), seed=np.uint8(1))
    assert generate(numpy_spec).graph == generate(spec).graph
    cm = GeneratorSpec(model="cm", degree_sequence=(3,) * 8, seed=1)
    assert generate(replace(cm, degree_sequence=tuple(np.full(8, 3, dtype=np.int32)))) == generate(cm)
    cfg = small_config()
    assert run_experiment(replace(cfg, repetitions_per_start=np.int64(2))) == run_experiment(
        replace(cfg, repetitions_per_start=2)
    )


def test_configs_keep_the_values_they_checked():
    cfg = small_config(policies=["look_ahead"], thresholds=[1], target_fraction=1)
    assert cfg.policies == (WalkPolicy.LOOK_AHEAD,)
    assert cfg.thresholds == (1.0,) and type(cfg.thresholds[0]) is float
    assert type(cfg.target_fraction) is float
    assert replace(cfg) == cfg


@pytest.mark.parametrize(
    "changes, named",
    [
        ({"start": TopHubs(True)}, "start.count must be an integer, got True"),
        ({"start": DegreeRankedStride(2.5)}, "start.stride must be an integer, got 2.5"),
        ({"start": ExplicitStarts((1.5, 2))}, "start.nodes must be a sequence of integers, got 1.5 in it"),
        ({"start": BetweennessPercentile("x")}, "start.min_percentile must be a number, got 'x'"),
        ({"generator": 5}, "edge_list must be a string, got 5"),
        ({"thresholds": (True,)}, "thresholds must be a sequence of numbers, got True in it"),
        ({"thresholds": ("a",)}, "thresholds must be a sequence of numbers, got 'a' in it"),
        ({"target_fraction": True}, "target_fraction must be a number, got True"),
        ({"policies": 5}, "policies must be a sequence of strings, got 5"),
        ({"step_cap": np.bool_(True)}, "step_cap must be an integer, got"),
    ],
)
def test_configs_refuse_a_mistyped_field_when_built(changes, named):
    with pytest.raises(ConfigError, match=re.escape(named)):
        small_config(**changes)


def test_configs_keep_numpy_scalars_as_python_values():
    cfg = small_config(
        start=ExplicitStarts((np.int64(0), np.uint8(1))), repetitions_per_start=np.int32(2),
        step_cap=np.int64(500), master_seed=np.uint64(99), thresholds=(np.float32(0.5), 1),
    )
    plain = small_config(start=ExplicitStarts((0, 1)), step_cap=500)
    assert cfg == plain
    assert {type(v) for v in (*cfg.start.nodes, cfg.repetitions_per_start, cfg.step_cap, cfg.master_seed)} == {int}
    assert run_experiment(cfg) == run_experiment(plain)
    assert small_config(start=BetweennessPercentile(np.float32(0.5))).start == BetweennessPercentile(0.5)
    with pytest.raises(ConfigError, match="sweep.values must be a sequence of integers, got 5"):
        sweep(small_config(), "n", 5)


# What a record field, or an item of one, becomes in the record fuzz: bools,
# floats, strings, nothing, empty lists, an integer no float holds; then
# numpy scalars drawn by `record_mutants`.
RECORD_MUTANTS = [True, False, np.bool_(False), 1.5, float("nan"), "x", "3", None, [], (), 10**400, -(10**400)]
FUZZ_SPECS = [
    GeneratorSpec(model="er", n=30, k_avg=4, seed=1),
    GeneratorSpec(model="ba", n=30, k_avg=4, seed=2),
    GeneratorSpec(model="cm", degree_sequence=(2, 3, 3, 2, 2, 2, 1, 1, 2, 2), seed=3),
    GeneratorSpec(model="ws", n=30, k_avg=4, p_rewire=0.1, seed=4),
    GeneratorSpec(model="waxman", n=30, k_avg=4, alpha=0.5, seed=5),
    GeneratorSpec(model="sbm", n=30, k_avg=4, blocks=2, mu=0.02, seed=6),
]


def record_mutants(rng: random.Random) -> list:
    return RECORD_MUTANTS + [
        np.int64(rng.randrange(-2, 40)), np.int32(rng.randrange(0, 9)), np.uint8(rng.randrange(0, 4)),
        np.float64(rng.random()), np.float32(rng.uniform(0, 8)),
    ]


def record_cases(rng: random.Random):
    """(what, build) for every field of every spec model, config field and start
    kind, and every item of a sequence field, replaced by each mutant."""
    for spec in FUZZ_SPECS:
        for f in fields(GeneratorSpec):
            for m in record_mutants(rng):
                yield (spec.model, f.name, m), lambda f=f, m=m, spec=spec: small_config(
                    generator=replace(spec, **{f.name: m}), start=ExplicitStarts((0,)))
    base = small_config(start=ExplicitStarts((0, 1)), policies=("standard", "look_ahead"))
    for f in fields(ExperimentConfig):
        value = getattr(base, f.name)
        for m in record_mutants(rng):
            yield ("config", f.name, m), lambda f=f, m=m: replace(base, **{f.name: m})
            if isinstance(value, tuple):
                items = (m, *value[1:])
                yield ("config", f.name, "item", m), lambda f=f, items=items: replace(base, **{f.name: items})
    for cls in (DegreeRankedStride, TopHubs, BetweennessPercentile):
        for m in record_mutants(rng):
            yield (cls.__name__, m), lambda cls=cls, m=m: replace(base, start=cls(m))
    for m in record_mutants(rng):
        yield ("ExplicitStarts", m), lambda m=m: replace(base, start=ExplicitStarts(m))
        yield ("ExplicitStarts", "item", m), lambda m=m: replace(base, start=ExplicitStarts((0, m)))


def test_mutated_records_run_or_raise_one_netbrain_error(monkeypatch):
    # No mutant may build a large graph or run many cells.
    monkeypatch.setattr(netbrain.generators, "_MAX_EDGES", 1000)
    monkeypatch.setattr(harness, "_MAX_CROSSINGS", 2000)
    graph = cycle_graph(12)
    broken = []
    for what, build in record_cases(random.Random(2018)):  # drawn once
        bool_mutant = isinstance(what[-1], (bool, np.bool_))
        try:
            cfg = build()
            assert not bool_mutant, "a bool was taken"
            run_experiment(cfg, graph=None if isinstance(cfg.generator, GeneratorSpec) else graph)
        except NetbrainError:
            pass
        except Exception as exc:  # the fault the fuzz looks for
            broken.append((what, f"{type(exc).__name__}: {exc}"[:200]))
    assert not broken, broken[:5]


def test_configs_bound_crossings_for_one_start(monkeypatch):
    # One policy x repetitions x 2 thresholds: the fewest crossings any run of them keeps.
    with pytest.raises(ConfigError, match=r"2,000,000,000 crossings, above the bound of 10,000,000"):
        small_config(repetitions_per_start=10**9)
    monkeypatch.setattr(harness, "_MAX_CROSSINGS", 4)
    small_config(repetitions_per_start=2)  # 1 x 2 x 2 crossings: at the bound
    with pytest.raises(ConfigError, match="6 crossings, above the bound of 4"):
        small_config(repetitions_per_start=3)


@pytest.mark.parametrize("step_cap", [0, -3, 2.5, True])
def test_step_cap_below_one_rejected(step_cap):
    # One rule for configs and for the engine, under both engines; a cap that
    # is not an integer (a bool included) is refused by the same rule.
    with pytest.raises(ConfigError, match="step_cap"):
        small_config(step_cap=step_cap)
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


def test_workers_below_one_are_refused():
    cfg = small_config(repetitions_per_start=2)
    for workers in (0, -3):
        with pytest.raises(ConfigError, match="workers must be at least 1"):
            run_experiment(cfg, workers=workers)


class _PoolStarted(Exception):
    pass


def test_pool_never_has_more_workers_than_cells(monkeypatch, tmp_path):
    started = []

    def start(max_workers):
        started.append(max_workers)
        raise _PoolStarted

    monkeypatch.setattr(_native, "ThreadPoolExecutor", start)
    monkeypatch.setattr(_native, "_cpu_count", lambda: 3)
    two_cells = small_config(repetitions_per_start=1, start=ExplicitStarts(nodes=(0, 1)))
    four_cells = small_config(repetitions_per_start=2, start=ExplicitStarts(nodes=(0, 1)))
    one_cell = small_config(repetitions_per_start=1, start=ExplicitStarts(nodes=(0,)))
    for engine in engines(monkeypatch, tmp_path):
        for cfg in (two_cells, four_cells):
            if engine == "native":
                with pytest.raises(_PoolStarted):
                    run_experiment(cfg, workers=5000)
            else:  # Python walks hold the GIL: the cells run in this process
                assert run_experiment(cfg, workers=5000) == run_experiment(cfg, workers=1)
        # One cell runs in this process, whatever the worker count.
        assert len(run_experiment(one_cell, workers=5000)) == 1
    # The kernel's cells share the graph in threads, no more than cells or CPUs.
    assert started == [2, 3]


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
    # A hand-built curve on an empty grid gives a record with empty tuples.
    (empty,) = aggregate([_curve_with({})])
    assert (empty.thresholds, empty.mean_steps, empty.sd_steps, empty.n_samples) == ((), (), (), 1)


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


def _nearest_root(value: Fraction) -> float:
    """The float nearest the square root of `value`, stepped to from
    `math.sqrt`'s guess one float at a time."""
    root = math.sqrt(value)
    while not _is_correctly_rounded_sqrt(root, value):
        root = math.nextafter(root, math.inf if Fraction(root) ** 2 < value else -math.inf)
    return root


def _exact_variance(column) -> Fraction:
    n = len(column)
    return Fraction(n * sum(x * x for x in column) - sum(column) ** 2, n * n)


def _reference_aggregates(curves):
    """`aggregate`'s records, from `statistics.fmean` and the exact root of
    each column's variance: a second derivation, not the sink's sums."""
    groups = {}
    for c in curves:
        groups.setdefault((c.group, c.policy.value), []).append(c)
    out = []
    for _, members in sorted(groups.items()):
        columns = list(zip(*(tuple(s for _, s in c.curve.crossings) for c in members)))
        out.append(
            harness.AggregateCurve(
                group=members[0].group,
                policy=members[0].policy,
                thresholds=members[0].curve.thresholds,
                mean_steps=tuple(statistics.fmean(col) for col in columns),
                sd_steps=tuple(_nearest_root(_exact_variance(col)) for col in columns),
                n_samples=len(members),
                **{f.name: sum(getattr(m, f.name) for m in members) for f in fields(WalkCounts)},
            )
        )
    return out


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
    (agg,) = aggregate([_curve_with({1.0: x}, repetition=i) for i, x in enumerate(column)])
    (sd,) = agg.sd_steps
    assert type(sd) is float and _is_correctly_rounded_sqrt(sd, _exact_variance(column))
    if sys.version_info >= (3, 11):  # before 3.11, pstdev rounds the variance first
        assert sd == statistics.pstdev(column)
    assert agg.mean_steps == (statistics.fmean(column),)


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


def _uncrossed():
    """A library run with a target below the top threshold never crosses it."""
    curve, _ = run_discovery(
        path_graph(5), 0, WalkPolicy.STANDARD, random.Random(0), thresholds=(0.4, 1.0), target_fraction=0.4
    )
    assert curve.crossings == ((0.4, 1),)
    return TaggedCurve("", WalkPolicy.STANDARD, start=0, start_degree=1, repetition=0, curve=curve)


def test_aggregate_rejects_uncrossed_thresholds():
    with pytest.raises(AggregationError, match="did not cross every threshold"):
        aggregate([_uncrossed()])


def test_aggregate_reports_the_first_fault_in_curve_order():
    # A list with both a grid other than the first curve's and an uncrossed
    # threshold: the curves are checked one by one as they are summed.
    other_grid = _curve_with({1.0: 10})
    with pytest.raises(AggregationError, match="did not cross every threshold"):
        aggregate([_uncrossed(), other_grid])
    with pytest.raises(AggregationError, match="mix different threshold grids"):
        aggregate([other_grid, _uncrossed()])


def test_aggregate_refuses_more_crossings_than_the_grid():
    # Extra crossings are refused even beside a curve that has the grid's count.
    from netbrain import LearningCurve

    extra = replace(_curve_with({1.0: 10}), curve=LearningCurve((1.0,), ((0.5, 4), (1.0, 10))))
    with pytest.raises(AggregationError, match="did not cross every threshold"):
        aggregate([_curve_with({1.0: 10}), extra])


def test_sink_aggregates_equal_aggregate():
    # `aggregate`, `_Sink` and its `group=` relabel against fmean and the
    # exact root: means above 2**53 too, where a plain integer sum would not
    # give fmean's bits (its column's fmean is ...661.0, not ...663.0).
    columns = [[2**53 + 1, 2**53 + 1, 1], [7, 7, 7], [2**60 + 3, 5, 2**53]]
    curves = [
        _curve_with({0.5: a, 1.0: b}, policy=policy, group=group, repetition=i,
                    cumulative_steps=b, walk_count=i + 1, moves=a % 97, cap_hits=i % 2)
        for group in ("x", "")
        for policy in (WalkPolicy.STANDARD, WalkPolicy.LOOK_AHEAD)
        for i, (a, b) in enumerate(zip(*columns[:2]))
    ]
    curves += [_curve_with({0.5: x, 1.0: x}, group="y", repetition=i) for i, x in enumerate(columns[2])]
    expected = _reference_aggregates(curves)
    assert expected[0].mean_steps[0] == statistics.fmean(columns[0]) != float(sum(columns[0])) / 3
    assert aggregate(curves) == expected
    assert harness._Sink().drain(curves).aggregates() == expected
    relabelled = harness._Sink(group="z").drain(curves[:6]).aggregates()
    assert relabelled == _reference_aggregates([replace(c, group="z") for c in curves[:6]])


def test_sink_refuses_what_aggregate_refuses():
    with pytest.raises(AggregationError, match="mix different threshold grids"):
        harness._Sink().drain([_curve_with({1.0: 10}), _curve_with({0.5: 5, 1.0: 10}, repetition=1)])
    with pytest.raises(AggregationError, match="did not cross every threshold"):
        harness._Sink().add(_uncrossed())


def test_sweeps_sum_what_aggregate_gives():
    # A value sweep and a hub_degree sweep, against fmean and the exact root
    # over the lists that run_experiment returns, bucketed as the sweeps
    # bucket them.
    base = small_config(
        generator=GeneratorSpec(model="ba", n=120, k_avg=4, seed=5),
        policies=(WalkPolicy.STANDARD, WalkPolicy.EXTENDED),
        start=DegreeRankedStride(stride=15),
    )
    buckets = {}
    for c in run_experiment(base):
        buckets.setdefault(c.start_degree, []).append(replace(c, group=f"deg={c.start_degree}"))
    assert len(buckets) > 2
    assert sweep(base, "hub_degree") == {d: _reference_aggregates(buckets[d]) for d in sorted(buckets)}
    values = [3, 6]
    cfgs = harness._sweep_configs(base, "k_avg", values)
    expected = {v: _reference_aggregates(run_experiment(cfg, group=f"k_avg={v}")) for v, cfg in zip(values, cfgs)}
    assert sweep(base, "k_avg", values) == expected


def test_cells_come_in_output_order_with_their_config_seeds():
    # Policies and starts out of order in the config: the curves come sorted
    # by policy name, start and repetition, and each cell keeps the seed of
    # its config indices.
    cfg = small_config(
        policies=(WalkPolicy.STANDARD, WalkPolicy.LOOK_AHEAD, WalkPolicy.EXTENDED),
        start=ExplicitStarts(nodes=(7, 2, 5)),
    )
    g = generate(cfg.generator).graph
    curves = run_experiment(cfg, graph=g)
    keys = [(c.policy.value, c.start, c.repetition) for c in curves]
    assert keys == sorted(keys) and len(set(keys)) == 3 * 3 * 2
    for c in curves:
        pi, si = cfg.policies.index(c.policy), cfg.start.nodes.index(c.start)
        assert c == harness._run_cell(g, cfg, list(cfg.start.nodes), "", (pi, si, c.repetition))


class _Inline:
    """A thread pool stand-in that runs each call when its result is read, and
    records the calls run and those submitted and neither read nor cancelled:
    at most, and when the pool shuts down."""

    def __init__(self):
        self.pending = self.most = 0
        self.ran = []
        self.at_shutdown = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.at_shutdown = self.pending

    def submit(self, fn, item):
        self.pending += 1
        self.most = max(self.most, self.pending)
        pool = self

        class Future:
            def result(self):
                pool.pending -= 1
                pool.ran.append(item)
                return fn(item)

            def cancel(self):
                pool.pending -= 1

        return Future()


def test_pools_keep_a_bounded_window_in_order(monkeypatch):
    pools = []

    def start(threads):
        pools.append(_Inline())
        return pools[-1]

    monkeypatch.setattr(_native, "ThreadPoolExecutor", start)
    stream = _native._in_order(lambda x: x * x, iter(range(100)), 2)
    assert [next(stream) for _ in range(10)] == [x * x for x in range(10)]
    (pool,) = pools
    assert pool.most == 4  # two calls a thread; Executor.map would have submitted all 100
    stream.close()  # an early stop cancels what was submitted and not read...
    assert pool.at_shutdown == 0  # ...before the pool's shutdown, which would run it
    assert pool.ran == list(range(10))
    # One thread runs the calls here, one at a time, with no pool.
    assert list(_native._in_order(lambda x: x * x, iter(range(5)), 1)) == [0, 1, 4, 9, 16]
    assert len(pools) == 1


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
    # The base config refuses itself when built, so no sweep of it starts.
    calls = []
    monkeypatch.setattr(harness, "run_experiment", lambda *a, **k: calls.append(a) or [])
    spec = GeneratorSpec(model="ws", n=100, k_avg=4, seed=1)
    for axis, values in (("hub_degree", None), ("k_avg", [4, 6])):
        with pytest.raises(ConfigError, match="repetitions_per_start"):
            sweep(small_config(generator=spec, repetitions_per_start=0), axis, values)
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
