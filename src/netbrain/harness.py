"""Declarative experiment runner: start selection, seeded repetitions, sweeps, aggregation."""

from __future__ import annotations

import hashlib
import math
import os
import random
import struct
import sys
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from operator import mul
from statistics import fmean
from typing import Callable, Sequence, Union

from . import _native
from .dynamics import (
    LearningCurve,
    WalkCounts,
    WalkPolicy,
    _walk_counts,
    default_thresholds,
    run_discovery,
    validate_step_cap,
    validate_thresholds,
)
from .errors import AggregationError, ConfigError, ParameterError
from .generators import _MODELS, GeneratorSpec, RealizedStats, generate
from .graph import Graph, betweenness, degree_ranked_nodes

PERCENTILE_START_CAP = 100  # starts drawn above a betweenness percentile
# The crossings an experiment may keep (cells times thresholds). Each kept
# crossing costs about 88 bytes, so this is near 0.9 GB.
_MAX_CROSSINGS = 10_000_000

_MASK64 = (1 << 64) - 1


def derive_seed(master_seed: int, *parts: int | float | str) -> int:
    """Stateless child-seed derivation; cells never share rng state."""
    h = hashlib.blake2b(digest_size=8)
    h.update(struct.pack("<Q", master_seed & _MASK64))
    for part in parts:
        if isinstance(part, str):
            h.update(b"s" + part.encode())
        elif isinstance(part, float):
            h.update(b"f" + struct.pack("<d", part))
        else:
            h.update(b"i" + struct.pack("<q", part))
    return int.from_bytes(h.digest(), "little")


@dataclass(frozen=True)
class DegreeRankedStride:
    """Every stride-th node of the degree-ranked order."""

    stride: int


@dataclass(frozen=True)
class BetweennessPercentile:
    """Uniform sample among nodes at or above a betweenness percentile."""

    min_percentile: float


@dataclass(frozen=True)
class TopHubs:
    """The `count` highest-degree nodes."""

    count: int


@dataclass(frozen=True)
class ExplicitStarts:
    nodes: tuple[int, ...]


StartSelection = Union[DegreeRankedStride, BetweennessPercentile, TopHubs, ExplicitStarts]


def _top_hubs(g: Graph, count: int, rng: random.Random) -> list[int]:
    if count > g.n:
        raise ConfigError(f"hub count must be in [1, {g.n}], got {count}")
    return degree_ranked_nodes(g)[:count]


def _above_percentile(g: Graph, p: float, rng: random.Random) -> list[int]:
    values = betweenness(g)
    cutoff = sorted(values)[min(g.n - 1, int(p * g.n))]
    eligible = [v for v in range(g.n) if values[v] >= cutoff]
    if len(eligible) > PERCENTILE_START_CAP:
        return sorted(rng.sample(eligible, PERCENTILE_START_CAP))
    return eligible


@dataclass(frozen=True)
class _StartKind:
    """One start-selection scheme. `ok` checks its field's value without a graph;
    `pick` resolves a checked value on a graph and rejects what it cannot serve.
    """

    cls: type
    kind: str  # the config file's start.kind
    flag: str  # the --start form: prefix, colon, value
    field: str
    type: object  # the field's config type: int, float or [int]
    ok: Callable[[object], bool]
    rule: str  # what `ok` demands, for the error message
    pick: Callable[[Graph, object, random.Random], list[int]]


_START_KINDS = (
    _StartKind(
        DegreeRankedStride, "degree_stride", "stride:N", "stride", int,
        lambda stride: stride >= 1, "stride must be >= 1",
        lambda g, stride, rng: degree_ranked_nodes(g)[::stride],
    ),
    _StartKind(
        TopHubs, "top_hubs", "hubs:N", "count", int,
        lambda count: count >= 1, "hub count must be >= 1",
        _top_hubs,
    ),
    _StartKind(
        BetweennessPercentile, "betweenness_percentile", "percentile:P", "min_percentile", float,
        lambda p: 0.0 <= p < 1.0, "min_percentile must be in [0, 1)",
        _above_percentile,
    ),
    _StartKind(
        ExplicitStarts, "explicit", "explicit:a,b,c", "nodes", [int],
        lambda nodes: len(nodes) > 0 and min(nodes) >= 0 and len(set(nodes)) == len(nodes),
        "explicit starts must be distinct non-negative nodes, at least one",
        lambda g, nodes, rng: list(nodes),
    ),
)


def _checked_start(selection: StartSelection) -> tuple[_StartKind, object]:
    """The kind of `selection` and its field's value, which passed the graph-free check."""
    for kind in _START_KINDS:
        if type(selection) is kind.cls:
            value = getattr(selection, kind.field)
            if not kind.ok(value):
                raise ConfigError(f"{kind.rule}, got {value}")
            return kind, value
    raise ConfigError(f"unknown start selection {selection!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Full declarative description of one experiment."""

    generator: GeneratorSpec | str  # a model spec, or a path to an edge list
    policies: tuple[WalkPolicy, ...]
    start: StartSelection
    repetitions_per_start: int = 10
    step_cap: int | None = None
    thresholds: tuple[float, ...] = default_thresholds()
    master_seed: int = 0
    target_fraction: float = 1.0

    def __post_init__(self):
        # A plain name is read as its member, and an unknown one is a ConfigError.
        object.__setattr__(self, "policies", tuple(WalkPolicy(p) for p in self.policies))

    def validate(self) -> None:
        if not self.policies:
            raise ConfigError("at least one walk policy is required")
        if self.repetitions_per_start < 1:
            raise ConfigError("repetitions_per_start must be >= 1")
        validate_step_cap(self.step_cap)
        grid = validate_thresholds(self.thresholds)
        if not 0.0 < self.target_fraction <= 1.0:
            raise ConfigError(f"target_fraction must be in (0, 1], got {self.target_fraction}")
        if grid[-1] > self.target_fraction + 1e-12:
            raise ConfigError(
                "threshold grid extends beyond target_fraction; the top thresholds "
                "would never be crossed"
            )
        _checked_start(self.start)
        if isinstance(self.generator, GeneratorSpec):
            self.generator.validate()


@dataclass(frozen=True)
class TaggedCurve(WalkCounts):
    """One learning curve with full provenance, and the counters of its discovery."""

    group: str
    policy: WalkPolicy
    start: int
    start_degree: int
    repetition: int
    curve: LearningCurve


@dataclass(frozen=True)
class AggregateCurve(WalkCounts):
    """Per-threshold mean and standard deviation over a group of curves, and
    the sum of their counters."""

    group: str
    policy: WalkPolicy
    thresholds: tuple[float, ...]
    mean_steps: tuple[float, ...]
    sd_steps: tuple[float, ...]
    n_samples: int


def select_starts(g: Graph, selection: StartSelection, rng: random.Random) -> list[int]:
    """Resolve a start-selection scheme to concrete node ids."""
    kind, value = _checked_start(selection)
    starts = kind.pick(g, value, rng)
    if not starts:
        raise ConfigError(f"start selection {selection!r} chose no nodes")
    if max(starts) >= g.n:
        raise ConfigError(f"start node {max(starts)} outside [0, {g.n})")
    return starts


def resolve_graph(cfg: ExperimentConfig) -> tuple[Graph, RealizedStats | None]:
    if isinstance(cfg.generator, GeneratorSpec):
        result = generate(cfg.generator)
        return result.graph, result.stats
    from .fileio import ingest_edge_list  # deferred to avoid an import cycle

    g, _, _ = ingest_edge_list(cfg.generator)
    return g, None


def _run_cell(
    g: Graph, cfg: ExperimentConfig, starts: list[int], group: str, cell: tuple[int, int, int]
) -> TaggedCurve:
    pi, si, ri = cell
    policy = cfg.policies[pi]
    start = starts[si]
    curve, brain = run_discovery(
        g,
        start,
        policy,
        random.Random(derive_seed(cfg.master_seed, pi, si, ri)),
        step_cap=cfg.step_cap,
        thresholds=cfg.thresholds,
        target_fraction=cfg.target_fraction,
    )
    return TaggedCurve(
        group=group,
        policy=policy,
        start=start,
        start_degree=g.degree(start),
        repetition=ri,
        curve=curve,
        **_walk_counts(brain),
    )


def _worker_count(workers: int | None) -> int:
    """`workers`, else NETBRAIN_THREADS, else 1; a count below 1 is an error."""
    name = "workers"
    if workers is None:
        env = os.environ.get("NETBRAIN_THREADS")
        if not env:
            return 1
        try:
            workers = int(env)
        except ValueError:
            raise ConfigError(f"NETBRAIN_THREADS must be an integer, got {env!r}")
        name = "NETBRAIN_THREADS"
    if workers < 1:
        raise ConfigError(f"{name} must be at least 1, got {workers}")
    return workers


def _pool_size(workers: int, ncells: int) -> int:
    """The workers that a run of `ncells` cells starts when `workers` are
    asked for: no more than its cells, nor than the CPUs the process may
    use, since the results are the same at any count."""
    return min(workers, ncells, _native._cpu_count())


def run_experiment(
    cfg: ExperimentConfig,
    graph: Graph | None = None,
    group: str = "",
    workers: int | None = None,
) -> list[TaggedCurve]:
    """Run one discovery per (policy, start, repetition) cell.

    Child seeds are derived statelessly from (master_seed, cell indices), so
    cells are independent and the result is the same at any parallelism.
    `workers` defaults to NETBRAIN_THREADS or 1, and the pool never exceeds
    the cell count or the CPUs the process may use (`_pool_size`). With the
    native kernel the cells run in threads that share the graph; with the
    Python engine, in worker processes. A run whose curves
    would keep more than `_MAX_CROSSINGS` crossings (cells times thresholds)
    raises `ConfigError` before any walk.
    """
    cfg.validate()
    if graph is None:
        graph, _ = resolve_graph(cfg)
    starts = select_starts(
        graph, cfg.start, random.Random(derive_seed(cfg.master_seed, "starts"))
    )
    ncells = len(cfg.policies) * len(starts) * cfg.repetitions_per_start
    if ncells * len(cfg.thresholds) > _MAX_CROSSINGS:
        raise ConfigError(
            f"{ncells:,} cells of {len(cfg.thresholds)} thresholds would keep "
            f"{ncells * len(cfg.thresholds):,} crossings, above the bound of {_MAX_CROSSINGS:,}; "
            "lower the repetitions, starts or thresholds"
        )
    cells = [
        (pi, si, ri)
        for pi in range(len(cfg.policies))
        for si in range(len(starts))
        for ri in range(cfg.repetitions_per_start)
    ]
    run_cell = partial(_run_cell, graph, cfg, starts, group)
    nworkers = _pool_size(_worker_count(workers), len(cells))  # a pool starts every worker up front
    if nworkers <= 1:
        return [run_cell(c) for c in cells]
    # The kernel releases the GIL, so threads share the graph; Python walks need processes.
    executor = ThreadPoolExecutor if _native.available() else ProcessPoolExecutor
    with executor(max_workers=nworkers) as pool:
        chunksize = max(1, len(cells) // (4 * nworkers))  # processes only; threads ignore it
        return list(pool.map(run_cell, cells, chunksize=chunksize))


def aggregate(curves: Sequence[TaggedCurve]) -> list[AggregateCurve]:
    """Per-(group tag, policy), per-threshold mean and standard deviation of steps.

    All curves must share one threshold grid. Duplicated inputs count as
    extra samples, in `n_samples` and in the group's counter sums.
    """
    if not curves:
        return []
    grid = curves[0].curve.thresholds
    groups: dict[tuple[str, WalkPolicy], list[TaggedCurve]] = {}
    for c in curves:
        if c.curve.thresholds != grid:
            raise AggregationError("curves mix different threshold grids")
        groups.setdefault((c.group, c.policy), []).append(c)
    out = []
    for (label, policy), members in sorted(groups.items(), key=lambda kv: (kv[0][0], kv[0][1].value)):
        columns = list(zip(*(tuple(s for _, s in c.curve.crossings) for c in members)))
        if len(columns) != len(grid):
            raise AggregationError("curves did not cross every threshold in the grid")
        means = tuple(fmean(col) for col in columns)
        sds = tuple(_pstdev(col) for col in columns)
        out.append(
            AggregateCurve(
                group=label,
                policy=policy,
                thresholds=grid,
                mean_steps=means,
                sd_steps=sds,
                n_samples=len(members),
                **_walk_counts(*members),
            )
        )
    return out


_SQRT_BITS = 2 * sys.float_info.mant_dig + 3  # bits of the scaled variance whose root is taken


def _pstdev(col: Sequence[int]) -> float:
    """`statistics.pstdev` of integers, as CPython 3.11 and later compute it,
    without its exact fractions.

    The population variance of n integers is the exact fraction
    (n * sum(x**2) - sum(x)**2) / n**2. Its square root is rounded once to
    the nearest float, by the integer method of CPython's
    `statistics._float_sqrt_of_frac`: the fraction, scaled by a power of 4
    to about `_SQRT_BITS` bits, has its integer square root rounded to odd,
    and one division by the matching power of 2 rounds that to a float.
    """
    n = len(col)
    s = sum(col)
    num = n * sum(map(mul, col, col)) - s * s
    den = n * n
    q = (num.bit_length() - den.bit_length() - _SQRT_BITS) // 2
    if q >= 0:
        return float(_isqrt_round_to_odd(num, den << 2 * q) << q)
    return _isqrt_round_to_odd(num << -2 * q, den) / (1 << -q)


def _isqrt_round_to_odd(num: int, den: int) -> int:
    """The square root of num / den, truncated, with its last bit set when inexact."""
    root = math.isqrt(num // den)
    return root | (root * root * den != num)


def sweep(
    base: ExperimentConfig,
    axis: str,
    values: Sequence | None = None,
    workers: int | None = None,
) -> dict[object, list[AggregateCurve]]:
    """Run the experiment across an axis, with independent seeds per value.

    The axis `model` or a number parameter of the base model (such as k_avg,
    or p_rewire for ws) re-generates the network per value; the hub_degree
    axis takes no values, runs the base config once and buckets curves by the
    exact degree of their start node.
    """
    base.validate()
    if axis == "hub_degree":
        if values is not None:
            raise ConfigError(f"a hub_degree sweep takes no values, got {values!r}")
        buckets: dict[object, list[TaggedCurve]] = {}
        for c in run_experiment(base, workers=workers):
            buckets.setdefault(c.start_degree, []).append(c)
        return {d: aggregate([replace(c, group=f"deg={d}") for c in buckets[d]]) for d in sorted(buckets)}
    if not isinstance(base.generator, GeneratorSpec):
        raise ConfigError("generator sweeps require a model spec, not an edge list")
    model = base.generator.model
    axes = ("model", "hub_degree", *(f for f in _MODELS[model].fields if f != "degree_sequence"))
    if axis not in axes:
        raise ConfigError(f"sweep axis {axis!r} is not a parameter of {model}; expected one of {axes}")
    if not values or len(set(values)) != len(values):  # each value keys one result
        raise ConfigError(f"sweep needs distinct axis values, got {values!r}")
    seed = base.master_seed
    cfgs = []  # every value is checked before the first experiment runs
    for i, value in enumerate(values):
        spec = replace(base.generator, **{axis: value}, seed=derive_seed(seed, "sweep-gen", axis, i))
        try:
            spec.validate()
        except ParameterError as exc:
            raise ConfigError(f"sweep value {value!r} invalid for axis {axis}: {exc}") from exc
        cfgs.append(replace(base, generator=spec, master_seed=derive_seed(seed, "sweep-run", axis, i)))
    return {
        value: aggregate(run_experiment(cfg, group=f"{axis}={value}", workers=workers))
        for value, cfg in zip(values, cfgs)
    }
