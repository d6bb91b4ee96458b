"""Declarative experiment runner: start selection, seeded repetitions, sweeps, aggregation."""

from __future__ import annotations

import hashlib
import math
import random
import struct
import sys
from dataclasses import dataclass, replace
from functools import partial
from itertools import product
from operator import add, mul
from typing import Callable, Iterable, Iterator, Sequence, Union

from . import _native
from .dynamics import (
    _COUNTERS,
    LearningCurve,
    WalkCounts,
    WalkPolicy,
    _walk_counts,
    default_thresholds,
    run_discovery,
    validate_step_cap,
    validate_target_fraction,
    validate_thresholds,
)
from .errors import AggregationError, ConfigError, ParameterError, _typed
from .generators import _FIELD_TYPES, _MODELS, GeneratorSpec, RealizedStats, generate
from .graph import Graph, betweenness, degree_ranked_nodes

PERCENTILE_START_CAP = 100  # starts drawn above a betweenness percentile
# The crossings an experiment may have (cells times thresholds). `netbrain
# run` and `sweep` consume each cell as it finishes, so their memory does not
# grow with the crossings: 9.0M crossings (er n=200, 90,000 cells) peaked at
# 37 MB RSS, as 1.8M did (2-CPU Xeon). The list that `run_experiment`
# returns still keeps every curve, about 90 bytes a crossing, so near 0.9 GB
# at this bound.
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
    type: object  # the field's type: int, float or [int]
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
    """The kind of `selection` and its field's value, typed, which passed the graph-free check."""
    for kind in _START_KINDS:
        if type(selection) is kind.cls:
            value = _typed(getattr(selection, kind.field), kind.type, f"start.{kind.field}")
            if not kind.ok(value):
                raise ConfigError(f"{kind.rule}, got {value}")
            return kind, float(value) if kind.type is float else value  # after ok(): float() can overflow
    raise ConfigError(f"unknown start selection {selection!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Full declarative description of one experiment, checked when built or replaced. It keeps what
    it checked: policies as members, integers as Python ints, thresholds and fraction as floats."""

    generator: GeneratorSpec | str  # a model spec, or a path to an edge list
    policies: tuple[WalkPolicy, ...]
    start: StartSelection
    repetitions_per_start: int = 10
    step_cap: int | None = None
    thresholds: tuple[float, ...] = default_thresholds()
    master_seed: int = 0
    target_fraction: float = 1.0

    def __post_init__(self):
        if not isinstance(self.generator, GeneratorSpec):  # a path, as a config's edge_list
            _typed(self.generator, str, "edge_list")
        for name, kind in _CONFIG_TYPES.items():
            object.__setattr__(self, name, _typed(getattr(self, name), kind, name))
        kind, value = _checked_start(self.start)
        object.__setattr__(self, "start", kind.cls(value))
        object.__setattr__(self, "policies", tuple(map(WalkPolicy, self.policies)))
        if not self.policies:
            raise ConfigError("at least one walk policy is required")
        if len(set(self.policies)) != len(self.policies):  # each policy keys its own curves
            names = ", ".join(p.value for p in self.policies)
            raise ConfigError(f"policies must be distinct, got {names}")
        if self.repetitions_per_start < 1:
            raise ConfigError("repetitions_per_start must be >= 1")
        object.__setattr__(self, "step_cap", validate_step_cap(self.step_cap))
        # derive_seed packs it as 64 bits; a wider seed would alias one inside the range.
        if not 0 <= self.master_seed <= _MASK64:
            raise ConfigError(f"master_seed must be an integer in [0, 2**64), got {self.master_seed!r}")
        object.__setattr__(self, "thresholds", validate_thresholds(self.thresholds))
        object.__setattr__(self, "target_fraction", validate_target_fraction(self.target_fraction))
        if self.thresholds[-1] > self.target_fraction + 1e-12:
            raise ConfigError(
                "threshold grid extends beyond target_fraction; the top thresholds "
                "would never be crossed"
            )
        # One start, the fewest a run has; run_experiment checks again with the starts it selects.
        _check_crossings(len(self.policies) * self.repetitions_per_start, len(self.thresholds))


# The type of each ExperimentConfig field but `generator` (a spec or any string), `start` and `step_cap`.
_CONFIG_TYPES = dict(
    policies=[str], repetitions_per_start=int, thresholds=[float], master_seed=int, target_fraction=float
)


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


def _check_crossings(ncells: int, nthresholds: int) -> None:
    if ncells * nthresholds > _MAX_CROSSINGS:
        raise ConfigError(
            f"{ncells:,} cells of {nthresholds} thresholds would keep {ncells * nthresholds:,} crossings, "
            f"above the bound of {_MAX_CROSSINGS:,}; lower the repetitions, starts or thresholds"
        )


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


def _worker_count(workers: int) -> int:
    """`workers`, which must be at least 1."""
    if workers < 1:
        raise ConfigError(f"workers must be at least 1, got {workers}")
    return workers


def _pool_size(workers: int, ncells: int) -> int:
    """The threads that a run of `ncells` cells starts when `workers` are
    asked for: no more than its cells, nor than the CPUs the process may
    use, since the results are the same at any count; and 1, a serial run,
    without the native kernel, whose Python walks hold the GIL."""
    return min(workers, ncells, _native._cpu_count()) if _native.available() else 1


def run_experiment(
    cfg: ExperimentConfig,
    graph: Graph | None = None,
    group: str = "",
    workers: int = 1,
) -> list[TaggedCurve]:
    """Run one discovery per (policy, start, repetition) cell.

    Child seeds are derived statelessly from (master_seed, cell indices), so
    cells are independent and the result is the same at any parallelism.
    The curves come sorted by policy name, start node and repetition, the
    order of `curves.csv`. With the native kernel the cells run in up to
    `workers` threads that share the graph, no more than the cells or CPUs
    (`_pool_size`); with the Python engine, whose walks hold the GIL, one
    after another. A run whose curves would keep more than `_MAX_CROSSINGS`
    crossings (cells times thresholds) raises `ConfigError` before any walk.
    """
    return list(_stream(cfg, graph, group, workers))


def _stream(
    cfg: ExperimentConfig, graph: Graph | None = None, group: str = "", workers: int = 1
) -> Iterator[TaggedCurve]:
    """The curves of `run_experiment`, in its order, each as its cell
    finishes. The graph, the starts and every check come now, before any
    walk; the cells run as the iterator is read. A pool keeps at most two
    cells a thread in flight, so memory does not grow with the cells."""
    if graph is None:
        graph, _ = resolve_graph(cfg)
    starts = select_starts(graph, cfg.start, random.Random(derive_seed(cfg.master_seed, "starts")))
    ncells = len(cfg.policies) * len(starts) * cfg.repetitions_per_start
    _check_crossings(ncells, len(cfg.thresholds))
    nworkers = _pool_size(_worker_count(workers), ncells)  # a pool starts every thread up front
    # The output order; each cell keeps the config indices that seed it.
    cells = product(
        sorted(range(len(cfg.policies)), key=lambda pi: cfg.policies[pi].value),
        sorted(range(len(starts)), key=starts.__getitem__),
        range(cfg.repetitions_per_start),
    )
    return _native._in_order(partial(_run_cell, graph, cfg, starts, group), cells, nworkers)


def aggregate(curves: Sequence[TaggedCurve]) -> list[AggregateCurve]:
    """Per-(group tag, policy), per-threshold mean and standard deviation of steps.

    All curves must share one threshold grid. Duplicated inputs count as
    extra samples, in `n_samples` and in the group's counter sums.
    """
    return _Sink().drain(curves).aggregates()


_EXACT = 2**53  # every integer up to it is a float


class _Sink:
    """The one consumer of finished curves, for `aggregate`, `sweep` and
    `netbrain run`: `write` (the curves.csv rows of `netbrain run`), when
    given, takes each curve as it arrives, and `aggregates` gives the records
    of every curve added from exact integer sums, so that memory does not
    grow with the cells.

    Curves are summed by (group, policy), where `group`, when given, replaces
    each curve's own tag. Per threshold the sums are n, Σ int(float(x)), Σx
    and Σx² of the steps x. The mean is `statistics.fmean` of the column,
    which adds its floats exactly and rounds once: float(Σ int(float(x))) / n.
    `_sd` takes n, Σx and Σx². The counters are summed by name.
    """

    def __init__(self, write: Callable[[TaggedCurve], object] | None = None, group: str | None = None):
        self._write = write
        self._group = group
        self._grid: tuple[float, ...] | None = None
        self._sums: dict[tuple[str, WalkPolicy], _GroupSums] = {}
        self.cells = 0

    def add(self, c: TaggedCurve) -> None:
        grid = c.curve.thresholds
        if self._grid is None:
            self._grid = grid
        elif grid != self._grid:
            raise AggregationError("curves mix different threshold grids")
        steps = [s for _, s in c.curve.crossings]
        if len(steps) != len(grid):
            raise AggregationError("curves did not cross every threshold in the grid")
        if self._write is not None:
            self._write(c)
        key = (c.group if self._group is None else self._group, c.policy)
        sums = self._sums.get(key)
        if sums is None:
            sums = self._sums[key] = _GroupSums(len(grid))
        sums.add(c, steps)
        self.cells += 1

    def drain(self, curves: Iterable[TaggedCurve]) -> _Sink:
        for c in curves:
            self.add(c)
        return self

    def aggregates(self) -> list[AggregateCurve]:
        keys = sorted(self._sums, key=lambda k: (k[0], k[1].value))
        return [self._sums[key].aggregate(*key, self._grid) for key in keys]


class _GroupSums:
    """The exact sums of one (group, policy) of a `_Sink`."""

    __slots__ = ("n", "counts", "floats", "sums", "squares")

    def __init__(self, k: int):
        self.n = 0
        self.counts = dict.fromkeys(_COUNTERS, 0)
        self.floats, self.sums, self.squares = [0] * k, [0] * k, [0] * k

    def add(self, c: TaggedCurve, steps: list[int]) -> None:
        self.n += 1
        for name in _COUNTERS:
            self.counts[name] += getattr(c, name)
        floats = steps if max(steps, default=0) <= _EXACT else [int(float(x)) for x in steps]
        self.floats = list(map(add, self.floats, floats))
        self.sums = list(map(add, self.sums, steps))
        self.squares = list(map(add, self.squares, map(mul, steps, steps)))

    def aggregate(self, group: str, policy: WalkPolicy, grid: tuple[float, ...]) -> AggregateCurve:
        n = self.n
        return AggregateCurve(
            group=group,
            policy=policy,
            thresholds=grid,
            mean_steps=tuple(float(f) / n for f in self.floats),
            sd_steps=tuple(map(partial(_sd, n), self.sums, self.squares)),
            n_samples=n,
            **self.counts,
        )


_SQRT_BITS = 2 * sys.float_info.mant_dig + 3  # bits of the scaled variance whose root is taken


def _sd(n: int, s: int, squares: int) -> float:
    """The population standard deviation of n integers whose sum is `s` and
    whose sum of squares is `squares`, as `statistics.pstdev` computes it.

    Their variance is the exact fraction (n * squares - s**2) / n**2. Its
    square root is rounded once to the nearest float, by the integer method
    of CPython's `statistics._float_sqrt_of_frac`: the fraction, scaled by a
    power of 4 to about `_SQRT_BITS` bits, has its integer square root
    rounded to odd, and one division by the matching power of 2 rounds that
    to a float.
    """
    num = n * squares - s * s
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
    workers: int = 1,
) -> dict[object, list[AggregateCurve]]:
    """Run the experiment across an axis, with independent seeds per value.

    The axis `model` or a number parameter of the base model (such as k_avg,
    or p_rewire for ws) re-generates the network per value; the hub_degree
    axis takes no values, runs the base config once and buckets curves by the
    exact degree of their start node. Each curve is summed as its cell
    finishes (`_Sink`), so memory does not grow with the cells.
    """
    cfgs = _sweep_configs(base, axis, values)
    if axis == "hub_degree":
        sinks: dict[int, _Sink] = {}
        for c in _stream(base, workers=workers):
            degree = c.start_degree
            if degree not in sinks:
                sinks[degree] = _Sink(group=f"deg={degree}")
            sinks[degree].add(c)
        return {d: sinks[d].aggregates() for d in sorted(sinks)}
    return {
        value: _Sink().drain(_stream(cfg, group=f"{axis}={value}", workers=workers)).aggregates()
        for value, cfg in zip(values, cfgs)
    }


def _sweep_configs(base: ExperimentConfig, axis: str, values: Sequence | None) -> list[ExperimentConfig]:
    """Every sweep rule: the checked config of each value, or `[base]` for hub_degree."""
    if axis == "hub_degree":
        if values is not None:
            raise ConfigError(f"a hub_degree sweep takes no values, got {values!r}")
        return [base]
    if not isinstance(base.generator, GeneratorSpec):
        raise ConfigError("generator sweeps require a model spec, not an edge list")
    model = base.generator.model
    axes = ("model", "hub_degree", *(f for f in _MODELS[model].fields if f != "degree_sequence"))
    if axis not in axes:
        raise ConfigError(f"sweep.axis {axis!r} is not a parameter of {model}; expected one of {axes}")
    values = _typed(values, [_FIELD_TYPES[axis]], "sweep.values")  # the axis field's type
    if not values or len(set(values)) != len(values):  # each value keys one result
        raise ConfigError(f"sweep.values must be one or more distinct axis values, got {values!r}")
    seed = base.master_seed
    cfgs = []
    for i, value in enumerate(values):
        try:
            spec = replace(base.generator, **{axis: value}, seed=derive_seed(seed, "sweep-gen", axis, i))
        except ParameterError as exc:
            raise ConfigError(f"sweep value {value!r} invalid for axis {axis}: {exc}") from exc
        cfgs.append(replace(base, generator=spec, master_seed=derive_seed(seed, "sweep-run", axis, i)))
    return cfgs
