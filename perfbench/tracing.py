"""Spans and work counters recorded from outside the package.

The tracer rebinds the public functions of netbrain's modules, in the
namespaces that call them across module boundaries, to wrappers that record
a span (name, start, end, parent, phase) in memory. Moves are counted by
handing ``run_discovery`` a ``random.Random`` subclass that counts its
``random()`` draws: the walk engine draws exactly once per move, and the
subclass starts from the caller's generator state and hands its end state
back, so the random stream and the output bytes do not change.

Phases: ``pipeline`` is the workload as a user runs it; ``pool`` marks a
``run_experiment`` whose cells ran in pool workers (their spans are lost
to this process); ``replay`` is the serial re-run of such an experiment
that supplies the per-cell spans.
"""

from __future__ import annotations

import functools
import json
import random
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

MODULES = ("graph", "generators", "fileio", "harness", "dynamics")
POLICIES = ("standard", "extended", "look_ahead")

# (defining module, function, modules whose namespace holds the call site)
PATCHES = (
    ("graph", "betweenness", ("harness",)),
    ("graph", "degree_ranked_nodes", ("graph", "harness")),
    ("graph", "build_graph", ("generators",)),
    ("graph", "build_graph_reported", ("generators", "fileio")),
    ("graph", "largest_connected_component", ("generators", "fileio")),
    ("generators", "generate", ("generators",)),
    ("fileio", "write_edge_list", ("fileio",)),
    ("fileio", "ingest_edge_list", ("fileio",)),
    ("fileio", "write_curves_csv", ("fileio",)),
    ("fileio", "write_aggregate_csv", ("fileio",)),
    ("harness", "run_experiment", ("harness",)),
    ("harness", "select_starts", ("harness",)),
    ("harness", "aggregate", ("harness",)),
    ("dynamics", "run_discovery", ("harness",)),
)

_draw = random.Random.random


class CountingRandom(random.Random):
    """A generator that counts its ``random()`` calls and otherwise behaves as its base."""

    draws = 0

    def random(self) -> float:
        self.draws += 1
        return _draw(self)


def _annotate(name: str, args: tuple, result) -> dict:
    """Work counts attached to a span, taken from the call's arguments and result."""
    if name == "graph.betweenness":
        g = args[0]
        return {"edge_visits": g.n * 2 * g.m}
    if name == "generators.generate":
        return {"edges": result.graph.m}
    if name == "fileio.ingest_edge_list":
        return {"edges": result[2].raw_edges}
    if name == "fileio.write_curves_csv":
        return {"rows": sum(len(c.curve.crossings) for c in args[0])}
    if name == "fileio.write_aggregate_csv":
        return {"rows": sum(len(a.thresholds) for a in args[0])}
    return {}


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._phase = "pipeline"
        self._wrapped: dict[str, tuple] = {}  # span name -> (original, wrapper, namespaces)

    def begin(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "phase": self._phase,
            "workload": self.workload,
            "start": time.perf_counter(),
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            span.update(_annotate(name, args, result))
            return result

        return wrapper

    def _wrap_discovery(self, fn):
        @functools.wraps(fn)
        def run_discovery(g, brain, policy, rng, *args, **kwargs):
            counting = CountingRandom(0)
            counting.setstate(rng.getstate())
            span = self.begin("dynamics.run_discovery")
            try:
                curve, state = fn(g, brain, policy, counting, *args, **kwargs)
            finally:
                self.end(span)
            rng.setstate(counting.getstate())
            span.update(
                policy=policy.value,
                moves=counting.draws,
                walks=state.walk_count,
                steps=state.cumulative_steps,
                cap_hits=state.cap_hits,
            )
            return curve, state

        return run_discovery

    @contextmanager
    def installed(self, nb):
        """Rebind every function in PATCHES for the duration of the block."""
        for module, func, sites in PATCHES:
            name = f"{module}.{func}"
            original = getattr(getattr(nb, module), func)
            wrapper = (
                self._wrap_discovery(original) if name == "dynamics.run_discovery" else self._wrap(name, original)
            )
            namespaces = [getattr(nb, site) for site in sites]
            self._wrapped[name] = (original, wrapper, namespaces)
            for ns in namespaces:
                setattr(ns, func, wrapper)
        try:
            yield self
        finally:
            for name, (original, _, namespaces) in self._wrapped.items():
                for ns in namespaces:
                    setattr(ns, name.split(".", 1)[1], original)
            self._wrapped.clear()

    @contextmanager
    def suspended(self, name: str):
        """Restore one original function for the duration of the block."""
        original, wrapper, namespaces = self._wrapped[name]
        func = name.split(".", 1)[1]
        for ns in namespaces:
            setattr(ns, func, original)
        try:
            yield
        finally:
            for ns in namespaces:
                setattr(ns, func, wrapper)

    @contextmanager
    def phase(self, phase: str):
        previous, self._phase = self._phase, phase
        try:
            yield
        finally:
            self._phase = previous

    def write(self, path: Path) -> None:
        with Path(path).open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def _tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten values beyond it, and its value.

    Returns (0, 0) when there are too few values for such a percentile.
    """
    n = len(values)
    if n < 11:
        return 0.0, 0.0
    rank = n - 10
    return 100.0 * rank / n, sorted(values)[rank - 1]


def layer_metrics(tracer: Tracer, workers: int) -> dict[str, float]:
    """Per-layer metrics of one traced repetition, all keyed by their BENCHMARK.json names."""
    spans = tracer.spans
    children: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]] = children.get(s["parent"], 0.0) + _duration(s)

    def total(name: str, key: str | None = None) -> float:
        """Seconds (or the summed `key` count) of the named spans outside the replay."""
        return sum(
            (s.get(key, 0) if key else _duration(s))
            for s in spans
            if s["name"] == name and s["phase"] != "replay"
        )

    m: dict[str, float] = {}

    def rate(work: float, seconds: float) -> float:
        return work / seconds if seconds > 0 else 0.0

    m["graph.betweenness.s"] = total("graph.betweenness")
    m["graph.betweenness.edge_visits_per_s"] = rate(total("graph.betweenness", "edge_visits"), m["graph.betweenness.s"])
    m["generators.generate.s"] = total("generators.generate")
    m["generators.edges_per_s"] = rate(total("generators.generate", "edges"), m["generators.generate.s"])
    m["fileio.write_edge_list.s"] = total("fileio.write_edge_list")
    m["fileio.ingest_edge_list.s"] = total("fileio.ingest_edge_list")
    m["fileio.ingest.edges_per_s"] = rate(total("fileio.ingest_edge_list", "edges"), m["fileio.ingest_edge_list.s"])
    m["fileio.write_csv.s"] = total("fileio.write_curves_csv") + total("fileio.write_aggregate_csv")
    m["fileio.csv_rows"] = total("fileio.write_curves_csv", "rows") + total("fileio.write_aggregate_csv", "rows")
    m["harness.select_starts.s"] = total("harness.select_starts")
    m["harness.run_experiment.s"] = total("harness.run_experiment")

    cells = [s for s in spans if s["name"] == "dynamics.run_discovery"]
    cell_s = sum(_duration(s) for s in cells)
    cell_time = m["harness.run_experiment.s"] - m["harness.select_starts.s"]
    m["harness.parallel_efficiency"] = rate(cell_s, workers * cell_time)
    m["harness.pool_overhead_s"] = cell_time - cell_s / workers

    for policy in POLICIES:
        mine = [s for s in cells if s["policy"] == policy]
        durations = [_duration(s) for s in mine]
        p = f"dynamics.{policy}."
        for key in ("walks", "moves", "steps", "cap_hits"):
            m[p + key] = sum(s[key] for s in mine)
        m[p + "cells"] = len(mine)
        m[p + "moves_per_s"] = rate(m[p + "moves"], sum(durations))
        m[p + "moves_per_walk"] = rate(m[p + "moves"], m[p + "walks"])
        m[p + "cap_ratio"] = rate(m[p + "cap_hits"], m[p + "walks"])
        m[p + "cell_s.p50"] = statistics.median(durations) if durations else 0.0
        m[p + "cell_s.ptail_pct"], m[p + "cell_s.ptail"] = _tail(durations)

    # Self time per module, over the run as a user sees it with serial cells:
    # the pool run's subtree is left out and the replay's subtree stands in.
    self_time = dict.fromkeys(MODULES + ("other",), 0.0)
    for s in spans:
        if s["phase"] == "pool":
            continue
        module = s["name"].split(".", 1)[0] if s["name"] != "workload" else "other"
        self_time[module] += _duration(s) - children.get(s["id"], 0.0)
    whole = sum(self_time.values())
    for module, seconds in self_time.items():
        m[f"share.{module}"] = rate(seconds, whole)
    return m
