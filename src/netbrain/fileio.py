"""External surfaces: edge-list ingestion, config files, CSV and manifest output."""

from __future__ import annotations

import json
import os
import threading
from collections.abc import ItemsView, Mapping, ValuesView
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields
from itertools import groupby
from operator import itemgetter
from pathlib import Path
from typing import IO, Callable, Iterator, Sequence

import numpy as np

from . import _native
from .errors import ConfigError, ParseError
from .generators import _MODELS, MODELS, GeneratorSpec, _params
from .graph import Graph, _upper_arcs, build_graph_reported, largest_connected_component
from .harness import (
    _START_KINDS,
    AggregateCurve,
    ExperimentConfig,
    StartSelection,
    TaggedCurve,
    _checked_start,
    _sweep_configs,
)


@dataclass(frozen=True)
class IngestReport:
    """What an edge-list ingest found and kept."""

    raw_nodes: int
    raw_edges: int
    self_loops_dropped: int
    duplicates_dropped: int
    lcc_nodes: int
    lcc_edges: int


class LabelMap(Mapping):
    """The original labels of an ingested graph's nodes, each mapped to its
    dense id: a read-only view of `labels`, the ascending array of the kept
    labels, where label `labels[i]` is node i. It equals the dict
    `{labels[i]: i}` and iterates in the same ascending order."""

    __slots__ = ("labels",)

    def __init__(self, labels: np.ndarray):
        labels.flags.writeable = False
        self.labels = labels

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self) -> Iterator[int]:
        return iter(self.labels.tolist())

    def __getitem__(self, label) -> int:
        try:
            i = int(self.labels.searchsorted(label))
            if i < len(self.labels) and self.labels[i] == label:
                return i
        except (TypeError, ValueError, OverflowError):  # not comparable with the labels
            pass
        raise KeyError(label)

    def items(self) -> ItemsView:
        return _LabelItems(self)

    def values(self) -> ValuesView:
        return _LabelValues(self)

    def __repr__(self) -> str:
        return f"LabelMap({dict(self.items())})"


class _LabelItems(ItemsView):
    """The (label, id) pairs of a `LabelMap`, read from its array at once."""

    def __iter__(self):
        return zip(self._mapping.labels.tolist(), range(len(self._mapping)))


class _LabelValues(ValuesView):
    """The ids of a `LabelMap`, 0..n-1 in label order, with no lookups."""

    def __iter__(self):
        return iter(range(len(self._mapping)))

    def __contains__(self, value) -> bool:
        return value in range(len(self._mapping))


def ingest_edge_list(path: str | Path) -> tuple[Graph, LabelMap, IngestReport]:
    """Read an undirected edge list and return its LCC as a dense graph.

    One edge per line, two whitespace-separated non-negative integer labels
    in the ASCII digits 0-9; lines starting with '#' are ignored. Labels
    need not be dense; the returned `LabelMap` sends original labels of
    retained nodes to their dense ids.
    Plain ASCII files are parsed natively when `_native.parse_edges` can;
    any other file, or any file without the library, by the line loop
    `_parse_lines`, which gives the same result and every error.
    """
    path = Path(path)
    pairs = _native.parse_edges(path)
    if pairs is None:
        pairs = _parse_lines(path)
    raw_edges = len(pairs)
    if not raw_edges:
        raise ParseError(f"{path}: no edges found")
    labels, dense = _rank_labels(pairs)
    del pairs  # the int64 labels go before the CSR build, which reads the int32 ranks
    g, drops = build_graph_reported(len(labels), dense)
    del dense
    lcc, kept = largest_connected_component(g)
    report = IngestReport(
        raw_nodes=len(labels),
        raw_edges=raw_edges,
        self_loops_dropped=drops.self_loops,
        duplicates_dropped=drops.duplicates,
        lcc_nodes=lcc.n,
        lcc_edges=lcc.m,
    )
    return lcc, LabelMap(labels[kept]), report


def _rank_labels(pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct labels of the non-negative `pairs`, and the pairs
    as their int32 ranks.

    Labels below the pair array's size are ranked by a presence table over
    0..max and its running count, which costs no sort and never allocates
    more than the pairs already take. Larger labels are ranked by
    `np.unique`."""
    top = pairs.max()
    if top < pairs.size:
        present = np.zeros(top + 1, dtype=bool)
        present[pairs] = True
        ranks = np.cumsum(present, dtype=np.int32)
        ranks -= 1
        return np.flatnonzero(present), ranks[pairs]
    # numpy versions differ in the shape of `dense`; more than 2**31 labels
    # wrap in the cast, and the graph build then refuses their count.
    labels, dense = np.unique(pairs, return_inverse=True)
    return labels, dense.reshape(-1, 2).astype(np.int32)


def _parse_lines(path: Path) -> np.ndarray:
    """The (k, 2) labels of an edge list, read line by line; object dtype
    only when some label exceeds int64."""
    raw_edges: list[tuple[int, int]] = []
    with path.open(encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                text = line.strip()
                if not text or text.startswith("#"):
                    continue
                parts = text.split()
                if len(parts) != 2:
                    raise ParseError(f"{path}:{lineno}: expected two node labels, got {text!r}")
                u, v = parts
                # `int` alone would also read "+1", "1_0" and non-ASCII digits.
                if not (u.isdigit() and v.isdigit() and u.isascii() and v.isascii()):
                    raise ParseError(
                        f"{path}:{lineno}: node labels must be non-negative integers "
                        f"in the digits 0-9, got {text!r}"
                    )
                raw_edges.append((int(u), int(v)))
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    try:
        return np.array(raw_edges, dtype=np.int64)
    except OverflowError:  # left to pick a dtype, numpy may round such labels to float64
        return np.array(raw_edges, dtype=object)


def write_edge_list(g: Graph, path: str | Path, header: Sequence[str] = ()) -> None:
    """Write edges as 'u v' lines (u < v, ascending), with optional # header
    lines in UTF-8, which `ingest_edge_list` reads.

    The lines come from `_native.format_edges`, or from `_format_edges`
    without the library; both give the same bytes, written as they are."""
    lines = _native.format_edges(g)
    if lines is None:
        lines = _format_edges(g)
    with _writing(path, "wb") as fh:
        fh.write("".join(f"# {line}\n" for line in header).encode("utf-8"))
        fh.write(lines)


def _format_edges(g: Graph) -> bytes:
    """The ASCII edge lines of `write_edge_list` in Python, each id formatted
    once: the reference that `_native.format_edges` reproduces."""
    names = [str(v) for v in range(g.n)]
    source, target = _upper_arcs(g)
    ends = [names[v] for v in target.tolist()]
    nodes, counts = np.unique(source, return_counts=True)
    bounds = np.cumsum(counts).tolist()
    text = []
    for u, start, stop in zip(nodes.tolist(), [0, *bounds], bounds):
        row = names[u] + " "
        text.append(row + ("\n" + row).join(ends[start:stop]) + "\n")  # node u's block
    return "".join(text).encode("ascii")


# --- experiment config files (JSON) -----------------------------------------

# The config keys: ExperimentConfig's fields, where `edge_list` may replace `generator`.
_TOP_KEYS = {f.name for f in fields(ExperimentConfig)} | {"edge_list", "sweep"}
# The keys of ExperimentConfig's fields that have defaults; an absent or null key takes the default.
_OPTIONAL_KEYS = [f.name for f in fields(ExperimentConfig) if f.default is not MISSING]


def _refuse_unknown(d: dict, known: set, what: str) -> None:
    if set(d) - known:
        raise ConfigError(f"unknown {what}: {sorted(set(d) - known)}")


def _jsonable(value):
    return list(value) if isinstance(value, tuple) else value


def _generator_from_dict(d: dict) -> GeneratorSpec:
    if not isinstance(d, dict):
        raise ConfigError("generator must be a mapping")
    model = d.get("model")
    if model not in MODELS:
        raise ConfigError(f"generator.model must be one of {MODELS}, got {model!r}")
    _refuse_unknown(d, {"model", "seed", *_MODELS[model].fields}, f"generator keys for {model}")
    return GeneratorSpec(**d)


def _generator_to_dict(spec: GeneratorSpec) -> dict:
    params = {k: _jsonable(v) for k, v in _params(spec).items()}
    return {"model": spec.model, "seed": spec.seed, **params}


def _start_from_dict(d: dict) -> StartSelection:
    if not isinstance(d, dict) or "kind" not in d:
        raise ConfigError("start must be a mapping with a 'kind' key")
    kind = next((k for k in _START_KINDS if k.kind == d["kind"]), None)
    if kind is None:
        kinds = sorted(k.kind for k in _START_KINDS)
        raise ConfigError(f"start.kind must be one of {kinds}, got {d['kind']!r}")
    _refuse_unknown(d, {"kind", kind.field}, f"start keys for {kind.kind}")
    if kind.field not in d:
        raise ConfigError(f"start.{kind.field} is required for kind {kind.kind}")
    return kind.cls(d[kind.field])  # ExperimentConfig checks it


def _start_to_dict(sel: StartSelection) -> dict:
    kind, value = _checked_start(sel)
    return {"kind": kind.kind, kind.field: _jsonable(value)}


def config_from_dict(d: dict) -> tuple[ExperimentConfig, dict | None]:
    """Build an ExperimentConfig (and optional sweep block) from a parsed mapping: the
    records check the values, and a sweep block is refused exactly as `sweep` refuses it."""
    if not isinstance(d, dict):
        raise ConfigError("config root must be a mapping")
    _refuse_unknown(d, _TOP_KEYS, "config keys")
    if ("generator" in d) == ("edge_list" in d):
        raise ConfigError("config needs exactly one of 'generator' or 'edge_list'")
    generator = _generator_from_dict(d["generator"]) if "generator" in d else d["edge_list"]
    start = _start_from_dict(d.get("start"))
    given = {k: d[k] for k in _OPTIONAL_KEYS if d.get(k) is not None}
    cfg = ExperimentConfig(generator, d.get("policies"), start, **given)
    sweep_block = d.get("sweep")
    if sweep_block is not None:
        if not isinstance(sweep_block, dict):
            raise ConfigError("sweep must be a mapping")
        _refuse_unknown(sweep_block, {"axis", "values"}, "sweep keys")
        _sweep_configs(cfg, sweep_block.get("axis"), sweep_block.get("values"))
    return cfg, sweep_block


def config_to_dict(cfg: ExperimentConfig, sweep_block: dict | None = None) -> dict:
    d: dict = {}
    if isinstance(cfg.generator, GeneratorSpec):
        d["generator"] = _generator_to_dict(cfg.generator)
    else:
        d["edge_list"] = cfg.generator
    d["policies"] = [p.value for p in cfg.policies]
    d["start"] = _start_to_dict(cfg.start)
    d["repetitions_per_start"] = cfg.repetitions_per_start
    d["step_cap"] = cfg.step_cap
    if cfg.thresholds != ExperimentConfig.thresholds:
        d["thresholds"] = list(cfg.thresholds)
    d["master_seed"] = cfg.master_seed
    if cfg.target_fraction != ExperimentConfig.target_fraction:
        d["target_fraction"] = cfg.target_fraction
    if sweep_block is not None:
        d["sweep"] = sweep_block
    return d


def load_config(path: str | Path) -> tuple[ExperimentConfig, dict | None]:
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # bad syntax or UTF-8, too many digits or levels
        raise ParseError(f"{path}: invalid JSON: {exc}") from None
    return config_from_dict(data)


def save_config(cfg: ExperimentConfig, path: str | Path, sweep_block: dict | None = None) -> None:
    write_json(path, config_to_dict(cfg, sweep_block))


# --- result serialization -----------------------------------------------------

CURVE_HEADER = "group,policy,start_node,start_degree,repetition,threshold,steps"
AGGREGATE_HEADER = "group,policy,threshold,mean_steps,sd_steps,n_samples"


def write_curves_csv(curves: Sequence[TaggedCurve], path: str | Path) -> None:
    """One row per (curve, threshold), sorted for byte-stable output.

    Rows sort on (group, policy, start, repetition, threshold); the sort is
    stable, so rows with equal keys keep the order of `curves`. The curves
    are sorted on their first four keys, stably, and written one key at a
    time (`_curves_csv`), without a list of all rows."""
    with _curves_csv(path) as write:
        for _, same in groupby(sorted(curves, key=_curve_key), key=_curve_key):
            write(*same)


def _curve_key(c: TaggedCurve) -> tuple[str, str, int, int]:
    return c.group, c.policy.value, c.start, c.repetition


@contextmanager
def _curves_csv(path: str | Path) -> Iterator[Callable[..., object]]:
    """A curves CSV at `path`, whole or not at all (`_writing`), and the
    function that writes the rows of curves sharing one key. Calls must come
    in key order; `netbrain run` makes one a cell as each finishes."""
    with _writing(path) as fh:
        fh.write(CURVE_HEADER + "\n")
        yield lambda *same: fh.write(_curve_rows(same))


def _curve_rows(same: Sequence[TaggedCurve]) -> str:
    """The rows of curves that share one key, in threshold order; rows with
    equal thresholds keep their order in `same`. Each curve's leading columns
    are formatted once."""
    rows = [
        (threshold, steps, prefix)
        for c in same
        for prefix in [f"{c.group},{c.policy.value},{c.start},{c.start_degree},{c.repetition},"]
        for threshold, steps in c.curve.crossings
    ]
    rows.sort(key=itemgetter(0))
    return "".join([f"{prefix}{threshold:.4f},{steps}\n" for threshold, steps, prefix in rows])


def write_aggregate_csv(aggregates: Sequence[AggregateCurve], path: str | Path) -> None:
    rows = []
    for a in aggregates:
        for threshold, mean, sd in zip(a.thresholds, a.mean_steps, a.sd_steps):
            rows.append((a.group, a.policy.value, threshold, mean, sd, a.n_samples))
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    lines = [f"{g},{p},{t:.4f},{mean:.4f},{sd:.4f},{n}\n" for g, p, t, mean, sd, n in rows]
    _write_text(path, AGGREGATE_HEADER + "\n" + "".join(lines))


def write_json(path: str | Path, payload: dict) -> None:
    """Every JSON file netbrain writes: indented, keys sorted, one final newline."""
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_text(path: str | Path, text: str) -> None:
    with _writing(path) as fh:
        fh.write(text)


@contextmanager
def _writing(path: str | Path, mode: str = "w") -> Iterator[IO]:
    """Every file netbrain writes, whole or not at all: opened in `mode`
    under a temporary name beside `path`, and renamed to it when the block
    ends without an error."""
    tmp = Path(f"{path}.{os.getpid()}-{threading.get_ident()}.tmp")
    try:
        with tmp.open(mode) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
