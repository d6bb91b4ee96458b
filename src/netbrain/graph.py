"""Immutable undirected simple graph with the structural queries the simulator needs."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import index
from typing import Iterable

import numpy as np

from . import _native
from .errors import ConstructionError


_INT32 = 2**31  # Graph's arrays are int32: node ids and arc offsets stay below this


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected simple graph on nodes 0..n-1, held as read-only int32 CSR
    arrays: node v's neighbours are `indices[indptr[v]:indptr[v + 1]]`, ascending.

    Instances are immutable and safe to share across concurrent readers.
    Graphs with the same `n` and edges are equal; a pickle holds only `n` and
    the arrays. Use :func:`build_graph` instead of constructing directly, so
    the simple-graph invariants are enforced.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray

    def __post_init__(self):
        for name in ("indptr", "indices"):
            a = np.array(getattr(self, name), dtype=np.int32)
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @property
    def m(self) -> int:
        return len(self.indices) // 2

    @cached_property
    def adj(self) -> tuple[tuple[int, ...], ...]:
        """The neighbour tuples the Python engines read, built on first use."""
        flat = self.indices.tolist()
        bounds = self.indptr.tolist()
        return tuple(tuple(flat[bounds[v] : bounds[v + 1]]) for v in range(self.n))

    def degree(self, v: int) -> int:
        v = range(self.n)[v]  # a sequence index: negatives count from the end, others raise
        return int(self.indptr[v + 1] - self.indptr[v])

    def degrees(self) -> list[int]:
        return np.diff(self.indptr).tolist()

    def mean_degree(self) -> float:
        return 2.0 * self.m / self.n if self.n else 0.0

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, in ascending order."""
        source, target = _upper_arcs(self)
        return list(zip(source.tolist(), target.tolist()))

    def _key(self) -> tuple[int, bytes, bytes]:
        return self.n, self.indptr.tobytes(), self.indices.tobytes()

    def __eq__(self, other) -> bool:
        return self._key() == other._key() if isinstance(other, Graph) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __reduce__(self):
        return Graph, (self.n, self.indptr, self.indices)


def _upper_arcs(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """The sources and targets of the arcs (u, v) with u < v, in ascending order."""
    source = np.repeat(np.arange(g.n), np.diff(g.indptr))
    upper = source < g.indices
    return source[upper], g.indices[upper]


@dataclass(frozen=True)
class DropCounts:
    """Edges discarded while enforcing the simple-graph invariants."""

    self_loops: int
    duplicates: int


def build_graph(n: int, edges: Iterable[tuple[int, int]] | np.ndarray) -> Graph:
    g, _ = build_graph_reported(n, edges)
    return g


def build_graph_reported(
    n: int, edges: Iterable[tuple[int, int]] | np.ndarray
) -> tuple[Graph, DropCounts]:
    """Build a simple graph, dropping self-loops and duplicate pairs.

    `edges` holds integer pairs: any iterable of them, or a (k, 2) integer
    array. Returns the graph together with the counts of dropped edges.
    Endpoints outside [0, n) raise :class:`ConstructionError` naming the first
    offending edge, and so does a graph whose arcs (2 * m) or nodes do not
    fit the int32 arrays of :class:`Graph`. Anything but integer pairs
    (floats, strings, triples) raises ValueError; nothing is cast.
    """
    if not 0 <= n < _INT32:
        raise ConstructionError(f"node count must be in [0, 2**31), got {n}")
    if isinstance(edges, np.ndarray):
        if edges.dtype.kind not in "iu" or edges.ndim != 2 or edges.shape[1] != 2:
            raise ValueError("edges must be pairs of integers")
    else:
        edges = list(edges)
        try:
            # `index` takes Python and numpy integers only, where a cast to
            # int64 would also take floats and digit strings.
            flat = np.fromiter(map(index, chain.from_iterable(edges)), dtype=np.int64)
            pairs = flat.size == 2 * len(edges) and set(map(len, edges)) <= {2}
        except (TypeError, OverflowError):  # not integers, or an endpoint beyond int64
            pairs = False
        if not pairs:
            for edge in edges:
                try:
                    u, v = map(index, edge)
                except (TypeError, ValueError):
                    break
                if not (0 <= u < n and 0 <= v < n):
                    raise ConstructionError(f"edge ({u}, {v}) has an endpoint outside [0, {n})")
            raise ValueError("edges must be pairs of integers")
        edges = flat.reshape(-1, 2)
    u, v = edges[:, 0], edges[:, 1]
    outside = (u < 0) | (u >= n) | (v < 0) | (v >= n)
    if outside.any():
        i = int(outside.argmax())
        raise ConstructionError(
            f"edge ({int(u[i])}, {int(v[i])}) has an endpoint outside [0, {n})"
        )
    # Every endpoint is in [0, n), so the cast keeps each value, and the
    # numpy keys below cannot overflow a narrow input type.
    edges = np.ascontiguousarray(edges, dtype=np.int64)
    built = _native.build_csr(n, edges)
    if built is None:
        built = _build_csr_numpy(n, edges)
    indptr, indices, self_loops, duplicates = built
    return Graph(n, indptr, indices), DropCounts(self_loops, duplicates)


def _build_csr_numpy(n: int, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray, int, int]:
    """The CSR arrays of the int64 (k, 2) `edges`, all in [0, n), by numpy
    sorts, and the self-loops and repeated pairs dropped: the reference that
    `_native.build_csr` reproduces, and the build without the library."""
    u, v = edges[:, 0], edges[:, 1]
    loop = u == v
    u, v = u[~loop], v[~loop]
    keys = np.sort(np.minimum(u, v) * n + np.maximum(u, v))  # one per unordered pair
    keys = keys[_first_of_runs(keys)]
    if 2 * keys.size >= _INT32:
        raise ConstructionError(f"{keys.size} edges give 2 * m >= 2**31 arcs, too many for int32")
    lo, hi = np.divmod(keys, n)
    # Both directions of each pair, sorted by (source, target).
    arcs = np.sort(np.concatenate((keys, hi * n + lo)))
    source, target = np.divmod(arcs, n)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(source, minlength=n))))
    return indptr, target, int(loop.sum()), int(u.size - keys.size)


def _first_of_runs(ranked: np.ndarray) -> np.ndarray:
    """A mask of the first of each run of equal values in the sorted array
    `ranked`: its distinct values. (`np.unique` finds them ~20x slower.)"""
    first = np.ones(ranked.size, dtype=bool)
    np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
    return first


def _component_labels(g: Graph) -> np.ndarray:
    """Each node's component label: the smallest node id in its component,
    by `_native.components`, or by `_component_labels_numpy` without the
    library."""
    labels = _native.components(g)
    return _component_labels_numpy(g) if labels is None else labels


def _component_labels_numpy(g: Graph) -> np.ndarray:
    """The labels of `_component_labels` on arrays: the reference that
    `_native.components` reproduces.

    Hook and compress after Shiloach & Vishkin (1982): labels start as the
    node ids; across each arc joining two trees the larger root hooks to the
    smaller, then labels pointer-jump to their roots. Labels only decrease.
    """
    labels = np.arange(g.n)
    source = np.repeat(labels, np.diff(g.indptr))
    target = g.indices.astype(np.intp)
    while source.size:
        np.minimum.at(labels, labels[source], labels[target])
        while not np.array_equal(jumped := labels[labels], labels):
            labels = jumped
        crossing = labels[source] != labels[target]
        source, target = source[crossing], target[crossing]
    return labels


def connected_components(g: Graph) -> list[list[int]]:
    """Connected components as sorted node lists, ordered by smallest member."""
    labels = _component_labels(g)
    members = np.argsort(labels, kind="stable").tolist()
    sizes = np.bincount(labels)
    bounds = np.cumsum(sizes[sizes > 0]).tolist()
    return [members[a:b] for a, b in zip([0, *bounds], bounds)]


def largest_connected_component(g: Graph) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph on the largest component, relabeled densely.

    Ties between equal-size components are broken by the smallest original
    node id. The returned mapping sends old ids of retained nodes to their
    new dense ids (ascending order is preserved).
    """
    lcc, kept = _largest_component(g)
    return lcc, {old: new for new, old in enumerate(kept.tolist())}


def _largest_component(g: Graph) -> tuple[Graph, np.ndarray]:
    """The graph of `largest_connected_component` and the old ids of its
    nodes, ascending, without the mapping dict."""
    labels = _component_labels(g)
    # The first largest has the smallest label, so id; with n = 0 nothing is kept.
    best = np.bincount(labels, minlength=1).argmax()
    inside = labels == best
    kept = np.flatnonzero(inside)
    if kept.size == g.n:
        return g, kept
    # A component holds all its nodes' neighbours, and the relabelling keeps
    # node order, so each relabelled row is already sorted and simple.
    degrees = np.diff(g.indptr)
    new_id = np.cumsum(inside) - 1
    new_indptr = np.concatenate(([0], np.cumsum(degrees[inside])))
    new_indices = new_id[g.indices[np.repeat(inside, degrees)]]
    return Graph(kept.size, new_indptr, new_indices), kept


def betweenness(g: Graph) -> list[float]:
    """Exact shortest-path betweenness (Brandes).

    Source-target pairs are unordered and path endpoints are excluded, so a
    path middle node of P3 scores 1.0. Runs in the native kernel when it
    loads, on every CPU the process may use, with every value bit-identical
    to the Python loop, which runs otherwise and whenever a path count
    exceeds 2**53.
    """
    values = _native.betweenness(g)
    return _betweenness_python(g) if values is None else values


def _betweenness_python(g: Graph) -> list[float]:
    """Brandes in Python: the reference the native kernel reproduces."""
    n = g.n
    adj = g.adj
    centrality = [0.0] * n
    for s in range(n):
        stack: list[int] = []
        preds: list[list[int]] = [[] for _ in range(n)]
        sigma = [0] * n
        dist = [-1] * n
        sigma[s] = 1
        dist[s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            stack.append(v)
            dv = dist[v]
            for w in adj[v]:
                if dist[w] < 0:
                    dist[w] = dv + 1
                    queue.append(w)
                if dist[w] == dv + 1:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        delta = [0.0] * n
        while stack:
            w = stack.pop()
            coeff = (1.0 + delta[w]) / sigma[w]
            for v in preds[w]:
                delta[v] += sigma[v] * coeff
            if w != s:
                centrality[w] += delta[w]
    # Each unordered pair was counted from both endpoints.
    return [c / 2.0 for c in centrality]


def degree_ranked_nodes(g: Graph) -> list[int]:
    """Nodes sorted by descending degree, ties broken by ascending id."""
    return np.argsort(-np.diff(g.indptr), kind="stable").tolist()


def is_connected(g: Graph) -> bool:
    return not _component_labels(g).any()
