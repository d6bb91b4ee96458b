"""Immutable undirected simple graph with the structural queries the simulator needs."""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable

import numpy as np

from . import _native
from .errors import ConstructionError


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on nodes 0..n-1 with sorted adjacency lists.

    Instances are immutable after construction and safe to share across
    concurrent readers. Use :func:`build_graph` instead of constructing
    directly, so the simple-graph invariants are enforced.
    """

    n: int
    adj: tuple[tuple[int, ...], ...]
    m: int

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def degrees(self) -> list[int]:
        return [len(nbrs) for nbrs in self.adj]

    def mean_degree(self) -> float:
        return 2.0 * self.m / self.n if self.n else 0.0

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, in ascending order."""
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    def has_edge(self, u: int, v: int) -> bool:
        a = self.adj[u]
        i = bisect_left(a, v)
        return i < len(a) and a[i] == v

    @cached_property
    def _csr(self) -> tuple[np.ndarray, np.ndarray]:
        """The adjacency as read-only int32 `indptr` and `indices` arrays.

        Built on first use; `_native.kernel_for` keeps 2 * m below 2**31.
        The view is not a field, so it takes no part in equality, and pickles
        leave it out.
        """
        indptr = np.zeros(self.n + 1, dtype=np.int32)
        np.cumsum([len(nbrs) for nbrs in self.adj], out=indptr[1:])
        indices = np.fromiter(chain.from_iterable(self.adj), dtype=np.int32, count=2 * self.m)
        indptr.flags.writeable = indices.flags.writeable = False
        return indptr, indices

    def __getstate__(self) -> dict:
        return {"n": self.n, "adj": self.adj, "m": self.m}


@dataclass(frozen=True)
class DropCounts:
    """Edges discarded while enforcing the simple-graph invariants."""

    self_loops: int
    duplicates: int


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    g, _ = build_graph_reported(n, edges)
    return g


def build_graph_reported(
    n: int, edges: Iterable[tuple[int, int]] | np.ndarray
) -> tuple[Graph, DropCounts]:
    """Build a simple graph, dropping self-loops and duplicate pairs.

    `edges` holds integer pairs: any iterable of them, or a (k, 2) integer
    array. Returns the graph together with the counts of dropped edges.
    Endpoints outside [0, n) raise :class:`ConstructionError` naming the first
    offending edge.
    """
    if n < 0:
        raise ConstructionError(f"node count must be non-negative, got {n}")
    if not isinstance(edges, np.ndarray):
        edges = list(edges)
        try:
            flat = np.fromiter(chain.from_iterable(edges), dtype=np.int64)
        except OverflowError:  # an endpoint beyond int64, so outside [0, n)
            flat = None
        if flat is None or flat.size != 2 * len(edges):
            for u, v in edges:
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
    loop = u == v
    u, v = u[~loop], v[~loop]
    keys = np.sort(np.minimum(u, v) * n + np.maximum(u, v))  # one per unordered pair
    keys = keys[_first_of_runs(keys)]
    drops = DropCounts(int(loop.sum()), int(u.size - keys.size))
    lo, hi = np.divmod(keys, n)
    # Both directions of each pair, sorted by (source, target).
    arcs = np.sort(np.concatenate((keys, hi * n + lo)))
    source, target = np.divmod(arcs, n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(source, minlength=n), out=indptr[1:])
    return _from_csr(n, indptr, target), drops


def _first_of_runs(ranked: np.ndarray) -> np.ndarray:
    """A mask of the first of each run of equal values in the sorted array
    `ranked`: its distinct values. (`np.unique` finds them ~20x slower.)"""
    first = np.ones(ranked.size, dtype=bool)
    np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
    return first


def _from_csr(n: int, indptr: np.ndarray, indices: np.ndarray) -> Graph:
    """The graph whose sorted, simple adjacency is the CSR (`indptr`, `indices`).

    The arrays also become the graph's `_csr` view, so it is not rebuilt.
    """
    flat = indices.tolist()
    bounds = indptr.tolist()
    adj = tuple(tuple(flat[bounds[i] : bounds[i + 1]]) for i in range(n))
    g = Graph(n=n, adj=adj, m=len(flat) // 2)
    if len(flat) < 2**31:  # the int32 view of `_csr`
        indptr, indices = indptr.astype(np.int32), indices.astype(np.int32)
        indptr.flags.writeable = indices.flags.writeable = False
        vars(g)["_csr"] = indptr, indices
    return g


def connected_components(g: Graph) -> list[list[int]]:
    """Connected components as sorted node lists, ordered by smallest member."""
    seen = bytearray(g.n)
    components: list[list[int]] = []
    for start in range(g.n):
        if seen[start]:
            continue
        seen[start] = 1
        comp = [start]
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in g.adj[u]:
                if not seen[w]:
                    seen[w] = 1
                    comp.append(w)
                    queue.append(w)
        comp.sort()
        components.append(comp)
    return components


def largest_connected_component(g: Graph) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph on the largest component, relabeled densely.

    Ties between equal-size components are broken by the smallest original
    node id. The returned mapping sends old ids of retained nodes to their
    new dense ids (ascending order is preserved).
    """
    if g.n == 0:
        return g, {}
    components = connected_components(g)
    best = max(components, key=lambda c: (len(c), -c[0]))
    mapping = {old: new for new, old in enumerate(best)}
    if len(best) == g.n:
        return g, mapping
    # A component holds all its nodes' neighbours, and the relabelling keeps
    # node order, so each relabelled row is already sorted and simple.
    inside = np.zeros(g.n, dtype=bool)
    inside[best] = True
    indptr, indices = g._csr
    degrees = np.diff(indptr)
    new_id = np.cumsum(inside) - 1
    new_indptr = np.zeros(len(best) + 1, dtype=np.int64)
    np.cumsum(degrees[inside], out=new_indptr[1:])
    new_indices = new_id[indices[np.repeat(inside, degrees)]]
    return _from_csr(len(best), new_indptr, new_indices), mapping


def betweenness(g: Graph) -> list[float]:
    """Exact shortest-path betweenness (Brandes).

    Source-target pairs are unordered and path endpoints are excluded, so a
    path middle node of P3 scores 1.0. Runs in the native kernel when it
    loads, with every value bit-identical to the Python loop, which runs
    otherwise and whenever a path count exceeds 2**53.
    """
    kernel = _native.kernel_for(g, "netbrain_betweenness")
    if kernel is not None:
        values = _native.betweenness(kernel, g)
        if values is not None:
            return values
    return _betweenness_python(g)


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
    return sorted(range(g.n), key=lambda v: (-len(g.adj[v]), v))


def is_connected(g: Graph) -> bool:
    return len(connected_components(g)) <= 1
