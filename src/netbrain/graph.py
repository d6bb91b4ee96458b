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
    n: int, edges: Iterable[tuple[int, int]]
) -> tuple[Graph, DropCounts]:
    """Build a simple graph, dropping self-loops and duplicate pairs.

    Returns the graph together with the counts of dropped edges. Endpoints
    outside [0, n) raise :class:`ConstructionError` naming the offending edge.
    """
    if n < 0:
        raise ConstructionError(f"node count must be non-negative, got {n}")
    neighbor_sets: list[set[int]] = [set() for _ in range(n)]
    self_loops = 0
    duplicates = 0
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ConstructionError(f"edge ({u}, {v}) has an endpoint outside [0, {n})")
        if u == v:
            self_loops += 1
            continue
        if v in neighbor_sets[u]:
            duplicates += 1
            continue
        neighbor_sets[u].add(v)
        neighbor_sets[v].add(u)
    adj = tuple(tuple(sorted(s)) for s in neighbor_sets)
    m = sum(len(s) for s in neighbor_sets) // 2
    return Graph(n=n, adj=adj, m=m), DropCounts(self_loops, duplicates)


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
    # A component holds all its nodes' neighbours, and the relabelling keeps
    # node order, so each relabelled list is already sorted and simple.
    adj = tuple(tuple(mapping[w] for w in g.adj[u]) for u in best)
    return Graph(n=len(best), adj=adj, m=sum(map(len, adj)) // 2), mapping


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
