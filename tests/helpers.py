"""Shared graph constructors and independent oracles for the test suite.

The oracles here deliberately avoid the library's own algorithms: betweenness
is checked by enumerating all shortest paths, walk-step distributions by
recursive trajectory enumeration with exact probabilities.
"""

from __future__ import annotations

import math
import random
from collections import defaultdict, deque
from itertools import accumulate, combinations, permutations

import numpy as np

from netbrain import ConstructionError, GeneratorSpec, Graph, ParameterError, WalkPolicy, _native, build_graph
from netbrain.graph import DropCounts, _upper_arcs, is_connected

# One spec per network model, with non-default model parameters.
ALL_SPECS = [
    GeneratorSpec(model="er", n=200, k_avg=6, seed=1),
    GeneratorSpec(model="ba", n=200, k_avg=4, seed=2),
    GeneratorSpec(model="cm", degree_sequence=tuple([3] * 100 + [5] * 100), seed=3),
    GeneratorSpec(model="ws", n=200, k_avg=4, seed=4, p_rewire=0.1),
    GeneratorSpec(model="waxman", n=200, k_avg=6, seed=5, alpha=0.3),
    GeneratorSpec(model="sbm", n=200, k_avg=6, seed=6, blocks=4, mu=0.02),
]



def edges(g: Graph) -> list[tuple[int, int]]:
    """All edges of `g` as (u, v) with u < v, in ascending order."""
    source, target = _upper_arcs(g)
    return list(zip(source.tolist(), target.tolist()))


# The config file of acceptance criterion 8 (deterministic CSV output).
CRITERION_8_CONFIG = {
    "generator": {"model": "ws", "n": 300, "k_avg": 4.0, "seed": 12, "p_rewire": 0.03},
    "policies": ["standard", "extended", "look_ahead"],
    "start": {"kind": "degree_stride", "stride": 60},
    "repetitions_per_start": 2,
    "thresholds": [0.25, 0.5, 0.75, 1.0],
    "master_seed": 88,
}


def set_build_graph_reported(n: int, edges) -> tuple[Graph, DropCounts]:
    """`graph.build_graph_reported` as one set per node: the reference the
    array build is compared against."""
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
    rows = [sorted(s) for s in neighbor_sets]
    indptr = [0, *accumulate(len(row) for row in rows)]
    indices = [w for row in rows for w in row]
    return Graph(n, indptr, indices), DropCounts(self_loops, duplicates)


def _waxman_rows(points: np.ndarray, alpha: float):
    """(u, w) for each node u but the last, where w[j] = exp(-d / (alpha * sqrt(2)))
    for the pair (u, u + 1 + j): that pair's link probability divided by beta."""
    scale = alpha * math.sqrt(2.0)
    for u in range(len(points) - 1):
        d = np.hypot(points[u + 1 :, 0] - points[u, 0], points[u + 1 :, 1] - points[u, 1])
        yield u, np.exp(-d / scale)


def rowwise_waxman_beta(points: np.ndarray, k_avg: float, alpha: float) -> float:
    """`generators.waxman_beta` one row of pairs at a time: the reference the
    blocked pass is compared against."""
    total = 0.0
    for _, weights in _waxman_rows(points, alpha):
        total += float(weights.sum())
    if total <= 0.0:
        raise ParameterError("degenerate point set for waxman calibration")
    return k_avg * len(points) / (2.0 * total)


def rowwise_gen_waxman(n: int, k_avg: float, alpha: float, seed: int) -> Graph:
    """`generators.gen_waxman` in two row-by-row passes, one for beta and one
    drawing n - u - 1 uniforms for each row u, with the edges as tuples."""
    rng = np.random.default_rng(seed)
    points = rng.random((n, 2))
    beta = rowwise_waxman_beta(points, k_avg, alpha)
    if beta > 1.0:
        raise ParameterError(
            f"k_avg={k_avg} unreachable at alpha={alpha} (needs beta={beta:.3f} > 1); "
            "increase alpha"
        )
    edges: list[tuple[int, int]] = []
    for u, weights in _waxman_rows(points, alpha):
        hits = np.nonzero(rng.random(n - u - 1) < beta * weights)[0]
        edges.extend((u, u + 1 + int(j)) for j in hits)
    return build_graph(n, edges)


def bfs_components(g: Graph) -> list[list[int]]:
    """Connected components by breadth-first search over `adj`, as sorted node
    lists ordered by smallest member: the reference for the array labelling."""
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


def path_graph(n: int) -> Graph:
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(n: int) -> Graph:
    """Star on n nodes with node 0 as the center."""
    return build_graph(n, [(0, i) for i in range(1, n)])


def trap_graph(k: int) -> Graph:
    """Brain 0 with k leaves and a neighbour a with k leaves of its own;
    a path a-b-c hangs off a. Under extended walks c is learned only on a
    walk 0 -> a -> b, with chance 1/(k+1)^2, so long idle runs happen on a
    connected graph."""
    a, b, c = k + 1, 2 * k + 2, 2 * k + 3
    edges = [(0, i) for i in range(1, k + 2)] + [(a, a + i) for i in range(1, k + 1)]
    return build_graph(2 * k + 4, edges + [(a, b), (b, c)])


def complete_graph(n: int) -> Graph:
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def diamond_chain(k: int) -> Graph:
    """k diamonds in a row: 2**k shortest paths between the two ends."""
    edges = []
    for i in range(k):
        a, top, bottom, b = 3 * i, 3 * i + 1, 3 * i + 2, 3 * i + 3
        edges += [(a, top), (a, bottom), (top, b), (bottom, b)]
    return build_graph(3 * k + 1, edges)


def fanned_diamond_chain(fan: int, clique: int = 0) -> Graph:
    """`diamond_chain(53)`, whose end has exactly 2**53 shortest paths from
    node 0, fanned out to `fan` middle nodes that all join one node, which so
    has `fan` predecessors of 2**53 paths each; and, apart from them, a
    complete graph on `clique` nodes, which raises the mean degree."""
    chain = diamond_chain(53)
    end, join = chain.n - 1, chain.n + fan
    fanned = [(end, end + 1 + i) for i in range(fan)] + [(end + 1 + i, join) for i in range(fan)]
    base = join + 1
    rest = [(base + i, base + j) for i in range(clique) for j in range(i + 1, clique)]
    return build_graph(base + clique, edges(chain) + fanned + rest)


def betweenness_block(g: Graph, s0: int, s1: int) -> int:
    """What `netbrain_betweenness` returns for the sources s0 to s1 - 1 of
    `g`, on fresh buffers of the sizes its comment asks for."""
    n = g.n
    return _native.LOADER.kernel("netbrain_betweenness")(
        g.indptr, g.indices, n, s0, s1, np.empty((s1 - s0, n)),
        np.empty(n + 1, dtype=np.int32), np.empty(n, dtype=np.int32), np.empty(n, dtype=np.int64),
        np.empty(len(g.indices), dtype=np.int32), np.empty(n, dtype=np.int32),
    )


def harmonic(n: int) -> float:
    return sum(1.0 / i for i in range(1, n + 1))


def average_clustering(g: Graph) -> float:
    linked = [set(nbrs) for nbrs in g.adj]
    total = 0.0
    for v in range(g.n):
        nbrs = g.adj[v]
        k = len(nbrs)
        if k < 2:
            continue
        links = sum(1 for i in range(k) for j in range(i + 1, k) if nbrs[j] in linked[nbrs[i]])
        total += 2.0 * links / (k * (k - 1))
    return total / g.n


# --- betweenness oracle -------------------------------------------------------


def _all_shortest_paths(g: Graph, s: int, t: int) -> list[list[int]]:
    """Every shortest s-t path, found by exhaustive simple-path enumeration."""
    best: list[list[int]] = []
    best_len = [math.inf]

    def dfs(path: list[int], seen: set[int]) -> None:
        if len(path) - 1 > best_len[0]:
            return
        cur = path[-1]
        if cur == t:
            length = len(path) - 1
            if length < best_len[0]:
                best_len[0] = length
                best.clear()
            if length == best_len[0]:
                best.append(list(path))
            return
        for w in g.adj[cur]:
            if w not in seen:
                seen.add(w)
                path.append(w)
                dfs(path, seen)
                path.pop()
                seen.remove(w)

    dfs([s], {s})
    return best


def brute_force_betweenness(g: Graph) -> list[float]:
    """Unordered pairs, endpoints excluded; intended for graphs of <= 8 nodes."""
    scores = [0.0] * g.n
    for s in range(g.n):
        for t in range(s + 1, g.n):
            paths = _all_shortest_paths(g, s, t)
            if not paths:
                continue
            weight = 1.0 / len(paths)
            for p in paths:
                for mid in p[1:-1]:
                    scores[mid] += weight
    return scores


# --- exact walk-step distribution ----------------------------------------------


def exact_first_walk_distribution(
    g: Graph, brain: int, policy: WalkPolicy, step_cap: int | None = None
) -> dict[int, float]:
    """Exact probability of each possible first-walk step count.

    Mirrors the walk semantics by direct recursion over trajectories: arrival
    makes a node known, departure reports (and primes) its neighborhood, the
    walk stops at dead ends, the step cap, or full brain coverage. The cap is
    checked only after a move, as the engine does, so a walk that can move
    makes at least one move even when the brain's own degree reaches the cap.
    """
    n = g.n
    standard = policy is WalkPolicy.STANDARD
    look_ahead = policy is WalkPolicy.LOOK_AHEAD
    dist: dict[int, float] = defaultdict(float)

    def recurse(
        cur: int,
        departed: frozenset[int],
        primed: frozenset[int],
        known: frozenset[int],
        steps: int,
        prob: float,
    ) -> None:
        if len(known) == n:
            dist[steps] += prob
            return
        if step_cap is not None and cur != brain and steps >= step_cap:
            dist[steps] += prob
            return
        if look_ahead:
            eligible = [w for w in g.adj[cur] if w not in departed and w not in primed]
        else:
            eligible = [w for w in g.adj[cur] if w not in departed]
        if not eligible:
            dist[steps] += prob
            return
        share = prob / len(eligible)
        for nxt in eligible:
            departed2 = departed | {cur}
            known2 = set(known)
            primed2 = set(primed)
            if not standard:
                known2.update(g.adj[cur])
                primed2.update(w for w in g.adj[cur] if w not in departed2)
            known2.add(nxt)
            steps2 = steps + (1 if standard else len(g.adj[nxt]))
            recurse(nxt, departed2, frozenset(primed2), frozenset(known2), steps2, share)

    steps0 = 0 if standard else len(g.adj[brain])
    recurse(brain, frozenset(), frozenset(), frozenset({brain}), steps0, 1.0)
    return dict(dist)


# --- small-graph enumeration up to isomorphism ----------------------------------


def connected_graphs_up_to_iso(n: int) -> list[Graph]:
    """All connected graphs on exactly n nodes, one per isomorphism class."""
    if n == 1:
        return [build_graph(1, [])]
    pairs = list(combinations(range(n), 2))
    npairs = len(pairs)
    pair_index = {p: i for i, p in enumerate(pairs)}

    # Per-permutation remap tables, split into low/high bit halves so each
    # edge-mask remap is two lookups and an OR.
    lo_bits = min(8, npairs)
    hi_bits = npairs - lo_bits
    perm_tables = []
    for perm in permutations(range(n)):
        moved = []
        for u, v in pairs:
            a, b = perm[u], perm[v]
            if a > b:
                a, b = b, a
            moved.append(1 << pair_index[(a, b)])
        lo = [0] * (1 << lo_bits)
        for v in range(1 << lo_bits):
            acc = 0
            rest = v
            while rest:
                b = rest & -rest
                acc |= moved[b.bit_length() - 1]
                rest ^= b
            lo[v] = acc
        hi = [0] * (1 << hi_bits)
        for v in range(1 << hi_bits):
            acc = 0
            rest = v
            while rest:
                b = rest & -rest
                acc |= moved[lo_bits + b.bit_length() - 1]
                rest ^= b
            hi[v] = acc
        perm_tables.append((lo, hi))
    lo_mask = (1 << lo_bits) - 1

    def is_connected_mask(mask: int) -> bool:
        adj = [0] * n
        for i, (u, v) in enumerate(pairs):
            if mask >> i & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        seen = 1
        frontier = 1
        while frontier:
            nxt = 0
            rest = frontier
            while rest:
                b = rest & -rest
                nxt |= adj[b.bit_length() - 1]
                rest ^= b
            frontier = nxt & ~seen
            seen |= nxt
        return seen == (1 << n) - 1

    out = []
    for mask in range(1 << npairs):
        if not is_connected_mask(mask):
            continue
        canonical = True
        for lo, hi in perm_tables:
            if lo[mask & lo_mask] | hi[mask >> lo_bits] < mask:
                canonical = False
                break
        if canonical:
            out.append(build_graph(n, [pairs[i] for i in range(npairs) if mask >> i & 1]))
    return out


def random_connected_graph(n: int, rng) -> Graph:
    """A random connected graph on n nodes (rejection sampling on G(n, p))."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    while True:
        g = build_graph(n, [e for e in pairs if rng.random() < 0.5])
        if is_connected(g):
            return g


def wos_scale_degree_sequence(n: int, seed: int) -> list[int]:
    """Citation-like degree mix: leaf minority, exponential bulk, hub tail.

    Tuned so the erased configuration model realizes a mean degree near 17
    at n = 11000, with hubs in the many-hundreds and a median well clear of
    the leaves.
    """
    rng = random.Random(seed)
    seq = []
    for _ in range(n):
        r = rng.random()
        if r < 0.12:
            seq.append(1)
        elif r < 0.20:
            seq.append(2)
        elif r < 0.90:
            seq.append(3 + int(rng.expovariate(1 / 11.5)))
        else:
            seq.append(min(1500, int(30 * rng.paretovariate(1.6))))
    if sum(seq) % 2:
        seq[0] += 1
    return seq
