"""Seeded network-model constructors, all parameterized by node count and target mean degree.

Every generator is a pure function of its parameters and seed: the same seed
always yields a bit-identical edge set. The combinatorial models (ER, BA, CM,
WS, SBM) draw from ``random.Random``; the geometric Waxman model uses a numpy
generator for the bulk distance work.
"""

from __future__ import annotations

import logging
import math
import random
from dataclasses import dataclass, fields
from typing import Callable, Iterator, Sequence

import numpy as np

from . import _native
from .errors import ParameterError, _typed
from .graph import _INT32, Graph, build_graph, build_graph_reported, largest_connected_component

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class GeneratorSpec:
    """Declarative description of one network realization, checked when built or replaced.

    ``k_avg`` is the target mean degree. Each model reads only its own fields
    (see ``_MODELS``) and ignores the rest: ``p_rewire`` (ws), ``mu`` and
    ``blocks`` (sbm), ``alpha`` (waxman), ``degree_sequence`` (cm, replaces
    n/k_avg).
    """

    model: str
    n: int = 0
    k_avg: float = 0.0
    seed: int = 0
    p_rewire: float = 0.03
    mu: float = 0.01
    blocks: int = 10
    alpha: float = 0.5
    degree_sequence: tuple[int, ...] | None = None

    def __post_init__(self):
        # Integers become Python ints: numpy's do not seed random.Random.
        for name, kind in _FIELD_TYPES.items():
            value = getattr(self, name)
            if value is not None or name != "degree_sequence":  # which may be None
                object.__setattr__(self, name, _typed(value, kind, f"generator.{name}"))
        if self.model not in _MODELS:
            raise ParameterError(f"unknown model {self.model!r}, expected one of {MODELS}")
        if self.seed < 0:  # numpy refuses it, and random.Random would seed from |seed|
            raise ParameterError(f"seed must be >= 0, got {self.seed}")
        _MODELS[self.model].check(**_params(self))


# Each GeneratorSpec field's type: a number takes its default's type.
_FIELD_TYPES = {"model": str} | {f.name: type(f.default) for f in fields(GeneratorSpec)[1:]}
_FIELD_TYPES["degree_sequence"] = [int]


@dataclass(frozen=True)
class RealizedStats:
    """What a generation run actually produced, after LCC reduction."""

    model: str
    requested_n: int
    requested_k_avg: float
    n: int
    m: int
    k_avg: float
    nodes_outside_lcc: int


@dataclass(frozen=True)
class GenerationResult:
    graph: Graph
    stats: RealizedStats


def _bernoulli_indices(total: int, p: float, rng: random.Random) -> Iterator[int]:
    """Indices of successes among `total` independent Bernoulli(p) trials."""
    if p <= 0.0 or total <= 0:
        return
    if p >= 1.0:
        yield from range(total)
        return
    lp = math.log1p(-p)
    i = -1
    while True:
        i += 1 + int(math.log1p(-rng.random()) / lp)
        if i >= total:
            return
        yield i


def _gnp_pairs(n: int, p: float, rng: random.Random) -> Iterator[tuple[int, int]]:
    """G(n, p) on nodes 0..n-1: each success index t ranks the pair (v, w), w < v."""
    for t in _bernoulli_indices(n * (n - 1) // 2, p, rng):
        v = (1 + math.isqrt(1 + 8 * t)) // 2
        yield v, t - v * (v - 1) // 2


# --- range rules, shared by GeneratorSpec and the gen_* functions ---


# The most edges a model may expect to draw: n * k_avg / 2, or for an sbm
# its clamp-aware count, or for a cm half its degree sum. er, ba, ws and sbm
# keep each drawn edge as a tuple in a list, about 128 bytes per edge before
# build_graph packs them into arrays, so this is over half a gigabyte. cm and
# waxman draw into arrays: cm two int32 stubs an edge, and waxman at most
# about twice its expected edges as candidates, at 24 bytes each.
_MAX_EDGES = 5_000_000
# The most nodes a model may have: set-up takes about 25 bytes a node whatever the edges (er at n=4,000,000,
# k_avg=0.01: 132 MB peak RSS for a 4-node LCC, 34 MB of it the import; 2-CPU Xeon).
_MAX_NODES = 5_000_000


def _check_n_k(n: int, k_avg: float) -> None:
    if n < 2:
        raise ParameterError(f"need n >= 2, got {n}")
    if n >= _INT32:  # no Graph holds more; checked before n meets a float below
        raise ParameterError(f"need n < 2**31, got {n}")
    if n > _MAX_NODES:
        raise ParameterError(f"n={n:,} is above the bound of {_MAX_NODES:,} nodes; lower n")
    if not 0 < k_avg < n:
        raise ParameterError(f"need 0 < k_avg < n, got k_avg={k_avg}, n={n}")
    if n * k_avg / 2 > _MAX_EDGES:
        raise ParameterError(
            f"n={n} and k_avg={k_avg} expect {n * k_avg / 2:.3g} edges, above the bound of "
            f"{_MAX_EDGES:,}; lower n or k_avg"
        )


def _ba_attachments(k_avg: float) -> int:
    """The edges each arriving node attaches in `ba`: half the mean degree, at least one."""
    return max(1, round(k_avg / 2.0))


def _check_attachments(n: int, m_attach: int) -> None:
    if not 1 <= m_attach < n:
        raise ParameterError(f"need 1 <= m_attach < n, got m_attach={m_attach}, n={n}")
    if n * m_attach > _MAX_EDGES:
        raise ParameterError(
            f"n={n} and m_attach={m_attach} give {n * m_attach:,} edges, above the bound of "
            f"{_MAX_EDGES:,}; lower n or m_attach"
        )


def _check_ba(n: int, k_avg: float) -> None:
    _check_n_k(n, k_avg)
    _check_attachments(n, _ba_attachments(k_avg))


def _check_unit(name: str, value: float, open_below: bool = False) -> None:
    """`value` must lie in [0, 1], or in (0, 1] when `open_below`."""
    if not (0.0 < value if open_below else 0.0 <= value) or value > 1.0:
        raise ParameterError(f"{name} must be in {'(' if open_below else '['}0, 1], got {value}")


def _check_cm(degree_sequence: Sequence[int]) -> None:
    if not degree_sequence:
        raise ParameterError("cm requires a non-empty degree_sequence")
    n = len(degree_sequence)
    if n > _MAX_NODES:
        raise ParameterError(f"a degree sequence of {n:,} nodes is above the bound of {_MAX_NODES:,} nodes")
    total = sum(degree_sequence)
    if total % 2 != 0:
        raise ParameterError("degree sequence must have an even sum")
    if min(degree_sequence) < 0:
        raise ParameterError("degrees must be non-negative")
    if max(degree_sequence) >= n:
        raise ParameterError("max degree must be smaller than the sequence length")
    if total // 2 > _MAX_EDGES:  # gen_cm holds two int32 stubs an edge
        raise ParameterError(
            f"a degree sequence summing to {total:,} asks for {total // 2:,} edges, "
            f"above the bound of {_MAX_EDGES:,}; lower the degrees"
        )


def _check_ws(n: int, k_avg: float, p_rewire: float) -> None:
    _check_n_k(n, k_avg)
    if k_avg != int(k_avg) or int(k_avg) % 2 != 0:
        raise ParameterError(f"ws requires an even integer k, got k={k_avg}")
    _check_unit("p_rewire", p_rewire)


# The most node pairs gen_waxman may weigh. It draws once for every pair, so
# its time grows with n(n-1)/2: on a 2-CPU Xeon it took 11.0 s at n=20,000
# (k_avg=8, alpha=0.1), just under this bound, against 15.9 s for the two
# row-by-row passes it replaced (one run each); those took 403 s at
# n=100,000.
_WAXMAN_MAX_PAIRS = 200_000_000


def _check_waxman(n: int, k_avg: float, alpha: float) -> None:
    _check_n_k(n, k_avg)
    _check_unit("alpha", alpha, open_below=True)
    pairs = n * (n - 1) // 2
    if pairs > _WAXMAN_MAX_PAIRS:
        raise ParameterError(
            f"waxman would weigh {pairs:,} node pairs for n={n}, above the bound of "
            f"{_WAXMAN_MAX_PAIRS:,}; lower n"
        )


def _sbm_sizes(n: int, blocks: int) -> list[int]:
    """Equal block sizes; the remainder goes to the first blocks."""
    base, rem = divmod(n, blocks)
    return [base + 1] * rem + [base] * (blocks - rem)


# The most blocks an sbm may have, at any mu: gen_sbm keeps a size and an
# offset for each block and draws each block on its own. At this bound, in
# blocks of two nodes (n=200,000, k_avg=1, mu=0), generate took 0.20-0.24 s
# and a peak RSS of 57 MB, 22 MB above the import alone (three runs on a
# 2-CPU Xeon).
_SBM_MAX_BLOCKS = 100_000


def _check_sbm(n: int, blocks: int, mu: float, k_avg: float) -> None:
    if blocks > _SBM_MAX_BLOCKS:
        raise ParameterError(
            f"sbm with {blocks:,} blocks is above the bound of {_SBM_MAX_BLOCKS:,}; lower blocks"
        )
    _check_n_k(n, k_avg)
    if not 1 <= blocks <= n:
        raise ParameterError(f"need 1 <= blocks <= n, got blocks={blocks}, n={n}")
    _check_unit("mu", mu)
    # gen_sbm visits every block pair when mu > 0, drawn from or not.
    block_pairs = blocks * (blocks - 1) // 2
    if mu > 0 and block_pairs > _MAX_EDGES:
        raise ParameterError(
            f"sbm with mu > 0 visits {block_pairs:,} block pairs, above the bound of "
            f"{_MAX_EDGES:,}; lower blocks or set mu=0"
        )
    p_in = sbm_intra_probability(n, blocks, mu, k_avg)
    if p_in > 1.0:
        raise ParameterError(
            f"intra-block probability {p_in:.3f} > 1: mu={mu} too small for k_avg={k_avg}"
        )
    base, rem = divmod(n, blocks)  # the sizes of _sbm_sizes
    pairs_in = rem * (base + 1) * base // 2 + (blocks - rem) * base * (base - 1) // 2
    expected = max(p_in, 0.0) * pairs_in + mu * (n * (n - 1) // 2 - pairs_in)
    # The clamp of a negative intra-block probability can ask for far more
    # edges than k_avg does (README).
    if expected > _MAX_EDGES:
        raise ParameterError(
            f"sbm would draw about {expected:.3g} edges (mean degree {2 * expected / n:.3g} "
            f"for k_avg={k_avg}), above the bound of {_MAX_EDGES:,}; lower mu or n"
        )


def gen_er(n: int, k_avg: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p) with p = k_avg / (n - 1)."""
    _check_n_k(n, k_avg)
    p = min(1.0, k_avg / (n - 1))
    rng = random.Random(seed)
    return build_graph(n, _gnp_pairs(n, p, rng))


def gen_ba(n: int, m_attach: int, seed: int) -> Graph:
    """Barabasi-Albert growth from a seed clique of m_attach + 1 nodes.

    Each arriving node attaches m_attach edges to distinct targets chosen
    with probability proportional to current degree, so the mean degree
    approaches 2 * m_attach.
    """
    _check_attachments(n, m_attach)
    rng = random.Random(seed)
    clique = m_attach + 1
    edges = [(i, j) for i in range(clique) for j in range(i + 1, clique)]
    # One entry per unit of degree; drives preferential attachment.
    repeated = [v for v in range(clique) for _ in range(m_attach)]
    for v in range(clique, n):
        targets: set[int] = set()
        while len(targets) < m_attach:
            targets.add(repeated[int(rng.random() * len(repeated))])
        for t in sorted(targets):
            edges.append((v, t))
            repeated.append(t)
        repeated.extend([v] * m_attach)
    return build_graph(n, edges)


def gen_cm(degree_sequence: Sequence[int], seed: int) -> Graph:
    """Erased configuration model: stub matching, then drop loops and multi-edges.

    The realized degree of each node is at most the requested one; the number
    of erased pairings is logged.
    """
    _check_cm(degree_sequence)
    return _cm_graph(degree_sequence, seed)


def _cm_graph(degree_sequence: Sequence[int], seed: int) -> Graph:
    """`gen_cm` of a sequence that `_check_cm` has passed: `generate` builds
    from a `GeneratorSpec`, which checked its own when it was made."""
    n = len(degree_sequence)
    rng = random.Random(seed)
    stubs = np.repeat(np.arange(n, dtype=np.int32), degree_sequence)
    if not _native.shuffle(rng, stubs):
        shuffled = stubs.tolist()
        rng.shuffle(shuffled)
        stubs = np.array(shuffled, dtype=np.int32)
    g, drops = build_graph_reported(n, stubs.reshape(-1, 2))
    if drops.self_loops or drops.duplicates:
        logger.info(
            "configuration model erased %d self-loops and %d duplicate pairings",
            drops.self_loops,
            drops.duplicates,
        )
    return g


def gen_ws(n: int, k_even: int, p_rewire: float, seed: int) -> Graph:
    """Watts-Strogatz ring lattice with per-edge rewiring.

    Each of the n * k_even / 2 lattice edges is independently rewired with
    probability p_rewire: the source endpoint is kept, the other endpoint is
    redrawn uniformly among non-self, non-duplicate targets. The edge count
    is preserved exactly.
    """
    _check_ws(n, k_even, p_rewire)
    rng = random.Random(seed)
    neighbor_sets: list[set[int]] = [set() for _ in range(n)]
    for j in range(1, k_even // 2 + 1):
        for u in range(n):
            v = (u + j) % n
            neighbor_sets[u].add(v)
            neighbor_sets[v].add(u)
    for j in range(1, k_even // 2 + 1):
        for u in range(n):
            v = (u + j) % n
            if rng.random() >= p_rewire:
                continue
            if len(neighbor_sets[u]) >= n - 1:
                continue  # u is saturated, nothing valid to rewire to
            w = int(rng.random() * n)
            while w == u or w in neighbor_sets[u]:
                w = int(rng.random() * n)
            neighbor_sets[u].discard(v)
            neighbor_sets[v].discard(u)
            neighbor_sets[u].add(w)
            neighbor_sets[w].add(u)
    edges = [(u, v) for u in range(n) for v in neighbor_sets[u] if u < v]
    return build_graph(n, edges)


# The most node pairs gen_waxman weighs at once. Its blocks are whole rows
# (the pairs (u, v), v > u, of consecutive u), so a row longer than this is
# a block by itself. Each float array of a block takes 64 KiB; blocks of
# 65,536 pairs raised the tracemalloc peak of gen_waxman at n=1000 from 0.7
# to 3.7 MiB.
_WAXMAN_BLOCK_PAIRS = 8192


def _waxman_blocks(points: np.ndarray, alpha: float):
    """Yield (u, v, w, total) for consecutive blocks of whole rows of pairs.

    For the block's pairs (u[j], v[j]), u < v, in row-major order, w[j] =
    exp(-d / (alpha * sqrt(2))) is that pair's link probability divided by
    beta. `total` sums, in row order, each row's `sum()` taken on its own
    contiguous slice of w, over every row up to this block's last.
    """
    n = len(points)
    x = np.ascontiguousarray(points[:, 0])
    y = np.ascontiguousarray(points[:, 1])
    scale = alpha * math.sqrt(2.0)
    lengths = np.arange(n - 1, 0, -1)  # row u holds the pairs (u, u+1) .. (u, n-1)
    ends = np.cumsum(lengths)
    total = 0.0
    a = 0
    while a < n - 1:
        start = int(ends[a] - lengths[a])
        b = max(a + 1, int(np.searchsorted(ends, start + _WAXMAN_BLOCK_PAIRS, side="right")))
        sizes = lengths[a:b]
        row_ends = ends[a:b] - start  # each row's end within the block
        u = np.repeat(np.arange(a, b, dtype=np.int32), sizes)
        v = np.arange(int(row_ends[-1]), dtype=np.int32) + np.repeat(n - row_ends.astype(np.int32), sizes)
        w = np.hypot(x[v] - np.repeat(x[a:b], sizes), y[v] - np.repeat(y[a:b], sizes))
        np.negative(w, out=w)
        w /= scale
        np.exp(w, out=w)
        s = 0
        for e in row_ends.tolist():
            total += float(np.add.reduce(w[s:e]))  # what w[s:e].sum() computes
            s = e
        yield u, v, w, total
        a = b


def _waxman_beta_from(total: float, k_avg: float, n: int) -> float:
    """beta for n points whose pair weights sum to `total`."""
    if total <= 0.0:
        raise ParameterError("degenerate point set for waxman calibration")
    return k_avg * n / (2.0 * total)


def waxman_beta(points: np.ndarray, k_avg: float, alpha: float) -> float:
    """Link-probability scale giving expected mean degree k_avg on these points.

    The pair probability is beta * exp(-d / (alpha * sqrt(2))), so the
    expected degree is linear in beta and the calibration is exact.
    """
    total = 0.0
    for *_, total in _waxman_blocks(points, alpha):
        pass
    return _waxman_beta_from(total, k_avg, len(points))


def gen_waxman(n: int, k_avg: float, alpha: float, seed: int) -> Graph:
    """Waxman geometric graph on n uniform points in the unit square.

    Pair (u, v) is linked with probability beta * exp(-d(u,v) / (alpha*sqrt(2)))
    where beta is calibrated against the realized point set so the expected
    mean degree equals k_avg.

    One pass over blocks of whole rows weighs each pair once, sums the
    weights for beta and draws each pair's uniform r; the pair is linked
    when r < beta * w. The edges are those of two row-by-row passes (one
    for beta, one drawing n - u - 1 uniforms for each row u), bit for bit:

    - every weight is the same elementwise arithmetic on the same points;
    - beta adds the same per-row sums in the same order;
    - PCG64 spends one 64-bit output per double, so one block's draws are
      its rows' draws concatenated.

    beta is known only after the last row, so each block keeps the
    candidates with r < bound * w, where bound is min(1, beta's expression
    on the total of the rows so far). Float sums of non-negative terms
    never decrease, and float division and product are monotone, so
    bound >= beta whenever beta <= 1 (beta > 1 is refused) and no edge is
    lost. Once more than n * k_avg candidates (twice the expected edges)
    are held, they are joined and filtered again with the latest bound, so
    they stay O(edges). They are also joined once more than 64 blocks are
    held: when rows are long, each block keeps few candidates, and its four
    array objects would outweigh them.
    """
    _check_waxman(n, k_avg, alpha)
    rng = np.random.default_rng(seed)
    points = rng.random((n, 2))
    held: list[tuple[np.ndarray, ...]] = []  # candidate (u, v, r, w) arrays
    count = 0
    total = 0.0
    for u, v, w, total in _waxman_blocks(points, alpha):
        r = rng.random(w.size)
        bound = min(1.0, _waxman_beta_from(total, k_avg, n)) if total > 0.0 else 1.0
        keep = r < bound * w
        held.append((u[keep], v[keep], r[keep], w[keep]))
        count += held[-1][0].size
        if count > k_avg * n or len(held) > 64:
            held = [_waxman_joined(held, bound)]
            count = held[0][0].size
    beta = _waxman_beta_from(total, k_avg, n)
    if beta > 1.0:
        raise ParameterError(
            f"k_avg={k_avg} unreachable at alpha={alpha} (needs beta={beta:.3f} > 1); "
            "increase alpha"
        )
    u, v, _, _ = _waxman_joined(held, beta)
    return build_graph(n, np.column_stack((u, v)))


def _waxman_joined(held: list[tuple[np.ndarray, ...]], bound: float) -> tuple[np.ndarray, ...]:
    """The held (u, v, r, w) candidate arrays joined, keeping r < bound * w."""
    u, v, r, w = map(np.concatenate, zip(*held))
    keep = r < bound * w
    return u[keep], v[keep], r[keep], w[keep]


def sbm_intra_probability(n: int, blocks: int, mu: float, k_avg: float) -> float:
    """Intra-block pair probability solving E[k] = p_in*(n_b - 1) + mu*(n - n_b).

    The raw solution is returned unclamped; callers decide how to handle
    values outside [0, 1].
    """
    n_b = n / blocks
    if n_b <= 1:
        raise ParameterError("blocks must leave at least 2 nodes per block")
    return (k_avg - mu * (n - n_b)) / (n_b - 1)


def gen_sbm(n: int, blocks: int, mu: float, k_avg: float, seed: int) -> Graph:
    """Stochastic block model with equal-size blocks (remainder goes to the first ones).

    Inter-block pairs are linked with probability mu; the intra-block
    probability is solved from the expected-degree equation and clamped to
    [0, 1] with a warning when the target is unreachable from below.
    """
    _check_sbm(n, blocks, mu, k_avg)
    p_in = sbm_intra_probability(n, blocks, mu, k_avg)
    if p_in < 0.0:
        logger.warning(
            "sbm intra-block probability %.4f clamped to 0 (mu=%g alone exceeds k_avg=%g)",
            p_in,
            mu,
            k_avg,
        )
        p_in = 0.0
    sizes = _sbm_sizes(n, blocks)
    offsets = [0]
    for s in sizes:
        offsets.append(offsets[-1] + s)
    rng = random.Random(seed)
    edges: list[tuple[int, int]] = []
    for b in range(blocks):
        o = offsets[b]
        edges.extend((o + v, o + w) for v, w in _gnp_pairs(sizes[b], p_in, rng))
    if mu > 0:  # at mu = 0 no block pair draws, so the loop is skipped with the same bits
        for a in range(blocks):
            for b in range(a + 1, blocks):
                na, nb = sizes[a], sizes[b]
                for t in _bernoulli_indices(na * nb, mu, rng):
                    edges.append((offsets[a] + t // nb, offsets[b] + t % nb))
    return build_graph(n, edges)


@dataclass(frozen=True)
class _Model:
    """One network model; `check` and `build` take its `fields` as keywords.

    `build` also takes the seed and returns the graph before LCC reduction.
    """

    fields: tuple[str, ...]  # the GeneratorSpec fields it reads, besides model and seed
    check: Callable[..., None]
    build: Callable[..., Graph]
    requested: Callable[[GeneratorSpec], tuple[int, float]] = lambda s: (s.n, s.k_avg)


_MODELS = {
    "er": _Model(("n", "k_avg"), _check_n_k, gen_er),
    "ba": _Model(
        ("n", "k_avg"),
        _check_ba,
        lambda n, k_avg, seed: gen_ba(n, _ba_attachments(k_avg), seed),
    ),
    "cm": _Model(
        ("degree_sequence",),
        _check_cm,
        _cm_graph,
        lambda s: (len(s.degree_sequence), sum(s.degree_sequence) / len(s.degree_sequence)),
    ),
    "ws": _Model(
        ("n", "k_avg", "p_rewire"),
        _check_ws,
        lambda n, k_avg, p_rewire, seed: gen_ws(n, int(k_avg), p_rewire, seed),
    ),
    "waxman": _Model(("n", "k_avg", "alpha"), _check_waxman, gen_waxman),
    "sbm": _Model(("n", "k_avg", "mu", "blocks"), _check_sbm, gen_sbm),
}

MODELS = tuple(_MODELS)


def _params(spec: GeneratorSpec) -> dict:
    return {f: getattr(spec, f) for f in _MODELS[spec.model].fields}


def generate(spec: GeneratorSpec) -> GenerationResult:
    """Build the model's realization and reduce it to the largest component."""
    model = _MODELS[spec.model]
    g = model.build(seed=spec.seed, **_params(spec))
    raw_n = g.n
    lcc, _ = largest_connected_component(g)
    requested_n, requested_k = model.requested(spec)
    stats = RealizedStats(
        model=spec.model,
        requested_n=requested_n,
        requested_k_avg=requested_k,
        n=lcc.n,
        m=lcc.m,
        k_avg=lcc.mean_degree(),
        nodes_outside_lcc=raw_n - lcc.n,
    )
    return GenerationResult(graph=lcc, stats=stats)
