"""Walk engine: repeated self-avoiding walks from a fixed brain node.

Three walk policies are supported:

* ``standard``: the agent only learns the nodes it steps on; every move
  costs one step.
* ``extended``: on departing a node the agent reports all of that node's
  neighbors to the brain (they become *primed*), but primed nodes stay
  visitable; a walk's cost is the sum of the degrees of its path nodes.
* ``look_ahead``: like extended, but primed nodes may never be entered;
  same degree-sum cost.

Within one walk a node is never visited twice (*blocked* once left). A walk
ends at a dead end, at an optional step cap, or as soon as the brain's
accumulated knowledge covers the whole graph. Each new walk starts from the
same brain node with the agent's view wiped clean; only the brain's knowledge
and step counter persist.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, fields
from enum import Enum
from functools import cached_property
from itertools import compress
from operator import ne
from typing import Iterable, Sequence

from . import _native
from .errors import ConfigError, DiscoveryStallError, _typed
from .graph import Graph, is_connected


class WalkPolicy(str, Enum):
    STANDARD = "standard"
    EXTENDED = "extended"
    LOOK_AHEAD = "look_ahead"

    @classmethod
    def _missing_(cls, value):  # `WalkPolicy(value)` for a value that names no policy
        raise ConfigError(f"unknown policy {value!r}; expected one of {', '.join(p.value for p in cls)}")


class Termination(str, Enum):
    DEAD_END = "dead_end"
    STEP_CAP = "step_cap"
    FULL_COVERAGE = "full_coverage"


# Members as globals: reading one through its Enum class costs about 0.1 us,
# five times a walk, and criterion 7 runs 4.29M walks.
_STANDARD, _LOOK_AHEAD = WalkPolicy.STANDARD, WalkPolicy.LOOK_AHEAD
_DEAD_END, _STEP_CAP, _FULL_COVERAGE = Termination


@dataclass(frozen=True)
class WalkOutcome:
    """Result of a single walk: path taken, knowledge reported, cost."""

    visited_path: tuple[int, ...]
    newly_known: frozenset[int]
    steps: int
    terminated_by: Termination


@dataclass(frozen=True, kw_only=True)
class WalkCounts:
    """The work of a discovery, or the sum over several: the steps charged,
    the walks run, the moves made (one rng draw each) and the walks that
    ended at the step cap. Every record that carries counters inherits
    these fields, and each layer copies them by these names."""

    cumulative_steps: int = 0
    walk_count: int = 0
    moves: int = 0
    cap_hits: int = 0


_COUNTERS = tuple(f.name for f in fields(WalkCounts))


def _walk_counts(*sources) -> dict[str, int]:
    """Each `WalkCounts` field summed over `sources`, by name; of one
    source, its own counters."""
    return {name: sum(getattr(s, name) for s in sources) for name in _COUNTERS}


@dataclass(frozen=True)
class BrainState(WalkCounts):
    """Knowledge accumulated at the brain across walks: `known_mask[v]` is 1
    when node v is known, and `known` is the set of those nodes, built on
    first read."""

    brain: int
    known_mask: bytes = field(repr=False)

    @cached_property
    def known(self) -> set[int]:
        return set(compress(range(len(self.known_mask)), self.known_mask))


@dataclass(frozen=True)
class LearningCurve:
    """Cumulative steps at the first crossing of each discovery threshold."""

    thresholds: tuple[float, ...]
    crossings: tuple[tuple[float, int], ...]

    def steps_at(self, threshold: float) -> int:
        for t, steps in self.crossings:
            if abs(t - threshold) < 1e-9:
                return steps
        raise KeyError(f"threshold {threshold} not in curve grid")


def default_thresholds() -> tuple[float, ...]:
    """The 1%..100% grid in 1% increments."""
    return tuple(i / 100.0 for i in range(1, 101))


def validate_thresholds(thresholds: Sequence[float]) -> tuple[float, ...]:
    ts = tuple(thresholds)
    if not ts:
        raise ConfigError("threshold grid must not be empty")
    if any(not 0.0 < t <= 1.0 for t in ts):
        raise ConfigError("thresholds must lie in (0, 1]")
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise ConfigError("thresholds must be strictly increasing")
    return tuple(map(float, ts))  # compared first: float() overflows on a huge int


def validate_target_fraction(target_fraction: float) -> float:
    if not 0.0 < target_fraction <= 1.0:
        raise ConfigError(f"target_fraction must be in (0, 1], got {target_fraction}")
    return float(target_fraction)  # compared first: float() overflows on a huge int


def validate_step_cap(step_cap: int | None) -> int | None:
    """None (no cap) or an integer of at least 1, as a Python int; a cap is checked after a move."""
    if step_cap is None:
        return None
    step_cap = _typed(step_cap, int, "step_cap")
    if step_cap < 1:
        raise ConfigError(f"step_cap must be >= 1, got {step_cap}")
    return step_cap


# A step count no walk reaches: a walk's steps are at most 2m < 2**31, so any
# larger cap runs as this one, and it fits the kernel's int64.
_NO_CAP = 1 << 62


class _Walker:
    """The walks of one discovery, and its whole state for either engine.

    The state is the brain's knowledge mask `known` and its popcount `count`
    (so the coverage check is O(1) per move), `reported`, the cumulative
    `steps`, the knowledge counts `targets` of the thresholds, the steps at
    each target crossed so far (`crossed`), and the counters `walks`,
    `moves`, `cap_hits` and `stalled` (walks in a row that made nothing
    known). `discover` runs the walks natively on the same buffers when
    `_native.discover` can, and here otherwise; `walk` follows the kernel
    line for line. Counting draws nothing from the rng.

    Both report policies report a node's neighbourhood on the first
    departure from it in a discovery: knowledge only grows, so a later
    departure would report nothing new. `look_ahead` primes the unvisited
    neighbours on every departure, as primed nodes are off-limits to it for
    the rest of the walk; `extended` never primes, as its eligibility
    (`state < BLOCKED`) does not see it. A walk ends as soon as the brain
    knows `stop_count` nodes (default: all).

    A walk's view of each node is one byte: 0 unvisited, 1 PRIMED,
    2 BLOCKED (left), 3 CURRENT.
    """

    __slots__ = (
        "g", "brain", "policy", "rng", "cap", "stop_count", "known", "count", "reported",
        "targets", "crossed", *_COUNTERS, "stalled",
    )

    def __init__(
        self,
        g: Graph,
        brain: int,
        policy: WalkPolicy | str,
        rng: random.Random,
        step_cap: int | None = None,
        known: Iterable[int] | None = None,
        stop_count: int | None = None,
        targets: Sequence[int] = (),
    ):
        if not 0 <= brain < g.n:
            raise ValueError(f"brain {brain} outside [0, {g.n})")
        self.g = g
        self.brain = brain
        # A member skips the Enum call (~0.7 us a walk over millions of short walks).
        self.policy = policy if isinstance(policy, WalkPolicy) else WalkPolicy(policy)
        self.rng = rng
        self.cap = _NO_CAP if step_cap is None else min(validate_step_cap(step_cap), _NO_CAP)
        self.stop_count = g.n if stop_count is None else stop_count
        self.known = bytearray(g.n)
        self.count = 0
        if known is not None:
            for v in known:
                if not 0 <= v < g.n:
                    raise ValueError(f"known node {v} outside [0, {g.n})")
                self.known[v] = 1
            self.count = self.known.count(1)
        self.reported = bytearray(g.n)
        self.targets = targets
        self.crossed: list[int] = []
        # The `_COUNTERS` by name: a setattr loop over them costs about 0.2 us
        # more a walker, some 2% of a `run_walk`.
        self.cumulative_steps = self.walk_count = self.moves = self.cap_hits = self.stalled = 0

    def _record(self, count: int, steps: int) -> int:
        """Record `steps` at every target that `count` reaches; return the
        next target, or n + 1, which no count reaches."""
        targets, crossed = self.targets, self.crossed
        while len(crossed) < len(targets) and count >= targets[len(crossed)]:
            crossed.append(steps)
        return targets[len(crossed)] if len(crossed) < len(targets) else self.g.n + 1

    def walk(self, collect_path: bool = False) -> tuple[list[int] | None, int, Termination]:
        """One walk from the brain with a fresh agent view.

        Returns the path (if collected), the walk's steps and why it ended.
        """
        adj = self.g.adj
        known = self.known
        reported = self.reported
        count = self.count
        stop = self.stop_count
        cap = self.cap
        base = self.cumulative_steps
        record = self._record
        standard = self.policy is _STANDARD
        look_ahead = self.policy is _LOOK_AHEAD
        brain = cur = self.brain
        state = bytearray(self.g.n)
        state[brain] = 3  # CURRENT
        if not known[brain]:
            known[brain] = 1
            count += 1
        steps = 0 if standard else len(adj[brain])
        moves = 0
        path = [brain] if collect_path else None
        target = record(count, base + steps) if self.targets else self.g.n + 1
        if count >= stop:
            reason = _FULL_COVERAGE
        else:
            rnd = self.rng.random
            while True:
                nbrs = adj[cur]
                if look_ahead:
                    elig = [w for w in nbrs if not state[w]]
                else:
                    elig = [w for w in nbrs if state[w] < 2]  # not BLOCKED
                k = len(elig)
                if not k:
                    reason = _DEAD_END
                    break
                # Exactly one rng draw per move keeps runs reproducible.
                i = int(rnd() * k)
                nxt = elig[i if i < k else -1]
                moves += 1
                state[cur] = 2  # BLOCKED
                # Departure reports the neighbourhood, which is all known
                # after the first departure from `cur`.
                if not standard and not reported[cur]:
                    reported[cur] = 1
                    for w in nbrs:
                        if not known[w]:
                            known[w] = 1
                            count += 1
                # A look_ahead departure primes the unvisited neighbours,
                # which are exactly `elig`.
                if look_ahead:
                    for w in elig:
                        state[w] = 1  # PRIMED
                state[nxt] = 3  # CURRENT
                if not known[nxt]:
                    known[nxt] = 1
                    count += 1
                steps += 1 if standard else len(adj[nxt])
                if collect_path:
                    path.append(nxt)
                cur = nxt
                if count >= target:
                    target = record(count, base + steps)
                if count >= stop:
                    reason = _FULL_COVERAGE
                    break
                if steps >= cap:
                    reason = _STEP_CAP
                    break
        self.count = count
        self.cumulative_steps = base + steps
        self.walk_count += 1
        self.moves += moves
        self.cap_hits += reason is _STEP_CAP
        return path, steps, reason

    def discover(self, stall_limit: int) -> bool:
        """Walk until the brain knows `stop_count` nodes (False), or until
        `stall_limit` walks in a row have made nothing known (True);
        natively unless `_native.discover` declines."""
        stalled = _native.discover(self, stall_limit)
        if stalled is not None:
            return stalled
        while self.count < self.stop_count:
            before = self.count
            self.walk()
            if self.count > before:
                self.stalled = 0
            else:
                self.stalled += 1
                if self.stalled >= stall_limit:
                    return True
        return False


def run_walk(
    g: Graph,
    brain: int,
    policy: WalkPolicy | str,
    rng: random.Random,
    step_cap: int | None = None,
    known: Iterable[int] | None = None,
) -> WalkOutcome:
    """Execute one walk from the brain with a fresh agent view.

    `known` is the brain's accumulated knowledge before this walk; it only
    affects the full-coverage early exit and which reports count as new.
    Every departure reports its neighbourhood afresh.
    """
    walker = _Walker(g, brain, policy, rng, step_cap, known)
    before = bytes(walker.known) if walker.count else None
    path, steps, reason = walker.walk(collect_path=True)
    # Knowing nothing before, the walk made known all that is known now.
    changed = walker.known if before is None else map(ne, walker.known, before)
    # Positional arguments: keywords double the cost of a frozen dataclass.
    return WalkOutcome(tuple(path), frozenset(compress(range(g.n), changed)), steps, reason)


def run_discovery(
    g: Graph,
    brain: int,
    policy: WalkPolicy | str,
    rng: random.Random,
    step_cap: int | None = None,
    thresholds: Sequence[float] | None = None,
    target_fraction: float = 1.0,
) -> tuple[LearningCurve, BrainState]:
    """Repeat walks from the brain until its knowledge covers the graph.

    Records the cumulative step count (summed over walks, at move
    granularity) at the moment each discovery threshold is first reached.
    The graph must be connected (run on the LCC). A misuse guard aborts
    after 10 * n consecutive walks that add nothing, if a step cap is set or
    the graph is disconnected, and its message names the cap when the graph
    is connected; without a cap (or with one of 2**62 or more,
    which no walk reaches), every node of a connected graph is reachable
    along a shortest path, so progress is certain and the count starts over.
    When the cap ends every walk after its first move, and the brain and its
    neighbours are fewer than the run must know, it raises before any walk.

    `target_fraction` stops the run once that fraction is known; the default
    of 1.0 runs to full coverage. Thresholds above the target are then never
    crossed.

    The walks run natively when `_native.discover` can replay `rng` (see
    there), and in Python otherwise, with the same result.
    """
    grid = validate_thresholds(thresholds if thresholds is not None else default_thresholds())
    target_fraction = validate_target_fraction(target_fraction)
    n = g.n
    walker = _Walker(
        g, brain, policy, rng, step_cap,
        stop_count=math.ceil(target_fraction * n - 1e-9),
        targets=[math.ceil(t * n - 1e-9) for t in grid],
    )
    degree = g.degree(brain)
    # The fewest steps after one move: steps start at 0 or the brain's degree, and a move adds 1 or more.
    first_move = 1 if walker.policy is _STANDARD else degree + 1
    if degree and walker.cap <= first_move and degree + 1 < walker.stop_count:
        raise DiscoveryStallError(
            f"no progress past the brain and its {degree} neighbours "
            f"(policy={walker.policy.value}, brain={brain}, target={walker.stop_count}/{n}); "
            f"the step cap of {walker.cap} ends every walk after its first move"
        )
    while walker.discover(10 * n):
        connected = is_connected(g)
        if walker.cap == _NO_CAP and connected:
            walker.stalled = 0
            continue
        raise DiscoveryStallError(
            f"no progress in {walker.stalled} consecutive walks "
            f"(policy={walker.policy.value}, brain={brain}, known={walker.count}/{n}); "
            + (f"the graph is connected, so the step cap of {walker.cap} keeps the rest out of reach"
               if connected else "is the graph connected?")
        )
    curve = LearningCurve(thresholds=grid, crossings=tuple(zip(grid, walker.crossed)))
    return curve, BrainState(brain, bytes(walker.known), **_walk_counts(walker))
