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
from dataclasses import dataclass
from enum import Enum
from itertools import compress
from typing import Iterable, Sequence

from . import _native
from .errors import ConfigError, DiscoveryStallError
from .graph import Graph, is_connected


class WalkPolicy(str, Enum):
    STANDARD = "standard"
    EXTENDED = "extended"
    LOOK_AHEAD = "look_ahead"


class Termination(str, Enum):
    DEAD_END = "dead_end"
    STEP_CAP = "step_cap"
    FULL_COVERAGE = "full_coverage"


@dataclass(frozen=True)
class WalkOutcome:
    """Result of a single walk: path taken, knowledge reported, cost."""

    visited_path: tuple[int, ...]
    newly_known: frozenset[int]
    steps: int
    terminated_by: Termination


@dataclass
class BrainState:
    """Knowledge accumulated at the brain across walks."""

    brain: int
    known: set[int]
    cumulative_steps: int = 0
    walk_count: int = 0
    cap_hits: int = 0
    moves: int = 0


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
    ts = tuple(float(t) for t in thresholds)
    if not ts:
        raise ConfigError("threshold grid must not be empty")
    if any(not 0.0 < t <= 1.0 for t in ts):
        raise ConfigError("thresholds must lie in (0, 1]")
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise ConfigError("thresholds must be strictly increasing")
    return ts


class _CrossingTracker:
    """Records cumulative steps the moment each knowledge threshold is reached.

    Thresholds are precomputed as integer knowledge counts, so the per-move
    check is one integer comparison against the next target. Checks happen
    at move boundaries: a move's cost is charged before its discoveries are
    inspected.
    """

    __slots__ = ("grid", "targets", "never", "crossings")

    def __init__(self, grid: tuple[float, ...], n: int):
        self.grid = grid
        self.targets = [math.ceil(t * n - 1e-9) for t in grid]
        self.never = n + 1  # a target no knowledge count reaches
        self.crossings: list[tuple[float, int]] = []

    def record(self, known_count: int, steps: int) -> int:
        """Record every threshold `known_count` reaches; return the next target."""
        targets = self.targets
        i = len(self.crossings)
        while i < len(targets) and known_count >= targets[i]:
            self.crossings.append((self.grid[i], steps))
            i += 1
        return targets[i] if i < len(targets) else self.never


_NO_CAP = 1 << 62  # a step count no walk reaches
_POLICY_CODES = {WalkPolicy.STANDARD: 0, WalkPolicy.EXTENDED: 1, WalkPolicy.LOOK_AHEAD: 2}  # as in _walk.c


class _Walker:
    """The walks of one discovery, against the brain's shared knowledge.

    The walker owns the brain's knowledge mask `known` and its popcount
    `count` (so the coverage check is O(1) per move), the cumulative step
    count, and the optional crossing tracker. `reported` marks the nodes
    whose neighbourhood an extended walk has reported: knowledge only grows
    within a discovery, so a later departure from such a node would report
    nothing new and skips the scan. Extended walks never write PRIMED, as it
    does not change their eligibility (`state < BLOCKED`). Look-ahead walks
    prime and report on every departure, since primed nodes are off-limits
    to them for the rest of the walk.

    `stop_count` (default: the node count) ends a walk as soon as the brain
    knows that many nodes. `walks`, `moves`, `cap_hits` and `stalled` (walks
    in a row that made nothing known) count what the walks did; counting
    draws nothing from the rng.

    A walk's view of each node is one byte: 0 unvisited, 1 PRIMED,
    2 BLOCKED (left), 3 CURRENT.
    """

    __slots__ = (
        "adj", "n", "brain", "policy", "rng", "cap", "stop_count",
        "known", "count", "reported", "steps", "tracker", "target",
        "walks", "moves", "cap_hits", "stalled",
    )

    def __init__(
        self,
        g: Graph,
        brain: int,
        policy: WalkPolicy,
        rng: random.Random,
        step_cap: int | None = None,
        known: Iterable[int] | None = None,
        stop_count: int | None = None,
        tracker: _CrossingTracker | None = None,
    ):
        if not 0 <= brain < g.n:
            raise ValueError(f"brain {brain} outside [0, {g.n})")
        self.adj = g.adj
        self.n = g.n
        self.brain = brain
        self.policy = policy
        self.rng = rng
        self.cap = _NO_CAP if step_cap is None else step_cap
        self.stop_count = g.n if stop_count is None else stop_count
        self.known = bytearray(g.n)
        self.count = 0
        for v in known or ():
            if not self.known[v]:
                self.known[v] = 1
                self.count += 1
        self.reported = bytearray(g.n)
        self.steps = 0
        self.tracker = tracker
        self.target = tracker.targets[0] if tracker is not None else g.n + 1
        self.walks = self.moves = self.cap_hits = self.stalled = 0

    def walk(self, collect_path: bool = False) -> tuple[list[int] | None, int, list[int], Termination]:
        """One walk from the brain with a fresh agent view.

        Returns the path (if collected), the walk's steps, the nodes it made
        known, in report order, and why it ended.
        """
        adj = self.adj
        known = self.known
        reported = self.reported
        count = self.count
        stop = self.stop_count
        cap = self.cap
        base = self.steps
        target = self.target
        record = self.tracker.record if self.tracker is not None else None
        standard = self.policy is WalkPolicy.STANDARD
        look_ahead = self.policy is WalkPolicy.LOOK_AHEAD
        brain = cur = self.brain
        state = bytearray(self.n)
        state[brain] = 3  # CURRENT
        new_nodes: list[int] = []
        if not known[brain]:
            known[brain] = 1
            count += 1
            new_nodes.append(brain)
        steps = 0 if standard else len(adj[brain])
        moves = 0
        path = [brain] if collect_path else None
        if count >= target:
            target = record(count, base + steps)
        if count >= stop:
            reason = Termination.FULL_COVERAGE
        else:
            rnd = self.rng.random
            while True:
                nbrs = adj[cur]
                if look_ahead:
                    elig = [w for w in nbrs if not state[w]]
                else:
                    elig = [w for w in nbrs if state[w] < 2]  # not BLOCKED
                if not elig:
                    reason = Termination.DEAD_END
                    break
                # Exactly one rng draw per move keeps runs reproducible.
                i = int(rnd() * len(elig))
                nxt = elig[i if i < len(elig) else -1]
                moves += 1
                state[cur] = 2  # BLOCKED
                if look_ahead:
                    # Departure primes the neighbourhood and reports it.
                    for w in nbrs:
                        if not known[w]:
                            known[w] = 1
                            count += 1
                            new_nodes.append(w)
                        if not state[w]:
                            state[w] = 1  # PRIMED
                elif not standard and not reported[cur]:
                    # Extended: report once per discovery, never prime.
                    reported[cur] = 1
                    for w in nbrs:
                        if not known[w]:
                            known[w] = 1
                            count += 1
                            new_nodes.append(w)
                state[nxt] = 3  # CURRENT
                if not known[nxt]:
                    known[nxt] = 1
                    count += 1
                    new_nodes.append(nxt)
                steps += 1 if standard else len(adj[nxt])
                if collect_path:
                    path.append(nxt)
                cur = nxt
                if count >= target:
                    target = record(count, base + steps)
                if count >= stop:
                    reason = Termination.FULL_COVERAGE
                    break
                if steps >= cap:
                    reason = Termination.STEP_CAP
                    break
        self.count = count
        self.steps = base + steps
        self.target = target
        self.moves += moves
        return path, steps, new_nodes, reason

    def discover(self, stall_limit: int) -> bool:
        """Walk until the brain knows `stop_count` nodes (False), or until
        `stall_limit` walks in a row have made nothing known (True)."""
        while self.count < self.stop_count:
            _, _, new_nodes, reason = self.walk()
            self.walks += 1
            self.cap_hits += reason is Termination.STEP_CAP
            if new_nodes:
                self.stalled = 0
            else:
                self.stalled += 1
                if self.stalled >= stall_limit:
                    return True
        return False


def run_walk(
    g: Graph,
    brain: int,
    policy: WalkPolicy,
    rng: random.Random,
    step_cap: int | None = None,
    known: Iterable[int] | None = None,
) -> WalkOutcome:
    """Execute one walk from the brain with a fresh agent view.

    `known` is the brain's accumulated knowledge before this walk; it only
    affects the full-coverage early exit and which reports count as new.
    Every departure reports its neighbourhood afresh.
    """
    path, steps, new_nodes, reason = _Walker(g, brain, policy, rng, step_cap, known).walk(
        collect_path=True
    )
    return WalkOutcome(
        visited_path=tuple(path),
        newly_known=frozenset(new_nodes),
        steps=steps,
        terminated_by=reason,
    )


def run_discovery(
    g: Graph,
    brain: int,
    policy: WalkPolicy,
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
    the graph is disconnected; without a cap, every node of a connected
    graph is reachable along a shortest path, so progress is certain and
    the count starts over.

    `target_fraction` stops the run once that fraction is known; the default
    of 1.0 runs to full coverage. Thresholds above the target are then never
    crossed.
    """
    grid = validate_thresholds(thresholds if thresholds is not None else default_thresholds())
    if not 0.0 < target_fraction <= 1.0:
        raise ConfigError(f"target_fraction must be in (0, 1], got {target_fraction}")
    n = g.n
    stop_count = math.ceil(target_fraction * n - 1e-9)
    tracker = _CrossingTracker(grid, n)
    kernel = _native_kernel(g, rng)
    if kernel is None:
        walker = _Walker(g, brain, policy, rng, step_cap, stop_count=stop_count, tracker=tracker)
    else:
        cap = _NO_CAP if step_cap is None else step_cap
        walker = _native.Discovery(kernel, g, brain, _POLICY_CODES[policy], rng, cap, stop_count, tracker)
    while walker.discover(10 * n):
        if step_cap is None and is_connected(g):
            walker.stalled = 0
            continue
        raise DiscoveryStallError(
            f"no progress in {walker.stalled} consecutive walks "
            f"(policy={policy.value}, brain={brain}, known={walker.count}/{n}); "
            "is the graph connected?"
        )
    curve = LearningCurve(thresholds=grid, crossings=tuple(tracker.crossings))
    brain_state = BrainState(
        brain=brain,
        known=set(compress(range(n), walker.known)),
        cumulative_steps=walker.steps,
        walk_count=walker.walks,
        cap_hits=walker.cap_hits,
        moves=walker.moves,
    )
    return curve, brain_state


def _native_kernel(g: Graph, rng: random.Random):
    """The native kernel if it may run this discovery, else None.

    The kernel replays `random.Random` itself, so a subclass, which may
    override `random()`, gets the Python engine; so does a graph too large
    for an int32 CSR view.
    """
    if type(rng) is not random.Random:
        return None
    return _native.kernel_for(g, "netbrain_discover")


def _engine() -> str:
    """The engine `run_discovery` runs for a `random.Random`: "native" or "python"."""
    return "python" if _native.LOADER.kernel("netbrain_discover") is None else "native"
