"""One repetition of one benchmark workload, run in a fresh process.

    python3 perfbench/workload.py --workload NAME --seed N --out DIR [--spans FILE]

Drives the public pipeline that ``netbrain run`` uses (generate or
write/ingest an edge list, ``run_experiment``, ``aggregate``, the two CSV
writers) on inputs derived from the seed, and prints one JSON object with
the repetition's timings, digests and work counts as its last line. With
``--spans`` the public functions of each module are wrapped from outside
(see ``tracing.py``), the spans are written to FILE and the per-layer
record is added to the output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_netbrain():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import netbrain

    if Path(netbrain.__file__).resolve().parent != SRC / "netbrain":
        raise SystemExit(f"netbrain imported from {netbrain.__file__}, not from {SRC}")
    return netbrain


@dataclass(frozen=True)
class Workload:
    name: str
    nominal_cells: int  # counted as failed when a repetition dies before reporting
    workers: int
    predicted: str  # where the traced run should find the time (README.md)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "wos-extended",
            nominal_cells=8,
            workers=1,
            predicted="dynamics (extended walks) dominates; fileio and generators carry the set-up; "
            "no betweenness",
        ),
        Workload(
            "grid-ba",
            nominal_cells=80,
            workers=2,
            predicted="dynamics (standard, look_ahead) dominates; the largest fileio.write_csv; "
            "no betweenness",
        ),
        Workload(
            "betweenness-waxman",
            nominal_cells=40,
            workers=1,
            predicted="graph (betweenness) about two thirds; dynamics (capped standard) most of the rest",
        ),
    )
}

# The seed picks the walks of every workload and the graph of grid-ba. The
# wos and Waxman graphs are fixed: redrawing them per seed moved the work
# per run by 7-25%, more than the walks do. Each workload stops short of
# 100%, because the last 1-2% took 60-70% of the walks and most of the
# seed-to-seed variance (README.md).
WOS_N = 11000
WOS_DEGREE_SEED = 5  # the criterion-9 stand-in graph
WOS_CM_SEED = 6
WOS_TARGET = 0.99
WOS_HUBS = 4
WOS_MEDIANS = 4
BA_N = 5000
BA_STARTS = 10
BA_REPS = 4
BA_TARGET = 0.99
WAXMAN_N = 1000
WAXMAN_GRAPH_SEED = 2018
WAXMAN_PERCENTILE = 0.98
WAXMAN_STEP_CAP = 50
WAXMAN_TARGET = 0.98
WAXMAN_REPS = 2


def derive(seed: int, *parts: str) -> int:
    """A 63-bit input seed from the benchmark seed and a label."""
    h = hashlib.blake2b(f"{seed}:{':'.join(parts)}".encode(), digest_size=8)
    return int.from_bytes(h.digest(), "little") >> 1


def wos_degree_sequence(n: int, seed: int) -> list[int]:
    """Citation-like degree mix: leaf minority, exponential bulk, hub tail.

    The same recipe as the criterion-9 acceptance test: the erased
    configuration model realizes a mean degree near 17 at n = 11000.
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


def setup_graph(nb, name: str, seed: int, out: Path):
    """Build the workload's LCC graph; this is what ``setup_s`` times."""
    if name == "wos-extended":
        seq = wos_degree_sequence(WOS_N, WOS_DEGREE_SEED)
        spec = nb.GeneratorSpec(model="cm", degree_sequence=tuple(seq), seed=WOS_CM_SEED)
        listing = out / "edges.txt"
        nb.fileio.write_edge_list(nb.generators.generate(spec).graph, listing, header=["wos stand-in"])
        graph, _, _ = nb.fileio.ingest_edge_list(listing)
        return graph
    if name == "grid-ba":
        spec = nb.GeneratorSpec(model="ba", n=BA_N, k_avg=6, seed=derive(seed, name, "ba"))
    else:
        spec = nb.GeneratorSpec(
            model="waxman", n=WAXMAN_N, k_avg=6, alpha=0.1, seed=WAXMAN_GRAPH_SEED
        )
    return nb.generators.generate(spec).graph


def experiment_config(nb, name: str, seed: int, graph):
    policy = nb.WalkPolicy
    master = derive(seed, name, "run")
    if name == "wos-extended":
        ranked = nb.graph.degree_ranked_nodes(graph)
        mid = graph.n // 2
        starts = ranked[:WOS_HUBS] + ranked[mid - WOS_MEDIANS // 2 : mid + WOS_MEDIANS - WOS_MEDIANS // 2]
        return nb.ExperimentConfig(
            generator="edges.txt",
            policies=(policy.EXTENDED,),
            start=nb.ExplicitStarts(tuple(starts)),
            repetitions_per_start=1,
            thresholds=percent_grid(WOS_TARGET),
            target_fraction=WOS_TARGET,
            master_seed=master,
        )
    if name == "grid-ba":
        return nb.ExperimentConfig(
            generator="ba",
            policies=(policy.STANDARD, policy.LOOK_AHEAD),
            start=nb.DegreeRankedStride(graph.n // BA_STARTS),
            repetitions_per_start=BA_REPS,
            thresholds=percent_grid(BA_TARGET),
            target_fraction=BA_TARGET,
            master_seed=master,
        )
    return nb.ExperimentConfig(
        generator="waxman",
        policies=(policy.STANDARD,),
        start=nb.BetweennessPercentile(WAXMAN_PERCENTILE),
        repetitions_per_start=WAXMAN_REPS,
        step_cap=WAXMAN_STEP_CAP,
        thresholds=percent_grid(WAXMAN_TARGET),
        target_fraction=WAXMAN_TARGET,
        master_seed=master,
    )


def percent_grid(target: float) -> tuple[float, ...]:
    """The default 1% grid, cut at the target fraction."""
    return tuple(i / 100.0 for i in range(1, round(target * 100) + 1))


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest waited-for child (pool worker)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def run_once(nb, name: str, seed: int, out: Path, tracer=None) -> dict:
    """Run the pipeline once and return its timings, digests and counts."""
    workload = WORKLOADS[name]
    out.mkdir(parents=True, exist_ok=True)
    root = tracer.begin("workload") if tracer else None
    t0 = time.perf_counter()
    graph = setup_graph(nb, name, seed, out)
    t_setup = time.perf_counter() - t0
    cfg = experiment_config(nb, name, seed, graph)
    # With a pool the cells run in worker processes, out of the tracer's
    # reach; they are replayed serially below for per-cell spans.
    pooled = tracer is not None and workload.workers > 1
    t1 = time.perf_counter()
    if pooled:
        with tracer.suspended("dynamics.run_discovery"), tracer.phase("pool"):
            curves = nb.harness.run_experiment(cfg, graph=graph, group=name, workers=workload.workers)
    else:
        curves = nb.harness.run_experiment(cfg, graph=graph, group=name, workers=workload.workers)
    t_run = time.perf_counter() - t1
    aggregates = nb.harness.aggregate(curves)
    curves_csv, aggregate_csv = out / "curves.csv", out / "aggregate.csv"
    nb.fileio.write_curves_csv(curves, curves_csv)
    nb.fileio.write_aggregate_csv(aggregates, aggregate_csv)
    wall = time.perf_counter() - t0
    if tracer:
        tracer.end(root)
    grid_top = cfg.thresholds[-1]
    incomplete = sum(
        1
        for c in curves
        if len(c.curve.crossings) != len(cfg.thresholds) or c.curve.crossings[-1][0] != grid_top
    )
    result = {
        "wall_s": wall,
        "setup_s": t_setup,
        "run_experiment_s": t_run,
        "steps": sum(c.curve.crossings[-1][1] for c in curves if c.curve.crossings),
        "walks": sum(c.walk_count for c in curves),
        "cells": len(curves),
        "cells_incomplete": incomplete,
        "n": graph.n,
        "m": graph.m,
        "digests": {"curves.csv": sha256(curves_csv), "aggregate.csv": sha256(aggregate_csv)},
    }
    if pooled:
        with tracer.phase("replay"):
            replay = nb.harness.run_experiment(cfg, graph=graph, group=name, workers=1)
        with tracer.suspended("fileio.write_curves_csv"):
            nb.fileio.write_curves_csv(replay, out / "replay_curves.csv")
        result["replay_digest"] = sha256(out / "replay_curves.csv")
    result["peak_rss_mb"] = peak_rss_mb()
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for the edge list and the CSVs")
    parser.add_argument("--spans", help="trace the run and write its spans to this file")
    args = parser.parse_args(argv)
    nb = import_netbrain()
    out = Path(args.out)
    if args.spans is None:
        result = run_once(nb, args.workload, args.seed, out)
    else:
        import tracing

        tracer = tracing.Tracer(args.workload)
        with tracer.installed(nb):
            result = run_once(nb, args.workload, args.seed, out, tracer)
        tracer.write(Path(args.spans))
        result["layers"] = tracing.layer_metrics(tracer, WORKLOADS[args.workload].workers)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
