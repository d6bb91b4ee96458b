"""Pinned outputs of the walk engine.

The seeded output is the contract: an engine change (a refactor or a
speedup) may not move a byte of `curves.csv` or a single crossing. The
digests and crossings below were recorded with the original per-walk
rescanning engine.
"""

import hashlib
import json
import random

from helpers import CRITERION_8_CONFIG, wos_scale_degree_sequence
from netbrain import (
    WalkPolicy,
    degree_ranked_nodes,
    derive_seed,
    ingest_edge_list,
    largest_connected_component,
    run_discovery,
    write_edge_list,
)
from netbrain.cli import main as cli_main
from netbrain.generators import gen_cm

CRITERION_8_CURVES_SHA256 = "c95cca2bba52eb8e6d6d100046a231a5ff953c248ed19fd344dd25959454555f"


def test_criterion_8_curves_digest_is_pinned(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(CRITERION_8_CONFIG))
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    digest = hashlib.sha256((tmp_path / "out" / "curves.csv").read_bytes()).hexdigest()
    assert digest == CRITERION_8_CURVES_SHA256


def test_criterion_9_extended_discovery_is_pinned(tmp_path):
    # The criterion-9 stand-in graph, built and ingested as that test does.
    seq = wos_scale_degree_sequence(11000, seed=5)
    raw, _ = largest_connected_component(gen_cm(seq, seed=6))
    listing = tmp_path / "wos_standin.txt"
    write_edge_list(raw, listing)
    g, _, _ = ingest_edge_list(listing)
    hub = degree_ranked_nodes(g)[0]
    assert (g.n, hub) == (10994, 1177)
    curve, brain = run_discovery(
        g, hub, WalkPolicy.EXTENDED, random.Random(derive_seed(9)), thresholds=(0.5, 0.9, 1.0)
    )
    assert curve.crossings == ((0.5, 17402), (0.9, 233186), (1.0, 54761662))
    assert (brain.walk_count, brain.cumulative_steps) == (5425, 54761662)
