"""Command line interface: generate, ingest, run, sweep."""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import fields
from pathlib import Path

from . import __version__, _native
from .dynamics import _walk_counts
from .errors import ConfigError, NetbrainError, ParseError
from .fileio import (
    _curves_csv,
    _generator_from_dict,
    config_from_dict,
    config_to_dict,
    ingest_edge_list,
    load_config,
    write_aggregate_csv,
    write_edge_list,
    write_json,
)
from .generators import _MODELS, MODELS, GeneratorSpec, generate
from .harness import _START_KINDS, _pool_size, _Sink, _stream, _worker_count, resolve_graph, sweep


# GeneratorSpec field -> (flag, help). Types and defaults come from the
# spec's fields, and the models that read each field from the model table.
_GENERATOR_FLAGS = {
    "n": ("--n", "node count"),
    "k_avg": ("--k", "target average degree"),
    "seed": ("--seed", "generator seed"),
    "p_rewire": ("--p-rewire", "rewiring probability"),
    "mu": ("--mu", "inter-block link probability"),
    "blocks": ("--blocks", "block count"),
    "alpha": ("--alpha", "decay length fraction"),
    "degree_sequence": ("--degrees-file", "degree sequence file, one integer per line"),
}


def _add_generator_args(p: argparse.ArgumentParser, positional: bool) -> None:
    """The model (positional, or --model) and one flag per GeneratorSpec field.

    Flags left out take the spec's field defaults.
    """
    p.add_argument("model" if positional else "--model", choices=MODELS, help="network model")
    for f in fields(GeneratorSpec)[1:]:
        flag, help_text = _GENERATOR_FLAGS[f.name]
        users = [m for m in MODELS if f.name in _MODELS[m].fields]
        if users:
            help_text += f" ({', '.join(users)})"
        typed = {} if f.default is None else {"type": type(f.default)}
        metavar = flag[2:].upper().replace("-", "_")
        p.add_argument(flag, dest=f.name, metavar=metavar, help=help_text, **typed)


def _generator_from_flags(args: argparse.Namespace) -> dict:
    """The generator mapping of a config file, from the generator flags."""
    d = {f: getattr(args, f) for f in ("seed", *_MODELS[args.model].fields) if getattr(args, f) is not None}
    d["model"] = args.model
    if "degree_sequence" in _MODELS[args.model].fields:
        path = d.get("degree_sequence")
        if not path:
            raise NetbrainError(f"{args.model} requires --degrees-file")
        try:
            tokens = Path(path).read_text(encoding="utf-8").split()
        except UnicodeDecodeError as exc:
            raise ParseError(f"--degrees-file {path}: expected one integer per line ({exc})") from None
        bad = next((t for t in tokens if not (t.isdigit() and t.isascii())), None)
        if bad is not None:
            raise ParseError(f"--degrees-file {path}: expected one integer per line in the digits 0-9, got {bad!r}")
        d["degree_sequence"] = [int(x) for x in tokens]
    return d


def _cmd_generate(args: argparse.Namespace) -> int:
    spec = _generator_from_dict(_generator_from_flags(args))
    result = generate(spec)
    stats = result.stats
    header = [
        f"netbrain v{__version__} model={stats.model} seed={spec.seed}",
        f"requested n={stats.requested_n} k_avg={stats.requested_k_avg:g}",
        f"realized n={stats.n} m={stats.m} k_avg={stats.k_avg:.4f} "
        f"dropped_outside_lcc={stats.nodes_outside_lcc}",
    ]
    write_edge_list(result.graph, args.out, header=header)
    print(
        f"{stats.model}: n={stats.n} m={stats.m} k_avg={stats.k_avg:.3f} "
        f"(requested n={stats.requested_n}, k_avg={stats.requested_k_avg:g}; "
        f"{stats.nodes_outside_lcc} nodes outside LCC) -> {args.out}"
    )
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    g, label_map, report = ingest_edge_list(args.edge_list)
    print(
        f"raw: {report.raw_nodes} nodes, {report.raw_edges} edge lines "
        f"({report.self_loops_dropped} self-loops, {report.duplicates_dropped} duplicates dropped); "
        f"LCC: {report.lcc_nodes} nodes, {report.lcc_edges} edges"
    )
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_edge_list(g, out / "graph.txt", header=[f"LCC of {args.edge_list}"])
        write_json(out / "label_map.json", {str(k): v for k, v in label_map.items()})
        write_json(out / "ingest_report.json", report.__dict__)
        print(f"wrote {out / 'graph.txt'}, label_map.json, ingest_report.json")
    return 0


_START_FORMS = " | ".join(k.flag for k in _START_KINDS)


def _start_from_flag(text: str) -> dict:
    """The start mapping of a config file, from a --start value."""
    prefix, _, arg = text.partition(":")
    for kind in _START_KINDS:
        if kind.flag.partition(":")[0] == prefix:
            try:
                if isinstance(kind.type, list):
                    value = [kind.type[0](v) for v in arg.split(",")]
                else:
                    value = kind.type(arg)
            except ValueError:
                break
            return {"kind": kind.kind, kind.field: value}
    raise ConfigError(f"--start: bad value {text!r}; use {_START_FORMS}")


def _split_flag(flag: str, text: str, parse):
    """Parse each comma-separated item of a flag value, naming the flag on failure."""
    try:
        return tuple(parse(item.strip()) for item in text.split(","))
    except ValueError:
        raise ConfigError(f"{flag}: bad value {text!r}") from None


# run flag -> the config key it sets; a flag left out takes the config default.
_RUN_KEYS = {"reps": "repetitions_per_start", "step_cap": "step_cap", "master_seed": "master_seed"}


def _config_from_flags(args: argparse.Namespace) -> dict:
    """The mapping of a config file, from the flags of `run`."""
    if bool(args.edge_list) == bool(args.model):
        raise NetbrainError("provide --config, or exactly one of --model and --edge-list")
    policies = "standard" if args.policies is None else args.policies
    start = "stride:50" if args.start is None else args.start
    d = {
        "policies": [name.strip() for name in policies.split(",")],  # the config reader checks them
        "start": _start_from_flag(start),
        **{key: getattr(args, dest) for dest, key in _RUN_KEYS.items() if getattr(args, dest) is not None},
    }
    if args.thresholds is not None:
        d["thresholds"] = _split_flag("--thresholds", args.thresholds, float)
    if args.edge_list:
        d["edge_list"] = args.edge_list
    else:
        d["generator"] = _generator_from_flags(args)
    return d


def _write_manifest(out_dir: Path, started: float, aggregates: list, **payload) -> None:
    """`manifest.json`, written last: `payload`, the cells and counter totals
    of `aggregates`, the walk engine, the version, and the times, where
    `wall_time_s` runs from `started` to now, after every other output."""
    elapsed = time.monotonic() - started
    payload.update(
        cells=sum(a.n_samples for a in aggregates),
        totals=_walk_counts(*aggregates),
        engine="native" if _native.available() else "python",
        netbrain_version=__version__,
        wall_time_s=round(elapsed, 3),
        created=time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    )
    write_json(out_dir / "manifest.json", payload)


# Arguments of `run` that go with --config; every other run flag sets a config key.
_RUN_SHARED = {"command", "func", "config", "out", "workers"}


def _cmd_run(args: argparse.Namespace) -> int:
    if args.config:
        given = [
            _GENERATOR_FLAGS.get(dest, ("--" + dest.replace("_", "-"),))[0]
            for dest, value in vars(args).items()
            if dest not in _RUN_SHARED and value is not None
        ]
        if given:
            raise NetbrainError(f"--config excludes the other run flags, got {', '.join(given)}")
        cfg, sweep_block = load_config(args.config)
    else:
        cfg, sweep_block = config_from_dict(_config_from_flags(args))
    if sweep_block is not None:
        raise NetbrainError("config contains a sweep block; use 'netbrain sweep'")
    workers = _worker_count(args.workers)
    started = time.monotonic()
    graph, stats = resolve_graph(cfg)
    cells = _stream(cfg, graph=graph, workers=workers)  # checked now; the cells run as the sink reads them
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with _curves_csv(out_dir / "curves.csv") as write:
        sink = _Sink(write).drain(cells)
    aggregates = sink.aggregates()
    write_aggregate_csv(aggregates, out_dir / "aggregate.csv")
    _write_manifest(
        out_dir,
        started,
        aggregates,
        config=config_to_dict(cfg),
        graph_stats=None if stats is None else stats.__dict__,
        workers=_pool_size(workers, sink.cells),
    )
    print(f"{sink.cells} curves -> {args.out}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg, sweep_block = load_config(args.config)
    if sweep_block is None:
        raise NetbrainError("sweep config needs a 'sweep' block with axis and values")
    axis = sweep_block["axis"]
    values = sweep_block.get("values")
    workers = _worker_count(args.workers)
    started = time.monotonic()
    keyed = sweep(cfg, axis, values, workers=workers)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    combined = []
    for value, aggs in keyed.items():
        write_aggregate_csv(aggs, out_dir / f"aggregate_{axis}_{value}.csv")
        combined.extend(aggs)
    write_aggregate_csv(combined, out_dir / "aggregate_combined.csv")
    # A hub_degree sweep is one experiment; any other runs one per value.
    runs = [combined] if axis == "hub_degree" else keyed.values()
    _write_manifest(
        out_dir,
        started,
        combined,
        config=config_to_dict(cfg, sweep_block),
        axis=axis,
        values=[str(v) for v in keyed],
        workers=max(_pool_size(workers, sum(a.n_samples for a in aggs)) for aggs in runs),
    )
    print(f"{len(keyed)} axis values -> {args.out}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Refuses a bad flag as the commands refuse a bad value: one `error:`
    line on stderr, without the usage lines, and exit code 2. Subparsers
    take the class of their parent."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="netbrain",
        description="Simulate centralized network discovery via repeated "
        "self-avoiding walks from a fixed brain node.",
    )
    parser.add_argument("--version", action="version", version=f"netbrain {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="generate a network and write its edge list")
    _add_generator_args(p_gen, positional=True)
    p_gen.add_argument("--out", required=True, help="output edge-list path")
    p_gen.set_defaults(func=_cmd_generate)

    p_ing = sub.add_parser("ingest", help="parse an edge list and report its LCC")
    p_ing.add_argument("edge_list", help="edge-list file: two integer node labels per line")
    p_ing.add_argument("--out", help="directory for the dense LCC edge list and label map")
    p_ing.set_defaults(func=_cmd_ingest)

    for name, help_text in (("run", "run one experiment"), ("sweep", "run a parameter sweep")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=name == "sweep", help="experiment config file (JSON)")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--workers", type=int, default=1, help="parallel workers")
        if name == "run":
            p.add_argument("--edge-list", help="run on an ingested edge list")
            _add_generator_args(p, positional=False)
            p.add_argument("--policies", help="comma-separated policies")
            p.add_argument("--start", help=_START_FORMS)
            p.add_argument("--reps", type=int, help="repetitions per start node")
            p.add_argument("--step-cap", type=int, help="maximum steps per walk")
            p.add_argument("--thresholds", help="comma-separated fractions")
            p.add_argument("--master-seed", type=int, help="seed of all cell seeds")
            p.set_defaults(func=_cmd_run)
        else:
            p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NetbrainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:  # Ctrl-C: the exit code of a shell's SIGINT, without a traceback
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
