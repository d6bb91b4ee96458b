"""netbrain benchmark: seeded workloads through the ``netbrain run`` pipeline.

    python3 perfbench/run.py                       # every workload, pinned seed
    python3 perfbench/run.py --workload grid-ba --seed 7 --seconds 60 --trace 1

Each repetition runs in a fresh process (``workload.py``); repetitions
start while the next one is likely to end within ``--seconds``, and each
metric is the median over them. Outputs are checked on every repetition:
at the pinned seed against the sha256 digests in ``pinned.json``, at any
other seed against each other. With ``--trace 1`` untraced and traced
repetitions alternate and the per-layer metrics are reported instead of
the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A run record with the
host, the calibration loop and every repetition goes to
``.perfbench_out/runs/``, the spans of traced repetitions to
``.perfbench_out/spans/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from workload import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
# name -> (unit, better), as in BENCHMARK.json
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "steps_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}
# Per-cell, per-policy counters that must repeat exactly between traced repetitions.
EXACT = ("cells", "walks", "moves", "steps", "cap_hits")
MIN_REPS = 2
CHILD_LIMIT_S = 150.0  # repetitions stop and are killed after this; a run must end within 180 s


def unit(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name][0]
    if name.endswith("_pct"):
        return "%"
    if name.endswith("moves_per_walk"):
        return "moves/walk"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith((".s", "_s")) or ".cell_s." in name:
        return "s"
    if name.startswith("share.") or name.endswith(("_ratio", "_efficiency")):
        return "ratio"
    return "count"


def read_steal_s() -> float | None:
    """Cumulative steal time of the host from /proc/stat, in seconds."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_record() -> dict:
    try:
        cpu = next(
            line.split(":", 1)[1].strip()
            for line in Path("/proc/cpuinfo").read_text().splitlines()
            if line.startswith("model name")
        )
    except (OSError, StopIteration):
        cpu = platform.processor() or None
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "loadavg": os.getloadavg(),
    }


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop; recorded beside the metrics, never used to scale them."""
    started = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - started


def run_child(name: str, seed: int, spans: Path | None, limit: float) -> tuple[dict | None, str]:
    """One repetition in a fresh process group; returns its result, or None and the reason."""
    out = OUT / "work" / name
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", name, "--seed", str(seed), "--out", str(out)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        stdout, stderr = proc.communicate(timeout=limit)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, f"timed out after {limit:.0f} s"
    finally:
        # Pool workers left behind by a crashed repetition share its group.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        return None, f"exit {proc.returncode}: {(stderr.strip().splitlines() or [''])[-1]}"
    try:
        return json.loads(stdout.strip().splitlines()[-1]), ""
    except (json.JSONDecodeError, IndexError):
        return None, "no result line"


def measure(name: str, seed: int, seconds: float, trace: bool, pinned: dict) -> dict:
    """Repeat one workload for `seconds`, check every repetition, and summarise."""
    deadline = time.monotonic() + CHILD_LIMIT_S
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    tag = f"{stamp}-{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    (OUT / "spans").mkdir(parents=True, exist_ok=True)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace, "host": host_record()}
    record["calibration_s"] = calibrate()
    steal0 = read_steal_s()
    started = time.monotonic()
    reps: list[dict] = []
    took: dict[bool, list[float]] = {False: [], True: []}  # seconds per repetition, by traced
    while True:
        traced = trace and len(reps) % 2 == 1
        spans = OUT / "spans" / f"{tag}-rep{len(reps)}.jsonl" if traced else None
        began = time.monotonic()
        result, error = run_child(name, seed, spans, max(5.0, deadline - began))
        took[traced].append(time.monotonic() - began)
        reps.append({"traced": traced, "result": result, "error": error})
        untraced = sum(not r["traced"] for r in reps)
        enough = untraced >= MIN_REPS and (not trace or len(reps) - untraced >= 1)
        if result is None or time.monotonic() >= deadline - 1.0:
            break
        # Start no repetition that would likely end after the measuring time,
        # so that a run lasts about `seconds` whatever its repetitions take.
        following = trace and len(reps) % 2 == 1
        next_s = statistics.median(took[following] or took[not following])
        if enough and time.monotonic() - started + next_s > seconds:
            break
    steal1 = read_steal_s()
    record["steal_s"] = None if steal0 is None or steal1 is None else steal1 - steal0
    record["elapsed_s"] = time.monotonic() - started

    expected = pinned["digests"].get(name) if seed == pinned["seed"] else None
    attempted = failed = 0
    problems = []
    nominal = WORKLOADS[name].nominal_cells
    for i, rep in enumerate(reps):
        res = rep["result"]
        if res is None:
            attempted += nominal
            failed += nominal
            problems.append(f"rep {i}: {rep['error']}")
            continue
        attempted += res["cells"]
        if expected is None:
            expected = res["digests"]  # other seeds: every repetition must agree with the first
        bad = res["digests"] != expected or res.get("replay_digest", expected["curves.csv"]) != expected["curves.csv"]
        if bad:
            failed += res["cells"]
            problems.append(f"rep {i}: digest mismatch {res['digests']}")
        else:
            failed += res["cells_incomplete"]
            if res["cells_incomplete"]:
                problems.append(f"rep {i}: {res['cells_incomplete']} cells missed their last threshold")

    plain = [r["result"] for r in reps if r["result"] is not None and not r["traced"]]
    traced_results = [r["result"] for r in reps if r["result"] is not None and r["traced"]]
    metrics: dict[str, float] = {}
    if not trace:
        series = {
            "wall_s": [r["wall_s"] for r in plain],
            "setup_s": [r["setup_s"] for r in plain],
            "steps_per_s": [r["steps"] / r["run_experiment_s"] for r in plain],
            "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        }
        metrics = {k: statistics.median(v) if v else 0.0 for k, v in series.items()}
    elif traced_results:
        layers = [r["layers"] for r in traced_results]
        for key in layers[0]:
            values = [layer[key] for layer in layers]
            exact = key.startswith("dynamics.") and key.rsplit(".", 1)[1] in EXACT
            if exact and len(set(values)) > 1:
                problems.append(f"{key} differs between traced repetitions: {values}")
            metrics[key] = statistics.median(values)
        walls = [r["wall_s"] for r in plain]
        metrics["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced_results) - (
            statistics.median(walls) if walls else 0.0
        )
    correct = not problems and bool(plain) and (not trace or bool(traced_results))
    if not correct and not problems:
        problems.append("no repetition finished")
    record.update(
        reps=reps,
        correct=correct,
        attempted=attempted,
        failed=failed,
        problems=problems,
        metrics=metrics,
        predicted_shares=WORKLOADS[name].predicted if trace else None,
    )
    runs = OUT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    (runs / f"{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return record


def report(rec: dict) -> None:
    """Human-readable summary of one workload, printed before the result line."""
    host = rec["host"]
    print(
        f"== {rec['workload']} seed={rec['seed']} trace={int(rec['trace'])} reps={len(rec['reps'])} "
        f"correct={rec['correct']} | calibration {rec['calibration_s']:.4f} s, steal {rec['steal_s']} s, "
        f"load {host['loadavg'][0]:.2f}, nproc {host['nproc']}, python {host['python']}, "
        f"numpy {host['numpy']}, sha {host['git_sha']}"
    )
    for problem in rec["problems"]:
        print(f"  FAIL {problem}")
    if not rec["trace"]:
        for key, (key_unit, better) in END_TO_END.items():
            print(f"  {key:<14} {rec['metrics'][key]:>16.6f} {key_unit:<4} ({better} is better)")
        print(f"  {'cells':<14} {rec['attempted']:>16d} count")
        print(f"  {'cells_failed':<14} {rec['failed']:>16d} count")
        return
    for key, value in rec["metrics"].items():
        if not key.startswith("share."):
            print(f"  {key:<40} {value:>18.6f} {unit(key)}")
    shares = ", ".join(
        f"{k.split('.', 1)[1]} {v:.1%}" for k, v in rec["metrics"].items() if k.startswith("share.")
    )
    print(f"  layer shares: {shares}")
    print(f"  predicted:    {rec['predicted_shares']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="netbrain benchmark")
    parser.add_argument("--workload", choices=list(WORKLOADS), help="default: every workload in turn")
    parser.add_argument("--seed", type=int, help="workload seed (default: the pinned seed)")
    parser.add_argument("--seconds", type=float, default=60.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "netbrain" / "__init__.py").is_file():
        print(f"error: no netbrain sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    pinned = json.loads((HERE / "pinned.json").read_text())
    seed = pinned["seed"] if args.seed is None else args.seed
    names = [args.workload] if args.workload else list(WORKLOADS)
    records = []
    for name in names:
        rec = measure(name, seed, args.seconds, bool(args.trace), pinned)
        report(rec)
        records.append(rec)
    out = {
        ("" if args.workload else f"{r['workload']}.") + k: {"value": v, "unit": unit(k)}
        for r in records
        for k, v in r["metrics"].items()
    }
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in records),
                "attempted": sum(r["attempted"] for r in records),
                "failed": sum(r["failed"] for r in records),
                "metrics": out,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
