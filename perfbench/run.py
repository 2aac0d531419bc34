"""The fincat verdict benchmark.

    python3 perfbench/run.py --workload search|certify|sweep --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S     # a table of all three

One client, closed loop: a single process runs one item at a time and
issues the next only after the previous verdict.  A run is a fixed number
of rounds (``ROUNDS_AT_24S``, scaled by ``--seconds``).  Every round
starts in a fresh process, so fincat's caches start cold as they do for a
CLI user, and repeats the same seeded items.  Set-up is timed in every round and reported as the median.

An item's latency is the fastest of its executions, one per round.  The
host this was built on slows whole stretches of seconds by up to 45%
(the ``calib_s`` loop swings between 66 and 146 ms) and never speeds one
up, so the fastest repetition is the steadiest estimate of the work an
item takes.  Throughput, median and tail are taken over the items so
measured, each distinct item counted once.  ``sweep`` has only six
distinct items, too few to leave ten beyond a percentile, so its tail is
taken over all its executions.

With ``--trace 0`` the last line of standard output carries the end-to-end
metrics named in BENCHMARK.json; with ``--trace 1`` the run is
``TRACE_ROUNDS`` rounds, each run once plain and once traced, the last
line carries the per-layer metrics, and the spans of the first traced
round go to
``.perfbench_out/spans-<workload>-seed<seed>.csv.gz``.
The line before it is the full report: all metrics with their units,
``fail_ratio``, the tail percentile and its item count, failed items, and
``calib_s``, the time of a fixed pure-Python loop at the start and at the
end of the run (a machine-speed diagnostic, never used to rescale).
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("search", "certify", "sweep")
# rounds of a 24-second run; other --seconds scale it.  On a calm 2-core
# x86 host a round takes about 5 s (search), 9 s (certify) and 2 s (sweep),
# and up to 45% more in its slow stretches.  certify overruns 24 s because
# best of 3 rounds was not steady enough: its round holds the 5 s
# length-4 tower.
ROUNDS_AT_24S = {"search": 5, "certify": 4, "sweep": 12}
MIN_ROUNDS = 3
# a traced run prints only per-layer figures, which need no best-of-rounds:
# this many rounds, each run once plain and once traced
TRACE_ROUNDS = 2
ROUND_LIMIT_S = 60
TAIL_BEYOND = 10
OUT_DIR = ROOT / ".perfbench_out"
# Round i runs pinned to the i-th of these CPUs, in turn.  The host often
# slows one CPU while the other runs at full speed, so rounds spread over
# the CPUs give best-of-rounds a fast execution of each item more often.
CPUS = sorted(os.sched_getaffinity(0))


def calibrate() -> float:
    start = time.perf_counter()
    x = 0
    for i in range(2_000_000):
        x = (x * 31 + i) % 1_000_003
    return time.perf_counter() - start


def rounds_for(workload: str, seconds: int) -> int:
    return max(MIN_ROUNDS, round(ROUNDS_AT_24S[workload] * seconds / 24))


def run_round(workload: str, seed: int, index: int, trace: bool, run_dir: Path) -> dict:
    tag = f"{'traced' if trace else 'plain'}{index}"
    out = run_dir / f"{tag}.json"
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--trace", str(int(trace)),
        "--workdir", str(run_dir / f"inputs-{tag}"),
        "--out", str(out),
    ]
    if trace and index == 0:
        cmd += ["--spans", str(OUT_DIR / f"spans-{workload}-seed{seed}.csv.gz")]
    started = time.monotonic()
    cmd += ["--started-at", repr(started)]
    cpu = {CPUS[index % len(CPUS)]}
    proc = subprocess.run(
        cmd, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=ROUND_LIMIT_S, preexec_fn=lambda: os.sched_setaffinity(0, cpu)
    )
    if proc.returncode != 0:
        raise RuntimeError(f"round {index} of {workload} exited with {proc.returncode}")
    return json.loads(out.read_text())


def best_latencies(rounds: list[dict]) -> list[float]:
    """Each item's fastest execution over the rounds."""
    return [min(column) for column in zip(*(r["latencies"] for r in rounds))]


def tail(best: list[float], executions: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least TAIL_BEYOND items
    beyond it, that percentile, and the number of items it is taken over.
    Each distinct item counts once, at its best latency; a round with too
    few distinct items for that is taken over all its executions."""
    ordered = sorted(best if len(best) > TAIL_BEYOND else executions)
    k = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered)


def end_to_end(rounds: list[dict]) -> tuple[dict, dict]:
    if any(r["keys"] != rounds[0]["keys"] for r in rounds):
        raise RuntimeError("rounds of one run ran different items")
    best = best_latencies(rounds)
    executions = [x for r in rounds for x in r["latencies"]]
    failed = sum(len(r["failures"]) for r in rounds)
    tail_s, tail_pct, tail_items = tail(best, executions)
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] for r in rounds), "s"),
        "verdicts_per_s": (len(best) / sum(best), "1/s"),
        "verdict_ms_p50": (1000 * statistics.median(best), "ms"),
        "verdict_ms_tail": (1000 * tail_s, "ms"),
        "fail_ratio": (failed / len(executions), "ratio"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in rounds), "MiB"),
    }
    extra = {
        "tail_percentile": tail_pct,
        "tail_items": tail_items,
        "items": len(executions),
        "failed": failed,
        "failures": [f for r in rounds for f in r["failures"]][:20],
    }
    return metrics, extra


def per_layer(names: list[str], plain: list[dict], traced: list[dict]) -> dict:
    stats: dict[str, dict] = {}
    layer_s: dict[str, float] = {}
    cones = squares = 0
    for r in traced:
        t = r["trace"]
        for name, s in t["stats"].items():
            acc = stats.setdefault(name, {"calls": 0, "yields": 0, "self_s": 0.0, "hits": 0})
            for key in acc:
                acc[key] += s[key]
        for layer, secs in t["layer_s"].items():
            layer_s[layer] = layer_s.get(layer, 0.0) + secs
        cones += t["cones_checked"]
        squares += t["squares_checked"]
    empty = {"calls": 0, "yields": 0, "self_s": 0.0, "hits": 0}
    out = {}
    for name in names:
        span, _, stat = name.rpartition(".")
        s = stats.get(span, empty)
        if name == "trace_overhead":
            value = sum(best_latencies(traced)) / sum(best_latencies(plain))
        elif name == "limits.cones_checked":
            value = cones
        elif name == "limits.cones_per_s":
            value = cones / layer_s["limits"] if layer_s.get("limits") else 0.0
        elif name == "cosmos.squares_checked":
            value = squares
        elif name == "cosmos.squares_per_s":
            value = squares / layer_s["cosmos"] if layer_s.get("cosmos") else 0.0
        elif stat.endswith("_ratio"):
            value = s["hits"] / s["calls"] if s["calls"] else 0.0
        else:
            value = s[stat]
        out[name] = value
    return out


def run_workload(workload: str, seed: int, seconds: int, trace: bool, spec: dict) -> tuple[dict, dict]:
    """(report, last line) of one run."""
    run_dir = ROOT / ".perfbench_run" / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
    calib_start = calibrate()
    plain, traced = [], []
    try:
        for index in range(TRACE_ROUNDS if trace else rounds_for(workload, seconds)):
            plain.append(run_round(workload, seed, index, False, run_dir))
            if trace:
                traced.append(run_round(workload, seed, index, True, run_dir))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    calib_end = calibrate()

    metrics, extra = end_to_end(plain)
    report = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "calib_s": {"start": calib_start, "end": calib_end},
        **extra,
    }
    if trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        layer = per_layer(list(units), plain, traced)
        report["per_layer"] = {n: {"value": v, "unit": units[n]} for n, v in layer.items()}
        shown = report["per_layer"]
    else:
        shown = {m["name"]: report["metrics"][m["name"]] for m in spec["end_to_end"]}
    line = {
        "correct": extra["failed"] == 0,
        "attempted": extra["items"],
        "failed": extra["failed"],
        "metrics": shown,
    }
    return report, line


def main() -> int:
    parser = argparse.ArgumentParser(description="fincat verdict benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "fincat" / "__init__.py").is_file():
        print(f"no fincat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    if args.workload != "all":
        report, line = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), spec)
        print(json.dumps(report))
        print(json.dumps(line))
        return 0

    rows = {}
    for workload in WORKLOADS:
        report, _ = run_workload(workload, args.seed, args.seconds, False, spec)
        rows[workload] = report["metrics"]
        rows[workload]["tail_percentile"] = {"value": report["tail_percentile"], "unit": "%"}
    names = list(rows["search"])
    print(f"{'metric':<18}{'unit':<7}" + "".join(f"{w:>14}" for w in WORKLOADS))
    for name in names:
        unit = rows["search"][name]["unit"]
        print(f"{name:<18}{unit:<7}" + "".join(f"{rows[w][name]['value']:>14.4g}" for w in WORKLOADS))
    print(json.dumps(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
