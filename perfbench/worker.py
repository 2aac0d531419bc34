"""One round of a workload in a fresh process; ``run.py`` starts it.

Set-up (import, corpus build, seeded input generation, writing the input
files) runs first; then each item is timed alone, one after another, and its
verdict is checked against the known answer outside the timed span.  The
round's numbers go to the ``--out`` file as JSON.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_items(items, round_items, tracer=None) -> tuple[list[float], list[dict]]:
    """Time each item alone, then check its verdict outside the timed span.
    Returns the latencies and the items whose verdict was wrong or raised."""
    latencies, failures = [], []
    for k, item in enumerate(round_items):
        if tracer:
            tracer.item, tracer.active = k, True
        error = None
        start = time.perf_counter()
        try:
            result = items.run(item)
        except Exception as exc:  # a raised verdict is a failure of this item, not of the run
            result, error = None, exc
        latencies.append(time.perf_counter() - start)
        if tracer:
            tracer.active = False
        wrong = [f"raised {type(error).__name__}: {error}"] if error else items.check(item, result)
        if wrong:
            failures.append({"item": item.key, "wrong": wrong})
        del result
    return latencies, failures


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--started-at", type=float, required=True, help="time.monotonic() when the parent started this process")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", help="where a traced round writes its spans")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import fincat

    if Path(fincat.__file__).resolve().parent != ROOT / "src" / "fincat":
        sys.exit(f"fincat imported from {fincat.__file__}, not from this checkout")
    import items

    round_items = items.ROUNDS[args.workload](args.seed, Path(args.workdir))
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(extra_modules=[items])
        tracer.active = False
    setup_s = time.monotonic() - args.started_at

    latencies, failures = run_items(items, round_items, tracer)

    report = {
        "keys": [item.key for item in round_items],
        "setup_s": setup_s,
        "latencies": latencies,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        tracer.uninstall()
        report["trace"] = tracer.summary()
        if args.spans:
            tracer.write_spans(args.spans)
    Path(args.out).write_text(json.dumps(report))


if __name__ == "__main__":
    main()
