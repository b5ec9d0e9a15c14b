"""One benchmark worker process: set up a workload once, then run its
measured pipeline repeatedly until a deadline.

`run.py` starts a few workers per run. Each sets up the workload; with
`--setup-only` it stops there. Otherwise it runs one warm-up iteration, then
iterations of the pipeline until the next one would end after `--deadline`,
checking the outputs of each outside the timed part. Before each iteration
the garbage collector clears what the previous one left, so no iteration
pays for another's garbage. It writes one JSON result to `--result`.

With `--trace 1` the iterations after the warm-up cycle through three modes:
untraced, traced, and traced with `tracemalloc` peaks. Set-up is traced too,
and the spans go next to the result. Times given to and taken from the
parent are on the system-wide monotonic clock.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import fraudkit  # noqa: E402
import pipelines  # noqa: E402
import spec  # noqa: E402
from tracing import Target, Tracer, layer_metrics  # noqa: E402

TRACE_MODES = ("untraced", "spans", "peak")


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(pipelines.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--run-id", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--deadline", type=float, default=0.0, help="monotonic clock, seconds")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true", help="set up, report the time and exit")
    ap.add_argument("--result", type=Path, required=True)
    args = ap.parse_args()

    if Path(fraudkit.__file__).resolve().parent != (ROOT / "src" / "fraudkit").resolve():
        raise SystemExit(f"fraudkit imported from {fraudkit.__file__}, not from this checkout")

    setup, pipeline, check = pipelines.WORKLOADS[args.workload]
    floor = spec.BA_FLOORS[args.workload]
    tracer = Tracer(args.run_id) if args.trace else None
    work = args.result.parent / f"work-{args.run_id}"
    work.mkdir(parents=True, exist_ok=True)
    iterations = []
    peak_rss_mb = None
    try:
        if tracer:
            tracer.install()
            state = tracer.call(setup, Target("bench", "setup"), (args.seed, work, args.tiny), {})
            tracer.uninstall()
            setup_spans = len(tracer.spans)
        else:
            state = setup(args.seed, work, args.tiny)
        first_call = time.monotonic()
        # set-up's objects are long-lived: keep them out of later collections
        gc.collect()
        gc.freeze()
        modes = TRACE_MODES if tracer else TRACE_MODES[:1]
        while not args.setup_only:
            # the first iteration warms caches and lazy imports; its time is not used
            mode = modes[(len(iterations) - 1) % len(modes)] if iterations else "warmup"
            traced = mode in ("spans", "peak")
            gc.collect()
            first_span = len(tracer.spans) if tracer else 0
            if traced:
                tracer.measure_peak = mode == "peak"
                tracer.install()
            calls = pipelines.Calls()
            start = time.perf_counter()
            if traced:
                outputs = tracer.call(pipeline, Target("bench", "pipeline"), (state, calls), {})
            else:
                outputs = pipeline(state, calls)
            wall = time.perf_counter() - start
            if traced:
                tracer.uninstall()
            checks = check(state, outputs)
            ba = checks.mean_ba(floor)
            iteration = {
                "mode": mode,
                "wall_s": wall,
                "attempted": calls.attempted,
                "failed": calls.failed,
                "errors": calls.errors,
                "balanced_accuracy": ba,
                "models": checks.models,
                "failed_checks": [c for c in checks.items if not c["ok"]],
                "correct": calls.failed == 0 and all(c["ok"] for c in checks.items),
            }
            if traced:
                own = tracer.spans[:setup_spans] + tracer.spans[first_span:]
                iteration["layers"] = layer_metrics(own, list(spec.TRACED_METRICS))
            iterations.append(iteration)
            if len(iterations) == 1:
                # later iterations can only raise the high-water mark a little,
                # and how many run depends on the machine's speed
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                timed_from = time.monotonic()
                continue
            typical = (time.monotonic() - timed_from) / (len(iterations) - 1)
            if len(iterations) > len(modes) and time.monotonic() + typical > args.deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "run_id": args.run_id,
        "first_call_monotonic": first_call,
        "peak_rss_mb": peak_rss_mb,
        "input_rows": state["input_rows"],
        "inputs_sha256": state["inputs"],
        "iterations": iterations,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    if tracer:
        spans_path = args.result.with_suffix(".spans.jsonl")
        tracer.write(spans_path)
        result["spans"] = spans_path.name
    args.result.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
