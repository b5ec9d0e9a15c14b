"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload supervised_smote --seed 1 --seconds 32 --trace 0

A run starts SETUPS fresh Python processes (`bench/worker.py`) one after
another, a closed loop with a single caller. Each sets the workload up once.
All but the last then exit; the last runs one warm-up iteration and then the
measured pipeline again and again until `--seconds` after the run's start,
checking every iteration's outputs outside the timed part. Reported times
are medians: `setup_s` over the processes, `wall_s` over the iterations.
A traced run starts only the last process, since it reports no `setup_s`.

`--trace 0` reports the end-to-end metrics. `--trace 1` cycles through
untraced iterations, traced ones, and traced ones that also take
`tracemalloc` peaks. It reports the per-layer metrics as medians: `.peak_mb`
over the peak iterations, the rest over the plain traced ones. The
`trace.overhead_ratio` compares plain traced with untraced iterations.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Details (input digests,
per-iteration figures, per-model accuracy and prediction digests, versions,
stages skipped at full scale) go to `.bench_out/<workload>-seed<seed>-trace<t>.json`
and spans to `.bench_out/*.spans.jsonl`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

SETUPS = 5  # set-up is measured this many times per run
RUN_LIMIT_S = 160.0  # a worker still running then is killed, so a run ends within 180 s
# One BLAS thread: with two, the many small matrix products of the neural
# layers stall whenever the second virtual CPU is busy elsewhere.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # every worker compiles the library the same way
    env["PYTHONHASHSEED"] = "0"
    for var in BLAS_VARS:
        env[var] = str(threads)
    return env


def run_worker(args, run_id: str, deadline: float | None, timeout: float, env: dict) -> dict | None:
    """Run one worker, measuring until `deadline` or, if None, only setting
    up; None if the process failed or timed out."""
    result_path = OUT / f"{run_id}.json"
    result_path.unlink(missing_ok=True)
    spawned = time.monotonic()
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--run-id", run_id,
        "--trace", str(args.trace), "--result", str(result_path),
    ] + (["--tiny"] if args.tiny else []) + (["--setup-only"] if deadline is None else ["--deadline", repr(deadline)])
    # the worker's stdout goes to our stderr: our stdout ends with the result line
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=sys.stderr)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"{run_id}: timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if code != 0 or not result_path.exists():
        print(f"{run_id}: exited with code {code}", file=sys.stderr)
        return None
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["setup_s"] = result["first_call_monotonic"] - spawned
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=32.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny inputs and one worker, for the benchmark's own tests")
    args = ap.parse_args()

    if not (ROOT / "src" / "fraudkit" / "__init__.py").is_file():
        print(f"no fraudkit sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH))
    import spec

    if args.workload not in spec.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(spec.WORKLOADS)}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    env = child_env(BLAS_THREADS)
    workers = []
    start = time.monotonic()
    n_workers = 1 if args.tiny or args.trace else SETUPS
    for w in range(n_workers):
        run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-w{w}"
        timeout = max(1.0, RUN_LIMIT_S - (time.monotonic() - start))
        deadline = start + args.seconds if w == n_workers - 1 else None
        worker = run_worker(args, run_id, deadline, timeout, env)
        if worker is None:
            return 1
        workers.append(worker)

    measuring = workers[-1]
    every = measuring["iterations"]
    untraced = [it for it in every if it["mode"] == "untraced"]
    traced = [it for it in every if it["mode"] == "spans"]
    peaks = [it for it in every if it["mode"] == "peak"]
    attempted = sum(it["attempted"] for it in every)
    failed = sum(it["failed"] for it in every)
    same_outputs = all(wk["inputs_sha256"] == measuring["inputs_sha256"] for wk in workers) and all(
        it["models"] == every[0]["models"] for it in every
    )
    correct = same_outputs and all(it["correct"] for it in every)

    def median(key: str, group: list[dict]) -> float:
        return statistics.median(r[key] for r in group)

    if args.trace:
        values = {
            m: statistics.median(it["layers"][m] for it in (peaks if m.endswith(".peak_mb") else traced))
            for m in spec.TRACED_METRICS
        }
        values[spec.OVERHEAD] = median("wall_s", traced) / median("wall_s", untraced)
        table = spec.per_layer()
    else:
        wall = median("wall_s", untraced)
        values = {
            "wall_s": wall,
            "rows_per_s": measuring["input_rows"] / wall,
            "setup_s": median("setup_s", workers),
            "peak_rss_mb": measuring["peak_rss_mb"],
            "balanced_accuracy": median("balanced_accuracy", untraced),
            "ops_ok_ratio": 1.0 - failed / attempted,
        }
        table = spec.END_TO_END
    metrics = {m.name: {"value": values[m.name], "unit": m.unit} for m in table}

    details = {
        "workload": args.workload,
        "why": spec.WORKLOADS[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "versions": measuring["versions"],
        "inputs_sha256": measuring["inputs_sha256"],
        "correct": correct,
        "same_outputs_every_iteration": same_outputs,
        "attempted": attempted,
        "failed": failed,
        "ops_failed_ratio": failed / attempted,
        "metrics": metrics,
        "models": every[0]["models"],
        "layers_move": {layer.name: layer.moves for layer in spec.LAYERS},
        "skipped_at_full_scale": spec.scale_limits(),
        "workers": [
            {k: wk.get(k) for k in ("run_id", "setup_s", "peak_rss_mb", "spans")}
            | {"iterations": [{k: v for k, v in it.items() if k not in ("models", "layers")}
                              for it in wk["iterations"]]}
            for wk in workers
        ],
    }
    details_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    details_path.write_text(json.dumps(details, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  set-ups {len(workers)}  iterations "
          f"{len(untraced)} untraced, {len(traced)} traced, {len(peaks)} peak  correct {correct}")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    print(f"  details: {details_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
