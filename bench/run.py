"""horokit benchmark: one workload, timed end to end, or traced per layer.

Usage (from the root of a checkout):

    python3 bench/run.py --workload {chain,insulation,general_p} --seed N \
        --seconds S --trace {0,1}

Every round runs in a fresh worker process (bench/worker.py) with one BLAS
thread.  Rounds repeat, whole, until S seconds of rounds have passed (at
least one).  Around them, SETUP_PROBES worker processes only import
horokit and write their inputs, so set-up time is a median of several.
With --trace 0 the result holds the end-to-end metrics; with --trace 1
each untraced round is followed by a traced one and the result holds the
per-layer metrics.  The last line of standard output is the JSON result.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import PER_LAYER
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_PROBES = 8          # half before the rounds, half after: set-up time drifts with machine load
ROUND_TIMEOUT_S = 150
# fixed in every worker's environment; one thread keeps the work single-threaded
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
)


class RoundError(RuntimeError):
    """A worker process failed to run a round at all."""


def _spawn(workload, seed, work, *flags):
    """Run one worker; returns its result with setup_s measured from the spawn."""
    argv = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--work", str(work), *flags]
    start = time.monotonic()
    try:
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=ROUND_TIMEOUT_S,
                              env={**os.environ, **BLAS_ENV}, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise RoundError(f"worker exceeded {ROUND_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RoundError(f"worker exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["setup_done"] - start
    return result


def run(workload, seed, seconds, trace):
    run_dir = OUT / f"{workload}-seed{seed}"
    shutil.rmtree(run_dir, ignore_errors=True)

    def probes():
        return [_spawn(workload, seed, run_dir / "probe", "--setup-only")["setup_s"]
                for _ in range(SETUP_PROBES // 2)]

    setups = probes()
    plain, traced = [], []
    begin = time.monotonic()
    while not plain or time.monotonic() - begin < seconds:
        plain.append(_spawn(workload, seed, run_dir / f"round{len(plain)}"))
        if trace:
            traced.append(_spawn(workload, seed, run_dir / f"traced{len(traced)}", "--trace"))
    rounds = plain + traced
    setups += probes() + [r["setup_s"] for r in rounds]

    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    correct = all(r["wrong"] == 0 for r in rounds)
    if trace:
        metrics = {name: {"value": statistics.median(r["layers"].get(name, 0.0) for r in traced),
                          "unit": unit} for name, unit, _ in PER_LAYER}
        overhead = statistics.median(r["wall_s"] for r in traced) - \
            statistics.median(r["wall_s"] for r in plain)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        values = {"wall_s": [r["wall_s"] for r in plain], "setup_s": setups,
                  "peak_rss_mb": [r["peak_rss_mb"] for r in plain]}
        metrics = {name: {"value": statistics.median(values[name]), "unit": unit}
                   for name, unit, _ in END_TO_END}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "horokit" / "cli.py").is_file():
        print(f"no horokit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    print(f"workload {args.workload}, seed {args.seed}, BLAS threads "
          f"{BLAS_ENV['OPENBLAS_NUM_THREADS']}", file=sys.stderr)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except RoundError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
