"""treegeom benchmark: run one workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verdicts --seed 1 --seconds 35 --trace 0

Workloads: verdicts, chart_roundtrip, operator_spaces (see perfbench/README.md).
It starts one worker process per set-up sample and one that runs the
workload, closed loop with a single client, and prints a JSON line of
details and then, as the last line, the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the per-layer ones from a traced replay of one round.  It exits non-zero,
printing no result, when the checkout has no ``src/treegeom``.
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

WORKLOADS = ("verdicts", "chart_roundtrip", "operator_spaces")
# set-up is timed in fresh processes, half before and half after the run so
# that one slow spell of the machine does not set the median
SETUP_SAMPLES_EACH_SIDE = 3
DEADLINE_S = 170    # the whole run, set-up samples included
MIN_TAIL_BEYOND = 10
# failed_share is reported as at least this (one failure in 10^5 operations,
# far below what one run attempts), so that it is never 0; `failed` and
# `attempted` carry the raw counts
FAILED_SHARE_FLOOR = 1e-5
# glibc adapts its mmap and trim thresholds to the first large frees, which
# made peak RSS differ between runs of the same inputs by 17%.  Fixing them at
# the values the adaptation ends at (32 MiB, twice that for trimming) keeps
# the speed and makes peak RSS repeat.
WORKER_ENV = {"MALLOC_MMAP_THRESHOLD_": str(2 ** 25),
              "MALLOC_TRIM_THRESHOLD_": str(2 ** 26)}


def _worker(mode, args, root, deadline):
    cmd = [sys.executable, str(Path(__file__).with_name("worker.py")),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--mode", mode]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                          env={**os.environ, **WORKER_ENV},
                          timeout=max(1.0, deadline - spawned))
    if proc.returncode != 0:
        raise RuntimeError(f"worker ({mode}) exited with {proc.returncode}")
    return spawned, json.loads(proc.stdout.strip().splitlines()[-1])


def tail(latencies):
    """Latency at the highest percentile with at least MIN_TAIL_BEYOND
    samples above it, that percentile, and the sample count."""
    lat = sorted(latencies)
    n = len(lat)
    if n <= MIN_TAIL_BEYOND:
        return lat[-1], 100.0, n
    return lat[n - MIN_TAIL_BEYOND - 1], 100.0 * (n - MIN_TAIL_BEYOND) / n, n


def end_to_end(run, setup_samples):
    """End-to-end metrics from the fastest half of the rounds (by the machine
    probe), with their times scaled to the reference machine speed."""
    probes = run["probes"]
    speed = [run["probe_reference_s"] / ((a + b) / 2)
             for a, b in zip(probes, probes[1:])]
    fastest = sorted(range(len(speed)), key=lambda r: -speed[r])
    kept = fastest[:max(1, len(fastest) // 2)]
    rates = [run["round_rates"][r] / speed[r] for r in kept]
    lat = [x * speed[r] for r in kept for x in run["round_latencies"][r]]
    tail_s, pct, n = tail(lat)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "ops_per_s": (statistics.median(rates), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "op_tail_ms": (1e3 * tail_s, "ms"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        "failed_share": (max(run["failed"] / run["attempted"],
                             FAILED_SHARE_FLOOR), "ratio"),
    }
    raw = [x for r in run["round_latencies"] for x in r]
    details = {
        "op_tail_percentile": pct, "op_tail_samples": n,
        "rounds_kept": len(kept),
        "speed_kept": [min(speed[r] for r in kept), max(speed[r] for r in kept)],
        "raw_ops_per_s": statistics.median(run["round_rates"]),
        "raw_op_p50_ms": 1e3 * statistics.median(raw),
        "raw_op_tail_ms": 1e3 * tail(raw)[0],
        "setup_samples_s": setup_samples,
    }
    return metrics, details


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    root = Path.cwd()
    if not (root / "src" / "treegeom" / "__init__.py").is_file():
        print("error: no src/treegeom under the current directory; run from "
              "the root of a treegeom checkout", file=sys.stderr)
        return 2

    def setup_only():
        if not args.trace:
            for _ in range(SETUP_SAMPLES_EACH_SIDE):
                spawned, out = _worker("setup", args, root, deadline)
                setup_samples.append(out["ready"] - spawned)

    setup_samples = []
    setup_only()
    spawned, run = _worker("run", args, root, deadline)
    setup_samples.append(run["ready"] - spawned)
    setup_only()

    if args.trace:
        metrics, details = run["per_layer"], {}
    else:
        metrics, details = end_to_end(run, setup_samples)
    info = {
        "workload": args.workload, "seconds": args.seconds,
        "trace": args.trace, "env": run["env"], "rounds": run["rounds"],
        "passed": sum(len(r) for r in run["round_latencies"]),
        "largest_operator_space_estimate_bytes": run["largest_estimate"],
        "known_defect_failures": run["known_failures"],
        "unknown_failures": run["unknown_failures"],
        **details,
    }
    print(json.dumps(info))
    print(json.dumps({
        "correct": run["unknown_count"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
