"""One benchmark process: set up a workload, then run it closed loop.

Started by ``run.py`` from the root of a checkout; prints one JSON line.
``--mode setup`` stops once the inputs are ready (it times set-up only);
``--mode run`` then issues one operation at a time for ``--seconds`` seconds,
in whole rounds, and with ``--trace 1`` replays round 0 once more under the
tracer.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported.  One thread: two BLAS threads made the
# small problems that dominate two of the three workloads much slower (the
# N=24 chart build 4 ms -> ~100 ms) and runs noisier; only the N=256
# intersection SVD gained.
BLAS_THREADS = min(1, os.cpu_count() or 1)
BLAS_THREADS_REASON = ("1 thread: faster on verdicts and chart_roundtrip "
                       "(small SVDs) and steadier; only N>=256 intersection "
                       "SVDs gain from more")
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

# An allocation past this limit raises MemoryError inside the operation,
# which is counted as a failed operation instead of an OOM kill.
ADDRESS_SPACE_LIMIT = 3 * 2 ** 30


def _limit_address_space():
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = ADDRESS_SPACE_LIMIT
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    return limit


def _environment(np, seed, as_limit):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "blas_threads": BLAS_THREADS,
        "blas_threads_reason": BLAS_THREADS_REASON,
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
        "rlimit_as_bytes": as_limit,
    }


class Stats:
    def __init__(self):
        self.latencies = []     # seconds, passing operations only
        self.busy_s = 0.0       # timed seconds of every attempted operation
        self.attempted = 0
        self.failed = 0
        self.known = {}         # known-defect reason -> failures
        self.unknown = []       # first failures outside the known list
        self.unknown_count = 0
        self.round_s = []       # wall seconds per round, checks included
        self.round_rates = []   # passing operations per timed second, per round
        self.round_latencies = []  # the passing latencies of each round
        self.probes = []        # machine probe before each round and after the last

    def record(self, op, seconds, error):
        self.attempted += 1
        self.busy_s += seconds
        if error is None:
            self.latencies.append(seconds)
            return
        self.failed += 1
        if op.known is not None:
            self.known[op.known] = self.known.get(op.known, 0) + 1
        else:
            self.unknown_count += 1
            if len(self.unknown) < 5:
                self.unknown.append(f"{op.instance} {op.kind}: {error}")


def best_of_three(kernel):
    """The machine probe: best of three timings of a workload's fixed
    kernel, in seconds."""
    def probe():
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - t0)
        return best
    return probe


def run_rounds(workload, stats, seconds=None, rounds=None, probe=None):
    """Issue whole rounds until ``seconds`` have passed or ``rounds`` are
    done.  Only the call into treegeom is timed; its check is not.  With a
    ``probe``, the machine's speed is measured before every round and after
    the last."""
    clock = time.perf_counter
    start = clock()
    rnd = 0
    while True:
        if probe is not None:
            stats.probes.append(probe())
        t_round = clock()
        passed, busy = len(stats.latencies), stats.busy_s
        for op in workload.round_ops(rnd):
            t0 = clock()
            try:
                result = op.run()
                error = None
            except Exception as e:  # any failure of the call is a failed op
                error = f"{type(e).__name__}: {e}"
            elapsed = clock() - t0
            if error is None:
                try:
                    error = op.check(result)
                except Exception as e:
                    error = f"check raised {type(e).__name__}: {e}"
            stats.record(op, elapsed, error)
        stats.round_s.append(clock() - t_round)
        stats.round_rates.append(
            (len(stats.latencies) - passed) / (stats.busy_s - busy))
        stats.round_latencies.append(stats.latencies[passed:])
        rnd += 1
        if (rounds is not None and rnd >= rounds) or (
                seconds is not None and clock() - start >= seconds):
            if probe is not None:
                stats.probes.append(probe())
            return


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--mode", choices=("setup", "run"), required=True)
    args = p.parse_args()

    as_limit = _limit_address_space()
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import numpy as np
    import treegeom
    import treegeom.cli  # noqa: F401  (binds treegeom.cli)

    if Path(treegeom.__file__).resolve().parent != (root / "src" / "treegeom").resolve():
        raise SystemExit(f"treegeom imported from {treegeom.__file__}, "
                         f"not from {root / 'src'}")
    import workloads

    warnings.simplefilter("ignore")
    workdir = root / ".perfbench_out" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    out = {"env": _environment(np, args.seed, as_limit)}
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir, treegeom)
        out["ready"] = time.monotonic()
        out["largest_estimate"] = getattr(wl, "largest_estimate", 0)
        out["probe_reference_s"] = wl.probe_reference_s
        if args.mode == "run":
            out.update(_run(wl, args, workdir.parent))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out))


def _run(wl, args, outdir):
    stats = Stats()
    # the CLI prints reports and errors; keep them off the result stream
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(sink):
        run_rounds(wl, stats, seconds=args.seconds,
                   probe=best_of_three(wl.probe_kernel))
        untraced_round_s = statistics.median(stats.round_s)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        per_layer = None
        if args.trace:
            import tracing
            import treegeom

            tracer = tracing.Tracer()
            tracer.install(treegeom)
            timing = tracer.run(lambda: run_rounds(wl, stats, rounds=1))
            memory = tracer.run(lambda: run_rounds(wl, stats, rounds=1),
                                memory=True)
            per_layer = timing.metrics(untraced_round_s)
            modules, total = memory.allocation_peaks()
            for m, mb in modules.items():
                per_layer[f"{m}.alloc_peak_mb"] = (mb, "MB")
            per_layer["trace.tracemalloc_peak_mb"] = (total, "MB")
            timing.write_spans(
                outdir / f"spans-{args.workload}-seed{args.seed}.json.gz")
    return {
        "round_rates": stats.round_rates,
        "round_latencies": stats.round_latencies,
        "probes": stats.probes,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "known_failures": stats.known,
        "unknown_failures": stats.unknown,
        "unknown_count": stats.unknown_count,
        "rounds": len(stats.round_s),
        "peak_rss_mb": peak_rss_mb,
        "per_layer": per_layer,
    }


if __name__ == "__main__":
    main()
