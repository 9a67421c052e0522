"""Smoke test of the benchmark itself: a short run of every workload, both
untraced and traced, prints every declared metric with its unit; a wrong
expected rank is counted as a failed operation.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import inputs  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
MODULES = ("tensor", "trees", "subspaces", "formats", "operators", "charts",
           "tangent", "cli")


def _bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    result = _bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        modules = sum(metrics[f"{m}.self_s"] for m in MODULES)
        rest = metrics["trace.bench_self_s"] + metrics["trace.wrapper_s"]
        assert modules + rest == pytest.approx(metrics["trace.wall_s"],
                                               rel=1e-9)
    else:
        assert all(v > 0 for v in metrics.values())


def test_chart_roundtrip_reports_the_known_defects():
    result = _bench("chart_roundtrip", 0)
    assert result["failed"] > 0
    assert result["metrics"]["failed_share"]["value"] > run.FAILED_SHARE_FLOOR


def test_wrong_expected_rank_counts_as_failed(tmp_path):
    import treegeom
    import treegeom.cli  # noqa: F401

    wl = workloads.Verdicts(0, tmp_path, treegeom)
    inst, *rest = wl.files[0]
    node = next(b for b, r in inst.ranks.items() if len(b) == 1)
    wrong = {**inst.ranks, node: inst.ranks[node] + 1}
    wl.files = [(replace(inst, ranks=wrong), *rest)]
    stats = worker.Stats()
    worker.run_rounds(wl, stats, rounds=1)
    assert stats.failed >= 1 and stats.unknown_count == stats.failed
    metrics, _ = run.end_to_end(
        {"round_latencies": stats.round_latencies,
         "round_rates": stats.round_rates, "probes": [1.0, 1.0],
         "probe_reference_s": 1.0,
         "peak_rss_mb": 1.0, "failed": stats.failed,
         "attempted": stats.attempted}, [1.0])
    assert metrics["failed_share"][0] == stats.failed / stats.attempted


def test_builtin_trees_match_the_benchmark_trees():
    import treegeom as tg

    for d in (4, 6, 8):
        for mine, theirs in ((inputs.tucker(d), tg.tucker_tree(d)),
                             (inputs.linear(d), tg.linear_tree(d)),
                             (inputs.binary(d), tg.balanced_binary_tree(d))):
            assert set(inputs.all_nodes(mine)) == set(theirs.nodes)


def test_formula_matches_the_library_closed_form():
    import treegeom as tg

    for inst in workloads.OperatorSpaces.ladder:
        tree = tg.tree_from_nested(inst.tree)
        assert inputs.formula_dimension(inst.tree, inst.ranks, inst.shape) \
            == tg.network_dimension_formula(tree, tg.TreeRank(inst.ranks),
                                            inst.shape)


def test_refuses_a_directory_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "verdicts",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
