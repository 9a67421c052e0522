import json
import os
import subprocess
import sys
from functools import reduce

import numpy as np
import pytest

import treegeom as tg
from treegeom.cli import main
from treegeom.subspaces import TreeRank, ranks_to_json

from helpers import capped_rank_tuple


@pytest.fixture
def workspace(tmp_path, deep_tree_d4):
    shape = (2, 2, 2, 3)
    r = capped_rank_tuple(deep_tree_d4, shape)
    v = tg.random_tree_tensor(deep_tree_d4, r, shape, seed=3)
    tree_path = tmp_path / "tree.json"
    tree_path.write_text(tg.tree_to_json(deep_tree_d4))
    ranks_path = tmp_path / "ranks.json"
    ranks_path.write_text(ranks_to_json(r))
    tensor_path = tmp_path / "v.json"
    tg.save_tensor(tensor_path, v)
    return {
        "dir": tmp_path,
        "tree": str(tree_path),
        "ranks": str(ranks_path),
        "tensor": str(tensor_path),
        "shape": shape,
        "r": r,
        "v": v,
    }


def run(args):
    return main(args)


def read_json(capsys):
    return json.loads(capsys.readouterr().out)


class TestAnalyze:
    def test_elementary_all_ones(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        v = reduce(np.multiply.outer,
                   [rng.standard_normal(2) for _ in range(4)])
        p = tmp_path / "v.json"
        tg.save_tensor(p, v)
        code = run(["analyze", "--tensor", str(p), "--tree", "binary"])
        doc = read_json(capsys)
        assert code == 0
        assert all(entry["r"] == 1 for entry in doc["ranks"])
        assert all(res <= 1e-12 for res in doc["chain_residuals"].values())

    def test_generated_profile_reported(self, workspace, capsys):
        code = run([
            "analyze", "--tensor", workspace["tensor"],
            "--tree", workspace["tree"],
        ])
        doc = read_json(capsys)
        assert code == 0
        reported = {tuple(e["block"]): e["r"] for e in doc["ranks"]}
        assert TreeRank(reported) == workspace["r"]
        assert doc["tool"] == "treegeom" and "version" in doc

    def test_zero_tensor_is_input_error(self, tmp_path, capsys):
        p = tmp_path / "zero.json"
        p.write_text(json.dumps({"shape": [2, 2], "data": [0.0] * 4}))
        code = run(["analyze", "--tensor", str(p), "--tree", "tucker"])
        assert code == 2

    def test_missing_file(self, capsys):
        code = run(["analyze", "--tensor", "/nope/v.json", "--tree", "tucker"])
        assert code == 2

    def test_factors_each_node_once(self, workspace, capsys, monkeypatch):
        from treegeom import subspaces

        calls = []
        unfold = subspaces.unfold

        def counted(v, alpha):
            calls.append(alpha)
            return unfold(v, alpha)

        monkeypatch.setattr(subspaces, "unfold", counted)
        code = run([
            "analyze", "--tensor", workspace["tensor"],
            "--tree", workspace["tree"],
        ])
        assert code == 0
        tree = tg.tree_from_json(open(workspace["tree"]).read())
        assert len(calls) == len(tree.nodes)

    def test_report_has_no_seed(self, workspace, capsys):
        run(["analyze", "--tensor", workspace["tensor"],
             "--tree", workspace["tree"]])
        doc = read_json(capsys)
        assert "seed" not in doc and doc["tol"] == 1e-10


class TestMembership:
    def test_member_exits_zero(self, workspace, capsys):
        code = run([
            "membership", "--tensor", workspace["tensor"],
            "--tree", workspace["tree"], "--ranks", workspace["ranks"],
        ])
        doc = read_json(capsys)
        assert code == 0 and doc["member"]

    def test_inflated_rank_exits_one_and_names_levels(
        self, workspace, capsys
    ):
        bumped = dict(workspace["r"].ranks)
        bumped[(2, 3)] += 1
        path = workspace["dir"] / "bad_ranks.json"
        path.write_text(ranks_to_json(TreeRank(bumped)))
        code = run([
            "membership", "--tensor", workspace["tensor"],
            "--tree", workspace["tree"], "--ranks", str(path),
        ])
        doc = read_json(capsys)
        assert code == 1 and not doc["member"]
        failing = [k for k, lv in doc["levels"].items() if not lv["passed"]]
        assert failing  # the inflated node makes its levels fail

    def test_missing_node_is_input_error(self, workspace, capsys):
        path = workspace["dir"] / "partial.json"
        path.write_text(json.dumps({
            "ranks": [{"block": [1], "r": 1}]
        }))
        code = run([
            "membership", "--tensor", workspace["tensor"],
            "--tree", workspace["tree"], "--ranks", str(path),
        ])
        assert code == 2


def _with_first(entries, key, value, where):
    """Copy of the rank entries with ``key`` set to ``value`` in the first
    entry that ``where`` accepts."""
    i = next(i for i, e in enumerate(entries) if where(e))
    return entries[:i] + [{**entries[i], key: value}] + entries[i + 1:]


DEEP_NESTED = [[[1], [[2], [3]]], [4]]
MALFORMED = {
    "tensor-data-strings": ("tensor", {"shape": [1, 2], "data": ["a", 1]}),
    "tensor-data-ragged": ("tensor", {"shape": [2], "data": [[1.0, 2.0],
                                                             [3.0]]}),
    "tensor-data-not-list": ("tensor", {"shape": [2], "data": 5}),
    "tensor-data-string": ("tensor", {"shape": [2], "data": "ab"}),
    "tensor-data-overflow": ("tensor", {"shape": [1], "data": [10 ** 400]}),
    "tensor-shape-bool": ("tensor", {"shape": [True, 2], "data": [1.0, 2.0]}),
    "tensor-shape-not-list": ("tensor", {"shape": 2, "data": [1.0, 2.0]}),
    "ranks-not-list": ("ranks", {"ranks": 5}),
    "ranks-object": ("ranks", {"ranks": {"block": [1], "r": 1}}),
    "ranks-block-int": ("ranks", lambda e: _with_first(
        e, "block", 1, lambda x: x["block"] == [1])),
    "ranks-block-strings": ("ranks", lambda e: _with_first(
        e, "block", ["a"], lambda x: x["block"] == [1])),
    "ranks-block-bool": ("ranks", lambda e: _with_first(
        e, "block", [True], lambda x: x["block"] == [1])),
    "ranks-r-bool": ("ranks", lambda e: _with_first(
        e, "r", True, lambda x: x["r"] == 1)),
    "tree-sons-int": ("tree", {"block": [1, 2, 3, 4], "sons": 5}),
    "tree-sons-string": ("tree", {"block": [1, 2, 3, 4], "sons": "ab"}),
    "tree-leaf-bool": ("tree", [[[True], [[2], [3]]], [4]]),
    "tree-block-bool": ("tree", {"block": [True, 2, 3, 4],
                                 "sons": DEEP_NESTED}),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_input_file_exits_two(workspace, capsys, name):
    # every document is well-formed JSON that the parsers must reject with
    # an input error, never a crash or a silently accepted value
    kind, doc = MALFORMED[name]
    if callable(doc):
        entries = json.loads(ranks_to_json(workspace["r"]))["ranks"]
        doc = {"ranks": doc(entries)}
    path = workspace["dir"] / f"{kind}-malformed.json"
    path.write_text(json.dumps(doc))
    files = {"tensor": workspace["tensor"], "tree": workspace["tree"],
             "ranks": workspace["ranks"], kind: str(path)}
    capsys.readouterr()
    code = run([
        "membership", "--tensor", files["tensor"], "--tree", files["tree"],
        "--ranks", files["ranks"],
    ])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("command", [
    "analyze", "membership", "generate", "chart-check", "tangent", "proper",
])
def test_one_mode_tree_file_exits_two(tmp_path, capsys, command):
    tree = tmp_path / "tree.json"
    tree.write_text("[1]")
    tensor = tmp_path / "v.json"
    tg.save_tensor(tensor, np.array([1.0, 2.0, 3.0]))
    ranks = tmp_path / "ranks.json"
    ranks.write_text(json.dumps({"ranks": [{"block": [1], "r": 1}]}))
    args = [command, "--tree", str(tree)]
    if command in ("generate", "proper"):
        args += ["--shape", "3", "--out", str(tmp_path / "out.json")]
    else:
        args += ["--tensor", str(tensor)]
    if command != "analyze":
        args += ["--ranks", str(ranks)]
    capsys.readouterr()
    assert run(args) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("command", ["generate", "proper"])
@pytest.mark.parametrize("shape", [
    "2,a", "2,,3", "2,2,2,", "", "2,2,2,0", "2,-1,2,3", "2.5,2,2,3",
])
def test_malformed_shape_exits_two(workspace, capsys, command, shape):
    # an entry that is empty, not an integer or below 1 is an input error
    # (exit 2), not a crash (exit 1, which reads as a negative verdict)
    code = run([
        command, "--tree", workspace["tree"], "--ranks", workspace["ranks"],
        "--shape", shape, "--out", str(workspace["dir"] / "out.json"),
    ])
    assert code == 2
    assert "invalid shape" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["generate", "proper"])
def test_oversized_shape_exits_two(tmp_path, capsys, command):
    tree = tg.tucker_tree(3)
    ranks = tmp_path / "ranks.json"
    ranks.write_text(ranks_to_json(capped_rank_tuple(tree, (2, 2, 2))))
    code = run([
        command, "--tree", "tucker", "--ranks", str(ranks),
        "--shape", "1000,1000,1000", "--out", str(tmp_path / "v.json"),
    ])
    assert code == 2
    assert "estimated memory" in capsys.readouterr().err
    assert not (tmp_path / "v.json").exists()


@pytest.mark.parametrize("command", [
    "analyze", "membership", "generate", "chart-check", "tangent", "proper",
])
def test_nan_tolerance_exits_two_with_no_report(workspace, capsys, command):
    # a NaN tolerance is an input error on every subcommand: no report (a
    # report would carry "tol": NaN, which is no JSON) and no tensor file
    out = workspace["dir"] / "out.json"
    args = [command, "--tree", workspace["tree"], "--tol", "nan"]
    if command in ("generate", "proper"):
        args += ["--shape", ",".join(map(str, workspace["shape"]))]
    else:
        args += ["--tensor", workspace["tensor"]]
    if command != "analyze":
        args += ["--ranks", workspace["ranks"]]
    capsys.readouterr()
    assert run(args + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "tol must be a finite number > 0" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("command", [
    "membership", "generate", "chart-check", "tangent", "proper",
])
def test_rank_file_naming_a_non_tree_block_exits_two(tmp_path, capsys,
                                                     monkeypatch, command):
    # Tucker 3^3 with an extra entry for {1, 2}: an input error before any
    # sampling or SVD, and no report or tensor is written (before, generate
    # and proper burned every attempt and exited 3, membership exited 0)
    from treegeom import formats

    tree = tg.tucker_tree(3)
    r = capped_rank_tuple(tree, (3, 3, 3))
    ranks = tmp_path / "ranks.json"
    ranks.write_text(ranks_to_json(TreeRank({**r.ranks, (1, 2): 2})))
    tensor = tmp_path / "v.json"
    tg.save_tensor(tensor, tg.random_tree_tensor(tree, r, (3, 3, 3)))
    out = tmp_path / "out.json"
    args = [command, "--tree", "tucker", "--ranks", str(ranks)]
    if command in ("generate", "proper"):
        args += ["--shape", "3,3,3"]
    else:
        args += ["--tensor", str(tensor)]
    monkeypatch.setattr(np.linalg, "svd", None)
    monkeypatch.setattr(formats, "_sample_network", None)
    capsys.readouterr()
    assert run(args + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no tree nodes [{1, 2}]" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("command", ["generate", "proper", "chart-check"])
def test_negative_seed_exits_two_with_no_report(workspace, capsys,
                                                monkeypatch, command):
    # numpy's generators refuse a negative seed with a ValueError of their
    # own, which would exit 1 (a negative verdict); the seed is checked
    # before any sampling or SVD, and chart-check checks it before loading
    from treegeom import cli, formats

    out = workspace["dir"] / "out.json"
    args = [command, "--tree", workspace["tree"], "--ranks",
            workspace["ranks"], "--seed", "-1", "--out", str(out)]
    if command == "chart-check":
        args += ["--tensor", workspace["tensor"]]
        monkeypatch.setattr(cli, "load_tensor", None)
    else:
        args += ["--shape", ",".join(map(str, workspace["shape"]))]
    monkeypatch.setattr(np.linalg, "svd", None)
    monkeypatch.setattr(formats, "_sample_network", None)
    capsys.readouterr()
    assert run(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "seed must be an integer >= 0, got -1" in captured.err
    assert not out.exists()


class TestWorkCounts:
    """Each verdict subcommand computes each fact once per call, counted by
    wrapping functions on a linear 3^6 instance: one SVD per tree node for
    ``generate`` (the generation loop's rank profile is the verification),
    one evaluation of the necessary conditions and one rank-tuple check
    for ``generate`` and ``proper``, and two finiteness scans for
    ``analyze`` (the file's and the nonzero check)."""

    @pytest.fixture
    def linear6(self, tmp_path):
        tree = tg.linear_tree(6)
        shape = (3,) * 6
        r = capped_rank_tuple(tree, shape)
        ranks = tmp_path / "ranks.json"
        ranks.write_text(ranks_to_json(r))
        tensor = tmp_path / "v.json"
        tg.save_tensor(tensor, tg.random_tree_tensor(tree, r, shape, seed=1))
        return tmp_path, str(ranks), str(tensor), len(tree.nodes)

    @staticmethod
    def count(monkeypatch, module, name, calls):
        """Count the calls of ``module.name`` under ``name`` in ``calls``,
        there and in every treegeom module that binds the same function."""
        import importlib

        inner = getattr(module, name)
        calls[name] = 0

        def counted(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        for mod in [module] + [
                importlib.import_module("treegeom." + m)
                for m in ("tensor", "trees", "subspaces", "formats",
                          "operators", "charts", "tangent", "cli")]:
            if getattr(mod, name, None) is inner:
                monkeypatch.setattr(mod, name, counted)

    def run_counted(self, monkeypatch, args, names):
        from treegeom import formats, tensor

        calls = {}
        owners = {"svd": np.linalg, "check_tensor": tensor}
        for name in names:
            self.count(monkeypatch, owners.get(name, formats), name, calls)
        code = run([str(a) for a in args])
        return code, calls

    def test_generate(self, linear6, monkeypatch, capsys):
        d, ranks, _, n_nodes = linear6
        code, calls = self.run_counted(monkeypatch, [
            "generate", "--tree", "linear", "--ranks", ranks,
            "--shape", "3,3,3,3,3,3", "--seed", "1", "--out", d / "g.json",
        ], ["svd", "necessary_rank_conditions", "_check_rank_args"])
        assert code == 0 and read_json(capsys)["verified"] is True
        assert calls == {"svd": n_nodes, "necessary_rank_conditions": 1,
                         "_check_rank_args": 1}

    def test_proper(self, linear6, monkeypatch, capsys):
        d, ranks, _, _ = linear6
        code, calls = self.run_counted(monkeypatch, [
            "proper", "--tree", "linear", "--ranks", ranks,
            "--shape", "3,3,3,3,3,3", "--out", d / "p.json",
        ], ["necessary_rank_conditions", "_check_rank_args"])
        assert code == 0
        assert calls == {"necessary_rank_conditions": 1,
                         "_check_rank_args": 1}

    def test_analyze(self, linear6, monkeypatch, capsys):
        d, _, tensor, n_nodes = linear6
        code, calls = self.run_counted(monkeypatch, [
            "analyze", "--tensor", tensor, "--tree", "linear",
            "--out", d / "a.json",
        ], ["check_tensor", "svd"])
        assert code == 0
        assert calls == {"check_tensor": 2, "svd": n_nodes}


class TestGenerate:
    def test_tucker_60_at_leaf_rank_30(self, tmp_path, capsys):
        # the tree network is contracted node by node: a 60^3 Kronecker
        # lift of the leaves (43.5 GiB) is never formed
        tree = tg.tucker_tree(3)
        r = capped_rank_tuple(tree, (60, 60, 60), cap=30)
        ranks = tmp_path / "ranks.json"
        ranks.write_text(ranks_to_json(r))
        out = tmp_path / "v.bin"
        code = run([
            "generate", "--tree", "tucker", "--ranks", str(ranks),
            "--shape", "60,60,60", "--out", str(out),
        ])
        doc = read_json(capsys)
        assert code == 0 and doc["verified"] is True
        assert tg.tree_rank(tg.load_tensor(out), tree) == r

    def test_writes_verified_tensor(self, workspace, capsys):
        out = workspace["dir"] / "gen.json"
        code = run([
            "generate", "--tree", workspace["tree"],
            "--ranks", workspace["ranks"], "--shape", "2,2,2,3",
            "--seed", "5", "--out", str(out),
        ])
        assert code == 0
        v = tg.load_tensor(out)
        tree = tg.tree_from_json(open(workspace["tree"]).read())
        assert tg.is_member(v, tree, workspace["r"]).member

    def test_same_seed_is_byte_identical(self, workspace, capsys):
        out1 = workspace["dir"] / "g1.json"
        out2 = workspace["dir"] / "g2.json"
        for out in (out1, out2):
            code = run([
                "generate", "--tree", workspace["tree"],
                "--ranks", workspace["ranks"], "--shape", "2,2,2,3",
                "--seed", "11", "--out", str(out),
            ])
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_generates_once(self, workspace, capsys, monkeypatch):
        # the admissibility witness is the written tensor; it is not
        # generated a second time from the same seed
        from treegeom import formats

        calls = []
        attempts = formats.sample_attempts

        def counted(*args, **kwargs):
            calls.append(args)
            return attempts(*args, **kwargs)

        monkeypatch.setattr(formats, "sample_attempts", counted)
        out = workspace["dir"] / "gen.bin"
        code = run([
            "generate", "--tree", workspace["tree"],
            "--ranks", workspace["ranks"], "--shape", "2,2,2,3",
            "--seed", "5", "--out", str(out),
        ])
        assert code == 0 and len(calls) == 1
        assert np.array_equal(tg.load_tensor(out), tg.random_tree_tensor(
            tg.tree_from_json(open(workspace["tree"]).read()),
            workspace["r"], (2, 2, 2, 3), seed=5))

    def test_unknown_verdict_exits_three(self, workspace, capsys):
        # at tol 0.9 only singular values within 10% of the largest count,
        # so no sample reaches rank 2 and admissibility stays unknown
        out = workspace["dir"] / "gen.json"
        code = run([
            "generate", "--tree", workspace["tree"],
            "--ranks", workspace["ranks"], "--shape", "2,2,2,3",
            "--tol", "0.9", "--trials", "3", "--out", str(out),
        ])
        doc = read_json(capsys)
        assert code == 3
        assert doc["verdict"] == "unknown" and doc["attempts"] == 3
        # --out names the tensor file: no tensor, no file
        assert not out.exists()

    def test_inadmissible_exits_three_with_reason(self, workspace, capsys):
        bad = dict(workspace["r"].ranks)
        bad[(1, 2, 3, 4)] = 2
        path = workspace["dir"] / "bad.json"
        path.write_text(ranks_to_json(TreeRank(bad)))
        code = run([
            "generate", "--tree", workspace["tree"], "--ranks", str(path),
            "--shape", "2,2,2,3",
        ])
        doc = read_json(capsys)
        assert code == 3
        assert doc["verdict"] == "inadmissible"
        assert doc["violated_conditions"]


class TestChartCheck:
    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_needs_a_trial(self, workspace, capsys, trials):
        # with no round trip there is nothing to pass
        code = run([
            "chart-check", "--tensor", workspace["tensor"],
            "--tree", workspace["tree"], "--ranks", workspace["ranks"],
            "--trials", trials,
        ])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "trials must be at least 1" in captured.err

    def test_passes_on_generated_anchor(self, workspace, capsys):
        code = run([
            "chart-check", "--tensor", workspace["tensor"],
            "--tree", workspace["tree"], "--ranks", workspace["ranks"],
            "--trials", "3", "--seed", "2",
        ])
        doc = read_json(capsys)
        assert code == 0 and doc["passed"]
        assert doc["max_error_small_magnitudes"] <= 1e-8

    @pytest.mark.filterwarnings("ignore:fixed-rank set is not proper")
    def test_passes_at_1e200(self, workspace, capsys):
        # the squared norm of a tensor with entries near 1e200 overflows;
        # the round-trip errors are measured relative to max|w|
        p = workspace["dir"] / "big.json"
        tg.save_tensor(p, 1e200 * workspace["v"])
        code = run([
            "chart-check", "--tensor", str(p),
            "--tree", workspace["tree"], "--ranks", workspace["ranks"],
            "--trials", "3", "--seed", "2",
        ])
        doc = read_json(capsys)
        assert code == 0 and doc["passed"] is True
        assert all(0 <= res["max_roundtrip_error"] <= 1e-8
                   for res in doc["results"])

    def test_not_on_manifold_exits_one(self, workspace, capsys):
        rng = np.random.default_rng(1)
        p = workspace["dir"] / "generic.json"
        tg.save_tensor(p, rng.standard_normal(workspace["shape"]))
        code = run([
            "chart-check", "--tensor", str(p),
            "--tree", workspace["tree"], "--ranks", workspace["ranks"],
            "--trials", "2",
        ])
        assert code == 1


class TestTangent:
    def test_rank_one_matrix_case(self, tmp_path, capsys):
        tree = tg.tucker_tree(2)
        r = TreeRank({(1, 2): 1, (1,): 1, (2,): 1})
        v = tg.random_tree_tensor(tree, r, (2, 2), seed=0)
        tp = tmp_path / "v.json"
        tg.save_tensor(tp, v)
        rp = tmp_path / "r.json"
        rp.write_text(ranks_to_json(r))
        code = run([
            "tangent", "--tensor", str(tp), "--tree", "tucker",
            "--ranks", str(rp),
        ])
        doc = read_json(capsys)
        assert code == 0 and doc["agree"]
        assert doc["dim_total"] == doc["oracle_dim"] == doc["formula_dim"] == 3

    def test_wrong_ranks_give_nonzero_exit(self, workspace, capsys):
        bumped = dict(workspace["r"].ranks)
        bumped[(2, 3)] += 1
        path = workspace["dir"] / "wrong.json"
        path.write_text(ranks_to_json(TreeRank(bumped)))
        code = run([
            "tangent", "--tensor", workspace["tensor"],
            "--tree", workspace["tree"], "--ranks", str(path),
        ])
        doc = read_json(capsys)
        assert code == 1 and not doc["agree"]

    def test_non_member_report_from_one_membership_check(
        self, workspace, capsys, monkeypatch
    ):
        from treegeom import formats

        bumped = dict(workspace["r"].ranks)
        bumped[(2, 3)] += 1
        path = workspace["dir"] / "wrong.json"
        path.write_text(ranks_to_json(TreeRank(bumped)))
        tree = tg.tree_from_json(open(workspace["tree"]).read())
        expected = tg.is_member(workspace["v"], tree, TreeRank(bumped))
        decisions = []
        report = formats._membership_report

        def counted(*args):
            decisions.append(args)
            return report(*args)

        monkeypatch.setattr(formats, "_membership_report", counted)
        code = run([
            "tangent", "--tensor", workspace["tensor"],
            "--tree", workspace["tree"], "--ranks", str(path),
        ])
        doc = read_json(capsys)
        assert code == 1 and len(decisions) == 1
        assert doc["member"] is False and doc["agree"] is False
        assert doc["failing_levels"] == expected.failing_levels() == [2]

    def test_deep_tree_gap_reported_with_nonzero_exit(
        self, workspace, capsys
    ):
        code = run([
            "tangent", "--tensor", workspace["tensor"],
            "--tree", workspace["tree"], "--ranks", workspace["ranks"],
        ])
        doc = read_json(capsys)
        assert code == 1
        assert doc["member"] and not doc["agree"]
        assert doc["oracle_dim"] == doc["formula_dim"]


class TestProper:
    def test_two_block_tree_not_proper(self, tmp_path, capsys):
        tree = tg.tree_from_nested([[1], [[2], [3], [4], [5], [6]]])
        ranks = {n: 2 for n in tree.nodes}
        ranks[tree.root] = 1
        tp = tmp_path / "tree.json"
        tp.write_text(tg.tree_to_json(tree))
        rp = tmp_path / "r.json"
        rp.write_text(ranks_to_json(TreeRank(ranks)))
        code = run([
            "proper", "--tree", str(tp), "--ranks", str(rp),
            "--shape", "2,2,2,2,2,2",
        ])
        doc = read_json(capsys)
        assert code == 1 and not doc["proper"]
        assert doc["level_margins"] == {"1": 0, "2": 0}

    def test_mixed_tree_proper(self, tmp_path, mixed_tree_d6, capsys):
        r = capped_rank_tuple(mixed_tree_d6, (2,) * 6)
        tp = tmp_path / "tree.json"
        tp.write_text(tg.tree_to_json(mixed_tree_d6))
        rp = tmp_path / "r.json"
        rp.write_text(ranks_to_json(r))
        code = run([
            "proper", "--tree", str(tp), "--ranks", str(rp),
            "--shape", "2,2,2,2,2,2",
        ])
        doc = read_json(capsys)
        assert code == 0 and doc["proper"]

    def test_depth_one_not_proper(self, tmp_path, capsys):
        tree = tg.tucker_tree(3)
        rp = tmp_path / "r.json"
        rp.write_text(ranks_to_json(
            TreeRank({n: 1 for n in tree.nodes})
        ))
        code = run([
            "proper", "--tree", "tucker", "--ranks", str(rp),
            "--shape", "2,2,2",
        ])
        doc = read_json(capsys)
        assert code == 1 and doc["level_margins"] == {"1": 0}


class BrokenPipeStdout:
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


class TestBrokenPipe:
    """A report that cannot be written to a closed pipe leaves the
    command's verdict and exit code as they were."""

    @pytest.mark.parametrize("human", [False, True])
    def test_generate_keeps_its_exit_code(self, workspace, capsys,
                                          monkeypatch, human):
        out = workspace["dir"] / "gen.json"
        monkeypatch.setattr(sys, "stdout", BrokenPipeStdout())
        code = run([
            "generate", "--tree", workspace["tree"],
            "--ranks", workspace["ranks"], "--shape", "2,2,2,3",
            "--out", str(out),
        ] + (["--human"] if human else []))
        assert code == 0
        assert capsys.readouterr().err == ""
        tree = tg.tree_from_json(open(workspace["tree"]).read())
        assert tg.is_member(tg.load_tensor(out), tree, workspace["r"]).member

    def test_negative_verdict_keeps_its_exit_code(self, workspace, capsys,
                                                  monkeypatch):
        v = workspace["v"] + 0.1 * np.random.default_rng(1).standard_normal(
            workspace["shape"])
        path = workspace["dir"] / "off.json"
        tg.save_tensor(path, v)
        monkeypatch.setattr(sys, "stdout", BrokenPipeStdout())
        code = run([
            "membership", "--tensor", str(path), "--tree", workspace["tree"],
            "--ranks", workspace["ranks"],
        ])
        assert code == 1
        assert capsys.readouterr().err == ""

    @pytest.mark.skipif(sys.platform != "linux",
                        reason="counts open descriptors in /proc")
    def test_repeated_broken_pipes_leak_no_descriptor(self, workspace):
        # a fresh interpreter whose stdout descriptor is a pipe without a
        # reader, renewed before each of several in-process calls
        script = (
            "import json, os, sys\n"
            "from treegeom.cli import main\n"
            "codes, open_fds = [], []\n"
            "for _ in range(4):\n"
            "    r, w = os.pipe()\n"
            "    os.close(r)\n"
            "    os.dup2(w, 1)\n"
            "    os.close(w)\n"
            "    codes.append(main(sys.argv[1:]))\n"
            "    open_fds.append(len(os.listdir('/proc/self/fd')))\n"
            "sys.stderr.write(json.dumps([codes, open_fds]))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script, "membership",
             "--tensor", workspace["tensor"], "--tree", workspace["tree"],
             "--ranks", workspace["ranks"]],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        codes, open_fds = json.loads(done.stderr.splitlines()[-1])
        assert codes == [0] * 4
        assert open_fds == [open_fds[0]] * 4


class TestMisc:
    def test_human_rendering(self, workspace, capsys):
        code = run([
            "analyze", "--tensor", workspace["tensor"],
            "--tree", workspace["tree"], "--human",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "ranks:" in out and "{" not in out.splitlines()[0]

    def test_report_written_to_file(self, workspace, capsys):
        out = workspace["dir"] / "report.json"
        code = run([
            "membership", "--tensor", workspace["tensor"],
            "--tree", workspace["tree"], "--ranks", workspace["ranks"],
            "--out", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["member"]

    def test_size_guardrail(self):
        # the guard estimates what the command allocates instead of capping
        # the total dimension: Tucker charts live in n x n block spaces and
        # their splits in n x n factors, so a chart at N = 200^3 passes;
        # its Jacobian oracle does not
        from treegeom.cli import OPERATOR_COMMAND_MEMORY_LIMIT, _guard_size
        from treegeom.errors import InvalidArgumentError

        tree = tg.tucker_tree(3)
        r = TreeRank({(1,): 2, (2,): 2, (3,): 2, (1, 2, 3): 1})
        _guard_size(tree, r, (101, 101, 101))
        _guard_size(tree, r, (200, 200, 200))
        with pytest.raises(InvalidArgumentError) as err:
            _guard_size(tree, r, (101, 101, 101), jacobian=True)
        assert str(OPERATOR_COMMAND_MEMORY_LIMIT) in str(err.value)
        # a Tucker chart builds no residual factor; the tensor, its
        # unfoldings and the round-trip points take 8 N doubles
        _guard_size(tree, r, (250, 250, 250))
        with pytest.raises(InvalidArgumentError, match="estimated memory"):
            _guard_size(tree, r, (260, 260, 260))
        # with no deeper level a block still keeps its dim_b x dim_b right
        # singular vectors (the identity) and null basis: at leaf ranks 100
        # and n = 200, dim_b = 10^4 and the three leaves need about 4.8 GB
        high = TreeRank({(1,): 100, (2,): 100, (3,): 100, (1, 2, 3): 1})
        with pytest.raises(InvalidArgumentError, match="estimated memory"):
            _guard_size(tree, high, (200, 200, 200))
        # deep tree: the {1,2,3} block's split and nested coordinates grow
        # as n_b^2, its residual factors as dim_b^2
        deep = tg.tree_from_nested([[[1], [[2], [3]]], [4]])
        ranks = capped_rank_tuple(deep, (20, 20, 20, 2))
        with pytest.raises(InvalidArgumentError, match="estimated memory"):
            _guard_size(deep, ranks, (20, 20, 20, 2))
        _guard_size(deep, ranks, (4, 4, 4, 5))

    @pytest.mark.parametrize("command, option", [
        ("analyze", "--seed"), ("analyze", "--trials"),
        ("membership", "--seed"), ("membership", "--trials"),
        ("tangent", "--seed"), ("tangent", "--trials"),
        ("proper", "--trials"),
    ])
    def test_sampling_options_only_where_used(self, workspace, command,
                                              option, capsys):
        args = [command, "--tree", workspace["tree"], option, "1"]
        if command == "proper":
            args += ["--ranks", workspace["ranks"], "--shape", "2,2,2,3"]
        else:
            args += ["--tensor", workspace["tensor"]]
        if command in ("membership", "tangent"):
            args += ["--ranks", workspace["ranks"]]
        with pytest.raises(SystemExit) as exc:
            run(args)
        assert exc.value.code == 2

    @pytest.mark.skipif(sys.platform != "linux",
                        reason="reads the peak resident set from /proc")
    @pytest.mark.parametrize("kind, shape, command", [
        ("tucker", (60, 60, 60), "chart-check"),
        ("linear", (4, 4, 4, 4), "chart-check"),
        ("linear", (4, 4, 4, 4), "tangent"),
        ("linear", (3,) * 6, "chart-check"),
        ("linear", (3,) * 6, "tangent"),
    ])
    def test_size_estimate_covers_measured_peak(self, tmp_path, kind,
                                                shape, command):
        from treegeom.cli import _load_tree, _operator_command_bytes

        tree = _load_tree(kind, len(shape))
        r = capped_rank_tuple(tree, shape)
        v = tg.random_tree_tensor(tree, r, shape, seed=4)
        grown = peak_growth(tmp_path, command, v, kind, r)
        estimate = _operator_command_bytes(
            tree, r, shape, command == "tangent")
        assert 0 < grown <= estimate

    @pytest.mark.skipif(sys.platform != "linux",
                        reason="reads the peak resident set from /proc")
    @pytest.mark.parametrize("kind, shape, cap, command", [
        ("tucker", (60, 60, 60), 30, "generate"),
        ("tucker", (60, 60, 60), 30, "proper"),
        ("linear", (4,) * 9, 3, "generate"),
        ("binary", (4,) * 8, 4, "generate"),
    ])
    def test_generation_estimate_covers_measured_peak(self, tmp_path, kind,
                                                      shape, cap, command):
        # generate writes JSON, its costliest output
        from treegeom.cli import _generation_command_bytes, _load_tree

        tree = _load_tree(kind, len(shape))
        r = capped_rank_tuple(tree, shape, cap=cap)
        ranks_path = tmp_path / "ranks.json"
        ranks_path.write_text(ranks_to_json(r))
        grown = argv_peak_growth([
            command, "--tree", kind, "--ranks", str(ranks_path),
            "--shape", ",".join(str(n) for n in shape),
            *(["--out", str(tmp_path / "v.json")]
              if command == "generate" else []),
        ])
        assert 0 < grown <= _generation_command_bytes(tree, r, shape)

    @pytest.mark.skipif(sys.platform != "linux",
                        reason="reads the peak resident set from /proc")
    def test_size_estimate_covers_high_rank_leaf_blocks(self, tmp_path):
        # Tucker leaves have no deeper level, but each keeps dim_b x dim_b
        # right singular vectors and a null basis (dim_b = 32 * 32 here);
        # the tensor is a random core times orthonormal leaf bases, as the
        # network contraction would form a 64^3 x 32^3 Kronecker product
        from treegeom.cli import _operator_command_bytes

        shape = (64, 64, 64)
        tree = tg.tucker_tree(3)
        r = capped_rank_tuple(tree, shape, cap=32)
        rng = np.random.default_rng(4)
        bases = [np.linalg.qr(rng.standard_normal((n, 32)))[0]
                 for n in shape]
        v = np.einsum("abc,ia,jb,kc->ijk", rng.standard_normal((32,) * 3),
                      *bases, optimize=True)
        grown = peak_growth(tmp_path, "chart-check", v, "tucker", r)
        assert 0 < grown <= _operator_command_bytes(tree, r, shape, False)

    def test_tree_keyword_mismatch_with_tensor(self, workspace, capsys):
        # linear tree over 4 modes is fine; a tree file over the wrong d is not
        tree3 = tg.tucker_tree(3)
        tp = workspace["dir"] / "t3.json"
        tp.write_text(tg.tree_to_json(tree3))
        code = run([
            "analyze", "--tensor", workspace["tensor"], "--tree", str(tp),
        ])
        assert code == 2


def peak_growth(tmp_path, command, v, tree_arg, r):
    """Growth in bytes of the peak resident set of a fresh interpreter
    while it runs ``command`` on tensor ``v`` in process."""
    tensor_path = tmp_path / "v.bin"
    tg.save_tensor(tensor_path, v)
    ranks_path = tmp_path / "ranks.json"
    ranks_path.write_text(ranks_to_json(r))
    args = [
        command, "--tensor", str(tensor_path), "--tree", tree_arg,
        "--ranks", str(ranks_path),
        "--out", str(tmp_path / "report.json"),
    ]
    if command == "chart-check":
        args += ["--trials", "1"]
    return argv_peak_growth(args)


def argv_peak_growth(args):
    """Growth in bytes of the peak resident set of a fresh interpreter
    while it runs the command line ``args`` in process."""
    # VmHWM is the peak of this process image; ru_maxrss would start
    # from the forking test process's size
    script = (
        "import sys, warnings\n"
        "from treegeom.cli import main\n"
        "def kib(key):\n"
        "    for line in open('/proc/self/status'):\n"
        "        if line.startswith(key):\n"
        "            return int(line.split()[1])\n"
        "warnings.simplefilter('ignore')\n"
        "before = kib('VmRSS')\n"
        "main(sys.argv[1:])\n"
        "print(1024 * (kib('VmHWM') - before))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True,
        text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    return int(done.stdout.split()[-1])


class TestSharedParser:
    """main() builds its parser once per process; every call still parses
    into a fresh namespace and runs the handler bound to its name now."""

    def commands(self, workspace):
        common = ["--tree", workspace["tree"], "--ranks", workspace["ranks"]]
        return [
            ["analyze", "--tensor", workspace["tensor"],
             "--tree", workspace["tree"]],
            ["membership", "--tensor", workspace["tensor"], *common],
            ["generate", *common, "--shape", "2,2,2,3",
             "--out", str(workspace["dir"] / "gen.json")],
            ["chart-check", "--tensor", workspace["tensor"], *common,
             "--trials", "1"],
            ["proper", *common, "--shape", "2,2,2,3"],
        ]

    @pytest.mark.filterwarnings("ignore:fixed-rank set is not proper")
    def test_no_parser_built_after_the_first_call(self, workspace, capsys,
                                                  monkeypatch):
        import argparse

        run(self.commands(workspace)[0])
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        codes = [run(argv) for argv in self.commands(workspace)]
        # the deep tree's rank tuple is not proper
        assert codes == [0, 0, 0, 0, 1]
        assert built == []

    def test_options_do_not_carry_over(self, workspace, capsys):
        out = workspace["dir"] / "gen.json"
        code = run([
            "generate", "--tree", workspace["tree"],
            "--ranks", workspace["ranks"], "--shape", "2,2,2,3",
            "--seed", "7", "--tol", "1e-6", "--out", str(out),
        ])
        doc = read_json(capsys)
        assert code == 0 and doc["seed"] == 7 and doc["tol"] == 1e-6
        run(["analyze", "--tensor", str(out), "--tree", workspace["tree"]])
        doc = read_json(capsys)
        assert "seed" not in doc and doc["tol"] == 1e-10
        run(["membership", "--tensor", str(out), "--tree", workspace["tree"],
             "--ranks", workspace["ranks"], "--tol", "1e-6"])
        doc = read_json(capsys)
        assert "seed" not in doc and doc["tol"] == 1e-6
        # no --out either: the report of the next call goes to stdout
        run(["membership", "--tensor", str(out), "--tree", workspace["tree"],
             "--ranks", workspace["ranks"]])
        doc = read_json(capsys)
        assert "seed" not in doc and doc["tol"] == 1e-10 and doc["member"]

    def test_parser_exits_leave_the_next_call_intact(self, workspace,
                                                     capsys):
        with pytest.raises(SystemExit) as exc:
            run(["--version"])
        assert exc.value.code == 0
        with pytest.raises(SystemExit) as exc:
            run(["analyze", "--tensor", workspace["tensor"],
                 "--tree", workspace["tree"], "--bogus"])
        assert exc.value.code == 2
        capsys.readouterr()
        code = run(["membership", "--tensor", workspace["tensor"],
                    "--tree", workspace["tree"],
                    "--ranks", workspace["ranks"]])
        doc = read_json(capsys)
        assert code == 0 and doc["member"] and doc["tol"] == 1e-10

    def test_handler_patched_after_the_first_call_runs(self, workspace,
                                                       capsys, monkeypatch):
        from treegeom import cli

        run(["membership", "--tensor", workspace["tensor"],
             "--tree", workspace["tree"], "--ranks", workspace["ranks"]])
        seen = []

        def patched(args):
            seen.append(args.command)
            return 42

        monkeypatch.setattr(cli, "cmd_membership", patched)
        code = run(["membership", "--tensor", workspace["tensor"],
                    "--tree", workspace["tree"],
                    "--ranks", workspace["ranks"]])
        assert code == 42 and seen == ["membership"]


@pytest.mark.filterwarnings("ignore:fixed-rank set is not proper")
def test_chart_check_fails_on_a_nan_error(workspace, capsys, monkeypatch):
    # one trial in three at each magnitude recovers NaN coordinates; the
    # round-trip error of those trials is NaN, which must fail the check
    # whatever the other trials read
    from treegeom import cli

    inverse = cli.tree_chart_inverse
    calls = []

    def nan_on_second(chart, w):
        coords, core = inverse(chart, w)
        calls.append(len(coords))
        if len(calls) % 3 == 2:
            coords = np.full_like(coords, np.nan)
        return coords, core

    monkeypatch.setattr(cli, "tree_chart_inverse", nan_on_second)
    code = run([
        "chart-check", "--tensor", workspace["tensor"],
        "--tree", workspace["tree"], "--ranks", workspace["ranks"],
        "--trials", "3", "--seed", "2",
    ])
    doc = read_json(capsys)
    assert doc["operator_dim"] > 0 and calls[0] == doc["operator_dim"]
    small = [r for r in doc["results"] if r["magnitude"] <= 0.1]
    assert all(r["outside_domain"] == 0 for r in small)
    assert all(np.isnan(r["max_roundtrip_error"]) for r in small)
    assert np.isnan(doc["max_error_small_magnitudes"])
    assert doc["passed"] is False and code == 1
