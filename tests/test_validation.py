"""One validation boundary: every public function checks its arguments on
entry, once, the modules share no private name, and none forms a Kronecker
product."""

import ast
import importlib
import inspect
import math
from pathlib import Path

import numpy as np
import pytest

import treegeom as tg
from treegeom.errors import InvalidArgumentError
from treegeom.formats import generation_attempts
from treegeom.operators import LaplacianLike, tree_splits

from helpers import capped_rank_tuple

MODULES = ("tensor", "trees", "subspaces", "formats", "operators", "charts",
           "tangent", "cli")

BAD_TOLS = [None, math.nan, math.inf, -math.inf, 0, 0.0, -1e-10, "1e-10", 1,
            1.0, 2.0]


@pytest.fixture(scope="module")
def case():
    tree = tg.tree_from_nested([[[1], [[2], [3]]], [4]])
    shape = (2, 2, 2, 3)
    r = capped_rank_tuple(tree, shape)
    v = tg.random_tree_tensor(tree, r, shape, seed=1)
    tucker = tg.tucker_tree(4)
    partition = tg.level_partition(tucker, 1)
    splits = tree_splits(v, tucker, tg.DEFAULT_TOL)
    return {
        "tree": tree, "shape": shape, "r": r, "v": v,
        "partition": partition, "splits": splits,
        "ranks": {b: splits[b].rank for b in partition},
        "tree_splits": tree_splits(v, tree, tg.DEFAULT_TOL),
    }


# one call per public function that takes a tolerance
TOL_CALLS = {
    "svd_rank": lambda c, tol: tg.svd_rank([2.0, 1.0], tol),
    "minimal_subspace": lambda c, tol: tg.minimal_subspace(c["v"], (1,), tol),
    "tree_rank": lambda c, tol: tg.tree_rank(c["v"], c["tree"], tol),
    "check_nestedness": lambda c, tol: tg.check_nestedness(
        c["v"], (1, 2, 3), [(1,), (2, 3)], tol),
    "check_chain": lambda c, tol: tg.check_chain(c["v"], c["tree"], tol),
    "tucker_membership": lambda c, tol: tg.tucker_membership(
        c["v"], c["partition"], c["ranks"], tol),
    "is_member": lambda c, tol: tg.is_member(c["v"], c["tree"], c["r"], tol),
    "bounded_rank_member": lambda c, tol: tg.bounded_rank_member(
        c["v"], c["tree"], c["r"], tol),
    "random_tree_tensor": lambda c, tol: tg.random_tree_tensor(
        c["tree"], c["r"], c["shape"], tol=tol),
    "generation_attempts": lambda c, tol: generation_attempts(
        c["tree"], c["r"], c["shape"], tol=tol),
    "split": lambda c, tol: tg.split(c["v"], (1,), tol),
    "tucker_chart_point": lambda c, tol: tg.tucker_chart_point(
        LaplacianLike.zeros(c["splits"], c["partition"]),
        np.random.default_rng(0).standard_normal(
            [c["ranks"][b] for b in c["partition"]]), c["splits"],
        c["shape"], tol),
    "tucker_chart_inverse": lambda c, tol: tg.tucker_chart_inverse(
        c["v"], c["partition"], c["splits"], c["ranks"], tol),
    "tree_chart": lambda c, tol: tg.tree_chart(c["v"], c["tree"], c["r"],
                                               tol),
    "tree_operator_basis": lambda c, tol: tg.tree_operator_basis(
        c["tree"], c["tree_splits"], c["shape"], tol),
    "parametrization_jacobian": lambda c, tol: tg.parametrization_jacobian(
        c["v"], c["tree"], c["r"], tol),
    "tangent_dimension_oracle": lambda c, tol: tg.tangent_dimension_oracle(
        c["v"], c["tree"], c["r"], tol),
    "tangent_dimension": lambda c, tol: tg.tangent_dimension(
        c["v"], c["tree"], c["r"], tol),
    "immersion_check": lambda c, tol: tg.immersion_check(
        c["v"], c["tree"], c["r"], 1, tol),
}


def test_every_public_function_with_a_tolerance_is_covered():
    taking_tol = set()
    for name in MODULES:
        mod = importlib.import_module(f"treegeom.{name}")
        for attr in getattr(mod, "__all__", ()):
            fn = getattr(mod, attr)
            if (inspect.isfunction(fn)
                    and "tol" in inspect.signature(fn).parameters):
                taking_tol.add(attr)
    assert taking_tol <= set(TOL_CALLS), taking_tol - set(TOL_CALLS)


@pytest.mark.parametrize("tol", BAD_TOLS, ids=repr)
@pytest.mark.parametrize("name", sorted(TOL_CALLS))
def test_bad_tolerance_rejected_before_any_svd(case, name, tol, monkeypatch,
                                               empty_anchor_slot):
    calls = []

    def forbidden(*args, **kwargs):
        calls.append(args)
        raise AssertionError("an SVD ran before the tolerance was checked")

    monkeypatch.setattr(np.linalg, "svd", forbidden)
    with pytest.raises(InvalidArgumentError,
                       match="tol must be a number > 0 and < 1"):
        TOL_CALLS[name](case, tol)
    assert calls == []


@pytest.mark.filterwarnings("ignore:fixed-rank set is not proper")
@pytest.mark.parametrize("name", sorted(TOL_CALLS))
def test_good_tolerance_accepted(case, name, empty_anchor_slot):
    # the same calls with a valid tolerance get past the check
    TOL_CALLS[name](case, tg.DEFAULT_TOL)


def test_zero_coefficients_without_a_split_name_the_block(case):
    # as assemble_laplacian and the Tucker charts: an input error naming
    # the block, not a bare KeyError
    splits = dict(case["splits"])
    del splits[(3,)]
    with pytest.raises(InvalidArgumentError,
                       match=r"no split available for block \(3,\)"):
        LaplacianLike.zeros(splits, case["partition"])


def test_svd_rank_thresholds_a_vector_and_each_row_of_a_stack():
    assert tg.svd_rank([2.0, 1.0, 1e-12], 1e-10) == 2
    assert type(tg.svd_rank(np.array([2.0, 1.0]), 0.1)) is int
    assert tg.svd_rank([], 1e-10) == 0
    assert tg.svd_rank([0.0, 0.0], 1e-10) == 0
    stack = np.array([[2.0, 1.0, 1e-12], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    assert tg.svd_rank(stack, 1e-10).tolist() == [2, 1, 0]
    assert tg.svd_rank(stack, 0.6).tolist() == [1, 1, 0]


# ---------------------------------------------------------------------------
# No private name crosses modules, no checked-input twin is left, and no
# Kronecker product is formed
# ---------------------------------------------------------------------------

SOURCES = sorted(Path(tg.__file__).parent.glob("*.py"))

# public names that only tests used: the dense operator-space oracles, now
# in tests/oracles.py, and tensor helpers that numpy covers
REMOVED_PUBLIC = {
    "tensor_product", "apply_mode_operator", "embed_block_operator",
    "level_operator_basis", "intersect_operator_spaces", "OperatorSpaceBasis",
    "decompose_laplacian", "NotInSpaceError",
}

# the halves of each former twin, the private names other modules imported,
# and the private helpers of the removed public names, all gone or renamed
# to plain names; the operator intersection's block-space wrapper and its
# diagonal index plan, the attempt-count check ``check_integer`` serves, and
# the generators' argument check, inlined in its one caller
REMOVED = REMOVED_PUBLIC | {
    "_svd", "_svd_ranks", "_minimal_subspace", "require_member",
    "_tree_splits", "_member_subspaces", "_member_splits",
    "_check_member_args", "_ranks", "_nested_ranks", "_unfolding_plan",
    "_chain_residuals", "_anchor", "_unfold", "_planned",
    "_embedding_index", "_factored_subspace", "_check_partition",
    "_residual_factor", "_network_dimension", "_BlockSpace",
    "_block_spaces", "_check_attempts", "diag_rows", "diag_src",
    "_check_splits", "_violations",
}


def _private(name):
    return name.startswith("_") and not name.startswith("__")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_name_is_imported_from_another_module(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    crossing = [
        (node.lineno, node.module, alias.name)
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").startswith("treegeom"))
        for alias in node.names if _private(alias.name)
    ]
    assert crossing == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_removed_twins_are_gone(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.asname or node.name)
    assert found & REMOVED == set()


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_kronecker_product_is_formed(path):
    # the dense operators and the Jacobian oracle write each block in place;
    # np.kron, by attribute or imported by name, is the tests' reference only
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [
        getattr(node, "lineno", None) for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr == "kron")
        or (isinstance(node, ast.alias) and node.name == "kron")
    ]
    assert found == []


@pytest.mark.parametrize("module", ["treegeom"] + [
    f"treegeom.{name}" for name in MODULES + ("errors",)])
def test_removed_public_names_are_not_attributes(module):
    assert REMOVED_PUBLIC.isdisjoint(dir(importlib.import_module(module)))
