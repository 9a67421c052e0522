"""The anchor slot shared by the chart, the tangent report, the immersion
check and the Jacobian oracles: one anchor is factored once, a warm call
reports exactly what a cold one does, and any change of argument misses.
On the same ladder, the splits an anchor keeps and the Jacobian oracle are
checked against their references: the unfoldings' own singular vectors and
the Kronecker-product Jacobian."""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

import treegeom as tg
from treegeom import operators, tangent
from treegeom.errors import InvalidArgumentError, NotOnManifoldError
from treegeom.operators import tree_splits
from treegeom.subspaces import DEFAULT_TOL, TreeRank, factored_subspace

from helpers import (
    capped_rank_tuple,
    kron_jacobian,
    record_node_requests,
    unfolding_shapes,
)

DEEP = [[[1], [[2], [3]]], [4]]
MIXED = [[[1], [[2], [3]]], [[4], [5]], [6]]


def tucker(d):
    return [[m] for m in range(1, d + 1)]


def linear(d):
    node = [[d - 1], [d]]
    for m in range(d - 2, 0, -1):
        node = [[m], node]
    return node


def binary(d):
    def split(modes):
        if len(modes) == 1:
            return [modes[0]]
        half = (len(modes) + 1) // 2
        return [split(modes[:half]), split(modes[half:])]
    return split(list(range(1, d + 1)))


# every instance of the benchmark's verdicts, chart_roundtrip and
# operator_spaces ladders, at cap-2 ranks
LADDER = {
    "tucker-2322": (tucker(4), (2, 3, 2, 2)),
    "tucker-333": (tucker(3), (3, 3, 3)),
    "tucker-3333": (tucker(4), (3, 3, 3, 3)),
    "tucker-3^5": (tucker(5), (3,) * 5),
    "tucker-3^6": (tucker(6), (3,) * 6),
    "linear-3223": (linear(4), (3, 2, 2, 3)),
    "linear-3333": (linear(4), (3, 3, 3, 3)),
    "linear-23232": (linear(5), (2, 3, 2, 3, 2)),
    "linear-3^6": (linear(6), (3,) * 6),
    "binary-2332": (binary(4), (2, 3, 3, 2)),
    "binary-3333": (binary(4), (3, 3, 3, 3)),
    "binary-2^8": (binary(8), (2,) * 8),
    "deep-2223": (DEEP, (2, 2, 2, 3)),
    "deep-3333": (DEEP, (3, 3, 3, 3)),
    "deep-3434": (DEEP, (3, 4, 3, 4)),
    "mixed-222222": (MIXED, (2,) * 6),
    "mixed-232323": (MIXED, (2, 3, 2, 3, 2, 3)),
}

# chart dimension, tangent report and per-level immersion verdicts
# (included, injective, dim_ok, coordinate condition) at seeds 0-4, recorded
# with the code as of commit 848c2ec, which factored every call afresh
REFERENCE = json.loads(
    (Path(__file__).parent / "data" / "anchor_ladder_reports.json").read_text()
)


def ladder_case(name, seed):
    nested, shape = LADDER[name]
    tree = tg.tree_from_nested(nested)
    r = capped_rank_tuple(tree, shape)
    return tg.random_tree_tensor(tree, r, shape, seed=seed), tree, r


def quiet_chart(v, tree, r, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return tg.tree_chart(v, tree, r, **kwargs)


def counter(monkeypatch, module, name):
    """Count the calls of ``module.name`` (still calling it)."""
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(kwargs.get("compute_uv", True))
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def deep_case(seed=3):
    tree = tg.tree_from_nested(DEEP)
    shape = (3, 3, 3, 3)
    r = capped_rank_tuple(tree, shape)
    return tg.random_tree_tensor(tree, r, shape, seed=seed), tree, r


def cold(call):
    tangent._clear_anchor()
    return call()


@pytest.mark.parametrize("name", sorted(LADDER))
def test_warm_and_cold_reports_match_the_reference(name, empty_anchor_slot):
    # per seed: the chart from an empty slot, then the tangent report and
    # every level's immersion check warm, and the chart again; the tangent
    # report and one level's check (a different level each seed) are
    # compared with calls from an empty slot
    for seed in range(5):
        v, tree, r = ladder_case(name, seed)
        depth = tg.levels(tree).depth
        chart = cold(lambda: quiet_chart(v, tree, r))
        report = tg.tangent_dimension(v, tree, r)
        immersion = [tg.immersion_check(v, tree, r, k)
                     for k in range(1, depth + 1)]
        again = quiet_chart(v, tree, r)
        assert again.operator_basis is chart.operator_basis
        np.testing.assert_array_equal(again.core, chart.core)
        k = seed % depth + 1
        assert cold(lambda: tg.tangent_dimension(v, tree, r)) == report
        assert cold(lambda: tg.immersion_check(v, tree, r, k)) == (
            immersion[k - 1])
        ref = REFERENCE[f"{name}/{seed}"]
        assert chart.operator_basis.dim == ref["chart_dim"]
        assert report.to_dict() == ref["tangent"]
        assert len(immersion) == len(ref["immersion"])
        for rep, (included, injective, dim_ok, cond) in zip(
                immersion, ref["immersion"]):
            assert (rep.included, rep.injective, rep.dim_ok) == (
                included, injective, dim_ok)
            assert rep.coordinate_condition == pytest.approx(cond, rel=1e-6)


def test_immersion_takes_no_eigensolve_where_a_block_has_no_residual(
        monkeypatch, empty_anchor_slot):
    # a Tucker block, and a level-1 leaf of a deeper tree, has no residual
    # factor: I - E^T E is the identity, its singular values are ones, and
    # the report is the one the eigensolve gave
    eigensolves = counter(monkeypatch, np.linalg, "eigvalsh")
    for name in ("tucker-3^6", "deep-3333"):
        for seed in range(5):
            v, tree, r = ladder_case(name, seed)
            for k in range(1, tg.levels(tree).depth + 1):
                assert tg.immersion_check(v, tree, r, k) == (
                    tangent.ImmersionReport(
                        level=k, max_inclusion_residual=0.0,
                        coordinate_condition=1.0, included=True,
                        injective=True, dim_ok=True))
    assert eigensolves == []


def tall(v, node):
    """Whether the unfolding at ``node`` has more rows than columns."""
    n = np.prod([v.shape[m - 1] for m in node])
    return n > v.size // n


def assert_orthogonal(s):
    Q = np.hstack([s.u, s.w])
    assert Q.shape[0] == Q.shape[1]
    assert np.max(np.abs(Q.T @ Q - np.eye(len(Q)))) <= 1e-13


@pytest.mark.parametrize("name", sorted(LADDER))
def test_splits_are_read_off_the_unfoldings(name):
    # u is the unfolding's own kept singular vectors, bitwise, on the
    # square path (w read off the same factor) and the tall path (w off a
    # second SVD of u) alike, and [u | w] is orthogonal
    for seed in range(5):
        v, tree, _ = ladder_case(name, seed)
        for node, s in tree_splits(v, tree, DEFAULT_TOL).items():
            assert np.array_equal(
                s.u, factored_subspace(v, node, DEFAULT_TOL)[0].basis)
            assert_orthogonal(s)


@pytest.mark.parametrize("node", [(1,), (3,), (1, 2), (2, 3)])
def test_split_of_a_rank_deficient_node_is_orthogonal(node):
    # e1 (x) e1 (x) e1 + 2 e2 (x) e2 (x) e2: every unfolding has rank 2 and
    # an exact-zero singular value
    e = np.eye(3)
    v = np.einsum("i,j,k->ijk", e[0], e[0], e[0]) \
        + 2 * np.einsum("i,j,k->ijk", e[1], e[1], e[1])
    s = np.linalg.svd(tg.matricize(v, node), compute_uv=False)
    assert s.tolist() == [2.0, 1.0, 0.0]
    split = tg.split(v, node)
    assert split.rank == 2 and tall(v, node) == (len(node) == 2)
    assert_orthogonal(split)


@pytest.mark.parametrize("name,count", [("deep-3333", 4), ("tucker-3^6", 1)])
def test_cold_splits_take_one_svd_per_unfolding_shape_and_tall_basis_shape(
        monkeypatch, name, count):
    # each non-root node is requested once; the unfoldings of one shape
    # share one SVD, and the bases of the tall nodes one full SVD per shape
    # (deep 3^4: 27 x 3, 3 x 27 and 9 x 9, then the 27 x 2 basis of
    # {1, 2, 3}; Tucker 3^6: six 3 x 243 leaves)
    v, tree, _ = ladder_case(name, 0)
    nodes = [node for node in tree.nodes if node != tree.root]
    requested = record_node_requests(monkeypatch, v.shape)
    svds = counter(monkeypatch, np.linalg, "svd")
    splits = tree_splits(v, tree, DEFAULT_TOL)
    tall_bases = {splits[node].u.shape for node in nodes if tall(v, node)}
    assert requested == dict.fromkeys(nodes, 1)
    assert len(svds) == len(unfolding_shapes(v.shape, nodes)) + len(tall_bases)
    assert len(svds) == count


@pytest.mark.parametrize("name", sorted(LADDER))
def test_jacobian_equals_the_kronecker_reference(name, empty_anchor_slot):
    for seed in range(5):
        v, tree, r = ladder_case(name, seed)
        assert np.array_equal(
            tg.parametrization_jacobian(v, tree, r),
            kron_jacobian(v, tree, tree_splits(v, tree, DEFAULT_TOL)))


def test_warm_anchor_factors_nothing(monkeypatch, empty_anchor_slot):
    v, tree, r = deep_case()
    quiet_chart(v, tree, r)
    subspaces_run = counter(monkeypatch, operators, "factored_subspaces")
    bases_built = counter(monkeypatch, tangent, "tree_operator_basis")
    svds = counter(monkeypatch, np.linalg, "svd")
    tg.tangent_dimension(v, tree, r)
    for k in range(1, tg.levels(tree).depth + 1):
        tg.immersion_check(v, tree, r, k)
    # only the Jacobian oracle's rank, which takes no singular vectors: one
    # SVD of the Jacobian at the leaf core, one of the leaf core's
    # unfoldings stacked (every leaf's is 2 x 8 here)
    assert (subspaces_run, bases_built, svds) == ([], [], [False, False])
    # the counters see a cold call, which requests every non-root node once
    tangent._clear_anchor()
    requested = record_node_requests(monkeypatch, v.shape)
    tg.immersion_check(v, tree, r, 1)
    assert len(subspaces_run) == 1
    assert requested == {node: 1 for node in tree.nodes if node != tree.root}
    assert len(bases_built) == 1


def test_chart_tangent_and_immersion_share_one_state(empty_anchor_slot):
    v, tree, r = deep_case()
    chart = quiet_chart(v, tree, r)
    state = tangent._anchor_slot
    tg.tangent_dimension(v, tree, r)
    tg.immersion_check(v, tree, r, 2)
    assert tangent._anchor_slot is state
    assert chart.splits is state.splits
    assert chart.operator_basis is state.basis
    # a hit returns the caller's own array, not a kept copy
    w = v.copy()
    assert quiet_chart(w, tree, r).anchor is w
    assert tangent._anchor_slot is state


def _miss_cases(v, tree, r):
    """Calls at the anchor ``v`` of ``r`` on ``tree`` with one argument
    changed; each is a member but the one with other ranks (a rank tuple
    names exactly the tree's nodes, so other ranks on the same tree are
    another profile)."""
    tucker_tree = tg.tucker_tree(v.ndim)
    yield "tol", (v, tree, r), {"tol": 1e-9}
    lower = TreeRank({**r.ranks, (1,): r[(1,)] - 1})
    yield "ranks", (v, tree, lower), {}
    yield "tree", (v, tucker_tree, tg.tree_rank(v, tucker_tree)), {}


@pytest.mark.parametrize("what", ["tol", "ranks", "tree", "in place"])
def test_any_changed_argument_misses(monkeypatch, what, empty_anchor_slot):
    v, tree, r = deep_case()
    before = tg.tangent_dimension(v, tree, r)
    state = tangent._anchor_slot
    subspaces_run = counter(monkeypatch, operators, "factored_subspaces")
    if what == "in place":
        v *= 2.0
        assert tg.tangent_dimension(v, tree, r) == before
    else:
        case = {name: (args, kw) for name, args, kw in _miss_cases(v, tree, r)}
        args, kw = case[what]
        if what == "ranks":
            # a hit would return the kept chart without a membership check
            with pytest.raises(NotOnManifoldError):
                quiet_chart(*args, **kw)
        else:
            quiet_chart(*args, **kw)
    assert subspaces_run, what
    assert tangent._anchor_slot is not state


def test_in_place_change_refactors_the_anchor(empty_anchor_slot):
    v, tree, r = deep_case()
    chart = quiet_chart(v, tree, r)
    core = chart.core.copy()
    v *= 2.0
    again = quiet_chart(v, tree, r)
    assert again.splits is not chart.splits
    np.testing.assert_allclose(again.core, 2.0 * core, rtol=1e-12)


def test_kept_arrays_are_read_only(empty_anchor_slot):
    v, tree, r = deep_case()
    chart = quiet_chart(v, tree, r)
    basis = chart.operator_basis
    arrays = ([s.u for s in chart.splits.values()]
              + [s.w for s in chart.splits.values()]
              + list(basis.null) + [R for f in basis.factors for R in f]
              + [basis.singular_values])
    assert basis.dim > 0
    for a in arrays:
        with pytest.raises(ValueError):
            a[...] = 0.0
    # what the chart computes per call stays the caller's to change
    chart.core[...] = chart.core
    coords = np.ones(basis.dim)
    parts = basis.parts(coords)
    for C in parts.values():
        C[...] = 0.0


def test_non_member_raises_every_call_and_keeps_nothing(empty_anchor_slot):
    v, tree, r = deep_case()
    w = v + 1e-3 * np.random.default_rng(7).standard_normal(v.shape)
    assert not tg.is_member(w, tree, r).member
    calls = [
        lambda: quiet_chart(w, tree, r),
        lambda: tg.tangent_dimension(w, tree, r),
        lambda: tg.immersion_check(w, tree, r, 1),
        lambda: tg.tangent_dimension_oracle(w, tree, r),
        lambda: tg.parametrization_jacobian(w, tree, r),
    ]
    for call in calls * 2:
        with pytest.raises(NotOnManifoldError):
            call()
        assert tangent._anchor_slot is None
    # a failed check after a kept anchor empties the slot too
    tg.tangent_dimension(v, tree, r)
    with pytest.raises(NotOnManifoldError):
        tg.tangent_dimension(w, tree, r)
    assert tangent._anchor_slot is None


@pytest.mark.parametrize("k", [1.5, "1", True])
def test_non_integer_level_factors_nothing(monkeypatch, k, empty_anchor_slot):
    v, tree, r = deep_case()
    svds = counter(monkeypatch, np.linalg, "svd")
    unfolded = counter(monkeypatch, operators, "factored_subspaces")
    with pytest.raises(InvalidArgumentError, match="level must be an integer"):
        tg.immersion_check(v, tree, r, k)
    assert (svds, unfolded) == ([], [])
    assert tangent._anchor_slot is None


def test_numpy_integer_level_is_reported_as_int(empty_anchor_slot):
    v, tree, r = deep_case()
    report = tg.immersion_check(v, tree, r, np.int64(2))
    assert report == tg.immersion_check(v, tree, r, 2)
    assert type(report.to_dict()["level"]) is int


def test_oracle_path_builds_no_operator_basis(monkeypatch, empty_anchor_slot):
    v, tree, r = deep_case()
    bases_built = counter(monkeypatch, tangent, "tree_operator_basis")
    oracle = tg.tangent_dimension_oracle(v, tree, r)
    J = tg.parametrization_jacobian(v, tree, r)
    assert bases_built == []
    assert tangent._anchor_slot.basis is None
    assert oracle == np.linalg.matrix_rank(J) == tg.tangent_dimension(
        v, tree, r).oracle_dim
    assert len(bases_built) == 1


@pytest.mark.parametrize("k", [0, 4, -1])
def test_out_of_range_level_factors_nothing(monkeypatch, k, empty_anchor_slot):
    v, tree, r = deep_case()
    svds = counter(monkeypatch, np.linalg, "svd")
    unfolded = counter(monkeypatch, operators, "factored_subspaces")
    with pytest.raises(InvalidArgumentError, match="out of range"):
        tg.immersion_check(v, tree, r, k)
    assert (svds, unfolded) == ([], [])
    assert tangent._anchor_slot is None
