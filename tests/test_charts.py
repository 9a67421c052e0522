import warnings

import numpy as np
import pytest
import scipy.linalg

import treegeom as tg
from treegeom.errors import (
    InvalidArgumentError,
    InvalidCoreError,
    NotOnManifoldError,
    OutsideChartDomainError,
    OutsideChartImageError,
)
from treegeom.operators import LaplacianLike
from treegeom.subspaces import TreeRank
from treegeom.tensor import sorted_blocks

from helpers import capped_rank_tuple, lift_core, random_tucker_tensor


def make_chart(tree, shape, seed=0, cap=2):
    r = capped_rank_tuple(tree, shape, cap=cap)
    v = tg.random_tree_tensor(tree, r, shape, seed=seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        chart = tg.tree_chart(v, tree, r)
    return v, r, chart


def tucker_setup(shape, ranks, seed=0):
    tree = tg.tucker_tree(len(shape))
    r = TreeRank({
        **{(m,): ranks[m - 1] for m in range(1, len(shape) + 1)},
        tree.root: 1,
    })
    v = tg.random_tree_tensor(tree, r, shape, seed=seed)
    blocks = tg.level_partition(tree, 1)
    splits = {b: tg.split(v, b) for b in blocks}
    return tree, r, v, blocks, splits


class TestTuckerChart:
    def test_zero_operator_and_anchor_core_reproduce_anchor(self):
        tree, r, v, blocks, splits = tucker_setup((3, 3, 3), (2, 2, 2))
        L, core = tg.tucker_chart_inverse(
            v, blocks, splits, {b: r[b] for b in blocks}
        )
        assert max(np.linalg.norm(C) for C in L.parts.values()) <= 1e-12
        w = tg.tucker_chart_point(L, core, splits, v.shape)
        assert np.linalg.norm(w - v) <= 1e-12 * np.linalg.norm(v)

    def test_forward_points_stay_in_the_tucker_set(self, rng):
        tree, r, v, blocks, splits = tucker_setup((3, 2, 3), (2, 2, 2))
        gen = np.random.default_rng(4)
        parts = {
            b: 0.3 * gen.standard_normal((splits[b].corank, splits[b].rank))
            for b in blocks
        }
        L = LaplacianLike(partition=blocks, parts=parts)
        _, core = tg.tucker_chart_inverse(
            v, blocks, splits, {b: r[b] for b in blocks}
        )
        w = tg.tucker_chart_point(L, core, splits, v.shape)
        ok, computed = tg.tucker_membership(
            w, blocks, {b: r[b] for b in blocks}
        )
        assert ok, computed

    def test_roundtrip_recovers_coefficients(self):
        tree, r, v, blocks, splits = tucker_setup((3, 3, 2), (2, 2, 2), seed=2)
        gen = np.random.default_rng(7)
        parts = {
            b: 0.1 * gen.standard_normal((splits[b].corank, splits[b].rank))
            for b in blocks
        }
        L = LaplacianLike(partition=blocks, parts=parts)
        _, core = tg.tucker_chart_inverse(
            v, blocks, splits, {b: r[b] for b in blocks}
        )
        w = tg.tucker_chart_point(L, core, splits, v.shape)
        L_rec, core_rec = tg.tucker_chart_inverse(
            w, blocks, splits, {b: r[b] for b in blocks}
        )
        for b in blocks:
            np.testing.assert_allclose(
                L_rec.parts[b], parts[b], atol=1e-8
            )
        np.testing.assert_allclose(core_rec, core, atol=1e-8)

    def test_chart_depends_only_on_the_splits(self):
        # two different anchors spanning identical subspaces give the same map
        tree, r, v, blocks, splits = tucker_setup((3, 3, 3), (2, 2, 2), seed=3)
        gen = np.random.default_rng(9)
        parts = {
            b: 0.2 * gen.standard_normal((splits[b].corank, splits[b].rank))
            for b in blocks
        }
        L = LaplacianLike(partition=blocks, parts=parts)
        core = gen.standard_normal((2, 2, 2))
        w1 = tg.tucker_chart_point(L, core, splits, v.shape)
        w2 = tg.tucker_chart_point(L, core, splits, v.shape)
        assert np.array_equal(w1, w2)

    def test_rotated_subspace_is_outside_the_domain(self):
        tree, r, v, blocks, splits = tucker_setup((2, 4, 4), (2, 2, 2), seed=5)
        # a point whose first-mode subspace is orthogonal to the anchor's
        s = splits[(2,)]
        Q = np.hstack([s.w[:, :2]])  # swap onto the complement
        rot = tg.apply_mode_operator(
            Q @ s.u.T + s.u @ Q.T, (2,), [(1,), (2,), (3,)], v
        )
        with pytest.raises((OutsideChartDomainError, NotOnManifoldError)):
            tg.tucker_chart_inverse(
                rot, blocks, splits, {b: r[b] for b in blocks}
            )

    def test_rank_deficient_core_rejected(self):
        tree, r, v, blocks, splits = tucker_setup((3, 3, 3), (2, 2, 2), seed=6)
        L = LaplacianLike.zeros(splits, blocks)
        bad_core = np.zeros((2, 2, 2))
        bad_core[0, 0, 0] = 1.0  # multilinear rank (1,1,1), not (2,2,2)
        with pytest.raises(InvalidCoreError):
            tg.tucker_chart_point(L, bad_core, splits, v.shape)

    def test_wrong_rank_point_not_on_manifold(self):
        tree, r, v, blocks, splits = tucker_setup((3, 3, 3), (2, 2, 2), seed=8)
        u = np.random.default_rng(1).standard_normal((3, 3, 3))
        with pytest.raises(NotOnManifoldError):
            tg.tucker_chart_inverse(
                u, blocks, splits, {b: r[b] for b in blocks}
            )


class TestTreeChart:
    def test_chart_reconstructs_anchor(self, deep_tree_d4):
        v, r, chart = make_chart(deep_tree_d4, (2, 2, 2, 3), seed=1)
        w = tg.tree_chart_point(
            chart, np.zeros(chart.operator_basis.dim), chart.core
        )
        assert np.linalg.norm(w - v) <= 1e-10 * np.linalg.norm(v)

    def test_anchor_inverse_is_zero(self, deep_tree_d4):
        v, r, chart = make_chart(deep_tree_d4, (2, 2, 2, 3), seed=1)
        coords, core = tg.tree_chart_inverse(chart, v)
        assert np.linalg.norm(coords) <= 1e-10
        np.testing.assert_allclose(core, chart.core, atol=1e-10)

    def test_points_remain_members(self, deep_tree_d4):
        v, r, chart = make_chart(deep_tree_d4, (2, 2, 2, 3), seed=2)
        gen = np.random.default_rng(3)
        for _ in range(5):
            coords = 0.1 * gen.standard_normal(chart.operator_basis.dim)
            w = tg.tree_chart_point(chart, coords, chart.core)
            assert tg.is_member(w, deep_tree_d4, r).member

    def test_roundtrip(self, mixed_tree_d6):
        v, r, chart = make_chart(mixed_tree_d6, (2, 2, 2, 2, 2, 3), seed=4)
        assert chart.operator_basis.dim > 0
        gen = np.random.default_rng(5)
        coords = 0.05 * gen.standard_normal(chart.operator_basis.dim)
        core = chart.core * (1 + 0.02 * gen.standard_normal(chart.core.shape))
        w = tg.tree_chart_point(chart, coords, core)
        rec_coords, rec_core = tg.tree_chart_inverse(chart, w)
        assert np.linalg.norm(rec_coords - coords) <= 1e-8 * max(
            np.linalg.norm(coords), 1e-6
        )
        np.testing.assert_allclose(rec_core, core, atol=1e-8)
        w_rec = tg.tree_chart_point(chart, rec_coords, rec_core)
        assert np.linalg.norm(w_rec - w) <= 1e-8 * np.linalg.norm(w)

    def test_level_independence_of_the_inverse(self, deep_tree_d4):
        v, r, chart = make_chart(deep_tree_d4, (2, 2, 2, 3), seed=6)
        gen = np.random.default_rng(8)
        coords = 0.05 * gen.standard_normal(chart.operator_basis.dim)
        w = tg.tree_chart_point(chart, coords, chart.core)
        ops = [
            tg.level_inverse_operator(chart, w, k)
            for k in range(1, len(chart.level_partitions) + 1)
        ]
        scale = max(np.linalg.norm(ops[0]), 1e-12)
        for other in ops[1:]:
            assert np.linalg.norm(other - ops[0]) <= 1e-9 * scale

    def test_elementary_anchor_has_rank_one_splits(self, deep_tree_d4):
        gen = np.random.default_rng(14)
        v = tg.tensor_product([gen.standard_normal(n) for n in (2, 2, 2, 3)])
        ones = TreeRank({n: 1 for n in deep_tree_d4.nodes})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            chart = tg.tree_chart(v, deep_tree_d4, ones)
        assert all(s.rank == 1 for s in chart.splits.values())
        w = tg.tree_chart_point(
            chart, np.zeros(chart.operator_basis.dim), chart.core
        )
        assert np.linalg.norm(w - v) <= 1e-10 * np.linalg.norm(v)

    def test_zero_tolerance_rejected(self, deep_tree_d4, rng):
        v = rng.standard_normal((2, 2, 2, 2))
        r = capped_rank_tuple(deep_tree_d4, (2, 2, 2, 2))
        with pytest.raises(InvalidArgumentError):
            tg.tree_chart(v, deep_tree_d4, r, tol=0)

    def test_non_member_anchor_rejected(self, deep_tree_d4):
        ones = TreeRank({n: 1 for n in deep_tree_d4.nodes})
        gen = np.random.default_rng(2)
        v = gen.standard_normal((2, 2, 2, 2))  # generic: interior ranks 2
        with pytest.raises(NotOnManifoldError):
            tg.tree_chart(v, deep_tree_d4, ones)

    def test_not_proper_anchor_warns(self, two_block_tree_d6):
        shape = (2,) * 6
        r = capped_rank_tuple(two_block_tree_d6, shape)
        v = tg.random_tree_tensor(two_block_tree_d6, r, shape, seed=0)
        with pytest.warns(UserWarning, match="not proper"):
            tg.tree_chart(v, two_block_tree_d6, r)

    @pytest.mark.parametrize("shape, warns", [
        ((2, 2, 2, 3), True),  # level-2 margin 0
        ((3, 3, 3, 3), False),  # margins 36, 6, 4
    ])
    def test_warning_follows_the_dimension_counts(
        self, deep_tree_d4, shape, warns
    ):
        r = capped_rank_tuple(deep_tree_d4, shape)
        v = tg.random_tree_tensor(deep_tree_d4, r, shape, seed=0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            tg.tree_chart(v, deep_tree_d4, r)
        assert any("not proper" in str(w.message) for w in caught) == warns

    def test_deficient_core_rejected(self, deep_tree_d4):
        v, r, chart = make_chart(deep_tree_d4, (2, 2, 2, 3), seed=7)
        bad = np.zeros_like(chart.core)
        bad[0, 0] = 1.0
        with pytest.raises(InvalidCoreError):
            tg.tree_chart_point(
                chart, np.zeros(chart.operator_basis.dim), bad
            )

    def test_core_deficient_at_a_deeper_level_rejected(self, mixed_tree_d6):
        # core full-rank over the level-1 blocks but dropping rank at level 2
        v, r, chart = make_chart(mixed_tree_d6, (2,) * 6, seed=9)
        blocks = chart.level_partitions[0]
        gen = np.random.default_rng(11)
        # build a core whose lift has a rank-1 subspace at node {2,3}:
        # take an elementary coefficient in the {1,2,3} block
        shape_core = tuple(chart.splits[b].rank for b in blocks)
        core = gen.standard_normal(shape_core)
        u1 = gen.standard_normal(shape_core[0])
        core = np.tensordot(u1, gen.standard_normal(shape_core[1:]), axes=0)
        with pytest.raises((InvalidCoreError, tg.DegenerateInputError)):
            tg.tree_chart_point(
                chart, np.zeros(chart.operator_basis.dim), core
            )

    def test_leaf_member_outside_tree_set_reports_failing_level(
        self, deep_tree_d4
    ):
        shape = (2, 2, 2, 3)
        v, r, chart = make_chart(deep_tree_d4, shape, seed=10)
        # a tensor with the prescribed leaf ranks whose interior ranks are
        # generic (4 at the {2,3} node instead of 2)
        leaf_blocks = chart.level_partitions[-1]
        leaf_ranks = {b: r[b] for b in leaf_blocks}
        w = random_tucker_tensor(leaf_blocks, leaf_ranks, shape, seed=13)
        ok, _ = tg.tucker_membership(w, leaf_blocks, leaf_ranks)
        assert ok
        assert not tg.is_member(w, deep_tree_d4, r).member
        with pytest.raises(
            (OutsideChartImageError, OutsideChartDomainError)
        ):
            tg.tree_chart_inverse(chart, w)


ANCHOR_CASES = [
    ("deep", (3, 3, 3, 3)),
    ("linear", (3, 3, 3, 3)),
    ("binary", (3, 3, 3, 3)),
    ("binary", (2, 3, 3, 2)),
]


def anchor_case_tree(kind):
    return {
        "deep": tg.tree_from_nested([[[1], [[2], [3]]], [4]]),
        "linear": tg.linear_tree(4),
        "binary": tg.balanced_binary_tree(4),
        "mixed": tg.tree_from_nested([[[1], [[2], [3]]], [[4], [5]], [6]]),
        "tucker": tg.tucker_tree(4),
    }[kind]


@pytest.mark.parametrize("kind,shape", ANCHOR_CASES)
class TestAnchorNeighbourhood:
    """Shapes where every mode has corank > 0: the recovered operator at
    the anchor is pure roundoff, and on binary d=4 the intersection is
    0-dimensional, so every point of the chart has zero coordinates."""

    def test_anchor_inverse(self, kind, shape):
        v, r, chart = make_chart(anchor_case_tree(kind), shape, seed=21)
        coords, core = tg.tree_chart_inverse(chart, v)
        assert coords.shape == (chart.operator_basis.dim,)
        assert np.linalg.norm(coords) <= 1e-10
        np.testing.assert_allclose(core, chart.core, atol=1e-10)
        # the operator does not change when the point is scaled
        coords, core = tg.tree_chart_inverse(chart, 1e-6 * v)
        assert np.linalg.norm(coords) <= 1e-10
        np.testing.assert_allclose(core, 1e-6 * chart.core, atol=1e-16)

    def test_near_anchor_roundtrips(self, kind, shape):
        v, r, chart = make_chart(anchor_case_tree(kind), shape, seed=22)
        gen = np.random.default_rng(23)
        for magnitude in (1e-3, 1e-2, 1e-1):
            coords = gen.standard_normal(chart.operator_basis.dim)
            if coords.size:
                coords *= magnitude / np.linalg.norm(coords)
            core = chart.core * (
                1 + 0.01 * gen.standard_normal(chart.core.shape)
            )
            w = tg.tree_chart_point(chart, coords, core)
            rec_coords, rec_core = tg.tree_chart_inverse(chart, w)
            denom = max(np.linalg.norm(coords), np.linalg.norm(core))
            err = (np.linalg.norm(rec_coords - coords)
                   + np.linalg.norm(rec_core - core)) / denom
            assert err <= 1e-8, (magnitude, err)


@pytest.mark.parametrize("kind", ["deep", "linear", "binary", "tucker"])
def test_tree_chart_point_is_the_exponential_of_the_operator(kind):
    shape = (3, 3, 3, 3)
    v, r, chart = make_chart(anchor_case_tree(kind), shape, seed=24)
    gen = np.random.default_rng(25)
    coords = 0.1 * gen.standard_normal(chart.operator_basis.dim)
    core = chart.core * (1 + 0.01 * gen.standard_normal(chart.core.shape))
    N = v.size
    Lop = (chart.operator_basis.vectors @ coords).reshape(N, N)
    blocks = chart.level_partitions[0]
    lifted = lift_core(core, [chart.splits[b].u for b in blocks], blocks,
                       shape)
    expected = scipy.linalg.expm(Lop) @ lifted.ravel()
    point = tg.tree_chart_point(chart, coords, core).ravel()
    assert np.linalg.norm(point - expected) <= \
        1e-10 * np.linalg.norm(expected)


@pytest.mark.parametrize("kind,shape", [
    ("deep", (3, 3, 3, 3)),
    ("linear", (3, 3, 3, 3)),
    ("binary", (3, 3, 3, 3)),
    ("mixed", (2, 2, 2, 2, 2, 3)),
    ("tucker", (3, 3, 3, 3)),
])
def test_inverse_coordinates_are_the_dense_projection(kind, shape):
    # the inverse reads level-1 coefficients; the dense oracle projects the
    # operator recovered on the leaf partition onto the intersection basis
    v, r, chart = make_chart(anchor_case_tree(kind), shape, seed=26)
    gen = np.random.default_rng(27)
    depth = len(chart.level_partitions)
    vectors = chart.operator_basis.vectors
    for magnitude in (1e-2, 1e-1, 1.0):
        coords = magnitude * gen.standard_normal(chart.operator_basis.dim)
        core = chart.core * (1 + 0.01 * gen.standard_normal(chart.core.shape))
        w = tg.tree_chart_point(chart, coords, core)
        rec_coords, _ = tg.tree_chart_inverse(chart, w)
        Lop = tg.level_inverse_operator(chart, w, depth)
        np.testing.assert_allclose(
            rec_coords, vectors.T @ Lop.ravel(), rtol=0, atol=1e-10
        )


def test_inverse_pulls_back_once_and_assembles_nothing(monkeypatch):
    from treegeom import charts, tangent

    v, r, chart = make_chart(anchor_case_tree("deep"), (3, 3, 3, 3), seed=28)
    gen = np.random.default_rng(29)
    points = [
        tg.tree_chart_point(
            chart, 0.1 * gen.standard_normal(chart.operator_basis.dim),
            chart.core,
        )
        for _ in range(3)
    ] + [v]
    calls = {"pull_back": 0, "embed": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(charts, "_pull_back",
                        counting("pull_back", charts._pull_back))
    monkeypatch.setattr(tangent, "embed_block_operator",
                        counting("embed", tangent.embed_block_operator))
    for w in points:
        tg.tree_chart_inverse(chart, w)
    assert calls == {"pull_back": len(points), "embed": 0}


def test_level_inverse_operator_pulls_nothing_back(monkeypatch):
    # the cross-level check reads only the graph step; the core it would
    # pull back is not part of its result
    from treegeom import charts

    v, r, chart = make_chart(anchor_case_tree("deep"), (3, 3, 3, 3), seed=28)
    w = tg.tree_chart_point(
        chart, 0.1 * np.random.default_rng(30).standard_normal(
            chart.operator_basis.dim), chart.core,
    )
    calls = []
    pull_back = charts._pull_back

    def counted(*args, **kwargs):
        calls.append(1)
        return pull_back(*args, **kwargs)

    monkeypatch.setattr(charts, "_pull_back", counted)
    for k in range(1, len(chart.level_partitions) + 1):
        tg.level_inverse_operator(chart, w, k)
    assert calls == []


def test_off_image_member_is_rejected_below_level_one():
    # level 1 holds the recovered level-1 operator by construction, so a
    # member outside the image is rejected at a deeper level
    tree = anchor_case_tree("deep")
    shape = (3, 3, 3, 3)
    v, r, chart = make_chart(tree, shape, seed=0)
    w = tg.random_tree_tensor(tree, r, shape, seed=1)
    assert tg.is_member(w, tree, r).member
    with pytest.raises(OutsideChartImageError) as err:
        tg.tree_chart_inverse(chart, w)
    assert 2 <= err.value.level <= len(chart.level_partitions)
    assert err.value.residual > 0


def test_sorted_blocks_helper():
    assert sorted_blocks([(3, 2), (1,)]) == ((1,), (2, 3))
