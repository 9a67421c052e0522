import warnings
from functools import reduce

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
from treegeom.charts import _graph_parts
from treegeom.operators import LaplacianLike
from treegeom.subspaces import TreeRank, factored_subspace
from treegeom.tensor import sorted_blocks

from helpers import (
    apply_single_mode_oracle,
    capped_rank_tuple,
    kind_tree,
    kron_assemble_laplacian,
    lift_core,
    random_tucker_tensor,
)


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
        rot = apply_single_mode_oracle(Q @ s.u.T + s.u @ Q.T, 2, v)
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


class TestMissingBlocks:
    """A split or rank missing at a block of the partition is an input
    error, raised before any factorization, as in
    :func:`~treegeom.operators.assemble_laplacian`: not a bare KeyError."""

    @staticmethod
    def case(monkeypatch):
        tree, r, v, blocks, splits = tucker_setup((3, 3, 3), (2, 2, 2), seed=2)
        L = LaplacianLike.zeros(splits, blocks)
        ranks = {b: r[b] for b in blocks}
        core = np.random.default_rng(0).standard_normal((2, 2, 2))
        monkeypatch.setattr(np.linalg, "svd", None)
        return v, blocks, splits, ranks, L, core

    def test_chart_point_without_a_split(self, monkeypatch):
        v, blocks, splits, ranks, L, core = self.case(monkeypatch)
        del splits[(3,)]
        with pytest.raises(InvalidArgumentError,
                           match=r"no split available for block \(3,\)"):
            tg.tucker_chart_point(L, core, splits, v.shape)

    def test_chart_inverse_without_a_split(self, monkeypatch):
        v, blocks, splits, ranks, L, core = self.case(monkeypatch)
        del splits[(3,)]
        with pytest.raises(InvalidArgumentError,
                           match=r"no split available for block \(3,\)"):
            tg.tucker_chart_inverse(v, blocks, splits, ranks)

    def test_chart_inverse_without_a_rank(self, monkeypatch):
        v, blocks, splits, ranks, L, core = self.case(monkeypatch)
        del ranks[(3,)]
        with pytest.raises(InvalidArgumentError,
                           match=r"no rank available for block \(3,\)"):
            tg.tucker_chart_inverse(v, blocks, splits, ranks)

    @pytest.mark.parametrize("rank", ["2", 2.5, True, None, 0])
    def test_chart_inverse_rank_must_be_a_positive_integer(self, monkeypatch,
                                                           rank):
        # before: "2" or True was compared with the point's rank 2 and
        # reported as a point off the manifold
        v, blocks, splits, ranks, L, core = self.case(monkeypatch)
        ranks[(3,)] = rank
        with pytest.raises(InvalidArgumentError,
                           match="rank must be an integer >= 1"):
            tg.tucker_chart_inverse(v, blocks, splits, ranks)


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
        v = reduce(np.multiply.outer,
                   [gen.standard_normal(n) for n in (2, 2, 2, 3)])
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
        # an elementary core: rank 1 on the level-1 block {1,2,3}, so the
        # level-1 full-rank check rejects it before any deeper level is read
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

    @pytest.mark.parametrize("scale,rejected", [(1e-5, True),
                                                (1e-3, False)])
    def test_core_near_the_threshold_inside_a_level_one_block(
        self, deep_tree_d4, scale, rejected
    ):
        # the anchor's {1,2,3} basis mixes a_1 into its second column at
        # 1e-6, so shrinking that column of the core by 1e-5 pushes the mode-1
        # singular value of the lift below tol while every level-1 rank stays
        # full; shrinking it by 1e-3 keeps it above
        gen = np.random.default_rng(31)
        a = np.linalg.qr(gen.standard_normal((3, 2)))[0].T
        b = np.linalg.qr(gen.standard_normal((3, 2)))[0].T
        c = np.linalg.qr(gen.standard_normal((3, 2)))[0].T
        p0 = (np.kron(b[0], c[0]) + np.kron(b[1], c[1])) / np.sqrt(2)
        p1 = (np.kron(b[0], c[1]) - np.kron(b[1], c[0])) / np.sqrt(2)
        u123 = np.linalg.qr(np.stack([
            np.kron(a[0], p0),
            np.kron(a[0], p1) + 1e-6 * np.kron(a[1], p0),
        ], axis=1))[0]
        q = np.linalg.qr(gen.standard_normal((3, 2)))[0]
        v = (u123 @ np.diag([1.0, 0.5]) @ q.T).reshape(3, 3, 3, 3)
        r = capped_rank_tuple(deep_tree_d4, v.shape)
        assert tg.is_member(v, deep_tree_d4, r).member
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            chart = tg.tree_chart(v, deep_tree_d4, r)
        core = chart.core.copy()
        core[1] *= scale
        coords = np.zeros(chart.operator_basis.dim)
        if rejected:
            with pytest.raises(InvalidCoreError, match=r"levels \[2, 3\]"):
                tg.tree_chart_point(chart, coords, core)
        else:
            w = tg.tree_chart_point(chart, coords, core)
            assert tg.is_member(w, deep_tree_d4, r).member

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
    from treegeom import charts, operators, tangent

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
    # every dense N x N operator or basis is written through a block
    # embedding index
    for module in (tangent, operators):
        monkeypatch.setattr(module, "embedding_index",
                            counting("embed", module.embedding_index))
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


@pytest.mark.parametrize("where", ["projection", "reconstruction"])
def test_inverse_rejects_a_nan_error(monkeypatch, where):
    # a NaN passes no `>` test; the inverse's two checks must still reject
    from treegeom import charts

    tree = anchor_case_tree("deep")
    _, _, chart = make_chart(tree, (2, 2, 2, 3), seed=0)
    coords = 1e-2 * np.ones(chart.operator_basis.dim)
    w = tg.tree_chart_point(chart, coords, chart.core)
    if where == "projection":
        basis = type(chart.operator_basis)
        project = basis.part_coordinates

        def nan_residual(self, parts):
            found, _, nrm = project(self, parts)
            return found, np.nan, nrm

        monkeypatch.setattr(basis, "part_coordinates", nan_residual)
    else:
        monkeypatch.setattr(charts, "_push_forward",
                            lambda core, *args: np.full_like(w, np.nan))
    with pytest.raises(OutsideChartImageError):
        tg.tree_chart_inverse(chart, w)


def test_sorted_blocks_helper():
    assert sorted_blocks([(3, 2), (1,)]) == ((1,), (2, 3))


@pytest.mark.parametrize("c", [2.0 ** 600, 2.0 ** -600])
def test_inverse_is_scale_free(c):
    # ||w|| overflows at 2^600 and underflows at 2^-600 on 81 entries; the
    # inverse reads the same coordinates and a core scaled by c
    v, r, chart = make_chart(anchor_case_tree("deep"), (3, 3, 3, 3), seed=32)
    gen = np.random.default_rng(33)
    coords = 0.1 * gen.standard_normal(chart.operator_basis.dim)
    core = chart.core * (1 + 0.01 * gen.standard_normal(chart.core.shape))
    w = tg.tree_chart_point(chart, coords, core)
    rec_coords, rec_core = tg.tree_chart_inverse(chart, w)
    big_coords, big_core = tg.tree_chart_inverse(chart, c * w)
    np.testing.assert_allclose(big_coords, rec_coords, rtol=0, atol=1e-12)
    np.testing.assert_allclose(big_core / c, rec_core, rtol=0, atol=1e-12)


@pytest.mark.parametrize("c", [1.0, 2.0 ** 600, 2.0 ** -600])
def test_reconstruction_check_is_scale_free(c):
    from treegeom.charts import _check_reconstruction

    w = np.random.default_rng(34).standard_normal((3, 3, 3, 3))
    off = np.zeros_like(w)
    off[0, 0, 0, 0] = 1e-6 * np.linalg.norm(w)
    _check_reconstruction(c * (w + 1e-3 * off), c * w, 1e-10)
    with pytest.raises(OutsideChartImageError) as err:
        _check_reconstruction(c * (w + off), c * w, 1e-10)
    assert err.value.residual == pytest.approx(1e-6, rel=1e-9)


@pytest.mark.parametrize("kind,shape,most", [
    ("deep", (3, 3, 3, 3), 12),
    ("tucker", (3, 3, 3, 3), 7),
    ("mixed", (2, 2, 2, 2, 2, 2), 17),
])
def test_round_trip_svd_count(monkeypatch, kind, shape, most):
    # a point, its inverse and the point again factor each chart point once:
    # each level-1 unfolding of the point is one matrix of one batched SVD
    # per distinct unfolding shape, one batched SVD per distinct shape of
    # the small matrices every other rank is read off, and none for the
    # second point, which the inverse has reconstructed
    v, r, chart = make_chart(anchor_case_tree(kind), shape, seed=35)
    gen = np.random.default_rng(36)
    coords = 0.1 * gen.standard_normal(chart.operator_basis.dim)
    core = chart.core * (1 + 0.01 * gen.standard_normal(chart.core.shape))
    svd = np.linalg.svd
    inputs = []

    def counted(M, *args, **kwargs):
        inputs.append(np.array(M))
        return svd(M, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    w = tg.tree_chart_point(chart, coords, core)
    start = len(inputs)
    rec_coords, rec_core = tg.tree_chart_inverse(chart, w)
    # the matrices of each call, a stack's one by one
    inverse_inputs = [M for A in inputs[start:]
                      for M in (A if A.ndim == 3 else [A])]
    tg.tree_chart_point(chart, rec_coords, rec_core)
    assert len(inputs) <= most
    for b in chart.level_partitions[0]:
        M = tg.matricize(w, b)
        assert sum(A.shape == M.shape and np.array_equal(A, M)
                   for A in inverse_inputs) == 1, b


def _counting(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper and return its call list."""
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestChartInputErrors:
    """Malformed chart inputs are input errors, raised before any SVD."""

    @pytest.fixture
    def chart(self):
        return make_chart(anchor_case_tree("deep"), (3, 3, 3, 3), seed=37)[2]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_core(self, monkeypatch, chart, bad):
        core = chart.core.copy()
        core[0, 1] = bad
        svds = _counting(monkeypatch, np.linalg, "svd")
        with pytest.raises(InvalidArgumentError, match="core entries"):
            tg.tree_chart_point(chart, np.zeros(chart.operator_basis.dim),
                                core)
        assert svds == []

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coordinates(self, monkeypatch, chart, bad):
        coords = np.zeros(chart.operator_basis.dim)
        coords[-1] = bad
        # a kept reconstruction does not let them through either
        w = tg.tree_chart_point(chart, np.zeros_like(coords), chart.core)
        tg.tree_chart_inverse(chart, w)
        svds = _counting(monkeypatch, np.linalg, "svd")
        with pytest.raises(InvalidArgumentError, match="coordinates"):
            tg.tree_chart_point(chart, coords, chart.core)
        assert svds == []

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_tucker_core(self, bad):
        tree, r, v, blocks, splits = tucker_setup((3, 3, 3), (2, 2, 2))
        L = LaplacianLike(partition=blocks, parts={
            b: np.zeros((splits[b].corank, splits[b].rank)) for b in blocks})
        core = np.ones((2, 2, 2))
        core[1, 0, 1] = bad
        with pytest.raises(InvalidArgumentError, match="core entries"):
            tg.tucker_chart_point(L, core, splits, v.shape)

    @pytest.mark.parametrize("k", [-1, 0, 4])
    def test_level_out_of_range(self, monkeypatch, chart, k):
        assert len(chart.level_partitions) == 3
        svds = _counting(monkeypatch, np.linalg, "svd")
        with pytest.raises(InvalidArgumentError, match=r"out of range 1\.\.3"):
            tg.level_inverse_operator(chart, chart.anchor, k)
        assert svds == []

    @pytest.mark.parametrize("k", [1.5, 2.0, "1", True])
    def test_level_not_an_integer(self, monkeypatch, chart, k):
        svds = _counting(monkeypatch, np.linalg, "svd")
        with pytest.raises(InvalidArgumentError,
                           match="level must be an integer"):
            tg.level_inverse_operator(chart, chart.anchor, k)
        assert svds == []

    @pytest.mark.parametrize("call", [
        lambda chart, w: tg.tree_chart_inverse(chart, w),
        lambda chart, w: tg.level_inverse_operator(chart, w, 2),
    ], ids=["inverse", "level_operator"])
    def test_point_of_another_shape(self, monkeypatch, chart, call):
        w = np.random.default_rng(38).standard_normal((2, 3, 3, 3))
        svds = _counting(monkeypatch, np.linalg, "svd")
        with pytest.raises(InvalidArgumentError,
                           match=r"\(2, 3, 3, 3\).*\(3, 3, 3, 3\)"):
            call(chart, w)
        assert svds == []


def test_inverses_scan_the_point_once(monkeypatch):
    # the point is validated once; each block's subspace is factored with
    # no second finiteness scan
    from treegeom import charts, subspaces

    _, _, chart = make_chart(anchor_case_tree("mixed"), (2,) * 6, seed=39)
    w = tg.tree_chart_point(chart, 0.1 * np.ones(chart.operator_basis.dim),
                            chart.core)
    tree, r, v, blocks, splits = tucker_setup((3, 3, 3), (2, 2, 2))
    calls = []
    for module in (charts, subspaces):
        scan = module.check_tensor

        def counted(*args, scan=scan, **kwargs):
            calls.append(1)
            return scan(*args, **kwargs)

        monkeypatch.setattr(module, "check_tensor", counted)
    for k in range(1, len(chart.level_partitions) + 1):
        calls.clear()
        tg.level_inverse_operator(chart, w, k)
        assert len(calls) == 1, k
    calls.clear()
    tg.tucker_chart_inverse(v, blocks, splits, {b: 2 for b in blocks})
    assert len(calls) == 1


class TestReconstructionReuse:
    """The point a successful inverse reconstructs is kept with its chart
    and returned again for the same coordinates and core."""

    @pytest.fixture
    def setup(self):
        v, r, chart = make_chart(anchor_case_tree("deep"), (3, 3, 3, 3),
                                 seed=40)
        gen = np.random.default_rng(41)
        coords = 0.1 * gen.standard_normal(chart.operator_basis.dim)
        core = chart.core * (1 + 0.01 * gen.standard_normal(chart.core.shape))
        w = tg.tree_chart_point(chart, coords, core)
        rc, rcore = tg.tree_chart_inverse(chart, w)
        return v, r, chart, w, rc, rcore

    @staticmethod
    def _fresh(chart, coords, core):
        """The forward map recomputed, with nothing kept."""
        from treegeom import charts

        blocks = chart.level_partitions[0]
        charts._check_core_in_domain(chart, core)
        return charts._push_forward(core, chart.operator_basis.parts(coords),
                                    chart.splits, blocks, chart.shape)

    def test_hit_is_the_forward_map_bitwise(self, monkeypatch, setup):
        from treegeom import charts

        v, r, chart, w, rc, rcore = setup
        expected = self._fresh(chart, rc, rcore)
        pushes = _counting(monkeypatch, charts, "_push_forward")
        svds = _counting(monkeypatch, np.linalg, "svd")
        # equal arrays, not the returned objects, are what hits
        got = tg.tree_chart_point(chart, rc.copy(), list(rcore.copy()))
        assert pushes == [] and svds == []
        assert got.tobytes() == expected.tobytes()
        np.testing.assert_allclose(got, w, rtol=0,
                                   atol=1e-12 * np.abs(w).max())

    @pytest.mark.parametrize("which", ["coords", "core"])
    def test_changed_entry_recomputes(self, monkeypatch, setup, which):
        from treegeom import charts

        v, r, chart, w, rc, rcore = setup
        rc, rcore = rc.copy(), rcore.copy()
        if which == "coords":
            rc[0] += 1e-3
        else:
            rcore[0, 0] *= 1.001
        pushes = _counting(monkeypatch, charts, "_push_forward")
        got = tg.tree_chart_point(chart, rc, rcore)
        assert len(pushes) == 1
        assert got.tobytes() == self._fresh(chart, rc, rcore).tobytes()

    def test_writes_to_returned_arrays_change_nothing_kept(self, setup):
        v, r, chart, w, rc, rcore = setup
        expected = self._fresh(chart, rc, rcore)
        saved_rc, saved_core = rc.copy(), rcore.copy()
        first = tg.tree_chart_point(chart, rc, rcore)
        first[...] = 0.0
        rc[...] = 0.0
        rcore[...] = 0.0
        again = tg.tree_chart_point(chart, saved_rc, saved_core)
        assert again.tobytes() == expected.tobytes()

    def test_another_chart_at_the_same_anchor_recomputes(self, monkeypatch,
                                                         setup):
        from treegeom import charts

        v, r, chart, w, rc, rcore = setup
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            other = tg.tree_chart(v, chart.tree, r)
        assert other.splits is chart.splits
        pushes = _counting(monkeypatch, charts, "_push_forward")
        got = tg.tree_chart_point(other, rc, rcore)
        assert len(pushes) == 1
        assert got.tobytes() == self._fresh(chart, rc, rcore).tobytes()

    def test_failed_inverse_keeps_nothing(self, monkeypatch, setup):
        from treegeom import charts

        v, r, chart, w, rc, rcore = setup
        off_image = tg.random_tree_tensor(chart.tree, r, v.shape, seed=1)
        with pytest.raises(OutsideChartImageError):
            tg.tree_chart_inverse(chart, off_image)
        pushes = _counting(monkeypatch, charts, "_push_forward")
        tg.tree_chart_point(chart, rc, rcore)
        assert len(pushes) == 1


# the chart_roundtrip benchmark ladder: every tree kind, N <= 81
ROUNDTRIP_LADDER = [
    ("tucker", (3, 3, 3)),
    ("tucker", (3, 3, 3, 3)),
    ("deep", (2, 2, 2, 3)),
    ("deep", (3, 3, 3, 3)),
    ("linear", (3, 2, 2, 3)),
    ("linear", (3, 3, 3, 3)),
    ("binary", (3, 3, 3, 3)),
    ("binary", (2, 3, 3, 2)),
    ("mixed", (2,) * 6),
]


def ladder_point(chart, seed):
    """A chart point at coordinates of norm 0.1 and a core perturbed by
    1%, as the benchmark's cross-level checks draw them."""
    gen = np.random.default_rng(seed)
    coords = gen.standard_normal(chart.operator_basis.dim)
    if coords.size:
        coords *= 0.1 / np.linalg.norm(coords)
    core = chart.core * (1 + 0.01 * gen.standard_normal(chart.core.shape))
    return tg.tree_chart_point(chart, coords, core)


@pytest.mark.parametrize("kind,shape", ROUNDTRIP_LADDER)
def test_level_operators_equal_the_kronecker_reference(kind, shape):
    for seed in range(5):
        v, r, chart = make_chart(kind_tree(kind, len(shape)), shape,
                                 seed=seed)
        w = ladder_point(chart, 100 + seed)
        for k, blocks in enumerate(chart.level_partitions, start=1):
            subs = {b: factored_subspace(w, b, chart.tol)[0] for b in blocks}
            L = LaplacianLike(partition=blocks, parts=_graph_parts(
                subs, chart.splits, chart.ranks))
            assert np.array_equal(
                tg.level_inverse_operator(chart, w, k),
                kron_assemble_laplacian(L, chart.splits, shape))


def test_dense_operators_form_no_kronecker_product(monkeypatch):
    tree = tg.linear_tree(4)
    v, r, chart = make_chart(tree, (3, 3, 3, 3), seed=3)
    w = ladder_point(chart, 4)
    L = LaplacianLike(
        partition=chart.level_partitions[0],
        parts=chart.operator_basis.parts(
            np.ones(chart.operator_basis.dim)),
    )

    def refuse(*args, **kwargs):
        raise AssertionError("np.kron called")

    monkeypatch.setattr(np, "kron", refuse)
    ops = [tg.level_inverse_operator(chart, w, k)
           for k in range(1, len(chart.level_partitions) + 1)]
    assert chart.operator_basis.dim > 0
    assert all(op.shape == (81, 81) for op in ops)
    assert tg.assemble_laplacian(L, chart.splits, chart.shape).shape \
        == (81, 81)
    assert chart.operator_basis.vectors.shape \
        == (81 * 81, chart.operator_basis.dim)
    # nor does the Jacobian oracle, on its own or in the tangent report
    assert tg.parametrization_jacobian(v, tree, r).shape[0] == 81
    assert tg.tangent_dimension(v, tree, r).oracle_dim > 0
