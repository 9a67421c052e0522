import numpy as np
import pytest
import scipy.linalg

import treegeom as tg
from treegeom.errors import InvalidArgumentError, NotInSpaceError
from treegeom.operators import LaplacianLike, lifted_part

from helpers import (
    KRONECKER_CASES,
    capped_rank_tuple,
    gauss_rank_float,
    kind_tree,
    kron_assemble_laplacian,
    lift_core,
)


def anchored_splits(tree, shape, seed=0, cap=2):
    r = capped_rank_tuple(tree, shape, cap=cap)
    v = tg.random_tree_tensor(tree, r, shape, seed=seed)
    splits = {n: tg.split(v, n) for n in tree.nodes if n != tree.root}
    return v, r, splits


def random_laplacian(splits, partition, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    parts = {
        b: scale * rng.standard_normal((splits[b].corank, splits[b].rank))
        for b in partition
    }
    return LaplacianLike(partition=partition, parts=parts)


class TestSplit:
    def test_elementary_split_dimensions(self, rng):
        x = rng.standard_normal(3)
        v = tg.tensor_product([x, rng.standard_normal(2), rng.standard_normal(2)])
        s = tg.split(v, (1,))
        assert s.u.shape == (3, 1)
        assert s.w.shape == (3, 2)
        Q = np.hstack([s.u, s.w])
        np.testing.assert_allclose(Q.T @ Q, np.eye(3), atol=1e-12)

    def test_resolution_of_identity(self, rng):
        v = rng.standard_normal((2, 3, 4))
        s = tg.split(v, (2, 3))
        np.testing.assert_allclose(
            s.u @ s.u.T + s.w @ s.w.T, np.eye(12), atol=1e-12
        )

    def test_dimensions_sum_to_ambient(self, rng):
        v = rng.standard_normal((2, 3, 4))
        s = tg.split(v, (2, 3))
        assert s.rank + s.corank == 12
        assert s.rank == gauss_rank_float(tg.matricize(v, (2, 3)))


class TestAssemble:
    def test_zero_coefficients_give_zero_operator(self, deep_tree_d4):
        shape = (2, 2, 2, 3)
        v, r, splits = anchored_splits(deep_tree_d4, shape)
        P1 = tg.level_partition(deep_tree_d4, 1)
        L = LaplacianLike.zeros(splits, P1)
        Op = tg.assemble_laplacian(L, splits, shape)
        assert np.array_equal(Op, np.zeros_like(Op))

    def test_single_block_is_the_lifted_part(self, rng):
        v = rng.standard_normal((2, 3))
        s = tg.split(v, (1, 2))
        C = rng.standard_normal((s.corank, s.rank))
        L = LaplacianLike(partition=((1, 2),), parts={(1, 2): C})
        Op = tg.assemble_laplacian(L, {(1, 2): s}, (2, 3))
        np.testing.assert_allclose(Op, lifted_part(s, C), atol=1e-14)

    def test_two_block_product_rule(self, rng):
        # action on a product vector: one term per block
        v = rng.standard_normal((3, 4))
        splits = {(1,): tg.split(v, (1,)), (2,): tg.split(v, (2,))}
        L = random_laplacian(splits, ((1,), (2,)), seed=1)
        Op = tg.assemble_laplacian(L, splits, (3, 4))
        L1 = lifted_part(splits[(1,)], L.parts[(1,)])
        L2 = lifted_part(splits[(2,)], L.parts[(2,)])
        x, y = rng.standard_normal(3), rng.standard_normal(4)
        expected = (
            tg.tensor_product([L1 @ x, y]) + tg.tensor_product([x, L2 @ y])
        )
        got = (Op @ tg.tensor_product([x, y]).ravel()).reshape(3, 4)
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_nilpotency_of_lifted_parts(self, mixed_tree_d6):
        shape = (2,) * 6
        v, r, splits = anchored_splits(mixed_tree_d6, shape, seed=3)
        for b, s in splits.items():
            C = np.random.default_rng(5).standard_normal((s.corank, s.rank))
            Lp = lifted_part(s, C)
            assert np.max(np.abs(Lp @ Lp)) <= 1e-14

    def test_disjoint_blocks_commute(self, deep_tree_d4):
        shape = (2, 2, 2, 3)
        v, r, splits = anchored_splits(deep_tree_d4, shape, seed=2)
        P2 = tg.level_partition(deep_tree_d4, 2)
        L = random_laplacian(splits, P2, seed=7)
        singles = []
        for b in P2:
            only = LaplacianLike(
                partition=P2,
                parts={
                    c: (L.parts[c] if c == b else np.zeros_like(L.parts[c]))
                    for c in P2
                },
            )
            singles.append(tg.assemble_laplacian(only, splits, shape))
        for i in range(len(singles)):
            for j in range(i + 1, len(singles)):
                comm = singles[i] @ singles[j] - singles[j] @ singles[i]
                bound = 1e-12 * max(
                    np.linalg.norm(singles[i]) * np.linalg.norm(singles[j]), 1.0
                )
                assert np.linalg.norm(comm) <= bound


    @pytest.mark.parametrize("kind,shape", KRONECKER_CASES)
    def test_equals_the_kronecker_sum(self, kind, shape):
        tree = kind_tree(kind, len(shape))
        v, r, splits = anchored_splits(tree, shape, seed=9)
        for k in range(1, tg.levels(tree).depth + 1):
            P = tg.level_partition(tree, k)
            L = random_laplacian(splits, P, seed=k)
            assert np.array_equal(tg.assemble_laplacian(L, splits, shape),
                                  kron_assemble_laplacian(L, splits, shape))

    def test_modes_of_size_one(self, rng):
        shape = (3, 1, 4)
        v = rng.standard_normal(shape)
        P = ((1, 2), (3,))
        splits = {b: tg.split(v, b) for b in P}
        L = random_laplacian(splits, P, seed=3)
        assert np.array_equal(tg.assemble_laplacian(L, splits, shape),
                              kron_assemble_laplacian(L, splits, shape))


class TestDecompose:
    def test_roundtrip(self, deep_tree_d4):
        shape = (2, 2, 2, 3)
        v, r, splits = anchored_splits(deep_tree_d4, shape, seed=4)
        P1 = tg.level_partition(deep_tree_d4, 1)
        L = random_laplacian(splits, P1, seed=8)
        Op = tg.assemble_laplacian(L, splits, shape)
        rec = tg.decompose_laplacian(Op, P1, splits, shape)
        for b in P1:
            np.testing.assert_allclose(rec.parts[b], L.parts[b], atol=1e-10)

    def test_zero_operator(self, deep_tree_d4):
        shape = (2, 2, 2, 2)
        v, r, splits = anchored_splits(deep_tree_d4, shape, seed=1)
        P2 = tg.level_partition(deep_tree_d4, 2)
        N = int(np.prod(shape))
        rec = tg.decompose_laplacian(np.zeros((N, N)), P2, splits, shape)
        assert all(np.array_equal(C, np.zeros_like(C)) for C in rec.parts.values())

    def test_identity_is_not_in_the_space(self, deep_tree_d4):
        shape = (2, 2, 2, 3)
        v, r, splits = anchored_splits(deep_tree_d4, shape, seed=1)
        P1 = tg.level_partition(deep_tree_d4, 1)
        with pytest.raises(NotInSpaceError) as exc:
            tg.decompose_laplacian(np.eye(24), P1, splits, shape)
        assert exc.value.residual > 1.0

    @pytest.mark.parametrize("c", [1.0, 2.0 ** 600, 2.0 ** -600])
    def test_verdict_does_not_depend_on_scale(self, c):
        # at 2^600 the squared entries overflow and at 2^-600 they
        # underflow: a generic operator is still rejected, and a member of
        # the space is still accepted with its parts scaled by c (exactly,
        # as c is a power of two)
        tree = tg.tucker_tree(3)
        shape = (3, 3, 3)
        v, r, splits = anchored_splits(tree, shape, seed=0)
        P1 = tg.level_partition(tree, 1)
        generic = np.random.default_rng(0).standard_normal((27, 27))
        residuals = []
        for scale in (1.0, c):
            with pytest.raises(NotInSpaceError) as exc:
                tg.decompose_laplacian(scale * generic, P1, splits, shape)
            residuals.append(exc.value.residual)
        # the residual stays absolute
        assert residuals[1] / c == pytest.approx(residuals[0], rel=1e-12)
        L = random_laplacian(splits, P1, seed=1)
        Op = tg.assemble_laplacian(L, splits, shape)
        rec = tg.decompose_laplacian(c * Op, P1, splits, shape)
        for b in P1:
            np.testing.assert_allclose(rec.parts[b] / c, L.parts[b],
                                       rtol=0, atol=1e-10)


def random_core(splits, partition, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal([splits[b].rank for b in partition])


class TestLaplacianExp:
    """The exponential of a Laplacian-like operator, as the chart's forward
    map applies it: block by block, on a core lifted through the splits."""

    def test_zero_gives_identity(self, deep_tree_d4):
        shape = (2, 2, 2, 2)
        v, r, splits = anchored_splits(deep_tree_d4, shape)
        P1 = tg.level_partition(deep_tree_d4, 1)
        L = LaplacianLike.zeros(splits, P1)
        core = random_core(splits, P1, seed=1)
        np.testing.assert_allclose(
            tg.tucker_chart_point(L, core, splits, shape),
            lift_core(core, [splits[b].u for b in P1], P1, shape),
            rtol=0, atol=1e-15,
        )

    def test_single_block_matches_generic_exponential(self, rng):
        v = rng.standard_normal((3, 3))
        s = tg.split(v, (1, 2))
        C = rng.standard_normal((s.corank, s.rank))
        L = LaplacianLike(partition=((1, 2),), parts={(1, 2): C})
        splits = {(1, 2): s}
        core = rng.standard_normal(s.rank)
        point = tg.tucker_chart_point(L, core, splits, (3, 3)).ravel()
        Op = tg.assemble_laplacian(L, splits, (3, 3))
        expected = scipy.linalg.expm(Op) @ (s.u @ core)
        np.testing.assert_allclose(
            point, expected, atol=1e-12 * np.linalg.norm(expected)
        )

    def test_three_blocks_match_generic_exponential(self, mixed_tree_d6):
        shape = (2,) * 6
        v, r, splits = anchored_splits(mixed_tree_d6, shape, seed=6)
        P1 = tg.level_partition(mixed_tree_d6, 1)
        L = random_laplacian(splits, P1, seed=2, scale=0.5)
        core = random_core(splits, P1, seed=3)
        point = tg.tucker_chart_point(L, core, splits, shape).ravel()
        lifted = lift_core(core, [splits[b].u for b in P1], P1, shape)
        ref = scipy.linalg.expm(tg.assemble_laplacian(L, splits, shape)) @ \
            lifted.ravel()
        assert np.linalg.norm(point - ref) <= 1e-10 * np.linalg.norm(ref)


def test_laplacian_coefficients_must_cover_partition():
    with pytest.raises(InvalidArgumentError):
        LaplacianLike(partition=((1,), (2,)), parts={(1,): np.zeros((1, 1))})
