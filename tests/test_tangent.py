from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import treegeom as tg
from treegeom import formats, operators, subspaces, tangent
from treegeom.formats import contract_network, network_dimension_formula
from treegeom.operators import tree_splits
from treegeom.subspaces import TreeRank
from treegeom.tangent import (
    _network_parameters,
    parametrization_jacobian,
    tree_operator_basis,
)

from helpers import (
    KRONECKER_CASES,
    capped_rank_tuple,
    intersection_dim_bruteforce,
    kind_tree,
    kron_basis_vectors,
    kron_embed_block_operator,
    kron_network_parameters,
    per_entry_jacobian,
    principal_angle_residual,
    record_node_requests,
)
from oracles import (
    block_residual_factors,
    decompose_laplacian,
    intersect_operator_spaces,
    level_operator_basis,
    residual_factor,
)


def anchored(tree, shape, seed=0, cap=2):
    r = capped_rank_tuple(tree, shape, cap=cap)
    v = tg.random_tree_tensor(tree, r, shape, seed=seed)
    splits = tree_splits(v, tree, tol=1e-10)
    return v, r, splits


def level_bases(tree, v, splits):
    depth = tg.levels(tree).depth
    return [
        level_operator_basis(tg.level_partition(tree, k), splits, v.shape)
        for k in range(1, depth + 1)
    ]


def dense_residual_spectrum(bases, tol=1e-10):
    """Dimension of the intersection of the level spaces and the singular
    values of the first basis's residuals off every other basis, both read
    off one stack of the residuals' R factors, which have the residuals'
    singular values (the null space at ``tol`` relative to the largest, as
    ``intersect_operator_spaces`` decides it)."""
    first = bases[0]
    stack = np.vstack([np.zeros((0, first.dim))] + [
        residual_factor(first, b) for b in bases[1:]
    ])
    s = np.linalg.svd(stack, compute_uv=False)
    kept = np.count_nonzero(s > tol * s[0]) if s.size else 0
    return first.dim - kept, s


def tucker_instance(shape, leaf_ranks, seed=0):
    tree = tg.tucker_tree(len(shape))
    r = TreeRank({
        **{(m,): leaf_ranks[m - 1] for m in range(1, len(shape) + 1)},
        tree.root: 1,
    })
    v = tg.random_tree_tensor(tree, r, shape, seed=seed)
    return tree, r, v


class TestLevelOperatorBasis:
    def test_matrix_case_dimension(self):
        tree, r, v = tucker_instance((2, 2), (1, 1))
        splits = tree_splits(v, tree, 1e-10)
        basis = level_operator_basis(((1,), (2,)), splits, v.shape)
        assert basis.dim == 2  # 1*(2-1) per mode

    def test_deep_tree_level_one_count(self, deep_tree_d4):
        shape = (2, 2, 2, 2)
        v, r, splits = anchored(deep_tree_d4, shape, seed=1)
        blocks = tg.level_partition(deep_tree_d4, 1)
        basis = level_operator_basis(blocks, splits, shape)
        # r*(n^alpha - r) summed over {1,2,3} (2*(8-2)) and {4} (2*(2-2))
        assert basis.dim == 12

    def test_counting_formula_on_every_level(self, mixed_tree_d6):
        shape = (2, 2, 2, 2, 2, 3)
        v, r, splits = anchored(mixed_tree_d6, shape, seed=2)
        depth = tg.levels(mixed_tree_d6).depth
        for k in range(1, depth + 1):
            blocks = tg.level_partition(mixed_tree_d6, k)
            basis = level_operator_basis(blocks, splits, shape)
            expected = sum(
                splits[b].rank * splits[b].corank for b in blocks
            )
            assert basis.dim == expected

    def test_orthonormality(self, deep_tree_d4):
        shape = (2, 2, 2, 3)
        v, r, splits = anchored(deep_tree_d4, shape, seed=3)
        basis = level_operator_basis(
            tg.level_partition(deep_tree_d4, 2), splits, shape
        )
        G = basis.vectors.T @ basis.vectors
        np.testing.assert_allclose(G, np.eye(basis.dim), atol=1e-12)

    def test_matches_elementary_embedding_loop(self, mixed_tree_d6):
        # reference: one embedded elementary operator per column
        shape = (2, 3, 2, 2, 3, 2)
        v, r, splits = anchored(mixed_tree_d6, shape, seed=5)
        N = int(np.prod(shape))
        for k in range(1, tg.levels(mixed_tree_d6).depth + 1):
            blocks = tg.level_partition(mixed_tree_d6, k)
            cols = []
            for b in blocks:
                s = splits[b]
                n_rest = N // s.ambient_dim
                for j in range(s.rank):
                    for i in range(s.corank):
                        E = np.outer(s.w[:, i], s.u[:, j])
                        cols.append(kron_embed_block_operator(E, b, shape)
                                    .ravel() / np.sqrt(n_rest))
            basis = level_operator_basis(blocks, splits, shape)
            np.testing.assert_allclose(
                basis.vectors, np.column_stack(cols), rtol=0, atol=1e-15
            )

    def test_cross_block_summands_are_orthogonal(self, deep_tree_d4):
        shape = (2, 3, 2, 3)
        v, r, splits = anchored(deep_tree_d4, shape, seed=4)
        blocks = tg.level_partition(deep_tree_d4, 2)
        per_block = [
            level_operator_basis((b,) + tuple(
                c for c in blocks if c != b
            ), {**splits}, shape)
            for b in blocks
        ]
        # pairwise Gram of the distinct block summands within one level
        single = []
        for b in blocks:
            cols = []
            s = splits[b]
            n_rest = int(np.prod(shape)) // s.ambient_dim
            for j in range(s.rank):
                for i in range(s.corank):
                    E = np.outer(s.w[:, i], s.u[:, j])
                    cols.append(
                        kron_embed_block_operator(E, b, shape).ravel()
                        / np.sqrt(n_rest)
                    )
            single.append(np.column_stack(cols) if cols else None)
        mats = [m for m in single if m is not None]
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                cross = mats[i].T @ mats[j]
                assert np.max(np.abs(cross)) <= 1e-12


class TestIntersection:
    def test_single_space_is_preserved(self, deep_tree_d4):
        shape = (2, 2, 2, 3)
        v, r, splits = anchored(deep_tree_d4, shape, seed=5)
        basis = level_operator_basis(
            tg.level_partition(deep_tree_d4, 1), splits, shape
        )
        inter = intersect_operator_spaces([basis])
        assert inter.dim == basis.dim

    def test_depth_one_intersection_is_the_level_space(self):
        tree, r, v = tucker_instance((3, 3, 3), (2, 2, 2))
        splits = tree_splits(v, tree, 1e-10)
        bases = level_bases(tree, v, splits)
        inter = intersect_operator_spaces(bases)
        assert inter.dim == bases[0].dim

    def test_matches_bruteforce_projector_nullspace(self):
        # tiny case so the dense complement projectors stay affordable
        tree = tg.tree_from_nested([[1], [[2], [3]]])
        shape = (2, 2, 2)
        r = capped_rank_tuple(tree, shape, cap=1)
        v = tg.random_tree_tensor(tree, r, shape, seed=6)
        splits = tree_splits(v, tree, 1e-10)
        bases = level_bases(tree, v, splits)
        inter = intersect_operator_spaces(bases)
        assert inter.dim == intersection_dim_bruteforce(bases)

    def test_dimension_is_the_root_son_leaf_count(self, mixed_tree_d6):
        # for generic anchors only leaves directly under the root survive
        # every level space
        shape = (2, 2, 2, 2, 2, 3)
        v, r, splits = anchored(mixed_tree_d6, shape, seed=7)
        bases = level_bases(mixed_tree_d6, v, splits)
        inter = intersect_operator_spaces(bases)
        root_son_leaves = [
            b for b in mixed_tree_d6.sons_of(mixed_tree_d6.root)
            if len(b) == 1
        ]
        expected = sum(
            splits[b].rank * splits[b].corank for b in root_son_leaves
        )
        assert inter.dim == expected

    def test_every_vector_lies_in_every_level_space(self, deep_tree_d4):
        shape = (2, 2, 2, 3)
        v, r, splits = anchored(deep_tree_d4, shape, seed=8)
        bases = level_bases(deep_tree_d4, v, splits)
        inter = intersect_operator_spaces(bases)
        assert inter.dim > 0
        for basis in bases:
            proj = basis.vectors @ (basis.vectors.T @ inter.vectors)
            resid = np.linalg.norm(inter.vectors - proj, axis=0)
            assert np.max(resid) <= 1e-10

    def test_members_decompose_at_every_level(self, deep_tree_d4):
        shape = (2, 2, 2, 3)
        v, r, splits = anchored(deep_tree_d4, shape, seed=9)
        bases = level_bases(deep_tree_d4, v, splits)
        inter = intersect_operator_spaces(bases)
        gen = np.random.default_rng(10)
        coords = gen.standard_normal(inter.dim)
        Lop = inter.operator(coords)
        depth = tg.levels(deep_tree_d4).depth
        for k in range(1, depth + 1):
            blocks = tg.level_partition(deep_tree_d4, k)
            rec = decompose_laplacian(Lop, blocks, splits, shape)
            back = tg.assemble_laplacian(rec, splits, shape)
            assert np.linalg.norm(back - Lop) <= 1e-10 * np.linalg.norm(Lop)


class TestOracle:
    def test_rank_one_matrix_manifold(self):
        tree, r, v = tucker_instance((2, 2), (1, 1), seed=1)
        assert tg.tangent_dimension_oracle(v, tree, r) == 3

    def test_elementary_three_mode(self):
        tree, r, v = tucker_instance((2, 2, 2), (1, 1, 1), seed=2)
        assert tg.tangent_dimension_oracle(v, tree, r) == 4

    def test_non_member_rejected(self, deep_tree_d4, rng):
        ones = TreeRank({n: 1 for n in deep_tree_d4.nodes})
        v = rng.standard_normal((2, 2, 2, 2))
        with pytest.raises(tg.NotOnManifoldError):
            tg.tangent_dimension_oracle(v, deep_tree_d4, ones)

    def test_operator_directions_lie_in_the_jacobian_range(self, deep_tree_d4):
        shape = (2, 2, 2, 3)
        v, r, splits = anchored(deep_tree_d4, shape, seed=12)
        v = v / np.linalg.norm(v)
        bases = level_bases(deep_tree_d4, v, splits)
        inter = intersect_operator_spaces(bases)
        J = parametrization_jacobian(v, deep_tree_d4, r)
        U, s, _ = np.linalg.svd(J, full_matrices=False)
        rank = int(np.sum(s > 1e-6 * s[0]))
        Q = U[:, :rank]
        gen = np.random.default_rng(13)
        for _ in range(3):
            Lop = inter.operator(gen.standard_normal(inter.dim))
            tv = Lop @ v.ravel()
            resid = tv - Q @ (Q.T @ tv)
            assert np.linalg.norm(resid) <= 1e-9 * np.linalg.norm(tv)


class TestTangentDimension:
    def test_rank_one_matrix_case_all_three_agree(self):
        tree, r, v = tucker_instance((2, 2), (1, 1), seed=3)
        report = tg.tangent_dimension(v, tree, r)
        assert report.agree
        assert report.dim_total == report.oracle_dim == report.formula_dim == 3

    def test_depth_one_instances_agree(self):
        cases = [
            ((3, 2), (2, 2)),
            ((3, 3, 3), (2, 2, 2)),
            ((2, 2, 2), (1, 1, 1)),
            ((4, 3, 2), (2, 2, 2)),
            ((2, 2, 2, 2), (1, 1, 1, 1)),
        ]
        for i, (shape, leaf_ranks) in enumerate(cases):
            tree, r, v = tucker_instance(shape, leaf_ranks, seed=20 + i)
            report = tg.tangent_dimension(v, tree, r)
            assert report.agree, (shape, leaf_ranks, report)

    def test_core_dimension_is_the_level_one_product(self, mixed_tree_d6):
        shape = (2,) * 6
        v, r, _ = anchored(mixed_tree_d6, shape, seed=14)
        report = tg.tangent_dimension(v, mixed_tree_d6, r)
        expected = int(np.prod([
            r[b] for b in tg.level_partition(mixed_tree_d6, 1)
        ]))
        assert report.dim_core == expected

    def test_deep_tree_gap_is_surfaced_not_hidden(self, deep_tree_d4):
        # the intersected operator space is strictly smaller than the
        # network dimension on depth >= 2 trees; the report must show the
        # three numbers disagreeing rather than reconciling them
        shape = (2, 2, 2, 3)
        v, r, _ = anchored(deep_tree_d4, shape, seed=15)
        report = tg.tangent_dimension(v, deep_tree_d4, r)
        assert report.oracle_dim == report.formula_dim == 14
        assert report.dim_total == 6
        assert not report.agree

    def test_oracle_rank_is_read_at_tol(self, deep_tree_d4):
        # an ill-conditioned anchor: the smallest true singular value of
        # the Jacobian is 8e-5 of the largest and the first roundoff one
        # 7e-14, above max(J.shape) * eps; read at tol, the rank is the
        # network dimension
        shape = (3, 3, 3, 3)
        v, r, _ = anchored(deep_tree_d4, shape, seed=218)
        assert tg.tangent_dimension_oracle(v, deep_tree_d4, r) == \
            network_dimension_formula(deep_tree_d4, r, shape)
        report = tg.tangent_dimension(v, deep_tree_d4, r)
        assert report.oracle_dim == report.formula_dim

    def test_formula_matches_oracle_on_deep_trees(self, mixed_tree_d6):
        shape = (2,) * 6
        v, r, _ = anchored(mixed_tree_d6, shape, seed=16)
        oracle = tg.tangent_dimension_oracle(v, mixed_tree_d6, r)
        formula = network_dimension_formula(mixed_tree_d6, r, shape)
        assert oracle == formula


class TestImmersionCheck:
    def test_depth_one_inclusion_is_equality(self):
        tree, r, v = tucker_instance((3, 3), (2, 2), seed=4)
        report = tg.immersion_check(v, tree, r, 1)
        assert report.passed
        assert report.max_inclusion_residual <= 1e-12
        assert report.coordinate_condition == pytest.approx(1.0, abs=1e-9)

    def test_deep_tree_all_levels_pass(self, deep_tree_d4):
        shape = (2, 2, 2, 3)
        v, r, _ = anchored(deep_tree_d4, shape, seed=17)
        for k in (1, 2, 3):
            report = tg.immersion_check(v, deep_tree_d4, r, k)
            assert report.passed
            assert report.max_inclusion_residual <= 1e-10

    def test_corrupted_vector_is_flagged(self, deep_tree_d4, monkeypatch):
        shape = (2, 2, 2, 3)
        v, r, splits = anchored(deep_tree_d4, shape, seed=18)
        inter = tg.tree_operator_basis(deep_tree_d4, splits, shape)
        assert inter.dim > 0
        # claim that a level-1 direction of the {1,2,3} block, which the
        # level-2 space does not contain, lies in the intersection
        assert inter.blocks[0] == (1, 2, 3)
        dim1 = inter.null[0].shape[0]
        outside = np.eye(dim1)[:, :1]

        def corrupted(*args, **kwargs):
            inter = tree_operator_basis(*args, **kwargs)
            return replace(inter, null=(outside,) + inter.null[1:])

        monkeypatch.setattr(tangent, "tree_operator_basis", corrupted)
        report = tg.immersion_check(v, deep_tree_d4, r, 2)
        assert not report.included
        assert not report.passed
        assert tg.immersion_check(v, deep_tree_d4, r, 1).included

    def test_non_member_is_rejected_at_every_level(self):
        # rank 2 at every non-root node checked against the all-ones tuple:
        # every level fails membership, although the operator spaces built
        # from the tensor's own splits pass the inclusion test at every k
        tree = tg.tree_from_nested([[[1], [2], [3]], [4]])
        twos = TreeRank({n: 1 if n == tree.root else 2 for n in tree.nodes})
        ones = TreeRank({n: 1 for n in tree.nodes})
        v = tg.random_tree_tensor(tree, twos, (2, 2, 2, 3), seed=3)
        for k in range(1, tg.levels(tree).depth + 1):
            with pytest.raises(tg.NotOnManifoldError, match=r"levels \[1, 2\]"):
                tg.immersion_check(v, tree, ones, k)

    def test_level_out_of_range(self, deep_tree_d4):
        shape = (2, 2, 2, 2)
        v, r, _ = anchored(deep_tree_d4, shape, seed=19)
        with pytest.raises(tg.InvalidArgumentError):
            tg.immersion_check(v, deep_tree_d4, r, 9)


BLOCK_CASES = [
    ("deep", (3, 3, 3, 3)),
    ("linear", (3, 3, 3, 3)),
    ("binary", (3, 3, 3, 3)),
    ("mixed", (2,) * 6),
    ("tucker", (3, 3, 3, 3)),
]


def block_case(kind, shape, seed):
    tree = kind_tree(kind, len(shape))
    v, r, splits = anchored(tree, shape, seed=seed)
    return tree, v, r, splits


@pytest.mark.parametrize("kind,shape", BLOCK_CASES)
class TestBlockSpacesMatchDenseOracle:
    """The per-level-1-block intersection against the same functions called
    on the full shape."""

    def test_dimension_and_spectrum(self, kind, shape):
        tree, v, r, splits = block_case(kind, shape, seed=30)
        bases = level_bases(tree, v, splits)
        dense = intersect_operator_spaces(bases)
        block = tg.tree_operator_basis(tree, splits, shape)
        assert block.dim == dense.dim
        _, s = dense_residual_spectrum(bases)
        nonzero = s[s > 1e-10 * s[0]] if s.size else s
        ours = block.singular_values
        ours = ours[ours > 1e-10 * ours[0]] if ours.size else ours
        np.testing.assert_allclose(ours, nonzero, rtol=0, atol=1e-12)
        vecs = block.vectors
        np.testing.assert_allclose(
            vecs.T @ vecs, np.eye(block.dim), atol=1e-12
        )
        assert principal_angle_residual(vecs, dense.vectors) <= 1e-10

    def test_vectors_equal_the_kronecker_columns(self, kind, shape):
        tree, v, r, splits = block_case(kind, shape, seed=32)
        block = tg.tree_operator_basis(tree, splits, shape)
        assert np.array_equal(block.vectors, kron_basis_vectors(block))

    def test_immersion_matches_dense(self, kind, shape):
        tree, v, r, splits = block_case(kind, shape, seed=31)
        bases = level_bases(tree, v, splits)
        dense = intersect_operator_spaces(bases)
        for k, bk in enumerate(bases, start=1):
            report = tg.immersion_check(v, tree, r, k)
            assert report.passed
            if dense.dim == 0:
                assert report.coordinate_condition == 1.0
                continue
            proj = bk.vectors @ (bk.vectors.T @ dense.vectors)
            resid = np.max(np.linalg.norm(dense.vectors - proj, axis=0))
            assert max(resid, report.max_inclusion_residual) <= 1e-12
            sv = np.linalg.svd(bk.vectors.T @ dense.vectors,
                               compute_uv=False)
            assert report.coordinate_condition == pytest.approx(
                sv[0] / sv[-1], rel=1e-10
            )

    def test_coordinates_to_parts_match_decomposition(self, kind, shape):
        tree, v, r, splits = block_case(kind, shape, seed=32)
        block = tg.tree_operator_basis(tree, splits, shape)
        gen = np.random.default_rng(33)
        coords = gen.standard_normal(block.dim)
        N = int(np.prod(shape))
        Lop = (block.vectors @ coords).reshape(N, N)
        level1 = tg.level_partition(tree, 1)
        dec = decompose_laplacian(Lop, level1, splits, shape)
        parts = block.parts(coords)
        assert set(parts) == set(level1)
        for b in level1:
            np.testing.assert_allclose(parts[b], dec.parts[b], atol=1e-12)

    def test_leaf_parts_to_coordinates_match_dense(self, kind, shape):
        # fed level-1 coefficients, as the inverse chart hands them over
        tree, v, r, splits = block_case(kind, shape, seed=34)
        bases = level_bases(tree, v, splits)
        dense = intersect_operator_spaces(bases)
        block = tg.tree_operator_basis(tree, splits, shape)
        level1 = tg.level_partition(tree, 1)
        gen = np.random.default_rng(35)
        # a member of the intersection: recovered exactly, no residual
        if dense.dim:
            Lop = dense.operator(gen.standard_normal(dense.dim))
            dec = decompose_laplacian(Lop, level1, splits, shape)
            coords, resid, nrm = block.part_coordinates(dec.parts)
            assert resid <= 1e-12 * nrm
            assert nrm == pytest.approx(np.linalg.norm(Lop), rel=1e-12)
            np.testing.assert_allclose(
                block.vectors @ coords, Lop.ravel(), atol=1e-12
            )
        # a generic level-1 operator: residuals off the intersection and
        # off every level space equal the dense projections'
        parts = {
            b: gen.standard_normal((splits[b].corank, splits[b].rank))
            for b in level1
        }
        Lop = tg.assemble_laplacian(
            tg.LaplacianLike(partition=level1, parts=parts), splits, shape
        )
        coords, resid, nrm = block.part_coordinates(parts)
        assert nrm == pytest.approx(np.linalg.norm(Lop), rel=1e-12)
        dense_coords, dense_resid = dense.coordinates(Lop)
        assert resid == pytest.approx(dense_resid, rel=1e-10, abs=1e-12)
        np.testing.assert_allclose(
            block.vectors @ coords, dense.vectors @ dense_coords, atol=1e-10
        )
        for k, bk in enumerate(bases, start=1):
            assert block.level_residual(parts, k) == pytest.approx(
                bk.coordinates(Lop)[1], rel=1e-10, abs=1e-12
            )


def padded_values(values, size):
    return np.concatenate([values, np.zeros(size - values.size)])


def assert_nested_factors_match_dense_oracle(tree, v, splits, shape):
    """Every level-1 block's nested factors against the dense oracle of its
    own operator space: the same residual norms (R^T R) and spectrum; then
    the same intersection, and a defect at roundoff on exact anchors."""
    block = tg.tree_operator_basis(tree, splits, shape)
    assert block.defect <= 1e-12
    for b, factors in zip(block.blocks, block.factors):
        dense_factors = block_residual_factors(tree, splits, shape, b)
        assert len(dense_factors) == len(factors) - 1
        for R, dense in zip(factors[1:], dense_factors):
            np.testing.assert_allclose(R.T @ R, dense.T @ dense,
                                       rtol=0, atol=1e-13)
            n = dense.shape[1]
            ours = np.linalg.svd(R, compute_uv=False)
            theirs = np.linalg.svd(dense, compute_uv=False)
            assert np.max(np.abs(padded_values(ours, n)
                                 - padded_values(theirs, n)),
                          initial=0.0) <= 1e-13
    dim, dense = dense_residual_spectrum(level_bases(tree, v, splits))
    assert block.dim == dim
    assert np.max(np.abs(padded_values(block.singular_values, dense.size)
                         - dense), initial=0.0) <= block.defect + 1e-13


@pytest.mark.parametrize("seed", [40, 41, 42])
@pytest.mark.parametrize("kind,shape", BLOCK_CASES)
def test_nested_factors_match_dense_oracle(kind, shape, seed):
    tree, v, r, splits = block_case(kind, shape, seed=seed)
    assert_nested_factors_match_dense_oracle(tree, v, splits, shape)


# rank 2 at every node in BLOCK_CASES; here the nodes of one level have
# unequal ranks, so a node's diagonal in the nested coordinates is not
# square in the other nodes' ranks
UNEQUAL_RANK_CASES = [
    ([[[1], [2], [3]], [4]], (3, 4, 4, 5),
     {(1,): 2, (2,): 3, (3,): 2, (4,): 3, (1, 2, 3): 3}),
    ([[[[1], [2]], [3], [4]], [5]], (2, 3, 4, 3, 5),
     {(1,): 1, (2,): 2, (1, 2): 2, (3,): 3, (4,): 2, (1, 2, 3, 4): 3,
      (5,): 3}),
]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("nested,shape,ranks", UNEQUAL_RANK_CASES,
                         ids=["ternary", "deep-ternary"])
def test_nested_factors_match_dense_oracle_at_unequal_ranks(
        nested, shape, ranks, seed):
    tree = tg.tree_from_nested(nested)
    r = TreeRank({**ranks, tree.root: 1})
    v = tg.random_tree_tensor(tree, r, shape, seed=seed)
    splits = tree_splits(v, tree, tol=1e-10)
    assert {a: s.rank for a, s in splits.items()} == ranks
    assert_nested_factors_match_dense_oracle(tree, v, splits, shape)


@pytest.mark.parametrize("nested,shape,cap", [
    ([[[1], [2]], [[3], [4]]], (2, 2, 2, 2), 4),
    ([[[1], [3]], [[2], [4]]], (2, 3, 2, 3), 3),
    ([[[1], [2]], [[[3], [4]], [[5], [6]]]], (2,) * 6, 4),
])
def test_full_rank_blocks_match_dense_oracle(nested, shape, cap):
    # blocks and nodes whose rank fills their space have no complement:
    # empty coefficient maps and factors, no rows off their nested space
    tree = tg.tree_from_nested(nested)
    r = capped_rank_tuple(tree, shape, cap=cap)
    assert any(r[a] == np.prod([shape[m - 1] for m in a])
               for a in tree.nodes if a != tree.root)
    v = tg.random_tree_tensor(tree, r, shape, seed=1)
    splits = tree_splits(v, tree, tol=1e-10)
    block = tg.tree_operator_basis(tree, splits, shape)
    for b, factors in zip(block.blocks, block.factors):
        for R, dense in zip(factors[1:], block_residual_factors(
                tree, splits, shape, b)):
            np.testing.assert_allclose(R.T @ R, dense.T @ dense,
                                       rtol=0, atol=1e-13)
    assert block.dim == intersect_operator_spaces(
        level_bases(tree, v, splits)).dim
    for k in range(1, tg.levels(tree).depth + 1):
        assert tg.immersion_check(v, tree, r, k).passed


@pytest.mark.parametrize("kind", ["deep", "linear", "mixed"])
def test_defect_bounds_the_spectrum_near_tol(kind):
    # a member whose largest discarded unfolding singular value sits a
    # fraction below tol: its minimal subspaces nest only up to that size
    tol = 1e-10
    tree, v, r, _ = block_case(kind, dict(BLOCK_CASES)[kind], seed=5)
    w = np.random.default_rng(6).standard_normal(v.shape)
    v = v / np.linalg.norm(v) + 5e-11 * w / np.linalg.norm(w)
    gaps = []
    for node in tree.nodes:
        s = np.linalg.svd(tg.matricize(v, node), compute_uv=False)
        if s.size > r[node]:
            gaps.append(s[r[node]] / s[0])
    assert 0.1 * tol < max(gaps) <= tol
    splits = tree_splits(v, tree, tol=tol)
    block = tg.tree_operator_basis(tree, splits, v.shape, tol)
    assert block.defect > 1e-12
    dim, dense = dense_residual_spectrum(level_bases(tree, v, splits), tol)
    assert block.dim == dim
    assert np.max(np.abs(padded_values(block.singular_values, dense.size)
                         - dense)) <= block.defect + 1e-13


@pytest.mark.filterwarnings("ignore:fixed-rank set is not proper")
@pytest.mark.parametrize("kind", ["deep", "linear", "mixed"])
def test_library_paths_build_no_dense_operator(kind, monkeypatch):
    # every dense N x N operator or N^2-long basis in the library is written
    # through a block embedding index; the intersection is read off nested
    # factors, and the immersion check, the tangent report, the chart and
    # its inverse's level search read the factors it kept, so none of them
    # reaches an embedding index
    shape = dict(BLOCK_CASES)[kind]
    tree, v, r, splits = block_case(kind, shape, seed=38)
    embedded = []
    for module in (tangent, operators):
        def counted(*args, _call=module.embedding_index, **kwargs):
            embedded.append(args)
            return _call(*args, **kwargs)
        monkeypatch.setattr(module, "embedding_index", counted)
    block = tg.tree_operator_basis(tree, splits, shape)
    depth = tg.levels(tree).depth
    for k in range(1, depth + 1):
        tg.immersion_check(v, tree, r, k)
    tg.tangent_dimension(v, tree, r)
    chart = tg.tree_chart(v, tree, r)
    coords = 1e-3 * np.ones(chart.operator_basis.dim)
    tg.tree_chart_inverse(chart, tg.tree_chart_point(chart, coords,
                                                     chart.core))
    parts = {
        b: np.ones((s.corank, s.rank)) for b, s in zip(block.blocks,
                                                       block.splits)
    }
    for k in range(1, depth + 1):
        block.level_residual(parts, k)
    assert embedded == []
    # the counter sees the one chart path that assembles an N x N operator
    tg.level_inverse_operator(chart, v, 1)
    assert embedded


@pytest.mark.parametrize("exponent", [-1000, -700, -300, 0, 300, 700, 1000])
def test_tangent_report_is_scale_free(exponent):
    # the Jacobian oracle normalizes without squaring the entries, so the
    # norm neither underflows nor overflows at any representable scale
    tree, v, r, _ = block_case("deep", (3, 3, 3, 3), seed=0)
    scaled = 2.0 ** exponent * v
    report = tg.tangent_dimension(scaled, tree, r)
    assert report == tg.tangent_dimension(v, tree, r)
    assert report.oracle_dim == report.formula_dim == 20
    J = parametrization_jacobian(v, tree, r)
    np.testing.assert_allclose(parametrization_jacobian(scaled, tree, r), J,
                               rtol=0, atol=1e-13 * np.max(np.abs(J)))


def bases(splits):
    """The orthonormal basis ``u`` of every split, keyed by node."""
    return {node: s.u for node, s in splits.items()}


def central_difference_jacobian(v, tree, splits, step=1e-6):
    """Reference Jacobian: central differences, two contractions per
    parameter entry, at the parameter point and in the column order of
    :func:`parametrization_jacobian`."""
    v = v / np.linalg.norm(v)
    leaf_factors, transfers = _network_parameters(v, tree, bases(splits))
    columns = []
    for store in (leaf_factors, transfers):
        for node in sorted(store):
            base = store[node]
            flat = base.ravel()
            for i in range(flat.size):
                bumped = flat.copy()
                bumped[i] += step
                store[node] = bumped.reshape(base.shape)
                f_plus = contract_network(tree, v.shape, leaf_factors,
                                          transfers).ravel()
                bumped[i] -= 2 * step
                store[node] = bumped.reshape(base.shape)
                f_minus = contract_network(tree, v.shape, leaf_factors,
                                           transfers).ravel()
                store[node] = base
                columns.append((f_plus - f_minus) / (2 * step))
    return np.column_stack(columns)


JACOBIAN_CASES = BLOCK_CASES + [("deep", (2, 2, 2, 3))] + KRONECKER_CASES


@pytest.mark.parametrize("kind,shape", JACOBIAN_CASES)
class TestExactJacobian:
    def test_matches_central_differences(self, kind, shape):
        tree, v, r, splits = block_case(kind, shape, seed=36)
        J = parametrization_jacobian(v, tree, r)
        reference = central_difference_jacobian(v, tree, splits)
        assert J.shape == reference.shape
        assert np.max(np.abs(J - reference)) <= 1e-8 * np.max(np.abs(J))

    def test_spectrum_has_a_gap(self, kind, shape):
        # the rank is read at tol, which is safe only if no singular value
        # sits anywhere near it: gauge directions are roundoff, below
        # max(J.shape) * eps here, every other one is well above 1e-6 of
        # the largest
        tree, v, r, _ = block_case(kind, shape, seed=11)
        J = parametrization_jacobian(v, tree, r)
        s = np.linalg.svd(J, compute_uv=False)
        s = s / s[0]
        floor = max(J.shape) * np.finfo(float).eps
        assert not np.any((s > floor) & (s <= 1e-6)), s
        assert tg.tangent_dimension_oracle(v, tree, r) == \
            network_dimension_formula(tree, r, shape)


@pytest.mark.parametrize("kind,shape", JACOBIAN_CASES)
def test_closed_form_jacobian_matches_per_entry_contraction(kind, shape):
    tree, v, r, splits = block_case(kind, shape, seed=37)
    J = parametrization_jacobian(v, tree, r)
    reference = per_entry_jacobian(v, tree, splits)
    assert J.shape == reference.shape
    assert np.max(np.abs(J - reference)) <= 1e-13 * np.max(np.abs(reference))
    assert tg.tangent_dimension_oracle(v, tree, r) == tg.svd_rank(
        np.linalg.svd(reference, compute_uv=False), 1e-10)


@pytest.mark.parametrize("kind,shape", KRONECKER_CASES)
def test_network_parameters_match_the_kronecker_reference(kind, shape):
    # every transfer is the node's basis (v at the root) pulled back onto
    # its sons' bases, and the network of the parameters is v again
    for seed in range(5):
        tree, v, r, splits = block_case(kind, shape, seed=seed)
        leaves, transfers = _network_parameters(v, tree, bases(splits))
        _, reference = kron_network_parameters(v, tree, splits)
        assert transfers.keys() == reference.keys()
        for node, T in reference.items():
            assert transfers[node].shape == T.shape
            assert np.max(np.abs(transfers[node] - T)) <= 1e-14
        v_rec = contract_network(tree, shape, leaves, transfers)
        assert np.linalg.norm(v_rec - v) <= 1e-14 * np.linalg.norm(v)


UNFOLD_CASES = [
    (tg.linear_tree(5), (2, 3, 2, 3, 2)),
    (tg.tree_from_nested([[[1], [[2], [3]]], [4]]), (3, 3, 3, 3)),
    (tg.balanced_binary_tree(4), (3, 3, 3, 3)),
]


@pytest.mark.filterwarnings("ignore:fixed-rank set is not proper")
@pytest.mark.parametrize("tree,shape", UNFOLD_CASES,
                         ids=["linear-23232", "deep-3333", "binary-3333"])
@pytest.mark.parametrize("call", [
    lambda v, tree, r: tg.tree_chart(v, tree, r),
    lambda v, tree, r: tg.tangent_dimension(v, tree, r),
    lambda v, tree, r: tg.immersion_check(v, tree, r, 1),
], ids=["tree_chart", "tangent_dimension", "immersion_check"])
def test_anchor_is_factored_once_per_node(tree, shape, call, monkeypatch):
    # membership, the operator spaces and the Jacobian share one split per
    # non-root node, each node requested once; the root unfolding carries
    # no information.  These anchors are small, so their unfoldings are
    # stacked by shape and never unfolded one by one
    r = capped_rank_tuple(tree, shape)
    v = tg.random_tree_tensor(tree, r, shape, seed=2)
    requested = record_node_requests(monkeypatch, shape)
    monkeypatch.setattr(subspaces, "unfold", None)
    call(v, tree, r)
    assert requested == Counter(n for n in tree.nodes if n != tree.root)


@pytest.mark.filterwarnings("ignore:fixed-rank set is not proper")
@pytest.mark.parametrize("call", [
    lambda v, tree, r: tg.tree_chart(v, tree, r),
    lambda v, tree, r: tg.tangent_dimension(v, tree, r),
    lambda v, tree, r: tg.immersion_check(v, tree, r, 1),
], ids=["tree_chart", "tangent_dimension", "immersion_check"])
def test_rank_tuple_is_checked_once_per_call(call, monkeypatch,
                                             empty_anchor_slot):
    # the anchor's arguments are checked once, and the tangent report's
    # closed-form count reads them unchecked
    tree, v, r, _ = block_case("deep", (3, 3, 3, 3), seed=2)
    checks = []
    check = formats._check_rank_args

    def counted(*args):
        checks.append(args)
        return check(*args)

    monkeypatch.setattr(formats, "_check_rank_args", counted)
    call(v, tree, r)
    call(v, tree, r)
    assert len(checks) == 2


def test_factor_spectrum_compresses_without_changing_the_spectrum():
    # a stack taller than its width is compressed to an R factor before its
    # SVD: the singular values and the null space are the stack's own
    gen = np.random.default_rng(11)
    dim = 12
    basis, _ = np.linalg.qr(gen.standard_normal((dim, dim)))
    kernel = basis[:, :4]
    factors = [gen.standard_normal((dim + 5, 8)) @ basis[:, 4:].T
               for _ in range(3)]
    s, Vt = tangent._factor_spectrum(factors, dim)
    expected = np.linalg.svd(np.vstack(factors), compute_uv=False)
    assert Vt.shape == (dim, dim)
    np.testing.assert_allclose(s, expected, rtol=0, atol=1e-12 * expected[0])
    null = tangent._null_coefficients(s, Vt, s[0], 1e-10)
    assert null.shape[1] == 4
    np.testing.assert_allclose(null @ null.T, kernel @ kernel.T, atol=1e-10)
    # a stack shorter than its width still gives the whole null space
    short = [gen.standard_normal((3, dim))]
    s, Vt = tangent._factor_spectrum(short, dim)
    null = tangent._null_coefficients(s, Vt, s[0], 1e-10)
    assert null.shape[1] == dim - 3
    np.testing.assert_allclose(short[0] @ null, 0, atol=1e-12)


# every tree kind at mode sizes of at least 3, so that every leaf has
# complement directions, at rank caps 1-3
ORACLE_SWEEP = [
    ("deep", (3, 3, 3, 3)),
    ("deep", (3, 4, 3, 4)),
    ("linear", (3, 3, 3, 3)),
    ("linear", (3, 4, 3, 3, 3)),
    ("binary", (3, 3, 3, 3)),
    ("binary", (3, 3, 4, 3, 3)),
    ("mixed", (3,) * 6),
    ("tucker", (3, 3, 3)),
    ("tucker", (3, 4, 3, 4)),
    ("tucker", (3,) * 5),
]


@pytest.mark.parametrize("kind,shape", ORACLE_SWEEP)
def test_oracle_rank_equals_the_dense_jacobian_rank_and_the_formula(
        kind, shape, empty_anchor_slot):
    # the oracle's rank at the leaf core against the rank of the dense
    # N x P Jacobian, at the oracle's threshold, and the closed form; at
    # scales whose squared norm over- or underflows as well
    tree = kind_tree(kind, len(shape))
    for cap in (1, 2, 3):
        r = capped_rank_tuple(tree, shape, cap=cap)
        v = tg.random_tree_tensor(tree, r, shape, seed=cap)
        formula = network_dimension_formula(tree, r, shape)
        for scale in (2.0 ** -300, 1.0, 2.0 ** 300):
            w = scale * v
            J = parametrization_jacobian(w, tree, r)
            dense = np.linalg.matrix_rank(J, rtol=1e-10)
            assert tg.tangent_dimension_oracle(w, tree, r) == dense == formula


@pytest.mark.parametrize("kind,shape", ORACLE_SWEEP)
def test_oracle_jacobian_is_never_larger_than_the_leaf_core(
        kind, shape, monkeypatch, empty_anchor_slot):
    tree = kind_tree(kind, len(shape))
    r = capped_rank_tuple(tree, shape, cap=2)
    v = tg.random_tree_tensor(tree, r, shape, seed=0)
    sizes = []
    jacobian = tangent._jacobian

    def recorded(u, *args):
        sizes.append(u.size)
        return jacobian(u, *args)

    monkeypatch.setattr(tangent, "_jacobian", recorded)
    tg.tangent_dimension_oracle(v, tree, r)
    tg.tangent_dimension(v, tree, r)
    core = np.prod([r[leaf] for leaf in tree.leaves])
    assert sizes == [core, core] and core < v.size
