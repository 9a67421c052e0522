from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import treegeom as tg
from treegeom.errors import DegenerateInputError, InvalidArgumentError
from treegeom.formats import member_subspaces
from treegeom.subspaces import (
    TreeRank,
    _kept_plan,
    _nested_requests,
    nested_ranks,
    node_ranks,
    ranks_from_json,
    ranks_to_json,
    unfolding_plan,
)
from treegeom.tensor import svd_rank

from helpers import (
    KRONECKER_CASES,
    apply_single_mode_oracle,
    capped_rank_tuple,
    dense_projection,
    gauss_rank_float,
    kind_tree,
)


def elementary(shape, seed=0):
    rng = np.random.default_rng(seed)
    return reduce(np.multiply.outer, [rng.standard_normal(n) for n in shape])


class TestMinimalSubspace:
    def test_elementary_second_mode(self, rng):
        x, y, z = rng.standard_normal(3), rng.standard_normal(4), rng.standard_normal(2)
        v = reduce(np.multiply.outer, [x, y, z])
        sub = tg.minimal_subspace(v, (2,))
        assert sub.rank == 1
        yn = y / np.linalg.norm(y)
        assert min(
            np.linalg.norm(sub.basis[:, 0] - yn),
            np.linalg.norm(sub.basis[:, 0] + yn),
        ) < 1e-12

    def test_two_term_sum_has_rank_two(self):
        e0, e1 = np.eye(2)
        v = reduce(np.multiply.outer, [e0, e0, e0]) \
            + reduce(np.multiply.outer, [e1, e1, e1])
        sub = tg.minimal_subspace(v, (1,))
        assert sub.rank == 2
        assert gauss_rank_float(tg.matricize(v, (1,))) == 2

    def test_full_mode_set_spans_the_tensor(self, rng):
        v = rng.standard_normal((2, 3, 2))
        sub = tg.minimal_subspace(v, (1, 2, 3))
        assert sub.rank == 1
        vn = v.ravel() / np.linalg.norm(v)
        assert min(
            np.linalg.norm(sub.basis[:, 0] - vn),
            np.linalg.norm(sub.basis[:, 0] + vn),
        ) < 1e-12

    def test_zero_tensor_rejected(self):
        with pytest.raises(DegenerateInputError):
            tg.minimal_subspace(np.zeros((2, 2)), (1,))

    def test_columns_orthonormal(self, rng):
        v = rng.standard_normal((3, 4, 2))
        sub = tg.minimal_subspace(v, (1, 3))
        G = sub.basis.T @ sub.basis
        np.testing.assert_allclose(G, np.eye(sub.rank), atol=1e-12)

    def test_basis_stable_under_orthogonal_change_of_other_modes(self, rng):
        v = rng.standard_normal((2, 3, 4))
        Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        w = apply_single_mode_oracle(Q, 3, v)
        b1 = tg.minimal_subspace(v, (1, 2)).basis
        b2 = tg.minimal_subspace(w, (1, 2)).basis
        assert b1.shape == b2.shape
        s = np.linalg.svd(b1.T @ b2, compute_uv=False)
        assert 1.0 - s[-1] <= 1e-10  # principal angles vanish


class TestTreeRank:
    def test_elementary_all_ones(self, deep_tree_d4):
        v = elementary((2, 2, 2, 2), seed=3)
        r = tg.tree_rank(v, deep_tree_d4)
        assert all(val == 1 for _, val in r.items())

    def test_generated_tensor_matches_request(self, mixed_tree_d6):
        shape = (2,) * 6
        r = capped_rank_tuple(mixed_tree_d6, shape, cap=2)
        for seed in range(5):
            v = tg.random_tree_tensor(mixed_tree_d6, r, shape, seed=seed)
            assert tg.tree_rank(v, mixed_tree_d6) == r

    def test_complement_blocks_have_equal_rank(self, two_block_tree_d6, rng):
        for _ in range(10):
            v = rng.standard_normal((2,) * 6)
            r = tg.tree_rank(v, two_block_tree_d6)
            assert r[(1,)] == r[(2, 3, 4, 5, 6)]

    def test_root_rank_is_one(self, deep_tree_d4, rng):
        v = rng.standard_normal((2, 2, 2, 2))
        assert tg.tree_rank(v, deep_tree_d4)[(1, 2, 3, 4)] == 1

    @given(st.integers(0, 300))
    @settings(max_examples=25, deadline=None)
    def test_rank_inequalities(self, seed):
        tree = tg.tree_from_nested([[[1], [[2], [3]]], [4]])
        shape = (2, 3, 2, 4)
        v = np.random.default_rng(seed).standard_normal(shape)
        r = tg.tree_rank(v, tree)
        N = int(np.prod(shape))
        for node in tree.nodes:
            n_in = int(np.prod([shape[m - 1] for m in node]))
            assert r[node] <= min(n_in, N // n_in)
            kids = tree.sons_of(node)
            if kids:
                assert r[node] <= int(np.prod([r[b] for b in kids]))

    def test_shape_mismatch(self, deep_tree_d4, rng):
        with pytest.raises(InvalidArgumentError):
            tg.tree_rank(rng.standard_normal((2, 2)), deep_tree_d4)


def _with_tail(shape, alpha, ratio, rng):
    """Tensor whose unfolding at ``alpha`` has the singular values 1 and
    ``ratio``."""
    rest = [m for m in range(1, len(shape) + 1) if m not in alpha]
    n_in = int(np.prod([shape[m - 1] for m in alpha]))
    n_out = int(np.prod(shape)) // n_in
    U = np.linalg.qr(rng.standard_normal((n_in, 2)))[0]
    V = np.linalg.qr(rng.standard_normal((n_out, 2)))[0]
    M = (U * [1.0, ratio]) @ V.T
    dims = [shape[m - 1] for m in alpha] + [shape[m - 1] for m in rest]
    axes = [m - 1 for m in alpha] + [m - 1 for m in rest]
    return np.transpose(M.reshape(dims), np.argsort(axes))


class TestRankProfile:
    """The singular-value-only rank profile decides every node exactly as
    the thresholded basis of :func:`minimal_subspace` does."""

    @pytest.mark.parametrize("name", ["deep", "linear", "binary", "mixed",
                                      "tucker"])
    def test_matches_minimal_subspace_near_the_threshold(
        self, name, deep_tree_d4, mixed_tree_d6, rng
    ):
        tree, shape = {
            "deep": (deep_tree_d4, (3, 3, 3, 3)),
            "linear": (tg.linear_tree(4), (3, 3, 3, 3)),
            "binary": (tg.balanced_binary_tree(4), (3, 3, 3, 3)),
            "mixed": (mixed_tree_d6, (2, 3, 2, 3, 2, 2)),
            "tucker": (tg.tucker_tree(4), (3, 3, 3, 3)),
        }[name]
        tol = tg.DEFAULT_TOL
        for alpha in sorted(tree.nodes - {tree.root}):
            for ratio, extra in ((1e2 * tol, 1), (1e-2 * tol, 0)):
                v = _with_tail(shape, alpha, ratio, rng)
                profile = tg.tree_rank(v, tree, tol)
                assert profile[alpha] == 1 + extra
                assert node_ranks(v, tree.nodes, tol) == profile.ranks
                for node in tree.nodes:
                    assert profile[node] == tg.minimal_subspace(
                        v, node, tol).rank
                # member_subspaces reads the nodes inside each level-1
                # block off that block's factor, not off v
                report, subs = member_subspaces(v, tree, profile, tol)
                computed = {b: c for chk in report.per_level.values()
                            for b, c in zip(chk.partition, chk.computed)}
                assert report.member
                assert computed == {n: profile[n] for n in tree.nodes
                                    if n != tree.root}
                assert {b: s.rank for b, s in subs.items()} == \
                    {b: profile[b] for b in tg.level_partition(tree, 1)}

    def test_nonpositive_tolerance_rejected(self, deep_tree_d4, rng):
        with pytest.raises(InvalidArgumentError):
            tg.tree_rank(rng.standard_normal((2, 2, 2, 2)), deep_tree_d4, 0.0)


def _node_unfoldings(tree, factors, shape):
    """Each node strictly inside a block of ``factors`` and its unfolding of
    that block's factor, one matrix at a time."""
    out = {}
    for b, X in factors.items():
        T = X.reshape([shape[m - 1] for m in b] + [X.shape[1]])
        for node in tree.nodes:
            if len(node) < len(b) and set(node) <= set(b):
                axes = [b.index(m) for m in node]
                out[node] = np.moveaxis(T, axes, range(len(axes))).reshape(
                    int(np.prod([shape[m - 1] for m in node])), -1)
    return out


class TestNestedRanks:
    """The batched rank read of the nodes inside level-1 blocks decides as
    the per-matrix loop does, on the same singular values bit for bit."""

    TOL = tg.DEFAULT_TOL

    def _check(self, tree, factors, shape):
        mats = _node_unfoldings(tree, factors, shape)
        loop = {node: svd_rank(np.linalg.svd(M, compute_uv=False), self.TOL)
                for node, M in mats.items()}
        assert nested_ranks(tree, factors, shape, self.TOL) == loop
        columns = tuple((b, X.shape[1]) for b, X in factors.items())
        nodes, shapes, requests = _nested_requests(tree, shape, columns)
        plan = unfolding_plan(shapes, requests)
        assert sorted(nodes) == sorted(mats)
        flat = np.concatenate([X.ravel() for X in factors.values()])
        for positions, index in plan:
            stacked = np.linalg.svd(flat[index], compute_uv=False)
            for j, s in zip(positions, stacked):
                M = mats[nodes[j]]
                assert index.shape[1:] == M.shape
                assert np.array_equal(flat[index[positions.index(j)]], M)
                assert s.tobytes() == np.linalg.svd(
                    M, compute_uv=False).tobytes()
        return loop, plan

    def test_mixed_shapes_and_a_stack_of_one(self, mixed_tree_d6, rng):
        # {1,2,3} of (2,3,2,3,2,2) has inner nodes {1}, {2}, {3}, {2,3}:
        # unfoldings 2 x 6p, 3 x 4p, 2 x 6p and 6 x 2p; {4,5} has 3 x 2p
        # and 2 x 3p
        shape = (2, 3, 2, 3, 2, 2)
        for p in (1, 2, 3):
            factors = {
                (1, 2, 3): rng.standard_normal((12, p)),
                (4, 5): rng.standard_normal((6, p)),
                (6,): rng.standard_normal((2, p)),
            }
            loop, plan = self._check(mixed_tree_d6, factors, shape)
            assert set(loop) == {(1,), (2,), (3,), (2, 3), (4,), (5,)}
            assert 1 in [len(positions) for positions, _ in plan]

    def test_ranks_near_the_threshold(self, deep_tree_d4, rng):
        # a block factor whose unfolding at an inner node has the singular
        # values 1 and ratio, just above and just below tol
        shape = (3, 3, 3, 3)
        for node in ((1,), (2, 3)):
            for ratio, extra in ((1e2 * self.TOL, 1), (1e-2 * self.TOL, 0)):
                X = _with_tail((3, 3, 3, 2), node, ratio, rng).reshape(27, 2)
                loop, _ = self._check(deep_tree_d4, {(1, 2, 3): X,
                                                     (4,): np.eye(3)}, shape)
                assert loop[node] == 1 + extra

    def test_zero_size_and_all_zero_factors(self, deep_tree_d4):
        shape = (2, 2, 2, 3)
        for X in (np.zeros((8, 0)), np.zeros((8, 2))):
            loop, _ = self._check(deep_tree_d4, {(1, 2, 3): X,
                                                 (4,): np.ones((3, 1))}, shape)
            assert loop == {(1,): 0, (2,): 0, (3,): 0, (2, 3): 0}

    def test_large_factors_are_planned_afresh(self, deep_tree_d4, rng):
        # 4 inner nodes of a 512 x 40 factor: 81920 index entries, above
        # what the plan cache keeps
        shape = (8, 8, 8, 2)
        before = _kept_plan.cache_info().currsize
        loop, _ = self._check(deep_tree_d4, {
            (1, 2, 3): rng.standard_normal((512, 40)),
            (4,): np.eye(2),
        }, shape)
        assert loop == {(1,): 8, (2,): 8, (3,): 8, (2, 3): 64}
        assert _kept_plan.cache_info().currsize == before

    def test_blocks_with_no_inner_node(self, monkeypatch, rng):
        tree = tg.tucker_tree(3)
        factors = {(m,): rng.standard_normal((3, 2)) for m in (1, 2, 3)}
        monkeypatch.setattr(np.linalg, "svd", None)
        assert nested_ranks(tree, factors, (3, 3, 3), self.TOL) == {}


class TestNestedness:
    def test_elementary_residual_vanishes(self):
        v = elementary((2, 2, 2), seed=1)
        res = tg.check_nestedness(v, (1, 2), [(1,), (2,)])
        assert res <= 1e-14

    def test_full_set_against_level_partitions(self, deep_tree_d4):
        shape = (2, 2, 2, 2)
        r = capped_rank_tuple(deep_tree_d4, shape)
        v = tg.random_tree_tensor(deep_tree_d4, r, shape, seed=11)
        for k in (1, 2, 3):
            blocks = tg.level_partition(deep_tree_d4, k)
            res = tg.check_nestedness(v, tuple(range(1, 5)), blocks)
            assert res <= 1e-10 * np.sqrt(1)

    def test_random_tensor_three_mode_subset(self, rng):
        v = rng.standard_normal((2, 2, 2, 2))
        res = tg.check_nestedness(v, (1, 2, 3), [(1,), (2, 3)])
        r_a = tg.minimal_subspace(v, (1, 2, 3)).rank
        assert res <= 1e-10 * np.sqrt(r_a)

    def test_interleaved_sub_partition(self, rng):
        # blocks that are not contiguous inside the subset
        v = rng.standard_normal((2, 2, 2, 2))
        res = tg.check_nestedness(v, (1, 2, 3), [(1, 3), (2,)])
        r_a = tg.minimal_subspace(v, (1, 2, 3)).rank
        assert res <= 1e-10 * np.sqrt(r_a)

    def test_bad_sub_partition_rejected(self, rng):
        v = rng.standard_normal((2, 2, 2))
        with pytest.raises(InvalidArgumentError):
            tg.check_nestedness(v, (1, 2), [(1,), (3,)])


class TestChain:
    def test_elementary_residuals_vanish(self, deep_tree_d4):
        v = elementary((2, 2, 2, 2), seed=2)
        residuals = tg.check_chain(v, deep_tree_d4)
        assert set(residuals) == {1, 2, 3}
        assert all(r <= 1e-14 for r in residuals.values())

    def test_generated_tensor_residuals(self, mixed_tree_d6):
        shape = (2,) * 6
        r = capped_rank_tuple(mixed_tree_d6, shape)
        v = tg.random_tree_tensor(mixed_tree_d6, r, shape, seed=4)
        residuals = tg.check_chain(v, mixed_tree_d6)
        nrm = np.linalg.norm(v)
        assert all(res <= 1e-10 * nrm for res in residuals.values())

    def test_noise_outside_the_format_is_detected(self, deep_tree_d4):
        shape = (2, 3, 3, 2)
        r = capped_rank_tuple(deep_tree_d4, shape, cap=1)
        v = tg.random_tree_tensor(deep_tree_d4, r, shape, seed=5)
        noise = np.random.default_rng(6).standard_normal(shape)
        w = v + 1e-3 * noise / np.linalg.norm(noise)
        # project w onto the rank-1 level subspaces computed at tolerance
        # coarse enough to keep the original ranks
        residuals = tg.check_chain(w, deep_tree_d4, tol=1e-2)
        assert max(residuals.values()) > 1e-4 * np.linalg.norm(w)


@pytest.mark.parametrize("kind, shape", KRONECKER_CASES)
class TestProjectionsMatchDenseProjectors:
    """Chain residuals and nestedness residuals, projected by pulling back
    onto the bases and pushing forward again, against one dense
    ``n_b x n_b`` projector per block; at a member and, with a coarse
    tolerance that truncates the bases, at a perturbed one."""

    def cases(self, kind, shape):
        tree = kind_tree(kind, len(shape))
        r = capped_rank_tuple(tree, shape)
        for seed in range(5):
            v = tg.random_tree_tensor(tree, r, shape, seed=seed)
            noise = np.random.default_rng(seed).standard_normal(shape)
            yield tree, v, 1e-10, True
            yield tree, v + 1e-3 * noise / np.linalg.norm(noise), 1e-2, False

    def test_chain_residuals(self, kind, shape):
        for tree, x, tol, member in self.cases(kind, shape):
            nrm = np.linalg.norm(x)
            for k, res in tg.check_chain(x, tree, tol).items():
                bases = {b: tg.minimal_subspace(x, b, tol).basis
                         for b in tg.level_partition(tree, k)}
                ref = np.linalg.norm(x - dense_projection(x, bases))
                assert abs(res - ref) <= 1e-12 * nrm
                assert res <= 1e-12 * nrm or not member

    def test_nestedness(self, kind, shape):
        for tree, x, tol, member in self.cases(kind, shape):
            for node, kids in tree.sons.items():
                res = tg.check_nestedness(x, node, kids, tol)
                big = tg.minimal_subspace(x, node, tol).basis
                # the node's modes renumbered 1..len(node)
                local = {m: i + 1 for i, m in enumerate(node)}
                fine = {tuple(local[m] for m in b):
                        tg.minimal_subspace(x, b, tol).basis for b in kids}
                dims = [shape[m - 1] for m in node]
                ref = np.sqrt(sum(
                    np.linalg.norm(t - dense_projection(t, fine)) ** 2
                    for t in (col.reshape(dims) for col in big.T)))
                assert abs(res - ref) <= 1e-12 * np.sqrt(big.shape[1])
                assert res <= 1e-12 or not member


class TestRankJson:
    def test_roundtrip(self, deep_tree_d4):
        r = capped_rank_tuple(deep_tree_d4, (2, 2, 2, 2))
        assert ranks_from_json(ranks_to_json(r)) == r

    def test_missing_field(self):
        with pytest.raises(tg.ParseError):
            ranks_from_json('{"ranks": [{"block": [1]}]}')

    def test_duplicate_block(self):
        with pytest.raises(tg.ParseError):
            ranks_from_json(
                '{"ranks": [{"block": [1], "r": 1}, {"block": [1], "r": 2}]}'
            )

    def test_nonpositive_rank(self):
        with pytest.raises(tg.ParseError):
            ranks_from_json('{"ranks": [{"block": [1], "r": 0}]}')


@pytest.mark.parametrize("rank", [0, -1, 2.7, 2.0, True, "2", None])
def test_tree_rank_rejects_what_is_no_positive_integer(rank):
    # a truncated (2.7 -> 2, True -> 1) or non-positive rank would fail
    # later inside numpy or pass a verdict unchecked
    with pytest.raises(InvalidArgumentError,
                       match="rank must be an integer >= 1"):
        TreeRank({(1,): rank, (2,): 1, (1, 2): 1})


def test_negative_tucker_ranks_fail_at_construction():
    # unchecked, this tuple passes necessary_rank_conditions and gives
    # network_dimension_formula -7
    with pytest.raises(InvalidArgumentError):
        TreeRank({(1,): -1, (2,): -1, (1, 2): 1})


def test_tree_rank_keeps_numpy_integers_as_int():
    r = TreeRank({(1,): np.int64(2), (2,): np.uint8(2), (1, 2): 1})
    assert r == TreeRank({(1,): 2, (2,): 2, (1, 2): 1})
    assert all(type(k) is int for _, k in r.items())


def test_tree_rank_equality_and_lookup():
    r = TreeRank({(1, 2): 1, (1,): 2, (2,): 2})
    assert r[(2, 1)] == 1
    assert (1,) in r
    assert r == TreeRank({(1,): 2, (2,): 2, (1, 2): 1})


class TestTreeOrder:
    """``check_chain`` compares the tree's order with the tensor's, as
    ``tree_rank`` does; ``check_nestedness`` rejects modes out of range."""

    @pytest.mark.parametrize("shape", [(2, 2, 2), (2,) * 5])
    def test_check_chain_rejects_another_order(self, shape, rng):
        v = rng.standard_normal(shape)
        with pytest.raises(InvalidArgumentError, match="tree has 4 modes"):
            tg.check_chain(v, tg.linear_tree(4))

    @pytest.mark.parametrize("alpha, parts", [
        ((1, 2, 3, 4), [(1, 2), (3, 4)]),
        ((1, 2), [(1,), (5,)]),
        ((0, 1), [(0,), (1,)]),
    ])
    def test_check_nestedness_rejects_modes_out_of_range(self, alpha, parts,
                                                         rng):
        v = rng.standard_normal((2, 2, 2))
        with pytest.raises(InvalidArgumentError, match="not contained"):
            tg.check_nestedness(v, alpha, parts)
