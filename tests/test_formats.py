import hashlib
import itertools
import warnings
from functools import reduce
from math import prod

import numpy as np
import pytest

import treegeom as tg
from treegeom import formats
from treegeom.errors import (
    GenerationFailureError,
    InvalidArgumentError,
    NotOnManifoldError,
)
from treegeom.formats import (
    contract_network,
    generation_attempts,
    necessary_rank_conditions,
    sample_attempts,
)
from treegeom.subspaces import TreeRank

from helpers import (
    KRONECKER_CASES,
    capped_rank_tuple,
    kind_tree,
    kron_contract_network,
    random_tucker_tensor,
    record_node_requests,
    sampled_properness,
    unfolding_shapes,
)


def elementary(shape, seed=0):
    rng = np.random.default_rng(seed)
    return reduce(np.multiply.outer, [rng.standard_normal(n) for n in shape])


def bump(r, node, delta=1):
    d = dict(r.ranks)
    d[tuple(sorted(node))] += delta
    return TreeRank(d)


class TestTuckerMembership:
    @pytest.mark.parametrize("rank", [3.7, "3", None, True, 0, -1])
    def test_rank_must_be_a_positive_integer(self, rank):
        # a float or string rank was read by int() and compared as 3
        v = np.random.default_rng(0).standard_normal((3, 3, 3))
        blocks = [(1,), (2,), (3,)]
        ranks = {(1,): 3, (2,): 3, (3,): rank}
        with pytest.raises(InvalidArgumentError,
                           match="rank must be an integer >= 1"):
            tg.tucker_membership(v, blocks, ranks)

    def test_elementary_all_ones(self):
        v = elementary((2, 3, 2), seed=1)
        blocks = [(1,), (2,), (3,)]
        ok, computed = tg.tucker_membership(v, blocks, {b: 1 for b in blocks})
        assert ok
        assert computed == (1, 1, 1)

    def test_elementary_against_rank_two_fails(self):
        v = elementary((2, 3, 2), seed=1)
        blocks = [(1,), (2,), (3,)]
        ranks = {(1,): 2, (2,): 1, (3,): 1}
        ok, _ = tg.tucker_membership(v, blocks, ranks)
        assert not ok

    def test_generated_tucker_tensor(self):
        blocks = [(1,), (2,), (3,)]
        ranks = {b: 2 for b in blocks}
        v = random_tucker_tensor(blocks, ranks, (3, 3, 3), seed=0)
        ok, computed = tg.tucker_membership(v, blocks, ranks)
        assert ok and computed == (2, 2, 2)
        ok_wrong, _ = tg.tucker_membership(
            v, blocks, {(1,): 2, (2,): 2, (3,): 3}
        )
        assert not ok_wrong

    def test_zero_tensor_rejected(self):
        with pytest.raises(tg.DegenerateInputError):
            tg.tucker_membership(np.zeros((2, 2)), [(1,), (2,)], {(1,): 1, (2,): 1})

    def test_ranks_missing_a_block_rejected(self):
        v = elementary((2, 2, 2, 2), seed=1)
        with pytest.raises(InvalidArgumentError, match=r"\{3, 4\}"):
            tg.tucker_membership(v, [(1, 2), (3, 4)], {(1, 2): 1})

    @pytest.mark.parametrize("partition", [
        [(1,), (1,), (2, 3, 4)],  # overlapping blocks
        [(1,), (1, 2), (3, 4)],
        [(1,), (2,)],  # missing modes
        [(1, 2, 3)],
    ], ids=["repeated", "overlapping", "missing-two", "missing-one"])
    def test_blocks_must_partition_the_modes(self, partition, monkeypatch):
        # before, a repeated block read as (True, (1, 1, 1)) and blocks
        # missing modes as a verdict on the modes they named
        v = elementary((2, 3, 2, 3), seed=1)
        ranks = {tuple(b): 1 for b in partition}
        monkeypatch.setattr(np.linalg, "svd", None)
        with pytest.raises(InvalidArgumentError,
                           match="is not a partition of the modes 1..4"):
            tg.tucker_membership(v, partition, ranks)


class TestIsMember:
    def test_generated_member_passes_every_level(self, mixed_tree_d6):
        shape = (2,) * 6
        r = capped_rank_tuple(mixed_tree_d6, shape)
        v = tg.random_tree_tensor(mixed_tree_d6, r, shape, seed=0)
        report = tg.is_member(v, mixed_tree_d6, r)
        assert report.member
        assert all(chk.passed for chk in report.per_level.values())

    def test_inflated_rank_fails_the_right_levels(self, mixed_tree_d6):
        shape = (2,) * 6
        r = capped_rank_tuple(mixed_tree_d6, shape)
        v = tg.random_tree_tensor(mixed_tree_d6, r, shape, seed=0)
        info = tg.levels(mixed_tree_d6)
        node = (2, 3)
        r_bad = bump(r, node)
        report = tg.is_member(v, mixed_tree_d6, r_bad)
        assert not report.member
        # the node sits in exactly the level partitions that contain it
        expected_failures = [
            k for k in range(1, info.depth + 1)
            if node in tg.level_partition(mixed_tree_d6, k)
        ]
        assert report.failing_levels() == expected_failures

    def test_elementary_all_ones_on_every_constructor(self):
        shape = (2, 2, 2, 2)
        v = elementary(shape, seed=5)
        for tree in (
            tg.tucker_tree(4),
            tg.linear_tree(4),
            tg.balanced_binary_tree(4),
        ):
            r = TreeRank({n: 1 for n in tree.nodes})
            assert tg.is_member(v, tree, r).member

    def test_equivalent_to_all_node_rank_check(self, deep_tree_d4):
        shape = (2, 3, 2, 4)
        r = capped_rank_tuple(deep_tree_d4, shape)
        for seed in range(8):
            v = tg.random_tree_tensor(deep_tree_d4, r, shape, seed=seed)
            for candidate in (r, bump(r, (2, 3)), bump(r, (1,))):
                via_levels = tg.is_member(v, deep_tree_d4, candidate).member
                direct = tg.tree_rank(v, deep_tree_d4) == candidate
                assert via_levels == direct

    def test_missing_node_rejected(self, deep_tree_d4, rng):
        v = rng.standard_normal((2, 2, 2, 2))
        incomplete = TreeRank({(1, 2, 3, 4): 1, (1,): 1})
        with pytest.raises(InvalidArgumentError):
            tg.is_member(v, deep_tree_d4, incomplete)

    def test_tensor_order_must_match_the_tree(self, deep_tree_d4, rng):
        r = capped_rank_tuple(deep_tree_d4, (2, 2, 2, 2))
        with pytest.raises(InvalidArgumentError, match="tree has 4 modes"):
            tg.is_member(rng.standard_normal((2,) * 5), deep_tree_d4, r)

    def test_anchored_calls_decide_on_their_splits(self, mixed_tree_d6,
                                                   empty_anchor_slot):
        shape = (2,) * 6
        r = capped_rank_tuple(mixed_tree_d6, shape)
        v = tg.random_tree_tensor(mixed_tree_d6, r, shape, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            chart = tg.tree_chart(v, mixed_tree_d6, r)
        assert np.array_equal(chart.anchor, v)
        splits = chart.splits
        assert set(splits) == mixed_tree_d6.nodes - {mixed_tree_d6.root}
        assert all(splits[n].rank == r[n] for n in splits)
        r_bad = bump(r, (2, 3))
        for call in (tg.tree_chart, tg.tangent_dimension):
            with pytest.raises(NotOnManifoldError,
                               match=r"failing levels \[2\]") as err:
                call(v, mixed_tree_d6, r_bad)
            assert err.value.levels == \
                tg.is_member(v, mixed_tree_d6, r_bad).failing_levels()

    def test_one_singular_value_solve_per_unfolding_shape(self, monkeypatch):
        # a leaf of the linear tree sits in every level partition below its
        # own, so deciding the levels one by one would factor it again each
        # time; the profile requests each node once and stacks the
        # unfoldings of one shape into one SVD without factors: 6 shapes
        # for the 9 nodes here
        tree = tg.linear_tree(5)
        shape = (2, 3, 2, 3, 2)
        r = capped_rank_tuple(tree, shape)
        v = tg.random_tree_tensor(tree, r, shape, seed=0)
        requested = record_node_requests(monkeypatch, shape)
        calls = []
        svd = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(kwargs.get("compute_uv", True))
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        assert tg.is_member(v, tree, r).member
        assert requested == dict.fromkeys(tree.nodes, 1)
        assert calls == [False] * len(unfolding_shapes(shape, tree.nodes))
        assert len(calls) == 6


class TestBoundedRank:
    def test_max_bounds_always_pass(self, deep_tree_d4, rng):
        shape = (2, 2, 2, 2)
        v = rng.standard_normal(shape)
        N = int(np.prod(shape))
        bounds = TreeRank({
            n: min(
                int(np.prod([shape[m - 1] for m in n])),
                N // int(np.prod([shape[m - 1] for m in n])),
            ) if n != deep_tree_d4.root else 1
            for n in deep_tree_d4.nodes
        })
        assert tg.bounded_rank_member(v, deep_tree_d4, bounds)

    def test_tight_bound_fails(self):
        blocks = [(1,), (2,), (3,)]
        v = random_tucker_tensor(blocks, {b: 2 for b in blocks}, (3, 3, 3), seed=1)
        tree = tg.tucker_tree(3)
        r = TreeRank({(1, 2, 3): 1, (1,): 1, (2,): 2, (3,): 2})
        assert not tg.bounded_rank_member(v, tree, r)

    def test_elementary_within_ones(self, deep_tree_d4):
        v = elementary((2, 2, 2, 2), seed=9)
        ones = TreeRank({n: 1 for n in deep_tree_d4.nodes})
        assert tg.bounded_rank_member(v, deep_tree_d4, ones)

    def test_monotone_in_the_bound(self, deep_tree_d4):
        shape = (2, 2, 2, 2)
        r = capped_rank_tuple(deep_tree_d4, shape)
        v = tg.random_tree_tensor(deep_tree_d4, r, shape, seed=2)
        assert tg.is_member(v, deep_tree_d4, r).member
        assert tg.bounded_rank_member(v, deep_tree_d4, r)
        assert tg.bounded_rank_member(v, deep_tree_d4, bump(r, (2, 3)))

    def test_strictly_smaller_profiles_stay_inside_the_bound(
        self, deep_tree_d4
    ):
        # the bounded set contains every exact-rank set below the bound
        shape = (2, 2, 2, 2)
        bound = capped_rank_tuple(deep_tree_d4, shape)
        ones = TreeRank({n: 1 for n in deep_tree_d4.nodes})
        for seed in range(5):
            v = tg.random_tree_tensor(deep_tree_d4, ones, shape, seed=seed)
            assert tg.bounded_rank_member(v, deep_tree_d4, bound)


class TestAdmissibility:
    def test_all_ones_admissible_with_elementary_witness(self, deep_tree_d4):
        ones = TreeRank({n: 1 for n in deep_tree_d4.nodes})
        verdict = tg.is_admissible(deep_tree_d4, ones, (2, 2, 2, 2))
        assert verdict.verdict == "admissible"
        assert verdict.to_dict() == {"verdict": "admissible",
                                     "violated_conditions": []}
        witness = tg.random_tree_tensor(deep_tree_d4, ones, (2, 2, 2, 2))
        assert tg.tree_rank(witness, deep_tree_d4) == ones

    def test_root_rank_two_inadmissible(self, deep_tree_d4):
        r = capped_rank_tuple(deep_tree_d4, (2, 2, 2, 2))
        bad = bump(r, (1, 2, 3, 4))
        verdict = tg.is_admissible(deep_tree_d4, bad, (2, 2, 2, 2))
        assert verdict.verdict == "inadmissible"
        assert any("root" in c for c in verdict.violated_conditions)

    def test_forced_equality_of_complementary_blocks(self, two_block_tree_d6):
        # singleton and its complement under the root must carry equal ranks
        ranks = {n: 2 for n in two_block_tree_d6.nodes}
        ranks[two_block_tree_d6.root] = 1
        ranks[(1,)] = 1  # mismatch with rank 2 at {2,...,6}
        verdict = tg.is_admissible(
            two_block_tree_d6, TreeRank(ranks), (2,) * 6
        )
        assert verdict.verdict == "inadmissible"
        assert any("complement" in c for c in verdict.violated_conditions)

    def test_son_product_bound(self, deep_tree_d4):
        shape = (2, 4, 4, 4)
        ranks = {n: 1 for n in deep_tree_d4.nodes}
        ranks[(2, 3)] = 3  # exceeds r2 * r3 = 1
        ranks[(1, 2, 3)] = 1
        verdict = tg.is_admissible(deep_tree_d4, TreeRank(ranks), shape)
        assert verdict.verdict == "inadmissible"
        assert any("sons" in c for c in verdict.violated_conditions)

    def test_unfolding_bound(self, deep_tree_d4):
        ranks = {n: 1 for n in deep_tree_d4.nodes}
        ranks[(1,)] = 3  # exceeds the mode size 2
        verdict = tg.is_admissible(deep_tree_d4, TreeRank(ranks), (2, 2, 2, 2))
        assert verdict.verdict == "inadmissible"


PROPERNESS_TREES = {
    "deep": [[[1], [[2], [3]]], [4]],
    "mixed": [[[1], [[2], [3]]], [[4], [5]], [6]],
    "two-block": [[1], [[2], [3], [4], [5], [6]]],
}

PROPERNESS_CASES = [
    # the test fixtures
    ("deep", (2, 2, 2, 2)),
    ("linear", (2, 3, 3, 2)),
    ("binary", (3, 3, 3, 3)),
    ("mixed", (2,) * 6),
    ("two-block", (2,) * 6),
    ("tucker", (3, 3, 3)),
    # the instances of the benchmark's `verdicts` workload
    ("tucker", (2, 3, 2, 2)),
    ("tucker", (3,) * 6),
    ("linear", (3, 3, 3, 3)),
    ("linear", (3,) * 6),
    ("binary", (2, 3, 3, 2)),
    ("binary", (2,) * 8),
    ("deep", (2, 2, 2, 3)),
    ("deep", (3, 3, 3, 3)),
    ("mixed", (2, 3, 2, 3, 2, 3)),
]


def properness_tree(kind, d):
    builders = {
        "linear": tg.linear_tree,
        "binary": tg.balanced_binary_tree,
        "tucker": tg.tucker_tree,
    }
    if kind in builders:
        return builders[kind](d)
    return tg.tree_from_nested(PROPERNESS_TREES[kind])


class TestProperness:
    def test_two_block_tree_not_proper_structurally(self, two_block_tree_d6):
        ranks = {n: 2 for n in two_block_tree_d6.nodes}
        ranks[two_block_tree_d6.root] = 1
        report = tg.is_proper(two_block_tree_d6, TreeRank(ranks), (2,) * 6)
        assert not report.proper
        assert report.level_margins == {1: 0, 2: 0}
        assert "level-1" in report.reason

    def test_mixed_tree_generic_ranks_proper(self, mixed_tree_d6):
        shape = (2,) * 6
        r = capped_rank_tuple(mixed_tree_d6, shape)
        report = tg.is_proper(mixed_tree_d6, r, shape)
        assert report.proper
        assert all(m > 0 for m in report.level_margins.values())

    def test_depth_one_not_proper_by_convention(self):
        tree = tg.tucker_tree(3)
        r = TreeRank({n: 1 for n in tree.nodes})
        report = tg.is_proper(tree, r, (2, 2, 2))
        assert not report.proper
        assert report.level_margins == {1: 0}

    @pytest.mark.parametrize("cap", [1, 2, 3])
    @pytest.mark.parametrize("kind, shape", PROPERNESS_CASES, ids=[
        f"{kind}-{'x'.join(map(str, shape))}" for kind, shape in PROPERNESS_CASES
    ])
    def test_counts_agree_with_the_sampler(self, kind, shape, cap):
        tree = properness_tree(kind, len(shape))
        r = capped_rank_tuple(tree, shape, cap)
        report = tg.is_proper(tree, r, shape)
        assert report.proper == sampled_properness(tree, r, shape)
        assert all(m >= 0 for m in report.level_margins.values())

    @pytest.mark.parametrize("name, expected", [
        ("linear", {
            "proper": True,
            "reason": "the fixed-rank set has dimension 20, below that of "
                      "every level Tucker set",
            "dimension": 20,
            "level_margins": {"1": 36, "2": 6, "3": 4},
        }),
        ("deep", {
            "proper": False,
            "reason": "the fixed-rank set has the dimension 14 of the "
                      "level-2 Tucker set, so it is open in that set",
            "dimension": 14,
            "level_margins": {"1": 4, "2": 0, "3": 4},
        }),
    ])
    def test_report_is_pinned(self, name, expected, deep_tree_d4):
        tree, shape = {
            "linear": (tg.linear_tree(4), (3, 3, 3, 3)),
            "deep": (deep_tree_d4, (2, 2, 2, 3)),
        }[name]
        r = capped_rank_tuple(tree, shape)
        assert tg.is_proper(tree, r, shape).to_dict() == expected

    def test_inadmissible_rejected(self, deep_tree_d4):
        r = bump(capped_rank_tuple(deep_tree_d4, (2, 2, 2, 2)), (1, 2, 3, 4))
        with pytest.raises(InvalidArgumentError):
            tg.is_proper(deep_tree_d4, r, (2, 2, 2, 2))

    @pytest.mark.parametrize("kind, shape", PROPERNESS_CASES, ids=[
        f"{kind}-{'x'.join(map(str, shape))}" for kind, shape in PROPERNESS_CASES
    ])
    def test_decided_without_sampling_or_factoring(self, kind, shape,
                                                   monkeypatch):
        # both verdicts are read off the rank tuple and the shape alone
        tree = properness_tree(kind, len(shape))
        expected = {}
        for cap in (1, 2, 3):
            r = capped_rank_tuple(tree, shape, cap)
            expected[cap] = tg.is_proper(tree, r, shape).to_dict()

        def forbidden(*args, **kwargs):
            raise AssertionError("sampled or factored")

        monkeypatch.setattr(formats, "_sample_network", forbidden)
        monkeypatch.setattr(np.linalg, "svd", forbidden)
        for cap in (1, 2, 3):
            r = capped_rank_tuple(tree, shape, cap)
            assert tg.is_admissible(tree, r, shape).verdict == "admissible"
            assert tg.is_proper(tree, r, shape).to_dict() == expected[cap]


# the trees and shapes of the admissibility sweep; every non-root rank runs
# over 1..3, capped at the node's unfolding bound
SWEEP_TREES = [
    lambda: tg.tucker_tree(3),
    lambda: tg.tucker_tree(4),
    lambda: tg.linear_tree(4),
    lambda: tg.linear_tree(5),
    lambda: tg.balanced_binary_tree(4),
    lambda: tg.tree_from_nested([[[1], [[2], [3]]], [4]]),
    lambda: tg.tree_from_nested([[[1], [2], [3]], [4]]),
]


def sweep_tuples(tree, shape, cap=3):
    """Every rank tuple with root rank 1 and each non-root rank in
    ``1..min(cap, unfolding bound)``."""
    N = prod(shape)
    nodes = sorted(n for n in tree.nodes if n != tree.root)

    def bound(node):
        n = prod(shape[m - 1] for m in node)
        return min(cap, n, N // n)

    for ranks in itertools.product(*[range(1, bound(n) + 1) for n in nodes]):
        yield TreeRank({tree.root: 1, **dict(zip(nodes, ranks))})


def test_every_tuple_meeting_the_conditions_is_realized():
    # the oracle of "admissibility is decided": the conditions are also
    # sufficient, so a generic network realizes every tuple that meets
    # them, here within 3 samples at seed 0; the count pins the number of
    # such tuples, so that conditions grown stricter show too
    admissible = 0
    for make in SWEEP_TREES:
        tree = make()
        d = tree.ndim
        for shape in ((2,) * d, (3,) * d, (2, 3, 4, 2, 3)[:d]):
            for r in sweep_tuples(tree, shape):
                if necessary_rank_conditions(tree, r, shape):
                    continue
                admissible += 1
                # a miss raises GenerationFailureError
                sample_attempts(tree, r, shape, 0, 3, tg.DEFAULT_TOL)
    assert admissible == 1234


class TestRandomTreeTensor:
    def test_all_ones_gives_elementary(self, deep_tree_d4):
        ones = TreeRank({n: 1 for n in deep_tree_d4.nodes})
        v = tg.random_tree_tensor(deep_tree_d4, ones, (2, 2, 2, 2), seed=0)
        assert tg.tree_rank(v, deep_tree_d4) == ones

    def test_requested_profile_on_deep_tree(self, deep_tree_d4):
        shape = (2, 2, 2, 2)
        r = TreeRank({
            (1, 2, 3, 4): 1, (1, 2, 3): 2, (2, 3): 2,
            (1,): 2, (2,): 2, (3,): 2, (4,): 2,
        })
        v = tg.random_tree_tensor(deep_tree_d4, r, shape, seed=0)
        assert tg.tree_rank(v, deep_tree_d4) == r

    def test_no_attempt_is_an_input_error(self, deep_tree_d4):
        # not a generation failure after zero attempts
        r = capped_rank_tuple(deep_tree_d4, (2, 2, 2, 2))
        with pytest.raises(InvalidArgumentError,
                           match="max_retries must be an integer >= 1"):
            tg.random_tree_tensor(deep_tree_d4, r, (2, 2, 2, 2), max_retries=0)

    @pytest.mark.parametrize("count", [1.5, 2.5, True, "2", None])
    def test_attempt_count_must_be_an_integer(self, deep_tree_d4,
                                              monkeypatch, count):
        # checked before any sampling: a float would otherwise reach
        # range()'s TypeError, and True would run one attempt
        r = capped_rank_tuple(deep_tree_d4, (2, 2, 2, 2))
        monkeypatch.setattr(formats, "_sample_network", None)
        for call in (tg.random_tree_tensor, generation_attempts):
            with pytest.raises(InvalidArgumentError,
                               match="max_retries must be an integer >= 1"):
                call(deep_tree_d4, r, (2, 2, 2, 2), max_retries=count)

    def test_numpy_integer_attempt_count_passes(self, deep_tree_d4):
        r = capped_rank_tuple(deep_tree_d4, (2, 2, 2, 2))
        v, attempts = generation_attempts(deep_tree_d4, r, (2, 2, 2, 2),
                                          seed=4, max_retries=np.int64(3))
        assert attempts >= 1
        assert np.array_equal(v, tg.random_tree_tensor(
            deep_tree_d4, r, (2, 2, 2, 2), seed=4))

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "0", None])
    def test_seed_must_be_a_nonnegative_integer(self, deep_tree_d4,
                                                monkeypatch, seed):
        # every sampler takes its seed through one check, before any
        # sampling: a negative seed would otherwise reach numpy's ValueError
        r = capped_rank_tuple(deep_tree_d4, (2, 2, 2, 2))
        monkeypatch.setattr(formats, "_sample_network", None)
        for call in (tg.random_tree_tensor, generation_attempts):
            with pytest.raises(InvalidArgumentError,
                               match="seed must be an integer >= 0"):
                call(deep_tree_d4, r, (2, 2, 2, 2), seed=seed)

    def test_numpy_integer_seed_is_the_same_seed(self, deep_tree_d4):
        r = capped_rank_tuple(deep_tree_d4, (2, 2, 2, 2))
        v = tg.random_tree_tensor(deep_tree_d4, r, (2, 2, 2, 2), seed=4)
        assert np.array_equal(tg.random_tree_tensor(
            deep_tree_d4, r, (2, 2, 2, 2), seed=np.int64(4)), v)

    def test_violating_tuple_raises_immediately(self, deep_tree_d4):
        ranks = {n: 1 for n in deep_tree_d4.nodes}
        ranks[(2, 3)] = 2  # exceeds the son product 1*1
        with pytest.raises(InvalidArgumentError):
            tg.random_tree_tensor(
                deep_tree_d4, TreeRank(ranks), (2, 2, 2, 2), seed=0
            )

    def test_seed_determinism(self, mixed_tree_d6):
        shape = (2,) * 6
        r = capped_rank_tuple(mixed_tree_d6, shape)
        v1 = tg.random_tree_tensor(mixed_tree_d6, r, shape, seed=42)
        v2 = tg.random_tree_tensor(mixed_tree_d6, r, shape, seed=42)
        assert np.array_equal(v1, v2)

    def test_output_is_normalized(self, deep_tree_d4):
        r = capped_rank_tuple(deep_tree_d4, (2, 2, 2, 2))
        v = tg.random_tree_tensor(deep_tree_d4, r, (2, 2, 2, 2), seed=1)
        assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-12)

    def test_first_attempt_usually_succeeds(self, mixed_tree_d6):
        shape = (2,) * 6
        r = capped_rank_tuple(mixed_tree_d6, shape)
        first = 0
        for seed in range(30):
            _, attempts = generation_attempts(
                mixed_tree_d6, r, shape, seed=1000 + seed
            )
            first += attempts == 1
        assert first >= 29


DEEP = [[[1], [[2], [3]]], [4]]
MIXED = [[[1], [[2], [3]]], [[4], [5]], [6]]

# (tree, shape, rank cap, keyword arguments) per case; the tight tolerance
# of the last case makes some seeds retry and some fail
GENERATION_CASES = {
    "deep-3333": (lambda: tg.tree_from_nested(DEEP), (3, 3, 3, 3), 2, {}),
    "deep-2342": (lambda: tg.tree_from_nested(DEEP), (2, 3, 4, 2), 3, {}),
    "linear-3232": (lambda: tg.linear_tree(4), (3, 2, 3, 2), 2, {}),
    "linear-23232": (lambda: tg.linear_tree(5), (2, 3, 2, 3, 2), 3, {}),
    "binary-3333": (lambda: tg.balanced_binary_tree(4), (3, 3, 3, 3), 2, {}),
    "binary-2332": (lambda: tg.balanced_binary_tree(4), (2, 3, 3, 2), 3, {}),
    "mixed-2^6": (lambda: tg.tree_from_nested(MIXED), (2,) * 6, 2, {}),
    "tucker-333": (lambda: tg.tucker_tree(3), (3, 3, 3), 2, {}),
    "tucker-2323": (lambda: tg.tucker_tree(4), (2, 3, 2, 3), 3, {}),
    "deep-3333-tight": (lambda: tg.tree_from_nested(DEEP), (3, 3, 3, 3), 3,
                        {"tol": 0.1, "max_retries": 3}),
}

GENERATION_SHA256 = {
    "binary-2332":
        "480b947f81078f27efaacec147056a2efead7f8ac42e6bf4c7dfc139b5e67ac1",
    "binary-3333":
        "5b62be0689a116e68821d7101410a8185442b111f50b5c2df2e9edb08fffde4d",
    "deep-2342":
        "1a91a2b1f5f330bf22bb659764df0bb8a7744be5ce97f1c118d3f62cbe46fafe",
    "deep-3333":
        "20b608e46f364e6f5d19a0042edab9a4b653f66f6294e7238056641577df12d6",
    "deep-3333-tight":
        "471cd415da30782a81261e89acb9af0e030f6c13ba91d1260a2e86dc332cccbf",
    "linear-23232":
        "444abf49ccfa7b8bf6cec165495fa3181a3199fd5f68a488ef48abc8d404a7cc",
    "linear-3232":
        "f7e9644a1a5ffa9de65091c477566ffb7a18289ecaec0bdd6ec470f5d3dcf7ac",
    "mixed-2^6":
        "860f4b910516abd19cc49176e83154ec3a67deef0b10093c233bafa505ced50c",
    "tucker-2323":
        "404d9ab61f0a3ed1b5c363bdd0a7421718ec3806faab7bc2b22a74baabb4002f",
    "tucker-333":
        "ca57ffa0d98f4edcb6bcf606a8dc1451fc07e155f5390bc38d8516e3c565dee0",
}

# the hashes of the Kronecker-lift contraction, which the network used
# before it was contracted node by node; the reference in helpers
# reproduces them
KRONECKER_SHA256 = {
    "binary-2332":
        "b8aa80c72539bee23de7bd37ca2a07c25fe7a7a60e37ecb3f9d87e586325d7a8",
    "binary-3333":
        "fbeb65da8ed3b1dc45cc57ac66d0c97e250c169f6c37bd4e95101928232704c5",
    "deep-2342":
        "5a70d915c1d3d81a9e03978761ff3b4f0c0b303e82ace2dee34322a141a219b8",
    "deep-3333":
        "60ff2cc8f9ee8fbf2d2b19af9fa0ee3b7357571ecd704a93128f761b2c136b0b",
    "deep-3333-tight":
        "6a9b23a2a40401e4ce1656879e3debc3c45d5bb790986e6e5249787aa885b9cf",
    "linear-23232":
        "afc6d865fe5bc689e0e59dbb161e6415803f16f04173f5f2cb852826163183b7",
    "linear-3232":
        "9da81466a4cc332651eb1c28d54107dfa9a3e107470989f1dbfba469cdc17640",
    "mixed-2^6":
        "d1b9bc6bd000b8f8ca63df924b1096e74a84f54cf07c956222ff52eeab31a43d",
    "tucker-2323":
        "7388224e7503abf3a19442a398b2b724d0b44cb1457db4492818411b01cab7b6",
    "tucker-333":
        "49741289f5fa38e63986650dd6539d93acd7ae04e05a0d41f2114f15f09cad22",
}


def generated(name):
    """The tensors (None where generation failed) and attempt counts of
    12 seeds of a generation case."""
    make, shape, cap, kwargs = GENERATION_CASES[name]
    tree = make()
    r = capped_rank_tuple(tree, shape, cap=cap)
    results = []
    for seed in range(12):
        try:
            results.append(generation_attempts(
                tree, r, shape, seed=seed, **kwargs))
        except GenerationFailureError:
            results.append((None, None))
    return results


def generation_hash(results):
    h = hashlib.sha256()
    for v, attempts in results:
        if v is None:
            h.update(b"failed")
            continue
        h.update(np.ascontiguousarray(v).tobytes())
        h.update(str(attempts).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(GENERATION_CASES))
class TestGenerationPinned:
    """The generated tensors and attempt counts of 12 seeds per case, hashed
    and recorded from an earlier version: any change to the sampler's random
    draw order or to the arithmetic of the network contraction shows here.
    The hashes are bitwise, so they pin one numpy and LAPACK build."""

    def test_outputs_and_attempts_are_pinned(self, name):
        assert generation_hash(generated(name)) == GENERATION_SHA256[name]

    def test_kronecker_reference_keeps_the_earlier_pins(self, name,
                                                        monkeypatch):
        monkeypatch.setattr(formats, "contract_network",
                            kron_contract_network)
        assert generation_hash(generated(name)) == KRONECKER_SHA256[name]

    def test_outputs_match_the_kronecker_reference(self, name, monkeypatch):
        # the node-by-node contraction and the Kronecker lift differ by
        # roundoff only: same attempts, tensors within 1e-14 relative
        ours = generated(name)
        monkeypatch.setattr(formats, "contract_network",
                            kron_contract_network)
        for (v, attempts), (ref, ref_attempts) in zip(ours, generated(name)):
            assert attempts == ref_attempts
            if v is not None:
                assert np.linalg.norm(v - ref) <= 1e-14 * np.linalg.norm(ref)


def random_parameters(tree, r, shape, seed):
    """Gaussian leaf factors and transfers of a network with ranks ``r``."""
    rng = np.random.default_rng(seed)
    leaves = {leaf: rng.standard_normal((shape[leaf[0] - 1], r[leaf]))
              for leaf in tree.leaves}
    transfers = {}
    for node, kids in tree.sons.items():
        rows = prod(r[kid] for kid in kids)
        transfers[node] = rng.standard_normal(
            rows if node == tree.root else (rows, r[node]))
    return leaves, transfers


@pytest.mark.parametrize("cap", [2, 3])
@pytest.mark.parametrize("kind, shape", KRONECKER_CASES)
class TestNetworkContraction:
    """The node-by-node contraction against the Kronecker-lift reference."""

    def test_matches_the_kronecker_reference(self, kind, shape, cap):
        tree = kind_tree(kind, len(shape))
        r = capped_rank_tuple(tree, shape, cap=cap)
        for seed in range(5):
            leaves, transfers = random_parameters(tree, r, shape, seed)
            v = contract_network(tree, shape, leaves, transfers)
            ref = kron_contract_network(tree, shape, leaves, transfers)
            assert v.shape == ref.shape == shape
            assert np.linalg.norm(v - ref) <= 1e-14 * np.linalg.norm(ref)

    @pytest.mark.parametrize("exponent", [-600, -300, 0, 300, 600])
    def test_scales_exactly_with_the_root_transfer(self, kind, shape, cap,
                                                    exponent):
        tree = kind_tree(kind, len(shape))
        r = capped_rank_tuple(tree, shape, cap=cap)
        leaves, transfers = random_parameters(tree, r, shape, seed=7)
        v = contract_network(tree, shape, leaves, transfers)
        scaled = dict(transfers)
        scaled[tree.root] = transfers[tree.root] * 2.0 ** exponent
        assert np.array_equal(
            contract_network(tree, shape, leaves, scaled),
            v * 2.0 ** exponent)


class TestNetworkDimensionFormula:
    def test_rank_tuple_missing_a_node_rejected(self, deep_tree_d4):
        incomplete = TreeRank({n: 1 for n in deep_tree_d4.nodes
                               if n != (1,)})
        with pytest.raises(InvalidArgumentError, match=r"missing tree nodes"):
            tg.network_dimension_formula(deep_tree_d4, incomplete,
                                         (2, 2, 2, 2))

    def test_shape_of_the_wrong_length_rejected(self, deep_tree_d4):
        r = capped_rank_tuple(deep_tree_d4, (2, 2, 2, 2))
        with pytest.raises(InvalidArgumentError, match="tree has 4 modes"):
            tg.network_dimension_formula(deep_tree_d4, r, (2, 2, 2))

    @pytest.mark.parametrize("size", [2.5, 0, -1, True, "2", None])
    @pytest.mark.parametrize("call", [
        tg.network_dimension_formula, necessary_rank_conditions,
        tg.is_admissible, tg.is_proper, tg.random_tree_tensor,
    ], ids=lambda f: f.__name__)
    def test_mode_size_must_be_a_positive_integer(self, call, size):
        # with nothing sampled, the shape check is all that stands between
        # a bad shape and a verdict or dimension computed from it
        tree = tg.tucker_tree(2)
        r = TreeRank({n: 1 for n in tree.nodes})
        with pytest.raises(InvalidArgumentError,
                           match="mode size must be an integer >= 1"):
            call(tree, r, (size, 3))

    @pytest.mark.parametrize("shape", [5, None, "23", {2: 1, 3: 1}])
    def test_shape_must_be_a_tuple(self, shape):
        # before: a bare TypeError from len(), or a string read as sizes
        tree = tg.tucker_tree(2)
        r = TreeRank({n: 1 for n in tree.nodes})
        with pytest.raises(InvalidArgumentError,
                           match="shape must be a tuple of mode sizes"):
            tg.is_proper(tree, r, shape)

    def test_numpy_integer_mode_sizes_pass(self):
        tree = tg.tucker_tree(2)
        r = TreeRank({n: 1 for n in tree.nodes})
        shape = (np.int64(2), np.int64(3))
        assert tg.network_dimension_formula(tree, r, shape) == \
            tg.network_dimension_formula(tree, r, (2, 3))


class TestNecessaryConditions:
    def test_clean_tuple_has_no_violations(self, mixed_tree_d6):
        r = capped_rank_tuple(mixed_tree_d6, (2,) * 6)
        assert necessary_rank_conditions(mixed_tree_d6, r, (2,) * 6) == []

    def test_messages_name_the_node(self, deep_tree_d4):
        ranks = {n: 1 for n in deep_tree_d4.nodes}
        ranks[(2, 3)] = 9
        msgs = necessary_rank_conditions(
            deep_tree_d4, TreeRank(ranks), (2, 2, 2, 2)
        )
        assert msgs and all("{2, 3}" in m for m in msgs)


class TestRankTupleNamesOnlyTreeNodes:
    """A rank tuple with an entry for a block that is no tree node is an
    input error on every call that takes one, raised before any sampling
    or SVD: before, ``generate``/``proper`` burned every attempt (the
    profile could never equal the tuple) and ``is_member`` ignored it."""

    @staticmethod
    def case():
        tree = tg.tucker_tree(3)
        shape = (3, 3, 3)
        r = capped_rank_tuple(tree, shape)
        extra = TreeRank({**r.ranks, (1, 2): 2})
        v = tg.random_tree_tensor(tree, r, shape, seed=0)
        return tree, shape, extra, v

    CALLS = {
        "is_member": lambda t, s, r, v: tg.is_member(v, t, r),
        "bounded_rank_member": lambda t, s, r, v: tg.bounded_rank_member(
            v, t, r),
        "necessary_rank_conditions": lambda t, s, r, v:
            necessary_rank_conditions(t, r, s),
        "is_admissible": lambda t, s, r, v: tg.is_admissible(t, r, s),
        "is_proper": lambda t, s, r, v: tg.is_proper(t, r, s),
        "random_tree_tensor": lambda t, s, r, v: tg.random_tree_tensor(
            t, r, s),
        "generation_attempts": lambda t, s, r, v: generation_attempts(
            t, r, s),
        "network_dimension_formula": lambda t, s, r, v:
            tg.network_dimension_formula(t, r, s),
        "tree_chart": lambda t, s, r, v: tg.tree_chart(v, t, r),
        "tangent_dimension": lambda t, s, r, v: tg.tangent_dimension(v, t, r),
    }

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_rejected_before_any_work(self, name, monkeypatch,
                                      empty_anchor_slot):
        tree, shape, extra, v = self.case()
        monkeypatch.setattr(np.linalg, "svd", None)
        monkeypatch.setattr(formats, "_sample_network", None)
        with pytest.raises(InvalidArgumentError,
                           match=r"no tree nodes \[\{1, 2\}\]"):
            self.CALLS[name](tree, shape, extra, v)

    def test_missing_node_still_named_first(self):
        tree, shape, extra, _ = self.case()
        both = TreeRank({b: k for b, k in extra.ranks.items() if b != (3,)})
        with pytest.raises(InvalidArgumentError, match="missing tree nodes"):
            necessary_rank_conditions(tree, both, shape)

