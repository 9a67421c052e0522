import hashlib

import numpy as np
import pytest

import treegeom as tg
from treegeom.errors import (
    GenerationFailureError,
    InvalidArgumentError,
    NotOnManifoldError,
)
from treegeom.formats import (
    generation_attempts,
    necessary_rank_conditions,
    random_tucker_tensor,
    require_member,
)
from treegeom.subspaces import TreeRank

from helpers import capped_rank_tuple


def elementary(shape, seed=0):
    rng = np.random.default_rng(seed)
    return tg.tensor_product([rng.standard_normal(n) for n in shape])


def bump(r, node, delta=1):
    d = dict(r.ranks)
    d[tuple(sorted(node))] += delta
    return TreeRank(d)


class TestTuckerMembership:
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

    def test_require_member_decides_on_its_splits(self, mixed_tree_d6):
        shape = (2,) * 6
        r = capped_rank_tuple(mixed_tree_d6, shape)
        v = tg.random_tree_tensor(mixed_tree_d6, r, shape, seed=0)
        v_checked, splits = require_member(v, mixed_tree_d6, r)
        assert np.array_equal(v_checked, v)
        assert set(splits) == mixed_tree_d6.nodes - {mixed_tree_d6.root}
        assert all(splits[n].rank == r[n] for n in splits)
        r_bad = bump(r, (2, 3))
        with pytest.raises(NotOnManifoldError,
                           match=r"failing levels \[2\]") as err:
            require_member(v, mixed_tree_d6, r_bad)
        assert err.value.levels == \
            tg.is_member(v, mixed_tree_d6, r_bad).failing_levels()

    def test_one_singular_value_solve_per_node(self, monkeypatch):
        # a leaf of the linear tree sits in every level partition below its
        # own, so deciding the levels one by one factors it again each time
        tree = tg.linear_tree(5)
        shape = (2, 3, 2, 3, 2)
        r = capped_rank_tuple(tree, shape)
        v = tg.random_tree_tensor(tree, r, shape, seed=0)
        calls = []
        svd = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(kwargs.get("compute_uv", True))
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        assert tg.is_member(v, tree, r).member
        assert calls == [False] * len(tree.nodes)


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
        verdict = tg.is_admissible(deep_tree_d4, ones, (2, 2, 2, 2), seed=0)
        assert verdict.verdict == "admissible"
        assert verdict.witness is not None
        assert tg.tree_rank(verdict.witness, deep_tree_d4) == ones

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


class TestProperness:
    def test_two_block_tree_not_proper_structurally(self, two_block_tree_d6):
        ranks = {n: 2 for n in two_block_tree_d6.nodes}
        ranks[two_block_tree_d6.root] = 1
        report = tg.is_proper(two_block_tree_d6, TreeRank(ranks), (2,) * 6)
        assert not report.proper
        assert report.structural
        assert "level 2" in report.reason

    def test_mixed_tree_generic_ranks_proper(self, mixed_tree_d6):
        shape = (2,) * 6
        r = capped_rank_tuple(mixed_tree_d6, shape)
        report = tg.is_proper(mixed_tree_d6, r, shape, trials=15, seed=0)
        assert report.proper
        assert all(v > 0 for v in report.escapes_per_level.values())

    def test_depth_one_not_proper_by_convention(self):
        tree = tg.tucker_tree(3)
        r = TreeRank({n: 1 for n in tree.nodes})
        report = tg.is_proper(tree, r, (2, 2, 2))
        assert not report.proper
        assert "depth-1" in report.reason

    @pytest.mark.parametrize("name, expected", [
        ("linear", {
            "proper": True,
            "reason": "every level produced sampled witnesses outside the "
                      "tree constraints (Monte-Carlo verdict)",
            "structural": False,
            "samples_per_level": {"1": 50, "2": 50, "3": 50},
            "escapes_per_level": {"1": 50, "2": 50, "3": 50},
        }),
        ("deep", {
            "proper": False,
            "reason": "all 50 sampled members of the level-2 Tucker set "
                      "satisfied every tree constraint (sampling-based)",
            "structural": False,
            "samples_per_level": {"1": 50, "2": 50},
            "escapes_per_level": {"1": 50, "2": 0},
        }),
    ])
    def test_sampled_verdict_is_pinned(self, name, expected, deep_tree_d4):
        # recorded from the level-by-level membership test that decided each
        # level block with its own factorization
        tree, shape = {
            "linear": (tg.linear_tree(4), (3, 3, 3, 3)),
            "deep": (deep_tree_d4, (2, 2, 2, 3)),
        }[name]
        r = capped_rank_tuple(tree, shape)
        assert tg.is_proper(tree, r, shape, seed=1000).to_dict() == expected

    def test_inadmissible_rejected(self, deep_tree_d4):
        r = bump(capped_rank_tuple(deep_tree_d4, (2, 2, 2, 2)), (1, 2, 3, 4))
        with pytest.raises(InvalidArgumentError):
            tg.is_proper(deep_tree_d4, r, (2, 2, 2, 2))


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


class TestGenerationPinned:
    """The generated tensors and attempt counts of 12 seeds per case, hashed
    and recorded from an earlier version: any change to the sampler's random
    draw order or to the arithmetic of the network contraction shows here.
    The hashes are bitwise, so they pin one numpy and LAPACK build."""

    @pytest.mark.parametrize("name", sorted(GENERATION_CASES))
    def test_outputs_and_attempts_are_pinned(self, name):
        make, shape, cap, kwargs = GENERATION_CASES[name]
        tree = make()
        r = capped_rank_tuple(tree, shape, cap=cap)
        h = hashlib.sha256()
        for seed in range(12):
            try:
                v, attempts = generation_attempts(
                    tree, r, shape, seed=seed, **kwargs
                )
            except GenerationFailureError:
                h.update(b"failed")
                continue
            h.update(np.ascontiguousarray(v).tobytes())
            h.update(str(attempts).encode())
        assert h.hexdigest() == GENERATION_SHA256[name]


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
