import json
import pickle
from copy import deepcopy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treegeom.errors import InvalidArgumentError, ParseError, TreeValidationError
from treegeom.trees import (
    DimensionTree,
    balanced_binary_tree,
    level_partition,
    levels,
    linear_tree,
    tree_from_json,
    tree_from_nested,
    tree_to_json,
    tucker_tree,
    validate,
)


def random_tree(d, seed):
    """Random dimension partition tree by recursive random splitting."""
    rng = np.random.default_rng(seed)
    sons = {}

    def grow(block):
        if len(block) == 1:
            return
        n_parts = int(rng.integers(2, len(block) + 1))
        labels = rng.integers(0, n_parts, size=len(block))
        # make sure every part is nonempty
        labels[rng.permutation(len(block))[:n_parts]] = np.arange(n_parts)
        parts = [
            tuple(b for b, l in zip(block, labels) if l == p)
            for p in range(n_parts)
        ]
        parts = [p for p in parts if p]
        if len(parts) < 2:
            mid = len(block) // 2
            parts = [block[:mid], block[mid:]]
        sons[block] = parts
        for p in parts:
            grow(p)

    grow(tuple(range(1, d + 1)))
    return DimensionTree(d, sons)


class TestValidate:
    def test_nested_example_over_four_modes_is_valid(self, deep_tree_d4):
        assert validate(deep_tree_d4).ok

    def test_single_son_violates_partition_axiom(self):
        tree = DimensionTree(2, {(1, 2): [(1, 2)]})
        report = validate(tree)
        assert not report.ok
        assert any("axiom (c)" in v for v in report.violations)

    def test_interior_node_without_sons(self):
        tree = DimensionTree(3, {(1, 2, 3): [(1,), (2, 3)]})
        report = validate(tree)
        assert not report.ok
        assert any("(2, 3)" in v or "{2, 3}" in v for v in report.violations)

    def test_missing_leaf_reported(self):
        # sons of {2,3} cover only {2}: partition axiom and leaf set both fail
        tree = DimensionTree(3, {(1, 2, 3): [(1,), (2, 3)], (2, 3): [(2,), (2,)]})
        report = validate(tree)
        assert not report.ok
        assert any("leaves" in v or "partition" in v for v in report.violations)

    def test_node_outside_mode_set(self):
        tree = DimensionTree(2, {(1, 2): [(1,), (2,), (3,)]})
        report = validate(tree)
        assert not report.ok
        assert any("axiom (a)" in v for v in report.violations)

    def test_one_mode_tree_is_invalid(self):
        # its root is a leaf and it has no level partition
        report = validate(DimensionTree(1, {}))
        assert not report.ok
        assert any("at least 2" in v for v in report.violations)
        with pytest.raises(TreeValidationError):
            tree_from_nested([1])

    def test_ensure_valid_raises(self):
        tree = DimensionTree(2, {(1, 2): [(1, 2)]})
        with pytest.raises(TreeValidationError):
            tree.ensure_valid()

    @given(st.integers(2, 7), st.integers(0, 200))
    @settings(max_examples=40, deadline=None)
    def test_random_trees_are_valid(self, d, seed):
        assert validate(random_tree(d, seed)).ok


class TestLevels:
    def test_tucker_depth_one(self):
        assert levels(tucker_tree(6)).depth == 1

    def test_mixed_tree_depth_three(self, mixed_tree_d6):
        assert levels(mixed_tree_d6).depth == 3

    def test_deep_tree_levels(self, deep_tree_d4):
        info = levels(deep_tree_d4)
        assert info.depth == 3
        assert info.level[(2, 3)] == 2
        assert info.level[(1, 2, 3, 4)] == 0
        assert info.level[(4,)] == 1


class TestLevelPartition:
    def test_deep_tree_level_two(self, deep_tree_d4):
        assert level_partition(deep_tree_d4, 2) == ((1,), (2, 3), (4,))

    def test_mixed_tree_partitions(self, mixed_tree_d6):
        assert level_partition(mixed_tree_d6, 1) == ((1, 2, 3), (4, 5), (6,))
        assert level_partition(mixed_tree_d6, 2) == (
            (1,), (2, 3), (4,), (5,), (6,)
        )
        assert level_partition(mixed_tree_d6, 3) == (
            (1,), (2,), (3,), (4,), (5,), (6,)
        )

    def test_tucker_level_one_is_singletons(self):
        assert level_partition(tucker_tree(4), 1) == ((1,), (2,), (3,), (4,))

    def test_first_is_root_sons_last_is_leaves(self, deep_tree_d4):
        info = levels(deep_tree_d4)
        assert set(level_partition(deep_tree_d4, 1)) == set(
            deep_tree_d4.sons_of(deep_tree_d4.root)
        )
        assert set(level_partition(deep_tree_d4, info.depth)) == set(
            deep_tree_d4.leaves
        )

    def test_out_of_range(self, deep_tree_d4):
        with pytest.raises(InvalidArgumentError):
            level_partition(deep_tree_d4, 0)
        with pytest.raises(InvalidArgumentError):
            level_partition(deep_tree_d4, 4)

    @pytest.mark.parametrize("k", [1.5, 2.0, "1", True, None])
    def test_level_must_be_an_integer(self, deep_tree_d4, k):
        # a float or a string would reach tuple indexing or the range
        # comparison, and True would read as level 1
        with pytest.raises(InvalidArgumentError,
                           match="level must be an integer"):
            level_partition(deep_tree_d4, k)

    def test_numpy_integer_level_is_the_same_level(self, deep_tree_d4):
        assert level_partition(deep_tree_d4, np.int64(2)) == level_partition(
            deep_tree_d4, 2)

    @given(st.integers(2, 7), st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_every_level_is_a_partition(self, d, seed):
        tree = random_tree(d, seed)
        depth = levels(tree).depth
        for k in range(1, depth + 1):
            blocks = level_partition(tree, k)
            flat = [m for b in blocks for m in b]
            assert sorted(flat) == list(range(1, d + 1))

    @given(st.integers(2, 7), st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_refinement_chain(self, d, seed):
        tree = random_tree(d, seed)
        depth = levels(tree).depth
        for k in range(1, depth):
            coarse = level_partition(tree, k)
            fine = level_partition(tree, k + 1)
            for b in fine:
                assert any(set(b) <= set(c) for c in coarse)

    @given(st.integers(2, 7), st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_leaf_appears_from_its_level_to_the_bottom(self, d, seed):
        tree = random_tree(d, seed)
        info = levels(tree)
        for leaf in tree.leaves:
            for k in range(1, info.depth + 1):
                present = leaf in level_partition(tree, k)
                assert present == (info.level[leaf] <= k)


class TestConstructors:
    def test_tucker_tree_structure(self):
        tree = tucker_tree(6)
        assert tree.sons_of(tree.root) == tuple((m,) for m in range(1, 7))
        assert levels(tree).depth == 1

    def test_linear_tree_nests_one_mode_at_a_time(self):
        tree = linear_tree(6)
        assert (2, 3, 4, 5, 6) in tree.nodes
        assert tree.sons_of((2, 3, 4, 5, 6)) == ((2,), (3, 4, 5, 6))
        assert levels(tree).depth == 5

    def test_balanced_binary_top_split(self):
        tree = balanced_binary_tree(4)
        assert tree.sons_of(tree.root) == ((1, 2), (3, 4))

    def test_balanced_binary_valid_for_various_d(self):
        for d in range(2, 9):
            assert validate(balanced_binary_tree(d)).ok

    def test_too_small(self):
        with pytest.raises(InvalidArgumentError):
            tucker_tree(1)
        with pytest.raises(InvalidArgumentError):
            linear_tree(1)
        with pytest.raises(InvalidArgumentError):
            balanced_binary_tree(1)


class TestJson:
    def test_roundtrip(self, deep_tree_d4):
        text = tree_to_json(deep_tree_d4)
        assert tree_from_json(text) == deep_tree_d4

    def test_roundtrip_random_trees(self):
        for seed in range(10):
            tree = random_tree(5, seed)
            assert tree_from_json(tree_to_json(tree)) == tree

    def test_nested_list_form(self):
        tree = tree_from_json("[[1], [[2], [3]]]")
        assert tree.ndim == 3
        assert tree.sons_of((2, 3)) == ((2,), (3,))

    def test_duplicate_mode_rejected(self):
        with pytest.raises(ParseError):
            tree_from_json("[[1], [[1], [2]]]")

    def test_object_form(self):
        text = json.dumps({
            "block": [1, 2],
            "sons": [[1], [2]],
        })
        tree = tree_from_json(text)
        assert tree == tucker_tree(2)

    def test_root_must_cover_one_to_d(self):
        with pytest.raises(ParseError):
            tree_from_json("[[2], [3]]")

    def test_malformed_json(self):
        with pytest.raises(ParseError):
            tree_from_json("not json")

    def test_object_with_wrong_partition(self):
        text = json.dumps({"block": [1, 2, 3], "sons": [[1], [2]]})
        with pytest.raises(ParseError):
            tree_from_json(text)


class TestImmutability:
    def test_invalid_tree_raises_on_every_levels_call(self):
        tree = DimensionTree(3, {(1, 2, 3): [(1,), (2, 3)]})
        for _ in range(3):
            with pytest.raises(TreeValidationError):
                levels(tree)
            with pytest.raises(TreeValidationError):
                level_partition(tree, 1)

    def test_sons_are_read_only(self, deep_tree_d4):
        with pytest.raises(TypeError):
            deep_tree_d4.sons[(2, 3)] = ((2,), (3,))
        with pytest.raises(TypeError):
            del deep_tree_d4.sons[(2, 3)]
        assert level_partition(deep_tree_d4, 2) == ((1,), (2, 3), (4,))

    def test_copies_are_equal_and_valid(self, deep_tree_d4):
        for copy in (pickle.loads(pickle.dumps(deep_tree_d4)),
                     deepcopy(deep_tree_d4)):
            assert copy == deep_tree_d4
            assert hash(copy) == hash(deep_tree_d4)
            assert levels(copy).depth == 3


def test_equality_is_structural(deep_tree_d4):
    rebuilt = tree_from_nested([[[1], [[2], [3]]], [4]])
    assert rebuilt == deep_tree_d4
    assert hash(rebuilt) == hash(deep_tree_d4)
    assert rebuilt != tucker_tree(4)
    # the sons are read once, when the tree is built: the hash is kept
    assert len({deep_tree_d4: 1, rebuilt: 2, tucker_tree(4): 3}) == 2


def _lookup_trees(d, seed):
    """Every builtin tree over ``d`` modes and a random tree read back from
    its JSON form."""
    trees = [linear_tree(d), balanced_binary_tree(d), tucker_tree(d)]
    return trees + [tree_from_json(tree_to_json(random_tree(d, seed)))]


def _spellings(node, rng):
    """A node as a canonical tuple, a list, an unsorted tuple, numpy ints
    and a numpy array."""
    shuffled = tuple(rng.permutation(node).tolist())
    return [node, list(node), tuple(reversed(node)), shuffled,
            tuple(np.int64(m) for m in node), np.array(shuffled)]


def _non_nodes(tree, rng):
    """Mode sets that are no tree node, modes out of range among them."""
    d = tree.ndim
    subsets = [tuple(sorted(rng.choice(np.arange(1, d + 1), size=k,
                                       replace=False).tolist()))
               for k in range(1, d + 1) for _ in range(3)]
    return [b for b in subsets if b not in tree.nodes] + [(d + 1,), (0, 1)]


class TestLookups:
    """``sons_of``, ``parent_of``, ``complement_modes`` and a rank tuple's
    lookups read canonical keys directly; every other spelling of a node,
    and every non-node, gives what a scan over canonical forms gives."""

    @settings(max_examples=25, deadline=None)
    @given(d=st.integers(2, 8), seed=st.integers(0, 2 ** 16))
    def test_against_brute_force(self, d, seed):
        from treegeom.subspaces import TreeRank
        from treegeom.tensor import complement_modes

        rng = np.random.default_rng(seed)
        for tree in _lookup_trees(d, seed):
            ranks = TreeRank({n: len(n) for n in tree.nodes})
            for node in sorted(tree.nodes) + _non_nodes(tree, rng):
                canon = tuple(sorted(node))
                sons = next((kids for b, kids in tree.sons.items()
                             if b == canon), ())
                parent = next((b for b, kids in tree.sons.items()
                               if canon in kids), None)
                rest = tuple(m for m in range(1, d + 1) if m not in canon)
                for spelled in _spellings(node, rng):
                    assert tree.sons_of(spelled) == sons
                    assert tree.parent_of(spelled) == parent
                    assert complement_modes(spelled, d) == rest
                    assert (spelled in ranks) == (canon in tree.nodes)
                    if canon in tree.nodes:
                        assert ranks[spelled] == len(canon)
                    else:
                        with pytest.raises(KeyError):
                            ranks[spelled]

    def test_an_unvalidated_tree_gives_the_first_son_list(self):
        # a node named in two son lists: the first names its parent
        tree = DimensionTree(3, {(1, 2, 3): [(1, 2), (3,)],
                                 (1, 2): [(1,), (2,)], (2, 3): [(2,), (3,)]})
        assert tree.parent_of((3,)) == (1, 2, 3)
        assert tree.parent_of([2]) == (1, 2)
        assert tree.sons_of([3, 2]) == ((2,), (3,))
