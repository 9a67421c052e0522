import numpy as np
import pytest

from treegeom.trees import tree_from_nested


@pytest.fixture
def deep_tree_d4():
    """Depth-3 tree over 4 modes: {1,2,3} and {4} under the root, {2,3}
    nested inside {1,2,3}."""
    return tree_from_nested([[[1], [[2], [3]]], [4]])


@pytest.fixture
def mixed_tree_d6():
    """Depth-3 tree over 6 modes with a ternary root: {1,2,3}, {4,5}, {6}."""
    return tree_from_nested([[[1], [[2], [3]]], [[4], [5]], [6]])


@pytest.fixture
def two_block_tree_d6():
    """Depth-2 tree over 6 modes whose root splits into a singleton and its
    complement; the two root blocks always carry equal ranks."""
    return tree_from_nested([[1], [[2], [3], [4], [5], [6]]])


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def empty_anchor_slot():
    """Start from (and leave) an empty anchor slot, for tests that count
    factorizations or patch what a kept anchor would skip."""
    from treegeom import tangent

    tangent._clear_anchor()
    yield
    tangent._clear_anchor()
