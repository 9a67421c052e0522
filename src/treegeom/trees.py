"""Dimension partition trees: axioms, levels, level partitions, constructors.

A dimension partition tree over the mode set ``{1..d}`` is a rooted tree whose
vertices are nonempty mode subsets, whose root is the full set, whose leaves
are exactly the singletons, and in which the sons of every non-singleton
vertex form a partition of that vertex into at least two parts.

Nodes are stored as sorted tuples of mode labels; equality of nodes is set
equality.  Sons are kept in a deterministic order (ascending by smallest
element), which fixes iteration order everywhere without imposing structure
the format itself does not have.

A tree is immutable, so it remembers what it has derived: a successful
validation, its levels and its level partitions are computed once per tree.
A failed validation is not remembered and raises again on every call.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from numbers import Integral
from types import MappingProxyType

from .errors import InvalidArgumentError, ParseError, TreeValidationError
from .tensor import sorted_blocks

__all__ = [
    "DimensionTree",
    "ValidationReport",
    "LevelInfo",
    "validate",
    "levels",
    "level_partition",
    "tucker_tree",
    "linear_tree",
    "balanced_binary_tree",
    "tree_to_json",
    "tree_from_json",
    "tree_from_nested",
]


def _canon(block):
    return tuple(sorted(int(m) for m in block))


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]


@dataclass(frozen=True)
class LevelInfo:
    """Vertex levels (root at 0, a read-only mapping) and the depth of the
    tree."""

    level: dict
    depth: int


class DimensionTree:
    """Immutable dimension partition tree over modes ``1..ndim``.

    Parameters
    ----------
    ndim : int
        Number of modes; the root is ``(1, ..., ndim)``.
    sons : mapping
        Maps each non-leaf node (any iterable of modes) to an iterable of its
        sons.  Structure is validated lazily via :func:`validate`.  The
        ``sons`` attribute is a read-only view of the canonical form.
    """

    def __init__(self, ndim, sons):
        if ndim < 1:
            raise InvalidArgumentError("tree needs at least one mode")
        self.ndim = int(ndim)
        self.root = tuple(range(1, self.ndim + 1))
        self.sons = MappingProxyType(
            {_canon(k): sorted_blocks(v) for k, v in sons.items()}
        )
        self._valid = False
        self._levels = None
        self._partitions = None
        nodes = {self.root} | set(self.sons)
        for kids in self.sons.values():
            nodes.update(kids)
        self.nodes = frozenset(nodes)
        self.leaves = tuple(
            sorted(n for n in self.nodes if n not in self.sons)
        )
        # every node's sons and parent, looked up by its canonical tuple;
        # the first son list naming a node gives its parent, as a scan of
        # the son lists in order would
        self._sons_of = {**dict.fromkeys(self.nodes, ()), **self.sons}
        self._parent = {}
        for parent, kids in self.sons.items():
            for kid in kids:
                self._parent.setdefault(kid, parent)
        # the tree is immutable, so its hash is taken once: every cache
        # keyed by a tree (the nested rank requests, the anchor slot) reads it
        self._hash = hash((self.ndim, tuple(sorted(self.sons.items()))))

    def _lookup(self, table, node, default):
        """``table`` at a node given as a canonical tuple, read directly,
        or as any iterable of modes, canonicalized first."""
        try:
            return table[node]
        except (KeyError, TypeError):  # not canonical, or unhashable
            pass
        return table.get(_canon(node), default)

    def sons_of(self, node):
        return self._lookup(self._sons_of, node, ())

    def parent_of(self, node):
        return self._lookup(self._parent, node, None)

    def __eq__(self, other):
        if not isinstance(other, DimensionTree):
            return NotImplemented
        return self.ndim == other.ndim and self.sons == other.sons

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"DimensionTree(ndim={self.ndim}, nodes={len(self.nodes)})"

    def __reduce__(self):
        # the read-only view of the sons cannot be pickled or copied itself
        return DimensionTree, (self.ndim, dict(self.sons))

    def ensure_valid(self):
        """Raise :class:`TreeValidationError` unless the axioms hold; a pass
        is remembered, a failure is checked again on the next call."""
        if not self._valid:
            report = validate(self)
            if not report.ok:
                raise TreeValidationError(report.violations)
            self._valid = True
        return self


def validate(tree):
    """Check the tree axioms; returns a report rather than raising.

    Each violation names the offending node and the axiom it breaks:
    (a) vertices are nonempty subsets of the mode set, (b) the root is the
    full mode set, (c) non-singleton vertices have at least two sons forming
    a partition, (d) singletons have no sons.  The derived requirement that
    the leaf set equals all singletons is reported separately, and so is a
    mode set of fewer than two modes, whose root is a leaf and which has no
    level partition.
    """
    violations = []
    if tree.ndim < 2:
        violations.append(
            f"the mode set has {tree.ndim} mode(s), needs at least 2"
        )
    full = set(tree.root)
    for node in sorted(tree.nodes):
        s = set(node)
        if not s:
            violations.append("axiom (a): empty vertex")
        elif not s <= full:
            violations.append(
                f"axiom (a): vertex {s} is not a subset of {full}"
            )
    if tree.root not in tree.nodes:
        violations.append("axiom (b): root missing")
    for node, kids in sorted(tree.sons.items()):
        s = set(node)
        if len(s) == 1:
            violations.append(f"axiom (d): singleton {s} has sons")
            continue
        if len(kids) < 2:
            violations.append(
                f"axiom (c): vertex {s} has {len(kids)} son(s), needs at least 2"
            )
        union = set()
        overlap = False
        for kid in kids:
            if union & set(kid):
                overlap = True
            union |= set(kid)
        if overlap or union != s:
            violations.append(
                f"axiom (c): sons of {s} do not partition it"
            )
    for node in tree.nodes:
        if len(node) >= 2 and node not in tree.sons:
            violations.append(
                f"axiom (c): vertex {set(node)} has no sons"
            )
    expected_leaves = {(m,) for m in tree.root}
    actual_leaves = {n for n in tree.nodes if n not in tree.sons}
    if actual_leaves != expected_leaves:
        missing = sorted(expected_leaves - actual_leaves)
        extra = sorted(actual_leaves - expected_leaves)
        detail = []
        if missing:
            detail.append(f"missing {missing}")
        if extra:
            detail.append(f"non-singleton leaves {extra}")
        violations.append(
            "leaves must be exactly the singletons of the mode set"
            + (": " + ", ".join(detail) if detail else "")
        )
    # reachability: every node must hang off the root
    reached = {tree.root}
    frontier = [tree.root]
    while frontier:
        node = frontier.pop()
        for kid in tree.sons.get(node, ()):
            if kid not in reached:
                reached.add(kid)
                frontier.append(kid)
    unreachable = tree.nodes - reached
    if unreachable:
        violations.append(
            f"vertices not reachable from the root: {sorted(unreachable)}"
        )
    return ValidationReport(ok=not violations, violations=tuple(violations))


def levels(tree):
    """Breadth-first level assignment from the root; depth is the maximum."""
    tree.ensure_valid()
    if tree._levels is None:
        level = {tree.root: 0}
        frontier = [tree.root]
        while frontier:
            nxt = []
            for node in frontier:
                for kid in tree.sons_of(node):
                    level[kid] = level[node] + 1
                    nxt.append(kid)
            frontier = nxt
        tree._levels = LevelInfo(
            level=MappingProxyType(level), depth=max(level.values())
        )
    return tree._levels


def check_level(tree, k):
    """``k`` as an ``int`` if it is a level of ``tree``, ``1..depth``: a
    Python or numpy integer in range passes, a bool, a float, a string or
    an integer out of range is an input error."""
    depth = levels(tree).depth
    if type(k) is bool or not isinstance(k, Integral):
        raise InvalidArgumentError(f"level must be an integer, got {k!r}")
    if not 1 <= k <= depth:
        raise InvalidArgumentError(f"level {k} out of range 1..{depth}")
    return int(k)


def level_partition(tree, k):
    """The partition of the mode set attached to level ``k``.

    It consists of the vertices at level ``k`` together with the leaves at
    shallower levels.  Level 1 gives the sons of the root and the deepest
    level gives the leaf set.
    """
    k = check_level(tree, k)
    if tree._partitions is None:
        # check_level derived the levels
        info = tree._levels
        tree._partitions = tuple(
            sorted_blocks(
                [n for n, l in info.level.items() if l == j]
                + [n for n in tree.leaves if info.level[n] < j]
            )
            for j in range(1, info.depth + 1)
        )
    return tree._partitions[k - 1]


def tucker_tree(d):
    """Depth-1 tree: the root with every singleton as a son."""
    if d < 2:
        raise InvalidArgumentError("tucker_tree needs d >= 2")
    root = tuple(range(1, d + 1))
    return DimensionTree(d, {root: [(m,) for m in root]})


def linear_tree(d):
    """Nested tree splitting off one mode at a time: {1}, {2,...,d}, ..."""
    if d < 2:
        raise InvalidArgumentError("linear_tree needs d >= 2")
    sons = {}
    block = tuple(range(1, d + 1))
    while len(block) > 2:
        sons[block] = [(block[0],), block[1:]]
        block = block[1:]
    sons[block] = [(block[0],), (block[1],)]
    return DimensionTree(d, sons)


def balanced_binary_tree(d):
    """Binary tree splitting every block as evenly as possible (left-heavy)."""
    if d < 2:
        raise InvalidArgumentError("balanced_binary_tree needs d >= 2")
    sons = {}

    def split(block):
        if len(block) == 1:
            return
        half = (len(block) + 1) // 2
        left, right = block[:half], block[half:]
        sons[block] = [left, right]
        split(left)
        split(right)

    split(tuple(range(1, d + 1)))
    return DimensionTree(d, sons)


# ---------------------------------------------------------------------------
# JSON format.  A node is either an integer list [j] (leaf), an object
# {"block": [...modes...], "sons": [...nodes...]}, or a nested list of nodes
# whose block is the union of its sons.  The root's block must be 1..d.
# ---------------------------------------------------------------------------


def _parse_node(obj, sons):
    """Parse one node, record sons, and return its canonical block."""
    # JSON booleans load as bool, a subclass of int: they are no modes here
    if isinstance(obj, list):
        if all(type(x) is int for x in obj):
            if len(obj) != 1:
                raise ParseError(
                    f"leaf must contain exactly one mode, got {obj}"
                )
            return _canon(obj)
        kids = [_parse_node(child, sons) for child in obj]
        flat = [m for kid in kids for m in kid]
        block = _canon(flat)
        if len(block) != len(flat):
            raise ParseError(f"duplicate modes in node {flat}")
        sons[block] = kids
        return block
    if isinstance(obj, dict):
        if "block" not in obj or "sons" not in obj:
            raise ParseError("node object needs 'block' and 'sons'")
        block = obj["block"]
        if not isinstance(block, list) or not all(
            type(x) is int for x in block
        ):
            raise ParseError(f"invalid block {block!r}")
        if not isinstance(obj["sons"], list):
            raise ParseError(f"sons of block {block} must be a list")
        block_c = _canon(block)
        if len(block_c) != len(block):
            raise ParseError(f"duplicate modes in block {block}")
        kids = [_parse_node(child, sons) for child in obj["sons"]]
        flat = [m for kid in kids for m in kid]
        if _canon(flat) != block_c or len(flat) != len(block_c):
            raise ParseError(
                f"sons of block {block} do not partition it"
            )
        sons[block_c] = kids
        return block_c
    raise ParseError(f"cannot parse tree node {obj!r}")


def tree_from_nested(obj):
    """Build a tree from nested Python lists / node objects (see JSON format)."""
    sons = {}
    root = _parse_node(obj, sons)
    if root != tuple(range(1, len(root) + 1)):
        raise ParseError(
            f"root block must be 1..d, got {list(root)}"
        )
    return DimensionTree(len(root), sons).ensure_valid()


def tree_from_json(text):
    """Parse the JSON tree format; validates the result."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid tree JSON: {e}") from e
    return tree_from_nested(obj)


def _node_to_obj(tree, node):
    if node in tree.sons:
        return {
            "block": list(node),
            "sons": [_node_to_obj(tree, kid) for kid in tree.sons_of(node)],
        }
    return list(node)


def tree_to_json(tree):
    """Serialize a tree to its JSON object form (round-trips with parse)."""
    tree.ensure_valid()
    return json.dumps(_node_to_obj(tree, tree.root))
