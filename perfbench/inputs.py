"""Seeded inputs and independent oracles for the treegeom benchmark.

Nothing here calls treegeom.  Trees are nested lists in the JSON tree format
(a leaf is ``[m]``, an interior node the list of its sons).  Tensors are
contracted from random tree networks, so their tree ranks are known by
construction; every rank the benchmark expects is confirmed here with a plain
numpy SVD of the unfolding before timing starts.
"""

from __future__ import annotations

import json
import struct
from math import prod

import numpy as np

# The benchmark's own reference to the SVD: the traced run replaces
# numpy.linalg.svd to count the program's calls, and the oracle must not be
# counted.
_SVD = np.linalg.svd

RANK_TOL = 1e-10


# --------------------------------------------------------------------------
# Trees
# --------------------------------------------------------------------------

def tucker(d):
    return [[m] for m in range(1, d + 1)]


def linear(d):
    node = [[d - 1], [d]]
    for m in range(d - 2, 0, -1):
        node = [[m], node]
    return node


def binary(d):
    def split(modes):
        if len(modes) == 1:
            return [modes[0]]
        half = (len(modes) + 1) // 2
        return [split(modes[:half]), split(modes[half:])]

    return split(list(range(1, d + 1)))


DEEP = [[[1], [[2], [3]]], [4]]
MIXED = [[[1], [[2], [3]]], [[4], [5]], [6]]


def block_of(node):
    if len(node) == 1 and isinstance(node[0], int):
        return (node[0],)
    return tuple(sorted(m for son in node for m in block_of(son)))


def sons(node):
    if len(node) == 1 and isinstance(node[0], int):
        return []
    return list(node)


def all_nodes(tree):
    """Every node block of a nested tree, root first."""
    out = [block_of(tree)]
    for son in sons(tree):
        out += all_nodes(son)
    return out


def depth(tree):
    kids = sons(tree)
    return 0 if not kids else 1 + max(depth(k) for k in kids)


def level1_blocks(tree):
    return [block_of(s) for s in sons(tree)]


def capped_ranks(tree, shape, cap=2):
    """Every non-root rank at min(cap, both unfolding sizes); the root is 1."""
    n_all = prod(shape)
    ranks = {}
    for b in all_nodes(tree):
        n_in = prod(shape[m - 1] for m in b)
        ranks[b] = 1 if n_in == n_all else min(cap, n_in, n_all // n_in)
    return ranks


def formula_dimension(tree, ranks, shape):
    """Closed-form manifold dimension of the tree format: root block plus
    transfer blocks plus leaf factors, minus one gauge group per non-root
    node."""
    root = block_of(tree)
    total = prod(ranks[block_of(s)] for s in sons(tree))

    def walk(node):
        nonlocal total
        b = block_of(node)
        kids = sons(node)
        if not kids:
            total += shape[b[0] - 1] * ranks[b] - ranks[b] ** 2
            return
        if b != root:
            total += ranks[b] * prod(ranks[block_of(k)] for k in kids)
            total -= ranks[b] ** 2
        for k in kids:
            walk(k)

    walk(tree)
    return total


# --------------------------------------------------------------------------
# Tensors
# --------------------------------------------------------------------------

def network_tensor(tree, ranks, shape, rng):
    """Unit-norm tensor contracted from a random tree network: orthonormal
    leaf factors and Gaussian transfer blocks at the given ranks."""

    def contract(node):
        kids = sons(node)
        b = block_of(node)
        if not kids:
            q, _ = np.linalg.qr(rng.standard_normal((shape[b[0] - 1], ranks[b])))
            return q, list(b)
        parts = [contract(k) for k in kids]
        g = parts[0][0]
        modes = list(parts[0][1])
        for mat, m in parts[1:]:
            g = np.kron(g, mat)
            modes += m
        return g @ rng.standard_normal((g.shape[1], ranks[b])), modes

    flat, modes = contract(tree)
    v = flat[:, 0].reshape([shape[m - 1] for m in modes])
    v = np.transpose(v, np.argsort(modes))
    return np.ascontiguousarray(v / np.linalg.norm(v))


def unfolding_rank(v, block):
    axes = [m - 1 for m in block]
    rest = [a for a in range(v.ndim) if a not in axes]
    rows = prod(v.shape[a] for a in axes)
    s = _SVD(np.transpose(v, axes + rest).reshape(rows, -1), compute_uv=False)
    return int(np.sum(s > RANK_TOL * s[0])) if s[0] > 0 else 0


def tree_ranks(v, tree):
    return {b: unfolding_rank(v, b) for b in all_nodes(tree)}


def member_tensor(tree, ranks, shape, rng):
    """A network tensor whose numpy ranks equal the prescribed ones."""
    v = network_tensor(tree, ranks, shape, rng)
    got = tree_ranks(v, tree)
    if got != ranks:
        raise RuntimeError(f"sampled tensor has ranks {got}, wanted {ranks}")
    return v


def non_member_tensor(v, tree, ranks, rng, eps=1e-3):
    """``v`` plus a small dense perturbation, checked to leave the rank set."""
    w = v + eps * rng.standard_normal(v.shape) / np.sqrt(v.size)
    if tree_ranks(w, tree) == ranks:
        raise RuntimeError("perturbation kept the prescribed ranks")
    return w


# --------------------------------------------------------------------------
# Files (the formats documented in treegeom.tensor and treegeom.subspaces)
# --------------------------------------------------------------------------

def write_tensor(path, v):
    if str(path).endswith(".json"):
        doc = {"shape": list(v.shape), "data": [float(x) for x in v.ravel()]}
        path.write_text(json.dumps(doc))
    else:
        header = struct.pack("<Q", v.ndim) + struct.pack(f"<{v.ndim}Q", *v.shape)
        path.write_bytes(header + v.astype("<f8").tobytes(order="C"))


def read_tensor(path):
    raw = path.read_bytes()
    if raw[:1] == b"{":
        doc = json.loads(raw)
        return np.asarray(doc["data"], dtype=float).reshape(doc["shape"])
    (d,) = struct.unpack("<Q", raw[:8])
    shape = struct.unpack(f"<{d}Q", raw[8:8 + 8 * d])
    return np.frombuffer(raw[8 + 8 * d:], dtype="<f8").reshape(shape)


def ranks_json(ranks):
    return json.dumps({"ranks": [{"block": list(b), "r": r}
                                 for b, r in ranks.items()]})


# --------------------------------------------------------------------------
# Memory guard
# --------------------------------------------------------------------------

def level1_dimension(tree, ranks, shape):
    """Dimension of the level-1 operator space: the sum over level-1 blocks
    of rank times corank.  It bounds the chart's operator dimension."""
    return sum(ranks[b] * (prod(shape[m - 1] for m in b) - ranks[b])
               for b in level1_blocks(tree))


def operator_space_bytes(tree, ranks, shape):
    """Estimated dense operator-space bytes of one chart or tangent build:
    depth * N^2 * dim_1 * 8."""
    n = prod(shape)
    return depth(tree) * n * n * level1_dimension(tree, ranks, shape) * 8
