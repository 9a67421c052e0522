"""Minimal subspaces, tree-based ranks, and the nesting relations among them.

The minimal subspace of a nonzero tensor at a mode subset is realized as the
column space of its unfolding, represented by the left singular vectors whose
singular values exceed a relative tolerance.  Subspaces are points on a
Grassmannian and have no canonical basis; the deterministic SVD sign
convention of :mod:`treegeom.tensor` makes the returned bases reproducible.

Rank decisions are approximate by nature in floating point: every function
takes a relative tolerance (default ``1e-10``) applied to the largest
singular value.  The zero tensor is rejected rather than assigned rank zero,
since rank tuples are required to be positive.

A decision that needs only a rank reads it off the singular values alone,
one SVD without factors per distinct node (:func:`tree_rank`, and the
membership tests of :mod:`treegeom.formats`); the thresholded values are
the ones :func:`minimal_subspace` thresholds.  The singular values are
taken from the unfolding itself, not from the eigenvalues of its Gram
matrix, whose squaring would push the default tolerance below machine
precision.  Where a level-1 block's factor is at hand (a chart point's or
a chart core's), the nodes inside the block are read off that ``n_b``-row
factor instead of the tensor, their small unfoldings stacked by shape into
one batched SVD each (:func:`nested_ranks`).  Bases are computed only
where a caller needs one, and a projection onto a product of block bases
(the chain and nestedness residuals) pulls back onto the bases and pushes
forward again, with no ``n_b x n_b`` projector.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from math import prod

import numpy as np

from .errors import InvalidArgumentError, ParseError
from .tensor import (
    check_integer,
    check_tensor,
    check_tol,
    normalize_modes,
    planned,
    pull_blocks,
    push_blocks,
    sorted_blocks,
    svd,
    svd_rank,
    unfold,
)
from .trees import level_partition, levels

__all__ = [
    "DEFAULT_TOL",
    "SubspaceBasis",
    "TreeRank",
    "minimal_subspace",
    "tree_rank",
    "check_nestedness",
    "check_chain",
    "ranks_to_json",
    "ranks_from_json",
]

DEFAULT_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class SubspaceBasis:
    """Orthonormal basis of a minimal subspace at a mode subset.

    ``basis`` has shape (ambient, rank) where ambient is the product of the
    mode sizes in ``alpha``; ``singular_values`` are the retained values of
    the unfolding, nonincreasing.
    """

    alpha: tuple
    basis: np.ndarray
    singular_values: np.ndarray
    tol: float

    @property
    def ambient_dim(self):
        return self.basis.shape[0]

    @property
    def rank(self):
        return self.basis.shape[1]


@dataclass(frozen=True)
class TreeRank:
    """Rank tuple indexed by the nodes of a dimension tree.  Every rank is
    an integer at least 1 (a numpy integer passes, a bool or a float does
    not); anything else is an input error at construction."""

    ranks: dict

    def __post_init__(self):
        object.__setattr__(
            self,
            "ranks",
            {tuple(sorted(k)): check_integer(v, "rank", 1)
             for k, v in self.ranks.items()},
        )

    def _key(self, node):
        """A node's key: a sorted tuple as it stands, anything else
        sorted."""
        try:
            if node in self.ranks:
                return node
        except TypeError:  # unhashable
            pass
        return tuple(sorted(node))

    def __getitem__(self, node):
        return self.ranks[self._key(node)]

    def __contains__(self, node):
        return self._key(node) in self.ranks

    def nodes(self):
        return set(self.ranks)

    def __eq__(self, other):
        if isinstance(other, TreeRank):
            return self.ranks == other.ranks
        return NotImplemented

    def items(self):
        return sorted(self.ranks.items(), key=lambda kv: (len(kv[0]), kv[0]))

    def __repr__(self):
        body = ", ".join(f"{set(k)}: {v}" for k, v in self.items())
        return f"TreeRank({{{body}}})"


def minimal_subspace(v, alpha, tol=DEFAULT_TOL):
    """Orthonormal basis of the minimal subspace of ``v`` at ``alpha``.

    Retains the left singular vectors of the unfolding whose singular values
    exceed ``tol`` times the largest one.
    """
    v = check_tensor(v, allow_zero=False)
    alpha = normalize_modes(alpha, v.ndim)
    return factored_subspace(v, alpha, check_tol(tol))[0]


def factored_subspace(v, alpha, tol):
    """:func:`minimal_subspace` of a ``v`` already passed through
    :func:`check_tensor` with ``allow_zero=False``, at a normalized
    ``alpha`` and a checked ``tol``, together with the factors ``U`` and
    ``s`` of the unfolding's thin SVD, every singular value kept: ``U * s``
    is the factor :func:`nested_ranks` reads the nodes inside ``alpha``
    off."""
    U, s, _ = svd(unfold(v, alpha))
    r = svd_rank(s, tol)
    sub = SubspaceBasis(
        alpha=alpha, basis=U[:, :r], singular_values=s[:r], tol=tol
    )
    return sub, U, s


def tree_rank(v, tree, tol=DEFAULT_TOL):
    """Tree-based rank: minimal subspace dimensions at every tree node."""
    v = _tree_tensor(v, tree)
    return TreeRank(node_ranks(v, tree.nodes, check_tol(tol)))


def _tree_tensor(v, tree):
    """The validated nonzero tensor ``v``, checked against a valid tree
    over as many modes."""
    v = check_tensor(v, allow_zero=False)
    tree.ensure_valid()
    if tree.ndim != v.ndim:
        raise InvalidArgumentError(
            f"tree has {tree.ndim} modes, tensor has {v.ndim}"
        )
    return v


def node_ranks(v, blocks, tol):
    """Minimal subspace dimension of ``v`` at each distinct block.

    ``v`` must have passed :func:`check_tensor` with ``allow_zero=False``,
    the blocks must be normalized and ``tol`` checked.  Each block costs
    one SVD without factors, thresholded as in :func:`minimal_subspace`.
    """
    ranks = {}
    for b in blocks:
        if b not in ranks:
            ranks[b] = svd_rank(
                np.linalg.svd(unfold(v, b), compute_uv=False), tol
            )
    return ranks


def unfolding_plan(shapes, requests):
    """Gather plan of unfoldings of arrays of the given ``shapes`` laid end
    to end in one flat vector.  ``requests`` holds ``(piece, axes)`` pairs:
    the unfolding of array ``piece`` with ``axes`` as its row index, the
    other axes in order as its columns (as ``np.moveaxis(a, axes, ...)``
    reshaped).  Returns one ``(positions, index)`` pair per distinct matrix
    shape, in order of first request: the requests' positions and the
    read-only ``k x m x n`` flat index of their stacked matrices.

    The plan is kept or built afresh by the size rule of
    :func:`~treegeom.tensor.planned`."""
    entries = sum(prod(shapes[piece]) for piece, _ in requests)
    return planned(_kept_plan, _build_plan, entries, shapes, requests)


def _build_plan(shapes, requests):
    offsets = np.cumsum([0] + [prod(s) for s in shapes])
    groups = {}
    for j, (piece, axes) in enumerate(requests):
        shp = shapes[piece]
        flat = np.arange(offsets[piece], offsets[piece + 1]).reshape(shp)
        M = np.moveaxis(flat, axes, range(len(axes))).reshape(
            prod(shp[a] for a in axes), -1)
        groups.setdefault(M.shape, []).append((j, M))
    plan = []
    for members in groups.values():
        index = np.stack([M for _, M in members])
        index.flags.writeable = False
        plan.append((tuple(j for j, _ in members), index))
    return tuple(plan)


_kept_plan = lru_cache(maxsize=256)(_build_plan)


@lru_cache(maxsize=256)
def _nested_requests(tree, shape, columns):
    """The nodes strictly inside each level-1 block of ``columns`` (pairs
    ``(b, p)``, one ``n_b x p`` factor per block), the factors' shapes
    (``b``'s mode sizes, then ``p``) and each node's :func:`unfolding_plan`
    request."""
    nodes, shapes, requests = [], [], []
    for piece, (b, p) in enumerate(columns):
        shapes.append(tuple(shape[m - 1] for m in b) + (p,))
        for node in sorted(tree.nodes):
            if len(node) < len(b) and set(node) <= set(b):
                nodes.append(node)
                requests.append((piece, tuple(b.index(m) for m in node)))
    return tuple(nodes), tuple(shapes), tuple(requests)


def nested_ranks(tree, factors, shape, tol):
    """Rank at every tree node strictly inside each level-1 block ``b`` of
    ``factors`` (``{b: X_b}``, ``X_b`` an ``n_b x p`` factor of the
    tensor's ``b``-unfolding ``X_b Q^T`` with ``Q`` orthonormal, such as
    ``U S`` of its SVD).

    A node ``beta`` inside ``b`` has the unfolding ``unfold_beta(X_b)
    (I (x) Q^T)``, so its singular values are those of ``X_b``'s own
    ``beta``-unfolding, with ``b``'s other modes and the ``p`` axis as
    columns.  These are stacked by shape, one SVD without factors per
    distinct shape, and thresholded as in :func:`minimal_subspace`; the
    tensor itself is not unfolded again."""
    columns = tuple((b, X.shape[1]) for b, X in factors.items())
    nodes, shapes, requests = _nested_requests(tree, tuple(shape), columns)
    if not nodes:
        return {}
    flat = np.concatenate([X.ravel() for X in factors.values()])
    ranks = {}
    for positions, index in unfolding_plan(shapes, requests):
        # the batched call runs the same LAPACK routine on each matrix as a
        # call on that matrix alone
        found = svd_rank(np.linalg.svd(flat[index], compute_uv=False), tol)
        ranks.update(zip((nodes[j] for j in positions), found.tolist()))
    return ranks


def check_nestedness(v, alpha, sub_partition, tol=DEFAULT_TOL):
    """Residual of the minimal subspace at ``alpha`` against the tensor
    product of the minimal subspaces of a sub-partition of ``alpha``.

    Returns the Frobenius norm of the component of the ``alpha`` basis lying
    outside the product of the finer subspaces; the nesting relation says
    this vanishes, so the residual is numerical noise for exact-rank inputs.
    """
    v = check_tensor(v, allow_zero=False)
    alpha = normalize_modes(alpha, v.ndim)
    blocks = sorted_blocks(normalize_modes(b, v.ndim) for b in sub_partition)
    covered = [m for b in blocks for m in b]
    if sorted(covered) != list(alpha):
        raise InvalidArgumentError(
            f"{list(blocks)} is not a partition of {alpha}"
        )
    check_tol(tol)
    big = factored_subspace(v, alpha, tol)[0]
    W = big.basis.reshape([v.shape[a - 1] for a in alpha] + [big.rank])
    fine = [factored_subspace(v, b, tol)[0].basis for b in blocks]
    proj = push_blocks(pull_blocks(W, fine, blocks, v.shape), fine, blocks,
                       v.shape)
    return float(np.linalg.norm(W - proj))


def check_chain(v, tree, tol=DEFAULT_TOL):
    """Per-level residuals of ``v`` against the product of its minimal
    subspaces over each level partition.

    Returns a dict mapping level k to the norm of the component of ``v``
    outside the tensor product of the level-k minimal subspaces.  All
    residuals are numerical noise: the chain of inclusions holds for every
    tensor.
    """
    v = _tree_tensor(v, tree)
    check_tol(tol)
    blocks = {
        b for k in range(1, levels(tree).depth + 1)
        for b in level_partition(tree, k)
    }
    return chain_residuals(
        v, tree, {b: factored_subspace(v, b, tol)[0].basis for b in blocks}
    )


def chain_residuals(v, tree, bases):
    """:func:`check_chain` of a validated ``v`` given the minimal subspace
    basis of (at least) every level block."""
    residuals = {}
    for k in range(1, levels(tree).depth + 1):
        blocks = level_partition(tree, k)
        U = [bases[b] for b in blocks]
        proj = push_blocks(pull_blocks(v, U, blocks, v.shape), U, blocks,
                           v.shape)
        residuals[k] = float(np.linalg.norm(v - proj))
    return residuals


# ---------------------------------------------------------------------------
# Rank tuple JSON: {"ranks": [{"block": [...], "r": k}, ...]}
# ---------------------------------------------------------------------------


def ranks_to_json(r):
    entries = [{"block": list(node), "r": val} for node, val in r.items()]
    return json.dumps({"ranks": entries})


def ranks_from_json(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid rank JSON: {e}") from e
    if not isinstance(doc, dict) or not isinstance(doc.get("ranks"), list):
        raise ParseError("rank JSON must be an object with a 'ranks' list")
    ranks = {}
    for entry in doc["ranks"]:
        if (
            not isinstance(entry, dict)
            or "block" not in entry
            or "r" not in entry
        ):
            raise ParseError(f"invalid rank entry {entry!r}")
        # JSON booleans load as bool, a subclass of int: they are no modes
        # or ranks here
        block = entry["block"]
        if not isinstance(block, list) or any(type(m) is not int
                                              for m in block):
            raise ParseError(f"invalid block {block!r} in rank entry")
        block = tuple(sorted(block))
        val = entry["r"]
        if type(val) is not int or val < 1:
            raise ParseError(f"rank for block {list(block)} must be a positive integer")
        if block in ranks:
            raise ParseError(f"duplicate rank entry for block {list(block)}")
        ranks[block] = val
    return TreeRank(ranks)
