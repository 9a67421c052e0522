"""Laplacian-like operators anchored at a tensor: splits and assembly.

For each mode block the ambient space splits orthogonally into the minimal
subspace ``U`` and its complement ``W``.  A Laplacian-like operator over a
partition is a sum, one term per block, of a map sending ``U`` into ``W``
(zero on ``W``) tensored with the identity on the remaining blocks.  Each
per-block term is nilpotent of order two, the terms for different blocks
commute, and the exponential of the sum factors into the product of
``I + term``.  The charts' forward map applies that product block by block
(:func:`~treegeom.charts.tucker_chart_point`); the tests check it against
the generic matrix exponential.

:func:`assemble_laplacian` is the one function here that builds a dense
``N x N`` matrix on the full tensor space (``N`` the total dimension).  It
adds each block's lifted part in place at one flat index per block, the
positions of ``M (x) I_rest`` in the output
(:func:`~treegeom.tensor.embedding_index`), so no Kronecker product with an
identity is formed.  Of the library paths only
:func:`~treegeom.charts.level_inverse_operator` calls it; the chart and
tangent paths use only the per-block pieces (:func:`split`,
:func:`tree_splits`, :func:`lifted_part`) and work in level-1 block spaces.
Its inverse, the partial-trace decomposition of a dense operator, is a test
oracle (``tests/oracles.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .errors import InvalidArgumentError
from .subspaces import DEFAULT_TOL, factored_subspace
from .tensor import (
    check_tensor,
    check_tol,
    embedding_index,
    normalize_modes,
    sorted_blocks,
    svd,
)

__all__ = [
    "SplitSpace",
    "LaplacianLike",
    "split",
    "lifted_part",
    "assemble_laplacian",
]


@dataclass(frozen=True, eq=False)
class SplitSpace:
    """Orthogonal split of a block's ambient space into basis ``u`` plus
    complement ``w``; ``[u | w]`` is square orthogonal."""

    alpha: tuple
    u: np.ndarray
    w: np.ndarray

    @property
    def ambient_dim(self):
        return self.u.shape[0]

    @property
    def rank(self):
        return self.u.shape[1]

    @property
    def corank(self):
        return self.w.shape[1]


@dataclass(frozen=True, eq=False)
class LaplacianLike:
    """Coefficients of a Laplacian-like operator over a partition.

    ``parts[alpha]`` holds the matrix of the block map in the split bases: a
    ``(corank, rank)`` array of coordinates sending ``u``-directions into
    ``w``-directions.
    """

    partition: tuple
    parts: dict

    def __post_init__(self):
        part_map = {
            tuple(sorted(k)): np.asarray(v, dtype=float)
            for k, v in self.parts.items()
        }
        blocks = sorted_blocks(self.partition)
        if set(part_map) != set(blocks):
            raise InvalidArgumentError(
                "coefficient blocks do not match the partition"
            )
        object.__setattr__(self, "partition", blocks)
        object.__setattr__(self, "parts", part_map)

    @classmethod
    def zeros(cls, splits, partition):
        parts = {
            b: np.zeros((splits[tuple(sorted(b))].corank,
                         splits[tuple(sorted(b))].rank))
            for b in partition
        }
        return cls(partition=tuple(partition), parts=parts)


def split(v, alpha, tol=DEFAULT_TOL):
    """Minimal subspace at ``alpha`` and its orthogonal complement.

    The complement is read off the full SVD of the ``n_alpha x rank`` basis,
    so ``[u | w]`` is orthogonal by construction and no array larger than
    ``n_alpha x n_alpha`` is formed besides the unfolding's thin SVD.
    """
    v = check_tensor(v, allow_zero=False)
    return _split(v, normalize_modes(alpha, v.ndim), check_tol(tol))


def tree_splits(v, tree, tol):
    """:func:`split` at every non-root node of ``tree``, keyed by node, of
    a ``v``, a tree over its modes and a ``tol`` already checked: each node
    costs its two SVDs and nothing else."""
    return {node: _split(v, node, tol) for node in tree.nodes
            if node != tree.root}


def _split(v, alpha, tol):
    sub = factored_subspace(v, alpha, tol)[0]
    U_full, _, _ = svd(sub.basis, full_matrices=True)
    return SplitSpace(alpha=alpha, u=sub.basis, w=U_full[:, sub.rank:])


def lifted_part(s, C):
    """Block operator ``w C u^T``: sends span(u) into span(w), kills span(w).

    Nilpotent of order two by construction.
    """
    C = np.asarray(C, dtype=float)
    if C.shape != (s.corank, s.rank):
        raise InvalidArgumentError(
            f"coefficients for block {s.alpha} must be "
            f"{s.corank}x{s.rank}, got {C.shape}"
        )
    return s.w @ C @ s.u.T


def _check_splits(blocks, splits):
    out = {}
    for b in blocks:
        key = tuple(sorted(b))
        if key not in splits:
            raise InvalidArgumentError(f"no split available for block {key}")
        out[key] = splits[key]
    return out


def assemble_laplacian(L, splits, shape):
    """Dense matrix of the Laplacian-like operator on the full tensor space:
    the sum over blocks of the lifted part embedded with identities.

    Each block's entries are added in place through its embedding index
    (:func:`~treegeom.tensor.embedding_index`), in partition order; blocks
    share only the diagonal, so the output is the only ``N x N`` array."""
    splits = _check_splits(L.partition, splits)
    N = prod(shape)
    out = np.zeros(N * N)
    for b in L.partition:
        s = splits[b]
        alpha = normalize_modes(b, len(shape))
        if s.ambient_dim != prod(shape[m - 1] for m in alpha):
            raise InvalidArgumentError(
                f"split at {b} does not match tensor shape {shape}"
            )
        out[embedding_index(shape, alpha)] += \
            lifted_part(s, L.parts[b])[:, :, None]
    return out.reshape(N, N)
