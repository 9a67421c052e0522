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

:func:`assemble_laplacian` and :func:`decompose_laplacian` work with dense
``N x N`` matrices on the full tensor space (``N`` the total dimension).
They are oracles and cross-checks; the chart and tangent paths use only the
per-block pieces (:func:`split`, :func:`tree_splits`, :func:`lifted_part`)
and work in level-1 block spaces, and of the chart functions only
``level_inverse_operator`` returns an ``N x N`` operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .errors import InvalidArgumentError, NotInSpaceError
from .subspaces import DEFAULT_TOL, _minimal_subspace
from .tensor import (
    _svd,
    block_transpose_permutation,
    check_tensor,
    embed_block_operator,
    normalize_modes,
    sorted_blocks,
)

__all__ = [
    "SplitSpace",
    "LaplacianLike",
    "split",
    "tree_splits",
    "lifted_part",
    "assemble_laplacian",
    "decompose_laplacian",
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
    return _split(v, normalize_modes(alpha, v.ndim), tol)


def _split(v, alpha, tol):
    """:func:`split` of a ``v`` already passed through :func:`check_tensor`
    with ``allow_zero=False``, at a normalized ``alpha``."""
    sub = _minimal_subspace(v, alpha, tol)
    U_full, _, _ = _svd(sub.basis, full_matrices=True)
    return SplitSpace(alpha=alpha, u=sub.basis, w=U_full[:, sub.rank:])


def tree_splits(v, tree, tol=DEFAULT_TOL):
    """:func:`split` at every non-root node of ``tree``, keyed by node."""
    return {node: split(v, node, tol) for node in tree.nodes
            if node != tree.root}


def _tree_splits(v, tree, tol):
    """:func:`tree_splits` of a ``v`` already passed through
    :func:`check_tensor` with ``allow_zero=False``, for a valid tree over
    ``v``'s modes: each node costs its two SVDs and nothing else."""
    return {node: _split(v, node, tol) for node in tree.nodes
            if node != tree.root}


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


def _check_splits(L, splits):
    out = {}
    for b in L.partition:
        key = tuple(sorted(b))
        if key not in splits:
            raise InvalidArgumentError(f"no split available for block {key}")
        out[key] = splits[key]
    return out


def assemble_laplacian(L, splits, shape):
    """Dense matrix of the Laplacian-like operator on the full tensor space:
    the sum over blocks of the lifted part embedded with identities."""
    splits = _check_splits(L, splits)
    N = prod(shape)
    out = np.zeros((N, N))
    for b in L.partition:
        s = splits[b]
        if s.ambient_dim != prod(shape[m - 1] for m in b):
            raise InvalidArgumentError(
                f"split at {b} does not match tensor shape {shape}"
            )
        out += embed_block_operator(lifted_part(s, L.parts[b]), b, shape)
    return out


def _block_partial_trace(Lop, alpha, shape):
    """Partial trace of a dense operator over all modes outside ``alpha``:
    the unique block matrix ``T`` with <Lop, M (x) id> = <T, M> for every
    block operator M."""
    N = prod(shape)
    n_alpha = prod(shape[m - 1] for m in alpha)
    n_rest = N // n_alpha
    perm = block_transpose_permutation(shape, alpha)
    P = Lop[np.ix_(perm, perm)]
    return np.einsum("arbr->ab", P.reshape(n_alpha, n_rest, n_alpha, n_rest))


def decompose_laplacian(Lop, partition, splits, shape, tol=DEFAULT_TOL):
    """Recover the per-block coefficients of an operator in the level space.

    The embedded elementary operators for distinct blocks are orthogonal in
    the Frobenius inner product, so the least-squares coefficients are
    obtained block by block from partial traces.  The decomposition is then
    verified: if reassembling misses ``Lop`` by more than ``tol`` relative,
    the operator is not in the space and an error carrying the residual is
    raised.
    """
    Lop = np.asarray(Lop, dtype=float)
    N = prod(shape)
    if Lop.shape != (N, N):
        raise InvalidArgumentError(f"operator must be {N}x{N}")
    blocks = sorted_blocks(partition)
    parts = {}
    for b in blocks:
        s = splits[b]
        n_rest = N // s.ambient_dim
        T = _block_partial_trace(Lop, b, shape)
        parts[b] = (s.w.T @ T @ s.u) / n_rest
    L = LaplacianLike(partition=blocks, parts=parts)
    nrm = np.linalg.norm(Lop)
    residual = float(np.linalg.norm(assemble_laplacian(L, splits, shape) - Lop))
    if residual > tol * max(nrm, 1e-300):
        raise NotInSpaceError(
            f"operator is not in the level operator space for partition "
            f"{[set(b) for b in blocks]}", residual
        )
    return L

