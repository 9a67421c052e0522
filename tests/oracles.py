"""Dense operator-space oracles on the full tensor space.

The library builds the intersection of the level operator spaces one
level-1 block at a time (:func:`treegeom.tangent.tree_operator_basis`) and
decomposes no dense operator.  The references here work on the whole
``N``-dimensional space instead: every level space gets an orthonormal
basis of ``N^2``-long flattened operators, the intersection is read off one
dense SVD of the stacked residual factors, and a dense operator is split
into per-block coefficients by partial traces.  They cost ``O(N^2)`` memory
per basis vector, so they are for the small shapes of the tests only, and
they take no private name from :mod:`treegeom`, so they share no code with
what they check.
"""

from math import prod

import numpy as np

from treegeom.operators import LaplacianLike, assemble_laplacian
from treegeom.subspaces import DEFAULT_TOL
from treegeom.tensor import embedding_index, sorted_blocks


class NotInSpaceError(Exception):
    """An operator does not lie in the requested operator space."""

    def __init__(self, message, residual):
        self.residual = residual
        super().__init__(f"{message} (residual {residual:.3e})")


class OperatorSpaceBasis:
    """Orthonormal basis of a space of operators on a tensor space.

    ``vectors`` has one flattened ``N x N`` operator per column.
    """

    def __init__(self, vectors):
        self.vectors = vectors

    @property
    def dim(self):
        return self.vectors.shape[1]

    def operator(self, coords):
        """The dense operator with the given coordinates."""
        n = int(round(np.sqrt(self.vectors.shape[0])))
        return (self.vectors @ np.asarray(coords, dtype=float)).reshape(n, n)

    def coordinates(self, op):
        """Orthogonal coordinates of a dense operator and the residual norm."""
        vec = np.asarray(op, dtype=float).ravel()
        coords = self.vectors.T @ vec
        residual = float(np.linalg.norm(vec - self.vectors @ coords))
        return coords, residual


def level_operator_basis(partition, splits, shape):
    """Orthonormal basis of the level operator space for one partition.

    The elementary operators (one complement direction times one subspace
    direction per block, identity elsewhere) are exactly orthogonal across
    and within blocks, so the basis is obtained by normalization alone.  The
    dimension is the sum over blocks of rank times corank; block ``b``'s
    column ``j * corank + i`` is ``w_i u_j^T`` embedded, the coefficient
    order of :class:`~treegeom.tangent.BlockOperatorBasis`.
    """
    N = prod(shape)
    blocks = sorted_blocks(partition)
    dims = [splits[b].rank * splits[b].corank for b in blocks]
    vectors = np.zeros((N * N, sum(dims)))
    start = 0
    for b, dim in zip(blocks, dims):
        s = splits[b]
        # E[x, y, j * corank + i] = w_i[x] u_j[y]: the elementary operators
        # in the order (j, i), each acting as identity on the other modes
        E = np.einsum("xi,yj->xyji", s.w, s.u).reshape(
            s.ambient_dim, s.ambient_dim, dim
        )
        vectors[embedding_index(shape, b), start:start + dim] = (
            E[:, :, None, :] / np.sqrt(N // s.ambient_dim)
        )
        start += dim
    return OperatorSpaceBasis(vectors)


def residual_factor(first, other):
    """R factor of the QR of the first basis's residual off the other's span:
    it has the residual's singular values and right singular vectors."""
    A = first.vectors - other.vectors @ (other.vectors.T @ first.vectors)
    return np.linalg.qr(A, mode="r")


def intersect_operator_spaces(bases, tol=DEFAULT_TOL):
    """Orthonormal basis of the intersection of operator spaces.

    A vector of the first space lies in the intersection iff the complement
    projector of every other space annihilates it; the intersection is the
    null space, at ``tol`` relative to the largest singular value, of the
    stacked residual factors, read off their full SVD (all of the first
    space when nothing is stacked or the stack is zero).
    """
    first = bases[0]
    stack = np.vstack([np.zeros((0, first.dim))] + [
        residual_factor(first, other) for other in bases[1:]
        if other is not first
    ])
    _, s, Vt = np.linalg.svd(stack, full_matrices=True)
    kept = np.count_nonzero(s > tol * s[0]) if s.size else 0
    return OperatorSpaceBasis(first.vectors @ Vt[kept:].T)


def decompose_laplacian(Lop, partition, splits, shape, tol=DEFAULT_TOL):
    """Per-block coefficients of a dense operator in the level space.

    The embedded elementary operators for distinct blocks are orthogonal in
    the Frobenius inner product, so the least-squares coefficients are
    obtained block by block from partial traces.  The decomposition is then
    verified: if reassembling misses ``Lop`` by more than ``tol`` relative,
    both measured on the operators divided by ``max|Lop|`` so that the
    verdict does not depend on scale, :class:`NotInSpaceError` is raised,
    carrying the absolute residual.
    """
    Lop = np.asarray(Lop, dtype=float)
    N = prod(shape)
    blocks = sorted_blocks(partition)
    parts = {}
    for b in blocks:
        s = splits[b]
        # partial trace over the modes outside b: the block matrix T with
        # <Lop, M (x) id> = <T, M> for every block operator M
        T = Lop.reshape(-1)[embedding_index(shape, b)].sum(axis=2)
        parts[b] = (s.w.T @ T @ s.u) / (N // s.ambient_dim)
    L = LaplacianLike(partition=blocks, parts=parts)
    # decided on the operators divided by max|Lop|, so that neither norm
    # overflows or underflows
    scale = np.max(np.abs(Lop))
    if scale == 0.0:
        return L
    diff = float(np.linalg.norm((assemble_laplacian(L, splits, shape) - Lop)
                                / scale))
    if not diff <= tol * np.linalg.norm(Lop / scale):
        raise NotInSpaceError(
            f"operator is not in the level operator space for partition "
            f"{[set(b) for b in blocks]}", float(scale * diff)
        )
    return L
