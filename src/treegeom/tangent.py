"""Level operator spaces, their intersection, and tangent dimension checks.

The level-k operator space at a tensor is the direct sum, over the blocks of
the level-k partition, of the maps sending the block's minimal subspace into
its orthogonal complement, tensored with the identity on the other blocks.
Operators are flattened to vectors with the Frobenius inner product, which
fixes the metric used for all bases and projectors here.

Every block of a level k >= 2 lies inside exactly one level-1 block ``b``,
and operators living on different level-1 blocks are trace-orthogonal.  So
each level space, and their intersection, splits into one part per level-1
block, and each part lives in ``b``'s own ``n_b x n_b`` operator space:
``A -> (A (x) I_rest) / sqrt(n_rest)`` is an isometry onto the full space.
The library paths work in these block spaces: :func:`tree_operator_basis`
keeps, per block ``b`` and level ``k``, only ``R_{b,k}``, the R factor of
the level-1 basis's residual off the level-k basis.  The intersection is
the null space of the stacked factors; :func:`immersion_check` and the
charts read the factors and the intersection from there.  The same
functions called on the full shape (:func:`level_operator_basis`,
:func:`intersect_operator_spaces`) give the dense ``N^2``-long form, kept as
the test oracle.

The intersection of the level spaces over all levels composes, with the
level-1 core space, the model space of the local charts.  Its dimension is
compared against two independent numbers: the rank of the exact Jacobian of
the full tree-network parametrization, and a closed-form parameter count.
For depth-1 trees all three agree.  For deeper trees the operator-space
intersection is strictly smaller than the network dimension (interior
subspace motions are not expressible as level-wise complement maps that
vanish on every deeper complement), and the report surfaces the three
numbers side by side instead of reconciling them.

Every entry point anchored at a tensor starts with the membership
precondition :func:`~treegeom.formats.require_member` and builds on the
splits it returns.  The Jacobian oracle reads its network parameters off
them, checks through the tree-network contraction of :mod:`treegeom.formats`
(which owns the tree network) that they reproduce the tensor, and writes
each node's block of columns in closed form: the tensor is linear in each
node's parameters, so one Kronecker product per node gives them, one
variation per node with the others fixed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import prod

import numpy as np

from .errors import InvalidArgumentError, NotOnManifoldError
from .formats import (
    _son_lift,
    contract_network,
    network_dimension_formula,
    require_member,
)
from .operators import lifted_part
from .subspaces import DEFAULT_TOL
from .tensor import (
    block_transpose_permutation,
    embed_block_operator,
    sorted_blocks,
    svd,
    svd_rank,
)
from .trees import level_partition, levels

__all__ = [
    "OperatorSpaceBasis",
    "BlockOperatorBasis",
    "TangentReport",
    "ImmersionReport",
    "level_operator_basis",
    "intersect_operator_spaces",
    "tree_operator_basis",
    "network_dimension_formula",
    "parametrization_jacobian",
    "tangent_dimension_oracle",
    "tangent_dimension",
    "immersion_check",
]


@dataclass(frozen=True, eq=False)
class OperatorSpaceBasis:
    """Orthonormal basis of a space of operators on a tensor space.

    ``vectors`` has one flattened n*n operator per column.
    """

    vectors: np.ndarray

    @property
    def dim(self):
        return self.vectors.shape[1]

    def operator(self, coords):
        """Assemble the dense operator with the given coordinates."""
        coords = np.asarray(coords, dtype=float)
        if coords.shape != (self.dim,):
            raise InvalidArgumentError(
                f"expected {self.dim} coordinates, got {coords.shape}"
            )
        n = int(round(np.sqrt(self.vectors.shape[0])))
        return (self.vectors @ coords).reshape(n, n)

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
    dimension is the sum over blocks of rank times corank.
    """
    N = prod(shape)
    blocks = sorted_blocks(partition)
    dims = [splits[b].rank * splits[b].corank for b in blocks]
    vectors = np.zeros((N * N, sum(dims)))
    # row-major (N, N, dim) view: entry [x, y, c] of column c's operator
    ops = vectors.reshape(N, N, -1)
    start = 0
    for b, dim in zip(blocks, dims):
        s = splits[b]
        if s.ambient_dim != prod(shape[m - 1] for m in b):
            raise InvalidArgumentError(
                f"split at {b} does not match tensor shape {shape}"
            )
        n_rest = N // s.ambient_dim
        # flat index of (block index, rest index) in the tensor's layout
        flat = block_transpose_permutation(shape, b).reshape(-1, n_rest)
        # E[x, y, j * corank + i] = w_i[x] u_j[y]: the elementary operators
        # in the order (j, i), each acting as identity on the other modes
        E = np.einsum("xi,yj->xyji", s.w, s.u).reshape(
            s.ambient_dim, s.ambient_dim, dim
        )
        ops[flat[:, None, :], flat[None, :, :], start:start + dim] = (
            E[:, :, None, :] / np.sqrt(n_rest)
        )
        start += dim
    return OperatorSpaceBasis(vectors=vectors)


def _residual_factor(first, other):
    """R factor of the QR of the first basis's residual off the other's span:
    it has the residual's singular values and right singular vectors."""
    A = first.vectors - other.vectors @ (other.vectors.T @ first.vectors)
    return np.linalg.qr(A, mode="r")


def _factor_spectrum(factors, dim):
    """Singular values and right singular vectors of residual factors with
    ``dim`` columns stacked, which are those of the residuals stacked."""
    R = np.vstack([np.zeros((0, dim)), *factors])
    if R.size == 0:
        return np.zeros(0), np.eye(dim)
    _, s, Vt = svd(R)
    return s, Vt


def _null_coefficients(s, Vt, reference, tol):
    """Right singular vectors whose singular value is at most
    ``tol * reference`` (all of them when the reference is zero), as
    columns."""
    if reference > 0:
        null_mask = np.concatenate([
            s <= tol * reference, np.ones(Vt.shape[0] - s.size, dtype=bool)
        ])
    else:
        null_mask = np.ones(Vt.shape[0], dtype=bool)
    return Vt[null_mask].T


def intersect_operator_spaces(bases, tol=DEFAULT_TOL):
    """Orthonormal basis of the intersection of operator spaces.

    A vector of the first space lies in the intersection iff the complement
    projector of every other space annihilates it; the intersection is the
    nullspace, at the given tolerance, of those complement projectors
    restricted to the first basis, read off their residual factors.
    """
    if not bases:
        raise InvalidArgumentError("need at least one operator space")
    first = bases[0]
    s, Vt = _factor_spectrum(
        [_residual_factor(first, other)
         for other in bases[1:] if other is not first],
        first.dim,
    )
    reference = s[0] if s.size else 0.0
    null = _null_coefficients(s, Vt, reference, tol)
    return OperatorSpaceBasis(vectors=bases[0].vectors @ null)


@dataclass(frozen=True, eq=False)
class _BlockSpace:
    """One level-1 block ``b`` seen on its own.

    ``shape`` is ``b``'s sub-shape and ``n_rest`` the dimension of the modes
    outside it; ``splits`` holds the splits of the tree nodes inside ``b``
    re-keyed to local modes ``1..len(b)`` (``b`` itself is the local root);
    ``partitions`` holds every level partition restricted to ``b``, in
    local modes.
    """

    block: tuple
    shape: tuple
    n_rest: int
    splits: dict
    partitions: tuple

    @property
    def split(self):
        """The split at ``b`` itself, in local modes."""
        return self.splits[tuple(range(1, len(self.block) + 1))]

    def residual_factors(self):
        """One :func:`_residual_factor` of the level-1 basis per level, one
        level basis at a time; a level restricting to the level-1 partition
        gets none (no rows), and coinciding levels share one."""
        first = level_operator_basis(
            self.partitions[0], self.splits, self.shape
        )
        factors = {self.partitions[0]: np.zeros((0, first.dim))}
        for p in self.partitions[1:]:
            if p not in factors:
                factors[p] = _residual_factor(
                    first, level_operator_basis(p, self.splits, self.shape)
                )
        return tuple(factors[p] for p in self.partitions)


def _localize(block, node):
    """The modes of ``node`` (inside ``block``) renumbered ``1..len(block)``
    in ``block``'s order."""
    return tuple(block.index(m) + 1 for m in node)


def _block_spaces(tree, splits, shape):
    """One :class:`_BlockSpace` per level-1 block, in level-1 block order."""
    depth = levels(tree).depth
    partitions = [level_partition(tree, k) for k in range(1, depth + 1)]
    spaces = []
    for b in partitions[0]:
        n_b = prod(shape[m - 1] for m in b)
        spaces.append(_BlockSpace(
            block=b,
            shape=tuple(shape[m - 1] for m in b),
            n_rest=prod(shape) // n_b,
            splits={
                _localize(b, a): replace(s, alpha=_localize(b, a))
                for a, s in splits.items() if set(a) <= set(b)
            },
            partitions=tuple(
                tuple(_localize(b, a) for a in p if set(a) <= set(b))
                for p in partitions
            ),
        ))
    return tuple(spaces)


@dataclass(frozen=True, eq=False)
class BlockOperatorBasis:
    """Orthonormal basis of the intersection of the level operator spaces,
    factored over the level-1 blocks.

    ``null[i]`` holds, one column per basis vector, the coefficients of
    block ``spaces[i]``'s part of the intersection in that block's level-1
    basis (``level_operator_basis`` of the local root).  Coordinates are
    concatenated block by block.  ``factors[i][k - 1]`` is ``R_{b,k}``, which
    maps those coefficients to their residual off level ``k`` up to an
    orthonormal factor.  ``singular_values`` are those of the stacked
    factors (the dense intersection's spectrum), largest first; the null
    space was decided against the largest of them.

    :meth:`parts` and :meth:`part_coordinates` map between coordinates and
    level-1 coefficients ``C_b``: coordinates are
    ``sqrt(n_rest) Q^T vec(C_b^T)``, block by block, and nothing is
    assembled.  ``vectors`` builds the dense ``N^2``-long basis on demand,
    for oracles only.
    """

    shape: tuple
    spaces: tuple
    null: tuple
    factors: tuple
    singular_values: np.ndarray

    @property
    def dim(self):
        return sum(Q.shape[1] for Q in self.null)

    def _slices(self):
        start = 0
        for space, Q in zip(self.spaces, self.null):
            yield space, Q, slice(start, start + Q.shape[1])
            start += Q.shape[1]

    def parts(self, coords):
        """Level-1 coefficients ``{b: C_b}`` of the operator with the given
        coordinates (``C_b`` is ``corank x rank`` in the split at ``b``)."""
        coords = np.asarray(coords, dtype=float)
        if coords.shape != (self.dim,):
            raise InvalidArgumentError(
                f"expected {self.dim} coordinates, got {coords.shape}"
            )
        out = {}
        for space, Q, sl in self._slices():
            s = space.split
            c = Q @ coords[sl] / np.sqrt(space.n_rest)
            out[space.block] = c.reshape(s.rank, s.corank).T
        return out

    def part_coordinates(self, parts):
        """Coordinates of the operator with level-1 coefficients ``parts``
        (``{b: C_b}``, as :meth:`parts` returns them), the norm of its
        residual off the intersection, and the norm of the operator.

        The split bases are orthonormal, so both norms are those of the
        coefficients times ``sqrt(n_rest)``."""
        coords = np.zeros(self.dim)
        resid_sq = 0.0
        norm_sq = 0.0
        for space, Q, sl in self._slices():
            c = np.sqrt(space.n_rest) * parts[space.block].T.ravel()
            coords[sl] = Q.T @ c
            resid_sq += np.linalg.norm(c - Q @ coords[sl]) ** 2
            norm_sq += np.linalg.norm(c) ** 2
        return coords, float(np.sqrt(resid_sq)), float(np.sqrt(norm_sq))

    def level_residual(self, parts, k):
        """Norm of the residual of the operator with level-1 coefficients
        ``parts`` off the level-``k`` operator space,
        ``sqrt(sum_b n_rest ||R_{b,k} vec(C_b^T)||^2)``."""
        resid_sq = sum(
            space.n_rest
            * np.linalg.norm(R[k - 1] @ parts[space.block].T.ravel()) ** 2
            for space, R in zip(self.spaces, self.factors)
        )
        return float(np.sqrt(resid_sq))

    @property
    def vectors(self):
        """Dense ``N^2 x dim`` orthonormal basis (oracle; built on every
        access, never cached)."""
        N = prod(self.shape)
        columns = []
        for space, Q, _ in self._slices():
            s = space.split
            for c in Q.T:
                C = c.reshape(s.rank, s.corank).T / np.sqrt(space.n_rest)
                columns.append(embed_block_operator(
                    lifted_part(s, C), space.block, self.shape
                ).ravel())
        return np.column_stack(columns) if columns else np.zeros((N * N, 0))


def tree_operator_basis(tree, splits, shape, tol=DEFAULT_TOL):
    """Intersection of all level operator spaces of ``tree``, factored over
    the level-1 blocks.

    Calls :func:`level_operator_basis` on each level-1 block's sub-shape
    and intersects there; the dimension and the nonzero singular values are
    those of :func:`intersect_operator_spaces` on the full level bases.
    """
    spaces = _block_spaces(tree, splits, shape)
    # one level basis at a time: only the residual factors are kept
    factors = tuple(space.residual_factors() for space in spaces)
    spectra = [_factor_spectrum(f, f[0].shape[1]) for f in factors]
    # every block's null space is decided against the largest residual
    # singular value of all blocks, as one dense SVD of the whole stack would
    values = np.sort(np.concatenate([s for s, _ in spectra]))[::-1]
    reference = values[0] if values.size else 0.0
    return BlockOperatorBasis(
        shape=tuple(shape), spaces=spaces,
        null=tuple(_null_coefficients(s, Vt, reference, tol)
                   for s, Vt in spectra),
        factors=factors,
        singular_values=values,
    )


def _network_parameters(v, tree, splits):
    """A tree-network parameter point reproducing ``v``: the bases of
    ``splits`` at every non-root node, interior transfer coefficients, root
    block."""
    shape = v.shape
    bases = {node: s.u for node, s in splits.items()}
    transfers = {}
    for node in tree.sons:
        G = _son_lift(tree, node, bases, shape)
        if node == tree.root:
            transfers[node] = G.T @ v.ravel()
        else:
            transfers[node] = G.T @ bases[node]
    leaf_factors = {leaf: bases[leaf] for leaf in tree.leaves}
    return leaf_factors, transfers


def _jacobian(v, tree, splits):
    """:func:`parametrization_jacobian` at a member ``v`` with its
    ``splits``."""
    v = v / np.linalg.norm(v)
    shape = v.shape
    leaf_factors, transfers = _network_parameters(v, tree, splits)
    v_rec = contract_network(tree, shape, leaf_factors, transfers)
    rec_err = np.linalg.norm(v_rec - v)
    if rec_err > 1e-8:
        raise NotOnManifoldError(
            f"network parametrization recovery failed (error {rec_err:.3e})"
        )
    bases = {node: s.u for node, s in splits.items()}
    blocks = []
    for node in sorted(leaf_factors) + sorted(transfers):
        lift = (_son_lift(tree, node, bases, shape) if node in transfers
                else np.eye(shape[node[0] - 1]))
        if node == tree.root:
            blocks.append(lift)
            continue
        # rows in (node, rest) order: the tensor is linear in u_node, with
        # coefficient u_node^T unfold(v, node) on the modes outside the node
        perm = block_transpose_permutation(shape, node)
        coeff = bases[node].T @ v.ravel()[perm].reshape(lift.shape[0], -1)
        block = np.empty((v.size, lift.shape[1] * coeff.shape[0]))
        block[perm] = np.kron(lift, coeff.T)
        blocks.append(block)
    return np.hstack(blocks)


def parametrization_jacobian(v, tree, r, tol=DEFAULT_TOL):
    """Jacobian of the tree-network parameters-to-tensor map at ``v``.

    The normalized tensor is reproduced exactly by a tree-network parameter
    point whose node bases are the splits' orthonormal ``u``.  The map is
    linear in each parameter block, so node ``a``'s columns are closed form:
    entry ``(p, j)`` of its block moves the tensor by ``lift_a[:, p]``
    (the identity at a leaf, the sons' lifted bases inside) tensored with
    row ``j`` of ``u_a^T unfold(v, a)``, the tensor's coefficients on the
    modes outside ``a`` (1 at the root).  One column per parameter entry
    (leaf factors, then interior transfers and the root block, each in node
    order and row-major within the block); rows run over the flattened
    tensor.
    """
    v, splits = require_member(v, tree, r, tol)
    return _jacobian(v, tree, splits)


def tangent_dimension_oracle(v, tree, r, tol=DEFAULT_TOL):
    """Manifold dimension as the numerical rank of the parametrization
    Jacobian, at the threshold ``tol`` relative to its largest singular
    value, as every rank decision of the library is read."""
    v, splits = require_member(v, tree, r, tol)
    return _jacobian_rank(v, tree, splits, tol)


def _jacobian_rank(v, tree, splits, tol):
    """Numerical rank of :func:`_jacobian`, at the threshold of
    :func:`tangent_dimension_oracle`."""
    J = _jacobian(v, tree, splits)
    return svd_rank(np.linalg.svd(J, compute_uv=False), tol)


@dataclass(frozen=True)
class TangentReport:
    """Three independent tangent dimension computations side by side.

    ``dim_total`` is the operator-space intersection dimension plus the
    level-1 core dimension; ``oracle_dim`` the Jacobian rank of the network
    parametrization; ``formula_dim`` the closed-form parameter count.  The
    flag is true only when all three coincide; a gap is reported, never
    hidden.
    """

    dim_e: int
    dim_core: int
    dim_total: int
    oracle_dim: int
    formula_dim: int
    agree: bool

    def to_dict(self):
        return {
            "dim_operator_intersection": self.dim_e,
            "dim_core": self.dim_core,
            "dim_total": self.dim_total,
            "oracle_dim": self.oracle_dim,
            "formula_dim": self.formula_dim,
            "agree": self.agree,
        }


def tangent_dimension(v, tree, r, tol=DEFAULT_TOL):
    """Tangent report at a tensor with the prescribed rank profile."""
    v, splits = require_member(v, tree, r, tol)
    inter = tree_operator_basis(tree, splits, v.shape, tol)
    dim_core = prod(r[b] for b in level_partition(tree, 1))
    dim_total = inter.dim + dim_core
    oracle = _jacobian_rank(v, tree, splits, tol)
    formula = network_dimension_formula(tree, r, v.shape)
    return TangentReport(
        dim_e=inter.dim,
        dim_core=dim_core,
        dim_total=dim_total,
        oracle_dim=oracle,
        formula_dim=formula,
        agree=(dim_total == oracle == formula),
    )


@dataclass(frozen=True)
class ImmersionReport:
    level: int
    max_inclusion_residual: float
    coordinate_condition: float
    included: bool
    injective: bool
    dim_ok: bool

    @property
    def passed(self):
        return self.included and self.injective and self.dim_ok

    def to_dict(self):
        return {
            "level": self.level,
            "max_inclusion_residual": self.max_inclusion_residual,
            "coordinate_condition": self.coordinate_condition,
            "included": self.included,
            "injective": self.injective,
            "dim_ok": self.dim_ok,
            "passed": self.passed,
        }


def immersion_check(v, tree, r, k, tol=DEFAULT_TOL):
    """Inclusion of the intersected operator space into the level-k space.

    Requires membership: like :func:`tangent_dimension` and
    :func:`~treegeom.charts.tree_chart`, it raises
    :class:`NotOnManifoldError` unless ``v`` has the rank profile ``r``.
    Reads the intersection off :func:`tree_operator_basis` and verifies that
    every basis vector lies in the level-k space (projector residual), that
    the induced coordinate map has full column rank (condition number
    reported), and that the model dimension at the intersection does not
    exceed the level-k model dimension, ``sum(rank * corank)`` over the
    level-k splits plus the level-k core.  All of it is read per level-1
    block where the intersection is nonzero, off ``E = R_{b,k} Q_b``: the
    residuals are its column norms and the coordinate map's singular values
    are ``sqrt(1 - sigma(E)^2)``, read off ``I - E^T E``.  The map is block
    diagonal, so its singular values are those of the blocks together.
    """
    v, splits = require_member(v, tree, r, tol)
    depth = levels(tree).depth
    if not 1 <= k <= depth:
        raise InvalidArgumentError(f"level {k} out of range 1..{depth}")
    inter = tree_operator_basis(tree, splits, v.shape, tol)
    blocks_k = level_partition(tree, k)
    dim_k = sum(splits[b].rank * splits[b].corank for b in blocks_k)
    max_resid = 0.0
    sv = []
    for Q, R in zip(inter.null, inter.factors):
        if Q.shape[1] == 0:
            continue
        E = R[k - 1] @ Q
        max_resid = max(max_resid, float(np.max(np.linalg.norm(E, axis=0))))
        gram = np.eye(Q.shape[1]) - E.T @ E
        sv.append(np.sqrt(np.clip(np.linalg.eigvalsh(gram), 0.0, None)))
    if sv:
        s = np.concatenate(sv)
        injective = bool(s.min() > tol)
        cond = float(s.max() / s.min()) if injective else float("inf")
    else:
        injective = True
        cond = 1.0
    core_inter = prod(r[b] for b in level_partition(tree, 1))
    core_k = prod(r[b] for b in blocks_k)
    dim_ok = inter.dim + core_inter <= dim_k + core_k
    return ImmersionReport(
        level=k,
        max_inclusion_residual=max_resid,
        coordinate_condition=cond,
        included=max_resid <= max(tol, 1e-10),
        injective=injective,
        dim_ok=dim_ok,
    )
