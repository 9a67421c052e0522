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
The library paths (:func:`tree_operator_basis`, :func:`tangent_dimension`,
:func:`immersion_check`) work in these block spaces; the same functions
called on the full shape (:func:`level_operator_basis`,
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
splits it returns; the Jacobian oracle reads its network parameters off them
and evaluates them through the tree-network contraction of
:mod:`treegeom.formats`, which owns the tree network.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from math import prod

import numpy as np

from .errors import InvalidArgumentError, NotOnManifoldError
from .formats import _son_lift, contract_network, require_member
from .operators import LaplacianLike, assemble_laplacian, lifted_part
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

    label: str
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


def level_operator_basis(partition, splits, shape, label=None):
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
    return OperatorSpaceBasis(
        label=label or f"level:{blocks}", vectors=vectors
    )


def _residual_spectrum(bases):
    """Singular values and right singular vectors of the first basis's
    residuals against the complement projectors of the others, stacked.

    A basis object listed ``n`` times stands for ``n`` stacked copies of its
    residual block (one copy scaled by ``sqrt(n)``); one listed as the first
    adds only zero rows and is left out."""
    first = bases[0]
    counts = Counter(b for b in bases[1:] if b is not first)
    if first.dim == 0 or not counts:
        return np.zeros(0), np.eye(first.dim)
    A = np.vstack([
        np.sqrt(n) * (
            first.vectors - other.vectors @ (other.vectors.T @ first.vectors)
        )
        for other, n in counts.items()
    ])
    # the R factor has A's singular values and right singular vectors;
    # A's left factor, as tall as A, is never formed
    _, s, Vt = svd(np.linalg.qr(A, mode="r"))
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


def intersect_operator_spaces(bases, tol=DEFAULT_TOL, label="intersection"):
    """Orthonormal basis of the intersection of operator spaces.

    A vector of the first space lies in the intersection iff the complement
    projector of every other space annihilates it; the intersection is the
    nullspace, at the given tolerance, of those complement projectors
    restricted to the first basis (stacked and read off one SVD).
    """
    if not bases:
        raise InvalidArgumentError("need at least one operator space")
    s, Vt = _residual_spectrum(bases)
    reference = s[0] if s.size else 0.0
    null = _null_coefficients(s, Vt, reference, tol)
    return OperatorSpaceBasis(label=label, vectors=bases[0].vectors @ null)


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

    def level_bases(self):
        """One :func:`level_operator_basis` per level, in ``b``'s operator
        space; levels whose restricted partitions coincide share one basis."""
        built = {}
        for p in self.partitions:
            if p not in built:
                built[p] = level_operator_basis(p, self.splits, self.shape)
        return [built[p] for p in self.partitions]

    def operator(self, parts):
        """``b``'s part of the operator with per-block coefficients
        ``parts`` (keyed by global blocks; those outside ``b`` are skipped),
        as an ``n_b x n_b`` matrix."""
        n_b = prod(self.shape)
        out = np.zeros((n_b, n_b))
        for alpha, C in parts.items():
            if set(alpha) <= set(self.block):
                local = _localize(self.block, alpha)
                out += embed_block_operator(
                    lifted_part(self.splits[local], C), local, self.shape
                )
        return out


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
    concatenated block by block.  ``singular_values`` are those of the
    stacked level residuals (the dense intersection's spectrum), largest
    first; the null space was decided against the largest of them.

    :meth:`parts` and :meth:`part_coordinates` map between coordinates and
    per-block coefficients without leaving the block spaces; ``vectors``
    and :meth:`operator` build the dense ``N x N`` form on demand, for
    oracles only.
    """

    shape: tuple
    spaces: tuple
    null: tuple
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
        """Coordinates of the operator with per-block coefficients ``parts``
        (over any partition refining level 1, e.g. the leaves), the norm of
        its residual off the intersection, and the norm of the operator.

        The residual is formed explicitly in each block space, so it is
        accurate to roundoff relative to the operator."""
        coords = np.zeros(self.dim)
        resid_sq = 0.0
        norm_sq = 0.0
        for space, Q, sl in self._slices():
            A = space.operator(parts)
            s = space.split
            scale = np.sqrt(space.n_rest)
            c = (s.w.T @ A @ s.u).T.ravel()
            coords[sl] = scale * (Q.T @ c)
            C = (Q @ (Q.T @ c)).reshape(s.rank, s.corank).T
            resid_sq += space.n_rest * np.linalg.norm(
                A - lifted_part(s, C)) ** 2
            norm_sq += space.n_rest * np.linalg.norm(A) ** 2
        return coords, float(np.sqrt(resid_sq)), float(np.sqrt(norm_sq))

    def level_residual(self, parts, k):
        """Norm of the residual of the operator with coefficients ``parts``
        off the level-``k`` operator space."""
        resid_sq = 0.0
        for space in self.spaces:
            basis = level_operator_basis(
                space.partitions[k - 1], space.splits, space.shape
            )
            _, resid = basis.coordinates(space.operator(parts))
            resid_sq += space.n_rest * resid ** 2
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

    def operator(self, coords):
        """Dense ``N x N`` operator with the given coordinates (oracle)."""
        blocks = tuple(space.block for space in self.spaces)
        splits = {space.block: replace(space.split, alpha=space.block)
                  for space in self.spaces}
        L = LaplacianLike(partition=blocks, parts=self.parts(coords))
        return assemble_laplacian(L, splits, self.shape)


def _intersect_blocks(spaces, spectra, shape, tol):
    """Intersect the level spaces block by block from each block's
    :func:`_residual_spectrum`, deciding every block's null space against
    the largest residual singular value of all blocks, as one dense SVD of
    the whole stack would."""
    values = np.sort(np.concatenate([s for s, _ in spectra]))[::-1]
    reference = values[0] if values.size else 0.0
    return BlockOperatorBasis(
        shape=tuple(shape), spaces=spaces,
        null=tuple(_null_coefficients(s, Vt, reference, tol)
                   for s, Vt in spectra),
        singular_values=values,
    )


def tree_operator_basis(tree, splits, shape, tol=DEFAULT_TOL):
    """Intersection of all level operator spaces of ``tree``, factored over
    the level-1 blocks.

    Calls :func:`level_operator_basis` on each level-1 block's sub-shape
    and intersects there; the dimension and the nonzero singular values are
    those of :func:`intersect_operator_spaces` on the full level bases.
    """
    spaces = _block_spaces(tree, splits, shape)
    # one block's level bases at a time: only the spectra are kept
    spectra = [_residual_spectrum(space.level_bases()) for space in spaces]
    return _intersect_blocks(spaces, spectra, shape, tol)


def network_dimension_formula(tree, r, shape):
    """Closed-form parameter count of the tree network modulo per-node gauge:
    root coefficient block, plus one transfer block per interior node, plus
    the leaf factors, minus one general linear group per non-root node."""
    tree.ensure_valid()
    core = prod(r[b] for b in tree.sons_of(tree.root))
    interior = sum(
        r[node] * prod(r[b] for b in tree.sons_of(node))
        for node in tree.sons
        if node != tree.root
    )
    leaf = sum(shape[node[0] - 1] * r[node] for node in tree.leaves)
    gauge = sum(r[node] ** 2 for node in tree.nodes if node != tree.root)
    return core + interior + leaf - gauge


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
    columns = []
    for store in (leaf_factors, transfers):
        for node in sorted(store):
            base = store[node]
            unit = store[node] = np.zeros_like(base)
            for i in range(unit.size):
                unit.flat[i] = 1.0
                v_i = contract_network(tree, shape, leaf_factors, transfers)
                columns.append(v_i.ravel())
                unit.flat[i] = 0.0
            store[node] = base
    return np.column_stack(columns)


def parametrization_jacobian(v, tree, r, tol=DEFAULT_TOL):
    """Jacobian of the tree-network parameters-to-tensor map at ``v``.

    The normalized tensor is reproduced exactly by a tree-network parameter
    point; the map is linear in each parameter block, so the column of an
    entry is the network with that entry set to one and the rest of its
    block to zero, exact to roundoff.  One column per parameter entry (leaf
    factors, interior transfers, root block); rows run over the flattened
    tensor.
    """
    v, splits = require_member(v, tree, r, tol)
    return _jacobian(v, tree, splits)


def tangent_dimension_oracle(v, tree, r, tol=DEFAULT_TOL):
    """Manifold dimension as the numerical rank of the parametrization
    Jacobian, at the threshold ``max(J.shape) * eps`` relative to its
    largest singular value."""
    J = parametrization_jacobian(v, tree, r, tol)
    return svd_rank(np.linalg.svd(J, compute_uv=False), shape=J.shape)


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
    J = _jacobian(v, tree, splits)
    oracle = svd_rank(np.linalg.svd(J, compute_uv=False), shape=J.shape)
    formula = network_dimension_formula(tree, r, v.shape)
    return TangentReport(
        dim_e=inter.dim,
        dim_core=dim_core,
        dim_total=dim_total,
        oracle_dim=oracle,
        formula_dim=formula,
        agree=(dim_total == oracle == formula),
    )


def _check_operator_basis(basis, spaces, shape):
    """``basis`` if it is factored over ``spaces`` (same shape, level-1
    blocks and level-1 splits, one coefficient row per level-1 basis
    vector); raises otherwise."""
    if not isinstance(basis, BlockOperatorBasis):
        raise InvalidArgumentError(
            "operator_basis must be a BlockOperatorBasis, got "
            f"{type(basis).__name__}"
        )
    if tuple(basis.shape) != tuple(shape) or len(basis.spaces) != len(spaces):
        raise InvalidArgumentError(
            "operator_basis does not match the tensor shape or the level-1 "
            "blocks"
        )
    for ours, theirs, Q in zip(spaces, basis.spaces, basis.null):
        s, t = ours.split, theirs.split
        if (ours.block != theirs.block or s.u.shape != t.u.shape
                or s.w.shape != t.w.shape
                or not np.allclose(s.u, t.u, atol=1e-10)
                or not np.allclose(s.w, t.w, atol=1e-10)
                or Q.shape[0] != s.rank * s.corank):
            raise InvalidArgumentError(
                f"operator_basis block {ours.block} does not match the "
                "tensor's level-1 split there"
            )
    return basis


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


def immersion_check(v, tree, r, k, tol=DEFAULT_TOL, operator_basis=None):
    """Inclusion of the intersected operator space into the level-k space.

    Requires membership: like :func:`tangent_dimension` and
    :func:`~treegeom.charts.tree_chart`, it raises
    :class:`NotOnManifoldError` unless ``v`` has the rank profile ``r``.
    Verifies that every intersection basis vector lies in the level-k space
    (projector residual), that the induced coordinate map has full column
    rank (condition number reported), and that the model dimension at the
    intersection does not exceed the level-k model dimension.  All of it is
    computed per level-1 block; the coordinate map is block diagonal, so its
    singular values are those of the blocks together.  A
    :class:`BlockOperatorBasis` may be supplied explicitly, e.g. to confirm
    that a corrupted vector is flagged; it must be factored over the same
    level-1 blocks and splits as the one computed here.
    """
    v, splits = require_member(v, tree, r, tol)
    depth = levels(tree).depth
    if not 1 <= k <= depth:
        raise InvalidArgumentError(f"level {k} out of range 1..{depth}")
    spaces = _block_spaces(tree, splits, v.shape)
    block_bases = [space.level_bases() for space in spaces]
    if operator_basis is None:
        inter = _intersect_blocks(
            spaces, [_residual_spectrum(bases) for bases in block_bases],
            v.shape, tol,
        )
    else:
        inter = _check_operator_basis(operator_basis, spaces, v.shape)
    dim_k = sum(bases[k - 1].dim for bases in block_bases)
    max_resid = 0.0
    sv = []
    for bases, Q in zip(block_bases, inter.null):
        if Q.shape[1] == 0:
            continue
        vecs = bases[0].vectors @ Q
        bk = bases[k - 1].vectors
        coords = bk.T @ vecs
        max_resid = max(max_resid, float(
            np.max(np.linalg.norm(vecs - bk @ coords, axis=0))
        ))
        s = np.linalg.svd(coords, compute_uv=False)
        sv.append(np.concatenate([s, np.zeros(Q.shape[1] - s.size)]))
    if sv:
        s = np.concatenate(sv)
        injective = bool(s.min() > tol)
        cond = float(s.max() / s.min()) if injective else float("inf")
    else:
        injective = True
        cond = 1.0
    core_inter = prod(r[b] for b in level_partition(tree, 1))
    core_k = prod(r[b] for b in level_partition(tree, k))
    dim_ok = inter.dim + core_inter <= dim_k + core_k
    return ImmersionReport(
        level=k,
        max_inclusion_residual=max_resid,
        coordinate_condition=cond,
        included=max_resid <= max(tol, 1e-10),
        injective=injective,
        dim_ok=dim_ok,
    )
