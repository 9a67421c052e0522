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
The library paths work in these block spaces and build no operator basis.
A level-1 operator is ``X = W_b C U_b^T`` for coefficients ``C``, and
:func:`tree_operator_basis` keeps, per block ``b`` and level ``k``, only
``R_{b,k}``, a ``dim_b``-column R factor with ``||R_{b,k} vec(C)||`` the
norm of ``X``'s residual off the level-k space.  Minimal subspaces are
nested: ``U_b`` lies in ``Psi = (x)_beta U_beta`` over the level-k nodes
``beta`` inside ``b``.  So the factor is computed from the split bases in
the nested coordinates ``(x)_beta [U_beta | W_beta]``
(:func:`_nested_factor`).  It is exact when the nesting is, and otherwise
its singular values move by at most the nestedness defect
``||U_b - Psi Psi^T U_b||_F``, recorded as
:attr:`BlockOperatorBasis.defect`.  The intersection is the null space of
the stacked factors; :func:`immersion_check` and the charts read the
factors and the intersection from there.  No level basis is built here:
the dense ``N^2``-long level bases and their intersection are test oracles
(``tests/oracles.py``), and :attr:`BlockOperatorBasis.vectors` is the one
dense form of the intersection, built on demand for them.

The intersection of the level spaces over all levels composes, with the
level-1 core space, the model space of the local charts.  Its dimension is
compared against two independent numbers: the rank of the exact Jacobian of
the full tree-network parametrization, and a closed-form parameter count.
For depth-1 trees all three agree.  For deeper trees the operator-space
intersection is strictly smaller than the network dimension (interior
subspace motions are not expressible as level-wise complement maps that
vanish on every deeper complement), and the report surfaces the three
numbers side by side instead of reconciling them.

Every entry point anchored at a tensor (:func:`tangent_dimension`,
:func:`immersion_check`, the two Jacobian oracles and
:func:`~treegeom.charts.tree_chart`) reads one anchor state
(:func:`anchor_state`): the membership precondition of
:func:`~treegeom.formats.member_splits`, the splits it decides on, and the
operator intersection, built on first use.  The state of the last anchor is
kept, keyed by the content of the validated tensor, the tree, the rank
tuple and ``tol``, so the chart, the tangent report and the immersion check
at every level of one anchor factor it once; its arrays are read-only.  The
arguments are validated once on every call
(:func:`~treegeom.formats.member_args`), a tensor changed in place is a new
anchor, and a failed membership check keeps nothing.  The Jacobian oracles
build no operator intersection: the oracle pulls its network parameters
back off the splits, checks through the tree-network contraction of
:mod:`treegeom.formats` that they reproduce the tensor, and writes each
node's block of columns in closed form: the tensor is linear in each node's
parameters, so a node's block is its lift (the identity at a leaf, the
sons' bases pushed through the identity inside) times its coefficients on
the modes outside it, one Kronecker product that is the block itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import hypot, prod

import numpy as np

from .errors import InvalidArgumentError, NotOnManifoldError
from .formats import (
    contract_network,
    member_args,
    member_splits,
    network_dimension,
    node_basis,
)
from .operators import SplitSpace, lifted_part
from .subspaces import DEFAULT_TOL
from .tensor import (
    block_transpose_permutation,
    check_tol,
    embedding_index,
    pull_blocks,
    svd,
    svd_rank,
)
from .trees import level_partition, levels

__all__ = [
    "BlockOperatorBasis",
    "TangentReport",
    "ImmersionReport",
    "tree_operator_basis",
    "parametrization_jacobian",
    "tangent_dimension_oracle",
    "tangent_dimension",
    "immersion_check",
]


def _factor_spectrum(factors, dim):
    """Singular values and right singular vectors of residual factors with
    ``dim`` columns stacked, which are those of the residuals stacked.

    A stack taller than ``dim`` is compressed to its ``dim x dim`` R factor
    first, which has the same singular values and right singular vectors,
    so the SVD forms no left factor as tall as the stack.  ``Vt`` is
    ``dim x dim`` even for a shorter stack."""
    R = np.vstack([np.zeros((0, dim)), *factors])
    if R.size == 0:
        return np.zeros(0), np.eye(dim)
    if len(R) > dim:
        R = np.linalg.qr(R, mode="r")
    _, s, Vt = svd(R, full_matrices=True)
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
        """``R_{b,k}`` for every level, one :func:`_nested_factor` per
        distinct level partition, and the nestedness defect of their stack:
        the levels' defects added in quadrature.  A level restricting to
        the level-1 partition gets no rows and no defect, and coinciding
        levels share one factor."""
        s = self.split
        factors = {self.partitions[0]: (np.zeros((0, s.rank * s.corank)), 0.0)}
        for p in self.partitions[1:]:
            if p not in factors:
                factors[p] = _nested_factor(
                    s, [(beta, self.splits[beta]) for beta in p], self.shape
                )
        R, defects = zip(*(factors[p] for p in self.partitions))
        return R, hypot(*defects)


# The selections depend on the level's sizes and ranks alone.  On blocks of
# n_b <= 9 rebuilding them adds 0.2-0.65 ms to a 1.7-4 ms chart, tangent
# or immersion call (one BLAS thread), so a process that meets a level shape
# again reuses them.  A one-shot command meets each shape once and pays only
# the lookup.  The bound keeps a sweep over many shapes from growing the
# cache without limit; an entry holds a few index arrays of at most n_b
# times the largest rank entries.
@lru_cache(maxsize=256)
def _level_rows(sizes, ranks):
    """Row selections of one level's nested coordinates, for nodes of the
    given ambient sizes and ranks (rows run row-major over the nodes, each
    node's ``U`` part before its ``W`` part).

    Returns ``psi`` (every node in ``U``: the columns of ``Psi``, in
    order), ``off_psi``, ``other`` (rows with a node count in ``W`` other
    than one), ``single`` (one node in ``W``, node by node, row-major
    within a node), the entries of ``T[single] (x) B`` that
    ``C_beta[p, a]`` is subtracted from (``diag_rows``, reading
    ``diag_src`` of the stacked ``C_beta`` maps), the weights
    ``sqrt(n''_beta - q_beta)`` of the stacked maps and each node's
    ``(pre, n, post, r)`` view.  The arrays are read-only: every caller
    shares them.
    """
    g = len(sizes)
    m = prod(ranks)
    index = np.indices(sizes).reshape(g, -1)
    in_w = index >= np.reshape(ranks, (g, 1))
    count = in_w.sum(axis=0)
    single, diag_rows, diag_src, views, weights = [], [], [], [], []
    start = 0
    for i, (n, r) in enumerate(zip(sizes, ranks)):
        rows = np.flatnonzero(in_w[i] & (count == 1))
        pre, post = prod(sizes[:i]), prod(sizes[i + 1:])
        # row (x, r + p, y) of node i meets column (x, a, y) of Psi
        target = np.repeat(index[:, rows, None], r, axis=2)
        target[i] = np.arange(r)
        position = start + np.arange(rows.size)
        diag_rows.append(position[:, None] * m
                         + np.ravel_multi_index(tuple(target), ranks))
        diag_src.append(len(weights) + (index[i, rows, None] - r) * r
                        + np.arange(r))
        weights += [np.sqrt(pre * post - m // r)] * ((n - r) * r)
        single.append(rows)
        views.append((pre, n, post, r))
        start += rows.size
    selections = (np.flatnonzero(count == 0), np.flatnonzero(count != 0),
                  np.flatnonzero(count != 1), np.concatenate(single),
                  np.concatenate(diag_rows, axis=None),
                  np.concatenate(diag_src, axis=None),
                  np.array(weights)[:, None])
    for a in selections:
        a.flags.writeable = False
    return selections + (tuple(views),)


def _nested_factor(split, groups, shape):
    """Residual factor of a block's level-1 space off one deeper level, in
    the nested coordinates of that level, and its nestedness defect.

    ``split`` is the block's own split (``U_b``, ``W_b``) and ``groups``
    the level's nodes ``beta`` inside the block with their splits
    (``U_beta``, ``W_beta``), in local modes covering ``shape``.
    Coefficients ``C`` (``corank x rank``, column ``j * corank + i`` for
    ``C[i, j]``) stand for ``X = W_b C U_b^T``, and ``||R vec(C)||`` is the
    norm of ``X``'s residual off the level space whenever ``U_b`` lies in
    ``Psi = (x)_beta U_beta`` (``m = prod r_beta`` columns).  The rows are
    written in the orthonormal coordinates ``V = (x)_beta [U_beta |
    W_beta]``, where each node of a row index is in its ``U`` or its ``W``
    part.  With ``C_beta = W_beta^T ptr_{b - beta}(X) U_beta / n''_beta``
    the level projection's coefficients, ``T = V^T W_b`` and
    ``B = Psi^T U_b``:

    - rows with node ``beta`` alone in ``W`` (``W_beta (x) Psi_rest``):
      ``X Psi = T C B^T`` less the level projection, ``C_beta`` on the
      diagonal of the other nodes;
    - every other row: ``T C B^T`` alone, compressed on the right to the R
      factor of ``B``;
    - inputs off ``Psi``: ``sqrt(n''_beta - q_beta) C_beta`` per node, with
      ``q_beta = m / r_beta``, the level projections being
      trace-orthogonal there.

    The defect is ``||U_b - Psi Psi^T U_b||_F``.  The one term left out is
    ``X (I - Psi Psi^T)``, of norm at most the defect times ``||C||_F``, so
    the factor's singular values are within the defect of the exact
    residual's.
    """
    r, c = split.rank, split.corank
    sizes = tuple(s.ambient_dim for _, s in groups)
    (psi, off_psi, other, single, diag_rows, diag_src, weights,
     views) = _level_rows(sizes, tuple(s.rank for _, s in groups))
    # [U_b | W_b] with rows in the level's node order, then in V coordinates
    axes = [a - 1 for beta, _ in groups for a in beta]
    Y = np.concatenate([split.u, split.w], axis=1).reshape(
        *shape, r + c).transpose(*axes, len(shape))
    for (pre, n, _, _), (_, s) in zip(views, groups):
        Y = np.concatenate([s.u, s.w], axis=1).T @ Y.reshape(pre, n, -1)
    Y = Y.reshape(-1, r + c)
    S, T = Y[:, :r], Y[:, r:]
    B = S[psi]
    # C_beta = M_beta vec(C), the other nodes traced out in V coordinates
    M = np.concatenate([
        np.einsum("apbi,aqbj->pqji", T.reshape(pre, n, post, c)[:, q:],
                  S.reshape(pre, n, post, r)[:, :q]).reshape(
                      (n - q) * q, r * c) / (pre * post)
        for pre, n, post, q in views
    ])
    K = (T[single][:, None, None, :] * B[None, :, :, None]).reshape(
        single.size * psi.size, r * c)
    K[diag_rows] -= M[diag_src]
    R_B = np.linalg.qr(B, mode="r")
    rest = (R_B[:, None, :, None] * T[other][None, :, None, :]).reshape(
        len(R_B) * other.size, r * c)
    R = np.linalg.qr(np.vstack([rest, K, weights * M]), mode="r")
    off = S[off_psi].ravel()
    return R, float(np.sqrt(off @ off))


def _block_spaces(tree, splits, shape):
    """One :class:`_BlockSpace` per level-1 block, in level-1 block order."""
    depth = levels(tree).depth
    partitions = [level_partition(tree, k) for k in range(1, depth + 1)]
    spaces = []
    for b in partitions[0]:
        # a node inside b in local modes, in b's order
        local = {m: i for i, m in enumerate(b, start=1)}.get
        inside = set(b).issuperset
        nodes = {a: tuple(map(local, a)) for a in splits if inside(a)}
        spaces.append(_BlockSpace(
            block=b,
            shape=tuple(shape[m - 1] for m in b),
            n_rest=prod(shape) // prod(shape[m - 1] for m in b),
            splits={
                node: SplitSpace(alpha=node, u=splits[a].u, w=splits[a].w)
                for a, node in nodes.items()
            },
            partitions=tuple(
                tuple(nodes[a] for a in p if inside(a)) for p in partitions
            ),
        ))
    return tuple(spaces)


@dataclass(frozen=True, eq=False)
class BlockOperatorBasis:
    """Orthonormal basis of the intersection of the level operator spaces,
    factored over the level-1 blocks.

    ``null[i]`` holds, one column per basis vector, the coefficients of
    block ``spaces[i]``'s part of the intersection in that block's level-1
    basis: coefficient ``j * corank + i`` belongs to the elementary operator
    ``w_i u_j^T`` of the split at the block.  Coordinates are concatenated
    block by block.  ``factors[i][k - 1]`` is ``R_{b,k}``, which
    maps those coefficients to their residual off level ``k`` up to an
    orthonormal factor (no rows at level 1, or where level ``k`` restricts
    to the level-1 block); it is computed in the nested coordinates of level
    ``k`` and never from a level basis.  ``singular_values`` are those of
    the stacked factors (the dense intersection's spectrum), largest first;
    the null space was decided against the largest of them.

    ``defect`` is the largest over blocks of the nestedness defects
    ``||U_b - Psi_k Psi_k^T U_b||_F`` of the block's levels, added in
    quadrature.  It is at roundoff when the minimal subspaces nest exactly,
    and larger where a rank gap sits near ``tol``; ``singular_values`` and
    each factor's singular values are within it of the exact residuals'.

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
    defect: float

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
        access, never cached).  Each space's columns are written in one
        indexed write through its block's embedding index."""
        N = prod(self.shape)
        out = np.zeros((N * N, self.dim))
        for space, Q, sl in self._slices():
            s = space.split
            lifted = [lifted_part(s, c.reshape(s.rank, s.corank).T
                                  / np.sqrt(space.n_rest)) for c in Q.T]
            if lifted:
                out[embedding_index(self.shape, space.block), sl] = \
                    np.stack(lifted, axis=-1)[:, :, None, :]
        return out


def tree_operator_basis(tree, splits, shape, tol=DEFAULT_TOL):
    """Intersection of all level operator spaces of ``tree``, factored over
    the level-1 blocks.

    Reads each level-1 block's residual factors off its nested
    coordinates and intersects there; the dimension and the nonzero
    singular values are those of the dense intersection of the full level
    bases, up to the recorded nestedness defect.
    """
    check_tol(tol)
    spaces = _block_spaces(tree, splits, shape)
    factors, defects = zip(*(space.residual_factors() for space in spaces))
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
        defect=float(max(defects)),
    )


@dataclass(eq=False)
class _AnchorState:
    """What the anchored entry points read at one member tensor: its splits
    at every non-root node and, built on first use, the intersection of its
    level operator spaces.  Every array in it is read-only."""

    key: tuple
    tree: object
    shape: tuple
    tol: float
    splits: dict
    basis: BlockOperatorBasis | None = None

    def operator_basis(self):
        """:func:`tree_operator_basis` at the anchor, built once."""
        if self.basis is None:
            basis = tree_operator_basis(self.tree, self.splits, self.shape,
                                        self.tol)
            _read_only(basis.singular_values, *basis.null,
                       *(R for f in basis.factors for R in f))
            self.basis = basis
        return self.basis


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False


# The last anchor's state.  The chart, the tangent report and the immersion
# check at each level all read one anchor's splits and operator
# intersection, and a caller asks for them one call at a time, so one slot
# lets them share one factorization.  It holds a single anchor: a second
# anchor replaces it, and a miss empties it first, so no two anchors' splits
# are alive in it at once.  Threads need no lock: each call works on the
# state it looked up, so a race costs at most a second factorization.
_anchor_slot = None


def _clear_anchor():
    """Empty the anchor slot (for tests that count factorizations)."""
    global _anchor_slot
    _anchor_slot = None


def anchor_state(v, tree, r, tol):
    """The validated ``v`` and the :class:`_AnchorState` at it.

    The arguments are checked on every call
    (:func:`~treegeom.formats.member_args`).  The state is reused when the
    digest of the validated float64 entries, the shape, the tree, the rank
    items and ``tol`` all match the slot's; otherwise ``v`` is factored and
    its membership required (:func:`~treegeom.formats.member_splits`)
    before the new state takes the slot.  A hit returns the caller's own
    array with the kept splits and basis.
    """
    # imported on first use: hashlib loads OpenSSL, about 3 ms that every
    # `import treegeom` would pay otherwise
    import hashlib

    global _anchor_slot
    v = member_args(v, tree, r, tol)
    key = (hashlib.blake2b(np.ascontiguousarray(v)).digest(), v.shape, tree,
           tuple(r.items()), tol)
    state = _anchor_slot
    if state is None or state.key != key:
        _anchor_slot = None
        splits = member_splits(v, tree, r, tol)
        _read_only(*(a for s in splits.values() for a in (s.u, s.w)))
        state = _AnchorState(key=key, tree=tree, shape=v.shape, tol=tol,
                             splits=splits)
        _anchor_slot = state
    return v, state


def _network_parameters(v, tree, splits):
    """A tree-network parameter point reproducing ``v``: the bases of
    ``splits`` at every non-root node, interior transfer coefficients, root
    block.  Each transfer is the node's basis (``v`` at the root) pulled
    back onto its sons' bases."""
    shape = v.shape
    bases = {node: s.u for node, s in splits.items()}
    transfers = {}
    for node, kids in tree.sons.items():
        root = node == tree.root
        u = (v if root else bases[node]).reshape(
            [shape[m - 1] for m in node] + [-1])
        T = pull_blocks(u, [bases[kid] for kid in kids], kids, shape)
        transfers[node] = T.ravel() if root else T.reshape(-1, u.shape[-1])
    leaf_factors = {leaf: bases[leaf] for leaf in tree.leaves}
    return leaf_factors, transfers


def _jacobian(v, tree, splits):
    """:func:`parametrization_jacobian` at a member ``v`` with its
    ``splits``."""
    # by the largest entry first, so that the norm neither under- nor
    # overflows
    v = v / np.max(np.abs(v))
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
        lift = (node_basis(tree, node, bases, np.eye(len(transfers[node])),
                           shape) if node in transfers
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
    tensor.  Reads the anchor's splits as :func:`tangent_dimension` does,
    and builds no operator intersection.
    """
    v, anchor = anchor_state(v, tree, r, tol)
    return _jacobian(v, tree, anchor.splits)


def tangent_dimension_oracle(v, tree, r, tol=DEFAULT_TOL):
    """Manifold dimension as the numerical rank of the parametrization
    Jacobian, at the threshold ``tol`` relative to its largest singular
    value, as every rank decision of the library is read.  Reads the
    anchor's splits and builds no operator intersection."""
    v, anchor = anchor_state(v, tree, r, tol)
    return _jacobian_rank(v, tree, anchor.splits, tol)


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
    """Tangent report at a tensor with the prescribed rank profile.

    Raises :class:`NotOnManifoldError` unless ``v`` has the rank profile
    ``r``.  The operator intersection and the splits the Jacobian oracle
    reads are the anchor's (:func:`anchor_state`): after
    :func:`~treegeom.charts.tree_chart` or :func:`immersion_check` at the
    same anchor, only the Jacobian's rank is computed.
    """
    v, anchor = anchor_state(v, tree, r, tol)
    inter = anchor.operator_basis()
    dim_core = prod(r[b] for b in level_partition(tree, 1))
    dim_total = inter.dim + dim_core
    oracle = _jacobian_rank(v, tree, anchor.splits, tol)
    formula = network_dimension(tree, r, v.shape)
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

    A level ``k`` outside ``1..depth`` is an input error, raised before
    anything is factored.  Requires membership: like
    :func:`tangent_dimension` and :func:`~treegeom.charts.tree_chart`, it
    raises :class:`NotOnManifoldError` unless ``v`` has the rank profile
    ``r``.  Reads the anchor's intersection (:func:`anchor_state`), so checking
    every level of one anchor, after its chart or tangent report or not,
    factors it once.  Verifies that
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
    depth = levels(tree).depth
    if not 1 <= k <= depth:
        raise InvalidArgumentError(f"level {k} out of range 1..{depth}")
    v, anchor = anchor_state(v, tree, r, tol)
    splits = anchor.splits
    inter = anchor.operator_basis()
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
