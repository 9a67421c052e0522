"""Local charts for fixed-rank sets: a Laplacian-like operator plus a core.

A point near an anchor with the same rank profile is written as the
exponential of a Laplacian-like operator applied to a full-rank coefficient
core expressed in the anchor's minimal subspaces.  The exponential factors
block by block into ``I + part``, so the forward map is a sequence of
block-operator applications; the inverse reads each block map off the graph
that the point's minimal subspace forms over the anchor's.

For a tree, the operator lives in the intersection of the level operator
spaces and the core in the level-1 subspace product; the forward and inverse
maps can be evaluated through any level partition and agree across levels.
The chart's operator basis is factored over the level-1 blocks
(:class:`~treegeom.tangent.BlockOperatorBasis`): coordinates map straight
to level-1 coefficients, and the inverse reads the level-1 coefficients off
one level-1 inverse and projects them straight back to coordinates, so
neither direction builds an ``N x N`` operator.  Only
:func:`level_inverse_operator` returns one, as a cross-level check; it is
written block by block through flat embedding indexes
(:func:`~treegeom.operators.assemble_laplacian`), with no Kronecker
product.  Each function validates its arguments once, on entry.

Each point is factored once.  The inverse reads the point's level-1 minimal
subspaces and its membership verdict off one factorization ``U S V^T`` per
level-1 unfolding; every deeper node's rank is read off ``U S``
(:func:`~treegeom.formats.member_subspaces`).  A core's ranks are read in
nested coordinates: at a level-1 block from the core's own unfolding, and
at a node inside that block from an ``n_b x r_b`` matrix, never from the
``N``-sized lift.  Every factorization goes through
:func:`~treegeom.subspaces.node_spectra`, which stacks the matrices of one
shape and takes one batched SVD per stack.  The core of a point is its
projection onto the anchor bases, since the inverse factors act as the
identity once projected.  A successful inverse keeps the point it
reconstructed with the chart, and the forward map at the coordinates and
core it returned gives that point back without recomputing it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InvalidArgumentError,
    InvalidCoreError,
    NotOnManifoldError,
    OutsideChartDomainError,
    OutsideChartImageError,
)
from .formats import dimension_margins, member_subspaces
from .operators import LaplacianLike, assemble_laplacian, check_splits
from .subspaces import (
    DEFAULT_TOL,
    factored_subspaces,
    nested_ranks,
    node_spectra,
)
from .tangent import BlockOperatorBasis, anchor_state
from .tensor import (
    check_integer,
    check_tensor,
    check_tol,
    normalize_modes,
    pull_blocks,
    push_blocks,
    sorted_blocks,
)
from .trees import check_level, level_partition, levels

__all__ = [
    "ChartData",
    "tucker_chart_point",
    "tucker_chart_inverse",
    "tree_chart",
    "tree_chart_point",
    "tree_chart_inverse",
    "level_inverse_operator",
]

GRAPH_CONDITION_LIMIT = 1e8


def _pull_back(w, splits, blocks):
    """Core of ``w`` in the anchor bases: the point pulled back through the
    inverse factors ``I - w_b C_b u_b^T`` and projected onto the bases.
    Since ``u_b^T w_b = 0`` each projected factor is ``u_b^T`` itself, so
    the core is the projection of ``w`` alone."""
    return pull_blocks(w, [splits[b].u for b in blocks], blocks, w.shape)


def _core_array(core, ranks):
    """The core as a float array, checked to have the shape ``ranks`` and
    finite entries before anything reads it."""
    core = np.asarray(core, dtype=float)
    if core.shape != tuple(ranks):
        raise InvalidArgumentError(
            f"core has shape {core.shape}, expected {tuple(ranks)}"
        )
    if not np.all(np.isfinite(core)):
        raise InvalidArgumentError("core entries must be finite")
    return core


def _check_full_core(core, blocks, ranks, tol):
    """A chart core must have full blockwise rank: every mode unfolding of
    the validated core tensor has rank equal to the block rank.  Returns,
    per block, ``U S`` of the unfolding's SVD ``U S V^T``.

    The unfoldings are factored by
    :func:`~treegeom.subspaces.node_spectra`, one SVD per stack of
    unfoldings of one shape."""
    if not np.any(core):
        raise InvalidCoreError("core is identically zero")
    found = node_spectra((core,), tuple((0, (i,)) for i in range(core.ndim)),
                         tol, vectors=True, signs=False)
    for b, k, (r, _, _) in zip(blocks, ranks, found):
        if r != k:
            raise InvalidCoreError(
                f"core is rank-deficient on block {set(b)}: rank {r} < {k}"
            )
    return [U * s for _, U, s in found]


def tucker_chart_point(L, core, splits, shape, tol=DEFAULT_TOL):
    """Forward chart over one partition: lift the core through the split
    bases and apply the blockwise exponential factors.

    Equivalent to applying the dense exponential of the assembled operator,
    but evaluated structurally as one ``basis + complement @ coefficients``
    matrix per block.  The output has the same blockwise ranks as the core.
    """
    check_tol(tol)
    blocks = L.partition
    splits = check_splits(blocks, splits)
    ranks = [splits[b].rank for b in blocks]
    core = _core_array(core, ranks)
    _check_full_core(core, blocks, ranks, tol)
    return _push_forward(core, L.parts, splits, blocks, shape)


def _push_forward(core, parts, splits, blocks, shape):
    """Lift a checked core through the blockwise exponential factors
    ``u + w C`` of the per-block coefficients ``parts``."""
    mats = [splits[b].u + splits[b].w @ parts[b] for b in blocks]
    return push_blocks(core, mats, blocks, shape)


def tucker_chart_inverse(w, partition, splits, ranks, tol=DEFAULT_TOL):
    """Inverse chart over one partition.

    For each block, an orthonormal basis of the point's minimal subspace is
    written as a graph over the anchor's: with ``A`` the component along the
    anchor subspace and ``G`` the component along the complement, the block
    coefficients are ``G A^{-1}``.  The core is the point pulled back by the
    inverse exponential factors and expressed in the anchor bases.

    Raises when the point's blockwise ranks differ from the prescribed ones
    (not on the manifold) or when some ``A`` is numerically singular (the
    point is outside this chart's domain).
    """
    check_tol(tol)
    w = check_tensor(w, allow_zero=False)
    blocks = sorted_blocks(normalize_modes(b, w.ndim) for b in partition)
    splits = check_splits(blocks, splits)
    ranks = {b: check_integer(k, "rank", 1)
             for b, k in check_splits(blocks, ranks, "rank").items()}
    subs = {b: sub for b, (sub, _, _) in
            factored_subspaces(w, blocks, tol).items()}
    return (LaplacianLike(partition=blocks,
                          parts=_graph_parts(subs, splits, ranks)),
            _pull_back(w, splits, blocks))


def _graph_parts(subs, splits, ranks):
    """Block coefficients ``G A^{-1}`` of the point's minimal subspaces
    ``subs`` (keyed by block) as graphs over the anchor's, checked as in
    :func:`tucker_chart_inverse`."""
    parts = {}
    for b, sub in subs.items():
        s = splits[b]
        if sub.rank != ranks[b]:
            raise NotOnManifoldError(
                f"block {set(b)} has rank {sub.rank}, expected {ranks[b]}"
            )
        A = s.u.T @ sub.basis
        # columns of the point's basis are unit vectors, so the singular
        # values of A lie in [0, 1]; the graph over the anchor subspace is
        # well conditioned iff the smallest one stays away from zero
        sv = np.linalg.svd(A, compute_uv=False)
        sigma_min = sv[-1] if sv.size else 0.0
        if sigma_min <= 1.0 / GRAPH_CONDITION_LIMIT:
            cond = 1.0 / sigma_min if sigma_min > 0 else float("inf")
            raise OutsideChartDomainError(b, cond)
        G = s.w.T @ sub.basis
        parts[b] = np.linalg.solve(A.T, G.T).T
    return parts


@dataclass(frozen=True, eq=False)
class ChartData:
    """Everything anchored at one point of a fixed tree-rank set.

    ``splits`` covers every non-root tree node; ``operator_basis`` spans the
    intersection of the level operator spaces, factored over the level-1
    blocks; ``core`` holds the anchor's coefficients in the level-1 subspace
    product.  Reconstructing the anchor from the core through the level-1
    bases reproduces it to roundoff.

    ``_last_inverse`` holds the last successful :func:`tree_chart_inverse`
    at this chart: copies of the coordinates and core it returned and the
    point they push forward to, which :func:`tree_chart_point` returns again
    for the same coordinates and core.
    """

    anchor: np.ndarray
    tree: object
    ranks: object
    splits: dict
    level_partitions: tuple
    operator_basis: BlockOperatorBasis
    core: np.ndarray
    tol: float
    _last_inverse: tuple | None = field(default=None, init=False,
                                        repr=False)

    @property
    def shape(self):
        return self.anchor.shape


def tree_chart(v, tree, r, tol=DEFAULT_TOL):
    """Build the chart data anchored at a tensor with rank profile ``r``.

    Requires membership at the given tolerance.  When some level's Tucker
    set has the dimension of the fixed-rank set (the rule of
    :func:`~treegeom.formats.is_proper`) the chart is still built, but a
    warning notes that the fixed-rank set is not proper.

    The splits and the operator basis are the anchor's
    (:func:`~treegeom.tangent.anchor_state`): a chart, tangent report or
    immersion check at the same tensor, tree, ranks and ``tol`` shares them,
    so they are read-only.  ``anchor`` is the caller's own array.
    """
    v, anchor = anchor_state(v, tree, r, tol)
    splits = anchor.splits
    depth = levels(tree).depth
    partitions = tuple(level_partition(tree, k) for k in range(1, depth + 1))
    _, margins = dimension_margins(tree, r, v.shape)
    if min(margins.values()) <= 0:
        warnings.warn(
            "fixed-rank set is not proper: some level set has its dimension",
            stacklevel=2,
        )
    operator_basis = anchor.operator_basis()
    core = _pull_back(v, splits, partitions[0])
    return ChartData(
        anchor=v, tree=tree, ranks=r, splits=splits,
        level_partitions=partitions, operator_basis=operator_basis,
        core=core, tol=tol,
    )


def _check_core_in_domain(chart, core):
    """The core must keep full rank at every level when lifted through the
    anchor subspaces; otherwise the image leaves the fixed-rank set.

    The level-1 ranks are the ranks of the core's own unfoldings.  With
    ``M_b = U S V^T`` the core's unfolding at a level-1 block ``b``, the
    lifted core's b-unfolding is ``X_b Q^T`` with ``X_b = u_b U S``
    (``n_b x r_b``) and ``Q`` orthonormal (the other blocks' bases times
    ``V``).  So the rank at every node inside ``b`` is read off ``X_b``
    (:func:`~treegeom.subspaces.nested_ranks`), and no ``N``-sized tensor
    is formed.  Both reads stack their matrices by shape
    (:func:`~treegeom.subspaces.node_spectra`): one SVD per distinct shape
    of the core's unfoldings, one per distinct shape of the unfoldings of
    the ``X_b``.
    """
    blocks = chart.level_partitions[0]
    ranks = [chart.splits[b].rank for b in blocks]
    weighted = _check_full_core(core, blocks, ranks, chart.tol)
    found = nested_ranks(
        chart.tree,
        {b: chart.splits[b].u @ US for b, US in zip(blocks, weighted)},
        chart.shape, chart.tol,
    )
    deficient = {node for node, r in found.items() if r != chart.ranks[node]}
    failing = [k for k, part in enumerate(chart.level_partitions[1:], 2)
               if deficient.intersection(part)]
    if failing:
        raise InvalidCoreError(
            f"core loses rank at levels {failing} when lifted through the "
            "anchor bases"
        )


def _same(a, b):
    """Equal shapes and bitwise equal float64 entries."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def tree_chart_point(chart, operator_coords, core):
    """Forward tree chart: map the coordinates in the intersection basis to
    the operator's level-1 coefficients, and push the lifted core through
    the blockwise exponential factors.  The result keeps the anchor's rank
    profile: the core is checked to keep every rank when lifted, each read
    in nested coordinates, without forming the lift.

    Non-finite coordinates or core entries are an input error, raised
    before anything is factored.  For the coordinates and core that the
    last successful :func:`tree_chart_inverse` at this chart returned
    (bitwise equal), the point that inverse reconstructed is returned as a
    copy: it is this function's own result on the same inputs, since the
    chart's splits and operator basis are read-only."""
    core = _core_array(core, chart.core.shape)
    coords = np.asarray(operator_coords, dtype=float)
    if not np.all(np.isfinite(coords)):
        raise InvalidArgumentError("operator coordinates must be finite")
    last = chart._last_inverse
    if last is not None and _same(last[0], coords) and _same(last[1], core):
        return last[2].copy()
    _check_core_in_domain(chart, core)
    return _push_forward(core, chart.operator_basis.parts(coords),
                         chart.splits, chart.level_partitions[0], chart.shape)


def _chart_point_arg(chart, w):
    """The validated nonzero ``w``, checked to have the chart's shape."""
    w = check_tensor(w, allow_zero=False)
    if w.shape != chart.shape:
        raise InvalidArgumentError(
            f"tensor has shape {w.shape}, the chart's anchor has shape "
            f"{chart.shape}"
        )
    return w


def level_inverse_operator(chart, w, k):
    """Dense operator recovered by the inverse chart at level ``k``.

    For a point in the chart's image the recovered operator is the same at
    every level, up to roundoff; comparing levels is a consistency check.
    Only the graph step of :func:`tucker_chart_inverse` runs.  A level
    that is not an integer in ``1..depth``
    (:func:`~treegeom.trees.check_level`) or a tensor of another shape than
    the anchor's is an input error, raised before anything is factored.
    """
    k = check_level(chart.tree, k)
    w = _chart_point_arg(chart, w)
    blocks = chart.level_partitions[k - 1]
    subs = {b: sub for b, (sub, _, _) in
            factored_subspaces(w, blocks, chart.tol).items()}
    L = LaplacianLike(partition=blocks,
                      parts=_graph_parts(subs, chart.splits, chart.ranks))
    return assemble_laplacian(L, chart.splits, chart.shape)


def tree_chart_inverse(chart, w):
    """Inverse tree chart: coordinates in the intersection basis plus core.

    One inverse over the level-1 partition, where the coordinates live,
    gives the operator's level-1 coefficients and the pulled-back core.  The
    coefficients are projected onto the intersection basis, and the
    projection residual is required to be numerical noise; a genuine
    residual means the point is not in this chart's image, and the first
    level whose operator space misses the operator is named (level 1 holds
    it by construction, so that level is at least 2).  The recovered
    operator does not change when the point is scaled and vanishes at the
    anchor, so the residual is measured against ``max(||operator||, 1)``.
    The core is checked to be full rank at every level.

    Membership and the level-1 coefficients share one factorization
    ``U S V^T`` per level-1 unfolding, those of one shape stacked into one
    SVD, and every deeper node's rank is read off ``U S``
    (:func:`~treegeom.formats.member_subspaces`).  The core's
    ranks are read as in :func:`tree_chart_point`.  A tensor of another
    shape than the anchor's is an input error.

    The reconstructed point is kept with the chart, with copies of the
    returned coordinates and core, so that :func:`tree_chart_point` on them
    returns it without factoring or pushing forward again.  Every call
    first empties that slot, so a failed inverse leaves nothing in it.
    """
    tol = chart.tol
    object.__setattr__(chart, "_last_inverse", None)
    w = _chart_point_arg(chart, w)
    membership, subs = member_subspaces(w, chart.tree, chart.ranks, tol)
    if not membership.member:
        raise OutsideChartImageError(
            "point does not have the anchor's rank profile; failing levels "
            f"{membership.failing_levels()}",
            level=(membership.failing_levels() or [None])[0],
        )
    blocks = chart.level_partitions[0]
    parts = _graph_parts(subs, chart.splits, chart.ranks)
    core = _pull_back(w, chart.splits, blocks)
    basis = chart.operator_basis
    coords, residual, nrm = basis.part_coordinates(parts)
    limit = max(1e-8, tol) * max(nrm, 1.0)
    # written so that a NaN residual fails the check
    if not residual <= limit:
        # identify the first level whose operator space misses the operator
        level_resid = [basis.level_residual(parts, k)
                       for k in range(1, len(chart.level_partitions) + 1)]
        failing = next(
            (k for k, res in enumerate(level_resid, 1) if res > limit), None
        )
        raise OutsideChartImageError(
            "recovered operator is outside the chart's operator space"
            + (f"; level {failing} rejects it" if failing else ""),
            level=failing,
            residual=level_resid[failing - 1] if failing else residual,
        )
    try:
        _check_core_in_domain(chart, core)
    except InvalidCoreError as e:
        raise OutsideChartImageError(
            f"pulled-back core is outside the chart's core set: {e}",
        ) from e
    # the chart image need not cover a whole rank-profile neighborhood, so
    # the recovered pair is verified to actually reproduce the point
    w_rec = _push_forward(core, basis.parts(coords), chart.splits, blocks,
                          chart.shape)
    _check_reconstruction(w_rec, w, tol)
    object.__setattr__(chart, "_last_inverse",
                       (coords.copy(), np.array(core), w_rec))
    return coords, core


def _check_reconstruction(w_rec, w, tol):
    """Raise unless ``w_rec`` reproduces the nonzero ``w`` to
    ``max(tol, 1e-8)`` relative.  Both norms are taken on the tensors
    divided by ``max|w|``, so the verdict does not depend on scale: the norm
    of ``w`` itself overflows for entries near 1e200 and underflows near
    1e-180."""
    scale = np.max(np.abs(w))
    rel = float(np.linalg.norm((w_rec - w) / scale)
                / np.linalg.norm(w / scale))
    # written so that a NaN error fails the check
    if not rel <= max(tol, 1e-8):
        raise OutsideChartImageError(
            "recovered coordinates do not reproduce the point "
            f"(relative error {rel:.3e}); the point is outside this chart's "
            "image",
            residual=rel,
        )
