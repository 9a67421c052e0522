"""Independent reference computations used as oracles by the tests.

These deliberately avoid the library's own code paths: ranks via Gaussian
elimination, subspace intersections via full complement projectors, mode
operators via explicit index loops, properness by sampling the level Tucker
sets, tree networks and the Jacobian via Kronecker products of the sons'
bases, dense block operators via Kronecker products with identities, and
block contractions via ``np.tensordot``.  The dense operator-space oracles
(level bases, their intersection, the partial-trace decomposition) are in
``oracles.py``.
"""

from fractions import Fraction
from math import prod

import numpy as np


def gauss_rank_exact(M):
    """Rank over the rationals by fraction-free Gaussian elimination.

    Exact for integer (or rational) matrices; the reference for SVD rank
    decisions on integer test data.
    """
    rows = [[Fraction(x) for x in row] for row in np.asarray(M).tolist()]
    rank = 0
    n_rows = len(rows)
    n_cols = len(rows[0]) if n_rows else 0
    col = 0
    for col in range(n_cols):
        pivot = None
        for i in range(rank, n_rows):
            if rows[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pr = rows[rank]
        for i in range(rank + 1, n_rows):
            if rows[i][col] != 0:
                factor = rows[i][col] / pr[col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], pr)]
        rank += 1
        if rank == n_rows:
            break
    return rank


def gauss_rank_float(M, tol=1e-10):
    """Rank by partially pivoted row reduction with a relative threshold."""
    A = np.array(M, dtype=float)
    if A.size == 0:
        return 0
    scale = np.max(np.abs(A))
    if scale == 0:
        return 0
    n_rows, n_cols = A.shape
    rank = 0
    for col in range(n_cols):
        if rank == n_rows:
            break
        pivot = rank + int(np.argmax(np.abs(A[rank:, col])))
        if abs(A[pivot, col]) <= tol * scale:
            continue
        A[[rank, pivot]] = A[[pivot, rank]]
        A[rank + 1:] -= np.outer(
            A[rank + 1:, col] / A[rank, col], A[rank]
        )
        rank += 1
    return rank


def apply_single_mode_oracle(A, mode, v):
    """Apply a matrix on one mode by explicit index iteration."""
    d = v.ndim
    out_shape = list(v.shape)
    out_shape[mode - 1] = A.shape[0]
    out = np.zeros(out_shape)
    for idx in np.ndindex(*out_shape):
        acc = 0.0
        for k in range(v.shape[mode - 1]):
            src = list(idx)
            src[mode - 1] = k
            acc += A[idx[mode - 1], k] * v[tuple(src)]
        out[idx] = acc
    return out


def intersection_dim_bruteforce(bases, tol=1e-10):
    """Dimension of the intersection of operator spaces via the nullspace of
    the sum of full complement projectors (dense, tiny cases only)."""
    if not bases:
        return 0
    n = bases[0].vectors.shape[0]
    S = np.zeros((n, n))
    for b in bases:
        S += np.eye(n) - b.vectors @ b.vectors.T
    w = np.linalg.eigvalsh(S)
    return int(np.sum(np.abs(w) <= tol * max(1.0, np.max(np.abs(w)))))


def principal_angle_residual(B1, B2):
    """How far two orthonormal bases are from spanning the same space:
    1 minus the smallest singular value of the cross-Gram (0 for equal spans
    of equal dimension)."""
    if B1.shape[1] != B2.shape[1]:
        return 1.0
    if B1.shape[1] == 0:
        return 0.0
    s = np.linalg.svd(B1.T @ B2, compute_uv=False)
    return float(1.0 - s[-1])


NESTED_TREES = {
    "deep": [[[1], [[2], [3]]], [4]],
    "mixed": [[[1], [[2], [3]]], [[4], [5]], [6]],
}

# one case per tree kind, every mode of size >= 3
KRONECKER_CASES = [
    ("tucker", (3, 4, 3)),
    ("deep", (3, 4, 3, 3)),
    ("linear", (3, 3, 4, 3, 3)),
    ("binary", (3, 4, 3, 3)),
    ("mixed", (3,) * 6),
]


def kind_tree(kind, d):
    """The tree of a test case: Tucker, linear or balanced binary over
    ``d`` modes, or one of :data:`NESTED_TREES`."""
    import treegeom as tg

    builders = {
        "tucker": tg.tucker_tree,
        "linear": tg.linear_tree,
        "binary": tg.balanced_binary_tree,
    }
    if kind in builders:
        return builders[kind](d)
    return tg.tree_from_nested(NESTED_TREES[kind])


def capped_rank_tuple(tree, shape, cap=2):
    """Rank tuple with every non-root rank at min(cap, unfolding bounds);
    valid for the shapes used in the tests (all mode sizes at least 2)."""
    from treegeom.subspaces import TreeRank

    N = prod(shape)
    ranks = {}
    for node in tree.nodes:
        if node == tree.root:
            ranks[node] = 1
            continue
        n_in = prod(shape[m - 1] for m in node)
        ranks[node] = min(cap, n_in, N // n_in)
    return TreeRank(ranks)


def lift_core(core, bases, blocks, shape):
    """The tensor with coefficients ``core`` (one axis per block, in block
    order) in one ambient basis matrix per block: contract block by block,
    then unfuse the blocks and put the modes back in order 1..d."""
    v = core
    for B in bases:
        v = np.tensordot(v, B, axes=([0], [1]))
    dims = [shape[m - 1] for b in blocks for m in b]
    modes = [m for b in blocks for m in b]
    return np.transpose(v.reshape(dims), np.argsort(modes))


def random_tucker_tensor(partition, ranks, shape, seed=0, max_retries=20,
                         tol=1e-10):
    """Random tensor in a single-level Tucker set: a generic full-rank core
    expressed in random orthonormal block subspaces, verified blockwise."""
    import treegeom as tg
    from treegeom.tensor import normalize_modes, sorted_blocks

    blocks = sorted_blocks(normalize_modes(b, len(shape)) for b in partition)
    rank_map = {b: int(ranks[b]) for b in blocks}
    for b in blocks:
        n_in = prod(shape[m - 1] for m in b)
        n_out = prod(shape) // n_in
        if not 1 <= rank_map[b] <= min(n_in, n_out):
            raise tg.InvalidArgumentError(
                f"rank {rank_map[b]} at block {set(b)} is not realizable "
                f"over shape {tuple(shape)}"
            )
    for attempt in range(max_retries):
        rng = np.random.default_rng(seed + attempt)
        core = rng.standard_normal([rank_map[b] for b in blocks])
        bases = [
            np.linalg.qr(rng.standard_normal(
                (prod(shape[m - 1] for m in b), rank_map[b])))[0]
            for b in blocks
        ]
        v = lift_core(core, bases, blocks, shape)
        v = v / np.linalg.norm(v)
        ok, _ = tg.tucker_membership(v, blocks, rank_map, tol)
        if ok:
            return v
    raise tg.GenerationFailureError(
        "could not realize the blockwise ranks in random sampling"
    )


def sampled_properness(tree, r, shape, trials=50, seed=0, tol=1e-10):
    """Monte-Carlo properness verdict, the oracle for ``is_proper``.

    Level k differs from the fixed-rank set when one of ``trials`` random
    members of the level-k Tucker set (seeds ``seed + 1000*k + t``) misses
    the tree ranks; the set is proper when every level does.  A level whose
    samples all keep the tree ranks, or that cannot be sampled, is not told
    apart.
    """
    import treegeom as tg

    for k in range(1, tg.levels(tree).depth + 1):
        blocks = tg.level_partition(tree, k)
        rank_map = {b: r[b] for b in blocks}
        escaped = False
        for t in range(trials):
            try:
                w = random_tucker_tensor(
                    blocks, rank_map, shape, seed=seed + 1000 * k + t, tol=tol
                )
            except tg.GenerationFailureError:
                continue
            if not tg.is_member(w, tree, r, tol).member:
                escaped = True
                break
        if not escaped:
            return False
    return True


def per_entry_jacobian(v, tree, splits):
    """Reference Jacobian of the tree-network parametrization: one
    Kronecker-lift network contraction per parameter entry, with that entry
    set to one and the rest of its block to zero (exact, as the network is
    linear in each block), at the parameter point and in the column order of
    ``parametrization_jacobian``."""
    v = v / np.linalg.norm(v)
    leaf_factors, transfers = kron_network_parameters(v, tree, splits)
    columns = []
    for store in (leaf_factors, transfers):
        for node in sorted(store):
            base = store[node]
            unit = store[node] = np.zeros_like(base)
            for i in range(unit.size):
                unit.flat[i] = 1.0
                columns.append(kron_contract_network(
                    tree, v.shape, leaf_factors, transfers).ravel())
                unit.flat[i] = 0.0
            store[node] = base
    return np.column_stack(columns)


def kron_jacobian(v, tree, splits):
    """Reference closed-form Jacobian, built as the library built it before
    it wrote each block in place: per node, in the column order of
    ``parametrization_jacobian``, the Kronecker product of the node's lift
    (:func:`~treegeom.formats.node_basis` of the identity inside, the
    identity at a leaf) with its coefficients on the other modes, rows
    permuted from (node, rest) order, the blocks stacked by ``np.hstack``.
    The same products in the same order, so it is bitwise the library's."""
    from treegeom.formats import node_basis
    from treegeom.tensor import block_transpose_permutation

    v = v / np.max(np.abs(v))
    v = v / np.linalg.norm(v)
    shape = v.shape
    bases = {node: s.u for node, s in splits.items()}
    blocks = []
    for node in sorted(tree.leaves) + sorted(tree.sons):
        if node in tree.sons:
            m = prod(bases[kid].shape[1] for kid in tree.sons_of(node))
            lift = node_basis(tree, node, bases, np.eye(m), shape)
        else:
            lift = np.eye(shape[node[0] - 1])
        if node == tree.root:
            blocks.append(lift)
            continue
        perm = block_transpose_permutation(shape, node)
        coeff = bases[node].T @ v.ravel()[perm].reshape(lift.shape[0], -1)
        block = np.empty((v.size, lift.shape[1] * coeff.shape[0]))
        block[perm] = np.kron(lift, coeff.T)
        blocks.append(block)
    return np.hstack(blocks)


def son_lift(tree, node, bases, shape):
    """Reference lift at an interior ``node``: the Kronecker product of its
    sons' bases, an ``n_node x prod r_sons`` matrix with rows row-major over
    the sorted modes of ``node`` and columns row-major in son order."""
    kids = tree.sons_of(node)
    G = bases[kids[0]]
    for kid in kids[1:]:
        G = np.kron(G, bases[kid])
    # reorder rows from son-concatenated mode order to sorted mode order
    concat_modes = [m for kid in kids for m in kid]
    sizes = [shape[m - 1] for m in concat_modes]
    axes = [concat_modes.index(m) for m in sorted(node)]
    rowperm = np.transpose(
        np.arange(prod(sizes)).reshape(sizes), axes
    ).ravel()
    return G[rowperm]


def kron_contract_network(tree, shape, leaf_factors, transfers):
    """Reference tree-network contraction: every interior node's basis is
    its :func:`son_lift` times its transfer, bottom-up."""
    bases = dict(leaf_factors)

    def build(node):
        for kid in tree.sons_of(node):
            if kid in tree.sons:
                bases[kid] = build(kid)
        return son_lift(tree, node, bases, shape) @ transfers[node]

    return build(tree.root).reshape(shape)


def kron_network_parameters(v, tree, splits):
    """Reference parameter point of ``v``: every transfer is the transposed
    :func:`son_lift` times the node's basis (times ``v`` at the root)."""
    bases = {node: s.u for node, s in splits.items()}
    transfers = {
        node: son_lift(tree, node, bases, v.shape).T
        @ (v.ravel() if node == tree.root else bases[node])
        for node in tree.sons
    }
    return {leaf: bases[leaf] for leaf in tree.leaves}, transfers


def kron_embed_block_operator(M, alpha, shape):
    """Reference block embedding: the Kronecker product ``M (x) I_rest``
    conjugated by the mode permutation that groups ``alpha`` in front."""
    from treegeom.tensor import block_transpose_permutation

    n_rest = prod(shape) // M.shape[0]
    inv = np.argsort(block_transpose_permutation(shape, alpha))
    return np.kron(M, np.eye(n_rest))[np.ix_(inv, inv)]


def kron_assemble_laplacian(L, splits, shape):
    """Reference dense Laplacian-like operator: the sum, in partition
    order, of every block's lifted part through
    :func:`kron_embed_block_operator`."""
    from treegeom.operators import lifted_part

    N = prod(shape)
    out = np.zeros((N, N))
    for b in L.partition:
        out += kron_embed_block_operator(
            lifted_part(splits[b], L.parts[b]), b, shape)
    return out


def kron_basis_vectors(basis):
    """Reference dense ``N^2 x dim`` basis of a factored operator basis:
    one :func:`kron_embed_block_operator` column per coordinate, in the
    order of :meth:`~treegeom.tangent.BlockOperatorBasis.parts`."""
    from treegeom.operators import lifted_part

    N = prod(basis.shape)
    columns = []
    for b, s, n_rest, Q in zip(basis.blocks, basis.splits, basis.n_rest,
                               basis.null):
        for c in Q.T:
            C = c.reshape(s.rank, s.corank).T / np.sqrt(n_rest)
            columns.append(kron_embed_block_operator(
                lifted_part(s, C), b, basis.shape).ravel())
    return np.column_stack(columns) if columns else np.zeros((N * N, 0))


def tensordot_push_blocks(core, bases, blocks, shape):
    """Reference :func:`~treegeom.tensor.push_blocks`: one
    ``np.tensordot`` per block, then the modes unfused and put in order,
    the trailing axes last."""
    t = core
    for B in bases:
        t = np.tensordot(t, B, axes=([0], [1]))
    lead = t.ndim - len(blocks)
    modes = [m for b in blocks for m in b]
    t = t.reshape(t.shape[:lead] + tuple(shape[m - 1] for m in modes))
    order = sorted(range(len(modes)), key=modes.__getitem__)
    return np.ascontiguousarray(np.transpose(
        t, [lead + i for i in order] + list(range(lead))))


def tensordot_pull_blocks(w, bases, blocks, shape):
    """Reference :func:`~treegeom.tensor.pull_blocks`: the blocks' modes
    fused, then one ``np.tensordot`` per block."""
    modes = [m for b in blocks for m in b]
    axis = {m: i for i, m in enumerate(sorted(modes))}
    trailing = list(range(len(modes), w.ndim))
    t = np.transpose(w, [axis[m] for m in modes] + trailing)
    t = t.reshape([prod(shape[m - 1] for m in b) for b in blocks]
                  + [w.shape[i] for i in trailing])
    for B in bases:
        t = np.tensordot(t, B, axes=([0], [0]))
    return np.transpose(t, list(range(len(trailing), t.ndim))
                        + list(range(len(trailing))))


def dense_projection(v, bases):
    """Reference projection of ``v`` onto the tensor product of the spans of
    orthonormal bases, keyed by mode block: one dense ``n_b x n_b``
    projector per block, applied to ``v`` with the block's modes moved in
    front and fused."""
    for b, B in sorted(bases.items()):
        axes = [m - 1 for m in b] + [m for m in range(v.ndim)
                                     if m + 1 not in b]
        t = np.transpose(v, axes)
        t = (B @ B.T @ t.reshape(len(B), -1)).reshape(t.shape)
        v = np.transpose(t, np.argsort(axes))
    return v


def fix_signs_loop(U, Vt):
    """Reference SVD sign convention, one column at a time: the entry of
    largest magnitude in each column of ``U`` is made nonnegative (ties break
    at the lowest index), and the matching row of ``Vt``, where there is
    one, flips with it."""
    U = U.copy()
    Vt = Vt.copy()
    for j in range(U.shape[1]):
        col = U[:, j]
        i = int(np.argmax(np.abs(col)))
        if col[i] < 0:
            U[:, j] = -col
            if j < Vt.shape[0]:
                Vt[j, :] = -Vt[j, :]
    return U, Vt


def unfolding_shapes(shape, nodes):
    """The distinct matrix shapes of the unfoldings of a tensor of ``shape``
    at ``nodes``: the node spectra take one SVD per shape."""
    N = prod(shape)
    sizes = {prod(shape[m - 1] for m in node) for node in nodes}
    return {(n, N // n) for n in sizes}


def record_node_requests(monkeypatch, shape):
    """Count the nodes requested from ``subspaces.node_spectra`` on a
    tensor of ``shape`` (each request's axes as a mode tuple), in every
    treegeom module that binds it; requests on other arrays (a chart core,
    a block factor, a basis) are not counted."""
    import importlib
    from collections import Counter

    from treegeom import subspaces

    inner = subspaces.node_spectra
    requested = Counter()

    def counted(pieces, requests, *args, **kwargs):
        if len(pieces) == 1 and pieces[0].shape == tuple(shape):
            requested.update(tuple(a + 1 for a in axes)
                             for _, axes in requests)
        return inner(pieces, requests, *args, **kwargs)

    for name in ("subspaces", "formats", "operators", "charts", "tangent",
                 "cli"):
        module = importlib.import_module("treegeom." + name)
        if getattr(module, "node_spectra", None) is inner:
            monkeypatch.setattr(module, "node_spectra", counted)
    return requested
