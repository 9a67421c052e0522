"""Fixed-rank tree format sets: membership, admissibility, properness, sampling.

The set of tensors with a prescribed tree-based rank is the intersection of
the level-wise Tucker sets of the tree.  Membership is therefore decided by
checking, at every level partition, that every block's minimal subspace has
the prescribed dimension; the report records each level so the equivalence
with the direct all-node rank check is observable.  A block that appears in
several level partitions (a leaf above the deepest level) is one tree node,
so the rank profile is computed once, one singular-value-only SVD per node,
and every level reads its blocks off it.

This module owns the tree network (:func:`contract_network`, shared by the
sampler and the Jacobian oracle of :mod:`treegeom.tangent`, and its
dimension :func:`network_dimension_formula`), contracted node by node with
no Kronecker product of the sons' bases; the membership precondition of
everything anchored at a point (:func:`member_splits`), and the membership
verdict together with the level-1 bases a chart inverse reads
(:func:`member_subspaces`), both on arguments :func:`member_args` checked.

Admissibility (is some tensor realizing the tuple?) is decided by a list of
necessary conditions followed by randomized realization attempts, and
records what was checked.  Properness (does the fixed-rank set differ from
every single-level Tucker set?) is exact: it compares the dimension of the
fixed-rank set with that of each level set (:func:`dimension_margins`), and
the report carries every level's margin.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .errors import (
    DegenerateInputError,
    GenerationFailureError,
    InvalidArgumentError,
    NotOnManifoldError,
)
from .operators import tree_splits
from .subspaces import (
    DEFAULT_TOL,
    TreeRank,
    factored_subspace,
    nested_ranks,
    node_ranks,
)
from .tensor import (
    check_integer,
    check_tensor,
    check_tol,
    complement_modes,
    normalize_modes,
    push_blocks,
    sorted_blocks,
)
from .trees import level_partition, levels

__all__ = [
    "LevelCheck",
    "MembershipReport",
    "AdmissibilityVerdict",
    "PropernessReport",
    "tucker_membership",
    "is_member",
    "bounded_rank_member",
    "necessary_rank_conditions",
    "is_admissible",
    "is_proper",
    "contract_network",
    "node_basis",
    "network_dimension_formula",
    "random_tree_tensor",
]


@dataclass(frozen=True)
class LevelCheck:
    partition: tuple
    expected: tuple
    computed: tuple
    passed: bool


@dataclass(frozen=True)
class MembershipReport:
    member: bool
    root_ok: bool
    per_level: dict
    tol: float

    def failing_levels(self):
        return [k for k, chk in sorted(self.per_level.items()) if not chk.passed]

    def to_dict(self):
        return {
            "member": self.member,
            "root_ok": self.root_ok,
            "tol": self.tol,
            "levels": {
                str(k): {
                    "partition": [list(b) for b in chk.partition],
                    "expected": list(chk.expected),
                    "computed": list(chk.computed),
                    "passed": chk.passed,
                }
                for k, chk in sorted(self.per_level.items())
            },
        }


@dataclass(frozen=True)
class AdmissibilityVerdict:
    verdict: str  # "admissible" | "inadmissible" | "unknown"
    violated_conditions: tuple
    witness: object = None
    attempts: int = 0

    def to_dict(self):
        return {
            "verdict": self.verdict,
            "violated_conditions": list(self.violated_conditions),
            "attempts": self.attempts,
            "witness_found": self.witness is not None,
        }


@dataclass(frozen=True)
class PropernessReport:
    proper: bool
    reason: str
    dimension: int
    level_margins: dict

    def to_dict(self):
        return {
            "proper": self.proper,
            "reason": self.reason,
            "dimension": self.dimension,
            "level_margins": {str(k): m for k, m in self.level_margins.items()},
        }


def _check_covers(tree, r):
    """The rank tuple names every tree node and no other block."""
    named = r.nodes()
    missing = tree.nodes - named
    if missing:
        raise InvalidArgumentError(
            f"rank tuple is missing tree nodes {[set(b) for b in sorted(missing)]}"
        )
    extra = named - tree.nodes
    if extra:
        raise InvalidArgumentError(
            f"rank tuple names blocks that are no tree nodes "
            f"{[set(b) for b in sorted(extra)]}"
        )


def _check_rank_args(tree, r, shape):
    """A valid tree, a shape with one size per mode and a rank tuple
    naming exactly the tree's nodes.  Each public call that takes a rank
    tuple runs it once; the kernels it calls take checked arguments."""
    tree.ensure_valid()
    if len(shape) != tree.ndim:
        raise InvalidArgumentError(
            f"tree has {tree.ndim} modes, shape {tuple(shape)} has "
            f"{len(shape)}")
    _check_covers(tree, r)


def member_args(v, tree, r, tol):
    """The validated tensor, checked against a tree and a rank tuple
    covering it, and ``tol``."""
    check_tol(tol)
    v = check_tensor(v, allow_zero=False)
    _check_rank_args(tree, r, v.shape)
    return v


def tucker_membership(v, partition, ranks, tol=DEFAULT_TOL):
    """Do the blockwise minimal subspace dimensions match ``ranks`` exactly?

    ``ranks`` maps each partition block to a positive integer.  Returns the
    boolean verdict and the computed dimensions, in block order.
    """
    check_tol(tol)
    v = check_tensor(v, allow_zero=False)
    blocks = sorted_blocks(normalize_modes(b, v.ndim) for b in partition)
    missing = [set(b) for b in blocks if b not in ranks]
    if missing:
        raise InvalidArgumentError(f"ranks are missing blocks {missing}")
    expected = tuple(int(ranks[b]) for b in blocks)
    if any(e < 1 for e in expected):
        raise InvalidArgumentError("expected ranks must be positive")
    found = node_ranks(v, blocks, tol)
    computed = tuple(found[b] for b in blocks)
    return computed == expected, computed


def is_member(v, tree, r, tol=DEFAULT_TOL):
    """Membership of ``v`` in the fixed tree-based rank set.

    Runs the Tucker membership test at every level partition; the member flag
    is the conjunction of the per-level passes together with the (trivial)
    root condition.  Equivalent to checking the minimal subspace dimension at
    every tree node directly: every level reads its blocks off one rank
    profile of ``v``, one SVD per tree node.
    """
    v = member_args(v, tree, r, tol)
    return _membership_report(node_ranks(v, tree.nodes, tol), tree, r, tol)


def member_subspaces(v, tree, r, tol):
    """:func:`is_member` of a ``v`` already through :func:`member_args`,
    together with the minimal subspace of every level-1 block, keyed by
    block in level order.

    Each level-1 unfolding ``U S V^T`` is factored once, with its singular
    vectors, and its rank is that basis's dimension.  Every other non-root
    node lies inside one level-1 block ``b`` and is read off ``U S``
    (``n_b`` rows), whose unfoldings have the singular values of the
    tensor's since ``V^T`` has orthonormal rows: one SVD without factors
    per distinct unfolding shape, and the tensor is unfolded at the level-1
    blocks only (:func:`~treegeom.subspaces.nested_ranks`).  The root
    takes none: its verdict is the rank tuple's own root condition.
    """
    subs, weighted = {}, {}
    for b in level_partition(tree, 1):
        subs[b], U, s = factored_subspace(v, b, tol)
        weighted[b] = U * s
    computed = {**nested_ranks(tree, weighted, v.shape, tol),
                **{b: sub.rank for b, sub in subs.items()}}
    return _membership_report(computed, tree, r, tol), subs


def _membership_report(computed, tree, r, tol):
    """The level-by-level verdict on the ranks ``computed`` at (at least)
    every non-root node."""
    per_level = {}
    for k in range(1, levels(tree).depth + 1):
        blocks = level_partition(tree, k)
        expected = tuple(r[b] for b in blocks)
        got = tuple(computed[b] for b in blocks)
        per_level[k] = LevelCheck(blocks, expected, got, got == expected)
    ok = all(chk.passed for chk in per_level.values())
    root_ok = r[tree.root] == 1  # a nonzero tensor always spans a line
    return MembershipReport(
        member=ok and root_ok, root_ok=root_ok, per_level=per_level, tol=tol
    )


def member_splits(v, tree, r, tol):
    """The splits of a ``v`` already through :func:`member_args` at every
    non-root node (one factorization each, none at the root); raises
    :class:`NotOnManifoldError`, carrying the failing levels, unless their
    ranks are ``r``.  The membership precondition of everything anchored at
    a point, run once per anchor (:func:`treegeom.tangent.anchor_state`)."""
    splits = tree_splits(v, tree, tol)
    report = _membership_report(
        {node: s.rank for node, s in splits.items()}, tree, r, tol
    )
    if not report.member:
        raise NotOnManifoldError(
            f"tensor does not have the prescribed rank profile; failing "
            f"levels {report.failing_levels()}",
            levels=report.failing_levels(),
        )
    return splits


def bounded_rank_member(v, tree, r, tol=DEFAULT_TOL):
    """True iff every node's minimal subspace dimension is at most its bound."""
    v = member_args(v, tree, r, tol)
    computed = node_ranks(v, tree.nodes, tol)
    return all(computed[node] <= r[node] for node in tree.nodes)


def necessary_rank_conditions(tree, r, shape):
    """Violated necessary conditions for a rank tuple to be realizable.

    Checks, for every node: the root rank is one; the rank is bounded by the
    sizes of the unfolding (both sides, since an unfolding and the unfolding
    of the complement are transposes); a non-leaf rank is at most the product
    of its sons' ranks; and every non-root rank is at most the parent rank
    times the product of the sibling ranks (the same transpose argument
    applied to the complement).  Returns a list of human-readable violations,
    empty when all conditions hold.  The arguments are checked here, once
    for :func:`is_admissible`, :func:`generation_attempts` and
    :func:`is_proper`.
    """
    _check_rank_args(tree, r, shape)
    violations = []
    if r[tree.root] != 1:
        violations.append(f"root rank must be 1, got {r[tree.root]}")
    for node in sorted(tree.nodes, key=lambda b: (len(b), b)):
        n_in = prod(shape[m - 1] for m in node)
        n_out = prod(shape[m - 1] for m in complement_modes(node, tree.ndim)) \
            if len(node) < tree.ndim else 1
        bound = min(n_in, n_out)
        if r[node] > bound:
            violations.append(
                f"rank {r[node]} at {set(node)} exceeds the unfolding bound {bound}"
            )
        kids = tree.sons_of(node)
        if kids:
            son_prod = prod(r[b] for b in kids)
            if r[node] > son_prod:
                violations.append(
                    f"rank {r[node]} at {set(node)} exceeds the product "
                    f"{son_prod} of its sons' ranks"
                )
        if node != tree.root:
            parent = tree.parent_of(node)
            siblings = [b for b in tree.sons_of(parent) if b != node]
            comp_bound = r[parent] * prod(r[b] for b in siblings)
            if r[node] > comp_bound:
                violations.append(
                    f"rank {r[node]} at {set(node)} exceeds the complement "
                    f"bound {comp_bound} (parent times siblings)"
                )
    return violations


def _orthonormal_columns(rng, n, r):
    Q, _ = np.linalg.qr(rng.standard_normal((n, r)))
    return Q[:, :r]


def contract_network(tree, shape, leaf_factors, transfers):
    """The tensor of a tree network: each interior node's basis is its
    :func:`node_basis`, contracted bottom-up from ``leaf_factors``; the
    root's transfer is a coefficient vector."""
    bases = dict(leaf_factors)

    def build(node):
        for kid in tree.sons_of(node):
            if kid in tree.sons:
                bases[kid] = build(kid)
        return node_basis(tree, node, bases, transfers[node], shape)

    return build(tree.root).reshape(shape)


def node_basis(tree, node, bases, transfer, shape):
    """The sons' ``bases`` of an interior ``node`` pushed through its
    ``transfer`` (rows over the sons' rank coordinates, row-major in son
    order), with rows row-major over the modes of ``node``."""
    kids = tree.sons_of(node)
    core = transfer.reshape([bases[kid].shape[1] for kid in kids]
                            + list(transfer.shape[1:]))
    t = push_blocks(core, [bases[kid] for kid in kids], kids, shape)
    return t.reshape(-1, *transfer.shape[1:])


def network_dimension_formula(tree, r, shape):
    """Closed-form parameter count of the tree network modulo per-node gauge:
    root coefficient block, plus one transfer block per interior node, plus
    the leaf factors, minus one general linear group per non-root node."""
    _check_rank_args(tree, r, shape)
    return network_dimension(tree, r, shape)


def network_dimension(tree, r, shape):
    """:func:`network_dimension_formula` on arguments already checked, as
    :func:`member_args` or :func:`necessary_rank_conditions` check them."""
    core = prod(r[b] for b in tree.sons_of(tree.root))
    interior = sum(
        r[node] * prod(r[b] for b in tree.sons_of(node))
        for node in tree.sons
        if node != tree.root
    )
    leaf = sum(shape[node[0] - 1] * r[node] for node in tree.leaves)
    gauge = sum(r[node] ** 2 for node in tree.nodes if node != tree.root)
    return core + interior + leaf - gauge


def _sample_network(tree, r, shape, rng):
    """Random tree network with representation ranks ``r``, normalized:
    orthonormal leaf factors, generic transfer coefficients, each node drawn
    after its sons."""
    leaf_factors = {}
    transfers = {}

    def draw(node):
        kids = tree.sons_of(node)
        for kid in kids:
            draw(kid)
        if not kids:
            leaf_factors[node] = _orthonormal_columns(
                rng, shape[node[0] - 1], r[node]
            )
            return
        rows = prod(r[kid] for kid in kids)
        transfers[node] = rng.standard_normal(
            rows if node == tree.root else (rows, r[node])
        )

    draw(tree.root)
    v = contract_network(tree, shape, leaf_factors, transfers)
    nrm = np.linalg.norm(v)
    if nrm == 0.0:
        raise DegenerateInputError("sampled network collapsed to zero")
    return v / nrm


def random_tree_tensor(tree, r, shape, seed=0, max_retries=20, tol=DEFAULT_TOL):
    """Random tensor with the exact tree-based rank ``r``.

    Raises immediately when a necessary condition is violated.  Otherwise a
    random network is contracted and the rank profile verified, retrying with
    seeds ``seed, seed+1, ...`` up to ``max_retries`` times; exhaustion is
    reported as a generation failure (evidence that the tuple may not be
    realizable over this shape).
    """
    return generation_attempts(tree, r, shape, seed, max_retries, tol)[0]


def _check_attempts(count, name):
    """A generation attempt budget must allow at least one attempt."""
    if count < 1:
        raise InvalidArgumentError(f"{name} must be at least 1")


def _violations(tree, r, shape, seed, count, name, tol):
    """The checked seed, attempt budget, ``tol`` and arguments of a
    generator, and the rank tuple's violated necessary conditions."""
    check_integer(seed, "seed", 0)
    _check_attempts(count, name)
    check_tol(tol)
    return necessary_rank_conditions(tree, r, shape)


def generation_attempts(tree, r, shape, seed=0, max_retries=20, tol=DEFAULT_TOL):
    """Like :func:`random_tree_tensor` but also reports the attempt count."""
    violations = _violations(tree, r, shape, seed, max_retries,
                             "max_retries", tol)
    if violations:
        raise InvalidArgumentError(
            "rank tuple violates necessary conditions: " + "; ".join(violations)
        )
    return sample_attempts(tree, r, shape, seed, max_retries, tol)


def sample_attempts(tree, r, shape, seed, max_retries, tol):
    """The sampling loop of :func:`generation_attempts` on checked
    arguments.  Each sample's rank profile, one SVD per tree node, is
    compared with ``r`` at every node, the root included: a returned
    tensor has the tree rank ``r`` and is a member of the fixed-rank set
    at ``tol``, with no second check."""
    for attempt in range(max_retries):
        rng = np.random.default_rng(seed + attempt)
        v = _sample_network(tree, r, shape, rng)
        # a sampled network is finite and, normalized, nonzero
        last = node_ranks(v, tree.nodes, tol)
        if last == r.ranks:
            return v, attempt + 1
    raise GenerationFailureError(
        f"could not realize the requested ranks in {max_retries} attempts; "
        f"last profile {TreeRank(last)}"
    )


def is_admissible(tree, r, shape, trials=20, seed=0, tol=DEFAULT_TOL):
    """Verdict on whether some tensor over ``shape`` realizes the tuple ``r``.

    A violated necessary condition proves inadmissibility.  If all conditions
    hold, random realization is attempted up to ``trials`` times; success
    yields an admissible verdict with the witness, exhaustion yields
    "unknown" (the conditions are necessary, not known to be sufficient, and
    a sampling miss is not a proof).
    """
    violations = _violations(tree, r, shape, seed, trials, "trials", tol)
    if violations:
        return AdmissibilityVerdict(
            verdict="inadmissible", violated_conditions=tuple(violations)
        )
    try:
        witness, attempts = sample_attempts(tree, r, shape, seed, trials, tol)
        return AdmissibilityVerdict(
            verdict="admissible", violated_conditions=(), witness=witness,
            attempts=attempts,
        )
    except GenerationFailureError:
        return AdmissibilityVerdict(
            verdict="unknown", violated_conditions=(), attempts=trials
        )


def dimension_margins(tree, r, shape):
    """The dimension ``f`` of the fixed tree-rank set
    (:func:`network_dimension_formula`) and, for every level ``k``, the
    margin ``dim_k - f``, where ``dim_k = prod_b r_b + sum_b r_b (n_b - r_b)``
    over the level-k blocks ``b`` (``n_b`` the product of their mode sizes)
    is the dimension of the level-k Tucker set.  The arguments must have
    been checked, as :func:`member_args` or :func:`is_admissible` do."""
    f = network_dimension(tree, r, shape)
    margins = {}
    for k in range(1, levels(tree).depth + 1):
        blocks = level_partition(tree, k)
        dim_k = prod(r[b] for b in blocks) + sum(
            r[b] * (prod(shape[m - 1] for m in b) - r[b]) for b in blocks
        )
        margins[k] = dim_k - f
    return f, margins


def is_proper(tree, r, shape, seed=0, tol=DEFAULT_TOL):
    """Is the fixed tree-based rank set different from every level set?

    Decided by dimension counts.  The fixed-rank set lies in every level-k
    Tucker set, and at generic points both are manifolds, of dimensions
    ``f`` and ``dim_k`` (:func:`dimension_margins`; Uschmajew & Vandereycken,
    "The geometry of algorithms using hierarchical tensors", 2013).  Where
    ``dim_k = f`` the fixed-rank set is open in the level-k set, so a
    generic level-k tensor has the tree ranks: not proper.  Where
    ``dim_k > f`` at every level it is a thinner submanifold of each: proper.
    A depth-1 tree has one level, whose margin is 0.  The report carries
    ``f`` and every level's margin.

    The counts presume the tuple is realizable: an inadmissible tuple raises
    :class:`InvalidArgumentError`, and one for which :func:`is_admissible`
    (at ``seed`` and ``tol``) finds no witness raises
    :class:`GenerationFailureError`.
    """
    verdict = is_admissible(tree, r, shape, seed=seed, tol=tol)
    if verdict.verdict == "inadmissible":
        raise InvalidArgumentError(
            "rank tuple is inadmissible: "
            + "; ".join(verdict.violated_conditions)
        )
    if verdict.verdict == "unknown":
        raise GenerationFailureError(
            f"no tensor with the requested ranks found in {verdict.attempts} "
            "attempts; properness is decided for realizable tuples only"
        )
    f, margins = dimension_margins(tree, r, shape)
    flat = [k for k, m in margins.items() if m <= 0]
    if flat:
        reason = (
            f"the fixed-rank set has the dimension {f} of the level-{flat[0]} "
            "Tucker set, so it is open in that set"
        )
    else:
        reason = (
            f"the fixed-rank set has dimension {f}, below that of every "
            "level Tucker set"
        )
    return PropernessReport(
        proper=not flat, reason=reason, dimension=f, level_margins=margins
    )
