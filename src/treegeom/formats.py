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
sampler and the Jacobian oracle of :mod:`treegeom.tangent`) and the
membership precondition of everything anchored at a point
(:func:`require_member`).

Admissibility (is some tensor realizing the tuple?) is decided by a list of
necessary conditions followed by randomized realization attempts; properness
(does the fixed-rank set differ from every single-level Tucker set?) is
decided by a structural implication rule plus Monte-Carlo sampling.  Both
verdicts record exactly what was checked: a sampled "proper" verdict is
probabilistic and says so.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod

import numpy as np

from .errors import (
    DegenerateInputError,
    GenerationFailureError,
    InvalidArgumentError,
    NotOnManifoldError,
)
from .operators import tree_splits
from .subspaces import DEFAULT_TOL, _ranks, tree_rank
from .tensor import (
    check_tensor,
    complement_modes,
    normalize_modes,
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
    "require_member",
    "bounded_rank_member",
    "necessary_rank_conditions",
    "is_admissible",
    "is_proper",
    "contract_network",
    "random_tree_tensor",
    "random_tucker_tensor",
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
    structural: bool
    samples_per_level: dict = field(default_factory=dict)
    escapes_per_level: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "proper": self.proper,
            "reason": self.reason,
            "structural": self.structural,
            "samples_per_level": {str(k): v for k, v in self.samples_per_level.items()},
            "escapes_per_level": {str(k): v for k, v in self.escapes_per_level.items()},
        }


def _check_covers(tree, r):
    missing = tree.nodes - r.nodes()
    if missing:
        raise InvalidArgumentError(
            f"rank tuple is missing tree nodes {[set(b) for b in sorted(missing)]}"
        )


def _check_member_args(v, tree, r):
    """The validated tensor, checked against a tree and a rank tuple
    covering it."""
    v = check_tensor(v, allow_zero=False)
    tree.ensure_valid()
    _check_covers(tree, r)
    if tree.ndim != v.ndim:
        raise InvalidArgumentError(
            f"tree has {tree.ndim} modes, tensor has {v.ndim}"
        )
    return v


def tucker_membership(v, partition, ranks, tol=DEFAULT_TOL):
    """Do the blockwise minimal subspace dimensions match ``ranks`` exactly?

    ``ranks`` maps each partition block to a positive integer.  Returns the
    boolean verdict and the computed dimensions, in block order.
    """
    v = check_tensor(v, allow_zero=False)
    blocks = sorted_blocks(normalize_modes(b, v.ndim) for b in partition)
    expected = tuple(int(ranks[b]) for b in blocks)
    if any(e < 1 for e in expected):
        raise InvalidArgumentError("expected ranks must be positive")
    found = _ranks(v, blocks, tol)
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
    v = _check_member_args(v, tree, r)
    return _membership_report(_ranks(v, tree.nodes, tol), tree, r, tol)


def _membership_report(computed, tree, r, tol):
    """The level-by-level verdict on the ranks ``computed`` at (at least)
    every non-root node."""
    if any(r[b] < 1 for b in tree.nodes if b != tree.root):
        raise InvalidArgumentError("expected ranks must be positive")
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


def require_member(v, tree, r, tol=DEFAULT_TOL):
    """The validated ``v`` and its splits at every non-root node (one
    factorization each, none at the root); raises :class:`NotOnManifoldError`,
    carrying the failing levels, unless the splits' ranks are ``r``."""
    v = _check_member_args(v, tree, r)
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
    return v, splits


def bounded_rank_member(v, tree, r, tol=DEFAULT_TOL):
    """True iff every node's minimal subspace dimension is at most its bound."""
    v = _check_member_args(v, tree, r)
    computed = _ranks(v, tree.nodes, tol)
    return all(computed[node] <= r[node] for node in tree.nodes)


def necessary_rank_conditions(tree, r, shape):
    """Violated necessary conditions for a rank tuple to be realizable.

    Checks, for every node: the root rank is one; the rank is bounded by the
    sizes of the unfolding (both sides, since an unfolding and the unfolding
    of the complement are transposes); a non-leaf rank is at most the product
    of its sons' ranks; and every non-root rank is at most the parent rank
    times the product of the sibling ranks (the same transpose argument
    applied to the complement).  Returns a list of human-readable violations,
    empty when all conditions hold.
    """
    tree.ensure_valid()
    if len(shape) != tree.ndim:
        raise InvalidArgumentError("shape does not match tree")
    _check_covers(tree, r)
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


def _son_lift(tree, node, bases, shape):
    """Matrix mapping son-rank coordinates at ``node`` to the ambient block,
    with rows in row-major order over the sorted modes of ``node``."""
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


def contract_network(tree, shape, leaf_factors, transfers):
    """The tensor of a tree network: each interior node's basis is its
    sons' lifted bases times ``transfers[node]`` (rows over the sons' rank
    coordinates, row-major in son order), contracted bottom-up from
    ``leaf_factors``; the root's transfer is a coefficient vector."""
    bases = dict(leaf_factors)

    def build(node):
        for kid in tree.sons_of(node):
            if kid in tree.sons:
                bases[kid] = build(kid)
        return _son_lift(tree, node, bases, shape) @ transfers[node]

    return build(tree.root).reshape(shape)


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


def generation_attempts(tree, r, shape, seed=0, max_retries=20, tol=DEFAULT_TOL):
    """Like :func:`random_tree_tensor` but also reports the attempt count."""
    violations = necessary_rank_conditions(tree, r, shape)
    if violations:
        raise InvalidArgumentError(
            "rank tuple violates necessary conditions: " + "; ".join(violations)
        )
    last = None
    for attempt in range(max_retries):
        rng = np.random.default_rng(seed + attempt)
        v = _sample_network(tree, r, shape, rng)
        last = tree_rank(v, tree, tol)
        if last == r:
            return v, attempt + 1
    raise GenerationFailureError(
        f"could not realize the requested ranks in {max_retries} attempts; "
        f"last profile {last}"
    )


def random_tucker_tensor(partition, ranks, shape, seed=0, max_retries=20,
                         tol=DEFAULT_TOL):
    """Random tensor in a single-level Tucker set: a generic full-rank core
    expressed in random orthonormal block subspaces, verified blockwise."""
    blocks = sorted_blocks(normalize_modes(b, len(shape)) for b in partition)
    rank_map = {b: int(ranks[b]) for b in blocks}
    for b in blocks:
        n_in = prod(shape[m - 1] for m in b)
        n_out = prod(shape) // n_in
        if not 1 <= rank_map[b] <= min(n_in, n_out):
            raise InvalidArgumentError(
                f"rank {rank_map[b]} at block {set(b)} is not realizable "
                f"over shape {tuple(shape)}"
            )
    for attempt in range(max_retries):
        rng = np.random.default_rng(seed + attempt)
        core = rng.standard_normal([rank_map[b] for b in blocks])
        v = core
        for b in blocks:
            B = _orthonormal_columns(
                rng, prod(shape[m - 1] for m in b), rank_map[b]
            )
            v = np.tensordot(v, B, axes=([0], [1]))
        # modes are now ambient blocks in block order; unfuse and reorder
        dims = [shape[m - 1] for b in blocks for m in b]
        modes = [m for b in blocks for m in b]
        v = v.reshape(dims)
        v = np.transpose(v, np.argsort(modes))
        v = v / np.linalg.norm(v)
        ok, _ = tucker_membership(v, blocks, rank_map, tol)
        if ok:
            return v
    raise GenerationFailureError(
        "could not realize the blockwise ranks in random sampling"
    )


def is_admissible(tree, r, shape, trials=20, seed=0, tol=DEFAULT_TOL):
    """Verdict on whether some tensor over ``shape`` realizes the tuple ``r``.

    A violated necessary condition proves inadmissibility.  If all conditions
    hold, random realization is attempted up to ``trials`` times; success
    yields an admissible verdict with the witness, exhaustion yields
    "unknown" (the conditions are necessary, not known to be sufficient, and
    a sampling miss is not a proof).
    """
    if trials < 1:
        raise InvalidArgumentError("trials must be at least 1")
    violations = necessary_rank_conditions(tree, r, shape)
    if violations:
        return AdmissibilityVerdict(
            verdict="inadmissible", violated_conditions=tuple(violations)
        )
    try:
        witness, attempts = generation_attempts(
            tree, r, shape, seed=seed, max_retries=trials, tol=tol
        )
        return AdmissibilityVerdict(
            verdict="admissible", violated_conditions=(), witness=witness,
            attempts=attempts,
        )
    except GenerationFailureError:
        return AdmissibilityVerdict(
            verdict="unknown", violated_conditions=(), attempts=trials
        )


def _structurally_implied(tree, r, k):
    """True when the level-k Tucker constraints imply every node constraint:
    each non-root node, or its complement with equal rank, is a level-k block.
    Minimal subspace dimensions of complementary subsets always agree, so the
    fixed-rank set then coincides with the level-k Tucker set."""
    blocks = set(level_partition(tree, k))
    full = set(tree.root)
    for node in tree.nodes:
        if node == tree.root or node in blocks:
            continue
        comp = tuple(sorted(full - set(node)))
        if comp in blocks and comp in r and r[comp] == r[node]:
            continue
        return False
    return True


def is_proper(tree, r, shape, trials=50, seed=0, tol=DEFAULT_TOL):
    """Is the fixed tree-based rank set different from every level set?

    Depth-1 trees are never proper (the single level set is the whole thing).
    If some level's constraints structurally imply all node constraints, the
    verdict is a certain "not proper" citing that level.  Otherwise each
    level's Tucker set is sampled ``trials`` times: a sample escaping the
    tree constraints witnesses a strict difference at that level; if every
    sample of some level lands inside, the verdict is "not proper" for that
    level (a sampling-based conclusion).  A "proper" verdict means every
    level produced an escape witness and is itself probabilistic only through
    the sampler; the report records the sample counts.
    """
    tree.ensure_valid()
    verdict = is_admissible(tree, r, shape, trials=max(trials // 2, 5),
                            seed=seed, tol=tol)
    if verdict.verdict == "inadmissible":
        raise InvalidArgumentError(
            "rank tuple is inadmissible: "
            + "; ".join(verdict.violated_conditions)
        )
    depth = levels(tree).depth
    if depth == 1:
        return PropernessReport(
            proper=False, structural=True,
            reason="depth-1 tree: the fixed-rank set is the single level set",
        )
    for k in range(1, depth + 1):
        if _structurally_implied(tree, r, k):
            return PropernessReport(
                proper=False, structural=True,
                reason=(
                    f"level {k} constraints imply all node constraints "
                    "(complementary unfoldings have equal rank), so the "
                    f"fixed-rank set equals the level-{k} Tucker set"
                ),
            )
    samples = {}
    escapes = {}
    for k in range(1, depth + 1):
        blocks = level_partition(tree, k)
        rank_map = {b: r[b] for b in blocks}
        n_escapes = 0
        n_valid = 0
        for t in range(trials):
            try:
                w = random_tucker_tensor(
                    blocks, rank_map, shape, seed=seed + 1000 * k + t, tol=tol
                )
            except GenerationFailureError:
                continue
            n_valid += 1
            if not is_member(w, tree, r, tol).member:
                n_escapes += 1
        samples[k] = n_valid
        escapes[k] = n_escapes
        if n_valid > 0 and n_escapes == 0:
            return PropernessReport(
                proper=False, structural=False,
                reason=(
                    f"all {n_valid} sampled members of the level-{k} Tucker "
                    "set satisfied every tree constraint (sampling-based)"
                ),
                samples_per_level=samples, escapes_per_level=escapes,
            )
        if n_valid == 0:
            return PropernessReport(
                proper=False, structural=False,
                reason=f"could not sample the level-{k} Tucker set",
                samples_per_level=samples, escapes_per_level=escapes,
            )
    return PropernessReport(
        proper=True, structural=False,
        reason=(
            "every level produced sampled witnesses outside the tree "
            "constraints (Monte-Carlo verdict)"
        ),
        samples_per_level=samples, escapes_per_level=escapes,
    )
