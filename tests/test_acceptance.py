"""Acceptance suite: one check per criterion, each printing a PASS/FAIL line.

Run under pytest (`pytest tests/test_acceptance.py -v`) or directly
(`python tests/test_acceptance.py`) for the one-line-per-criterion report.
Every tolerance is pinned here, not configurable.
"""

import sys
import time
from math import prod
from pathlib import Path

if __name__ == "__main__":
    # run as a script, import the checkout's package, as pytest does through
    # the pythonpath setting in pyproject.toml
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np
import scipy.linalg

import treegeom as tg
from treegeom.formats import generation_attempts
from treegeom.operators import LaplacianLike, tree_splits
from treegeom.subspaces import TreeRank

from helpers import capped_rank_tuple, kron_embed_block_operator, lift_core
from oracles import intersect_operator_spaces, level_operator_basis


def deep_tree_d4():
    return tg.tree_from_nested([[[1], [[2], [3]]], [4]])


def mixed_tree_d6():
    return tg.tree_from_nested([[[1], [[2], [3]]], [[4], [5]], [6]])


def two_block_tree_d6():
    return tg.tree_from_nested([[1], [[2], [3], [4], [5], [6]]])


def tucker_rank(shape, leaf_ranks):
    d = len(shape)
    return TreeRank({
        **{(m,): leaf_ranks[m - 1] for m in range(1, d + 1)},
        tuple(range(1, d + 1)): 1,
    })


def anchored_instance(tree, shape, seed, cap=2):
    r = capped_rank_tuple(tree, shape, cap=cap)
    v = tg.random_tree_tensor(tree, r, shape, seed=seed)
    splits = tree_splits(v, tree, tol=1e-10)
    return v, r, splits


def random_laplacian(splits, partition, seed, scale=1.0):
    gen = np.random.default_rng(seed)
    parts = {
        b: scale * gen.standard_normal((splits[b].corank, splits[b].rank))
        for b in partition
    }
    return LaplacianLike(partition=partition, parts=parts)


def build_chart(tree, shape, seed):
    import warnings

    r = capped_rank_tuple(tree, shape, cap=2)
    v = tg.random_tree_tensor(tree, r, shape, seed=seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        chart = tg.tree_chart(v, tree, r)
    return v, r, chart


def scaled_coords(chart, seed, magnitude):
    gen = np.random.default_rng(seed)
    dim = chart.operator_basis.dim
    coords = gen.standard_normal(dim)
    parts = chart.operator_basis.parts(coords)
    peak = max(np.linalg.norm(C) for C in parts.values())
    if peak == 0.0:
        return np.zeros(dim)
    return coords * (magnitude / peak)


# the three operator test beds: trees with mode dims at most 4, capped ranks
OPERATOR_TESTBEDS = [
    (deep_tree_d4(), (2, 3, 4, 2)),
    (mixed_tree_d6(), (2, 2, 2, 2, 2, 2)),
    (tg.tucker_tree(4), (3, 4, 2, 3)),
]


def criterion_1_exponential_identity():
    """The chart's structural forward map equals the generic matrix
    exponential applied to the lifted core."""
    start = time.time()
    worst = 0.0
    for i in range(100):
        tree, shape = OPERATOR_TESTBEDS[i % 3]
        depth = tg.levels(tree).depth
        v, r, splits = anchored_instance(tree, shape, seed=i)
        partition = tg.level_partition(tree, 1 + i % depth)
        L = random_laplacian(splits, partition, seed=1000 + i)
        core = np.random.default_rng(4000 + i).standard_normal(
            [splits[b].rank for b in partition]
        )
        fast = tg.tucker_chart_point(L, core, splits, shape).ravel()
        lifted = lift_core(core, [splits[b].u for b in partition], partition,
                           shape).ravel()
        generic = scipy.linalg.expm(
            tg.assemble_laplacian(L, splits, shape)) @ lifted
        err = np.linalg.norm(generic - fast) / np.linalg.norm(generic)
        worst = max(worst, err)
    elapsed = time.time() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    return ok, f"worst relative error {worst:.2e}, {elapsed:.1f}s for 100 instances"


def criterion_2_nilpotency_and_order():
    """Lifted parts square to zero; the order of the factors ``I + part``
    does not matter."""
    worst_nilp = 0.0
    worst_order = 0.0
    for i in range(100):
        tree, shape = OPERATOR_TESTBEDS[i % 3]
        depth = tg.levels(tree).depth
        v, r, splits = anchored_instance(tree, shape, seed=200 + i)
        partition = tg.level_partition(tree, 1 + i % depth)
        L = random_laplacian(splits, partition, seed=2000 + i)
        factors = {}
        for b in partition:
            Lp = tg.lifted_part(splits[b], L.parts[b])
            worst_nilp = max(worst_nilp, float(np.max(np.abs(Lp @ Lp))))
            factors[b] = np.eye(prod(shape)) + kron_embed_block_operator(
                Lp, b, shape)
        ref = np.linalg.multi_dot([np.eye(prod(shape))] + [
            factors[b] for b in partition])
        gen = np.random.default_rng(3000 + i)
        other = np.linalg.multi_dot([np.eye(prod(shape))] + [
            factors[partition[j]] for j in gen.permutation(len(partition))])
        worst_order = max(
            worst_order,
            float(np.linalg.norm(other - ref) / np.linalg.norm(ref)),
        )
    ok = worst_nilp <= 1e-14 and worst_order <= 1e-12
    return ok, (
        f"max squared-part entry {worst_nilp:.2e}, "
        f"max order discrepancy {worst_order:.2e}"
    )


def criterion_3_intersection_characterization():
    """Membership via levels, via independent per-level checks, and via the
    all-node rank profile agree as booleans on every instance."""
    trees = [(deep_tree_d4(), (2, 3, 2, 4)), (mixed_tree_d6(), (2,) * 6)]
    agreements = 0
    total = 0
    for i in range(100):
        tree, shape = trees[i % 2]
        r = capped_rank_tuple(tree, shape, cap=2)
        v = tg.random_tree_tensor(tree, r, shape, seed=400 + i)
        gen = np.random.default_rng(500 + i)
        non_root = sorted(n for n in tree.nodes if n != tree.root)
        bumped = dict(r.ranks)
        bumped[non_root[gen.integers(len(non_root))]] += 1
        for candidate in (r, TreeRank(bumped)):
            total += 1
            via_report = tg.is_member(v, tree, candidate).member
            depth = tg.levels(tree).depth
            manual = candidate[tree.root] == 1
            for k in range(1, depth + 1):
                blocks = tg.level_partition(tree, k)
                passed, _ = tg.tucker_membership(
                    v, blocks, {b: candidate[b] for b in blocks}
                )
                manual = manual and passed
            all_nodes = tg.tree_rank(v, tree) == candidate
            if via_report == manual == all_nodes:
                agreements += 1
    ok = agreements == total
    return ok, f"{agreements}/{total} boolean agreements"


def criterion_4_nesting_chain():
    """Per-level chain residuals vanish on every generated tensor."""
    worst = 0.0
    n = 0
    for tree, shape in OPERATOR_TESTBEDS:
        for seed in range(10):
            r = capped_rank_tuple(tree, shape, cap=2)
            v = tg.random_tree_tensor(tree, r, shape, seed=600 + seed)
            residuals = tg.check_chain(v, tree)
            worst = max(worst, max(residuals.values()) / np.linalg.norm(v))
            n += 1
    ok = worst <= 1e-10
    return ok, f"worst chain residual {worst:.2e} over {n} tensors"


def criterion_5_degenerate_tree():
    """A singleton and its complement under the root always carry the same
    rank, and the matching rank tuple is not proper."""
    tree = two_block_tree_d6()
    gen = np.random.default_rng(71)
    equal = 0
    for _ in range(50):
        v = gen.standard_normal((2,) * 6)
        r = tg.tree_rank(v, tree)
        equal += r[(1,)] == r[(2, 3, 4, 5, 6)]
    ranks = {n: 2 for n in tree.nodes}
    ranks[tree.root] = 1
    report = tg.is_proper(tree, TreeRank(ranks), (2,) * 6)
    ok = equal == 50 and not report.proper
    return ok, (
        f"{equal}/50 rank equalities, proper={report.proper} "
        f"(level margins {report.level_margins})"
    )


CHART_TESTBEDS = [
    (deep_tree_d4(), (2, 2, 2, 3)),
    (mixed_tree_d6(), (2, 2, 2, 2, 2, 3)),
    (tg.tucker_tree(3), (3, 3, 3)),
    (tg.tucker_tree(4), (2, 3, 2, 3)),
    (tg.linear_tree(3), (3, 2, 2)),
]


def criterion_6_chart_roundtrips():
    """Inverse-of-forward recovers coordinates and the tensor at 50 anchors
    with per-block coefficient norms at most 0.1."""
    worst_coord = 0.0
    worst_tensor = 0.0
    anchors = 0
    for i in range(50):
        tree, shape = CHART_TESTBEDS[i % len(CHART_TESTBEDS)]
        v, r, chart = build_chart(tree, shape, seed=700 + i)
        if chart.operator_basis.dim == 0:
            continue
        gen = np.random.default_rng(800 + i)
        magnitude = 0.1 * gen.uniform(0.2, 1.0)
        coords = scaled_coords(chart, 900 + i, magnitude)
        core = chart.core * (1 + 0.02 * gen.standard_normal(chart.core.shape))
        w = tg.tree_chart_point(chart, coords, core)
        rec_coords, rec_core = tg.tree_chart_inverse(chart, w)
        w_rec = tg.tree_chart_point(chart, rec_coords, rec_core)
        denom = max(np.linalg.norm(coords), np.linalg.norm(core))
        coord_err = (
            np.linalg.norm(rec_coords - coords)
            + np.linalg.norm(rec_core - core)
        ) / denom
        tensor_err = np.linalg.norm(w_rec - w) / np.linalg.norm(w)
        worst_coord = max(worst_coord, float(coord_err))
        worst_tensor = max(worst_tensor, float(tensor_err))
        anchors += 1
    ok = anchors == 50 and worst_coord <= 1e-8 and worst_tensor <= 1e-8
    return ok, (
        f"{anchors} anchors, worst coordinate error {worst_coord:.2e}, "
        f"worst tensor error {worst_tensor:.2e}"
    )


def criterion_7_level_independence():
    """Inverse charts computed through different levels recover the same
    operator."""
    worst = 0.0
    trees = [(deep_tree_d4(), (2, 2, 2, 3)), (mixed_tree_d6(), (2, 2, 2, 2, 2, 3))]
    done = 0
    for i in range(20):
        tree, shape = trees[i % 2]
        v, r, chart = build_chart(tree, shape, seed=1100 + i)
        coords = scaled_coords(chart, 1200 + i, 0.05)
        w = tg.tree_chart_point(chart, coords, chart.core)
        ops = [
            tg.level_inverse_operator(chart, w, k)
            for k in range(1, len(chart.level_partitions) + 1)
        ]
        scale = max(np.linalg.norm(ops[0]), 1e-300)
        for other in ops[1:]:
            worst = max(
                worst, float(np.linalg.norm(other - ops[0]) / scale)
            )
        done += 1
    ok = done == 20 and worst <= 1e-9
    return ok, f"worst cross-level operator discrepancy {worst:.2e}"


TANGENT_TESTBEDS = [
    ((2, 2), (1, 1)),
    ((3, 2), (2, 2)),
    ((3, 3), (2, 2)),
    ((2, 2, 2), (1, 1, 1)),
    ((3, 3, 3), (2, 2, 2)),
    ((2, 3, 4), (2, 2, 2)),
    ((4, 4), (3, 3)),
    ((2, 2, 2, 2), (1, 1, 1, 1)),
    ((3, 2, 3), (1, 2, 2)),
    ((2, 3, 2, 3), (2, 2, 2, 2)),
    ((4, 2, 2), (2, 2, 2)),
    ((3, 4), (1, 1)),
]


def criterion_8_tangent_dimension():
    """Intersected operator dimension plus core dimension equals the exact
    Jacobian rank on depth-one instances, including the rank-one 2x2 matrix
    case (dimension 3), and the rank is clear-cut: no singular value of the
    Jacobian lies in (max(J.shape) * eps, 1e-6] relative to the largest."""
    start = time.time()
    checked = 0
    failures = []
    for i, (shape, leaf_ranks) in enumerate(TANGENT_TESTBEDS):
        tree = tg.tucker_tree(len(shape))
        r = tucker_rank(shape, leaf_ranks)
        v = tg.random_tree_tensor(tree, r, shape, seed=1300 + i)
        report = tg.tangent_dimension(v, tree, r)
        J = tg.parametrization_jacobian(v, tree, r)
        s = np.linalg.svd(J, compute_uv=False)
        s = s / s[0]
        floor = max(J.shape) * np.finfo(float).eps
        gap = not np.any((s > floor) & (s <= 1e-6))
        agree = report.agree and gap
        if shape == (2, 2) and leaf_ranks == (1, 1):
            agree = agree and report.dim_total == 3
        checked += 1
        if not agree:
            failures.append((shape, leaf_ranks, report))
    elapsed = time.time() - start
    ok = checked >= 10 and not failures and elapsed < 60.0
    return ok, (
        f"{checked} instances, {len(failures)} disagreements, {elapsed:.1f}s"
    )


def criterion_9_level_space_dimensions():
    """Level operator space dimensions match the closed-form count exactly,
    and the library's intersection has the dimension of the dense one and
    is contained in every level space."""
    worst_resid = 0.0
    count_ok = True
    instances = 0
    for tree, shape in OPERATOR_TESTBEDS + CHART_TESTBEDS[:2]:
        v, r, splits = anchored_instance(tree, shape, seed=1400 + instances)
        depth = tg.levels(tree).depth
        bases = []
        for k in range(1, depth + 1):
            blocks = tg.level_partition(tree, k)
            basis = level_operator_basis(blocks, splits, shape)
            expected = sum(
                r[b] * (prod(shape[m - 1] for m in b) - r[b]) for b in blocks
            )
            count_ok = count_ok and basis.dim == expected
            bases.append(basis)
        inter = tg.tree_operator_basis(tree, splits, shape)
        count_ok = count_ok and \
            inter.dim == intersect_operator_spaces(bases).dim
        vectors = inter.vectors
        for basis in bases:
            if inter.dim == 0:
                continue
            proj = basis.vectors @ (basis.vectors.T @ vectors)
            resid = float(np.max(np.linalg.norm(vectors - proj, axis=0)))
            worst_resid = max(worst_resid, resid)
        instances += 1
    ok = count_ok and worst_resid <= 1e-10
    return ok, (
        f"dimension counts exact on {instances} instances, "
        f"worst inclusion residual {worst_resid:.2e}"
    )


def criterion_10_generator_soundness():
    """Random generation hits the requested admissible rank on the first
    attempt nearly always, never needs more than 20, and every output is a
    verified member."""
    beds = OPERATOR_TESTBEDS + [
        (tg.linear_tree(4), (2, 2, 2, 2)),
        (tg.balanced_binary_tree(4), (2, 3, 3, 2)),
    ]
    first = 0
    total = 0
    members = 0
    for i in range(200):
        tree, shape = beds[i % len(beds)]
        r = capped_rank_tuple(tree, shape, cap=2)
        v, attempts = generation_attempts(
            tree, r, shape, seed=1500 + i, max_retries=20
        )
        total += 1
        first += attempts == 1
        members += tg.is_member(v, tree, r).member
    ok = first >= 0.95 * total and members == total
    return ok, (
        f"{first}/{total} first-attempt successes, {members}/{total} verified"
    )


CRITERIA = [
    ("exponential identity", criterion_1_exponential_identity),
    ("nilpotency and factor order", criterion_2_nilpotency_and_order),
    ("intersection characterization", criterion_3_intersection_characterization),
    ("nesting chain", criterion_4_nesting_chain),
    ("degenerate two-block tree", criterion_5_degenerate_tree),
    ("chart round trips", criterion_6_chart_roundtrips),
    ("level independence of the chart", criterion_7_level_independence),
    ("tangent dimension", criterion_8_tangent_dimension),
    ("level space dimensions", criterion_9_level_space_dimensions),
    ("generator soundness", criterion_10_generator_soundness),
]


def _report(index, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {index:2d} {name}: {status} ({detail})")


def _make_test(index, name, fn):
    def test():
        ok, detail = fn()
        _report(index, name, ok, detail)
        assert ok, f"criterion {index} {name}: {detail}"

    test.__name__ = f"test_criterion_{index:02d}_{name.replace(' ', '_')}"
    return test


for _i, (_name, _fn) in enumerate(CRITERIA, start=1):
    _t = _make_test(_i, _name, _fn)
    globals()[_t.__name__] = _t
del _i, _name, _fn, _t


if __name__ == "__main__":
    failed = 0
    for i, (name, fn) in enumerate(CRITERIA, start=1):
        ok, detail = fn()
        _report(i, name, ok, detail)
        failed += not ok
    sys.exit(1 if failed else 0)
