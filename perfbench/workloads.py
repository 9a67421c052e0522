"""The three benchmark workloads: seeded inputs, the operations of one round,
and the benchmark's own check of every operation's output.

A workload is set up once per process (inputs generated, files written) and
then replayed round by round.  Round ``k`` uses anchor ``k % POOL`` of every
instance, so every round issues the same mix of operations on inputs of the
same sizes.  An operation is a callable timed from outside; its check runs
after the clock stops and returns ``None`` on success or a reason string.

Checks use only numpy and the oracles in ``inputs``; they never call
treegeom helpers.  Operations that fail because of a defect recorded in
``KNOWN_DEFECTS`` still count as failed; they only keep ``correct`` true.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import prod

import numpy as np

import inputs as ip

POOL = 3  # anchors (tensors) per instance, cycled across rounds
MEMORY_BUDGET = 64 * 2 ** 20  # cap on inputs.operator_space_bytes per instance

# (workload, instance, op kind) -> the recorded defect that makes it fail.
KNOWN_DEFECTS = {}
_ANCHOR = ("tree_chart_inverse rejects its own anchor once the leaves have "
           "corank > 0 (ROADMAP defect: relative residual measured against "
           "a roundoff-sized operator)")
_DIM0 = ("the operator intersection has dimension 0, so every point but the "
         "anchor leaves the chart image (ROADMAP defect)")
for _name in ("deep-3333", "linear-3223", "linear-3333"):
    KNOWN_DEFECTS[("chart_roundtrip", _name, "anchor_inverse")] = _ANCHOR
for _name in ("binary-3333", "binary-2332"):
    for _kind in ("anchor_inverse", "roundtrip"):
        KNOWN_DEFECTS[("chart_roundtrip", _name, _kind)] = _DIM0


# Probe kernels time the machine, not treegeom: the worker runs one (best of
# three) before every round, and run.py scales each round's times by the
# workload's `probe_reference_s` (the kernel's 5th-percentile time on the
# reference machine) over the probe.  See README, "Machine speed".

def _small_kernel():
    """Small SVDs, tensor transposes and Python tuple and dict churn: the
    kind of work in validation, membership and chart reads."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((24, 36))
    t = rng.standard_normal((4, 5, 6, 7))

    def kernel():
        for _ in range(40):
            np.linalg.svd(a, full_matrices=False)
            np.tensordot(t, t, axes=([0, 1], [0, 1]))
            np.transpose(t, (2, 0, 3, 1)).reshape(30, 28).copy()
        table = {}
        for i in range(3000):
            table[(i, i % 7)] = tuple(sorted((i % 5, i % 3, i % 11)))
    return kernel


def _dense_kernel(items):
    """The benchmark's own rank oracle on one anchor per instance, a dense
    81x81 block embedding and a tall SVD the size of the N=81 operator-space
    intersection: the kind of work in chart and tangent builds."""
    rng = np.random.default_rng(0)
    block = rng.standard_normal((9, 9))
    stack = rng.standard_normal((2 * 81 * 81, 52))
    perm = np.arange(81)[::-1]

    def kernel():
        for inst, _, _, anchors, _ in items:
            ip.tree_ranks(anchors[0], inst.tree)
        for _ in range(3):
            np.kron(block, np.eye(9))[np.ix_(perm, perm)]
        np.linalg.svd(stack, full_matrices=False)
    return kernel


@dataclass
class Op:
    kind: str
    instance: str
    run: object    # () -> result, the timed call into treegeom
    check: object  # result -> None or a reason string, untimed
    known: str | None = None


@dataclass
class Instance:
    name: str
    tree: list      # nested form
    shape: tuple
    ranks: dict     # block -> rank, confirmed by numpy SVD at set-up


def _instance(name, tree, shape):
    return Instance(name, tree, tuple(shape), ip.capped_ranks(tree, shape))


# --------------------------------------------------------------------------
# verdicts: the CLI path, in process through treegeom.cli.main(argv)
# --------------------------------------------------------------------------

# tree argument: a builtin name or None for a JSON tree file
VERDICT_LADDER = [
    (_instance("tucker-2322", ip.tucker(4), (2, 3, 2, 2)), "tucker"),
    (_instance("tucker-3^6", ip.tucker(6), (3,) * 6), "tucker"),
    (_instance("linear-3333", ip.linear(4), (3, 3, 3, 3)), "linear"),
    (_instance("linear-3^6", ip.linear(6), (3,) * 6), "linear"),
    (_instance("binary-2332", ip.binary(4), (2, 3, 3, 2)), "binary"),
    (_instance("binary-2^8", ip.binary(8), (2,) * 8), "binary"),
    (_instance("deep-2223", ip.DEEP, (2, 2, 2, 3)), None),
    (_instance("deep-3333", ip.DEEP, (3, 3, 3, 3)), None),
    (_instance("mixed-232323", ip.MIXED, (2, 3, 2, 3, 2, 3)), None),
]

# `treegeom proper` verdict for each instance, recorded from the CLI at
# sampler seeds 0, 1, 2, 1000, 2001 and 5003 (all agreed): depth-1 trees are
# never proper, and at deep-2223 every sampled level-2 Tucker member keeps
# the tree ranks.
PROPER_REFERENCE = {
    "tucker-2322": False,
    "tucker-3^6": False,
    "linear-3333": True,
    "linear-3^6": True,
    "binary-2332": True,
    "binary-2^8": True,
    "deep-2223": False,
    "deep-3333": True,
    "mixed-232323": True,
}


class Verdicts:
    """analyze, membership (member and perturbed non-member), generate and
    proper on every ladder instance, through the command line entry point."""

    probe_reference_s = 0.0065

    def __init__(self, seed, workdir, tg):
        self.cli = tg.cli
        self.workdir = workdir
        self.seed = seed
        rng = np.random.default_rng([seed, 1])
        self.files = []
        for k, (inst, builtin) in enumerate(VERDICT_LADDER):
            tree_arg = builtin
            if tree_arg is None:
                tree_arg = str(workdir / f"{inst.name}.tree.json")
                (workdir / f"{inst.name}.tree.json").write_text(
                    json.dumps(inst.tree))
            ranks_path = workdir / f"{inst.name}.ranks.json"
            ranks_path.write_text(ip.ranks_json(inst.ranks))
            pool = []
            for a in range(POOL):
                v = ip.member_tensor(inst.tree, inst.ranks, inst.shape, rng)
                w = ip.non_member_tensor(v, inst.tree, inst.ranks, rng)
                member_json = workdir / f"{inst.name}.{a}.member.json"
                member_bin = workdir / f"{inst.name}.{a}.member.bin"
                other_json = workdir / f"{inst.name}.{a}.nonmember.json"
                ip.write_tensor(member_json, v)
                ip.write_tensor(member_bin, v)
                ip.write_tensor(other_json, w)
                pool.append((member_json, member_bin, other_json))
            self.files.append((inst, tree_arg, ranks_path, pool, k))
        self.probe_kernel = _small_kernel()

    def round_ops(self, rnd):
        for inst, tree_arg, ranks_path, pool, k in self.files:
            member_json, member_bin, other_json = pool[rnd % POOL]
            yield from self._instance_ops(inst, tree_arg, ranks_path,
                                          member_json, member_bin, other_json,
                                          rnd, k)

    def _call(self, argv):
        def run():
            return self.cli.main([str(a) for a in argv])
        return run

    def _instance_ops(self, inst, tree_arg, ranks_path, member_json,
                      member_bin, other_json, rnd, k):
        out = self.workdir / f"{inst.name}.report.json"
        shape_arg = ",".join(str(n) for n in inst.shape)
        expected = inst.ranks

        def report_check(code_expected, body_check):
            def check(code):
                if code != code_expected:
                    return f"exit code {code}, expected {code_expected}"
                return body_check(json.loads(out.read_text()))
            return check

        def ranks_match(doc):
            got = {tuple(e["block"]): e["r"] for e in doc["ranks"]}
            return None if got == expected else f"ranks {got} != {expected}"

        yield Op("analyze", inst.name, self._call(
            ["analyze", "--tensor", member_json, "--tree", tree_arg,
             "--out", out]), report_check(0, ranks_match))

        def member_is(flag):
            return lambda doc: (None if doc["member"] is flag
                                else f"member {doc['member']}, expected {flag}")

        yield Op("membership", inst.name, self._call(
            ["membership", "--tensor", member_bin, "--tree", tree_arg,
             "--ranks", ranks_path, "--out", out]),
            report_check(0, member_is(True)))
        yield Op("membership", inst.name, self._call(
            ["membership", "--tensor", other_json, "--tree", tree_arg,
             "--ranks", ranks_path, "--out", out]),
            report_check(1, member_is(False)))

        suffix = ".json" if rnd % 2 == 0 else ".bin"
        generated = self.workdir / f"{inst.name}.generated{suffix}"

        def generated_check(code):
            if code != 0:
                return f"exit code {code}, expected 0"
            got = ip.tree_ranks(ip.read_tensor(generated), inst.tree)
            return None if got == expected else f"reloaded ranks {got}"

        yield Op("generate", inst.name, self._call(
            ["generate", "--tree", tree_arg, "--ranks", ranks_path,
             "--shape", shape_arg, "--seed", self.seed * 1000 + rnd,
             "--out", generated]), generated_check)

        proper = PROPER_REFERENCE[inst.name]

        def proper_is(doc):
            return (None if doc["proper"] is proper
                    else f"proper {doc['proper']}, expected {proper}")

        yield Op("proper", inst.name, self._call(
            ["proper", "--tree", tree_arg, "--ranks", ranks_path,
             "--shape", shape_arg, "--seed", self.seed * 1000 + k,
             "--out", out]), report_check(0 if proper else 1, proper_is))


# --------------------------------------------------------------------------
# Shared pieces of the two chart workloads (in-process API)
# --------------------------------------------------------------------------

class _Anchored:
    """Instances with a pool of anchors each, plus the treegeom objects
    (tree and rank tuple) the API takes."""

    ladder = ()
    workload = ""

    def __init__(self, seed, workdir, tg):
        self.tg = tg
        rng = np.random.default_rng([seed, 2])
        self.largest_estimate = 0
        self.items = []
        for inst in self.ladder:
            est = ip.operator_space_bytes(inst.tree, inst.ranks, inst.shape)
            if est > MEMORY_BUDGET:
                raise RuntimeError(
                    f"{inst.name}: estimated operator-space bytes {est} "
                    f"exceed the budget {MEMORY_BUDGET}")
            self.largest_estimate = max(self.largest_estimate, est)
            tree = tg.tree_from_nested(inst.tree)
            ranks = tg.TreeRank(inst.ranks)
            anchors = [ip.member_tensor(inst.tree, inst.ranks, inst.shape, rng)
                       for _ in range(POOL)]
            self.items.append((inst, tree, ranks, anchors,
                               self.extra_inputs(inst, rng)))
        self.probe_kernel = self.make_probe_kernel()

    def extra_inputs(self, inst, rng):
        return None

    def make_probe_kernel(self):
        return _dense_kernel(self.items)

    def known(self, inst, kind):
        return KNOWN_DEFECTS.get((self.workload, inst.name, kind))


def _lift_core(core, blocks, bases, shape):
    """Tensor with the given core in one orthonormal basis per level-1
    block (modes fused block by block, then restored to 1..d)."""
    t = core
    for b in blocks:
        t = np.tensordot(t, bases[b], axes=([0], [1]))
    modes = [m for b in blocks for m in b]
    t = t.reshape([shape[m - 1] for m in modes])
    return np.transpose(t, np.argsort(modes))


def _chart_check(inst, anchor):
    """The chart's core, lifted through its level-1 bases, reproduces the
    anchor, and its operator basis is orthonormal."""
    blocks = [tuple(b) for b in ip.level1_blocks(inst.tree)]

    def check(chart):
        bases = {b: chart.splits[b].u for b in blocks}
        lifted = _lift_core(chart.core, blocks, bases, inst.shape)
        err = np.linalg.norm(lifted - anchor) / np.linalg.norm(anchor)
        if not err <= 1e-10:
            return f"core reproduces the anchor to {err:.2e}"
        vec = chart.operator_basis.vectors
        gram_err = np.linalg.norm(vec.T @ vec - np.eye(vec.shape[1]))
        if not gram_err <= 1e-8:
            return f"operator basis not orthonormal ({gram_err:.2e})"
        return None
    return check


# --------------------------------------------------------------------------
# chart_roundtrip: the read side of a chart
# --------------------------------------------------------------------------

MAGNITUDES = (1e-3, 1e-2, 1e-1)
TRIPS_PER_MAGNITUDE = 4
CROSS_LEVEL_CHECKS = 2
ROUNDTRIP_TOL = 1e-8


class ChartRoundtrip(_Anchored):
    """Per anchor: build the chart once, invert the anchor, then round trips
    point -> inverse -> point at three magnitudes and cross-level checks of
    the recovered operators."""

    workload = "chart_roundtrip"
    probe_reference_s = 0.037
    ladder = [
        _instance("tucker-333", ip.tucker(3), (3, 3, 3)),
        _instance("tucker-3333", ip.tucker(4), (3, 3, 3, 3)),
        _instance("deep-2223", ip.DEEP, (2, 2, 2, 3)),
        _instance("deep-3333", ip.DEEP, (3, 3, 3, 3)),
        _instance("linear-3223", ip.linear(4), (3, 2, 2, 3)),
        _instance("linear-3333", ip.linear(4), (3, 3, 3, 3)),
        _instance("binary-3333", ip.binary(4), (3, 3, 3, 3)),
        _instance("binary-2332", ip.binary(4), (2, 3, 3, 2)),
        _instance("mixed-222222", ip.MIXED, (2,) * 6),
    ]

    def extra_inputs(self, inst, rng):
        """Per anchor and trial: a Gaussian coordinate direction of the
        level-1 dimension (the leading entries are used) and a relative core
        perturbation."""
        dim1 = ip.level1_dimension(inst.tree, inst.ranks, inst.shape)
        core_shape = [inst.ranks[b] for b in ip.level1_blocks(inst.tree)]
        trials = len(MAGNITUDES) * TRIPS_PER_MAGNITUDE + CROSS_LEVEL_CHECKS
        return [[(rng.standard_normal(dim1), rng.standard_normal(core_shape))
                 for _ in range(trials)] for _ in range(POOL)]

    def make_probe_kernel(self):
        small, dense = _small_kernel(), _dense_kernel(self.items)

        def kernel():
            small()
            dense()
        return kernel

    def round_ops(self, rnd):
        for inst, tree, ranks, anchors, draws in self.items:
            a = rnd % POOL
            yield from self._instance_ops(inst, tree, ranks, anchors[a],
                                          draws[a])

    def _instance_ops(self, inst, tree, ranks, anchor, draws):
        tg = self.tg
        state = {}
        n_levels = ip.depth(inst.tree)

        def build():
            state["chart"] = tg.tree_chart(anchor, tree, ranks)
            return state["chart"]

        yield Op("build", inst.name, build, _chart_check(inst, anchor),
                 self.known(inst, "build"))

        def chart():
            if "chart" not in state:
                raise RuntimeError("chart was not built")
            return state["chart"]

        def anchor_inverse():
            return tg.tree_chart_inverse(chart(), anchor)

        def anchor_check(result):
            coords, core = result
            c_err = np.linalg.norm(coords)
            k_err = (np.linalg.norm(core - chart().core)
                     / np.linalg.norm(chart().core))
            if not (c_err <= ROUNDTRIP_TOL and k_err <= ROUNDTRIP_TOL):
                return f"anchor inverse coords {c_err:.2e}, core {k_err:.2e}"
            return None

        yield Op("anchor_inverse", inst.name, anchor_inverse, anchor_check,
                 self.known(inst, "anchor_inverse"))

        def point_input(draw, magnitude):
            direction, noise = draw
            d = chart().operator_basis.dim
            coords = direction[:d]
            nrm = np.linalg.norm(coords)
            coords = coords * (magnitude / nrm) if nrm > 0 else coords
            return coords, chart().core * (1.0 + 0.01 * noise)

        trial = 0
        for magnitude in MAGNITUDES:
            for _ in range(TRIPS_PER_MAGNITUDE):
                draw = draws[trial]
                trial += 1

                def roundtrip(draw=draw, magnitude=magnitude):
                    coords, core = point_input(draw, magnitude)
                    w = tg.tree_chart_point(chart(), coords, core)
                    rc, rcore = tg.tree_chart_inverse(chart(), w)
                    w2 = tg.tree_chart_point(chart(), rc, rcore)
                    return coords, core, w, rc, rcore, w2

                yield Op("roundtrip", inst.name, roundtrip,
                         self._roundtrip_check(inst),
                         self.known(inst, "roundtrip"))

        for _ in range(CROSS_LEVEL_CHECKS):
            draw = draws[trial]
            trial += 1

            def cross_level(draw=draw):
                coords, core = point_input(draw, MAGNITUDES[-1])
                w = tg.tree_chart_point(chart(), coords, core)
                return [tg.level_inverse_operator(chart(), w, k)
                        for k in range(1, n_levels + 1)]

            yield Op("cross_level", inst.name, cross_level, _levels_agree,
                     self.known(inst, "cross_level"))

    @staticmethod
    def _roundtrip_check(inst):
        def check(result):
            coords, core, w, rc, rcore, w2 = result
            denom = max(np.linalg.norm(coords), np.linalg.norm(core))
            c_err = (np.linalg.norm(rc - coords)
                     + np.linalg.norm(rcore - core)) / denom
            t_err = np.linalg.norm(w2 - w) / np.linalg.norm(w)
            if not (c_err <= ROUNDTRIP_TOL and t_err <= ROUNDTRIP_TOL):
                return f"round trip error coords {c_err:.2e}, tensor {t_err:.2e}"
            got = ip.tree_ranks(w, inst.tree)
            if got != inst.ranks:
                return f"chart point has ranks {got}"
            return None
        return check


def _levels_agree(ops):
    """Relative agreement to 1e-8 of the largest level operator; when every
    level recovers a roundoff-sized operator (a 0-dimensional intersection),
    1e-12 absolute."""
    scale = max(np.linalg.norm(op) for op in ops)
    spread = max(np.linalg.norm(op - ops[0]) for op in ops)
    if not spread <= 1e-8 * scale + 1e-12:
        return f"level operators differ by {spread:.2e} (scale {scale:.2e})"
    return None


# --------------------------------------------------------------------------
# operator_spaces: the write side of the same layers
# --------------------------------------------------------------------------

class OperatorSpaces(_Anchored):
    """Per anchor: chart construction, the tangent report (with its Jacobian
    oracle) and the immersion check at every level."""

    workload = "operator_spaces"
    probe_reference_s = 0.032
    ladder = [
        _instance("deep-2223", ip.DEEP, (2, 2, 2, 3)),
        _instance("deep-3333", ip.DEEP, (3, 3, 3, 3)),
        _instance("deep-3434", ip.DEEP, (3, 4, 3, 4)),
        _instance("linear-3333", ip.linear(4), (3, 3, 3, 3)),
        _instance("linear-23232", ip.linear(5), (2, 3, 2, 3, 2)),
        _instance("tucker-333", ip.tucker(3), (3, 3, 3)),
        _instance("tucker-3333", ip.tucker(4), (3, 3, 3, 3)),
        _instance("tucker-3^5", ip.tucker(5), (3,) * 5),
        _instance("tucker-3^6", ip.tucker(6), (3,) * 6),
        _instance("binary-3333", ip.binary(4), (3, 3, 3, 3)),
        _instance("mixed-222222", ip.MIXED, (2,) * 6),
    ]

    def round_ops(self, rnd):
        tg = self.tg
        for inst, tree, ranks, anchors, _ in self.items:
            anchor = anchors[rnd % POOL]
            yield Op("build", inst.name,
                     lambda a=anchor, t=tree, r=ranks: tg.tree_chart(a, t, r),
                     _chart_check(inst, anchor), self.known(inst, "build"))
            yield Op("tangent", inst.name,
                     lambda a=anchor, t=tree, r=ranks:
                     tg.tangent_dimension(a, t, r),
                     _tangent_check(inst), self.known(inst, "tangent"))
            for k in range(1, ip.depth(inst.tree) + 1):
                yield Op("immersion", inst.name,
                         lambda a=anchor, t=tree, r=ranks, k=k:
                         tg.immersion_check(a, t, r, k),
                         _immersion_check, self.known(inst, "immersion"))


def _tangent_check(inst):
    """The Jacobian rank and the closed form both equal the benchmark's own
    formula; the operator-space count is reported beside them, and a
    disagreement (the documented depth >= 2 gap) passes only when the
    report says so."""
    formula = ip.formula_dimension(inst.tree, inst.ranks, inst.shape)
    dim_core = prod(inst.ranks[b] for b in ip.level1_blocks(inst.tree))
    tucker = ip.depth(inst.tree) == 1

    def check(rep):
        if rep.oracle_dim != formula or rep.formula_dim != formula:
            return (f"oracle {rep.oracle_dim}, formula {rep.formula_dim}, "
                    f"expected {formula}")
        if rep.dim_core != dim_core or rep.dim_total != rep.dim_e + dim_core:
            return f"core {rep.dim_core}, total {rep.dim_total}"
        if rep.agree != (rep.dim_total == formula):
            return f"agree {rep.agree} with total {rep.dim_total}"
        if tucker and not rep.agree:
            return f"Tucker tree total {rep.dim_total} != {formula}"
        return None
    return check


def _immersion_check(rep):
    return None if rep.passed else f"immersion check failed: {rep}"


WORKLOADS = {
    "verdicts": Verdicts,
    "chart_roundtrip": ChartRoundtrip,
    "operator_spaces": OperatorSpaces,
}
