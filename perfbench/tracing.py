"""Traced run: spans around every public treegeom function, from outside.

``Tracer.install`` replaces each public function of the eight treegeom
modules (and each public method of their public classes) with a wrapper, in
every ``treegeom.*`` namespace that binds it, because modules import names
directly (``formats`` binds ``minimal_subspace``).  ``numpy.linalg.svd`` is
replaced by a counter of calls, shapes and ``full_matrices``.

Spans live in memory as ``[name, start, end, parent, child_s, wrap_s,
mem_start, mem_peak, error, index]``.  A span's self time is its duration minus the
wall time of its child wrappers; the wrappers' own bookkeeping is kept apart
as ``wrap_s``, so that

    sum of module self times + trace.bench_self_s + trace.wrapper_s
        == trace.wall_s

holds exactly for a traced pass.  Self times come from a pass without
``tracemalloc``; a second pass over the same round, with ``tracemalloc`` on,
gives the allocation peaks, so its cost does not distort the self times.
"""

from __future__ import annotations

import gzip
import inspect
import json
import os
import tracemalloc
from collections import Counter
from time import perf_counter

import numpy as np

MODULES = ("tensor", "trees", "subspaces", "formats", "operators", "charts",
           "tangent", "cli")

NAME, START, END, PARENT, CHILD, WRAP, MEM0, PEAK, ERROR, INDEX = range(10)

GENERATORS = {"formats.random_tree_tensor", "formats.random_tucker_tensor",
              "formats.generation_attempts"}
GENERATION_CHECKS = {"subspaces.tree_rank", "formats.tucker_membership"}
MB = 2.0 ** 20


def _public_callables(mod):
    """(owner, attribute, function, qualified name) for one module."""
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n, obj in vars(mod).items()
                 if not n.startswith("_") and inspect.isfunction(obj)
                 and obj.__module__ == mod.__name__]
    label = mod.__name__.rsplit(".", 1)[1]
    out = []
    for n in names:
        obj = getattr(mod, n)
        if inspect.isfunction(obj):
            out.append((None, n, obj, f"{label}.{n}"))
        elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
            for m, fn in vars(obj).items():
                if not m.startswith("_") and inspect.isfunction(fn):
                    out.append((obj, m, fn, f"{label}.{n}.{m}"))
    return out


class Tracer:
    """Wraps treegeom once; each ``run`` is one traced pass with fresh
    spans and counters."""

    def __init__(self):
        self.stack = []
        self.memory = False

    # -- wrappers ---------------------------------------------------------

    def install(self, tg):
        namespaces = [tg] + [getattr(tg, m) for m in MODULES]
        replaced = {}
        for mod in namespaces[1:]:
            for owner, attr, fn, qual in _public_callables(mod):
                if owner is not None:
                    setattr(owner, attr, self._wrap(qual, fn))
                elif id(fn) not in replaced:
                    replaced[id(fn)] = self._wrap(qual, fn)
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in replaced:
                    setattr(ns, attr, replaced[id(obj)])
        np.linalg.svd = self._count_svd(np.linalg.svd)

    def _wrap(self, qual, fn):
        stack = self.stack
        hook = HOOKS.get(qual)
        get_mem, reset_peak = tracemalloc.get_traced_memory, tracemalloc.reset_peak

        def wrapper(*args, **kwargs):
            w0 = perf_counter()
            parent = stack[-1]
            spans = self.spans
            rec = [qual, 0.0, 0.0, parent[INDEX], 0.0, 0.0, 0, 0, None,
                   len(spans)]
            if self.memory:
                cur, peak = get_mem()
                parent[PEAK] = max(parent[PEAK], peak)
                reset_peak()
                rec[MEM0] = rec[PEAK] = cur
            spans.append(rec)
            stack.append(rec)
            ok = False
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            except BaseException as e:
                rec[ERROR] = type(e).__name__
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                rec[START], rec[END] = t0, t1
                if self.memory:
                    rec[PEAK] = max(rec[PEAK], get_mem()[1])
                    parent[PEAK] = max(parent[PEAK], rec[PEAK])
                if ok and hook is not None:
                    hook(self, args, kwargs, result)
                w1 = perf_counter()
                parent[CHILD] += w1 - w0
                parent[WRAP] += (w1 - w0) - (t1 - t0)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _count_svd(self, svd):
        def counted(a, full_matrices=True, compute_uv=True, hermitian=False):
            m, n = np.shape(a)[-2:]
            full = bool(full_matrices and compute_uv)
            self.counts["svd_calls"] += 1
            self.counts["svd_flops"] += m * n * min(m, n)
            self.counts["svd_full_calls"] += full
            self.counts[("svd_shape", m, n, full)] += 1
            return svd(a, full_matrices=full_matrices, compute_uv=compute_uv,
                       hermitian=hermitian)

        return counted

    # -- passes -----------------------------------------------------------

    def run(self, body, memory=False):
        """Run ``body`` under a root span; with ``memory`` tracemalloc is on
        and each span records its allocation peak."""
        self.spans = []
        self.counts = Counter()
        self.factor_keys = set()
        self.memory = memory
        root = ["bench", 0.0, 0.0, None, 0.0, 0.0, 0, 0, None, -1]
        self.stack.append(root)
        if memory:
            tracemalloc.start()
        root[START] = perf_counter()
        try:
            body()
        finally:
            root[END] = perf_counter()
            self.stack.pop()
            if memory:
                root[PEAK] = max(root[PEAK], tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
            self.memory = False
        return Pass(self.spans, self.counts, self.factor_keys, root)


class Pass:
    """The spans and counters of one traced pass."""

    def __init__(self, spans, counts, factor_keys, root):
        self.spans = spans
        self.counts = counts
        self.factor_keys = factor_keys
        self.root = root

    def write_spans(self, path):
        t0 = self.root[START]
        rows = [[s[NAME], s[START] - t0, s[END] - t0, s[PARENT]]
                for s in self.spans]
        shapes = [[m, n, full, k] for key, k in self.counts.items()
                  if isinstance(key, tuple) for _, m, n, full in [key]]
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"],
                       "spans": rows,
                       "svd_shapes": {"fields": ["rows", "cols",
                                                 "full_matrices", "calls"],
                                      "counts": shapes}}, fh)

    def allocation_peaks(self):
        """Largest allocation above its starting level, per module, in MB."""
        alloc = Counter()
        for s in self.spans:
            label = s[NAME].split(".", 1)[0]
            alloc[label] = max(alloc[label], s[PEAK] - s[MEM0])
        return {m: alloc[m] / MB for m in MODULES}, self.root[PEAK] / MB

    def metrics(self, untraced_round_s):
        """Per-layer metrics of the pass, by name."""
        self_s = Counter()
        calls = Counter()
        by_name = Counter()
        for s in self.spans:
            label = s[NAME].split(".", 1)[0]
            own = (s[END] - s[START]) - s[CHILD]
            self_s[label] += own
            by_name[s[NAME]] += own
            calls[label] += 1
        names = Counter(s[NAME] for s in self.spans)
        gen_spans = {s[INDEX] for s in self.spans if s[NAME] in GENERATORS}
        gen_ok = sum(1 for s in self.spans
                     if s[NAME] in GENERATORS and s[ERROR] is None)
        gen_tries = sum(1 for s in self.spans
                        if s[NAME] in GENERATION_CHECKS and s[PARENT] in gen_spans)
        root = self.root
        wall = root[END] - root[START]
        wrap = root[WRAP] + sum(s[WRAP] for s in self.spans)
        n_factor = names["subspaces.minimal_subspace"]

        def named(*quals):
            return sum(by_name[q] for q in quals)

        c = self.counts
        out = {
            "tensor.svd_calls": (c["svd_calls"], "count"),
            "tensor.svd_full_calls": (c["svd_full_calls"], "count"),
            "tensor.svd_self_s": (named("tensor.svd"), "s"),
            "tensor.svd_flops_computed": (c["svd_flops"], "flop"),
            "tensor.check_tensor_calls": (names["tensor.check_tensor"], "count"),
            "tensor.io_bytes": (c["io_bytes"], "B"),
            "tensor.io_self_s": (named("tensor.load_tensor",
                                       "tensor.save_tensor"), "s"),
            "trees.levels_calls": (names["trees.levels"], "count"),
            "trees.validate_calls": (names["trees.validate"], "count"),
            "subspaces.minimal_subspace_calls": (n_factor, "count"),
            "subspaces.factor_reuse_ratio": (
                len(self.factor_keys) / n_factor if n_factor else 0.0,
                "ratio"),
            "formats.is_member_calls": (names["formats.is_member"], "count"),
            "formats.generation_attempts": (gen_tries, "count"),
            "formats.generation_success_ratio": (
                gen_ok / gen_tries if gen_tries else 0.0, "ratio"),
            "operators.split_calls": (names["operators.split"], "count"),
            "operators.dense_operator_bytes": (c["dense_operator_bytes"], "B"),
            "tangent.basis_bytes": (c["basis_bytes"], "B"),
            "tangent.intersect_self_s":
                (named("tangent.intersect_operator_spaces"), "s"),
            "tangent.oracle_self_s": (named(
                "tangent.tangent_dimension_oracle",
                "tangent.parametrization_jacobian"), "s"),
            "charts.build_self_s": (named("charts.tree_chart"), "s"),
            "charts.point_self_s": (named("charts.tree_chart_point",
                                          "charts.tucker_chart_point"), "s"),
            "charts.inverse_self_s": (named(
                "charts.tree_chart_inverse", "charts.tucker_chart_inverse",
                "charts.level_inverse_operator"), "s"),
            "charts.inverse_rejects": (sum(
                1 for s in self.spans
                if s[NAME] == "charts.tree_chart_inverse" and s[ERROR]),
                "count"),
            "trace.wall_s": (wall, "s"),
            "trace.bench_self_s": (wall - root[CHILD], "s"),
            "trace.wrapper_s": (wrap, "s"),
            "trace.overhead_ratio": (wall / untraced_round_s, "ratio"),
        }
        for m in MODULES:
            out[f"{m}.calls"] = (calls[m], "count")
            out[f"{m}.self_s"] = (self_s[m], "s")
        return out


# Counters read from a call's arguments or result; their cost lands in the
# wrapper bookkeeping, not in the caller's self time.

def _io(tracer, args, kwargs, result):
    tracer.counts["io_bytes"] += os.path.getsize(args[0])


def _factor(tracer, args, kwargs, result):
    v = np.asarray(args[0])
    tracer.factor_keys.add((v.shape, hash(v.tobytes()), result.alpha))


def _dense(tracer, args, kwargs, result):
    tracer.counts["dense_operator_bytes"] += result.nbytes


def _basis(tracer, args, kwargs, result):
    tracer.counts["basis_bytes"] += result.vectors.nbytes


HOOKS = {
    "tensor.load_tensor": _io,
    "tensor.save_tensor": _io,
    "subspaces.minimal_subspace": _factor,
    "operators.assemble_laplacian": _dense,
    "operators.laplacian_exp": _dense,
    "tangent.OperatorSpaceBasis.operator": _dense,
    "tangent.level_operator_basis": _basis,
}
