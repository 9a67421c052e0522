"""Command-line front end.

Subcommands: ``analyze`` (rank profile plus chain residuals), ``membership``,
``generate``, ``chart-check`` (round-trip diagnostics), ``tangent``
(dimension report), and ``proper``.  Reports are JSON by default; ``--human``
renders small tables instead.  Exit codes: 0 success or affirmative verdict,
1 negative verdict, 2 input error, 3 generation failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from math import prod
from pathlib import Path

import numpy as np

from . import __version__
from .charts import tree_chart, tree_chart_inverse, tree_chart_point
from .errors import (
    DegenerateInputError,
    GenerationFailureError,
    InvalidArgumentError,
    NotOnManifoldError,
    OutsideChartDomainError,
    OutsideChartImageError,
    ParseError,
    TreegeomError,
    TreeValidationError,
)
from .formats import generator_verdict, is_member, is_proper, sample_attempts
from .subspaces import chain_residuals, factored_subspaces, ranks_from_json
from .tangent import tangent_dimension
from .tensor import (
    check_integer,
    check_tensor,
    check_tol,
    load_tensor,
    save_tensor,
    write_file,
)
from .trees import (
    balanced_binary_tree,
    level_partition,
    levels,
    linear_tree,
    tree_from_json,
    tucker_tree,
)

# bytes one run may take: chart-check and tangent as estimated by
# _operator_command_bytes, generate by _generation_command_bytes
OPERATOR_COMMAND_MEMORY_LIMIT = 2 ** 30

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_GENERATION = 3


def _load_tree(source, ndim):
    if source == "tucker":
        return tucker_tree(ndim)
    if source == "linear":
        return linear_tree(ndim)
    if source == "binary":
        return balanced_binary_tree(ndim)
    text = Path(source).read_text()
    tree = tree_from_json(text)
    if ndim is not None and tree.ndim != ndim:
        raise InvalidArgumentError(
            f"tree has {tree.ndim} modes, tensor has {ndim}"
        )
    return tree


def _load_ranks(path):
    return ranks_from_json(Path(path).read_text())


def _print(text):
    """Write a report to stdout.  A reader that has gone away (a broken
    pipe) is no error of the command, which keeps its own exit code; the
    rest of the output is dropped, the interpreter's last flush included."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError, ValueError):
            return  # not a stream on a descriptor: nothing is left to flush
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)


def _render(report, args):
    """A report's text: small tables with ``--human``, indented JSON
    otherwise."""
    if args.human:
        return _render_human(report)
    return json.dumps(report, indent=2)


def _emit(report, args):
    """Print a report, or with ``--out`` write it, newline-terminated and
    UTF-8 encoded, to that file in place (:func:`tensor.write_file`)."""
    text = _render(report, args)
    if args.out:
        write_file(args.out, [(text + "\n").encode()])
    else:
        _print(text)


def _compact(val):
    """Lists of scalars (or of flat lists) render on one line."""
    if isinstance(val, list) and all(
        not isinstance(x, (dict, list)) for x in val
    ):
        return "[" + ", ".join(str(x) for x in val) + "]"
    if isinstance(val, list) and all(
        isinstance(x, list)
        and all(not isinstance(y, (dict, list)) for y in x)
        for x in val
    ):
        return " ".join(_compact(x) for x in val)
    return None


def _render_human(report, indent=0):
    lines = []
    pad = "  " * indent
    if isinstance(report, dict):
        for key, val in report.items():
            flat = _compact(val) if isinstance(val, list) else None
            if flat is not None:
                lines.append(f"{pad}{key}: {flat}")
            elif isinstance(val, (dict, list)) and val:
                lines.append(f"{pad}{key}:")
                lines.append(_render_human(val, indent + 1))
            else:
                lines.append(f"{pad}{key}: {val}")
    elif isinstance(report, list):
        for val in report:
            if isinstance(val, (dict, list)):
                flat = _compact(val) if isinstance(val, list) else None
                if flat is not None:
                    lines.append(f"{pad}- {flat}")
                else:
                    lines.append(_render_human(val, indent))
            else:
                lines.append(f"{pad}- {val}")
    else:
        lines.append(f"{pad}{report}")
    return "\n".join(lines)


def _meta(args):
    meta = {"tool": "treegeom", "version": __version__}
    meta.update((k, getattr(args, k)) for k in ("seed", "tol") if k in args)
    return meta


def _operator_command_bytes(tree, r, shape, jacobian):
    """Estimated peak bytes of a ``chart-check`` or ``tangent`` run, read
    off the shape and the rank profile: 16 MiB for the buffers of the BLAS
    and the interpreter, whatever the shape, plus, in doubles,

    - ``8 * N`` for the tensor, its unfoldings with their thin SVD factors,
      and the chart points of a round trip;
    - ``2 * n_a^2`` per non-root node ``a``: its kept split ``[u | w]`` and
      the square factor ``w`` is read from (the unfolding's thin ``U``, or
      the full SVD factor of ``u`` where the unfolding is taller than
      wide);
    - per level-1 block ``b``, with ``dim_b = r_b (n_b - r_b)`` coordinates,
      kept for every block: its residual factors, ``dim_b^2`` per distinct
      deeper level, three times over for the stack of one block's factors
      and the SVD of that stack; and, whatever its deeper levels, the right
      singular vectors of that stack (the identity where there is no
      deeper level, as for every Tucker leaf) and the null basis copied out
      of them, ``dim_b^2`` each;
    - for the costliest level of the costliest block (levels are built one
      at a time): ``[u_b | w_b]`` in the level's nested coordinates,
      ``n_b^2`` four times over for the copies the rotation passes through,
      and the rows of the level's factor, ``dim_b`` entries each, three
      times over (the pieces, the stack they form and the copy its QR
      works on): ``r_b n_b`` rows off the single-node part, and per node
      ``a`` of the level, with ``m`` the product of the level's ranks in
      ``b``, ``(n_a - r_a) (m / r_a) m`` rows on ``w_a`` times the other
      nodes' bases and ``(n_a - r_a) r_a`` rows off them;
    - with ``jacobian``, three ``prod r_l x n_core`` arrays, ``r_l`` the
      leaf ranks and ``n_core`` the parameters of the network with
      ``r_l x r_l`` leaves: the oracle's Jacobian at the leaf core, the
      per-node products written into it (one node's at a time, none
      larger than the Jacobian), and the copy its SVD works on.  The
      oracle's one full-size step, checking that the leaf core reproduces
      the tensor, holds a few ``N``-sized copies, within the ``8 * N``.
    """

    def size(node):
        return prod(shape[m - 1] for m in node)

    def rank(node):
        # a rank tuple missing a node is rejected before anything is built
        return min(r[node], size(node)) if node in r else 1

    def rows(b, nodes):
        m = prod(rank(a) for a in nodes)
        return rank(b) * size(b) + sum(
            (size(a) - rank(a)) * (m // rank(a) * m + rank(a))
            for a in nodes
        )

    depth = levels(tree).depth
    partitions = [level_partition(tree, k) for k in range(1, depth + 1)]
    kept, level_cost = 0, [0]
    for b in partitions[0]:
        dim = rank(b) * (size(b) - rank(b))
        deeper = {
            tuple(a for a in p if set(a) <= set(b)) for p in partitions
        } - {(b,)}
        kept += (3 * len(deeper) + 2) * dim ** 2
        level_cost += [4 * size(b) ** 2 + 3 * rows(b, nodes) * dim
                       for nodes in deeper]
    entries = 8 * prod(shape) + kept + max(level_cost)
    entries += 2 * sum(size(a) ** 2 for a in tree.nodes if a != tree.root)
    if jacobian:
        core = tuple(rank((m,)) for m in range(1, len(shape) + 1))
        entries += 3 * prod(core) * _network_parameter_count(tree, r, core)
    return 2 ** 24 + 8 * entries


def _network_parameter_count(tree, r, shape):
    """Entries of a tree network's leaf factors and transfers, each rank
    capped at its unfolding's bound (a tuple above it is rejected as
    inadmissible before any network is drawn), so no transfer exceeds
    ``N``."""

    def rank(node):
        size = prod(shape[m - 1] for m in node)
        return min(r[node], size, prod(shape) // size) if node in r else 1

    params = sum(shape[leaf[0] - 1] * rank(leaf) for leaf in tree.leaves)
    return params + sum(
        rank(node) * prod(rank(kid) for kid in kids)
        for node, kids in tree.sons.items()
    )


def _generation_command_bytes(tree, r, shape):
    """Estimated peak bytes of a ``generate`` run, read off the shape and
    the rank profile: 16 MiB for the buffers of the BLAS and
    the interpreter plus, in doubles, the network's parameters and
    ``16 * N``.  The ``N``-sized stages are contracting the network (no
    node's basis exceeds ``N``, and each contraction step copies its input
    once) and one unfolding at a time with the copy its SVD works on.
    Writing the tensor adds no ``N``-sized copy: a binary file is written
    from the array itself, and a JSON file one piece of at most 65536
    entries at a time, the piece's list of numbers (4 doubles per entry),
    its text and the text's encoded bytes (about 3 each), 5 MiB at
    most."""
    entries = 16 * prod(shape) + _network_parameter_count(tree, r, shape)
    return 2 ** 24 + 8 * entries


def _guard_size(tree, r, shape, jacobian=False):
    _refuse_above_limit(_operator_command_bytes(tree, r, shape, jacobian),
                        shape)


def _refuse_above_limit(estimate, shape):
    if estimate > OPERATOR_COMMAND_MEMORY_LIMIT:
        raise InvalidArgumentError(
            f"estimated memory {estimate} bytes for shape {tuple(shape)} "
            f"exceeds the limit of {OPERATOR_COMMAND_MEMORY_LIMIT} bytes"
        )


def _parse_shape(text):
    """Mode sizes of a ``--shape`` argument: comma-separated integers, each
    at least 1."""
    try:
        shape = tuple(int(x) for x in text.split(","))
    except ValueError:
        shape = ()
    if not shape or min(shape) < 1:
        raise InvalidArgumentError(
            f"invalid shape {text!r}: expected comma-separated positive "
            "integers"
        )
    return shape


def cmd_analyze(args):
    v = load_tensor(args.tensor)
    tree = _load_tree(args.tree, v.ndim)
    # the tensor and tol are checked once, not once per node: the tree's
    # nodes are normalized blocks of v's modes
    v = check_tensor(v, allow_zero=False)
    tol = check_tol(args.tol)
    nodes = sorted(tree.nodes, key=lambda b: (len(b), b))
    subs = [sub for sub, _, _ in factored_subspaces(v, nodes, tol).values()]
    residuals = chain_residuals(
        v, tree, {sub.alpha: sub.basis for sub in subs}
    )
    report = {
        **_meta(args),
        "command": "analyze",
        "shape": list(v.shape),
        "ranks": [{"block": list(sub.alpha), "r": sub.rank} for sub in subs],
        "singular_values": {
            str(list(sub.alpha)): [float(s) for s in sub.singular_values]
            for sub in subs
        },
        "chain_residuals": {str(k): float(r) for k, r in residuals.items()},
    }
    _emit(report, args)
    return EXIT_OK


def cmd_membership(args):
    v = load_tensor(args.tensor)
    tree = _load_tree(args.tree, v.ndim)
    r = _load_ranks(args.ranks)
    report = is_member(v, tree, r, args.tol)
    doc = {**_meta(args), "command": "membership", **report.to_dict()}
    _emit(doc, args)
    return EXIT_OK if report.member else EXIT_NEGATIVE


def cmd_generate(args):
    shape = _parse_shape(args.shape)
    tree = _load_tree(args.tree, len(shape))
    r = _load_ranks(args.ranks)
    _refuse_above_limit(_generation_command_bytes(tree, r, shape), shape)
    verdict = generator_verdict(tree, r, shape, args.seed, args.trials,
                                "trials", args.tol)
    doc = {**_meta(args), "command": "generate"}
    v, attempts = None, 0
    if verdict.verdict == "admissible":
        try:
            v, _ = sample_attempts(tree, r, shape, args.seed, args.trials,
                                   args.tol)
        except GenerationFailureError:
            attempts = args.trials  # no sample reads as r at this tol
    if v is None:
        doc.update(verdict.to_dict(), attempts=attempts, witness_found=False)
        code = EXIT_GENERATION
    else:
        # the array the generation loop found to have the rank profile r at
        # tol: that check is the verification reported
        out = args.out or "generated_tensor.json"
        save_tensor(out, v)
        doc.update(written=str(out), shape=list(shape), verified=True)
        code = EXIT_OK
    # --out names the tensor file, so the report always goes to stdout
    _print(_render(doc, args))
    return code


def cmd_chart_check(args):
    check_integer(args.trials, "trials", 1)
    check_integer(args.seed, "seed", 0)
    v = load_tensor(args.tensor)
    tree = _load_tree(args.tree, v.ndim)
    r = _load_ranks(args.ranks)
    _guard_size(tree, r, v.shape)
    chart = tree_chart(v, tree, r, args.tol)
    rng = np.random.default_rng(args.seed)
    magnitudes = [1e-3, 1e-2, 1e-1, 1.0, 10.0]
    results = []
    for mag in magnitudes:
        errors = []
        out_of_domain = 0
        for _ in range(args.trials):
            coords = _sample_coords(chart, rng, mag)
            core = chart.core * (1.0 + 0.01 * rng.standard_normal(
                chart.core.shape))
            try:
                w = tree_chart_point(chart, coords, core)
                rec_coords, rec_core = tree_chart_inverse(chart, w)
            except (OutsideChartDomainError, OutsideChartImageError):
                out_of_domain += 1
                continue
            # the forward map rejects non-finite input; a recovered pair
            # with such entries reproduces nothing, so its error is NaN
            finite = (np.all(np.isfinite(rec_coords))
                      and np.all(np.isfinite(rec_core)))
            w_rec = (tree_chart_point(chart, rec_coords, rec_core) if finite
                     else np.full_like(w, np.nan))
            # cores and points scale with the tensor, coordinates do not:
            # dividing the scaled ones by max|w| makes the errors scale-free
            # (a norm taken on entries near 1e200 overflows)
            scale = np.max(np.abs(w))
            denom = max(np.linalg.norm(coords), np.linalg.norm(core / scale),
                        1e-12)
            coord_err = (
                np.linalg.norm(rec_coords - coords)
                + np.linalg.norm((rec_core - core) / scale)
            ) / denom
            tensor_err = (np.linalg.norm((w_rec - w) / scale)
                          / np.linalg.norm(w / scale))
            errors.append(max(float(coord_err), float(tensor_err)))
        # np.max keeps a NaN error, where max would drop it
        max_err = float(np.max(errors)) if errors else 0.0
        results.append({
            "magnitude": mag,
            "trials": args.trials,
            "outside_domain": out_of_domain,
            "max_roundtrip_error": max_err,
        })
    small = [res["max_roundtrip_error"] for res in results
             if res["magnitude"] <= 0.1]
    worst = float(np.max(small))
    passed = all(e <= 1e-8 for e in small)
    doc = {
        **_meta(args),
        "command": "chart-check",
        "operator_dim": chart.operator_basis.dim,
        "results": results,
        "max_error_small_magnitudes": worst,
        "passed": passed,
    }
    _emit(doc, args)
    return EXIT_OK if passed else EXIT_NEGATIVE


def _sample_coords(chart, rng, magnitude):
    dim = chart.operator_basis.dim
    if dim == 0:
        return np.zeros(0)
    coords = rng.standard_normal(dim)
    peak = max(
        np.linalg.norm(C) for C in chart.operator_basis.parts(coords).values()
    )
    if peak == 0.0:
        return coords * 0.0
    return coords * (magnitude / peak)


def cmd_tangent(args):
    v = load_tensor(args.tensor)
    tree = _load_tree(args.tree, v.ndim)
    r = _load_ranks(args.ranks)
    _guard_size(tree, r, v.shape, jacobian=True)
    try:
        report = tangent_dimension(v, tree, r, tol=args.tol)
    except NotOnManifoldError as e:
        if e.levels is None:
            raise
        doc = {
            **_meta(args),
            "command": "tangent",
            "member": False,
            "failing_levels": e.levels,
            "agree": False,
        }
        _emit(doc, args)
        return EXIT_NEGATIVE
    doc = {
        **_meta(args),
        "command": "tangent",
        "member": True,
        **report.to_dict(),
    }
    _emit(doc, args)
    return EXIT_OK if report.agree else EXIT_NEGATIVE


def cmd_proper(args):
    shape = _parse_shape(args.shape)
    tree = _load_tree(args.tree, len(shape))
    r = _load_ranks(args.ranks)
    check_integer(args.seed, "seed", 0)  # checked and echoed, nothing more
    report = is_proper(tree, r, shape)
    doc = {**_meta(args), "command": "proper", **report.to_dict()}
    _emit(doc, args)
    return EXIT_OK if report.proper else EXIT_NEGATIVE


def build_parser():
    parser = argparse.ArgumentParser(
        prog="treegeom",
        description=(
            "rank analysis, membership, generation, chart diagnostics and "
            "tangent dimension reports for tree tensor formats"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, tensor=True, ranks=False, shape=False, tol=True, seed=False,
               trials=False):
        if tensor:
            p.add_argument("--tensor", required=True, help="tensor file path")
        p.add_argument(
            "--tree", required=True,
            help="tree JSON path or one of: tucker, linear, binary",
        )
        if ranks:
            p.add_argument("--ranks", required=True, help="rank JSON path")
        if shape:
            p.add_argument(
                "--shape", required=True,
                help="comma-separated mode sizes, e.g. 2,3,4",
            )
        if tol:
            p.add_argument("--tol", type=float, default=1e-10)
        if seed:
            p.add_argument("--seed", type=int, default=0)
        if trials:
            p.add_argument("--trials", type=int, default=20)
        p.add_argument("--out", default=None, help="report/output file path")
        p.add_argument("--human", action="store_true",
                       help="human-readable tables instead of JSON")

    p = sub.add_parser("analyze", help="tree rank profile and chain residuals")
    common(p)

    p = sub.add_parser("membership", help="fixed tree-rank membership test")
    common(p, ranks=True)

    p = sub.add_parser("generate", help="random tensor with prescribed ranks")
    common(p, tensor=False, ranks=True, shape=True, seed=True, trials=True)

    p = sub.add_parser("chart-check", help="chart round-trip diagnostics")
    common(p, ranks=True, seed=True, trials=True)

    p = sub.add_parser("tangent", help="tangent dimension report")
    common(p, ranks=True)

    p = sub.add_parser("proper", help="properness verdict for a rank tuple",
                       description="--seed is checked and echoed in the "
                       "report, but does not change the verdict")
    common(p, tensor=False, ranks=True, shape=True, tol=False, seed=True)

    return parser


@functools.cache
def _parser():
    """The parser of this process, built on the first call.  Parsing leaves
    it unchanged: each call fills a fresh namespace with its own defaults."""
    return build_parser()


def main(argv=None):
    """Run one command and return its exit code; with ``argv`` None, read
    ``sys.argv`` and exit with the code instead."""
    args = _parser().parse_args(argv)
    # looked up per call, so that a handler replaced after the parser was
    # built is the one that runs
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        code = handler(args)
    except (DegenerateInputError, ParseError, TreeValidationError,
            InvalidArgumentError, FileNotFoundError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        code = EXIT_INPUT
    except (NotOnManifoldError, OutsideChartDomainError,
            OutsideChartImageError) as e:
        print(f"negative verdict: {e}", file=sys.stderr)
        code = EXIT_NEGATIVE
    except TreegeomError as e:
        print(f"error: {e}", file=sys.stderr)
        code = EXIT_INPUT
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
