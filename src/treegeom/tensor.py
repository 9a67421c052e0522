"""Dense tensor primitives: matricization, block contractions, SVD, block order.

Conventions used throughout the package:

* A tensor of order ``d`` is a ``numpy.ndarray`` with ``d`` axes; its modes are
  labelled ``1..d`` and its flat layout is row-major (C order).
* A mode subset is a sorted tuple of mode labels, e.g. ``(2, 3)``.
* All spaces carry the Euclidean/Frobenius inner product.  Every routine here
  is a pure function of its inputs; arrays are treated as immutable.

The matricization ``matricize(v, alpha)`` has rows indexed by the multi-indices
of the modes in ``alpha`` (row-major over the sorted subset) and columns by the
multi-indices of the remaining modes, also row-major.  This fixes the bijection
between a tensor and each of its unfoldings.

Outer products and operators on the whole flattened space are left to
numpy (``np.multiply.outer``, ``np.kron``): the library applies a block
operator through :func:`push_blocks` and :func:`pull_blocks`, and the one
dense embedding of a block operator it writes goes through
:func:`embedding_index`.
"""

from __future__ import annotations

import json
import operator
import os
import stat
import struct
from functools import lru_cache
from math import prod
from pathlib import Path

import numpy as np

from .errors import DegenerateInputError, InvalidArgumentError, ParseError

__all__ = [
    "normalize_modes",
    "matricize",
    "push_blocks",
    "pull_blocks",
    "svd",
    "svd_rank",
    "block_transpose_permutation",
    "check_tensor",
    "load_tensor",
    "save_tensor",
]


def check_tensor(v, allow_zero=True):
    """Validate a dense tensor and return it as a float array."""
    v = np.asarray(v, dtype=float)
    if v.ndim < 1:
        raise InvalidArgumentError("tensor must have at least one mode")
    if any(n < 1 for n in v.shape):
        raise InvalidArgumentError(f"all mode sizes must be positive, got {v.shape}")
    if not np.all(np.isfinite(v)):
        raise InvalidArgumentError("tensor entries must be finite")
    if not allow_zero and not np.any(v):
        raise DegenerateInputError("tensor is identically zero")
    return v


def normalize_modes(alpha, ndim):
    """Canonicalize a mode subset: sorted tuple, nonempty, within 1..ndim."""
    alpha = tuple(sorted(set(int(a) for a in alpha)))
    if not alpha:
        raise InvalidArgumentError("mode subset must be nonempty")
    if alpha[0] < 1 or alpha[-1] > ndim:
        raise InvalidArgumentError(
            f"mode subset {alpha} not contained in 1..{ndim}"
        )
    return alpha


def complement_modes(alpha, ndim):
    """Modes of 1..ndim not in alpha, sorted."""
    alpha = set(alpha)
    return tuple(m for m in range(1, ndim + 1) if m not in alpha)


def sorted_blocks(blocks):
    """Mode blocks as sorted tuples, in canonical order: ascending by the
    smallest mode (blocks of a partition never tie on it)."""
    return tuple(sorted(tuple(sorted(int(m) for m in b)) for b in blocks))


def matricize(v, alpha):
    """Unfold ``v`` into a matrix with the modes of ``alpha`` as row index.

    Rows run over the multi-indices of ``alpha`` (sorted, row-major), columns
    over the remaining modes.  ``alpha`` equal to all modes yields a column
    vector.  The entries are a permutation of the entries of ``v`` and the
    Frobenius norm is preserved.
    """
    v = check_tensor(v)
    return unfold(v, normalize_modes(alpha, v.ndim))


def unfold(v, alpha):
    """:func:`matricize` of a float array already passed through
    :func:`check_tensor`, at a mode subset already normalized."""
    row_axes = [a - 1 for a in alpha]
    col_axes = [m - 1 for m in complement_modes(alpha, v.ndim)]
    rows = prod(v.shape[i] for i in row_axes)
    return np.transpose(v, row_axes + col_axes).reshape(rows, -1)


def push_blocks(core, bases, blocks, shape):
    """Contract a coefficient tensor, one ``r_b`` axis per block (in block
    order) then any trailing axes, with one ``n_b x r_b`` basis per block,
    forming no Kronecker product.  The result has one axis per mode of the
    blocks' union, ascending (``shape`` gives each mode's size; the blocks
    need not cover every mode), then the trailing axes."""
    t = core
    for B in bases:
        t = _contract_lead(t, B.T)
    # the trailing axes now lead, then one fused axis per block
    lead = t.ndim - len(blocks)
    modes = [m for b in blocks for m in b]
    t = t.reshape(t.shape[:lead] + tuple(shape[m - 1] for m in modes))
    order = sorted(range(len(modes)), key=modes.__getitem__)
    return np.ascontiguousarray(np.transpose(
        t, [lead + i for i in order] + list(range(lead))))


def pull_blocks(w, bases, blocks, shape):
    """Adjoint of :func:`push_blocks`: the coefficients of ``w`` against one
    basis per block.  With orthonormal bases, pushing them forward again
    projects ``w`` onto the tensor product of the bases' spans."""
    modes = [m for b in blocks for m in b]
    axis = {m: i for i, m in enumerate(sorted(modes))}
    trailing = list(range(len(modes), w.ndim))
    t = np.transpose(w, [axis[m] for m in modes] + trailing)
    t = t.reshape([prod(shape[m - 1] for m in b) for b in blocks]
                  + [w.shape[i] for i in trailing])
    for B in bases:
        t = _contract_lead(t, B)
    # the trailing axes now lead, then one r_b axis per block
    return np.transpose(t, list(range(len(trailing), t.ndim))
                        + list(range(len(trailing))))


def _contract_lead(t, B):
    """``np.tensordot(t, B, axes=([0], [0]))`` without its wrapper: one
    ``np.dot`` on the operands it builds (``t``'s leading axis moved last
    and the rest fused, and ``B``), so the result is bitwise the same."""
    rest = t.shape[1:]
    at = t.transpose(tuple(range(1, t.ndim)) + (0,)).reshape(
        prod(rest), t.shape[0])
    return np.dot(at, B).reshape(rest + B.shape[1:])


def lead_signs(U):
    """The deterministic SVD sign of each left singular vector, as ``1.0``
    or ``-1.0``, for one factor or a stack of them (``U`` of shape
    ``(..., m, k)``, the result ``(..., k)``): the sign that makes the
    vector's entry of largest magnitude nonnegative, ties broken at the
    lowest index.  A vector with no entries keeps its sign."""
    m, k = U.shape[-2:]
    if not m:
        return np.ones(U.shape[:-2] + (k,))
    U3 = U.reshape(-1, m, k)
    lead = U3[np.arange(len(U3))[:, None], np.abs(U3).argmax(axis=1),
              np.arange(k)]
    return np.where(lead < 0, -1.0, 1.0).reshape(U.shape[:-2] + (k,))


def _fix_signs(U, Vt):
    """``U`` and ``Vt`` of an SVD with the signs of :func:`lead_signs`:
    each column of ``U`` and the matching row of ``Vt``, where there is
    one, flip together."""
    sign = lead_signs(U)
    # a product with 1.0 or -1.0 is exact: only the flipped signs change
    Vt = Vt.copy()
    k = min(U.shape[-1], Vt.shape[-2])
    Vt[..., :k, :] *= sign[..., :k, None]
    return U * sign[..., None, :], Vt


def svd(M, full_matrices=False):
    """Singular value decomposition with a deterministic sign convention.

    Returns ``(U, s, Vt)`` with ``M = U @ diag(s) @ Vt``; singular values are
    nonincreasing and in each column of ``U`` the largest-magnitude entry is
    nonnegative.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise InvalidArgumentError("svd expects a matrix")
    # the method, not np.all: every internal SVD pays this scan
    if not np.isfinite(M).all():
        raise InvalidArgumentError("svd input has non-finite entries")
    U, s, Vt = np.linalg.svd(M, full_matrices=full_matrices)
    U, Vt = _fix_signs(U, Vt)
    return U, s, Vt


def check_tol(tol):
    """``tol`` if it is a real number with ``0 < tol < 1``; ``None``, NaN,
    an infinity, zero, a negative number or one at least 1 (which would
    keep no singular value, the largest included) is an input error."""
    # one comparison, not an isinstance check on an abstract class: every
    # svd_rank call pays it; what does not compare with numbers raises
    try:
        if 0 < tol < 1:
            return tol
    except (TypeError, ValueError):
        pass
    raise InvalidArgumentError(
        f"tol must be a number > 0 and < 1, got {tol!r}")


def check_integer(value, name, low):
    """``value`` as an ``int`` if it is an integer at least ``low``:
    Python and numpy integers pass, a bool, a float or anything else is an
    input error."""
    try:
        index = operator.index(value)
    except TypeError:
        index = None
    if type(value) is bool or index is None or index < low:
        raise InvalidArgumentError(
            f"{name} must be an integer >= {low}, got {value!r}")
    return index


def svd_rank(s, tol):
    """Number of singular values above the rank tolerance ``tol``, relative
    to the largest singular value: an ``int`` for a nonincreasing vector,
    an integer array with one count per row for a stack of them."""
    check_tol(tol)
    s = np.asarray(s, dtype=float)
    found = (s > tol * s[..., :1]).sum(axis=-1)
    return int(found) if s.ndim == 1 else found


def block_transpose_permutation(shape, alpha):
    """Flat-index permutation moving the modes of ``alpha`` in front.

    Returns ``perm`` such that ``x.ravel()[perm]`` is the flattening of ``x``
    with mode order ``sorted(alpha) + rest``.
    """
    d = len(shape)
    alpha = normalize_modes(alpha, d)
    axes = [a - 1 for a in alpha] + [m - 1 for m in complement_modes(alpha, d)]
    n = prod(shape)
    return np.transpose(np.arange(n).reshape(shape), axes).ravel()


def embedding_index(shape, alpha):
    """Flat positions, in the ``N x N`` operator on the flattened tensor
    space, of the entries of an ``n_alpha x n_alpha`` block operator
    tensored with the identity on the other modes (``alpha`` normalized).

    Entry ``[a, a', r]`` of the ``n_alpha x n_alpha x N / n_alpha`` result
    is the position of row ``(a, r)`` and column ``(a', r)``, ``r`` running
    over the other modes' multi-indices; writing ``M[:, :, None]`` there
    embeds ``M``, and summing a gather over the last axis is the partial
    trace over the other modes.  The index is read-only and kept under the
    size rule of :func:`planned`."""
    shape = tuple(shape)
    entries = prod(shape) * prod(shape[a - 1] for a in alpha)
    return planned(_kept_index, _build_index, entries, shape, alpha)


def _build_index(shape, alpha):
    N = prod(shape)
    perm = block_transpose_permutation(shape, alpha).reshape(
        prod(shape[a - 1] for a in alpha), -1)
    index = perm[:, None, :] * N + perm[None, :, :]
    index.flags.writeable = False
    return index


def planned(kept, build, entries, *args):
    """``build(*args)``, an index plan of ``entries`` entries: read from
    ``kept``, the bounded ``lru_cache`` of ``build``, when it has at most
    :data:`_KEPT_PLAN_ENTRIES` entries, built afresh on every call
    otherwise, so a large tensor's plans leave nothing behind."""
    return (kept if entries <= _KEPT_PLAN_ENTRIES else build)(*args)


def stack_capacity(entries):
    """How many matrices of ``entries`` entries each one stacked
    factorization takes: as many as fit in :data:`_KEPT_PLAN_ENTRIES`
    entries, and none when one such matrix alone is above it (it is then
    factored by itself, with nothing gathered)."""
    return _KEPT_PLAN_ENTRIES // max(entries, 1)


# Chart reads index a few small arrays (unfoldings of matrices of at most
# n_b x r_b entries, block embeddings on spaces of a few dozen entries), so
# one process meets few plans, each a few KiB, and rebuilding one costs more
# than the work it feeds.  A plan over a large tensor (N n_alpha entries
# for a block embedding) is not kept: the bound keeps each cache below
# 32 MiB.  The same bound caps a stack of unfoldings factored in one call
# (:func:`stack_capacity`), so batching a small tensor's nodes gathers a
# few KiB and a large tensor's unfoldings are factored one at a time, as
# they stand.
_KEPT_PLAN_ENTRIES = 2 ** 14
_kept_index = lru_cache(maxsize=256)(_build_index)


# ---------------------------------------------------------------------------
# Tensor file formats.  JSON: {"shape": [...], "data": [... row-major ...]}.
# Binary: 8-byte little-endian unsigned order d, then d 8-byte little-endian
# dimensions, then IEEE-754 little-endian doubles in row-major order.
# ---------------------------------------------------------------------------


# entries per piece of a JSON tensor's data list: each piece is one list of
# Python floats, its text and the text's bytes, a few MB at most, instead of
# the whole tensor held as all three
_JSON_CHUNK = 65536


def write_file(path, chunks):
    """Write the byte chunks ``chunks`` (any buffers) to ``path`` in place:
    the file is opened for writing, created if missing, but not truncated
    to zero; every chunk is written in turn from offset 0, a short write
    resumed where it stopped, and a regular file is then cut to the bytes
    written, also when a chunk raises.  The result is the bytes of a
    truncating write, in the same inode, and an interrupted write leaves
    exactly what was written.  A device, a pipe or ``/dev/null`` is written
    and never cut.

    Truncating an existing file to zero frees its blocks, and the file
    system starts writing the new ones back when the file is closed; in
    place, neither happens.  So after a power loss before the kernel writes
    the file back, a rewritten file can hold its old bytes cut to the new
    length.  Nothing is synced: durability is not promised."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0),
                 0o666)
    written = 0
    try:
        for chunk in chunks:
            view = memoryview(chunk).cast("B")
            while view:
                n = os.write(fd, view)
                written += n
                view = view[n:]
    finally:
        try:
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, written)
        finally:
            os.close(fd)


def save_tensor(path, v):
    """Write a tensor; JSON if the suffix is .json, binary otherwise.

    The JSON text is the bytes of ``json.dumps({"shape": ..., "data":
    ...})``, encoded and written a chunk of entries at a time; the binary
    payload is written from the array itself, with no copy when it is
    already little-endian and contiguous.  Either is written in place
    through :func:`write_file`."""
    v = check_tensor(v)
    if Path(path).suffix == ".json":
        write_file(path, _json_chunks(v))
    else:
        d = v.ndim
        header = struct.pack("<Q", d) + struct.pack(f"<{d}Q", *v.shape)
        write_file(path, (header, np.ascontiguousarray(v, dtype="<f8")))


def _json_chunks(v):
    """The UTF-8 text of a JSON tensor, one piece of entries at a time."""
    flat = v.ravel()
    yield f'{{"shape": {json.dumps(list(v.shape))}, "data": ['.encode()
    for start in range(0, flat.size, _JSON_CHUNK):
        if start:
            yield b", "
        piece = flat[start:start + _JSON_CHUNK].tolist()
        yield json.dumps(piece)[1:-1].encode()
    yield b"]}"


_NUMBER_TYPES = frozenset((int, float))


def _tensor_from_json(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid tensor JSON: {e}") from e
    if not isinstance(doc, dict) or "shape" not in doc or "data" not in doc:
        raise ParseError("tensor JSON must be an object with 'shape' and 'data'")
    shape = doc["shape"]
    data = doc["data"]
    # JSON booleans load as bool, a subclass of int: they are no numbers here
    if (not isinstance(shape, list) or not shape
            or any(type(n) is not int or n < 1 for n in shape)):
        raise ParseError(f"invalid tensor shape {shape!r}")
    # one type per entry, gathered in C: only ints and floats are numbers
    if (not isinstance(data, list)
            or not set(map(type, data)) <= _NUMBER_TYPES):
        raise ParseError("tensor data must be a flat list of numbers")
    if len(data) != prod(shape):
        raise ParseError(
            f"data length {len(data)} does not match shape {shape}"
        )
    try:
        values = np.asarray(data, dtype=float)
    except OverflowError as e:
        raise ParseError(f"tensor data out of range: {e}") from e
    return check_tensor(values.reshape(shape))


def _tensor_from_binary(raw):
    if len(raw) < 8:
        raise ParseError("binary tensor file too short")
    (d,) = struct.unpack("<Q", raw[:8])
    if d < 1 or d > 64:
        raise ParseError(f"implausible tensor order {d}")
    need = 8 + 8 * d
    if len(raw) < need:
        raise ParseError("binary tensor file truncated in header")
    shape = struct.unpack(f"<{d}Q", raw[8:need])
    if any(n < 1 for n in shape):
        raise ParseError(f"invalid tensor shape {shape}")
    count = prod(shape)
    if len(raw) != need + 8 * count:
        raise ParseError("binary tensor payload size mismatch")
    data = np.frombuffer(raw[need:], dtype="<f8", count=count)
    return check_tensor(data.reshape(shape).astype(float))


def load_tensor(path):
    """Read a tensor file, auto-detecting the JSON and binary formats."""
    raw = Path(path).read_bytes()
    if raw[:1] in (b"{", b" ", b"\n", b"\t"):
        return _tensor_from_json(raw.decode("utf-8"))
    try:
        return _tensor_from_binary(raw)
    except ParseError as binary_error:
        # fall back in case of a JSON file with unusual leading bytes
        try:
            return _tensor_from_json(raw.decode("utf-8"))
        except (UnicodeDecodeError, ParseError):
            raise binary_error from None
