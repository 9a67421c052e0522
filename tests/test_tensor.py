import json
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import treegeom as tg
from treegeom.errors import InvalidArgumentError, ParseError
from treegeom.tensor import (
    _KEPT_PLAN_ENTRIES,
    embedding_index,
    _fix_signs,
    _kept_index,
    check_tensor,
    complement_modes,
    normalize_modes,
    pull_blocks,
    push_blocks,
)

from helpers import (
    apply_single_mode_oracle,
    fix_signs_loop,
    gauss_rank_exact,
    gauss_rank_float,
    kron_embed_block_operator,
    tensordot_pull_blocks,
    tensordot_push_blocks,
)


small_shapes = st.lists(st.integers(2, 4), min_size=2, max_size=4).map(tuple)


def random_tensor(shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape)


class TestMatricize:
    def test_elementary_basis_tensor(self):
        e = np.zeros(2)
        e[0] = 1.0
        v = reduce(np.multiply.outer, [e, e, e])
        M = tg.matricize(v, (1,))
        assert M.shape == (2, 4)
        expected = np.zeros((2, 4))
        expected[0, 0] = 1.0
        assert np.array_equal(M, expected)

    def test_elementary_is_rank_one_for_every_subset(self, rng):
        x, y, z = rng.standard_normal(2), rng.standard_normal(3), rng.standard_normal(4)
        v = reduce(np.multiply.outer, [x, y, z])
        for alpha in [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3)]:
            M = tg.matricize(v, alpha)
            s = np.linalg.svd(M, compute_uv=False)
            assert np.sum(s > 1e-12 * s[0]) == 1

    def test_rank_matches_elimination_oracle(self, rng):
        v = rng.standard_normal((2, 3, 4))
        M = tg.matricize(v, (2, 3))
        s = np.linalg.svd(M, compute_uv=False)
        svd_r = int(np.sum(s > 1e-10 * s[0]))
        assert svd_r == gauss_rank_float(M, tol=1e-10)

    def test_full_mode_set_gives_column_vector(self, rng):
        v = rng.standard_normal((2, 3))
        M = tg.matricize(v, (1, 2))
        assert M.shape == (6, 1)
        assert np.array_equal(M.ravel(), v.ravel())

    def test_rejects_empty_and_out_of_range(self):
        v = np.ones((2, 2))
        with pytest.raises(InvalidArgumentError):
            tg.matricize(v, ())
        with pytest.raises(InvalidArgumentError):
            tg.matricize(v, (3,))

    @given(small_shapes, st.integers(0, 1000), st.data())
    @settings(max_examples=30, deadline=None)
    def test_isometry(self, shape, seed, data):
        v = random_tensor(shape, seed)
        d = len(shape)
        modes = data.draw(
            st.sets(st.integers(1, d), min_size=1, max_size=d)
        )
        M = tg.matricize(v, tuple(modes))
        assert np.linalg.norm(M) == pytest.approx(np.linalg.norm(v), rel=1e-13)

    @given(small_shapes, st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_single_mode_unfoldings_are_entry_permutations(self, shape, seed):
        v = random_tensor(shape, seed)
        reference = np.sort(v.ravel())
        for j in range(1, len(shape) + 1):
            entries = np.sort(tg.matricize(v, (j,)).ravel())
            assert np.array_equal(entries, reference)


class TestSvd:
    def test_identity_singular_values(self):
        _, s, _ = tg.svd(np.eye(3))
        np.testing.assert_allclose(s, np.ones(3))

    def test_rank_one(self, rng):
        M = np.outer(rng.standard_normal(4), rng.standard_normal(6))
        _, s, _ = tg.svd(M)
        assert np.sum(s > 1e-12 * s[0]) == 1

    def test_reconstruction(self, rng):
        M = rng.standard_normal((4, 6))
        U, s, Vt = tg.svd(M)
        np.testing.assert_allclose(
            U @ np.diag(s) @ Vt, M, atol=1e-12 * np.linalg.norm(M)
        )
        np.testing.assert_allclose(U.T @ U, np.eye(4), atol=1e-12)
        np.testing.assert_allclose(Vt @ Vt.T, np.eye(4), atol=1e-12)

    def test_sign_convention_deterministic(self, rng):
        M = rng.standard_normal((5, 3))
        U1, _, _ = tg.svd(M)
        U2, _, _ = tg.svd(M.copy())
        assert np.array_equal(U1, U2)
        for j in range(U1.shape[1]):
            i = np.argmax(np.abs(U1[:, j]))
            assert U1[i, j] >= 0

    def test_sign_convention_preserves_product(self, rng):
        M = rng.standard_normal((4, 4))
        U, s, Vt = tg.svd(M)
        np.testing.assert_allclose(U @ np.diag(s) @ Vt, M, atol=1e-12)

    def test_integer_matrices_match_exact_rank(self, rng):
        for _ in range(20):
            A = rng.integers(-3, 4, size=(4, 5)).astype(float)
            s = np.linalg.svd(A, compute_uv=False)
            svd_r = tg.svd_rank(s, max(A.shape) * np.finfo(float).eps)
            assert svd_r == gauss_rank_exact(A)

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidArgumentError):
            tg.svd(np.array([[np.inf, 0.0], [0.0, 1.0]]))

    @given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 7),
           st.booleans(), st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_fix_signs_matches_the_column_loop(self, m, k, vt_rows, tie,
                                               seed):
        # entries from a few values, so that columns hold ties and zeros;
        # Vt may have fewer rows than U has columns, as in the full SVD of
        # a tall matrix, or more
        values = np.array([0.0, 0.5, -0.5, 1.0, -1.0, 0.25])
        rng = np.random.default_rng(seed)
        U = values[rng.integers(len(values), size=(m, k))]
        if tie and m >= 2:
            U[:, 0] = 0.0
            U[:2, 0] = [0.5, -0.5]
        Vt = rng.standard_normal((vt_rows, 3))
        before = U.copy(), Vt.copy()
        U_ref, Vt_ref = fix_signs_loop(U, Vt)
        U_fix, Vt_fix = _fix_signs(U, Vt)
        # bit for bit, the signs of zeros included
        for got, want in ((U_fix, U_ref), (Vt_fix, Vt_ref)):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
        assert np.array_equal(U, before[0]) and np.array_equal(Vt, before[1])

    def test_fix_signs_on_full_svd_factors(self, rng):
        for shape in [(5, 3), (3, 5), (4, 4), (0, 3)]:
            U, _, Vt = np.linalg.svd(rng.standard_normal(shape),
                                     full_matrices=True)
            for got, want in zip(_fix_signs(U, Vt), fix_signs_loop(U, Vt)):
                assert np.array_equal(got, want)


def embed(M, alpha, shape):
    """``M`` on the block ``alpha`` tensored with the identity elsewhere,
    written through the block's embedding index."""
    N = int(np.prod(shape))
    out = np.zeros(N * N)
    out[embedding_index(shape, alpha)] = M[:, :, None]
    return out.reshape(N, N)


class TestEmbeddingIndex:
    def test_identity_embeds_to_identity(self):
        np.testing.assert_allclose(embed(np.eye(6), (2, 3), (2, 2, 3)),
                                   np.eye(12))

    # all modes >= 3, a non-contiguous block, the full-mode block, modes of
    # size 1, and a list shape
    CASES = [
        ((3, 4, 3), (2,)),
        ((3, 4, 3), (1, 3)),
        ((3, 4, 3), (1, 2, 3)),
        ((3, 3, 4, 3), (2, 4)),
        ((3, 1, 4), (2,)),
        ((3, 1, 4), (1, 2)),
        ([1, 3], (1,)),
    ]

    @pytest.mark.parametrize("shape,alpha", CASES)
    def test_equals_the_kronecker_embedding(self, shape, alpha, rng):
        n = int(np.prod([shape[a - 1] for a in alpha]))
        M = rng.standard_normal((n, n))
        # np.kron writes -0.0 where the index leaves +0.0: equal values,
        # not equal bytes
        assert np.array_equal(embed(M, alpha, shape),
                              kron_embed_block_operator(M, alpha, shape))

    def test_matches_the_matricized_action_on_columns(self, rng):
        # on a tensor, the embedded operator is the block operator applied
        # to the block's matricization, folded back
        shape, alpha = (2, 3, 2), (1, 3)
        v = rng.standard_normal(shape)
        A = rng.standard_normal((4, 4))
        ref = (A @ tg.matricize(v, alpha)).reshape(2, 2, 3).transpose(0, 2, 1)
        np.testing.assert_allclose(
            (embed(A, alpha, shape) @ v.ravel()).reshape(shape), ref,
            atol=1e-12)

    def test_matches_index_loop_oracle(self, rng):
        shape = (2, 3, 2)
        v = rng.standard_normal(shape)
        A = rng.standard_normal((3, 3))
        np.testing.assert_allclose(
            (embed(A, (2,), shape) @ v.ravel()).reshape(shape),
            apply_single_mode_oracle(A, 2, v), atol=1e-13)

    def test_swap_matches_index_permutation(self, rng):
        v = rng.standard_normal((2, 2))
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        out = (embed(A, (1,), v.shape) @ v.ravel()).reshape(v.shape)
        assert np.array_equal(out, v[::-1, :])

    def test_disjoint_blocks_commute(self, rng):
        shape = (2, 3, 4)
        A = embed(rng.standard_normal((2, 2)), (1,), shape)
        B = embed(rng.standard_normal((4, 4)), (3,), shape)
        ab, ba = A @ B, B @ A
        assert np.linalg.norm(ab - ba) <= 1e-13 * max(np.linalg.norm(ab), 1)

    def test_gather_sums_to_the_partial_trace(self, rng):
        # summing the gathered entries over the last axis traces out the
        # modes outside the block
        shape, alpha = (2, 3, 2), (1, 3)
        X = rng.standard_normal((12, 12))
        got = X.ravel()[embedding_index(shape, alpha)].sum(axis=-1)
        want = np.einsum("abcdbf->acdf", X.reshape(shape + shape))
        np.testing.assert_allclose(got, want.reshape(4, 4), atol=1e-12)

    def test_kept_index_is_read_only_and_shared(self):
        shape, alpha = (3, 4, 3), (1, 3)
        index = embedding_index(shape, alpha)
        assert index.size <= _KEPT_PLAN_ENTRIES
        assert embedding_index(list(shape), alpha) is index
        assert not index.flags.writeable
        with pytest.raises(ValueError):
            index[0, 0, 0] = 0

    def test_large_index_is_built_on_every_call(self):
        # 729 x 243 index entries on a level-1 block of linear 3^6, above
        # what the index cache keeps
        shape, alpha = (3,) * 6, (2, 3, 4, 5, 6)
        before = _kept_index.cache_info()
        first = embedding_index(shape, alpha)
        second = embedding_index(shape, alpha)
        assert first.size > _KEPT_PLAN_ENTRIES
        assert first is not second and np.array_equal(first, second)
        assert not first.flags.writeable
        after = _kept_index.cache_info()
        assert (after.hits, after.misses, after.currsize) == \
            (before.hits, before.misses, before.currsize)

    def test_forms_no_kronecker_product(self, monkeypatch, rng):
        def refuse(*args, **kwargs):
            raise AssertionError("np.kron called")

        monkeypatch.setattr(np, "kron", refuse)
        assert np.array_equal(embed(np.eye(12), (1, 2), (3, 4, 3)),
                              np.eye(36))


class TestBlockContraction:
    """push_blocks and pull_blocks make the np.dot calls np.tensordot
    makes, on the same operands: bitwise the same results."""

    # (shape, blocks, ranks): blocks in any order, rank-1 blocks, blocks
    # that leave a mode out
    CASES = [
        ((3, 4, 3), ((1, 3), (2,)), (2, 1)),
        ((3, 3, 4, 3), ((1,), (2, 3), (4,)), (1, 2, 3)),
        ((2, 3, 2, 3), ((2, 4), (1,)), (1, 1)),
        ((3, 4, 3), ((1, 2, 3),), (2,)),
    ]

    @pytest.mark.parametrize("shape,blocks,ranks", CASES)
    @pytest.mark.parametrize("trailing", [(), (2,), (1, 3)])
    def test_push_and_pull_equal_tensordot(self, shape, blocks, ranks,
                                           trailing, rng):
        bases = [rng.standard_normal(
            (int(np.prod([shape[m - 1] for m in b])), r))
            for b, r in zip(blocks, ranks)]
        core = rng.standard_normal(ranks + trailing)
        got = push_blocks(core, bases, blocks, shape)
        want = tensordot_push_blocks(core, bases, blocks, shape)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        modes = sorted(m for b in blocks for m in b)
        w = rng.standard_normal(tuple(shape[m - 1] for m in modes)
                                + trailing)
        got = pull_blocks(w, bases, blocks, shape)
        want = tensordot_pull_blocks(w, bases, blocks, shape)
        assert got.shape == want.shape
        assert np.ascontiguousarray(got).tobytes() == \
            np.ascontiguousarray(want).tobytes()


class TestTensorIO:
    def test_json_roundtrip(self, tmp_path, rng):
        v = rng.standard_normal((2, 3, 4))
        p = tmp_path / "t.json"
        tg.save_tensor(p, v)
        assert np.array_equal(tg.load_tensor(p), v)

    def test_binary_roundtrip(self, tmp_path, rng):
        v = rng.standard_normal((3, 2, 2))
        p = tmp_path / "t.bin"
        tg.save_tensor(p, v)
        assert np.array_equal(tg.load_tensor(p), v)

    def test_json_shape_mismatch(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"shape": [2, 2], "data": [1.0, 2.0, 3.0]}))
        with pytest.raises(ParseError):
            tg.load_tensor(p)

    def test_binary_truncated(self, tmp_path, rng):
        v = rng.standard_normal((2, 2))
        p = tmp_path / "t.bin"
        tg.save_tensor(p, v)
        p.write_bytes(p.read_bytes()[:-8])
        with pytest.raises(ParseError):
            tg.load_tensor(p)

    def test_deterministic_bytes(self, tmp_path, rng):
        v = rng.standard_normal((2, 2, 2))
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        tg.save_tensor(p1, v)
        tg.save_tensor(p2, v)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("chunk", [1, 3, 7, 65536])
    @pytest.mark.parametrize("shape", [(1,), (7,), (2, 3), (3, 4, 5)])
    def test_chunked_json_is_one_json_dump(self, tmp_path, rng, monkeypatch,
                                           chunk, shape):
        # written a chunk at a time, the text is byte for byte the one dump
        # of the whole document, whether the chunks divide the data or not
        from treegeom import tensor

        monkeypatch.setattr(tensor, "_JSON_CHUNK", chunk)
        v = rng.standard_normal(shape)
        v.flat[0] = -0.0
        v.flat[-1] = 1e300 if v.size > 1 else 5e-324
        p = tmp_path / "t.json"
        tg.save_tensor(p, v)
        doc = {"shape": list(shape), "data": [float(x) for x in v.ravel()]}
        assert p.read_bytes() == json.dumps(doc).encode()
        assert np.array_equal(tg.load_tensor(p), v)

    def test_json_of_a_strided_view(self, tmp_path):
        v = np.arange(24.0).reshape(2, 3, 4).transpose(2, 0, 1)[::2]
        p = tmp_path / "t.json"
        tg.save_tensor(p, v)
        assert np.array_equal(tg.load_tensor(p), v)


class TestWriteFile:
    def test_raising_chunk_source_leaves_the_bytes_written(self, tmp_path):
        from treegeom.tensor import write_file

        def chunks():
            yield b"abc"
            yield bytearray(b"def")
            raise RuntimeError("source failed")

        p = tmp_path / "out.txt"
        p.write_bytes(b"x" * 4096)
        with pytest.raises(RuntimeError, match="source failed"):
            write_file(p, chunks())
        assert p.read_bytes() == b"abcdef"

    @pytest.mark.parametrize("suffix", [".json", ".bin"])
    def test_short_writes_are_resumed(self, tmp_path, rng, monkeypatch,
                                      suffix):
        # every os.write takes at most 5 bytes: the file is still the one
        # a whole write makes
        import os

        v = rng.standard_normal((3, 4, 5))
        whole = tmp_path / f"whole{suffix}"
        tg.save_tensor(whole, v)
        real_write = os.write
        monkeypatch.setattr(os, "write",
                            lambda fd, data: real_write(fd, data[:5]))
        short = tmp_path / f"short{suffix}"
        tg.save_tensor(short, v)
        monkeypatch.undo()
        assert short.read_bytes() == whole.read_bytes()

    def test_binary_of_strided_and_byte_swapped_arrays(self, tmp_path):
        v = np.arange(24.0).reshape(2, 3, 4).transpose(2, 0, 1)[::2]
        p, q = tmp_path / "a.bin", tmp_path / "b.bin"
        tg.save_tensor(p, v)
        tg.save_tensor(q, v.astype(">f8"))
        assert p.read_bytes() == q.read_bytes()
        assert np.array_equal(tg.load_tensor(p), v)


def test_normalize_modes_sorts_and_dedups():
    assert normalize_modes([3, 1, 3], 4) == (1, 3)
    assert complement_modes((1, 3), 4) == (2, 4)


def test_check_tensor_rejects_zero_when_asked():
    with pytest.raises(tg.DegenerateInputError):
        check_tensor(np.zeros((2, 2)), allow_zero=False)
