import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rankfuse.matrix_ops
from rankfuse.errors import (
    DegenerateInputError,
    ParameterError,
    ShapeError,
    ValidationError,
)
from rankfuse.io_files import load_matrix, write_matrix
from rankfuse.matrix_ops import (
    _BLOCK_CELLS,
    _CACHE_CELLS,
    _PASS_CELLS,
    EmbeddingMatrix,
    ScoreMatrix,
    _block_rows,
    _cache_blocks,
    _finite,
    _row_buffer,
    cosine_similarity,
    l2_normalize_rows,
    minmax_normalize,
    row_softmax,
    topk_rows,
)


def brute_force_topk(data: np.ndarray, k: int) -> np.ndarray:
    """Full sort per row, descending value, ties to the lower index."""
    out = np.empty((data.shape[0], k), dtype=np.int64)
    for i, row in enumerate(data):
        order = sorted(range(len(row)), key=lambda j: (-row[j], j))
        out[i] = order[:k]
    return out


class TestWrapperValidation:
    def test_rejects_nan_with_coordinates(self):
        with pytest.raises(ValidationError, match=r"\(1, 0\)"):
            EmbeddingMatrix([[1.0, 2.0], [np.nan, 3.0]])

    def test_rejects_non_2d(self):
        with pytest.raises(ShapeError):
            ScoreMatrix([1.0, 2.0, 3.0])

    def test_widens_to_float64(self):
        m = EmbeddingMatrix(np.ones((2, 2), dtype=np.float32))
        assert m.data.dtype == np.float64

    def test_probability_rows_must_sum_to_one(self):
        with pytest.raises(ValidationError, match="row 0"):
            ScoreMatrix([[0.5, 0.6]], is_probability=True)

    def test_probability_entries_must_be_positive(self):
        with pytest.raises(ValidationError, match="outside"):
            ScoreMatrix([[1.0, 0.0]], is_probability=True)


def lexsort_topk(data: np.ndarray, k: int) -> np.ndarray:
    """Full stable lexsort of each row by (-value, column); its first k columns."""
    cols = np.broadcast_to(np.arange(data.shape[1]), data.shape)
    return np.lexsort((cols, -data), axis=1)[:, :k]


def assert_matches_lexsort(data: np.ndarray, k: int) -> None:
    """``topk_rows`` equals ``lexsort_topk``: indices, and values bit for bit."""
    res = topk_rows(data, k)
    oracle = lexsort_topk(data, k)
    np.testing.assert_array_equal(res.indices, oracle)
    assert res.values.tobytes() == np.take_along_axis(data, oracle, 1).tobytes()


def fold_groups(m: int, k: int) -> np.ndarray:
    """The column group each column of an m-column row lands in under the
    top-k kernel's fold at k, or -1 for a column the fold leaves out."""
    g = min(m, 8 * k)
    cols = np.arange(m)
    return np.where(cols < m // g * g, cols % g, -1)


class TestCosineSimilarity:
    def test_identity_unit_vectors(self):
        m = EmbeddingMatrix([[1, 0], [0, 1]])
        s = cosine_similarity(m, m)
        np.testing.assert_allclose(s.data, np.eye(2), atol=1e-15)
        # The no-scan constructor leaves a ScoreMatrix's flag at its default.
        assert _finite(ScoreMatrix, s.data).is_probability is False
        assert _finite(EmbeddingMatrix, s.data).data is s.data

    def test_forty_five_degrees(self):
        s = cosine_similarity(EmbeddingMatrix([[1, 1]]), EmbeddingMatrix([[1, 0]]))
        assert s.data[0, 0] == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    def test_scale_invariance(self):
        s = cosine_similarity(EmbeddingMatrix([[2, 0]]), EmbeddingMatrix([[1, 0]]))
        assert s.data[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            cosine_similarity(EmbeddingMatrix([[1, 2]]), EmbeddingMatrix([[1, 2, 3]]))

    def test_zero_row_names_index(self):
        with pytest.raises(DegenerateInputError, match="row 1 of b"):
            cosine_similarity(
                EmbeddingMatrix([[1, 0]]), EmbeddingMatrix([[1, 1], [0, 0]])
            )

    def test_huge_and_tiny_rows_are_unit_rows(self):
        # Their squares overflow or underflow; the plain norm would be inf or 0.
        a = EmbeddingMatrix([[1e308, 1e308], [3e-200, 4e-200], [5e-324, 0.0]])
        b = EmbeddingMatrix([[1.0, 1.0], [3.0, 4.0], [1.0, 0.0]])
        expected = cosine_similarity(b, b).data
        np.testing.assert_allclose(cosine_similarity(a, b).data, expected, atol=1e-15)
        norms = np.linalg.norm(l2_normalize_rows(a).data, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-15)

    def test_entries_bounded(self):
        rng = np.random.default_rng(3)
        a = EmbeddingMatrix(rng.standard_normal((20, 7)))
        b = EmbeddingMatrix(rng.standard_normal((15, 7)))
        s = cosine_similarity(a, b).data
        assert np.all(s <= 1 + 1e-12) and np.all(s >= -1 - 1e-12)

    def test_rescaled_rows_stay_in_range(self):
        # Norms that overflow (1e300), underflow (1e-160) or are subnormal
        # (1e-310) take the rescale path; the product is not scanned, so its
        # range rests on every row coming out a finite unit row.
        rng = np.random.default_rng(8)
        base = rng.standard_normal((12, 5))
        a = EmbeddingMatrix(np.vstack([base * c for c in (1e300, 1e-160, 1e-310, 1.0)]))
        s = cosine_similarity(a, a).data
        assert np.all(s <= 1 + 1e-12) and np.all(s >= -1 - 1e-12)
        expected = np.tile(cosine_similarity(EmbeddingMatrix(base), EmbeddingMatrix(base)).data, (4, 4))
        np.testing.assert_allclose(s, expected, atol=1e-12)

    def test_unit_diagonal_self_similarity(self):
        rng = np.random.default_rng(4)
        m = l2_normalize_rows(EmbeddingMatrix(rng.standard_normal((30, 9))))
        np.testing.assert_allclose(np.diag(cosine_similarity(m, m).data), 1.0, atol=1e-12)


class TestRowSoftmax:
    def test_equal_logits_uniform(self):
        out = row_softmax(ScoreMatrix([[2.5, 2.5, 2.5]]), tau=0.33)
        np.testing.assert_allclose(out.data, 1 / 3, atol=1e-15)
        assert out.is_probability

    def test_two_way_values(self):
        out = row_softmax(ScoreMatrix([[1.0, 0.0]]), tau=1.0)
        e = np.e
        np.testing.assert_allclose(out.data[0], [e / (e + 1), 1 / (e + 1)], atol=1e-9)

    def test_singleton_row(self):
        out = row_softmax(ScoreMatrix([[123.0]]), tau=2.0)
        assert out.data[0, 0] == 1.0

    def test_large_logits_do_not_overflow(self):
        out = row_softmax(ScoreMatrix([[5000.0, 4999.0]]), tau=1.0)
        assert np.all(np.isfinite(out.data))

    def test_rows_sum_to_one_long_rows(self):
        rng = np.random.default_rng(5)
        s = ScoreMatrix(rng.uniform(-50, 50, (3, 100_000)))
        out = row_softmax(s, tau=0.07)
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-9)

    def test_nonpositive_tau(self):
        with pytest.raises(ParameterError):
            row_softmax(ScoreMatrix([[1.0]]), tau=0.0)


class TestTopkRows:
    def test_hand_sorted_row(self):
        res = topk_rows(ScoreMatrix([[0.2, 0.9, 0.5]]), k=2)
        np.testing.assert_array_equal(res.indices, [[1, 2]])
        np.testing.assert_allclose(res.values, [[0.9, 0.5]])

    def test_diagonal_argmax(self):
        s = ScoreMatrix(np.eye(4) + 0.01)
        np.testing.assert_array_equal(topk_rows(s, 1).indices.ravel(), np.arange(4))

    def test_all_equal_ties_to_lower_index(self):
        res = topk_rows(ScoreMatrix([[7.0, 7.0, 7.0]]), k=2)
        np.testing.assert_array_equal(res.indices, [[0, 1]])

    def test_k_out_of_range(self):
        s = ScoreMatrix([[1.0, 2.0]])
        with pytest.raises(ParameterError):
            topk_rows(s, 0)
        with pytest.raises(ParameterError):
            topk_rows(s, 3)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            data = rng.random((20, 50))
            s = ScoreMatrix(data)
            for k in (1, 3, 50):
                np.testing.assert_array_equal(
                    topk_rows(s, k).indices, brute_force_topk(data, k)
                )
                # A plain finite float64 array is taken as given.
                np.testing.assert_array_equal(topk_rows(data, k).indices, brute_force_topk(data, k))
        # Tie-heavy rows: 1-5 integer levels, all-equal rows, 0.0 mixed with
        # -0.0. Every k is tried, so k lands inside tie runs and at k = m;
        # the values must match bit for bit, signed zeros included.
        tie_heavy = [rng.integers(0, levels, (20, 50)).astype(float) for levels in range(1, 6)]
        tie_heavy.append(np.full((20, 50), -2.5))
        tie_heavy.append(rng.choice([0.0, -0.0], (20, 50)))
        tie_heavy.append(rng.choice([0.0, -0.0, 1.0, -1.0], (20, 50)))
        for data in tie_heavy:
            s = ScoreMatrix(data)
            for k in range(1, 51):
                res = topk_rows(s, k)
                oracle = brute_force_topk(data, k)
                np.testing.assert_array_equal(res.indices, oracle)
                assert res.values.tobytes() == np.take_along_axis(data, oracle, 1).tobytes()

    def test_threshold_kernel_matches_lexsort_oracle(self):
        # Odd and even widths, below and above the 8k columns the fold
        # needs, at k = 2, inside tie runs and at k = m.
        rng = np.random.default_rng(60)
        for m in (3, 5, 7, 15, 16, 17, 31, 79, 81, 161, 1001):
            kinds = [
                rng.random((6, m)),
                rng.integers(0, 3, (6, m)).astype(float),
                rng.integers(-2, 1, (6, m)).astype(float),
                np.full((6, m), 4.5),
                rng.choice([0.0, -0.0], (6, m)),
                rng.choice([0.0, -0.0, 1.0, -1.0], (6, m)),
            ]
            for k in sorted({2, 3, 10, m - 1, m} & set(range(2, m + 1))):
                for data in kinds:
                    assert_matches_lexsort(data, k)

    def test_top_values_in_one_fold_group(self):
        # Every top value sits in one column group of the fold (or in the
        # columns it leaves out), so the bound comes from the other groups
        # and many entries survive it; ties and distinct values alike.
        rng = np.random.default_rng(61)
        for m, k in ((1024, 4), (1001, 2), (2047, 10), (999, 3), (150, 10)):
            groups = fold_groups(m, k)
            for target in {0, -1} & set(groups.tolist()):
                members = np.flatnonzero(groups == target)
                rows = rng.random((4, m))
                rows[0, members] = 1.0 + rng.random(members.size)
                rows[1, members] = 2.0
                rows[2, members] = np.sort(1.0 + rng.random(members.size))
                rows[3, members[::2]] = 3.0
                for kk in sorted({2, k, members.size, m} & set(range(2, m + 1))):
                    assert_matches_lexsort(rows, kk)

    def test_scale_ranking_invariance(self):
        rng = np.random.default_rng(7)
        data = rng.random((10, 12))
        s = ScoreMatrix(data)
        base = topk_rows(s, 5).indices
        for c in (0.5, 2.0, 1e6, 1e-6):
            np.testing.assert_array_equal(topk_rows(ScoreMatrix(c * data), 5).indices, base)

    def test_k1_matches_general_path_on_ties(self):
        data = np.array([[3.0, 3.0, 1.0], [1.0, 2.0, 2.0]])
        s = ScoreMatrix(data)
        np.testing.assert_array_equal(
            topk_rows(s, 1).indices.ravel(),
            np.argsort(-data, axis=1, kind="stable")[:, 0],
        )


def assert_topk_matches_oracle(data: np.ndarray, ks) -> None:
    """Indices equal ``brute_force_topk`` and values are its cells, bit for bit."""
    oracle = brute_force_topk(data, max(ks))
    for k in ks:
        res = topk_rows(data, k)
        np.testing.assert_array_equal(res.indices, oracle[:, :k])
        assert res.values.tobytes() == np.take_along_axis(data, oracle[:, :k], 1).tobytes()


class TestBlockedTopk:
    """``topk_rows`` walks row blocks; no block edge may change a row's result."""

    def test_several_blocks_with_a_short_last_block(self):
        rng = np.random.default_rng(30)
        m = 400
        rows = _PASS_CELLS // m
        n = 2 * rows + 5
        assert_topk_matches_oracle(rng.random((n, m)), (1, 2, 10, 37))
        assert_topk_matches_oracle(rng.integers(0, 4, (n, m)).astype(float), (1, 2, 10, 37))

    def test_rows_wider_than_one_block(self):
        rng = np.random.default_rng(31)
        m = _PASS_CELLS + 3
        assert _block_rows((3, m), _PASS_CELLS) == 1
        data = rng.integers(0, 50, (3, m)).astype(float)
        assert_topk_matches_oracle(data, (1, 2, 25))

    def test_small_blocks(self, monkeypatch):
        # Blocks of 2 rows at m = 50 and of one row at m = 150, so every
        # shape below crosses several block edges and ends on a short block.
        monkeypatch.setattr(rankfuse.matrix_ops, "_PASS_CELLS", 100)
        rng = np.random.default_rng(32)
        row = rng.integers(0, 3, 50).astype(float)
        cases = [
            rng.random((7, 50)),
            rng.integers(0, 3, (9, 150)).astype(float),
            # One tie-heavy row repeated: the same tie runs on both sides of
            # every block edge.
            np.tile(row, (9, 1)),
            np.full((5, 50), -2.5),
            # Signed zeros: the values must keep their sign bit.
            rng.choice([0.0, -0.0], (7, 50)),
            rng.choice([0.0, -0.0, 1.0, -1.0], (7, 50)),
        ]
        for data in cases:
            m = data.shape[1]
            assert_topk_matches_oracle(data, sorted({1, 2, 3, 10, 49, m}))


class TestBlockedFiniteScan:
    """The finite check walks row blocks but names a cell of the whole matrix."""

    def test_coordinates_are_global(self, tmp_path):
        m = 1000
        rows = _PASS_CELLS // m
        n = 2 * rows + 5
        rng = np.random.default_rng(33)
        # The first row of the second block, and the last cell of a short
        # final block.
        for (i, j), value in (((rows, 17), np.nan), ((n - 1, m - 1), np.inf)):
            data = rng.random((n, m))
            data[i, j] = value
            with pytest.raises(ValidationError) as exc:
                ScoreMatrix(data)
            assert str(exc.value) == f"score matrix has non-finite value at ({i}, {j})"
            for name, fmt in (("m.npy", "array"), ("m.csv", "csv")):
                path = tmp_path / name
                # write_matrix refuses the cell too, so the file is written by hand.
                with pytest.raises(ValidationError) as exc:
                    write_matrix(data, path, fmt)
                assert str(exc.value) == f"{path} has non-finite value at ({i}, {j})"
                if fmt == "array":
                    np.save(path, data)
                else:
                    path.write_text("".join(",".join(map(repr, row.tolist())) + "\n" for row in data))
                with pytest.raises(ValidationError) as exc:
                    load_matrix(path, fmt)
                assert str(exc.value) == f"{path} has non-finite value at ({i}, {j})"

    def test_first_bad_cell_in_row_order(self, monkeypatch):
        monkeypatch.setattr(rankfuse.matrix_ops, "_PASS_CELLS", 6)
        data = np.zeros((7, 3))
        data[5, 0] = np.inf
        data[2, 2] = np.nan
        data[3, 1] = -np.inf
        with pytest.raises(ValidationError) as exc:
            EmbeddingMatrix(data)
        assert str(exc.value) == "embedding matrix has non-finite value at (2, 2)"


class TestL2Normalize:
    def test_3_4_5_triangle(self):
        out = l2_normalize_rows(EmbeddingMatrix([[3.0, 4.0]]))
        np.testing.assert_allclose(out.data, [[0.6, 0.8]], atol=1e-15)

    def test_already_unit(self):
        out = l2_normalize_rows(EmbeddingMatrix([[1.0, 0.0]]))
        np.testing.assert_array_equal(out.data, [[1.0, 0.0]])

    def test_zero_row_rejected(self):
        with pytest.raises(DegenerateInputError, match="row 0"):
            l2_normalize_rows(EmbeddingMatrix([[0.0, 0.0]]))

    def test_unit_norms(self):
        rng = np.random.default_rng(8)
        out = l2_normalize_rows(EmbeddingMatrix(rng.standard_normal((40, 6))))
        np.testing.assert_allclose(np.linalg.norm(out.data, axis=1), 1.0, atol=1e-12)


def small_blocks(monkeypatch, cells: int) -> None:
    """Have :func:`_cache_blocks` walk row blocks of ``cells`` cells (at least one row)."""
    monkeypatch.setattr(rankfuse.matrix_ops, "_CACHE_CELLS", cells)


class TestCacheBlocks:
    @staticmethod
    def rows(shape: tuple) -> list:
        """The row count of each block of a ``shape`` matrix, after checking they tile its rows in order."""
        blocks = list(_cache_blocks(shape))
        assert [lo for lo, _ in blocks] == [0] + [hi for _, hi in blocks[:-1]]
        assert blocks[-1][1] == shape[0]
        return [hi - lo for lo, hi in blocks]

    def test_rows_covered_once_in_order(self):
        for shape in ((1, 1), (9, 10), (131, 1000), (1000, 1), (3, 2 * _BLOCK_CELLS + 5)):
            assert sum(self.rows(shape)) == shape[0]

    def test_blocks_of_cache_cells_and_a_last_partial_block(self):
        m = 1000
        rows = _CACHE_CELLS // m
        assert self.rows((2 * rows + 1, m)) == [rows, rows, 1]
        assert self.rows((3 * rows, m)) == [rows] * 3
        # A row wider than a block still makes a block of its own.
        assert self.rows((3, _CACHE_CELLS + 1)) == [1, 1, 1]

    def test_a_matrix_within_one_block_is_one_block(self):
        assert list(_cache_blocks((1, 1))) == [(0, 1)]
        assert list(_cache_blocks((7, _CACHE_CELLS // 7))) == [(0, 7)]
        assert list(_cache_blocks((_CACHE_CELLS, 1))) == [(0, _CACHE_CELLS)]

    def test_small_blocks_shrinks_the_walk(self, monkeypatch):
        # The block size the byte tests below and in test_ensemble.py rely on.
        small_blocks(monkeypatch, 12)
        assert self.rows((11, 5)) == [2] * 5 + [1]
        assert self.rows((40, 1)) == [12, 12, 12, 4]
        assert self.rows((2, 9)) == [1, 1]
        small_blocks(monkeypatch, 3000)
        assert self.rows((131, 1000)) == [3] * 43 + [2]


class TestBlockedMinmax:
    """``minmax_normalize`` over row blocks gives the bytes of one whole-matrix pass."""

    @staticmethod
    def whole(x: np.ndarray) -> np.ndarray:
        lo = x.min()
        return (x - lo) / (x.max() - lo)

    def test_bytes_in_place_and_into_a_spent_buffer(self, monkeypatch):
        rng = np.random.default_rng(40)
        # Blocks of 2 rows of (11, 5), 12 rows of (40, 1) and 1 row of (2, 9).
        small_blocks(monkeypatch, 12)
        for x in (rng.uniform(-7, 3, (11, 5)), rng.standard_normal((40, 1)), rng.random((2, 9)) * 1e300):
            want = self.whole(x).tobytes()
            assert minmax_normalize(x).tobytes() == want
            spent = rng.random(x.shape)
            assert minmax_normalize(x, out=spent) is spent
            assert spent.tobytes() == want
            y = x.copy()
            minmax_normalize(y, out=y)
            assert y.tobytes() == want

    def test_constant_matrix_and_zero_signs(self, monkeypatch):
        small_blocks(monkeypatch, 2)
        spent = np.full((6, 2), 7.0)
        assert minmax_normalize(np.full((6, 2), -3.0), out=spent) is spent
        assert spent.tobytes() == np.zeros((6, 2)).tobytes()
        # A zero minimum of either sign, in any one-row block: the result holds no -0.0.
        x = np.array([[0.0, 1.0], [-0.0, 2.0], [2.0, 0.0], [-0.0, 4.0]])
        for data in (x, x[::-1].copy(), -x):
            out = minmax_normalize(data)
            assert not np.signbit(out).any()
            np.testing.assert_array_equal(out, self.whole(data))

    # One row; blocks of 65, 65 and 1 rows (at 3000 cells, of 3 rows and a last of 2); one-row blocks.
    @pytest.mark.parametrize("shape", [(1, 1000), (131, 1000), (3, 2 * _BLOCK_CELLS + 5)])
    def test_blocks_cut_unevenly(self, monkeypatch, shape):
        x = np.random.default_rng(42).uniform(-7, 3, shape)
        # Both extremes in the last row, the last block.
        x[-1, 0], x[-1, -1] = -9.0, 4.0
        want = self.whole(x).tobytes()
        for cells in (_CACHE_CELLS, 3000):
            small_blocks(monkeypatch, cells)
            assert minmax_normalize(x).tobytes() == want
            y = x.copy()
            minmax_normalize(y, out=y)
            assert y.tobytes() == want

    def test_span_past_float64_max_same_message(self, monkeypatch):
        x = np.array([[1e308, 0.0], [2.0, 3.0], [4.0, 5.0], [-1e308, 6.0]])
        messages = []
        # One block, then one-row blocks: the two extremes in different blocks.
        for cells in (_CACHE_CELLS, 2):
            small_blocks(monkeypatch, cells)
            with pytest.raises(ValidationError) as exc:
                minmax_normalize(x, out=np.empty_like(x))
            messages.append(str(exc.value))
        assert messages == ["cannot min-max rescale: the span from -1e+308 to 1e+308 is not finite"] * 2


class TestRowBuffer:
    """``_row_buffer`` cuts numpy's ufunc buffer to one row and always puts it back."""

    def test_one_row_never_raised_and_restored_on_error(self):
        before = np.getbufsize()
        for n_cols, size in ((1, 16), (1000, 1008), (1008, 1008), (10**6, before)):
            with _row_buffer(n_cols):
                assert np.getbufsize() == size
            assert np.getbufsize() == before
        with pytest.raises(ValueError, match="^inside$"):
            with _row_buffer(100):
                raise ValueError("inside")
        assert np.getbufsize() == before
        # A caller's own smaller buffer is kept, and so is its size.
        with np.errstate():
            np.setbufsize(512)
            with _row_buffer(1000):
                assert np.getbufsize() == 512
            assert np.getbufsize() == 512
        assert np.getbufsize() == before

    def test_topk_rows_leaves_the_buffer_size(self):
        data = np.random.default_rng(43).random((140, 2000))
        before = np.getbufsize()
        for k in (1, 10):
            topk_rows(data, k)
            assert np.getbufsize() == before


def test_import_loads_no_pool_module():
    """``import rankfuse`` pulls in no thread pool: the library runs on the calling thread."""
    src = str(Path(rankfuse.matrix_ops.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys; import numpy; import rankfuse; print(sorted({'concurrent.futures', 'queue'} & set(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
