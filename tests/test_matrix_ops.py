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
    _PASS_CELLS,
    EmbeddingMatrix,
    ScoreMatrix,
    _block_rows,
    _finite,
    cosine_similarity,
    l2_normalize_rows,
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
                write_matrix(data, path, fmt)
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
