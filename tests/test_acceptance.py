"""Acceptance gate: one test per release criterion, in order.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one pass/fail line
per criterion (each test also prints a [PASS] tag with its budget actuals).
Expected values are frozen from independent oracles: hand computation,
brute-force full sorts, and enumeration; pinned pipeline outputs were
captured once from a seeded oracle run and must reproduce byte-for-byte.
"""

import math
import time

import numpy as np
import pytest

from rankfuse.cli import run_cli
from rankfuse.ensemble import (
    DEFAULT_WEIGHT_GRID,
    RecallAtK,
    WeightGrid,
    iterative_ensemble,
)
from rankfuse.errors import FormatError
from rankfuse.io_files import load_matrix, write_matrix
from rankfuse.losses import (
    ItmBatch,
    LossKind,
    MaskSpec,
    MlmBatch,
    finite_diff_grad_check,
    itc_loss,
    itm_loss,
    mim_loss,
    mlm_loss,
    total_loss,
)
from rankfuse.matrix_ops import EmbeddingMatrix, ScoreMatrix, topk_rows
from rankfuse.metrics import GroundTruth, metrics_report, recall_at_k
from rankfuse.selection import select_topk_features
from rankfuse.synth import SynthConfig, gen_model_scores
from rankfuse.view_sampling import Branch, sample_decisions


def brute_force_row_order(row):
    return sorted(range(len(row)), key=lambda j: (-row[j], j))


def test_c01_loss_kernel_examples_and_gradients():
    """Worked loss examples within 1e-8; ITC/ITM/MLM gradient checks < 1e-4
    on 100 random instances each; total runtime < 10 s."""
    start = time.monotonic()

    assert abs(itc_loss(np.array([[42.0]]), 1.0) - 0.0) <= 1e-8
    expected_itc = -math.log(math.e / (math.e + 1.0))  # hand derivation
    assert abs(itc_loss(np.eye(2), 1.0) - expected_itc) <= 1e-8
    assert itc_loss(np.diag([100.0, 100.0, 100.0]), 1.0) <= 1e-10

    assert itm_loss(ItmBatch([1], [1.0])) <= 1e-11
    assert abs(itm_loss(ItmBatch([1], [0.5])) - math.log(2.0)) <= 1e-8
    expected_itm = (-math.log(0.9) - math.log(0.8)) / 2.0
    assert abs(itm_loss(ItmBatch([1, 0], [0.9, 0.2])) - expected_itm) <= 1e-8

    assert abs(mlm_loss(MlmBatch([[0.0, 1.0, 0.0]], [1]))) <= 1e-8
    assert abs(mlm_loss(MlmBatch([[0.25] * 4], [0])) - math.log(4.0)) <= 1e-8
    two_pos = MlmBatch([[0.5, 0.5, 0.0, 0.0], [0.25] * 4], [0, 3])
    assert abs(mlm_loss(two_pos) - (math.log(2.0) + math.log(4.0)) / 2.0) <= 1e-8

    img = np.arange(4.0).reshape(1, 2, 2)
    full = MaskSpec(np.ones((1, 2, 2), dtype=bool))
    assert abs(mim_loss(img, img, full)) <= 1e-8
    assert abs(mim_loss(img + 0.5, img, full) - 0.5) <= 1e-8
    pair = np.stack([np.zeros((2, 2)), np.ones((2, 2))])
    assert abs(mim_loss(pair, np.zeros((2, 2, 2)), MaskSpec(np.ones((2, 2, 2), bool))) - 0.5) <= 1e-8

    rng = np.random.default_rng(2024)
    for _ in range(100):
        sim = rng.uniform(-1.0, 1.0, (4, 4))
        assert finite_diff_grad_check(LossKind.ITC, (sim, 0.07)) < 1e-4

        batch = ItmBatch(rng.integers(0, 2, 8), rng.uniform(0.05, 0.95, 8))
        assert finite_diff_grad_check(LossKind.ITM, batch) < 1e-4

        pred = rng.uniform(0.05, 1.0, (6, 7))
        pred /= pred.sum(axis=1, keepdims=True)
        mlm = MlmBatch(pred, rng.integers(0, 7, 6))
        assert finite_diff_grad_check(LossKind.MLM, mlm) < 1e-4

    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"\n[PASS] loss kernels: examples within 1e-8, 300 gradient checks < 1e-4 ({elapsed:.2f}s)")


def test_c02_total_loss_composition_exact():
    """Unit components with the default 0.1356 reconstruction weight sum to
    3.1356 exactly."""
    report = total_loss(1.0, 1.0, 1.0, 1.0)
    assert report.alpha == 0.1356
    assert report.total == 3.1356
    print("\n[PASS] combined objective: total(1,1,1,1) == 3.1356 exactly")


def test_c03_view_sampler_statistics_and_determinism():
    """100k seeded draws split local/global within 0.5 +/- 0.01; identical
    seeds give byte-identical sequences; runtime < 1 s."""
    start = time.monotonic()
    decisions = sample_decisions(np.random.default_rng(20240601), 100_000)
    frac_local = sum(d.branch is Branch.LOCAL for d in decisions) / len(decisions)
    assert abs(frac_local - 0.5) < 0.01

    again = sample_decisions(np.random.default_rng(20240601), 1000)
    first = np.array([d.sampled_value for d in decisions[:1000]])
    second = np.array([d.sampled_value for d in again])
    assert first.tobytes() == second.tobytes()

    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"\n[PASS] view sampler: |P(local)-0.5| = {abs(frac_local - 0.5):.4f} < 0.01, "
          f"byte-identical replay ({elapsed:.2f}s)")


def test_c04_selection_matches_brute_force():
    """Guided top-k selection equals a full-sort oracle on 1000 random 20x50
    instances and 500 tie-heavy ones, exact index equality, in < 5 s."""
    start = time.monotonic()
    rng = np.random.default_rng(7)
    features = EmbeddingMatrix(rng.standard_normal((50, 4)))
    k = 10
    for _ in range(1000):
        guidance = rng.random((20, 50))
        selected = select_topk_features(features, ScoreMatrix(guidance), k=k)
        oracle = np.array([brute_force_row_order(row)[:k] for row in guidance])
        np.testing.assert_array_equal(selected.indices, oracle)
    # Tie-heavy guidance: 1-5 integer levels with some all-equal rows, or
    # 0.0 mixed with -0.0; k lands inside tie runs and reaches k = m.
    for i in range(500):
        if i % 2:
            guidance = rng.integers(0, 1 + i % 5, (20, 50)).astype(float)
            guidance[rng.random(20) < 0.2] = 1.0
        else:
            guidance = rng.choice([0.0, -0.0, 1.0], (20, 50), p=[0.45, 0.45, 0.1])
        k_ties = (1, 10, 23, 49, 50)[i % 5]
        selected = select_topk_features(features, ScoreMatrix(guidance), k=k_ties)
        oracle = np.array([brute_force_row_order(row)[:k_ties] for row in guidance])
        np.testing.assert_array_equal(selected.indices, oracle)
        scores = np.take_along_axis(guidance, oracle, axis=1)
        assert selected.guidance_scores.tobytes() == scores.tobytes()
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"\n[PASS] feature selection: 1500 instances match full-sort oracle ({elapsed:.2f}s)")


def test_c05_first_iteration_ranking_invariance():
    """With a zero accumulator, every retention weight below 1 yields the
    identical ranking (exact index equality) on 100 random instances."""
    rng = np.random.default_rng(8)
    zero = np.zeros((8, 10))
    for _ in range(100):
        t = rng.random((8, 10))
        base = topk_rows(ScoreMatrix(0.0 * zero + 1.0 * t), 3).indices
        for w in (0.0, 0.5, 0.8, 0.925):
            fused = ScoreMatrix(w * zero + (1.0 - w) * t)
            np.testing.assert_array_equal(topk_rows(fused, 3).indices, base)
    print("\n[PASS] first-iteration invariance: rankings identical for w in {0, 0.5, 0.8, 0.925}")


def test_c06_skip_monotonicity():
    """With 1 in the weight grid, the per-step tuning metric never regresses
    over 100 random 3-model instances."""
    rng = np.random.default_rng(9)
    gt = GroundTruth.identity(10)
    grid = WeightGrid((0.0, 0.5, 1.0))
    for _ in range(100):
        models = [ScoreMatrix(rng.random((10, 10))) for _ in range(3)]
        _, trace = iterative_ensemble(models, gt, grid)
        values = [s.metric_value for s in trace.steps]
        assert all(b >= a for a, b in zip(values, values[1:]))
    print("\n[PASS] skip-monotonicity: tuning metric non-decreasing on 100 instances")


def test_c07_complementary_ensemble_gain():
    """Two models each answering a disjoint half of the queries fuse to
    perfect R@1, strictly above both standalone halves; deterministic."""
    a = ScoreMatrix([
        [0.9, 0.3, 0.3, 0.3],
        [0.3, 0.9, 0.3, 0.3],
        [0.3, 0.35, 0.3, 0.3],
        [0.35, 0.3, 0.3, 0.3],
    ])
    b = ScoreMatrix([
        [0.3, 0.35, 0.3, 0.3],
        [0.35, 0.3, 0.3, 0.3],
        [0.3, 0.3, 0.9, 0.3],
        [0.3, 0.3, 0.3, 0.9],
    ])
    gt = GroundTruth.identity(4)
    assert recall_at_k(a, gt, 1) == 0.5
    assert recall_at_k(b, gt, 1) == 0.5
    results = []
    for _ in range(2):
        fused, trace = iterative_ensemble([a, b], gt, WeightGrid(DEFAULT_WEIGHT_GRID))
        results.append((fused.data.tobytes(), tuple(trace.steps)))
        assert trace.final_metrics.r_at[1] == 1.0
        assert recall_at_k(fused, gt, 1) == 1.0
    assert results[0] == results[1]
    print("\n[PASS] complementary gain: fused R@1 = 1.0 > 0.5 = each model alone")


def test_c08_synthetic_independence_arithmetic():
    """Fusing two skill-0.7 models over 2000 queries lands within 0.02 of the
    per-seed enumerated union of their individual hits."""
    cfg = SynthConfig(n_items=2000, dim=4, seed=77, n_models=2, model_skill=(0.7, 0.7))
    m0, m1 = gen_model_scores(cfg)
    gt = GroundTruth.identity(2000)
    hits0 = np.argmax(m0.data, axis=1) == np.arange(2000)
    hits1 = np.argmax(m1.data, axis=1) == np.arange(2000)
    union = float(np.mean(hits0 | hits1))
    fused, _ = iterative_ensemble([m0, m1], gt, WeightGrid((0.0, 0.5, 1.0)))
    fused_r1 = recall_at_k(fused, gt, 1)
    assert abs(fused_r1 - union) <= 0.02
    # Sanity: the union itself sits near the 1 - 0.3^2 independence bound.
    assert abs(union - 0.91) < 0.03
    print(f"\n[PASS] independence arithmetic: fused R@1 {fused_r1:.4f} within 0.02 "
          f"of enumerated union {union:.4f}")


def test_c09_recall_matches_brute_force():
    """Recall report equals a full-sort oracle on 1000 random 50x50 instances
    and is monotone in k on every instance."""
    rng = np.random.default_rng(10)
    gt = GroundTruth.identity(50)
    for _ in range(1000):
        data = rng.random((50, 50))
        report = metrics_report(ScoreMatrix(data), gt, [1, 5, 10])
        orders = [brute_force_row_order(row) for row in data]
        for k in (1, 5, 10):
            oracle = sum(1 for q in range(50) if q in orders[q][:k]) / 50
            assert report.r_at[k] == oracle
        assert report.r_at[1] <= report.r_at[5] <= report.r_at[10]
    print("\n[PASS] recall: 1000 instances match full-sort oracle, monotone in k")


def test_c10_array_roundtrip_and_malformed_headers(tmp_path):
    """float64 array files round-trip byte-exactly on 100 random matrices;
    malformed headers are rejected with positioned errors."""
    rng = np.random.default_rng(11)
    p = tmp_path / "m.npy"
    for _ in range(100):
        arr = rng.standard_normal((int(rng.integers(1, 20)), int(rng.integers(1, 20))))
        write_matrix(arr, p)
        assert load_matrix(p).tobytes() == arr.tobytes()

    bad_magic = tmp_path / "magic.npy"
    bad_magic.write_bytes(b"NOTANARRAYFILE")
    with pytest.raises(FormatError, match="offset 0"):
        load_matrix(bad_magic)

    bad_version = tmp_path / "version.npy"
    bad_version.write_bytes(b"\x93NUMPY" + bytes((3, 0)) + b"\x00" * 16)
    with pytest.raises(FormatError, match="offset 6"):
        load_matrix(bad_version)

    truncated = tmp_path / "trunc.npy"
    truncated.write_bytes(b"\x93NUMPY" + bytes((1, 0)) + (200).to_bytes(2, "little") + b"{'de")
    with pytest.raises(FormatError, match="offset 10"):
        load_matrix(truncated)

    fortran = tmp_path / "fortran.npy"
    np.save(fortran, np.asfortranarray(rng.random((3, 4))))
    with pytest.raises(FormatError, match="fortran_order"):
        load_matrix(fortran)

    print("\n[PASS] array i/o: 100 byte-exact round-trips, malformed headers positioned")


PIPELINE_TRACE = (
    "step=1 model=guidance w=0.0 R@1=0.970000\n"
    "step=2 model=model-0 w=0.95 R@1=0.990000\n"
    "step=3 model=model-1 w=0.875 R@1=0.995000\n"
    "final R@1=0.995000\n"
    "final R@5=1.000000\n"
    "final R@10=1.000000\n"
)
PIPELINE_EVAL = "R@1=0.9950\nR@5=1.0000\nR@10=1.0000\n"


def test_c11_cli_pipeline_reproducible(tmp_path, capsys):
    """The synth -> sim -> ensemble -> eval pipeline on a seeded 200-item
    instance reproduces pinned metrics byte-for-byte across runs, < 30 s."""
    start = time.monotonic()

    def run_pipeline(root):
        root.mkdir()
        assert run_cli([
            "synth", "--out-dir", str(root), "--seed", "11",
            "--n-items", "200", "--dim", "16", "--noise-sigma", "0.4",
            "--skills", "0.7,0.7",
        ]) == 0
        assert run_cli([
            "sim", "--queries", str(root / "text.npy"),
            "--gallery", str(root / "image.npy"), "--out", str(root / "guidance.npy"),
        ]) == 0
        assert run_cli([
            "ensemble", "--manifest", str(root / "manifest.json"),
            "--model", str(root / "guidance.npy"),
            "--out", str(root / "fused.npy"), "--trace", str(root / "trace.txt"),
        ]) == 0
        capsys.readouterr()
        assert run_cli([
            "eval", "--scores", str(root / "fused.npy"),
            "--gt", str(root / "manifest.json"), "--k", "1,5,10",
        ]) == 0
        return capsys.readouterr().out

    out1 = run_pipeline(tmp_path / "run1")
    out2 = run_pipeline(tmp_path / "run2")

    assert out1 == PIPELINE_EVAL  # pinned from the first oracle run
    assert out2 == out1
    assert (tmp_path / "run1" / "trace.txt").read_text() == PIPELINE_TRACE
    for name in ("text.npy", "image.npy", "model-0.npy", "model-1.npy",
                 "manifest.json", "guidance.npy", "fused.npy", "trace.txt"):
        assert (tmp_path / "run1" / name).read_bytes() == (tmp_path / "run2" / name).read_bytes()

    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"\n[PASS] cli pipeline: pinned metrics reproduced byte-for-byte ({elapsed:.2f}s)")
