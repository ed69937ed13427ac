"""Tiny-size runs of every workload, the traced layer metrics, and the harness contract."""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import rankfuse
import rankfuse.io_files
import rankfuse.matrix_ops
import rankfuse.selection
import run
import workloads
from tracer import PER_LAYER, TRACE_METRICS, Tracer, layer_metrics, no_spans

BENCH = run.ROOT / "perfbench"
SMALL = 0.04  # fuse 40 x 40, retrieve 80 items, fuse-id 20 x 80


def test_fuse_id_ground_truth_is_valid_with_disjoint_identity_groups(tmp_path):
    wl = workloads.FuseId(scale=SMALL)
    wl.make(seed=3, job=1, dest=tmp_path / "job")
    gt, models = rankfuse.io_files.load_manifest(tmp_path / "job" / "manifest.json")
    assert (gt.n_queries, gt.gallery_size) == (wl.n_queries, wl.n_gallery)
    assert all(len(rel) == wl.per_query for rel in gt.relevant)
    union = frozenset().union(*gt.relevant)
    assert len(union) == sum(len(rel) for rel in gt.relevant) == wl.n_gallery
    assert [m.name for m in models] == [f"model-{i}" for i in range(len(wl.effects))]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_job_passes_its_output_check(name, tmp_path):
    wl = workloads.WORKLOADS[name](scale=SMALL)
    inst = wl.make(seed=5, job=0, dest=tmp_path / "job")
    wl.check(inst, wl.run(inst, no_spans))


def test_checks_catch_a_wrong_fused_matrix(tmp_path):
    wl = workloads.Fuse(scale=SMALL)
    inst = wl.make(seed=5, job=0, dest=tmp_path / "job")
    fused, trace = wl.run(inst, no_spans)
    fused = fused.copy()
    fused[0, 0] = np.nextafter(fused[0, 0], 2.0)
    with pytest.raises(workloads.CheckFailed, match="fused matrix"):
        wl.check(inst, (fused, trace))


def test_checks_catch_a_wrong_shortlist(tmp_path):
    wl = workloads.Retrieve(scale=SMALL)
    inst = wl.make(seed=5, job=0, dest=tmp_path / "job")
    out = wl.run(inst, no_spans)
    path = tmp_path / "job" / "shortlist.csv"
    rows = path.read_text().splitlines()
    first = rows[0].split(",")
    rows[0] = ",".join([first[1], first[0]] + first[2:])
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(workloads.CheckFailed, match="select indices"):
        wl.check(inst, out)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_job_reports_every_layer_and_restores_the_library(name, tmp_path):
    wl = workloads.WORKLOADS[name](scale=SMALL)
    tracer = Tracer()
    tracer.job = 1
    with tracer.installed(rankfuse):
        inst = wl.make(seed=5, job=1, dest=tmp_path / "job")
        with tracer.span("job"):
            out = wl.run(inst, tracer.span)
    wl.check(inst, out)
    assert rankfuse.ensemble.topk_rows is rankfuse.matrix_ops.topk_rows
    assert rankfuse.selection.topk_rows is rankfuse.matrix_ops.topk_rows
    assert rankfuse.cli.load_matrix is rankfuse.io_files.load_matrix

    metrics = layer_metrics(tracer, [1])
    assert list(metrics) == [name for name, _, _ in PER_LAYER]
    assert metrics["matrix_ops.topk_rows.calls"]["value"] >= 1
    if name == "retrieve":
        assert metrics["matrix_ops.cosine_similarity.gflop"]["value"] > 0
        assert metrics["ensemble.sweep_weight.calls"]["value"] == 0
    else:
        assert metrics["ensemble.grid_points"]["value"] == 4 * len(workloads.GRID)
    for s in tracer.spans:
        assert s["end"] >= s["start"]


def test_ordered_per_kept_counts_nothing_ordered_on_the_argmax_path():
    s = rankfuse.matrix_ops.ScoreMatrix(np.random.default_rng(0).random((6, 10)))
    tracer = Tracer()
    tracer.job = 1
    with tracer.installed(rankfuse), tracer.span("job"):
        rankfuse.ensemble.topk_rows(s, 1)
        rankfuse.ensemble.topk_rows(s, 3)
    metrics = layer_metrics(tracer, [1])
    # 6 x 10 columns ordered by the k = 3 sort; 6 x 1 plus 6 x 3 kept.
    assert metrics["matrix_ops.topk_rows.ordered_per_kept"]["value"] == 60 / 24


def test_benchmark_json_matches_the_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    per_layer = [(n, u) for n, u, _ in PER_LAYER] + list(TRACE_METRICS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == per_layer


def test_refuses_to_run_without_the_library_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fuse", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
