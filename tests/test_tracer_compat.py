"""The library gives the same bytes run plain and inside the benchmark's tracer.

``perfbench/tracer.py`` times a run by swapping module globals, such as
``ensemble.ScoreMatrix`` and ``ensemble.sweep_weight``, for wrappers that
open a span; the wrappers are functions, not classes. Fusion must not care
(no ``isinstance`` against a wrapped name), every name must be back
afterwards, and the traced spans count how often fusion validates a matrix.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import rankfuse
import rankfuse.cli
import rankfuse.ensemble as ens
from rankfuse.matrix_ops import ScoreMatrix
from rankfuse.metrics import GroundTruth

_TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def library_globals() -> dict:
    """Every module global of every loaded rankfuse module, by (module, name)."""
    return {
        (mod_name, name): value
        for mod_name, mod in sorted(sys.modules.items())
        if mod_name == "rankfuse" or mod_name.startswith("rankfuse.")
        for name, value in vars(mod).items()
    }


def traced(fn):
    """``fn()`` run inside the tracer; returns its result and the tracer."""
    before = library_globals()
    tracer = load_tracer()()
    with tracer.installed(rankfuse), tracer.span("job"):
        result = fn()
    after = library_globals()
    assert after.keys() == before.keys()
    moved = [key for key, value in before.items() if after[key] is not value]
    assert moved == []
    return result, tracer


def score_matrix_builds_in_fusion(tracer) -> int:
    """``ScoreMatrix`` spans opened inside an ``iterative_ensemble`` span."""
    spans = tracer.spans

    def in_fusion(span):
        while span["parent"] is not None:
            span = spans[span["parent"]]
            if span["name"] == "ensemble.iterative_ensemble":
                return True
        return False

    return sum(s["name"] == "matrix_ops.ScoreMatrix" and in_fusion(s) for s in spans)


def instance(rng, n, m):
    """Three models and a truth of two relevant items per query."""
    models = [ScoreMatrix(rng.random((n, m))) for _ in range(3)]
    gt = GroundTruth(
        relevant=tuple(rng.choice(m, size=2, replace=False) for _ in range(n)), gallery_size=m
    )
    return models, gt


def test_in_process_fusion_is_byte_identical_when_traced():
    rng = np.random.default_rng(21)
    small = instance(rng, 12, 15)
    grid = ens.WeightGrid((0.0, 0.5, 0.9, 1.0))
    warm = ScoreMatrix(rng.random((12, 15)))
    runs = [
        (small, {"metric": ens.RecallAtK(1)}),
        (small, {"metric": ens.RecallAtK(3), "normalize": False, "init_matrix": warm}),
        # The float32 filter of the k > 1 sweep over several row blocks.
        (instance(rng, 150, 1000), {"metric": ens.RecallAtK(5)}),
    ]
    for (models, gt), kwargs in runs:

        def fuse():
            # Through the module global, which the tracer wraps.
            return ens.iterative_ensemble(models, gt, grid, **kwargs)

        plain_fused, plain_trace = fuse()
        (fused, trace), tracer = traced(fuse)
        assert fused.data.tobytes() == plain_fused.data.tobytes()
        assert trace == plain_trace
        assert ens.format_trace(trace) == ens.format_trace(plain_trace)
        # Only the fused result is validated, whatever the model count.
        assert score_matrix_builds_in_fusion(tracer) == 1


def test_cli_ensemble_and_eval_are_byte_identical_when_traced(tmp_path, capsys):
    data = tmp_path / "data"
    argv = ["synth", "--out-dir", str(data), "--n-items", "20", "--skills", "0.7,0.5,0.3"]
    assert rankfuse.cli.run_cli(argv) == 0
    capsys.readouterr()
    manifest = str(data / "manifest.json")

    def pipeline(out):
        out.mkdir()
        fused, trace = str(out / "fused.npy"), str(out / "trace.txt")
        argv = ["ensemble", "--manifest", manifest, "--out", fused, "--trace", trace]
        assert rankfuse.cli.run_cli(argv) == 0
        assert rankfuse.cli.run_cli(["eval", "--scores", fused, "--gt", manifest]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        return [Path(fused).read_bytes(), Path(trace).read_bytes(), captured.out]

    plain = pipeline(tmp_path / "plain")
    outputs, tracer = traced(lambda: pipeline(tmp_path / "traced"))
    assert outputs == plain
    assert score_matrix_builds_in_fusion(tracer) == 1


def test_cli_select_on_plain_arrays_is_byte_identical_when_traced(tmp_path, capsys):
    data = tmp_path / "data"
    assert rankfuse.cli.run_cli(["synth", "--out-dir", str(data), "--n-items", "20"]) == 0
    capsys.readouterr()

    def select(out):
        argv = ["select", "--features", str(data / "image.npy"),
                "--guidance", str(data / "model-0.npy"), "--k", "3", "--out", str(out)]
        assert rankfuse.cli.run_cli(argv) == 0
        assert capsys.readouterr().err == ""
        return out.read_bytes()

    plain = select(tmp_path / "plain.csv")
    traced_bytes, tracer = traced(lambda: select(tmp_path / "traced.csv"))
    assert traced_bytes == plain
    # The top-k span counts its rows off the plain array the CLI passed.
    counts = [s["counts"] for s in tracer.spans if s["name"] == "matrix_ops.topk_rows"]
    assert counts == [{"ordered": 20 * 20, "kept": 20 * 3}]

    # sim wraps its checked embeddings without a scan; the similarity span
    # still counts its flops off those wrappers.
    def sim(out):
        argv = ["sim", "--queries", str(data / "text.npy"), "--gallery", str(data / "image.npy"),
                "--out", str(out)]
        assert rankfuse.cli.run_cli(argv) == 0
        assert capsys.readouterr().err == ""
        return out.read_bytes()

    plain = sim(tmp_path / "plain.npy")
    traced_bytes, tracer = traced(lambda: sim(tmp_path / "traced.npy"))
    assert traced_bytes == plain
    counts = [s["counts"] for s in tracer.spans if s["name"] == "matrix_ops.cosine_similarity"]
    assert counts == [{"gflop": 2.0 * 20 * 20 * 16 / 1e9}]
