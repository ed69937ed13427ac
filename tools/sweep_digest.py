"""Print one sha256 over the weight sweep's outputs on a fixed, seeded corpus.

The digest covers, in order:

- ``_sweep_values`` on every case of ``tests/sweep_cases.py``, at every
  grid and k listed there: the recall values;
- ``iterative_ensemble`` on synthetic models, on separated models and on
  each corpus case as a two-model fusion, over cutoffs, grids,
  ``normalize`` and ``init_matrix``: the fused bytes, every step's
  ``(w, value)`` and the ``format_trace`` text;
- ``rankfuse ensemble`` through ``run_cli`` on a small synthetic instance:
  its stdout and the ``--out`` and ``--trace`` bytes.

A change that claims to keep the sweep bit-identical prints the same digest
before and after. Run from anywhere: ``python tools/sweep_digest.py``. It
imports ``rankfuse`` from the ``src`` directory beside ``tools``.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(_ROOT / "src"), str(_ROOT / "tests")]

import numpy as np  # noqa: E402

import sweep_cases  # noqa: E402
from rankfuse.cli import run_cli  # noqa: E402
from rankfuse.ensemble import RecallAtK, WeightGrid, _sweep_values, format_trace, iterative_ensemble  # noqa: E402
from rankfuse.metrics import GroundTruth  # noqa: E402
from rankfuse.synth import SynthConfig, gen_model_scores  # noqa: E402


def _fusions():
    """``(label, models, gt, grid, k, normalize, init_matrix)`` for each fusion of the digest."""
    n = 300
    cfg = SynthConfig(n_items=n, n_models=4, model_skill=(0.6, 0.5, 0.4, 0.3), seed=7)
    synth, identity = [x.data for x in gen_model_scores(cfg)], GroundTruth.identity(n)
    warm = np.random.default_rng(8).random((n, n))
    grids = sweep_cases.GRIDS
    for k in (1, 2, 5, 10):
        for grid in ("default", "default+1"):
            yield f"synth {grid}", synth, identity, grids[grid], k, True, None
        yield "synth raw", synth, identity, grids["default"], k, False, None
        yield "synth warm", synth, identity, grids["linspace21"], k, True, warm
        yield "synth zero warm", synth, identity, grids["irregular"], k, False, np.zeros((n, n))
    separated, gt = sweep_cases.separated(np.random.default_rng(9), 180, 400, (4.0, 3.5, 3.0, 2.5))
    for k in (1, 5, 10):
        for grid in ("default", "linspace21"):
            for normalize in (True, False):
                yield f"separated {grid}", separated, gt, grids[grid], k, normalize, None
    for name in sweep_cases.CASES:
        s, t, gt = sweep_cases.case(name)
        for k in (1, 5):
            yield name, [s, t], gt, grids["default+1"], k, False, None


def _cli_runs(h) -> int:
    """Hash ``rankfuse ensemble``'s stdout and files on a synthetic instance; returns the run count."""
    runs = [["--metric-k", "1"], ["--metric-k", "5"], ["--metric-k", "3", "--grid", "0,0.5,0.8,0.9,0.95,1"]]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        with contextlib.redirect_stdout(io.StringIO()):
            assert run_cli(["synth", "--out-dir", str(root), "--seed", "5", "--n-items", "150",
                            "--skills", "0.6,0.5,0.4"]) == 0
        for extra in runs:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert run_cli(["ensemble", "--manifest", str(root / "manifest.json"),
                                "--out", str(root / "fused.npy"), "--trace", str(root / "trace.txt"),
                                *extra]) == 0
            h.update(out.getvalue().encode())
            h.update((root / "fused.npy").read_bytes())
            h.update((root / "trace.txt").read_bytes())
    return len(runs)


def main() -> None:
    h = hashlib.sha256()
    sweeps = fusions = 0
    for name in sweep_cases.CASES:
        s, t, gt = sweep_cases.case(name)
        for grid_name, grid in sweep_cases.GRIDS.items():
            for k in sweep_cases.KS:
                values = _sweep_values(s, t, gt, grid, k)
                h.update(repr((name, grid_name, k, values)).encode())
                sweeps += 1
    for label, models, gt, grid, k, normalize, init in _fusions():
        fused, trace = iterative_ensemble(
            models, gt, WeightGrid(grid), RecallAtK(k), normalize=normalize, init_matrix=init
        )
        h.update(repr((label, k, normalize, [(st.chosen_w, st.metric_value) for st in trace.steps])).encode())
        h.update(fused.data.tobytes())
        h.update(format_trace(trace).encode())
        fusions += 1
    cli = _cli_runs(h)
    print(f"{h.hexdigest()}  {sweeps} sweeps, {fusions} fusions, {cli} cli runs")


if __name__ == "__main__":
    main()
