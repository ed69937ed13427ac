"""In-memory spans around calls into rankfuse's layers, for the traced run.

The benchmark does not edit the library. For a traced job it swaps the
names that ``rankfuse.cli`` and ``rankfuse.ensemble`` import (and the few
module globals those calls reach, such as ``topk_rows`` inside ``metrics``
and ``selection``) for wrappers that open a span, and puts the originals
back afterwards. Untraced jobs run the library unmodified.

A span records its name, start, end, parent span and job id; counts taken
at the same boundary (megabytes moved, flops, columns kept) are stored on
the span. Spans stay in memory and are written out as JSON when the run
ends. A span's self time is its duration minus that of its direct children,
which tile the covered part of its interval: the benchmark runs the library
on one thread, so one stack of open spans serves.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import statistics
import time
from collections import defaultdict


def no_spans(name):
    """Span factory for untraced jobs."""
    return contextlib.nullcontext({})


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.job: int | None = None
        self._t0 = time.perf_counter()
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Open a span; the yielded dict collects the span's counts."""
        stack = self._stack
        rec = {
            "name": name,
            "start": time.perf_counter() - self._t0,
            "end": None,
            "parent": stack[-1] if stack else None,
            "job": self.job,
            "counts": {},
        }
        self.spans.append(rec)
        stack.append(len(self.spans) - 1)
        try:
            yield rec["counts"]
        finally:
            rec["end"] = time.perf_counter() - self._t0
            stack.pop()

    def _wrap(self, name, fn, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as counts:
                result = fn(*args, **kwargs)
            if count is not None:
                counts.update(count(args, result))
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self, rf):
        """Wrap the layer entry points of the rankfuse modules in ``rf``."""
        saved = []
        try:
            for module, attr, name, count in _targets(rf):
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, count))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh)


def _file_mb(path) -> float:
    return os.path.getsize(path) / 1e6


def _topk_counts(args, result):
    # The k == 1 path is an argmax and orders nothing.
    rows, cols = args[0].data.shape
    k = args[1]
    return {"ordered": rows * cols if k > 1 else 0, "kept": rows * k}


def _gflop(args, result):
    a, b = args[0], args[1]
    return {"gflop": 2.0 * a.n_rows * b.n_rows * a.n_cols / 1e9}


def _targets(rf):
    """(module, attribute, span name, count function) for every wrapped name."""
    cli, ens = rf.cli, rf.ensemble
    return [
        (cli, "load_matrix", "io_files.load_matrix", lambda a, r: {"mb": _file_mb(a[0])}),
        (cli, "write_matrix", "io_files.write_matrix", lambda a, r: {"mb": _file_mb(a[1])}),
        (cli, "load_manifest", "io_files.load_manifest", None),
        # ``eval`` reaches the manifest parser through load_ground_truth.
        (rf.io_files, "load_manifest", "io_files.load_manifest", None),
        (rf.io_files, "GroundTruth", "metrics.GroundTruth", None),
        (cli, "ScoreMatrix", "matrix_ops.ScoreMatrix", None),
        (ens, "ScoreMatrix", "matrix_ops.ScoreMatrix", None),
        (cli, "cosine_similarity", "matrix_ops.cosine_similarity", _gflop),
        (cli, "select_topk_features", "selection.select_topk_features", None),
        (cli, "metrics_report", "metrics.metrics_report", None),
        (ens, "metrics_report", "metrics.metrics_report", None),
        (ens, "topk_rows", "matrix_ops.topk_rows", _topk_counts),
        (rf.metrics, "topk_rows", "matrix_ops.topk_rows", _topk_counts),
        (rf.selection, "topk_rows", "matrix_ops.topk_rows", _topk_counts),
        (ens, "minmax_normalize", "ensemble.minmax_normalize", None),
        (ens, "sweep_weight", "ensemble.sweep_weight", lambda a, r: {"grid_points": len(a[3])}),
        (ens, "iterative_ensemble", "ensemble.iterative_ensemble", None),
        (rf.synth, "gen_model_scores", "synth.gen_model_scores", None),
        (rf.synth, "gen_paired_embeddings", "synth.gen_paired_embeddings", None),
    ]


class JobProfile:
    """Per-name totals over one job's spans."""

    def __init__(self, spans: list[dict], job: int):
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.child_seconds = defaultdict(float)
        child_sum = defaultdict(float)
        mine = [(i, s) for i, s in enumerate(spans) if s["job"] == job]
        for i, s in mine:
            if s["parent"] is not None:
                parent = spans[s["parent"]]
                child_sum[s["parent"]] += s["end"] - s["start"]
                self.child_seconds[parent["name"], s["name"]] += s["end"] - s["start"]
        for i, s in mine:
            d = s["end"] - s["start"]
            self.seconds[s["name"]] += d
            self.self_seconds[s["name"]] += d - child_sum[i]
            self.calls[s["name"]] += 1
            for key, value in s["counts"].items():
                self.counts[s["name"], key] += value


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# Per-layer metrics: name, unit, value from one traced job's profile. Each
# is a per-job total; the run reports the median over its traced jobs.
PER_LAYER = [
    ("io_files.load_matrix.s", "s", lambda p: p.seconds["io_files.load_matrix"]),
    ("io_files.load_matrix.calls", "count", lambda p: p.calls["io_files.load_matrix"]),
    ("io_files.load_matrix.mb", "MB", lambda p: p.counts["io_files.load_matrix", "mb"]),
    ("io_files.write_matrix.s", "s", lambda p: p.seconds["io_files.write_matrix"]),
    ("io_files.write_matrix.calls", "count", lambda p: p.calls["io_files.write_matrix"]),
    ("io_files.write_matrix.mb", "MB", lambda p: p.counts["io_files.write_matrix", "mb"]),
    ("io_files.load_manifest.s", "s", lambda p: p.seconds["io_files.load_manifest"]),
    ("matrix_ops.topk_rows.s", "s", lambda p: p.seconds["matrix_ops.topk_rows"]),
    ("matrix_ops.topk_rows.calls", "count", lambda p: p.calls["matrix_ops.topk_rows"]),
    (
        "matrix_ops.topk_rows.ordered_per_kept",
        "ratio",
        lambda p: _ratio(
            p.counts["matrix_ops.topk_rows", "ordered"], p.counts["matrix_ops.topk_rows", "kept"]
        ),
    ),
    ("matrix_ops.ScoreMatrix.s", "s", lambda p: p.seconds["matrix_ops.ScoreMatrix"]),
    ("matrix_ops.ScoreMatrix.calls", "count", lambda p: p.calls["matrix_ops.ScoreMatrix"]),
    ("matrix_ops.cosine_similarity.s", "s", lambda p: p.seconds["matrix_ops.cosine_similarity"]),
    (
        "matrix_ops.cosine_similarity.gflop",
        "GFLOP",
        lambda p: p.counts["matrix_ops.cosine_similarity", "gflop"],
    ),
    (
        "selection.select_topk_features.s",
        "s",
        lambda p: p.seconds["selection.select_topk_features"],
    ),
    ("ensemble.iterative_ensemble.s", "s", lambda p: p.seconds["ensemble.iterative_ensemble"]),
    ("ensemble.minmax_normalize.s", "s", lambda p: p.seconds["ensemble.minmax_normalize"]),
    ("ensemble.minmax_normalize.calls", "count", lambda p: p.calls["ensemble.minmax_normalize"]),
    ("ensemble.sweep_weight.s", "s", lambda p: p.seconds["ensemble.sweep_weight"]),
    ("ensemble.sweep_weight.calls", "count", lambda p: p.calls["ensemble.sweep_weight"]),
    ("ensemble.sweep_weight.self_s", "s", lambda p: p.self_seconds["ensemble.sweep_weight"]),
    (
        "ensemble.sweep_weight.topk_rows_s",
        "s",
        lambda p: p.child_seconds["ensemble.sweep_weight", "matrix_ops.topk_rows"],
    ),
    (
        "ensemble.sweep_weight.score_matrix_s",
        "s",
        lambda p: p.child_seconds["ensemble.sweep_weight", "matrix_ops.ScoreMatrix"],
    ),
    ("ensemble.grid_points", "count", lambda p: p.counts["ensemble.sweep_weight", "grid_points"]),
    (
        "ensemble.s_per_grid_point",
        "s",
        lambda p: _ratio(
            p.seconds["ensemble.sweep_weight"], p.counts["ensemble.sweep_weight", "grid_points"]
        ),
    ),
    ("metrics.metrics_report.s", "s", lambda p: p.seconds["metrics.metrics_report"]),
    ("metrics.metrics_report.calls", "count", lambda p: p.calls["metrics.metrics_report"]),
    ("metrics.GroundTruth.s", "s", lambda p: p.seconds["metrics.GroundTruth"]),
    *(
        entry
        for cmd in ("sim", "select", "ensemble", "eval")
        for entry in (
            (f"cli.run_cli.{cmd}.s", "s", lambda p, c=cmd: p.seconds[f"cli.run_cli.{c}"]),
            (f"cli.run_cli.{cmd}.self_s", "s", lambda p, c=cmd: p.self_seconds[f"cli.run_cli.{c}"]),
        )
    ),
    ("synth.gen_model_scores.s", "s", lambda p: p.seconds["synth.gen_model_scores"]),
    ("synth.gen_paired_embeddings.s", "s", lambda p: p.seconds["synth.gen_paired_embeddings"]),
]


# Computed by the run from its job records and span counts, not from span
# times: traced and untraced ``job_s``, their difference, the spans of a
# traced job, and those spans times the cost of one empty wrapped call.
TRACE_METRICS = (
    ("trace.job_s", "s"),
    ("trace.untraced_job_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
    ("trace.wrapper_bound_s", "s"),
)


def wrapper_seconds(calls: int = 20000, repeats: int = 5) -> float:
    """Median cost, over ``repeats`` batches, that a span wrapper adds to one call."""

    def bare():
        return None

    tracer = Tracer()
    wrapped = tracer._wrap("empty", bare, None)
    costs = []
    for _ in range(repeats):
        tracer.spans.clear()
        t0 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t1 = time.perf_counter()
        for _ in range(calls):
            bare()
        costs.append(((t1 - t0) - (time.perf_counter() - t1)) / calls)
    return statistics.median(costs)


def layer_metrics(tracer: Tracer, jobs: list[int]) -> dict:
    """Median over ``jobs`` of every per-layer metric, as ``{name: {value, unit}}``."""
    profiles = [JobProfile(tracer.spans, j) for j in jobs]
    return {
        name: {"value": statistics.median(float(fn(p)) for p in profiles), "unit": unit}
        for name, unit, fn in PER_LAYER
    }
