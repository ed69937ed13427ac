"""rankfuse benchmark: one workload as a single-process closed loop.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload fuse --seed 1 --seconds 30 --trace 0

One client runs a job, waits for it, checks its output and starts the
next, until ``--seconds`` of wall time (generation and checks included)
have passed. Each job gets its own seeded instance (see ``workloads.py``).
rankfuse is imported from ``src/`` of this checkout and runs with library
defaults: ``RANKFUSE_THREADS`` is removed from the environment and BLAS
keeps its own thread count.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: import rankfuse in a fresh interpreter that has numpy
  loaded, then, in this process, generate and write job 0's inputs and run
  one warm-up job at ``WARM_UP_SCALE`` of the full size, with its check.
  Both phases are done ``SETUP_REPEATS`` times; the sum of their two
  medians is reported.
* ``job_s``: median wall seconds of a job.
* ``peak_rss_mb``: the high-water resident memory of this process, which
  holds one job's data at a time. The checks work in row blocks and stay
  below the jobs' own peak.

``--trace 1`` alternates untraced and traced jobs and reports the per-layer
metrics of ``tracer.PER_LAYER`` (medians over traced jobs) plus the
tracing overhead: traced minus untraced ``job_s``, and beside it a direct
bound, the spans of a traced job times the cost of one empty wrapped call.

A job that raises or fails its output check counts in ``failed``. The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The full result, with per-job samples and the
environment stamp, is also written under ``.perfbench_out/``, beside the
spans of a traced run.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracer import TRACE_METRICS, Tracer, layer_metrics, no_spans, wrapper_seconds

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
THREADS_ENV = "RANKFUSE_THREADS"
SETUP_REPEATS = 11
# The warm-up job runs at this fraction of the full instance size: large
# enough to page in every code path and allocator size class, small enough
# to leave the import a minor share of ``setup_s``.
WARM_UP_SCALE = 0.25
WORKLOAD_NAMES = ("fuse", "retrieve", "fuse-id")

END_TO_END = (("setup_s", "s"), ("job_s", "s"), ("peak_rss_mb", "MB"))

# numpy is loaded first: the probe times rankfuse's own import.
_IMPORT_PROBE = (
    "import time, numpy; t = time.perf_counter(); import rankfuse; "
    "print(time.perf_counter() - t)"
)


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def _import_seconds() -> float:
    """Time ``import rankfuse`` in a fresh interpreter using this checkout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def _blas_threads(np) -> int | None:
    """OpenBLAS's thread count, read from the library numpy loaded."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def _cpu_model() -> str:
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _environment(np, args, threads_was_set: bool) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(np),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "workload_seed": args.seed,
        "run_seconds": args.seconds,
        "rankfuse_threads": "removed from the workload environment",
        "rankfuse_threads_was_set": threads_was_set,
    }


def _timed_spans(spans: list[dict], job: int) -> int:
    """Spans that job ``job`` opened from its ``job`` span on, that one included."""
    start = next(s["start"] for s in spans if s["job"] == job and s["name"] == "job")
    return sum(s["job"] == job and s["start"] >= start for s in spans)


class Run:
    """One benchmark run: set-up, the closed loop, and its records."""

    def __init__(self, wl, warm_up, seed: int, rf, tracer=None):
        self.wl, self.warm_up, self.seed, self.rf, self.tracer = wl, warm_up, seed, rf, tracer
        self.jobs: list[dict] = []
        self.import_samples: list[float] = []
        self.prepare_samples: list[float] = []
        self.first = None

    def set_up(self) -> None:
        """Repeat set-up; job 0 runs on the instance of the last repeat."""
        for _ in range(SETUP_REPEATS):
            if self.first is not None:
                self.wl.discard(self.first)
                self.first = None
            self.import_samples.append(_import_seconds())
            t0 = time.perf_counter()
            self.first = self.wl.make(self.seed, 0, WORK / "job-0")
            warm = self.warm_up.make(self.seed, 0, WORK / "warm-up")
            self.warm_up.check(warm, self.warm_up.run(warm, no_spans))
            self.warm_up.discard(warm)
            self.prepare_samples.append(time.perf_counter() - t0)

    def setup_seconds(self) -> float:
        return statistics.median(self.import_samples) + statistics.median(self.prepare_samples)

    def job(self, j: int, inst) -> None:
        """Make (unless given), run and check job ``j``; record the outcome."""
        traced = self.tracer is not None and j % 2 == 1
        rec = {"job": j, "traced": traced, "seconds": None, "error": None}
        self.jobs.append(rec)
        try:
            with self.tracer.installed(self.rf) if traced else contextlib.nullcontext():
                span = self.tracer.span if traced else no_spans
                if traced:
                    self.tracer.job = j
                if inst is None:
                    inst = self.wl.make(self.seed, j, WORK / f"job-{j}")
                t0 = time.perf_counter()
                with span("job"):
                    out = self.wl.run(inst, span)
                rec["seconds"] = time.perf_counter() - t0
            self.wl.check(inst, out)
        except Exception as exc:  # one job's failure must not end the run
            rec["error"] = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        finally:
            if inst is not None:
                with contextlib.suppress(OSError):
                    self.wl.discard(inst)

    def loop(self, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        while True:
            # Take job 0's instance out of ``self`` so it is freed with job 0.
            inst, self.first = self.first, None
            self.job(len(self.jobs), inst)
            enough_jobs = self.tracer is None or len(self.jobs) >= 2
            if enough_jobs and time.perf_counter() >= deadline:
                return

    def job_seconds(self, traced: bool | None = None) -> float:
        return statistics.median(
            r["seconds"] for r in self.jobs
            if r["seconds"] is not None and (traced is None or r["traced"] == traced)
        )


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "rankfuse" / "__init__.py").is_file():
        print(f"perfbench: no rankfuse sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    threads_was_set = os.environ.pop(THREADS_ENV, None) is not None
    sys.path.insert(0, str(SRC))

    import numpy as np

    import rankfuse

    if Path(rankfuse.__file__).resolve().parent != SRC / "rankfuse":
        print(f"perfbench: imported rankfuse from {rankfuse.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import workloads

    wl_cls = workloads.WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    run = Run(wl_cls(), wl_cls(scale=WARM_UP_SCALE), args.seed, rankfuse, tracer)
    env = _environment(np, args, threads_was_set)

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        run.set_up()
        run.loop(args.seconds)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    failed = sum(r["error"] is not None for r in run.jobs)
    timed = {r["traced"] for r in run.jobs if r["seconds"] is not None}
    if timed != ({False, True} if tracer else {False}):
        print("perfbench: too few jobs completed to report", file=sys.stderr)
        return 1
    if tracer is None:
        values = {
            "setup_s": run.setup_seconds(),
            "job_s": run.job_seconds(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    else:
        traced = [r["job"] for r in run.jobs if r["traced"] and r["seconds"] is not None]
        metrics = layer_metrics(tracer, traced)
        on, off = run.job_seconds(traced=True), run.job_seconds(traced=False)
        spans = statistics.median(_timed_spans(tracer.spans, j) for j in traced)
        values = (on, off, on - off, spans, spans * wrapper_seconds())
        for (name, unit), value in zip(TRACE_METRICS, values):
            metrics[name] = {"value": value, "unit": unit}

    result = {
        "correct": failed == 0,
        "attempted": len(run.jobs),
        "failed": failed,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = dict(result, environment=env, import_samples=run.import_samples,
                  prepare_samples=run.prepare_samples, jobs=run.jobs)
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1), encoding="utf-8")
    if tracer is not None:
        tracer.write(OUT / f"{stem}-spans.json")

    print("environment " + json.dumps(env))
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"jobs={len(run.jobs)} failed={failed} failed_ratio={failed / len(run.jobs):.4f}")
    if tracer is None:
        print(f"setup_s={values['setup_s']:.4f} s (medians of {SETUP_REPEATS}) "
              f"job_s={values['job_s']:.4f} s (median of {len(run.jobs)} jobs) "
              f"peak_rss_mb={values['peak_rss_mb']:.1f} MB")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
