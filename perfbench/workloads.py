"""The benchmark's workloads: input generation, one job, and its output check.

Every job gets its own instance, seeded by (workload seed, job index), so
no two jobs share work and a cache inside the library cannot be fed
repeated inputs. rankfuse only ever sees the generated inputs.

* ``fuse`` calls ``iterative_ensemble`` in process: 4 ``synth`` model
  matrices, n x n with identity ground truth, tuned at R@5. The sweep sorts
  every row at every grid point, so this is the sort-bound case.
* ``retrieve`` runs ``sim -> select -> eval`` through ``run_cli`` on
  ``synth`` paired embeddings. No fusion at all: a change to the sweep
  should leave it unmoved.
* ``fuse-id`` runs ``ensemble -> eval`` through ``run_cli`` with default
  flags (tuned at R@1) on a person-ID style instance: several relevant
  gallery items per query, in disjoint identity groups. Ranking takes the
  ``argmax`` path, so element-wise fusion, validation, reporting and file
  reads dominate.

Each workload takes a ``scale`` that multiplies its instance size; the
benchmark measures scale 1 and warms up on a smaller one.

``check`` never calls rankfuse; it compares against :mod:`oracle` and
raises :class:`CheckFailed` on the first mismatch.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
from pathlib import Path

import numpy as np

import oracle
import rankfuse.cli
import rankfuse.ensemble
import rankfuse.synth
from rankfuse.metrics import GroundTruth

# The library's default weight grid, pinned here: ``fuse-id`` runs with
# default flags, and its check must fail if the default moves.
GRID = (0.0, 0.5, 0.8, 0.85, 0.875, 0.9, 0.9125, 0.925, 0.9375, 0.95)
REPORT_KS = (1, 5, 10)


class CheckFailed(Exception):
    """A job's output disagrees with the benchmark's own reference."""


class JobFailed(Exception):
    """A job could not produce its output."""


def job_seed(seed: int, job: int) -> int:
    """A 32-bit seed for the library's own generators, unique per job."""
    return int(np.random.SeedSequence([seed, job]).generate_state(1)[0])


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _cli(argv: list[str], span) -> str:
    """Run one ``rankfuse`` subcommand in process and return its stdout."""
    buf = io.StringIO()
    with span(f"cli.run_cli.{argv[0]}"), contextlib.redirect_stdout(buf):
        code = rankfuse.cli.run_cli(argv)
    if code != 0:
        raise JobFailed(f"rankfuse {argv[0]} exited with {code}")
    return buf.getvalue()


def _write_manifest(path: Path, relevant, n_gallery: int, models=()) -> None:
    doc = {
        "n_queries": len(relevant),
        "n_gallery": n_gallery,
        "relevant": [[int(i) for i in rel] for rel in relevant],
        "models": [{"name": m, "path": f"{m}.npy", "format": "array"} for m in models],
    }
    path.write_text(json.dumps(doc), encoding="utf-8")


def _check_eval(stdout: str, scores: np.ndarray, rel: np.ndarray) -> None:
    want = [f"R@{k}={oracle.recall(scores, rel, k):.4f}" for k in REPORT_KS]
    _expect(stdout.splitlines() == want, f"eval printed {stdout.splitlines()}, expected {want}")


def _sweep_best(step: int, s, t, rel, k: int, chosen_w: float) -> float:
    """Check that ``chosen_w`` is the smallest maximiser; return its recall."""
    values = oracle.fusion_recalls(s, t, GRID, rel, k)
    best = oracle.smallest_maximiser(values)
    _expect(
        chosen_w == GRID[best],
        f"step {step}: chose w={chosen_w!r}, smallest maximiser is {GRID[best]!r} ({values})",
    )
    return values[best]


class Fuse:
    name = "fuse"
    metric_k = 5
    skills = (0.6, 0.5, 0.4, 0.3)

    def __init__(self, scale: float = 1.0):
        self.n = round(1000 * scale)

    def make(self, seed: int, job: int, dest: Path) -> dict:
        cfg = rankfuse.synth.SynthConfig(
            n_items=self.n, n_models=len(self.skills), model_skill=self.skills, seed=job_seed(seed, job)
        )
        models = rankfuse.synth.gen_model_scores(cfg)
        return {"models": models, "gt": GroundTruth.identity(self.n)}

    def run(self, inst: dict, span):
        ens = rankfuse.ensemble
        fused, trace = ens.iterative_ensemble(
            inst["models"], inst["gt"], ens.WeightGrid(GRID), metric=ens.RecallAtK(self.metric_k)
        )
        return fused.data, trace

    def check(self, inst: dict, out) -> None:
        fused, trace = out
        rel = np.arange(self.n)[:, None]
        _expect(len(trace.steps) == len(inst["models"]), f"{len(trace.steps)} trace steps")
        s = np.zeros((self.n, self.n))
        for i, (m, step) in enumerate(zip(inst["models"], trace.steps), start=1):
            t = oracle.minmax(m.data)
            value = _sweep_best(i, s, t, rel, self.metric_k, step.chosen_w)
            _expect(step.metric_value == value, f"step {i}: R@k={step.metric_value}, expected {value}")
            s = oracle.fold(s, t, step.chosen_w)
        _expect(np.array_equal(fused, s), "fused matrix differs from the rebuild")
        r_at = trace.final_metrics.r_at
        _expect(sorted(r_at) == list(REPORT_KS), f"final report cutoffs {sorted(r_at)}")
        for k in REPORT_KS:
            _expect(r_at[k] == oracle.recall(s, rel, k), f"final R@{k}={r_at[k]}")

    def discard(self, inst: dict) -> None:
        pass


class Retrieve:
    name = "retrieve"
    shortlist_k = 10
    noise_sigma = 1.0
    dim = 64

    def __init__(self, scale: float = 1.0):
        self.n = round(2000 * scale)

    def make(self, seed: int, job: int, dest: Path) -> dict:
        cfg = rankfuse.synth.SynthConfig(
            n_items=self.n, dim=self.dim, noise_sigma=self.noise_sigma, seed=job_seed(seed, job)
        )
        text, image, _ = rankfuse.synth.gen_paired_embeddings(cfg)
        dest.mkdir(parents=True)
        np.save(dest / "text.npy", text.data)
        np.save(dest / "image.npy", image.data)
        _write_manifest(dest / "manifest.json", [[i] for i in range(self.n)], self.n)
        return {"dir": dest, "text": text.data, "image": image.data}

    def run(self, inst: dict, span) -> str:
        d = inst["dir"]
        _cli(
            ["sim", "--queries", str(d / "text.npy"), "--gallery", str(d / "image.npy"),
             "--out", str(d / "guidance.npy")],
            span,
        )
        _cli(
            ["select", "--features", str(d / "image.npy"), "--guidance", str(d / "guidance.npy"),
             "--k", str(self.shortlist_k), "--out", str(d / "shortlist.csv")],
            span,
        )
        return _cli(
            ["eval", "--scores", str(d / "guidance.npy"), "--gt", str(d / "manifest.json"),
             "--k", ",".join(map(str, REPORT_KS))],
            span,
        )

    def check(self, inst: dict, out: str) -> None:
        d = inst["dir"]
        guidance = np.load(d / "guidance.npy")
        err = max(
            float(np.max(np.abs(guidance[lo:hi] - oracle.cosine(inst["text"][lo:hi], inst["image"]))))
            for lo, hi in oracle.row_blocks(self.n)
        )
        _expect(err <= 1e-12, f"sim output is {err:.3g} from the normalised matmul")
        shortlist = np.loadtxt(d / "shortlist.csv", delimiter=",", dtype=np.int64, ndmin=2)
        _expect(
            np.array_equal(shortlist, oracle.topk_lexsort(guidance, self.shortlist_k)),
            "select indices differ from the lexsort oracle",
        )
        _check_eval(out, guidance, np.arange(self.n)[:, None])

    def discard(self, inst: dict) -> None:
        shutil.rmtree(inst["dir"])


_STEP = re.compile(r"step=(\d+) model=(\S+) w=(\S+) R@(\d+)=(\S+)")


class FuseId:
    name = "fuse-id"
    per_query = 4
    # Shift of the relevant cells over a standard normal background, one
    # per model: moderate and unequal skills, so the sweep has choices.
    effects = (3.0, 2.6, 2.3, 2.0)

    def __init__(self, scale: float = 1.0):
        self.n_queries = round(500 * scale)
        self.n_gallery = self.n_queries * self.per_query

    def make(self, seed: int, job: int, dest: Path) -> dict:
        rng = np.random.default_rng([seed, job, 2])
        # Disjoint identity groups: a random partition of the gallery.
        perm = rng.permutation(self.n_gallery)
        rel = np.sort(perm.reshape(self.n_queries, self.per_query), axis=1)
        rows = np.repeat(np.arange(self.n_queries), self.per_query)
        dest.mkdir(parents=True)
        names = [f"model-{m}" for m in range(len(self.effects))]
        for name, effect in zip(names, self.effects):
            scores = rng.standard_normal((self.n_queries, self.n_gallery))
            scores[rows, rel.ravel()] += effect
            np.save(dest / f"{name}.npy", scores)
        _write_manifest(dest / "manifest.json", rel, self.n_gallery, names)
        return {"dir": dest, "rel": rel, "models": names}

    def run(self, inst: dict, span):
        d = inst["dir"]
        manifest = str(d / "manifest.json")
        fused = str(d / "fused.npy")
        trace = _cli(["ensemble", "--manifest", manifest, "--out", fused], span)
        report = _cli(["eval", "--scores", fused, "--gt", manifest], span)
        return trace, report

    def check(self, inst: dict, out) -> None:
        trace, report = out
        d, rel = inst["dir"], inst["rel"]
        lines = trace.splitlines()
        steps = [_STEP.fullmatch(line) for line in lines[: len(inst["models"])]]
        _expect(all(steps), f"unexpected trace lines {lines}")
        s = np.zeros((self.n_queries, self.n_gallery))
        for i, (name, m) in enumerate(zip(inst["models"], steps), start=1):
            _expect(m[1] == str(i) and m[2] == name and m[4] == "1", f"trace step line {m[0]!r}")
            w = float(m[3])
            t = oracle.minmax(np.load(d / f"{name}.npy"))
            value = _sweep_best(i, s, t, rel, 1, w)
            _expect(m[5] == f"{value:.6f}", f"step {i}: R@1={m[5]}, expected {value:.6f}")
            s = oracle.fold(s, t, w)
        want = [f"final R@{k}={oracle.recall(s, rel, k):.6f}" for k in REPORT_KS]
        _expect(lines[len(steps):] == want, f"final lines {lines[len(steps):]}, expected {want}")
        _expect(np.array_equal(np.load(d / "fused.npy"), s), "fused matrix differs from the rebuild")
        _check_eval(report, s, rel)

    def discard(self, inst: dict) -> None:
        shutil.rmtree(inst["dir"])


WORKLOADS = {w.name: w for w in (Fuse, Retrieve, FuseId)}
