"""Command-line pipelines over the library.

Subcommands: ``sim`` (embeddings -> cosine score matrix), ``eval`` (scores +
ground truth -> R@K report), ``ensemble`` (iterative fusion with weight
tuning), ``select`` (guidance-driven top-k candidate indices),
``losses-check`` (worked examples + gradient checks), ``lhp-sample``
(seeded local/global decision audit), and ``synth`` (generate a synthetic
instance on disk).

Exit codes: 0 success, 1 validation/format error, 2 usage error. Every
stochastic subcommand takes ``--seed``; identical inputs and seeds produce
byte-identical output files.
"""

from __future__ import annotations

import argparse
import math
import os
import stat
import sys
from collections.abc import Sequence

import numpy as np

from . import ensemble as ens
from . import losses as ls
from . import view_sampling as vs
from .errors import ParameterError, RankfuseError, ShapeError, ValidationError
from .io_files import (
    ModelEntry,
    array_shape,
    load_ground_truth,
    load_manifest,
    load_matrix,
    write_manifest,
    write_matrix,
)
from .matrix_ops import EmbeddingMatrix, ScoreMatrix, _finite, cosine_similarity  # noqa: F401  perfbench/tracer.py wraps ScoreMatrix here
from .metrics import metrics_report
from .selection import select_topk_features
from .synth import SynthConfig, gen_model_scores, gen_paired_embeddings


def _infer_format(path: str, explicit: str) -> str:
    if explicit != "auto":
        return explicit
    return "csv" if str(path).lower().endswith(".csv") else "array"


def _parse_list(text: str, flag: str, kind: type) -> list:
    """The comma-separated ``kind`` values (``int`` or ``float``) in ``flag``'s ``text``."""
    name, hint = ("k", "; expected comma-separated integers") if kind is int else ("float", "")
    try:
        vals = [kind(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise ParameterError(f"{flag}: bad {name} list {text!r}{hint}")
    if not vals:
        raise ParameterError(f"{flag}: {name} list is empty")
    return vals


def _seeded_rng(seed: int) -> np.random.Generator:
    """The generator of ``--seed``; numpy takes only seeds >= 0."""
    if seed < 0:
        raise ParameterError(f"--seed must be >= 0, got {seed}")
    return np.random.default_rng(seed)


def _check_extent(path, what: str, got, expected, source: str) -> None:
    """Reject a loaded matrix whose ``what`` differs from ``source``'s, naming its file."""
    if got != expected:
        raise ShapeError(f"{path}: {what} is {got}, expected {expected} from {source}")


# ---------------------------------------------------------------------------
# Subcommand bodies
# ---------------------------------------------------------------------------


def _cmd_sim(args) -> int:
    # load_matrix has checked each file; the wrappers carry the sizes that
    # perfbench/tracer.py reads off cosine_similarity's arguments.
    queries = _finite(EmbeddingMatrix, load_matrix(args.queries, _infer_format(args.queries, args.format)))
    gallery = _finite(EmbeddingMatrix, load_matrix(args.gallery, _infer_format(args.gallery, args.format)))
    _check_extent(args.gallery, "feature dimension", gallery.n_cols, queries.n_cols, args.queries)
    scores = cosine_similarity(queries, gallery, names=(args.queries, args.gallery))
    write_matrix(scores, args.out, _infer_format(args.out, args.out_format))
    print(f"wrote {scores.n_queries}x{scores.n_gallery} score matrix to {args.out}")
    return 0


def _cmd_eval(args) -> int:
    gt = load_ground_truth(args.gt)
    expected = (gt.n_queries, gt.gallery_size)
    scores = _staged(args.scores, _infer_format(args.scores, args.format), expected, f"manifest {args.gt}")()
    n = gt.gallery_size
    requested = _parse_list(args.k, "--k", int)
    for k in requested:
        if k > n:
            print(f"warning: k={k} exceeds gallery size {n}; clipped", file=sys.stderr)
    report = metrics_report(scores, gt, {min(k, n) for k in requested})
    for k in requested:
        print(f"R@{k}={report.r_at[min(k, n)]:.4f}")
    return 0


class _Loaded(Sequence):
    """Matrices read one at a time: reading item i calls ``loaders[i]``."""

    def __init__(self, loaders: list):
        self._loaders = loaders

    def __len__(self) -> int:
        return len(self._loaders)

    def __getitem__(self, i):
        return self._loaders[i]()


def _load_checked(path, fmt: str, expected: tuple, source: str) -> np.ndarray:
    data = load_matrix(path, fmt)
    _check_extent(path, "shape", data.shape, expected, source)
    return data


def _staged(path, fmt: str, expected: tuple, source: str):
    """A loader of the matrix at ``path``, whose shape is checked now.

    An array in a regular file is checked from its header and loaded when
    the loader is called. A pipe cannot be read twice and a CSV file has no
    header, so either is loaded and checked now, and the loader returns it.
    """
    if fmt == "array" and stat.S_ISREG(os.stat(path).st_mode):
        _check_extent(path, "shape", array_shape(path), expected, source)
        return lambda: _load_checked(path, fmt, expected, source)
    data = _load_checked(path, fmt, expected, source)
    return lambda: data


def _cmd_ensemble(args) -> int:
    gt, entries = load_manifest(args.manifest)
    entries = [
        ModelEntry(name=os.path.splitext(os.path.basename(p))[0], path=p,
                   format=_infer_format(p, args.format))
        for p in args.model
    ] + entries
    if not entries:
        raise ParameterError(f"{args.manifest}: no model matrices to fuse (and no --model given)")
    expected = (gt.n_queries, gt.gallery_size)
    source = f"manifest {args.manifest}"
    # Every file is checked before fusion starts; each array model is then
    # loaded only when its step reads it.
    models = _Loaded([_staged(e.path, e.format, expected, source) for e in entries])
    grid = ens.WeightGrid(tuple(_parse_list(args.grid, "--grid", float)))
    metric = ens.RecallAtK(args.metric_k)
    # iterative_ensemble names a model it cannot rescale by its label.
    paths = {f"model {i}": e.path for i, e in enumerate(entries)}
    if args.init_matrix:
        paths["init matrix"] = args.init_matrix
    try:
        fused, trace = ens.iterative_ensemble(
            models,
            gt,
            grid,
            metric=metric,
            normalize=not args.no_normalize,
            # Loaded inline, so no local keeps the warm start past step 1.
            init_matrix=_staged(
                args.init_matrix, _infer_format(args.init_matrix, args.format), expected, source
            )() if args.init_matrix else None,
            model_ids=[e.name for e in entries],
        )
    except ValidationError as exc:
        label, sep, rest = str(exc).partition(": ")
        if not sep or label not in paths:
            raise
        raise ValidationError(f"{paths[label]}: {rest}") from None
    write_matrix(fused, args.out, _infer_format(args.out, args.out_format))
    report = ens.format_trace(trace)
    if args.trace:
        try:
            with open(args.trace, "w", encoding="utf-8") as fh:
                fh.write(report)
        except OSError:
            # A --trace that cannot be written takes --out with it, if --out
            # is a plain file (not, say, /dev/stdout or a link).
            if stat.S_ISREG(os.lstat(args.out).st_mode):
                os.remove(args.out)
            raise
    print(report, end="")
    return 0


def _cmd_select(args) -> int:
    features = load_matrix(args.features, _infer_format(args.features, args.format))
    guidance = load_matrix(args.guidance, _infer_format(args.guidance, args.format))
    rows = f"the rows of {args.features}"
    _check_extent(args.guidance, "column count", guidance.shape[1], features.shape[0], rows)
    selected = select_topk_features(features, guidance, args.k)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("".join(",".join(map(str, row)) + "\n" for row in selected.indices.tolist()))
    print(f"wrote top-{selected.k} indices for {selected.n_queries} queries to {args.out}")
    return 0


def _cmd_lhp_sample(args) -> int:
    decisions = vs.sample_decisions(_seeded_rng(args.seed), args.count)
    lines = [f"{d.sampled_value!r} {d.branch.value}" for d in decisions]
    text = "\n".join(lines) + ("\n" if lines else "")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return 0


def _cmd_synth(args) -> int:
    skills = tuple(_parse_list(args.skills, "--skills", float))
    cfg = SynthConfig(
        n_items=args.n_items,
        dim=args.dim,
        noise_sigma=args.noise_sigma,
        seed=args.seed,
        n_models=len(skills),
        model_skill=skills,
    )
    os.makedirs(args.out_dir, exist_ok=True)
    text, image, gt = gen_paired_embeddings(cfg)
    write_matrix(text, os.path.join(args.out_dir, "text.npy"))
    write_matrix(image, os.path.join(args.out_dir, "image.npy"))
    entries = []
    for i, scores in enumerate(gen_model_scores(cfg)):
        fname = f"model-{i}.npy"
        write_matrix(scores, os.path.join(args.out_dir, fname))
        entries.append(ModelEntry(name=f"model-{i}", path=fname))
    write_manifest(os.path.join(args.out_dir, "manifest.json"), gt, entries)
    print(
        f"wrote {cfg.n_items}x{cfg.dim} embedding pair, {len(entries)} model "
        f"matrices, and manifest.json to {args.out_dir}"
    )
    return 0


# ---------------------------------------------------------------------------
# losses-check
# ---------------------------------------------------------------------------


def _grad_check_instances(rng: np.random.Generator, instances: int):
    """Yield (name, max_rel_error) over random instances of each loss."""
    worst = {"itc": 0.0, "itm": 0.0, "mlm": 0.0, "mim": 0.0}
    for _ in range(instances):
        sim = rng.uniform(-1.0, 1.0, (4, 4))
        worst["itc"] = max(worst["itc"], ls.finite_diff_grad_check(ls.LossKind.ITC, (sim, 0.07)))

        batch = ls.ItmBatch(rng.integers(0, 2, 8), rng.uniform(0.05, 0.95, 8))
        worst["itm"] = max(worst["itm"], ls.finite_diff_grad_check(ls.LossKind.ITM, batch))

        pred = rng.uniform(0.05, 1.0, (6, 7))
        pred /= pred.sum(axis=1, keepdims=True)
        mlm = ls.MlmBatch(pred, rng.integers(0, 7, 6))
        worst["mlm"] = max(worst["mlm"], ls.finite_diff_grad_check(ls.LossKind.MLM, mlm))

        original = rng.uniform(0.0, 1.0, (2, 4, 4))
        recon = original + rng.uniform(-0.5, 0.5, (2, 4, 4))
        flags = rng.random((2, 4, 4)) < 0.6
        flags[:, 0, 0] = True  # every image keeps at least one masked element
        mim_inputs = (recon, original, ls.MaskSpec(flags))
        worst["mim"] = max(worst["mim"], ls.finite_diff_grad_check(ls.LossKind.MIM, mim_inputs))
    for name in ("itc", "itm", "mlm", "mim"):
        yield f"grad_{name}", worst[name]


def _cmd_losses_check(args) -> int:
    rng = _seeded_rng(args.seed)
    # With no instance, the gradient checks would pass having checked nothing.
    if args.instances < 1:
        raise ParameterError(f"--instances must be >= 1, got {args.instances}")
    checks = []

    def close(name, value, expected, tol=1e-8):
        checks.append((name, abs(value - expected) <= tol, f"value={value!r} expected={expected!r}"))

    def below(name, value, bound):
        checks.append((name, value <= bound, f"value={value!r} bound={bound!r}"))

    close("itc_singleton", ls.itc_loss(np.array([[3.7]]), 1.0), 0.0, tol=1e-12)
    close("itc_identity_2x2", ls.itc_loss(np.eye(2), 1.0), 0.3132616875182228)
    below("itc_saturated_diag", ls.itc_loss(np.diag([100.0] * 3), 1.0), 1e-10)

    below("itm_perfect", ls.itm_loss(ls.ItmBatch([1], [1.0])), 1e-11)
    close("itm_half", ls.itm_loss(ls.ItmBatch([1], [0.5])), math.log(2.0))
    close("itm_mixed_pair", ls.itm_loss(ls.ItmBatch([1, 0], [0.9, 0.2])), 0.16425203348601798)

    close("mlm_perfect", ls.mlm_loss(ls.MlmBatch([[0.0, 1.0, 0.0]], [1])), 0.0, tol=1e-12)
    close("mlm_uniform_v4", ls.mlm_loss(ls.MlmBatch([[0.25] * 4], [0])), math.log(4.0))
    close(
        "mlm_two_positions",
        ls.mlm_loss(ls.MlmBatch([[0.5, 0.5, 0.0, 0.0], [0.25, 0.25, 0.25, 0.25]], [0, 3])),
        (math.log(2.0) + math.log(4.0)) / 2.0,
    )

    img = np.arange(4.0).reshape(1, 2, 2)
    full = ls.MaskSpec(np.ones((1, 2, 2), dtype=bool))
    close("mim_perfect", ls.mim_loss(img, img, full), 0.0, tol=1e-12)
    close("mim_half_diff", ls.mim_loss(img + 0.5, img, full), 0.5, tol=1e-12)
    two = np.zeros((2, 2, 2))
    close(
        "mim_two_images",
        ls.mim_loss(np.stack([np.zeros((2, 2)), np.ones((2, 2))]), two,
                    ls.MaskSpec(np.ones((2, 2, 2), dtype=bool))),
        0.5,
        tol=1e-12,
    )

    close("total_unit_components", ls.total_loss(1, 1, 1, 1).total, 3.1356, tol=0.0)
    close("total_mixed", ls.total_loss(0.5, 0, 0, 2.0).total, 0.7712, tol=0.0)

    for name, err in _grad_check_instances(rng, args.instances):
        below(name, err, 1e-4)

    failures = 0
    for name, ok, detail in checks:
        print(f"{'ok' if ok else 'FAIL'} {name} {detail}")
        failures += 0 if ok else 1
    print(f"{len(checks) - failures}/{len(checks)} checks passed")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankfuse",
        description="Retrieval score-matrix toolkit: similarity, fusion, evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p, flag="--format", help="input matrix format (default: by file extension)"):
        p.add_argument(flag, default="auto", choices=["auto", "array", "csv"], help=help)

    p = sub.add_parser("sim", help="cosine similarity between two embedding files")
    p.add_argument("--queries", required=True)
    p.add_argument("--gallery", required=True)
    p.add_argument("--out", required=True)
    add_format(p)
    add_format(p, "--out-format", help=None)
    p.set_defaults(func=_cmd_sim)

    p = sub.add_parser("eval", help="Recall@K of a score matrix against ground truth")
    p.add_argument("--scores", required=True)
    p.add_argument("--gt", required=True, help="manifest JSON with the relevant sets")
    p.add_argument("--k", default="1,5,10", help="comma-separated cutoffs")
    add_format(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("ensemble", help="iteratively fuse model score matrices")
    p.add_argument("--manifest", required=True)
    p.add_argument("--model", action="append", default=[],
                   help="extra score-matrix file fused before the manifest models (repeatable)")
    p.add_argument("--out", required=True)
    p.add_argument("--trace", default=None, help="write the per-step report here")
    p.add_argument("--grid", default=",".join(str(w) for w in ens.DEFAULT_WEIGHT_GRID))
    p.add_argument("--metric-k", type=int, default=1)
    p.add_argument("--no-normalize", action="store_true",
                   help="skip per-matrix min-max normalization before fusing")
    p.add_argument("--init-matrix", default=None,
                   help="start from this matrix instead of zeros")
    add_format(p)
    add_format(p, "--out-format", help=None)
    p.set_defaults(func=_cmd_ensemble)

    p = sub.add_parser("select", help="guidance-driven top-k candidate indices")
    p.add_argument("--features", required=True)
    p.add_argument("--guidance", required=True)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--out", required=True)
    add_format(p)
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser("losses-check", help="run loss worked examples and gradient checks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--instances", type=int, default=100)
    p.set_defaults(func=_cmd_losses_check)

    p = sub.add_parser("lhp-sample", help="emit a seeded local/global decision sequence")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_lhp_sample)

    p = sub.add_parser("synth", help="generate a synthetic instance on disk")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-items", type=int, default=100)
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--noise-sigma", type=float, default=0.1)
    p.add_argument("--skills", default="0.7,0.7", help="comma-separated per-model skills")
    p.set_defaults(func=_cmd_synth)

    return parser


def run_cli(argv=None) -> int:
    """Parse and run one invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles usage errors and --help
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (RankfuseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
