import builtins
import errno
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import rankfuse.cli
import rankfuse.io_files
import rankfuse.matrix_ops
from rankfuse.cli import run_cli
from rankfuse.io_files import ModelEntry, load_matrix, write_manifest, write_matrix
from rankfuse.matrix_ops import EmbeddingMatrix, cosine_similarity
from rankfuse.metrics import GroundTruth
from rankfuse.synth import SynthConfig, gen_paired_embeddings
from test_matrix_ops import brute_force_topk


def write_gt(path, n, gallery=None):
    write_manifest(path, GroundTruth.identity(n) if gallery is None else gallery)


def run_cli_process(argv, **kwargs):
    """``argv`` run by ``python -m rankfuse.cli`` in a new process, its stdout a pipe."""
    src = str(Path(rankfuse.cli.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "rankfuse.cli", *argv],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
        timeout=120,
        **kwargs,
    )


def assert_rejects_naming(argv, path, capsys):
    """The command exits 1 with ``path`` in its error and no traceback or warning."""
    rc = run_cli(argv)
    err = capsys.readouterr().err
    assert rc == 1
    assert str(path) in err
    assert "Traceback" not in err
    assert "warning" not in err


class TestReplacedOutputs:
    """``sim``, ``select`` and ``lhp-sample`` replace ``--out`` only once it is written."""

    # Each command and the name, in rankfuse.cli, of what writes its output.
    COMMANDS = [("sim", "write_matrix"), ("select", "open"), ("lhp-sample", "open")]

    @staticmethod
    def argv(command, tmp_path, out):
        rng = np.random.default_rng(7)
        a, b = str(tmp_path / "a.npy"), str(tmp_path / "b.npy")
        if command == "sim":
            write_matrix(rng.random((4, 3)), a)
            write_matrix(rng.random((5, 3)), b)
            return ["sim", "--queries", a, "--gallery", b, "--out", out]
        if command == "select":
            write_matrix(rng.random((5, 3)), a)
            write_matrix(rng.random((4, 5)), b)
            return ["select", "--features", a, "--guidance", b, "--k", "2", "--out", out]
        if command == "ensemble":
            write_matrix(rng.random((4, 4)), a)
            write_gt(tmp_path / "gt.json", 4)
            return ["ensemble", "--manifest", str(tmp_path / "gt.json"), "--model", a, "--out", out]
        return ["lhp-sample", "--seed", "5", "--count", "6", "--out", out]

    @pytest.mark.parametrize("command, writer", COMMANDS)
    def test_failed_write_keeps_the_old_file(self, command, writer, tmp_path, monkeypatch, capsys):
        out = tmp_path / "out" / "result"
        out.parent.mkdir()
        out.write_bytes(b"earlier result")
        argv = self.argv(command, tmp_path, str(out))

        def cut(*args, **kwargs):
            # Some bytes reach the file, then the disk fills.
            path = args[0] if writer == "open" else args[1]
            with builtins.open(path, "w") as fh:
                fh.write("cut")
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))

        monkeypatch.setattr(rankfuse.cli, writer, cut, raising=False)
        assert run_cli(argv) == 1
        assert "No space left on device" in capsys.readouterr().err
        monkeypatch.undo()
        assert out.read_bytes() == b"earlier result"
        assert os.listdir(out.parent) == ["result"]
        assert run_cli(argv) == 0
        capsys.readouterr()
        assert out.read_bytes() != b"earlier result"
        assert os.listdir(out.parent) == ["result"]

    @pytest.mark.parametrize("command, writer", COMMANDS + [("ensemble", "write_matrix")])
    def test_failed_write_names_the_destination(self, command, writer, tmp_path, monkeypatch, capsys):
        out = tmp_path / "result"
        argv = self.argv(command, tmp_path, str(out))

        def cut(*args, **kwargs):
            # Some bytes reach the file, then a write fails as one past the
            # file size limit does: with an error that names no file.
            path = args[0] if writer == "open" else args[1]
            with builtins.open(path, "w") as fh:
                fh.write("cut")
            raise OSError(errno.EFBIG, os.strerror(errno.EFBIG))

        monkeypatch.setattr(rankfuse.cli, writer, cut, raising=False)
        assert run_cli(argv) == 1
        assert capsys.readouterr().err == f"error: [Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}: {str(out)!r}\n"
        # No destination and no temporary file is left.
        assert not [n for n in os.listdir(tmp_path) if n == "result" or n.endswith(".tmp")]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("command", [c for c, _ in COMMANDS])
    def test_failed_in_place_write_names_the_destination(self, command, tmp_path, capsys):
        # /dev/full is written in place, and every write to it fails.
        assert_rejects_naming(self.argv(command, tmp_path, "/dev/full"), "/dev/full", capsys)

    def test_file_size_limit_names_the_destination(self, tmp_path):
        resource = pytest.importorskip("resource")
        out = tmp_path / "x.txt"

        def limit():
            resource.setrlimit(resource.RLIMIT_FSIZE, (1024, 1024))

        proc = run_cli_process(["lhp-sample", "--count", "2000", "--out", str(out)], preexec_fn=limit)
        assert proc.returncode == 1
        assert proc.stderr.decode() == f"error: [Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}: {str(out)!r}\n"
        assert os.listdir(tmp_path) == []

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
    @pytest.mark.parametrize("command", [c for c, _ in COMMANDS])
    def test_dev_stdout_written_in_place(self, command, tmp_path, capsys):
        out = tmp_path / "result"
        assert run_cli(self.argv(command, tmp_path, str(out))) == 0
        capsys.readouterr()
        proc = run_cli_process(self.argv(command, tmp_path, "/dev/stdout"))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith(out.read_bytes())


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        assert run_cli([]) == 2
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        assert run_cli(["frobnicate"]) == 2
        assert "usage" in capsys.readouterr().err.lower()
        # A removed flag is a usage error too.
        assert run_cli(["ensemble", "--manifest", "m.json", "--out", "f.npy", "--k-pred", "1"]) == 2
        assert "unrecognized arguments: --k-pred" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert run_cli(["--help"]) == 0
        capsys.readouterr()


class TestParserReuse:
    """``run_cli`` builds its parser once per process and parses every call with it."""

    def write_pair(self, tmp_path):
        rng = np.random.default_rng(5)
        write_matrix(rng.standard_normal((6, 3)), tmp_path / "f.npy")
        write_matrix(rng.random((4, 6)), tmp_path / "g.npy")
        write_gt(tmp_path / "gt.json", 4, GroundTruth(relevant=tuple([q] for q in range(4)), gallery_size=6))
        return {
            "select": ["select", "--features", str(tmp_path / "f.npy"), "--guidance", str(tmp_path / "g.npy"),
                       "--k", "3", "--out", str(tmp_path / "sel.csv")],
            "eval": ["eval", "--scores", str(tmp_path / "g.npy"), "--gt", str(tmp_path / "gt.json"), "--k", "1,2"],
        }

    def outputs(self, argv, tmp_path, capsys):
        rc = run_cli(argv)
        out, err = capsys.readouterr()
        return rc, out, err, (tmp_path / "sel.csv").read_bytes() if argv[0] == "select" else None

    def test_repeated_calls_match_a_fresh_parser(self, tmp_path, capsys):
        for argv in self.write_pair(tmp_path).values():
            rankfuse.cli._build_parser.cache_clear()
            fresh = self.outputs(argv, tmp_path, capsys)
            assert fresh[0] == 0
            assert self.outputs(argv, tmp_path, capsys) == fresh
            assert self.outputs(argv, tmp_path, capsys) == fresh
        assert rankfuse.cli._build_parser.cache_info().misses == 1

    def test_usage_error_then_valid_call(self, tmp_path, capsys):
        argv = self.write_pair(tmp_path)["eval"]
        expected = self.outputs(argv, tmp_path, capsys)
        assert run_cli(["ensemble", "--manifest", "m.json", "--out", "f.npy", "--k-pred", "1"]) == 2
        assert "unrecognized arguments: --k-pred" in capsys.readouterr().err
        assert run_cli(["eval", "--scores", "s.npy"]) == 2
        capsys.readouterr()
        assert self.outputs(argv, tmp_path, capsys) == expected

    def test_help_text_unchanged(self, capsys):
        for argv in (["--help"], ["select", "--help"], ["ensemble", "--help"]):
            rankfuse.cli._build_parser.cache_clear()
            assert run_cli(argv) == 0
            first = capsys.readouterr()
            assert first.out.startswith("usage: rankfuse")
            assert run_cli(argv) == 0
            assert capsys.readouterr() == first

    def test_appended_models_do_not_carry_over(self):
        parser = rankfuse.cli._build_parser()
        argv = ["ensemble", "--manifest", "m.json", "--out", "f.npy"]
        assert parser.parse_args([*argv, "--model", "a.npy"]).model == ["a.npy"]
        assert parser.parse_args(argv).model == []

    def test_patched_loader_and_writer_are_called(self, tmp_path, capsys, monkeypatch):
        argv = self.write_pair(tmp_path)["select"]
        assert run_cli(argv) == 0
        loads = record_loads(monkeypatch)
        assert run_cli(argv) == 0
        assert loads == [argv[2], argv[4]]
        writes = []
        monkeypatch.setattr(rankfuse.cli, "write_matrix", lambda data, path, *a: writes.append(str(path)))
        out = tmp_path / "s.npy"
        assert run_cli(["sim", "--queries", argv[2], "--gallery", argv[2], "--out", str(out)]) == 0
        capsys.readouterr()
        assert len(writes) == 1 and loads[2:] == [argv[2], argv[2]]


class TestEval:
    def test_worked_example_with_clipping(self, tmp_path, capsys):
        scores = tmp_path / "s.csv"
        scores.write_text("0.1,0.9,0.3\n0.8,0.2,0.1\n0.2,0.3,0.9\n")
        gt = tmp_path / "gt.json"
        write_gt(gt, 3)
        rc = run_cli(["eval", "--scores", str(scores), "--gt", str(gt), "--k", "1,5,10"])
        out, err = capsys.readouterr()
        assert rc == 0
        assert "R@1=0.3333" in out
        assert "R@5=1.0000" in out and "R@10=1.0000" in out
        assert err.count("clipped") == 2
        # eval reads only the ground truth, so a model file the manifest
        # lists need not exist, and the report is the same.
        write_manifest(gt, GroundTruth.identity(3), [ModelEntry(name="gone", path="gone.npy")])
        assert run_cli(["eval", "--scores", str(scores), "--gt", str(gt), "--k", "1,5,10"]) == 0
        assert capsys.readouterr() == (out, err)

    def test_missing_file_exit_1(self, tmp_path, capsys):
        gt = tmp_path / "gt.json"
        write_gt(gt, 2)
        rc = run_cli(["eval", "--scores", str(tmp_path / "nope.csv"), "--gt", str(gt)])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_malformed_matrix_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.npy"
        bad.write_bytes(b"garbage")
        gt = tmp_path / "gt.json"
        write_gt(gt, 2)
        rc = run_cli(["eval", "--scores", str(bad), "--gt", str(gt)])
        assert rc == 1
        assert "offset 0" in capsys.readouterr().err
        # A well-formed matrix of the wrong shape is named before any k is
        # clipped to its gallery.
        small = tmp_path / "small.npy"
        write_matrix(np.eye(2), small)
        write_gt(gt, 3)
        assert_rejects_naming(
            ["eval", "--scores", str(small), "--gt", str(gt), "--k", "1,5"], small, capsys
        )
        # A file cut off mid-payload is named, without a traceback.
        cut = tmp_path / "cut.npy"
        write_matrix(np.eye(3), cut)
        cut.write_bytes(cut.read_bytes()[:-5])
        assert_rejects_naming(["eval", "--scores", str(cut), "--gt", str(gt)], cut, capsys)

    def test_csv_that_is_not_utf8_exit_1(self, tmp_path, capsys):
        gt = tmp_path / "gt.json"
        write_gt(gt, 2)
        bad = tmp_path / "bad.csv"
        # A UTF-16 byte-order mark, then a stray byte on line 2.
        for payload, line in ((b"\xff\xfe1,0\n0,1\n", "line 1"), (b"1,0\n0,\xe91\n", "line 2")):
            bad.write_bytes(payload)
            assert_rejects_naming(["eval", "--scores", str(bad), "--gt", str(gt)], bad, capsys)
            assert run_cli(["eval", "--scores", str(bad), "--gt", str(gt)]) == 1
            assert line in capsys.readouterr().err


class TestSim:
    def test_matches_library(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        q = rng.standard_normal((4, 3))
        g = rng.standard_normal((5, 3))
        write_matrix(q, tmp_path / "q.npy")
        write_matrix(g, tmp_path / "g.npy")
        rc = run_cli([
            "sim",
            "--queries", str(tmp_path / "q.npy"),
            "--gallery", str(tmp_path / "g.npy"),
            "--out", str(tmp_path / "s.npy"),
        ])
        assert rc == 0
        capsys.readouterr()
        expected = cosine_similarity(EmbeddingMatrix(q), EmbeddingMatrix(g)).data
        np.testing.assert_array_equal(load_matrix(tmp_path / "s.npy"), expected)

    def test_dimension_mismatch_names_gallery(self, tmp_path, capsys):
        write_matrix(np.ones((2, 4)), tmp_path / "q.npy")
        write_matrix(np.ones((2, 3)), tmp_path / "g.npy")
        argv = [
            "sim",
            "--queries", str(tmp_path / "q.npy"),
            "--gallery", str(tmp_path / "g.npy"),
            "--out", str(tmp_path / "s.npy"),
        ]
        assert_rejects_naming(argv, tmp_path / "g.npy", capsys)

    def test_array_file_read_as_csv_exit_1(self, tmp_path, capsys):
        write_matrix(np.ones((2, 3)), tmp_path / "text.npy")
        write_matrix(np.ones((2, 3)), tmp_path / "image.npy")
        argv = [
            "sim",
            "--queries", str(tmp_path / "text.npy"),
            "--gallery", str(tmp_path / "image.npy"),
            "--out", str(tmp_path / "g.npy"),
            "--format", "csv",
        ]
        assert_rejects_naming(argv, tmp_path / "text.npy", capsys)
        assert run_cli(argv) == 1
        assert "line 1, column 1: byte 0x93 is not valid UTF-8" in capsys.readouterr().err


class TestEnsembleCommand:
    def test_single_model_grid_zero_is_identity(self, tmp_path, capsys):
        # Matrix already spans [0, 1], so min-max normalization is exact identity.
        model = np.array([[1.0, 0.0], [0.25, 0.5]])
        write_matrix(model, tmp_path / "m.npy")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "n_queries": 2,
            "n_gallery": 2,
            "relevant": [[0], [1]],
            "models": [{"name": "m", "path": "m.npy"}],
        }))
        rc = run_cli([
            "ensemble",
            "--manifest", str(manifest),
            "--out", str(tmp_path / "fused.npy"),
            "--grid", "0",
        ])
        assert rc == 0
        capsys.readouterr()
        assert load_matrix(tmp_path / "fused.npy").tobytes() == model.tobytes()

    def test_extra_model_flag_and_trace(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        write_matrix(rng.random((4, 4)), tmp_path / "a.npy")
        write_matrix(rng.random((4, 4)), tmp_path / "b.npy")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "n_queries": 4,
            "n_gallery": 4,
            "relevant": [[0], [1], [2], [3]],
            "models": [{"name": "b", "path": "b.npy"}],
        }))
        trace = tmp_path / "trace.txt"
        rc = run_cli([
            "ensemble",
            "--manifest", str(manifest),
            "--model", str(tmp_path / "a.npy"),
            "--out", str(tmp_path / "fused.npy"),
            "--trace", str(trace),
            "--grid", "0,0.5,1",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        text = trace.read_text()
        assert text == out
        assert "step=1 model=a" in text  # --model fuses before manifest entries
        assert "step=2 model=b" in text

    def test_no_models_anywhere_exit_1(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"n_queries": 2, "n_gallery": 2, "relevant": [[0], [1]]}))
        rc = run_cli([
            "ensemble", "--manifest", str(manifest), "--out", str(tmp_path / "f.npy"),
        ])
        assert rc == 1
        capsys.readouterr()
        # With a model to fuse, a metric k beyond the gallery is named as such.
        write_matrix(np.eye(2), tmp_path / "m.npy")
        rc = run_cli([
            "ensemble", "--manifest", str(manifest), "--model", str(tmp_path / "m.npy"),
            "--out", str(tmp_path / "f.npy"), "--metric-k", "5",
        ])
        assert rc == 1
        assert "metric k must be in [1, 2], got 5" in capsys.readouterr().err
        # A list flag that does not parse, or a value no field takes, is named.
        model, out_dir = str(tmp_path / "m.npy"), str(tmp_path / "synth")
        for argv, flag in (
            (["ensemble", "--manifest", str(manifest), "--model", model, "--out",
              str(tmp_path / "f.npy"), "--grid", "a,b"], "--grid: bad float list 'a,b'"),
            (["synth", "--out-dir", out_dir, "--skills", ","], "--skills: float list is empty"),
            (["eval", "--scores", model, "--gt", str(manifest), "--k", "abc"], "--k: bad k list 'abc'"),
            (["eval", "--scores", model, "--gt", str(manifest), "--k", ","], "--k: k list is empty"),
            (["synth", "--out-dir", out_dir, "--noise-sigma", "nan"], "noise_sigma must be finite"),
            # A --trace or an --out that cannot be written leaves neither file.
            (["ensemble", "--manifest", str(manifest), "--model", model, "--out",
              str(tmp_path / "f.npy"), "--trace", str(tmp_path / "no" / "t.txt")],
             tmp_path / "no" / "t.txt"),
            (["ensemble", "--manifest", str(manifest), "--model", model, "--out",
              str(tmp_path / "no" / "f.npy"), "--trace", str(tmp_path / "t.txt")],
             tmp_path / "no" / "f.npy"),
        ):
            assert_rejects_naming(argv, flag, capsys)
        assert not (tmp_path / "f.npy").exists() and not os.path.exists(out_dir)
        assert not (tmp_path / "t.txt").exists()
        fuse = ["ensemble", "--manifest", str(manifest), "--model", model, "--out", str(tmp_path / "f.npy")]
        bad_trace = ["--trace", str(tmp_path / "no" / "t.txt")]
        # An --out from an earlier run keeps its bytes when --trace fails,
        # and no temporary file is left behind.
        (tmp_path / "f.npy").write_bytes(b"earlier result")
        before = sorted(os.listdir(tmp_path))
        assert_rejects_naming(fuse + bad_trace, tmp_path / "no" / "t.txt", capsys)
        assert (tmp_path / "f.npy").read_bytes() == b"earlier result"
        assert sorted(os.listdir(tmp_path)) == before
        # A symlinked --out is never replaced itself: a failed run leaves its
        # target unwritten, and a run that succeeds writes the target.
        (tmp_path / "f.npy").unlink()
        (tmp_path / "f.npy").symlink_to(tmp_path / "target.npy")
        assert_rejects_naming(fuse + bad_trace, tmp_path / "no" / "t.txt", capsys)
        assert (tmp_path / "f.npy").is_symlink() and not (tmp_path / "target.npy").exists()
        assert run_cli(fuse + ["--trace", str(tmp_path / "t.txt")]) == 0
        capsys.readouterr()
        assert (tmp_path / "f.npy").is_symlink() and (tmp_path / "target.npy").is_file()
        assert (tmp_path / "t.txt").read_text().startswith("step=1 model=m ")

    def test_one_file_for_out_and_trace_rejected(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"n_queries": 2, "n_gallery": 2, "relevant": [[0], [1]]}))
        write_matrix(np.eye(2), tmp_path / "m.npy")
        fuse = ["ensemble", "--manifest", str(manifest), "--model", str(tmp_path / "m.npy")]
        f, link = tmp_path / "f.npy", tmp_path / "link.npy"
        link.symlink_to(tmp_path / "missing.npy")
        cases = [
            (str(f), str(f)),  # a new file
            (str(link), str(tmp_path / "missing.npy")),  # a missing path, through a symlink
            (str(tmp_path / "." / "old.txt"), str(tmp_path / "old.txt")),  # an existing file
        ]
        (tmp_path / "old.txt").write_bytes(b"earlier result")
        before = {p: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
        for out, trace in cases:
            rc = run_cli(fuse + ["--out", out, "--trace", trace])
            err = capsys.readouterr().err
            assert rc == 1
            assert f"--out {out} and --trace {trace} name the same file" in err
        # Checked before any model is read: a missing model is not reached.
        rc = run_cli(["ensemble", "--manifest", str(manifest), "--model", str(tmp_path / "none.npy"),
                      "--out", str(f), "--trace", str(f)])
        assert rc == 1 and "name the same file" in capsys.readouterr().err
        assert {p: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == before
        assert sorted(os.listdir(tmp_path)) == ["link.npy", "m.npy", "manifest.json", "old.txt"]

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
    def test_out_and_trace_both_on_dev_stdout(self, tmp_path):
        # A destination that is not a regular file is written in place, twice.
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"n_queries": 2, "n_gallery": 2, "relevant": [[0], [1]]}))
        write_matrix(np.eye(2), tmp_path / "m.npy")
        proc = run_cli_process(["ensemble", "--manifest", str(manifest), "--model", str(tmp_path / "m.npy"),
                                "--out", "/dev/stdout", "--trace", "/dev/stdout"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.count(b"step=1 model=m ") == 2

    def test_shape_mismatch_names_file(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        write_matrix(np.eye(3), tmp_path / "good.npy")
        write_matrix(np.eye(2), tmp_path / "bad.npy")
        manifest.write_text(json.dumps({"n_queries": 3, "n_gallery": 3, "relevant": [[0], [1], [2]]}))
        base = ["ensemble", "--manifest", str(manifest), "--out", str(tmp_path / "f.npy")]
        bad = str(tmp_path / "bad.npy")
        good = str(tmp_path / "good.npy")
        # A --model file that is the only model, one after a good model, and
        # a warm start of the wrong shape.
        for extra in (["--model", bad], ["--model", good, "--model", bad],
                      ["--model", good, "--init-matrix", bad]):
            assert_rejects_naming(base + extra, bad, capsys)
        # A manifest model of the wrong shape.
        manifest.write_text(json.dumps({
            "n_queries": 3, "n_gallery": 3, "relevant": [[0], [1], [2]],
            "models": [{"name": "bad", "path": "bad.npy"}],
        }))
        assert_rejects_naming(base + ["--model", good], bad, capsys)


    def test_span_overflow_names_the_file(self, tmp_path, capsys):
        # Values of +-1e308 span more than the float64 maximum, so min-max
        # cannot rescale them; the error names the model or warm start.
        manifest = write_models(tmp_path, [None] * 3, n=2, m=2)
        wide = np.array([[-1e308, 1e308], [1e308, -1e308]])
        out = tmp_path / "f.npy"
        argv = ["ensemble", "--manifest", str(manifest), "--out", str(out)]
        for position in (1, 2):
            write_matrix(wide, tmp_path / f"m{position}.npy")
            assert_rejects_naming(argv, tmp_path / f"m{position}.npy", capsys)
            assert not out.exists()
            write_matrix(np.eye(2), tmp_path / f"m{position}.npy")
        write_matrix(wide, tmp_path / "init.npy")
        rc = run_cli(argv + ["--init-matrix", str(tmp_path / "init.npy")])
        err = capsys.readouterr().err
        assert rc == 1 and not out.exists()
        assert f"{tmp_path / 'init.npy'}: cannot min-max rescale: the span" in err
        assert "Traceback" not in err and "warning" not in err


def count_finite_scans(monkeypatch) -> Counter:
    """Count ``_as_matrix`` calls, the finite scans, by the name each gives its matrix."""
    calls = Counter()
    scan = rankfuse.matrix_ops._as_matrix

    def counted(data, what):
        calls[what] += 1
        return scan(data, what)

    monkeypatch.setattr(rankfuse.matrix_ops, "_as_matrix", counted)
    monkeypatch.setattr(rankfuse.io_files, "_as_matrix", counted)
    return calls


def record_loads(monkeypatch) -> list:
    """Paths passed to the CLI's ``load_matrix``, in call order."""
    loads = []
    load = rankfuse.cli.load_matrix

    def recorded(path, *args):
        loads.append(str(path))
        return load(path, *args)

    monkeypatch.setattr(rankfuse.cli, "load_matrix", recorded)
    return loads


def write_models(tmp_path, shapes, n=4, m=5):
    """A manifest over array models of the given shapes (None: n x m), named m<i>.npy."""
    rng = np.random.default_rng(17)
    names = []
    for i, shape in enumerate(shapes):
        write_matrix(rng.random(shape or (n, m)), tmp_path / f"m{i}.npy")
        names.append(f"m{i}")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "n_queries": n, "n_gallery": m, "relevant": [[q] for q in range(n)],
        "models": [{"name": x, "path": f"{x}.npy"} for x in names],
    }))
    return manifest


class TestStreamedEnsemble:
    """``ensemble`` checks every file up front and holds one array model at a time."""

    def test_wrong_shape_named_before_any_payload_is_read(self, tmp_path, capsys, monkeypatch):
        loads = record_loads(monkeypatch)
        out = tmp_path / "f.npy"
        for position in range(3):
            shapes = [None] * 3
            shapes[position] = (4, 6)
            manifest = write_models(tmp_path, shapes)
            argv = ["ensemble", "--manifest", str(manifest), "--out", str(out)]
            assert_rejects_naming(argv, tmp_path / f"m{position}.npy", capsys)
            assert loads == [] and not out.exists()
            # eval checks its scores against the manifest the same way.
            scores = tmp_path / f"m{position}.npy"
            assert_rejects_naming(["eval", "--scores", str(scores), "--gt", str(manifest)], scores, capsys)
            assert loads == []
        manifest = write_models(tmp_path, [None] * 3)
        write_matrix(np.eye(3), tmp_path / "init.npy")
        argv = ["ensemble", "--manifest", str(manifest), "--out", str(out),
                "--init-matrix", str(tmp_path / "init.npy")]
        assert_rejects_naming(argv, tmp_path / "init.npy", capsys)
        assert loads == [] and not out.exists()
        # A file cut short is caught from its size, before any load too.
        cut = tmp_path / "m2.npy"
        cut.write_bytes(cut.read_bytes()[:-8])
        assert_rejects_naming(argv[:-2], cut, capsys)
        assert loads == [] and not out.exists()

    def test_csv_models_are_read_up_front(self, tmp_path, capsys, monkeypatch):
        manifest = write_models(tmp_path, [None] * 3)
        doc = json.loads(manifest.read_text())
        doc["models"][1] = {"name": "m1", "path": "m1.csv", "format": "csv"}
        manifest.write_text(json.dumps(doc))
        out = tmp_path / "f.npy"
        argv = ["ensemble", "--manifest", str(manifest), "--out", str(out)]
        # A CSV model of the wrong shape in position 2.
        write_matrix(np.ones((4, 6)), tmp_path / "m1.csv", "csv")
        assert_rejects_naming(argv, tmp_path / "m1.csv", capsys)
        assert not out.exists()
        # Of the right shape, it is parsed before the array models are loaded
        # and fuses to the same bytes as its array twin.
        write_matrix(load_matrix(tmp_path / "m1.npy"), tmp_path / "m1.csv", "csv")
        loads = record_loads(monkeypatch)
        assert run_cli(argv) == 0
        assert loads == [str(tmp_path / name) for name in ("m1.csv", "m0.npy", "m2.npy")]
        doc["models"][1] = {"name": "m1", "path": "m1.npy"}
        manifest.write_text(json.dumps(doc))
        twin = tmp_path / "twin.npy"
        assert run_cli(["ensemble", "--manifest", str(manifest), "--out", str(twin)]) == 0
        capsys.readouterr()
        assert out.read_bytes() == twin.read_bytes()

    def test_model_from_a_pipe_is_read_up_front(self, tmp_path, capsys):
        manifest = write_models(tmp_path, [None] * 2)
        extra = tmp_path / "extra.npy"
        write_matrix(np.random.default_rng(3).random((4, 5)), extra)
        base = ["ensemble", "--manifest", str(manifest), "--grid", "0,0.5,0.9"]
        assert run_cli(base + ["--model", str(extra), "--out", str(tmp_path / "a.npy")]) == 0
        r, w = os.pipe()
        try:
            os.write(w, extra.read_bytes())
            os.close(w)
            assert run_cli(base + ["--model", f"/dev/fd/{r}", "--out", str(tmp_path / "b.npy")]) == 0
        finally:
            os.close(r)
        assert capsys.readouterr().err == ""
        assert (tmp_path / "a.npy").read_bytes() == (tmp_path / "b.npy").read_bytes()

    def test_each_file_scanned_once(self, tmp_path, capsys, monkeypatch):
        # ensemble, eval, select and sim hand the checked arrays on.
        manifest = write_models(tmp_path, [None] * 2)
        doc = json.loads(manifest.read_text())
        write_matrix(load_matrix(tmp_path / "m1.npy"), tmp_path / "m1.csv", "csv")
        doc["models"][1] = {"name": "m1", "path": "m1.csv", "format": "csv"}
        manifest.write_text(json.dumps(doc))
        write_matrix(np.random.default_rng(4).random((4, 5)), tmp_path / "extra.npy")
        write_matrix(np.random.default_rng(5).random((4, 5)), tmp_path / "init.npy")
        files = [str(tmp_path / name) for name in ("extra.npy", "m0.npy", "m1.csv", "init.npy")]
        out = str(tmp_path / "f.npy")
        # Written before the count starts: write_matrix scans a plain array.
        bank = str(tmp_path / "bank.npy")
        write_matrix(np.random.default_rng(6).random((5, 3)), bank)
        calls = count_finite_scans(monkeypatch)
        assert run_cli(["ensemble", "--manifest", str(manifest), "--out", out,
                        "--model", files[0], "--init-matrix", files[3]]) == 0
        # Each input once, and the fused result once.
        assert calls == Counter({**{f: 1 for f in files}, "score matrix": 1})
        calls.clear()
        for scores in (out, files[2]):
            assert run_cli(["eval", "--scores", scores, "--gt", str(manifest)]) == 0
            assert calls == Counter({scores: 1})
            calls.clear()
        argv = ["select", "--features", bank, "--guidance", out, "--k", "2",
                "--out", str(tmp_path / "top.csv")]
        assert run_cli(argv) == 0
        assert calls == Counter({bank: 1, out: 1})
        calls.clear()
        queries, gallery = files[0], files[3]
        argv = ["sim", "--queries", queries, "--gallery", gallery, "--out", str(tmp_path / "s.npy")]
        assert run_cli(argv) == 0
        assert calls == Counter({queries: 1, gallery: 1})
        capsys.readouterr()

    def test_peak_memory_holds_one_model_at_a_time(self, tmp_path, capsys):
        n, m = 500, 2000
        manifest = write_models(tmp_path, [None] * 4, n, m)
        write_matrix(np.random.default_rng(18).random((n, m)), tmp_path / "init.npy")
        argv = ["ensemble", "--manifest", str(manifest), "--out", str(tmp_path / "f.npy")]
        # From zeros, then from a warm start, which is let go once step 1
        # has copied it into the accumulator.
        for extra in ([], ["--init-matrix", str(tmp_path / "init.npy")]):
            tracemalloc.start()
            try:
                assert run_cli(argv + extra) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            capsys.readouterr()
            # The accumulator, the model being read and its rescaled copy; the
            # four models together would be 4 matrices on their own.
            assert peak < 3.5 * n * m * 8


class TestSelectCommand:
    def test_writes_index_rows(self, tmp_path, capsys):
        write_matrix(np.eye(3), tmp_path / "f.npy")
        write_matrix(np.array([[0.2, 0.9, 0.5]]), tmp_path / "g.npy")
        rc = run_cli([
            "select",
            "--features", str(tmp_path / "f.npy"),
            "--guidance", str(tmp_path / "g.npy"),
            "--k", "2",
            "--out", str(tmp_path / "sel.csv"),
        ])
        assert rc == 0
        capsys.readouterr()
        assert (tmp_path / "sel.csv").read_text() == "1,2\n"

    def test_output_bytes_pinned(self, tmp_path, capsys):
        # Ties between 0.9s and between 0.0 and -0.0 go to the lower index.
        write_matrix(np.eye(4), tmp_path / "f.npy")
        guidance = np.array([[0.1, 0.4, 0.4, 0.3], [0.9, 0.0, -0.0, 0.9], [0.2, 0.3, 0.1, 0.5]])
        write_matrix(guidance, tmp_path / "g.npy")
        argv = ["select", "--features", str(tmp_path / "f.npy"), "--guidance", str(tmp_path / "g.npy"),
                "--k", "3", "--out", str(tmp_path / "sel.csv")]
        assert run_cli(argv) == 0
        assert (tmp_path / "sel.csv").read_bytes() == b"1,2,3\n0,3,1\n3,1,0\n"
        # 120 tie-heavy rows at k = 10: the bytes the per-index writer made.
        rng = np.random.default_rng(41)
        write_matrix(np.eye(120), tmp_path / "f.npy")
        write_matrix(rng.integers(0, 6, (120, 120)).astype(float), tmp_path / "g.npy")
        argv[argv.index("--k") + 1] = "10"
        assert run_cli(argv) == 0
        capsys.readouterr()
        data = (tmp_path / "sel.csv").read_bytes()
        assert len(data) == 3399
        assert data.startswith(b"1,9,12,14,20,23,31,33,34,42\n7,14,16,17,21,28,43,46,53,74\n")
        assert hashlib.sha256(data).hexdigest() == (
            "1f46bc0f4b566f06978ed3f4365c18ded9be66d27aca90657459e9691d599916"
        )

    def test_synth_shortlist_bytes_pinned(self, tmp_path, capsys):
        # A 2000 x 2000 cosine guidance from synth embeddings at k = 10:
        # every row block of the top-k kernel, full-size rows.
        text, image, _ = gen_paired_embeddings(
            SynthConfig(n_items=2000, dim=64, noise_sigma=1.0, seed=7)
        )
        write_matrix(text, tmp_path / "text.npy")
        write_matrix(image, tmp_path / "image.npy")
        assert run_cli(["sim", "--queries", str(tmp_path / "text.npy"),
                        "--gallery", str(tmp_path / "image.npy"), "--out", str(tmp_path / "g.npy")]) == 0
        assert run_cli(["select", "--features", str(tmp_path / "image.npy"),
                        "--guidance", str(tmp_path / "g.npy"), "--k", "10",
                        "--out", str(tmp_path / "sel.csv")]) == 0
        capsys.readouterr()
        data = (tmp_path / "sel.csv").read_bytes()
        assert data.startswith(b"0,871,660,1256,953,174,1161,1242,1467,757\n")
        assert hashlib.sha256(data).hexdigest() == (
            "6791fed5075b7ad4ee556f9a386803a9cdcb3d6417ffe63eef6b5240980b3eea"
        )

    @pytest.mark.parametrize("n", [1, 7])
    def test_index_widths_bytes(self, n, tmp_path, capsys):
        # Row q's top seven are 0, 9, 10, 99, 100, 999 and 1000 rotated by
        # q, so the rows' tops at k = 1, and each row at k > 1, cross every
        # digit width.
        rng = np.random.default_rng(8)
        m = 1001
        widths = np.array([0, 9, 10, 99, 100, 999, 1000])
        guidance = rng.random((n, m))
        for q in range(n):
            guidance[q, np.roll(widths, q)] = 3.0 - np.arange(len(widths)) / 10
        write_matrix(rng.standard_normal((m, 2)), tmp_path / "f.npy")
        write_matrix(guidance, tmp_path / "g.npy")
        for k in (1, 3, 7, 12):
            assert run_cli(["select", "--features", str(tmp_path / "f.npy"), "--guidance", str(tmp_path / "g.npy"),
                            "--k", str(k), "--out", str(tmp_path / "sel.csv")]) == 0
            capsys.readouterr()
            expected = "".join(",".join(map(str, row)) + "\n" for row in brute_force_topk(guidance, k).tolist())
            assert (tmp_path / "sel.csv").read_bytes() == expected.encode()
        assert set(brute_force_topk(guidance, 1 if n == 7 else 7).ravel()) == set(widths)

    def test_tie_heavy_guidance_matches_oracle(self, tmp_path, capsys):
        # Three integer levels, all-equal rows and rows of 0.0 mixed with
        # -0.0, read from an array file and from CSV.
        rng = np.random.default_rng(12)
        guidance = rng.integers(0, 3, (30, 40)).astype(float)
        guidance[::4] = 1.0
        guidance[1::4] = rng.choice([0.0, -0.0], (8, 40))
        write_matrix(np.eye(40), tmp_path / "f.npy")
        for name, fmt in (("g.npy", "array"), ("g.csv", "csv")):
            write_matrix(guidance, tmp_path / name, fmt)
            for k in (7, 40):
                rc = run_cli([
                    "select",
                    "--features", str(tmp_path / "f.npy"),
                    "--guidance", str(tmp_path / name),
                    "--k", str(k),
                    "--out", str(tmp_path / "sel.csv"),
                ])
                assert rc == 0
                capsys.readouterr()
                rows = [
                    [int(c) for c in line.split(",")]
                    for line in (tmp_path / "sel.csv").read_text().splitlines()
                ]
                np.testing.assert_array_equal(rows, brute_force_topk(guidance, k))

    def test_peak_memory_near_the_guidance(self, tmp_path, capsys):
        n, m = 600, 3000
        rng = np.random.default_rng(13)
        write_matrix(rng.standard_normal((m, 4)), tmp_path / "f.npy")
        write_matrix(rng.random((n, m)), tmp_path / "g.npy")
        argv = ["select", "--features", str(tmp_path / "f.npy"), "--guidance", str(tmp_path / "g.npy"),
                "--k", "10", "--out", str(tmp_path / "sel.csv")]
        tracemalloc.start()
        try:
            assert run_cli(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        # The loaded guidance and one row block of top-k temporaries; a
        # whole-matrix index array alone would add another n x m int64.
        assert peak < 1.25 * n * m * 8

    def test_shape_mismatch_names_guidance(self, tmp_path, capsys):
        write_matrix(np.eye(2), tmp_path / "f.npy")
        write_matrix(np.array([[0.2, 0.9, 0.5]]), tmp_path / "g.npy")
        argv = [
            "select",
            "--features", str(tmp_path / "f.npy"),
            "--guidance", str(tmp_path / "g.npy"),
            "--k", "1",
            "--out", str(tmp_path / "sel.csv"),
        ]
        assert_rejects_naming(argv, tmp_path / "g.npy", capsys)


class TestLhpSample:
    def test_reproducible_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert run_cli(["lhp-sample", "--seed", "9", "--count", "50", "--out", str(a)]) == 0
        assert run_cli(["lhp-sample", "--seed", "9", "--count", "50", "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().splitlines()
        assert len(lines) == 50
        assert all(line.split()[1] in ("local", "global") for line in lines)

    def test_seed_changes_sequence(self, tmp_path, capsys):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        run_cli(["lhp-sample", "--seed", "1", "--count", "20", "--out", str(a)])
        run_cli(["lhp-sample", "--seed", "2", "--count", "20", "--out", str(b)])
        capsys.readouterr()
        assert a.read_bytes() != b.read_bytes()

    def test_negative_seed_rejected(self, capsys):
        assert_rejects_naming(["lhp-sample", "--seed", "-1"], "--seed", capsys)

    def test_branch_consistent_with_value(self, capsys):
        assert run_cli(["lhp-sample", "--seed", "3", "--count", "200"]) == 0
        out = capsys.readouterr().out
        for line in out.splitlines():
            value, branch = line.split()
            assert (float(value) > 0.5) == (branch == "local")


class TestLossesCheck:
    def test_all_checks_pass(self, capsys):
        assert run_cli(["losses-check", "--instances", "10"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "18/18 checks passed" in out

    def test_negative_seed_rejected(self, capsys):
        assert_rejects_naming(["losses-check", "--seed", "-1"], "--seed", capsys)

    def test_no_instances_rejected(self, capsys):
        # With no instance the gradient checks would pass without checking.
        for n in ("0", "-1"):
            assert_rejects_naming(["losses-check", "--instances", n], "--instances", capsys)


class TestSynthCommand:
    def test_writes_consistent_instance(self, tmp_path, capsys):
        out = tmp_path / "inst"
        rc = run_cli([
            "synth", "--out-dir", str(out), "--seed", "3",
            "--n-items", "12", "--dim", "6", "--skills", "0.5,0.9",
        ])
        assert rc == 0
        capsys.readouterr()
        text = load_matrix(out / "text.npy")
        image = load_matrix(out / "image.npy")
        assert text.shape == image.shape == (12, 6)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["n_queries"] == manifest["n_gallery"] == 12
        assert [m["name"] for m in manifest["models"]] == ["model-0", "model-1"]
        assert load_matrix(out / "model-1.npy").shape == (12, 12)

    # The write that fails: text.npy, model-1.npy (the fourth matrix), or the manifest.
    @pytest.mark.parametrize("writer, failing", [("write_matrix", 1), ("write_matrix", 4), ("write_manifest", 1)])
    def test_failed_write_keeps_the_old_instance(self, writer, failing, tmp_path, monkeypatch, capsys):
        out = tmp_path / "inst"
        args = ["--n-items", "12", "--dim", "6", "--skills", "0.5,0.9"]
        assert run_cli(["synth", "--out-dir", str(out), "--seed", "3"] + args) == 0
        before = {name: (out / name).read_bytes() for name in os.listdir(out)}
        assert sorted(before) == ["image.npy", "manifest.json", "model-0.npy", "model-1.npy", "text.npy"]
        calls = []
        write = getattr(rankfuse.cli, writer)

        def cut(*args):
            calls.append(args)
            if len(calls) < failing:
                return write(*args)
            # Some bytes reach the file, then the disk fills.
            with builtins.open(args[1] if writer == "write_matrix" else args[0], "w") as fh:
                fh.write("cut")
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(rankfuse.cli, writer, cut)
        assert run_cli(["synth", "--out-dir", str(out), "--seed", "4"] + args) == 1
        assert "No space left on device" in capsys.readouterr().err
        monkeypatch.undo()
        assert {name: (out / name).read_bytes() for name in os.listdir(out)} == before
        assert run_cli(["synth", "--out-dir", str(out), "--seed", "4"] + args) == 0
        assert sorted(os.listdir(out)) == sorted(before)
        assert (out / "text.npy").read_bytes() != before["text.npy"]

    def test_reproducible_bytes(self, tmp_path, capsys):
        args = ["--seed", "4", "--n-items", "10", "--dim", "4", "--skills", "0.7"]
        run_cli(["synth", "--out-dir", str(tmp_path / "one")] + args)
        run_cli(["synth", "--out-dir", str(tmp_path / "two")] + args)
        capsys.readouterr()
        for name in ("text.npy", "image.npy", "model-0.npy", "manifest.json"):
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()
