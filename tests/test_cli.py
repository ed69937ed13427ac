import json

import numpy as np

from rankfuse.cli import run_cli
from rankfuse.io_files import load_matrix, write_manifest, write_matrix
from rankfuse.matrix_ops import EmbeddingMatrix, cosine_similarity
from rankfuse.metrics import GroundTruth
from test_matrix_ops import brute_force_topk


def write_gt(path, n, gallery=None):
    write_manifest(path, GroundTruth.identity(n) if gallery is None else gallery)


def assert_rejects_naming(argv, path, capsys):
    """The command exits 1 with ``path`` in its error and no traceback or warning."""
    rc = run_cli(argv)
    err = capsys.readouterr().err
    assert rc == 1
    assert str(path) in err
    assert "Traceback" not in err
    assert "warning" not in err


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

    def test_reproducible_bytes(self, tmp_path, capsys):
        args = ["--seed", "4", "--n-items", "10", "--dim", "4", "--skills", "0.7"]
        run_cli(["synth", "--out-dir", str(tmp_path / "one")] + args)
        run_cli(["synth", "--out-dir", str(tmp_path / "two")] + args)
        capsys.readouterr()
        for name in ("text.npy", "image.npy", "model-0.npy", "manifest.json"):
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()
