import json
import os
import re
import time
import tracemalloc

import numpy as np
import pytest

from rankfuse.cli import run_cli
from rankfuse.errors import FormatError, ValidationError
from rankfuse.io_files import (
    ModelEntry,
    array_shape,
    load_ground_truth,
    load_manifest,
    load_matrix,
    write_manifest,
    write_matrix,
)
from rankfuse.metrics import GroundTruth

MAGIC = b"\x93NUMPY"


def assert_cli_rejects(manifest, tmp_path, capsys):
    """``rankfuse ensemble`` on a bad manifest exits 1 naming it, without a traceback."""
    rc = run_cli(["ensemble", "--manifest", str(manifest), "--out", str(tmp_path / "f.npy")])
    err = capsys.readouterr().err
    assert rc == 1
    assert str(manifest) in err
    assert "Traceback" not in err


def npy_bytes(descr="<f8", fortran=False, shape=(1, 1), payload=None, version=(1, 0)):
    """Hand-assemble an array file for malformed-input tests."""
    header = "{'descr': %r, 'fortran_order': %s, 'shape': %r, }" % (
        descr,
        fortran,
        shape,
    )
    pad = (-(10 + len(header) + 1)) % 64
    header = (header + " " * pad + "\n").encode("latin-1")
    if payload is None:
        payload = b"\x00" * (8 * int(np.prod(shape)))
    return MAGIC + bytes(version) + len(header).to_bytes(2, "little") + header + payload


class TestArrayFormat:
    def test_roundtrip_1x1_zero(self, tmp_path):
        p = tmp_path / "z.npy"
        write_matrix(np.array([[0.0]]), p)
        np.testing.assert_array_equal(load_matrix(p), [[0.0]])

    def test_roundtrip_exact_bytes(self, tmp_path):
        rng = np.random.default_rng(0)
        p = tmp_path / "m.npy"
        for _ in range(20):
            arr = rng.standard_normal((3, 3))
            write_matrix(arr, p)
            assert load_matrix(p).tobytes() == arr.tobytes()

    def test_numpy_interop_both_ways(self, tmp_path):
        arr = np.random.default_rng(1).random((4, 6))
        ours = tmp_path / "ours.npy"
        theirs = tmp_path / "theirs.npy"
        write_matrix(arr, ours)
        np.testing.assert_array_equal(np.load(ours), arr)
        np.save(theirs, arr)
        np.testing.assert_array_equal(load_matrix(theirs), arr)

    def test_float32_widened(self, tmp_path):
        # float32 is widened and float64 kept; either way the result is an
        # owned, writable float64 array.
        for dtype in (np.float32, np.float64):
            arr = np.random.default_rng(2).random((3, 2)).astype(dtype)
            p = tmp_path / "f.npy"
            np.save(p, arr)
            out = load_matrix(p)
            assert out.dtype == np.float64
            assert out.flags.writeable and out.flags.owndata
            np.testing.assert_array_equal(out, arr.astype(np.float64))

    def test_bad_magic_offset_0(self, tmp_path):
        p = tmp_path / "bad.npy"
        p.write_bytes(b"JUNKJUNKJUNK")
        with pytest.raises(FormatError, match="offset 0"):
            load_matrix(p)

    def test_unsupported_version_offset_6(self, tmp_path):
        p = tmp_path / "v2.npy"
        p.write_bytes(npy_bytes(version=(2, 0)))
        with pytest.raises(FormatError, match="offset 6"):
            load_matrix(p)

    def test_fortran_order_rejected(self, tmp_path):
        p = tmp_path / "fortran.npy"
        p.write_bytes(npy_bytes(fortran=True))
        with pytest.raises(FormatError, match="row-major"):
            load_matrix(p)

    def test_fortran_order_rejected_from_numpy_writer(self, tmp_path):
        p = tmp_path / "fortran2.npy"
        np.save(p, np.asfortranarray(np.random.default_rng(3).random((3, 4))))
        with pytest.raises(FormatError, match="fortran_order"):
            load_matrix(p)

    def test_unsupported_dtype(self, tmp_path):
        p = tmp_path / "ints.npy"
        p.write_bytes(npy_bytes(descr="<i8"))
        with pytest.raises(FormatError, match="dtype"):
            load_matrix(p)

    def test_non_2d_shape_rejected(self, tmp_path, capsys):
        p = tmp_path / "vec.npy"
        np.save(p, np.zeros(5))
        with pytest.raises(FormatError, match="2-D"):
            load_matrix(p)
        # Nor is such an array written, in either format.
        for fmt in ("array", "csv"):
            with pytest.raises(ValidationError, match=r"can only write 2-D matrices, got shape \(5,\)"):
                write_matrix(np.zeros(5), tmp_path / "out", fmt)
        assert not (tmp_path / "out").exists()
        # Boolean extents are not integers, even though bool subclasses int.
        p.write_bytes(npy_bytes(shape=(True, True)))
        with pytest.raises(FormatError, match="2-D"):
            load_matrix(p)
        gt = tmp_path / "gt.json"
        write_manifest(gt, GroundTruth.identity(1))
        assert run_cli(["eval", "--scores", str(p), "--gt", str(gt)]) == 1
        err = capsys.readouterr().err
        assert "2-D" in err
        assert "Traceback" not in err
        # A header that parses to a list, not a dict.
        header = b"[1, 1]" + b" " * 47 + b"\n"
        p.write_bytes(MAGIC + bytes((1, 0)) + len(header).to_bytes(2, "little") + header)
        with pytest.raises(FormatError, match="header at offset 10 is not a dict"):
            load_matrix(p)
        assert run_cli(["eval", "--scores", str(p), "--gt", str(gt)]) == 1
        err = capsys.readouterr().err
        assert f"{p}: header at offset 10 is not a dict" in err
        assert "Traceback" not in err

    def test_payload_length_mismatch(self, tmp_path):
        p = tmp_path / "short.npy"
        p.write_bytes(npy_bytes(shape=(2, 2), payload=b"\x00" * 7))
        with pytest.raises(FormatError, match="payload"):
            load_matrix(p)

    def test_payload_too_long(self, tmp_path):
        p = tmp_path / "long.npy"
        p.write_bytes(npy_bytes(shape=(2, 2), payload=b"\x00" * 33))
        expected = r"payload at offset 128 is 33 bytes, header shape \(2, 2\) implies 32"
        with pytest.raises(FormatError, match=expected):
            load_matrix(p)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_payload_read_from_a_pipe(self, tmp_path):
        # A pipe has no size up front; its payload length is checked as read.
        arr = np.arange(6.0).reshape(2, 3)
        write_matrix(arr, tmp_path / "m.npy")
        good = (tmp_path / "m.npy").read_bytes()
        cases = ((good, None), (good + b"\x00", "is 49 bytes"), (good[:-1], "is 47 bytes"))
        # A header shape far beyond memory, with a one-element payload: no
        # allocation failure escapes, whether or not the allocation succeeds.
        huge = npy_bytes(shape=(10**6, 10**6), payload=b"\x00" * 8)
        cases += ((huge, r"header shape \(1000000, 1000000\)"),)
        for payload, error in cases:
            r, w = os.pipe()
            try:
                os.write(w, payload)
                os.close(w)
                if error is None:
                    np.testing.assert_array_equal(load_matrix(f"/dev/fd/{r}"), arr)
                else:
                    with pytest.raises(FormatError, match=error):
                        load_matrix(f"/dev/fd/{r}")
            finally:
                os.close(r)

    def test_header_read_alone_rejects_what_the_load_rejects(self, tmp_path):
        p = tmp_path / "m.npy"
        bad = [b"JUNKJUNKJUNK", npy_bytes(version=(2, 0)), npy_bytes(fortran=True),
               npy_bytes(descr="<i8"), npy_bytes(shape=(True, True)), npy_bytes()[:20],
               npy_bytes(shape=(2, 2), payload=b"\x00" * 33)]
        for data in bad:
            p.write_bytes(data)
            with pytest.raises(FormatError) as from_load:
                load_matrix(p)
            with pytest.raises(FormatError) as from_header:
                array_shape(p)
            assert str(from_header.value) == str(from_load.value)
        # The header gives the shape; a non-finite payload waits for the load.
        arr = np.zeros((2, 3))
        arr[1, 2] = np.nan
        np.save(p, arr)
        assert array_shape(p) == (2, 3)
        with pytest.raises(ValidationError, match=r"\(1, 2\)"):
            load_matrix(p)

    def test_truncated_header(self, tmp_path):
        p = tmp_path / "trunc.npy"
        full = npy_bytes()
        p.write_bytes(full[:20])
        with pytest.raises(FormatError, match="offset 10"):
            load_matrix(p)

    def test_nan_payload_names_coordinates(self, tmp_path):
        p = tmp_path / "nan.npy"
        arr = np.zeros((2, 2))
        arr[1, 1] = np.nan
        np.save(p, arr)
        with pytest.raises(ValidationError, match=re.escape(str(p)) + r".*\(1, 1\)"):
            load_matrix(p)
        # The CSV reader names the file and the coordinate the same way.
        p = tmp_path / "inf.csv"
        p.write_text("1,2\n3,inf\n")
        with pytest.raises(ValidationError, match=re.escape(str(p)) + r".*\(1, 1\)"):
            load_matrix(p, "csv")


class TestCsvFormat:
    def test_minimal_parse(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1,2\n3,4\n")
        np.testing.assert_array_equal(load_matrix(p, "csv"), [[1, 2], [3, 4]])

    def test_write_half(self, tmp_path):
        p = tmp_path / "half.csv"
        write_matrix(np.array([[0.5]]), p, "csv")
        assert p.read_text() == "0.5\n"

    def test_roundtrip_values(self, tmp_path):
        rng = np.random.default_rng(4)
        arr = rng.standard_normal((5, 3))
        p = tmp_path / "r.csv"
        write_matrix(arr, p, "csv")
        np.testing.assert_array_equal(load_matrix(p, "csv"), arr)

    def test_ragged_row_names_line(self, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text("1,2\n3,4,5\n")
        with pytest.raises(FormatError, match="line 2"):
            load_matrix(p, "csv")

    def test_bad_token_names_line(self, tmp_path):
        p = tmp_path / "tok.csv"
        p.write_text("1,2\n3,frog\n")
        with pytest.raises(FormatError, match="line 2"):
            load_matrix(p, "csv")

    def test_peak_memory_near_the_result(self, tmp_path):
        rng = np.random.default_rng(5)
        arr = rng.standard_normal((500, 1000))
        p = tmp_path / "big.csv"
        write_matrix(arr, p, "csv")
        tracemalloc.start()
        try:
            loaded = load_matrix(p, "csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(loaded, arr)
        assert loaded.dtype == np.float64
        assert loaded.flags.owndata and loaded.flags.writeable
        # Rows of Python floats would take about five times the result.
        assert peak < 3 * loaded.nbytes

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(FormatError, match="no data"):
            load_matrix(p, "csv")

    def test_unknown_format(self, tmp_path):
        with pytest.raises(FormatError, match="unknown"):
            load_matrix(tmp_path / "x", "parquet")
        with pytest.raises(FormatError, match="unknown matrix format 'parquet' \\(use 'array' or 'csv'\\)"):
            write_matrix(np.eye(2), tmp_path / "x", "parquet")
        assert not (tmp_path / "x").exists()


class TestManifests:
    def test_roundtrip(self, tmp_path):
        p = tmp_path / "manifest.json"
        gt = GroundTruth(relevant=({0}, {1, 2}), gallery_size=3)
        write_manifest(p, gt)
        loaded = load_ground_truth(p)
        assert loaded.relevant == gt.relevant
        assert loaded.gallery_size == 3

    def test_mapping_form(self, tmp_path):
        p = tmp_path / "manifest.json"
        p.write_text(json.dumps({"n_queries": 2, "n_gallery": 2, "relevant": {"0": [0], "1": [1]}}))
        gt = load_ground_truth(p)
        assert gt.relevant == (frozenset({0}), frozenset({1}))

    def test_multi_relevant_set(self, tmp_path):
        p = tmp_path / "manifest.json"
        p.write_text(json.dumps({"n_queries": 1, "n_gallery": 3, "relevant": [[1, 2]]}))
        assert load_ground_truth(p).relevant[0] == frozenset({1, 2})

    def test_out_of_range_index_names_query(self, tmp_path, capsys):
        p = tmp_path / "manifest.json"
        # Out of range, then a bare index, a fractional index and a boolean.
        for relevant in ([[5]], [1, 0], [[1.7], [0]], [[True], [0]]):
            doc = {"n_queries": len(relevant), "n_gallery": 3, "relevant": relevant}
            p.write_text(json.dumps(doc))
            with pytest.raises(ValidationError, match=re.escape(f"{p}: query 0")):
                load_ground_truth(p)
            assert_cli_rejects(p, tmp_path, capsys)

    def test_invalid_json_names_line(self, tmp_path):
        p = tmp_path / "manifest.json"
        p.write_text('{"n_queries": 1,\n  broken')
        with pytest.raises(FormatError, match="line 2"):
            load_ground_truth(p)

    def test_undecodable_or_too_deep_json_rejected(self, tmp_path, capsys):
        p = tmp_path / "manifest.json"
        for payload, match in (
            (
                b'{"n_queries": 1,\r\n "n_gallery": \xff1}',
                "line 2, column 15: byte 0xff is not valid UTF-8",
            ),
            (b"[" * 100000, "JSON nested too deeply"),
        ):
            p.write_bytes(payload)
            with pytest.raises(FormatError, match=re.escape(f"{p}: {match}")):
                load_ground_truth(p)
            assert_cli_rejects(p, tmp_path, capsys)

    def test_missing_key(self, tmp_path, capsys):
        p = tmp_path / "manifest.json"
        write_matrix(np.eye(1), tmp_path / "m.npy")
        base = {"n_queries": 1, "n_gallery": 1, "relevant": [[0]]}
        rel3 = {"0": [0], "1": [1], "2": [2]}
        # A missing count, then counts that are not positive integers,
        # relevant-map keys that name no query (past the last one, and a
        # zero-padded spelling of query 1), a 'models' value that is not a
        # list, and model entries whose path is not a string, whose format
        # is not a known one or whose name is not a string.
        for doc, key in (
            ({"n_queries": 1, "relevant": [[0]]}, "n_gallery"),
            ({"n_queries": "x", "n_gallery": 1, "relevant": [[0]]}, "n_queries"),
            ({"n_queries": 1, "n_gallery": 1.5, "relevant": [[0]]}, "n_gallery"),
            ({"n_queries": True, "n_gallery": 1, "relevant": [[0]]}, "n_queries"),
            ({"n_queries": 1, "n_gallery": 0, "relevant": [[0]]}, "n_gallery"),
            ({"n_queries": 3, "n_gallery": 3, "relevant": {**rel3, "9": [0]}}, "key '9'"),
            ({"n_queries": 3, "n_gallery": 3, "relevant": {**rel3, "01": [0]}}, "key '01'"),
            ({**base, "models": 5}, "'models'"),
            ({**base, "models": None}, "'models'"),
            ({**base, "models": [{"path": 5}]}, r"models\[0\]"),
            ({**base, "models": [{"path": None}]}, r"models\[0\]"),
            ({**base, "models": [{"path": "m.npy", "format": 5}]}, r"models\[0\]"),
            ({**base, "models": [{"path": "m.npy", "format": "bogus"}]}, r"models\[0\]"),
            ({**base, "models": [{"path": "m.npy", "name": None}]}, r"models\[0\]"),
            ({**base, "models": [{"path": "m.npy", "name": 5}]}, r"models\[0\]"),
            # A top level that is not an object, a relevant list one short,
            # and a relevant map over 10**12 queries, rejected without a
            # key list of that length.
            ([base], "manifest must be a JSON object"),
            ({"n_queries": 2, "n_gallery": 1, "relevant": [[0]]},
             "relevant list has 1 entries for 2 queries"),
            ({"n_queries": 10**12, "n_gallery": 1, "relevant": {"5": [0]}},
             "relevant map is missing query 0"),
        ):
            p.write_text(json.dumps(doc))
            with pytest.raises(FormatError, match=key):
                load_ground_truth(p)
            assert_cli_rejects(p, tmp_path, capsys)
            start = time.perf_counter()
            rc = run_cli(["eval", "--scores", str(tmp_path / "m.npy"), "--gt", str(p)])
            assert time.perf_counter() - start < 1.0
            err = capsys.readouterr().err
            assert rc == 1
            assert str(p) in err
            assert "Traceback" not in err

    def test_model_paths_checked_at_load(self, tmp_path, capsys):
        p = tmp_path / "manifest.json"
        write_manifest(
            p, GroundTruth.identity(2), [ModelEntry(name="ghost", path="missing.npy")]
        )
        with pytest.raises(ValidationError, match="missing.npy"):
            load_manifest(p)
        # The ground truth alone does not look at the model files.
        assert load_ground_truth(p).relevant == GroundTruth.identity(2).relevant
        # A path naming a directory is rejected, naming the manifest and entry.
        for path in ("", ".", "/"):
            write_manifest(p, GroundTruth.identity(2), [ModelEntry(name="d", path=path)])
            with pytest.raises(ValidationError, match=re.escape(f"{p}: models[0] path is a directory")):
                load_manifest(p)
            assert_cli_rejects(p, tmp_path, capsys)
        # A pipe is not a directory, and is allowed.
        fifo = tmp_path / "pipe.npy"
        os.mkfifo(fifo)
        write_manifest(p, GroundTruth.identity(2), [ModelEntry(name="f", path="pipe.npy")])
        assert [m.path for m in load_manifest(p)[1]] == [str(fifo)]

    def test_model_paths_resolved_relative(self, tmp_path):
        write_matrix(np.eye(2), tmp_path / "m.npy")
        p = tmp_path / "manifest.json"
        # A relative path, then an absolute one, which is kept as given.
        entries = [
            ModelEntry(name="m", path="m.npy"),
            ModelEntry(name="a", path=str(tmp_path / "m.npy")),
        ]
        write_manifest(p, GroundTruth.identity(2), entries)
        _, models = load_manifest(p)
        assert [m.path for m in models] == [str(tmp_path / "m.npy")] * 2
