"""Seeded input fuzz through the CLI, and malformed matrices at the library's entry points.

Every case corrupts one input file of a small valid instance (a manifest, an
array file or a CSV file) with a seeded mutation, then runs ``eval``,
``ensemble`` or ``sim`` on it. Whatever the bytes, the command must exit 0
or 1, print no traceback, and on exit 1 name the corrupted file.

A second gate breaks the header or payload of a later model of a
three-model ``ensemble``, which checks every header before it loads any
model and then loads one model per step: each case must exit 1 naming the
file and write no output.

A third gate feeds each public entry point that takes a score or feature
matrix something other than a 2-D float64 array: nested lists, int arrays,
ragged lists, strings, and arrays of another shape. Numbers must be taken
as the float64 array they convert to, and anything else must end in a
``RankfuseError`` that names the argument; so must a float64 array with
no rows or no columns, which ``write_matrix`` must refuse, naming the path,
before it writes a file. It must refuse a plain matrix holding NaN or inf
the same way, naming the first such cell, and scan no wrapper. Every other
public entry point that takes an array (``write_matrix`` itself, the loss
batches, images, masks and ``TopKResult``) must end a ragged or non-numeric
input in a ``RankfuseError`` that names the argument or the path, and write
no file. A weight grid that is not a sequence of numbers must end in a
``ParameterError`` that names it.
"""

import json
import re

import numpy as np
import pytest

import rankfuse.cli
import rankfuse.io_files
from rankfuse.cli import run_cli
from rankfuse.ensemble import WeightGrid, iterative_ensemble, sweep_weight
from rankfuse.errors import ParameterError, RankfuseError, ShapeError, ValidationError
from rankfuse.io_files import write_matrix
from rankfuse.losses import ImageTensor, ItmBatch, MaskSpec, MlmBatch, mim_loss, mim_loss_grad
from rankfuse.matrix_ops import EmbeddingMatrix, ScoreMatrix, TopKResult, _finite, minmax_normalize, topk_rows
from rankfuse.metrics import GroundTruth, metrics_report
from rankfuse.selection import select_topk_features
from rankfuse.view_sampling import Branch, CropSpec, ViewDecision, apply_transform

N_QUERIES, N_GALLERY, DIM = 4, 5, 3
CASES_PER_TARGET = 60

# Values that are valid JSON but wrong somewhere in a manifest.
JSON_JUNK = [None, True, False, 0, -1, 1.5, 2**63, -(2**63) - 1, "x", "", [], {}, [[]], {"0": 1},
             float("nan"), float("inf"), 1e308]
# Cells that are not a finite decimal float, or not one cell.
CSV_JUNK = ["nan", "inf", "-inf", "1e999", "", " ", "0x10", "1_0", "é", "\x00", "1,2", "--1", "1e",
            "∞"]
# Bytes that cannot occur in UTF-8, or not at that position.
NOT_UTF8 = [b"\xff", b"\xfe", b"\x80", b"\xc3(", b"\xed\xa0\x80", b"\xf8\x88\x80\x80\x80", b"\xe9"]


def pick(rng, options):
    return options[int(rng.integers(0, len(options)))]


def byte_mutation(rng, data: bytes) -> bytes:
    """Flip a bit, overwrite, insert, delete, duplicate or truncate bytes."""
    n = len(data)
    i = int(rng.integers(0, n + 1))
    kind = int(rng.integers(0, 7))
    if kind == 0 and n:
        i = min(i, n - 1)
        return data[:i] + bytes([data[i] ^ (1 << int(rng.integers(0, 8)))]) + data[i + 1:]
    if kind == 1 and n:
        i = min(i, n - 1)
        return data[:i] + bytes([int(rng.integers(0, 256))]) + data[i + 1:]
    if kind == 2:
        return data[:i] + pick(rng, NOT_UTF8) + data[i:]
    if kind == 3:
        return data[:i] + bytes(rng.integers(0, 256, int(rng.integers(1, 9))).tolist()) + data[i:]
    if kind == 4:
        return data[:i] + data[i + int(rng.integers(1, 17)):]
    if kind == 5:
        j = int(rng.integers(0, n + 1))
        return data[:i] + data[min(i, j):max(i, j)] + data[i:]
    return data[:i]


def manifest_doc(model_path="model.npy"):
    return {
        "n_queries": N_QUERIES,
        "n_gallery": N_GALLERY,
        "relevant": [[q] for q in range(N_QUERIES)],
        "models": [{"name": "m", "path": model_path, "format": "array"}],
    }


def manifest_mutation(rng) -> bytes:
    """A manifest with one junk value, one dropped key, or corrupted bytes."""
    doc = manifest_doc()
    kind = int(rng.integers(0, 5))
    junk = pick(rng, JSON_JUNK)
    if kind == 0:
        doc[pick(rng, list(doc))] = junk
    elif kind == 1:
        del doc[pick(rng, list(doc))]
    elif kind == 2:
        rel = doc["relevant"]
        q = int(rng.integers(0, N_QUERIES))
        rel[q] = junk if rng.random() < 0.5 else [junk]
    elif kind == 3:
        doc["models"][0][pick(rng, ["name", "path", "format"])] = junk
    text = json.dumps(doc).encode()
    return byte_mutation(rng, text) if kind == 4 else text


def array_bytes(shape=(N_QUERIES, N_GALLERY), descr="<f8", fortran="False", payload=None):
    header = "{'descr': %r, 'fortran_order': %s, 'shape': %s, }" % (descr, fortran, shape)
    header = (header + " " * ((-(11 + len(header))) % 64) + "\n").encode("latin-1")
    if payload is None:
        payload = np.arange(1.0, 1.0 + N_QUERIES * N_GALLERY).astype("<f8").tobytes()
    return b"\x93NUMPY\x01\x00" + len(header).to_bytes(2, "little") + header + payload


def array_mutation(rng, rows, cols) -> bytes:
    """An array file with a spliced header, junk payload values, or corrupted bytes."""
    payload = rng.standard_normal((rows, cols)).astype("<f8")
    kind = int(rng.integers(0, 4))
    if kind == 0:
        shapes = ["(%d, %d)" % (rows, cols), "(%d,)" % rows, "(%d, %d, 1)" % (rows, cols),
                  "(0, %d)" % cols, "(-1, %d)" % cols, "(2**63, 1)", "(9223372036854775807, 1)",
                  "(True, %d)" % cols, "'x'", "(%d, %d)" % (cols, rows), "None"]
        descrs = ["<f8", "<f4", ">f8", "<i8", "|b1", "<c16", 5]
        return array_bytes(
            shape=pick(rng, shapes),
            descr=pick(rng, descrs),
            fortran=pick(rng, ["False", "True", "0", "None"]),
            payload=payload.tobytes(),
        )
    if kind == 1:
        flat = payload.reshape(-1)
        flat[int(rng.integers(0, flat.size))] = pick(rng, [np.nan, np.inf, -np.inf, 0.0, 1e308])
        if rng.random() < 0.3:
            payload[int(rng.integers(0, rows))] = 0.0  # a zero row
        return array_bytes(shape="(%d, %d)" % (rows, cols), payload=payload.tobytes())
    valid = array_bytes(shape="(%d, %d)" % (rows, cols), payload=payload.tobytes())
    return byte_mutation(rng, valid)


def csv_mutation(rng, rows, cols) -> bytes:
    """A CSV file with a junk cell, a ragged or dropped line, or corrupted bytes."""
    lines = [[repr(float(v)) for v in row] for row in rng.standard_normal((rows, cols))]
    kind = int(rng.integers(0, 4))
    if kind == 0:
        pick(rng, lines)[int(rng.integers(0, cols))] = pick(rng, CSV_JUNK)
    elif kind == 1:
        row = pick(rng, lines)
        row.append("0.5") if rng.random() < 0.5 else row.pop()
    elif kind == 2:
        del lines[int(rng.integers(0, rows))]
    text = "".join(",".join(row) + pick(rng, ["\n", "\r\n", "\r"]) for row in lines).encode()
    return byte_mutation(rng, text) if kind == 3 else text


@pytest.fixture(scope="module")
def cases():
    """(target, command, mutated bytes) triples, 60 per target, from one seed."""
    rng = np.random.default_rng(20260)
    out = []
    for target in ("manifest", "scores.npy", "scores.csv", "model.npy", "model.csv",
                   "queries.npy", "queries.csv"):
        for _ in range(CASES_PER_TARGET):
            if target == "manifest":
                command = pick(rng, ["eval", "ensemble"])
                out.append(("manifest.json", command, manifest_mutation(rng)))
            elif target.startswith("queries"):
                make = array_mutation if target.endswith("npy") else csv_mutation
                out.append((target, "sim", make(rng, N_QUERIES, DIM)))
            else:
                make = array_mutation if target.endswith("npy") else csv_mutation
                out.append((target, "eval" if target.startswith("scores") else "ensemble",
                            make(rng, N_QUERIES, N_GALLERY)))
    return out


def argv(tmp_path, target, command):
    if command == "eval":
        scores = target if target.startswith("scores") else "scores.npy"
        return ["eval", "--scores", str(tmp_path / scores), "--gt", str(tmp_path / "manifest.json")]
    if command == "ensemble":
        manifest = "manifest.json" if target == "manifest.json" else f"{target}.json"
        return ["ensemble", "--manifest", str(tmp_path / manifest),
                "--out", str(tmp_path / "fused.npy")]
    return ["sim", "--queries", str(tmp_path / target), "--gallery", str(tmp_path / "gallery.npy"),
            "--out", str(tmp_path / "sim.npy")]


def write_valid_instance(tmp_path):
    """The uncorrupted files every case starts from."""
    rng = np.random.default_rng(7)
    write_matrix(rng.random((N_QUERIES, N_GALLERY)), tmp_path / "scores.npy")
    write_matrix(rng.standard_normal((N_GALLERY, DIM)), tmp_path / "gallery.npy")
    (tmp_path / "model.npy").write_bytes(array_bytes())
    (tmp_path / "manifest.json").write_text(json.dumps(manifest_doc()))
    for model in ("model.npy", "model.csv"):
        doc = manifest_doc(model)
        doc["models"][0]["format"] = "csv" if model.endswith("csv") else "array"
        (tmp_path / f"{model}.json").write_text(json.dumps(doc))


def test_mutated_inputs_exit_0_or_1_naming_the_file(tmp_path, capsys, cases):
    write_valid_instance(tmp_path)
    valid = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    exits = {0: 0, 1: 0}
    assert len(cases) >= 400
    for target, command, data in cases:
        (tmp_path / target).write_bytes(data)
        rc = run_cli(argv(tmp_path, target, command))
        err = capsys.readouterr().err
        case = f"{command} on {target} = {data[:80]!r}: exit {rc}, stderr {err!r}"
        assert rc in (0, 1), case
        assert "Traceback" not in err, case
        if rc == 1:
            assert str(tmp_path / target) in err, case
        exits[rc] += 1
        if target in valid:
            (tmp_path / target).write_bytes(valid[target])
    # The mutations must mostly break their file, and some must leave it valid.
    assert exits[1] > exits[0] > 0


def broken_array(rng, rows, cols):
    """An array file that is invalid, and whether its header or size shows it.

    The header gets a wrong shape, dtype, order, magic, version or length
    field, or is cut short; or the payload is cut short, grown, or given a
    non-finite value, which only a full load can see.
    """
    payload = rng.standard_normal((rows, cols)).astype("<f8")
    valid = array_bytes(shape="(%d, %d)" % (rows, cols), payload=payload.tobytes())
    kind = int(rng.integers(0, 9))
    if kind == 0:
        shapes = ["(%d, %d)" % (cols, rows), "(%d, %d)" % (rows + 1, cols), "(%d,)" % rows,
                  "(%d, %d, 1)" % (rows, cols), "(0, %d)" % cols, "(-1, %d)" % cols,
                  "(True, %d)" % cols, "'x'", "None"]
        return array_bytes(shape=pick(rng, shapes), payload=payload.tobytes()), True
    if kind == 1:
        descr = pick(rng, ["<f4", ">f8", "<i8", "|b1", "<c16", 5])
        return array_bytes(shape="(%d, %d)" % (rows, cols), descr=descr,
                           payload=payload.tobytes()), True
    if kind == 2:
        return array_bytes(shape="(%d, %d)" % (rows, cols), fortran=pick(rng, ["True", "0", "None"]),
                           payload=payload.tobytes()), True
    if kind == 3:
        i = int(rng.integers(0, 8))
        return valid[:i] + bytes([valid[i] ^ 0x40]) + valid[i + 1:], True
    if kind == 4:
        field = int.from_bytes(valid[8:10], "little") + int(rng.choice([-9, -1, 1, 9]))
        return valid[:8] + field.to_bytes(2, "little") + valid[10:], True
    header_end = 10 + int.from_bytes(valid[8:10], "little")
    if kind == 5:
        return valid[:int(rng.integers(0, header_end))], True
    if kind == 6:
        return valid[:len(valid) - int(rng.integers(1, 9 * 8))], True
    if kind == 7:
        return valid + bytes(int(rng.integers(1, 17))), True
    flat = payload.reshape(-1)
    flat[int(rng.integers(0, flat.size))] = pick(rng, [np.nan, np.inf, -np.inf])
    return array_bytes(shape="(%d, %d)" % (rows, cols), payload=payload.tobytes()), False


def test_later_model_broken_exits_1_naming_it(tmp_path, capsys, monkeypatch):
    names = ["a.npy", "b.npy", "c.npy"]
    rng = np.random.default_rng(20261)
    for name in names:
        write_matrix(rng.random((N_QUERIES, N_GALLERY)), tmp_path / name)
    doc = manifest_doc()
    doc["models"] = [{"name": name[0], "path": name} for name in names]
    (tmp_path / "three.json").write_text(json.dumps(doc))
    out = tmp_path / "fused.npy"
    argv = ["ensemble", "--manifest", str(tmp_path / "three.json"), "--out", str(out)]
    loads = []
    load = rankfuse.cli.load_matrix
    monkeypatch.setattr(rankfuse.cli, "load_matrix", lambda p, *a: loads.append(p) or load(p, *a))
    up_front = 0
    for case in range(80):
        target = tmp_path / names[1 + case % 2]
        valid = target.read_bytes()
        data, visible = broken_array(rng, N_QUERIES, N_GALLERY)
        target.write_bytes(data)
        loads.clear()
        rc = run_cli(argv)
        err = capsys.readouterr().err
        what = f"{target.name} = {data[:90]!r}: exit {rc}, stderr {err!r}"
        assert rc == 1, what
        assert str(target) in err, what
        assert "Traceback" not in err, what
        assert not out.exists(), what
        # What the header or the file size shows is caught before any load.
        if visible:
            assert loads == [], what
            up_front += 1
        target.write_bytes(valid)
    assert 0 < up_front < 80


# Each public entry point with a matrix argument, as (what its errors name,
# a call that feeds x there and valid inputs everywhere else). The valid
# score matrix is 3 x 3 under identity truth; the feature bank is 3 x 2.
_SCORES = np.array([[0.9, 0.2, 0.4], [0.1, 0.3, 0.8], [0.5, 0.6, 0.7]])
_BANK = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
_GT, _GRID = GroundTruth.identity(3), WeightGrid((0.0, 0.5, 1.0))
ENTRY_POINTS = {
    "metrics_report": ("score matrix", lambda x: metrics_report(x, _GT, [1, 2]).r_at),
    "topk_rows": ("score matrix", lambda x: topk_rows(x, 2).indices.tolist()),
    "topk_rows k=1": ("score matrix", lambda x: topk_rows(x, 1).indices.tolist()),
    "sweep_weight s_prev": ("s_prev", lambda x: sweep_weight(x, _SCORES, _GT, _GRID)),
    "sweep_weight t_model": ("t_model", lambda x: sweep_weight(_SCORES.T, x, _GT, _GRID)),
    "iterative_ensemble": ("model 1", lambda x: iterative_ensemble([_SCORES.T, x], _GT, _GRID)[1].steps),
    "iterative_ensemble model 0": ("model 0", lambda x: iterative_ensemble([x], _GT, _GRID)[1].steps),
    "select_topk_features features": ("features", lambda x: select_topk_features(x, _SCORES, 2).indices.tolist()),
    "select_topk_features guidance": ("guidance", lambda x: select_topk_features(_BANK, x, 2).indices.tolist()),
    "minmax_normalize": ("matrix", lambda x: minmax_normalize(x).tolist()),
}
# float64 arrays with no rows or no columns.
EMPTY = {"no rows": np.empty((0, 3)), "no columns": np.empty((3, 0))}
# Inputs that are not a matrix of numbers, not 2-D, or empty.
MALFORMED = {
    "ragged list": [[0.9, 0.2, 0.4], [0.1, 0.3], [0.5, 0.6, 0.7]],
    "list of strings": [["a", "b", "c"]] * 3,
    "object array of strings": np.array([["x", "y", "z"]] * 3, dtype=object),
    "1-D array": np.array([0.9, 0.2, 0.4]),
    "3-D array": np.zeros((3, 3, 1)),
    "None": None,
    **EMPTY,
}


@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_entry_points_take_numbers_in_any_2d_form(entry):
    _, call = ENTRY_POINTS[entry]
    x = _BANK if entry.endswith("features") else _SCORES
    expected = call(x)
    # Nested lists and int arrays convert to the float64 array.
    assert call(x.tolist()) == expected
    assert call((x * 10).astype(np.int64)) == call(x * 10)


@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
@pytest.mark.parametrize("kind", list(MALFORMED))
def test_entry_points_reject_malformed_matrices_naming_the_argument(entry, kind):
    what, call = ENTRY_POINTS[entry]
    with pytest.raises(RankfuseError, match=re.escape(what)):
        call(MALFORMED[kind])


@pytest.mark.parametrize("kind", list(EMPTY))
@pytest.mark.parametrize("fmt", ["array", "csv"])
def test_write_matrix_refuses_empty_matrices_naming_the_path(tmp_path, kind, fmt):
    path = tmp_path / f"empty.{fmt}"
    shape = EMPTY[kind].shape
    with pytest.raises(ShapeError, match=re.escape(f"{path} must have at least one row and one column, got {shape}")):
        write_matrix(EMPTY[kind], path, fmt)
    assert not path.exists()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("fmt", ["array", "csv"])
def test_write_matrix_refuses_non_finite_cells_naming_the_path_and_cell(tmp_path, value, fmt):
    path = tmp_path / f"bad.{fmt}"
    x = np.ones((3, 4))
    x[2, 1] = x[2, 3] = value
    for m in (x, x.tolist()):
        with pytest.raises(ValidationError, match=re.escape(f"{path} has non-finite value at (2, 1)")):
            write_matrix(m, path, fmt)
        assert not path.exists()


def test_write_matrix_scans_plain_matrices_and_trusts_wrappers(tmp_path, monkeypatch):
    scanned, as_matrix = [], rankfuse.io_files._as_matrix
    monkeypatch.setattr(rankfuse.io_files, "_as_matrix", lambda x, what: scanned.append(what) or as_matrix(x, what))
    x = np.random.default_rng(5).random((3, 4))
    path = tmp_path / "m.npy"
    # Every command writes a wrapper, whose data was checked when it was built.
    for m in (ScoreMatrix(x), EmbeddingMatrix(x), _finite(ScoreMatrix, x)):
        write_matrix(m, path)
    assert scanned == []
    for m in (x, x.tolist()):
        write_matrix(m, path)
    assert scanned == [str(path)] * 2


# Each public entry point with an array argument not covered above, as (what
# its errors name, or None for the path it is given, and a call that feeds x
# there and valid inputs everywhere else).
_LOCAL = ViewDecision(0.9, Branch.LOCAL)
ARRAY_ARGUMENTS = {
    "write_matrix array": (None, lambda x, path: write_matrix(x, path)),
    "write_matrix csv": (None, lambda x, path: write_matrix(x, path, "csv")),
    "ItmBatch labels": ("labels", lambda x, path: ItmBatch(x, [0.5, 0.5])),
    "ItmBatch probs": ("probs", lambda x, path: ItmBatch([0, 1], x)),
    "MlmBatch": ("predicted", lambda x, path: MlmBatch(x, [0, 0])),
    "ImageTensor": ("image", lambda x, path: ImageTensor(x)),
    "mim_loss": ("image", lambda x, path: mim_loss(x, [[1.0]], MaskSpec([[True]]))),
    "mim_loss_grad original": ("image", lambda x, path: mim_loss_grad([[1.0]], x, MaskSpec([[True]]))),
    "apply_transform": ("image", lambda x, path: apply_transform(x, _LOCAL, CropSpec(), np.random.default_rng(0))),
    "MaskSpec": ("masked_flags", lambda x, path: MaskSpec(x)),
    "TopKResult indices": ("top-k indices", lambda x, path: TopKResult(x, [[1.0], [1.0]])),
    "TopKResult values": ("top-k values", lambda x, path: TopKResult([[0], [0]], x)),
}
# Inputs numpy cannot turn into a float64 array.
UNCONVERTIBLE = {"ragged": [[1.0], [1.0, 2.0]], "non-numeric": [["a"]]}


@pytest.mark.parametrize("entry", list(ARRAY_ARGUMENTS))
@pytest.mark.parametrize("kind", list(UNCONVERTIBLE))
def test_array_arguments_refuse_what_is_not_numbers_naming_them(tmp_path, entry, kind):
    what, call = ARRAY_ARGUMENTS[entry]
    path = tmp_path / "out"
    with pytest.raises(RankfuseError, match=re.escape(what or str(path))):
        call(UNCONVERTIBLE[kind], path)
    assert not path.exists()


@pytest.mark.parametrize("index", [1.5, float("nan"), float("inf")])
def test_topk_result_refuses_indices_that_are_not_whole_numbers(index):
    with pytest.raises(ValidationError, match=re.escape("top-k index at (0, 1)")):
        TopKResult([[1.0, index]], [[1.0, 0.5]])
    # Whole numbers of any dtype are taken as int64.
    assert TopKResult([[1.0, 0.0]], [[1.0, 0.5]]).indices.dtype == np.int64


# Weight grids that are not a sequence of numbers.
MALFORMED_GRIDS = {"string weight": ("a",), "scalar": 0.5, "None": None}


@pytest.mark.parametrize("kind", list(MALFORMED_GRIDS))
def test_weight_grid_rejects_non_numbers_naming_the_value(kind):
    grid = MALFORMED_GRIDS[kind]
    with pytest.raises(ParameterError, match=re.escape(repr(grid))):
        WeightGrid(grid)
