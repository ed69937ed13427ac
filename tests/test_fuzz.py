"""Seeded input fuzz through the CLI.

Every case corrupts one input file of a small valid instance (a manifest, an
array file or a CSV file) with a seeded mutation, then runs ``eval``,
``ensemble`` or ``sim`` on it. Whatever the bytes, the command must exit 0
or 1, print no traceback, and on exit 1 name the corrupted file.
"""

import json

import numpy as np
import pytest

from rankfuse.cli import run_cli
from rankfuse.io_files import write_matrix

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
