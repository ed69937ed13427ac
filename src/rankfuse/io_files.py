"""Matrix and manifest file handling.

Two matrix formats are supported:

* ``array`` -- the standard binary array container, version 1.0 only
  (magic ``\\x93NUMPY``), restricted to little-endian float32/float64,
  row-major, 2-D. The parser is deliberately hand-rolled so malformed files
  are rejected with byte offsets and the writer round-trips float64 payloads
  bit-exactly.
* ``csv`` -- comma-separated decimal floats, one row per line, written with
  shortest round-trip formatting.

Manifests are JSON documents carrying the query/gallery sizes, per-query
relevant indices, and optionally named model matrix files.
"""

from __future__ import annotations

import ast
import json
import os
import re
import stat
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ValidationError
from .matrix_ops import _as_matrix
from .metrics import GroundTruth, _is_integer

__all__ = [
    "ModelEntry",
    "load_matrix",
    "write_matrix",
    "load_ground_truth",
    "load_manifest",
    "write_manifest",
]

_MAGIC = b"\x93NUMPY"
# What ``errors="surrogateescape"`` decodes a byte that is not UTF-8 to.
_UNDECODED = re.compile("[\udc80-\udcff]")
_SUPPORTED_DESCR = ("<f4", "<f8")


@dataclass(frozen=True)
class ModelEntry:
    """A named score-matrix file referenced by a manifest."""

    name: str
    path: str
    format: str = "array"


def _load_array(path) -> np.ndarray:
    with open(path, "rb") as fh:
        head = fh.read(10)
        if head[:6] != _MAGIC:
            raise FormatError(f"{path}: bad magic at offset 0 (not an array file)")
        if len(head) < 10:
            raise FormatError(f"{path}: truncated before header length at offset {len(head)}")
        major, minor = head[6], head[7]
        if (major, minor) != (1, 0):
            raise FormatError(f"{path}: unsupported format version {major}.{minor} at offset 6")
        header_len = int.from_bytes(head[8:10], "little")
        header_end = 10 + header_len
        raw_header = fh.read(header_len)
        if len(raw_header) < header_len:
            raise FormatError(
                f"{path}: truncated header at offset 10 (declared {header_len} bytes)"
            )
        try:
            header = ast.literal_eval(raw_header.decode("latin-1").strip())
        except (ValueError, SyntaxError) as exc:
            raise FormatError(f"{path}: unparseable header at offset 10: {exc}") from exc
        if not isinstance(header, dict):
            raise FormatError(f"{path}: header at offset 10 is not a dict")

        descr = header.get("descr")
        if descr not in _SUPPORTED_DESCR:
            raise FormatError(
                f"{path}: unsupported dtype {descr!r} (need little-endian float32/float64)"
            )
        if header.get("fortran_order") is not False:
            raise FormatError(f"{path}: fortran_order must be false (row-major only)")
        shape = header.get("shape")
        if (
            not isinstance(shape, tuple)
            or len(shape) != 2
            or not all(_is_integer(d) and d >= 1 for d in shape)
        ):
            raise FormatError(f"{path}: shape {shape!r} is not 2-D with positive extents")

        dtype = np.dtype(descr)
        expected = shape[0] * shape[1] * dtype.itemsize
        # A regular file's size is known up front, so a wrong payload length
        # is rejected before the array is allocated; a pipe is checked as it
        # is read. The payload goes straight into the array, with no
        # whole-file buffer.
        st = os.fstat(fh.fileno())
        payload_len = st.st_size - header_end if stat.S_ISREG(st.st_mode) else expected
        if payload_len == expected:
            try:
                arr = np.empty(shape, dtype=dtype)
            except MemoryError as exc:
                raise FormatError(
                    f"{path}: header shape {shape} implies {expected} payload bytes, "
                    "more than can be allocated"
                ) from exc
            payload_len = fh.readinto(memoryview(arr).cast("B")) + len(fh.read())
        if payload_len != expected:
            raise FormatError(
                f"{path}: payload at offset {header_end} is {payload_len} bytes, "
                f"header shape {shape} implies {expected}"
            )
    # A float32 payload is widened into a new array, so the result is always
    # an owned, writable float64 array.
    return _as_matrix(arr, str(path))


def _write_array(arr: np.ndarray, path) -> None:
    header = "{'descr': '<f8', 'fortran_order': False, 'shape': (%d, %d), }" % arr.shape
    # Pad so the payload starts on a 64-byte boundary, newline-terminated.
    pad = (-(10 + len(header) + 1)) % 64
    header = header + " " * pad + "\n"
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(bytes((1, 0)))
        fh.write(len(header).to_bytes(2, "little"))
        fh.write(header.encode("latin-1"))
        fh.write(np.ascontiguousarray(arr, dtype="<f8"))


def _reject_undecoded(path, text: str, lineno: int = 1) -> None:
    """Raise ``FormatError`` at the first byte in ``text`` that was not UTF-8.

    ``text`` was read with ``errors="surrogateescape"``, which turns such a
    byte into a lone surrogate that decoded UTF-8 never holds; it starts on
    line ``lineno`` of ``path``.
    """
    if text.isascii():
        return
    bad = _UNDECODED.search(text)
    if bad:
        line = lineno + text.count("\n", 0, bad.start())
        column = bad.start() - text.rfind("\n", 0, bad.start())
        raise FormatError(
            f"{path}: line {line}, column {column}: "
            f"byte 0x{ord(bad.group()) - 0xDC00:02x} is not valid UTF-8"
        )


def _load_csv(path) -> np.ndarray:
    rows = []
    width = None
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            _reject_undecoded(path, line, lineno)
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if width is None:
                width = len(cells)
            elif len(cells) != width:
                raise FormatError(
                    f"{path}: line {lineno} has {len(cells)} columns, expected {width}"
                )
            # A float64 row, not a list of Python floats at 4x the bytes.
            try:
                rows.append(np.array([float(c) for c in cells]))
            except ValueError as exc:
                raise FormatError(f"{path}: line {lineno}: {exc}") from exc
    if not rows:
        raise FormatError(f"{path}: no data rows")
    return _as_matrix(rows, str(path))


def _write_csv(arr: np.ndarray, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in arr:
            fh.write(",".join(repr(float(v)) for v in row))
            fh.write("\n")


def load_matrix(path, format: str = "array") -> np.ndarray:
    """Load a 2-D float64 matrix; entries are validated finite.

    float32 array files are widened to float64. Callers wrap the result in
    EmbeddingMatrix or ScoreMatrix depending on how it will be used.
    """
    fmt = format.lower()
    if fmt == "array":
        return _load_array(path)
    if fmt == "csv":
        return _load_csv(path)
    raise FormatError(f"unknown matrix format {format!r} (use 'array' or 'csv')")


def write_matrix(m, path, format: str = "array") -> None:
    """Write a matrix (ndarray or a wrapper with a ``.data`` array).

    float64 array files round-trip bit-exactly through :func:`load_matrix`.
    """
    arr = np.asarray(getattr(m, "data", m), dtype=np.float64)
    if arr.ndim != 2:
        raise ValidationError(f"{path}: can only write 2-D matrices, got shape {arr.shape}")
    fmt = format.lower()
    if fmt == "array":
        _write_array(arr, path)
    elif fmt == "csv":
        _write_csv(arr, path)
    else:
        raise FormatError(f"unknown matrix format {format!r} (use 'array' or 'csv')")


# ---------------------------------------------------------------------------
# Manifests
# ---------------------------------------------------------------------------


def _parse_relevant(doc, n_queries: int, path) -> list:
    rel = doc.get("relevant")
    if isinstance(rel, dict):
        keys = [str(q) for q in range(n_queries)]
        for q, key in enumerate(keys):
            if key not in rel:
                raise FormatError(f"{path}: relevant map is missing query {q}")
        extra = sorted(set(rel).difference(keys))
        if extra:
            raise FormatError(f"{path}: relevant map key {extra[0]!r} names no query")
        return [rel[key] for key in keys]
    if isinstance(rel, list):
        if len(rel) != n_queries:
            raise FormatError(
                f"{path}: relevant list has {len(rel)} entries for {n_queries} queries"
            )
        return rel
    raise FormatError(f"{path}: 'relevant' must be a list or a query-indexed map")


def load_manifest(path) -> tuple[GroundTruth, list[ModelEntry]]:
    """Read a manifest: ground truth plus any model matrix references.

    Model paths are resolved relative to the manifest's directory and must
    exist at load time.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        text = fh.read()
    _reject_undecoded(path, text)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError:
        raise FormatError(f"{path}: JSON nested too deeply to parse") from None
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: manifest must be a JSON object")
    for key in ("n_queries", "n_gallery", "relevant"):
        if key not in doc:
            raise FormatError(f"{path}: manifest is missing '{key}'")
    for key in ("n_queries", "n_gallery"):
        if not _is_integer(doc[key]) or doc[key] < 1:
            raise FormatError(f"{path}: '{key}' must be a positive integer, got {doc[key]!r}")
    n_queries, n_gallery = doc["n_queries"], doc["n_gallery"]
    rel = _parse_relevant(doc, n_queries, path)
    try:
        gt = GroundTruth(relevant=tuple(rel), gallery_size=n_gallery)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc

    base = os.path.dirname(os.path.abspath(path))
    entries = doc.get("models", [])
    if not isinstance(entries, list):
        raise FormatError(f"{path}: 'models' must be a list, got {entries!r}")
    models = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or not isinstance(entry.get("path"), str):
            raise FormatError(f"{path}: models[{i}] must be an object with a string 'path'")
        name = entry.get("name", f"model-{i}")
        if not isinstance(name, str):
            raise FormatError(f"{path}: models[{i}] name must be a string, got {name!r}")
        fmt = entry.get("format", "array")
        if fmt not in ("array", "csv"):
            raise FormatError(f"{path}: models[{i}] format must be 'array' or 'csv', got {fmt!r}")
        # An absolute path replaces ``base`` in the join.
        mpath = os.path.join(base, entry["path"])
        if not os.path.exists(mpath):
            raise ValidationError(f"{path}: models[{i}] path does not exist: {mpath}")
        models.append(ModelEntry(name=name, path=mpath, format=fmt))
    return gt, models


def load_ground_truth(path) -> GroundTruth:
    """Read only the ground-truth part of a manifest."""
    return load_manifest(path)[0]


def write_manifest(path, gt: GroundTruth, models: list[ModelEntry] = ()) -> None:
    """Write a manifest; model paths are stored as given."""
    doc = {
        "n_queries": gt.n_queries,
        "n_gallery": gt.gallery_size,
        "relevant": [sorted(rel) for rel in gt.relevant],
        "models": [
            {"name": m.name, "path": m.path, "format": m.format} for m in models
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
