"""Matrix and manifest file handling.

Two matrix formats are supported:

* ``array`` -- the standard binary array container, version 1.0 only
  (magic ``\\x93NUMPY``), restricted to little-endian float32/float64,
  row-major, 2-D. The parser is deliberately hand-rolled so malformed files
  are rejected with byte offsets; the writer takes its header from numpy's
  own header writer and round-trips float64 payloads bit-exactly.
* ``csv`` -- comma-separated decimal floats, one row per line, written with
  shortest round-trip formatting.

Manifests are JSON documents carrying the query/gallery sizes, per-query
relevant indices, and optionally named model matrix files.
"""

from __future__ import annotations

import ast
import contextlib
import json
import os
import re
import stat
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ValidationError
from .matrix_ops import _as_matrix
from .metrics import GroundTruth, _is_integer, _relevant_rows

__all__ = [
    "ModelEntry",
    "array_shape",
    "load_matrix",
    "write_matrix",
    "replacing",
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


def _read_header(fh, path) -> tuple[tuple, np.dtype, int]:
    """Parse the preamble and header at the start of ``fh``.

    Returns the shape, the dtype and the payload's offset. The payload is
    not read, but a regular file's size is known up front, so there a
    payload of the wrong length is rejected here; a pipe's is checked as it
    is read.
    """
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
        raise FormatError(f"{path}: truncated header at offset 10 (declared {header_len} bytes)")
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
    st = os.fstat(fh.fileno())
    if stat.S_ISREG(st.st_mode):
        _check_payload(path, header_end, st.st_size - header_end, shape, dtype)
    return shape, dtype, header_end


def _payload_bytes(shape: tuple, dtype: np.dtype) -> int:
    return shape[0] * shape[1] * dtype.itemsize


def _check_payload(path, offset: int, length: int, shape: tuple, dtype: np.dtype) -> None:
    """Reject a payload of ``length`` bytes at ``offset`` that ``shape`` and ``dtype`` do not imply."""
    expected = _payload_bytes(shape, dtype)
    if length != expected:
        raise FormatError(
            f"{path}: payload at offset {offset} is {length} bytes, "
            f"header shape {shape} implies {expected}"
        )


def array_shape(path) -> tuple[int, int]:
    """The (rows, columns) an array file declares, read from its header alone.

    The header is checked as :func:`load_matrix` checks it, and so is the
    payload length of a regular file; no payload byte is read, so a finite
    check waits for the load.
    """
    with open(path, "rb") as fh:
        return _read_header(fh, path)[0]


def _load_array(path) -> np.ndarray:
    with open(path, "rb") as fh:
        shape, dtype, header_end = _read_header(fh, path)
        # The payload goes straight into the array, with no whole-file buffer.
        try:
            arr = np.empty(shape, dtype=dtype)
        except MemoryError as exc:
            raise FormatError(
                f"{path}: header shape {shape} implies {_payload_bytes(shape, dtype)} payload bytes, "
                "more than can be allocated"
            ) from exc
        length = fh.readinto(memoryview(arr).cast("B")) + len(fh.read())
        _check_payload(path, header_end, length, shape, dtype)
    # A float32 payload is widened into a new array, so the result is always
    # an owned, writable float64 array.
    return _as_matrix(arr, str(path))


def _write_array(arr: np.ndarray, path) -> None:
    arr = np.ascontiguousarray(arr, "<f8")
    with open(path, "wb") as fh:
        # Not np.lib.format.write_array, whose tofile fails on /dev/stdout.
        np.lib.format.write_array_header_1_0(fh, np.lib.format.header_data_from_array_1_0(arr))
        fh.write(arr)


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


# Each matrix format's reader and writer, by name.
_FORMATS = {"array": (_load_array, _write_array), "csv": (_load_csv, _write_csv)}
# The names as error messages list them: 'array' or 'csv'.
_FORMAT_NAMES = " or ".join(map(repr, _FORMATS))


def _format(format: str) -> tuple:
    """The (reader, writer) pair of the matrix format named ``format``."""
    try:
        return _FORMATS[format.lower()]
    except KeyError:
        raise FormatError(f"unknown matrix format {format!r} (use {_FORMAT_NAMES})") from None


def load_matrix(path, format: str = "array") -> np.ndarray:
    """Load a 2-D float64 matrix; entries are validated finite.

    float32 array files are widened to float64. The result is an owned,
    finite float64 array that ``metrics_report``, ``select_topk_features``
    and ``iterative_ensemble`` take as it is, with no second scan.
    """
    return _format(format)[0](path)


def write_matrix(m, path, format: str = "array") -> None:
    """Write a matrix (ndarray or a wrapper with a ``.data`` array).

    A plain array or nested list goes through ``matrix_ops._as_matrix``, as
    every matrix :func:`load_matrix` reads does, and its errors are that
    function's, naming ``path``: ``ValidationError`` for data that is not
    numbers or holds NaN or inf (with the first such cell's (row, column)),
    ``ShapeError`` for a matrix that is not 2-D or has no rows or no
    columns. Nothing is written then. A wrapper's data (``ScoreMatrix``,
    ``EmbeddingMatrix``) was checked when it was built and is trusted.
    Wrappers are told apart by ``isinstance(m, np.ndarray)``, never by
    their type, as in ``matrix_ops._data``. float64 array files round-trip
    bit-exactly through :func:`load_matrix`.
    """
    wrapped = not isinstance(m, np.ndarray) and hasattr(m, "data")
    arr = m.data if wrapped else _as_matrix(m, str(path))
    _format(format)[1](arr, path)


def _replaced(path):
    """The file :func:`replacing` replaces at ``path``, and that file's mode.

    The file is None for a destination that exists but is not a regular
    file, which is written in place, and the mode is None for a missing one.
    """
    # os.stat follows the links of /dev/stdout and /dev/fd/N in the kernel,
    # where realpath would turn a pipe's "pipe:[N]" into a missing path.
    try:
        mode = os.stat(path).st_mode
    except OSError:
        return os.path.realpath(path), None
    return (os.path.realpath(path) if stat.S_ISREG(mode) else None), mode


@contextlib.contextmanager
def replacing(path):
    """Yield a path to write ``path``'s new contents to; it replaces ``path`` on success.

    The path is a new temporary file beside the destination, which
    ``os.replace`` moves into place when the block ends without error; if
    the block raises, the file is removed and the destination is left as it
    was. A symlinked ``path`` has its target replaced, not the link, and a
    destination that exists but is not a regular file (``/dev/stdout``, a
    FIFO) is yielded itself and written in place. The new file gets the mode
    ``open(path, "w")`` would leave: the old file's, or else 0o666 less the
    umask. A destination that ``open(path, "w")`` may not write, such as a
    read-only file, is refused as ``open`` refuses it, and so is one whose
    directory takes no new file; either error names ``path``. So does an
    ``OSError`` from the block that names no file, such as a failed write.
    """
    try:
        yield from _replacement(path)
    except OSError as exc:
        if exc.filename is None:
            exc.filename = os.fspath(path)
        raise


def _replacement(path):
    """The body of :func:`replacing`: yields once, the path to write."""
    target, mode = _replaced(path)
    if target is None:
        yield path
        return
    head, tail = os.path.split(target)
    tmp = os.path.join(head, f".{tail}.{os.urandom(8).hex()}.tmp")
    try:
        if mode is not None:
            # The permission check of open(path, "w"), without truncating.
            os.close(os.open(target, os.O_WRONLY))
        os.close(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    try:
        yield tmp
        if mode is not None:
            os.chmod(tmp, stat.S_IMODE(mode))
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


# ---------------------------------------------------------------------------
# Manifests
# ---------------------------------------------------------------------------


def _parse_relevant(doc, n_queries: int, path) -> list:
    rel = doc.get("relevant")
    if isinstance(rel, dict):
        try:
            return _relevant_rows(rel, n_queries, str)
        except ValidationError as exc:
            raise FormatError(f"{path}: {exc}") from exc
    if isinstance(rel, list):
        if len(rel) != n_queries:
            raise FormatError(
                f"{path}: relevant list has {len(rel)} entries for {n_queries} queries"
            )
        return rel
    raise FormatError(f"{path}: 'relevant' must be a list or a query-indexed map")


def _read_manifest(path) -> tuple[GroundTruth, list[ModelEntry]]:
    """A manifest's ground truth and model entries, with no model file looked at.

    Model paths are resolved relative to the manifest's directory.
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
        # A tuple, not the dict: a format of [] or {} cannot be hashed.
        if fmt not in tuple(_FORMATS):
            raise FormatError(f"{path}: models[{i}] format must be {_FORMAT_NAMES}, got {fmt!r}")
        # An absolute path replaces ``base`` in the join.
        models.append(ModelEntry(name=name, path=os.path.join(base, entry["path"]), format=fmt))
    return gt, models


def load_manifest(path) -> tuple[GroundTruth, list[ModelEntry]]:
    """Read a manifest: ground truth plus any model matrix references.

    Model paths are resolved relative to the manifest's directory. Each
    must exist at load time and must not be a directory; a pipe is allowed.
    """
    gt, models = _read_manifest(path)
    for i, m in enumerate(models):
        if not os.path.exists(m.path):
            raise ValidationError(f"{path}: models[{i}] path does not exist: {m.path}")
        if os.path.isdir(m.path):
            raise ValidationError(f"{path}: models[{i}] path is a directory: {m.path}")
    return gt, models


def load_ground_truth(path) -> GroundTruth:
    """Read only the ground-truth part of a manifest.

    The model entries are parsed, but their files are not looked at, so a
    manifest whose model files are gone still serves ``eval``.
    """
    return _read_manifest(path)[0]


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
