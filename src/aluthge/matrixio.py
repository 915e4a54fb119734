"""Matrix file format: minimal JSON with explicit [re, im] entry pairs.

    {"rows": 2, "cols": 2, "data": [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]}

The writer emits exactly ``json.dumps(matrix_to_obj(m)) + "\\n"``: keys in the
order rows, cols, data, separators ", " and ": ", every number as the shortest
repr that round-trips the double. The reader parses a file in that exact layout
from its numbers alone and hands any other file to ``json.load``, with the same
result. A large matrix is parsed and formatted in two halves of its rows
(see ``_parts``) through ``_workers._shared``: inside the commands' process
context the caller and a child forked once the bytes or the matrix exist
each claim a half, elsewhere both are done here, with the same bytes. Writes
are atomic (temp file + rename) and honour the process umask.
"""

from __future__ import annotations

import gc
import io
import json
import os
import re
import tempfile
from itertools import chain

import numpy as np

from . import _workers
from .linalg import validate_matrix

__all__ = [
    "MatrixFileError",
    "load_matrix",
    "save_matrix",
    "matrix_to_obj",
    "vector_payload",
    "atomic_write_text",
]

# Entries from which a matrix file is parsed or formatted in two halves, in
# the commands by the caller and one forked child (the only count measured, on 2
# CPUs). Below about n = 180 square, a second process costs more than its share:
# with one pool worker for a whole transform --factors, n = 128 took 0.55 s
# against 0.49 s alone and n = 180 0.69 s against 0.67 s (medians of 10 pairs).
PARALLEL_ENTRIES = 180 * 180
# The writer's header, with at most 18 digits a size, and its trailer.
_HEADER = re.compile(rb'\{"rows": ([1-9][0-9]{0,17}), "cols": ([1-9][0-9]{0,17}), "data": \[')
_TRAILER = b"]}\n"
# The bytes JSON numbers are made of, the break between two written rows, and
# a table that blanks brackets, which JSON then reads as whitespace.
_NUMBER_BYTES = b"0123456789.eE+-"
_ROW_BREAK = b"]], [["
_BLANK_BRACKETS = bytes.maketrans(b"[]", b"  ")


class MatrixFileError(ValueError):
    """Raised for malformed matrix files."""


def _float_rows(m) -> np.ndarray:
    """Validated matrix as a C-ordered (rows, 2*cols) float64 view: re, im, re, im, ..."""
    return np.ascontiguousarray(validate_matrix(m)).view(np.float64)


def matrix_to_obj(m) -> dict:
    rows = _float_rows(m)
    n_rows, cols = rows.shape[0], rows.shape[1] // 2
    return {"rows": n_rows, "cols": cols, "data": rows.reshape(n_rows, cols, 2).tolist()}


def vector_payload(v) -> list:
    """[re, im] pairs of a vector, the row layout of ``matrix_to_obj``."""
    return np.asarray(v, dtype=np.complex128).ravel().view(np.float64).reshape(-1, 2).tolist()


def _format_rows(rows: np.ndarray) -> str:
    """The JSON rows of a block of ``_float_rows``, joined by ", "."""
    # %r is float.__repr__, the formatter json.dumps uses for floats.
    row_fmt = "[" + ", ".join(["[%r, %r]"] * (rows.shape[1] // 2)) + "]"
    return ", ".join([row_fmt % tuple(row.tolist()) for row in rows])


def _parts(n_rows: int, cols: int) -> int:
    """The blocks of rows an ``n_rows`` x ``cols`` matrix is parsed or formatted
    in: 2, shared with a forked child where one may start, if it has two or
    more rows and ``PARALLEL_ENTRIES`` entries; else 1."""
    return 2 if n_rows > 1 and n_rows * cols >= PARALLEL_ENTRIES else 1


def _encode(rows: np.ndarray):
    """``json.dumps(matrix_to_obj(m)) + "\\n"`` in pieces, for ``rows =
    _float_rows(m)``, the halves of the rows shared with a forked child where
    ``_parts`` splits them and one may start."""
    n_rows, cols = rows.shape[0], rows.shape[1] // 2
    yield f'{{"rows": {n_rows}, "cols": {cols}, "data": ['
    first, *rest = _workers._shared(_format_rows, np.array_split(rows, _parts(n_rows, cols)))
    yield first
    for text in rest:
        yield ", "
        yield text
    yield "]}\n"


def _matrix_from_obj(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise MatrixFileError("matrix file must contain a JSON object")
    try:
        rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    except KeyError as exc:
        raise MatrixFileError(f"missing field: {exc}") from exc
    # type() rather than isinstance(): JSON true/false must not pass as integers.
    if type(rows) is not int or type(cols) is not int or rows < 1 or cols < 1:
        raise MatrixFileError(f"rows and cols must be positive integers, got {rows!r} and {cols!r}")
    try:
        shape_ok = len(data) == rows and all(len(row) == cols for row in data)
    except TypeError:
        shape_ok = False
    if not shape_ok:
        raise MatrixFileError(f"data shape does not match {rows}x{cols}")
    entries = list(chain.from_iterable(data))
    try:
        pairs = set(map(len, entries)) == {2}
    except TypeError:
        pairs = False
    parts = list(chain.from_iterable(entries)) if pairs else []
    if not pairs or not set(map(type, parts)) <= {int, float}:
        raise MatrixFileError("entries must be [re, im] pairs of JSON numbers")
    try:
        m = np.array(parts, dtype=np.float64)
    except OverflowError as exc:
        raise MatrixFileError(f"entries must be [re, im] pairs of doubles: {exc}") from exc
    if not np.all(np.isfinite(m)):
        raise MatrixFileError("entries must be finite")
    return m.view(np.complex128).reshape(rows, cols)


def _parse_rows(text: bytes, cols: int) -> np.ndarray | None:
    """``text``, written rows of ``cols`` entries joined by ", ", as a (rows,
    2 * cols) float array of re, im, re, im, ...; None where ``text``
    deviates from the writer's layout or holds a number that JSON does not
    allow or that is not a finite double."""
    # Once the number bytes are deleted, the brackets, commas and spaces left
    # must be those of the layout, in order, and no slot of a number may be
    # empty ("[," or " ]"). Then each number sits alone between two commas
    # exactly when it sits in its slot, which json.loads of the text with its
    # brackets blanked confirms, reading every number by the JSON grammar.
    skeleton = text.translate(None, _NUMBER_BYTES)
    n_rows, extra = divmod(len(skeleton) + 2, 6 * cols + 2)
    if extra or not n_rows:
        return None
    row = b"[" + b", ".join([b"[, ]"] * cols) + b"]"
    if skeleton != b", ".join([row] * n_rows) or b"[," in text or b" ]" in text:
        return None
    try:
        values = json.loads("[" + text.translate(_BLANK_BRACKETS).decode("ascii") + "]")
        floats = np.array(values, dtype=np.float64)
    except (ValueError, OverflowError):
        return None
    return floats.reshape(n_rows, 2 * cols) if np.isfinite(floats).all() else None


def _row_runs(text: bytes, parts: int) -> list:
    """``text``, written rows joined by ", ", whole or, for ``parts`` 2, cut
    at the first row break after its middle byte."""
    cut = text.find(_ROW_BREAK, len(text) // 2) if parts > 1 else -1
    return [text] if cut < 0 else [text[: cut + 2], text[cut + 4 :]]


def _read_exact(raw: bytes) -> np.ndarray | None:
    """The matrix in ``raw`` if it is a file in the writer's exact layout of
    finite doubles, else None. Where ``_parts`` splits it and a child may
    start, this process and a forked child each claim one of the runs of rows
    before and after the middle byte."""
    header = _HEADER.match(raw)
    if header is None or not raw.endswith(_TRAILER):
        return None
    n_rows, cols = int(header[1]), int(header[2])
    body = raw[header.end() : -len(_TRAILER)]
    # Each entry takes at least 8 bytes ("[0, 0], "): a header that promises
    # more entries than the file can hold is refused before any work per entry.
    if len(body) < 8 * n_rows * cols + 2 * (n_rows - 1):
        return None
    runs = _row_runs(body, _parts(n_rows, cols))
    blocks = list(_workers._shared(lambda run: _parse_rows(run, cols), runs))
    if any(block is None for block in blocks) or sum(map(len, blocks)) != n_rows:
        return None
    return np.concatenate(blocks).view(np.complex128)


def _read_json(raw: bytes, path) -> np.ndarray:
    """The matrix in ``raw``, the bytes of the file at ``path``, read as
    ``json.load`` of that file opened as UTF-8 text reads it."""
    # The parser allocates a list per row and per entry (262,656 at n = 512),
    # which would run the cyclic collector over and over; none of them can
    # form a cycle, so it is paused for the parse and restored as found.
    collecting = gc.isenabled()
    gc.disable()
    try:
        obj = json.load(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))
    except ValueError as exc:
        # JSONDecodeError, UnicodeDecodeError and over-long integer literals.
        raise MatrixFileError(f"invalid JSON in {path}: {exc}") from exc
    finally:
        if collecting:
            gc.enable()
    return _matrix_from_obj(obj)


def load_matrix(path) -> np.ndarray:
    """The matrix in the file at ``path``. A file in the writer's exact layout
    is parsed from its numbers, a large one half by a forked child where one
    may start (see ``_parts``); any other file by ``json.load``, as is
    one that holds a number that is not a finite double, so that it fails
    with the same MatrixFileError."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise MatrixFileError(f"cannot read {path}: {exc}") from exc
    m = _read_exact(raw)
    return _read_json(raw, path) if m is None else m


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


def atomic_write_text(path, text) -> None:
    """Write ``text``, a string or an iterable of string pieces, to ``path``
    through a temp file renamed over it. A symlink is followed and its target
    replaced; an existing target that is not a regular file (a FIFO, a device,
    a directory) is refused with an OSError before anything is written."""
    if os.path.exists(path) and not os.path.isfile(path):
        raise OSError("not a regular file")
    path = os.path.realpath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            # mkstemp creates the file 0600; give it the mode open() would.
            os.fchmod(fh.fileno(), 0o666 & ~_umask())
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_matrix(path, m) -> None:
    """Write ``m`` to ``path``. A large matrix's rows are formatted half here
    and half by a forked child where one may start (see ``_parts``), else all
    here. The child only formats floats, never calling BLAS or LAPACK."""
    atomic_write_text(path, _encode(_float_rows(m)))
