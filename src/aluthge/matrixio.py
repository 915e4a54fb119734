"""Matrix file format: minimal JSON with explicit [re, im] entry pairs.

    {"rows": 2, "cols": 2, "data": [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]}

The writer emits exactly ``json.dumps(matrix_to_obj(m)) + "\\n"``: keys in the
order rows, cols, data, separators ", " and ": ", every number as the shortest
repr that round-trips the double. Writes are atomic (temp file + rename) and
honour the process umask.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .linalg import validate_matrix

__all__ = [
    "MatrixFileError",
    "load_matrix",
    "save_matrix",
    "matrix_to_obj",
    "vector_payload",
    "matrix_from_obj",
    "atomic_write_text",
]


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


def _encode(m) -> str:
    """``json.dumps(matrix_to_obj(m)) + "\\n"``, formatted one row at a time."""
    rows = _float_rows(m)
    n_rows, cols = rows.shape[0], rows.shape[1] // 2
    # %r is float.__repr__, the formatter json.dumps uses for floats.
    row_fmt = "[" + ", ".join(["[%r, %r]"] * cols) + "]"
    data = ", ".join([row_fmt % tuple(row.tolist()) for row in rows])
    return f'{{"rows": {n_rows}, "cols": {cols}, "data": [{data}]}}\n'


def matrix_from_obj(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise MatrixFileError("matrix file must contain a JSON object")
    try:
        rows, cols, data = int(obj["rows"]), int(obj["cols"]), obj["data"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise MatrixFileError(f"missing or malformed field: {exc}") from exc
    if rows < 1 or cols < 1:
        raise MatrixFileError("rows and cols must be positive")
    try:
        shape_ok = len(data) == rows and all(len(row) == cols for row in data)
    except TypeError:
        shape_ok = False
    if not shape_ok:
        raise MatrixFileError(f"data shape does not match {rows}x{cols}")
    try:
        m = np.array([[complex(re, im) for re, im in row] for row in data], dtype=np.complex128)
    except (TypeError, ValueError, OverflowError) as exc:
        raise MatrixFileError(f"entries must be [re, im] pairs of doubles: {exc}") from exc
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise MatrixFileError("entries must be finite")
    return m


def load_matrix(path) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise MatrixFileError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        # JSONDecodeError, UnicodeDecodeError and over-long integer literals.
        raise MatrixFileError(f"invalid JSON in {path}: {exc}") from exc
    return matrix_from_obj(obj)


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


def atomic_write_text(path, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            # mkstemp creates the file 0600; give it the mode open() would.
            os.fchmod(fh.fileno(), 0o666 & ~_umask())
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_matrix(path, m) -> None:
    atomic_write_text(path, _encode(m))
