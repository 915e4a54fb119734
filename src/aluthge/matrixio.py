"""Matrix file format: minimal JSON with explicit [re, im] entry pairs.

    {"rows": 2, "cols": 2, "data": [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]}

The writer emits exactly ``json.dumps(matrix_to_obj(m)) + "\\n"``: keys in the
order rows, cols, data, separators ", " and ": ", every number as the shortest
repr that round-trips the double. A matrix of at least ``PARALLEL_ENTRIES``
entries, given two usable CPUs, has its rows formatted by the calling process
and a forked worker at once, with the same bytes. Writes are atomic (temp file +
rename) and honour the process umask.
"""

from __future__ import annotations

import json
import os
import tempfile
from itertools import chain

import numpy as np

from .linalg import validate_matrix

__all__ = [
    "MatrixFileError",
    "load_matrix",
    "save_matrix",
    "matrix_to_obj",
    "vector_payload",
    "atomic_write_text",
]

# Entries from which a save formats its rows in two processes at once. Below
# about n = 180 square, starting the worker costs more than the half it formats.
PARALLEL_ENTRIES = 180 * 180
# Processes that format one save: the caller and one forked worker. The gain
# and the break-even above were measured on 2 CPUs with this one worker only.
SAVE_PROCESSES = 2


class MatrixFileError(ValueError):
    """Raised for malformed matrix files."""


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where the platform cannot tell."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


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


def _shares(rows: np.ndarray) -> int:
    """Processes that format ``rows = _float_rows(m)``: 1 below
    ``PARALLEL_ENTRIES`` or on one usable CPU, else at most ``SAVE_PROCESSES``
    and never more than there are rows."""
    n_rows, cols = rows.shape[0], rows.shape[1] // 2
    if n_rows * cols < PARALLEL_ENTRIES:
        return 1
    return min(_usable_cpus(), SAVE_PROCESSES, n_rows)


def _worker_rows(future, block: np.ndarray) -> str:
    """A worker's formatted ``block``, or, if the pool broke (a worker was
    killed or ran out of memory), the same block formatted here."""
    from concurrent.futures import BrokenExecutor

    try:
        return future.result()
    except BrokenExecutor:
        return _format_rows(block)


def _encode(rows: np.ndarray, shares: int = 1, pool=None):
    """``json.dumps(matrix_to_obj(m)) + "\\n"`` in pieces, for ``rows = _float_rows(m)``.

    The rows are cut into ``shares`` blocks: ``pool``'s workers format all
    blocks but the first while this process formats that one.
    """
    n_rows, cols = rows.shape[0], rows.shape[1] // 2
    yield f'{{"rows": {n_rows}, "cols": {cols}, "data": ['
    first, *rest = np.array_split(rows, shares)
    futures = [pool.submit(_format_rows, block) for block in rest]
    yield _format_rows(first)
    for block, future in zip(rest, futures):
        yield ", "
        yield _worker_rows(future, block)
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


def load_matrix(path) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise MatrixFileError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        # JSONDecodeError, UnicodeDecodeError and over-long integer literals.
        raise MatrixFileError(f"invalid JSON in {path}: {exc}") from exc
    return _matrix_from_obj(obj)


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
    """Write ``m`` to ``path``. A large matrix is formatted by this process and
    forked workers at once (see ``_shares``); the workers only format floats,
    never calling BLAS or LAPACK, whose threads a fork does not copy."""
    rows = _float_rows(m)
    shares = _shares(rows)
    if shares == 1:
        atomic_write_text(path, _encode(rows))
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(shares - 1, mp_context=multiprocessing.get_context("fork"))
    try:
        atomic_write_text(path, _encode(rows, shares, pool))
    finally:
        pool.shutdown(cancel_futures=True)
