"""Matrix file format: minimal JSON with explicit [re, im] entry pairs.

    {"rows": 2, "cols": 2, "data": [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]}

The writer emits exactly ``json.dumps(matrix_to_obj(m)) + "\\n"``: keys in the
order rows, cols, data, separators ", " and ": ", every number as the shortest
repr that round-trips the double. It renders the numbers in numpy, _CHUNK at a
time, with no per-number Python call: Schubfach's integer arithmetic gives the
shortest, closest digits, which are laid out as ``repr`` lays them out (fixed
for a decimal point from -3 to 16, else with an exponent of 2 or 3 digits, a
".0" on whole numbers, "0.0" and "-0.0" for zeros); only subnormals are
written by ``repr`` one at a time. A save streams the file's text into it a
chunk at a time. The reader parses a file in that exact layout from its
numbers alone, one run of rows before and one after the body's middle byte,
so that the parse's transients are held at half size; it hands any other
file to ``json.load``, with the same result. Nothing here starts a process.
Writes are atomic (temp file + rename) and honour the process umask.
"""

from __future__ import annotations

import functools
import gc
import io
import json
import os
import re
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


# The writer renders numbers _CHUNK at a time, each into a NUL-padded cell of
# _CELL bytes that also holds the brackets and ", " around it.
_CHUNK = 1 << 14
_CELL = 28
# The separators before and after a number, by its position: the block's
# first number, a real part that opens a row, any other real part, an
# imaginary part, and one that closes a row.
_PREFIXES = ("[[", ", [[", ", [", ", ", ", ")
_SUFFIXES = ("", "", "", "]", "]]")
_U64 = np.uint64
_LOW32 = _U64(0xFFFFFFFF)
_LOW63 = _U64((1 << 63) - 1)
_LOW52 = _U64((1 << 52) - 1)
_SMALLEST_NORMAL = _U64(1 << 52)
_ONE = _U64(1023 << 52)
# Schubfach's exponents k of g(k), the range normal doubles need.
_K_MIN, _K_MAX = -324, 292


def _word(text: bytes) -> np.uint32:
    """The uint32 whose 4 bytes in memory are ``text``."""
    return np.frombuffer(text, dtype=np.uint32)[0]


# A number's 32 source bytes, 8 uint32 words, from which its cell is gathered:
#   0-3: NUL, sign ("-" or NUL), "0", "."   4-7: "e", "[", ",", leading digit
#   8-23: the other 16 of the 17 digits     24-27: exponent sign and 3 digits
#   28-31: " ", "]", NUL, NUL
_SOURCE = {"\0": 0, "-": 1, "0": 2, ".": 3, "e": 4, "[": 5, ",": 6, " ": 28, "]": 29}
_LEAD_DIGIT, _EXPONENT = 7, 24
_WORD0, _WORD1, _WORD7 = _word(b"\0\0" b"0."), _word(b"e[,\0"), _word(b" ]\0\0")
_MINUS, _LEAD = _word(b"\0-\0\0"), _word(b"\0\0\0\1")


def _floor_log10_pow2(q, three_quarters):
    """floor(log10(2**q)), or of 3/4 * 2**q; Schubfach's integer forms."""
    return (q * 661971961083 - 274743187321 * three_quarters) >> 41


def _floor_log2_pow10(e):
    return (e * 913124641741) >> 38


@functools.cache
def _tables() -> tuple:
    """The writer's tables, built on its first call, so that importing the
    package and the commands that write no matrix never pay for them:

    - by biased exponent * 2 + power-of-two flag: Schubfach's k and h and
      the halves of g(k) = floor(10**-k * 2**-r) + 1, 126 bits, split as
      g1 * 2**63 + g0, with g1 and g0 also in 32-bit halves;
    - the 4 digits of 0..9999 and their trailing zeros (4 for 0) by value;
    - the exponent's sign and 3 digits, and the notation, by decimal point
      position + 400;
    - cells: for each (notation, digit count, position) the _CELL source
      byte numbers of the number's text, NUL-padded."""
    g = []
    for k in range(_K_MIN, _K_MAX + 1):
        r = _floor_log2_pow10(-k) - 125
        num, den = (10**-k, 1) if k <= 0 else (1, 10**k)
        g.append((num << max(-r, 0)) // (den << max(r, 0)) + 1)
    g1 = np.array([v >> 63 for v in g], dtype=np.uint64)
    g0 = np.array([v & ((1 << 63) - 1) for v in g], dtype=np.uint64)
    biased = np.arange(2 * 2048) // 2
    pow2 = (np.arange(2 * 2048) % 2) * (biased > 1)
    q = np.maximum(biased, 1).astype(np.int64) - 1075
    k = _floor_log10_pow2(q, pow2)
    h = (q + _floor_log2_pow10(-k) + 2).astype(np.uint64)
    g1, g0 = g1[k - _K_MIN], g0[k - _K_MIN]
    powers = (k, h, g1, g1 & _LOW32, g1 >> _U64(32), g0 & _LOW32, g0 >> _U64(32))
    quads = [b"%04d" % i for i in range(10000)]
    quad = np.frombuffer(b"".join(quads), dtype=np.uint32).copy()
    zeros = np.array([4] + [4 - len(text.rstrip(b"0")) for text in quads[1:]], dtype=np.uint8)
    decpt = np.arange(-400, 400)
    exponent = np.frombuffer(b"".join(b"%+04d" % e for e in (decpt - 1).tolist()), dtype=np.uint32).copy()
    # Notation as repr picks it: fixed for -4 < decpt <= 16 (1 to 20), else
    # with an exponent of 2 digits (0) or of 3 (21).
    notation = np.where((decpt > -4) & (decpt <= 16), decpt + 4, np.where(abs(decpt - 1) < 100, 0, 21))
    source = lambda text: [_SOURCE[ch] for ch in text]
    cells = np.zeros((22, 18, 8, _CELL), dtype=np.int32)
    for kind in range(22):
        for nd in range(1, 18):
            digits = list(range(_LEAD_DIGIT, _LEAD_DIGIT + nd))
            point = kind - 4
            if kind in (0, 21):
                fraction = source(".") + digits[1:] if nd > 1 else []
                # The exponent's sign, then its last 2 or 3 digits.
                exponent_bytes = [_EXPONENT] + list(range(_EXPONENT + 1 + (kind == 0), _EXPONENT + 4))
                body = digits[:1] + fraction + source("e") + exponent_bytes
            elif point <= 0:
                body = source("0.") + source("0") * -point + digits
            elif point >= nd:
                body = digits + source("0") * (point - nd) + source(".0")
            else:
                body = digits[:point] + source(".") + digits[point:]
            for position, (prefix, suffix) in enumerate(zip(_PREFIXES, _SUFFIXES)):
                cell = source(prefix) + source("-") + body + source(suffix)
                cells[kind, nd, position, : len(cell)] = cell
    return powers, quad, zeros, exponent, notation, cells.reshape(-1, _CELL)


def _mulhi(alo, ahi, blo, bhi):
    """The high 64 bits of a * b, 64-bit unsigned, from 32-bit halves."""
    mid = alo * blo
    cross1 = alo * bhi
    cross2 = ahi * blo
    mid >>= _U64(32)
    mid += cross1 & _LOW32
    mid += cross2 & _LOW32
    mid >>= _U64(32)
    cross1 >>= _U64(32)
    cross2 >>= _U64(32)
    mid += cross1
    mid += cross2
    mid += ahi * bhi
    return mid


def _rop(g, cp):
    """Schubfach's rop: g * cp / 2**127 rounded to odd, g = g1 * 2**63 + g0."""
    g1, g1lo, g1hi, g0lo, g0hi = g
    clo, chi = cp & _LOW32, cp >> _U64(32)
    z = g1 * cp
    z >>= _U64(1)
    z += _mulhi(g0lo, g0hi, clo, chi)
    vb = _mulhi(g1lo, g1hi, clo, chi)
    vb += z >> _U64(63)
    z &= _LOW63
    z += _LOW63
    z >>= _U64(63)
    vb |= z
    return vb


def _shortest(mag, powers):
    """(d, k) with d * 10**k the decimal of fewest digits that reads back as
    each double of magnitude bits ``mag`` (all normal), the closest of those,
    ties to an even d: Schubfach's skeleton (R. Giulietti, "The Schubfach way
    to render doubles", 2020), as Java's DoubleToDecimal runs it, on uint64.
    d has 16 or 17 digits, trailing zeros included."""
    ks, hs, *halves = powers
    frac = mag & _LOW52
    # A power of two has its lower neighbour half as far as its upper one,
    # except at the smallest exponent, where the subnormals continue the spacing.
    pow2 = (frac == _U64(0)) & (mag >= _U64(2 << 52))
    e = mag >> _U64(52)
    e <<= _U64(1)
    e += pow2
    g = [np.take(t, e) for t in halves]
    h = np.take(hs, e)
    # c = frac + 2**52; the rounding interval's ends, in quarters, are
    # 4c - 2 (4c - 1 below a power of two) and 4c + 2, inclusive for even c.
    cb = frac | _U64(1 << 52)
    cb <<= _U64(2)
    cb <<= h
    vb = _rop(g, cb)
    step = _U64(2) << h
    odd = frac & _U64(1)
    vbr = _rop(g, cb + step)
    vbr -= odd
    step >>= pow2.astype(np.uint64)
    cb -= step
    vbl = _rop(g, cb)
    vbl += odd
    s = vb >> _U64(2)
    sp10 = s // _U64(10)
    sp10 *= _U64(10)
    tp10 = sp10 + _U64(10)
    # A decimal of one digit fewer in the interval, if exactly one of sp10
    # and tp10 is; else the closer of s and s + 1 that is, ties to even.
    upin = vbl <= sp10 << _U64(2)
    wpin = tp10 << _U64(2) <= vbr
    uin = vbl <= s << _U64(2)
    win = (s + _U64(1)) << _U64(2) <= vbr
    above_half = (vb & _U64(3)) + (s & _U64(1)) > _U64(2)
    s += ~uin | (win & above_half)
    return np.where(upin != wpin, np.where(upin, sp10, tp10), s), np.take(ks, e)


def _render(x: np.ndarray, start: int, row_len: int, tables: tuple, work: tuple) -> bytes:
    """The text of ``x``, numbers ``start`` on of a block of rows of
    ``row_len`` numbers, with the separators around each, as in json.dumps."""
    powers, quad, zeros, exponent, notation, cells = tables
    index, source, offsets, base = work
    n = x.size
    bits = x.view(np.uint64)
    mag = bits & _LOW63
    # Zeros and subnormals go through the digits of 1.0: decimal point 1, one
    # digit. That digit becomes 0 for a zero; a subnormal is written by repr.
    normal = mag >= _SMALLEST_NORMAL
    subnormal = np.flatnonzero(~normal & (mag != _U64(0)))
    mag[~normal] = _ONE
    d, decpt = _shortest(mag, powers)
    # Normalized to 17 digits; decpt is the decimal point's position in them.
    short = d < _U64(10**16)
    decpt += 17
    decpt -= short
    d *= np.where(short, _U64(10), _U64(1))
    d *= normal
    high = d // _U64(10**8)
    low = (d - high * _U64(10**8)).astype(np.uint32)
    high = high.astype(np.uint32)
    q1 = high // np.uint32(10000)
    q2 = high - q1 * np.uint32(10000)
    lead = q1 // np.uint32(10000)
    q1 -= lead * np.uint32(10000)
    q3 = low // np.uint32(10000)
    q4 = low - q3 * np.uint32(10000)
    trailing = np.take(zeros, q4) + (q4 == 0) * (
        np.take(zeros, q3) + (q3 == 0) * (np.take(zeros, q2) + (q2 == 0) * np.take(zeros, q1))
    )
    decpt += 400
    position = offsets[:n] + start % row_len
    position %= row_len
    kind = np.take(notation, decpt)
    kind *= 18
    kind += 17 - trailing
    kind *= 8
    kind += np.where(position == 0, 1, 2 + (position & 1) + (position == row_len - 1))
    if start == 0:
        kind[0] -= 1
    words = source[:n].T
    np.multiply((bits >> _U64(63)).astype(np.uint32), _MINUS, out=words[0])
    words[0] |= _WORD0
    np.multiply(lead + np.uint32(ord("0")), _LEAD, out=words[1])
    words[1] |= _WORD1
    for word, part in zip(words[2:6], (q1, q2, q3, q4)):
        word[...] = np.take(quad, part)
    words[6] = np.take(exponent, decpt)
    ix = index[:n]
    np.take(cells, kind, axis=0, out=ix, mode="clip")
    ix += base[:n]
    text = np.take(source.view(np.uint8).reshape(-1), ix, mode="clip")
    for i in subnormal.tolist():
        at = kind[i] % 8
        cell = (_PREFIXES[at] + repr(float(x[i])) + _SUFFIXES[at]).encode("ascii")
        text[i] = 0
        text[i, : len(cell)] = np.frombuffer(cell, dtype=np.uint8)
    return text.tobytes().translate(None, b"\0")


def _format_rows(rows: np.ndarray):
    """The JSON rows of a block of ``_float_rows``, joined by ", ", in one
    piece per _CHUNK numbers: each number as float.__repr__ writes it, the
    formatter json.dumps uses."""
    tables = _tables()
    flat = rows.reshape(-1)
    n = min(flat.size, _CHUNK)
    offsets = np.arange(n)
    source = np.empty((n, 8), dtype=np.uint32)
    source[:, 7] = _WORD7
    work = np.empty((n, _CELL), dtype=np.int32), source, offsets, (offsets * 32).astype(np.int32)[:, None]
    for i in range(0, flat.size, _CHUNK):
        yield _render(flat[i : i + _CHUNK], i, rows.shape[1], tables, work).decode("ascii")


def _encode(m):
    """``json.dumps(matrix_to_obj(m)) + "\\n"`` in pieces, rendered as they
    are taken; ``m`` is validated at the call."""
    rows = _float_rows(m)
    header = f'{{"rows": {rows.shape[0]}, "cols": {rows.shape[1] // 2}, "data": ['
    return chain((header,), _format_rows(rows), ("]}\n",))


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


def _read_exact(raw: bytes) -> np.ndarray | None:
    """The matrix in ``raw`` if it is a file in the writer's exact layout of
    finite doubles, else None. The rows are parsed in two runs, cut at the
    first row break after the body's middle byte, one after the other."""
    header = _HEADER.match(raw)
    if header is None or not raw.endswith(_TRAILER):
        return None
    n_rows, cols = int(header[1]), int(header[2])
    body = raw[header.end() : -len(_TRAILER)]
    # Each entry takes at least 8 bytes ("[0, 0], "): a header that promises
    # more entries than the file can hold is refused before any work per entry.
    if len(body) < 8 * n_rows * cols + 2 * (n_rows - 1):
        return None
    cut = body.find(_ROW_BREAK, len(body) // 2)
    runs = [body] if cut < 0 else [body[: cut + 2], body[cut + 4 :]]
    blocks = [_parse_rows(run, cols) for run in runs]
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
    is parsed from its numbers (see ``_read_exact``); any other file by
    ``json.load``, as is one that holds a number that is not a finite
    double, so that it fails with the same MatrixFileError."""
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
    """Write ``m`` to ``path``, its text streamed into the file as it is rendered."""
    atomic_write_text(path, _encode(m))
