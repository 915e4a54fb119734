import contextlib
import gc
import json
import os
import stat
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aluthge import _workers, cli, matrixio
from aluthge.matrixio import MatrixFileError, _format_rows, _matrix_from_obj, atomic_write_text, load_matrix, save_matrix

# A child forks only inside the commands' process context, and only where BLAS's thread count can be set.
# A command renders its files through _workers._shared, as cli._file_pieces.
needs_blas_threads = pytest.mark.skipif(_workers._openblas_threads() is None, reason="no known BLAS thread-count setter")
EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e-5, 1e16, 9999999999999998.0, 1e300, -1e300, 0.1]
_PARENT_PID = os.getpid()


def edge_matrix():
    vals = np.array(EDGE_VALUES)
    return vals[:, None] + 1j * vals[::-1][None, :]


CASES = {
    "edge_values": edge_matrix(),
    "transposed": np.ascontiguousarray(edge_matrix()[:, :7]).T,
    "row": np.arange(1.0, 6.0)[None, :] - 0.5j,
    "column": np.arange(1.0, 6.0)[:, None] * (1e-5 + 1e16j),
    "single": np.array([[-0.0 + 5e-324j]]),
}
# Row counts around the cut of a load's two-run parse: one row (no row break,
# so one run), one column, and an odd count.
SPLIT_CASES = {
    "one_row": np.arange(40.0)[None, :] * (0.1 - 3j),
    "one_column": np.arange(40.0)[:, None] * (1e-300 + 0.7j),
    "odd_rows": np.arange(15.0).reshape(3, 5) / 7 + 1j,
}


def reference_bytes(m) -> bytes:
    obj = {
        "rows": m.shape[0],
        "cols": m.shape[1],
        "data": [[[float(z.real), float(z.imag)] for z in row] for row in m],
    }
    return (json.dumps(obj) + "\n").encode("utf-8")


def assert_no_child():
    """This process has no child left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def sharing(share: bool):
    """The commands' process context where ``share``, in which a child may
    start but no load or save forks one; else nothing."""
    return _workers._blas_children() if share else contextlib.nullcontext()


@pytest.fixture(autouse=True)
def two_cpus(monkeypatch):
    """Every test sees two usable CPUs, and none leaves a child behind."""
    monkeypatch.setattr(_workers, "_usable_cpus", lambda: 2)
    yield
    assert_no_child()


def _fails_after_the_first_piece(rows):
    # The header and the first chunk of rows are written, then the write fails.
    pieces = _format_rows(rows)
    yield next(pieces)
    raise OSError(28, "No space left on device")


def _dies_in_workers(rows):
    if os.getpid() != _PARENT_PID:
        os._exit(9)
    return _format_rows(rows)


@pytest.mark.parametrize("name", sorted(CASES))
def test_save_matrix_bytes_and_exact_round_trip(tmp_path, name):
    m = CASES[name]
    if name == "transposed":
        assert not m.flags.c_contiguous
    path = tmp_path / "m.json"
    save_matrix(path, m)
    assert path.read_bytes() == reference_bytes(m)
    back = load_matrix(path)
    assert back.shape == m.shape
    assert back.tobytes() == np.ascontiguousarray(m, dtype=np.complex128).tobytes()


@needs_blas_threads
@pytest.mark.parametrize("name", sorted(CASES) + sorted(SPLIT_CASES))
def test_parallel_save_bytes_and_exact_round_trip(tmp_path, forks, children, name):
    # Two files of the matrix, rendered as a command renders its files: the
    # command and one forked child each claim the next. The load forks none.
    m = {**CASES, **SPLIT_CASES}[name]
    texts = list(_workers._shared(cli._file_pieces, [m, m]))
    assert ["".join(pieces).encode() for pieces in texts] == [reference_bytes(m)] * 2
    assert len(forks) == 1
    assert_no_child()
    path = tmp_path / "m.json"
    atomic_write_text(path, texts[1])
    assert load_matrix(path).tobytes() == np.ascontiguousarray(m, dtype=np.complex128).tobytes()
    assert len(forks) == 1  # the load forked none


LOAD_CASES = {
    "valid": '{"rows": 1, "cols": 1, "data": [[[1.0, 0.0]]]}',
    "invalid_json": "{",
    "missing_fields": '{"rows": 1}',
    "missing_file": None,
}


@pytest.mark.parametrize("collecting", [True, False])
@pytest.mark.parametrize("name", sorted(LOAD_CASES))
def test_load_matrix_leaves_gc_as_found(tmp_path, collecting, name):
    path = tmp_path / "m.json"
    if LOAD_CASES[name] is not None:
        path.write_text(LOAD_CASES[name])
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        if name == "valid":
            load_matrix(path)
        else:
            with pytest.raises(matrixio.MatrixFileError):
                load_matrix(path)
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()


def _no_fork():
    pytest.fail("forked outside the commands' process context")


def test_bare_save_of_a_large_matrix_starts_no_worker(tmp_path, monkeypatch, forks):
    # A save or a load forks no child, at any size, outside the commands'
    # process context or inside it (two usable CPUs); outside it, _shared of
    # two items runs in this process too.
    monkeypatch.setattr(os, "fork", _no_fork)
    m = np.random.default_rng(8).standard_normal((300, 600)).view(np.complex128)
    for share in (False, True):
        with sharing(share):
            save_matrix(tmp_path / "m.json", m)
            assert load_matrix(tmp_path / "m.json").tobytes() == m.tobytes()
        assert (tmp_path / "m.json").read_bytes() == reference_bytes(m)
    assert list(_workers._shared(lambda k: (k, os.getpid()), [0, 1])) == [(0, _PARENT_PID), (1, _PARENT_PID)]
    assert forks == [] and not _workers._may_fork


@needs_blas_threads
def test_large_matrix_takes_the_parallel_path(tmp_path, forks, children):
    # A 300 x 300 matrix: its save in the commands' context forks none, and
    # the files of a command forks one child, which could claim either.
    m = np.random.default_rng(8).standard_normal((300, 600)).view(np.complex128)
    save_matrix(tmp_path / "m.json", m)
    assert forks == []
    texts = list(_workers._shared(cli._file_pieces, [m, m]))
    assert ["".join(pieces).encode() for pieces in texts] == [reference_bytes(m)] * 2
    assert (tmp_path / "m.json").read_bytes() == reference_bytes(m)
    assert [[matrix.shape for matrix in items] for items in forks] == [[(300, 300), (300, 300)]]


@needs_blas_threads
def test_no_worker_below_threshold_or_on_one_cpu(tmp_path, monkeypatch, forks):
    # There is no size threshold: in the commands' context a save or a load
    # forks none at any size, and a lone file is rendered here.
    with _workers._blas_children():
        for n in (1, 299, 300):
            save_matrix(tmp_path / f"{n}.json", np.zeros((n, n), dtype=complex))
            assert load_matrix(tmp_path / f"{n}.json").shape == (n, n)
        assert ["".join(pieces).encode() for pieces in _workers._shared(cli._file_pieces, [np.eye(2)])] == [
            reference_bytes(np.eye(2))
        ]
    assert forks == []
    # On one usable CPU the context lets no child start for a command's files.
    monkeypatch.setattr(_workers, "_usable_cpus", lambda: 1)
    with _workers._blas_children():
        texts = list(_workers._shared(cli._file_pieces, [edge_matrix(), edge_matrix()]))
    assert ["".join(pieces).encode() for pieces in texts] == [reference_bytes(edge_matrix())] * 2
    assert forks == []


@needs_blas_threads
@pytest.mark.parametrize("cpus", [1, 2, 3, 64])
def test_shares_capped_at_one_worker(tmp_path, monkeypatch, forks, cpus):
    # A command's files fork one child whatever the CPU count from two on,
    # and none on one CPU; a lone save forks none on any count.
    monkeypatch.setattr(_workers, "_usable_cpus", lambda: cpus)
    with _workers._blas_children():
        save_matrix(tmp_path / "m.json", edge_matrix())
        assert forks == []
        texts = list(_workers._shared(cli._file_pieces, [edge_matrix()] * 3))
    assert len(forks) == min(cpus - 1, 1)
    assert (tmp_path / "m.json").read_bytes() == reference_bytes(edge_matrix())
    assert ["".join(pieces).encode() for pieces in texts] == [reference_bytes(edge_matrix())] * 3


@needs_blas_threads
def test_killed_worker_block_is_formatted_here(tmp_path, monkeypatch, forks, children):
    monkeypatch.setattr(matrixio, "_format_rows", _dies_in_workers)
    outputs = {tmp_path / "a.json": edge_matrix(), tmp_path / "b.json": np.eye(2)}
    for path, pieces in zip(outputs, _workers._shared(cli._file_pieces, list(outputs.values()))):
        atomic_write_text(path, pieces)
    assert len(forks) == 1
    assert [path.read_bytes() for path in outputs] == [reference_bytes(m) for m in outputs.values()]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json", "b.json"]


@needs_blas_threads
def test_write_failing_mid_stream_leaves_nothing(tmp_path, monkeypatch, forks, children):
    old = tmp_path / "old.json"
    save_matrix(old, np.eye(2))
    monkeypatch.setattr(matrixio, "_format_rows", _fails_after_the_first_piece)
    with pytest.raises(OSError, match="No space left"):
        save_matrix(tmp_path / "new.json", edge_matrix())
    with pytest.raises(OSError, match="No space left"):
        save_matrix(old, edge_matrix())
    assert forks == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["old.json"]
    assert old.read_bytes() == reference_bytes(np.eye(2))


@needs_blas_threads
def test_child_computes_the_last_item_and_sends_it_back(children):
    # Each item takes 50 ms, so the child claims one while the command
    # computes the other, and sends its result back.
    computed_here = []

    def fn(k):
        computed_here.append(k)
        time.sleep(0.05)
        return k, os.getpid()

    results = list(_workers._shared(fn, [0, 1]))
    assert len(computed_here) == 1
    assert [k for k, _ in results] == [0, 1]
    assert sorted(pid == _PARENT_PID for _, pid in results) == [False, True]


def test_interrupt_while_the_child_writes_leaves_no_child(children):
    # The command is interrupted 0.1 s into the item it claims; the child's
    # result for the other outgrows the pipe, so it blocks writing until the
    # read end is closed. The autouse fixture checks that it was reaped.
    def fn(k):
        if os.getpid() == _PARENT_PID:
            time.sleep(0.1)
            raise KeyboardInterrupt
        return b"x" * (1 << 20)

    with pytest.raises(KeyboardInterrupt):
        list(_workers._shared(fn, [0, 1]))


def test_atomic_write_follows_symlink_to_regular_file(tmp_path):
    target = tmp_path / "target.json"
    target.write_text("old\n")
    link = tmp_path / "link.json"
    os.symlink(target, link)
    atomic_write_text(link, "new\n")
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_text() == "new\n"
    save_matrix(link, np.eye(2))
    assert link.is_symlink() and target.read_bytes() == reference_bytes(np.eye(2))


def test_atomic_write_refuses_non_regular_target(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    os.symlink(fifo, tmp_path / "link")
    for path in (fifo, tmp_path / "link", tmp_path):
        with pytest.raises(OSError, match="not a regular file"):
            atomic_write_text(path, "text\n")
    assert stat.S_ISFIFO(os.stat(fifo).st_mode) and (tmp_path / "link").is_symlink()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link", "pipe"]


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_written_file_honours_umask(tmp_path, umask):
    old = os.umask(umask)
    try:
        save_matrix(tmp_path / "m.json", np.eye(2))
    finally:
        os.umask(old)
    assert stat.S_IMODE((tmp_path / "m.json").stat().st_mode) == 0o666 & ~umask


def reference_load(path):
    """What ``json.load`` of the file read as UTF-8 text, then
    ``_matrix_from_obj``, give: the matrix, or the MatrixFileError message."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except ValueError as exc:
        return f"invalid JSON in {path}: {exc}"
    try:
        return _matrix_from_obj(obj)
    except MatrixFileError as exc:
        return str(exc)


def load_outcome(path, share=False):
    """``load_matrix``'s matrix, or its MatrixFileError message, inside the
    commands' process context where ``share``."""
    try:
        with sharing(share):
            return load_matrix(path)
    except MatrixFileError as exc:
        return str(exc)


def assert_same_outcome(got, want):
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str), got
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


# Four written rows; a change to the last number falls in the second run of the parse.
NEAR_MISS_BASE = np.array(
    [[1.5 + 0.25j, -2.0 + 3.0j], [4.0 - 0.0j, 0.5 + 7.0j], [0.125 + 8.0j, 9.0 + 0.75j], [6.5 + 1e-300j, complex(-0.0, 2.5)]]
)
NEAR_MISS_END = b"[-0.0, 2.5]]]}\n"


def _last_number(token: bytes):
    return lambda text: text.replace(NEAR_MISS_END, b"[-0.0, " + token + b"]]]}\n")


def _replace(old: bytes, new: bytes):
    return lambda text: text.replace(old, new)


# Files in the writer's header layout that deviate from it in one place, and
# whole files from the malformed-input cases; each must read as json.load reads it.
NEAR_MISSES = {
    **{f"number_{token.decode()}": _last_number(token)
       for token in (b"1.", b".5", b"01", b"+1", b"1e", b"--1", b"1e400", b"-1e400", b"NaN", b"Infinity", b"-")},
    "int_overflows_double": _last_number(b"1" + b"0" * 400),
    "int_over_4300_digits": _last_number(b"1" * 4301),
    "integer_entry": _last_number(b"7"),
    "integer_entries": lambda text: json.dumps(
        {"rows": 2, "cols": 2, "data": [[[1, 2], [3, -4]], [[0, 5], [6, 7]]]}).encode() + b"\n",
    "three_number_entry": _replace(NEAR_MISS_END, b"[-0.0, 2.5, 1.0]]]}\n"),
    "one_number_entry": _replace(NEAR_MISS_END, b"[-0.0]]]}\n"),
    "missing_entry": _replace(b", " + NEAR_MISS_END, b"]]}\n"),
    "missing_row": _replace(b", [[6.5, 1e-300], " + NEAR_MISS_END, b"]}\n"),
    "extra_row": _replace(NEAR_MISS_END, b"[-0.0, 2.5]], [[1.0, 2.0], [3.0, 4.0]]]}\n"),
    "empty_number": _replace(NEAR_MISS_END, b"[-0.0, ]]]}\n"),
    "number_moved_past_bracket": _replace(NEAR_MISS_END, b"[-0.0, ]2.5]]}\n"),
    "number_moved_before_bracket": _replace(b"[[6.5, ", b"6.5[[, "),
    "number_after_bracket": _replace(b"1e-300]", b"1e-300]5"),
    "entry_not_a_list": _replace(NEAR_MISS_END, b"5]]}\n"),
    "extra_space": _replace(b"[-0.0, 2.5]", b"[-0.0,  2.5]"),
    "space_in_bracket": _replace(b"[-0.0, 2.5]", b"[ -0.0, 2.5]"),
    "tab": _replace(b"[-0.0, 2.5]", b"[-0.0,\t2.5]"),
    "no_final_newline": lambda text: text[:-1],
    "two_final_newlines": lambda text: text + b"\n",
    "crlf": lambda text: text.replace(b"]], [[", b"]],\r\n[[").replace(b"}\n", b"}\r\n"),
    "bom": lambda text: b"\xef\xbb\xbf" + text,
    "header_without_spaces": _replace(b'{"rows": 4, "cols": 2, "data": ', b'{"rows":4,"cols":2,"data":'),
    "keys_reordered": _replace(b'{"rows": 4, "cols": 2, ', b'{"cols": 2, "rows": 4, '),
    "rows_zero": _replace(b'"rows": 4', b'"rows": 0'),
    "rows_too_many": _replace(b'"rows": 4', b'"rows": 5'),
    "rows_leading_zero": _replace(b'"rows": 4', b'"rows": 04'),
    "cols_too_few": _replace(b'"cols": 2', b'"cols": 1'),
    "rows_float": _replace(b'"rows": 4', b'"rows": 4.0'),
    "rows_string": _replace(b'"rows": 4', b'"rows": "4"'),
    "rows_true": _replace(b'"rows": 4', b'"rows": true'),
    "entry_bool": _last_number(b"true"),
    "entry_null": _last_number(b"null"),
    "entry_string": _last_number(b'"2.5"'),
    "not_utf8": _last_number(b"\xff"),
    "trailing_garbage": lambda text: text + b"x",
    "truncated": lambda text: text[: len(text) // 2],
    "empty_file": lambda text: b"",
    "invalid_json": lambda text: b"{",
    "missing_fields": lambda text: b'{"rows": 1}',
    "data_not_a_list": lambda text: b'{"rows": 1, "cols": 1, "data": 5}',
    "not_an_object": lambda text: b"[1, 2]",
}


@pytest.mark.parametrize("shared", [False, True])
def test_near_misses_read_as_json_load_reads_them(tmp_path, shared):
    base = tmp_path / "base.json"
    save_matrix(base, NEAR_MISS_BASE)
    text = base.read_bytes()
    assert text.endswith(NEAR_MISS_END) and load_matrix(base).tobytes() == NEAR_MISS_BASE.tobytes()
    valid = []
    for name, change in sorted(NEAR_MISSES.items()):
        path = tmp_path / f"{name}.json"
        path.write_bytes(change(text))
        assert path.read_bytes() != text, name
        want = reference_load(path)
        assert_same_outcome(load_outcome(path, shared), want)
        if not isinstance(want, str):
            valid.append(name)
    # The deviations json.load accepts; every other case is an error with json.load's message.
    assert valid == [
        "crlf", "extra_space", "header_without_spaces", "integer_entries", "integer_entry", "keys_reordered",
        "no_final_newline", "space_in_bracket", "tab", "two_final_newlines",
    ]


def test_huge_header_over_small_body_fails_without_work_per_entry(tmp_path, monkeypatch, forks):
    path = tmp_path / "huge.json"
    path.write_bytes(b'{"rows": 1000000000, "cols": 1000000000, "data": [[[1.0, 0.0]]]}\n')
    monkeypatch.setattr(matrixio, "_parse_rows", lambda *args: pytest.fail("parsed rows the header cannot hold"))
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(MatrixFileError) as exc:
            with _workers._blas_children():
                load_matrix(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0 and peak < 1 << 20
    assert str(exc.value) == reference_load(path) == "data shape does not match 1000000000x1000000000"
    assert forks == []  # no child is forked for it either


@needs_blas_threads
@pytest.mark.parametrize("share", [False, True], ids=["False", "True"])
def test_exact_layout_takes_the_fast_path(tmp_path, monkeypatch, forks, share):
    m = np.arange(1.0, 41.0).reshape(8, 5) * (0.1 - 3j)
    save_matrix(tmp_path / "m.json", m)
    monkeypatch.setattr(matrixio, "_read_json", lambda raw, path: pytest.fail("fell back to json.load"))
    with sharing(share):
        assert load_matrix(tmp_path / "m.json").tobytes() == m.tobytes()
    assert forks == []


def test_rows_are_parsed_in_two_runs_cut_after_the_middle(tmp_path, monkeypatch, forks, children):
    m = np.arange(1.0, 161.0).reshape(10, 16) - 2j
    save_matrix(tmp_path / "m.json", m)
    parse_rows, runs = matrixio._parse_rows, []
    monkeypatch.setattr(matrixio, "_parse_rows", lambda text, cols: runs.append(text) or parse_rows(text, cols))
    assert load_matrix(tmp_path / "m.json").tobytes() == m.tobytes()
    text = (tmp_path / "m.json").read_bytes()
    # The command parses the rows before and after the first row break after
    # the middle byte of the rows, one run after the other, in this process.
    earlier, later = runs
    body = text[text.index(b"[[[") + 1 : -len(b"]}\n")]
    cut = len(earlier) - len(b"]]")
    assert body == earlier + b", " + later and body[cut:].startswith(b"]], [[")
    assert body.rfind(b"]], [[", 0, cut) < len(body) // 2 <= cut
    assert forks == []


_NO_BRACKETS = str.maketrans("", "", "[]")


def rendered(values) -> list:
    """The writer's text of each of ``values``, written as one row of a matrix
    (padded with a 0.0 to whole [re, im] entries)."""
    x = np.asarray(values, dtype=np.float64).ravel()
    row = np.concatenate([x, np.zeros(x.size % 2)])[None, :]
    return "".join(_format_rows(row)).translate(_NO_BRACKETS).split(", ")[: x.size]


def with_neighbours(x):
    """``x``, both signs, and the doubles one ulp either side of each."""
    x = np.concatenate([x, -x])
    return np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)])


def test_random_bit_patterns_render_as_repr():
    # Uniform 64-bit patterns cover every exponent alike; the few NaNs and
    # infinities among them, which validate_matrix refuses, are dropped.
    bits = np.random.default_rng(30).integers(0, 1 << 64, size=1_001_000, dtype=np.uint64, endpoint=False)
    x = bits.view(np.float64)
    x = x[np.isfinite(x)][:1_000_000]
    assert x.size == 1_000_000
    assert rendered(x) == [repr(v) for v in x.tolist()]


EXTREME_SETS = {
    "powers_of_two": np.ldexp(1.0, np.arange(-1074, 1024)),
    "powers_of_ten": np.array([float(f"1e{k}") for k in range(-323, 309)]),
    "integers_near_2_53": float(2**53) + np.arange(-2000.0, 2000.0),
    "notation_boundaries": np.array([1e16, 9999999999999998.0, 1e-4, 9.999999999999999e-05]),
    "zero_and_subnormal_extremes": np.array([0.0, 5e-324, 1e-323, 2.225073858507201e-308, 2.2250738585072014e-308]),
    "edge_values": np.array(EDGE_VALUES),
}


@pytest.mark.parametrize("name", sorted(EXTREME_SETS))
def test_extreme_values_render_as_repr(name):
    x = with_neighbours(EXTREME_SETS[name])
    assert rendered(x) == [repr(v) for v in x.tolist()]


@pytest.mark.parametrize("shape", [
    (1, matrixio._CHUNK // 2 - 1), (1, matrixio._CHUNK // 2), (1, matrixio._CHUNK // 2 + 1),
    (matrixio._CHUNK - 1, 1), (matrixio._CHUNK, 1), (matrixio._CHUNK + 1, 1), (3, 2 * matrixio._CHUNK // 3),
], ids=str)
def test_chunk_edges_and_thin_matrices_match_json_dumps(tmp_path, shape):
    # Numbers are rendered _CHUNK at a time: a chunk may end inside a row, at
    # its end or one entry either side, and a 1 x n or n x 1 matrix holds one
    # row or one column of them. The values mix notations, zeros and subnormals.
    rng = np.random.default_rng(sum(shape))
    pool = np.concatenate([with_neighbours(EXTREME_SETS["powers_of_ten"]), EDGE_VALUES, rng.standard_normal(500)])
    m = rng.choice(pool, size=(*shape, 2)).view(np.complex128)[..., 0]
    save_matrix(tmp_path / "m.json", m)
    assert (tmp_path / "m.json").read_bytes() == reference_bytes(m)


def test_writer_tables_are_built_only_by_a_save(tmp_path):
    # Importing the commands and running verify and iterate write no matrix
    # file, so none of them builds the writer's tables; a save does.
    m = np.random.default_rng(3).standard_normal((4, 8)).view(np.complex128)
    (tmp_path / "in.json").write_text(json.dumps(matrixio.matrix_to_obj(m)) + "\n")
    verify = ["verify", "--dims", "2", "3", "--trials", "5", "--output-dir", str(tmp_path / "v")]
    iterate = ["iterate", str(tmp_path / "in.json"), "--output", str(tmp_path / "trace.csv")]
    code = (
        "from aluthge.cli import main\nfrom aluthge.matrixio import _tables, save_matrix\n"
        f"built = [_tables.cache_info().misses]\nassert main({verify!r}) == 0\nbuilt.append(_tables.cache_info().misses)\n"
        f"assert main({iterate!r}) == 0\nbuilt.append(_tables.cache_info().misses)\n"
        f"save_matrix({str(tmp_path / 'out.json')!r}, [[1.0]])\nprint(*built, _tables.cache_info().misses)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(matrixio.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out.splitlines()[-1].split() == ["0", "0", "0", "1"]


FINITE = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def matrices(draw):
    # 1 x k, k x 1 and row counts around the parse's cut, of 1 to 9 rows.
    rows, cols = draw(st.sampled_from([(1, 1), (1, 7), (7, 1), (2, 3), (3, 2), (4, 4), (5, 3), (9, 2)]))
    parts = draw(st.lists(FINITE, min_size=2 * rows * cols, max_size=2 * rows * cols))
    return np.array(parts).view(np.complex128).reshape(rows, cols)


def test_save_load_round_trip_property():
    # Every example of two or more rows is parsed in two runs, whatever its
    # size, inside the commands' process context or outside it.
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.json")

        @settings(max_examples=150, deadline=None, derandomize=True, database=None)
        @given(matrices(), st.booleans())
        def round_trip(m, share):
            with sharing(share):
                save_matrix(path, m)
            with open(path, "rb") as fh:
                assert fh.read() == reference_bytes(m)
            with sharing(share):
                back = load_matrix(path)
            assert back.shape == m.shape and back.tobytes() == m.tobytes()
            with open(path, encoding="utf-8") as fh:
                assert back.tobytes() == _matrix_from_obj(json.load(fh)).tobytes()

        round_trip()
