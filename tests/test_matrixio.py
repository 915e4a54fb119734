import gc
import json
import os
import stat
import tempfile
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aluthge import _workers, matrixio
from aluthge.matrixio import MatrixFileError, _format_rows, _matrix_from_obj, atomic_write_text, load_matrix, save_matrix

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
# Row counts around the two-way split of the parallel path: one row (too few
# to split, so no child), one column, and an odd count.
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


@pytest.fixture(autouse=True)
def two_cpus(monkeypatch):
    """Every test sees two usable CPUs, and none leaves a child behind."""
    monkeypatch.setattr(_workers, "_usable_cpus", lambda: 2)
    yield
    assert_no_child()


def _fails_on_later_rows(rows):
    # The second half of edge_matrix's rows starts at this number: those rows
    # fail in the child and again in the rerun here.
    if rows[0, 0] == EDGE_VALUES[len(EDGE_VALUES) // 2]:
        raise OSError(28, "No space left on device")
    return _format_rows(rows)


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


@pytest.mark.parametrize("name", sorted(CASES) + sorted(SPLIT_CASES))
def test_parallel_save_bytes_and_exact_round_trip(tmp_path, monkeypatch, forks, name):
    m = {**CASES, **SPLIT_CASES}[name]
    path = tmp_path / "m.json"
    monkeypatch.setattr(matrixio, "PARALLEL_ENTRIES", 1)
    save_matrix(path, m, share=True)
    assert path.read_bytes() == reference_bytes(m)
    assert len(forks) == (m.shape[0] > 1)
    assert_no_child()
    assert load_matrix(path).tobytes() == np.ascontiguousarray(m, dtype=np.complex128).tobytes()


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


def test_bare_save_of_a_large_matrix_starts_no_worker(tmp_path, forks):
    # Only a caller that shares a matrix forks: without share, it formats every row.
    assert 300 * 300 >= matrixio.PARALLEL_ENTRIES
    m = np.random.default_rng(8).standard_normal((300, 600)).view(np.complex128)
    save_matrix(tmp_path / "m.json", m)
    assert forks == []
    assert (tmp_path / "m.json").read_bytes() == reference_bytes(m)


def test_large_matrix_takes_the_parallel_path(tmp_path, forks):
    # The real threshold: a 300 x 300 matrix lies above it, so a shared save
    # forks a child, which formats the second half of the rows.
    m = np.random.default_rng(8).standard_normal((300, 600)).view(np.complex128)
    save_matrix(tmp_path / "m.json", m, share=True)
    assert (tmp_path / "m.json").read_bytes() == reference_bytes(m)
    assert [[block.shape for block in items] for items in forks] == [[(150, 600), (150, 600)]]


def test_no_worker_below_threshold_or_on_one_cpu(tmp_path, monkeypatch, forks):
    small = int(np.sqrt(matrixio.PARALLEL_ENTRIES)) - 1
    for n in (small, small + 1):
        save_matrix(tmp_path / f"{n}.json", np.zeros((n, n), dtype=complex))
        assert load_matrix(tmp_path / f"{n}.json", share=True).shape == (n, n)
    # The decision comes from the shape the header gives, once the bytes are read.
    assert [len(items) for items in forks] == [2]
    assert [matrixio._parts(True, n, n) for n in (small, small + 1)] == [1, 2]
    assert matrixio._parts(False, small + 1, small + 1) == 1
    monkeypatch.setattr(matrixio, "PARALLEL_ENTRIES", 1)
    assert matrixio._parts(True, 10, 10) == 2
    monkeypatch.setattr(_workers, "_usable_cpus", lambda: 1)
    assert matrixio._parts(True, 10, 10) == 1
    save_matrix(tmp_path / "edge.json", edge_matrix(), share=True)
    load_matrix(tmp_path / "edge.json", share=True)
    assert len(forks) == 1


@pytest.mark.parametrize("cpus", [1, 2, 3, 64])
def test_shares_capped_at_one_worker(monkeypatch, cpus):
    # The computed split only: no child is forked.
    monkeypatch.setattr(_workers, "_usable_cpus", lambda: cpus)
    parts = {(r, c): matrixio._parts(True, r, c) for r, c in [(200, 200), (2, 20000), (1, 40000), (170, 190)]}
    assert parts == {(200, 200): min(cpus, 2), (2, 20000): min(cpus, 2), (1, 40000): 1, (170, 190): 1}


def test_killed_worker_block_is_formatted_here(tmp_path, monkeypatch, forks):
    monkeypatch.setattr(matrixio, "PARALLEL_ENTRIES", 1)
    monkeypatch.setattr(matrixio, "_format_rows", _dies_in_workers)
    save_matrix(tmp_path / "m.json", edge_matrix(), share=True)
    assert len(forks) == 1
    assert (tmp_path / "m.json").read_bytes() == reference_bytes(edge_matrix())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json"]


def test_write_failing_mid_stream_leaves_nothing(tmp_path, monkeypatch, forks):
    old = tmp_path / "old.json"
    save_matrix(old, np.eye(2))
    monkeypatch.setattr(matrixio, "PARALLEL_ENTRIES", 1)
    monkeypatch.setattr(matrixio, "_format_rows", _fails_on_later_rows)
    with pytest.raises(OSError, match="No space left"):
        save_matrix(tmp_path / "new.json", edge_matrix(), share=True)
    with pytest.raises(OSError, match="No space left"):
        save_matrix(old, edge_matrix(), share=True)
    assert len(forks) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["old.json"]
    assert old.read_bytes() == reference_bytes(np.eye(2))


def test_child_computes_the_last_item_and_sends_it_back():
    computed_here = []

    def fn(k):
        computed_here.append(k)
        return k, os.getpid()

    results = _workers._fork_join(fn, [0, 1, 2])
    assert computed_here == [0, 1]
    assert [k for k, _ in results] == [0, 1, 2]
    assert [pid == _PARENT_PID for _, pid in results] == [True, True, False]


def test_interrupt_while_the_child_writes_leaves_no_child():
    # The child's result outgrows the pipe, so it blocks writing until the
    # read end is closed; the autouse fixture checks that it was reaped.
    def fn(k):
        if k == 0:
            raise KeyboardInterrupt
        return b"x" * (1 << 20)

    with pytest.raises(KeyboardInterrupt):
        _workers._fork_join(fn, [0, 1])


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
    """``load_matrix``'s matrix, or its MatrixFileError message."""
    try:
        return load_matrix(path, share)
    except MatrixFileError as exc:
        return str(exc)


def assert_same_outcome(got, want):
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str), got
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


# Four written rows; a change to the last number falls in the rows a child parses.
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
def test_near_misses_read_as_json_load_reads_them(tmp_path, monkeypatch, shared):
    base = tmp_path / "base.json"
    save_matrix(base, NEAR_MISS_BASE)
    text = base.read_bytes()
    assert text.endswith(NEAR_MISS_END) and load_matrix(base).tobytes() == NEAR_MISS_BASE.tobytes()
    monkeypatch.setattr(matrixio, "PARALLEL_ENTRIES", 1)
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
            load_matrix(path, share=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0 and peak < 1 << 20
    assert str(exc.value) == reference_load(path) == "data shape does not match 1000000000x1000000000"
    assert forks == []  # no child is forked for it either


@pytest.mark.parametrize("shared", [False, True])
def test_exact_layout_takes_the_fast_path(tmp_path, monkeypatch, forks, shared):
    m = np.arange(1.0, 41.0).reshape(8, 5) * (0.1 - 3j)
    save_matrix(tmp_path / "m.json", m)
    monkeypatch.setattr(matrixio, "PARALLEL_ENTRIES", 1)
    monkeypatch.setattr(matrixio, "_read_json", lambda raw, path: pytest.fail("fell back to json.load"))
    assert load_matrix(tmp_path / "m.json", shared).tobytes() == m.tobytes()
    assert len(forks) == shared


def test_worker_parses_the_rows_after_the_middle(tmp_path, monkeypatch, forks):
    m = np.arange(1.0, 161.0).reshape(10, 16) - 2j
    save_matrix(tmp_path / "m.json", m)
    monkeypatch.setattr(matrixio, "PARALLEL_ENTRIES", 1)
    assert load_matrix(tmp_path / "m.json", share=True).tobytes() == m.tobytes()
    text = (tmp_path / "m.json").read_bytes()
    ((_, theirs),) = forks
    # The cut is the first row break after the middle byte of the rows.
    body = text[text.index(b"[[[") + 1 : -len(b"]}\n")]
    cut = len(body) - len(theirs) - len(b"]], ")
    assert body[cut:].startswith(b"]], [[") and body.endswith(theirs)
    assert body.rfind(b"]], [[", 0, cut) < len(body) // 2 <= cut


_PARSE_ROWS = matrixio._parse_rows


def _rows_die_in_workers(text, cols):
    if os.getpid() != _PARENT_PID:
        os._exit(9)
    return _PARSE_ROWS(text, cols)


def test_killed_worker_rows_are_parsed_here(tmp_path, monkeypatch, forks):
    m = np.arange(1.0, 161.0).reshape(10, 16) - 2j
    save_matrix(tmp_path / "m.json", m)
    monkeypatch.setattr(matrixio, "PARALLEL_ENTRIES", 1)
    monkeypatch.setattr(matrixio, "_parse_rows", _rows_die_in_workers)
    assert load_matrix(tmp_path / "m.json", share=True).tobytes() == m.tobytes()
    # A dead child costs only its own call: the next save forks a child of its own.
    save_matrix(tmp_path / "out.json", m, share=True)
    assert (tmp_path / "out.json").read_bytes() == reference_bytes(m)
    assert len(forks) == 2


FINITE = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def matrices(draw):
    # 1 x k, k x 1 and row counts around the split of 1 to 9 rows.
    rows, cols = draw(st.sampled_from([(1, 1), (1, 7), (7, 1), (2, 3), (3, 2), (4, 4), (5, 3), (9, 2)]))
    parts = draw(st.lists(FINITE, min_size=2 * rows * cols, max_size=2 * rows * cols))
    return np.array(parts).view(np.complex128).reshape(rows, cols)


def test_save_load_round_trip_property(monkeypatch):
    # Every shared example of two or more rows is split, whatever its size;
    # unshared, it is saved and loaded in this process alone.
    monkeypatch.setattr(matrixio, "PARALLEL_ENTRIES", 1)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.json")

        @settings(max_examples=150, deadline=None, derandomize=True, database=None)
        @given(matrices(), st.booleans())
        def round_trip(m, shared):
            save_matrix(path, m, shared)
            with open(path, "rb") as fh:
                assert fh.read() == reference_bytes(m)
            back = load_matrix(path, shared)
            assert back.shape == m.shape and back.tobytes() == m.tobytes()
            with open(path, encoding="utf-8") as fh:
                assert back.tobytes() == _matrix_from_obj(json.load(fh)).tobytes()

        round_trip()
