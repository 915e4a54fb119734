import json
import multiprocessing
import os
import stat
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from aluthge import matrixio
from aluthge.matrixio import _format_rows, atomic_write_text, load_matrix, save_matrix

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
# to split, so no worker), one column, and an odd count.
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


@pytest.fixture(autouse=True)
def two_cpus(monkeypatch):
    """Every save sees two usable CPUs, and no test leaves a worker behind."""
    monkeypatch.setattr(matrixio, "_usable_cpus", lambda: 2)
    yield
    assert multiprocessing.active_children() == []


@pytest.fixture
def submits(monkeypatch):
    """The blocks handed to worker processes, recorded as they are submitted."""
    blocks = []
    submit = ProcessPoolExecutor.submit

    def recording_submit(self, fn, *args):
        blocks.append(args[0])
        return submit(self, fn, *args)

    monkeypatch.setattr(ProcessPoolExecutor, "submit", recording_submit)
    return blocks


def _fails_in_workers(rows):
    if os.getpid() != _PARENT_PID:
        raise OSError(28, "No space left on device")
    return _format_rows(rows)


def _dies_in_workers(rows):
    if os.getpid() != _PARENT_PID:
        os._exit(1)
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
def test_parallel_save_bytes_and_exact_round_trip(tmp_path, monkeypatch, name):
    monkeypatch.setattr(matrixio, "PARALLEL_ENTRIES", 1)
    m = {**CASES, **SPLIT_CASES}[name]
    path = tmp_path / "m.json"
    save_matrix(path, m)
    assert path.read_bytes() == reference_bytes(m)
    assert multiprocessing.active_children() == []
    assert load_matrix(path).tobytes() == np.ascontiguousarray(m, dtype=np.complex128).tobytes()


def test_large_matrix_takes_the_parallel_path(tmp_path, submits):
    # The real threshold: 300 x 300 lies above it, so a worker formats half the rows.
    assert 300 * 300 >= matrixio.PARALLEL_ENTRIES
    m = np.random.default_rng(8).standard_normal((300, 600)).view(np.complex128)
    save_matrix(tmp_path / "m.json", m)
    assert (tmp_path / "m.json").read_bytes() == reference_bytes(m)
    assert [block.shape for block in submits] == [(150, 600)]


def test_no_worker_below_threshold_or_on_one_cpu(tmp_path, monkeypatch, submits):
    small = int(np.sqrt(matrixio.PARALLEL_ENTRIES)) - 1
    save_matrix(tmp_path / "small.json", np.eye(small))
    monkeypatch.setattr(matrixio, "PARALLEL_ENTRIES", 1)
    monkeypatch.setattr(matrixio, "_usable_cpus", lambda: 1)
    save_matrix(tmp_path / "one_cpu.json", edge_matrix())
    assert submits == []
    assert (tmp_path / "one_cpu.json").read_bytes() == reference_bytes(edge_matrix())


@pytest.mark.parametrize("cpus", [1, 2, 3, 64])
def test_shares_capped_at_one_worker(monkeypatch, cpus):
    # The computed count only: no worker is started.
    monkeypatch.setattr(matrixio, "_usable_cpus", lambda: cpus)
    big = matrixio._float_rows(np.zeros((200, 200), complex))
    two_rows = matrixio._float_rows(np.zeros((2, 20000), complex))
    one_row = matrixio._float_rows(np.zeros((1, 40000), complex))
    assert matrixio._shares(big) == matrixio._shares(two_rows) == min(cpus, 2)
    assert matrixio._shares(one_row) == 1
    assert matrixio._shares(matrixio._float_rows(np.zeros((170, 190), complex))) == 1


def test_killed_worker_block_is_formatted_here(tmp_path, monkeypatch):
    monkeypatch.setattr(matrixio, "PARALLEL_ENTRIES", 1)
    monkeypatch.setattr(matrixio, "_format_rows", _dies_in_workers)
    save_matrix(tmp_path / "m.json", edge_matrix())
    assert (tmp_path / "m.json").read_bytes() == reference_bytes(edge_matrix())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json"]


def test_write_failing_mid_stream_leaves_nothing(tmp_path, monkeypatch):
    old = tmp_path / "old.json"
    save_matrix(old, np.eye(2))
    monkeypatch.setattr(matrixio, "PARALLEL_ENTRIES", 1)
    monkeypatch.setattr(matrixio, "_format_rows", _fails_in_workers)
    with pytest.raises(OSError, match="No space left"):
        save_matrix(tmp_path / "new.json", edge_matrix())
    with pytest.raises(OSError, match="No space left"):
        save_matrix(old, edge_matrix())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["old.json"]
    assert old.read_bytes() == reference_bytes(np.eye(2))


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
