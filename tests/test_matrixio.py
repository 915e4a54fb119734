import json
import os
import stat

import numpy as np
import pytest

from aluthge.matrixio import load_matrix, save_matrix

EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e-5, 1e16, 9999999999999998.0, 1e300, -1e300, 0.1]


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


def reference_bytes(m) -> bytes:
    obj = {
        "rows": m.shape[0],
        "cols": m.shape[1],
        "data": [[[float(z.real), float(z.imag)] for z in row] for row in m],
    }
    return (json.dumps(obj) + "\n").encode("utf-8")


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


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_written_file_honours_umask(tmp_path, umask):
    old = os.umask(umask)
    try:
        save_matrix(tmp_path / "m.json", np.eye(2))
    finally:
        os.umask(old)
    assert stat.S_IMODE((tmp_path / "m.json").stat().st_mode) == 0o666 & ~umask
