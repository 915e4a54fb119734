import contextlib
import errno
import fcntl
import json
import os
import pickle
import random
import signal
import stat
import subprocess
import sys
import termios
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aluthge import _workers, cli, matrixio
from aluthge.cli import EXIT_CHECK_FAILURES, EXIT_OK, EXIT_SHAPE, EXIT_USAGE, main
from aluthge.generators import ginibre
from aluthge.lemmas import Check, _observe, run_check
from aluthge.linalg import Tolerances
from aluthge.maps import CHECKS
from aluthge.matrixio import load_matrix, matrix_to_obj, save_matrix
from aluthge.transform import aluthge, iterate_aluthge, polar

NIL = np.array([[0, 1], [0, 0]], dtype=complex)
MATRIX_2X2 = b'{"rows": 2, "cols": 2, "data": [[[1.0, 0.0], [2.0, 0.0]], [[0.0, 0.0], [3.0, 0.0]]]}'
# A 4x4 matrix of entries 1e308: finite, but its Frobenius norm exceeds the double range.
MATRIX_1E308 = json.dumps(matrix_to_obj(np.full((4, 4), 1e308, dtype=complex))).encode()
# A 3x3 matrix of finite entries whose singular values exceed the double range: the SVD gives NaNs.
MATRIX_SVD_OVERFLOWS = json.dumps(matrix_to_obj(np.full((3, 3), 1.7e308 - 1.7e308j))).encode()
# Command lines for the malformed-input cases; IN is the bad file, OUT the
# output, NODIR an output path in a directory that does not exist.
TRANSFORM = ["transform", "IN", "--output", "OUT"]
VERIFY = ["verify", "--config", "IN", "--output-dir", "OUT"]
ITERATE = ["iterate", "IN", "--output", "OUT"]


_PARENT_PID = os.getpid()
# The commands fork children only where BLAS's thread count can be set.
needs_blas_threads = pytest.mark.skipif(_workers._openblas_threads() is None, reason="no known BLAS thread-count setter")


def write(path, m):
    save_matrix(str(path), np.asarray(m, dtype=complex))
    return str(path)


class TestTransform:
    def test_identity_fixed_point(self, tmp_path):
        src = write(tmp_path / "in.json", np.eye(3))
        out = tmp_path / "out.json"
        assert main(["transform", src, "--output", str(out)]) == EXIT_OK
        np.testing.assert_allclose(load_matrix(out), np.eye(3), atol=1e-12)

    def test_square_zero_maps_to_zero(self, tmp_path):
        src = write(tmp_path / "in.json", NIL)
        out = tmp_path / "out.json"
        assert main(["transform", src, "--lambda", "0.3", "--output", str(out)]) == EXIT_OK
        assert np.linalg.norm(load_matrix(out)) <= 1e-12

    def test_matches_library(self, tmp_path):
        rng = np.random.default_rng(21)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        src = write(tmp_path / "in.json", m)
        out = tmp_path / "out.json"
        assert main(["transform", src, "--lambda", "0.7", "--output", str(out)]) == EXIT_OK
        np.testing.assert_allclose(load_matrix(out), aluthge(m, 0.7), atol=1e-12)

    def test_factors_hand_example(self, tmp_path):
        # T = [[0,2],[0,0]]: V = [[0,1],[0,0]], |T| = diag(0,2)
        src = write(tmp_path / "in.json", 2.0 * NIL)
        out = tmp_path / "out.json"
        assert main(["transform", src, "--output", str(out), "--factors"]) == EXIT_OK
        np.testing.assert_allclose(load_matrix(tmp_path / "out.isometry.json"), NIL, atol=1e-12)
        np.testing.assert_allclose(load_matrix(tmp_path / "out.modulus.json"), np.diag([0.0, 2.0]), atol=1e-12)

    def test_malformed_file_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["transform", str(bad), "--output", str(tmp_path / "o.json")]) == EXIT_USAGE

    def test_wrong_schema_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"rows": 2, "cols": 2, "data": [[1, 2], [3, 4]]}))
        assert main(["transform", str(bad), "--output", str(tmp_path / "o.json")]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv, content",
        [
            pytest.param(TRANSFORM, b'{"rows": 1, "cols": 1, "data": [[[1.0, \xff]]]}', id="not_utf8"),
            pytest.param(TRANSFORM, b'{"rows": 1, "cols": 1, "data": [[[' + b"9" * 401 + b", 0]]]}",
                         id="int_overflows_double"),
            pytest.param(TRANSFORM, b'{"rows": 1, "cols": 1, "data": [[[' + b"1" * 4301 + b", 0]]]}",
                         id="int_over_4300_digits"),
            pytest.param(TRANSFORM, b'{"rows": 1, "cols": 1, "data": 5}', id="data_not_a_list"),
            pytest.param(TRANSFORM, b'{"rows": 1.9, "cols": 1, "data": [[[1.0, 0.0]]]}', id="rows_float"),
            pytest.param(TRANSFORM, b'{"rows": "1", "cols": 1, "data": [[[1.0, 0.0]]]}', id="rows_string"),
            pytest.param(TRANSFORM, b'{"rows": true, "cols": true, "data": [[[true, false]]]}',
                         id="rows_cols_and_entry_bool"),
            pytest.param(TRANSFORM, b'{"rows": 1, "cols": 1, "data": [[[true, 0.0]]]}', id="entry_bool"),
            pytest.param(TRANSFORM, b'{"rows": 1, "cols": 1, "data": [[[1.0, "0"]]]}', id="entry_string"),
            pytest.param(TRANSFORM, b'{"rows": 1, "cols": 1, "data": [[[1.0, 0.0, 0.0]]]}', id="entry_not_a_pair"),
            pytest.param(VERIFY, b'{"tolerances": 5}', id="verify_tolerances_not_object"),
            pytest.param(VERIFY, b'{"tolerances": {"bogus": 1e-3}}', id="verify_tolerances_unknown_key"),
            pytest.param(VERIFY, b'{"tolerances": {"eq_abs": "1e-9"}}', id="verify_tolerance_not_number"),
            pytest.param(VERIFY, b'{"trials": 1.5}', id="verify_trials_float"),
            pytest.param(VERIFY, b'{"trials": "10"}', id="verify_trials_string"),
            pytest.param(VERIFY, b'{"trials": true}', id="verify_trials_bool"),
            pytest.param(VERIFY, b'{"lambda": "x"}', id="verify_lambda_string"),
            pytest.param(VERIFY, b'{"dims": 5}', id="verify_dims_not_list"),
            pytest.param(VERIFY, b'{"dims": [2.5]}', id="verify_dims_float"),
            pytest.param(VERIFY, b'{"seed": -1}', id="verify_seed_negative"),
            pytest.param(VERIFY, b'{"seed": 1.5}', id="verify_seed_float"),
            pytest.param(VERIFY, b'{"checks": 5}', id="verify_checks_not_list"),
            pytest.param(VERIFY, b'{"checks": []}', id="verify_checks_empty"),
            pytest.param(VERIFY + ["--seed", "-1"], b"{}", id="verify_seed_flag_negative"),
            pytest.param(VERIFY + ["--dims", "2", "2", "--checks", "rank_one_formula", "rank_one_formula",
                                   "--trials", "5"], b"{}", id="verify_dims_and_checks_repeated"),
            pytest.param(VERIFY, b'{"checks": ["rank_one_formula", "rank_one_formula"]}', id="verify_checks_repeated"),
            pytest.param(VERIFY + ["--lambda", "0"], b"{}", id="verify_lambda_0_open_checks"),
            pytest.param(VERIFY + ["--lambda", "1"], b"{}", id="verify_lambda_1_open_checks"),
            pytest.param(ITERATE + ["--conv-tol", "nan"], MATRIX_2X2, id="iterate_conv_tol_nan"),
            pytest.param(ITERATE + ["--conv-tol", "inf"], MATRIX_2X2, id="iterate_conv_tol_inf"),
            pytest.param(ITERATE, MATRIX_1E308, id="iterate_norm_overflows"),
            pytest.param(TRANSFORM, MATRIX_SVD_OVERFLOWS, id="transform_singular_values_overflow"),
            pytest.param(TRANSFORM + ["--lambda", "0"], MATRIX_SVD_OVERFLOWS,
                         id="transform_lambda_0_singular_values_overflow"),
            pytest.param(TRANSFORM + ["--factors"], MATRIX_SVD_OVERFLOWS,
                         id="transform_factors_singular_values_overflow"),
            pytest.param(["verify", "--output-dir", "IN"], b"{}", id="verify_output_dir_is_a_file"),
            pytest.param(["transform", "IN", "--output", "NODIR"], MATRIX_2X2, id="transform_output_unwritable"),
            pytest.param(["iterate", "IN", "--output", "NODIR"], MATRIX_2X2, id="iterate_output_unwritable"),
        ],
    )
    def test_malformed_input_exits_2(self, tmp_path, capsys, argv, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        out = tmp_path / "o.json"
        nodir = str(tmp_path / "no_such_dir" / "o.json")
        argv = [{"IN": str(bad), "OUT": str(out), "NODIR": nodir}.get(arg, arg) for arg in argv]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")
        assert os.listdir(tmp_path) == ["bad.json"]  # no output, nor a factor file

    @pytest.mark.parametrize("lam", [0.0, 0.3, 0.5, 1.0])
    @pytest.mark.parametrize("rank", [6, 3])
    def test_factors_one_svd_bit_exact(self, tmp_path, monkeypatch, lam, rank):
        rng = np.random.default_rng(31)
        m = (rng.standard_normal((6, rank)) + 1j * rng.standard_normal((6, rank))) @ (
            rng.standard_normal((rank, 6)) + 1j * rng.standard_normal((rank, 6))
        )
        src = write(tmp_path / "in.json", m)
        out = tmp_path / "out.json"
        svd = np.linalg.svd
        calls = []

        def counting_svd(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        assert main(["transform", src, "--lambda", str(lam), "--output", str(out), "--factors"]) == EXIT_OK
        assert len(calls) == 1
        monkeypatch.undo()
        pd = polar(m)
        assert load_matrix(out).tobytes() == aluthge(m, lam).tobytes()
        assert load_matrix(tmp_path / "out.isometry.json").tobytes() == pd.isometry_part.tobytes()
        assert load_matrix(tmp_path / "out.modulus.json").tobytes() == pd.modulus.tobytes()

    @needs_blas_threads
    def test_factors_parallel_saves_match_serial(self, tmp_path, monkeypatch, forks):
        src = write(tmp_path / "in.json", ginibre(np.random.default_rng(12), 6))
        outputs = ["out.json", "out.isometry.json", "out.modulus.json"]
        os.mkdir(tmp_path / "serial")
        monkeypatch.setattr(_workers, "_usable_cpus", lambda: 1)
        assert main(["transform", src, "--output", str(tmp_path / "serial" / "out.json"), "--factors"]) == EXIT_OK
        assert forks == []
        monkeypatch.setattr(_workers, "_usable_cpus", lambda: 2)
        assert main(["transform", src, "--output", str(tmp_path / "out.json"), "--factors"]) == EXIT_OK
        # One child, forked once the load and the SVD are done, could claim
        # any of the three matrices, in the order of their files.
        ((delta, isometry, modulus),) = forks
        assert_no_child()
        for name, matrix in zip(outputs, (delta, isometry, modulus)):
            assert (tmp_path / name).read_bytes() == (tmp_path / "serial" / name).read_bytes()
            assert load_matrix(tmp_path / name).tobytes() == matrix.tobytes()

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["transform", str(tmp_path / "nope.json"), "--output", str(tmp_path / "o.json")]) == EXIT_USAGE

    def test_non_square_exits_3(self, tmp_path):
        src = write(tmp_path / "rect.json", np.zeros((2, 3)))
        assert main(["transform", src, "--output", str(tmp_path / "o.json")]) == EXIT_SHAPE

    def test_lambda_out_of_range_exits_2(self, tmp_path):
        src = write(tmp_path / "in.json", np.eye(2))
        assert main(["transform", src, "--lambda", "1.5", "--output", str(tmp_path / "o.json")]) == EXIT_USAGE


class TestIterate:
    def read_rows(self, path):
        lines = path.read_text().splitlines()
        assert lines[0] == "step,delta_frobenius,distance_to_normal,spectral_drift"
        assert lines[-1] in ("# converged=true", "# converged=false")
        return lines[1:-1], lines[-1]

    def test_normal_input_single_step(self, tmp_path):
        src = write(tmp_path / "in.json", np.diag([1.0, 2.0, 3.0]))
        out = tmp_path / "trace.csv"
        assert main(["iterate", src, "--output", str(out)]) == EXIT_OK
        rows, tail = self.read_rows(out)
        assert tail == "# converged=true"
        assert len(rows) == 1
        step, delta, dist, drift = rows[0].split(",")
        assert step == "1"
        assert float(delta) <= 1e-12
        assert float(dist) <= 1e-12
        assert float(drift) <= 1e-12

    def test_square_zero_two_steps(self, tmp_path):
        # first step jumps to 0, second confirms the fixed point
        src = write(tmp_path / "in.json", NIL)
        out = tmp_path / "trace.csv"
        assert main(["iterate", src, "--output", str(out)]) == EXIT_OK
        rows, tail = self.read_rows(out)
        assert tail == "# converged=true"
        assert len(rows) == 2
        assert float(rows[0].split(",")[1]) == pytest.approx(1.0)
        assert float(rows[1].split(",")[1]) <= 1e-12

    def test_random_matrix_trace_matches_library(self, tmp_path):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        src = write(tmp_path / "in.json", m)
        out = tmp_path / "trace.csv"
        assert main(["iterate", src, "--lambda", "0.4", "--conv-tol", "1e-8", "--output", str(out)]) == EXIT_OK
        rows, _ = self.read_rows(out)
        deltas = [delta for _, delta, _ in iterate_aluthge(m, 0.4, conv_tol=1e-8)]
        assert len(rows) == len(deltas)
        for line, delta in zip(rows, deltas):
            assert float(line.split(",")[1]) == pytest.approx(float(delta), abs=1e-15)

    def test_tiny_scale_does_not_converge_falsely(self, tmp_path):
        # 1e-12 T, 1e-160 T, 1e150 T and 1e160 T take the same steps as T,
        # and none converges. Squares of entries of 1e-160 T underflow and
        # those of 1e160 T overflow, so the norms are taken on T scaled by a
        # power of two; at 1e150 the distance to normal is finite.
        t = ginibre(np.random.default_rng(4), 4)
        tails = []
        for name, c in (("unit", 1.0), ("tiny", 1e-12), ("tinier", 1e-160), ("huge", 1e150), ("huger", 1e160)):
            src = write(tmp_path / f"{name}.json", c * t)
            out = tmp_path / f"{name}.csv"
            assert main(["iterate", src, "--max-iter", "200", "--output", str(out)]) == EXIT_OK
            rows, tail = self.read_rows(out)
            tails.append((len(rows), tail))
            if name == "huge":
                assert all(np.isfinite(float(row.split(",")[2])) for row in rows)
        assert tails == [(200, "# converged=false")] * 5

    def test_max_iter_respected(self, tmp_path):
        rng = np.random.default_rng(6)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        src = write(tmp_path / "in.json", m)
        out = tmp_path / "trace.csv"
        assert main(["iterate", src, "--max-iter", "3", "--conv-tol", "1e-15", "--output", str(out)]) == EXIT_OK
        rows, _ = self.read_rows(out)
        assert len(rows) <= 3

    def test_bad_args_exit_2(self, tmp_path):
        src = write(tmp_path / "in.json", np.eye(2))
        out = str(tmp_path / "o.csv")
        assert main(["iterate", src, "--lambda", "0.0", "--output", out]) == EXIT_USAGE
        assert main(["iterate", src, "--max-iter", "0", "--output", out]) == EXIT_USAGE
        assert main(["iterate", src, "--conv-tol", "-1", "--output", out]) == EXIT_USAGE

    def test_non_square_exits_3(self, tmp_path):
        src = write(tmp_path / "rect.json", np.zeros((3, 2)))
        assert main(["iterate", src, "--output", str(tmp_path / "o.csv")]) == EXIT_SHAPE


def run_verify(tmp_path, name, *extra):
    outdir = tmp_path / name
    code = main(
        [
            "verify",
            "--checks",
            "rank_one_formula",
            "nilpotent_kernel",
            "--dims",
            "2",
            "3",
            "--trials",
            "25",
            "--seed",
            "13",
            "--no-timestamp",
            "--output-dir",
            str(outdir),
            *extra,
        ]
    )
    return code, outdir


class TestVerify:
    def test_small_run_passes(self, tmp_path, capsys):
        code, outdir = run_verify(tmp_path, "r1")
        assert code == EXIT_OK
        lines = [l for l in capsys.readouterr().out.splitlines() if l]
        assert len(lines) == 4  # 2 checks x 2 dims
        assert all(l.startswith("PASS ") for l in lines)
        agg = json.loads((outdir / "aggregate.json").read_text())
        assert agg["failures"] == 0
        assert len(agg["reports"]) == 4
        assert "timestamp" not in agg
        for check in ("rank_one_formula", "nilpotent_kernel"):
            for dim in (2, 3):
                per = json.loads((outdir / f"{check}_dim{dim}.json").read_text())
                assert per["check_id"] == check and per["dim"] == dim
                assert per["seed"] == 13 and per["trials"] == 25

    def test_repeat_runs_byte_identical(self, tmp_path):
        _, d1 = run_verify(tmp_path, "a")
        _, d2 = run_verify(tmp_path, "b")
        assert (d1 / "aggregate.json").read_bytes() == (d2 / "aggregate.json").read_bytes()

    def test_timestamp_present_by_default(self, tmp_path):
        outdir = tmp_path / "ts"
        code = main(
            ["verify", "--checks", "rank_one_formula", "--dims", "2", "--trials", "5",
             "--output-dir", str(outdir)]
        )
        assert code == EXIT_OK
        agg = json.loads((outdir / "aggregate.json").read_text())
        assert "timestamp" in agg

    def test_env_seed_overrides_flag(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ALUTHGE_SEED", "4242")
        _, outdir = run_verify(tmp_path, "env")
        agg = json.loads((outdir / "aggregate.json").read_text())
        assert agg["config"]["seed"] == 4242
        assert all(r["seed"] == 4242 for r in agg["reports"])
        monkeypatch.setenv("ALUTHGE_SEED", "-3")
        assert run_verify(tmp_path, "env_negative")[0] == EXIT_USAGE

    def test_csv_format(self, tmp_path):
        code, outdir = run_verify(tmp_path, "csv", "--format", "csv")
        assert code == EXIT_OK
        lines = (outdir / "aggregate.csv").read_text().splitlines()
        assert lines[0] == "check_id,dim,lambda,trials,failures,vacuous,worst_residual"
        assert len(lines) == 5

    def test_csv_lambda_matches_report(self, tmp_path):
        # A config may give lambda as a JSON integer; both outputs record it as a float.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lambda": 1, "checks": ["spectrum_invariance"]}))
        outdir = tmp_path / "lam1"
        code = main(["verify", "--config", str(cfg), "--dims", "2", "--trials", "5", "--format", "csv",
                     "--no-timestamp", "--output-dir", str(outdir)])
        assert code == EXIT_OK
        report = json.loads((outdir / "spectrum_invariance_dim2.json").read_text())
        assert report["lambda"] == 1.0
        row = (outdir / "aggregate.csv").read_text().splitlines()[1].split(",")
        assert row[2] == repr(report["lambda"]) == "1.0"

    def test_failing_run_exits_1_and_report_round_trips(self, tmp_path, capsys):
        outdir = tmp_path / "fail"
        code = main(["verify", "--tol-eq", "0.5", "--checks", "square_identity", "--dims", "3", "--trials", "50",
                     "--seed", "3", "--no-timestamp", "--output-dir", str(outdir)])
        assert code == EXIT_CHECK_FAILURES
        assert capsys.readouterr().out.startswith("FAIL square_identity dim=3 ")
        # A written report reads back as the very dict run_check returns.
        report = json.loads((outdir / "square_identity_dim3.json").read_text())
        assert report == run_check(CHECKS["square_identity"], 3, 3, 0.5, 50, Tolerances(eq_abs=0.5))
        assert report["failures"] > 0 and report["witness"]

    def test_config_file_merged_and_overridden(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": 10, "seed": 99, "checks": ["spectrum_invariance"]}))
        outdir = tmp_path / "cfgrun"
        code = main(
            ["verify", "--config", str(cfg), "--dims", "2", "--seed", "55",
             "--no-timestamp", "--output-dir", str(outdir)]
        )
        assert code == EXIT_OK
        agg = json.loads((outdir / "aggregate.json").read_text())
        assert agg["config"]["trials"] == 10  # from config file
        assert agg["config"]["seed"] == 55  # flag overrides file
        assert agg["config"]["checks"] == ["spectrum_invariance"]

    def test_bad_config_values_exit_2(self, tmp_path):
        out = str(tmp_path / "bad")
        assert main(["verify", "--trials", "0", "--output-dir", out]) == EXIT_USAGE
        assert main(["verify", "--dims", "1", "--output-dir", out]) == EXIT_USAGE
        assert main(["verify", "--lambda", "2.0", "--output-dir", out]) == EXIT_USAGE
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        assert main(["verify", "--config", str(cfg), "--output-dir", out]) == EXIT_USAGE
        cfg.write_text("[]")
        assert main(["verify", "--config", str(cfg), "--output-dir", out]) == EXIT_USAGE

    def test_lambda_checked_against_each_selected_check(self, tmp_path, capsys):
        out = str(tmp_path / "lam")
        assert main(["verify", "--lambda", "0", "--output-dir", out]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "rank_one_formula (0, 1)" in err and "nilpotent_kernel (0, 1]" in err
        assert "spectrum_invariance" not in err and "vector_state_identity" not in err
        code = main(["verify", "--lambda", "1", "--checks", "nilpotent_kernel", "spectrum_invariance",
                     "--dims", "2", "--trials", "5", "--no-timestamp", "--output-dir", out])
        assert code == EXIT_OK

    def test_report_id_is_cli_id(self, tmp_path):
        outdir = tmp_path / "ids"
        code = main(["verify", "--dims", "2", "--trials", "3", "--no-timestamp", "--output-dir", str(outdir)])
        assert code == EXIT_OK
        files = sorted(outdir.glob("*_dim2.json"))
        assert len(files) == 15
        for path in files:
            assert json.loads(path.read_text())["check_id"] == path.name[: -len("_dim2.json")]

    def test_unknown_check_rejected_by_parser(self, tmp_path):
        code = main(["verify", "--checks", "no_such_check", "--output-dir", str(tmp_path / "x")])
        assert code == EXIT_USAGE

    def test_tol_flags_recorded(self, tmp_path):
        _, outdir = run_verify(tmp_path, "tol", "--tol-eq", "1e-7", "--tol-rank", "1e-11")
        agg = json.loads((outdir / "aggregate.json").read_text())
        assert agg["config"]["tolerances"]["eq_abs"] == 1e-7
        assert agg["config"]["tolerances"]["rank_rel"] == 1e-11

    def test_tol_fix_flag(self, tmp_path):
        _, outdir = run_verify(tmp_path, "fix", "--tol-fix", "1e-6")
        agg = json.loads((outdir / "aggregate.json").read_text())
        assert agg["config"]["tolerances"]["fix_rel"] == 1e-6
        for bad in ("0", "1", "nan"):
            assert run_verify(tmp_path, f"fix_{bad}", "--tol-fix", bad)[0] == EXIT_USAGE


class TestComposition:
    def test_transform_twice_matches_second_iterate(self, tmp_path):
        rng = np.random.default_rng(77)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        src = write(tmp_path / "m0.json", m)
        mid = tmp_path / "m1.json"
        out = tmp_path / "m2.json"
        assert main(["transform", src, "--lambda", "0.5", "--output", str(mid)]) == EXIT_OK
        assert main(["transform", str(mid), "--lambda", "0.5", "--output", str(out)]) == EXIT_OK
        second = list(iterate_aluthge(m, 0.5, max_iter=2, conv_tol=1e-300))[1][0]
        # file round-trip is exact (repr doubles), so agreement is tight
        assert np.linalg.norm(load_matrix(out) - second) <= 1e-10 * (1 + np.linalg.norm(m))


@pytest.mark.parametrize("target", ["fifo", "link_to_fifo"])
@pytest.mark.parametrize("command", ["transform", "iterate", "verify"])
def test_output_not_a_regular_file_exits_2(tmp_path, capsys, command, target):
    src = write(tmp_path / "in.json", np.eye(2))
    os.mkdir(tmp_path / "out")
    out = tmp_path / "out" / "aggregate.json"  # verify's last file, the other commands' output
    if target == "fifo":
        os.mkfifo(out)
    else:
        os.mkfifo(tmp_path / "pipe")
        os.symlink(tmp_path / "pipe", out)
    argv = {
        "transform": ["transform", src, "--output", str(out)],
        "iterate": ["iterate", src, "--output", str(out)],
        "verify": ["verify", "--checks", "square_identity", "--dims", "2", "--trials", "2",
                   "--output-dir", str(tmp_path / "out")],
    }[command]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: cannot write {out}: not a regular file\n"
    assert stat.S_ISFIFO(os.stat(out).st_mode) and out.is_symlink() == (target == "link_to_fifo")
    assert list(tmp_path.rglob("*.tmp")) == []


def test_cli_import_leaves_scipy_unloaded():
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    code = "import sys, aluthge.cli; sys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_cli_import_leaves_process_pools_unloaded():
    # No module imports them: the commands fork their children with os.fork.
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    code = "import sys, aluthge.cli; sys.exit('multiprocessing' in sys.modules or 'concurrent.futures' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_cli_import_leaves_numpy_random_unloaded():
    # The block streams import it on first use; loading it costs start-up time and memory.
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    code = "import sys, aluthge.cli; sys.exit('numpy.random' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_verify_and_iterate_leave_scipy_unloaded(tmp_path):
    # Spectra with distinct eigenvalues are paired without scipy's solver.
    src = write(tmp_path / "in.json", ginibre(np.random.default_rng(3), 4))
    verify = ["verify", "--checks", "spectrum_invariance", "--dims", "2", "3", "--trials", "5",
              "--output-dir", str(tmp_path / "v")]
    iterate = ["iterate", src, "--output", str(tmp_path / "trace.csv")]
    code = f"import sys\nfrom aluthge.cli import main\nprint(main({verify!r}), main({iterate!r}), 'scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out.splitlines()[-1] == "0 0 False"


def _register(monkeypatch, id, block):
    """Add a check ``id`` run by the block function ``block``; children forked later inherit it."""
    monkeypatch.setitem(CHECKS, id, Check(id, block, domain=None))


def _dies_in_workers(blk):
    if os.getpid() != _PARENT_PID:
        os._exit(1)
    # 50 ms here, so that the child claims one of these reports meanwhile.
    time.sleep(0.05)
    _observe(blk, blk.trials.astype(float), np.zeros(len(blk), dtype=bool))


def _raises(blk):
    raise ValueError(f"trial {blk.trials[0]} cannot run")


def _observes_blas_threads(blk):
    threads = [float(_workers._openblas_threads()[1]()) for _ in blk.trials]
    _observe(blk, threads, np.zeros(len(blk), dtype=bool))


def assert_no_child():
    """This process has no child left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def run_on(cpus, monkeypatch, capsys, tmp_path, *argv):
    """Exit code, stdout, stderr and output files of ``verify *argv`` with
    ``cpus`` usable CPUs. It runs in ``tmp_path/cpus<cpus>`` and writes to
    ``out`` there, so that paths in its output read the same for any ``cpus``."""
    where = tmp_path / f"cpus{cpus}"
    where.mkdir(exist_ok=True)
    monkeypatch.chdir(where)
    monkeypatch.setattr(_workers, "_usable_cpus", lambda: cpus)
    code = main(["verify", *argv, "--no-timestamp", "--output-dir", "out"])
    out, err = capsys.readouterr()
    assert_no_child()
    files = {p.name: p.read_bytes() for p in sorted((where / "out").iterdir()) if p.is_file()}
    return code, out, err, files


class TestVerifyWorkers:
    @pytest.mark.parametrize("cpus", [1, 2, 3, 64])
    def test_verify_processes_capped(self, tmp_path, monkeypatch, capsys, forks, cpus):
        # One child whatever the CPU count from two on; none on one CPU or
        # where BLAS's thread count cannot be set.
        argv = ["--checks", "rank_one_formula", "--dims", "2", "3", "4", "--trials", "2"]
        assert run_on(cpus, monkeypatch, capsys, tmp_path, *argv)[0] == EXIT_OK
        setter = _workers._openblas_threads() is not None
        tasks = [("rank_one_formula", dim) for dim in (2, 3, 4)]
        assert forks == ([tasks] if cpus > 1 and setter else [])
        monkeypatch.setattr(_workers, "_openblas_threads", lambda: None)
        assert run_on(cpus, monkeypatch, capsys, tmp_path, *argv)[0] == EXIT_OK
        assert len(forks) == (cpus > 1 and setter)

    def test_pooled_run_matches_in_process(self, tmp_path, monkeypatch, capsys, forks):
        argv = ["--dims", "2", "3", "--trials", "20", "--format", "csv"]
        serial = run_on(1, monkeypatch, capsys, tmp_path, *argv)
        assert forks == []
        forked = run_on(2, monkeypatch, capsys, tmp_path, *argv)
        assert forked == serial
        assert serial[0] == EXIT_OK and len(serial[3]) == len(CHECKS) * 2 + 2
        if _workers._openblas_threads() is not None:
            # One child could claim any of the reports.
            tasks = [(check_id, dim) for check_id in sorted(CHECKS) for dim in (2, 3)]
            assert forks == [tasks]

    @needs_blas_threads
    def test_killed_worker_reports_run_here(self, tmp_path, monkeypatch, capsys, forks):
        _register(monkeypatch, "dies_in_workers", _dies_in_workers)
        argv = ["--checks", "rank_one_formula", "dies_in_workers", "nilpotent_kernel", "--dims", "2", "3", "4",
                "--trials", "10"]
        serial = run_on(1, monkeypatch, capsys, tmp_path, *argv)
        forked = run_on(2, monkeypatch, capsys, tmp_path, *argv)
        # The child dies at the first dies_in_workers report it claims; the
        # command runs that one and every later report.
        checks = ("rank_one_formula", "dies_in_workers", "nilpotent_kernel")
        assert forks == [[(check_id, dim) for check_id in checks for dim in (2, 3, 4)]]
        assert forked == serial and serial[0] == EXIT_OK

    def test_unwritable_report_exits_2_and_leaves_no_worker(self, tmp_path, monkeypatch, capsys):
        argv = ["--checks", "square_identity", "rank_one_formula", "--dims", "2", "3", "--trials", "10"]
        for cpus in (1, 2):
            os.makedirs(tmp_path / f"cpus{cpus}" / "out" / "square_identity_dim3.json")
        serial = run_on(1, monkeypatch, capsys, tmp_path, *argv)
        forked = run_on(2, monkeypatch, capsys, tmp_path, *argv)
        assert forked == serial and serial[0] == EXIT_USAGE
        assert serial[2] == "error: cannot write out/square_identity_dim3.json: not a regular file\n"
        assert list(serial[3]) == ["square_identity_dim2.json"]

    @needs_blas_threads
    def test_raising_trial_fails_as_in_process(self, tmp_path):
        script = (
            "import sys\n"
            "from aluthge import _workers, cli\n"
            "from aluthge.lemmas import Check\n"
            "def block(blk):\n"
            "    raise ValueError(f'trial {blk.trials[0]} cannot run')\n"
            "cli.CHECKS['raises'] = Check('raises', block, domain=None)\n"
            "_workers._usable_cpus = lambda: int(sys.argv[1])\n"
            "sys.exit(cli.main(['verify', '--checks', 'rank_one_formula', 'raises', '--dims', '2', '3',\n"
            "                   '--trials', '5', '--no-timestamp', '--output-dir', 'out']))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        runs = []
        for cpus in (1, 2):
            where = tmp_path / f"cpus{cpus}"
            where.mkdir()
            proc = subprocess.run([sys.executable, "-c", script, str(cpus)], cwd=where, env=env,
                                  capture_output=True, text=True)
            runs.append((proc.returncode, proc.stdout, proc.stderr.splitlines()[-1]))
        assert runs[0] == runs[1]
        assert runs[0][0] == 1 and runs[0][2] == "ValueError: trial 0 cannot run"
        assert runs[0][1].count("PASS rank_one_formula") == 2

    @needs_blas_threads
    def test_raising_trial_leaves_no_worker(self, tmp_path, monkeypatch, forks):
        # Every ``raises`` report raises, in the child and again in the
        # command, which raises the first of them after the reports before it.
        _register(monkeypatch, "raises", _raises)
        monkeypatch.setattr(_workers, "_usable_cpus", lambda: 2)
        for dims in (["2", "3"], ["2", "3", "4"]):
            with pytest.raises(ValueError, match="trial 0 cannot run"):
                main(["verify", "--checks", "rank_one_formula", "raises", "--dims", *dims, "--trials", "5",
                      "--output-dir", str(tmp_path / "out")])
            assert_no_child()
        assert len(forks) == 2

    @needs_blas_threads
    def test_workers_run_one_blas_thread(self, tmp_path, monkeypatch, capsys, forks):
        get_threads = _workers._openblas_threads()[1]
        before = get_threads()
        _register(monkeypatch, "blas_threads", _observes_blas_threads)
        code, _, _, files = run_on(2, monkeypatch, capsys, tmp_path, "--checks", "blas_threads", "--dims", "2", "3",
                                   "--trials", "2")
        # Each report ran on one BLAS thread, whichever process claimed it.
        assert code == EXIT_OK and forks == [[("blas_threads", 2), ("blas_threads", 3)]]
        assert [r["worst_residual"] for r in json.loads(files["aggregate.json"])["reports"]] == [1.0, 1.0]
        assert get_threads() == before

    @needs_blas_threads
    def test_command_runs_one_blas_thread(self, tmp_path, monkeypatch, capsys, forks):
        # On one usable CPU the reports run in the command, on one BLAS thread
        # as in a child, whatever count the command had (two where BLAS allows).
        set_threads, get_threads = _workers._openblas_threads()
        before = get_threads()
        set_threads(2)
        try:
            inherited = get_threads()
            _register(monkeypatch, "blas_threads", _observes_blas_threads)
            code, _, _, files = run_on(1, monkeypatch, capsys, tmp_path, "--checks", "blas_threads", "--dims", "2",
                                       "--trials", "2")
            assert code == EXIT_OK and forks == []
            assert [r["worst_residual"] for r in json.loads(files["aggregate.json"])["reports"]] == [1.0]
            assert get_threads() == inherited
        finally:
            set_threads(before)


def _blas_thread_count(item):
    """This process's BLAS thread count and whether a child computed the
    item; 50 ms late here, so that a child claims some items meanwhile."""
    if os.getpid() == _PARENT_PID:
        time.sleep(0.05)
    return _workers._openblas_threads()[1](), os.getpid() != _PARENT_PID


def _matrices(count, n=2):
    """``count`` ring items: the n x n complex128 matrices k * I, k = 0, 1, ..."""
    return [k * np.eye(n, dtype=np.complex128) for k in range(count)]


def _trace_in(a):
    """The trace of ``a`` and whether a child computed it."""
    return float(np.trace(a).real), os.getpid() != _PARENT_PID


class TestBlasWorkers:
    @needs_blas_threads
    @pytest.mark.parametrize("exit", ["normal", "exception"])
    def test_workers_inherit_the_command_pin(self, monkeypatch, forks, exit):
        # The children set no thread count of their own: they are forked inside
        # the command's pin. The command's count comes back however the block exits.
        monkeypatch.setattr(_workers, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(_workers, "_RING_SLOTS", 2)
        set_threads, get_threads = _workers._openblas_threads()
        before = get_threads()
        set_threads(2)
        try:
            inherited = get_threads()
            raises = pytest.raises(ValueError, match="block failed") if exit == "exception" else contextlib.nullcontext()
            with raises, _workers._blas_children():
                assert _workers._may_fork and get_threads() == 1
                results = list(_workers._shared(_blas_thread_count, range(4)))
                ring = list(_workers._shared(_blas_thread_count, iter(_matrices(5))))
                if exit == "exception":
                    raise ValueError("block failed")
            # One child for a list and one for a stream's ring, each of which
            # claims some items: every process runs one BLAS thread.
            assert [threads for threads, _ in results + ring] == [1] * 9
            assert any(child for _, child in results) and any(child for _, child in ring)
            assert get_threads() == inherited and forks == [range(4), (2, 2, 2)] and not _workers._may_fork
        finally:
            set_threads(before)
        assert_no_child()

    def test_without_a_thread_setter_no_pool_and_blas_left_alone(self, monkeypatch, forks):
        threads = _workers._openblas_threads()
        before = threads and threads[1]()
        monkeypatch.setattr(_workers, "_openblas_threads", lambda: None)
        monkeypatch.setattr(_workers, "_usable_cpus", lambda: 2)
        with _workers._blas_children():
            assert not _workers._may_fork and (threads and threads[1]()) == before
            assert list(_workers._shared(lambda k: (k, os.getpid()), [0, 1])) == [(0, _PARENT_PID), (1, _PARENT_PID)]
        assert (threads and threads[1]()) == before and forks == []

    @needs_blas_threads
    def test_command_computes_every_item_the_child_does_not_hold(self, forks, children):
        # The child holds the first item it claims for 0.5 s; meanwhile the
        # command, at 10 ms an item, claims and computes every other item.
        def fn(k):
            time.sleep(0.5 if os.getpid() != _PARENT_PID else 0.01)
            return k, os.getpid() != _PARENT_PID

        results = list(_workers._shared(fn, list(range(12))))
        assert [k for k, _ in results] == list(range(12))
        assert sum(child for _, child in results) == 1 and forks == [list(range(12))]
        assert_no_child()

    @needs_blas_threads
    def test_more_items_than_numbers_out_finish_in_order(self, forks, children):
        # Three times the numbers a list may have out at once: the command
        # writes the later ones as results are yielded.
        count = 3 * _workers._TOKENS_OUT
        results = list(_workers._shared(lambda k: (k, os.getpid() != _PARENT_PID), list(range(count))))
        assert [k for k, _ in results] == list(range(count)) and len(forks) == 1
        assert_no_child()

    @needs_blas_threads
    def test_stopped_child_bounds_the_stream_pulled_ahead(self, tmp_path, monkeypatch, forks, children):
        # The child stops itself on the first item it claims, and is continued
        # 0.5 s later: until then the command pulls at most ``slots`` items
        # ahead of the rows it has given, computing those it can claim.
        slots, pid_file = 4, tmp_path / "child.pid"
        monkeypatch.setattr(_workers, "_RING_SLOTS", slots)

        def fn(a):
            if os.getpid() != _PARENT_PID and not pid_file.exists():
                pid_file.write_text(str(os.getpid()))
                os.kill(os.getpid(), signal.SIGSTOP)
            return _trace_in(a)

        pulled, rows = [], []

        def items():
            for item in _matrices(3 * slots):
                time.sleep(0.01)
                pulled.append(item)
                yield item

        resume = signal.signal(signal.SIGALRM, lambda *_: os.kill(int(pid_file.read_text()), signal.SIGCONT))
        signal.setitimer(signal.ITIMER_REAL, 0.5)
        try:
            for row in _workers._shared(fn, items()):
                assert len(pulled) <= len(rows) + slots
                rows.append(row)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, resume)
        assert [trace for trace, _ in rows] == [2.0 * k for k in range(3 * slots)]
        assert rows[0] == (0.0, True) and forks == [(slots, 2, 2)]
        assert_no_child()


class _ExitsWhenPickled:
    """Ends the process that pickles it: a child sending it dies partway
    through its answer, after the text before it has crossed the pipe."""

    def __reduce__(self):
        os._exit(3)


_EXITS_WHEN_PICKLED = _ExitsWhenPickled()


def _cut_short(k):
    """An answer whose pickle a child starts and never finishes."""
    return [k, "x" * 200_000, _EXITS_WHEN_PICKLED]


def _waiting_bytes(fd):
    """Bytes waiting in the pipe whose read end is ``fd``."""
    return int.from_bytes(fcntl.ioctl(fd, termios.FIONREAD, bytes(4)), sys.byteorder)


class TestResultPipe:
    """The child's answers cross the result pipe as plain pickles, which
    ``_Forked.receive`` unpickles straight from the pipe."""

    @needs_blas_threads
    @pytest.mark.parametrize("cut", ["at_an_opcode", "inside_the_text"])
    def test_answer_cut_short_reaps_the_child(self, monkeypatch, children, cut):
        # The command claims no number, so the child claims 0 and starts its
        # answer with 200,000 characters of text. Dying as it pickles the next
        # object, it cuts the answer after the text, where pickle reads the
        # end of input as EOFError; killed once the pipe holds a page of the
        # text, which does not fit in the pipe, it cuts the answer inside
        # the text, where pickle raises UnpicklingError.
        raised, load = [], pickle.load

        def recording(file):
            try:
                return load(file)
            except Exception as exc:
                raised.append(type(exc))
                raise

        monkeypatch.setattr(pickle, "load", recording)
        child = _workers._Forked(_cut_short if cut == "at_an_opcode" else lambda k: _cut_short(k)[:2], [0])
        assert child.pid
        child.hand(0)
        if cut == "inside_the_text":
            deadline = time.monotonic() + 10
            while _waiting_bytes(child.results.fileno()) < 4096:
                assert time.monotonic() < deadline
                time.sleep(0.001)
            os.kill(child.pid, signal.SIGKILL)
        known = {}
        child.receive(known)
        expected = EOFError if cut == "at_an_opcode" else pickle.UnpicklingError
        assert known == {} and raised == [expected] and child.pid == 0
        assert_no_child()

    @needs_blas_threads
    def test_answer_cut_short_is_computed_here(self, forks, children):
        # The command's first item waits until the child has claimed one, so
        # the child always dies sending an answer; the command computes it.
        started, tell = os.pipe()
        waited = []

        def fn(k):
            if os.getpid() != _PARENT_PID:
                os.write(tell, b"1")
            elif not waited:
                waited.append(os.read(started, 1))
            return _cut_short(k)

        try:
            results = list(_workers._shared(fn, list(range(3))))
        finally:
            os.close(started)
            os.close(tell)
        assert results == [_cut_short(k) for k in range(3)] and waited == [b"1"] and len(forks) == 1
        assert_no_child()

    @needs_blas_threads
    def test_queued_answers_stay_visible_to_poll(self, children):
        # Both answers wait in the pipe while the child waits for a number:
        # taking the first must leave the second where ``poll`` sees it.
        child = _workers._Forked(lambda k: ("answer", k), [0, 1, 2])
        try:
            child.hand(0)
            child.hand(1)
            queued = sum(len(pickle.dumps((k, ("answer", k)), pickle.HIGHEST_PROTOCOL)) for k in (0, 1))
            deadline = time.monotonic() + 10
            while _waiting_bytes(child.results.fileno()) < queued:
                assert time.monotonic() < deadline
                time.sleep(0.001)
            known = {}
            child.receive(known)
            assert known == {0: (True, ("answer", 0))} and child.answers.poll(0)
            child.receive(known)
            assert known == {0: (True, ("answer", 0)), 1: (True, ("answer", 1))} and not child.answers.poll(0)
        finally:
            child.close()
        assert_no_child()

    @needs_blas_threads
    def test_receive_holds_no_second_copy_of_an_answer(self, children):
        # A 300 x 300 file's text (over 3 MiB) is unpickled from the pipe as it
        # arrives: the command's allocations peak below 1.5 times the text.
        m = ginibre(np.random.default_rng(8), 300)
        pieces = cli._file_pieces(m)
        size = sum(map(len, pieces))
        assert size >= 3 * 2**20
        child = _workers._Forked(cli._file_pieces, [m])
        known = {}
        try:
            child.hand(0)
            tracemalloc.start()
            try:
                child.receive(known)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        finally:
            child.close()
        assert known == {0: (True, pieces)} and peak < 1.5 * size
        assert_no_child()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.lists(st.sampled_from([0.0, 5e-4, 5e-3]), max_size=40), st.none() | st.integers(0, 39), st.booleans(), st.booleans()
)
def test_shared_is_map_up_to_the_error(delays, bad, stream, inside):
    # Item k, the matrix k * I, takes delays[k] s in a child and a quarter of
    # that here, and item ``bad`` raises wherever it runs: a list or a stream
    # of them gives the results of ``map`` before that error and then the
    # error, inside the commands' context on two CPUs and outside it, and
    # leaves no child. The trace is read after the delay, so that a ring slot
    # reused too early gives another.
    def fn(a):
        k = int(a[0, 0].real)
        time.sleep(delays[k] if os.getpid() != _PARENT_PID else delays[k] / 4)
        if k == bad:
            raise ValueError(f"item {k} cannot run")
        return k, float(np.trace(a).real)

    items = _matrices(len(delays))
    expected = [fn(a) for a in items[: bad if bad is not None and bad < len(items) else None]]
    rows = []
    with contextlib.ExitStack() as stack:
        if inside:
            stack.enter_context(mock.patch.object(_workers, "_usable_cpus", lambda: 2))
            stack.enter_context(_workers._blas_children())
        if len(expected) < len(items):
            stack.enter_context(pytest.raises(ValueError, match=f"item {bad} cannot run"))
        for row in _workers._shared(fn, iter(items) if stream else items):
            rows.append(row)
    assert rows == expected and not _workers._may_fork
    assert_no_child()


_STEP_MEASURES = cli._step_measures


def _measures_die_in_workers(sigma0, it):
    if os.getpid() != _PARENT_PID:
        os._exit(1)
    return _STEP_MEASURES(sigma0, it)


# The steps a child has measured, kept in that child; the command's copy stays empty.
_MEASURED_IN_CHILD = []


def _measures_die_in_workers_at_the_third(sigma0, it):
    if os.getpid() != _PARENT_PID:
        _MEASURED_IN_CHILD.append(it)
        if len(_MEASURED_IN_CHILD) == 3:
            os._exit(1)
    return _STEP_MEASURES(sigma0, it)


def _measures_raise(sigma0, it):
    raise ValueError("these measures cannot be taken")


def _measures_blas_threads(sigma0, it):
    """This process's BLAS thread count, and 1.0 in a child, 0.0 here."""
    return float(_workers._openblas_threads()[1]()), float(os.getpid() != _PARENT_PID)


def _chain_stops(exc, after, threads=None):
    """``iterate_aluthge`` that yields its first ``after`` steps, then raises
    ``exc`` if there is one; it records in ``threads`` the BLAS thread count
    it runs on."""

    def chain(*args, **kwargs):
        for _, step in zip(range(after), iterate_aluthge(*args, **kwargs)):
            if threads is not None:
                threads.append(_workers._openblas_threads()[1]())
            yield step
        if exc is not None:
            raise exc

    return chain


@pytest.fixture
def iterate_input(tmp_path):
    """A 6 x 6 input, whose iterate forks a measuring child wherever one can start."""
    return write(tmp_path / "in.json", ginibre(np.random.default_rng(8), 6))


def iterate_on(cpus, monkeypatch, capsys, tmp_path, src, *argv, output=None):
    """Exit code, stderr and trace bytes (None where none was written) of
    ``iterate src *argv`` with ``cpus`` usable CPUs. It leaves no child and
    this process's BLAS thread count as it found it."""
    monkeypatch.setattr(_workers, "_usable_cpus", lambda: cpus)
    out = Path(output or tmp_path / f"cpus{cpus}.csv")
    threads = _workers._openblas_threads()
    before = threads and threads[1]()
    code = main(["iterate", src, *argv, "--output", str(out)])
    assert_no_child()
    assert (threads and threads[1]()) == before and not _workers._may_fork
    return code, capsys.readouterr().err, out.read_bytes() if out.exists() else None


def _slow_in_workers(a):
    """``_trace_in``, 50 ms late in a child, so that its ring fills."""
    if os.getpid() != _PARENT_PID:
        time.sleep(0.05)
    return _trace_in(a)


class TestIterateWorkers:
    @pytest.mark.parametrize("n", [1, 4])
    def test_small_input_shares_its_measures(self, tmp_path, monkeypatch, capsys, forks, n):
        # Every order forks one ring child on two CPUs, and writes the one-CPU bytes.
        src = write(tmp_path / "in.json", ginibre(np.random.default_rng(8), n))
        argv = ["--max-iter", "20", "--conv-tol", "1e-300"]
        serial = iterate_on(1, monkeypatch, capsys, tmp_path, src, *argv)
        assert forks == []
        forked = iterate_on(2, monkeypatch, capsys, tmp_path, src, *argv)
        # A 1 x 1 input is normal: its first step moves it by an ulp, its second converges.
        assert forked == serial and serial[0] == EXIT_OK and serial[2].count(b"\n") == (4 if n == 1 else 22)
        if _workers._openblas_threads() is not None:
            assert forks == [(_workers._RING_SLOTS, n, n)]

    @needs_blas_threads
    @pytest.mark.parametrize("window", [1, 4, _workers._RING_SLOTS])
    def test_window_bounds_steps_in_flight(self, monkeypatch, forks, children, window):
        # A ring of ``window`` slots, an item every 5 ms, and a child that
        # takes 50 ms an item: the command pulls at most ``window`` items
        # ahead of the rows it has given and computes every item it claims,
        # the rows in order all the same.
        monkeypatch.setattr(_workers, "_RING_SLOTS", window)
        pulled, rows = [], []

        def items():
            for item in _matrices(12):
                time.sleep(0.005)
                pulled.append(item)
                yield item

        for row in _workers._shared(_slow_in_workers, items()):
            assert len(pulled) <= len(rows) + window
            rows.append(row)
        assert [trace for trace, _ in rows] == [2.0 * k for k in range(12)]
        assert forks == [(window, 2, 2)] and not all(child for _, child in rows)
        assert_no_child()

    @needs_blas_threads
    def test_busy_slots_are_never_overwritten(self, children):
        # Each process reads the slot of an item it claims after a random
        # delay of up to 2 ms, while the command keeps handing out items: a
        # slot reused before its item was computed would give another trace.
        def fn(a):
            time.sleep(random.random() * 0.002)
            return _trace_in(a)

        rows = list(_workers._shared(fn, iter(_matrices(300, 8))))
        assert [trace for trace, _ in rows] == [8.0 * k for k in range(300)]
        assert any(child for _, child in rows)
        assert_no_child()

    @needs_blas_threads
    def test_items_handed_out_at_the_call(self, forks, children):
        # Nothing is pulled or forked at the call. At the first result asked
        # for, the first item is pulled and then the ring's child is forked,
        # shaped like that item; it is the only one.
        pulled = []

        def items():
            for item in _matrices(5):
                # No child exists when the first item is pulled; one does at every later pull.
                assert forks == ([(_workers._RING_SLOTS, 2, 2)] if pulled else [])
                pulled.append(item)
                yield item

        results = _workers._shared(_trace_in, items())
        assert forks == [] and pulled == []
        assert [trace for trace, _ in results] == [0.0, 2.0, 4.0, 6.0, 8.0]
        assert len(pulled) == 5 and len(forks) == 1
        assert_no_child()

    @needs_blas_threads
    def test_empty_stream_forks_nothing(self, forks, children):
        assert list(_workers._shared(_trace_in, iter(()))) == [] and forks == []
        assert_no_child()

    @needs_blas_threads
    def test_first_pull_error_forks_nothing(self, tmp_path, monkeypatch, capsys, forks, iterate_input):
        def items():
            raise FloatingPointError("step 1: not finite")
            yield

        monkeypatch.setattr(_workers, "_usable_cpus", lambda: 2)
        with _workers._blas_children(), pytest.raises(FloatingPointError, match="step 1: not finite"):
            next(_workers._shared(_trace_in, items()))
        assert forks == []
        # So iterate, whose chain fails at its first step, exits as on one CPU.
        monkeypatch.setattr(cli, "iterate_aluthge", _chain_stops(FloatingPointError("step 1: not finite"), 0))
        runs = [iterate_on(cpus, monkeypatch, capsys, tmp_path, iterate_input) for cpus in (1, 2)]
        assert runs[0] == runs[1] == (EXIT_USAGE, f"error: {iterate_input}: step 1: not finite\n", None)
        assert forks == []
        assert_no_child()

    def test_without_children_items_are_pulled_one_at_a_time(self, forks):
        # Outside the commands' process context no child starts, so no item is held.
        pulled = []
        items = (pulled.append(item) or item for item in _matrices(5))
        results = _workers._shared(_trace_in, items)
        assert next(results) == (0.0, False) and len(pulled) == 1
        assert list(results) == [(2.0 * k, False) for k in range(1, 5)] and forks == []

    @pytest.mark.parametrize("pooled", [False, True])
    def test_item_error_surfaces_after_earlier_items(self, request, pooled):
        if pooled:
            request.getfixturevalue("children")

        def items(stop):
            yield from _matrices(stop)
            raise FloatingPointError("no more items")

        def fn(a):
            if np.trace(a) == 6.0:
                raise ValueError("item 3 cannot run")
            return _trace_in(a)[0]

        rows = []
        with pytest.raises(FloatingPointError, match="no more items"):
            for row in _workers._shared(fn, items(3)):
                rows.append(row)
        assert rows == [0.0, 2.0, 4.0]
        # An earlier item's error comes first, as it does without children,
        # for a stream and for a list.
        for results in (_workers._shared(fn, items(5)), _workers._shared(fn, _matrices(5))):
            rows = []
            with pytest.raises(ValueError, match="item 3 cannot run"):
                for row in results:
                    rows.append(row)
            assert rows == [0.0, 2.0, 4.0]
        assert_no_child()

    @needs_blas_threads
    def test_error_here_waits_for_the_rows_the_child_holds(self, children):
        # Items come every 10 ms, and the child holds each it claims for
        # 100 ms: it claims item 0, and the command, once it has pulled the
        # 8 its ring holds, claims items 1-4 and raises item 4's error after
        # the rows before it. A list's error comes after its earlier rows too.
        def fn(a):
            if os.getpid() != _PARENT_PID:
                time.sleep(0.1)
            elif np.trace(a) == 8.0:
                raise ValueError("item 4 cannot run")
            return _trace_in(a)

        def items():
            for item in _matrices(8):
                time.sleep(0.01)
                yield item

        for results in (_workers._shared(fn, items()), _workers._shared(fn, _matrices(8))):
            rows = []
            with pytest.raises(ValueError, match="item 4 cannot run"):
                for row in results:
                    rows.append(row)
            assert [trace for trace, _ in rows] == [0.0, 2.0, 4.0, 6.0]
        assert_no_child()

    @needs_blas_threads
    def test_early_close_reaps_the_child(self, forks, children):
        stream = _workers._shared(_slow_in_workers, iter(_matrices(8)))
        for results in (stream, _workers._shared(_slow_in_workers, _matrices(8))):
            assert next(results)[0] == 0.0
            results.close()
            assert_no_child()
        assert len(forks) == 2

    @needs_blas_threads
    def test_child_gone_before_a_send_is_reaped_and_its_items_computed_here(self, monkeypatch, forks, children):
        # The child is killed on the first item it claims, before it sends
        # anything: the command reaps it and computes that item and every
        # other, for a stream and for a list alike.
        def fn(a):
            if os.getpid() != _PARENT_PID:
                os.kill(os.getpid(), signal.SIGKILL)
            time.sleep(0.01)
            return _trace_in(a)

        monkeypatch.setattr(_workers, "_RING_SLOTS", 2)
        expected = [(2.0 * k, False) for k in range(6)]
        assert list(_workers._shared(fn, iter(_matrices(6)))) == expected
        assert list(_workers._shared(fn, _matrices(6))) == expected
        assert len(forks) == 2
        assert_no_child()

    def test_iterate_uses_the_window(self, tmp_path, monkeypatch, capsys, forks, iterate_input):
        calls = []
        shared = _workers._shared

        def recording(fn, items):
            calls.append(hasattr(items, "__len__"))
            return shared(fn, items)

        monkeypatch.setattr(cli, "_shared", recording)
        assert iterate_on(2, monkeypatch, capsys, tmp_path, iterate_input, "--max-iter", "5")[0] == EXIT_OK
        assert iterate_on(1, monkeypatch, capsys, tmp_path, iterate_input, "--max-iter", "5")[0] == EXIT_OK
        # The command hands its iterates over as a stream on any CPU count; the
        # context decides whether a child forks, its ring shaped like the first.
        assert calls == [False, False]
        assert forks == ([(_workers._RING_SLOTS, 6, 6)] if _workers._openblas_threads() is not None else [])

    def test_pooled_trace_matches_in_process_at_128(self, tmp_path, monkeypatch, capsys, forks):
        src = write(tmp_path / "in.json", ginibre(np.random.default_rng(4), 128))
        argv = ["--lambda", "0.3", "--max-iter", "10", "--conv-tol", "1e-300"]
        serial = iterate_on(1, monkeypatch, capsys, tmp_path, src, *argv)
        assert forks == []
        forked = iterate_on(2, monkeypatch, capsys, tmp_path, src, *argv)
        assert forked == serial and serial[0] == EXIT_OK and serial[2].count(b"\n") == 12
        if _workers._openblas_threads() is not None:
            # One measuring child for the whole run.
            assert forks == [(_workers._RING_SLOTS, 128, 128)]

    @needs_blas_threads
    def test_killed_worker_rows_run_here(self, tmp_path, monkeypatch, capsys, forks, iterate_input):
        argv = ["--max-iter", "12", "--conv-tol", "1e-300"]
        serial = iterate_on(1, monkeypatch, capsys, tmp_path, iterate_input, *argv)
        monkeypatch.setattr(cli, "_step_measures", _measures_die_in_workers)
        forked = iterate_on(2, monkeypatch, capsys, tmp_path, iterate_input, *argv)
        assert forks == [(_workers._RING_SLOTS, 6, 6)]
        assert forked == serial and serial[0] == EXIT_OK and serial[2].count(b"\n") == 14

    @needs_blas_threads
    def test_worker_killed_mid_run_rows_run_here(self, tmp_path, monkeypatch, capsys, forks, iterate_input):
        # The child answers two steps and dies on its third: the command
        # measures every step it did not answer, from their ring slots.
        argv = ["--max-iter", "12", "--conv-tol", "1e-300"]
        serial = iterate_on(1, monkeypatch, capsys, tmp_path, iterate_input, *argv)
        monkeypatch.setattr(cli, "_step_measures", _measures_die_in_workers_at_the_third)
        forked = iterate_on(2, monkeypatch, capsys, tmp_path, iterate_input, *argv)
        assert forks == [(_workers._RING_SLOTS, 6, 6)]
        assert forked == serial and serial[0] == EXIT_OK

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_raising_measures_fail_as_in_process(self, tmp_path, monkeypatch, capsys, iterate_input, cpus):
        monkeypatch.setattr(cli, "_step_measures", _measures_raise)
        with pytest.raises(ValueError, match="these measures cannot be taken"):
            iterate_on(cpus, monkeypatch, capsys, tmp_path, iterate_input)
        assert_no_child()
        assert not (tmp_path / f"cpus{cpus}.csv").exists()

    def test_chain_error_exits_2_without_a_file(self, tmp_path, monkeypatch, capsys, iterate_input):
        monkeypatch.setattr(cli, "iterate_aluthge", _chain_stops(FloatingPointError("step 6: not finite"), 5))
        runs = [iterate_on(cpus, monkeypatch, capsys, tmp_path, iterate_input) for cpus in (1, 2)]
        assert runs[0] == runs[1] == (EXIT_USAGE, f"error: {iterate_input}: step 6: not finite\n", None)

    def test_unwritable_output_exits_2(self, tmp_path, monkeypatch, capsys, iterate_input):
        out = tmp_path / "nodir" / "trace.csv"
        runs = [iterate_on(cpus, monkeypatch, capsys, tmp_path, iterate_input, output=out) for cpus in (1, 2)]
        assert runs[0] == runs[1]
        assert runs[0][0] == EXIT_USAGE and runs[0][1].startswith(f"error: cannot write {out}: ")

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_interrupt_leaves_no_worker(self, tmp_path, monkeypatch, capsys, iterate_input, cpus):
        monkeypatch.setattr(cli, "iterate_aluthge", _chain_stops(KeyboardInterrupt(), 5))
        threads = _workers._openblas_threads()
        before = threads and threads[1]()
        monkeypatch.setattr(_workers, "_usable_cpus", lambda: cpus)
        with pytest.raises(KeyboardInterrupt):
            main(["iterate", iterate_input, "--output", str(tmp_path / "trace.csv")])
        assert_no_child()
        assert (threads and threads[1]()) == before and not _workers._may_fork

    @needs_blas_threads
    def test_every_process_runs_one_blas_thread(self, tmp_path, monkeypatch, capsys, forks, iterate_input):
        chain_threads = []
        monkeypatch.setattr(cli, "_step_measures", _measures_blas_threads)
        monkeypatch.setattr(cli, "iterate_aluthge", _chain_stops(None, 5, chain_threads))
        code, _, trace = iterate_on(2, monkeypatch, capsys, tmp_path, iterate_input)
        assert code == EXIT_OK and forks == [(_workers._RING_SLOTS, 6, 6)]
        # Each row's distance column holds a thread count, its drift column 1.0
        # where the child measured the step, as it does the first.
        columns = [row.split(",")[2:] for row in trace.decode().splitlines()[1:-1]]
        assert [threads for threads, _ in columns] == ["1.0"] * 5 and columns[0][1] == "1.0"
        assert chain_threads == [1] * 5


_FORMAT_ROWS = matrixio._format_rows


def _format_dies_in_workers(rows):
    if os.getpid() != _PARENT_PID:
        os._exit(9)
    return _FORMAT_ROWS(rows)


def _interrupted(*args):
    raise KeyboardInterrupt


def _fork_fails():
    raise OSError(errno.EAGAIN, "Resource temporarily unavailable")


@pytest.fixture
def shared_input(tmp_path):
    """A 6 x 6 input, whose ``transform --factors`` shares its three files
    with a forked child wherever one can start."""
    return write(tmp_path / "in.json", ginibre(np.random.default_rng(12), 6))


def transform_on(cpus, monkeypatch, capsys, tmp_path, src, *argv, output=None):
    """Exit code, stderr and output files of ``transform src --factors *argv``
    with ``cpus`` usable CPUs, writing under ``tmp_path/cpus<cpus>`` unless
    ``output`` is given. It leaves no child."""
    monkeypatch.setattr(_workers, "_usable_cpus", lambda: cpus)
    where = tmp_path / f"cpus{cpus}"
    where.mkdir(exist_ok=True)
    code = main(["transform", src, *argv, "--factors", "--output", str(output or where / "out.json")])
    assert_no_child()
    return code, capsys.readouterr().err, {p.name: p.read_bytes() for p in sorted(where.iterdir())}


def transform_in_a_fresh_process(tmp_path, m, *flags):
    """The exit code of ``main(["transform", ..., *flags, ...])`` on ``m``,
    run in a fresh interpreter with two usable CPUs, then the forks it made,
    whether ``multiprocessing`` and ``concurrent.futures`` were loaded and
    whether it left a child."""
    src = write(tmp_path / "in.json", m)
    argv = ["transform", src, *flags, "--output", str(tmp_path / "out.json")]
    code = (
        "import os, sys\n"
        "from aluthge import _workers\n"
        "from aluthge.cli import main\n"
        "_workers._usable_cpus = lambda: 2\n"
        "forks = []\n"
        "os.register_at_fork(before=lambda: forks.append(1))\n"
        f"code = main({argv!r})\n"
        "try:\n"
        "    os.waitpid(-1, os.WNOHANG)\n"
        "    child = True\n"
        "except ChildProcessError:\n"
        "    child = False\n"
        "print(code, len(forks), 'multiprocessing' in sys.modules, 'concurrent.futures' in sys.modules, child)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    return out.splitlines()


class TestTransformWorker:
    def test_small_input_loads_no_pool_module_and_starts_no_process(self, tmp_path):
        # A lone output file is rendered in the command, and the load forks none.
        assert transform_in_a_fresh_process(tmp_path, ginibre(np.random.default_rng(3), 8)) == ["0 0 False False False"]

    @needs_blas_threads
    def test_large_input_forks_once_per_load_and_save_and_loads_no_pool_module(self, tmp_path):
        # At any order the load forks none and the three --factors files fork
        # one child between them; a plain transform forks none.
        for n in (8, 300):
            m = ginibre(np.random.default_rng(5), n)
            assert transform_in_a_fresh_process(tmp_path, m, "--factors") == ["0 1 False False False"]
            assert transform_in_a_fresh_process(tmp_path, m) == ["0 0 False False False"]

    @needs_blas_threads
    def test_the_load_and_every_save_fork_one_child_each(self, tmp_path, monkeypatch, capsys, forks, shared_input):
        # The load forks none; the saves fork one child that could claim any
        # of the three output matrices.
        serial = transform_on(1, monkeypatch, capsys, tmp_path, shared_input)
        assert forks == []
        shared = transform_on(2, monkeypatch, capsys, tmp_path, shared_input)
        assert shared == serial and serial[0] == EXIT_OK and len(serial[2]) == 3
        assert [[type(m) for m in items] for items in forks] == [[np.ndarray] * 3]

    @needs_blas_threads
    def test_killed_worker_gives_the_same_bytes(self, tmp_path, monkeypatch, capsys, forks, shared_input):
        serial = transform_on(1, monkeypatch, capsys, tmp_path, shared_input)
        monkeypatch.setattr(matrixio, "_format_rows", _format_dies_in_workers)
        shared = transform_on(2, monkeypatch, capsys, tmp_path, shared_input)
        assert shared == serial and serial[0] == EXIT_OK
        # The child dies rendering the first file it claims; the command renders the rest.
        assert len(forks) == 1

    @needs_blas_threads
    def test_failed_fork_gives_the_same_bytes(self, tmp_path, monkeypatch, capsys, forks, shared_input):
        serial = transform_on(1, monkeypatch, capsys, tmp_path, shared_input)
        tries = []
        monkeypatch.setattr(os, "fork", lambda: tries.append(1) or _fork_fails())
        shared = transform_on(2, monkeypatch, capsys, tmp_path, shared_input)
        assert shared == serial and serial[0] == EXIT_OK and len(tries) == 1 and forks == []

    @needs_blas_threads
    def test_input_not_in_the_exact_layout_gets_shared_saves(self, tmp_path, monkeypatch, capsys, forks):
        # json.load reads the input in the command; the files are still shared.
        m = ginibre(np.random.default_rng(6), 300)
        src = tmp_path / "in.json"
        src.write_text(json.dumps(matrix_to_obj(m), indent=1) + "\n")
        serial = transform_on(1, monkeypatch, capsys, tmp_path, str(src))
        shared = transform_on(2, monkeypatch, capsys, tmp_path, str(src))
        assert shared == serial and serial[0] == EXIT_OK
        assert [[matrix.shape for matrix in items] for items in forks] == [[(300, 300)] * 3]

    @needs_blas_threads
    def test_unwritable_middle_output_stops_the_writes_in_order(self, tmp_path, monkeypatch, capsys, forks,
                                                                shared_input):
        # out.isometry.json is a FIFO: out.json is written, the FIFO is refused
        # before anything is written to it, and out.modulus.json never is.
        runs = []
        for cpus in (1, 2):
            where = tmp_path / f"cpus{cpus}"
            where.mkdir()
            os.mkfifo(where / "out.isometry.json")
            monkeypatch.setattr(_workers, "_usable_cpus", lambda: cpus)
            code = main(["transform", shared_input, "--factors", "--output", str(where / "out.json")])
            assert_no_child()
            err = capsys.readouterr().err.replace(str(where), "WHERE")
            files = {p.name: p.read_bytes() if p.is_file() else "fifo" for p in sorted(where.iterdir())}
            runs.append((code, err, files))
        assert runs[0] == runs[1] and len(forks) == 1
        code, err, files = runs[0]
        assert code == EXIT_USAGE and err == "error: cannot write WHERE/out.isometry.json: not a regular file\n"
        assert list(files) == ["out.isometry.json", "out.json"] and files["out.isometry.json"] == "fifo"
        delta = aluthge(load_matrix(shared_input), 0.5)
        assert load_matrix(tmp_path / "cpus1" / "out.json").tobytes() == delta.tobytes()

    @needs_blas_threads
    @pytest.mark.parametrize("case", ["malformed_second_half", "non_square", "unwritable_output"])
    def test_exit_path_leaves_no_worker(self, tmp_path, monkeypatch, capsys, forks, shared_input, case):
        src, output = shared_input, None
        if case == "malformed_second_half":
            text = Path(src).read_bytes()
            Path(src).write_bytes(text[: text.rindex(b"]]]}")].rstrip(b"0123456789") + b"1.]]]}\n")
        elif case == "non_square":
            src = tmp_path / "rect.json"
            src.write_text(json.dumps(matrix_to_obj(ginibre(np.random.default_rng(4), 6)[:4])) + "\n")
        else:
            output = tmp_path / "no_such_dir" / "out.json"
        runs = [transform_on(cpus, monkeypatch, capsys, tmp_path, str(src), output=output) for cpus in (1, 2)]
        assert runs[0] == runs[1]
        code, err, files = runs[0]
        assert files == {} and code == (EXIT_SHAPE if case == "non_square" else EXIT_USAGE)
        if case == "malformed_second_half":
            assert err.startswith(f"error: invalid JSON in {src}: Expecting ','")
        # Only the files are shared: the shared run forked a child once they were to be written.
        assert len(forks) == (case == "unwritable_output")

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_interrupt_leaves_no_worker(self, tmp_path, monkeypatch, shared_input, cpus):
        monkeypatch.setattr(cli, "_transform_and_factors", _interrupted)
        monkeypatch.setattr(_workers, "_usable_cpus", lambda: cpus)
        with pytest.raises(KeyboardInterrupt):
            main(["transform", shared_input, "--factors", "--output", str(tmp_path / "out.json")])
        assert_no_child()


def _pipe_fails():
    raise OSError(errno.EMFILE, "Too many open files")


class TestProcessContext:
    """``main`` runs every command inside ``_workers._blas_children``."""

    @needs_blas_threads
    @pytest.mark.parametrize(
        "command, way, code",
        [
            ("transform", "ok", EXIT_OK),
            ("transform", "malformed", EXIT_USAGE),
            ("transform", "non_square", EXIT_SHAPE),
            ("transform", "unwritable", EXIT_USAGE),
            ("transform", "interrupt", None),
            ("iterate", "ok", EXIT_OK),
            ("iterate", "bad_args", EXIT_USAGE),
            ("iterate", "non_square", EXIT_SHAPE),
            ("iterate", "unwritable", EXIT_USAGE),
            ("iterate", "interrupt", None),
            ("verify", "ok", EXIT_OK),
            ("verify", "failures", EXIT_CHECK_FAILURES),
            ("verify", "bad_config", EXIT_USAGE),
            ("verify", "unwritable", EXIT_USAGE),
            ("verify", "interrupt", None),
        ],
    )
    def test_every_way_out_restores_blas_and_forbids_children(
        self, tmp_path, monkeypatch, capsys, shared_input, command, way, code
    ):
        # Given two CPUs, every command that gets as far as its work forks:
        # transform shares its three files, iterate its measures, verify its reports.
        monkeypatch.setattr(_workers, "_usable_cpus", lambda: 2)
        (tmp_path / "bad.json").write_text("{")
        src = {"malformed": str(tmp_path / "bad.json"), "non_square": write(tmp_path / "rect.json", np.ones((2, 3)))}
        src = src.get(way, shared_input)
        out = str(tmp_path / ("no_such_dir" if way == "unwritable" else "") / "out")
        if command == "transform":
            argv = ["transform", src, "--factors", "--output", out]
            if way == "interrupt":
                monkeypatch.setattr(cli, "_transform_and_factors", _interrupted)
        elif command == "iterate":
            argv = ["iterate", src, "--max-iter", "6", "--conv-tol", "1e-300", "--output", out]
            argv += ["--lambda", "2"] if way == "bad_args" else []
            if way == "interrupt":
                monkeypatch.setattr(cli, "iterate_aluthge", _chain_stops(KeyboardInterrupt(), 5))
        else:
            checks = ["square_identity", "interrupted" if way == "interrupt" else "rank_one_formula"]
            extra = {"failures": ["--tol-eq", "0.5", "--trials", "50", "--seed", "3"], "bad_config": ["--trials", "0"]}
            if way == "unwritable":
                out = str(tmp_path / "out")
                os.makedirs(tmp_path / "out" / "square_identity_dim3.json")
            argv = ["verify", "--checks", *checks, "--dims", "2", "3", "--trials", "10", *extra.get(way, []),
                    "--output-dir", out]
            _register(monkeypatch, "interrupted", _interrupted)
        set_threads, get_threads = _workers._openblas_threads()
        before = get_threads()
        set_threads(2)
        try:
            inherited = get_threads()
            if code is None:
                with pytest.raises(KeyboardInterrupt):
                    main(argv)
            else:
                assert main(argv) == code
            assert get_threads() == inherited and not _workers._may_fork
        finally:
            set_threads(before)
        assert_no_child()
        capsys.readouterr()

    @needs_blas_threads
    @pytest.mark.parametrize("command", ["verify", "transform", "iterate"])
    def test_failed_pipe_gives_the_one_cpu_run(self, tmp_path, monkeypatch, capsys, forks, shared_input, command):
        # A pipe that cannot be made (EMFILE) is a fork that failed: the command computes every item.
        def on(cpus):
            if command == "transform":
                return transform_on(cpus, monkeypatch, capsys, tmp_path, shared_input)
            if command == "iterate":
                return iterate_on(cpus, monkeypatch, capsys, tmp_path, shared_input, "--max-iter", "8")
            return run_on(cpus, monkeypatch, capsys, tmp_path, "--dims", "2", "3", "--trials", "10")

        serial = on(1)
        tries = []
        monkeypatch.setattr(os, "pipe", lambda: tries.append(1) or _pipe_fails())
        assert on(2) == serial and serial[0] == EXIT_OK
        # verify's reports, transform's three files or iterate's ring: one child each.
        assert forks == [] and len(tries) == 1

    def test_transform_bytes_do_not_depend_on_blas_threads(self, tmp_path, monkeypatch, capsys):
        # At n = 256 OpenBLAS gives other SVD bits on one thread and on two;
        # the command runs on one whatever count it inherits and whatever the CPUs.
        src = write(tmp_path / "in.json", ginibre(np.random.default_rng(11), 256))
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        runs = []
        for threads in ("1", "2"):
            where = tmp_path / f"threads{threads}"
            where.mkdir()
            argv = ["transform", src, "--factors", "--output", str(where / "out.json")]
            subprocess.run([sys.executable, "-m", "aluthge.cli", *argv], env=dict(env, OPENBLAS_NUM_THREADS=threads),
                           check=True)
            runs.append({p.name: p.read_bytes() for p in sorted(where.iterdir())})
        assert runs[0] == runs[1] and len(runs[0]) == 3
        for cpus in (1, 2):
            assert transform_on(cpus, monkeypatch, capsys, tmp_path, src) == (EXIT_OK, "", runs[0])
