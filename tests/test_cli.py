import json
import multiprocessing
import os
import stat
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from aluthge import cli, matrixio
from aluthge.cli import EXIT_CHECK_FAILURES, EXIT_OK, EXIT_SHAPE, EXIT_USAGE, main
from aluthge.generators import ginibre
from aluthge.lemmas import run_check
from aluthge.linalg import Tolerances, frobenius
from aluthge.maps import CHECKS
from aluthge.matrixio import load_matrix, matrix_to_obj, save_matrix
from aluthge.transform import aluthge, iterate_aluthge, polar

NIL = np.array([[0, 1], [0, 0]], dtype=complex)
MATRIX_2X2 = b'{"rows": 2, "cols": 2, "data": [[[1.0, 0.0], [2.0, 0.0]], [[0.0, 0.0], [3.0, 0.0]]]}'
# A 4x4 matrix of entries 1e308: finite, but its Frobenius norm exceeds the double range.
MATRIX_1E308 = json.dumps(matrix_to_obj(np.full((4, 4), 1e308, dtype=complex))).encode()
# Command lines for the malformed-input cases; IN is the bad file, OUT the
# output, NODIR an output path in a directory that does not exist.
TRANSFORM = ["transform", "IN", "--output", "OUT"]
VERIFY = ["verify", "--config", "IN", "--output-dir", "OUT"]
ITERATE = ["iterate", "IN", "--output", "OUT"]


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
        assert frobenius(load_matrix(out)) <= 1e-12

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
            pytest.param(VERIFY + ["--lambda", "0"], b"{}", id="verify_lambda_0_open_checks"),
            pytest.param(VERIFY + ["--lambda", "1"], b"{}", id="verify_lambda_1_open_checks"),
            pytest.param(ITERATE + ["--conv-tol", "nan"], MATRIX_2X2, id="iterate_conv_tol_nan"),
            pytest.param(ITERATE + ["--conv-tol", "inf"], MATRIX_2X2, id="iterate_conv_tol_inf"),
            pytest.param(ITERATE, MATRIX_1E308, id="iterate_norm_overflows"),
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
        assert not out.exists()

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

    def test_factors_parallel_saves_match_serial(self, tmp_path, monkeypatch):
        src = write(tmp_path / "in.json", ginibre(np.random.default_rng(12), 6))
        outputs = ["out.json", "out.isometry.json", "out.modulus.json"]
        os.mkdir(tmp_path / "serial")
        assert main(["transform", src, "--output", str(tmp_path / "serial" / "out.json"), "--factors"]) == EXIT_OK
        monkeypatch.setattr(matrixio, "PARALLEL_ENTRIES", 1)
        monkeypatch.setattr(matrixio, "_usable_cpus", lambda: 2)
        blocks = []
        submit = ProcessPoolExecutor.submit

        def recording_submit(pool, fn, *args):
            blocks.append(args[0].shape)
            return submit(pool, fn, *args)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", recording_submit)
        assert main(["transform", src, "--output", str(tmp_path / "out.json"), "--factors"]) == EXIT_OK
        assert blocks == [(3, 12)] * 3  # the second half of each file's rows went to a worker
        assert multiprocessing.active_children() == []
        for name in outputs:
            assert (tmp_path / name).read_bytes() == (tmp_path / "serial" / name).read_bytes()

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
        assert frobenius(load_matrix(out) - second) <= 1e-10 * (1 + frobenius(m))


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
    # The parallel save imports them only when it starts a worker.
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    code = "import sys, aluthge.cli; sys.exit('multiprocessing' in sys.modules or 'concurrent.futures' in sys.modules)"
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
