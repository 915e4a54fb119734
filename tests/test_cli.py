import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from aluthge import cli
from aluthge.cli import EXIT_CHECK_FAILURES, EXIT_OK, EXIT_SHAPE, EXIT_USAGE, main
from aluthge.linalg import frobenius
from aluthge.matrixio import load_matrix, save_matrix
from aluthge.transform import aluthge, iterate_aluthge, polar

NIL = np.array([[0, 1], [0, 0]], dtype=complex)


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
        "content",
        [
            b'{"rows": 1, "cols": 1, "data": [[[1.0, \xff]]]}',
            b'{"rows": 1, "cols": 1, "data": [[[' + b"9" * 401 + b", 0]]]}",
            b'{"rows": 1, "cols": 1, "data": [[[' + b"1" * 4301 + b", 0]]]}",
            b'{"rows": 1, "cols": 1, "data": 5}',
        ],
        ids=["not_utf8", "int_overflows_double", "int_over_4300_digits", "data_not_a_list"],
    )
    def test_malformed_input_exits_2(self, tmp_path, capsys, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        assert main(["transform", str(bad), "--output", str(tmp_path / "o.json")]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "o.json").exists()

    @pytest.mark.parametrize("lam", [0.0, 0.3, 1.0])
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
        trace = iterate_aluthge(m, 0.4, conv_tol=1e-8)
        assert len(rows) == len(trace.step_deltas)
        for line, delta in zip(rows, trace.step_deltas):
            assert float(line.split(",")[1]) == pytest.approx(float(delta), abs=1e-15)

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

    def test_csv_format(self, tmp_path):
        code, outdir = run_verify(tmp_path, "csv", "--format", "csv")
        assert code == EXIT_OK
        lines = (outdir / "aggregate.csv").read_text().splitlines()
        assert lines[0] == "check_id,dim,lambda,trials,failures,vacuous,worst_residual"
        assert len(lines) == 5

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

    def test_unknown_check_rejected_by_parser(self, tmp_path):
        code = main(["verify", "--checks", "no_such_check", "--output-dir", str(tmp_path / "x")])
        assert code == EXIT_USAGE

    def test_tol_flags_recorded(self, tmp_path):
        _, outdir = run_verify(tmp_path, "tol", "--tol-eq", "1e-7", "--tol-rank", "1e-11")
        agg = json.loads((outdir / "aggregate.json").read_text())
        assert agg["config"]["tolerances"]["eq_abs"] == 1e-7
        assert agg["config"]["tolerances"]["rank_rel"] == 1e-11


class TestComposition:
    def test_transform_twice_matches_second_iterate(self, tmp_path):
        rng = np.random.default_rng(77)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        src = write(tmp_path / "m0.json", m)
        mid = tmp_path / "m1.json"
        out = tmp_path / "m2.json"
        assert main(["transform", src, "--lambda", "0.5", "--output", str(mid)]) == EXIT_OK
        assert main(["transform", str(mid), "--lambda", "0.5", "--output", str(out)]) == EXIT_OK
        trace = iterate_aluthge(m, 0.5, max_iter=2, conv_tol=1e-300)
        # file round-trip is exact (repr doubles), so agreement is tight
        assert frobenius(load_matrix(out) - trace.iterates[2]) <= 1e-10 * (1 + frobenius(m))


def test_cli_import_leaves_scipy_unloaded():
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    code = "import sys, aluthge.cli; sys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
