"""Command-line front end.

Subcommands:
  transform  apply the lambda-Aluthge transform to a matrix file
  iterate    run the iterated transform and write a CSV trace
  verify     run the randomized verification suite and write JSON reports

Exit codes: 0 success, 1 verification failures, 2 usage/config or malformed
input file, 3 non-square input where a square matrix is required.

``main`` runs every command inside ``_workers._blas_children``, on one BLAS
thread in every process, so no output depends on the CPU or thread count.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import csv
import datetime
import functools
import io
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from ._workers import _blas_children, _shared
from .lemmas import run_check
from .linalg import DEFAULT_TOL, Tolerances, _distance_to_normal, lambda_admitted, spectra_pairing_distance, spectrum
from .maps import CHECKS
from .matrixio import MatrixFileError, _encode, atomic_write_text, load_matrix
from .transform import _transform_and_factors, aluthge, iterate_aluthge

EXIT_OK = 0
EXIT_CHECK_FAILURES = 1
EXIT_USAGE = 2
EXIT_SHAPE = 3

DEFAULT_DIMS = [2, 3, 4, 5, 6]
DEFAULT_TRIALS = 1000
DEFAULT_SEED = 7
DEFAULT_LAMBDA = 0.5

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="aluthge", description="lambda-Aluthge transform toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_tr = sub.add_parser("transform", help="apply the lambda-Aluthge transform to a matrix file")
    p_tr.add_argument("input")
    p_tr.add_argument("--lambda", dest="lam", type=float, default=DEFAULT_LAMBDA)
    p_tr.add_argument("--output", required=True)
    p_tr.add_argument("--factors", action="store_true", help="also write the polar factors V and |T|")

    p_it = sub.add_parser("iterate", help="iterate the transform and write a CSV trace")
    p_it.add_argument("input")
    p_it.add_argument("--lambda", dest="lam", type=float, default=DEFAULT_LAMBDA)
    p_it.add_argument("--max-iter", type=int, default=500)
    p_it.add_argument("--conv-tol", type=float, default=1e-10)
    p_it.add_argument("--output", required=True)

    p_vf = sub.add_parser("verify", help="run the randomized verification suite")
    p_vf.add_argument("--config", help="JSON run configuration; flags override its entries")
    p_vf.add_argument("--lambda", dest="lam", type=float, default=None)
    p_vf.add_argument("--dims", type=int, nargs="+", default=None)
    p_vf.add_argument("--trials", type=int, default=None)
    p_vf.add_argument("--seed", type=int, default=None)
    p_vf.add_argument("--tol-eq", type=float, default=None)
    p_vf.add_argument("--tol-rank", type=float, default=None)
    p_vf.add_argument("--tol-fix", type=float, default=None)
    p_vf.add_argument("--checks", nargs="+", default=None, choices=sorted(CHECKS))
    p_vf.add_argument("--format", choices=["json", "csv"], default="json")
    p_vf.add_argument("--no-timestamp", action="store_true", help="omit the timestamp (CI determinism)")
    p_vf.add_argument("--output-dir", default="reports")
    return parser


def _load_square(path: str) -> np.ndarray | int:
    """The square matrix in ``path`` or, after printing why there is none, the
    exit code: EXIT_USAGE for a malformed file, EXIT_SHAPE if not square."""
    try:
        m = load_matrix(path)
    except MatrixFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if m.shape[0] != m.shape[1]:
        print(f"error: {path}: matrix of shape {m.shape} is not square", file=sys.stderr)
        return EXIT_SHAPE
    return m


def _written(path: str, write, *args) -> bool:
    """Whether ``write(path, *args)`` wrote ``path``; if not, it says why."""
    try:
        write(path, *args)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        return False
    return True


def cmd_transform(args) -> int:
    m = _load_square(args.input)
    if isinstance(m, int):
        return m
    if not 0.0 <= args.lam <= 1.0:
        print("error: --lambda must lie in [0, 1]", file=sys.stderr)
        return EXIT_USAGE
    if not args.factors:
        outputs = {args.output: aluthge(m, args.lam)}
    else:
        # One SVD serves the transform and both factor files.
        delta, isometry, modulus = _transform_and_factors(m, args.lam)
        stem, ext = os.path.splitext(args.output)
        outputs = {
            args.output: delta,
            f"{stem}.isometry{ext or '.json'}": isometry,
            f"{stem}.modulus{ext or '.json'}": modulus,
        }
    # The command and, for the three files of --factors, one child each claim
    # the next file to render; the command writes the files in order.
    with contextlib.closing(_shared(_file_pieces, list(outputs.values()))) as texts:
        for path, pieces in zip(outputs, texts):
            if not _written(path, atomic_write_text, pieces):
                return EXIT_USAGE
    return EXIT_OK


def cmd_iterate(args) -> int:
    m = _load_square(args.input)
    if isinstance(m, int):
        return m
    if not 0.0 < args.lam < 1.0 or args.max_iter < 1 or not 0.0 < args.conv_tol < math.inf:
        print("error: require 0 < lambda < 1, max-iter >= 1, finite conv-tol > 0", file=sys.stderr)
        return EXIT_USAGE
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["step", "delta_frobenius", "distance_to_normal", "spectral_drift"])
    # The command runs the chain and, where a child may start, copies each
    # iterate into the ring of one measuring child, forked at the first step;
    # the two each claim the next step to measure. Each step's delta and
    # convergence wait here, in step order, for its measures.
    measures = functools.partial(_step_measures, spectrum(m))
    pulled = collections.deque()

    def iterates():
        for it, delta, converged in iterate_aluthge(m, args.lam, max_iter=args.max_iter, conv_tol=args.conv_tol):
            pulled.append((delta, converged))
            yield it

    try:
        with contextlib.closing(_shared(measures, iterates())) as rows:
            for step, (distance, drift) in enumerate(rows, start=1):
                delta, converged = pulled.popleft()
                writer.writerow([step, repr(delta), repr(distance), repr(drift)])
    except FloatingPointError as exc:
        print(f"error: {args.input}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    buf.write(f"# converged={'true' if converged else 'false'}\n")
    return EXIT_OK if _written(args.output, atomic_write_text, buf.getvalue()) else EXIT_USAGE


def _canonical(obj) -> str:
    """Canonical JSON: sorted keys, no spaces, shortest round-trip floats, so
    identical runs give identical bytes."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _verify_config(args) -> tuple[dict, Tolerances]:
    """The run configuration (defaults, then --config, then flags and
    ALUTHGE_SEED), validated, and its tolerances."""
    cfg = {
        "lambda": DEFAULT_LAMBDA,
        "dims": DEFAULT_DIMS,
        "trials": DEFAULT_TRIALS,
        "seed": DEFAULT_SEED,
        "tolerances": asdict(DEFAULT_TOL),
        "checks": sorted(CHECKS),
    }
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError("config must be a JSON object")
        unknown = set(loaded) - set(cfg)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        tol = loaded.pop("tolerances", {})
        # type() rather than isinstance(): JSON true/false must not pass as numbers.
        if not isinstance(tol, dict) or set(tol) - set(cfg["tolerances"]) or any(
            type(v) not in (int, float) for v in tol.values()
        ):
            raise ValueError(f"tolerances must be an object of numbers keyed by {sorted(cfg['tolerances'])}")
        tol = {**cfg["tolerances"], **tol}
        cfg.update(loaded)
        cfg["tolerances"] = tol
    flags = {"lambda": args.lam, "dims": args.dims, "trials": args.trials, "seed": args.seed, "checks": args.checks}
    if os.environ.get("ALUTHGE_SEED"):
        flags["seed"] = int(os.environ["ALUTHGE_SEED"])
    cfg.update((key, value) for key, value in flags.items() if value is not None)
    tol_flags = {"eq_abs": args.tol_eq, "rank_rel": args.tol_rank, "fix_rel": args.tol_fix}
    cfg["tolerances"].update((key, value) for key, value in tol_flags.items() if value is not None)

    lam = cfg["lambda"]
    if type(lam) not in (int, float) or not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must be a number in [0, 1], got {lam!r}")
    for name, low in (("seed", 0), ("trials", 1)):
        if type(cfg[name]) is not int or cfg[name] < low:
            raise ValueError(f"{name} must be an integer >= {low}, got {cfg[name]!r}")
    dims = cfg["dims"]
    if not isinstance(dims, list) or not dims or not all(type(d) is int and d >= 2 for d in dims):
        raise ValueError(f"dims must be a non-empty list of integers >= 2, got {dims!r}")
    checks = cfg["checks"]
    if not isinstance(checks, list) or not checks or not all(isinstance(c, str) for c in checks):
        raise ValueError(f"checks must be a non-empty list of check ids, got {checks!r}")
    for name in ("dims", "checks"):
        if len(set(cfg[name])) < len(cfg[name]):
            raise ValueError(f"{name} must not repeat, got {cfg[name]!r}")
    bad = set(checks) - set(CHECKS)
    if bad:
        raise ValueError(f"unknown checks: {sorted(bad)}")
    excluded = [f"{c} {CHECKS[c].domain}" for c in checks if not lambda_admitted(lam, CHECKS[c].domain)]
    if excluded:
        raise ValueError(f"lambda {lam!r} lies outside the domain of: {', '.join(excluded)}")
    return cfg, Tolerances(**cfg["tolerances"])  # Tolerances validates ranges


def _report(task: tuple[str, int], seed: int, lam: float, trials: int, tol: Tolerances) -> dict:
    check_id, dim = task
    return run_check(CHECKS[check_id], dim, seed, lam, trials, tol)


def _file_pieces(m: np.ndarray) -> list:
    """The text of ``m``'s matrix file, in the pieces the writer renders."""
    return list(_encode(m))


def _step_measures(sigma0: np.ndarray, it: np.ndarray) -> tuple[float, float]:
    """The distance to normal and the spectral drift of ``it``, an iterate
    of ``iterate_aluthge`` whose input has the spectrum ``sigma0``."""
    return _distance_to_normal(it), spectra_pairing_distance(sigma0, spectrum(it))


def cmd_verify(args) -> int:
    try:
        cfg, tol = _verify_config(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: bad config: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if not _written(args.output_dir, lambda path: os.makedirs(path, exist_ok=True)):
        return EXIT_USAGE
    tasks = [(check_id, dim) for check_id in cfg["checks"] for dim in cfg["dims"]]
    run = functools.partial(_report, seed=cfg["seed"], lam=cfg["lambda"], trials=cfg["trials"], tol=tol)
    reports = []
    total_failures = 0
    # The command and one child each claim the next report as they fall idle.
    with contextlib.closing(_shared(run, tasks)) as done:
        for (check_id, dim), report in zip(tasks, done):
            reports.append(report)
            total_failures += report["failures"]
            verdict = "PASS" if report["failures"] == 0 else "FAIL"
            print(
                f"{verdict} {check_id} dim={dim} trials={report['trials']} "
                f"failures={report['failures']} vacuous={report['vacuous']} worst={report['worst_residual']:.3e}"
            )
            path = os.path.join(args.output_dir, f"{check_id}_dim{dim}.json")
            if not _written(path, atomic_write_text, _canonical(report) + "\n"):
                return EXIT_USAGE

    aggregate = {
        "config": cfg,
        "failures": total_failures,
        "reports": reports,
    }
    if not args.no_timestamp:
        aggregate["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    outputs = {"aggregate.json": _canonical(aggregate) + "\n"}
    if args.format == "csv":
        buf = io.StringIO()
        columns = ["check_id", "dim", "lambda", "trials", "failures", "vacuous", "worst_residual"]
        writer = csv.DictWriter(buf, columns, extrasaction="ignore", lineterminator="\n")
        writer.writeheader()
        writer.writerows(reports)
        outputs["aggregate.csv"] = buf.getvalue()
    for name, text in outputs.items():
        if not _written(os.path.join(args.output_dir, name), atomic_write_text, text):
            return EXIT_USAGE
    return EXIT_OK if total_failures == 0 else EXIT_CHECK_FAILURES


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors, matching the exit contract.
        return int(exc.code or 0)
    command = {"transform": cmd_transform, "iterate": cmd_iterate, "verify": cmd_verify}[args.command]
    with _blas_children():
        return command(args)


if __name__ == "__main__":
    sys.exit(main())
