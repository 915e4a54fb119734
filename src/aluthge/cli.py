"""Command-line front end.

Subcommands:
  transform  apply the lambda-Aluthge transform to a matrix file
  iterate    run the iterated transform and write a CSV trace
  verify     run the randomized verification suite and write JSON reports

Exit codes: 0 success, 1 verification failures, 2 usage/config or malformed
input file, 3 non-square input where a square matrix is required.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import io
import json
import math
import os
import sys

import numpy as np

from .generators import GeneratorSpec
from .lemmas import lambda_admitted, run_check
from .linalg import DEFAULT_TOL, Tolerances, frobenius, spectra_pairing_distance, spectrum
from .maps import CHECKS
from .matrixio import MatrixFileError, atomic_write_text, load_matrix, save_matrix
from .reporting import dumps_canonical
from .transform import aluthge, iterate_aluthge, polar

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
    p_vf.add_argument("--checks", nargs="+", default=None, choices=sorted(CHECKS))
    p_vf.add_argument("--format", choices=["json", "csv"], default="json")
    p_vf.add_argument("--no-timestamp", action="store_true", help="omit the timestamp (CI determinism)")
    p_vf.add_argument("--output-dir", default="reports")
    return parser


def _load_square(path: str) -> np.ndarray:
    m = load_matrix(path)
    if m.shape[0] != m.shape[1]:
        raise _NonSquare(path, m.shape)
    return m


class _NonSquare(Exception):
    def __init__(self, path, shape):
        super().__init__(f"{path}: matrix of shape {shape} is not square")


def cmd_transform(args) -> int:
    try:
        m = _load_square(args.input)
    except MatrixFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _NonSquare as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SHAPE
    if not 0.0 <= args.lam <= 1.0:
        print("error: --lambda must lie in [0, 1]", file=sys.stderr)
        return EXIT_USAGE
    if not args.factors:
        save_matrix(args.output, aluthge(m, args.lam))
        return EXIT_OK
    # One SVD, polar's, serves the transform and both factor files.
    pd = polar(m)
    save_matrix(args.output, aluthge(pd, args.lam))
    stem, ext = os.path.splitext(args.output)
    save_matrix(f"{stem}.isometry{ext or '.json'}", pd.isometry_part)
    save_matrix(f"{stem}.modulus{ext or '.json'}", pd.modulus)
    return EXIT_OK


def cmd_iterate(args) -> int:
    try:
        m = _load_square(args.input)
    except MatrixFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _NonSquare as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SHAPE
    if not 0.0 < args.lam < 1.0 or args.max_iter < 1 or not 0.0 < args.conv_tol < math.inf:
        print("error: require 0 < lambda < 1, max-iter >= 1, finite conv-tol > 0", file=sys.stderr)
        return EXIT_USAGE
    trace = iterate_aluthge(m, args.lam, max_iter=args.max_iter, conv_tol=args.conv_tol)
    sigma0 = spectrum(trace.iterates[0])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["step", "delta_frobenius", "distance_to_normal", "spectral_drift"])
    for step, delta in enumerate(trace.step_deltas, start=1):
        it = trace.iterates[step]
        dist_normal = frobenius(it @ it.conj().T - it.conj().T @ it)
        drift = spectra_pairing_distance(sigma0, spectrum(it))
        writer.writerow([step, repr(float(delta)), repr(dist_normal), repr(drift)])
    buf.write(f"# converged={'true' if trace.converged else 'false'}\n")
    atomic_write_text(args.output, buf.getvalue())
    return EXIT_OK


def _verify_config(args) -> dict:
    cfg = {
        "lambda": DEFAULT_LAMBDA,
        "dims": DEFAULT_DIMS,
        "trials": DEFAULT_TRIALS,
        "seed": DEFAULT_SEED,
        "tolerances": DEFAULT_TOL.to_dict(),
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
    if args.lam is not None:
        cfg["lambda"] = args.lam
    if args.dims is not None:
        cfg["dims"] = args.dims
    if args.trials is not None:
        cfg["trials"] = args.trials
    if args.seed is not None:
        cfg["seed"] = args.seed
    if os.environ.get("ALUTHGE_SEED"):
        cfg["seed"] = int(os.environ["ALUTHGE_SEED"])
    if args.tol_eq is not None:
        cfg["tolerances"]["eq_abs"] = args.tol_eq
    if args.tol_rank is not None:
        cfg["tolerances"]["rank_rel"] = args.tol_rank
    if args.checks:
        cfg["checks"] = list(args.checks)

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
    if not isinstance(checks, list) or not all(isinstance(c, str) for c in checks):
        raise ValueError(f"checks must be a list of check ids, got {checks!r}")
    bad = set(checks) - set(CHECKS)
    if bad:
        raise ValueError(f"unknown checks: {sorted(bad)}")
    excluded = [f"{c} {CHECKS[c].domain}" for c in checks if not lambda_admitted(lam, CHECKS[c].domain)]
    if excluded:
        raise ValueError(f"lambda {lam!r} lies outside the domain of: {', '.join(excluded)}")
    Tolerances(**cfg["tolerances"])  # validates ranges
    return cfg


def cmd_verify(args) -> int:
    try:
        cfg = _verify_config(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: bad config: {exc}", file=sys.stderr)
        return EXIT_USAGE

    tol = Tolerances(**cfg["tolerances"])
    os.makedirs(args.output_dir, exist_ok=True)
    reports = []
    total_failures = 0
    for check_id in cfg["checks"]:
        for dim in cfg["dims"]:
            spec = GeneratorSpec(dim=dim, seed=cfg["seed"])
            report = run_check(CHECKS[check_id], spec, cfg["lambda"], cfg["trials"], tol)
            reports.append(report)
            total_failures += report.failures
            verdict = "PASS" if report.failures == 0 else "FAIL"
            print(
                f"{verdict} {check_id} dim={dim} trials={report.trials} "
                f"failures={report.failures} vacuous={report.vacuous} worst={report.worst_residual:.3e}"
            )
            atomic_write_text(
                os.path.join(args.output_dir, f"{check_id}_dim{dim}.json"), report.to_json() + "\n"
            )

    aggregate = {
        "config": cfg,
        "failures": total_failures,
        "reports": [r.to_dict() for r in reports],
    }
    if not args.no_timestamp:
        aggregate["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    atomic_write_text(os.path.join(args.output_dir, "aggregate.json"), dumps_canonical(aggregate) + "\n")
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["check_id", "dim", "lambda", "trials", "failures", "vacuous", "worst_residual"])
        for r in reports:
            writer.writerow([r.check_id, r.dim, r.lam, r.trials, r.failures, r.vacuous, repr(r.worst_residual)])
        atomic_write_text(os.path.join(args.output_dir, "aggregate.csv"), buf.getvalue())
    return EXIT_OK if total_failures == 0 else EXIT_CHECK_FAILURES


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors, matching the exit contract.
        return int(exc.code or 0)
    if args.command == "transform":
        return cmd_transform(args)
    if args.command == "iterate":
        return cmd_iterate(args)
    return cmd_verify(args)


if __name__ == "__main__":
    sys.exit(main())
