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
import os
import sys

import numpy as np

from . import lemmas, maps
from .generators import GeneratorSpec, trial_rng, unit_vector, check_key
from .linalg import DEFAULT_TOL, Tolerances, frobenius, spectra_pairing_distance, spectrum
from .matrixio import MatrixFileError, atomic_write_text, load_matrix, save_matrix
from .reporting import CheckReport, dumps_canonical, vector_payload
from .transform import aluthge, iterate_aluthge, polar

EXIT_OK = 0
EXIT_CHECK_FAILURES = 1
EXIT_USAGE = 2
EXIT_SHAPE = 3

DEFAULT_DIMS = [2, 3, 4, 5, 6]
DEFAULT_TRIALS = 1000
DEFAULT_SEED = 7
DEFAULT_LAMBDA = 0.5


def _run_adjoint_counterexample(spec: GeneratorSpec, lam: float, trials: int, tol: Tolerances) -> CheckReport:
    """Random (x, x') witnesses: the decomposition-path gap between
    Delta(A*) and Delta(A)* must be positive and match the closed form."""
    key = check_key("adjoint_counterexample")
    tracker = lemmas._Tracker()
    for t in range(trials):
        rng = trial_rng(spec.seed, key, spec.dim, t)
        while True:
            x = unit_vector(rng, spec.dim)
            xp = unit_vector(rng, spec.dim)
            c = abs(np.vdot(xp, x))
            if 0.05 <= c <= 0.95:
                break
        result = maps.adjoint_counterexample(lam, x, xp, tol)
        mismatch = abs(result.residual - result.closed_form_residual)
        failed = mismatch > 1e-10 or result.residual <= 0.0
        got = tracker.observe(
            mismatch, {"trial": t, "x": vector_payload(x), "xprime": vector_payload(xp)}, failed
        )
        tracker.finish_trial(got)
    return lemmas._report("adjoint_counterexample", spec, lam, trials, tol, tracker)


def _map_runner(kind: str, star: bool, expect: str, scale: complex = 1.0):
    def run(spec, lam, trials, tol):
        phi = maps.CandidateMap(kind=kind, scale=scale)
        check = maps.check_star_jordan_condition if star else maps.check_jordan_condition
        return check(phi, lam, spec, trials, tol, expect=expect)

    return run


CHECK_REGISTRY = dict(lemmas.LEMMA_CHECKS)
CHECK_REGISTRY.update(
    {
        "jordan_condition_unitary": _map_runner("unitary_conj", star=False, expect="pass"),
        "jordan_condition_adjoint": _map_runner("adjoint_conj", star=False, expect="fail"),
        "jordan_condition_scaled": _map_runner("scaled_unitary_conj", star=False, expect="fail", scale=2.0),
        "star_jordan_condition_unitary": _map_runner("unitary_conj", star=True, expect="pass"),
        "star_jordan_condition_adjoint": _map_runner("adjoint_conj", star=True, expect="fail"),
        "structural_properties": lambda spec, lam, trials, tol: maps.check_structural_properties(
            maps.CandidateMap(kind="unitary_conj"), lam, spec, trials, tol
        ),
        "vector_state_identity": lambda spec, lam, trials, tol: maps.check_vector_state_identity(
            maps.CandidateMap(kind="unitary_conj"), spec, trials, tol
        ),
        "adjoint_counterexample": _run_adjoint_counterexample,
    }
)


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
    p_vf.add_argument("--checks", nargs="+", default=None, choices=sorted(CHECK_REGISTRY))
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
    if not 0.0 < args.lam < 1.0 or args.max_iter < 1 or args.conv_tol <= 0:
        print("error: require 0 < lambda < 1, max-iter >= 1, conv-tol > 0", file=sys.stderr)
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
        "checks": sorted(CHECK_REGISTRY),
    }
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError("config must be a JSON object")
        unknown = set(loaded) - set(cfg)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        tol = {**cfg["tolerances"], **loaded.pop("tolerances", {})}
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

    if not 0.0 <= cfg["lambda"] <= 1.0:
        raise ValueError("lambda must lie in [0, 1]")
    if cfg["trials"] < 1:
        raise ValueError("trials must be >= 1")
    if not cfg["dims"] or any(d < 2 for d in cfg["dims"]):
        raise ValueError("dims must all be >= 2")
    bad = set(cfg["checks"]) - set(CHECK_REGISTRY)
    if bad:
        raise ValueError(f"unknown checks: {sorted(bad)}")
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
        runner = CHECK_REGISTRY[check_id]
        for dim in cfg["dims"]:
            spec = GeneratorSpec(dim=dim, seed=cfg["seed"])
            report = runner(spec, cfg["lambda"], cfg["trials"], tol)
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
