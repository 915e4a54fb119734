"""Output oracles for the benchmark workloads.

Each oracle reads what one CLI invocation or pass wrote and says which of its
operations failed, so the caller can count them in ``failed``. The oracles use
only numpy and the CLI's documented file formats, never the aluthge package,
so a defect in the program cannot hide itself.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np

VERIFY_CHECKS = (
    "adjoint_counterexample",
    "jordan_condition_adjoint",
    "jordan_condition_scaled",
    "jordan_condition_unitary",
    "nilpotent_kernel",
    "projection_absorb",
    "rank_one_formula",
    "scalar_projection",
    "selfadjoint_lemmas",
    "spectrum_invariance",
    "square_identity",
    "star_jordan_condition_adjoint",
    "star_jordan_condition_unitary",
    "structural_properties",
    "vector_state_identity",
)
VERIFY_DIMS = (2, 3, 4, 5, 6)
VERIFY_LINE = re.compile(r"^(PASS|FAIL) (\S+) dim=(\d+) trials=(\d+) failures=(\d+) vacuous=(\d+) worst=\S+$")

# Relative Frobenius tolerance of the transform identities, recomputed through
# eigh of the written modulus. Measured residuals at n = 512 are below 1e-13.
TRANSFORM_RTOL = 1e-9
# Eigenvalues of |T| below this share of the largest are treated as zero, the
# same role the program's rank cutoff plays; Ginibre inputs stay far above it.
TRANSFORM_RANK_CUT = 1e-10

ITERATE_HEADER = "step,delta_frobenius,distance_to_normal,spectral_drift"
# Largest allowed spectral_drift as a share of the input's spectral radius.
# Measured drift at n = 128 is about 3e-14 of the radius.
ITERATE_DRIFT_RTOL = 1e-9


def verify_pass(outdir: Path, lines: list[str], rc: int, trials: int) -> dict:
    """Check one ``aluthge verify`` pass; an operation is one check-trial.

    Any defect in the pass as a whole (exit code, stdout lines, aggregate)
    fails every operation of the pass; a missing or unreadable report fails
    that report's trials; otherwise a report's own failures count.
    """
    attempted = len(VERIFY_CHECKS) * len(VERIFY_DIMS) * trials
    failed = 0
    vacuous = 0
    whole_pass_ok = rc == 0
    expected = [(c, d) for c in VERIFY_CHECKS for d in VERIFY_DIMS]
    seen = []
    for line in lines:
        m = VERIFY_LINE.match(line)
        if m is None or m.group(1) != "PASS" or int(m.group(4)) != trials:
            whole_pass_ok = False
            continue
        seen.append((m.group(2), int(m.group(3))))
    whole_pass_ok = whole_pass_ok and seen == expected
    for check, dim in expected:
        try:
            report = json.loads((outdir / f"{check}_dim{dim}.json").read_text())
            ok = report["dim"] == dim and report["trials"] == trials
            failures = int(report["failures"])
            vacuous += int(report["vacuous"])
        except (OSError, ValueError, KeyError, TypeError):
            ok, failures = False, trials
        failed += failures if ok else trials
    sha = None
    try:
        raw = (outdir / "aggregate.json").read_bytes()
        aggregate = json.loads(raw)
        sha = hashlib.sha256(raw).hexdigest()
        whole_pass_ok = whole_pass_ok and aggregate["failures"] == 0 and len(aggregate["reports"]) == len(expected)
    except (OSError, ValueError, KeyError, TypeError):
        whole_pass_ok = False
    if not whole_pass_ok:
        failed = attempted
    return {"attempted": attempted, "failed": min(failed, attempted), "sha256": sha, "vacuous": vacuous}


def read_matrix(path: Path) -> np.ndarray:
    """Parse the CLI's matrix file format: {"rows", "cols", "data": [[[re, im], ...], ...]}."""
    obj = json.loads(Path(path).read_text())
    a = np.asarray(obj["data"], dtype=np.float64)
    if a.shape != (obj["rows"], obj["cols"], 2):
        raise ValueError(f"{path}: data shape {a.shape} does not match rows/cols")
    return a[..., 0] + 1j * a[..., 1]


def write_matrix(path: Path, m: np.ndarray) -> None:
    """Write ``m`` in the CLI's matrix file format (shortest round-trip floats)."""
    data = np.stack([m.real, m.imag], axis=-1).tolist()
    Path(path).write_text(json.dumps({"rows": m.shape[0], "cols": m.shape[1], "data": data}) + "\n")


def factor_paths(out: Path) -> tuple[Path, Path]:
    return out.with_suffix(".isometry.json"), out.with_suffix(".modulus.json")


def transform_residuals(t: np.ndarray, delta: np.ndarray, v: np.ndarray, mod: np.ndarray, lam: float) -> dict:
    """Relative residuals of the polar factors and of Delta = |T|^lam V |T|^(1-lam)."""
    nt = np.linalg.norm(t)
    herm = (mod + mod.conj().T) / 2.0
    w, q = np.linalg.eigh(herm)
    wmax = max(float(w[-1]), 0.0)
    wc = np.where(w > TRANSFORM_RANK_CUT * wmax, w, 0.0)

    def power(g):
        return (q * wc**g) @ q.conj().T

    return {
        "polar": np.linalg.norm(v @ mod - t) / nt,
        "hermitian": np.linalg.norm(mod - mod.conj().T) / max(np.linalg.norm(mod), 1e-300),
        "psd": max(-float(w[0]), 0.0) / max(wmax, 1e-300),
        "modulus_square": np.linalg.norm(herm @ herm - t.conj().T @ t) / nt**2,
        "partial_isometry": np.linalg.norm(v @ v.conj().T @ v - v) / max(np.linalg.norm(v), 1.0),
        "delta": np.linalg.norm(delta - power(lam) @ v @ power(1.0 - lam)) / nt,
    }


def transform_output(t: np.ndarray, out: Path, lam: float, rc: int) -> tuple[bool, dict]:
    """Check one ``aluthge transform --factors`` invocation on input ``t``."""
    if rc != 0:
        return False, {"rc": rc}
    iso, mod = factor_paths(out)
    try:
        delta, v, m = read_matrix(out), read_matrix(iso), read_matrix(mod)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return False, {"error": str(exc)}
    if not all(x.shape == t.shape and np.all(np.isfinite(x)) for x in (delta, v, m)):
        return False, {"error": "shape or non-finite entries"}
    res = transform_residuals(t, delta, v, m, lam)
    return all(r <= TRANSFORM_RTOL for r in res.values()), res


def iterate_output(text: str, steps: int, radius: float, rc: int) -> tuple[bool, str]:
    """Check one ``aluthge iterate`` CSV: header, ``steps`` finite rows in order,
    the non-converged footer, and spectrum invariance along the chain."""
    if rc != 0:
        return False, f"exit code {rc}"
    lines = text.split("\n")
    if lines[0] != ITERATE_HEADER:
        return False, "bad header"
    if lines[1 + steps :] != ["# converged=false", ""]:
        return False, "bad row count or footer"
    drift = 0.0
    for i, line in enumerate(lines[1 : 1 + steps], start=1):
        fields = line.split(",")
        try:
            values = [float(f) for f in fields[1:]]
        except ValueError:
            return False, f"row {i}: not a number"
        if len(fields) != 4 or fields[0] != str(i) or not all(map(math.isfinite, values)) or min(values) < 0:
            return False, f"row {i}: malformed"
        drift = max(drift, values[2])
    if drift > ITERATE_DRIFT_RTOL * radius:
        return False, f"spectral drift {drift:.3e} exceeds {ITERATE_DRIFT_RTOL:g} x radius {radius:.3e}"
    return True, f"max spectral drift {drift:.3e}"
