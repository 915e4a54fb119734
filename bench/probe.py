"""Traced and kernel measurements, run by ``run.py`` in a child process.

    python3 bench/probe.py trace SPEC.json   # layer profile of one workload pass, plus kernel rows
    python3 bench/probe.py svd SPEC.json     # the n = 512 SVD kernel alone (run with one BLAS thread)

SPEC.json names the argv lists of one pass run untraced (after a warm-up
pass) and of one run under cProfile, each writing to its own directory; the
seed for kernel inputs; a scratch directory; and the file the results are
written to. ``aluthge`` must be importable (``run.py`` puts the checkout's
``src`` on PYTHONPATH).
"""

from __future__ import annotations

import contextlib
import cProfile
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

LAYER_MODULES = ("cli", "lemmas", "maps", "transform", "linalg", "generators", "reporting", "matrixio")
LAYERS = LAYER_MODULES + ("lapack", "scipy")
# Boundary functions as (layer, function name); each reports .calls and .cum_s.
# Only functions the planned simplifications keep are listed, so no row vanishes.
BOUNDARIES = (
    ("linalg", "validate_matrix"),
    ("linalg", "spectrum"),
    ("generators", "trial_rng"),
    ("generators", "haar_unitary"),
    ("transform", "aluthge"),
    ("transform", "polar"),
    ("transform", "iterate_aluthge"),
    ("matrixio", "load_matrix"),
    ("matrixio", "save_matrix"),
    ("matrixio", "atomic_write_text"),
    ("lapack", "svd"),
    ("lapack", "eigvals"),
    ("scipy", "linear_sum_assignment"),
)
# Nominal real-flop count of a full complex SVD of an n x n matrix: 21 n^3
# (Golub & Van Loan, U, S and V by Golub-Reinsch) times 4 for complex arithmetic.
SVD_FLOPS_PER_N3 = 84.0
SVD_N = 512


def named_layer(key, pkg_dir: str) -> str | None:
    """The layer a profiled function belongs to by its own source, or None."""
    filename, _, name = key
    if filename.startswith(pkg_dir):
        module = Path(filename).stem
        return module if module in LAYER_MODULES else None
    if "/numpy/linalg/" in filename or (filename == "~" and "numpy.linalg" in name):
        return "lapack"
    if "/scipy/" in filename or (filename == "~" and "scipy." in name):
        return "scipy"
    return None


def layer_profile(stats: dict, pkg_dir: str) -> dict:
    """Group cProfile stats into layers.

    A layer's self time is the time in its own functions plus the time in
    unnamed library code (numpy core, builtins) it calls, split along caller
    edges by their measured time; calls into another named layer are that
    layer's time. ``calls`` counts calls that enter the layer from code owned
    by another layer.
    """
    layer = {key: named_layer(key, pkg_dir) for key in stats}
    shares: dict = {}

    def owner(key, active: frozenset) -> dict:
        if key in shares:
            return shares[key]
        if layer[key] is not None:
            return {layer[key]: 1.0}
        callers = stats[key][4]
        if not callers or key in active:
            return {"other": 1.0}
        weights = {c: e[2] for c, e in callers.items() if c in stats}
        total = sum(weights.values())
        if total <= 0.0:
            weights = {c: float(callers[c][0]) for c in weights}
            total = sum(weights.values()) or 1.0
        out: dict = {}
        for c, w in weights.items():
            for name, share in owner(c, active | {key}).items():
                out[name] = out.get(name, 0.0) + share * w / total
        shares[key] = out
        return out

    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    for key, (_, nc, tt, _, callers) in stats.items():
        for name, share in owner(key, frozenset()).items():
            if name in self_s:
                self_s[name] += tt * share
        own = layer[key]
        if own is not None:
            inside = {c for c in callers if c in stats and owner(c, frozenset()).get(own, 0.0) >= 0.5}
            calls[own] += sum(e[0] for c, e in callers.items() if c not in inside) if callers else nc
    metrics = {}
    for name in LAYERS:
        metrics[f"{name}.self_s"] = self_s[name]
        metrics[f"{name}.calls"] = calls[name]
    for lay, func in BOUNDARIES:
        hits = [v for k, v in stats.items() if layer[k] == lay and (k[2] == func or k[2].endswith(f".{func}>"))]
        metrics[f"{lay}.{func}.calls"] = sum(v[1] for v in hits)
        metrics[f"{lay}.{func}.cum_s"] = sum(v[3] for v in hits)
    return metrics


def run_pass(main, argvs: list) -> dict:
    """Call the CLI entry point in-process for each argv; capture stdout and exit codes.

    An exception escaping the CLI is printed and recorded as exit code -1, so
    the oracles count the invocation as failed and the run still reports.
    """
    out = io.StringIO()
    rcs = []
    with contextlib.redirect_stdout(out):
        for argv in argvs:
            try:
                rcs.append(main(argv))
            except Exception:
                traceback.print_exc()
                rcs.append(-1)
    return {"rcs": rcs, "stdout": out.getvalue().splitlines()}


def per_call(fn, reps: int, rounds: int) -> float:
    """Median over ``rounds`` of the mean time of ``reps`` calls, in seconds."""
    times = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        times.append((time.perf_counter() - t0) / reps)
    return statistics.median(times)


def ginibre(rng, n: int, rank: int | None = None) -> np.ndarray:
    """Complex Ginibre matrix; with ``rank < n`` a product of n x rank and rank x n factors."""
    r = n if rank is None else rank
    g = (rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))) / np.sqrt(2.0)
    if r == n:
        return g
    h = (rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n))) / np.sqrt(2.0)
    return g @ h / np.sqrt(r)


def svd_kernel(seed: int) -> float:
    a = ginibre(np.random.default_rng(seed), SVD_N)
    np.linalg.svd(a)
    return per_call(lambda: np.linalg.svd(a), reps=1, rounds=3)


def kernel_rows(seed: int, scratch: Path) -> dict:
    from aluthge.generators import trial_rng
    from aluthge.linalg import validate_matrix
    from aluthge.matrixio import load_matrix, save_matrix
    from aluthge.transform import aluthge

    rng = np.random.default_rng(seed)
    a4, a128, a512 = ginibre(rng, 4), ginibre(rng, 128), ginibre(rng, SVD_N)
    path = scratch / "kernel_n512.json"
    save_matrix(path, a512)
    rows = {
        "kernel.validate_matrix_n4_us": 1e6 * per_call(lambda: validate_matrix(a4), reps=2000, rounds=5),
        "kernel.trial_rng_us": 1e6 * per_call(lambda: trial_rng(seed, 1, 4, 0), reps=2000, rounds=5),
        "kernel.aluthge_n4_us": 1e6 * per_call(lambda: aluthge(a4, 0.5), reps=500, rounds=5),
        "kernel.aluthge_n512_ms": 1e3 * per_call(lambda: aluthge(a512, 0.5), reps=1, rounds=3),
        "kernel.svd_n512_ms": 1e3 * svd_kernel(seed),
        "kernel.eigvals_n128_ms": 1e3 * per_call(lambda: np.linalg.eigvals(a128), reps=5, rounds=5),
        "kernel.save_matrix_n512_ms": 1e3 * per_call(lambda: save_matrix(path, a512), reps=1, rounds=3),
        "kernel.load_matrix_n512_ms": 1e3 * per_call(lambda: load_matrix(path), reps=1, rounds=3),
        "kernel.matrix_n512_bytes": path.stat().st_size,
    }
    rows["kernel.svd_n512_gflops"] = SVD_FLOPS_PER_N3 * SVD_N**3 / (rows["kernel.svd_n512_ms"] * 1e6)
    return rows


def trace(spec: dict) -> dict:
    import aluthge
    from aluthge.cli import main

    pkg_dir = str(Path(aluthge.__file__).parent) + os.sep
    # A first pass pays one-off costs (lazy imports, BLAS thread start, heap
    # growth) that would otherwise be charged to the untraced side.
    run_pass(main, spec["untraced"])
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    untraced = run_pass(main, spec["untraced"])
    untraced_s = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    prof = cProfile.Profile()
    t0 = time.perf_counter()
    prof.enable()
    traced = run_pass(main, spec["traced"])
    prof.disable()
    traced_s = time.perf_counter() - t0
    prof.create_stats()
    metrics = layer_profile(prof.stats, pkg_dir)
    metrics["proc.cpu_s"] = (ru1.ru_utime + ru1.ru_stime) - (ru0.ru_utime + ru0.ru_stime)
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    metrics.update(kernel_rows(spec["seed"], Path(spec["scratch"])))
    return {
        "package": pkg_dir,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "untraced": untraced,
        "traced": traced,
        "metrics": metrics,
    }


def main() -> int:
    mode, spec_path = sys.argv[1], sys.argv[2]
    spec = json.loads(Path(spec_path).read_text())
    if mode == "trace":
        result = trace(spec)
    elif mode == "svd":
        result = {"svd_s": svd_kernel(spec["seed"]), "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
