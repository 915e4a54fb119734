"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every expected value is either computed by an independent brute-force oracle
inside the test or asserted directly from the defining algebraic identity.
"""

import time

import numpy as np
import pytest

from aluthge.cli import main as cli_main
from aluthge.generators import (
    _complex_gaussians,
    _nilpotents_sq_zero,
    _normal,
    _phase_fixed_q,
    ginibre,
)
from aluthge.lemmas import run_check
from aluthge.linalg import (
    _inners,
    _jordan,
    spectra_pairing_distance,
    spectrum,
)
from aluthge.maps import CHECKS, adjoint_conj
from aluthge.transform import aluthge, iterate_aluthge
from predicates import is_normal, rank_one


def announce(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def cgauss(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def test_criterion_1_rank_one_closed_form(capsys):
    rng = np.random.default_rng(2026)
    start = time.perf_counter()
    worst = 0.0
    for dim in range(2, 9):
        for _ in range(1000):
            x = cgauss(rng, dim)
            y = cgauss(rng, dim)
            expected = (_inners(x[None], y[None])[0] / np.linalg.norm(y) ** 2) * rank_one(y, y)
            bound = 1e-9 * (1.0 + np.linalg.norm(x) * np.linalg.norm(y))
            for lam in (0.25, 0.5, 0.75):
                resid = np.linalg.norm(aluthge(rank_one(x, y), lam) - expected)
                worst = max(worst, resid / bound)
    elapsed = time.perf_counter() - start
    ok = worst <= 1.0 and elapsed < 10.0
    announce(capsys, "criterion 1 rank-one closed form", ok,
             f"worst residual ratio {worst:.3e}, {elapsed:.2f}s")


def test_criterion_2_kernel_equivalence(capsys):
    rng = np.random.default_rng(2)
    worst_zero = 0.0
    worst_nonzero_ok = True
    for t in range(1000):
        dim = 2 + t % 5
        nil = _nilpotents_sq_zero((rng,), dim)[0]
        worst_zero = max(worst_zero, np.linalg.norm(aluthge(nil, 0.5)) / (1.0 + np.linalg.norm(nil)))
        while True:
            g = ginibre(rng, dim)
            if np.linalg.norm(g @ g) > 1e-3:
                break
        worst_nonzero_ok &= np.linalg.norm(aluthge(g, 0.5)) > 1e-5
    ok = worst_zero <= 1e-9 and worst_nonzero_ok
    announce(capsys, "criterion 2 kernel equivalence", ok,
             f"worst square-zero image {worst_zero:.3e}, nonzero direction {'ok' if worst_nonzero_ok else 'violated'}")


def test_criterion_3_spectrum_invariance(capsys):
    rng = np.random.default_rng(3)
    worst = 0.0
    for lam in (0.25, 0.5, 0.75, 0.0, 1.0):
        for _ in range(1000):
            t = cgauss(rng, 6, 6)
            d = spectra_pairing_distance(spectrum(t), spectrum(aluthge(t, lam)))
            worst = max(worst, d / (1e-7 * (1.0 + np.linalg.norm(t))))
    announce(capsys, "criterion 3 spectrum invariance", worst <= 1.0,
             f"worst pairing-distance ratio {worst:.3e}")


def test_criterion_4_fixed_points(capsys):
    rng = np.random.default_rng(4)
    worst_normal = 0.0
    for _ in range(500):
        t = _normal(_phase_fixed_q(ginibre(rng, 4)), _complex_gaussians((rng,), 4)[0])
        worst_normal = max(worst_normal, np.linalg.norm(aluthge(t, 0.5) - t) / (1e-8 * (1.0 + np.linalg.norm(t))))
    min_nonnormal = np.inf
    for _ in range(500):
        for _ in range(64):
            t = ginibre(rng, 4)
            if is_normal(t):
                continue
            resid = np.linalg.norm(aluthge(t, 0.5) - t)
            if resid <= 1e-4:  # dead band: redraw rather than judge
                continue
            min_nonnormal = min(min_nonnormal, resid)
            break
        else:
            min_nonnormal = 0.0
    ok = worst_normal <= 1.0 and min_nonnormal > 1e-4
    announce(capsys, "criterion 4 fixed points", ok,
             f"worst normal ratio {worst_normal:.3e}, min non-normal residual {min_nonnormal:.3e}")


def test_criterion_5_jordan_conditions_unitary(capsys):
    failures = 0
    for dim in (3, 4, 5, 6):
        failures += run_check(CHECKS["jordan_condition_unitary"], dim, 5, 0.5, 1000)["failures"]
        failures += run_check(CHECKS["star_jordan_condition_unitary"], dim, 5, 0.5, 1000)["failures"]
    announce(capsys, "criterion 5 Jordan/star-Jordan conditions", failures == 0,
             f"{failures} failures over 1000 trials x dims 3-6 x both conditions")


def test_criterion_6_competitor_falsification(capsys):
    x = np.array([1.0, 0.0])
    xp = np.array([1.0, 1.0]) / np.sqrt(2)
    # brute-force oracle for the expected gap
    oracle = abs(np.vdot(xp, x)) * np.linalg.norm(rank_one(xp, xp) - rank_one(x, x), 2)
    a = rank_one(x, xp)
    worst_gap = max(
        abs(np.linalg.norm(aluthge(a.conj().T, lam) - aluthge(a, lam).conj().T, 2) - oracle)
        for lam in (0.1, 0.25, 0.5, 0.75, 0.9)
    )
    # the adjoint map must break the Jordan condition on this witness for every sampled U
    rng = np.random.default_rng(6)
    min_break = np.inf
    for _ in range(50):
        u = _phase_fixed_q(ginibre(rng, 2))
        lhs = aluthge(_jordan(adjoint_conj(u, a), adjoint_conj(u, np.eye(2, dtype=complex))), 0.5)
        rhs = adjoint_conj(u, aluthge(_jordan(a, np.eye(2)), 0.5))
        min_break = min(min_break, np.linalg.norm(lhs - rhs))
    ok = abs(oracle - 0.5) <= 1e-14 and worst_gap <= 1e-10 and min_break > 1e-4
    announce(capsys, "criterion 6 competitor falsification", ok,
             f"residual gap {worst_gap:.3e} vs oracle {oracle:.12f}, min break {min_break:.3e}")


def test_criterion_7_structural_suite(capsys):
    failures = 0
    for dim in (3, 4, 5, 6):
        report = run_check(CHECKS["structural_properties"], dim, 7, 0.5, 500)
        failures += report["failures"]
    announce(capsys, "criterion 7 structural suite", failures == 0,
             f"{failures} failures over 500 projection configurations x dims 3-6")


def test_criterion_8_iteration_sanity(capsys):
    rng = np.random.default_rng(8)
    converged = 0
    worst_limit = 0.0
    worst_drift = 0.0
    for _ in range(500):
        t = cgauss(rng, 2, 2)
        sigma0 = spectrum(t)
        for limit, _, done in iterate_aluthge(t, 0.5, max_iter=500, conv_tol=1e-8):
            worst_drift = max(worst_drift, spectra_pairing_distance(sigma0, spectrum(limit)))
        if done:
            converged += 1
            worst_limit = max(worst_limit, np.linalg.norm(limit @ limit.conj().T - limit.conj().T @ limit))
    rate = converged / 500.0
    ok = rate >= 0.95 and worst_limit <= 1e-6 and worst_drift <= 1e-6
    announce(capsys, "criterion 8 iteration sanity", ok,
             f"convergence rate {rate:.3f}, worst limit non-normality {worst_limit:.3e}, "
             f"worst drift {worst_drift:.3e}")


def test_criterion_9_determinism(capsys, tmp_path):
    argv = [
        "verify", "--checks", "rank_one_formula", "spectrum_invariance",
        "jordan_condition_unitary", "--dims", "2", "4", "--trials", "40",
        "--seed", "9", "--no-timestamp",
    ]
    codes = []
    blobs = []
    for name in ("run1", "run2"):
        outdir = tmp_path / name
        codes.append(cli_main(argv + ["--output-dir", str(outdir)]))
        blobs.append((outdir / "aggregate.json").read_bytes())
    capsys.readouterr()  # drop the per-check PASS lines from the two runs
    ok = codes == [0, 0] and blobs[0] == blobs[1]
    announce(capsys, "criterion 9 determinism", ok,
             f"exit codes {codes}, aggregates {'identical' if blobs[0] == blobs[1] else 'differ'}")
