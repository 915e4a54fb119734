"""Randomized, seeded checks for the rank-one / projection / self-adjointness
/ kernel / spectrum facts about the lambda-Aluthge transform.

Conventions shared by every check:

* trial t draws from the stream (seed, crc32(check_id), dim, t), so reports
  are reproducible and order-independent;
* "iff" statements are exercised in BOTH directions: a constructive
  satisfying instance must land within the equality slack, and a generic
  refuting instance must land above 10x the slack. Residuals falling in the
  dead band between the two are discarded and redrawn (tallied as vacuous);
* failures are counted per trial; the worst trial's inputs are kept as a
  witness, with failing trials taking precedence.
"""

from __future__ import annotations

import numpy as np

from .generators import (
    GeneratorSpec,
    check_key,
    complex_gaussian,
    ginibre,
    haar_unitary,
    invertible_ginibre,
    nilpotent_sq_zero,
    trial_rng,
    unit_vector,
)
from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    frobenius,
    jordan_product,
    rank_one,
    spectra_pairing_distance,
    spectrum,
)
from .matrixio import matrix_to_obj
from .reporting import CheckReport, vector_payload
from .transform import aluthge, aluthge_rank_one

__all__ = [
    "check_rank_one_formula",
    "check_projection_absorb",
    "check_scalar_projection",
    "check_square_identity",
    "check_selfadjoint_lemmas",
    "check_nilpotent_kernel",
    "check_spectrum_invariance",
    "LEMMA_CHECKS",
]

# Generic refuting residuals must clear this multiple of the pass slack;
# the band in between is redrawn.
REFUTE_FACTOR = 10.0
MAX_REDRAWS = 64


class _Tracker:
    """Per-check accumulator: failures (per trial), vacuous redraws, worst
    residual and its witness. Failing witnesses take precedence."""

    def __init__(self) -> None:
        self.failures = 0
        self.vacuous = 0
        self.worst = 0.0
        self.witness: dict | None = None
        self._witness_failed = False

    def observe(self, residual: float, witness: dict, failed: bool = False) -> bool:
        take = (failed and not self._witness_failed) or (
            residual > self.worst and failed == self._witness_failed
        ) or self.witness is None
        if take:
            self.witness = witness
            self._witness_failed = self._witness_failed or failed
        self.worst = max(self.worst, residual)
        return failed

    def finish_trial(self, failed: bool) -> None:
        if failed:
            self.failures += 1


def _require_lambda_open(lam: float) -> None:
    if not 0.0 < lam < 1.0:
        raise ValueError(f"lambda must lie in (0, 1), got {lam!r}")


def _report(check_id, spec, lam, trials, tol, tracker: _Tracker) -> CheckReport:
    return CheckReport(
        check_id=check_id,
        seed=spec.seed,
        dim=spec.dim,
        lam=lam,
        trials=trials,
        failures=tracker.failures,
        vacuous=tracker.vacuous,
        worst_residual=tracker.worst,
        tolerances=tol,
        witness=tracker.witness,
    )


def check_rank_one_formula(
    spec: GeneratorSpec, lam: float, trials: int, tol: Tolerances = DEFAULT_TOL
) -> CheckReport:
    """Delta_lambda(x⊗y) equals (<x,y>/||y||^2)(y⊗y) on random vector pairs."""
    _require_lambda_open(lam)
    key = check_key("rank_one_formula")
    tracker = _Tracker()
    for t in range(trials):
        rng = trial_rng(spec.seed, key, spec.dim, t)
        x = complex_gaussian(rng, spec.dim)
        y = complex_gaussian(rng, spec.dim)
        residual = frobenius(aluthge(rank_one(x, y), lam, tol) - aluthge_rank_one(x, y, lam))
        slack = tol.eq_abs * (1.0 + np.linalg.norm(x) * np.linalg.norm(y))
        failed = tracker.observe(
            residual, {"trial": t, "x": vector_payload(x), "y": vector_payload(y)}, residual > slack
        )
        tracker.finish_trial(failed)
    return _report("rank_one_formula", spec, lam, trials, tol, tracker)


def check_projection_absorb(
    spec: GeneratorSpec, lam: float, trials: int, tol: Tolerances = DEFAULT_TOL
) -> CheckReport:
    """Delta_lambda(A∘P) = P iff PA = P, for rank-one projections P = x⊗x.

    Direction (a) corrects a random A so that A*x = x (hence PA = P) and
    demands agreement; direction (b) draws a generic A and demands both sides
    of the biconditional carry the same truth value under slack.
    """
    _require_lambda_open(lam)
    key = check_key("projection_absorb")
    tracker = _Tracker()
    for t in range(trials):
        rng = trial_rng(spec.seed, key, spec.dim, t)
        x = unit_vector(rng, spec.dim)
        p = np.outer(x, x.conj())
        failed = False

        # (a) constructive: A = (A0* + (x - A0* x)⊗x)* satisfies A* x = x.
        a0 = ginibre(rng, spec.dim)
        a = (a0.conj().T + np.outer(x - a0.conj().T @ x, x.conj())).conj().T
        residual = frobenius(aluthge(jordan_product(a, p), lam, tol) - p)
        slack = tol.eq_abs * (1.0 + frobenius(a))
        failed |= tracker.observe(
            residual,
            {"trial": t, "direction": "satisfying", "x": vector_payload(x), "A": matrix_to_obj(a)},
            residual > slack or frobenius(p @ a - p) > slack,
        )

        # (b) generic: both sides of the iff must agree.
        for _ in range(MAX_REDRAWS):
            b = ginibre(rng, spec.dim)
            slack_b = tol.eq_abs * (1.0 + frobenius(b))
            r_delta = frobenius(aluthge(jordan_product(b, p), lam, tol) - p)
            r_pa = frobenius(p @ b - p)
            if (slack_b < r_delta <= REFUTE_FACTOR * slack_b) or (slack_b < r_pa <= REFUTE_FACTOR * slack_b):
                tracker.vacuous += 1
                continue
            agree = (r_delta <= slack_b) == (r_pa <= slack_b)
            failed |= tracker.observe(
                min(r_delta, r_pa),
                {"trial": t, "direction": "generic", "x": vector_payload(x), "A": matrix_to_obj(b)},
                not agree,
            )
            break
        tracker.finish_trial(failed)
    return _report("projection_absorb", spec, lam, trials, tol, tracker)


def check_scalar_projection(
    spec: GeneratorSpec, lam: float, trials: int, tol: Tolerances = DEFAULT_TOL
) -> CheckReport:
    """Delta_lambda(A∘P) = A iff A = alpha P, for rank-one projections P."""
    _require_lambda_open(lam)
    key = check_key("scalar_projection")
    tracker = _Tracker()
    for t in range(trials):
        rng = trial_rng(spec.seed, key, spec.dim, t)
        x = unit_vector(rng, spec.dim)
        p = np.outer(x, x.conj())
        failed = False

        alpha = complex(complex_gaussian(rng, 1)[0])
        a = alpha * p
        residual = frobenius(aluthge(jordan_product(a, p), lam, tol) - a)
        slack = tol.eq_abs * (1.0 + abs(alpha))
        failed |= tracker.observe(
            residual,
            {"trial": t, "direction": "satisfying", "alpha": [alpha.real, alpha.imag], "x": vector_payload(x)},
            residual > slack,
        )

        for _ in range(MAX_REDRAWS):
            b = ginibre(rng, spec.dim)
            slack_b = tol.eq_abs * (1.0 + frobenius(b))
            r = frobenius(aluthge(jordan_product(b, p), lam, tol) - b)
            if slack_b < r <= REFUTE_FACTOR * slack_b:
                tracker.vacuous += 1
                continue
            failed |= tracker.observe(
                r, {"trial": t, "direction": "generic", "x": vector_payload(x), "A": matrix_to_obj(b)}, r <= slack_b
            )
            break
        tracker.finish_trial(failed)
    return _report("scalar_projection", spec, lam, trials, tol, tracker)


def check_square_identity(
    spec: GeneratorSpec, lam: float, trials: int, tol: Tolerances = DEFAULT_TOL
) -> CheckReport:
    """Delta_lambda(T^2) = T iff T = I, over well-conditioned invertible T.

    The identity passes (trial 0's satisfying part); generic invertible T must
    refute. If a sampled T ever satisfies the equation within slack, the
    injective-case implication T^2 = T* is asserted as well.
    """
    _require_lambda_open(lam)
    key = check_key("square_identity")
    tracker = _Tracker()
    eye = np.eye(spec.dim)
    for t in range(trials):
        rng = trial_rng(spec.seed, key, spec.dim, t)
        failed = False
        if t == 0:
            r_eye = frobenius(aluthge(eye, lam, tol) - eye)
            failed |= tracker.observe(r_eye, {"trial": t, "direction": "identity"}, r_eye > tol.eq_abs)
        for _ in range(MAX_REDRAWS):
            m = invertible_ginibre(rng, spec.dim)
            slack = tol.eq_abs * (1.0 + frobenius(m))
            r = frobenius(aluthge(m @ m, lam, tol) - m)
            if slack < r <= REFUTE_FACTOR * slack:
                tracker.vacuous += 1
                continue
            bad = False
            if r <= slack:
                # Only T = I may land here; then T^2 = T* must hold too.
                bad = frobenius(m @ m - m.conj().T) > slack or frobenius(m - eye) > slack
            failed |= tracker.observe(r, {"trial": t, "T": matrix_to_obj(m)}, bad)
            break
        tracker.finish_trial(failed)
    return _report("square_identity", spec, lam, trials, tol, tracker)


def check_selfadjoint_lemmas(
    spec: GeneratorSpec, lam: float, trials: int, tol: Tolerances = DEFAULT_TOL
) -> CheckReport:
    """Self-adjointness rigidity, both flavors.

    selfadjoint_injective:   Delta(S) = S*  forces S = S*  (S, S* injective);
    selfadjoint_quasinormal: Delta(S*) = S  forces S = S*  (S quasi-normal).
    Hermitian draws must satisfy both equalities; non-Hermitian invertible
    draws must refute the first, normal non-Hermitian draws the second.
    """
    _require_lambda_open(lam)
    key = check_key("selfadjoint_lemmas")
    tracker = _Tracker()
    for t in range(trials):
        rng = trial_rng(spec.seed, key, spec.dim, t)
        failed = False

        g = ginibre(rng, spec.dim)
        s = (g + g.conj().T) / 2.0
        r_fwd = frobenius(aluthge(s, lam, tol) - s.conj().T)
        slack = tol.eq_abs * (1.0 + frobenius(s))
        failed |= tracker.observe(
            r_fwd, {"trial": t, "part": "hermitian", "S": matrix_to_obj(s)}, r_fwd > slack
        )

        # Injective flavor: non-Hermitian invertible S refutes Delta(S) = S*.
        for _ in range(MAX_REDRAWS):
            m = invertible_ginibre(rng, spec.dim)
            slack_m = tol.eq_abs * (1.0 + frobenius(m))
            if frobenius(m - m.conj().T) <= REFUTE_FACTOR * slack_m:
                tracker.vacuous += 1
                continue
            r = frobenius(aluthge(m, lam, tol) - m.conj().T)
            if slack_m < r <= REFUTE_FACTOR * slack_m:
                tracker.vacuous += 1
                continue
            failed |= tracker.observe(
                r, {"trial": t, "part": "injective", "S": matrix_to_obj(m)}, r <= slack_m
            )
            break

        # Quasi-normal flavor: normal non-Hermitian S refutes Delta(S*) = S.
        u = haar_unitary(rng, spec.dim)
        d = complex_gaussian(rng, spec.dim)
        im = np.where(np.abs(d.imag) < 0.3, np.copysign(np.abs(d.imag) + 0.3, d.imag), d.imag)
        n = (u * (d.real + 1j * im)) @ u.conj().T
        slack_n = tol.eq_abs * (1.0 + frobenius(n))
        r_qn = frobenius(aluthge(n.conj().T, lam, tol) - n)
        failed |= tracker.observe(
            r_qn, {"trial": t, "part": "quasinormal", "S": matrix_to_obj(n)}, r_qn <= REFUTE_FACTOR * slack_n
        )
        tracker.finish_trial(failed)
    return _report("selfadjoint_lemmas", spec, lam, trials, tol, tracker)


def check_nilpotent_kernel(
    spec: GeneratorSpec, lam: float, trials: int, tol: Tolerances = DEFAULT_TOL
) -> CheckReport:
    """Delta_lambda(T) = 0 iff T^2 = 0, both directions sampled."""
    if not 0.0 < lam <= 1.0:
        raise ValueError(f"lambda must lie in (0, 1], got {lam!r}")
    key = check_key("nilpotent_kernel")
    tracker = _Tracker()
    for t in range(trials):
        rng = trial_rng(spec.seed, key, spec.dim, t)
        failed = False

        n = nilpotent_sq_zero(rng, spec.dim)
        if frobenius(n @ n) > 1e-12 * (1.0 + frobenius(n) ** 2):
            raise AssertionError("square-zero generator self-test failed")
        r_zero = frobenius(aluthge(n, lam, tol))
        slack = tol.eq_abs * (1.0 + frobenius(n))
        failed |= tracker.observe(
            r_zero, {"trial": t, "direction": "square_zero", "T": matrix_to_obj(n)}, r_zero > slack
        )

        for _ in range(MAX_REDRAWS):
            g = ginibre(rng, spec.dim)
            if frobenius(g @ g) <= 1e-3:
                tracker.vacuous += 1
                continue
            r = frobenius(aluthge(g, lam, tol))
            failed |= tracker.observe(
                r, {"trial": t, "direction": "generic", "T": matrix_to_obj(g)}, r <= 1e-5
            )
            break
        tracker.finish_trial(failed)
    return _report("nilpotent_kernel", spec, lam, trials, tol, tracker)


def check_spectrum_invariance(
    spec: GeneratorSpec, lam: float, trials: int, tol: Tolerances = DEFAULT_TOL
) -> CheckReport:
    """sigma(Delta_lambda(T)) matches sigma(T) as a multiset, lambda in [0,1]."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must lie in [0, 1], got {lam!r}")
    key = check_key("spectrum_invariance")
    tracker = _Tracker()
    for t in range(trials):
        rng = trial_rng(spec.seed, key, spec.dim, t)
        m = ginibre(rng, spec.dim)
        dist = spectra_pairing_distance(spectrum(m), spectrum(aluthge(m, lam, tol)))
        bound = 1e-7 * (1.0 + frobenius(m))
        failed = tracker.observe(dist, {"trial": t, "T": matrix_to_obj(m)}, dist > bound)
        tracker.finish_trial(failed)
    return _report("spectrum_invariance", spec, lam, trials, tol, tracker)


LEMMA_CHECKS = {
    "rank_one_formula": check_rank_one_formula,
    "projection_absorb": check_projection_absorb,
    "scalar_projection": check_scalar_projection,
    "square_identity": check_square_identity,
    "selfadjoint_lemmas": check_selfadjoint_lemmas,
    "nilpotent_kernel": check_nilpotent_kernel,
    "spectrum_invariance": check_spectrum_invariance,
}
