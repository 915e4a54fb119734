"""The check driver, and randomized, seeded checks for the rank-one /
projection / self-adjointness / kernel / spectrum facts about the
lambda-Aluthge transform.

A check is a ``Check`` record: an id, the lambda domain it is stated on and a
per-trial function holding only the mathematics. ``run_check`` owns what every
check shares:

* trial t draws from the stream (seed, crc32(check id), dim, t), so reports
  are reproducible and order-independent;
* "iff" statements are exercised in BOTH directions: a constructive
  satisfying instance must land within the equality slack, and a generic
  refuting instance must land above 10x the slack. Residuals falling in the
  dead band between the two are discarded and redrawn (tallied as vacuous);
* failures are counted per trial; the worst trial's inputs are kept as a
  witness, with failing trials taking precedence, and only the kept witness
  is encoded for the report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

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
    "Check",
    "CheckRun",
    "OPEN",
    "HALF_OPEN",
    "CLOSED",
    "check",
    "run_check",
    "in_dead_band",
    "lambda_admitted",
    "rank_one_formula",
    "projection_absorb",
    "scalar_projection",
    "square_identity",
    "selfadjoint_lemmas",
    "nilpotent_kernel",
    "spectrum_invariance",
]

# Generic refuting residuals must clear this multiple of the pass slack;
# the band in between is redrawn.
REFUTE_FACTOR = 10.0
MAX_REDRAWS = 64


# The lambda domains a check may be stated on, each mapped to whether its
# lower and upper ends are open.
OPEN = "(0, 1)"
HALF_OPEN = "(0, 1]"
CLOSED = "[0, 1]"
_OPEN_ENDS = {OPEN: (True, True), HALF_OPEN: (True, False), CLOSED: (False, False)}


@dataclass(frozen=True)
class Check:
    """One randomized check.

    id     : report ``check_id``; also seeds the trial streams
    trial  : runs one trial against a ``CheckRun``
    domain : lambda interval the check is stated on, OPEN, HALF_OPEN or
             CLOSED; None for a check that does not use lambda, whose
             report records lambda as 0.0
    """

    id: str
    trial: Callable[["CheckRun"], None]
    domain: str | None = OPEN

    def __post_init__(self) -> None:
        if self.domain is not None and self.domain not in _OPEN_ENDS:
            raise ValueError(f"{self.id}: unknown lambda domain {self.domain!r}")


def check(id: str, domain: str | None = OPEN):
    """Decorator turning a per-trial function into a ``Check``."""
    return lambda trial: Check(id, trial, domain)


def lambda_admitted(lam: float, domain: str | None) -> bool:
    """Whether ``lam`` lies in ``domain`` (see ``Check``); None admits any."""
    if domain is None:
        return True
    low_open, high_open = _OPEN_ENDS[domain]
    low = 0.0 < lam if low_open else 0.0 <= lam
    high = lam < 1.0 if high_open else lam <= 1.0
    return low and high


def in_dead_band(slack: float, *residuals: float) -> bool:
    """True if any residual is above the pass slack but not clear of it by
    REFUTE_FACTOR: such a draw decides nothing and is redrawn."""
    return any(slack < r <= REFUTE_FACTOR * slack for r in residuals)


def _payload(value):
    if isinstance(value, np.ndarray):
        return matrix_to_obj(value) if value.ndim == 2 else vector_payload(value)
    return value


class CheckRun:
    """State of one check run, handed to the check's per-trial function.

    ``rng`` is the current trial's stream and ``trial`` its index; ``dim``,
    ``lam`` and ``tol`` are the run's parameters. A trial records outcomes
    through ``observe``, or ``redraw`` for draws that may be vacuous; the
    other fields are the tally.
    """

    def __init__(self, dim: int, lam: float, tol: Tolerances) -> None:
        self.dim = dim
        self.lam = lam
        self.tol = tol
        self.rng: np.random.Generator | None = None
        self.trial = 0
        self.trial_failed = False
        self.failures = 0
        self.vacuous = 0
        self.worst = 0.0
        self._witness: tuple[int, dict] | None = None
        self._witness_failed = False

    def observe(self, residual: float, failed: bool, **witness) -> None:
        """Record one outcome of the current trial. ``witness`` holds its
        inputs (arrays are encoded only if they end up as the report's)."""
        failed = bool(failed)
        take = (failed and not self._witness_failed) or (
            residual > self.worst and failed == self._witness_failed
        ) or self._witness is None
        if take:
            self._witness = (self.trial, witness)
            self._witness_failed = self._witness_failed or failed
        self.worst = max(self.worst, residual)
        self.trial_failed = self.trial_failed or failed

    def redraw(self, draw: Callable[[], bool]) -> None:
        """Draw until one draw is informative. ``draw()`` observes its outcome
        and returns True, or returns False for a vacuous draw; after
        MAX_REDRAWS vacuous draws the trial records nothing."""
        for _ in range(MAX_REDRAWS):
            if draw():
                return
            self.vacuous += 1

    def witness(self) -> dict | None:
        if self._witness is None:
            return None
        trial, fields = self._witness
        return {"trial": trial, **{name: _payload(value) for name, value in fields.items()}}


def run_check(
    check: Check, spec: GeneratorSpec, lam: float, trials: int, tol: Tolerances = DEFAULT_TOL
) -> CheckReport:
    """Run ``trials`` trials of ``check`` at ``spec``'s dimension and seed."""
    if not lambda_admitted(lam, check.domain):
        raise ValueError(f"{check.id}: lambda must lie in {check.domain}, got {lam!r}")
    run = CheckRun(spec.dim, lam, tol)
    key = check_key(check.id)
    for t in range(trials):
        run.trial, run.rng, run.trial_failed = t, trial_rng(spec.seed, key, spec.dim, t), False
        check.trial(run)
        run.failures += run.trial_failed
    return CheckReport(
        check_id=check.id,
        seed=spec.seed,
        dim=spec.dim,
        lam=lam if check.domain is not None else 0.0,
        trials=trials,
        failures=run.failures,
        vacuous=run.vacuous,
        worst_residual=run.worst,
        tolerances=tol,
        witness=run.witness(),
    )


@check("rank_one_formula")
def rank_one_formula(run: CheckRun) -> None:
    """Delta_lambda(x⊗y) equals (<x,y>/||y||^2)(y⊗y) on random vector pairs."""
    x = complex_gaussian(run.rng, run.dim)
    y = complex_gaussian(run.rng, run.dim)
    residual = frobenius(aluthge(rank_one(x, y), run.lam, run.tol) - aluthge_rank_one(x, y, run.lam))
    slack = run.tol.eq_abs * (1.0 + np.linalg.norm(x) * np.linalg.norm(y))
    run.observe(residual, residual > slack, x=x, y=y)


@check("projection_absorb")
def projection_absorb(run: CheckRun) -> None:
    """Delta_lambda(A∘P) = P iff PA = P, for rank-one projections P = x⊗x.

    Direction (a) corrects a random A so that A*x = x (hence PA = P) and
    demands agreement; direction (b) draws a generic A and demands both sides
    of the biconditional carry the same truth value under slack.
    """
    rng, n, lam, tol = run.rng, run.dim, run.lam, run.tol
    x = unit_vector(rng, n)
    p = np.outer(x, x.conj())

    # (a) constructive: A = (A0* + (x - A0* x)⊗x)* satisfies A* x = x.
    a0 = ginibre(rng, n)
    a = (a0.conj().T + np.outer(x - a0.conj().T @ x, x.conj())).conj().T
    residual = frobenius(aluthge(jordan_product(a, p), lam, tol) - p)
    slack = tol.eq_abs * (1.0 + frobenius(a))
    run.observe(residual, residual > slack or frobenius(p @ a - p) > slack, direction="satisfying", x=x, A=a)

    # (b) generic: both sides of the iff must agree.
    def generic():
        b = ginibre(rng, n)
        slack_b = tol.eq_abs * (1.0 + frobenius(b))
        r_delta = frobenius(aluthge(jordan_product(b, p), lam, tol) - p)
        r_pa = frobenius(p @ b - p)
        if in_dead_band(slack_b, r_delta, r_pa):
            return False
        agree = (r_delta <= slack_b) == (r_pa <= slack_b)
        run.observe(min(r_delta, r_pa), not agree, direction="generic", x=x, A=b)
        return True

    run.redraw(generic)


@check("scalar_projection")
def scalar_projection(run: CheckRun) -> None:
    """Delta_lambda(A∘P) = A iff A = alpha P, for rank-one projections P."""
    rng, n, lam, tol = run.rng, run.dim, run.lam, run.tol
    x = unit_vector(rng, n)
    p = np.outer(x, x.conj())

    alpha = complex(complex_gaussian(rng, 1)[0])
    a = alpha * p
    residual = frobenius(aluthge(jordan_product(a, p), lam, tol) - a)
    slack = tol.eq_abs * (1.0 + abs(alpha))
    run.observe(residual, residual > slack, direction="satisfying", alpha=[alpha.real, alpha.imag], x=x)

    def generic():
        b = ginibre(rng, n)
        slack_b = tol.eq_abs * (1.0 + frobenius(b))
        r = frobenius(aluthge(jordan_product(b, p), lam, tol) - b)
        if in_dead_band(slack_b, r):
            return False
        run.observe(r, r <= slack_b, direction="generic", x=x, A=b)
        return True

    run.redraw(generic)


@check("square_identity")
def square_identity(run: CheckRun) -> None:
    """Delta_lambda(T^2) = T iff T = I, over well-conditioned invertible T.

    The identity passes (trial 0's satisfying part); generic invertible T must
    refute. If a sampled T ever satisfies the equation within slack, the
    injective-case implication T^2 = T* is asserted as well.
    """
    rng, n, lam, tol = run.rng, run.dim, run.lam, run.tol
    eye = np.eye(n)
    if run.trial == 0:
        r_eye = frobenius(aluthge(eye, lam, tol) - eye)
        run.observe(r_eye, r_eye > tol.eq_abs, direction="identity")

    def generic():
        m = invertible_ginibre(rng, n)
        slack = tol.eq_abs * (1.0 + frobenius(m))
        r = frobenius(aluthge(m @ m, lam, tol) - m)
        if in_dead_band(slack, r):
            return False
        bad = False
        if r <= slack:
            # Only T = I may land here; then T^2 = T* must hold too.
            bad = frobenius(m @ m - m.conj().T) > slack or frobenius(m - eye) > slack
        run.observe(r, bad, T=m)
        return True

    run.redraw(generic)


@check("selfadjoint_lemmas")
def selfadjoint_lemmas(run: CheckRun) -> None:
    """Self-adjointness rigidity, both flavors.

    selfadjoint_injective:   Delta(S) = S*  forces S = S*  (S, S* injective);
    selfadjoint_quasinormal: Delta(S*) = S  forces S = S*  (S quasi-normal).
    Hermitian draws must satisfy both equalities; non-Hermitian invertible
    draws must refute the first, normal non-Hermitian draws the second.
    """
    rng, n, lam, tol = run.rng, run.dim, run.lam, run.tol
    g = ginibre(rng, n)
    s = (g + g.conj().T) / 2.0
    r_fwd = frobenius(aluthge(s, lam, tol) - s.conj().T)
    slack = tol.eq_abs * (1.0 + frobenius(s))
    run.observe(r_fwd, r_fwd > slack, part="hermitian", S=s)

    # Injective flavor: non-Hermitian invertible S refutes Delta(S) = S*.
    def injective():
        m = invertible_ginibre(rng, n)
        slack_m = tol.eq_abs * (1.0 + frobenius(m))
        if frobenius(m - m.conj().T) <= REFUTE_FACTOR * slack_m:
            return False
        r = frobenius(aluthge(m, lam, tol) - m.conj().T)
        if in_dead_band(slack_m, r):
            return False
        run.observe(r, r <= slack_m, part="injective", S=m)
        return True

    run.redraw(injective)

    # Quasi-normal flavor: normal non-Hermitian S refutes Delta(S*) = S.
    u = haar_unitary(rng, n)
    d = complex_gaussian(rng, n)
    im = np.where(np.abs(d.imag) < 0.3, np.copysign(np.abs(d.imag) + 0.3, d.imag), d.imag)
    q = (u * (d.real + 1j * im)) @ u.conj().T
    slack_q = tol.eq_abs * (1.0 + frobenius(q))
    r_qn = frobenius(aluthge(q.conj().T, lam, tol) - q)
    run.observe(r_qn, r_qn <= REFUTE_FACTOR * slack_q, part="quasinormal", S=q)


@check("nilpotent_kernel", domain=HALF_OPEN)
def nilpotent_kernel(run: CheckRun) -> None:
    """Delta_lambda(T) = 0 iff T^2 = 0, both directions sampled."""
    rng, n, lam, tol = run.rng, run.dim, run.lam, run.tol
    t = nilpotent_sq_zero(rng, n)
    if frobenius(t @ t) > 1e-12 * (1.0 + frobenius(t) ** 2):
        raise AssertionError("square-zero generator self-test failed")
    r_zero = frobenius(aluthge(t, lam, tol))
    slack = tol.eq_abs * (1.0 + frobenius(t))
    run.observe(r_zero, r_zero > slack, direction="square_zero", T=t)

    def generic():
        g = ginibre(rng, n)
        if frobenius(g @ g) <= 1e-3:
            return False
        r = frobenius(aluthge(g, lam, tol))
        run.observe(r, r <= 1e-5, direction="generic", T=g)
        return True

    run.redraw(generic)


@check("spectrum_invariance", domain=CLOSED)
def spectrum_invariance(run: CheckRun) -> None:
    """sigma(Delta_lambda(T)) matches sigma(T) as a multiset, lambda in [0,1]."""
    m = ginibre(run.rng, run.dim)
    dist = spectra_pairing_distance(spectrum(m), spectrum(aluthge(m, run.lam, run.tol)))
    bound = 1e-7 * (1.0 + frobenius(m))
    run.observe(dist, dist > bound, T=m)
