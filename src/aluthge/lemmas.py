"""The check driver, and randomized, seeded checks for the rank-one /
projection / self-adjointness / kernel / spectrum facts about the
lambda-Aluthge transform.

A check is a ``Check`` record: an id, the lambda domain it is stated on and a
per-trial function holding only the mathematics. ``run_check`` owns what every
check shares:

* trial t draws from the stream (seed, crc32(check id), dim, t), so reports
  are reproducible and order-independent;
* the trials run in lockstep: a trial requests its transforms, Haar QRs,
  singular values and eigenvalues from the driver, and each round serves all
  the requests of one kind with one stacked call;
* "iff" statements are exercised in BOTH directions: a constructive
  satisfying instance must land within the equality slack, and a generic
  refuting instance must land above 10x the slack. Residuals falling in the
  dead band between the two are discarded and redrawn (tallied as vacuous);
* failures are counted per trial; the worst trial's inputs are kept as a
  witness, with failing trials taking precedence, and only the kept witness
  is encoded for the report;
* the report is a JSON-ready dict, built in one place.
"""

from __future__ import annotations

from collections.abc import Callable, Generator
from dataclasses import asdict, dataclass
from functools import partial
from itertools import islice

import numpy as np

from .generators import (
    _normal,
    _phase_fixed_q,
    check_key,
    complex_gaussian,
    ginibre,
    nilpotent_sq_zero,
    trial_rng,
    unit_vector,
)
from .linalg import (
    CLOSED,
    DEFAULT_TOL,
    HALF_OPEN,
    OPEN,
    Tolerances,
    _jordan,
    _sorted_spectrum,
    frobenius,
    lambda_admitted,
    rank_one,
    spectra_pairing_distance,
)
from .matrixio import matrix_to_obj, vector_payload
from .transform import aluthge_rank_one, aluthge_stack

__all__ = [
    "Check",
    "run_check",
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
# Smallest allowed sigma_min/sigma_max of a well-conditioned (injective) draw;
# draws below it are drawn again.
MIN_CONDITION = 1e-6
# Trials run in blocks of STACK_ENTRIES // dim^2 (at least one), which bounds
# the live trials and the stacked transforms at every dim. Stacks of 50 to 500
# small matrices already take most of the stacking gain; a larger cap mostly
# adds memory.
STACK_ENTRIES = 1 << 11


@dataclass(frozen=True)
class Check:
    """One randomized check.

    id     : report ``check_id``; also seeds the trial streams
    trial  : runs one trial against a ``_CheckRun``. A trial that needs
             the driver's stacked linear algebra is a generator: each
             request ``d, e = yield (op, (m, k))`` hands the driver matrices
             and receives one result per matrix, in order. ``op`` is
             "aluthge" (their lambda-Aluthge transforms), "haar" (the
             phase-fixed Q of Ginibre draws: Haar unitaries), "svdvals"
             (singular values, descending) or "eigvals" (eigenvalues, in
             LAPACK's order). One that needs none is a plain function
             returning None.
    domain : lambda interval the check is stated on, OPEN, HALF_OPEN or
             CLOSED; None for a check that does not use lambda, whose
             report records lambda as 0.0
    """

    id: str
    trial: Callable[["_CheckRun"], Generator | None]
    domain: str | None = OPEN

    def __post_init__(self) -> None:
        if self.domain not in (None, OPEN, HALF_OPEN, CLOSED):
            raise ValueError(f"{self.id}: unknown lambda domain {self.domain!r}")


def _check(id: str, domain: str | None = OPEN):
    """Decorator turning a per-trial function into a ``Check``."""
    return lambda trial: Check(id, trial, domain)


def _in_dead_band(slack: float, *residuals: float) -> bool:
    """True if any residual is above the pass slack but not clear of it by
    REFUTE_FACTOR: such a draw decides nothing and is redrawn."""
    return any(slack < r <= REFUTE_FACTOR * slack for r in residuals)


def _haar(rng: np.random.Generator, n: int) -> Generator:
    """A Haar unitary from a Ginibre draw of ``rng``, as ``haar_unitary``
    gives it: ``u = yield from _haar(rng, n)``."""
    (u,) = yield ("haar", (ginibre(rng, n),))
    return u


def _invertible_ginibre(rng: np.random.Generator, n: int) -> Generator:
    """The first Ginibre draw of ``rng`` whose singular values, requested
    from the driver, meet sigma_min >= MIN_CONDITION * sigma_max:
    ``m = yield from _invertible_ginibre(rng, n)``."""
    while True:
        g = ginibre(rng, n)
        (s,) = yield ("svdvals", (g,))
        if s[-1] >= MIN_CONDITION * s[0]:
            return g


def _payload(value):
    if isinstance(value, np.ndarray):
        return matrix_to_obj(value) if value.ndim == 2 else vector_payload(value)
    return value


class _CheckRun:
    """One trial of a check run, handed to the check's per-trial function.

    ``rng`` is the trial's own stream and ``trial`` its index; ``dim``, ``lam``
    and ``tol`` are the run's parameters. The trial records outcomes through
    ``observe``, or ``redraw`` for draws that may be vacuous; ``run_check``
    replays them into the report in trial order.
    """

    def __init__(self, dim: int, lam: float, tol: Tolerances, trial: int, rng: np.random.Generator) -> None:
        self.dim = dim
        self.lam = lam
        self.tol = tol
        self.trial = trial
        self.rng = rng
        self.outcomes: list[tuple[float, bool, dict]] = []
        self.vacuous = 0

    def observe(self, residual: float, failed: bool, **witness) -> None:
        """Record one outcome of this trial. ``witness`` holds its inputs
        (arrays are encoded only if they end up as the report's)."""
        self.outcomes.append((residual, bool(failed), witness))

    def redraw(self, draw: Callable[[], Generator]) -> Generator:
        """Draw until one draw is informative: ``yield from run.redraw(draw)``.
        ``draw()`` is a generator like a trial; it observes its outcome and
        returns True, or returns False for a vacuous draw. After MAX_REDRAWS
        vacuous draws the trial records nothing."""
        for _ in range(MAX_REDRAWS):
            if (yield from draw()):
                return
            self.vacuous += 1


def _lockstep(trials: list, lam: float, tol: Tolerances) -> None:
    """Run trial generators to the end together. Each round collects every
    live trial's ``(op, matrices)`` request, stacks the matrices of all
    requests with one op into one call per op, and sends each trial the
    results for its own matrices, in order. Every op works on each matrix of
    a stack alone, so a result does not depend on what else was stacked."""
    ops = {
        "aluthge": partial(aluthge_stack, lam=lam, tol=tol),
        "haar": _phase_fixed_q,
        "svdvals": partial(np.linalg.svd, compute_uv=False),
        "eigvals": np.linalg.eigvals,
    }
    pending = [(gen, None) for gen in trials]
    while pending:
        requests = []
        for gen, sent in pending:
            try:
                requests.append((gen, *gen.send(sent)))
            except StopIteration:
                pass
        stacks: dict[str, list] = {}
        for _, op, ms in requests:
            stacks.setdefault(op, []).extend(ms)
        done = {op: iter(ops[op](np.stack(ms))) for op, ms in stacks.items()}
        pending = [(gen, tuple(islice(done[op], len(ms)))) for gen, op, ms in requests]


def run_check(
    check: Check, dim: int, seed: int, lam: float, trials: int, tol: Tolerances = DEFAULT_TOL
) -> dict:
    """Run ``trials`` trials of ``check`` at dimension ``dim`` >= 2 from ``seed``.

    Trials run in blocks of at most STACK_ENTRIES // dim^2, each block in
    lockstep; every trial draws only from its own stream and its outcomes are
    replayed in trial order, so the report does not depend on the blocking.

    Returns the report, a dict of JSON values that ``json.load`` of its file
    gives back unchanged.
    """
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    if not lambda_admitted(lam, check.domain):
        raise ValueError(f"{check.id}: lambda must lie in {check.domain}, got {lam!r}")
    key = check_key(check.id)
    block = max(1, STACK_ENTRIES // dim**2)
    failures = vacuous = 0
    worst = 0.0
    witness: tuple[int, dict] | None = None
    witness_key: tuple[bool, float] | None = None
    for start in range(0, trials, block):
        runs = [
            _CheckRun(dim, lam, tol, t, trial_rng(seed, key, dim, t))
            for t in range(start, min(start + block, trials))
        ]
        # A plain trial function has run to its end here and returned None.
        _lockstep([gen for gen in map(check.trial, runs) if gen is not None], lam, tol)
        for run in runs:
            # The witness is the failing outcome with the largest residual,
            # else the largest residual; ties keep the first.
            for residual, failed, fields in run.outcomes:
                if witness is None or (failed, residual) > witness_key:
                    witness, witness_key = (run.trial, fields), (failed, residual)
                worst = max(worst, residual)
            failures += any(failed for _, failed, _ in run.outcomes)
            vacuous += run.vacuous
    report = {
        "check_id": check.id,
        "seed": int(seed),
        "dim": int(dim),
        "lambda": float(lam) if check.domain is not None else 0.0,
        "trials": int(trials),
        "failures": failures,
        "vacuous": vacuous,
        "worst_residual": float(worst),
        "tolerances": asdict(tol),
    }
    if witness is not None:
        trial, fields = witness
        report["witness"] = {"trial": trial, **{name: _payload(value) for name, value in fields.items()}}
    return report


@_check("rank_one_formula")
def rank_one_formula(run: _CheckRun) -> Generator:
    """Delta_lambda(x⊗y) equals (<x,y>/||y||^2)(y⊗y) on random vector pairs."""
    x = complex_gaussian(run.rng, run.dim)
    y = complex_gaussian(run.rng, run.dim)
    (d,) = yield ("aluthge", (rank_one(x, y),))
    residual = frobenius(d - aluthge_rank_one(x, y, run.lam))
    slack = run.tol.eq_abs * (1.0 + np.linalg.norm(x) * np.linalg.norm(y))
    run.observe(residual, residual > slack, x=x, y=y)


@_check("projection_absorb")
def projection_absorb(run: _CheckRun) -> Generator:
    """Delta_lambda(A∘P) = P iff PA = P, for rank-one projections P = x⊗x.

    Direction (a) corrects a random A so that A*x = x (hence PA = P) and
    demands agreement; direction (b) draws a generic A and demands both sides
    of the biconditional carry the same truth value under slack.
    """
    rng, n, tol = run.rng, run.dim, run.tol
    x = unit_vector(rng, n)
    p = np.outer(x, x.conj())

    # (a) constructive: A = (A0* + (x - A0* x)⊗x)* satisfies A* x = x.
    a0 = ginibre(rng, n)
    a = (a0.conj().T + np.outer(x - a0.conj().T @ x, x.conj())).conj().T
    (d,) = yield ("aluthge", (_jordan(a, p),))
    residual = frobenius(d - p)
    slack = tol.eq_abs * (1.0 + frobenius(a))
    run.observe(residual, residual > slack or frobenius(p @ a - p) > slack, direction="satisfying", x=x, A=a)

    # (b) generic: both sides of the iff must agree.
    def generic():
        b = ginibre(rng, n)
        slack_b = tol.eq_abs * (1.0 + frobenius(b))
        (d,) = yield ("aluthge", (_jordan(b, p),))
        r_delta = frobenius(d - p)
        r_pa = frobenius(p @ b - p)
        if _in_dead_band(slack_b, r_delta, r_pa):
            return False
        agree = (r_delta <= slack_b) == (r_pa <= slack_b)
        run.observe(min(r_delta, r_pa), not agree, direction="generic", x=x, A=b)
        return True

    yield from run.redraw(generic)


@_check("scalar_projection")
def scalar_projection(run: _CheckRun) -> Generator:
    """Delta_lambda(A∘P) = A iff A = alpha P, for rank-one projections P."""
    rng, n, tol = run.rng, run.dim, run.tol
    x = unit_vector(rng, n)
    p = np.outer(x, x.conj())

    alpha = complex(complex_gaussian(rng, 1)[0])
    a = alpha * p
    (d,) = yield ("aluthge", (_jordan(a, p),))
    residual = frobenius(d - a)
    slack = tol.eq_abs * (1.0 + abs(alpha))
    run.observe(residual, residual > slack, direction="satisfying", alpha=[alpha.real, alpha.imag], x=x)

    def generic():
        b = ginibre(rng, n)
        slack_b = tol.eq_abs * (1.0 + frobenius(b))
        (d,) = yield ("aluthge", (_jordan(b, p),))
        r = frobenius(d - b)
        if _in_dead_band(slack_b, r):
            return False
        run.observe(r, r <= slack_b, direction="generic", x=x, A=b)
        return True

    yield from run.redraw(generic)


@_check("square_identity")
def square_identity(run: _CheckRun) -> Generator:
    """Delta_lambda(T^2) = T iff T = I, over well-conditioned invertible T.

    The identity passes (trial 0's satisfying part); generic invertible T must
    refute. If a sampled T ever satisfies the equation within slack, the
    injective-case implication T^2 = T* is asserted as well.
    """
    rng, n, tol = run.rng, run.dim, run.tol
    eye = np.eye(n)
    if run.trial == 0:
        (d,) = yield ("aluthge", (eye,))
        r_eye = frobenius(d - eye)
        run.observe(r_eye, r_eye > tol.eq_abs, direction="identity")

    def generic():
        m = yield from _invertible_ginibre(rng, n)
        slack = tol.eq_abs * (1.0 + frobenius(m))
        (d,) = yield ("aluthge", (m @ m,))
        r = frobenius(d - m)
        if _in_dead_band(slack, r):
            return False
        bad = False
        if r <= slack:
            # Only T = I may land here; then T^2 = T* must hold too.
            bad = frobenius(m @ m - m.conj().T) > slack or frobenius(m - eye) > slack
        run.observe(r, bad, T=m)
        return True

    yield from run.redraw(generic)


@_check("selfadjoint_lemmas")
def selfadjoint_lemmas(run: _CheckRun) -> Generator:
    """Self-adjointness rigidity, both flavors.

    selfadjoint_injective:   Delta(S) = S*  forces S = S*  (S, S* injective);
    selfadjoint_quasinormal: Delta(S*) = S  forces S = S*  (S quasi-normal).
    Hermitian draws must satisfy both equalities; non-Hermitian invertible
    draws must refute the first, normal non-Hermitian draws the second.
    """
    rng, n, tol = run.rng, run.dim, run.tol
    g = ginibre(rng, n)
    s = (g + g.conj().T) / 2.0
    (d,) = yield ("aluthge", (s,))
    r_fwd = frobenius(d - s.conj().T)
    slack = tol.eq_abs * (1.0 + frobenius(s))
    run.observe(r_fwd, r_fwd > slack, part="hermitian", S=s)

    # Injective flavor: non-Hermitian invertible S refutes Delta(S) = S*.
    def injective():
        m = yield from _invertible_ginibre(rng, n)
        slack_m = tol.eq_abs * (1.0 + frobenius(m))
        if frobenius(m - m.conj().T) <= REFUTE_FACTOR * slack_m:
            return False
        (d,) = yield ("aluthge", (m,))
        r = frobenius(d - m.conj().T)
        if _in_dead_band(slack_m, r):
            return False
        run.observe(r, r <= slack_m, part="injective", S=m)
        return True

    yield from run.redraw(injective)

    # Quasi-normal flavor: normal non-Hermitian S refutes Delta(S*) = S.
    u = yield from _haar(rng, n)
    d = complex_gaussian(rng, n)
    im = np.where(np.abs(d.imag) < 0.3, np.copysign(np.abs(d.imag) + 0.3, d.imag), d.imag)
    q = _normal(u, d.real + 1j * im)
    slack_q = tol.eq_abs * (1.0 + frobenius(q))
    (dq,) = yield ("aluthge", (q.conj().T,))
    r_qn = frobenius(dq - q)
    run.observe(r_qn, r_qn <= REFUTE_FACTOR * slack_q, part="quasinormal", S=q)


@_check("nilpotent_kernel", domain=HALF_OPEN)
def nilpotent_kernel(run: _CheckRun) -> Generator:
    """Delta_lambda(T) = 0 iff T^2 = 0, both directions sampled."""
    rng, n, tol = run.rng, run.dim, run.tol
    t = nilpotent_sq_zero(rng, n)
    if frobenius(t @ t) > 1e-12 * (1.0 + frobenius(t) ** 2):
        raise AssertionError("square-zero generator self-test failed")
    (d,) = yield ("aluthge", (t,))
    r_zero = frobenius(d)
    slack = tol.eq_abs * (1.0 + frobenius(t))
    run.observe(r_zero, r_zero > slack, direction="square_zero", T=t)

    def generic():
        g = ginibre(rng, n)
        if frobenius(g @ g) <= 1e-3:
            return False
        (d,) = yield ("aluthge", (g,))
        r = frobenius(d)
        run.observe(r, r <= 1e-5, direction="generic", T=g)
        return True

    yield from run.redraw(generic)


@_check("spectrum_invariance", domain=CLOSED)
def spectrum_invariance(run: _CheckRun) -> Generator:
    """sigma(Delta_lambda(T)) matches sigma(T) as a multiset, lambda in [0,1]."""
    m = ginibre(run.rng, run.dim)
    (d,) = yield ("aluthge", (m,))
    ev_m, ev_d = yield ("eigvals", (m, d))
    dist = spectra_pairing_distance(_sorted_spectrum(ev_m), _sorted_spectrum(ev_d))
    bound = 1e-7 * (1.0 + frobenius(m))
    run.observe(dist, dist > bound, T=m)
