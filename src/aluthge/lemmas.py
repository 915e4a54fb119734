"""The check driver, and randomized, seeded checks for the rank-one /
projection / self-adjointness / kernel / spectrum facts about the
lambda-Aluthge transform.

A check is a ``Check`` record: an id, the lambda domain it is stated on and a
function that runs a block of trials, holding only the mathematics.
``run_check`` owns what every check shares:

* trial t draws from the stream (seed, crc32(check id), dim, t), so reports
  are reproducible and order-independent;
* the trials run in blocks: a check's function draws each trial's matrices
  from that trial's stream, in the trial's order, and takes each step of the
  mathematics (products, maps, transforms, norms, slacks) for the whole block
  as one stacked call. Every stacked call treats each matrix alone, bit for
  bit as a call on that matrix would, so a report does not depend on the
  blocking;
* "iff" statements are exercised in BOTH directions: a constructive
  satisfying instance must land within the equality slack, and a generic
  refuting instance must land above 10x the slack. Residuals falling in the
  dead band between the two are discarded and redrawn (tallied as vacuous),
  by ``_redraw`` for the trials of a block that drew them;
* failures are counted per trial; the worst trial's inputs are kept as a
  witness, with failing trials taking precedence, and only the kept witness
  is encoded for the report;
* the report is a JSON-ready dict, built in one place.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import asdict, dataclass
from itertools import repeat

import numpy as np

from .generators import (
    _complex_gaussians,
    _nilpotents_sq_zero,
    _normal,
    _phase_fixed_q,
    _trial_rngs,
    _unit_vectors,
    check_key,
)
from .linalg import (
    CLOSED,
    DEFAULT_TOL,
    HALF_OPEN,
    OPEN,
    Tolerances,
    _jordan,
    _matvec,
    _norms,
    _outer,
    _sorted_spectrum,
    _squares,
    _star,
    frobenius,
    lambda_admitted,
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
# the stacks a check's function builds at every dim. Measured on the block
# form (2 vCPUs; the 15 checks at dims 2-6, seeds 1-3, in one process on one
# CPU): at 100 trials, medians of 7 rounds were 0.96 s at 1024, 0.84 s at
# 2048, 0.81 s at 4096 and 0.88 s at 8192; 4096 against 2048 over 15
# alternating rounds, 0.98 s against 1.03 s, faster in only 10 of 15; at
# 1000 trials, 9.3 s against 9.7 s over 3. No clear gain, so 2048 stays.
STACK_ENTRIES = 1 << 11


@dataclass(frozen=True)
class Check:
    """One randomized check.

    id     : report ``check_id``; also seeds the trial streams
    block  : runs a block of trials, given as a list of ``_CheckRun`` in
             trial order, and records each trial's outcomes through its
             ``observe`` (or ``_observe`` for the whole block). Each trial
             draws only from its own ``rng``, in a fixed order, and each step
             of the mathematics runs once for the block on stacks, through
             calls that treat every matrix alone: ``aluthge_stack`` (by
             ``_aluthge``), ``generators._phase_fixed_q``, ``np.linalg.svd``,
             ``np.linalg.eigvals``, batched ``@`` and ``linalg._norms``. So
             what a trial records does not depend on the rest of its block.
             Draws that may be vacuous go through ``_redraw``.
    domain : lambda interval the check is stated on, OPEN, HALF_OPEN or
             CLOSED; None for a check that does not use lambda, whose
             report records lambda as 0.0
    """

    id: str
    block: Callable[[list["_CheckRun"]], None]
    domain: str | None = OPEN

    def __post_init__(self) -> None:
        if self.domain not in (None, OPEN, HALF_OPEN, CLOSED):
            raise ValueError(f"{self.id}: unknown lambda domain {self.domain!r}")


def _check(id: str, domain: str | None = OPEN):
    """Decorator turning a block function into a ``Check``."""
    return lambda block: Check(id, block, domain)


def _in_dead_band(slack: np.ndarray, *residuals: np.ndarray) -> np.ndarray:
    """Where any residual is above the pass slack but not clear of it by
    REFUTE_FACTOR: such a draw decides nothing and is redrawn."""
    band = np.zeros(np.shape(slack), dtype=bool)
    for r in residuals:
        band |= (slack < r) & (r <= REFUTE_FACTOR * slack)
    return band


def _payload(value):
    if isinstance(value, np.ndarray):
        return matrix_to_obj(value) if value.ndim == 2 else vector_payload(value)
    return value


class _CheckRun:
    """One trial of a check run, handed to the check's block function with
    the rest of its block.

    ``rng`` is the trial's own stream and ``trial`` its index; ``dim``, ``lam``
    and ``tol`` are the run's parameters. The trial's outcomes are recorded
    through ``observe`` and its vacuous draws counted in ``vacuous``;
    ``run_check`` replays them into the report in trial order.
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


def _observe(runs: list[_CheckRun], residual, failed, where=None, **witness) -> None:
    """``runs[i].observe(residual[i], failed[i], **witness_i)`` for each trial
    i of a block, or each i where the boolean array ``where`` holds. A str
    witness field is shared by all trials; any other holds one value per
    trial."""
    names = list(witness)
    columns = [repeat(value) if isinstance(value, str) else list(value) for value in witness.values()]
    rows = zip(*columns) if columns else repeat(())
    picked = repeat(True) if where is None else np.asarray(where).tolist()
    outcomes = zip(runs, np.asarray(residual).tolist(), np.asarray(failed).tolist(), rows, picked)
    for run, r, f, row, keep in outcomes:
        if keep:
            run.observe(r, f, **dict(zip(names, row)))


def _redraw(runs: list[_CheckRun], draw: Callable[[list[_CheckRun], np.ndarray], np.ndarray]) -> None:
    """Draw until every trial of a block has one informative draw.

    ``draw(live, idx)`` makes one draw for each trial of ``live``, the trials
    ``runs[i]`` for i in the index array ``idx``, records the outcomes of the
    informative draws and returns a boolean array marking them. The other
    trials drew vacuously and draw again; after MAX_REDRAWS vacuous draws a
    trial records nothing."""
    idx = np.arange(len(runs))
    for _ in range(MAX_REDRAWS):
        if not idx.size:
            return
        idx = idx[~draw([runs[i] for i in idx], idx)]
        for i in idx.tolist():
            runs[i].vacuous += 1


def _rngs(runs: list[_CheckRun]) -> list[np.random.Generator]:
    return [run.rng for run in runs]


def _ginibres(runs: list[_CheckRun]) -> np.ndarray:
    """One Ginibre matrix per trial, from its own stream, stacked."""
    n = runs[0].dim
    return _complex_gaussians(_rngs(runs), n, n)


def _unitaries(runs: list[_CheckRun]) -> np.ndarray:
    """One Haar unitary per trial, the phase-fixed Q of its Ginibre draw,
    from one stacked QR."""
    return _phase_fixed_q(_ginibres(runs))


def _conditioned(runs: list[_CheckRun]) -> np.ndarray:
    """One Ginibre matrix per trial, the first from its stream with sigma_min
    >= MIN_CONDITION * sigma_max; each round's singular values come from one
    stacked SVD."""
    m = _ginibres(runs)
    todo = np.arange(len(runs))
    while todo.size:
        s = np.linalg.svd(m[todo], compute_uv=False)
        todo = todo[s[:, -1] < MIN_CONDITION * s[:, 0]]
        if todo.size:
            m[todo] = _ginibres([runs[i] for i in todo])
    return m


def _aluthge(runs: list[_CheckRun], t: np.ndarray) -> np.ndarray:
    """The lambda-Aluthge transforms of a stack at the run's lambda and
    tolerances. The stack is made C-contiguous first: the kernel lays out the
    isometry of a stack of mixed ranks like its input, so a stack of
    transposed views could round otherwise than its contiguous copy."""
    return aluthge_stack(np.ascontiguousarray(t), runs[0].lam, runs[0].tol)


def run_check(
    check: Check, dim: int, seed: int, lam: float, trials: int, tol: Tolerances = DEFAULT_TOL
) -> dict:
    """Run ``trials`` trials of ``check`` at dimension ``dim`` >= 2 from ``seed``.

    Trials run in blocks of at most STACK_ENTRIES // dim^2, each block by one
    call of the check's block function; every trial draws only from its own
    stream and its outcomes are replayed in trial order, so the report does
    not depend on the blocking.

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
        stop = min(start + block, trials)
        runs = [
            _CheckRun(dim, lam, tol, t, rng)
            for t, rng in zip(range(start, stop), _trial_rngs(seed, key, dim, start, stop))
        ]
        check.block(runs)
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
def rank_one_formula(runs: list[_CheckRun]) -> None:
    """Delta_lambda(x⊗y) equals (<x,y>/||y||^2)(y⊗y) on random vector pairs."""
    n, tol = runs[0].dim, runs[0].tol
    x = _complex_gaussians(_rngs(runs), n)
    y = _complex_gaussians(_rngs(runs), n)
    closed = np.stack([aluthge_rank_one(xt, yt, runs[0].lam) for xt, yt in zip(x, y)])
    residual = _norms(_aluthge(runs, _outer(x, y)) - closed)
    slack = tol.eq_abs * (1.0 + _norms(x) * _norms(y))
    _observe(runs, residual, residual > slack, x=x, y=y)


@_check("projection_absorb")
def projection_absorb(runs: list[_CheckRun]) -> None:
    """Delta_lambda(A∘P) = P iff PA = P, for rank-one projections P = x⊗x.

    Direction (a) corrects a random A so that A*x = x (hence PA = P) and
    demands agreement; direction (b) draws a generic A and demands both sides
    of the biconditional carry the same truth value under slack.
    """
    n, tol = runs[0].dim, runs[0].tol
    x = _unit_vectors(_rngs(runs), n)
    p = _outer(x, x)

    # (a) constructive: A = (A0* + (x - A0* x)⊗x)* satisfies A* x = x.
    a0h = _star(_ginibres(runs))
    a = _star(a0h + _outer(x - _matvec(a0h, x), x))
    d = _aluthge(runs, _jordan(a, p))
    residual = _norms(d - p)
    slack = tol.eq_abs * (1.0 + _norms(a))
    failed = (residual > slack) | (_norms(p @ a - p) > slack)
    _observe(runs, residual, failed, direction="satisfying", x=x, A=a)

    # (b) generic: both sides of the iff must agree.
    def generic(live, idx):
        b = _ginibres(live)
        pb = p[idx]
        slack_b = tol.eq_abs * (1.0 + _norms(b))
        r_delta = _norms(_aluthge(runs, _jordan(b, pb)) - pb)
        r_pa = _norms(pb @ b - pb)
        informative = ~_in_dead_band(slack_b, r_delta, r_pa)
        agree = (r_delta <= slack_b) == (r_pa <= slack_b)
        _observe(live, np.minimum(r_delta, r_pa), ~agree, informative, direction="generic", x=x[idx], A=b)
        return informative

    _redraw(runs, generic)


@_check("scalar_projection")
def scalar_projection(runs: list[_CheckRun]) -> None:
    """Delta_lambda(A∘P) = A iff A = alpha P, for rank-one projections P."""
    n, tol = runs[0].dim, runs[0].tol
    x = _unit_vectors(_rngs(runs), n)
    p = _outer(x, x)

    alpha = _complex_gaussians(_rngs(runs), 1)[:, 0].tolist()
    a = np.array(alpha)[:, None, None] * p
    residual = _norms(_aluthge(runs, _jordan(a, p)) - a)
    # Python's abs of each complex: np.abs of a complex array rounds otherwise.
    slack = tol.eq_abs * (1.0 + np.array([abs(c) for c in alpha]))
    parts = [[c.real, c.imag] for c in alpha]
    _observe(runs, residual, residual > slack, direction="satisfying", alpha=parts, x=x)

    def generic(live, idx):
        b = _ginibres(live)
        slack_b = tol.eq_abs * (1.0 + _norms(b))
        r = _norms(_aluthge(runs, _jordan(b, p[idx])) - b)
        informative = ~_in_dead_band(slack_b, r)
        _observe(live, r, r <= slack_b, informative, direction="generic", x=x[idx], A=b)
        return informative

    _redraw(runs, generic)


@_check("square_identity")
def square_identity(runs: list[_CheckRun]) -> None:
    """Delta_lambda(T^2) = T iff T = I, over well-conditioned invertible T.

    The identity passes (trial 0's satisfying part); generic invertible T must
    refute. If a sampled T ever satisfies the equation within slack, the
    injective-case implication T^2 = T* is asserted as well.
    """
    n, tol = runs[0].dim, runs[0].tol
    eye = np.eye(n)
    if runs[0].trial == 0:
        r_eye = frobenius(_aluthge(runs, eye[None])[0] - eye)
        runs[0].observe(r_eye, r_eye > tol.eq_abs, direction="identity")

    def generic(live, idx):
        m = _conditioned(live)
        slack = tol.eq_abs * (1.0 + _norms(m))
        mm = m @ m
        r = _norms(_aluthge(runs, mm) - m)
        # Only T = I may land within slack; then T^2 = T* must hold too.
        bad = (r <= slack) & ((_norms(mm - _star(m)) > slack) | (_norms(m - eye) > slack))
        informative = ~_in_dead_band(slack, r)
        _observe(live, r, bad, informative, T=m)
        return informative

    _redraw(runs, generic)


@_check("selfadjoint_lemmas")
def selfadjoint_lemmas(runs: list[_CheckRun]) -> None:
    """Self-adjointness rigidity, both flavors.

    selfadjoint_injective:   Delta(S) = S*  forces S = S*  (S, S* injective);
    selfadjoint_quasinormal: Delta(S*) = S  forces S = S*  (S quasi-normal).
    Hermitian draws must satisfy both equalities; non-Hermitian invertible
    draws must refute the first, normal non-Hermitian draws the second.
    """
    n, tol = runs[0].dim, runs[0].tol
    g = _ginibres(runs)
    s = (g + _star(g)) / 2.0
    r_fwd = _norms(_aluthge(runs, s) - _star(s))
    slack = tol.eq_abs * (1.0 + _norms(s))
    _observe(runs, r_fwd, r_fwd > slack, part="hermitian", S=s)

    # Injective flavor: non-Hermitian invertible S refutes Delta(S) = S*.
    def injective(live, idx):
        m = _conditioned(live)
        slack_m = tol.eq_abs * (1.0 + _norms(m))
        hermitian = _norms(m - _star(m)) <= REFUTE_FACTOR * slack_m
        r = _norms(_aluthge(runs, m) - _star(m))
        informative = ~hermitian & ~_in_dead_band(slack_m, r)
        _observe(live, r, r <= slack_m, informative, part="injective", S=m)
        return informative

    _redraw(runs, injective)

    # Quasi-normal flavor: normal non-Hermitian S refutes Delta(S*) = S.
    u = _unitaries(runs)
    d = _complex_gaussians(_rngs(runs), n)
    im = np.where(np.abs(d.imag) < 0.3, np.copysign(np.abs(d.imag) + 0.3, d.imag), d.imag)
    q = _normal(u, d.real + 1j * im)
    slack_q = tol.eq_abs * (1.0 + _norms(q))
    r_qn = _norms(_aluthge(runs, _star(q)) - q)
    _observe(runs, r_qn, r_qn <= REFUTE_FACTOR * slack_q, part="quasinormal", S=q)


@_check("nilpotent_kernel", domain=HALF_OPEN)
def nilpotent_kernel(runs: list[_CheckRun]) -> None:
    """Delta_lambda(T) = 0 iff T^2 = 0, both directions sampled."""
    n, tol = runs[0].dim, runs[0].tol
    t = _nilpotents_sq_zero(_rngs(runs), n)
    if (_norms(t @ t) > 1e-12 * (1.0 + _squares(_norms(t)))).any():
        raise AssertionError("square-zero generator self-test failed")
    r_zero = _norms(_aluthge(runs, t))
    slack = tol.eq_abs * (1.0 + _norms(t))
    _observe(runs, r_zero, r_zero > slack, direction="square_zero", T=t)

    def generic(live, idx):
        g = _ginibres(live)
        informative = _norms(g @ g) > 1e-3
        r = _norms(_aluthge(runs, g))
        _observe(live, r, r <= 1e-5, informative, direction="generic", T=g)
        return informative

    _redraw(runs, generic)


@_check("spectrum_invariance", domain=CLOSED)
def spectrum_invariance(runs: list[_CheckRun]) -> None:
    """sigma(Delta_lambda(T)) matches sigma(T) as a multiset, lambda in [0,1]."""
    m = _ginibres(runs)
    ev = np.linalg.eigvals(np.concatenate([m, _aluthge(runs, m)]))
    ev_m, ev_d = ev[: len(m)], ev[len(m) :]
    dist = np.array([spectra_pairing_distance(_sorted_spectrum(a), _sorted_spectrum(b)) for a, b in zip(ev_m, ev_d)])
    bound = 1e-7 * (1.0 + _norms(m))
    _observe(runs, dist, dist > bound, T=m)
