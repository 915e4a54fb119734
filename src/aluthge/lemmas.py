"""The check driver, and randomized, seeded checks for the rank-one /
projection / self-adjointness / kernel / spectrum facts about the
lambda-Aluthge transform.

A check is a ``Check`` record: an id, the lambda domain it is stated on and a
function that runs a block of trials, holding only the mathematics.
``run_check`` owns what every check shares:

* trial t draws from the stream (seed, crc32(check id), dim, t), so reports
  are reproducible and order-independent;
* the trials run in blocks: a check's function gets one ``_Block`` (the run's
  parameters, the block's trial indices and their streams), draws each
  trial's matrices from that trial's stream, in the trial's order, and takes
  each step of the mathematics (products, maps, transforms, norms, slacks)
  for the whole block as one stacked call. Every stacked call treats each
  matrix alone, bit for bit as a call on that matrix would, so a report does
  not depend on the blocking;
* "iff" statements are exercised in BOTH directions: a constructive
  satisfying instance must land within the equality slack, and a generic
  refuting instance must land above 10x the slack. Residuals falling in the
  dead band between the two are discarded and redrawn (tallied as vacuous),
  by ``_redraw`` for the trials of a block that drew them;
* ``_observe`` appends a block's outcomes to it as arrays, and the driver
  folds each block with array operations: failures are counted per trial,
  and the witness is the outcome with the largest (failed, residual), ties
  going to the lowest trial, then the earliest record. Only the kept witness
  is encoded for the report;
* the report is a JSON-ready dict, built in one place.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import asdict, dataclass

import numpy as np

from .generators import (
    _complex_gaussians,
    _draw_until,
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
    _pairing_distances,
    _sorted_spectrum,
    _squares,
    _star,
    lambda_admitted,
)
from .matrixio import matrix_to_obj, vector_payload
from .transform import _aluthge_rank_ones, aluthge_stack

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
    block  : runs a block of trials, given as one ``_Block`` (the run's
             ``dim``, ``lam`` and ``tol``, the block's ``trials`` and their
             ``rngs``), and records their outcomes with ``_observe(blk,
             ...)``. Each trial draws only from its own stream, in a fixed
             order, and each step of the mathematics runs once for the block
             on stacks, through calls that treat every matrix alone:
             ``aluthge_stack`` (by ``_aluthge``), ``_aluthge_rank_ones``,
             ``_phase_fixed_q``, ``np.linalg.svd``, ``np.linalg.eigvals``,
             ``_pairing_distances``, batched ``@``, ``_norms`` and
             ``_inners``. So what a trial records does not depend on the
             rest of its block. Draws that may be vacuous go through
             ``_redraw``, draws kept only if they meet a condition through
             ``_draw_until``.
    domain : lambda interval the check is stated on, OPEN, HALF_OPEN or
             CLOSED; None for a check that does not use lambda, whose
             report records lambda as 0.0
    """

    id: str
    block: Callable[["_Block"], None]
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


class _Block:
    """A block of trials of one check run, handed to the check's function.

    ``dim``, ``lam`` and ``tol`` are the run's parameters, ``trials`` the
    block's trial indices (an int array) and ``rngs`` their streams, in that
    order. ``_observe`` appends outcomes to ``records`` and ``_redraw`` counts
    vacuous draws in ``vacuous``; a sub-block taken with ``take`` records into
    the whole block's.
    """

    def __init__(self, dim: int, lam: float, tol: Tolerances, trials: np.ndarray, rngs: list, root=None) -> None:
        self.dim, self.lam, self.tol = dim, lam, tol
        self.trials = trials
        self.rngs = rngs
        self.root = self if root is None else root
        self.records: list[tuple] = []
        self.vacuous = 0

    def __len__(self) -> int:
        return len(self.trials)

    def take(self, idx) -> _Block:
        """The sub-block of the trials at positions ``idx`` of this one."""
        return _Block(self.dim, self.lam, self.tol, self.trials[idx], [self.rngs[i] for i in idx], self.root)


def _observe(blk: _Block, residual, failed, where=None, **witness) -> None:
    """Record one outcome, ``residual[i]`` and ``failed[i]``, for each trial i
    of a block, or each i where the boolean array ``where`` holds, as one
    record: the kept rows' trial indices, residuals and failed flags, their
    positions i, and the witness fields. A str witness field is shared by
    all trials; any other is a list or array of one value per trial, kept
    whole until the report picks its witness. A call that keeps no row
    records nothing, so that its witness columns are freed."""
    rows = np.arange(len(blk)) if where is None else np.flatnonzero(where)
    if rows.size:
        residual = np.asarray(residual, dtype=float)[rows]
        blk.root.records.append((blk.trials[rows], residual, np.asarray(failed, dtype=bool)[rows], rows, witness))


def _redraw(blk: _Block, draw: Callable[[_Block, np.ndarray], np.ndarray]) -> None:
    """Draw until every trial of a block has one informative draw.

    ``draw(live, idx)`` makes one draw for each trial of ``live``, the
    sub-block ``blk.take(idx)``, records the outcomes of the informative draws
    and returns a boolean array marking them. The other trials drew vacuously
    and draw again; after MAX_REDRAWS vacuous draws a trial records nothing."""
    idx = np.arange(len(blk))
    for _ in range(MAX_REDRAWS):
        if not idx.size:
            return
        idx = idx[~draw(blk.take(idx), idx)]
        blk.root.vacuous += idx.size


def _ginibres(blk: _Block) -> np.ndarray:
    """One Ginibre matrix per trial, from its own stream, stacked."""
    return _complex_gaussians(blk.rngs, blk.dim, blk.dim)


def _unitaries(blk: _Block) -> np.ndarray:
    """One Haar unitary per trial, the phase-fixed Q of its Ginibre draw,
    from one stacked QR."""
    return _phase_fixed_q(_ginibres(blk))


def _conditioned(blk: _Block) -> np.ndarray:
    """One Ginibre matrix per trial, the first from its stream with sigma_min
    >= MIN_CONDITION * sigma_max; each round's singular values come from one
    stacked SVD."""

    def draw(rngs):
        m = _complex_gaussians(rngs, blk.dim, blk.dim)
        s = np.linalg.svd(m, compute_uv=False)
        return (m,), s[:, -1] >= MIN_CONDITION * s[:, 0]

    return _draw_until(blk.rngs, draw)[0]


def _aluthge(blk: _Block, t: np.ndarray) -> np.ndarray:
    """The lambda-Aluthge transforms of a stack at the run's lambda and
    tolerances."""
    return aluthge_stack(t, blk.lam, blk.tol)


def run_check(
    check: Check, dim: int, seed: int, lam: float, trials: int, tol: Tolerances = DEFAULT_TOL
) -> dict:
    """Run ``trials`` trials of ``check`` at dimension ``dim`` >= 2 from ``seed``.

    Trials run in blocks of at most STACK_ENTRIES // dim^2, each block by one
    call of the check's block function; every trial draws only from its own
    stream, so the report does not depend on the blocking. The witness is the
    outcome with the largest (failed, residual); ties go to the lowest trial,
    then the earliest record.

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
    witness: tuple[int, dict, int] | None = None
    witness_key: tuple[bool, float] | None = None
    for start in range(0, trials, block):
        stop = min(start + block, trials)
        blk = _Block(dim, lam, tol, np.arange(start, stop), _trial_rngs(seed, key, dim, start, stop))
        check.block(blk)
        vacuous += blk.vacuous
        if not blk.records:
            continue
        trial, residual, failed, rows = (np.concatenate([r[i] for r in blk.records]) for i in range(4))
        record = np.repeat(np.arange(len(blk.records)), [len(r[0]) for r in blk.records])
        failures += int(np.count_nonzero(np.bincount(trial[failed] - start)))
        worst = max(worst, float(residual.max()))
        # lexsort's last key is its first: failing, largest residual, lowest trial, earliest record.
        best = np.lexsort((record, trial, -residual, ~failed))[0]
        best_key = (bool(failed[best]), float(residual[best]))
        if witness is None or best_key > witness_key:
            witness, witness_key = (int(trial[best]), blk.records[record[best]][4], int(rows[best])), best_key
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
        trial, fields, row = witness
        report["witness"] = {
            "trial": trial,
            **{name: _payload(value if isinstance(value, str) else value[row]) for name, value in fields.items()},
        }
    return report


@_check("rank_one_formula")
def rank_one_formula(blk: _Block) -> None:
    """Delta_lambda(x⊗y) equals (<x,y>/||y||^2)(y⊗y) on random vector pairs."""
    n, tol = blk.dim, blk.tol
    x = _complex_gaussians(blk.rngs, n)
    y = _complex_gaussians(blk.rngs, n)
    residual = _norms(_aluthge(blk, _outer(x, y)) - _aluthge_rank_ones(x, y))
    slack = tol.eq_abs * (1.0 + _norms(x) * _norms(y))
    _observe(blk, residual, residual > slack, x=x, y=y)


@_check("projection_absorb")
def projection_absorb(blk: _Block) -> None:
    """Delta_lambda(A∘P) = P iff PA = P, for rank-one projections P = x⊗x.

    Direction (a) corrects a random A so that A*x = x (hence PA = P) and
    demands agreement; direction (b) draws a generic A and demands both sides
    of the biconditional carry the same truth value under slack.
    """
    n, tol = blk.dim, blk.tol
    x = _unit_vectors(blk.rngs, n)
    p = _outer(x, x)

    # (a) constructive: A = (A0* + (x - A0* x)⊗x)* satisfies A* x = x.
    a0h = _star(_ginibres(blk))
    a = _star(a0h + _outer(x - _matvec(a0h, x), x))
    d = _aluthge(blk, _jordan(a, p))
    residual = _norms(d - p)
    slack = tol.eq_abs * (1.0 + _norms(a))
    failed = (residual > slack) | (_norms(p @ a - p) > slack)
    _observe(blk, residual, failed, direction="satisfying", x=x, A=a)

    # (b) generic: both sides of the iff must agree.
    def generic(live, idx):
        b = _ginibres(live)
        pb = p[idx]
        slack_b = tol.eq_abs * (1.0 + _norms(b))
        r_delta = _norms(_aluthge(blk, _jordan(b, pb)) - pb)
        r_pa = _norms(pb @ b - pb)
        informative = ~_in_dead_band(slack_b, r_delta, r_pa)
        agree = (r_delta <= slack_b) == (r_pa <= slack_b)
        _observe(live, np.minimum(r_delta, r_pa), ~agree, informative, direction="generic", x=x[idx], A=b)
        return informative

    _redraw(blk, generic)


@_check("scalar_projection")
def scalar_projection(blk: _Block) -> None:
    """Delta_lambda(A∘P) = A iff A = alpha P, for rank-one projections P."""
    n, tol = blk.dim, blk.tol
    x = _unit_vectors(blk.rngs, n)
    p = _outer(x, x)

    alpha = _complex_gaussians(blk.rngs, 1)[:, 0].tolist()
    a = np.array(alpha)[:, None, None] * p
    residual = _norms(_aluthge(blk, _jordan(a, p)) - a)
    # Python's abs of each complex: np.abs of a complex array rounds otherwise.
    slack = tol.eq_abs * (1.0 + np.array([abs(c) for c in alpha]))
    parts = [[c.real, c.imag] for c in alpha]
    _observe(blk, residual, residual > slack, direction="satisfying", alpha=parts, x=x)

    def generic(live, idx):
        b = _ginibres(live)
        slack_b = tol.eq_abs * (1.0 + _norms(b))
        r = _norms(_aluthge(blk, _jordan(b, p[idx])) - b)
        informative = ~_in_dead_band(slack_b, r)
        _observe(live, r, r <= slack_b, informative, direction="generic", x=x[idx], A=b)
        return informative

    _redraw(blk, generic)


@_check("square_identity")
def square_identity(blk: _Block) -> None:
    """Delta_lambda(T^2) = T iff T = I, over well-conditioned invertible T.

    The identity passes (trial 0's satisfying part); generic invertible T must
    refute. If a sampled T ever satisfies the equation within slack, the
    injective-case implication T^2 = T* is asserted as well.
    """
    n, tol = blk.dim, blk.tol
    eye = np.eye(n)
    if blk.trials[0] == 0:
        r_eye = _norms(_aluthge(blk, eye[None]) - eye)
        _observe(blk.take([0]), r_eye, r_eye > tol.eq_abs, direction="identity")

    def generic(live, idx):
        m = _conditioned(live)
        slack = tol.eq_abs * (1.0 + _norms(m))
        mm = m @ m
        r = _norms(_aluthge(blk, mm) - m)
        # Only T = I may land within slack; then T^2 = T* must hold too.
        bad = (r <= slack) & ((_norms(mm - _star(m)) > slack) | (_norms(m - eye) > slack))
        informative = ~_in_dead_band(slack, r)
        _observe(live, r, bad, informative, T=m)
        return informative

    _redraw(blk, generic)


@_check("selfadjoint_lemmas")
def selfadjoint_lemmas(blk: _Block) -> None:
    """Self-adjointness rigidity, both flavors.

    selfadjoint_injective:   Delta(S) = S*  forces S = S*  (S, S* injective);
    selfadjoint_quasinormal: Delta(S*) = S  forces S = S*  (S quasi-normal).
    Hermitian draws must satisfy both equalities; non-Hermitian invertible
    draws must refute the first, normal non-Hermitian draws the second.
    """
    n, tol = blk.dim, blk.tol
    g = _ginibres(blk)
    s = (g + _star(g)) / 2.0
    r_fwd = _norms(_aluthge(blk, s) - _star(s))
    slack = tol.eq_abs * (1.0 + _norms(s))
    _observe(blk, r_fwd, r_fwd > slack, part="hermitian", S=s)

    # Injective flavor: non-Hermitian invertible S refutes Delta(S) = S*.
    def injective(live, idx):
        m = _conditioned(live)
        slack_m = tol.eq_abs * (1.0 + _norms(m))
        hermitian = _norms(m - _star(m)) <= REFUTE_FACTOR * slack_m
        r = _norms(_aluthge(blk, m) - _star(m))
        informative = ~hermitian & ~_in_dead_band(slack_m, r)
        _observe(live, r, r <= slack_m, informative, part="injective", S=m)
        return informative

    _redraw(blk, injective)

    # Quasi-normal flavor: normal non-Hermitian S refutes Delta(S*) = S.
    u = _unitaries(blk)
    d = _complex_gaussians(blk.rngs, n)
    im = np.where(np.abs(d.imag) < 0.3, np.copysign(np.abs(d.imag) + 0.3, d.imag), d.imag)
    q = _normal(u, d.real + 1j * im)
    slack_q = tol.eq_abs * (1.0 + _norms(q))
    r_qn = _norms(_aluthge(blk, _star(q)) - q)
    _observe(blk, r_qn, r_qn <= REFUTE_FACTOR * slack_q, part="quasinormal", S=q)


@_check("nilpotent_kernel", domain=HALF_OPEN)
def nilpotent_kernel(blk: _Block) -> None:
    """Delta_lambda(T) = 0 iff T^2 = 0, both directions sampled."""
    n, tol = blk.dim, blk.tol
    t = _nilpotents_sq_zero(blk.rngs, n)
    if (_norms(t @ t) > 1e-12 * (1.0 + _squares(_norms(t)))).any():
        raise AssertionError("square-zero generator self-test failed")
    r_zero = _norms(_aluthge(blk, t))
    slack = tol.eq_abs * (1.0 + _norms(t))
    _observe(blk, r_zero, r_zero > slack, direction="square_zero", T=t)

    def generic(live, idx):
        g = _ginibres(live)
        informative = _norms(g @ g) > 1e-3
        r = _norms(_aluthge(blk, g))
        _observe(live, r, r <= 1e-5, informative, direction="generic", T=g)
        return informative

    _redraw(blk, generic)


@_check("spectrum_invariance", domain=CLOSED)
def spectrum_invariance(blk: _Block) -> None:
    """sigma(Delta_lambda(T)) matches sigma(T) as a multiset, lambda in [0,1]."""
    m = _ginibres(blk)
    ev = _sorted_spectrum(np.linalg.eigvals(np.concatenate([m, _aluthge(blk, m)])))
    dist = _pairing_distances(ev[: len(m)], ev[len(m) :])
    bound = 1e-7 * (1.0 + _norms(m))
    _observe(blk, dist, dist > bound, T=m)
