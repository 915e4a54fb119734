"""Candidate matrix maps and desk-scale verification of the main rigidity
facts: unitary conjugation commutes with the Aluthge transform through Jordan
and star-Jordan products and preserves all the structural sets; the adjoint
form is falsified by an explicit rank-one counterexample, and scaling by any
c != 1 breaks the condition already at A = B = I.

``CHECKS`` is the registry of every check ``aluthge verify`` runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .generators import (
    GeneratorSpec,
    ginibre,
    haar_unitary,
    normal_matrix,
    unit_vector,
)
from .lemmas import (
    OPEN,
    Check,
    CheckRun,
    check,
    in_dead_band,
    lambda_admitted,
    nilpotent_kernel,
    projection_absorb,
    rank_one_formula,
    run_check,
    scalar_projection,
    selfadjoint_lemmas,
    spectrum_invariance,
    square_identity,
)
from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    frobenius,
    inner,
    is_projection,
    jordan_product,
    rank_one,
    validate_matrix,
)
from .reporting import CheckReport
from .transform import aluthge

__all__ = [
    "CandidateMap",
    "apply_map",
    "check_jordan_condition",
    "check_star_jordan_condition",
    "check_structural_properties",
    "check_vector_state_identity",
    "adjoint_counterexample",
    "CounterexampleResult",
    "MAP_KINDS",
    "CHECKS",
]

MAP_KINDS = ("unitary_conj", "adjoint_conj", "scaled_unitary_conj")


@dataclass(frozen=True)
class CandidateMap:
    """A structured bijective map on square matrices.

    kind    : unitary_conj A -> UAU*, adjoint_conj A -> UA*U*,
              scaled_unitary_conj A -> scale * UAU*
    unitary : the conjugating unitary; None means "draw a fresh Haar unitary
              from each trial's RNG stream" in the randomized checks
    scale   : only meaningful for scaled_unitary_conj
    """

    kind: str
    unitary: np.ndarray | None = None
    scale: complex = 1.0

    def __post_init__(self) -> None:
        if self.kind not in MAP_KINDS:
            raise ValueError(f"unknown map kind {self.kind!r}")
        if self.unitary is not None:
            u = validate_matrix(self.unitary, square=True)
            defect = frobenius(u.conj().T @ u - np.eye(u.shape[0]))
            if defect > 1e-12 * u.shape[0]:
                raise ValueError(f"conjugating matrix is not unitary (defect {defect:.3e})")
            object.__setattr__(self, "unitary", u)

    def resolved(self, dim: int, rng: np.random.Generator) -> "CandidateMap":
        """Concrete map for one trial: a fresh unitary if none is pinned."""
        u = self.unitary if self.unitary is not None else haar_unitary(rng, dim)
        if u.shape[0] != dim:
            raise ValueError(f"unitary dimension {u.shape[0]} does not match {dim}")
        return CandidateMap(kind=self.kind, unitary=u, scale=self.scale)


def apply_map(phi: CandidateMap, a) -> np.ndarray:
    """Evaluate the candidate map on a square matrix."""
    a = validate_matrix(a, square=True)
    if phi.unitary is None:
        raise ValueError("cannot apply an unresolved map (unitary is None)")
    u = phi.unitary
    if a.shape != u.shape:
        raise ValueError(f"dimension mismatch: map is {u.shape}, input is {a.shape}")
    uh = u.conj().T
    if phi.kind == "unitary_conj":
        return u @ a @ uh
    if phi.kind == "adjoint_conj":
        return u @ a.conj().T @ uh
    return phi.scale * (u @ a @ uh)


def _condition_residual(phi, a, b, lam, tol, star: bool) -> tuple[float, float, float]:
    """Residual of the (star-)Jordan commuting condition plus both side norms."""
    bb = b.conj().T if star else b
    pb = apply_map(phi, b)
    pb = pb.conj().T if star else pb
    lhs = aluthge(jordan_product(apply_map(phi, a), pb), lam, tol)
    rhs = apply_map(phi, aluthge(jordan_product(a, bb), lam, tol))
    return frobenius(lhs - rhs), frobenius(lhs), frobenius(rhs)


def _condition_check(phi: CandidateMap, star: bool, expect: str) -> Check:
    """Delta_lambda(Phi(A)∘Phi(B)) = Phi(Delta_lambda(A∘B)), or its star form
    with B* in place of B, on random pairs; a fresh Haar U per trial unless
    ``phi`` pins one."""
    if expect not in ("pass", "fail"):
        raise ValueError(f"expect must be 'pass' or 'fail', got {expect!r}")

    def trial(run: CheckRun) -> None:
        resolved = phi.resolved(run.dim, run.rng)

        def draw():
            a = ginibre(run.rng, run.dim)
            b = ginibre(run.rng, run.dim)
            residual, lhs_n, rhs_n = _condition_residual(resolved, a, b, run.lam, run.tol, star)
            slack = run.tol.fix_rel * (1.0 + frobenius(a) * frobenius(b))
            if expect == "pass":
                run.observe(residual, residual > slack, A=a, B=b)
                return True
            # Expected falsification. Trials where both sides vanish carry no
            # information; dead-band residuals are redrawn.
            if max(lhs_n, rhs_n) <= slack or in_dead_band(slack, residual):
                return False
            run.observe(residual, residual <= slack, A=a, B=b)
            return True

        run.redraw(draw)

    return Check(f"{'star_' if star else ''}jordan_condition_{phi.kind}", trial)


def check_jordan_condition(
    phi: CandidateMap,
    lam: float,
    spec: GeneratorSpec,
    trials: int,
    tol: Tolerances = DEFAULT_TOL,
    expect: str = "pass",
) -> CheckReport:
    """Delta_lambda(Phi(A)∘Phi(B)) = Phi(Delta_lambda(A∘B)) on random pairs.

    ``expect="pass"`` (unitary conjugation) counts residuals above slack as
    failures; ``expect="fail"`` (adjoint / scaled competitors) counts trials
    where the condition unexpectedly holds.
    """
    return run_check(_condition_check(phi, star=False, expect=expect), spec, lam, trials, tol)


def check_star_jordan_condition(
    phi: CandidateMap,
    lam: float,
    spec: GeneratorSpec,
    trials: int,
    tol: Tolerances = DEFAULT_TOL,
    expect: str = "pass",
) -> CheckReport:
    """Delta_lambda(Phi(A)∘Phi(B)*) = Phi(Delta_lambda(A∘B*)) on random pairs."""
    return run_check(_condition_check(phi, star=True, expect=expect), spec, lam, trials, tol)


def _structural_check(phi: CandidateMap) -> Check:
    if phi.kind != "unitary_conj":
        raise ValueError("structural properties are asserted for unitary conjugation only")

    def trial(run: CheckRun) -> None:
        rng, n, lam, tol = run.rng, run.dim, run.lam, run.tol
        resolved = phi.resolved(n, rng)

        # Random frame; disjoint column blocks give orthogonal projections,
        # nested leading blocks give ordered ones.
        w = haar_unitary(rng, n)
        k = int(rng.integers(1, n))
        j = int(rng.integers(1, k + 1))
        m = int(rng.integers(1, n - k + 1))
        p = w[:, :k] @ w[:, :k].conj().T
        q_nested = w[:, :j] @ w[:, :j].conj().T
        q_orth = w[:, k : k + m] @ w[:, k : k + m].conj().T

        fp, fq_nested, fq_orth = (apply_map(resolved, z) for z in (p, q_nested, q_orth))
        slack = tol.fix_rel

        a = ginibre(rng, n)
        r_commute = frobenius(aluthge(apply_map(resolved, a), lam, tol) - apply_map(resolved, aluthge(a, lam, tol)))
        bad = r_commute > slack * (1.0 + frobenius(a))

        nm = normal_matrix(rng, n)
        fnm = apply_map(resolved, nm)
        r_square = frobenius(apply_map(resolved, nm @ nm) - fnm @ fnm)
        bad |= r_square > slack * (1.0 + frobenius(nm) ** 2)

        bad |= not is_projection(fp, tol)
        bad |= frobenius(fp @ fq_orth) > slack or frobenius(fq_orth @ fp) > slack
        bad |= frobenius(jordan_product(fp, fq_nested) - fq_nested) > slack
        bad |= frobenius(apply_map(resolved, p + q_orth) - (fp + fq_orth)) > slack

        x = unit_vector(rng, n)
        f_rank1 = apply_map(resolved, np.outer(x, x.conj()))
        bad |= not is_projection(f_rank1, tol) or abs(np.trace(f_rank1) - 1.0) > slack

        g = ginibre(rng, n)
        h = (g + g.conj().T) / 2.0
        fh = apply_map(resolved, h)
        bad |= frobenius(fh - fh.conj().T) > slack * (1.0 + frobenius(h))

        run.observe(max(r_commute, r_square), bad, U=resolved.unitary, ranks=[k, j, m])

    return Check("structural_properties", trial)


def check_structural_properties(
    phi: CandidateMap,
    lam: float,
    spec: GeneratorSpec,
    trials: int,
    tol: Tolerances = DEFAULT_TOL,
) -> CheckReport:
    """Structural preservation under unitary conjugation.

    Per trial: (i) the map commutes with the transform, (ii) squares of normal
    matrices map to squares, (iii) projections to projections, (iv) orthogonal
    projection pairs stay orthogonal, (v) nested projections stay nested,
    (vi) additivity on orthogonal projections, (vii) rank-one projections to
    rank-one projections, plus preservation of self-adjointness.
    """
    return run_check(_structural_check(phi), spec, lam, trials, tol)


def _vector_state_check(phi: CandidateMap) -> Check:
    if phi.kind != "unitary_conj":
        raise ValueError("the vector-state identity is asserted for unitary conjugation only")

    def trial(run: CheckRun) -> None:
        resolved = phi.resolved(run.dim, run.rng)
        a = ginibre(run.rng, run.dim)
        x = unit_vector(run.rng, run.dim)
        y = resolved.unitary @ x
        deviation = abs(inner(apply_map(resolved, a) @ y, y) - inner(a @ x, x))
        slack = run.tol.eq_abs * (1.0 + frobenius(a))
        run.observe(deviation, deviation > slack, A=a, x=x)

    # The identity involves no transform, so it has no lambda domain.
    return Check("vector_state_identity", trial, domain=None)


def check_vector_state_identity(
    phi: CandidateMap, spec: GeneratorSpec, trials: int, tol: Tolerances = DEFAULT_TOL
) -> CheckReport:
    """<Phi(A) Ux, Ux> = <Ax, x> for unitary conjugation: matrix elements at
    corresponding unit vectors (hence sampled numerical-range points) agree."""
    return run_check(_vector_state_check(phi), spec, 0.0, trials, tol)


@dataclass(frozen=True)
class CounterexampleResult:
    """Both sides of Delta(A*) vs Delta(A)* for A = x⊗x', plus residuals."""

    residual: float
    closed_form_residual: float
    delta_of_adjoint: np.ndarray
    adjoint_of_delta: np.ndarray


def adjoint_counterexample(lam: float, x, xprime, tol: Tolerances = DEFAULT_TOL) -> CounterexampleResult:
    """Spectral-norm gap between Delta_lambda(A*) and (Delta_lambda(A))* for
    the rank-one A = x⊗x' built from unit, independent, non-orthogonal x, x'.

    The closed form |<x,x'>| * ||x'⊗x' - x⊗x||_2 = |c| sqrt(1 - |c|^2) with
    c = <x,x'> is returned alongside the decomposition-path residual.
    """
    if not lambda_admitted(lam, OPEN):
        raise ValueError(f"lambda must lie in {OPEN}, got {lam!r}")
    x = np.asarray(x, dtype=np.complex128).ravel()
    xprime = np.asarray(xprime, dtype=np.complex128).ravel()
    if abs(np.linalg.norm(x) - 1.0) > 1e-9 or abs(np.linalg.norm(xprime) - 1.0) > 1e-9:
        raise ValueError("x and x' must be unit vectors")
    c = inner(x, xprime)
    if abs(c) <= 1e-9:
        raise ValueError("x and x' must be non-orthogonal")
    if 1.0 - abs(c) <= 1e-9:
        raise ValueError("x and x' must be linearly independent")
    a = rank_one(x, xprime)
    delta_of_adjoint = aluthge(a.conj().T, lam, tol)
    adjoint_of_delta = aluthge(a, lam, tol).conj().T
    residual = float(np.linalg.norm(delta_of_adjoint - adjoint_of_delta, 2))
    closed = abs(c) * float(np.sqrt(max(0.0, 1.0 - abs(c) ** 2)))
    return CounterexampleResult(
        residual=residual,
        closed_form_residual=closed,
        delta_of_adjoint=delta_of_adjoint,
        adjoint_of_delta=adjoint_of_delta,
    )


@check("adjoint_counterexample")
def _adjoint_counterexample_check(run: CheckRun) -> None:
    """Random (x, x') witnesses: the decomposition-path gap between
    Delta(A*) and Delta(A)* must be positive and match the closed form."""
    while True:
        x = unit_vector(run.rng, run.dim)
        xp = unit_vector(run.rng, run.dim)
        if 0.05 <= abs(np.vdot(xp, x)) <= 0.95:
            break
    result = adjoint_counterexample(run.lam, x, xp, run.tol)
    mismatch = abs(result.residual - result.closed_form_residual)
    run.observe(mismatch, mismatch > 1e-10 or result.residual <= 0.0, x=x, xprime=xp)


# Keyed by the CLI id, which also names the report file. For the five
# condition checks the record's ``id`` (report check_id and RNG stream name)
# differs from it, e.g. jordan_condition_unitary_conj.
CHECKS: dict[str, Check] = {
    "rank_one_formula": rank_one_formula,
    "projection_absorb": projection_absorb,
    "scalar_projection": scalar_projection,
    "square_identity": square_identity,
    "selfadjoint_lemmas": selfadjoint_lemmas,
    "nilpotent_kernel": nilpotent_kernel,
    "spectrum_invariance": spectrum_invariance,
    "jordan_condition_unitary": _condition_check(CandidateMap("unitary_conj"), star=False, expect="pass"),
    "jordan_condition_adjoint": _condition_check(CandidateMap("adjoint_conj"), star=False, expect="fail"),
    "jordan_condition_scaled": _condition_check(
        CandidateMap("scaled_unitary_conj", scale=2.0), star=False, expect="fail"
    ),
    "star_jordan_condition_unitary": _condition_check(CandidateMap("unitary_conj"), star=True, expect="pass"),
    "star_jordan_condition_adjoint": _condition_check(CandidateMap("adjoint_conj"), star=True, expect="fail"),
    "structural_properties": _structural_check(CandidateMap("unitary_conj")),
    "vector_state_identity": _vector_state_check(CandidateMap("unitary_conj")),
    "adjoint_counterexample": _adjoint_counterexample_check,
}
