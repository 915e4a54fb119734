"""Candidate matrix maps and desk-scale verification of the main rigidity
facts: unitary conjugation commutes with the Aluthge transform through Jordan
and star-Jordan products and preserves all the structural sets; the adjoint
form is falsified by an explicit rank-one counterexample, and scaling by any
c != 1 breaks the condition already at A = B = I.

``CHECKS`` is the registry of every check ``aluthge verify`` runs, keyed by
each record's id, which is also its CLI id and report file name.
"""

from __future__ import annotations

from collections.abc import Callable, Generator

import numpy as np

from .generators import (
    ginibre,
    haar_unitary,
    normal_matrix,
    unit_vector,
)
from .lemmas import (
    Check,
    _check,
    _CheckRun,
    _in_dead_band,
    nilpotent_kernel,
    projection_absorb,
    rank_one_formula,
    scalar_projection,
    selfadjoint_lemmas,
    spectrum_invariance,
    square_identity,
)
from .linalg import (
    _jordan,
    frobenius,
    inner,
    is_projection,
    rank_one,
)

__all__ = [
    "unitary_conj",
    "adjoint_conj",
    "scaled_conj",
    "condition_check",
    "structural_properties",
    "vector_state_identity",
    "adjoint_counterexample",
    "CHECKS",
]


def unitary_conj(u: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The candidate map A -> UAU*. The caller passes a unitary ``u`` and
    ``a`` as square complex arrays of one shape; neither is validated."""
    return u @ a @ u.conj().T


def adjoint_conj(u: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The candidate map A -> UA*U*, with arguments as for ``unitary_conj``."""
    return u @ a.conj().T @ u.conj().T


def scaled_conj(u: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The candidate map A -> 2UAU*, with arguments as for ``unitary_conj``."""
    return 2.0 * (u @ a @ u.conj().T)


def condition_check(id: str, phi: Callable, star: bool, expect: str) -> Check:
    """Delta_lambda(Phi(A)∘Phi(B)) = Phi(Delta_lambda(A∘B)), or its star form
    with B* in place of B, on random pairs, for Phi = ``phi(U, ·)`` (one of
    the map functions above) with a fresh Haar U per trial.

    ``expect="pass"`` (unitary conjugation) counts residuals above slack as
    failures; ``expect="fail"`` (adjoint / scaled competitors) counts trials
    where the condition unexpectedly holds.
    """
    if expect not in ("pass", "fail"):
        raise ValueError(f"expect must be 'pass' or 'fail', got {expect!r}")

    def trial(run: _CheckRun) -> Generator:
        u = haar_unitary(run.rng, run.dim)

        def draw():
            a = ginibre(run.rng, run.dim)
            b = ginibre(run.rng, run.dim)
            pb = phi(u, b)
            pb, bb = (pb.conj().T, b.conj().T) if star else (pb, b)
            lhs, delta = yield (_jordan(phi(u, a), pb), _jordan(a, bb))
            rhs = phi(u, delta)
            residual = frobenius(lhs - rhs)
            slack = run.tol.fix_rel * (1.0 + frobenius(a) * frobenius(b))
            if expect == "pass":
                run.observe(residual, residual > slack, A=a, B=b)
                return True
            # Expected falsification. Trials where both sides vanish carry no
            # information; dead-band residuals are redrawn.
            if max(frobenius(lhs), frobenius(rhs)) <= slack or _in_dead_band(slack, residual):
                return False
            run.observe(residual, residual <= slack, A=a, B=b)
            return True

        yield from run.redraw(draw)

    return Check(id, trial)


@_check("structural_properties")
def structural_properties(run: _CheckRun) -> Generator:
    """Structural preservation under unitary conjugation.

    Per trial: (i) the map commutes with the transform, (ii) squares of normal
    matrices map to squares, (iii) projections to projections, (iv) orthogonal
    projection pairs stay orthogonal, (v) nested projections stay nested,
    (vi) additivity on orthogonal projections, (vii) rank-one projections to
    rank-one projections, plus preservation of self-adjointness.
    """
    rng, n, tol = run.rng, run.dim, run.tol
    u = haar_unitary(rng, n)

    # Random frame; disjoint column blocks give orthogonal projections,
    # nested leading blocks give ordered ones.
    w = haar_unitary(rng, n)
    k = int(rng.integers(1, n))
    j = int(rng.integers(1, k + 1))
    m = int(rng.integers(1, n - k + 1))
    p = w[:, :k] @ w[:, :k].conj().T
    q_nested = w[:, :j] @ w[:, :j].conj().T
    q_orth = w[:, k : k + m] @ w[:, k : k + m].conj().T

    fp, fq_nested, fq_orth = (unitary_conj(u, z) for z in (p, q_nested, q_orth))
    slack = tol.fix_rel

    a = ginibre(rng, n)
    d_phi_a, d_a = yield (unitary_conj(u, a), a)
    r_commute = frobenius(d_phi_a - unitary_conj(u, d_a))
    bad = r_commute > slack * (1.0 + frobenius(a))

    nm = normal_matrix(rng, n)
    fnm = unitary_conj(u, nm)
    r_square = frobenius(unitary_conj(u, nm @ nm) - fnm @ fnm)
    bad |= r_square > slack * (1.0 + frobenius(nm) ** 2)

    bad |= not is_projection(fp, tol)
    bad |= frobenius(fp @ fq_orth) > slack or frobenius(fq_orth @ fp) > slack
    bad |= frobenius(_jordan(fp, fq_nested) - fq_nested) > slack
    bad |= frobenius(unitary_conj(u, p + q_orth) - (fp + fq_orth)) > slack

    x = unit_vector(rng, n)
    f_rank1 = unitary_conj(u, np.outer(x, x.conj()))
    bad |= not is_projection(f_rank1, tol) or abs(np.trace(f_rank1) - 1.0) > slack

    g = ginibre(rng, n)
    h = (g + g.conj().T) / 2.0
    fh = unitary_conj(u, h)
    bad |= frobenius(fh - fh.conj().T) > slack * (1.0 + frobenius(h))

    run.observe(max(r_commute, r_square), bad, U=u, ranks=[k, j, m])


@_check("vector_state_identity", domain=None)
def vector_state_identity(run: _CheckRun) -> None:
    """<Phi(A) Ux, Ux> = <Ax, x> for unitary conjugation: matrix elements at
    corresponding unit vectors (hence sampled numerical-range points) agree.
    The identity involves no transform, so it has no lambda domain."""
    u = haar_unitary(run.rng, run.dim)
    a = ginibre(run.rng, run.dim)
    x = unit_vector(run.rng, run.dim)
    y = u @ x
    deviation = abs(inner(unitary_conj(u, a) @ y, y) - inner(a @ x, x))
    slack = run.tol.eq_abs * (1.0 + frobenius(a))
    run.observe(deviation, deviation > slack, A=a, x=x)


@_check("adjoint_counterexample")
def adjoint_counterexample(run: _CheckRun) -> Generator:
    """Delta_lambda(A*) != Delta_lambda(A)* for the rank-one A = x⊗x' built
    from random unit, non-orthogonal, independent x, x': the spectral-norm
    gap between the two sides must be positive and match its closed form
    |<x,x'>| * ||x'⊗x' - x⊗x||_2 = |c| sqrt(1 - |c|^2) with c = <x,x'>."""
    while True:
        x = unit_vector(run.rng, run.dim)
        xp = unit_vector(run.rng, run.dim)
        if 0.05 <= abs(np.vdot(xp, x)) <= 0.95:
            break
    a = rank_one(x, xp)
    delta_of_adjoint, delta = yield (a.conj().T, a)
    residual = float(np.linalg.norm(delta_of_adjoint - delta.conj().T, 2))
    c = abs(inner(x, xp))
    closed = c * float(np.sqrt(max(0.0, 1.0 - c**2)))
    mismatch = abs(residual - closed)
    run.observe(mismatch, mismatch > 1e-10 or residual <= 0.0, x=x, xprime=xp)


CHECKS: dict[str, Check] = {
    c.id: c
    for c in (
        rank_one_formula,
        projection_absorb,
        scalar_projection,
        square_identity,
        selfadjoint_lemmas,
        nilpotent_kernel,
        spectrum_invariance,
        condition_check("jordan_condition_unitary", unitary_conj, star=False, expect="pass"),
        condition_check("jordan_condition_adjoint", adjoint_conj, star=False, expect="fail"),
        condition_check("jordan_condition_scaled", scaled_conj, star=False, expect="fail"),
        condition_check("star_jordan_condition_unitary", unitary_conj, star=True, expect="pass"),
        condition_check("star_jordan_condition_adjoint", adjoint_conj, star=True, expect="fail"),
        structural_properties,
        vector_state_identity,
        adjoint_counterexample,
    )
}
