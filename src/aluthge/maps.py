"""Candidate matrix maps and desk-scale verification of the main rigidity
facts: unitary conjugation commutes with the Aluthge transform through Jordan
and star-Jordan products and preserves all the structural sets; the adjoint
form is falsified by an explicit rank-one counterexample, and scaling by any
c != 1 breaks the condition already at A = B = I.

``CHECKS`` is the registry of every check ``aluthge verify`` runs, keyed by
each record's id, which is also its CLI id and report file name.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

from .generators import _complex_gaussians, _draw_until, _normal, _unit_vectors
from .lemmas import (
    Check,
    _aluthge,
    _Block,
    _check,
    _ginibres,
    _in_dead_band,
    _observe,
    _redraw,
    _unitaries,
    nilpotent_kernel,
    projection_absorb,
    rank_one_formula,
    scalar_projection,
    selfadjoint_lemmas,
    spectrum_invariance,
    square_identity,
)
from .linalg import (
    _inners,
    _is_projection,
    _jordan,
    _matvec,
    _norms,
    _outer,
    _squares,
    _star,
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
    ``a`` as square complex arrays of one shape, or as stacks of them, each
    u[b] then mapping a[b]; neither is validated."""
    return u @ a @ _star(u)


def adjoint_conj(u: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The candidate map A -> UA*U*, with arguments as for ``unitary_conj``."""
    return u @ _star(a) @ _star(u)


def scaled_conj(u: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The candidate map A -> 2UAU*, with arguments as for ``unitary_conj``."""
    return 2.0 * (u @ a @ _star(u))


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

    def block(blk: _Block) -> None:
        u = _unitaries(blk)
        fix_rel = blk.tol.fix_rel

        def draw(live, idx):
            a = _ginibres(live)
            b = _ginibres(live)
            ul = u[idx]
            pb = phi(ul, b)
            pb, bb = (_star(pb), _star(b)) if star else (pb, b)
            # Both sides' products in one stack: Delta(Phi(A)∘Phi(B)), then Delta(A∘B).
            d = _aluthge(blk, np.concatenate([_jordan(phi(ul, a), pb), _jordan(a, bb)]))
            lhs, rhs = d[: len(idx)], phi(ul, d[len(idx) :])
            residual = _norms(lhs - rhs)
            slack = fix_rel * (1.0 + _norms(a) * _norms(b))
            if expect == "pass":
                _observe(live, residual, residual > slack, A=a, B=b)
                return np.ones(len(idx), dtype=bool)
            # Expected falsification. Trials where both sides vanish carry no
            # information; dead-band residuals are redrawn.
            vanish = np.maximum(_norms(lhs), _norms(rhs)) <= slack
            informative = ~vanish & ~_in_dead_band(slack, residual)
            _observe(live, residual, residual <= slack, informative, A=a, B=b)
            return informative

        _redraw(blk, draw)

    return Check(id, block)


def _projections(w: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """F F* for the columns lo[b]:hi[b] of each w[b], F = w[b][:, lo[b]:hi[b]]:
    one stacked product per distinct column range, each matrix's product bit
    for bit that of its columns alone."""
    out = np.empty_like(w)
    for first, stop in set(zip(lo.tolist(), hi.tolist())):
        group = (lo == first) & (hi == stop)
        f = w[group][..., first:stop]
        out[group] = f @ _star(f)
    return out


@_check("structural_properties")
def structural_properties(blk: _Block) -> None:
    """Structural preservation under unitary conjugation.

    Per trial: (i) the map commutes with the transform, (ii) squares of normal
    matrices map to squares, (iii) projections to projections, (iv) orthogonal
    projection pairs stay orthogonal, (v) nested projections stay nested,
    (vi) additivity on orthogonal projections, (vii) rank-one projections to
    rank-one projections, plus preservation of self-adjointness.
    """
    n, tol = blk.dim, blk.tol
    u = _unitaries(blk)

    # Random frame; disjoint column blocks give orthogonal projections,
    # nested leading blocks give ordered ones.
    w = _unitaries(blk)
    ranks = []
    for rng in blk.rngs:
        k = int(rng.integers(1, n))
        j = int(rng.integers(1, k + 1))
        m = int(rng.integers(1, n - k + 1))
        ranks.append([k, j, m])
    k, j, m = np.array(ranks).T
    zero = np.zeros_like(k)
    p = _projections(w, zero, k)
    q_nested = _projections(w, zero, j)
    q_orth = _projections(w, k, k + m)

    fp, fq_nested, fq_orth = (unitary_conj(u, z) for z in (p, q_nested, q_orth))
    slack = tol.fix_rel

    a = _ginibres(blk)
    d = _aluthge(blk, np.concatenate([unitary_conj(u, a), a]))
    r_commute = _norms(d[: len(blk)] - unitary_conj(u, d[len(blk) :]))
    bad = r_commute > slack * (1.0 + _norms(a))

    nm = _normal(_unitaries(blk), _complex_gaussians(blk.rngs, n))
    fnm = unitary_conj(u, nm)
    r_square = _norms(unitary_conj(u, nm @ nm) - fnm @ fnm)
    bad |= r_square > slack * (1.0 + _squares(_norms(nm)))

    bad |= ~_is_projection(fp, tol)
    bad |= (_norms(fp @ fq_orth) > slack) | (_norms(fq_orth @ fp) > slack)
    bad |= _norms(_jordan(fp, fq_nested) - fq_nested) > slack
    bad |= _norms(unitary_conj(u, p + q_orth) - (fp + fq_orth)) > slack

    x = _unit_vectors(blk.rngs, n)
    f_rank1 = unitary_conj(u, _outer(x, x))
    # Python's abs of each complex: np.abs of a complex array rounds otherwise.
    trace_gap = np.array([abs(t - 1.0) for t in np.trace(f_rank1, axis1=-2, axis2=-1).tolist()])
    bad |= ~_is_projection(f_rank1, tol) | (trace_gap > slack)

    g = _ginibres(blk)
    h = (g + _star(g)) / 2.0
    fh = unitary_conj(u, h)
    bad |= _norms(fh - _star(fh)) > slack * (1.0 + _norms(h))

    _observe(blk, np.maximum(r_commute, r_square), bad, U=u, ranks=ranks)


@_check("vector_state_identity", domain=None)
def vector_state_identity(blk: _Block) -> None:
    """<Phi(A) Ux, Ux> = <Ax, x> for unitary conjugation: matrix elements at
    corresponding unit vectors (hence sampled numerical-range points) agree.
    The identity involves no transform, so it has no lambda domain."""
    u = _unitaries(blk)
    a = _ginibres(blk)
    x = _unit_vectors(blk.rngs, blk.dim)
    y = _matvec(u, x)
    gap = _inners(_matvec(unitary_conj(u, a), y), y) - _inners(_matvec(a, x), x)
    deviation = np.array([abs(z) for z in gap.tolist()])
    slack = blk.tol.eq_abs * (1.0 + _norms(a))
    _observe(blk, deviation, deviation > slack, A=a, x=x)


@_check("adjoint_counterexample")
def adjoint_counterexample(blk: _Block) -> None:
    """Delta_lambda(A*) != Delta_lambda(A)* for the rank-one A = x⊗x' built
    from random unit, non-orthogonal, independent x, x': the spectral-norm
    gap between the two sides must be positive and match its closed form
    |<x,x'>| * ||x'⊗x' - x⊗x||_2 = |c| sqrt(1 - |c|^2) with c = <x,x'>."""

    def draw(rngs):
        x = _unit_vectors(rngs, blk.dim)
        xp = _unit_vectors(rngs, blk.dim)
        c = np.array([abs(z) for z in _inners(x, xp).tolist()])
        return (x, xp, c), (c >= 0.05) & (c <= 0.95)

    x, xp, c = _draw_until(blk.rngs, draw)
    a = _outer(x, xp)
    d = _aluthge(blk, np.concatenate([_star(a), a]))
    s = np.linalg.svd(d[: len(blk)] - _star(d[len(blk) :]), compute_uv=False)
    residual = s.max(axis=-1)
    closed = np.array([v * math.sqrt(max(0.0, 1.0 - v**2)) for v in c.tolist()])
    mismatch = np.abs(residual - closed)
    _observe(blk, mismatch, (mismatch > 1e-10) | (residual <= 0.0), x=x, xprime=xp)


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
