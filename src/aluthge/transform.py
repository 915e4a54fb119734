"""Polar decomposition and the lambda-Aluthge / Duggal transforms.

The polar factorization T = V|T| uses the partial-isometry convention
N(V) = N(T): V is the rank-truncated product of the SVD's singular-vector
frames, so V annihilates exactly the numerical null space of T. The
lambda-Aluthge transform is |T|^lambda V |T|^(1-lambda); lambda endpoints
bypass fractional powers entirely and return V|T| (= T) resp. |T|V (Duggal).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    frobenius,
    inner,
    is_quasi_normal,
    rank_one,
    validate_matrix,
)

__all__ = [
    "PolarDecomposition",
    "AluthgeTrace",
    "polar",
    "aluthge",
    "aluthge_rank_one",
    "duggal",
    "iterate_aluthge",
]


@dataclass(frozen=True)
class PolarDecomposition:
    """Factors of T = V|T| with V a partial isometry and |T| = (T*T)^(1/2) PSD.

    ``singular_values``, ``right`` and ``rank`` are the pieces of the SVD
    T = W S X* the factors were built from (S descending, X = ``right``, and
    the numerical rank); ``aluthge`` reuses them instead of a second SVD.
    """

    isometry_part: np.ndarray
    modulus: np.ndarray
    singular_values: np.ndarray
    right: np.ndarray
    rank: int


def _svd(t, tol: Tolerances):
    """One SVD T = W S X*: returns V = W_r X_r*, S, X and the numerical rank r."""
    t = validate_matrix(t, square=True)
    w, s, xh = np.linalg.svd(t)
    n = t.shape[0]
    smax = s[0] if s.size else 0.0
    r = int(np.count_nonzero(s > tol.rank_rel * smax * n))
    return w[:, :r] @ xh[:r, :], s, xh.conj().T, r


def polar(t, tol: Tolerances = DEFAULT_TOL) -> PolarDecomposition:
    """Polar decomposition with the null-space convention N(V) = N(T).

    Built from the SVD T = W S X*: with r the numerical rank,
    V = W_r X_r* and |T| = X S X*. The zero matrix yields V = 0, |T| = 0.
    """
    v, s, x, r = _svd(t, tol)
    return PolarDecomposition(isometry_part=v, modulus=(x * s) @ x.conj().T, singular_values=s, right=x, rank=r)


def aluthge(t, lam: float, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """lambda-Aluthge transform |T|^lam V |T|^(1-lam) for lam in [0, 1].

    ``t`` may also be ``polar(T)``, whose SVD is then reused (its rank was
    decided by the tolerances given to ``polar``, so ``tol`` is not used).
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must lie in [0, 1], got {lam!r}")
    pd = t if isinstance(t, PolarDecomposition) else None
    v, s, x, r = _svd(t, tol) if pd is None else (pd.isometry_part, pd.singular_values, pd.right, pd.rank)
    xh = x.conj().T
    if lam == 0.0 or lam == 1.0:
        modulus = (x * s) @ xh if pd is None else pd.modulus
        return v @ modulus if lam == 0.0 else modulus @ v
    # |T|^g = X S^g X*. Singular values below the rank cutoff are zeroed
    # first: fractional powers amplify roundoff-level values (1e-16^0.3 ~ 1e-5)
    # far beyond the equality slack otherwise.
    sc = s.copy()
    sc[r:] = 0.0
    left = (x * np.power(sc, lam)) @ xh
    right = (x * np.power(sc, 1.0 - lam)) @ xh
    return left @ v @ right


def duggal(t, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Duggal transform |T| V (the lambda = 1 Aluthge transform)."""
    return aluthge(t, 1.0, tol)


def aluthge_rank_one(x, y, lam: float) -> np.ndarray:
    """Closed form Delta_lambda(x⊗y) = (<x,y> / ||y||^2) (y⊗y), lambda in (0,1).

    No decomposition is performed; agrees with the SVD path within slack.
    """
    if not 0.0 < lam < 1.0:
        raise ValueError(f"lambda must lie in (0, 1), got {lam!r}")
    x = np.asarray(x, dtype=np.complex128).ravel()
    y = np.asarray(y, dtype=np.complex128).ravel()
    if not np.any(x) or not np.any(y):
        raise ValueError("aluthge_rank_one requires nonzero vectors")
    ynorm2 = float(np.vdot(y, y).real)
    return (inner(x, y) / ynorm2) * rank_one(y, y)


@dataclass(frozen=True)
class AluthgeTrace:
    """Iterated-transform record: iterates[n+1] = Delta_lambda(iterates[n])."""

    lam: float
    iterates: list = field(default_factory=list)
    step_deltas: np.ndarray = field(default_factory=lambda: np.empty(0))
    converged: bool = False
    limit_quasi_normal: bool = False


def iterate_aluthge(
    t,
    lam: float,
    max_iter: int = 500,
    conv_tol: float = 1e-10,
    tol: Tolerances = DEFAULT_TOL,
) -> AluthgeTrace:
    """Iterate the lambda-Aluthge transform until the Frobenius delta between
    successive iterates falls below conv_tol * (1 + ||T||_F) or max_iter is hit.

    Quasi-normality of the final iterate is judged with fix_rel relaxed 10x to
    absorb accumulated iteration error.
    """
    if not 0.0 < lam < 1.0:
        raise ValueError(f"lambda must lie in (0, 1), got {lam!r}")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if conv_tol <= 0:
        raise ValueError("conv_tol must be positive")
    t = validate_matrix(t, square=True)
    scale = 1.0 + frobenius(t)
    iterates = [t]
    deltas: list[float] = []
    converged = False
    for _ in range(max_iter):
        nxt = aluthge(iterates[-1], lam, tol)
        delta = frobenius(nxt - iterates[-1])
        iterates.append(nxt)
        deltas.append(delta)
        if delta <= conv_tol * scale:
            converged = True
            break
    relaxed = Tolerances(rank_rel=tol.rank_rel, eq_abs=tol.eq_abs, fix_rel=min(10.0 * tol.fix_rel, 0.99))
    return AluthgeTrace(
        lam=lam,
        iterates=iterates,
        step_deltas=np.asarray(deltas),
        converged=converged,
        limit_quasi_normal=is_quasi_normal(iterates[-1], relaxed),
    )
