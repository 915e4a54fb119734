"""Polar decomposition and the lambda-Aluthge / Duggal transforms.

The polar factorization T = V|T| uses the partial-isometry convention
N(V) = N(T): V is the rank-truncated product of the SVD's singular-vector
frames, so V annihilates exactly the numerical null space of T. The
lambda-Aluthge transform is |T|^lambda V |T|^(1-lambda); lambda endpoints
bypass fractional powers entirely and return V|T| (= T) resp. |T|V (Duggal).
The kernel works on stacks T[B, n, n] with one stacked SVD; a single matrix
is a stack of one. It builds V one way, in C order, whatever the ranks and
layout of the stack. ``polar`` returns V and |T|; the CLI's ``transform
--factors`` takes the transform and both factors from one SVD through the
private ``_transform_and_factors``.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .linalg import (
    CLOSED,
    DEFAULT_TOL,
    OPEN,
    Tolerances,
    _inners,
    _outer,
    _scaled_frobenius,
    check_lambda,
    validate_matrix,
)

__all__ = [
    "PolarDecomposition",
    "polar",
    "aluthge",
    "aluthge_stack",
    "aluthge_rank_one",
    "iterate_aluthge",
]


@dataclass(frozen=True)
class PolarDecomposition:
    """Factors of T = V|T| with V a partial isometry and |T| = (T*T)^(1/2) PSD."""

    isometry_part: np.ndarray
    modulus: np.ndarray


def _decompose(t: np.ndarray, tol: Tolerances):
    """One stacked SVD T = W S X* of a validated stack T[B, n, n]: returns
    V = W_r X_r*, S, X and the numerical ranks r, one per element. V is
    built one way, one product per rank present, into a C-ordered stack, so
    its bits depend neither on the other ranks in T nor on T's layout.
    Raises FloatingPointError when a singular value is not finite (an
    element's largest lies beyond the double range), where no rank holds."""
    w, s, xh = np.linalg.svd(t)
    if not np.isfinite(s).all():
        raise FloatingPointError("the singular values of the input overflow; scale the matrix down")
    n = t.shape[-1]
    ranks = (s > tol.rank_rel * s[:, :1] * n).sum(axis=-1)
    v = np.empty(t.shape, dtype=np.complex128)
    for rank in set(ranks.tolist()):
        group = ranks == rank
        v[group] = w[group][..., :rank] @ xh[group][..., :rank, :]
    return v, s, xh.conj().swapaxes(-1, -2), ranks


def _modulus(s, x) -> np.ndarray:
    """|T| = X S X* for each element of a stack."""
    return (x * s[:, None, :]) @ x.conj().swapaxes(-1, -2)


def _transform(v, s, x, ranks, lam: float) -> np.ndarray:
    """|T|^lam V |T|^(1-lam) for each element of the stacked polar factors."""
    if lam == 0.0 or lam == 1.0:
        modulus = _modulus(s, x)
        return v @ modulus if lam == 0.0 else modulus @ v
    xh = x.conj().swapaxes(-1, -2)
    # |T|^g = X S^g X*. Singular values below the rank cutoff are zeroed
    # first: fractional powers amplify roundoff-level values (1e-16^0.3 ~ 1e-5)
    # far beyond the equality slack otherwise.
    sc = np.where(np.arange(s.shape[-1]) < ranks[:, None], s, 0.0)
    left = (x * np.power(sc, lam)[:, None, :]) @ xh
    right = left if lam == 0.5 else (x * np.power(sc, 1.0 - lam)[:, None, :]) @ xh
    return left @ v @ right


def polar(t, tol: Tolerances = DEFAULT_TOL) -> PolarDecomposition:
    """Polar decomposition with the null-space convention N(V) = N(T).

    Built from the SVD T = W S X*: with r the numerical rank,
    V = W_r X_r* and |T| = X S X*. The zero matrix yields V = 0, |T| = 0.
    """
    t = validate_matrix(t, square=True)
    v, s, x, _ = _decompose(t[None], tol)
    return PolarDecomposition(isometry_part=v[0], modulus=_modulus(s, x)[0])


def _transform_and_factors(t: np.ndarray, lam: float, tol: Tolerances = DEFAULT_TOL):
    """(Delta_lam(T), V, |T|) of a validated square T from one SVD: the
    transform bit for bit as ``aluthge`` gives it, the factors as ``polar``."""
    v, s, x, ranks = _decompose(t[None], tol)
    return _transform(v, s, x, ranks, lam)[0], v[0], _modulus(s, x)[0]


def aluthge_stack(t, lam: float, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """lambda-Aluthge transform of every matrix of a stack T[B, n, n], lam in
    [0, 1], from one stacked SVD; element b of the result is bit for bit
    ``aluthge(T[b], lam, tol)``."""
    check_lambda(lam, CLOSED)
    t = validate_matrix(t, square=True, stack=True)
    return _transform(*_decompose(t, tol), lam)


def aluthge(t, lam: float, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """lambda-Aluthge transform |T|^lam V |T|^(1-lam) for lam in [0, 1]:
    ``aluthge_stack`` of the stack of one T."""
    return aluthge_stack(validate_matrix(t, square=True)[None], lam, tol)[0]


def aluthge_rank_one(x, y, lam: float) -> np.ndarray:
    """Closed form Delta_lambda(x⊗y) = (<x,y> / ||y||^2) (y⊗y), lambda in (0,1),
    taken without a decomposition: ``_aluthge_rank_ones`` of one pair."""
    check_lambda(lam, OPEN)
    x = np.asarray(x, dtype=np.complex128).ravel()
    y = np.asarray(y, dtype=np.complex128).ravel()
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    if not np.any(x) or not np.any(y):
        raise ValueError("aluthge_rank_one requires nonzero vectors")
    return _aluthge_rank_ones(x[None], y[None])[0]


def _aluthge_rank_ones(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``aluthge_rank_one`` of each pair of rows of two complex128 stacks
    x[B, n] and y[B, n], no row of y zero, bit for bit; unvalidated."""
    c, d = _inners(x, y), _inners(y, y).real
    coef = np.empty_like(c)
    # Python's complex / float, part by part; numpy's multiplies by a reciprocal.
    coef.real, coef.imag = (c.real + c.imag * 0.0) / d, (c.imag - c.real * 0.0) / d
    return coef[:, None, None] * _outer(y, y)


def iterate_aluthge(
    t,
    lam: float,
    max_iter: int = 500,
    conv_tol: float = 1e-10,
    tol: Tolerances = DEFAULT_TOL,
) -> Iterator[tuple[np.ndarray, float, bool]]:
    """Follow the Aluthge sequence T_{k+1} = Delta_lambda(T_k) from T_0 = T,
    yielding (T_k, delta_k, converged) for k = 1, 2, ..., with delta_k =
    ||T_k - T_{k-1}||_F taken, like ||T||_F, on a power-of-two scaling so that
    no square over- or underflows. A step has converged when delta_k <=
    conv_tol * ||T||_F, a test free of the scale of T (T = 0 converges at
    step 1); the sequence ends after the first converged step or max_iter.

    Nothing runs before the first ``next()``, which is where argument errors
    surface. Raises FloatingPointError when ||T||_F or a step's delta is not
    finite, where no convergence test holds.
    """
    check_lambda(lam, OPEN)
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if not 0 < conv_tol < math.inf:
        raise ValueError(f"conv_tol must be positive and finite, got {conv_tol!r}")
    t = validate_matrix(t, square=True)
    norm = _scaled_frobenius(t)
    if not math.isfinite(norm):
        raise FloatingPointError("the Frobenius norm of the input overflows; scale the matrix down")
    for step in range(1, max_iter + 1):
        nxt = aluthge(t, lam, tol)
        delta = _scaled_frobenius(nxt - t)
        if not math.isfinite(delta):
            raise FloatingPointError(f"step {step}: the Frobenius delta is not finite ({delta!r})")
        converged = delta <= conv_tol * norm
        yield nxt, delta, converged
        if converged:
            return
        t = nxt
