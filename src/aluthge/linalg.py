"""Dense complex-matrix primitives.

Validation, products, norms, spectra and the stacked projection test used
by the transform and verification layers. All functions are pure and
operate on immutable inputs; matrices are plain ``numpy.ndarray`` values of
dtype complex128.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "OPEN",
    "HALF_OPEN",
    "CLOSED",
    "lambda_admitted",
    "check_lambda",
    "validate_matrix",
    "spectrum",
    "spectra_pairing_distance",
]


@dataclass(frozen=True)
class Tolerances:
    """Numerical slack used by decompositions, predicates and checks.

    rank_rel : relative singular-value cutoff for rank decisions
    eq_abs   : absolute slack in the mixed matrix-equality rule
    fix_rel  : relative slack for fixed-point / quasi-normality residuals
    """

    rank_rel: float = 1e-12
    eq_abs: float = 1e-9
    fix_rel: float = 1e-8

    def __post_init__(self) -> None:
        for name in ("rank_rel", "eq_abs", "fix_rel"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {value!r}")


DEFAULT_TOL = Tolerances()

# The lambda domains a transform or check may be stated on.
OPEN = "(0, 1)"
HALF_OPEN = "(0, 1]"
CLOSED = "[0, 1]"


def lambda_admitted(lam: float, domain: str | None) -> bool:
    """Whether ``lam`` lies in ``domain`` (OPEN, HALF_OPEN or CLOSED, whose
    brackets say which ends are open); None admits any."""
    if domain is None:
        return True
    low = 0.0 < lam if domain[0] == "(" else 0.0 <= lam
    high = lam < 1.0 if domain[-1] == ")" else lam <= 1.0
    return low and high


def check_lambda(lam: float, domain: str) -> None:
    """Raise ValueError unless ``lam`` lies in ``domain``."""
    if not lambda_admitted(lam, domain):
        raise ValueError(f"lambda must lie in {domain}, got {lam!r}")


def validate_matrix(a, square: bool = False, stack: bool = False) -> np.ndarray:
    """Coerce ``a`` to a 2-d complex128 array, or with ``stack`` to a 3-d
    stack of matrices, rejecting NaN/Inf entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != (3 if stack else 2):
        raise ValueError(f"expected a {'stack of matrices' if stack else '2-d matrix'}, got ndim={m.ndim}")
    if m.shape[-2] == 0 or m.shape[-1] == 0:
        raise ValueError("matrix dimensions must be positive")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    if square and m.shape[-2] != m.shape[-1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def _norms(x: np.ndarray) -> np.ndarray:
    """The Frobenius norm of each element of a float64 or complex128 stack
    x[B, ...] of vectors or matrices, bit for bit as ``np.linalg.norm`` gives
    it: the same dot products over the same strided views, taken for the
    whole stack in one batched matmul."""
    if x.ndim == 3 and abs(x.strides[-2]) < abs(x.strides[-1]):
        # Transposed views: np.linalg.norm sums each matrix in memory order.
        x = x.swapaxes(-1, -2)
    # Each element flat and contiguous, as ravel(order="K") leaves it there.
    x = np.ascontiguousarray(x).reshape(len(x), math.prod(x.shape[1:]))
    # Strided views of a complex array, as np.linalg.norm takes them: on
    # contiguous copies the dot products may round differently. A float
    # array's imaginary part is zeros, whose +0.0 products change no bit.
    re, im = x.real, x.imag
    sq = re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None]
    return np.sqrt(sq[:, 0, 0])


def _squares(x: np.ndarray) -> np.ndarray:
    """``v ** 2`` of each float v of x as Python computes it, with the C
    library's pow, which now and then rounds otherwise than ``v * v``."""
    return np.array([v**2 for v in x.tolist()])


def _jordan(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(AB + BA) / 2 of two square arrays, or stacks of them, of one shape,
    unvalidated."""
    return (a @ b + b @ a) / 2.0


def _star(a: np.ndarray) -> np.ndarray:
    """The conjugate transpose of a matrix, or of each matrix of a stack."""
    return a.conj().swapaxes(-1, -2)


def _inners(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """<u[b], v[b]> = ``np.vdot(v[b], u[b])`` of each pair of rows of two
    complex128 stacks u[B, n] and v[B, n], bit for bit, as one batched matmul."""
    return (v.conj()[:, None, :] @ u[:, :, None])[:, 0, 0]


def _outer(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The rank-one matrix x[b]⊗y[b], acting as u -> <u, y[b]> x[b] (entries
    x[b]_i * conj(y[b]_j)), of each pair of rows of two complex128 stacks
    x[B, n] and y[B, n], unvalidated."""
    return x[:, :, None] * y.conj()[:, None, :]


def _matvec(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``m[b] @ x[b]`` for a stack of matrices m[B, n, n] and one of vectors
    x[B, n], bit for bit."""
    return (m @ x[:, :, None])[:, :, 0]


def spectrum(m) -> np.ndarray:
    """Eigenvalues of a square matrix with multiplicity, sorted by (re, im)."""
    return _sorted_spectrum(np.linalg.eigvals(validate_matrix(m, square=True)))


def _sorted_spectrum(ev: np.ndarray) -> np.ndarray:
    """Eigenvalues ``ev``, or each row of a stack of them, sorted by (re, im)."""
    return np.take_along_axis(ev, np.lexsort((ev.imag, ev.real)), axis=-1)


def spectra_pairing_distance(a, b) -> float:
    """Largest matched distance under the optimal pairing of two eigenvalue
    multisets, the one-to-one pairing that minimizes the sum of |a_i - b_j|.
    Raises ValueError for unequal lengths or a NaN/Inf entry."""
    a = np.asarray(a, dtype=np.complex128).ravel()
    b = np.asarray(b, dtype=np.complex128).ravel()
    if a.shape != b.shape:
        raise ValueError("spectra must have equal length")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("spectra must be finite (no NaN/Inf)")
    if a.size == 0:
        return 0.0
    return float(_pairing_distances(a[None], b[None])[0])


def _pairing_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``spectra_pairing_distance(a[i], b[i])`` of each pair of rows of two
    complex128 stacks a[B, n] and b[B, n], n >= 1, bit for bit. A row with a
    NaN or Inf entry raises ValueError."""
    cost = np.abs(a[:, :, None] - b[:, None, :])
    nearest = cost.argmin(axis=-1)
    worst = np.take_along_axis(cost, nearest[..., None], axis=-1)[..., 0].max(axis=-1)
    # Every pairing's sum is at least the sum of the row minima. When the row
    # argmins form a permutation, that bound is met, so a pairing is optimal
    # only if every row sits at its row minimum: every optimal pairing, the
    # solver's included, has this largest matched distance, ties or not. A
    # row with no finite worst distance goes to the solver, which rejects it.
    matched = (np.sort(nearest, axis=-1) == np.arange(a.shape[-1])).all(axis=-1)
    for i in np.flatnonzero(~(matched & (worst < np.inf))).tolist():
        # Imported here: only spectra with an ambiguous nearest match pay for scipy.
        from scipy.optimize import linear_sum_assignment

        worst[i] = cost[i][linear_sum_assignment(cost[i])].max()
    return worst


def _unit_scaled(t: np.ndarray) -> tuple[np.ndarray, int]:
    """(T / 2^e, e) for a complex128 T, with 2^e the power of two just above
    its largest real or imaginary part, which then lies in [1/2, 1): exact but
    for parts that fall below the normal range, and free of overflow in the
    products taken of it. The zero matrix gives (0, 0)."""
    x = np.ascontiguousarray(t).view(np.float64)
    e = int(np.frexp(np.abs(x).max())[1])
    return np.ldexp(x, -e).view(np.complex128), e


def _scaled_frobenius(t: np.ndarray) -> float:
    """||T||_F of a complex128 T, taken on T / 2^e so that no square over- or
    underflows: bit for bit ``np.linalg.norm(t)`` wherever none does, and
    inf only where the norm itself exceeds the double range."""
    u, e = _unit_scaled(t)
    with np.errstate(over="ignore"):
        return float(np.ldexp(_norms(u[None])[0], e))


def _distance_to_normal(t: np.ndarray) -> float:
    """||TT* - T*T||_F of a complex128 T, taken on U = T / 2^e and scaled
    back by 4^e, with the guarantees of ``_scaled_frobenius``."""
    u, e = _unit_scaled(t)
    with np.errstate(over="ignore"):
        return float(np.ldexp(_norms((u @ u.conj().T - u.conj().T @ u)[None])[0], 2 * e))


def _is_projection(t: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Whether each matrix of a complex128 stack t[B, n, n] is a projection,
    idempotent and self-adjoint within fix_rel slack; unvalidated."""
    nrm = _norms(t)
    idem = _norms(t @ t - t) <= tol.fix_rel * (1.0 + _squares(nrm))
    selfadj = _norms(t - _star(t)) <= tol.fix_rel * (1.0 + nrm)
    return idem & selfadj
