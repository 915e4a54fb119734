"""Dense complex-matrix primitives.

Products, spectra, and the structural predicates (normal, quasi-normal,
projection, partial isometry) used by the transform and verification
layers. All functions are pure and operate on immutable inputs;
matrices are plain ``numpy.ndarray`` values of dtype complex128.
"""

from __future__ import annotations

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
    "jordan_product",
    "rank_one",
    "inner",
    "spectrum",
    "spectra_pairing_distance",
    "frobenius",
    "is_normal",
    "is_quasi_normal",
    "is_projection",
    "is_partial_isometry",
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


def frobenius(a) -> float:
    """||a||_F, bit for bit as ``np.linalg.norm(a, "fro")`` computes it for a
    2-d float or complex array, without that function's dispatch."""
    x = np.asarray(a)
    if x.ndim != 2 or x.dtype.kind not in "fc":
        return float(np.linalg.norm(x, "fro"))
    x = x.ravel(order="K")
    if x.dtype.kind == "f":
        return float(np.sqrt(x.dot(x)))
    re, im = x.real, x.imag
    return float(np.sqrt(re.dot(re) + im.dot(im)))


def jordan_product(a, b) -> np.ndarray:
    """Symmetrized product (AB + BA) / 2 of two square matrices."""
    a = validate_matrix(a, square=True)
    b = validate_matrix(b, square=True)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return _jordan(a, b)


def _jordan(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(AB + BA) / 2 of two square arrays of one shape, unvalidated."""
    return (a @ b + b @ a) / 2.0


def inner(u, v) -> complex:
    """Inner product <u, v>, linear in the first argument."""
    return complex(np.vdot(v, u))


def rank_one(x, y) -> np.ndarray:
    """Rank-one matrix x⊗y acting as u -> <u, y> x (entries x_i * conj(y_j))."""
    x = np.asarray(x, dtype=np.complex128).ravel()
    y = np.asarray(y, dtype=np.complex128).ravel()
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    if not np.any(x) or not np.any(y):
        raise ValueError("rank_one requires nonzero vectors")
    return np.outer(x, y.conj())


def spectrum(m) -> np.ndarray:
    """Eigenvalues of a square matrix with multiplicity, sorted by (re, im)."""
    return _sorted_spectrum(np.linalg.eigvals(validate_matrix(m, square=True)))


def _sorted_spectrum(ev: np.ndarray) -> np.ndarray:
    """Eigenvalues ``ev`` sorted by (re, im), as ``spectrum`` returns them."""
    return ev[np.lexsort((ev.imag, ev.real))]


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
    cost = np.abs(a[:, None] - b[None, :])
    nearest = cost.argmin(axis=1)
    worst = cost[np.arange(a.size), nearest].max()
    # Every pairing's sum is at least the sum of the row minima. When the row
    # argmins form a permutation, that bound is met, so a pairing is optimal
    # only if every row sits at its row minimum: every optimal pairing, the
    # solver's included, has this largest matched distance, ties or not. A
    # row whose every distance overflows goes to the solver, which rejects it.
    if worst < np.inf and np.bincount(nearest, minlength=a.size).max() == 1:
        return float(worst)
    # Imported here: only spectra with an ambiguous nearest match pay for scipy.
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def _unit_scaled(t: np.ndarray) -> tuple[np.ndarray, int]:
    """(T / 2^e, e) for a complex128 T, with 2^e the power of two just above
    its largest real or imaginary part, which then lies in [1/2, 1): exact but
    for parts that fall below the normal range, and free of overflow in the
    cubic products the predicates take. The zero matrix gives (0, 0)."""
    x = np.ascontiguousarray(t).view(np.float64)
    e = int(np.frexp(np.abs(x).max())[1])
    return np.ldexp(x, -e).view(np.complex128), e


def _scaled_frobenius(t: np.ndarray) -> float:
    """||T||_F of a complex128 T, taken on T / 2^e so that no square over- or
    underflows: bit for bit ``frobenius(t)`` wherever none does, and inf
    only where the norm itself exceeds the double range."""
    u, e = _unit_scaled(t)
    with np.errstate(over="ignore"):
        return float(np.ldexp(frobenius(u), e))


def _distance_to_normal(t: np.ndarray) -> float:
    """||TT* - T*T||_F of a complex128 T, taken on U = T / 2^e and scaled
    back by 4^e, with the guarantees of ``_scaled_frobenius``."""
    u, e = _unit_scaled(t)
    with np.errstate(over="ignore"):
        return float(np.ldexp(frobenius(u @ u.conj().T - u.conj().T @ u), 2 * e))


def is_normal(t, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff T commutes with T*: ||T*T - TT*||_F <= fix_rel * ||T||_F^2,
    judged on T scaled by a power of two, so that the verdict does not
    depend on the scale of T."""
    t, _ = _unit_scaled(validate_matrix(t, square=True))
    th = t.conj().T
    resid = frobenius(th @ t - t @ th)
    return resid <= tol.fix_rel * frobenius(t) ** 2


def is_quasi_normal(t, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff T commutes with T*T: ||TT*T - T*T^2||_F <= fix_rel * ||T||_F^3,
    judged on T scaled by a power of two, so that the verdict does not
    depend on the scale of T."""
    t, _ = _unit_scaled(validate_matrix(t, square=True))
    th = t.conj().T
    resid = frobenius(t @ th @ t - th @ t @ t)
    return resid <= tol.fix_rel * frobenius(t) ** 3


def is_projection(t, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff T is idempotent and self-adjoint within fix_rel slack."""
    return _is_projection(validate_matrix(t, square=True), tol)


def _is_projection(t: np.ndarray, tol: Tolerances) -> bool:
    """``is_projection`` of a square complex array, unvalidated."""
    nrm = frobenius(t)
    idem = frobenius(t @ t - t) <= tol.fix_rel * (1.0 + nrm**2)
    selfadj = frobenius(t - t.conj().T) <= tol.fix_rel * (1.0 + nrm)
    return idem and selfadj


def is_partial_isometry(t, tol: Tolerances = DEFAULT_TOL) -> bool:
    t = validate_matrix(t)
    th = t.conj().T
    return frobenius(t @ th @ t - t) <= tol.fix_rel * (1.0 + frobenius(t) ** 3)
