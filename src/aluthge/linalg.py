"""Dense complex-matrix primitives.

Products, Hermitian eigendecomposition, SVD, fractional powers of positive
semidefinite matrices, spectra, and the structural predicates (normal,
quasi-normal, projection, partial isometry) used by the transform and
verification layers. All functions are pure and operate on immutable inputs;
matrices are plain ``numpy.ndarray`` values of dtype complex128.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "HermitianEig",
    "SvdFactors",
    "validate_matrix",
    "adjoint",
    "jordan_product",
    "rank_one",
    "inner",
    "hermitian_eig",
    "svd",
    "psd_power",
    "spectrum",
    "spectra_pairing_distance",
    "frobenius",
    "matrices_close",
    "equality_residual",
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

    def to_dict(self) -> dict:
        return {"rank_rel": self.rank_rel, "eq_abs": self.eq_abs, "fix_rel": self.fix_rel}


DEFAULT_TOL = Tolerances()


def validate_matrix(a, square: bool = False) -> np.ndarray:
    """Coerce ``a`` to a 2-d complex128 array, rejecting NaN/Inf entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={m.ndim}")
    if m.shape[0] == 0 or m.shape[1] == 0:
        raise ValueError("matrix dimensions must be positive")
    if not (np.all(np.isfinite(m.real)) and np.all(np.isfinite(m.imag))):
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    if square and m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def frobenius(a) -> float:
    return float(np.linalg.norm(a, "fro"))


def adjoint(a) -> np.ndarray:
    """Conjugate transpose."""
    return validate_matrix(a).conj().T


def jordan_product(a, b) -> np.ndarray:
    """Symmetrized product (AB + BA) / 2 of two square matrices."""
    a = validate_matrix(a, square=True)
    b = validate_matrix(b, square=True)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
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


@dataclass(frozen=True)
class HermitianEig:
    """Eigendecomposition M = Q diag(w) Q* of a Hermitian matrix.

    ``eigenvalues`` ascending, ``eigenvectors`` unitary with eigenvectors[:, k]
    the eigenvector of eigenvalues[k].
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eig(m, tol: Tolerances = DEFAULT_TOL) -> HermitianEig:
    """Eigendecomposition of a (numerically) Hermitian matrix.

    The input is symmetrized as (M + M*)/2 before factorization; inputs that
    are non-Hermitian beyond the equality slack are rejected.
    """
    m = validate_matrix(m, square=True)
    herm_defect = frobenius(m - m.conj().T)
    if herm_defect > tol.eq_abs * (1.0 + frobenius(m)):
        raise ValueError(f"matrix is not Hermitian within slack (defect {herm_defect:.3e})")
    sym = (m + m.conj().T) / 2.0
    w, q = np.linalg.eigh(sym)
    return HermitianEig(eigenvalues=w, eigenvectors=q)


@dataclass(frozen=True)
class SvdFactors:
    """SVD M = left @ diag(singular_values) @ right*, singular values descending."""

    left: np.ndarray
    singular_values: np.ndarray
    right: np.ndarray


def svd(m) -> SvdFactors:
    m = validate_matrix(m)
    u, s, vh = np.linalg.svd(m)
    return SvdFactors(left=u, singular_values=s, right=vh.conj().T)


def psd_power(m, gamma: float, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Fractional power M^gamma of a positive semidefinite matrix.

    Eigenvalues in the roundoff band [-clip, clip] with clip = rank_rel *
    lambda_max are set to zero before taking powers (fractional powers amplify
    roundoff-level values past any slack); eigenvalues more negative than
    -clip are an error.
    """
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma!r}")
    eig = hermitian_eig(m, tol)
    w = eig.eigenvalues.copy()
    lam_max = max(float(w[-1]), 0.0)
    # Absolute floor covers |T| assembled from an SVD of the zero matrix.
    clip = tol.rank_rel * lam_max + 64.0 * np.finfo(float).eps * max(1.0, lam_max)
    if w[0] < -clip:
        raise ValueError(f"matrix is not PSD within cutoff (min eigenvalue {w[0]:.3e})")
    w[w <= clip] = 0.0
    q = eig.eigenvectors
    return (q * np.power(w, gamma)) @ q.conj().T


def spectrum(m) -> np.ndarray:
    """Eigenvalues of a square matrix with multiplicity, sorted by (re, im)."""
    m = validate_matrix(m, square=True)
    ev = np.linalg.eigvals(m)
    order = np.lexsort((ev.imag, ev.real))
    return ev[order]


def spectra_pairing_distance(a, b) -> float:
    """Largest matched distance under the optimal pairing of two eigenvalue multisets."""
    # Imported here so that loading the package does not pay for scipy.
    from scipy.optimize import linear_sum_assignment

    a = np.asarray(a, dtype=np.complex128).ravel()
    b = np.asarray(b, dtype=np.complex128).ravel()
    if a.shape != b.shape:
        raise ValueError("spectra must have equal length")
    if a.size == 0:
        return 0.0
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def equality_residual(x, y) -> float:
    return frobenius(np.asarray(x) - np.asarray(y))


def matrices_close(x, y, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Mixed absolute/relative equality: ||X-Y||_F <= eq_abs * (1 + max norm)."""
    scale = 1.0 + max(frobenius(x), frobenius(y))
    return equality_residual(x, y) <= tol.eq_abs * scale


def is_normal(t, tol: Tolerances = DEFAULT_TOL) -> bool:
    t = validate_matrix(t, square=True)
    th = t.conj().T
    resid = frobenius(th @ t - t @ th)
    return resid <= tol.fix_rel * (1.0 + frobenius(t) ** 2)


def is_quasi_normal(t, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff T commutes with T*T: ||TT*T - T*T^2||_F <= fix_rel * (1 + ||T||_F^3)."""
    t = validate_matrix(t, square=True)
    th = t.conj().T
    resid = frobenius(t @ th @ t - th @ t @ t)
    return resid <= tol.fix_rel * (1.0 + frobenius(t) ** 3)


def is_projection(t, tol: Tolerances = DEFAULT_TOL) -> bool:
    t = validate_matrix(t, square=True)
    nrm = frobenius(t)
    idem = frobenius(t @ t - t) <= tol.fix_rel * (1.0 + nrm**2)
    selfadj = frobenius(t - t.conj().T) <= tol.fix_rel * (1.0 + nrm)
    return idem and selfadj


def is_partial_isometry(t, tol: Tolerances = DEFAULT_TOL) -> bool:
    t = validate_matrix(t)
    th = t.conj().T
    return frobenius(t @ th @ t - t) <= tol.fix_rel * (1.0 + frobenius(t) ** 3)
