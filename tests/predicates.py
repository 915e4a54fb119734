"""Oracles the tests share: the rank-one matrix x⊗y, and the structural
predicates normality, quasi-normality and partial isometry of one matrix,
within ``fix_rel`` slack."""

import numpy as np

from aluthge.linalg import DEFAULT_TOL, Tolerances, _outer, _unit_scaled, validate_matrix


def rank_one(x, y) -> np.ndarray:
    """Rank-one matrix x⊗y acting as u -> <u, y> x (entries x_i * conj(y_j))."""
    x = np.asarray(x, dtype=np.complex128).ravel()
    y = np.asarray(y, dtype=np.complex128).ravel()
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    if not np.any(x) or not np.any(y):
        raise ValueError("rank_one requires nonzero vectors")
    return _outer(x[None], y[None])[0]


def is_normal(t, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff T commutes with T*: ||T*T - TT*||_F <= fix_rel * ||T||_F^2,
    judged on T scaled by a power of two, so that the verdict does not
    depend on the scale of T."""
    t, _ = _unit_scaled(validate_matrix(t, square=True))
    th = t.conj().T
    resid = np.linalg.norm(th @ t - t @ th)
    return resid <= tol.fix_rel * np.linalg.norm(t) ** 2


def is_quasi_normal(t, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff T commutes with T*T: ||TT*T - T*T^2||_F <= fix_rel * ||T||_F^3,
    judged on T scaled by a power of two, so that the verdict does not
    depend on the scale of T."""
    t, _ = _unit_scaled(validate_matrix(t, square=True))
    th = t.conj().T
    resid = np.linalg.norm(t @ th @ t - th @ t @ t)
    return resid <= tol.fix_rel * np.linalg.norm(t) ** 3


def is_partial_isometry(t, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff TT*T = T within fix_rel * (1 + ||T||_F^3)."""
    t = validate_matrix(t)
    th = t.conj().T
    return np.linalg.norm(t @ th @ t - t) <= tol.fix_rel * (1.0 + np.linalg.norm(t) ** 3)
