"""Seeded structured random matrix generators for the verification suite.

Every trial derives its own RNG stream from (seed, *key-ints), so checks are
deterministic and order-independent regardless of how trials are scheduled.
"""

from __future__ import annotations

import zlib

import numpy as np

# numpy divides a complex array by the real sqrt(2) as a multiply of both parts
# by this factor, so scaling by it gives the same bits as that division.
_INV_SQRT2 = 1.0 / np.sqrt(2.0)


def trial_rng(seed: int, *key: int) -> np.random.Generator:
    """Independent RNG stream for one trial, stable across runs and platforms."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=tuple(key)))


def check_key(check_id: str) -> int:
    """Stable integer tag for a check id (CRC32; stable across Python runs)."""
    return zlib.crc32(check_id.encode("utf-8"))


def complex_gaussian(rng: np.random.Generator, *shape: int) -> np.ndarray:
    """Standard complex Gaussian array: real parts, then imaginary, in one draw.
    Bit for bit ``(z[0] + 1j * z[1]) / np.sqrt(2.0)`` of that draw ``z``."""
    z = rng.standard_normal((2, *shape))
    z *= _INV_SQRT2
    out = np.empty(shape, dtype=np.complex128)
    out.real = z[0]
    out.imag = z[1]
    return out


def unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    while True:
        x = complex_gaussian(rng, dim)
        nrm = np.linalg.norm(x)
        if nrm > 1e-6:
            return x / nrm


def ginibre(rng: np.random.Generator, dim: int) -> np.ndarray:
    return complex_gaussian(rng, dim, dim)


def _phase_fixed_q(g: np.ndarray) -> np.ndarray:
    """Q of the QR of each Ginibre matrix of a stack g[..., n, n], its columns
    scaled by the phases of R's diagonal: Haar-distributed unitaries. One
    stacked QR; element b is bit for bit that of g[b] alone."""
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-distributed unitary via phase-fixed QR of a Ginibre matrix."""
    return _phase_fixed_q(ginibre(rng, dim))


def _normal(u: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The normal matrix U diag(d) U* of a unitary U and eigenvalues d."""
    return (u * d) @ u.conj().T


def normal_matrix(rng: np.random.Generator, dim: int) -> np.ndarray:
    u = haar_unitary(rng, dim)
    return _normal(u, complex_gaussian(rng, dim))


def nilpotent_sq_zero(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Square-zero matrix x⊗y with <x,y>=0, conjugated by a well-conditioned
    similarity (T^2 = 0 is preserved in exact arithmetic)."""
    x = unit_vector(rng, dim)
    y = complex_gaussian(rng, dim)
    y = y - np.vdot(x, y) * x
    nrm = np.linalg.norm(y)
    if nrm < 1e-6:
        return nilpotent_sq_zero(rng, dim)
    s = np.eye(dim) + 0.3 * ginibre(rng, dim)
    return s @ np.outer(x, (y / nrm).conj()) @ np.linalg.inv(s)
