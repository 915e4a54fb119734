"""Seeded structured random matrix generators for the verification suite.

Every trial derives its own RNG stream from (seed, *key-ints), so checks are
deterministic and order-independent regardless of how trials are scheduled.
"""

from __future__ import annotations

import zlib

import numpy as np

# Smallest allowed sigma_min/sigma_max when a well-conditioned (injective) draw
# is requested; draws below it are resampled.
MIN_CONDITION = 1e-6


def trial_rng(seed: int, *key: int) -> np.random.Generator:
    """Independent RNG stream for one trial, stable across runs and platforms."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=tuple(key)))


def check_key(check_id: str) -> int:
    """Stable integer tag for a check id (CRC32; stable across Python runs)."""
    return zlib.crc32(check_id.encode("utf-8"))


def complex_gaussian(rng: np.random.Generator, *shape: int) -> np.ndarray:
    """Standard complex Gaussian array: real parts, then imaginary, in one draw."""
    z = rng.standard_normal((2, *shape))
    return (z[0] + 1j * z[1]) / np.sqrt(2.0)


def unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    while True:
        x = complex_gaussian(rng, dim)
        nrm = np.linalg.norm(x)
        if nrm > 1e-6:
            return x / nrm


def ginibre(rng: np.random.Generator, dim: int) -> np.ndarray:
    return complex_gaussian(rng, dim, dim)


def invertible_ginibre(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Ginibre draw resampled until sigma_min >= MIN_CONDITION * sigma_max."""
    while True:
        g = ginibre(rng, dim)
        s = np.linalg.svd(g, compute_uv=False)
        if s[-1] >= MIN_CONDITION * s[0]:
            return g


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-distributed unitary via phase-fixed QR of a Ginibre matrix."""
    q, r = np.linalg.qr(ginibre(rng, dim))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def normal_matrix(rng: np.random.Generator, dim: int) -> np.ndarray:
    u = haar_unitary(rng, dim)
    d = complex_gaussian(rng, dim)
    return (u * d) @ u.conj().T


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
