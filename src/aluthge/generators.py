"""Seeded structured random matrix generators for the verification suite.

Every trial derives its own RNG stream from (seed, *key-ints), so checks are
deterministic and order-independent regardless of how trials are scheduled.
"""

from __future__ import annotations

import functools
import zlib

import numpy as np

from .linalg import _inners, _norms, _outer, _star

# numpy divides a complex array by the real sqrt(2) as a multiply of both parts
# by this factor, so scaling by it gives the same bits as that division.
_INV_SQRT2 = 1.0 / np.sqrt(2.0)

# The constants of numpy.random.SeedSequence's hash, O'Neill's PCG seed_seq
# design over a pool of four uint32 words.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


def trial_rng(seed: int, *key: int) -> np.random.Generator:
    """Independent RNG stream for one trial, stable across runs and platforms."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=tuple(key)))


def _hashmix(value, const: int, mult: int):
    """One step of the seed_seq hash of ``value`` (uint32 values in a uint64
    array) under the running constant ``const``: the hashed value and the next
    constant."""
    value = value ^ const
    const = const * mult & _MASK32
    value = value * const & _MASK32
    return value ^ value >> 16, const


def _mix(x, y):
    """seed_seq's mix of the pool word ``x`` with the hashed word ``y``."""
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ result >> 16


def _words(x: int) -> int:
    """The number of uint32 words SeedSequence splits the integer ``x`` into."""
    return (int(x).bit_length() + 31) // 32 or 1


def _trial_rngs(seed: int, key: int, dim: int, start: int, stop: int) -> list[np.random.Generator]:
    """The streams of trials ``start`` .. ``stop`` - 1, each with exactly the
    ``bit_generator.state`` of ``trial_rng(seed, key, dim, t)``.

    The entropy of trial t is that of ``SeedSequence(seed, spawn_key=(key,
    dim))`` followed by t's words, so that sequence's pool is every trial's
    pool before t is mixed in. When every t fits one uint32 word, t and the
    output state are hashed for the whole block as uint32 arithmetic in uint64
    arrays; otherwise each stream comes from ``trial_rng``.
    """
    if stop - 1 > _MASK32:
        return [trial_rng(seed, key, dim, t) for t in range(start, stop)]
    pool = np.random.SeedSequence(seed, spawn_key=(key, dim)).pool.tolist()
    # numpy hashes four times per entropy word it mixes, the seed zero-padded
    # to fill the pool.
    mixed = max(_POOL_SIZE, _words(seed)) + _words(key) + _words(dim)
    const = _INIT_A * pow(_MULT_A, 4 * mixed, 1 << 32) & _MASK32
    t = np.arange(start, stop, dtype=np.uint64)
    for dst in range(_POOL_SIZE):
        hashed, const = _hashmix(t, const, _MULT_A)
        pool[dst] = _mix(pool[dst], hashed)
    # generate_state(4, np.uint64): eight uint32 words from the cycled pool,
    # paired low word first.
    const = _INIT_B
    words = []
    for i in range(8):
        hashed, const = _hashmix(pool[i % _POOL_SIZE], const, _MULT_B)
        words.append(hashed)
    # C-contiguous, so that each row is the contiguous uint64[4] PCG64 reads.
    states = np.stack([words[i] | words[i + 1] << 32 for i in range(0, 8, 2)], axis=1)
    from numpy.random import PCG64, Generator

    seeded = _state_seed_class()
    return [Generator(PCG64(seeded(state))) for state in states]


@functools.cache
def _state_seed_class():
    """The ISeedSequence that hands PCG64 a precomputed state; made on first
    use, so that importing this module does not load numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    class _StateSeed(ISeedSequence):
        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            # PCG64 seeds itself with generate_state(4, np.uint64), the only call served.
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError(f"only generate_state(4, uint64) is precomputed, not ({n_words}, {dtype})")
            return self.state

    return _StateSeed


def check_key(check_id: str) -> int:
    """Stable integer tag for a check id (CRC32; stable across Python runs)."""
    return zlib.crc32(check_id.encode("utf-8"))


def _complex_gaussians(rngs, *shape: int) -> np.ndarray:
    """One standard complex Gaussian array of ``shape`` per stream, stacked:
    each stream draws real, then imaginary parts into its slot of one buffer,
    bit for bit ``(z[0] + 1j * z[1]) / np.sqrt(2.0)`` of its draw ``z``."""
    z = np.empty((len(rngs), 2, *shape))
    for rng, slot in zip(rngs, z):
        rng.standard_normal(out=slot)
    z *= _INV_SQRT2
    out = np.empty((len(rngs), *shape), dtype=np.complex128)
    out.real = z[:, 0]
    out.imag = z[:, 1]
    return out


def _draw_until(rngs, draw):
    """The first accepted draw of each stream: ``draw(streams)`` draws once
    from each stream given and returns a tuple of arrays, one row per stream,
    and a boolean array of the rows it accepts; the other streams draw again."""
    out, accepted = draw(rngs)
    redo = np.flatnonzero(~accepted)
    while redo.size:
        rows, accepted = draw([rngs[i] for i in redo])
        for whole, part in zip(out, rows):
            whole[redo] = part
        redo = redo[~accepted]
    return out


def _unit_vectors(rngs, dim: int) -> np.ndarray:
    """One unit vector per stream, stacked: a draw of norm <= 1e-6 is redrawn."""

    def draw(streams):
        x = _complex_gaussians(streams, dim)
        nrm = _norms(x)
        return (x / nrm[:, None],), nrm > 1e-6

    return _draw_until(rngs, draw)[0]


def ginibre(rng: np.random.Generator, dim: int) -> np.ndarray:
    return _complex_gaussians((rng,), dim, dim)[0]


def _phase_fixed_q(g: np.ndarray) -> np.ndarray:
    """Q of the QR of each Ginibre matrix of a stack g[..., n, n], its columns
    scaled by the phases of R's diagonal: Haar-distributed unitaries. One
    stacked QR; element b is bit for bit that of g[b] alone."""
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def _normal(u: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The normal matrix U diag(d) U* of a unitary U and eigenvalues d, or of
    each pair of a stack of them."""
    return (u * d[..., None, :]) @ _star(u)


def _nilpotents_sq_zero(rngs, dim: int) -> np.ndarray:
    """One square-zero x⊗y with <x,y> = 0 per stream, stacked, conjugated by a
    well-conditioned similarity (T^2 = 0 holds in exact arithmetic). A stream
    whose y has norm below 1e-6 once x is projected out draws x and y again."""

    def draw(streams):
        x = _unit_vectors(streams, dim)
        y = _complex_gaussians(streams, dim)
        y -= _inners(y, x)[:, None] * x
        nrm = _norms(y)
        return (x, y, nrm), nrm >= 1e-6

    x, y, nrm = _draw_until(rngs, draw)
    s = np.eye(dim) + 0.3 * _complex_gaussians(rngs, dim, dim)
    return s @ _outer(x, y / nrm[:, None]) @ np.linalg.inv(s)
