import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aluthge import transform
from aluthge.linalg import _star, spectra_pairing_distance, spectrum
from aluthge.transform import (
    aluthge,
    aluthge_rank_one,
    aluthge_stack,
    iterate_aluthge,
    polar,
)
from predicates import is_normal, is_partial_isometry, rank_one

NIL = np.array([[0, 1], [0, 0]], dtype=complex)


def cgauss(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def haar(rng, n):
    q, r = np.linalg.qr(cgauss(rng, n, n))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


# Hypothesis drives the seed of a Ginibre draw, its size, lambda and a scale.
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)
SEEDS = st.integers(0, 2**32 - 1)
DIMS = st.integers(2, 6)
LAMBDAS = st.floats(0.0, 1.0)
OPEN_LAMBDAS = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
SCALES = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)


class TestPolar:
    def test_hand_svd_example(self):
        # T = [[0,2],[0,0]] maps e2 -> 2 e1: V = e1 e2*, |T| = diag(0,2)
        pd = polar(np.array([[0, 2], [0, 0]], dtype=complex))
        np.testing.assert_allclose(pd.isometry_part, NIL, atol=1e-14)
        np.testing.assert_allclose(pd.modulus, np.diag([0.0, 2.0]), atol=1e-14)

    def test_unitary_input(self):
        rng = np.random.default_rng(0)
        u = haar(rng, 4)
        pd = polar(u)
        np.testing.assert_allclose(pd.isometry_part, u, atol=1e-12)
        np.testing.assert_allclose(pd.modulus, np.eye(4), atol=1e-12)

    def test_psd_input(self):
        rng = np.random.default_rng(1)
        g = cgauss(rng, 4, 4)
        m = g @ g.conj().T
        pd = polar(m)
        np.testing.assert_allclose(pd.modulus, m, atol=1e-10)
        v = pd.isometry_part
        # V is the projection onto range(M) here
        np.testing.assert_allclose(v @ v, v, atol=1e-10)
        np.testing.assert_allclose(v @ m, m, atol=1e-9)

    def test_zero_matrix(self):
        pd = polar(np.zeros((3, 3)))
        np.testing.assert_array_equal(pd.isometry_part, np.zeros((3, 3)))
        np.testing.assert_array_equal(pd.modulus, np.zeros((3, 3)))

    def test_invariants_random(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            t = cgauss(rng, 5, 5)
            pd = polar(t)
            assert np.linalg.norm(pd.isometry_part @ pd.modulus - t) <= 1e-10 * (1 + np.linalg.norm(t))
            assert is_partial_isometry(pd.isometry_part)
            w = np.linalg.eigvalsh((pd.modulus + pd.modulus.conj().T) / 2)
            assert w[0] >= -1e-12 * max(w[-1], 1.0)

    def test_null_space_convention(self):
        # rank-deficient T: V must annihilate exactly N(T)
        rng = np.random.default_rng(3)
        x, y = cgauss(rng, 4), cgauss(rng, 4)
        t = rank_one(x, y)
        pd = polar(t)
        _, _, vh = np.linalg.svd(t)
        null_basis = vh[1:].conj().T  # numerical null space of T
        assert np.linalg.norm(pd.isometry_part @ null_basis) <= 1e-12
        range_vec = y / np.linalg.norm(y)
        assert np.linalg.norm(pd.isometry_part @ range_vec) == pytest.approx(1.0, abs=1e-12)


class TestAluthge:
    def test_identity_fixed_point(self):
        for lam in (0.0, 0.25, 0.5, 1.0):
            np.testing.assert_allclose(aluthge(np.eye(3), lam), np.eye(3), atol=1e-14)

    def test_nilpotent_kernel(self):
        np.testing.assert_allclose(aluthge(NIL, 0.5), np.zeros((2, 2)), atol=1e-14)

    def test_spectrum_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            t = cgauss(rng, 5, 5)
            d = spectra_pairing_distance(spectrum(t), spectrum(aluthge(t, 0.3)))
            assert d <= 1e-7 * (1 + np.linalg.norm(t))

    def test_endpoints(self):
        rng = np.random.default_rng(5)
        t = cgauss(rng, 4, 4)
        np.testing.assert_allclose(aluthge(t, 0.0), t, atol=1e-10 * (1 + np.linalg.norm(t)))
        pd = polar(t)
        np.testing.assert_allclose(aluthge(t, 1.0), pd.modulus @ pd.isometry_part, atol=1e-12)

    def test_endpoint_zero_on_singular_input(self):
        # endpoints bypass fractional powers, so singular T reconstructs exactly
        t = np.array([[0, 2], [0, 0]], dtype=complex)
        np.testing.assert_allclose(aluthge(t, 0.0), t, atol=1e-14)

    def test_normal_fixed_points(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            u = haar(rng, 4)
            t = (u * cgauss(rng, 4)) @ u.conj().T
            assert np.linalg.norm(aluthge(t, 0.5) - t) <= 1e-8 * (1 + np.linalg.norm(t))

    def test_non_normal_moves(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            t = cgauss(rng, 4, 4)
            if is_normal(t):
                continue
            assert np.linalg.norm(aluthge(t, 0.5) - t) > 1e-8 * (1 + np.linalg.norm(t))

    def test_unitary_covariance(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            t = cgauss(rng, 4, 4)
            u = haar(rng, 4)
            lhs = aluthge(u @ t @ u.conj().T, 0.4)
            rhs = u @ aluthge(t, 0.4) @ u.conj().T
            assert np.linalg.norm(lhs - rhs) <= 1e-8 * (1 + np.linalg.norm(t))

    def test_lambda_out_of_range(self):
        with pytest.raises(ValueError, match="lambda"):
            aluthge(np.eye(2), 1.5)


def low_rank(rng, n, rank):
    return cgauss(rng, n, rank) @ cgauss(rng, rank, n)


# The rank sets of a stack of order 6, and the layouts it is handed over in:
# C order, conjugate-transposed views and Fortran order.
RANKS = {(6, 1, 3, 0, 6, 3): "mixed", (6, 6, 6): "uniform", (3, 3, 3): "truncated"}
LAYOUTS = {np.ascontiguousarray: "", _star: "-star", np.asfortranarray: "-F"}


class TestAluthgeStack:
    @pytest.mark.parametrize("lam", [0.0, 0.3, 0.5, 1.0])
    @pytest.mark.parametrize(
        ("ranks", "layout"),
        [(ranks, layout) for layout in LAYOUTS for ranks in RANKS],
        ids=[f"{name}{suffix}" for suffix in LAYOUTS.values() for name in RANKS.values()],
    )
    def test_stack_equals_each_element_bit_for_bit(self, lam, ranks, layout):
        rng = np.random.default_rng(40)
        stack = layout(np.stack([low_rank(rng, 6, r) for r in ranks]))
        out = aluthge_stack(stack, lam)
        assert out.shape == stack.shape
        for t, d in zip(stack, out):
            np.testing.assert_array_equal(d, aluthge(np.ascontiguousarray(t), lam))
        # V is built one way, into a C-ordered stack, whatever the input's layout.
        v, *_ = transform._decompose(stack, transform.DEFAULT_TOL)
        assert v.flags.c_contiguous
        if len(set(ranks)) == 1:
            # One rank for the whole stack: V is the product of the truncated frames' views.
            w, _, xh = np.linalg.svd(stack)
            r = ranks[0]
            assert v.tobytes() == (w[..., :r] @ xh[..., :r, :]).tobytes()

    def test_mixed_ranks_are_decided_per_element(self):
        rng = np.random.default_rng(41)
        stack = np.stack([low_rank(rng, 4, r) for r in (4, 1, 2, 0)])
        *_, ranks = transform._decompose(stack, transform.DEFAULT_TOL)
        assert ranks.tolist() == [4, 1, 2, 0]

    def test_non_finite_element_rejected(self):
        stack = np.stack([np.eye(3, dtype=complex)] * 4)
        stack[2, 1, 0] = complex(0.0, np.nan)
        with pytest.raises(ValueError, match=r"matrix entries must be finite \(no NaN/Inf\)"):
            aluthge_stack(stack, 0.5)

    @pytest.mark.parametrize("bad", [np.eye(3), np.zeros((2, 3, 2)), np.zeros((2, 0, 0))])
    def test_malformed_stack_rejected(self, bad):
        with pytest.raises(ValueError):
            aluthge_stack(bad, 0.5)

    def test_lambda_out_of_range(self):
        with pytest.raises(ValueError, match="lambda"):
            aluthge_stack(np.eye(2)[None], -0.1)


class TestAluthgeRankOne:
    def test_hand_example(self):
        x = np.array([1.0, 0.0])
        y = np.array([1.0, 1.0]) / np.sqrt(2)
        expected = (1 / np.sqrt(2)) * np.array([[0.5, 0.5], [0.5, 0.5]])
        np.testing.assert_allclose(aluthge_rank_one(x, y, 0.5), expected, atol=1e-14)
        np.testing.assert_allclose(aluthge(rank_one(x, y), 0.5), expected, atol=1e-12)

    def test_orthogonal_gives_zero(self):
        np.testing.assert_allclose(aluthge_rank_one([1, 0], [0, 1], 0.3), np.zeros((2, 2)), atol=1e-15)

    def test_projection_fixed_point(self):
        rng = np.random.default_rng(9)
        x = cgauss(rng, 4)
        x /= np.linalg.norm(x)
        np.testing.assert_allclose(aluthge_rank_one(x, x, 0.7), rank_one(x, x), atol=1e-14)

    def test_agrees_with_decomposition_path(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            dim = int(rng.integers(2, 9))
            x, y = cgauss(rng, dim), cgauss(rng, dim)
            resid = np.linalg.norm(aluthge(rank_one(x, y), 0.5) - aluthge_rank_one(x, y, 0.5))
            assert resid <= 1e-9 * (1 + np.linalg.norm(x) * np.linalg.norm(y))

    def test_endpoint_lambda_rejected(self):
        with pytest.raises(ValueError, match="lambda"):
            aluthge_rank_one([1, 0], [0, 1], 0.0)

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError, match=r"^dimension mismatch: \(2,\) vs \(3,\)$"):
            aluthge_rank_one([1, 0], [0, 1, 1], 0.5)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 8, 32])
    def test_stacked_form_matches_each_pair_bitwise(self, n):
        # The oracle divides as Python divides a complex by a float. Real pairs
        # give inner products with a zero imaginary part, imaginary x against
        # real y ones with a zero real part; the other part takes either sign.
        rng = np.random.default_rng(n)
        x, y = cgauss(rng, 64, n), cgauss(rng, 64, n)
        x[:16], y[:32] = x[:16].real, y[:32].real
        x[16:32] = 1j * x[16:32].imag
        x[32:40] *= 1e-300
        y[40:48] *= 1e150
        inner = np.array([complex(np.vdot(yb, xb)) for xb, yb in zip(x, y)])
        assert (inner[:16].imag == 0).all() and (inner[16:32].real == 0).all()
        assert (inner[:16].real < 0).any() and (inner[16:32].imag < 0).any()
        got = transform._aluthge_rank_ones(x, y)
        for xb, yb, c, g in zip(x, y, inner.tolist(), got):
            expected = (c / float(np.vdot(yb, yb).real)) * np.outer(yb, yb.conj())
            assert g.tobytes() == expected.tobytes()
            assert g.tobytes() == aluthge_rank_one(xb, yb, 0.5).tobytes()


class TestDuggal:
    """The Duggal transform |T|V, which is aluthge(T, 1.0)."""

    def test_normal_fixed(self):
        rng = np.random.default_rng(11)
        u = haar(rng, 3)
        t = (u * cgauss(rng, 3)) @ u.conj().T
        np.testing.assert_allclose(aluthge(t, 1.0), t, atol=1e-10 * (1 + np.linalg.norm(t)))

    def test_explicit_2x2(self):
        # |T| V = diag(0,2) @ [[0,1],[0,0]] = 0 by direct multiplication
        np.testing.assert_allclose(aluthge(np.array([[0, 2], [0, 0]], dtype=complex), 1.0), np.zeros((2, 2)), atol=1e-14)

    def test_spectrum_preserved(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            t = cgauss(rng, 4, 4)
            d = spectra_pairing_distance(spectrum(t), spectrum(aluthge(t, 1.0)))
            assert d <= 1e-7 * (1 + np.linalg.norm(t))


class TestProperties:
    """Exact identities of the transform, within roundoff."""

    @PROPERTY
    @given(SEEDS, DIMS, LAMBDAS, SCALES)
    def test_homogeneous(self, seed, n, lam, c):
        t = cgauss(np.random.default_rng(seed), n, n)
        d = aluthge(t, lam)
        assert np.linalg.norm(aluthge(c * t, lam) / c - d) <= 1e-12 * np.linalg.norm(d)

    @PROPERTY
    @given(SEEDS, DIMS, LAMBDAS)
    def test_unitary_covariant(self, seed, n, lam):
        rng = np.random.default_rng(seed)
        t, u = cgauss(rng, n, n), haar(rng, n)
        d = aluthge(t, lam)
        assert np.linalg.norm(aluthge(u @ t @ u.conj().T, lam) - u @ d @ u.conj().T) <= 1e-12 * np.linalg.norm(d)

    @PROPERTY
    @given(SEEDS, DIMS, LAMBDAS, SCALES)
    def test_spectral_norm_bound(self, seed, n, lam, c):
        t = c * cgauss(np.random.default_rng(seed), n, n)
        assert np.linalg.norm(aluthge(t, lam), 2) <= np.linalg.norm(t, 2) * (1 + 1e-12)

    @PROPERTY
    @given(SEEDS, DIMS, OPEN_LAMBDAS, SCALES)
    def test_rank_one_closed_form(self, seed, n, lam, c):
        # Delta_lambda(x⊗y) = (<x,y> / ||y||^2) (y⊗y), with x scaled by c.
        rng = np.random.default_rng(seed)
        x, y = cgauss(rng, n), cgauss(rng, n)
        gap = aluthge(rank_one(c * x, y), lam) - aluthge_rank_one(c * x, y, lam)
        assert np.linalg.norm(gap / c) <= 1e-12 * np.linalg.norm(x) * np.linalg.norm(y)

    @PROPERTY
    @given(SEEDS, DIMS, OPEN_LAMBDAS)
    def test_adjoint_gap_closed_form(self, seed, n, lam):
        # ||Delta(A*) - Delta(A)*||_2 = |c| sqrt(1 - |c|^2) for A = x⊗x' with
        # unit x, x' and c = <x,x'>: the adjoint does not commute with Delta.
        rng = np.random.default_rng(seed)
        x, xp = (v / np.linalg.norm(v) for v in (cgauss(rng, n), cgauss(rng, n)))
        a = rank_one(x, xp)
        c = abs(np.vdot(xp, x))
        gap = np.linalg.norm(aluthge(a.conj().T, lam) - aluthge(a, lam).conj().T, 2)
        assert abs(gap - c * np.sqrt(1.0 - c**2)) <= 1e-12

    @PROPERTY
    @given(SEEDS, DIMS, LAMBDAS)
    def test_spectrum_invariant(self, seed, n, lam):
        # sigma(Delta_lambda(T)) = sigma(T) (Jung-Ko-Pearcy 2000), to roundoff
        # amplified by the eigenvalues' condition numbers.
        t = cgauss(np.random.default_rng(seed), n, n)
        assert spectra_pairing_distance(spectrum(t), spectrum(aluthge(t, lam))) <= 1e-10 * np.linalg.norm(t)


class TestIterate:
    def test_normal_converges_immediately(self):
        rng = np.random.default_rng(13)
        u = haar(rng, 3)
        t = (u * cgauss(rng, 3)) @ u.conj().T
        steps = list(iterate_aluthge(t, 0.5, conv_tol=1e-8))
        assert len(steps) == 1 and steps[0][2]
        assert np.linalg.norm(steps[0][0] - t) <= 1e-8 * (1 + np.linalg.norm(t))
        assert is_normal(steps[0][0])

    def test_nilpotent_hits_zero(self):
        steps = list(iterate_aluthge(NIL, 0.5, conv_tol=1e-10))
        assert steps[-1][2]
        np.testing.assert_allclose(steps[0][0], np.zeros((2, 2)), atol=1e-14)

    def test_random_2x2_converges_to_normal(self):
        rng = np.random.default_rng(42)
        t = cgauss(rng, 2, 2)
        limit, _, converged = list(iterate_aluthge(t, 0.5, max_iter=500, conv_tol=1e-10))[-1]
        assert converged
        assert np.linalg.norm(limit @ limit.conj().T - limit.conj().T @ limit) <= 1e-6

    def test_trace_invariants(self):
        rng = np.random.default_rng(14)
        t = cgauss(rng, 3, 3)
        steps = list(iterate_aluthge(t, 0.5, max_iter=50, conv_tol=1e-9))
        assert 1 <= len(steps) <= 50
        if steps[-1][2]:
            assert steps[-1][1] <= 1e-9 * np.linalg.norm(t)
        sigma0 = spectrum(t)
        for it, _, _ in steps:
            assert spectra_pairing_distance(sigma0, spectrum(it)) <= 1e-7 * (1 + np.linalg.norm(t))

    def test_stops_at_first_converged_step(self):
        # Steps converge exactly when delta <= conv_tol ||T||_F, and the
        # sequence ends with the first one: every earlier step is unconverged.
        rng = np.random.default_rng(16)
        ended = []
        for _ in range(20):
            t = cgauss(rng, 2, 2)
            steps = list(iterate_aluthge(t, 0.5, conv_tol=1e-8))
            flags = [c for _, _, c in steps]
            assert not any(flags[:-1]) and (flags[-1] or len(steps) == 500)
            assert [d <= 1e-8 * np.linalg.norm(t) for _, d, _ in steps] == flags
            ended.append(flags[-1])
        assert sum(ended) >= 15
        steps = list(iterate_aluthge(cgauss(rng, 3, 3), 0.5, max_iter=3, conv_tol=1e-300))
        assert [c for _, _, c in steps] == [False] * 3

    def test_streams_one_transform_per_step(self, monkeypatch):
        # Each next() runs one transform; nothing runs before the first.
        calls = []
        monkeypatch.setattr(transform, "aluthge", lambda t, lam, tol: calls.append(1) or aluthge(t, lam, tol))
        steps = iterate_aluthge(cgauss(np.random.default_rng(17), 3, 3), 0.5)
        assert calls == []
        for k in range(1, 4):
            next(steps)
            assert len(calls) == k

    def test_convergence_test_is_scale_free(self):
        # The stop test is relative to ||T||_F: 1e-12 T must not pass it at
        # step 1 while T runs all 500 steps unconverged. At 1e-160 and 1e160
        # the squares of the entries under- and overflow, so the norms are
        # taken on T scaled by a power of two.
        t = cgauss(np.random.default_rng(4), 4, 4)
        for c in (1.0, 1e-6, 1e-12, 1e-160, 1e150, 1e160):
            steps = list(iterate_aluthge(c * t, 0.5))
            assert len(steps) == 500 and not any(converged for _, _, converged in steps)
        assert list(iterate_aluthge(np.zeros((3, 3)), 0.5))[-1][2]

    def test_overflowing_norm_raises(self):
        # Finite entries whose Frobenius norm exceeds the double range.
        with pytest.raises(FloatingPointError, match="overflows"):
            next(iterate_aluthge(np.full((4, 4), 1e308), 0.5))

    def test_non_finite_delta_raises(self, monkeypatch):
        monkeypatch.setattr(transform, "aluthge", lambda t, lam, tol: np.full_like(t, np.nan))
        with pytest.raises(FloatingPointError, match="step 1"):
            next(iterate_aluthge(np.eye(2), 0.5))

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            next(iterate_aluthge(np.eye(2), 0.5, max_iter=0))
        with pytest.raises(ValueError):
            next(iterate_aluthge(np.eye(2), 0.0))
        with pytest.raises(ValueError):
            next(iterate_aluthge(np.eye(2), 0.5, conv_tol=0.0))
        # A non-finite tolerance would declare convergence at step 1 (inf) or never (nan).
        for conv_tol in (math.inf, math.nan):
            with pytest.raises(ValueError):
                next(iterate_aluthge(np.eye(2), 0.5, conv_tol=conv_tol))
