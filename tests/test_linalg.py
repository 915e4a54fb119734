import numpy as np
import pytest

from aluthge.linalg import (
    DEFAULT_TOL,
    Tolerances,
    frobenius,
    is_normal,
    is_partial_isometry,
    is_projection,
    is_quasi_normal,
    jordan_product,
    rank_one,
    spectra_pairing_distance,
    spectrum,
    validate_matrix,
)

NIL = np.array([[0, 1], [0, 0]], dtype=complex)


def crng(seed):
    return np.random.default_rng(seed)


def cgauss(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


class TestValidate:
    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            validate_matrix([[np.nan, 0], [0, 0]])

    def test_rejects_inf_imag(self):
        with pytest.raises(ValueError, match="finite"):
            validate_matrix([[1j * np.inf, 0], [0, 0]])

    def test_rejects_non_square_when_required(self):
        with pytest.raises(ValueError, match="square"):
            validate_matrix(np.zeros((2, 3)), square=True)


class TestTolerances:
    def test_defaults(self):
        t = Tolerances()
        assert t.rank_rel == 1e-12 and t.eq_abs == 1e-9 and t.fix_rel == 1e-8

    @pytest.mark.parametrize("bad", [{"rank_rel": 0.0}, {"eq_abs": 1.0}, {"fix_rel": -1e-3}])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            Tolerances(**bad)


class TestJordanProduct:
    def test_identity_absorbs(self):
        rng = crng(2)
        a = cgauss(rng, 3, 3)
        np.testing.assert_allclose(jordan_product(a, np.eye(3)), a, atol=1e-15)

    def test_nilpotent_pair_gives_half_identity(self):
        # oracle: AB = diag(1,0), BA = diag(0,1), so (AB+BA)/2 = I/2
        b = np.array([[0, 0], [1, 0]], dtype=complex)
        np.testing.assert_allclose(jordan_product(NIL, b), np.eye(2) / 2)

    def test_nested_projection_absorbed(self):
        # Q <= P implies P∘Q = Q
        p = np.diag([1.0, 1.0, 0.0]).astype(complex)
        q = np.diag([1.0, 0.0, 0.0]).astype(complex)
        np.testing.assert_allclose(jordan_product(p, q), q)

    def test_symmetric_bit_identical(self):
        rng = crng(3)
        for _ in range(100):
            a, b = cgauss(rng, 4, 4), cgauss(rng, 4, 4)
            np.testing.assert_array_equal(jordan_product(a, b), jordan_product(b, a))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            jordan_product(np.eye(2), np.eye(3))


class TestRankOne:
    def test_projection_from_e1(self):
        np.testing.assert_array_equal(rank_one([1, 0], [1, 0]), np.diag([1.0, 0.0]).astype(complex))

    def test_entrywise_formula(self):
        np.testing.assert_array_equal(rank_one([1, 0], [0, 1]), NIL)

    def test_action_is_inner_product_times_x(self):
        rng = crng(4)
        for _ in range(100):
            x, y, u = cgauss(rng, 5), cgauss(rng, 5), cgauss(rng, 5)
            np.testing.assert_allclose(rank_one(x, y) @ u, np.vdot(y, u) * x, atol=1e-12)

    def test_rank_exactly_one(self):
        rng = crng(5)
        m = rank_one(cgauss(rng, 6), cgauss(rng, 6))
        assert np.linalg.matrix_rank(m) == 1

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            rank_one([0, 0], [1, 0])


class TestSpectrum:
    def test_triangular(self):
        np.testing.assert_allclose(spectrum(np.array([[1, 1], [0, 2]], dtype=complex)), [1.0, 2.0])

    def test_nilpotent(self):
        np.testing.assert_allclose(spectrum(NIL), [0.0, 0.0])

    def test_rank_one_projection(self):
        rng = crng(12)
        x = cgauss(rng, 4)
        x /= np.linalg.norm(x)
        np.testing.assert_allclose(spectrum(rank_one(x, x)), [0, 0, 0, 1], atol=1e-12)

    def test_unitary_similarity_invariance(self):
        rng = crng(13)
        for _ in range(100):
            a = cgauss(rng, 5, 5)
            q, _ = np.linalg.qr(cgauss(rng, 5, 5))
            d = spectra_pairing_distance(spectrum(a), spectrum(q @ a @ q.conj().T))
            assert d <= 1e-8 * (1 + frobenius(a))


class TestPairingDistance:
    def test_permutation_invariant(self):
        assert spectra_pairing_distance([1, 2j, 3], [3, 1, 2j]) == 0.0

    def test_simple_shift(self):
        assert spectra_pairing_distance([0.0, 1.0], [0.0, 1.5]) == pytest.approx(0.5)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            spectra_pairing_distance([1.0], [1.0, 2.0])


class TestPredicates:
    def test_unitary_is_quasi_normal(self):
        rng = crng(14)
        q, _ = np.linalg.qr(cgauss(rng, 4, 4))
        assert is_quasi_normal(q) and is_normal(q)

    def test_nilpotent_predicates_by_oracle(self):
        # TT*T = [[0,1],[0,0]] while T*T^2 = 0 (direct multiplication oracle)
        np.testing.assert_array_equal(NIL @ NIL.conj().T @ NIL, NIL)
        np.testing.assert_array_equal(NIL.conj().T @ NIL @ NIL, np.zeros((2, 2)))
        assert not is_quasi_normal(NIL)
        assert not is_normal(NIL)
        assert not is_projection(NIL)
        # e1⊗e2 satisfies TT*T = T exactly: it IS a partial isometry
        assert is_partial_isometry(NIL)
        # a scaled shift is not: TT*T = 4T != T
        assert not is_partial_isometry(np.array([[0, 2], [0, 0]], dtype=complex))

    def test_rank_one_unit_projection(self):
        rng = crng(15)
        x = cgauss(rng, 5)
        x /= np.linalg.norm(x)
        assert is_projection(rank_one(x, x))

    def test_quasi_normal_equals_normal_in_finite_dim(self):
        rng = crng(16)
        for _ in range(300):
            t = cgauss(rng, 4, 4)
            assert is_quasi_normal(t) == is_normal(t)
