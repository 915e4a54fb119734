import numpy as np
import pytest

from aluthge.generators import (
    MIN_CONDITION,
    complex_gaussian,
    ginibre,
    haar_unitary,
    invertible_ginibre,
    nilpotent_sq_zero,
    normal_matrix,
    trial_rng,
    unit_vector,
)
from aluthge.linalg import frobenius

STRUCT_TOL = 1e-12


class TestStreams:
    def test_trial_rng_reproducible(self):
        a = trial_rng(7, 1, 2).standard_normal(5)
        b = trial_rng(7, 1, 2).standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_trial_rng_streams_differ(self):
        a = trial_rng(7, 1, 2).standard_normal(5)
        b = trial_rng(7, 1, 3).standard_normal(5)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("shape", [(3,), (4, 4), (1,), (6, 6)])
    def test_complex_gaussian_matches_two_draw_form(self, shape):
        # One draw of 2 x shape gives the values, bit for bit, and leaves the
        # stream where separate real and imaginary draws would.
        one, two = trial_rng(3, *shape), trial_rng(3, *shape)
        z = complex_gaussian(one, *shape)
        expected = (two.standard_normal(shape) + 1j * two.standard_normal(shape)) / np.sqrt(2.0)
        assert z.tobytes() == expected.tobytes()
        assert one.bit_generator.state == two.bit_generator.state


class TestStructuralSelfTests:
    """Every kind satisfies its structural predicate to 1e-12."""

    def setup_method(self):
        self.rng = np.random.default_rng(123)

    def test_unitary(self):
        for dim in (2, 4, 6):
            u = haar_unitary(self.rng, dim)
            assert frobenius(u.conj().T @ u - np.eye(dim)) <= STRUCT_TOL

    def test_normal(self):
        n = normal_matrix(self.rng, 5)
        assert frobenius(n @ n.conj().T - n.conj().T @ n) <= STRUCT_TOL * (1 + frobenius(n) ** 2)

    def test_nilpotent_square_zero(self):
        for _ in range(50):
            t = nilpotent_sq_zero(self.rng, 5)
            assert frobenius(t @ t) <= STRUCT_TOL * (1 + frobenius(t) ** 2)

    def test_invertible_condition_floor(self):
        g = invertible_ginibre(self.rng, 4)
        s = np.linalg.svd(g, compute_uv=False)
        assert s[-1] >= MIN_CONDITION * s[0]

    def test_unit_vector(self):
        x = unit_vector(self.rng, 7)
        assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-14)

    def test_ginibre_shape(self):
        assert ginibre(self.rng, 3).shape == (3, 3)
