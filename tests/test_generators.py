import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aluthge import lemmas
from aluthge.generators import (
    complex_gaussian,
    ginibre,
    haar_unitary,
    nilpotent_sq_zero,
    normal_matrix,
    trial_rng,
    unit_vector,
)
from aluthge.lemmas import MIN_CONDITION, Check, run_check
from aluthge.linalg import frobenius

STRUCT_TOL = 1e-12
GAUSSIAN_SHAPES = [(n,) for n in (*range(1, 9), 48)] + [(n, n) for n in (*range(1, 9), 48)]


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

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**63 - 1), shape=st.sampled_from(GAUSSIAN_SHAPES))
    def test_complex_gaussian_matches_division_form(self, seed, shape):
        # Scaling both parts by 1/sqrt(2) is the division numpy performs.
        one, two = np.random.default_rng(seed), np.random.default_rng(seed)
        z = complex_gaussian(one, *shape)
        w = two.standard_normal((2, *shape))
        expected = (w[0] + 1j * w[1]) / np.sqrt(2.0)
        assert (z.dtype, z.shape) == (expected.dtype, expected.shape)
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

    def test_driver_conditioned_draws_meet_floor(self, monkeypatch):
        # The checks' conditioned draws come from the driver's svdvals
        # requests. At a floor of 0.3 most 4 x 4 Ginibre draws fall below
        # it, so the redraw path runs too.
        for floor in (MIN_CONDITION, 0.3):
            monkeypatch.setattr(lemmas, "MIN_CONDITION", floor)
            ratios, redrawn = [], []

            def trial(r):
                first = ginibre(copy.deepcopy(r.rng), r.dim)
                m = yield from lemmas._invertible_ginibre(r.rng, r.dim)
                s = np.linalg.svd(m, compute_uv=False)
                ratios.append(s[-1] / s[0])
                redrawn.append(not np.array_equal(m, first))

            run_check(Check("toy", trial), 4, 99, 0.5, 50)
            assert len(ratios) == 50
            assert min(ratios) >= floor
            assert any(redrawn) == (floor == 0.3)

    def test_unit_vector(self):
        x = unit_vector(self.rng, 7)
        assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-14)

    def test_ginibre_shape(self):
        assert ginibre(self.rng, 3).shape == (3, 3)
