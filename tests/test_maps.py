import numpy as np
import pytest

from aluthge.generators import _phase_fixed_q, ginibre
from aluthge.lemmas import run_check
from aluthge.linalg import _jordan
from aluthge.maps import (
    CHECKS,
    adjoint_conj,
    condition_check,
    scaled_conj,
    unitary_conj,
)
from aluthge.transform import aluthge
from predicates import rank_one

TRIALS = 150


def run(check_id, lam, trials, dim=4, seed=31):
    return run_check(CHECKS[check_id], dim, seed, lam, trials)


def cgauss(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


class TestCandidateMap:
    """The map functions A -> UAU*, UA*U* and 2UAU*."""

    def test_identity_map(self):
        rng = np.random.default_rng(0)
        a = cgauss(rng, 3, 3)
        np.testing.assert_array_equal(unitary_conj(np.eye(3, dtype=complex), a), a)

    def test_zero_and_identity_preserved(self):
        rng = np.random.default_rng(1)
        u = _phase_fixed_q(ginibre(rng, 4))
        np.testing.assert_allclose(unitary_conj(u, np.zeros((4, 4), dtype=complex)), np.zeros((4, 4)), atol=1e-15)
        np.testing.assert_allclose(unitary_conj(u, np.eye(4, dtype=complex)), np.eye(4), atol=1e-14)

    def test_plain_adjoint(self):
        nil = np.array([[0, 1], [0, 0]], dtype=complex)
        np.testing.assert_array_equal(adjoint_conj(np.eye(2, dtype=complex), nil), nil.conj().T)


class TestJordanCondition:
    def test_unitary_passes(self):
        assert run("jordan_condition_unitary", 0.5, TRIALS)["failures"] == 0

    def test_adjoint_fails_as_expected(self):
        report = run("jordan_condition_adjoint", 0.5, TRIALS)
        assert report["failures"] == 0  # every non-vacuous trial refutes

    def test_adjoint_violates_condition_when_expected_to_pass(self):
        record = condition_check("adjoint_expected_to_pass", adjoint_conj, star=False, expect="pass")
        assert run_check(record, 4, 31, 0.5, 50)["failures"] > 0

    def test_scaled_fails_even_on_identity_pair(self):
        # c UAU* with c=2: at A = B = I the condition demands 4I = 2I
        eye = np.eye(3, dtype=complex)
        lhs = aluthge(_jordan(scaled_conj(eye, eye), scaled_conj(eye, eye)), 0.5)
        rhs = scaled_conj(eye, aluthge(_jordan(eye, eye), 0.5))
        assert np.linalg.norm(lhs - rhs) == pytest.approx(2.0 * np.sqrt(3))
        assert run("jordan_condition_scaled", 0.5, TRIALS)["failures"] == 0

    def test_adjoint_witness_residual_half(self):
        # A = e1⊗x', x' = (e1+e2)/sqrt(2), B = I, Phi = adjoint: spectral gap 1/2
        x = np.array([1.0, 0.0])
        xp = np.array([1.0, 1.0]) / np.sqrt(2)
        a = rank_one(x, xp)
        eye = np.eye(2, dtype=complex)
        lhs = aluthge(_jordan(adjoint_conj(eye, a), eye), 0.5)
        rhs = adjoint_conj(eye, aluthge(_jordan(a, eye), 0.5))
        assert np.linalg.norm(lhs - rhs, 2) == pytest.approx(0.5, abs=1e-12)


class TestStarJordanCondition:
    def test_unitary_passes(self):
        assert run("star_jordan_condition_unitary", 0.5, TRIALS)["failures"] == 0

    def test_adjoint_fails_as_expected(self):
        assert run("star_jordan_condition_adjoint", 0.5, TRIALS)["failures"] == 0

    def test_selfadjoint_b_matches_plain_condition(self):
        # with B = B* the star condition coincides with the plain one trialwise
        rng = np.random.default_rng(3)
        u = _phase_fixed_q(ginibre(rng, 4))
        a = cgauss(rng, 4, 4)
        g = cgauss(rng, 4, 4)
        b = (g + g.conj().T) / 2
        lhs_star = aluthge(_jordan(unitary_conj(u, a), unitary_conj(u, b).conj().T), 0.5)
        lhs_plain = aluthge(_jordan(unitary_conj(u, a), unitary_conj(u, b)), 0.5)
        np.testing.assert_allclose(lhs_star, lhs_plain, atol=1e-12)


class TestStructural:
    @pytest.mark.parametrize("dim", [3, 4, 6])
    def test_unitary_preserves_structure(self, dim):
        assert run("structural_properties", 0.5, TRIALS, dim=dim)["failures"] == 0


class TestVectorState:
    def test_identity_matrix_both_sides_one(self):
        rng = np.random.default_rng(4)
        u = _phase_fixed_q(ginibre(rng, 5))
        x = cgauss(rng, 5)
        x /= np.linalg.norm(x)
        y = u @ x
        val = np.vdot(y, unitary_conj(u, np.eye(5, dtype=complex)) @ y)
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_random_pairs_agree(self):
        report = run("vector_state_identity", 0.0, TRIALS, dim=5)
        assert report["failures"] == 0
        assert report["worst_residual"] <= 1e-10


class TestAdjointCounterexample:
    """Delta(A*) against Delta(A)* for the rank-one A = x⊗x', through aluthge."""

    def test_canonical_witness(self):
        a = rank_one(np.array([1.0, 0.0]), np.array([1.0, 1.0]) / np.sqrt(2))
        for lam in (0.25, 0.5, 0.9):
            gap = np.linalg.norm(aluthge(a.conj().T, lam) - aluthge(a, lam).conj().T, 2)
            assert gap == pytest.approx(0.5, abs=1e-10)

    def test_closed_form_sides(self):
        # Delta(A) = <x,x'>(x'⊗x') and Delta(A*) = <x',x>(x⊗x) via Prop-style oracle
        rng = np.random.default_rng(5)
        x = cgauss(rng, 3)
        x /= np.linalg.norm(x)
        xp = cgauss(rng, 3)
        xp /= np.linalg.norm(xp)
        c = complex(np.vdot(xp, x))
        a = rank_one(x, xp)
        delta_of_adjoint = aluthge(a.conj().T, 0.5)
        adjoint_of_delta = aluthge(a, 0.5).conj().T
        np.testing.assert_allclose(delta_of_adjoint, np.conj(c) * rank_one(x, x), atol=1e-10)
        np.testing.assert_allclose(adjoint_of_delta, np.conj(c) * rank_one(xp, xp), atol=1e-10)
        gap = np.linalg.norm(delta_of_adjoint - adjoint_of_delta, 2)
        assert gap == pytest.approx(abs(c) * np.sqrt(1 - abs(c) ** 2), abs=1e-10)
        assert gap > 0
