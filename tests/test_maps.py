import numpy as np
import pytest

from aluthge.generators import GeneratorSpec, haar_unitary
from aluthge.lemmas import run_check
from aluthge.linalg import frobenius, jordan_product, rank_one
from aluthge.maps import CHECKS, CandidateMap, adjoint_counterexample, apply_map, condition_check
from aluthge.transform import aluthge

TRIALS = 150


def spec(dim=4, seed=31):
    return GeneratorSpec(dim=dim, seed=seed)


def run(check_id, lam, trials, **spec_args):
    return run_check(CHECKS[check_id], spec(**spec_args), lam, trials)


def cgauss(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


class TestCandidateMap:
    def test_identity_map(self):
        phi = CandidateMap(kind="unitary_conj", unitary=np.eye(3))
        rng = np.random.default_rng(0)
        a = cgauss(rng, 3, 3)
        np.testing.assert_array_equal(apply_map(phi, a), a)

    def test_zero_and_identity_preserved(self):
        rng = np.random.default_rng(1)
        phi = CandidateMap(kind="unitary_conj", unitary=haar_unitary(rng, 4))
        np.testing.assert_allclose(apply_map(phi, np.zeros((4, 4))), np.zeros((4, 4)), atol=1e-15)
        np.testing.assert_allclose(apply_map(phi, np.eye(4)), np.eye(4), atol=1e-14)

    def test_plain_adjoint(self):
        phi = CandidateMap(kind="adjoint_conj", unitary=np.eye(2))
        nil = np.array([[0, 1], [0, 0]], dtype=complex)
        np.testing.assert_array_equal(apply_map(phi, nil), nil.conj().T)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            CandidateMap(kind="unitary_conj", unitary=2.0 * np.eye(2))

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            CandidateMap(kind="transpose", unitary=np.eye(2))

    def test_dimension_mismatch(self):
        phi = CandidateMap(kind="unitary_conj", unitary=np.eye(2))
        with pytest.raises(ValueError, match="mismatch"):
            apply_map(phi, np.eye(3))


class TestJordanCondition:
    def test_unitary_passes(self):
        assert run("jordan_condition_unitary", 0.5, TRIALS).failures == 0

    def test_adjoint_fails_as_expected(self):
        report = run("jordan_condition_adjoint", 0.5, TRIALS)
        assert report.failures == 0  # every non-vacuous trial refutes

    def test_adjoint_violates_condition_when_expected_to_pass(self):
        record = condition_check("adjoint_expected_to_pass", "adjoint_conj", star=False, expect="pass")
        assert run_check(record, spec(), 0.5, 50).failures > 0

    def test_scaled_fails_even_on_identity_pair(self):
        # c UAU* with c=2: at A = B = I the condition demands 4I = 2I
        phi = CandidateMap(kind="scaled_unitary_conj", unitary=np.eye(3), scale=2.0)
        lhs = aluthge(jordan_product(apply_map(phi, np.eye(3)), apply_map(phi, np.eye(3))), 0.5)
        rhs = apply_map(phi, aluthge(jordan_product(np.eye(3), np.eye(3)), 0.5))
        assert frobenius(lhs - rhs) == pytest.approx(2.0 * np.sqrt(3))
        assert run("jordan_condition_scaled", 0.5, TRIALS).failures == 0

    def test_adjoint_witness_residual_half(self):
        # A = e1⊗x', x' = (e1+e2)/sqrt(2), B = I, Phi = adjoint: spectral gap 1/2
        x = np.array([1.0, 0.0])
        xp = np.array([1.0, 1.0]) / np.sqrt(2)
        a = rank_one(x, xp)
        phi = CandidateMap(kind="adjoint_conj", unitary=np.eye(2))
        lhs = aluthge(jordan_product(apply_map(phi, a), np.eye(2)), 0.5)
        rhs = apply_map(phi, aluthge(jordan_product(a, np.eye(2)), 0.5))
        assert np.linalg.norm(lhs - rhs, 2) == pytest.approx(0.5, abs=1e-12)


class TestStarJordanCondition:
    def test_unitary_passes(self):
        assert run("star_jordan_condition_unitary", 0.5, TRIALS).failures == 0

    def test_adjoint_fails_as_expected(self):
        assert run("star_jordan_condition_adjoint", 0.5, TRIALS).failures == 0

    def test_selfadjoint_b_matches_plain_condition(self):
        # with B = B* the star condition coincides with the plain one trialwise
        rng = np.random.default_rng(3)
        u = haar_unitary(rng, 4)
        phi = CandidateMap(kind="unitary_conj", unitary=u)
        a = cgauss(rng, 4, 4)
        g = cgauss(rng, 4, 4)
        b = (g + g.conj().T) / 2
        lhs_star = aluthge(jordan_product(apply_map(phi, a), apply_map(phi, b).conj().T), 0.5)
        lhs_plain = aluthge(jordan_product(apply_map(phi, a), apply_map(phi, b)), 0.5)
        np.testing.assert_allclose(lhs_star, lhs_plain, atol=1e-12)


class TestStructural:
    @pytest.mark.parametrize("dim", [3, 4, 6])
    def test_unitary_preserves_structure(self, dim):
        assert run("structural_properties", 0.5, TRIALS, dim=dim).failures == 0


class TestVectorState:
    def test_identity_matrix_both_sides_one(self):
        rng = np.random.default_rng(4)
        u = haar_unitary(rng, 5)
        phi = CandidateMap(kind="unitary_conj", unitary=u)
        x = cgauss(rng, 5)
        x /= np.linalg.norm(x)
        y = u @ x
        val = np.vdot(y, apply_map(phi, np.eye(5)) @ y)
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_random_pairs_agree(self):
        report = run("vector_state_identity", 0.0, TRIALS, dim=5)
        assert report.failures == 0
        assert report.worst_residual <= 1e-10


class TestAdjointCounterexample:
    def test_canonical_witness(self):
        x = np.array([1.0, 0.0])
        xp = np.array([1.0, 1.0]) / np.sqrt(2)
        for lam in (0.25, 0.5, 0.9):
            result = adjoint_counterexample(lam, x, xp)
            assert result.residual == pytest.approx(0.5, abs=1e-10)
            assert result.closed_form_residual == pytest.approx(0.5, abs=1e-14)

    def test_closed_form_sides(self):
        # Delta(A) = <x,x'>(x'⊗x') and Delta(A*) = <x',x>(x⊗x) via Prop-style oracle
        rng = np.random.default_rng(5)
        x = cgauss(rng, 3)
        x /= np.linalg.norm(x)
        xp = cgauss(rng, 3)
        xp /= np.linalg.norm(xp)
        c = complex(np.vdot(xp, x))
        result = adjoint_counterexample(0.5, x, xp)
        np.testing.assert_allclose(result.delta_of_adjoint, np.conj(c) * rank_one(x, x), atol=1e-10)
        np.testing.assert_allclose(result.adjoint_of_delta, np.conj(c) * rank_one(xp, xp), atol=1e-10)
        assert result.residual == pytest.approx(result.closed_form_residual, abs=1e-10)
        assert result.residual > 0

    def test_orthogonal_rejected(self):
        with pytest.raises(ValueError, match="non-orthogonal"):
            adjoint_counterexample(0.5, [1, 0], [0, 1])

    def test_equal_rejected(self):
        with pytest.raises(ValueError, match="independent"):
            adjoint_counterexample(0.5, [1, 0], [1, 0])

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError, match="unit"):
            adjoint_counterexample(0.5, [2, 0], [1, 0])
