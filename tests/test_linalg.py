import re

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from aluthge.linalg import (
    DEFAULT_TOL,
    Tolerances,
    _inners,
    _is_projection,
    _jordan,
    _norms,
    _pairing_distances,
    spectra_pairing_distance,
    spectrum,
    validate_matrix,
)
from aluthge.transform import aluthge, aluthge_rank_one, aluthge_stack, iterate_aluthge
from predicates import is_normal, is_partial_isometry, is_quasi_normal, rank_one

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


    @pytest.mark.parametrize(
        "entry", [complex(np.nan, 0.0), complex(0.0, np.nan), complex(-np.inf, 0.0), complex(0.0, -np.inf)]
    )
    def test_rejects_each_non_finite_part(self, entry):
        with pytest.raises(ValueError, match=r"^matrix entries must be finite \(no NaN/Inf\)$"):
            validate_matrix([[1.0, entry], [0.0, 1.0]])

    @pytest.mark.parametrize("entry", [np.finfo(float).max, -5e-324, complex(-0.0, 1e-310), 1j * np.finfo(float).max])
    def test_accepts_finite_extremes(self, entry):
        assert validate_matrix([[entry]])[0, 0] == entry


def bits(x) -> bytes:
    return np.float64(x).tobytes()


def one_norm(a) -> float:
    """The Frobenius norm of one matrix as the package takes it, ``_norms`` of
    a stack of one; integers converted to float64 first, as numpy does."""
    return _norms(np.asarray(a, dtype=np.result_type(a, 1.0))[None])[0]


class TestFrobenius:
    """``one_norm``, bit for bit ``np.linalg.norm(a, "fro")``."""

    @pytest.mark.parametrize(
        "a",
        [
            cgauss(crng(30), 5, 3),
            crng(31).standard_normal((4, 4)),
            np.array([[3.0 - 4.0j]]),
            np.array([[-2.5]]),
            np.full((3, 3), 5e-324 + 3e-320j),
            np.full((2, 2), 1e-310),
            np.full((2, 2), 1e200 + 1e200j),
            np.full((2, 2), 1e200),
            cgauss(crng(32), 6, 6).T,
            np.array([[1, 2], [3, 4]]),
        ],
        ids=["complex", "real", "1x1_complex", "1x1_real", "subnormal_complex", "subnormal_real",
             "overflow_complex", "overflow_real", "transposed", "integer"],
    )
    def test_bitwise_equal_to_numpy(self, a):
        with np.errstate(over="ignore"):
            assert bits(one_norm(a)) == bits(np.linalg.norm(a, "fro"))

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.tuples(st.integers(1, 8), st.integers(1, 8)),
        exponent=st.integers(-160, 160),
        kind=st.sampled_from(["real", "complex"]),
        view=st.sampled_from(["plain", "transposed", "fortran", "strided"]),
    )
    def test_bitwise_equal_to_numpy_on_views(self, seed, shape, exponent, kind, view):
        rng = crng(seed)
        # A strided view takes every other row of a larger array, its columns reversed.
        base_shape = (2 * shape[0], shape[1]) if view == "strided" else shape
        a = rng.standard_normal(base_shape) * 10.0**exponent
        if kind == "complex":
            a = a + 1j * rng.standard_normal(base_shape) * 10.0**exponent
        a = {"plain": a, "transposed": a.T, "fortran": np.asfortranarray(a), "strided": a[::2, ::-1]}[view]
        with np.errstate(over="ignore"):
            assert bits(one_norm(a)) == bits(np.linalg.norm(a, "fro"))

    @pytest.mark.parametrize("entry", [complex(1.0, np.nan), complex(-np.inf, 2.0)], ids=["nan_imag", "neg_inf_real"])
    def test_non_finite_part(self, entry):
        a = np.array([[1.0, entry], [0.5j, 2.0]])
        assert bits(one_norm(a)) == bits(np.linalg.norm(a, "fro"))
        assert np.isnan(one_norm(a)) if np.isnan(entry.imag) else one_norm(a) == np.inf


class TestStackedReductions:
    """``_norms`` and ``_inners`` take a whole stack in one batched call, bit
    for bit as ``np.linalg.norm`` and ``np.vdot`` take each element alone."""

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.sampled_from([*range(1, 9), 32]),
        size=st.integers(1, 6),
        exponent=st.integers(-150, 150),
        kind=st.sampled_from(["real", "complex"]),
        view=st.sampled_from(["plain", "conj_transposed", "transposed", "strided"]),
    )
    def test_norms_equal_frobenius(self, seed, n, size, exponent, kind, view):
        rng = crng(seed)
        # A strided stack takes every other matrix of a larger one, its rows reversed.
        base = rng.standard_normal((2 * size, n, n)) * 10.0**exponent
        if kind == "complex":
            base = base + 1j * rng.standard_normal((2 * size, n, n)) * 10.0**exponent
        stack = {
            "plain": base[:size],
            "conj_transposed": base[:size].conj().swapaxes(-1, -2),
            "transposed": base[:size].swapaxes(-1, -2),
            "strided": base[::2, ::-1],
        }[view]
        with np.errstate(over="ignore"):
            got = _norms(stack)
            assert [bits(v) for v in got] == [bits(np.linalg.norm(m)) for m in stack]
            # A stack of rows is a stack of vectors, each normed as np.linalg.norm does.
            rows = stack[:, 0]
            assert [bits(v) for v in _norms(rows)] == [bits(np.linalg.norm(v)) for v in rows]

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.sampled_from([*range(1, 9), 32]),
        size=st.integers(1, 6),
        view=st.sampled_from(["plain", "conj_transposed"]),
    )
    def test_inners_equal_inner(self, seed, n, size, view):
        rng = crng(seed)
        m = cgauss(rng, size, n, n)
        # Rows of conjugate-transposed matrices are strided vectors.
        if view == "conj_transposed":
            m = m.conj().swapaxes(-1, -2)
        u, v = m[:, 0], m[:, -1]
        got = _inners(u, v)
        assert got.tobytes() == np.array([np.vdot(b, a) for a, b in zip(u, v)]).tobytes()

    @pytest.mark.parametrize(
        "stack",
        [
            np.full((3, 3, 3), 5e-324 + 3e-320j),
            np.full((2, 2, 2), 1e-310),
            np.full((3, 2, 2), 1e200 + 1e200j),
            np.full((2, 2, 2), 1e200),
            cgauss(crng(33), 6, 5, 3)[::2, ::-1],
            cgauss(crng(34), 6, 4, 4)[::2, ::-1].swapaxes(-1, -2),
        ],
        ids=["subnormal_complex", "subnormal_real", "overflow_complex", "overflow_real", "strided", "strided_transposed"],
    )
    def test_norms_at_extremes_and_on_strided_views(self, stack):
        # Each extreme stack is stacked again with an ordinary matrix between
        # its elements, whose norm must not move theirs.
        ordinary = cgauss(crng(35), *stack.shape[1:])
        ordinary = ordinary if stack.dtype.kind == "c" else ordinary.real
        mixed = np.stack([m for pair in zip(stack, [ordinary] * len(stack)) for m in pair])
        with np.errstate(over="ignore"):
            for s in (stack, mixed):
                assert [bits(v) for v in _norms(s)] == [bits(np.linalg.norm(m)) for m in s]

    def test_empty_stack(self):
        assert _norms(np.zeros((0, 3, 3), dtype=complex)).shape == (0,)


class TestTolerances:
    def test_defaults(self):
        t = Tolerances()
        assert t.rank_rel == 1e-12 and t.eq_abs == 1e-9 and t.fix_rel == 1e-8

    @pytest.mark.parametrize("bad", [{"rank_rel": 0.0}, {"eq_abs": 1.0}, {"fix_rel": -1e-3}])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            Tolerances(**bad)


class TestLambdaDomain:
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: aluthge(np.eye(2), 1.5), "[0, 1], got 1.5"),
            (lambda: aluthge_stack(np.eye(2)[None], -0.1), "[0, 1], got -0.1"),
            (lambda: aluthge_rank_one([1, 0], [1, 1], 1.0), "(0, 1), got 1.0"),
            (lambda: next(iterate_aluthge(np.eye(2), 0.0)), "(0, 1), got 0.0"),
        ],
    )
    def test_each_entry_point_names_its_domain(self, call, message):
        with pytest.raises(ValueError, match=re.escape(f"lambda must lie in {message}")):
            call()


class TestJordanProduct:
    def test_identity_absorbs(self):
        rng = crng(2)
        a = cgauss(rng, 3, 3)
        np.testing.assert_allclose(_jordan(a, np.eye(3)), a, atol=1e-15)

    def test_nilpotent_pair_gives_half_identity(self):
        # oracle: AB = diag(1,0), BA = diag(0,1), so (AB+BA)/2 = I/2
        b = np.array([[0, 0], [1, 0]], dtype=complex)
        np.testing.assert_allclose(_jordan(NIL, b), np.eye(2) / 2)

    def test_nested_projection_absorbed(self):
        # Q <= P implies P∘Q = Q
        p = np.diag([1.0, 1.0, 0.0]).astype(complex)
        q = np.diag([1.0, 0.0, 0.0]).astype(complex)
        np.testing.assert_allclose(_jordan(p, q), q)

    def test_symmetric_bit_identical(self):
        rng = crng(3)
        for _ in range(100):
            a, b = cgauss(rng, 4, 4), cgauss(rng, 4, 4)
            np.testing.assert_array_equal(_jordan(a, b), _jordan(b, a))


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
            assert d <= 1e-8 * (1 + np.linalg.norm(a))


def assignment_distance(a, b):
    """Reference: the largest matched distance of scipy's optimal assignment."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = scipy.optimize.linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def spectra_pair(kind, n, rng):
    """Two spectra of length n: unrelated; b a permutation of a perturbed by
    1e-12 or 0.3; or both drawn from two points, so that values repeat."""
    if kind == "repeated":
        points = cgauss(rng, 2)
        return points[np.arange(n) % 2], points[rng.integers(0, 2, n)]
    a = cgauss(rng, n)
    if kind == "unrelated":
        return a, cgauss(rng, n)
    eps = {"near": 1e-12, "far": 0.3}[kind]
    return a, a[rng.permutation(n)] + eps * cgauss(rng, n)


def assert_stack_matches_rows(a, b) -> np.ndarray:
    """``_pairing_distances`` of the spectra a[i], b[i] as one stack, checked
    bit for bit against ``spectra_pairing_distance`` of each pair alone."""
    a, b = np.asarray(a, dtype=np.complex128), np.asarray(b, dtype=np.complex128)
    got = _pairing_distances(a, b)
    assert got.tobytes() == np.array([spectra_pairing_distance(x, y) for x, y in zip(a, b)]).tobytes()
    return got


class TestPairingDistance:
    """``spectra_pairing_distance`` of one pair, and the same spectra as one
    stack through ``_pairing_distances``."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        st.sampled_from(["unrelated", "near", "far", "repeated"]),
        st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 128]),
        st.integers(0, 2**32 - 1),
    )
    def test_equals_optimal_assignment(self, kind, n, seed):
        rng = np.random.default_rng(seed)
        # This kind's pair, stacked with a pair of each kind.
        pairs = [spectra_pair(k, n, rng) for k in (kind, "unrelated", "near", "far", "repeated")]
        a, b = pairs[0]
        assert spectra_pairing_distance(a, b) == assignment_distance(a, b)
        assert_stack_matches_rows(*zip(*pairs))

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), min_size=1, max_size=6), st.randoms())
    def test_equals_optimal_assignment_on_a_grid(self, points, random):
        # Integer points make exact ties between distances common.
        a = [complex(*p) for p in points]
        b = [complex(random.randint(-2, 2), random.randint(-2, 2)) for _ in a]
        assert spectra_pairing_distance(a, b) == assignment_distance(a, b)
        assert_stack_matches_rows([a, b, a], [b, a, a])

    @pytest.mark.parametrize("kind, solver_calls", [("near", 0), ("repeated", 1)])
    def test_solver_runs_only_on_an_ambiguous_nearest_match(self, monkeypatch, kind, solver_calls):
        a, b = spectra_pair(kind, 4, np.random.default_rng(0))
        near_a, near_b = spectra_pair("near", 4, np.random.default_rng(1))
        expected = assignment_distance(a, b)
        calls = []
        solver = scipy.optimize.linear_sum_assignment
        monkeypatch.setattr(scipy.optimize, "linear_sum_assignment", lambda cost: calls.append(1) or solver(cost))
        assert spectra_pairing_distance(a, b) == expected
        assert len(calls) == solver_calls
        # In a stack, only the ambiguous row goes to the solver.
        calls.clear()
        assert_stack_matches_rows([near_a, a, near_a], [near_b, b, near_b])
        assert len(calls) == 2 * solver_calls

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.inf), complex(np.nan, 1)])
    def test_non_finite_entry_raises(self, bad):
        with pytest.raises(ValueError, match="finite"):
            spectra_pairing_distance([bad, 1.0], [0.0, 1.0])
        with pytest.raises(ValueError, match="finite"):
            spectra_pairing_distance([0.0, 1.0], [1.0, bad])
        # The stacked form does not validate: a non-finite row reaches the solver, which rejects it.
        with pytest.raises(ValueError):
            _pairing_distances(np.array([[0.0, 1.0], [bad, 1.0]]), np.array([[0.0, 1.0], [0.0, 1.0]]))

    def test_overflowing_distance_raises(self):
        with np.errstate(over="ignore"), pytest.raises(ValueError):
            spectra_pairing_distance([1e308], [-1e308])
        with np.errstate(over="ignore"), pytest.raises(ValueError):
            _pairing_distances(np.array([[0.0], [1e308]]), np.array([[1.0], [-1e308]]))

    def test_permutation_invariant(self):
        assert spectra_pairing_distance([1, 2j, 3], [3, 1, 2j]) == 0.0
        assert_stack_matches_rows([[1, 2j, 3], [3, 1, 2j]], [[3, 1, 2j], [1, 2j, 3]]).tolist() == [0.0, 0.0]

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
        assert not _is_projection(NIL[None], DEFAULT_TOL)[0]
        # e1⊗e2 satisfies TT*T = T exactly: it IS a partial isometry
        assert is_partial_isometry(NIL)
        # a scaled shift is not: TT*T = 4T != T
        assert not is_partial_isometry(np.array([[0, 2], [0, 0]], dtype=complex))

    @pytest.mark.parametrize("c", [1e-300, 1e-12, 1e-6, 1.0, 1e150, 1e300])
    def test_normality_verdicts_do_not_depend_on_scale(self, c):
        q, _ = np.linalg.qr(cgauss(crng(14), 4, 4))
        assert is_normal(c * q) and is_quasi_normal(c * q)
        assert not is_normal(c * NIL) and not is_quasi_normal(c * NIL)

    def test_zero_matrix_is_normal(self):
        assert is_normal(np.zeros((3, 3))) and is_quasi_normal(np.zeros((3, 3)))

    def test_rank_one_unit_projection(self):
        rng = crng(15)
        x = cgauss(rng, 5)
        x /= np.linalg.norm(x)
        assert _is_projection(rank_one(x, x)[None], DEFAULT_TOL)[0]

    def test_quasi_normal_equals_normal_in_finite_dim(self):
        rng = crng(16)
        for _ in range(300):
            t = cgauss(rng, 4, 4)
            assert is_quasi_normal(t) == is_normal(t)
