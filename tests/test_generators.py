import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aluthge import generators, lemmas
from aluthge.generators import (
    _complex_gaussians,
    _nilpotents_sq_zero,
    _normal,
    _phase_fixed_q,
    _trial_rngs,
    _unit_vectors,
    check_key,
    ginibre,
    trial_rng,
)
from aluthge.lemmas import MIN_CONDITION, Check, run_check
from aluthge.maps import CHECKS

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
        z = _complex_gaussians((one,), *shape)[0]
        expected = (two.standard_normal(shape) + 1j * two.standard_normal(shape)) / np.sqrt(2.0)
        assert z.tobytes() == expected.tobytes()
        assert one.bit_generator.state == two.bit_generator.state

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**63 - 1), shape=st.sampled_from(GAUSSIAN_SHAPES))
    def test_complex_gaussian_matches_division_form(self, seed, shape):
        # Scaling both parts by 1/sqrt(2) is the division numpy performs.
        one, two = np.random.default_rng(seed), np.random.default_rng(seed)
        z = _complex_gaussians((one,), *shape)[0]
        w = two.standard_normal((2, *shape))
        expected = (w[0] + 1j * w[1]) / np.sqrt(2.0)
        assert (z.dtype, z.shape) == (expected.dtype, expected.shape)
        assert z.tobytes() == expected.tobytes()
        assert one.bit_generator.state == two.bit_generator.state


def assert_block_matches_trial_rng(seed, key, dim, start, stop):
    streams = _trial_rngs(seed, key, dim, start, stop)
    assert len(streams) == stop - start
    for t, rng in zip(range(start, stop), streams):
        assert rng.bit_generator.state == trial_rng(seed, key, dim, t).bit_generator.state, t


class TestBlockStreams:
    """``_trial_rngs`` gives exactly ``trial_rng``'s streams: a numpy release
    whose SeedSequence hashes otherwise fails here rather than moving report bytes."""

    KEY = check_key("spectrum_invariance")

    @pytest.mark.parametrize(
        "start, stop",
        [(0, 100), (56, 100), (99, 100), (0, 1), (7, 7)],
        ids=["first_block", "later_block", "block_of_one", "one_trial", "empty"],
    )
    def test_block_boundaries(self, start, stop):
        assert_block_matches_trial_rng(7, self.KEY, 6, start, stop)

    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32], ids=["zero", "one_word_max", "two_words"])
    def test_seeds(self, seed, monkeypatch):
        calls = []
        oracle = generators.trial_rng
        monkeypatch.setattr(generators, "trial_rng", lambda *a: calls.append(a) or oracle(*a))
        streams = _trial_rngs(seed, self.KEY, 4, 3, 13)
        # A seed of any width takes the block hash, not trial_rng.
        assert calls == []
        for t, rng in zip(range(3, 13), streams):
            assert rng.bit_generator.state == oracle(seed, self.KEY, 4, t).bit_generator.state

    @pytest.mark.parametrize(
        "key, dim, start, stop",
        [
            (2**32 - 1, 48, 0, 20),
            (5, 2**32 - 1, 0, 5),
            (2**32, 48, 0, 20),
            (5, 2**32, 0, 5),
            (5, 4, 2**32 - 4, 2**32),
            (5, 4, 2**32 - 2, 2**32 + 2),
        ],
        ids=["key_max", "dim_max", "key_two_words", "dim_two_words", "trial_max", "trial_past_one_word"],
    )
    def test_word_limits(self, key, dim, start, stop):
        assert_block_matches_trial_rng(2**32 - 1, key, dim, start, stop)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**160),
        key=st.integers(0, 2**32 - 1),
        dim=st.integers(2, 2**40),
        start=st.integers(0, 2**33),
        length=st.integers(1, 8),
    )
    def test_matches_trial_rng(self, seed, key, dim, start, length):
        # Seeds of one to six uint32 words, dims of one or two (only hashed,
        # never drawn at) and blocks past one word, which take trial_rng.
        assert_block_matches_trial_rng(seed, key, dim, start, start + length)

    def test_reports_match_per_trial_streams(self, monkeypatch):
        # 100 trials at dim 6 span two blocks of STACK_ENTRIES // 36.
        assert 100 > lemmas.STACK_ENTRIES // 6**2
        blocked = [run_check(check, dim, 7, 0.5, 100) for check in CHECKS.values() for dim in (2, 6)]
        monkeypatch.setattr(
            lemmas, "_trial_rngs", lambda seed, key, dim, start, stop: [trial_rng(seed, key, dim, t) for t in range(start, stop)]
        )
        assert blocked == [run_check(check, dim, 7, 0.5, 100) for check in CHECKS.values() for dim in (2, 6)]


class TestStructuralSelfTests:
    """Every kind satisfies its structural predicate to 1e-12."""

    def setup_method(self):
        self.rng = np.random.default_rng(123)

    def test_unitary(self):
        for dim in (2, 4, 6):
            u = _phase_fixed_q(ginibre(self.rng, dim))
            assert np.linalg.norm(u.conj().T @ u - np.eye(dim)) <= STRUCT_TOL

    def test_normal(self):
        n = _normal(_phase_fixed_q(ginibre(self.rng, 5)), _complex_gaussians((self.rng,), 5)[0])
        assert np.linalg.norm(n @ n.conj().T - n.conj().T @ n) <= STRUCT_TOL * (1 + np.linalg.norm(n) ** 2)

    def test_nilpotent_square_zero(self):
        for _ in range(50):
            t = _nilpotents_sq_zero((self.rng,), 5)[0]
            assert np.linalg.norm(t @ t) <= STRUCT_TOL * (1 + np.linalg.norm(t) ** 2)

    def test_driver_conditioned_draws_meet_floor(self, monkeypatch):
        # The checks' conditioned draws take their singular values from one
        # stacked SVD per round. At a floor of 0.3 most 4 x 4 Ginibre draws
        # fall below it, so the redraw path runs too; each trial's draw is
        # still the first of its own stream to meet the floor.
        for floor in (MIN_CONDITION, 0.3):
            monkeypatch.setattr(lemmas, "MIN_CONDITION", floor)
            ratios, redrawn, sequential = [], [], []

            def block(blk):
                twins = [copy.deepcopy(rng) for rng in blk.rngs]
                for twin in twins:
                    while True:
                        g = ginibre(twin, 4)
                        s = np.linalg.svd(g, compute_uv=False)
                        if s[-1] >= floor * s[0]:
                            break
                    sequential.append(g)
                first = [ginibre(copy.deepcopy(rng), blk.dim) for rng in blk.rngs]
                for m, f in zip(lemmas._conditioned(blk), first):
                    s = np.linalg.svd(m, compute_uv=False)
                    ratios.append(s[-1] / s[0])
                    redrawn.append(not np.array_equal(m, f))
                    assert m.tobytes() == sequential[len(ratios) - 1].tobytes()

            run_check(Check("toy", block), 4, 99, 0.5, 50)
            assert len(ratios) == 50
            assert min(ratios) >= floor
            assert any(redrawn) == (floor == 0.3)

    @staticmethod
    def complex_gaussian_alone(rng, *shape):
        """``_complex_gaussians`` written for one stream as a draw of the real
        parts, then the imaginary parts, divided by sqrt(2)."""
        z = rng.standard_normal((2, *shape))
        return (z[0] + 1j * z[1]) / np.sqrt(2.0)

    @staticmethod
    def unit_vector_alone(rng, dim):
        """``_unit_vectors`` written for one stream with per-vector calls."""
        while True:
            x = TestStructuralSelfTests.complex_gaussian_alone(rng, dim)
            nrm = np.linalg.norm(x)
            if nrm > 1e-6:
                return x / nrm

    @staticmethod
    def nilpotent_alone(rng, dim):
        """``_nilpotents_sq_zero`` written for one stream with per-matrix calls."""
        x = TestStructuralSelfTests.unit_vector_alone(rng, dim)
        y = TestStructuralSelfTests.complex_gaussian_alone(rng, dim)
        y = y - np.vdot(x, y) * x
        nrm = np.linalg.norm(y)
        if nrm < 1e-6:
            return TestStructuralSelfTests.nilpotent_alone(rng, dim)
        s = np.eye(dim) + 0.3 * ginibre(rng, dim)
        return s @ np.outer(x, (y / nrm).conj()) @ np.linalg.inv(s)

    @pytest.mark.parametrize("dim", [2, 5, 48])
    def test_stacked_draws_match_one_stream_at_a_time(self, dim):
        # Each stream's element of a stacked draw is bit for bit the draw
        # from that stream alone, written with per-matrix calls, and leaves
        # the stream at the same state.
        kinds = [
            (generators._complex_gaussians, self.complex_gaussian_alone, (dim, dim)),
            (generators._unit_vectors, self.unit_vector_alone, (dim,)),
            (generators._nilpotents_sq_zero, self.nilpotent_alone, (dim,)),
        ]
        for stacked, alone, args in kinds:
            rngs = [np.random.default_rng(s) for s in range(6)]
            twins = copy.deepcopy(rngs)
            got = stacked(rngs, *args)
            for g, twin, rng in zip(got, twins, rngs):
                assert g.tobytes() == alone(twin, *args).tobytes()
                assert twin.bit_generator.state == rng.bit_generator.state

    def test_unit_vector_redraws_a_tiny_draw(self, monkeypatch):
        # A stream whose first draw has norm <= 1e-6 draws again; the others keep theirs.
        real = generators._complex_gaussians
        calls = []

        def shrink_first(rngs, *shape):
            z = real(rngs, *shape)
            if not calls:
                z[0] *= 1e-9
            calls.append(len(rngs))
            return z

        monkeypatch.setattr(generators, "_complex_gaussians", shrink_first)
        rngs = [np.random.default_rng(s) for s in range(3)]
        twin = np.random.default_rng(0)
        x = generators._unit_vectors(rngs, 4)
        assert calls == [3, 1]
        real([twin], 4)
        assert x[0].tobytes() == self.unit_vector_alone(twin, 4).tobytes()
        np.testing.assert_allclose(np.linalg.norm(x, axis=1), 1.0, rtol=1e-14)

    def test_unit_vector(self):
        x = _unit_vectors((self.rng,), 7)[0]
        assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-14)

    def test_ginibre_shape(self):
        assert ginibre(self.rng, 3).shape == (3, 3)
