import copy

import numpy as np
import pytest

from aluthge import lemmas
from aluthge.cli import _canonical
from aluthge.generators import ginibre, haar_unitary
from aluthge.lemmas import CLOSED, HALF_OPEN, MAX_REDRAWS, OPEN, Check, run_check
from aluthge.maps import CHECKS
from aluthge.matrixio import matrix_to_obj, vector_payload
from aluthge.transform import aluthge

TRIALS = 150

# Every check id, which is its report check_id, the name of its RNG stream and
# its report file name. Written out rather than read from CHECKS so that a
# renamed or dropped check fails test_registry_ids_pinned.
REPORT_IDS = [
    "adjoint_counterexample",
    "jordan_condition_adjoint",
    "jordan_condition_scaled",
    "jordan_condition_unitary",
    "nilpotent_kernel",
    "projection_absorb",
    "rank_one_formula",
    "scalar_projection",
    "selfadjoint_lemmas",
    "spectrum_invariance",
    "square_identity",
    "star_jordan_condition_adjoint",
    "star_jordan_condition_unitary",
    "structural_properties",
    "vector_state_identity",
]


def run(check_id, lam, trials, dim=4, seed=99):
    return run_check(CHECKS[check_id], dim, seed, lam, trials)


def test_registry_ids_pinned():
    assert sorted(CHECKS) == REPORT_IDS


@pytest.mark.parametrize("check", REPORT_IDS)
@pytest.mark.parametrize("dim", [2, 4, 6])
def test_all_checks_pass(check, dim):
    report = run(check, 0.5, TRIALS, dim=dim)
    assert report["failures"] == 0, f"{check} dim={dim}: {_canonical(report)}"
    assert report["trials"] == TRIALS
    assert report["check_id"] == check


@pytest.mark.parametrize("lam", [0.25, 0.75])
def test_checks_pass_off_center_lambda(lam):
    for check in ("rank_one_formula", "nilpotent_kernel", "spectrum_invariance"):
        assert run(check, lam, TRIALS)["failures"] == 0


def test_reports_deterministic():
    a = run("projection_absorb", 0.5, 50)
    b = run("projection_absorb", 0.5, 50)
    assert _canonical(a) == _canonical(b)
    assert a.keys() == b.keys()


def test_report_is_json_for_numpy_integer_arguments():
    report = run_check(CHECKS["rank_one_formula"], np.int64(2), np.int64(3), np.float64(0.5), np.int64(4))
    assert _canonical(report) == _canonical(run_check(CHECKS["rank_one_formula"], 2, 3, 0.5, 4))


def test_reports_change_with_seed():
    a = run("rank_one_formula", 0.5, 50, seed=1)
    b = run("rank_one_formula", 0.5, 50, seed=2)
    assert a["worst_residual"] != b["worst_residual"]


def test_witness_always_recorded():
    report = run("spectrum_invariance", 0.5, 20)
    assert "witness" in report
    assert "T" in report["witness"]


def test_endpoint_lambda_rules():
    # spectrum invariance admits the endpoints, the open-interval checks do not
    assert run("spectrum_invariance", 0.0, 30)["failures"] == 0
    assert run("spectrum_invariance", 1.0, 30)["failures"] == 0
    assert run("nilpotent_kernel", 1.0, 30)["failures"] == 0
    with pytest.raises(ValueError):
        run("rank_one_formula", 0.0, 10)
    with pytest.raises(ValueError):
        run("square_identity", 1.0, 10)
    with pytest.raises(ValueError):
        run("nilpotent_kernel", 0.0, 10)


def test_scalar_projection_includes_edge_scalars():
    # alpha = 0 and alpha = 1 degenerate cases hold by hand
    from aluthge.linalg import frobenius, jordan_product, rank_one
    from aluthge.transform import aluthge

    x = np.array([1.0, 0, 0, 0], dtype=complex)
    p = rank_one(x, x)
    assert frobenius(aluthge(jordan_product(0.0 * p, p), 0.5)) <= 1e-12
    assert frobenius(aluthge(jordan_product(p, p), 0.5) - p) <= 1e-12
    alpha = 2 + 1j
    a = alpha * p
    assert frobenius(aluthge(jordan_product(a, p), 0.5) - a) <= 1e-12 * (1 + abs(alpha))


def test_selfadjoint_diag_phase_oracle():
    # S = diag(1, e^{i pi/3}) is normal but not Hermitian: Delta(S*) = S* != S
    from aluthge.linalg import frobenius
    from aluthge.transform import aluthge

    s = np.diag([1.0, np.exp(1j * np.pi / 3)])
    assert frobenius(aluthge(s.conj().T, 0.5) - s.conj().T) <= 1e-12
    assert frobenius(aluthge(s.conj().T, 0.5) - s) > 1e-2


def test_square_identity_scalar_oracle():
    # T = 2I: Delta(4I) = 4I != 2I
    from aluthge.linalg import frobenius
    from aluthge.transform import aluthge

    t = 2.0 * np.eye(3)
    assert frobenius(aluthge(t @ t, 0.5) - t) == pytest.approx(2.0 * np.sqrt(3))


class TestDriver:
    """The driver's shared rules, each on a small hand-written record."""

    def test_failing_witness_outranks_larger_passing_residual(self):
        # (outcomes by trial, witness trial, failures): the witness is the
        # failing outcome with the largest residual, not the first failing one.
        cases = [
            ([(5.0, False), (1.0, True), (3.0, False), (0.5, True)], 1, 2),
            ([(5.0, False), (1.0, True), (3.0, True)], 2, 2),
        ]
        for outcomes, witness_trial, failures in cases:
            record = Check("toy", lambda r: r.observe(*outcomes[r.trial], k=r.trial))
            report = run_check(record, 4, 99, 0.5, len(outcomes))
            assert report["witness"] == {"trial": witness_trial, "k": witness_trial}
            assert report["worst_residual"] == 5.0
            assert report["failures"] == failures

    def test_exhausted_redraw_is_vacuous_only(self):
        draws = []

        def trial(r):
            def draw():
                draws.append(r.trial)
                yield ("aluthge", (np.eye(r.dim),))
                return False

            yield from r.redraw(draw)

        report = run_check(Check("toy", trial), 4, 99, 0.5, 3)
        assert len(draws) == report["vacuous"] == 3 * MAX_REDRAWS
        assert report["failures"] == 0
        assert "witness" not in report
        assert report["worst_residual"] == 0.0

    def test_redraw_stops_at_first_informative_draw(self):
        outcomes = iter([None, None, (2.0, True, 0), (9.0, False, 1)])

        def trial(r):
            def draw():
                yield ("aluthge", (np.eye(r.dim),))
                outcome = next(outcomes)
                if outcome is None:
                    return False
                residual, failed, k = outcome
                r.observe(residual, failed, k=k)
                return True

            yield from r.redraw(draw)

        report = run_check(Check("toy", trial), 4, 99, 0.5, 1)
        assert (report["vacuous"], report["failures"], report["witness"]) == (2, 1, {"trial": 0, "k": 0})

    def test_two_failing_parts_count_once(self):
        def trial(r):
            r.observe(1.0, True)

            def draw():
                yield ("aluthge", (np.eye(r.dim),))
                r.observe(2.0, True)
                return True

            yield from r.redraw(draw)

        report = run_check(Check("toy", trial), 4, 99, 0.5, 7)
        assert report["failures"] == 7

    def test_tied_residuals_across_rounds_keep_first_trial(self):
        # Trial 0 needs the most rounds, so it finishes last; its witness
        # must still win the tie, and each trial fails once.
        def trial(r):
            for _ in range(5 - r.trial % 5):
                yield ("aluthge", (np.eye(r.dim),))
            r.observe(1.0, True, k=r.trial)
            r.observe(1.0, True, k=r.trial)

        report = run_check(Check("toy", trial), 4, 99, 0.5, 12)
        assert report["witness"] == {"trial": 0, "k": 0}
        assert report["failures"] == 12
        assert report["worst_residual"] == 1.0

    def test_each_trial_receives_its_own_transforms(self):
        # Trials yield different numbers of matrices per round and run for
        # different numbers of rounds; every transform must be the one
        # aluthge gives for that matrix, bit for bit.
        def trial(r):
            for _ in range(1 + r.trial % 2):
                ms = tuple(ginibre(r.rng, r.dim) for _ in range(1 + r.trial % 3))
                ds = yield ("aluthge", ms)
                same = len(ds) == len(ms) and all(np.array_equal(d, aluthge(m, r.lam)) for m, d in zip(ms, ds))
                r.observe(0.0, not same)

        assert run_check(Check("toy", trial), 4, 99, 0.3, 9)["failures"] == 0

    def test_mixed_ops_in_one_round_match_per_matrix_calls(self):
        # Trial t requests op t % 4 on 1 + t % 3 matrices, so the first round
        # mixes all four ops with different matrix counts per trial; every
        # result must be the per-matrix call's, bit for bit.
        per_matrix = {
            "aluthge": lambda m, r, twin: aluthge(m, r.lam),
            "haar": lambda m, r, twin: haar_unitary(twin, r.dim),
            "svdvals": lambda m, r, twin: np.linalg.svd(m, compute_uv=False),
            "eigvals": lambda m, r, twin: np.linalg.eigvals(m),
        }
        ops = list(per_matrix)
        pairs = []

        def trial(r):
            for _ in range(1 + r.trial % 2):
                op = ops[r.trial % 4]
                twin = copy.deepcopy(r.rng)
                ms = tuple(ginibre(r.rng, r.dim) for _ in range(1 + r.trial % 3))
                results = yield (op, ms)
                assert len(results) == len(ms)
                pairs.extend((op, got, per_matrix[op](m, r, twin)) for m, got in zip(ms, results))

        run_check(Check("toy", trial), 4, 99, 0.3, 12)
        # 12 trials: each op has three, with 1, 2 and 3 matrices over 1 or 2 rounds.
        assert len(pairs) == sum((1 + t % 2) * (1 + t % 3) for t in range(12))
        assert {op for op, _, _ in pairs} == set(ops)
        for op, got, expected in pairs:
            assert (op, got.dtype, got.shape) == (op, expected.dtype, expected.shape)
            assert got.tobytes() == expected.tobytes(), op

    def test_condition_trials_share_one_stacked_qr(self, monkeypatch):
        # At dim 3 all 100 trials form one block, and each draws its U in
        # the first round.
        shapes = []
        qr = np.linalg.qr

        def counted_qr(a, *args, **kwargs):
            shapes.append(a.shape)
            return qr(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counted_qr)
        run_check(CHECKS["jordan_condition_unitary"], 3, 99, 0.5, 100)
        assert shapes == [(100, 3, 3)]

    @pytest.mark.parametrize("per_block", [1, 7])
    @pytest.mark.parametrize("dim", [2, 5])
    def test_blocking_leaves_reports_unchanged(self, monkeypatch, dim, per_block):
        # One trial per block is the sequential order; 7 splits 40 trials
        # into uneven blocks. The default runs all 40 in one block.
        assert lemmas.STACK_ENTRIES // dim**2 >= 40
        default = [_canonical(run_check(c, dim, 99, 0.5, 40)) for c in CHECKS.values()]
        monkeypatch.setattr(lemmas, "STACK_ENTRIES", per_block * dim**2)
        assert [_canonical(run_check(c, dim, 99, 0.5, 40)) for c in CHECKS.values()] == default

    @pytest.mark.parametrize(
        "domain, admitted, excluded",
        [
            (OPEN, [0.5], [0.0, 1.0]),
            (HALF_OPEN, [0.5, 1.0], [0.0, 1.5]),
            (CLOSED, [0.0, 0.5, 1.0], [-0.1, 1.5]),
            (None, [0.0, 0.5, 2.0], []),
        ],
    )
    def test_lambda_domain(self, domain, admitted, excluded):
        calls = []
        record = Check("toy", lambda r: calls.append(r.lam), domain)
        for lam in admitted:
            report = run_check(record, 4, 99, lam, 1)
            assert report["lambda"] == (lam if domain else 0.0)
        for lam in excluded:
            with pytest.raises(ValueError, match="lambda must lie in"):
                run_check(record, 4, 99, lam, 1)
        assert calls == admitted

    def test_rejects_small_dim(self):
        with pytest.raises(ValueError, match="dim must be >= 2"):
            run_check(CHECKS["rank_one_formula"], dim=1, seed=0, lam=0.5, trials=1)

    @pytest.mark.parametrize("domain", ["0..1", "[0,1", "(0, 1"])
    def test_unknown_lambda_domain_rejected(self, domain):
        with pytest.raises(ValueError, match="unknown lambda domain"):
            Check("toy", lambda r: None, domain)

    def test_witness_encoded_only_when_kept(self, monkeypatch):
        encoded = []
        monkeypatch.setattr(lemmas, "matrix_to_obj", lambda m: encoded.append(m) or matrix_to_obj(m))
        monkeypatch.setattr(lemmas, "vector_payload", lambda v: encoded.append(v) or vector_payload(v))
        a = [np.full((2, 2), float(t)) for t in range(10)]
        x = [np.full(2, 1j * t) for t in range(10)]
        record = Check("toy", lambda r: r.observe(float(r.trial), False, A=a[r.trial], x=x[r.trial], tag="t"))
        report = run_check(record, 4, 99, 0.5, 10)
        assert len(encoded) == 2
        assert report["witness"] == {"trial": 9, "A": matrix_to_obj(a[9]), "x": vector_payload(x[9]), "tag": "t"}
