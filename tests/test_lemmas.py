import collections
import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aluthge import lemmas
from aluthge.cli import _canonical
from aluthge.generators import _phase_fixed_q, ginibre
from aluthge.lemmas import CLOSED, HALF_OPEN, MAX_REDRAWS, OPEN, Check, run_check
from aluthge.linalg import Tolerances
from aluthge.maps import CHECKS
from aluthge.matrixio import matrix_to_obj, vector_payload
from aluthge.transform import aluthge, aluthge_stack

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
    from aluthge.linalg import _jordan
    from aluthge.transform import aluthge
    from predicates import rank_one

    x = np.array([1.0, 0, 0, 0], dtype=complex)
    p = rank_one(x, x)
    assert np.linalg.norm(aluthge(_jordan(0.0 * p, p), 0.5)) <= 1e-12
    assert np.linalg.norm(aluthge(_jordan(p, p), 0.5) - p) <= 1e-12
    alpha = 2 + 1j
    a = alpha * p
    assert np.linalg.norm(aluthge(_jordan(a, p), 0.5) - a) <= 1e-12 * (1 + abs(alpha))


def test_selfadjoint_diag_phase_oracle():
    # S = diag(1, e^{i pi/3}) is normal but not Hermitian: Delta(S*) = S* != S
    from aluthge.transform import aluthge

    s = np.diag([1.0, np.exp(1j * np.pi / 3)])
    assert np.linalg.norm(aluthge(s.conj().T, 0.5) - s.conj().T) <= 1e-12
    assert np.linalg.norm(aluthge(s.conj().T, 0.5) - s) > 1e-2


def test_square_identity_scalar_oracle():
    # T = 2I: Delta(4I) = 4I != 2I
    from aluthge.transform import aluthge

    t = 2.0 * np.eye(3)
    assert np.linalg.norm(aluthge(t @ t, 0.5) - t) == pytest.approx(2.0 * np.sqrt(3))


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
            def block(blk, outcomes=outcomes):
                residual, failed = zip(*(outcomes[t] for t in blk.trials))
                lemmas._observe(blk, residual, failed, k=blk.trials.tolist())

            record = Check("toy", block)
            report = run_check(record, 4, 99, 0.5, len(outcomes))
            assert report["witness"] == {"trial": witness_trial, "k": witness_trial}
            assert report["worst_residual"] == 5.0
            assert report["failures"] == failures

    def test_exhausted_redraw_is_vacuous_only(self):
        draws = []

        def block(blk):
            def draw(live, idx):
                draws.extend(live.trials.tolist())
                return np.zeros(len(live), dtype=bool)

            lemmas._redraw(blk, draw)

        report = run_check(Check("toy", block), 4, 99, 0.5, 3)
        assert len(draws) == report["vacuous"] == 3 * MAX_REDRAWS
        assert sorted(draws) == [t for t in range(3) for _ in range(MAX_REDRAWS)]
        assert report["failures"] == 0
        assert "witness" not in report
        assert report["worst_residual"] == 0.0

    def test_redraw_stops_at_first_informative_draw(self):
        # Per trial, its draws' outcomes in order; None is a vacuous draw.
        # No trial reaches its last outcome, and each round draws again only
        # for the trials whose draw was vacuous.
        draws = {0: [None, None, (2.0, True), (9.0, False)], 1: [(1.0, False), (9.0, True)], 2: [None, (3.0, False), (9.0, True)]}
        rounds = []

        def block(blk):
            pending = [iter(draws[t]) for t in blk.trials.tolist()]

            def draw(live, idx):
                rounds.append(idx.tolist())
                assert live.trials.tolist() == blk.trials[idx].tolist()
                assert live.rngs == [blk.rngs[i] for i in idx]
                outcomes = [next(pending[i]) for i in idx]
                informative = np.array([o is not None for o in outcomes])
                residual = [o[0] if o else 0.0 for o in outcomes]
                failed = [o[1] if o else False for o in outcomes]
                lemmas._observe(live, residual, failed, informative, k=live.trials.tolist())
                return informative

            lemmas._redraw(blk, draw)

        report = run_check(Check("toy", block), 4, 99, 0.5, 3)
        assert rounds == [[0, 1, 2], [0, 2], [0]]
        assert (report["vacuous"], report["failures"], report["witness"]) == (3, 1, {"trial": 0, "k": 0})
        assert report["worst_residual"] == 3.0

    def test_two_failing_parts_count_once(self):
        def block(runs):
            lemmas._observe(runs, np.ones(len(runs)), np.ones(len(runs), dtype=bool), part="first")

            def draw(live, idx):
                lemmas._observe(live, np.full(len(live), 2.0), np.ones(len(live), dtype=bool), part="second")
                return np.ones(len(live), dtype=bool)

            lemmas._redraw(runs, draw)

        report = run_check(Check("toy", block), 4, 99, 0.5, 7)
        assert report["failures"] == 7
        assert report["witness"] == {"trial": 0, "part": "second"}

    def test_tied_residuals_across_rounds_keep_first_trial(self):
        # Trial t draws vacuously 4 - t % 5 times, so trial 0 needs the most
        # rounds and observes last; its witness must still win the tie, and
        # each trial fails once.
        vacuous = collections.Counter()

        def block(blk):
            def draw(live, idx):
                informative = np.array([vacuous[t] == 4 - t % 5 for t in live.trials.tolist()])
                for _ in range(2):
                    lemmas._observe(live, np.ones(len(live)), np.ones(len(live), dtype=bool), informative,
                                    k=live.trials.tolist())
                vacuous.update(live.trials[~informative].tolist())
                return informative

            lemmas._redraw(blk, draw)

        report = run_check(Check("toy", block), 4, 99, 0.5, 12)
        assert report["witness"] == {"trial": 0, "k": 0}
        assert report["failures"] == 12
        assert report["vacuous"] == sum(4 - t % 5 for t in range(12))
        assert report["worst_residual"] == 1.0

    def test_stacked_kernels_match_per_matrix_calls(self):
        # The stacked calls the checks make treat each matrix alone: element
        # b of a stack of any size is bit for bit the call on matrix b by
        # itself. The Ginibre stacks hold a rank-one matrix, so that the
        # transform's stack mixes numerical ranks.
        rng = np.random.default_rng(99)
        twin = copy.deepcopy(rng)
        stacked = {
            "aluthge": lambda s: aluthge_stack(s, 0.3),
            "haar": _phase_fixed_q,
            "svdvals": lambda s: np.linalg.svd(s, compute_uv=False),
            "eigvals": np.linalg.eigvals,
        }
        per_matrix = {
            "aluthge": lambda m, g: aluthge(m, 0.3),
            "haar": lambda m, g: _phase_fixed_q(g),
            "svdvals": lambda m, g: np.linalg.svd(m, compute_uv=False),
            "eigvals": lambda m, g: np.linalg.eigvals(m),
        }
        for size in (1, 2, 3, 12):
            ms = [ginibre(rng, 4) for _ in range(size)]
            alone = [ginibre(twin, 4) for _ in range(size)]
            ms[-1] = alone[-1] = np.outer(ms[-1][0], ms[-1][1])
            for op, kernel in stacked.items():
                got = kernel(np.stack(ms))
                assert len(got) == size
                for m, g, result in zip(ms, alone, got):
                    expected = per_matrix[op](m, g)
                    assert (result.dtype, result.shape) == (expected.dtype, expected.shape)
                    assert result.tobytes() == expected.tobytes(), (op, size)

    def test_observe_records_each_trial_its_own_values(self):
        a = np.arange(5 * 4, dtype=float).reshape(5, 2, 2)
        seen = {}

        def block(blk):
            keep = blk.trials % 2 == 0
            lemmas._observe(blk, np.arange(len(blk), dtype=float), keep, keep, A=a, ranks=[[t] for t in blk.trials],
                            tag="t")
            # Each trial's outcomes, as (residual, failed, witness fields).
            seen.update({t: [] for t in blk.trials.tolist()})
            for trials, residual, failed, rows, fields in blk.records:
                for t, r, f, row in zip(trials.tolist(), residual, failed.tolist(), rows):
                    seen[t].append((r, f, {k: v if isinstance(v, str) else v[row] for k, v in fields.items()}))

        run_check(Check("toy", block), 2, 99, 0.5, 5)
        assert sorted(seen) == list(range(5))
        for t, outcomes in seen.items():
            if t % 2:
                assert outcomes == []
            else:
                ((residual, failed, fields),) = outcomes
                assert (residual, failed, fields["ranks"], fields["tag"]) == (float(t), True, [t], "t")
                assert residual.dtype == np.float64 and fields["A"].tobytes() == a[t].tobytes()

    def test_condition_trials_share_one_stacked_qr(self, monkeypatch):
        # At dim 3 all 100 trials form one block, and their Us come from one
        # stacked QR.
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

    @pytest.mark.parametrize("per_block", [1, 7])
    def test_blocking_leaves_failing_reports_unchanged(self, monkeypatch, per_block):
        # At eq_abs = 0.5 some checks fail and some draw vacuously, so the
        # block-level redraws run on subsets of a block; at dim 7 the default
        # splits 60 trials into two blocks.
        tol = Tolerances(eq_abs=0.5)
        assert 30 < lemmas.STACK_ENTRIES // 7**2 < 60
        default = [run_check(c, 7, 99, 0.5, 60, tol) for c in CHECKS.values()]
        assert sum(r["vacuous"] > 0 for r in default) >= 4
        assert sum(r["failures"] > 0 for r in default) >= 1
        monkeypatch.setattr(lemmas, "STACK_ENTRIES", per_block * 7**2)
        assert [_canonical(run_check(c, 7, 99, 0.5, 60, tol)) for c in CHECKS.values()] == list(map(_canonical, default))

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
        record = Check("toy", lambda blk: calls.append(blk.lam), domain)
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
        a = np.stack([np.full((2, 2), float(t)) for t in range(10)])
        x = np.stack([np.full(2, 1j * t) for t in range(10)])

        def block(blk):
            lemmas._observe(blk, blk.trials.astype(float), np.zeros(len(blk), dtype=bool), A=a[blk.trials],
                            x=x[blk.trials], tag="t")

        report = run_check(Check("toy", block), 4, 99, 0.5, 10)
        assert len(encoded) == 2
        assert report["witness"] == {"trial": 9, "A": matrix_to_obj(a[9]), "x": vector_payload(x[9]), "tag": "t"}


# Residuals from a small set, so that equal keys are common.
FOLD_RESIDUALS = [0.0, 0.5, 1.0, 2.0]


def _per_outcome_fold(outcomes, vacuous):
    """The witness rule as a per-outcome replay: ``outcomes[t]`` lists trial
    t's outcomes, (residual, failed, witness fields), in record order; a
    later outcome replaces the witness only on a strictly larger (failed,
    residual)."""
    failures, worst, witness, key = 0, 0.0, None, None
    for t, trial_outcomes in enumerate(outcomes):
        for residual, failed, fields in trial_outcomes:
            if witness is None or (failed, residual) > key:
                witness, key = {"trial": t, **fields}, (failed, residual)
            worst = max(worst, residual)
        failures += any(failed for _, failed, _ in trial_outcomes)
    return failures, vacuous, worst, witness


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_fold_matches_per_outcome_rule(data):
    # A toy check replays a random table: per step, each trial either records
    # one outcome (kept or masked out by ``where``) or redraws until an
    # informative draw. Blocks of 1-4 trials make some blocks record nothing.
    trials = data.draw(st.integers(0, 12), "trials")
    per_block = data.draw(st.integers(1, 4), "per_block")
    max_redraws = data.draw(st.integers(1, 3), "max_redraws")
    outcome = st.tuples(st.sampled_from(FOLD_RESIDUALS), st.booleans(), st.booleans())
    plan = data.draw(st.lists(st.sampled_from(["observe", "redraw"]), max_size=3), "plan")
    tables = [
        data.draw(st.lists(outcome if kind == "observe" else st.lists(outcome, min_size=max_redraws, max_size=max_redraws),
                           min_size=trials, max_size=trials), f"step {s}")
        for s, kind in enumerate(plan)
    ]

    def fields(t, s, d):
        return {"id": [t, s, d], "x": np.array([t + 1j * s, d]), "part": f"step {s}"}

    def record(blk, rows, where, s, draws):
        residual, failed, _ = zip(*rows)
        ids = [fields(t, s, draws[t]) for t in blk.trials.tolist()]
        lemmas._observe(blk, residual, failed, where, id=[f["id"] for f in ids], x=np.stack([f["x"] for f in ids]),
                        part=f"step {s}")

    def block(blk):
        for s, (kind, table) in enumerate(zip(plan, tables)):
            rows = [table[t] for t in blk.trials.tolist()]
            if kind == "observe":
                kept = [keep for _, _, keep in rows]
                # On odd steps a block that keeps no row makes no record at all.
                if any(kept) or s % 2 == 0:
                    record(blk, rows, kept, s, collections.defaultdict(int))
                continue
            draws = collections.Counter()

            def draw(live, idx):
                got = [table[t][draws[t]] for t in live.trials.tolist()]
                informative = np.array([keep for _, _, keep in got])
                record(live, got, informative, s, draws)
                draws.update(live.trials.tolist())
                return informative

            lemmas._redraw(blk, draw)

    outcomes = [[] for _ in range(trials)]
    vacuous = 0
    for s, (kind, table) in enumerate(zip(plan, tables)):
        for t in range(trials):
            for d, (residual, failed, keep) in enumerate([table[t]] if kind == "observe" else table[t]):
                if keep:
                    outcomes[t].append((residual, failed, fields(t, s, d if kind == "redraw" else 0)))
                    break
                vacuous += kind == "redraw"

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lemmas, "STACK_ENTRIES", per_block * 2**2)
        mp.setattr(lemmas, "MAX_REDRAWS", max_redraws)
        report = run_check(Check("toy", block), 2, 99, 0.5, trials)
    failures, vacuous, worst, witness = _per_outcome_fold(outcomes, vacuous)
    if witness is not None:
        witness["x"] = vector_payload(witness["x"])
    assert (report["failures"], report["vacuous"], report["worst_residual"]) == (failures, vacuous, worst)
    assert report.get("witness") == witness
