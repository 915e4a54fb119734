import dataclasses

import numpy as np
import pytest

from aluthge import lemmas
from aluthge.generators import GeneratorSpec
from aluthge.lemmas import CLOSED, HALF_OPEN, MAX_REDRAWS, OPEN, Check, run_check
from aluthge.maps import CHECKS
from aluthge.matrixio import matrix_to_obj
from aluthge.reporting import vector_payload

TRIALS = 150

# Report check_id of each registry entry, written out so that a registry key
# bound to the wrong record fails test_all_checks_pass.
REPORT_IDS = {
    "rank_one_formula": "rank_one_formula",
    "projection_absorb": "projection_absorb",
    "scalar_projection": "scalar_projection",
    "square_identity": "square_identity",
    "selfadjoint_lemmas": "selfadjoint_lemmas",
    "nilpotent_kernel": "nilpotent_kernel",
    "spectrum_invariance": "spectrum_invariance",
    "jordan_condition_unitary": "jordan_condition_unitary_conj",
    "jordan_condition_adjoint": "jordan_condition_adjoint_conj",
    "jordan_condition_scaled": "jordan_condition_scaled_unitary_conj",
    "star_jordan_condition_unitary": "star_jordan_condition_unitary_conj",
    "star_jordan_condition_adjoint": "star_jordan_condition_adjoint_conj",
    "structural_properties": "structural_properties",
    "vector_state_identity": "vector_state_identity",
    "adjoint_counterexample": "adjoint_counterexample",
}


def spec(dim=4, seed=99):
    return GeneratorSpec(dim=dim, seed=seed)


def run(check_id, lam, trials, **spec_args):
    return run_check(CHECKS[check_id], spec(**spec_args), lam, trials)


@pytest.mark.parametrize("check", sorted(CHECKS))
@pytest.mark.parametrize("dim", [2, 4, 6])
def test_all_checks_pass(check, dim):
    report = run(check, 0.5, TRIALS, dim=dim)
    assert report.failures == 0, f"{check} dim={dim}: {report.to_json()}"
    assert report.trials == TRIALS
    assert report.check_id == REPORT_IDS[check]



@pytest.mark.parametrize("lam", [0.25, 0.75])
def test_checks_pass_off_center_lambda(lam):
    for check in ("rank_one_formula", "nilpotent_kernel", "spectrum_invariance"):
        assert run(check, lam, TRIALS).failures == 0


def test_reports_deterministic():
    a = run("projection_absorb", 0.5, 50)
    b = run("projection_absorb", 0.5, 50)
    assert a.to_json() == b.to_json()
    assert dataclasses.asdict(a).keys() == dataclasses.asdict(b).keys()


def test_reports_change_with_seed():
    a = run("rank_one_formula", 0.5, 50, seed=1)
    b = run("rank_one_formula", 0.5, 50, seed=2)
    assert a.worst_residual != b.worst_residual


def test_witness_always_recorded():
    report = run("spectrum_invariance", 0.5, 20)
    assert report.witness is not None
    assert "T" in report.witness


def test_endpoint_lambda_rules():
    # spectrum invariance admits the endpoints, the open-interval checks do not
    assert run("spectrum_invariance", 0.0, 30).failures == 0
    assert run("spectrum_invariance", 1.0, 30).failures == 0
    assert run("nilpotent_kernel", 1.0, 30).failures == 0
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
        outcomes = [(5.0, False), (1.0, True), (3.0, False), (0.5, True)]
        record = Check("toy", lambda r: r.observe(*outcomes[r.trial], k=r.trial))
        report = run_check(record, spec(), 0.5, len(outcomes))
        assert report.witness == {"trial": 1, "k": 1}
        assert report.worst_residual == 5.0
        assert report.failures == 2

    def test_exhausted_redraw_is_vacuous_only(self):
        draws = []
        record = Check("toy", lambda r: r.redraw(lambda: draws.append(r.trial)))
        report = run_check(record, spec(), 0.5, 3)
        assert len(draws) == report.vacuous == 3 * MAX_REDRAWS
        assert report.failures == 0
        assert report.witness is None
        assert report.worst_residual == 0.0

    def test_redraw_stops_at_first_informative_draw(self):
        outcomes = iter([None, None, (2.0, True, 0), (9.0, False, 1)])

        def draw(r):
            outcome = next(outcomes)
            if outcome is None:
                return False
            residual, failed, k = outcome
            r.observe(residual, failed, k=k)
            return True

        record = Check("toy", lambda r: r.redraw(lambda: draw(r)))
        report = run_check(record, spec(), 0.5, 1)
        assert (report.vacuous, report.failures, report.witness) == (2, 1, {"trial": 0, "k": 0})

    def test_two_failing_parts_count_once(self):
        def trial(r):
            r.observe(1.0, True)
            r.redraw(lambda: r.observe(2.0, True) or True)

        report = run_check(Check("toy", trial), spec(), 0.5, 7)
        assert report.failures == 7

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
            report = run_check(record, spec(), lam, 1)
            assert report.lam == (lam if domain else 0.0)
        for lam in excluded:
            with pytest.raises(ValueError, match="lambda must lie in"):
                run_check(record, spec(), lam, 1)
        assert calls == admitted

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
        report = run_check(record, spec(), 0.5, 10)
        assert len(encoded) == 2
        assert report.witness == {"trial": 9, "A": matrix_to_obj(a[9]), "x": vector_payload(x[9]), "tag": "t"}
