"""The verify checks themselves: every tolerance is used, and known faults fail."""

import numpy as np
import pytest

from phasebounds import bounds, moments, qfim, states, verify

N_TOT = 1.0 + 0.01 * np.arange(9901)


def test_every_tolerance_key_is_reached_by_exactly_one_check():
    keys = [f"{r.suite}.{r.name}" for r in verify.run_suite("all")]
    assert len(keys) == len(set(keys))
    assert set(keys) == set(verify.DEFAULT_TOLERANCES)
    # perfbench/oracle_worker.py reads these three
    assert {"qfim.oracle_vs_analytic", "qfim.fd_vs_analytic", "qfim.commutators"} <= set(keys)


def test_unknown_suite_names_the_suites():
    with pytest.raises(ValueError) as info:
        verify.run_suite("nope")
    assert str(info.value) == f"unknown suite 'nope'; choose from {verify.SUITE_NAMES + ('all',)}"


@pytest.mark.parametrize("tolerances,message", [
    ({"bogus.key": 1.0, "moments.closed_vs_poisson": 0.0}, "unknown tolerance 'bogus.key'"),
    ({"qfim.oracle_vs_analytic": 0.0},
     "tolerance 'qfim.oracle_vs_analytic' sets a qfim check, which suite 'moments' does not run"),
], ids=["unknown", "unselected-suite"])
def test_bad_override_key_is_rejected(tolerances, message):
    with pytest.raises(ValueError) as info:
        verify.run_suite("moments", tolerances=tolerances)
    assert str(info.value) == message


def test_b_star_without_g_fails_the_approach_check(monkeypatch):
    monkeypatch.setattr(states, "b_star", lambda d, m, alpha_sq: states.noon_optimal_b(d))
    assert not verify.b_star_approach().passed
    # the limit alone cannot tell b_star from the NOON weight
    assert verify.b_star_limit().passed


def test_wrong_stirling_entry_fails_printed_coefficients(monkeypatch):
    exact = moments.stirling2
    monkeypatch.setattr(moments, "stirling2",
                        lambda m, k: 8 if (m, k) == (4, 2) else exact(m, k))
    assert not verify.printed_coefficients().passed


@pytest.mark.parametrize("n_tot", [N_TOT[:50], N_TOT[70:], np.concatenate([N_TOT, N_TOT])],
                         ids=["below-only", "above-only", "two-crossings"])
def test_crossing_needs_one_upward_flip(n_tot):
    result = verify.crossing_bracket(n_tot)
    assert not result.passed and result.discrepancy == np.inf


def test_large_ntot_ratio_tolerance_is_the_window_below_one(monkeypatch):
    # the ratio is smallest at n_tot = 50, where it is 2500/2601
    result = verify.large_ntot_ratio(N_TOT)
    assert result.passed
    assert result.discrepancy == pytest.approx(1.0 - 2500.0 / 2601.0, rel=1e-12)
    narrow = verify.run_suite("bounds", tolerances={"bounds.large_ntot_ratio": 0.01})
    assert [r.passed for r in narrow if r.name == "large_ntot_ratio"] == [False]
    exact = bounds.noon_linear_value
    monkeypatch.setattr(bounds, "noon_linear_value", lambda d, n: 0.5 * exact(d, n))
    above = verify.large_ntot_ratio(N_TOT)
    assert not above.passed and above.discrepancy == np.inf


STRICT = {"bounds.independent_below_noon_baseline", "bounds.ecs_below_noon",
          "bounds.zzb_ordering"}


def test_override_equal_to_the_discrepancy_passes_unless_strict():
    measured = verify.run_suite("bounds")
    assert all(r.passed for r in measured)
    judged = verify.run_suite("bounds", tolerances={r.key: r.discrepancy for r in measured})
    assert [r.discrepancy for r in judged] == [r.discrepancy for r in measured]
    assert [r.tolerance for r in judged] == [r.discrepancy for r in measured]
    assert {r.key for r in judged if not r.passed} == STRICT


# One expression gives every headline value and one body every structured
# information matrix, so a small fault in either must fail verify.
HEADLINE_CHECKS = {"bounds.noon_pair_exact", "bounds.headline_values",
                   "optimizer.interior_closed_forms"}


def _failed(*suites):
    return {r.key for suite in suites for r in verify.run_suite(suite) if not r.passed}


def test_the_one_headline_expression_can_fail_verify(monkeypatch):
    assert not _failed("bounds", "optimizer") & HEADLINE_CHECKS
    exact = bounds._headline
    monkeypatch.setattr(bounds, "_headline", lambda d, moments: exact(d, moments) * (1.0 + 1e-9))
    assert HEADLINE_CHECKS <= _failed("bounds", "optimizer")


def test_the_one_structured_qfim_can_fail_verify(monkeypatch):
    ecs, noon = verify.criterion_grid_params(), verify.noon_grid_params()
    assert verify.oracle_vs_analytic(ecs).passed and verify.oracle_vs_analytic(noon).passed
    exact = qfim.probe_qfim

    def scaled(p):
        f = exact(p)
        return qfim.StructuredQfim(d=f.d, gamma=f.gamma * (1.0 + 1e-7), omega=f.omega)

    monkeypatch.setattr(qfim, "probe_qfim", scaled)
    assert "qfim.oracle_vs_analytic" in _failed("qfim")
    assert not verify.oracle_vs_analytic(ecs).passed
    assert not verify.oracle_vs_analytic(noon).passed
