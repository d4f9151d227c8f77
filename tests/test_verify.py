"""The verify checks themselves: every tolerance is used, and known faults fail."""

import numpy as np
import pytest

from phasebounds import bounds, moments, states, verify

N_TOT = 1.0 + 0.01 * np.arange(9901)


def test_every_tolerance_key_is_reached_by_exactly_one_check():
    keys = [f"{r.suite}.{r.name}" for r in verify.run_suite("all")]
    assert len(keys) == len(set(keys))
    assert set(keys) == set(verify.DEFAULT_TOLERANCES)
    # perfbench/oracle_worker.py reads these three
    assert {"qfim.oracle_vs_analytic", "qfim.fd_vs_analytic", "qfim.commutators"} <= set(keys)


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
