"""The verify checks themselves: every tolerance is used, and known faults fail."""

import numpy as np
import pytest

from phasebounds import moments, states, verify

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


def test_large_ntot_ratio_tolerance_is_the_window_below_one():
    assert verify.large_ntot_ratio(N_TOT).discrepancy == 0.0
    # the ratio is 2500/2601 at n_tot = 50, outside [0.99, 1]
    narrow = verify.large_ntot_ratio(N_TOT, {"bounds.large_ntot_ratio": 0.01})
    assert not narrow.passed
    assert narrow.discrepancy == pytest.approx(0.99 - 2500.0 / 2601.0, rel=1e-12)
