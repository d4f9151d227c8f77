"""The verify checks themselves: every tolerance is used, and known faults fail."""

import math
from functools import partial

import numpy as np
import pytest

from phasebounds import bounds, moments, oracle, qfim, states, verify

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
    narrow = verify.CheckResult(result.suite, result.name, result.discrepancy, 0.01,
                                result.strict)
    assert not narrow.passed
    exact = bounds.noon_linear_value
    monkeypatch.setattr(bounds, "noon_linear_value", lambda d, n: 0.5 * exact(d, n))
    above = verify.large_ntot_ratio(N_TOT)
    assert not above.passed and above.discrepancy == np.inf


STRICT = {"bounds.independent_below_noon_baseline", "bounds.ecs_below_noon",
          "bounds.zzb_ordering"}


def test_tolerance_equal_to_the_discrepancy_passes_unless_strict():
    measured = verify.run_suite("bounds")
    assert all(r.passed for r in measured)
    judged = [verify.CheckResult(r.suite, r.name, r.discrepancy, r.discrepancy, r.strict)
              for r in measured]
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


def test_the_qfim_suite_runs_the_oracle_matrix_once_per_probe(monkeypatch):
    calls = []
    exact = oracle._qfim

    def counted(*args):
        calls.append(args)
        return exact(*args)

    monkeypatch.setattr(oracle, "_qfim", counted)
    verify.run_suite("qfim")
    probes = verify.criterion_grid_params() + verify.wide_params() + verify.noon_grid_params()
    assert len(calls) == len(probes) == 72


def _fd_verdict():
    """fd_vs_analytic's verdict on oracle_vs_analytic's measurement of four grid probes."""
    return verify.fd_vs_analytic(verify.oracle_vs_analytic(verify.criterion_grid_params()[:4]))


# (module, kernel, fault applied to the kernel's result, the check that guards it)
KERNEL_MUTANTS = [
    (oracle, "_qfim", lambda f: f * (1.0 + 3e-8),
     lambda: verify.oracle_vs_analytic(verify.criterion_grid_params()[:4])),
    (oracle, "_qfim", lambda f: f * (1.0 + 2e-5), _fd_verdict),
    (qfim, "trace_inverse_value", lambda t: t * (1.0 + 1e-11),
     lambda: verify.trace_formula(verify.criterion_grid_params()[:4])),
    (qfim, "qfim_inverse", lambda f: qfim.StructuredQfim(f.d, f.gamma, f.omega * (1.0 + 1e-8)),
     lambda: verify.structured_inverse(np.random.default_rng(0))),
    (oracle, "truncated_coherent",
     lambda v: oracle.ModeVector(v.amplitudes * (1.0 + 1e-9), v.tail_mass), verify.oracle_norm),
    (states, "mean_total_photons", lambda n: n * (1.0 + 3e-9), verify.mean_photons),
]


def _report(fault):
    """The fault applied to a BoundReport's value, the rest of the report kept."""
    return lambda r: bounds.BoundReport(fault(r.value), r.kind, r.regime, r.params)


def _flip_interior(g):
    return states.DomainGeometry(g.gamma_cap, g.b_star, g.g, not g.interior, g.f_2m)


DRAWS = verify.optimizer_draws(np.random.default_rng(0))

# Rows of the same shape for every check of the moments, optimizer and bounds
# suites, each fault just above its check's tolerance.  crossing_bracket
# bisects the crossing to adjacent doubles and reads its distance from the
# golden ratio: 2.2e-16 unfaulted, 8.7e-3 with ecs_linear_value x 1.015 and
# 1.04e-2 with x 1.018, the smallest scale tried (in steps of 0.003) that fails.
# unimodal counts draws: an alternating ripple of 5e-7 is the smallest tried
# (1e-12 up by decades, then 2e-7, 3e-7) that breaks a draw's shape.
SUITE_MUTANTS = [
    (moments, "coherent_number_moment", lambda f: f * (1.0 + 2e-10), verify.closed_vs_poisson),
    (oracle, "poisson_moments", lambda fs: [f * (1.0 + 2e-10) for f in fs],
     verify.closed_vs_poisson),
    (moments, "coherent_number_moment", lambda f: f * (1.0 + 2e-14), verify.printed_polynomials),
    (moments, "stirling2", lambda s: s + 1, verify.printed_coefficients),
    (bounds, "minimize_bound_over_b", _report(lambda v: v * (1.0 + 2e-3)),
     partial(verify.scan_vs_closed, DRAWS)),
    (bounds, "minimize_bound_over_b", _report(lambda v: v * (1.0 + 2e-12)),
     partial(verify.interior_closed_forms, DRAWS)),
    (qfim, "trace_inverse_value", lambda t: t * (1.0 + 5e-7 * (-1.0) ** np.arange(np.size(t))),
     partial(verify.unimodal, DRAWS)),
    (bounds, "minimize_bound_over_b", _report(lambda v: v * (1.0 + 2e-12)),
     verify.headline_values),
    (bounds, "qcrb_ecs_at_b", _report(lambda v: v * (1.0 + 2e-12)), verify.headline_values),
    (bounds, "qcrb_noon_nonlinear", _report(lambda v: math.nextafter(v, math.inf)),
     verify.noon_pair_exact),
    (bounds, "_independent_alpha_sq", lambda x: x * (1.0 + 1e-11), verify.independent_match),
    (bounds, "qcrb_independent_ecs", _report(lambda v: v * (1.0 + 1e-11)),
     verify.independent_vs_oracle),
    (bounds, "qcrb_independent_noon", _report(lambda v: v * (1.0 + 1e-11)),
     verify.independent_vs_oracle),
    (bounds, "independent_ecs_vs_ntot", _report(lambda v: v * 1.05),
     verify.independent_below_noon_baseline),
    (bounds, "ecs_linear_value", lambda v: v * 1.018, partial(verify.crossing_bracket, N_TOT)),
    (bounds, "ecs_linear_value", lambda v: v * 1.03, partial(verify.ecs_below_noon, N_TOT)),
    (bounds, "ecs_linear_value", lambda v: v * (1.0 - 0.0125),
     partial(verify.large_ntot_ratio, N_TOT)),
    (bounds, "zzb_ecs", _report(lambda v: v * 1.13), verify.zzb_ordering),
    (states, "domain_geometry", _flip_interior, verify.region_claim),
    (states, "b_domain_limit", lambda g: g * (1.0 + 2e-10), verify.gamma_large_alpha),
    (states, "b_star", lambda b: b * (1.0 + 2e-6), verify.b_star_approach),
    (states, "b_star", lambda b: b * (1.0 + 2e-6), verify.b_star_limit),
    (bounds, "qcrb_independent_ecs", _report(lambda v: v ** 1.6), verify.o_of_d_fit),
]


def _assert_the_check_fails_only_under_the_mutant(module, name, fault, check, monkeypatch):
    assert check().passed
    exact = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: fault(exact(*args)))
    assert not check().passed


@pytest.mark.parametrize("module,name,fault,check", KERNEL_MUTANTS, ids=[
    f"{row[0].__name__}.{row[1]}" + ("-fd_vs_analytic" if row[3] is _fd_verdict else "")
    for row in KERNEL_MUTANTS])
def test_each_qfim_and_normalization_kernel_has_a_check_that_fails(
        module, name, fault, check, monkeypatch):
    """A small fault in each kernel fails the check that guards it.

    ``fd_vs_analytic`` judges ``oracle_vs_analytic``'s measurement at its own
    1e-5, so it fails once the ``_qfim`` fault exceeds that tolerance.
    ``commutators`` fails under no mutant: it is 0 by construction, since the
    generators are diagonal.  It stays because the benchmark's oracle worker
    and acceptance criterion 10 read it.
    """
    _assert_the_check_fails_only_under_the_mutant(module, name, fault, check, monkeypatch)


@pytest.mark.parametrize("module,name,fault,check", SUITE_MUTANTS, ids=[
    f"{row[1]}-{getattr(row[3], 'func', row[3]).__name__}" for row in SUITE_MUTANTS])
def test_each_moments_optimizer_and_bounds_check_fails_under_a_kernel_fault(
        module, name, fault, check, monkeypatch):
    """Every check of these three suites fails under a fault in a kernel it reads."""
    _assert_the_check_fails_only_under_the_mutant(module, name, fault, check, monkeypatch)
