"""Acceptance gate: every exit criterion at its pinned tolerance.

The gate holds only inputs, wall-time limits and report lines.  Each
criterion calls the ``phasebounds.verify`` checks it covers on its own
pinned inputs (a probe grid, a seeded rng, an n_tot grid), at
``verify.DEFAULT_TOLERANCES``, so ``verify`` and the gate share one
implementation of every comparison.  Each test prints one
``ACCEPTANCE <n> (<title>): PASS|FAIL`` line with every check's discrepancy
and tolerance (visible with ``pytest -s`` or in the failure report).

Criterion 7c checks the large-amplitude limit of the optimal branch
coefficient, b_star -> 1/sqrt(d + sqrt d), at the 1e-6 tolerance.  Unlike
the domain cap of 7b, which reaches 1/d exponentially fast,
b_star = sqrt(g / (d + sqrt d)) with g = 1 + 1/alpha_sq approaches the NOON
weight only as 1/(2 alpha_sq), about 1e-2 at alpha_sq = 49.  So 7c checks
the approach at alpha_sq = 49 against that exact finite-alpha form, and the
limit itself at the amplitude where 1/(2 alpha_sq) is below 1e-6.
"""

import time

import numpy as np

from phasebounds import verify
from phasebounds.verify import criterion_grid_params, optimizer_draws


def report(criterion: str, results: list, started: float | None = None,
           limit_s: float | None = None) -> None:
    """Print the criterion's line and fail unless every check passed in time."""
    passed = all(r.passed for r in results)
    parts = [f"{r.suite}/{r.name} {r.discrepancy:.3e} (tol {r.tolerance:g})" for r in results]
    if limit_s is not None:
        elapsed = time.perf_counter() - started
        passed = passed and elapsed < limit_s
        parts.append(f"elapsed={elapsed:.2f}s (< {limit_s:g} s)")
    detail = "; ".join(parts)
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'}  {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def test_criterion_01_moment_equivalence():
    t0 = time.perf_counter()
    report("1 (moments equivalence)",
           [verify.closed_vs_poisson(), verify.printed_coefficients(),
            verify.printed_polynomials()], t0, 1.0)


def test_criterion_02_qfim_oracle_equivalence():
    t0 = time.perf_counter()
    probes = criterion_grid_params()
    report("2 (QFIM oracle equivalence)",
           [verify.oracle_vs_analytic(probes), verify.fd_vs_analytic(probes)], t0, 30.0)


def test_criterion_03_structured_inverse():
    t0 = time.perf_counter()
    report("3 (structured inverse)",
           [verify.structured_inverse(np.random.default_rng(12345)),
            verify.trace_formula(criterion_grid_params())], t0, 5.0)


def test_criterion_04_optimizer_correctness():
    t0 = time.perf_counter()
    draws = optimizer_draws(np.random.default_rng(20240811))
    report("4 (optimizer correctness)",
           [verify.scan_vs_closed(draws), verify.interior_closed_forms(draws)], t0, 10.0)


def test_criterion_05_headline_values():
    report("5 (headline reproduction)", [verify.headline_values(), verify.noon_pair_exact()])


def test_criterion_06_bound_comparison_curves():
    t0 = time.perf_counter()
    n_tot = 1.0 + 0.01 * np.arange(9901)  # [1, 100] in 0.01 steps
    report("6 (bound comparison curves)",
           [verify.ecs_below_noon(n_tot), verify.crossing_bracket(n_tot),
            verify.large_ntot_ratio(n_tot)], t0, 5.0)


def test_criterion_07a_region_claim():
    t0 = time.perf_counter()
    report("7a (region claim)", [verify.region_claim()], t0, 5.0)


def test_criterion_07b_gamma_large_alpha_limit():
    report("7b (domain-cap limit)", [verify.gamma_large_alpha()])


def test_criterion_07c_b_star_large_alpha_limit():
    """b_star tends to the NOON weight 1/sqrt(d + sqrt d) at the rate 1/(2 alpha_sq).

    For coherent amplitudes <n> = alpha_sq and <n^2> = alpha_sq^2 + alpha_sq,
    so g = <n^2>/<n>^2 = 1 + 1/alpha_sq and b_star = sqrt(g)/sqrt(d + sqrt d)
    exceeds the NOON weight by about 1/(2 alpha_sq) (7e-3 at d=1, alpha_sq=49),
    not by an exponentially small amount.  The approach is checked at
    alpha_sq = 49 against that exact form; the limit itself at alpha_sq = 1e6.
    """
    report("7c (b_star large-alpha limit)", [verify.b_star_approach(), verify.b_star_limit()])


def test_criterion_08_independent_baselines():
    report("8 (independent baselines)",
           [verify.independent_match(), verify.independent_below_noon_baseline(),
            verify.o_of_d_fit()])


def test_criterion_09_ziv_zakai():
    report("9 (Ziv-Zakai)", [verify.zzb_ordering()])


def test_criterion_10_attainability():
    report("10 (attainability)", [verify.commutators(criterion_grid_params())])
