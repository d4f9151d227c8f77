import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasebounds import bounds, moments, qfim, states
from phasebounds.errors import DegenerateInputError, RegionError
from phasebounds.verify import crossing_bracket, o_of_d_advantage_fit


def headline(d: float) -> float:
    return d * (math.sqrt(d) + 1.0) ** 2 / 4.0


class TestMinimizeOverB:
    def test_interior_single_mode(self):
        report = bounds.minimize_bound_over_b(1, 1, 25.0)
        assert report.regime is bounds.Regime.INTERIOR
        assert report.value == pytest.approx(1.0 / 676.0, rel=1e-14)

    def test_interior_headline_case(self):
        report = bounds.minimize_bound_over_b(5, 1, 4.0)
        assert report.regime is bounds.Regime.INTERIOR
        assert report.value == pytest.approx(headline(5) / 25.0, rel=1e-14)

    def test_clamped_case_matches_scan(self):
        report = bounds.minimize_bound_over_b(5, 1, 1.0)
        assert report.regime is bounds.Regime.CLAMPED
        assert report.params["b_sq_used"] == pytest.approx(
            states.b_domain_limit(5, 1.0), rel=1e-15)
        scan = bounds.grid_scan_minimizer(5, 1, 1.0)
        assert scan.value == pytest.approx(report.value, rel=1e-12)

    def test_clamped_value_from_trace_formula(self):
        # at the cap the optimum equals the general bound evaluated at b = sqrt(Gamma)
        report = bounds.minimize_bound_over_b(5, 1, 1.0)
        cap = math.sqrt(states.b_domain_limit(5, 1.0))
        p = states.ecs_params(5, 1.0, cap)
        assert report.value == pytest.approx(qfim.trace_inverse_bound(p), rel=1e-12)

    def test_degenerate_input(self):
        with pytest.raises(DegenerateInputError):
            bounds.minimize_bound_over_b(2, 1, 0.0)


class TestOneMomentPass:
    """domain_geometry forms f(m), f(2m), g and b_star; the bounds read them."""

    @pytest.mark.parametrize("call,m", [
        (lambda: bounds.minimize_bound_over_b(5, 1, 4.0), 1),  # interior
        (lambda: bounds.minimize_bound_over_b(5, 2, 0.2), 2),  # clamped
        (lambda: bounds.qcrb_ecs_at_b(3, 2, 4.0, 0.1), 2),
        (lambda: bounds.grid_scan_minimizer(3, 1, 1.0), 1),
    ], ids=["interior", "clamped", "at_b", "grid_scan"])
    def test_moments_evaluated_once(self, monkeypatch, call, m):
        # patched wherever the name is bound, so a caller cannot get round it
        orders = []
        original = moments.coherent_number_moment

        def counted(order, mu):
            orders.append(order)
            return original(order, mu)
        for module in (moments, states, qfim, bounds):
            if hasattr(module, "coherent_number_moment"):
                monkeypatch.setattr(module, "coherent_number_moment", counted)
        call()
        assert orders == [m, 2 * m]

    @pytest.mark.parametrize("formula", [
        "/ (4.0 * f_2m)",  # Tr F^-1 = d/(4 f(2m)) (1/b^2 + 1/(g - b^2 d))
        "g / (sqrt(d) + d)",  # b_star^2
    ])
    def test_formula_written_once(self, formula):
        package = Path(bounds.__file__).parent
        assert sum(path.read_text().count(formula) for path in package.glob("*.py")) == 1


class TestGridScan:
    def test_matches_closed_form(self, rng):
        for _ in range(25):
            d = int(rng.integers(1, 11))
            m = int(rng.integers(1, 3))
            alpha_sq = float(rng.uniform(0.5, 25.0))
            closed = bounds.minimize_bound_over_b(d, m, alpha_sq)
            scan = bounds.grid_scan_minimizer(d, m, alpha_sq)
            assert abs(scan.value - closed.value) / closed.value < 1e-3

    def test_argmin_location(self):
        report = bounds.grid_scan_minimizer(2, 1, 9.0)
        expected = states.b_star(2, 1, 9.0) ** 2
        assert report.params["b_sq_used"] == pytest.approx(expected, rel=1e-3)


class TestEcsClosedForms:
    def test_linear_values(self):
        assert bounds.qcrb_ecs_linear(5, 4.0).value == pytest.approx(
            5.0 * (math.sqrt(5.0) + 1.0) ** 2 / 100.0, rel=1e-14)
        assert bounds.qcrb_ecs_linear(1, 1.0).value == pytest.approx(0.25, rel=1e-14)

    def test_linear_region_error(self):
        with pytest.raises(RegionError):
            bounds.qcrb_ecs_linear(5, 1.0)

    def test_nonlinear_raw_value(self):
        # d=1, mu=1: scale (2/15)^2
        assert bounds.ecs_nonlinear_value(1, 1.0) == pytest.approx(4.0 / 225.0, rel=1e-14)

    def test_nonlinear_region_error_small_intensity(self):
        # b_star exceeds the cap at d=1, mu=1 for the quadratic generator
        with pytest.raises(RegionError):
            bounds.qcrb_ecs_nonlinear(1, 1.0)

    def test_nonlinear_checked_matches_minimize(self):
        report = bounds.qcrb_ecs_nonlinear(1, 4.0)
        optimum = bounds.minimize_bound_over_b(1, 2, 4.0)
        assert optimum.regime is bounds.Regime.INTERIOR
        assert report.value == pytest.approx(optimum.value, rel=1e-12)

    def test_nonlinear_to_linear_asymptotics(self):
        # ratio NL/L = ((1+mu)^2 / (mu^3 + 6 mu^2 + 7 mu + 1))^2 ~ mu^-2
        for alpha_sq in (1e3, 1e4):
            ratio = (bounds.ecs_nonlinear_value(1, alpha_sq)
                     / bounds.ecs_linear_value(1, alpha_sq))
            assert ratio == pytest.approx(alpha_sq ** -2, rel=0.05)

    def test_degenerate_intensity(self):
        with pytest.raises(DegenerateInputError):
            bounds.qcrb_ecs_linear(5, 0.0)


class TestNoonClosedForms:
    def test_values(self):
        assert bounds.qcrb_noon_linear(1, 1).value == pytest.approx(1.0, rel=1e-15)
        assert bounds.qcrb_noon_linear(5, 10).value == pytest.approx(
            5.0 * (math.sqrt(5.0) + 1.0) ** 2 / 400.0, rel=1e-14)
        assert bounds.qcrb_noon_nonlinear(5, 10).value == pytest.approx(
            bounds.qcrb_noon_linear(5, 10).value / 100.0, rel=1e-15)

    @pytest.mark.parametrize("d", [4, 5])
    def test_optimal_b_by_scan(self, d):
        # scan the trace bound of the NOON information matrix over b
        n, m = 10, 1
        def tr(b):
            f = qfim.noon_qfim(states.noon_params(d, n, b=b, m=m))
            inv = qfim.qfim_inverse(f)
            return inv.d * inv.gamma * (1.0 + inv.omega)
        grid = np.linspace(1e-3, 1.0 / math.sqrt(d) - 1e-3, 20001)
        values = [tr(float(b)) for b in grid]
        best = grid[int(np.argmin(values))]
        assert best == pytest.approx(states.noon_optimal_b(d), rel=1e-3)
        assert min(values) == pytest.approx(bounds.qcrb_noon_linear(d, n).value, rel=1e-6)

    def test_photon_validation(self):
        with pytest.raises(DegenerateInputError):
            bounds.qcrb_noon_linear(2, 0.5)


class TestIndependentBaselines:
    def test_single_probe_formula(self):
        n_sq = 1.0 / (2.0 * (1.0 + math.exp(-1.0)))
        expected = 1.0 / (4.0 * n_sq * 1.0 * (1.0 + 1.0 * (1.0 - n_sq)))
        assert bounds.qcrb_independent_ecs(1, 1.0).value == pytest.approx(expected, rel=1e-14)

    def test_large_alpha_asymptotic(self):
        d, alpha_sq = 3, 36.0
        n_tot = bounds.independent_ecs_total_photons(d, alpha_sq)
        asymptotic = d ** 3 / (n_tot * (n_tot + 2 * d))
        assert bounds.independent_ecs_vs_ntot(d, n_tot).value == pytest.approx(
            asymptotic, abs=1e-10)

    def test_matched_arguments_agree(self):
        for d, alpha_sq in ((1, 1.0), (2, 4.0), (5, 9.0), (10, 0.5)):
            direct = bounds.qcrb_independent_ecs(d, alpha_sq).value
            n_tot = bounds.independent_ecs_total_photons(d, alpha_sq)
            assert bounds.independent_ecs_vs_ntot(d, n_tot).value == pytest.approx(
                direct, rel=1e-12)

    def test_below_noon_baseline_everywhere(self):
        for d in (2, 5, 10):
            for n_tot in np.arange(1.0, 100.5, 0.5):
                ecs = bounds.independent_ecs_vs_ntot(d, float(n_tot)).value
                noon = bounds.qcrb_independent_noon(d, float(n_tot)).value
                assert ecs < noon

    def test_independent_noon_values(self):
        assert bounds.qcrb_independent_noon(1, 1.0).value == 1.0
        assert bounds.qcrb_independent_noon(5, 10.0).value == 1.25


class TestIndependentRootSolver:
    """``independent_ecs_vs_ntot`` solves h(x) = d x / (1 + e^{-x}) = n_tot for alpha_sq."""

    @staticmethod
    def draws(count: int = 2000):
        rng = np.random.default_rng(20261017)
        ds = rng.integers(1, 65, size=count)
        n_tots = 10.0 ** rng.uniform(-3.0, 8.0, size=count)
        return [(int(d), float(n)) for d, n in zip(ds, n_tots)]

    def test_residual_at_rounding_level(self):
        eps = np.finfo(float).eps
        worst = 0.0
        for d, n_tot in self.draws():
            x = bounds.independent_ecs_vs_ntot(d, n_tot).params["alpha_sq"]
            residual = abs(d * x / (1.0 + math.exp(-x)) - n_tot)
            worst = max(worst, residual / (eps * n_tot))
        assert worst <= 4.0

    def test_agrees_with_brentq(self):
        from scipy.optimize import brentq
        for d, n_tot in self.draws():
            x = bounds.independent_ecs_vs_ntot(d, n_tot).params["alpha_sq"]
            ref = brentq(lambda t: d * t / (1.0 + math.exp(-t)) - n_tot,
                         n_tot / (2.0 * d), 2.0 * n_tot / d + 1.0,
                         xtol=1e-14, rtol=8.9e-16)
            assert abs(x - ref) <= 1e-14 + 1e-12 * ref

    def test_root_past_the_overflowing_bracket(self):
        # 2 n_tot / d overflows; the root is n_tot / d since e^{-x} = 0 there
        report = bounds.independent_ecs_vs_ntot(1, 1.7e308)
        assert report.params["alpha_sq"] == 1.7e308

    @pytest.mark.parametrize("d", [2, 3, 64])
    @pytest.mark.parametrize("n_tot", [9e307, 1e308, sys.float_info.max])
    def test_root_past_an_overflowing_midpoint(self, d, n_tot):
        # lo + hi overflows once n_tot > DBL_MAX / 2; the bisection midpoint
        # must stay finite and the root is n_tot / d, since e^{-x} = 0 there
        x = bounds.independent_ecs_vs_ntot(d, n_tot).params["alpha_sq"]
        assert abs(x - n_tot / d) <= math.ulp(n_tot / d)


class TestZivZakai:
    def test_both_branches_single_parameter(self):
        report = bounds.zzb_noon(1, 1.0)
        lam = bounds.ZIV_ZAKAI_LAMBDA
        first = 4.0 / (80.0 * lam * lam)
        second = (math.pi ** 2 / 16.0 - 0.5) * 4.0
        assert report.params["branch_first"] == pytest.approx(first, rel=1e-14)
        assert report.params["branch_second"] == pytest.approx(second, rel=1e-14)
        assert report.value == max(first, second)

    def test_first_branch_dominates_large_d(self):
        for n in (5.0, 10.0, 50.0):
            report = bounds.zzb_noon(50, n)
            assert report.value == report.params["branch_first"]

    def test_ecs_is_noon_with_shifted_argument(self):
        # N^2 -> (alpha_sq + 1)^2
        assert bounds.zzb_ecs(5, 9.0).value == pytest.approx(
            bounds.zzb_noon(5, 10.0).value, rel=1e-15)

    def test_ecs_below_noon_at_matched_photons(self):
        for alpha_sq in (4.0, 9.0, 16.0):
            assert bounds.zzb_ecs(5, alpha_sq).value < bounds.zzb_noon(5, alpha_sq).value


class TestRegionClassification:
    def test_reachable_at_moderate_amplitude(self):
        assert bounds.region_classify(5, 2.5, 1).interior

    def test_unreachable_for_large_d_small_alpha(self):
        assert not bounds.region_classify(100, 0.1, 1).interior

    def test_single_parameter_linear_always_interior(self):
        for alpha in np.geomspace(0.05, 10.0, 200):
            assert bounds.region_classify(1, float(alpha), 1).interior

    def test_single_transition_in_alpha(self):
        flags = [bounds.region_classify(5, float(a), 1).interior
                 for a in np.linspace(0.05, 4.0, 400)]
        changes = sum(1 for a, b in zip(flags, flags[1:]) if a != b)
        assert changes == 1 and flags[-1]

    def test_quadratic_generator_region_structure(self):
        # same structure as m=1: one reachability threshold in alpha per d,
        # already passed by alpha = 4 for every d up to 10
        for d in range(1, 11):
            flags = [bounds.region_classify(d, float(a), 2).interior
                     for a in np.linspace(0.1, 4.0, 400)]
            changes = sum(1 for a, b in zip(flags, flags[1:]) if a != b)
            assert changes <= 1
            assert flags[-1]


class TestHeadlineScaling:
    def test_proportional_to_d_scaling(self):
        # all four optimized bounds carry the same d (sqrt d + 1)^2 prefactor
        for d in range(1, 11):
            scale = headline(d)
            assert bounds.noon_linear_value(d, 7.0) * 7.0 ** 2 == pytest.approx(
                scale, rel=1e-15)
            assert bounds.noon_nonlinear_value(d, 7.0) * 7.0 ** 4 == pytest.approx(
                scale, rel=1e-15)
            assert bounds.ecs_linear_value(d, 7.0) * (1.0 + 7.0) ** 2 == pytest.approx(
                scale, rel=1e-15)
            mu = 7.0
            poly = (mu ** 3 + 6.0 * mu ** 2 + 7.0 * mu + 1.0) / (1.0 + mu)
            assert bounds.ecs_nonlinear_value(d, mu) * poly ** 2 == pytest.approx(
                scale, rel=1e-13)

    def test_crossing_at_golden_ratio(self):
        # one upward crossing on the 0.01 grid, in the cell that holds the golden ratio
        result = crossing_bracket(1.0 + 0.01 * np.arange(9901))
        assert result.passed and result.discrepancy <= 0.005
        # ECS linear beats NOON nonlinear exactly below the golden ratio
        assert bounds.ecs_linear_value(5, 1.5) < bounds.noon_nonlinear_value(5, 1.5)
        assert bounds.ecs_linear_value(5, 1.7) > bounds.noon_nonlinear_value(5, 1.7)

    def test_ecs_linear_always_below_noon_linear(self):
        for n in np.geomspace(1.0, 100.0, 300):
            assert bounds.ecs_linear_value(5, float(n)) < bounds.noon_linear_value(5, float(n))

    def test_advantage_grows_linearly_in_d(self):
        c, residual, ratios = o_of_d_advantage_fit()
        assert residual < 0.05
        assert np.all(np.diff(ratios) > 0)


@settings(max_examples=150, deadline=None)
@given(d=st.integers(min_value=1, max_value=12),
       n=st.floats(min_value=1.0, max_value=500.0))
def test_zzb_max_is_exact(d, n):
    report = bounds.zzb_noon(d, n)
    assert report.value == max(report.params["branch_first"],
                               report.params["branch_second"])
    assert report.value > 0.0 and math.isfinite(report.value)


@settings(max_examples=150, deadline=None)
@given(d=st.integers(min_value=1, max_value=10),
       m=st.integers(min_value=1, max_value=2),
       alpha_sq=st.floats(min_value=0.3, max_value=30.0))
def test_minimize_reports_consistent_regime(d, m, alpha_sq):
    report = bounds.minimize_bound_over_b(d, m, alpha_sq)
    geom = states.domain_geometry(d, m, alpha_sq)
    if report.regime is bounds.Regime.INTERIOR:
        assert report.params["b_sq_used"] == pytest.approx(geom.b_star ** 2, rel=1e-12)
    else:
        assert report.params["b_sq_used"] == pytest.approx(geom.gamma_cap, rel=1e-12)
    assert report.value > 0.0
