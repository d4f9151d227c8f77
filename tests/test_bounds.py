import json
import math
import sys
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasebounds import bounds, cli, moments, qfim, states, verify
from phasebounds.errors import DegenerateInputError
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
        beta, values = verify._trace_scan(5, 1, 1.0)
        assert beta[-1] == states.domain_geometry(5, 1, 1.0).gamma_cap  # the binding cap
        assert values.min() == pytest.approx(report.value, rel=1e-12)

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
    """domain_geometry forms the pair (f(2m), g) from one f(m) and one f(2m), and
    b_star; the bounds read them."""

    @pytest.mark.parametrize("call,m", [
        (lambda: bounds.minimize_bound_over_b(5, 1, 4.0), 1),  # interior
        (lambda: bounds.minimize_bound_over_b(5, 2, 0.2), 2),  # clamped
        (lambda: bounds.qcrb_ecs_at_b(3, 2, 4.0, 0.1), 2),
        (lambda: verify._trace_scan(3, 1, 1.0), 1),
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
        "np.linspace(0.0, min(geom.gamma_cap",  # the b^2 samples of the brute-force scan
    ])
    def test_formula_written_once(self, formula):
        package = Path(bounds.__file__).parent
        assert sum(path.read_text().count(formula) for path in package.glob("*.py")) == 1


class TestGridScan:
    """verify's brute-force scan of Tr(F^-1) over b^2 against the closed-form optimum."""

    def test_matches_closed_form(self, rng):
        for _ in range(25):
            d = int(rng.integers(1, 11))
            m = int(rng.integers(1, 3))
            alpha_sq = float(rng.uniform(0.5, 25.0))
            closed = bounds.minimize_bound_over_b(d, m, alpha_sq)
            beta, values = verify._trace_scan(d, m, alpha_sq)
            assert len(beta) == len(values) >= 9_999
            assert abs(values.min() - closed.value) / closed.value < 1e-3

    def test_argmin_location(self):
        beta, values = verify._trace_scan(2, 1, 9.0)
        expected = states.b_star(2, 1, 9.0) ** 2
        assert beta[np.argmin(values)] == pytest.approx(expected, rel=1e-3)

    def test_pole_at_the_cap(self):
        # at d = 1, alpha_sq = 1e17, g / d rounds to Gamma = 1.0: the scan
        # drops the pole endpoint, where the trace bound diverges
        geom = states.domain_geometry(1, 1, 1e17)
        assert geom.g / 1 <= geom.gamma_cap
        beta, values = verify._trace_scan(1, 1, 1e17)
        assert beta[-1] < geom.gamma_cap and np.all(np.isfinite(values))
        check = verify.scan_vs_closed([(1, 1, 1e17)])
        assert check.passed, check


class TestEcsClosedForms:
    def test_linear_values(self):
        assert bounds.minimize_bound_over_b(5, 1, 4.0).value == pytest.approx(
            5.0 * (math.sqrt(5.0) + 1.0) ** 2 / 100.0, rel=1e-14)
        assert bounds.minimize_bound_over_b(1, 1, 1.0).value == pytest.approx(0.25, rel=1e-14)

    def test_nonlinear_raw_value(self):
        # d=1, mu=1: scale (2/15)^2
        assert bounds.ecs_nonlinear_value(1, 1.0) == pytest.approx(4.0 / 225.0, rel=1e-14)

    def test_nonlinear_checked_matches_minimize(self):
        # the interior m = 2 report is the headline value at b_star, named ecs-nonlinear
        report = bounds.minimize_bound_over_b(1, 2, 4.0)
        assert report.regime is bounds.Regime.INTERIOR and report.kind == "ecs-nonlinear"
        assert report.value == pytest.approx(bounds.ecs_nonlinear_value(1, 4.0), rel=1e-12)

    def test_nonlinear_to_linear_asymptotics(self):
        # ratio NL/L = ((1+mu)^2 / (mu^3 + 6 mu^2 + 7 mu + 1))^2 ~ mu^-2
        for alpha_sq in (1e3, 1e4):
            ratio = (bounds.ecs_nonlinear_value(1, alpha_sq)
                     / bounds.ecs_linear_value(1, alpha_sq))
            assert ratio == pytest.approx(alpha_sq ** -2, rel=0.05)

    def test_degenerate_intensity(self):
        with pytest.raises(DegenerateInputError):
            bounds.minimize_bound_over_b(5, 1, 0.0)


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


SMALLEST_NORMAL = Decimal(sys.float_info.min)
SMALLEST_SUBNORMAL = Decimal(5e-324)


def exact_independent_ecs(d: int, alpha_sq: float) -> Decimal:
    """The paper's d / (4 N^2 alpha_sq [1 + alpha_sq (1 - N^2)]) to 60 digits,
    with N^2 = 1/(2(1 + e^{-alpha_sq}))."""
    with localcontext() as ctx:
        ctx.prec = 60
        x = Decimal(alpha_sq)
        n_sq = 1 / (2 * (1 + (-x).exp()))
        return d / (4 * n_sq * x * (1 + x * (1 - n_sq)))


class TestIndependentEcsAgainstDecimal:
    """Both independent-ECS routes against the paper's formula written out in decimal.

    Within 4 ulp where the exact bound is a normal double, within one
    smallest subnormal below that, and never 0.0 where it rounds to a
    nonzero double.  A form that multiplies N^2 alpha_sq by alpha_sq, or
    n_tot by 2 d + n_tot (N^-2 - 1), before it divides overflows to inf and
    returns 0.0 on 54 and 60 of these draws.
    """

    @staticmethod
    def draws(lo: float, hi: float, seed: int, count: int = 2000):
        rng = np.random.default_rng(seed)
        ds = rng.integers(1, 65, size=count)
        xs = 10.0 ** rng.uniform(math.log10(lo), math.log10(hi), size=count)
        return [(int(d), float(x)) for d, x in zip(ds, xs)]

    @staticmethod
    def assert_close(value: float, exact: Decimal, case) -> None:
        err = abs(Decimal(value) - exact)
        if exact >= SMALLEST_NORMAL:
            assert float(err) <= 4.0 * math.ulp(float(exact)), case
        else:
            assert err <= SMALLEST_SUBNORMAL, case
        assert value != 0.0 or exact < SMALLEST_SUBNORMAL / 2, case

    def test_via_alpha_sq(self):
        for d, alpha_sq in self.draws(1e-12, 1e308, 20261020):
            value = bounds.qcrb_independent_ecs(d, alpha_sq).value
            self.assert_close(value, exact_independent_ecs(d, alpha_sq), (d, alpha_sq))

    def test_via_n_tot_at_its_solved_alpha_sq(self):
        for d, n_tot in self.draws(1e-3, 1.7e308, 20261021):
            report = bounds.independent_ecs_vs_ntot(d, n_tot)
            exact = exact_independent_ecs(d, report.params["alpha_sq"])
            self.assert_close(report.value, exact, (d, n_tot))


# pi to 60 digits, for the Ziv-Zakai branch coefficient pi^2/16 - 1/2
PI_60 = Decimal("3.14159265358979323846264338327950288419716939937510582097494")


def exact_zzb(d: int, photon: Decimal) -> Decimal:
    """The larger Ziv-Zakai branch to 60 digits, with s = d + sqrt d and N = photon."""
    with localcontext() as ctx:
        ctx.prec = 60
        s = d + Decimal(d).sqrt()
        lam = Decimal(bounds.ZIV_ZAKAI_LAMBDA)
        core = d * s * s / (photon * photon)
        return max(core / (80 * lam * lam), (PI_60 * PI_60 / 16 - Decimal("0.5")) * core / (s - 1))


def exact_independent_noon(d: int, n_tot: float) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = 60
        return Decimal(d) ** 3 / Decimal(n_tot) ** 2


class TestSquareOverflowAgainstDecimal:
    """independent-noon and the Ziv-Zakai bounds where n_tot^2, N^2 or
    (alpha_sq + 1)^2 overflows, against their formulas in decimal, with
    TestIndependentEcsAgainstDecimal's tolerance.  Where the bound rounds to
    0 the kernel returns 0.0, which the CLI refuses with exit 2."""

    def test_independent_noon_above_the_square_root_of_dbl_max(self):
        close = TestIndependentEcsAgainstDecimal.assert_close
        draws = TestIndependentEcsAgainstDecimal.draws(1.35e154, 1e165, 20261022)
        for d, n_tot in [(3, 2e154), *draws]:  # the first is the CLI's --d 3 --n-tot 2e154
            exact = exact_independent_noon(d, n_tot)
            if exact < SMALLEST_SUBNORMAL / 2:
                assert bounds.qcrb_independent_noon(d, n_tot).value == 0.0, (d, n_tot)
            else:
                close(bounds.qcrb_independent_noon(d, n_tot).value, exact, (d, n_tot))

    @pytest.mark.parametrize("bound,exact", [
        (bounds.qcrb_independent_noon, exact_independent_noon(3, 2e154)),
        (bounds.zzb_noon, exact_zzb(3, Decimal(2e154))),
    ], ids=["independent-noon", "zzb-noon"])
    def test_cli_values_are_the_rounded_decimal(self, bound, exact):
        # the values test_bound_where_a_square_overflows pins at --d 3 and
        # 2e154: the power-scaled value rounds once, to the nearest double
        assert bound(3, 2e154).value == float(exact) > 0.0

    @pytest.mark.parametrize("bound,x,photon", [
        (bounds.zzb_noon, 2e154, Decimal(2e154)),
        (bounds.zzb_ecs, 2e77 * 2e77, Decimal(2e77 * 2e77) + 1),
    ], ids=["zzb-noon", "zzb-ecs"])
    def test_ziv_zakai_at_d_3(self, bound, x, photon):
        # the CLI's --N 2e154 and --alpha 2e77; both bounds are subnormal
        TestIndependentEcsAgainstDecimal.assert_close(bound(3, x).value,
                                                      exact_zzb(3, photon), x)


def exact_noon(d: int, m: int, photon: float) -> Decimal:
    """The NOON headline d (sqrt d + 1)^2 / (4 N^{2m}) to 60 digits."""
    with localcontext() as ctx:
        ctx.prec = 60
        return d * (Decimal(d).sqrt() + 1) ** 2 / (4 * Decimal(photon) ** (2 * m))


def assert_within_4_ulp(value: float, exact: Decimal, case) -> None:
    """Within 4 ulp of the exact value, the ulp of a subnormal (or of 0) being
    the smallest subnormal, and 0.0 exactly where the exact value rounds to 0."""
    rounded = float(exact)
    assert abs(Decimal(value) - exact) <= 4 * Decimal(math.ulp(rounded)), case
    assert (value > 0.0) == (rounded > 0.0), case


class TestNoonWherePowerOverflows:
    """noon-linear and noon-nonlinear where N^2 or N^4 overflows, from the
    first such N to past the one where the bound rounds to 0 (d <= 64)."""

    @pytest.mark.parametrize("m,lo,hi", [(1, 1.35e154, 1e166), (2, 1.16e77, 1e83)])
    def test_against_decimal(self, m, lo, hi):
        value = bounds.noon_linear_value if m == 1 else bounds.noon_nonlinear_value
        for d, photon in TestIndependentEcsAgainstDecimal.draws(lo, hi, 20261027 + m, 4000):
            assert_within_4_ulp(value(d, photon), exact_noon(d, m, photon), (d, photon))

    def test_arrays_warn_nothing(self, recwarn):
        photons = np.array([2.0, 1.2e77, 1e200, 1e300])
        values = bounds.noon_nonlinear_value(3, photons)
        assert values.tolist() == [bounds.noon_nonlinear_value(3, float(n)) for n in photons]
        assert values[-1] == 0.0 and not recwarn.list


SQUARE_TOP = 1.3407807929942596e154  # the largest double whose square is finite
FOURTH_TOP = 1.1579208923731618e77  # the largest double whose fourth power is finite


def _exact_independent_ecs_by_n_tot(d: int, n_tot: float) -> Decimal:
    return exact_independent_ecs(d, bounds.independent_ecs_vs_ntot(d, n_tot).params["alpha_sq"])


def _window_ends(family, flag, top, last, zero, exact):
    """A family at --d 3 on either side of where its product form overflows
    (top, the largest double with a finite power, and the next one) and of
    where its bound rounds to 0 (last, zero): (family, flag, value, exact
    bound at (d, value), exit code)."""
    return [(family, flag, x, exact, code) for x, code in
            ((top, 0), (math.nextafter(top, math.inf), 0), (last, 0), (zero, 2))]


WINDOW_ENDS = [
    *_window_ends("independent-ecs", "--alpha", FOURTH_TOP, 1.02e81, 1.08e81,
                  lambda d, x: exact_independent_ecs(d, x * x)),
    *_window_ends("independent-ecs", "--n-tot", SQUARE_TOP, 3.2e162, 3.4e162,
                  _exact_independent_ecs_by_n_tot),
    *_window_ends("independent-noon", "--n-tot", SQUARE_TOP, 3.2e162, 3.4e162,
                  exact_independent_noon),
    *_window_ends("noon-linear", "--N", SQUARE_TOP, 1.45e162, 1.56e162,
                  lambda d, x: exact_noon(d, 1, x)),
    *_window_ends("noon-nonlinear", "--N", FOURTH_TOP, 1.2e81, 1.25e81,
                  lambda d, x: exact_noon(d, 2, x)),
    *_window_ends("zzb-noon", "--N", SQUARE_TOP, 9.0e161, 9.5e161,
                  lambda d, x: exact_zzb(d, Decimal(x))),
    *_window_ends("zzb-ecs", "--alpha", FOURTH_TOP, 9.4e80, 9.8e80,
                  lambda d, x: exact_zzb(d, Decimal(x * x) + 1)),
]


@pytest.mark.parametrize("family,flag,x,exact,code", WINDOW_ENDS,
                         ids=[f"{f} {flag} {x!r}" for f, flag, x, _, _ in WINDOW_ENDS])
def test_cli_bound_at_the_window_ends(capsys, family, flag, x, exact, code):
    """The printed bound is within 4 ulp of its decimal value wherever that
    rounds to a positive double; where it rounds to 0 the command exits 2."""
    bound = exact(3, x)
    assert (float(bound) > 0.0) == (code == 0)
    assert cli.main(["bounds", "--family", family, "--d", "3", flag, repr(x)]) == code
    out, err = capsys.readouterr()
    if code == 0:
        assert err == ""
        assert_within_4_ulp(json.loads(out)["value"], bound, x)
    else:
        assert out == ""
        assert err == f"error: the bound is not a positive finite double (at --d 3 {flag} {x!r})\n"


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

    @staticmethod
    def exp_calls(monkeypatch, cases):
        """Largest number of math.exp calls one root takes over (d, n_tot) cases."""
        exact, calls = math.exp, []
        monkeypatch.setattr(math, "exp", lambda x: calls.append(x) or exact(x))
        worst = 0
        for d, n_tot in cases:
            calls.clear()
            x = bounds._independent_alpha_sq(d, n_tot)
            worst = max(worst, len(calls))
            assert n_tot / (2.0 * d) <= x <= 2.0 * n_tot / d + 1.0
        return worst

    @pytest.mark.parametrize("d", [1, 7, 64])
    def test_bounded_steps_over_the_whole_n_tot_row(self, d, monkeypatch):
        # each loop step calls exp once; bisecting linearly toward a tiny
        # root took 900 calls at n_tot = 1e-300
        row = (10.0 ** np.linspace(-320.0, 308.0, 2513)).tolist()
        assert self.exp_calls(monkeypatch, [(d, n_tot) for n_tot in row]) <= 8

    def test_bounded_steps_at_the_largest_double(self, monkeypatch):
        # the root n_tot / d sits where d x overflows; a bracketed solver
        # that formed d x took up to 59 calls here (d = 6, 7, 14, 24, ...)
        top = sys.float_info.max
        rng = np.random.default_rng(20261019)
        cases = [(d, top) for d in range(1, 201)]
        cases += [(1000, n_tot) for n_tot in rng.uniform(0.999 * top, top, 3000).tolist()]
        assert self.exp_calls(monkeypatch, cases) <= 8

    def test_within_two_ulp_of_a_decimal_root(self):
        # 60-digit Newton on x = y (1 + e^{-x}), y = n_tot / d formed exactly;
        # the relative error squares from <= 1/2, so eight steps pass 60 digits
        worst = 0.0
        with localcontext() as ctx:
            ctx.prec = 60
            for d, n_tot in self.draws(300):
                y = x = Decimal(n_tot) / d
                for _ in range(8):
                    e = (-x).exp()
                    x -= (x - y * (1 + e)) / (1 + y * e)
                got = bounds._independent_alpha_sq(d, n_tot)
                worst = max(worst, float(abs(Decimal(got) - x)) / math.ulp(float(x)))
        assert worst <= 2.0

    def test_tiny_root_at_rounding_level(self):
        # below n_tot ~ 1e-20 the root is 2 n_tot / d to within rounding
        for d in (1, 7, 64):
            for n_tot in (1e-25, 1e-100, 1e-300):
                x = bounds.independent_ecs_vs_ntot(d, n_tot).params["alpha_sq"]
                assert abs(x - 2.0 * n_tot / d) <= 2 * math.ulp(2.0 * n_tot / d)

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
        assert states.domain_geometry(5, 1, 2.5 * 2.5).interior

    def test_unreachable_for_large_d_small_alpha(self):
        assert not states.domain_geometry(100, 1, 0.1 * 0.1).interior

    def test_single_parameter_linear_always_interior(self):
        for a in np.geomspace(0.05, 10.0, 200).tolist():
            assert states.domain_geometry(1, 1, a * a).interior

    def test_single_transition_in_alpha(self):
        flags = [states.domain_geometry(5, 1, a * a).interior
                 for a in np.linspace(0.05, 4.0, 400).tolist()]
        changes = sum(1 for a, b in zip(flags, flags[1:]) if a != b)
        assert changes == 1 and flags[-1]

    def test_quadratic_generator_region_structure(self):
        # same structure as m=1: one reachability threshold in alpha per d,
        # already passed by alpha = 4 for every d up to 10
        for d in range(1, 11):
            flags = [states.domain_geometry(d, 2, a * a).interior
                     for a in np.linspace(0.1, 4.0, 400).tolist()]
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
