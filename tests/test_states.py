import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phasebounds import oracle, states
from phasebounds.errors import (
    CoefficientDomainError,
    DegenerateInputError,
    DoubleOverflowError,
    NormalizationError,
)


class TestUvCoefficients:
    def test_single_mode(self):
        for alpha_sq in (0.0, 0.7, 5.0):
            u, v, _ = states.overlaps(1, alpha_sq)
            assert u == 1.0
            assert v == pytest.approx(math.exp(-alpha_sq), rel=1e-15)

    def test_zero_intensity(self):
        assert states.overlaps(2, 0.0) == (4.0, 2.0, 0.0)

    def test_formula(self):
        u, v, _ = states.overlaps(5, 16.0)
        x = math.exp(-16.0)
        assert u == pytest.approx(5.0 + 20.0 * x, rel=1e-15)
        assert v == pytest.approx(5.0 * x, rel=1e-15)
        assert u >= v > 0.0

    @settings(max_examples=300, deadline=None)
    @given(d=st.integers(1, 10 ** 6),
           alpha_sq=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
           | st.sampled_from([5e-324, 2.2250738585072014e-308, 1e-300, 1e-12, 745.2, 1e308]))
    def test_u_minus_v_sq_positive_wherever_alpha_sq_is_accepted(self, d, alpha_sq):
        # b_domain_limit relies on this in place of its own u - v^2 > 0 test
        assert states.overlaps(d, alpha_sq)[2] > 0.0
        arrays = states.overlaps(np.array([d, 1]), np.array([alpha_sq, alpha_sq]))
        assert np.all(arrays[2] > 0.0)


class TestSolveC:
    def test_pure_reference_branch(self):
        assert states.solve_c(0.0, 3, 1.0) == 1.0

    def test_boundary_root(self):
        # at b = sqrt(Gamma) the discriminant vanishes and c = -b v
        d, alpha_sq = 2, 2.0
        b = math.sqrt(states.b_domain_limit(d, alpha_sq))
        _, v, _ = states.overlaps(d, alpha_sq)
        assert states.solve_c(b, d, alpha_sq) == pytest.approx(-b * v, rel=1e-6)

    def test_against_polynomial_roots(self):
        # np.roots as the independent quadratic solver
        d, alpha_sq, b = 2, 4.0, 0.3
        u, v, _ = states.overlaps(d, alpha_sq)
        roots = sorted(np.roots([1.0, 2.0 * b * v, b * b * u - 1.0]))
        assert states.solve_c(b, d, alpha_sq) == pytest.approx(roots[1], rel=1e-12)

    def test_out_of_domain(self):
        d, alpha_sq = 2, 1.0
        b = math.sqrt(states.b_domain_limit(d, alpha_sq)) * 1.01
        with pytest.raises(CoefficientDomainError):
            states.solve_c(b, d, alpha_sq)

    def test_rejects_negative_b(self):
        with pytest.raises(CoefficientDomainError):
            states.solve_c(-0.1, 2, 1.0)

    @pytest.mark.parametrize("alpha_sq", [0.0, 5e-324])
    def test_b_squared_overflow_is_named(self, alpha_sq):
        # b^2 and the cap Gamma both overflow (at the vacuum b^2 (u - v^2) is
        # inf * 0 = NaN): the error names the overflow, not "inf exceeds inf"
        with pytest.raises(DoubleOverflowError) as info:
            states.solve_c(1e200, 1, alpha_sq)
        assert str(info.value) == ("b^2 overflows a double at b = 1e+200, so it cannot be "
                                   "tested against the domain cap Gamma = inf")

    def test_b_squared_overflow_under_a_finite_cap(self):
        with pytest.raises(CoefficientDomainError) as info:
            states.solve_c(1e200, 1, 1.0)
        assert str(info.value) == "b^2 = inf exceeds the domain cap Gamma = 1.15651764275"


# alpha_sq log-uniform over [1e-12, 700]; the fraction of sqrt(Gamma) is 1 itself
# in about half the draws, so b = sqrt(Gamma) as computed is always among them
LOG_ALPHA_SQ = st.floats(-12.0, math.log10(700.0)).map(lambda e: 10.0 ** e)
CAP_FRACTION = st.just(1.0) | st.floats(0.0, 1.0)


@settings(max_examples=500, deadline=None)
@given(d=st.integers(1, 64), alpha_sq=LOG_ALPHA_SQ, frac=CAP_FRACTION, m=st.integers(1, 2))
@example(d=1, alpha_sq=1e-5, frac=1.0, m=1)
def test_every_b_under_the_cap_gets_a_normalized_c(d, alpha_sq, frac, m):
    # solve_c's cap test and the probe's: b up to sqrt(Gamma) passes both, and
    # the c it gets passes the residual test (EcsParams raises neither error)
    b = frac * math.sqrt(states.b_domain_limit(d, alpha_sq))
    p = states.EcsParams(d, alpha_sq, b, states.solve_c(b, d, alpha_sq), m)
    assert p.c >= -b * states.overlaps(d, alpha_sq)[1]


@settings(max_examples=300, deadline=None)
@given(d=st.integers(1, 64), frac=CAP_FRACTION)
def test_every_noon_b_under_the_cap_gets_a_normalized_c(d, frac):
    b = frac / math.sqrt(d)
    assert states.noon_params(d, 3, b).c >= 0.0


@settings(max_examples=200, deadline=None)
@given(d=st.integers(min_value=1, max_value=8),
       alpha_sq=st.floats(min_value=1e-3, max_value=30.0),
       frac=st.floats(min_value=0.0, max_value=1.0))
def test_solve_c_satisfies_normalization(d, alpha_sq, frac):
    b = frac * math.sqrt(states.b_domain_limit(d, alpha_sq))
    c = states.solve_c(b, d, alpha_sq)
    u, v, _ = states.overlaps(d, alpha_sq)
    assert abs(c * c + 2.0 * b * v * c + b * b * u - 1.0) < 1e-12


class TestBDomainLimit:
    def test_large_alpha_limit(self):
        for d in (1, 4):
            assert states.b_domain_limit(d, 80.0) == pytest.approx(1.0 / d, abs=1e-12)

    def test_value_d2(self):
        expected = 1.0 / (2.0 + 2.0 * math.exp(-1.0) - 4.0 * math.exp(-2.0))
        assert states.b_domain_limit(2, 1.0) == pytest.approx(expected, rel=1e-15)

    def test_boundary_separates_normalizable_region(self):
        # the quadratic for c has real roots below the cap, complex above
        d, alpha_sq = 3, 0.8
        cap = states.b_domain_limit(d, alpha_sq)
        u, v, _ = states.overlaps(d, alpha_sq)
        for shrink, expect_real in ((0.999, True), (1.001, False)):
            b = math.sqrt(cap) * shrink
            roots = np.roots([1.0, 2.0 * b * v, b * b * u - 1.0])
            assert np.all(np.isreal(roots)) == expect_real

    def test_vacuum_rejected(self):
        # the alpha_sq row's text, as for every other kernel
        vacuum = r"^alpha_sq must be finite and > 0, got 0\.0$"
        with pytest.raises(DegenerateInputError, match=vacuum):
            states.b_domain_limit(1, 0.0)
        with pytest.raises(DegenerateInputError):
            states.b_domain_limit(5, 0.0)

    def test_nonincreasing_in_d(self):
        for alpha_sq in (3.0, 5.0, 10.0, 25.0):
            caps = [states.b_domain_limit(d, alpha_sq) for d in range(1, 21)]
            assert all(b <= a + 1e-15 for a, b in zip(caps, caps[1:]))


class TestBStar:
    def test_unit_g_limit(self):
        # g -> 1 as alpha_sq -> infinity, so b_star -> 1/sqrt(d + sqrt d)
        for d in range(1, 11):
            assert abs(states.b_star(d, 1, 1e7) - states.noon_optimal_b(d)) < 1e-6

    def test_values(self):
        # d=4, m=1, alpha_sq=1: g = 2, b_star = sqrt(2/6)
        assert states.b_star(4, 1, 1.0) == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-15)
        # d=1, m=2, alpha_sq=1: g = 15/4
        assert states.b_star(1, 2, 1.0) == pytest.approx(math.sqrt(3.75 / 2.0), rel=1e-15)

    def test_requires_positive_intensity(self):
        with pytest.raises(DegenerateInputError):
            states.b_star(2, 1, 0.0)


def test_domain_geometry_flags():
    geom = states.domain_geometry(5, 1, 4.0)
    assert geom.interior
    assert geom.b_star ** 2 <= geom.gamma_cap
    geom = states.domain_geometry(5, 1, 1.0)
    assert not geom.interior
    assert geom.g >= 1.0


class TestMeanTotalPhotons:
    def test_vacuum(self):
        p = states.EcsParams(d=3, alpha_sq=0.0, b=0.1, c=1.0 - 3 * 0.1, m=1)
        assert states.mean_total_photons(p) == 0.0

    def test_tracks_intensity_at_optimum(self):
        p = states.ecs_params(5, 16.0, states.b_star(5, 1, 16.0))
        assert abs(states.mean_total_photons(p) - 16.0) < 1e-5

    def test_matches_oracle_number_expectation(self):
        p = states.ecs_params(2, 1.0, 0.4)
        cutoff = oracle.minimal_cutoff(1.0, 1e-14) + 4
        state = oracle.build_state(p, cutoff)
        assert states.mean_total_photons(p) == pytest.approx(
            oracle.total_photon_expectation(state), rel=1e-9)


def test_noon_optimal_b_values():
    assert states.noon_optimal_b(1) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)
    assert states.noon_optimal_b(4) == pytest.approx(1.0 / math.sqrt(6.0), rel=1e-15)
    assert states.noon_optimal_b(5) == pytest.approx(
        1.0 / math.sqrt(5.0 + math.sqrt(5.0)), rel=1e-15)


class TestValidation:
    def test_valid_params_pass_through(self):
        assert states.EcsParams(d=2, alpha_sq=4.0, b=0.0, c=1.0, m=1).c == 1.0
        p = states.ecs_params(3, 2.0, 0.3, m=2)
        assert states.EcsParams(p.d, p.alpha_sq, p.b, p.c, p.m) == p

    def test_b_beyond_cap(self):
        cap = states.b_domain_limit(2, 4.0)
        with pytest.raises(CoefficientDomainError):
            states.EcsParams(d=2, alpha_sq=4.0, b=math.sqrt(cap) * 1.01, c=0.0, m=1)

    def test_normalization_violation(self):
        with pytest.raises(NormalizationError):
            states.EcsParams(d=2, alpha_sq=4.0, b=0.1, c=1.0, m=1)

    def test_noon(self):
        p = states.noon_params(5, 10)
        assert p.c ** 2 == pytest.approx(1.0 - 5 * p.b ** 2, abs=1e-15)
        with pytest.raises(NormalizationError):
            states.NoonParams(d=2, photon_number=3, b=0.5, c=0.9)
        with pytest.raises(ValueError):
            states.NoonParams(d=2, photon_number=0, b=0.1, c=0.99)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 16, 64])
    def test_noon_at_the_cap(self, d):
        # b = 1/sqrt(d) is exact for d = 1, 4, 16, 64, and c is then exactly 0;
        # elsewhere the rounded b leaves a discriminant of an ulp or two
        p = states.noon_params(d, 3, b=1.0 / math.sqrt(d))
        assert p.c == 0.0 if d in (1, 4, 16, 64) else p.c ** 2 <= 1e-15

    def test_noon_beyond_the_cap(self):
        with pytest.raises(CoefficientDomainError) as info:
            states.noon_params(2, 3, b=math.sqrt((1.0 + 1e-9) / 2.0))
        assert str(info.value) == "b^2 = 0.5000000005 exceeds the domain cap Gamma = 0.5"


class TestValidOnConstruction:
    """Building a probe validates it exactly once; an invalid one is never built."""

    @staticmethod
    def _count(monkeypatch, cls):
        # a probe validates in its constructor, so each construction is one validation
        calls = []
        original = cls.__init__

        def counted(q, *args, **kwargs):
            calls.append(q)
            return original(q, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)
        return calls

    def test_valid_probes(self, monkeypatch):
        ecs_calls = self._count(monkeypatch, states.EcsParams)
        noon_calls = self._count(monkeypatch, states.NoonParams)
        ecs = states.ecs_params(2, 1.0, 0.3)
        noon = states.noon_params(2, 3)
        assert ecs_calls == [ecs] and noon_calls == [noon]
        states.mean_total_photons(ecs)
        assert ecs_calls == [ecs]

    @pytest.mark.parametrize("cls, args, error, message", [
        (states.EcsParams, (2, 1.0, 0.3, states.ecs_params(2, 1.0, 0.3).c + 1e-9),
         NormalizationError,
         "normalization violated: c^2 + 2bvc + b^2 u - 1 = 1.792e-09 exceeds 4.441e-15"),
        # an absolute 1e-12 accepted this; the bound scales with terms of order 1
        (states.EcsParams, (2, 1.0, 0.3, states.ecs_params(2, 1.0, 0.3).c + 1e-13),
         NormalizationError,
         "normalization violated: c^2 + 2bvc + b^2 u - 1 = 1.790e-13 exceeds 4.441e-15"),
        (states.EcsParams, (2, 4.0, math.sqrt(states.b_domain_limit(2, 4.0)) * 1.01, 0.0),
         CoefficientDomainError,
         "b^2 = 0.501206357353 exceeds the domain cap Gamma = 0.491330612051"),
        (states.EcsParams, (2, 1.0, 0.3, math.nan),
         NormalizationError, "c must be finite, got nan"),
        (states.EcsParams, (2, 1.0, 0.3, math.inf),
         NormalizationError, "c must be finite, got inf"),
        (states.NoonParams, (2, 0, 0.1, 0.99),
         ValueError, "photon_number must be a positive int, got 0"),
        (states.NoonParams, (2, 3, math.sqrt((1.0 + 1e-9) / 2.0), 0.0),
         CoefficientDomainError, "b^2 = 0.5000000005 exceeds the domain cap Gamma = 0.5"),
        (states.NoonParams, (2, 3, 0.5, math.nan),
         NormalizationError, "c must be finite, got nan"),
        (states.EcsParams, (1, 0.0, 1e200, 1.0), DoubleOverflowError,
         "b^2 overflows a double at b = 1e+200, so it cannot be tested against the "
         "domain cap Gamma = inf"),
        # solve_c(1e154, 2, 0.0) = -2e154: b^2 and the cap are fine, the residual's terms overflow
        (states.EcsParams, (2, 0.0, 1e154, -2e154), DoubleOverflowError,
         "c^2 + 2bvc + b^2 u overflows a double at b = 1e+154, c = -2e+154, so the "
         "normalization cannot be tested"),
    ], ids=["c-off-1e-9", "c-off-1e-13", "b-beyond-cap", "c-nan", "c-inf", "noon-zero-photons",
            "noon-b-beyond-cap", "noon-c-nan", "b-squared-overflow-at-vacuum",
            "residual-overflow-at-vacuum"])
    def test_invalid_probe_raises_once(self, monkeypatch, cls, args, error, message):
        calls = self._count(monkeypatch, cls)
        with pytest.raises(error) as info:
            cls(*args)
        assert type(info.value) is error
        assert str(info.value) == message
        assert len(calls) == 1


def test_oracle_norm_on_b_grid():
    # solved c keeps the state normalized across the whole admissible range
    d, alpha_sq = 2, 1.0
    cutoff = oracle.minimal_cutoff(alpha_sq, 1e-13) + 2
    cap = math.sqrt(states.b_domain_limit(d, alpha_sq))
    for b in np.linspace(0.0, cap, 1000, endpoint=False):
        p = states.ecs_params(d, alpha_sq, float(b))
        assert abs(oracle.norm_sq(oracle.build_state(p, cutoff)) - 1.0) < 1e-10
