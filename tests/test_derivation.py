"""The core closed forms derived symbolically, then compared with the package.

The photon-number moments f(k) come from the Poisson moment generating function,
so the Stirling code is not its own reference.  The information matrix of either
probe is gamma (I + omega J) with gamma = 4 b^2 f(2m) and omega = -b^2/g, and
g = f(2m)/f(m)^2.  From it follow, for every d: Tr(F^-1) by Sherman-Morrison, the
stationary weight b_star^2 = g/(d + sqrt d), and the headline d (sqrt d + 1)^2 /
(4 g f(2m)).  The derived expressions are then evaluated to 50 digits at a few
dyadic (d, m, mu) in the interior regime and set against the package's doubles.

Writing s = sqrt d as a positive symbol, with d = s^2, keeps every square root
exact.  Nothing under ``src`` imports SymPy.
"""

import math

import pytest
import sympy as sp

from phasebounds import bounds, moments, qfim, states

mu, t, g, f_2m, beta, gamma, omega = sp.symbols("mu t g f_2m beta gamma omega", positive=True)
s = sp.Symbol("s", positive=True)  # sqrt d
d = s ** 2


def poisson_moment(k: int) -> sp.Expr:
    """<n^k> of a coherent state with |alpha|^2 = mu, from its MGF exp(mu (e^t - 1))."""
    return sp.expand(sp.diff(sp.exp(mu * (sp.exp(t) - 1)), t, k).subs(t, 0))


def trace_inverse(dim) -> sp.Expr:
    """``qfim.trace_inverse_value``'s form: d/(4 f(2m)) (1/b^2 + 1/(g - b^2 d))."""
    return dim / (4 * f_2m) * (1 / beta + 1 / (g - beta * dim))


SENSING = {gamma: 4 * beta * f_2m, omega: -beta / g}
B_STAR_SQ = g / (d + s)
HEADLINE = d * (s + 1) ** 2 / (4 * g * f_2m)


@pytest.mark.parametrize("k", range(9))
def test_moment_generating_function_gives_the_stirling_sum(k):
    stirling = sum(moments.stirling2(k, j) * mu ** j for j in range(k + 1))
    assert sp.expand(poisson_moment(k) - stirling) == 0


def test_sherman_morrison_trace_is_the_trace_inverse_form():
    sherman_morrison = d / gamma * (1 - omega / (1 + omega * d))
    assert sp.simplify(sherman_morrison.subs(SENSING) - trace_inverse(d)) == 0


@pytest.mark.parametrize("dim", range(1, 6))
def test_explicit_inverse_has_the_trace_inverse_form(dim):
    structured = gamma * (sp.eye(dim) + omega * sp.ones(dim, dim))
    trace = structured.inv().trace().subs(SENSING)
    assert sp.cancel(trace - trace_inverse(dim)) == 0


def test_the_one_stationary_weight_below_the_pole_gives_the_headline():
    slope = sp.diff(trace_inverse(d), beta)
    numerator = sp.numer(sp.together(slope))
    assert sp.degree(numerator, beta) == 2
    above = g / (d - s)
    for root in (B_STAR_SQ, above):
        assert sp.simplify(numerator.subs(beta, root)) == 0
    pole = g / d
    assert sp.simplify(pole - B_STAR_SQ).is_positive
    # for d > 1 the second root lies beyond the pole, outside the domain b^2 < g/d
    e = sp.Symbol("e", positive=True)
    assert sp.factor(sp.simplify((above - pole).subs(s, 1 + e))).is_positive
    assert sp.simplify(trace_inverse(d).subs(beta, B_STAR_SQ) - HEADLINE) == 0


def test_linear_optimal_weight_is_the_07c_form():
    g_linear = sp.simplify(poisson_moment(2) / poisson_moment(1) ** 2)
    assert sp.simplify(g_linear - (1 + mu) / mu) == 0
    b_star = sp.sqrt(B_STAR_SQ.subs(g, g_linear))
    assert sp.simplify(b_star - sp.sqrt(1 + 1 / mu) / sp.sqrt(d + s)) == 0


# (d, m, mu): dyadic, each in the interior regime b_star^2 <= Gamma
POINTS = [(2, 1, 6.25), (3, 1, 9.5), (5, 1, 16.0), (8, 1, 12.0),
          (2, 2, 6.25), (3, 2, 9.5), (5, 2, 16.0), (8, 2, 12.0)]
WORST_ULP = 1.5  # measured worst: 1.39 ulp, Tr(F^-1) at d = 3, m = 1


def _ulps(value: float, exact: sp.Expr) -> float:
    reference = sp.Float(exact.evalf(50), 50)
    return float(abs(sp.Float(value, 50) - reference) / math.ulp(float(reference)))


def _exact(dim: int, m: int, mean: float) -> dict:
    """sqrt d, f(2m) and g at (d, m, mu), exactly."""
    f_m, f_twice = (poisson_moment(k).subs(mu, sp.Rational(mean)) for k in (m, 2 * m))
    return {s: sp.sqrt(dim), f_2m: f_twice, g: f_twice / f_m ** 2}


@pytest.mark.parametrize("dim,m,mean", POINTS)
def test_package_doubles_are_within_a_few_ulp_of_the_derived_values(dim, m, mean):
    geom = states.domain_geometry(dim, m, mean)
    assert geom.interior
    at = _exact(dim, m, mean)
    b_sq = geom.b_star ** 2
    errors = [_ulps(geom.b_star, sp.sqrt(B_STAR_SQ.subs(at))),
              _ulps(bounds.minimize_bound_over_b(dim, m, mean).value, HEADLINE.subs(at)),
              _ulps(qfim.trace_inverse_value(dim, geom.f_2m, geom.g, b_sq),
                    trace_inverse(dim).subs({**at, beta: sp.Rational(b_sq)}))]
    assert max(errors) <= WORST_ULP, errors
