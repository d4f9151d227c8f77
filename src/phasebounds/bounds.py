"""Closed-form precision bounds and the constrained optimization over b.

Every function returns a lower bound on the summed variance (radians^2) of
an unbiased simultaneous estimate of d phases, assuming one experimental
repetition (scale by 1/nu for nu repetitions).  The optimized
entangled-coherent bounds come in two regimes: Interior, where the
unconstrained optimizer b_star is admissible and the bound takes its
headline form, and Clamped, where normalizability caps the weight at
b^2 = Gamma and the general trace expression is evaluated there.

The headline form is one expression, ``_headline``: d (sqrt d + 1)^2 / (4 g f(2m)),
at the coherent moment pair (f(2m), g) (m = 1: d (sqrt d + 1)^2 / (4 (1 + alpha_sq)^2))
or at NOON's pair (N^{2m}, 1).  Every headline value and report calls it.
A report's kind is the name of the CLI family that prints it ("ecs-linear", ...).
Plus independent-estimation baselines and Bayesian (Ziv-Zakai) bounds for
phases drawn from a wide uniform prior.

The four headline values broadcast over their arguments (see ``_arrays``);
sweeps call them with arrays.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from enum import Enum

from ._arrays import frexp, ldexp, libm, scalar, sqrt
from ._domain import check
from ._record import Record, set_field
from .errors import RegionError
from .moments import coherent_moments, noon_moments
from .qfim import trace_inverse_bound, trace_inverse_value
from .states import domain_geometry, ecs_params

__all__ = [
    "Regime",
    "BoundReport",
    "ZIV_ZAKAI_LAMBDA",
    "ecs_linear_value",
    "ecs_nonlinear_value",
    "noon_linear_value",
    "noon_nonlinear_value",
    "minimize_bound_over_b",
    "qcrb_ecs_linear",
    "qcrb_ecs_nonlinear",
    "qcrb_ecs_at_b",
    "qcrb_noon_linear",
    "qcrb_noon_nonlinear",
    "independent_ecs_total_photons",
    "qcrb_independent_ecs",
    "independent_ecs_vs_ntot",
    "qcrb_independent_noon",
    "zzb_noon",
    "zzb_ecs",
]

# First-branch constant of the Ziv-Zakai bounds; known only numerically, so
# each zzb result reports it in its params as "lam".
ZIV_ZAKAI_LAMBDA = 0.7246


class Regime(str, Enum):
    INTERIOR = "interior"
    CLAMPED = "clamped"
    NOT_APPLICABLE = "n/a"


class BoundReport(Record):
    """A bound value with its family name, the regime it was obtained in and its inputs."""

    __slots__ = ("value", "kind", "regime", "params")

    def __init__(self, value: float, kind: str, regime: Regime,
                 params: Mapping[str, float]) -> None:
        set_field(self, "value", value)
        set_field(self, "kind", kind)
        set_field(self, "regime", regime)
        set_field(self, "params", params)


def _headline(d, moments):
    """The interior optimum d (sqrt d + 1)^2 / (4 g f(2m)): Tr(F^{-1}) at b_star."""
    f_2m, g = moments
    return scalar(d * libm(pow, sqrt(d) + 1.0, 2) / 4.0 / (g * f_2m))


def _ecs_kind(m: int) -> str:
    return {1: "ecs-linear", 2: "ecs-nonlinear"}.get(m, "ecs-optimal")


def ecs_linear_value(d, alpha_sq):
    """Interior-regime coherent-probe optimum for m = 1 (regime unchecked)."""
    check(d=d, alpha_sq=alpha_sq)
    return _headline(d, coherent_moments(1, alpha_sq))


def ecs_nonlinear_value(d, alpha_sq):
    """Interior-regime coherent-probe optimum for m = 2 (regime unchecked)."""
    check(d=d, alpha_sq=alpha_sq)
    return _headline(d, coherent_moments(2, alpha_sq))


def _power_scaled(value_at, x, p: int):
    """value_at(x) for a bound of the form C / x^p.

    Only where that raises OverflowError (for an array, in any element) is
    x written as M 2^k with M in [1, 2), and the bound is value_at(M) 2^{-pk}:
    the same arithmetic, scaled by a power of two that is exact in the normal
    range and rounds once below it (0.0 where the bound underflows).
    """
    try:
        return value_at(x)
    except OverflowError:
        half, exponent = frexp(x)
        return scalar(ldexp(value_at(2.0 * half), p * (1 - exponent)))


def _noon_value(d, m: int, photon_number):
    """The headline value at NOON's moment pair (N^{2m}, 1), power-scaled in N^{2m}."""
    check(d=d, N=photon_number)
    return _power_scaled(lambda n: _headline(d, noon_moments(m, n)), photon_number, 2 * m)


def noon_linear_value(d, photon_number):
    return _noon_value(d, 1, photon_number)


def noon_nonlinear_value(d, photon_number):
    return _noon_value(d, 2, photon_number)


def minimize_bound_over_b(d: int, m: int, alpha_sq: float) -> BoundReport:
    """Minimum of the total-variance bound over the admissible weight b.

    Interior regime (b_star^2 <= Gamma): the headline value at b = b_star.
    Otherwise the minimum sits at the cap, b^2 = Gamma, where
    qfim.trace_inverse_value is evaluated on the moment pair domain_geometry
    formed.  Clamping implies g > Gamma (d + sqrt d), so that value's
    b^2 < g/d guard never fires here.
    """
    geom = domain_geometry(d, m, alpha_sq)
    params = {"d": d, "m": m, "alpha_sq": alpha_sq, "b_star": geom.b_star,
              "gamma_cap": geom.gamma_cap, "g": geom.g}
    if geom.interior:
        return BoundReport(value=_headline(d, (geom.f_2m, geom.g)),
                           kind=_ecs_kind(m), regime=Regime.INTERIOR,
                           params={**params, "b_sq_used": geom.b_star ** 2})
    value = trace_inverse_value(d, geom.f_2m, geom.g, geom.gamma_cap)
    return BoundReport(value=value, kind=_ecs_kind(m), regime=Regime.CLAMPED,
                       params={**params, "b_sq_used": geom.gamma_cap})


def qcrb_ecs_linear(d: int, alpha_sq: float) -> BoundReport:
    """Linear-protocol coherent-probe optimum, valid only in the Interior regime.

    Raises RegionError when b_star is beyond the domain cap; use
    :func:`minimize_bound_over_b` there for the clamped optimum.
    """
    return _checked_ecs(d, 1, alpha_sq)


def qcrb_ecs_nonlinear(d: int, alpha_sq: float) -> BoundReport:
    """Quadratic-generator coherent-probe optimum; Interior regime only."""
    return _checked_ecs(d, 2, alpha_sq)


def _checked_ecs(d: int, m: int, alpha_sq: float) -> BoundReport:
    """The interior report of minimize_bound_over_b, without its g param."""
    check(d=d, alpha_sq=alpha_sq)
    report = minimize_bound_over_b(d, m, alpha_sq)
    params = {k: v for k, v in report.params.items() if k != "g"}
    if report.regime is Regime.CLAMPED:
        raise RegionError(
            f"b_star = {params['b_star']:.6g} exceeds sqrt(Gamma) = "
            f"{math.sqrt(params['gamma_cap']):.6g} at d={d}, m={m}, alpha_sq={alpha_sq}; "
            "use minimize_bound_over_b for the clamped optimum")
    return BoundReport(value=report.value, kind=report.kind, regime=report.regime,
                       params=params)


def qcrb_ecs_at_b(d: int, m: int, alpha_sq: float, b: float) -> BoundReport:
    """The coherent-probe bound Tr(F^-1) at a given weight b, not optimized over b."""
    return BoundReport(value=trace_inverse_bound(ecs_params(d, alpha_sq, b, m)),
                       kind="ecs-at-b", regime=Regime.NOT_APPLICABLE,
                       params={"d": d, "m": m, "alpha_sq": alpha_sq, "b": b})


def qcrb_noon_linear(d: int, photon_number: float) -> BoundReport:
    """NOON-probe optimum for m = 1, at the optimal b = 1/sqrt(d + sqrt d)."""
    return BoundReport(value=noon_linear_value(d, photon_number),
                       kind="noon-linear", regime=Regime.INTERIOR,
                       params={"d": d, "m": 1, "photon_number": photon_number})


def qcrb_noon_nonlinear(d: int, photon_number: float) -> BoundReport:
    """NOON-probe optimum for m = 2, at the same optimal b."""
    return BoundReport(value=noon_nonlinear_value(d, photon_number),
                       kind="noon-nonlinear", regime=Regime.INTERIOR,
                       params={"d": d, "m": 2, "photon_number": photon_number})


def _two_mode_ecs_norm_sq(alpha_sq: float) -> float:
    """Squared normalization 1/(2(1 + e^{-alpha_sq})) of one two-mode coherent probe."""
    return 1.0 / (2.0 * (1.0 + math.exp(-alpha_sq)))


def independent_ecs_total_photons(d: int, alpha_sq: float) -> float:
    """Mean total photons across d independent two-mode probes: 2 d N^2 alpha_sq."""
    check(d=d, alpha_sq=alpha_sq)
    return 2.0 * d * _two_mode_ecs_norm_sq(alpha_sq) * alpha_sq


def _independent_ecs(d: int, alpha_sq: float, n_tot: float) -> BoundReport:
    """d times the single-probe variance 1/(4 N^2 alpha_sq [1 + alpha_sq (1 - N^2)]).

    Dividing d by alpha_sq first keeps every intermediate at or below the
    bound's own scale, so the value is a double wherever the bound is.
    """
    n_sq = _two_mode_ecs_norm_sq(alpha_sq)
    value = d / alpha_sq / (4.0 * n_sq * (1.0 + alpha_sq * (1.0 - n_sq)))
    return BoundReport(value=value, kind="independent-ecs", regime=Regime.NOT_APPLICABLE,
                       params={"d": d, "alpha_sq": alpha_sq, "n_tot": n_tot})


def qcrb_independent_ecs(d: int, alpha_sq: float) -> BoundReport:
    """d separate two-mode coherent probes, one phase each, at per-probe alpha_sq."""
    return _independent_ecs(d, alpha_sq, independent_ecs_total_photons(d, alpha_sq))


def _independent_alpha_sq(d: int, n_tot: float) -> float:
    """Root of d x / (1 + e^{-x}) = n_tot by Newton on F(x) = x - y (1 + e^{-x}), y = n_tot / d.

    F' = 1 + y e^{-x} >= 1 and F'' = -y e^{-x} < 0, and the start x = y has
    F(y) = -y e^{-y} <= 0, so Newton rises monotonically to the root x* in
    [y, 2y] (Fourier's condition); the loop ends at the first iterate that
    does not increase.  The relative error is at most 1/2 at the start and
    at most y^2 e^{-y} <= 4/e^2 times its square after each step, so five
    steps reach rounding level and the root costs about six exp calls at
    any n_tot.  d x is never formed, so nothing overflows near DBL_MAX.
    """
    y = n_tot / d
    x = y
    while True:
        e = math.exp(-x)
        x_new = x - (x - y * (1.0 + e)) / (1.0 + y * e)
        if not x_new > x:
            return x
        x = x_new


def independent_ecs_vs_ntot(d: int, n_tot: float) -> BoundReport:
    """Independent-probe baseline parameterized by the mean total photon number.

    Solves n_tot = 2 d N^2(alpha) alpha_sq (strictly increasing in alpha_sq)
    for the per-probe intensity and reports :func:`qcrb_independent_ecs`'s
    value there, with the given n_tot.
    """
    check(d=d, n_tot=n_tot)
    return _independent_ecs(d, _independent_alpha_sq(d, n_tot), n_tot)


def qcrb_independent_noon(d: int, n_tot: float) -> BoundReport:
    """d separate two-mode NOON probes sharing n_tot photons: d^3 / n_tot^2, power-scaled."""
    check(d=d, n_tot=n_tot)
    return BoundReport(value=_power_scaled(lambda n: d ** 3 / n ** 2, n_tot, 2),
                       kind="independent-noon", regime=Regime.NOT_APPLICABLE,
                       params={"d": d, "n_tot": n_tot})


def _zzb(kind: str, d: int, photon: float, params: dict) -> BoundReport:
    """The exact maximum of two branches, with N = photon,

        d (d + sqrt d)^2 / (80 lam^2 N^2)   and
        (pi^2/16 - 1/2) d (d + sqrt d)^2 / ((d + sqrt d - 1) N^2),

    with lam = ZIV_ZAKAI_LAMBDA and no smoothing; the first dominates for
    large d (d >= 4).  Each branch is power-scaled in N^2 on its own, so
    each rounds once below the normal range.
    """
    s = d + math.sqrt(d)
    first = _power_scaled(
        lambda n: d * s * s / n ** 2 / (80.0 * ZIV_ZAKAI_LAMBDA * ZIV_ZAKAI_LAMBDA), photon, 2)
    second = _power_scaled(
        lambda n: (math.pi ** 2 / 16.0 - 0.5) * (d * s * s / n ** 2) / (s - 1.0), photon, 2)
    return BoundReport(value=max(first, second), kind=kind, regime=Regime.NOT_APPLICABLE,
                       params={"d": d, **params, "lam": ZIV_ZAKAI_LAMBDA,
                               "branch_first": first, "branch_second": second})


def zzb_noon(d: int, photon_number: float) -> BoundReport:
    """Bayesian bound for the NOON probe under a wide uniform prior (see _zzb)."""
    check(d=d, N=photon_number)
    return _zzb("zzb-noon", d, float(photon_number),
                {"photon_number": photon_number})


def zzb_ecs(d: int, alpha_sq: float) -> BoundReport:
    """Bayesian bound for the coherent probe: the NOON form with N -> alpha_sq + 1."""
    check(d=d, alpha_sq=alpha_sq)
    return _zzb("zzb-ecs", d, alpha_sq + 1.0, {"alpha_sq": alpha_sq})

