"""Closed-form precision bounds and the constrained optimization over b.

Every function returns a lower bound on the summed variance (radians^2) of
an unbiased simultaneous estimate of d phases, assuming one experimental
repetition (scale by 1/nu for nu repetitions).  The optimized
entangled-coherent bounds come in two regimes: Interior, where the
unconstrained optimizer b_star is admissible and the bound takes its
headline closed form, and Clamped, where normalizability caps the weight at
b^2 = Gamma and the general trace expression is evaluated there.

The headline closed forms (valid in the Interior regime) are, with
n = photon-number argument,

    coherent, m=1:  d (sqrt d + 1)^2 / (4 (1 + alpha_sq)^2)
    coherent, m=2:  d (sqrt d + 1)^2 / 4 * ((1 + mu)/(mu^3 + 6 mu^2 + 7 mu + 1))^2
    NOON,     m=1:  d (sqrt d + 1)^2 / (4 n^2)
    NOON,     m=2:  d (sqrt d + 1)^2 / (4 n^4)

plus independent-estimation baselines and Bayesian (Ziv-Zakai) bounds for
phases drawn from a wide uniform prior.

The four headline closed forms and :func:`region_classify` broadcast over
their arguments (see ``_arrays``); sweeps call them with arrays.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Mapping
from enum import Enum

from ._arrays import libm, quiet_overflow, scalar, sqrt
from ._domain import check
from ._record import Record, set_field
from .errors import RegionError
from .qfim import trace_inverse_bound, trace_inverse_value
from .states import domain_geometry, ecs_params

__all__ = [
    "BoundKind",
    "Regime",
    "BoundReport",
    "RegionCell",
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
    "region_classify",
    "grid_scan_minimizer",
]

# First-branch constant of the Ziv-Zakai bounds; known only numerically, so
# each zzb result reports it in its params as "lam".
ZIV_ZAKAI_LAMBDA = 0.7246
# b^2 samples of grid_scan_minimizer's scan
_SCAN_POINTS = 10_000


class BoundKind(str, Enum):
    ECS_LINEAR = "ecs-linear"
    ECS_NONLINEAR = "ecs-nonlinear"
    NOON_LINEAR = "noon-linear"
    NOON_NONLINEAR = "noon-nonlinear"
    INDEPENDENT_ECS = "independent-ecs"
    INDEPENDENT_NOON = "independent-noon"
    ZIV_ZAKAI_ECS = "zzb-ecs"
    ZIV_ZAKAI_NOON = "zzb-noon"
    GENERAL_ECS_AT_B = "ecs-at-b"
    ECS_OPTIMAL = "ecs-optimal"


class Regime(str, Enum):
    INTERIOR = "interior"
    CLAMPED = "clamped"
    NOT_APPLICABLE = "n/a"


class BoundReport(Record):
    """A named bound value with the regime it was obtained in and its inputs."""

    __slots__ = ("value", "kind", "regime", "params")

    def __init__(self, value: float, kind: BoundKind, regime: Regime,
                 params: Mapping[str, float]) -> None:
        set_field(self, "value", value)
        set_field(self, "kind", kind)
        set_field(self, "regime", regime)
        set_field(self, "params", params)


class RegionCell(Record):
    """One cell of the attainability partition: is b_star inside the domain?

    Every field but m is an array when region_classify was given arrays.
    """

    __slots__ = ("d", "alpha", "m", "b_star", "sqrt_gamma", "interior")

    def __init__(self, d: int, alpha: float, m: int, b_star: float, sqrt_gamma: float,
                 interior: bool) -> None:
        set_field(self, "d", d)
        set_field(self, "alpha", alpha)
        set_field(self, "m", m)
        set_field(self, "b_star", b_star)
        set_field(self, "sqrt_gamma", sqrt_gamma)
        set_field(self, "interior", interior)


def _headline_scale(d):
    """Common d-scaling of all optimized bounds: d (sqrt d + 1)^2 / 4."""
    return d * libm(pow, sqrt(d) + 1.0, 2) / 4.0


def _ecs_kind(m: int) -> BoundKind:
    if m == 1:
        return BoundKind.ECS_LINEAR
    if m == 2:
        return BoundKind.ECS_NONLINEAR
    return BoundKind.ECS_OPTIMAL


def ecs_linear_value(d, alpha_sq):
    """Interior-regime coherent-probe optimum for m = 1 (raw formula, unchecked)."""
    check(d=d, alpha_sq=alpha_sq)
    return scalar(_headline_scale(d) / libm(pow, 1.0 + alpha_sq, 2))


def ecs_nonlinear_value(d, alpha_sq):
    """Interior-regime coherent-probe optimum for m = 2 (raw formula, unchecked)."""
    check(d=d, alpha_sq=alpha_sq)
    mu = alpha_sq
    with quiet_overflow(mu):
        cubic = ((mu + 6.0) * mu + 7.0) * mu + 1.0  # f(4)/mu
    return scalar(_headline_scale(d) * libm(pow, (1.0 + mu) / cubic, 2))


def noon_linear_value(d, photon_number):
    check(d=d, N=photon_number)
    return scalar(_headline_scale(d) / libm(pow, photon_number, 2))


def noon_nonlinear_value(d, photon_number):
    check(d=d, N=photon_number)
    return scalar(_headline_scale(d) / libm(pow, photon_number, 4))


def minimize_bound_over_b(d: int, m: int, alpha_sq: float) -> BoundReport:
    """Minimum of the total-variance bound over the admissible weight b.

    Interior regime (b_star^2 <= Gamma): value
    d (sqrt d + 1)^2 / 4 * f(m)^2 / f(2m)^2 at b = b_star.  Otherwise the
    minimum sits at the cap, b^2 = Gamma, where qfim.trace_inverse_value is
    evaluated on the moments domain_geometry formed.  Clamping implies
    g > Gamma (d + sqrt d), so that value's b^2 < g/d guard never fires here.
    """
    geom = domain_geometry(d, m, alpha_sq)
    params = {"d": d, "m": m, "alpha_sq": alpha_sq, "b_star": geom.b_star,
              "gamma_cap": geom.gamma_cap, "g": geom.g}
    if geom.interior:
        value = _headline_scale(d) * (geom.f_m / geom.f_2m) ** 2
        return BoundReport(value=value, kind=_ecs_kind(m), regime=Regime.INTERIOR,
                           params={**params, "b_sq_used": geom.b_star ** 2})
    value = trace_inverse_value(d, geom.f_2m, geom.g, geom.gamma_cap)
    return BoundReport(value=value, kind=_ecs_kind(m), regime=Regime.CLAMPED,
                       params={**params, "b_sq_used": geom.gamma_cap})


def qcrb_ecs_linear(d: int, alpha_sq: float) -> BoundReport:
    """Linear-protocol coherent-probe optimum, valid only in the Interior regime.

    Raises RegionError when b_star is beyond the domain cap; use
    :func:`minimize_bound_over_b` there for the clamped optimum.
    """
    return _checked_ecs(d, 1, alpha_sq, ecs_linear_value(d, alpha_sq))


def qcrb_ecs_nonlinear(d: int, alpha_sq: float) -> BoundReport:
    """Quadratic-generator coherent-probe optimum; Interior regime only."""
    return _checked_ecs(d, 2, alpha_sq, ecs_nonlinear_value(d, alpha_sq))


def _checked_ecs(d: int, m: int, alpha_sq: float, value: float) -> BoundReport:
    geom = domain_geometry(d, m, alpha_sq)
    if not geom.interior:
        raise RegionError(
            f"b_star = {geom.b_star:.6g} exceeds sqrt(Gamma) = "
            f"{math.sqrt(geom.gamma_cap):.6g} at d={d}, m={m}, alpha_sq={alpha_sq}; "
            "use minimize_bound_over_b for the clamped optimum")
    return BoundReport(value=value, kind=_ecs_kind(m), regime=Regime.INTERIOR,
                       params={"d": d, "m": m, "alpha_sq": alpha_sq,
                               "b_star": geom.b_star, "gamma_cap": geom.gamma_cap,
                               "b_sq_used": geom.b_star ** 2})


def qcrb_ecs_at_b(d: int, m: int, alpha_sq: float, b: float) -> BoundReport:
    """The coherent-probe bound Tr(F^-1) at a given weight b, not optimized over b."""
    return BoundReport(value=trace_inverse_bound(ecs_params(d, alpha_sq, b, m)),
                       kind=BoundKind.GENERAL_ECS_AT_B, regime=Regime.NOT_APPLICABLE,
                       params={"d": d, "m": m, "alpha_sq": alpha_sq, "b": b})


def qcrb_noon_linear(d: int, photon_number: float) -> BoundReport:
    """NOON-probe optimum for m = 1, at the optimal b = 1/sqrt(d + sqrt d)."""
    return BoundReport(value=noon_linear_value(d, photon_number),
                       kind=BoundKind.NOON_LINEAR, regime=Regime.INTERIOR,
                       params={"d": d, "m": 1, "photon_number": photon_number})


def qcrb_noon_nonlinear(d: int, photon_number: float) -> BoundReport:
    """NOON-probe optimum for m = 2, at the same optimal b."""
    return BoundReport(value=noon_nonlinear_value(d, photon_number),
                       kind=BoundKind.NOON_NONLINEAR, regime=Regime.INTERIOR,
                       params={"d": d, "m": 2, "photon_number": photon_number})


def _two_mode_ecs_norm_sq(alpha_sq: float) -> float:
    """Squared normalization 1/(2(1 + e^{-alpha_sq})) of one two-mode coherent probe."""
    check(alpha_sq=alpha_sq)
    return 1.0 / (2.0 * (1.0 + math.exp(-alpha_sq)))


def independent_ecs_total_photons(d: int, alpha_sq: float) -> float:
    """Mean total photons across d independent two-mode probes: 2 d N^2 alpha_sq."""
    check(d=d)
    return 2.0 * d * _two_mode_ecs_norm_sq(alpha_sq) * alpha_sq


def qcrb_independent_ecs(d: int, alpha_sq: float) -> BoundReport:
    """d separate two-mode coherent probes, one phase each.

    d times the single-probe variance 1/(4 N^2 alpha_sq [1 + alpha_sq (1 - N^2)]).
    """
    check(d=d)
    n_sq = _two_mode_ecs_norm_sq(alpha_sq)
    single = 1.0 / (4.0 * n_sq * alpha_sq * (1.0 + alpha_sq * (1.0 - n_sq)))
    return BoundReport(value=d * single, kind=BoundKind.INDEPENDENT_ECS,
                       regime=Regime.NOT_APPLICABLE,
                       params={"d": d, "alpha_sq": alpha_sq,
                               "n_tot": independent_ecs_total_photons(d, alpha_sq)})


def _independent_alpha_sq(d: int, n_tot: float) -> float:
    """Root of h(x) = d x / (1 + e^{-x}) = n_tot by safeguarded Newton-bisection.

    h is increasing with d x / 2 <= h(x) <= d x, which gives the bracket, and
    h'(x) = d (1 + e^{-x} (1 + x)) / (1 + e^{-x})^2.  A Newton step that
    would leave the bracket is replaced by bisection.  Each new iterate lies
    strictly inside the bracket and then becomes one of its ends, so the loop
    ends: when the step no longer moves x, or when the bracket is two
    adjacent doubles.  Returns the iterate of smallest residual.
    """
    lo = n_tot / (2.0 * d)
    hi = min(2.0 * n_tot / d + 1.0, sys.float_info.max)
    x = hi
    best, best_res = x, math.inf
    while True:
        e = math.exp(-x)
        res = d * x / (1.0 + e) - n_tot
        if abs(res) < best_res:
            best, best_res = x, abs(res)
        if res == 0.0:
            return x
        if res > 0.0:
            hi = x
        else:
            lo = x
        x_new = x - res * (1.0 + e) ** 2 / (d * (1.0 + e * (1.0 + x)))
        if x_new == x:
            return best
        if not lo < x_new < hi:
            x_new = 0.5 * lo + 0.5 * hi  # lo + hi may overflow
            if not lo < x_new < hi:
                return best
        x = x_new


def independent_ecs_vs_ntot(d: int, n_tot: float) -> BoundReport:
    """Independent-probe baseline parameterized by the mean total photon number.

    Inverts n_tot = 2 d N^2(alpha) alpha_sq (strictly increasing in alpha_sq)
    for the per-probe intensity and evaluates
    d^3 / (n_tot [2 d + n_tot (N^{-2} - 1)]); for matched arguments this
    agrees with :func:`qcrb_independent_ecs` to rounding.
    """
    check(d=d, n_tot=n_tot)
    alpha_sq = _independent_alpha_sq(d, n_tot)
    inv_n_sq = 2.0 * (1.0 + math.exp(-alpha_sq))
    value = d ** 3 / (n_tot * (2.0 * d + n_tot * (inv_n_sq - 1.0)))
    return BoundReport(value=value, kind=BoundKind.INDEPENDENT_ECS,
                       regime=Regime.NOT_APPLICABLE,
                       params={"d": d, "n_tot": n_tot, "alpha_sq": alpha_sq})


def qcrb_independent_noon(d: int, n_tot: float) -> BoundReport:
    """d separate two-mode NOON probes sharing n_tot photons: d^3 / n_tot^2."""
    check(d=d, n_tot=n_tot)
    return BoundReport(value=d ** 3 / n_tot ** 2, kind=BoundKind.INDEPENDENT_NOON,
                       regime=Regime.NOT_APPLICABLE, params={"d": d, "n_tot": n_tot})


def _zzb_branches(d: int, photon_sq: float) -> tuple[float, float]:
    s = d + math.sqrt(d)
    core = d * s * s / photon_sq
    first = core / (80.0 * ZIV_ZAKAI_LAMBDA * ZIV_ZAKAI_LAMBDA)
    second = (math.pi ** 2 / 16.0 - 0.5) * core / (s - 1.0)
    return first, second


def zzb_noon(d: int, photon_number: float) -> BoundReport:
    """Bayesian bound for the NOON probe under a wide uniform prior.

    The exact maximum of two branches,

        d (d + sqrt d)^2 / (80 lam^2 N^2)   and
        (pi^2/16 - 1/2) d (d + sqrt d)^2 / ((d + sqrt d - 1) N^2),

    with lam = ZIV_ZAKAI_LAMBDA and no smoothing; the first dominates for
    large d (d >= 4).
    """
    check(d=d, N=photon_number)
    first, second = _zzb_branches(d, float(photon_number) ** 2)
    return BoundReport(value=max(first, second), kind=BoundKind.ZIV_ZAKAI_NOON,
                       regime=Regime.NOT_APPLICABLE,
                       params={"d": d, "photon_number": photon_number, "lam": ZIV_ZAKAI_LAMBDA,
                               "branch_first": first, "branch_second": second})


def zzb_ecs(d: int, alpha_sq: float) -> BoundReport:
    """Bayesian bound for the coherent probe: the NOON form with N^2 -> (alpha_sq + 1)^2."""
    check(d=d, alpha_sq=alpha_sq)
    first, second = _zzb_branches(d, (alpha_sq + 1.0) ** 2)
    return BoundReport(value=max(first, second), kind=BoundKind.ZIV_ZAKAI_ECS,
                       regime=Regime.NOT_APPLICABLE,
                       params={"d": d, "alpha_sq": alpha_sq, "lam": ZIV_ZAKAI_LAMBDA,
                               "branch_first": first, "branch_second": second})


def region_classify(d, alpha, m: int) -> RegionCell:
    """Classify whether the unconstrained optimizer is attainable at (d, alpha, m).

    d and alpha broadcast against each other.
    """
    check(alpha=alpha)
    with quiet_overflow(alpha):
        alpha_sq = alpha * alpha  # an overflow to inf is rejected by domain_geometry
    geom = domain_geometry(d, m, alpha_sq)
    return RegionCell(d=d, alpha=alpha, m=m, b_star=geom.b_star,
                      sqrt_gamma=scalar(sqrt(geom.gamma_cap)), interior=geom.interior)


def grid_scan_minimizer(d: int, m: int, alpha_sq: float) -> BoundReport:
    """Brute-force verification of the closed-form optimum.

    Scans 10^4 values of b^2 uniformly over (0, min(Gamma, g/d)], including
    the endpoint only when the normalizability cap is the binding constraint
    (the bound diverges at b^2 = g/d, so that endpoint stays open), and
    returns the smallest trace bound found.  Matches :func:`minimize_bound_over_b`
    within the grid resolution.
    """
    import numpy as np

    geom = domain_geometry(d, m, alpha_sq)
    pole = geom.g / d
    hi = min(geom.gamma_cap, pole)
    beta = np.linspace(0.0, hi, _SCAN_POINTS + 1)[1:]
    if pole <= geom.gamma_cap:
        beta = beta[:-1]
    values = trace_inverse_value(d, geom.f_2m, geom.g, beta)
    i = int(np.argmin(values))
    at_cap = geom.gamma_cap < pole and i == len(beta) - 1
    return BoundReport(value=float(values[i]), kind=BoundKind.GENERAL_ECS_AT_B,
                       regime=Regime.CLAMPED if at_cap else Regime.INTERIOR,
                       params={"d": d, "m": m, "alpha_sq": alpha_sq,
                               "b_sq_used": float(beta[i]), "grid_points": _SCAN_POINTS})
