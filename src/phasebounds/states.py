"""Probe-state parameterizations for multimode phase estimation.

Two probe families over d sensing modes plus one reference mode (mode 0):
an entangled coherent probe, with a coherent branch on each sensing mode
and one on the reference, and the analogous NOON probe with Fock branches.
Coherent branches overlap, so the normalization constraint is quadratic in
the branch coefficients and caps the sensing weight b^2 at a finite limit
Gamma = 1/(u - v^2).  NOON branches are orthogonal and the constraint is
simply d b^2 + c^2 = 1.

By convention b is real and nonnegative: the bounds depend only on |b|^2,
and the global phase can always be chosen to make c real, so nothing is
lost and the normalization quadratic stays real.

Probes are validated on construction, in EcsParams and NoonParams, so code
holding a probe never checks it again.  ``overlaps`` is the one place the
sums u, v and u - v^2 are formed, and ``domain_geometry`` the one pass
forming Gamma, f(m), f(2m), g and b_star.

The coherent-probe functions broadcast over d, alpha_sq and b (see
``_arrays``): a sweep passes arrays, a scalar call gets Python types back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._arrays import all_true, clip_negative, first_failing, libm, quiet_overflow, scalar, sqrt
from ._domain import check
from .errors import CoefficientDomainError, DegenerateInputError, NormalizationError
from .moments import coherent_moments

__all__ = [
    "EcsParams",
    "NoonParams",
    "DomainGeometry",
    "overlaps",
    "solve_c",
    "b_domain_limit",
    "b_star",
    "domain_geometry",
    "mean_total_photons",
    "noon_optimal_b",
    "ecs_params",
    "noon_params",
]

NORMALIZATION_ATOL = 1e-12
DOMAIN_ATOL = 1e-12


@dataclass(frozen=True)
class EcsParams:
    """Entangled coherent probe: b sum_j |alpha>_j + c |alpha>_0.

    d sensing modes, coherent intensity alpha_sq = |alpha|^2, sensing-branch
    coefficient b (real, >= 0), reference coefficient c, and generator order
    m for the per-mode phase generator (a^dag a)^m.  d, alpha_sq, b and c
    may be arrays that broadcast together, one probe per element.
    """

    d: int
    alpha_sq: float
    b: float
    c: float
    m: int = 1

    def __post_init__(self) -> None:
        """Raise naming the violated invariant: b^2 under the cap, then normalization."""
        check(m=self.m, b=self.b, c=self.c)
        b, c = self.b, self.c
        u, v, denom = overlaps(self.d, self.alpha_sq)
        # domain first: an out-of-cap b cannot be normalized by any choice of c.
        # At alpha_sq = 0 the cap 1/(u - v^2) is undefined and b is unconstrained;
        # u - v^2 = 0 is replaced by 1 there and the element passes.
        vacuum = self.alpha_sq == 0.0
        gamma_cap = 1.0 / (denom + vacuum)
        ok = vacuum | (b * b <= gamma_cap + DOMAIN_ATOL)
        if not all_true(ok):
            raise CoefficientDomainError(
                f"b^2 = {first_failing(b * b, ok):.12g} exceeds the domain cap "
                f"Gamma = {first_failing(gamma_cap, ok):.12g}")
        residual = c * c + 2.0 * b * v * c + b * b * u - 1.0
        ok = abs(residual) <= NORMALIZATION_ATOL
        if not all_true(ok):
            raise NormalizationError(
                f"normalization violated: c^2 + 2bvc + b^2 u - 1 = "
                f"{first_failing(residual, ok):.3e} exceeds {NORMALIZATION_ATOL}")


@dataclass(frozen=True)
class NoonParams:
    """NOON probe: b sum_j |N>_j + c |N>_0 with orthogonal Fock branches."""

    d: int
    photon_number: int
    b: float
    c: float
    m: int = 1

    def __post_init__(self) -> None:
        """Raise naming the violated invariant: the ranges, then d b^2 + c^2 = 1."""
        check(d=self.d, m=self.m, photon_number=self.photon_number, b=self.b)
        residual = self.d * self.b * self.b + self.c * self.c - 1.0
        if abs(residual) > NORMALIZATION_ATOL:
            raise NormalizationError(
                f"NOON normalization violated: d b^2 + c^2 - 1 = {residual:.3e} "
                f"exceeds {NORMALIZATION_ATOL}")


@dataclass(frozen=True)
class DomainGeometry:
    """Geometry of the sensing weight b^2: its cap, the unconstrained optimizer
    of the variance bound, the moments f(m), f(2m) and their ratio g, and whether
    the optimizer falls inside the cap (arrays when the inputs were)."""

    gamma_cap: float
    b_star: float
    g: float
    interior: bool
    f_m: float
    f_2m: float


def overlaps(d, alpha_sq):
    """Overlap sums of the normalization quadratic: (u, v, u - v^2).

    u = d + d(d-1) e^{-alpha_sq} collects the sensing-branch mutual overlaps
    and v = d e^{-alpha_sq} the sensing-reference overlaps; u >= v > 0 for
    finite alpha_sq.  u - v^2 takes the cancellation-free form
    d (1 - x)(1 + d x), x = e^{-alpha_sq}, with 1 - x = -expm1(-alpha_sq):
    the direct difference loses precision at small alpha_sq.
    """
    check(d=d, mu=alpha_sq)
    x = libm(math.exp, -alpha_sq)
    return d + d * (d - 1) * x, d * x, d * -libm(math.expm1, -alpha_sq) * (1.0 + d * x)


def solve_c(b, d, alpha_sq):
    """Reference coefficient normalizing the probe at the given b.

    Solves c^2 + 2 b v c + b^2 u - 1 = 0 for c and returns the larger root,
    the one continuously connected to c = 1 at b = 0.

    Raises
    ------
    CoefficientDomainError
        If b^2 exceeds the cap Gamma, i.e. the discriminant is negative and
        no real c exists.
    """
    check(b=b)
    _, v, denom = overlaps(d, alpha_sq)
    disc = 1.0 - b * b * denom
    ok = disc >= -DOMAIN_ATOL
    if not all_true(ok):
        raise CoefficientDomainError(
            f"b^2 = {first_failing(b * b, ok):.12g} is not normalizable: discriminant "
            f"{first_failing(disc, ok):.3e} < 0 "
            f"(cap Gamma = {1.0 / first_failing(denom, ok):.12g})")
    root = sqrt(clip_negative(disc))
    return scalar(-b * v + root)


def b_domain_limit(d, alpha_sq):
    """Largest admissible sensing weight, Gamma = 1/(u - v^2).

    At alpha_sq = 0 every branch collapses to vacuum and u - v^2 vanishes;
    that input is rejected rather than assigned a limit value.
    """
    _, _, denom = overlaps(d, alpha_sq)
    ok = denom > 0.0
    if not all_true(ok):
        raise DegenerateInputError(
            f"b-domain cap undefined: u - v^2 = {first_failing(denom, ok):.3e} <= 0 at "
            f"alpha_sq={first_failing(alpha_sq, ok)} "
            "(vacuum probe carries no phase information)")
    with quiet_overflow(denom):  # inf, as for a float, when denom < 1/DBL_MAX
        return 1.0 / denom


def b_star(d, m: int, alpha_sq):
    """Unconstrained optimizer of the variance bound: sqrt(g / (sqrt d + d)).

    g = f(2m)/f(m)^2 tends to 1 for large alpha_sq, where b_star approaches
    the orthogonal-branch value 1/sqrt(d + sqrt d).
    """
    check(d=d, m=m, alpha_sq=alpha_sq)
    return domain_geometry(d, m, alpha_sq).b_star


def domain_geometry(d, m: int, alpha_sq) -> DomainGeometry:
    """Cap, moments, optimizer and regime flag in one record, broadcast over d and alpha_sq."""
    gamma_cap = b_domain_limit(d, alpha_sq)
    check(m=m, alpha_sq=alpha_sq)
    f_m, f_2m, g = coherent_moments(m, alpha_sq)
    bs = sqrt(g / (sqrt(d) + d))
    return DomainGeometry(gamma_cap=gamma_cap, b_star=scalar(bs), g=g,
                          interior=scalar(bs * bs <= gamma_cap), f_m=f_m, f_2m=f_2m)


def mean_total_photons(p: EcsParams):
    """Mean photon number over all d+1 modes: alpha_sq (d b^2 + c^2).

    In the regime d e^{-alpha_sq} << 1 this is within O(d e^{-alpha_sq}) of
    alpha_sq itself.
    """
    return p.alpha_sq * (p.d * p.b * p.b + p.c * p.c)


def noon_optimal_b(d: int) -> float:
    """Sensing coefficient minimizing the NOON-probe bound: 1/sqrt(d + sqrt d)."""
    check(d=d)
    return 1.0 / math.sqrt(d + math.sqrt(d))


def ecs_params(d, alpha_sq, b, m: int = 1) -> EcsParams:
    """Build an entangled coherent probe, solving for c (broadcasts like solve_c)."""
    return EcsParams(d=d, alpha_sq=alpha_sq, b=b, c=solve_c(b, d, alpha_sq), m=m)


def noon_params(d: int, photon_number: int, b: float | None = None, m: int = 1) -> NoonParams:
    """Build a NOON probe; b defaults to the optimal 1/sqrt(d + sqrt d)."""
    if b is None:
        b = noon_optimal_b(d)
    remainder = 1.0 - d * b * b
    if remainder < 0.0:
        if remainder < -DOMAIN_ATOL:
            raise CoefficientDomainError(
                f"d b^2 = {d * b * b:.12g} exceeds 1; no normalizable c exists")
        remainder = 0.0
    c = math.sqrt(remainder)
    return NoonParams(d=d, photon_number=photon_number, b=b, c=c, m=m)
