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
holding a probe never checks it again.  Both normalize by
c^2 + 2bvc + b^2 u = 1, a NOON probe with (u, v) = (d, 0), so one function
tests the cap, one the residual (each against a derived forward-error
bound) and one forms c, for both.  ``overlaps`` is the one place u, v and
u - v^2 are formed, and ``domain_geometry`` the one pass forming Gamma,
f(m), f(2m), g and b_star.  A NOON probe is the coherent kernel at the
moments (N^m, N^{2m}, 1), so its optimal weight ``noon_optimal_b`` is b_star at g = 1.

The coherent-probe functions broadcast over d, alpha_sq and b (see
``_arrays``): a sweep passes arrays, a scalar call gets Python types back.
"""

from __future__ import annotations

import math

from ._arrays import all_true, clip_negative, first_failing, libm, quiet_overflow, scalar, sqrt
from ._domain import check
from ._record import Record, set_field
from .errors import CoefficientDomainError, DoubleOverflowError, NormalizationError
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

# The two probe checks judge a computed value against its forward-error bound,
# in units of the unit roundoff eps = 2^-53 (Higham, Accuracy and Stability of
# Numerical Algorithms, 2nd ed., ch. 3): each + - * / and sqrt rounds once,
# |delta| <= eps, and libm's exp and expm1 are within one ulp, |delta| <= 2 eps.
# First-order counts, in eps, of the error each quantity carries:
# - overlaps: u within 4 of its exact value, v within 3, u - v^2 within 8.
# - cap: t = b*b*(u - v^2) carries 8 + 2, so b^2 <= Gamma exactly gives
#   t <= 1 + 10 eps, and disc = 1 - t >= -k' eps (1 + t) holds for k' >= 5.
# - residual R = c^2 + 2bvc + b^2 u - 1 at c = solve_c(b), per term of
#   (1, c^2, |2bvc|, b^2 u): c's roundings (b*v, t, 1 - t, sqrt, the sum)
#   leave (3, 2, 2, 2) in the quadratic c solves; that quadratic's b^2 term
#   is v^2 + (u - v^2) as computed, within 8 + 4 of the computed u, adding
#   (0, 0, 0, 12); the left-to-right evaluation of R adds (1, 4, 5, 4).  The
#   sums are (4, 6, 7, 18), so |R| <= 18 eps (c^2 + |2bvc| + b^2 u + 1).
# k and k' round 18 and 5 up, past the second-order terms.  NOON's u - v^2 = d
# is exact, so its counts are smaller.
_EPS = 2.0 ** -53
_K_RESIDUAL = 20
_K_CAP = 6
# disc >= -k' eps (1 + t) tested as t <= (1 + k' eps)/(1 - k' eps), the same
# test (1 - t is exact for t in [1/2, 2]) that also rejects a t that overflowed.
_CAP_T = (1.0 + _K_CAP * _EPS) / (1.0 - _K_CAP * _EPS)


class EcsParams(Record):
    """Entangled coherent probe: b sum_j |alpha>_j + c |alpha>_0.

    d sensing modes, coherent intensity alpha_sq = |alpha|^2, sensing-branch
    coefficient b (real, >= 0), reference coefficient c, and generator order
    m for the per-mode phase generator (a^dag a)^m.  d, alpha_sq, b and c
    may be arrays that broadcast together, one probe per element.
    """

    __slots__ = ("d", "alpha_sq", "b", "c", "m")

    def __init__(self, d: int, alpha_sq: float, b: float, c: float, m: int = 1) -> None:
        """Raise naming the violated invariant: the ranges, b^2 under the cap, then
        normalization (an out-of-cap b cannot be normalized by any c)."""
        set_field(self, "d", d)
        set_field(self, "alpha_sq", alpha_sq)
        set_field(self, "b", b)
        set_field(self, "c", c)
        set_field(self, "m", m)
        check(m=m, b=b, c=c)
        u, v, denom = overlaps(d, alpha_sq)
        _discriminant(b, denom)
        _check_residual(b, c, u, v)


class NoonParams(Record):
    """NOON probe: b sum_j |N>_j + c |N>_0 with orthogonal Fock branches,
    the coherent probe's normalization at (u, v) = (d, 0)."""

    __slots__ = ("d", "photon_number", "b", "c", "m")

    def __init__(self, d: int, photon_number: int, b: float, c: float, m: int = 1) -> None:
        """Raise naming the violated invariant: the ranges, b^2 under the cap 1/d,
        then d b^2 + c^2 = 1."""
        set_field(self, "d", d)
        set_field(self, "photon_number", photon_number)
        set_field(self, "b", b)
        set_field(self, "c", c)
        set_field(self, "m", m)
        check(d=d, m=m, photon_number=photon_number, b=b, c=c)
        _discriminant(b, d)
        _check_residual(b, c, d, 0.0)


class DomainGeometry(Record):
    """Geometry of the sensing weight b^2: its cap, the unconstrained optimizer
    of the variance bound, the moments f(m), f(2m) and their ratio g, and whether
    the optimizer falls inside the cap (arrays when the inputs were)."""

    __slots__ = ("gamma_cap", "b_star", "g", "interior", "f_m", "f_2m")

    def __init__(self, gamma_cap: float, b_star: float, g: float, interior: bool,
                 f_m: float, f_2m: float) -> None:
        set_field(self, "gamma_cap", gamma_cap)
        set_field(self, "b_star", b_star)
        set_field(self, "g", g)
        set_field(self, "interior", interior)
        set_field(self, "f_m", f_m)
        set_field(self, "f_2m", f_2m)


def overlaps(d, alpha_sq):
    """Overlap sums of the normalization quadratic: (u, v, u - v^2).

    u = d + d(d-1) e^{-alpha_sq} collects the sensing-branch mutual overlaps
    and v = d e^{-alpha_sq} the sensing-reference overlaps; u >= v > 0 for
    finite alpha_sq.  u - v^2 takes the cancellation-free form
    d (1 - x)(1 + d x), x = e^{-alpha_sq}, with 1 - x = -expm1(-alpha_sq):
    the direct difference loses precision at small alpha_sq.  For every
    alpha_sq > 0 its three factors are >= 1, > 0 and >= 1 (expm1 of a
    subnormal is itself), so the computed u - v^2 is > 0 and never underflows.
    """
    check(d=d, mu=alpha_sq)
    x = libm(math.exp, -alpha_sq)
    return d + d * (d - 1) * x, d * x, d * -libm(math.expm1, -alpha_sq) * (1.0 + d * x)


def _discriminant(b, denom):
    """1 - b^2 (u - v^2), a quarter of the normalization quadratic's discriminant;
    CoefficientDomainError where b^2 exceeds the cap Gamma = 1/(u - v^2) by more
    than rounding, so that no real c exists (at the vacuum Gamma is infinite).
    Where b^2 and Gamma both overflow the test cannot tell (at the vacuum t is
    inf * 0 = NaN), and DoubleOverflowError names the overflow."""
    t = b * b * denom
    ok = t <= _CAP_T
    if not all_true(ok):
        b, b_sq, denom = (first_failing(x, ok) for x in (b, b * b, denom))
        gamma = 1.0 / denom if denom else math.inf
        if b_sq == gamma == math.inf:
            raise DoubleOverflowError(
                f"b^2 overflows a double at b = {b:.12g}, so it cannot be tested "
                f"against the domain cap Gamma = inf")
        raise CoefficientDomainError(
            f"b^2 = {b_sq:.12g} exceeds the domain cap Gamma = {gamma:.12g}")
    return 1.0 - t


def _larger_root(b, v, denom):
    """c = -b v + sqrt(disc), the root of c^2 + 2bvc + b^2 u = 1 continuously
    connected to c = 1 at b = 0; a disc that rounding left below 0 gives c = -b v."""
    return -b * v + sqrt(clip_negative(_discriminant(b, denom)))


def _check_residual(b, c, u, v) -> None:
    """Raise NormalizationError unless |c^2 + 2bvc + b^2 u - 1| is within its
    forward-error bound k eps (c^2 + |2bvc| + b^2 u + 1), k = _K_RESIDUAL.
    Where a term overflows (at the vacuum, where the cap is infinite) the test
    cannot tell, and DoubleOverflowError names the overflow."""
    cc, bvc, bbu = c * c, 2.0 * b * v * c, b * b * u
    residual = cc + bvc + bbu - 1.0
    bound = _K_RESIDUAL * _EPS * (cc + abs(bvc) + bbu + 1.0)
    ok = abs(residual) - bound <= 0.0  # NaN, failing, where a term overflowed
    if not all_true(ok):
        b, c, cc, bvc, bbu, residual, bound = (
            first_failing(x, ok) for x in (b, c, cc, bvc, bbu, residual, bound))
        if math.inf in (cc, abs(bvc), bbu):
            raise DoubleOverflowError(
                f"c^2 + 2bvc + b^2 u overflows a double at b = {b:.12g}, c = {c:.12g}, "
                f"so the normalization cannot be tested")
        raise NormalizationError(
            f"normalization violated: c^2 + 2bvc + b^2 u - 1 = "
            f"{residual:.3e} exceeds {bound:.3e}")


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
    return scalar(_larger_root(b, v, denom))


def b_domain_limit(d, alpha_sq):
    """Largest admissible sensing weight, Gamma = 1/(u - v^2).

    At alpha_sq = 0 every branch collapses to vacuum and u - v^2 vanishes;
    the alpha_sq row rejects that input, and every alpha_sq it accepts gives
    u - v^2 > 0 (see overlaps).
    """
    _, _, denom = overlaps(d, alpha_sq)
    check(alpha_sq=alpha_sq)
    with quiet_overflow(denom):  # inf, as for a float, when denom < 1/DBL_MAX
        return 1.0 / denom


def b_star(d, m: int, alpha_sq):
    """Unconstrained optimizer of the variance bound: sqrt(g / (sqrt d + d)).

    g = f(2m)/f(m)^2 tends to 1 for large alpha_sq, where b_star approaches
    the orthogonal-branch value 1/sqrt(d + sqrt d).
    """
    return domain_geometry(d, m, alpha_sq).b_star


def domain_geometry(d, m: int, alpha_sq) -> DomainGeometry:
    """Cap, moments, optimizer and regime flag in one record, broadcast over d and alpha_sq."""
    gamma_cap = b_domain_limit(d, alpha_sq)
    check(m=m)
    f_m, f_2m, g = coherent_moments(m, alpha_sq)
    bs = _optimal_weight(d, g)
    return DomainGeometry(gamma_cap=gamma_cap, b_star=scalar(bs), g=g,
                          interior=scalar(bs * bs <= gamma_cap), f_m=f_m, f_2m=f_2m)


def mean_total_photons(p: EcsParams):
    """Mean photon number over all d+1 modes: alpha_sq (d b^2 + c^2).

    In the regime d e^{-alpha_sq} << 1 this is within O(d e^{-alpha_sq}) of
    alpha_sq itself.
    """
    return p.alpha_sq * (p.d * p.b * p.b + p.c * p.c)


def _optimal_weight(d, g):
    """b_star = sqrt(g / (sqrt d + d)), the weight minimizing Tr(F^{-1}) over b."""
    return sqrt(g / (sqrt(d) + d))


def noon_optimal_b(d: int) -> float:
    """Sensing coefficient minimizing the NOON-probe bound: b_star at g = 1."""
    check(d=d)
    return _optimal_weight(d, 1.0)


def ecs_params(d, alpha_sq, b, m: int = 1) -> EcsParams:
    """Build an entangled coherent probe, solving for c (broadcasts like solve_c)."""
    return EcsParams(d=d, alpha_sq=alpha_sq, b=b, c=solve_c(b, d, alpha_sq), m=m)


def noon_params(d: int, photon_number: int, b: float | None = None, m: int = 1) -> NoonParams:
    """Build a NOON probe; b defaults to the optimal 1/sqrt(d + sqrt d)."""
    if b is None:
        b = noon_optimal_b(d)
    check(b=b)
    return NoonParams(d=d, photon_number=photon_number, b=b, c=_larger_root(b, 0.0, d), m=m)
