"""Photon-number moments ``(f(m), f(2m), g = f(2m)/f(m)^2)`` of either probe's
excited branch: :func:`coherent_moments`, or :func:`noon_moments` for ``|N>``.

For a coherent state with mean photon number ``mu = |alpha|^2`` the photon
number is Poisson distributed, so ``<(a^dag a)^m>`` is the m-th raw moment
of a Poisson variable.  That moment is a polynomial in ``mu`` (a Touchard
polynomial) whose coefficients are Stirling numbers of the second kind:

    f(m) = sum_{k=0}^{m} S(m, k) mu^k

``verify`` checks it against sums over the oracle's Poisson walk, which
form no Stirling number.
"""

from __future__ import annotations

import math
from functools import lru_cache

from ._arrays import all_true, first_failing, libm, quiet_overflow, scalar
from ._domain import check
from .errors import DegenerateInputError, DoubleOverflowError

__all__ = [
    "stirling2",
    "coherent_number_moment",
    "coherent_moments",
    "noon_moments",
]


@lru_cache(maxsize=None)
def _stirling_row(m: int) -> tuple[int, ...]:
    """Row m of the Stirling-second-kind triangle, S(m, 0..m), as exact ints, built
    one order at a time (no recursion limit); only the rows asked for are cached."""
    row = (1,)
    for n in range(1, m + 1):
        row = (0, *(k * row[k] + row[k - 1] for k in range(1, n)), 1)
    return row


def stirling2(m: int, k: int) -> int:
    """Stirling number of the second kind S(m, k).

    Uses the recurrence S(m, k) = k S(m-1, k) + S(m-1, k-1) on Python
    integers, so every value is exact regardless of magnitude.
    """
    if m < 0 or k < 0:
        raise ValueError(f"stirling2 requires m, k >= 0, got m={m}, k={k}")
    if k > m:
        raise ValueError(f"stirling2 requires k <= m, got m={m}, k={k}")
    return _stirling_row(m)[k]


def coherent_number_moment(m: int, mu):
    """m-th photon-number moment of a coherent state with ``|alpha|^2 = mu``.

    Parameters
    ----------
    m : int
        Moment order, >= 0.
    mu : float or array
        Mean photon number, >= 0.

    Returns
    -------
    float or array
        ``sum_k S(m, k) mu^k`` evaluated in double precision, elementwise
        over mu (a float for a scalar mu).  Monotone
        nondecreasing in mu for m >= 1; equals 1 for m = 0 and 0 at mu = 0
        for m >= 1.

    Raises
    ------
    DoubleOverflowError
        An OverflowError, if the polynomial exceeds the double-precision
        range; the result is never silently saturated.
    """
    check(order=m, mu=mu)
    total = 0.0 * mu  # zero in mu's shape
    power = 1.0  # mu^k
    with quiet_overflow(mu):
        for k, coefficient in enumerate(_stirling_row(m)):
            if k:
                power = power * mu
            # float() of an int too large for a double raises OverflowError
            total = total + float(coefficient) * power
    ok = total < math.inf
    if not all_true(ok):
        raise DoubleOverflowError(
            f"coherent_number_moment overflows for m={m}, mu={first_failing(mu, ok)}")
    return scalar(total)


def coherent_moments(m: int, mu):
    """``(f(m), f(2m), g)`` elementwise over mu, with g the ratio ``f(2m)/f(m)^2``.

    The one place g is formed.  g is at least 1 for mu > 0 by the
    Cauchy-Schwarz inequality and tends to 1 as mu grows.  It is undefined at
    mu = 0 for m >= 1 (the probe holds no photons), and wherever f(m)^2
    underflows to 0 (mu below about 1e-154).
    """
    f_m = coherent_number_moment(m, mu)
    f_2m = coherent_number_moment(2 * m, mu)
    f_m_sq = f_m * f_m
    ok = f_m_sq > 0.0
    if not all_true(ok):
        raise DegenerateInputError(
            f"moment ratio undefined at mu={first_failing(mu, ok)}: f(m)^2 = 0")
    return f_m, f_2m, f_2m / f_m_sq


def noon_moments(m: int, n):
    """``(n^m, n^{2m}, 1.0)`` elementwise over n: ``|n>`` has a sharp photon
    number, so g = 1 exactly.  An overflow raises OverflowError, as ``**`` does."""
    return libm(pow, n, m), libm(pow, n, 2 * m), 1.0
