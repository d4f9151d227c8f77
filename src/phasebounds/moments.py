"""Moments of the photon-number distribution of a coherent state.

For a coherent state with mean photon number ``mu = |alpha|^2`` the photon
number is Poisson distributed, so ``<(a^dag a)^m>`` is the m-th raw moment
of a Poisson variable.  That moment is a polynomial in ``mu`` (a Touchard
polynomial) whose coefficients are Stirling numbers of the second kind:

    f(m) = sum_{k=0}^{m} S(m, k) mu^k

The closed form is exact for any order; :func:`moment_via_poisson_sum`
evaluates the defining series directly and serves as an independent check.
"""

from __future__ import annotations

import math
from functools import lru_cache

from ._arrays import all_true, first_failing, quiet_overflow, scalar
from ._domain import check
from .errors import DegenerateInputError

__all__ = [
    "stirling2",
    "coherent_number_moment",
    "moment_via_poisson_sum",
    "coherent_moments",
]

# exp(-mu) underflows past this point and the series would silently lose all mass
_EXP_UNDERFLOW_MU = 700.0


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
    OverflowError
        If the polynomial exceeds the double-precision range; the result is
        never silently saturated.
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
        raise OverflowError(
            f"coherent_number_moment overflows for m={m}, mu={first_failing(mu, ok)}")
    return scalar(total)


def moment_via_poisson_sum(m: int, mu: float, tail_tol: float) -> float:
    """Evaluate ``<n^m>`` by direct summation of the Poisson series.

    Independent of the Stirling closed form: sums ``exp(-mu) mu^n / n! * n^m``
    term by term and stops once the remaining tail is provably below
    ``tail_tol``.

    Stopping rule: once ``n >= 2m`` and ``n + 1 >= 2 sqrt(e) mu`` the term
    ratio ``mu/(n+1) (1 + 1/n)^m`` is at most 1/2, so the tail beyond the
    current term is bounded by the term itself via the geometric series.
    """
    check(order=m, mu=mu)
    if not tail_tol > 0.0:
        raise ValueError(f"tail_tol must be > 0, got {tail_tol}")
    if mu > _EXP_UNDERFLOW_MU:
        raise OverflowError(
            f"exp(-mu) underflows for mu={mu}; direct summation is not representable")
    n_geometric = max(2 * m, math.ceil(2.0 * math.sqrt(math.e) * mu))
    pmf = math.exp(-mu)
    total = 0.0
    n = 0
    while True:
        term = pmf * float(n) ** m
        total += term
        if n >= n_geometric and term <= tail_tol:
            return total
        pmf *= mu / (n + 1)
        n += 1


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

