"""The input domain: the values each parameter of the kernels and the CLI may take.

Each row of ``DOMAIN`` gives a parameter's label, the exception for a value
that is not an integer (``None`` for a real), the ends of its interval, each
open or closed, and the exception for a value outside it.  ``check`` tests
numbers or NumPy arrays, picking its namespace as ``_arrays`` does.  A CLI
flag reads one row and names itself and the value given, an integer limit
in full: ``--m must be a positive int <= 109, got 110``.

``d`` counts the phases, up to 2^53: every kernel forms d as a double, and
every integer up to 2^53 is one exactly, with d^3 and d (d - 1) far below
the largest double; ``m`` is the order of the generator ``(a^dag a)^m``,
1 for the linear protocol and 2 for the nonlinear one.  f(2m) sums Stirling
numbers S(2m, k): every S(218, k) converts to a double and some S(220, k)
does not, so m stops at 109.  A moment ``order`` has no upper limit, nor
has an oracle ``cutoff``, the highest Fock level a truncated mode holds.
``alpha`` is the coherent amplitude; its square ``alpha_sq`` is nonzero in a
bound and in the cap Gamma, since the vacuum carries no phase information,
and ``mu`` is that square where the vacuum is allowed, in a moment or a probe.  ``b`` and ``c``
are the branch weights of a probe, ``N`` the photon number of a NOON bound,
``photon_number`` that of a NOON probe and ``n_tot`` the total photon number
of independent estimation.  ``count``, ``points`` and ``seed`` are read by
the CLI alone, as is ``cells``, d-rows times ``--alpha-steps`` of a
``region`` grid.  ``points``, the length of the ``curves`` axis, and ``cells``
each stop at 10^7, which keeps each axis array within 80 MB: the axis is
allocated whole, before any of its points is checked.  ``SUITE_NAMES``
is the domain of ``verify --suite`` (with ``all``), here so that the CLI
builds its parser without importing the oracle or NumPy.

Limits joining several inputs stay in the kernels: f(m)^2 > 0 and an
overflow at a given alpha (or n_tot) and m, which ``region`` and ``curves``
check only at their axis ends, before they write (each fails on a tail of
the axis), and the
cap b^2 <= Gamma and the normalization of c.  The cap and the normalization
residual are each tested in one function of ``states``, for both probe
families: a NOON probe is the coherent one with (u, v) = (d, 0).  An error a kernel raises under a command exits 2 naming the
flags read: ``... (at --d 3 --alpha 2.0)``.
"""

from math import inf

from ._arrays import all_true, first_failing
from .errors import (CoefficientDomainError, CutoffError, DegenerateInputError,
                     NormalizationError)

DOMAIN = {
    # name: (label, not an integer, lo, lo closed, hi, hi closed, outside)
    "d": ("d", ValueError, 1, True, 2 ** 53, True, ValueError),
    "m": ("generator order m", ValueError, 1, True, 109, True, ValueError),
    "order": ("moment order", TypeError, 0, True, inf, False, ValueError),
    "cutoff": ("cutoff", TypeError, 0, True, inf, False, CutoffError),
    "alpha": ("alpha", None, 0.0, False, inf, False, DegenerateInputError),
    "alpha_sq": ("alpha_sq", None, 0.0, False, inf, False, DegenerateInputError),
    "mu": ("alpha_sq", None, 0.0, True, inf, False, DegenerateInputError),
    "b": ("b", None, 0.0, True, inf, False, CoefficientDomainError),
    "c": ("c", None, -inf, False, inf, False, NormalizationError),
    "N": ("photon-number argument", None, 1.0, True, inf, False, DegenerateInputError),
    "photon_number": ("photon_number", ValueError, 1, True, inf, False, ValueError),
    "n_tot": ("n_tot", None, 0.0, False, inf, False, DegenerateInputError),
    "count": ("count", ValueError, 1, True, inf, False, ValueError),
    "points": ("points", ValueError, 2, True, 10 ** 7, True, ValueError),
    "cells": ("region cells", ValueError, 1, True, 10 ** 7, True, ValueError),
    "seed": ("seed", ValueError, 0, True, inf, False, ValueError),
}

SUITE_NAMES = ("moments", "normalization", "qfim", "optimizer", "bounds")


def _limit(x) -> str:
    """An integer limit in full, so that it can be typed back; a real one by :g."""
    return str(x) if type(x) is int else f"{x:g}"


def rule(name: str) -> str:
    """What a row accepts: 'finite and > 0', 'a positive int', 'an int >= 0',
    'an int >= 2 and <= 10000000'."""
    _, integer, lo, lo_closed, hi, hi_closed, _ = DOMAIN[name]
    lower = f"{'>=' if lo_closed else '>'} {_limit(lo)}"
    upper = "finite" if hi == inf else f"{'<=' if hi_closed else '<'} {_limit(hi)}"
    if integer is None:
        return upper if lo == -inf else f"{upper} and {lower}"
    kind, joint = ("a positive int", " ") if lower == ">= 1" else (f"an int {lower}", " and ")
    return kind if upper == "finite" else kind + joint + upper


def check(**values) -> None:
    """Raise unless each value (every element) lies in the row its keyword names,
    ``check(d=d, alpha_sq=alpha_sq)``; an integer is an int, not a bool, or an int array."""
    for name, x in values.items():
        label, integer, lo, lo_closed, hi, hi_closed, outside = DOMAIN[name]
        ok = (x >= lo if lo_closed else x > lo) & (x <= hi if hi_closed else x < hi)
        if integer is not None and type(x) is not int and not (
                x.dtype.kind in "iu" if getattr(x, "ndim", 0)
                else isinstance(x, int) and not isinstance(x, bool)):
            ok, outside = ok & False, integer
        if ok is not True and not all_true(ok):
            raise outside(f"{label} must be {rule(name)}, got {first_failing(x, ok)!r}")
