"""Elementwise helpers shared by the array-native kernels.

Every kernel takes Python numbers or NumPy arrays that broadcast against
each other.  The same code runs for both: given numbers, the arithmetic
runs on Python floats and the result is a Python number; given arrays, it
runs as NumPy ufuncs, which round correctly and so give the same bits.
``exp``, ``expm1`` and ``**`` are the exception: NumPy's versions differ
from the C library's by an ulp on some inputs, so they are applied with the
C library's functions to each element, and a sweep cell equals the scalar
call for the same input.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np


def libm(fn, x, *args):
    """``fn(element, *args)`` for each element of x, as a float array of x's shape.

    Elements are passed as Python numbers, so ``libm(pow, n, 2)`` is
    ``n ** 2`` exactly as Python evaluates it, overflow errors included.
    A number x gives ``fn(x, *args)`` itself.
    """
    if isinstance(x, np.generic):
        x = x.item()
    if isinstance(x, (int, float)):
        return fn(x, *args)
    x = np.asarray(x)
    flat = x.ravel().tolist()
    out = np.fromiter(map(fn, flat, *map(repeat, args)), float, len(flat))
    return out.reshape(x.shape)


def scalar(x):
    """A NumPy scalar or 0-d result as a Python number; arrays unchanged."""
    return x.item() if getattr(x, "ndim", None) == 0 else x


def all_true(ok) -> bool:
    """Whether every element of a bool or bool array is true."""
    return bool(ok) if getattr(ok, "ndim", 0) == 0 else bool(ok.all())


def first_failing(x, ok):
    """The first element of x (broadcast to ok's shape) where ok is false."""
    return np.broadcast_to(x, np.shape(ok))[np.logical_not(ok)][0].item()


def check_positive_int(what: str, n) -> None:
    """Raise ValueError unless n is a positive int or an integer array of them."""
    if not isinstance(n, np.ndarray):
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ValueError(f"{what} must be a positive int, got {n!r}")
        return
    ok = n >= 1 if n.dtype.kind in "iu" else np.zeros(n.shape, bool)
    if not ok.all():
        raise ValueError(f"{what} must be a positive int, got {first_failing(n, ok)!r}")
