"""Elementwise helpers shared by the array-native kernels.

Every kernel takes Python numbers or NumPy arrays that broadcast against
each other, and runs one body for both.  Each helper here picks its
namespace from its arguments, in the manner of the Python array API
standard's ``__array_namespace__``: when every argument is a plain Python
number (``int``, ``float`` or ``bool``) it uses ``math`` and plain Python,
and returns a Python number; otherwise (a NumPy array or a NumPy scalar) it
uses NumPy.  The arithmetic between helper calls is ordinary ``+ - * /``,
which Python floats and NumPy ufuncs both round correctly, and ``sqrt`` is
correctly rounded in both, so a number call gives the same bits as the
array cell for the same input.  ``exp``, ``expm1`` and ``**`` are the
exception: NumPy's versions differ from the C library's by an ulp on some
inputs, so ``libm`` applies the C library's function to each element.

NumPy is imported inside the array branches only.  That import is free: a
caller holding an array or a NumPy scalar has already imported NumPy.  So a
process that calls the kernels with numbers alone never loads NumPy.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from itertools import repeat

_NUMBER_TYPES = frozenset((int, float, bool))
_NO_CONTEXT = nullcontext()  # reusable; entering it does nothing


def _numbers(*xs) -> bool:
    """Whether every argument is a plain Python number (the ``math`` branch)."""
    for x in xs:
        if type(x) not in _NUMBER_TYPES:
            return False
    return True


def libm(fn, x, *args):
    """``fn(element, *args)`` for each element of x, as a float array of x's shape.

    Elements are passed as Python numbers, so ``libm(pow, n, 2)`` is
    ``n ** 2`` exactly as Python evaluates it, overflow errors included.
    A number x (Python or NumPy scalar) gives ``fn(x, *args)`` itself.
    """
    if type(x) in _NUMBER_TYPES:
        return fn(x, *args)
    import numpy as np

    if isinstance(x, np.generic):
        return fn(x.item(), *args)
    x = np.asarray(x)
    flat = x.ravel().tolist()
    out = np.fromiter(map(fn, flat, *map(repeat, args)), float, len(flat))
    return out.reshape(x.shape)


def sqrt(x):
    """Correctly rounded square root; NaN for x < 0, as NumPy gives."""
    if type(x) in _NUMBER_TYPES:
        return math.sqrt(x) if not x < 0.0 else math.nan
    import numpy as np

    return np.sqrt(x)


def frexp(x):
    """(mantissa, exponent) with x = mantissa 2^exponent, the mantissa in [0.5, 1)."""
    if type(x) in _NUMBER_TYPES:
        return math.frexp(x)
    import numpy as np

    return np.frexp(x)


def ldexp(x, exponent):
    """x 2^exponent, rounded once: 0.0 where it underflows."""
    if _numbers(x, exponent):
        return math.ldexp(x, exponent)
    import numpy as np

    return np.ldexp(x, exponent)


def clip_negative(x):
    """x with every negative element replaced by 0.0 (-0.0 and NaN kept)."""
    if type(x) in _NUMBER_TYPES:
        return 0.0 if x < 0.0 else x
    import numpy as np

    return np.where(x < 0.0, 0.0, x)


def quiet_overflow(*xs):
    """Context in which arithmetic on xs may overflow to inf without a warning.

    Python floats already overflow to inf silently under ``* + - /``, so
    for numbers this is a no-op context.
    """
    if _numbers(*xs):
        return _NO_CONTEXT
    import numpy as np

    return np.errstate(over="ignore")


def scalar(x):
    """A NumPy scalar or 0-d result as a Python number; arrays unchanged."""
    return x.item() if getattr(x, "ndim", None) == 0 else x


def all_true(ok) -> bool:
    """Whether every element of a bool or bool array is true."""
    return bool(ok) if getattr(ok, "ndim", 0) == 0 else bool(ok.all())


def first_failing(x, ok):
    """The first element of x (broadcast to ok's shape) where ok is false."""
    if _numbers(x, ok):
        return x
    import numpy as np

    return np.broadcast_to(x, np.shape(ok))[np.logical_not(ok)][0].item()

