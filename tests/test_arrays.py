"""A call with Python numbers gives the same bits as the same cell of an array call.

The kernels run one body for both: the ``_arrays`` helpers pick ``math`` for
numbers and NumPy for arrays.  Each property below evaluates a function once
with numbers and once with one-element arrays and compares the results with
``float.hex``; where one call raises, the other must raise the same type.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasebounds import _arrays, _domain, bounds, qfim, states

EDGE_FLOATS = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -1.0])
FLOATS = st.floats(allow_nan=True, allow_infinity=True) | EDGE_FLOATS
D = st.integers(1, 200)
M = st.sampled_from([1, 2])
ALPHA_SQ = st.floats(-10.0, 3.0).map(lambda e: 10.0 ** e)  # log-uniform in [1e-10, 1e3]


def _bits(x):
    """float.hex of a float, the value of a bool or int; arrays must not get here."""
    if isinstance(x, bool):
        return x
    assert type(x) in (int, float), type(x)
    return float.hex(float(x))


def _outcome(fn, *args):
    """('ok', result) or ('raise', exception type)."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return "ok", fn(*args)
    except (ValueError, ArithmeticError) as exc:
        return "raise", type(exc)


def _cell(x):
    return x.ravel()[0].item() if isinstance(x, np.ndarray) else x


def _same(fn, numbers, fields=None):
    """Assert fn(*numbers) equals fn(*one-element arrays) bit for bit."""
    arrays = [np.array([x]) for x in numbers]
    kind, got = _outcome(fn, *numbers)
    array_kind, array_got = _outcome(fn, *arrays)
    assert kind == array_kind, (numbers, got, array_got)
    if kind == "raise":
        assert got is array_got, numbers
        return
    if fields is None:
        assert _bits(got) == _bits(_cell(array_got)), numbers
        return
    for name in fields:
        assert _bits(getattr(got, name)) == _bits(_cell(getattr(array_got, name))), \
            (numbers, name)


class TestHelpers:
    @settings(max_examples=300, deadline=None)
    @given(FLOATS)
    def test_sqrt(self, x):
        _same(_arrays.sqrt, [x])

    @settings(max_examples=300, deadline=None)
    @given(FLOATS)
    def test_clip_negative(self, x):
        _same(_arrays.clip_negative, [x])

    @settings(max_examples=300, deadline=None)
    @given(FLOATS, FLOATS)
    def test_quiet_overflow(self, a, b):
        def product(x, y):
            with _arrays.quiet_overflow(x, y):
                return x * y * 1e300

        _same(product, [a, b])

    def test_quiet_overflow_silences_arrays(self, recwarn):
        with _arrays.quiet_overflow(np.array([1e300])):
            assert np.array([1e300]) * 1e300 == math.inf
        with _arrays.quiet_overflow(1e300):
            assert 1e300 * 1e300 == math.inf
        assert not recwarn.list

    def test_numbers_stay_python_numbers(self):
        assert type(_arrays.sqrt(4)) is float
        assert type(_arrays.clip_negative(-2.0)) is float
        assert _arrays.first_failing(3.0, False) == 3.0

    def test_numpy_scalars_take_the_array_branch(self):
        assert type(_arrays.sqrt(np.float64(4.0))) is np.float64

    @pytest.mark.parametrize("n", [0, -1, 2.0, True, np.int64(3)])
    def test_check_positive_int_rejects(self, n):
        with pytest.raises(ValueError, match="must be a positive int"):
            _domain.check(d=n)


class TestKernels:
    @settings(max_examples=300, deadline=None)
    @given(D, M, ALPHA_SQ)
    def test_domain_geometry(self, d, m, alpha_sq):
        _same(lambda d, a: states.domain_geometry(d, m, a), [d, alpha_sq],
              fields=("gamma_cap", "b_star", "g", "interior"))

    @settings(max_examples=300, deadline=None)
    @given(D, ALPHA_SQ, st.floats(0.0, 1.2))
    def test_solve_c(self, d, alpha_sq, fraction):
        # b from 0 to 1.2 sqrt(Gamma), so some draws are not normalizable
        b = fraction * math.sqrt(states.b_domain_limit(d, alpha_sq))
        _same(states.solve_c, [b, d, alpha_sq])

    @settings(max_examples=300, deadline=None)
    @given(D, M, ALPHA_SQ, st.floats(1e-6, 1.2))
    def test_trace_inverse_value(self, d, m, alpha_sq, fraction):
        # b^2 up to 1.2 g/d, so some draws reach the pole and raise
        geom = states.domain_geometry(d, m, alpha_sq)
        _same(lambda b_sq: qfim.trace_inverse_value(d, geom.f_2m, geom.g, b_sq),
              [fraction * geom.g / d])

    @pytest.mark.parametrize("fn", [bounds.ecs_linear_value, bounds.ecs_nonlinear_value,
                                    bounds.noon_linear_value, bounds.noon_nonlinear_value])
    @settings(max_examples=200, deadline=None)
    @given(d=D, x=ALPHA_SQ)
    def test_headline_values(self, fn, d, x):
        # the NOON forms reject a photon number below 1 on both paths
        _same(fn, [d, x])


def _reference_overlaps(d, alpha_sq):
    """The overlap sums as two separate formulas, each with its own exp."""
    x = math.exp(-alpha_sq)
    u, v = d + d * (d - 1) * x, d * x
    u_minus_v_sq = d * -math.expm1(-alpha_sq) * (1.0 + d * math.exp(-alpha_sq))
    return u, v, u_minus_v_sq


class TestOverlapBits:
    """overlaps, b_domain_limit and solve_c keep the bits of the
    separate u, v and u - v^2 formulas, for numbers and one-element arrays."""

    @staticmethod
    def _assert_bits(fn, numbers, expected):
        arrays = [np.array([x]) for x in numbers]
        for got in (fn(*numbers), fn(*arrays)):
            got = got if isinstance(got, tuple) else (got,)
            assert [_bits(_cell(g)) for g in got] == [_bits(e) for e in expected], numbers

    @settings(max_examples=300, deadline=None)
    @given(D, ALPHA_SQ)
    def test_uv_and_cap(self, d, alpha_sq):
        u, v, u_minus_v_sq = _reference_overlaps(d, alpha_sq)
        self._assert_bits(states.overlaps, [d, alpha_sq], [u, v, u_minus_v_sq])
        self._assert_bits(states.b_domain_limit, [d, alpha_sq], [1.0 / u_minus_v_sq])

    @settings(max_examples=300, deadline=None)
    @given(D, ALPHA_SQ, st.floats(0.0, 1.0))
    def test_solve_c(self, d, alpha_sq, fraction):
        _, v, u_minus_v_sq = _reference_overlaps(d, alpha_sq)
        b = fraction * math.sqrt(1.0 / u_minus_v_sq)
        disc = 1.0 - b * b * u_minus_v_sq
        root = math.sqrt(0.0 if disc < 0.0 else disc)
        self._assert_bits(states.solve_c, [b, d, alpha_sq], [-b * v + root])
