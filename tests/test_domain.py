"""The input-domain table: its checker, the largest generator order, and the
CLI flags that read the same rows as the kernels."""

import contextlib
import io
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasebounds import _domain, bounds, moments, states
from phasebounds.errors import DegenerateInputError, NormalizationError
from phasebounds.cli import main

M_MAX = _domain.DOMAIN["m"][4]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def test_m_max_is_the_last_order_whose_f_2m_has_float_coefficients():
    # f(2m) = sum_k S(2m, k) mu^k: every S(2 M_MAX, k) converts to a double,
    # some S(2 M_MAX + 2, k) does not, so the moment kernel cannot form f(2m)
    # at any alpha beyond M_MAX
    assert all(math.isfinite(float(moments.stirling2(2 * M_MAX, k)))
               for k in range(2 * M_MAX + 1))
    with pytest.raises(OverflowError):
        for k in range(2 * M_MAX + 3):
            float(moments.stirling2(2 * M_MAX + 2, k))
    assert M_MAX == 109


@pytest.mark.parametrize("call", [
    lambda m: states.b_star(3, m, 0.01),
    lambda m: states.domain_geometry(3, m, 0.01),
    lambda m: states.ecs_params(3, 0.01, 0.1, m),
    lambda m: states.noon_params(3, 2, m=m),
    lambda m: bounds.minimize_bound_over_b(3, m, 0.01),
    lambda m: bounds.region_classify(3, 0.1, m),
], ids=["b_star", "domain_geometry", "ecs_params", "noon_params", "minimize", "region"])
def test_kernels_take_m_up_to_the_max(call):
    call(M_MAX)
    for m in (0, M_MAX + 1, 10 ** 6):
        with pytest.raises(ValueError) as info:
            call(m)
        assert type(info.value) is ValueError
        assert str(info.value) == f"generator order m must be a positive int <= 109, got {m}"


@pytest.mark.parametrize("call", [
    lambda d: _domain.check(d=d),
    lambda d: bounds.ecs_linear_value(d, 4.0),
    lambda d: bounds.qcrb_noon_linear(d, 4.0),
    lambda d: states.domain_geometry(d, 1, 4.0),
    lambda d: states.noon_optimal_b(d),
], ids=["check", "ecs_linear_value", "noon_linear", "domain_geometry", "noon_optimal_b"])
def test_kernels_take_d_up_to_the_largest_double(call):
    # every kernel forms d as a double, so the row ends at the largest one
    d_max = int(sys.float_info.max)
    _domain.check(d=d_max)
    for d in (d_max + 1, 10 ** 400):
        with pytest.raises(ValueError) as info:
            call(d)
        assert type(info.value) is ValueError
        assert str(info.value) == f"d must be a positive int <= 1.79769e+308, got {d}"


@pytest.mark.parametrize("argv", [
    ("bounds", "--family", "ecs-optimal", "--d", "3", "--alpha", "2"),
    ("bounds", "--family", "ecs-at-b", "--d", "3", "--alpha", "2", "--b", "0.1"),
    ("bounds", "--family", "noon-linear", "--d", "3", "--N", "4"),
    ("region", "--d-max", "2", "--alpha-steps", "2"),
])
@pytest.mark.parametrize("m", [M_MAX + 1, 10 ** 6, 10 ** 400])
def test_m_above_the_max_names_the_flag(argv, m):
    assert run([*argv, "--m", m]) == (
        2, "", f"error: --m must be a positive int <= 109, got {m}\n")


def test_m_max_runs_at_small_alpha():
    code, out, err = run(["bounds", "--family", "ecs-optimal", "--d", "3", "--alpha", "0.1",
                          "--m", M_MAX])
    assert code == 0 and err == "" and '"m": 109' in out


@pytest.mark.parametrize("n", [np.array([1, 2]), np.array([[3]]), np.array([7], np.uint8)])
def test_integer_rows_take_integer_arrays(n):
    _domain.check(d=n, photon_number=n)


@pytest.mark.parametrize("name,x,error,message", [
    ("d", np.array([2, 0, 5]), ValueError, "d must be a positive int <= 1.79769e+308, got 0"),
    ("d", np.array([2.0]), ValueError, "d must be a positive int <= 1.79769e+308, got 2.0"),
    ("order", 2.0, TypeError, "moment order must be an int >= 0, got 2.0"),
    ("order", -1, ValueError, "moment order must be an int >= 0, got -1"),
    ("mu", np.array([1.0, math.nan]), DegenerateInputError,
     "alpha_sq must be finite and >= 0, got nan"),
    ("N", 0.5, DegenerateInputError, "photon-number argument must be finite and >= 1, got 0.5"),
    ("c", math.inf, NormalizationError, "c must be finite, got inf"),
])
def test_check_raises_the_row_error(name, x, error, message):
    with pytest.raises(error) as info:
        _domain.check(**{name: x})
    assert type(info.value) is error and str(info.value) == message


# Each CLI flag that reads a row of the table: an argv of a family that reads
# it, the type argparse parses it with, and the kernel check of the parsed
# value.  --alpha is |alpha|: the kernels take alpha (region_classify) and
# alpha^2.
FLAG_ROWS = {
    "d": (("bounds", "--family", "noon-linear", "--N", "4"), int,
          lambda d: _domain.check(d=d)),
    "m": (("bounds", "--family", "ecs-optimal", "--d", "3", "--alpha", "2"), int,
          lambda m: _domain.check(m=m)),
    "alpha": (("bounds", "--family", "ecs-linear", "--d", "3"), float,
              lambda a: _domain.check(alpha=a, alpha_sq=a * a)),
    "b": (("bounds", "--family", "ecs-at-b", "--d", "3", "--alpha", "2"), float,
          lambda b: _domain.check(b=b)),
    "N": (("bounds", "--family", "noon-linear", "--d", "3"), float,
          lambda n: _domain.check(N=n)),
    "n-tot": (("bounds", "--family", "independent-noon", "--d", "3"), float,
              lambda n: _domain.check(n_tot=n)),
}
# every double and int, with each row's ends, the doubles next to them, and
# the ends of alpha whose square underflows to 0 or overflows
_SQRT_ENDS = (math.sqrt(5e-324), math.sqrt(sys.float_info.max))
FLOAT_EDGES = [0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan, 10 ** 400,
               *(math.nextafter(x, to) for x in (0.0, 1.0, *_SQRT_ENDS)
                 for to in (-math.inf, math.inf)),
               1.0, *_SQRT_ENDS]
INT_EDGES = [0, -1, 1, 2, M_MAX - 1, M_MAX, M_MAX + 1, 10 ** 20, 10 ** 400, -10 ** 400]


def _kernel_accepts(check, value) -> bool:
    try:
        check(value)
    except (TypeError, ValueError):
        return False
    return True


@pytest.mark.parametrize("flag", FLAG_ROWS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_flag_accepts_what_its_kernel_row_accepts(flag, data):
    argv, parse, check = FLAG_ROWS[flag]
    values = st.integers() | st.sampled_from(INT_EDGES)
    if parse is float:
        values = st.floats() | st.sampled_from(FLOAT_EDGES) | values
    text = repr(data.draw(values, "value"))
    code, out, err = run([*argv, f"--{flag}={text}"])
    rejected = err.startswith(f"error: --{flag} must be ")
    assert code in (0, 2) and rejected is not _kernel_accepts(check, parse(text)), (text, err)


# Every range-checked flag: an argv it completes, the domain row it reads, and
# values outside that row (its ends, NaN, the infinities and 10**400 among
# them).  The argv's last token is `{flag}={value}`.  A NaN or infinite
# --alpha-min is caught first by the axis power check, and a --d-max below
# --d-min by the range check.
_D_BEYOND = int(sys.float_info.max) + 1
REJECTED = [
    ("bounds --family noon-linear --N 4", "--d", "d", [0, -3, _D_BEYOND, 10 ** 400]),
    ("bounds --family ecs-optimal --d 3 --alpha 2", "--m", "m", [0, M_MAX + 1, 10 ** 400]),
    ("bounds --family ecs-linear --d 3", "--alpha", "alpha",
     [0.0, -2.0, math.nan, math.inf, -math.inf, 1e-170, 1e200]),
    ("bounds --family noon-linear --d 3", "--N", "N",
     [math.nextafter(1.0, 0.0), -1.0, math.nan, math.inf, -math.inf]),
    ("bounds --family independent-noon --d 3", "--n-tot", "n_tot",
     [0.0, -5e-324, math.nan, math.inf]),
    ("bounds --family ecs-at-b --d 3 --alpha 2", "--b", "b", [-5e-324, math.nan, math.inf]),
    ("region", "--m", "m", [0, M_MAX + 1, 10 ** 400]),
    ("region", "--alpha-min", "alpha", [0.0, -1.0, 1e-170]),
    ("region", "--d-min", "d", [0, -1, 10 ** 400]),
    ("region", "--d-max", "d", [_D_BEYOND, 10 ** 400]),
    ("region", "--d-steps", "count", [0, -10 ** 400]),
    ("region", "--alpha-steps", "count", [0, -1]),
    ("curves", "--d", "d", [0, 10 ** 400]),
    ("curves", "--points", "points", [1, 0, -10 ** 400]),
    ("curves", "--ntot-min", "N", [0.5, math.nan, math.inf, -math.inf]),
    ("verify --suite moments", "--seed", "seed", [-1, -10 ** 400]),
]


@pytest.mark.parametrize("argv,flag,row,value", [
    pytest.param(argv, flag, row, value, id=f"{argv.split()[0]} {flag} {i}")
    for argv, flag, row, values in REJECTED for i, value in enumerate(values)])
def test_rejected_flag_names_its_rule_and_value(argv, flag, row, value):
    rule = "> 0 with a finite, nonzero square" if row == "alpha" else _domain.rule(row)
    code, out, err = run([*argv.split(), f"{flag}={value!r}"])
    assert (code, out, err) == (2, "", f"error: {flag} must be {rule}, got {value!r}\n")


REGION_FLAGS = ("--m", "--d-min", "--d-max", "--d-steps", "--alpha-min", "--alpha-max",
                "--alpha-steps")
CURVES_FLAGS = ("--d", "--ntot-min", "--ntot-max", "--points")


@pytest.mark.parametrize("argv,shown", [
    (("region", "--d-max", 10 ** 24), f"--d-max {10 ** 24}"),
    (("region", "--alpha-steps", 10 ** 18), f"--alpha-steps {10 ** 18}"),
    (("region", "--d-steps", 10 ** 22), f"--d-steps {10 ** 22}"),
    (("curves", "--points", 10 ** 23), f"--points {10 ** 23}"),
    # d (d - 1) exceeds the largest double
    (("region", "--d-min", 10 ** 160, "--d-max", 10 ** 160),
     f"--d-min {10 ** 160} --d-max {10 ** 160}"),
    (("curves", "--d", 10 ** 160, "--points", 2), f"--d {10 ** 160}"),
], ids=["d-max", "alpha-steps", "d-steps", "points", "d-range", "curves-d"])
def test_sweep_error_names_its_flags(argv, shown):
    code, out, err = run(argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and " (at --" in err and shown in err, err


# counts and d ends from 1-20, or sentinels that fail at once: a count near
# 10^9 would allocate gigabytes before it failed
COUNT = st.integers(-1, 20) | st.sampled_from([10 ** 20, 10 ** 400])
END = st.floats() | st.floats(0.01, 5.0) | st.sampled_from(FLOAT_EDGES)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_every_accepted_sweep_argv_exits_0_or_2(data):
    if data.draw(st.booleans(), "region"):
        flags = REGION_FLAGS
        argv = ["region", f"--d-max={data.draw(COUNT, 'd-max')}",
                f"--alpha-steps={data.draw(COUNT, 'alpha-steps')}"]
        optional = {"--m": st.integers(-1, 3) | st.sampled_from([M_MAX, M_MAX + 1, 10 ** 400]),
                    "--d-min": COUNT, "--d-steps": COUNT, "--alpha-min": END, "--alpha-max": END}
    else:
        flags = CURVES_FLAGS
        argv = ["curves", f"--points={data.draw(COUNT, 'points')}"]
        optional = {"--d": COUNT, "--ntot-min": END, "--ntot-max": END}
    for flag, values in optional.items():
        if data.draw(st.booleans(), flag):
            argv.append(f"{flag}={data.draw(values, flag)!r}")
    argv += ["--format", data.draw(st.sampled_from(["csv", "json"]), "format")]
    code, out, err = run(argv)
    assert code in (0, 2), (argv, err)
    if code == 2:
        assert out == "" and any(flag in err for flag in flags), (argv, err)
    else:
        assert err == "" and out, argv
