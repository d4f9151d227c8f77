import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasebounds import _domain, bounds, cli, states
from phasebounds.cli import main


SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBoundsCommand:
    def test_ecs_linear_json(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--family", "ecs-linear",
                               "--d", "5", "--alpha", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "ecs-linear"
        assert payload["regime"] == "interior"
        assert payload["value"] == pytest.approx(0.523607, rel=1e-5)

    def test_noon_linear_value(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--family", "noon-linear",
                               "--d", "5", "--N", "4")
        assert code == 0
        expected = 5.0 * (math.sqrt(5.0) + 1.0) ** 2 / 64.0
        assert json.loads(out)["value"] == pytest.approx(expected, rel=1e-12)

    def test_degenerate_input_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--family", "ecs-linear",
                               "--d", "5", "--alpha", "0")
        assert code == 2
        assert "error" in err

    def test_missing_flag_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--family", "noon-linear", "--d", "5")
        assert code == 2
        assert "--N" in err

    def test_clamped_ecs_linear_exits_0(self, capsys):
        # b_star^2 > Gamma: the optimum sits at the cap
        code, out, _ = run_cli(capsys, "bounds", "--family", "ecs-linear",
                               "--d", "5", "--alpha", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["regime"] == "clamped"
        assert payload["value"] == 6.042050368248013

    def test_ecs_optimal_clamped(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--family", "ecs-optimal",
                               "--d", "5", "--alpha", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["regime"] == "clamped"

    @pytest.mark.parametrize("m,kind", [("1", "ecs-linear"), ("2", "ecs-nonlinear"),
                                        ("3", "ecs-optimal"), ("109", "ecs-optimal")])
    def test_optimized_kind_by_m(self, capsys, m, kind):
        # an optimized bound at m >= 3 is not the fixed-b family's ecs-at-b
        code, out, _ = run_cli(capsys, "bounds", "--family", "ecs-optimal", "--d", "3",
                               "--alpha", "0.1", "--m", m)
        assert code == 0 and json.loads(out)["kind"] == kind
        code, out, _ = run_cli(capsys, "bounds", "--family", "ecs-at-b", "--d", "3",
                               "--alpha", "0.1", "--b", "0.05", "--m", m)
        assert code == 0 and json.loads(out)["kind"] == "ecs-at-b"

    @pytest.mark.parametrize("argv,flag", [
        (("--family", "ecs-linear", "--d", "0", "--alpha", "2"), "--d"),
        (("--family", "noon-linear", "--d", "-3", "--N", "4"), "--d"),
        (("--family", "ecs-optimal", "--d", "3", "--m", "0", "--alpha", "2"), "--m"),
        (("--family", "ecs-at-b", "--d", "3", "--m", "-1", "--alpha", "2", "--b", "0.1"),
         "--m"),
        # a family that does not read --m still rejects a bad one
        (("--family", "noon-linear", "--d", "3", "--N", "4", "--m", "0"), "--m"),
    ])
    def test_zero_d_or_m_names_the_flag(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, "bounds", *argv)
        assert code == 2 and out == ""
        rule = {"--d": "a positive int <= 9007199254740992", "--m": "a positive int <= 109"}[flag]
        assert err == f"error: {flag} must be {rule}, got {argv[argv.index(flag) + 1]}\n"

    @pytest.mark.parametrize("family,given,message", [
        ("ecs-linear", (), "--alpha is required"),
        ("ecs-nonlinear", (), "--alpha is required"),
        ("ecs-optimal", ("--m", "2"), "--alpha is required"),
        ("ecs-at-b", ("--alpha", "2"), "--b is required"),
        ("noon-linear", (), "--N is required"),
        ("noon-nonlinear", (), "--N is required"),
        ("independent-ecs", (), "--n-tot or --alpha is required"),
        ("independent-noon", (), "--n-tot is required"),
        ("zzb-ecs", (), "--alpha is required"),
        ("zzb-noon", (), "--N is required"),
    ])
    def test_missing_flag_names_every_alternative(self, capsys, family, given, message):
        code, out, err = run_cli(capsys, "bounds", "--family", family, "--d", "3", *given)
        assert (code, out, err) == (2, "", f"error: {message} for family {family}\n")

    @pytest.mark.parametrize("argv", [
        ("--family", "noon-linear", "--d", "3", "--N", "4"),
        ("--family", "ecs-linear", "--d", "3", "--alpha", "2"),
        ("--family", "independent-ecs", "--d", "3", "--n-tot", "10"),
        ("--family", "zzb-noon", "--d", "3", "--N", "4"),
    ])
    def test_m_on_family_that_ignores_it(self, capsys, argv):
        code, out, err = run_cli(capsys, "bounds", *argv, "--m", "2")
        assert code == 2 and out == ""
        assert err == (f"error: --m applies to families ecs-optimal and ecs-at-b only, "
                       f"not {argv[1]}\n")

    def test_m_defaults_to_one(self, capsys):
        for family, extra in (("ecs-optimal", ()), ("ecs-at-b", ("--b", "0.3"))):
            argv = ("bounds", "--family", family, "--d", "3", "--alpha", "2", *extra)
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0 and json.loads(out)["params"]["m"] == 1
            assert run_cli(capsys, *argv, "--m", "1")[1] == out

    @pytest.mark.parametrize("family", ["ecs-linear", "ecs-nonlinear", "zzb-ecs",
                                        "ecs-optimal", "ecs-at-b", "independent-ecs"])
    @pytest.mark.parametrize("alpha,shown", [
        ("-2", "-2.0"),  # its square 4.0 is valid, but the flag is |alpha|
        ("nan", "nan"),
        ("1e200", "1e+200"),  # square overflows to inf
        ("1e-170", "1e-170"),  # square underflows to 0
    ])
    def test_bad_alpha_names_the_flag(self, capsys, family, alpha, shown):
        code, out, err = run_cli(capsys, "bounds", "--family", family, "--d", "3",
                                 "--alpha", alpha, "--b", "0.3")
        assert code == 2 and out == ""
        assert err == f"error: --alpha must be > 0 with a finite, nonzero square, got {shown}\n"

    @pytest.mark.parametrize("argv,message", [
        (("--family", "noon-linear", "--N", "nan"), "--N must be finite and >= 1, got nan"),
        (("--family", "zzb-noon", "--N", "0.5"), "--N must be finite and >= 1, got 0.5"),
        (("--family", "independent-noon", "--n-tot", "inf"),
         "--n-tot must be finite and > 0, got inf"),
        (("--family", "independent-ecs", "--n-tot", "-1"),
         "--n-tot must be finite and > 0, got -1.0"),
        (("--family", "ecs-at-b", "--alpha", "1", "--b", "nan"),
         "--b must be finite and >= 0, got nan"),
    ], ids=["N-nan", "N-below-1", "n-tot-inf", "n-tot-negative", "b-nan"])
    def test_bad_number_names_the_flag(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "bounds", "--d", "3", *argv)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("argv,shown", [
        (("--family", "ecs-at-b", "--d", "3", "--alpha", "1", "--b", "1e-300"),
         "--d 3 --alpha 1.0 --b 1e-300"),  # b^2 underflows to 0
        (("--family", "independent-noon", "--d", "3", "--n-tot", "1e-300"),
         "--d 3 --n-tot 1e-300"),  # n_tot^2 underflows to 0
        (("--family", "ecs-linear", "--d", "3", "--alpha", "1e100"), "--d 3 --alpha 1e+100"),
        (("--family", "noon-linear", "--d", "3", "--N", "1e300"), "--d 3 --N 1e+300"),
        (("--family", "zzb-noon", "--d", "3", "--N", "1e300"), "--d 3 --N 1e+300"),
        (("--family", "ecs-nonlinear", "--d", "3", "--alpha", "1e60"), "--d 3 --alpha 1e+60"),
        (("--family", "ecs-linear", "--d", "3", "--alpha", "1e-160"), "--d 3 --alpha 1e-160"),
    ], ids=["b-underflow", "n-tot-underflow", "alpha-power-overflow", "N-power-overflow",
            "zzb-N-overflow", "alpha-moment-overflow", "alpha-moment-underflow"])
    def test_kernel_error_names_every_flag_read(self, capsys, argv, shown):
        code, out, err = run_cli(capsys, "bounds", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.endswith(f" (at {shown})\n"), err

    @pytest.mark.parametrize("argv,named", [
        # each printed "value": Infinity, which is not JSON, and exited 0
        (("--family", "ecs-at-b", "--d", "3", "--alpha", "2", "--b", "1e-160"), ""),
        (("--family", "independent-ecs", "--d", "3", "--alpha", "1e-160"), ""),
        (("--family", "independent-ecs", "--d", "3", "--n-tot", "1e-320"), ""),
        # each printed Python's bare float division by zero
        (("--family", "ecs-at-b", "--d", "3", "--alpha", "2", "--b", "1e-200"), ""),
        (("--family", "independent-noon", "--d", "3", "--n-tot", "1e-200"), ""),
        # each underflows to 0.0: the first two printed Python's bare (34, 'Numerical
        # result out of range'), the third "value": 0.0, and exited 0
        (("--family", "noon-linear", "--d", "1", "--N", "1e300"), ""),
        (("--family", "independent-noon", "--d", "3", "--n-tot", "1e300"), ""),
        (("--family", "independent-ecs", "--d", "3", "--n-tot", "1e300"), ""),
        (("--family", "zzb-ecs", "--d", "3", "--alpha", "1e150"), ""),
        (("--family", "noon-nonlinear", "--d", "3", "--N", "1e300"), ""),
        # an overflow the package names keeps its message
        (("--family", "ecs-optimal", "--d", "3", "--alpha", "2", "--m", "100"),
         ": coherent_number_moment overflows for m=200, mu=4.0"),
    ], ids=["at-b-inf", "alpha-inf", "n-tot-inf", "at-b-div0", "n-tot-div0", "N-range",
            "n-tot-range", "independent-ecs-zero", "zzb-ecs-zero", "noon-nonlinear-zero",
            "moment-overflow"])
    def test_bound_that_is_not_a_finite_double_exits_2(self, capsys, argv, named):
        code, out, err = run_cli(capsys, "bounds", *argv)
        given = " ".join(f"{flag} {float(value)!r}" if flag not in ("--d", "--m") else
                         f"{flag} {value}" for flag, value in zip(argv[2::2], argv[3::2]))
        assert code == 2 and out == ""
        assert err == f"error: the bound is not a positive finite double{named} (at {given})\n"

    @pytest.mark.parametrize("argv,message", [
        (("--family", "ecs-linear", "--alpha", "2", "--b", "0.3"),
         "--b applies to family ecs-at-b only, not ecs-linear"),
        (("--family", "independent-ecs", "--alpha", "2", "--n-tot", "10"),
         "--alpha and --n-tot are alternatives for family independent-ecs; give one"),
        (("--family", "noon-linear", "--N", "4", "--alpha", "2"),
         "--alpha applies to families ecs-linear, ecs-nonlinear, ecs-optimal, ecs-at-b, "
         "independent-ecs and zzb-ecs only, not noon-linear"),
        (("--family", "zzb-ecs", "--alpha", "2", "--N", "4"),
         "--N applies to families noon-linear, noon-nonlinear and zzb-noon only, not zzb-ecs"),
        (("--family", "ecs-optimal", "--alpha", "2", "--n-tot", "4"),
         "--n-tot applies to families independent-ecs and independent-noon only, "
         "not ecs-optimal"),
        # every flag is judged by its row first, whether the family reads it or not
        (("--family", "noon-nonlinear", "--N", "0.5", "--b", "0.3"),
         "--N must be finite and >= 1, got 0.5"),
        (("--family", "ecs-linear", "--alpha", "2", "--b", "-1"),
         "--b must be finite and >= 0, got -1.0"),
    ], ids=["b", "alpha-with-n-tot", "alpha", "N", "n-tot", "read-flag-first",
            "unread-flag-row-first"])
    def test_flag_the_family_does_not_read(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "bounds", "--d", "3", *argv)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    def test_ecs_at_b_requires_b(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--family", "ecs-at-b",
                               "--d", "2", "--alpha", "1")
        assert code == 2 and "--b" in err

    def test_independent_ecs_via_ntot(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--family", "independent-ecs",
                               "--d", "5", "--n-tot", "10")
        assert code == 0
        assert json.loads(out)["params"]["n_tot"] == 10

    @pytest.mark.parametrize("flags,value", [
        (("--d", "3", "--n-tot", "2e154"), 6.75e-308),
        (("--d", "3", "--alpha", "1.2e77"), 1.44675925925926e-308),
        (("--d", str(2 ** 53), "--n-tot", "2e154"), 1.8268770466636285e-261),
    ], ids=["n-tot", "alpha", "huge-d"])
    def test_independent_ecs_where_a_product_form_overflows(self, capsys, flags, value):
        # each bound is a double, although d^3 / (n_tot (2 d + ...)) or a
        # product N^2 alpha_sq^2 formed before the division overflows
        code, out, err = run_cli(capsys, "bounds", "--family", "independent-ecs", *flags)
        assert (code, err) == (0, "")
        assert json.loads(out)["value"] == value

    @pytest.mark.parametrize("flags,value", [
        (("independent-noon", "--d", "3", "--n-tot", "2e154"), 6.75e-308),
        (("independent-noon", "--d", str(2 ** 53), "--n-tot", "2e154"),
         1.8268770466636287e-261),
        (("zzb-noon", "--d", "3", "--N", "2e154"), 5.25826237806382e-309),
        (("zzb-ecs", "--d", "3", "--alpha", "2e77"), 1.314565594515956e-309),
        (("noon-linear", "--d", "3", "--N", "2e154"), 1.399519052838329e-308),
        (("noon-nonlinear", "--d", "3", "--N", "1.2e77"), 2.6996895309381356e-308),
    ], ids=["independent-noon", "independent-noon-huge-d", "zzb-noon", "zzb-ecs",
            "noon-linear", "noon-nonlinear"])
    def test_bound_where_a_square_overflows(self, capsys, flags, value):
        # each bound is a double, although n_tot^2, N^2, N^4 or
        # (alpha_sq + 1)^2 overflows
        code, out, err = run_cli(capsys, "bounds", "--family", *flags)
        assert (code, err) == (0, "")
        assert json.loads(out)["value"] == value

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--family", "noon-linear",
                               "--d", "2", "--N", "3", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        header, data = rows
        assert header[:3] == ["kind", "regime", "value"]
        assert float(data[2]) == pytest.approx(2.0 * (math.sqrt(2.0) + 1) ** 2 / 36.0)


@pytest.mark.parametrize("argv", [
    ("bounds", "--family", "ecs-optimal", "--d", "{}", "--alpha", "2"),
    ("curves", "--d", "{}"),
    ("region", "--d-min", "{}", "--d-max", "{}"),
    ("region", "--d-min", "1", "--d-max", "{}", "--alpha-steps", "2"),
], ids=["bounds", "curves", "region", "region-d-max"])
def test_d_above_the_largest_double_names_the_flag(capsys, argv):
    # every kernel forms d as a double, exact up to 2^53, the end of the d
    # row; a larger d is outside the row, not a bound that is not a double
    code, _, err = run_cli(capsys, *(a.format(2 ** 53) for a in argv))
    # 1..2^53 is accepted as a d range, and then has too many rows
    assert (code, err) == (0, "") or err.startswith("error: region cells must be ")
    d = 2 ** 53 + 1
    code, out, err = run_cli(capsys, *(a.format(d) for a in argv))
    flag = argv[argv.index("{}") - 1]
    assert (code, out, err) == (
        2, "", f"error: {flag} must be a positive int <= 9007199254740992, got {d}\n")


# the flags each bounds family reads besides --d and --m (independent-ecs: either)
BOUNDS_READS = {
    "ecs-linear": [("--alpha",)], "ecs-nonlinear": [("--alpha",)],
    "ecs-optimal": [("--alpha",)], "ecs-at-b": [("--alpha", "--b")],
    "noon-linear": [("--N",)], "noon-nonlinear": [("--N",)], "zzb-noon": [("--N",)],
    "independent-ecs": [("--alpha",), ("--n-tot",)], "independent-noon": [("--n-tot",)],
    "zzb-ecs": [("--alpha",)],
}
FLOAT_FLAGS = ("--alpha", "--N", "--n-tot", "--b")
# every double, with the edges named so that each draw can reach them, and
# values the kernels accept, so that some runs exit 0
FLAG_VALUE = st.floats() | st.floats(0.01, 100.0) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e-300, 1e300, -1e300, math.nan, math.inf, -math.inf])


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_every_accepted_bounds_argv_exits_0_or_2(data):
    family = data.draw(st.sampled_from(sorted(BOUNDS_READS)), "family")
    d = data.draw(st.integers(1, 64) | st.sampled_from([2 ** 53, 2 ** 53 + 1, 10 ** 400]), "d")
    m = data.draw(st.none() | st.integers(1, 2) | st.integers(-1, 0), "m")
    # half the draws give just the flags the family reads, half any of them
    flags = data.draw(st.sampled_from(BOUNDS_READS[family])
                      | st.lists(st.sampled_from(FLOAT_FLAGS), unique=True), "flags")
    # --flag=value, so that the parser takes a negative value too
    argv = ["bounds", "--family", family, "--d", str(d),
            *(f"{flag}={data.draw(FLAG_VALUE, flag)!r}" for flag in flags)]
    if m is not None:
        argv.append(f"--m={m}")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2), argv
    if code == 2:
        flag_named = any(flag in err.getvalue() for flag in ("--d", "--m", *FLOAT_FLAGS))
        assert out.getvalue() == "" and flag_named, argv
    else:
        payload = json.loads(out.getvalue(), parse_constant=_reject_constant)
        assert err.getvalue() == "" and payload["value"] > 0.0, argv
        # the optimum over b reports the protocol its m names
        kind = {1: "ecs-linear", 2: "ecs-nonlinear"}[m or 1] if family == "ecs-optimal" else family
        assert payload["kind"] == kind, argv
        assert payload["regime"] in ("interior", "clamped", "n/a"), argv


def _reject_constant(name):
    """json.loads hook for Infinity, -Infinity and NaN, which are not JSON."""
    raise AssertionError(f"bounds printed {name}")


class TestRegionCommand:
    def test_csv_structure_and_claims(self, capsys, tmp_path):
        out_file = tmp_path / "region.csv"
        code, _, _ = run_cli(capsys, "region", "--m", "1", "--d-min", "1",
                             "--d-max", "10", "--alpha-min", "2.5",
                             "--alpha-max", "4.0", "--alpha-steps", "16",
                             "--out", str(out_file))
        assert code == 0
        with out_file.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["d", "alpha", "m", "b_star", "sqrt_gamma", "interior"]
        cells = rows[1:]
        assert len(cells) == 10 * 16
        assert all(cell[5] == "1" for cell in cells)
        assert all(float(c[3]) <= float(c[4]) for c in cells)

    def test_forced_d_steps_keeps_cell_count(self, capsys):
        code, out, _ = run_cli(capsys, "region", "--d-min", "1", "--d-max", "4",
                               "--d-steps", "7", "--alpha-min", "1.0",
                               "--alpha-max", "2.0", "--alpha-steps", "5")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) - 1 == 7 * 5

    def test_d_steps_sample_inside_the_range(self, capsys):
        # every d up to 2^53 is an exact double, so np.linspace between the
        # ends, rounded monotonically, stays inside them
        d_min, d_max = 2 ** 53 - 10, 2 ** 53
        code, out, err = run_cli(capsys, "region", "--d-min", str(d_min), "--d-max", str(d_max),
                                 "--d-steps", "7", "--alpha-steps", "2")
        assert (code, err) == (0, "")
        ds = [int(row[0]) for row in list(csv.reader(io.StringIO(out)))[1:]]
        assert len(ds) == 14 and ds[::2] == ds[1::2] and ds[0] == d_min and ds[-1] == d_max
        assert all(d_min <= d <= d_max for d in ds)
        # the last d on its own row, without --d-steps
        code, single, _ = run_cli(capsys, "region", "--d-min", str(ds[-1]), "--d-max", str(ds[-1]),
                                  "--alpha-steps", "2")
        assert code == 0 and single.splitlines()[1:] == out.splitlines()[-2:]

    def test_rejects_nonpositive_alpha(self, capsys):
        code, _, err = run_cli(capsys, "region", "--alpha-min", "0.0")
        assert code == 2 and "alpha-min" in err

    def test_rejects_zero_alpha_steps(self, capsys):
        code, out, err = run_cli(capsys, "region", "--alpha-steps", "0")
        assert code == 2 and "--alpha-steps" in err and out == ""

    def test_rejects_zero_d_steps(self, capsys):
        code, out, err = run_cli(capsys, "region", "--d-steps", "0")
        assert code == 2 and "--d-steps" in err and out == ""

    @pytest.mark.parametrize("grid,cells", [
        (("--d-max", "25001", "--alpha-steps", "400"), 10_000_400),
        (("--d-max", "5", "--d-steps", "10001", "--alpha-steps", "1000"), 10_001_000),
    ])
    def test_rejects_a_grid_over_the_cell_limit_up_front(self, capsys, grid, cells):
        # 10^7 cells admits the README's 4 x 10^5-cell sweep 25 times over
        _domain.check(cells=4 * 10 ** 5)
        _domain.check(cells=10 ** 7)
        code, out, err = run_cli(capsys, "region", *grid)
        assert (code, out) == (2, "")
        assert err.startswith(
            f"error: region cells must be a positive int <= 10000000, got {cells} (at ")
        assert " ".join(grid[:2]) in err and " ".join(grid[-2:]) in err

    def test_rejects_empty_d_range(self, capsys):
        code, out, err = run_cli(capsys, "region", "--d-min", "5", "--d-max", "1")
        assert code == 2 and "--d-max" in err and out == ""

    def test_rejects_zero_d_min(self, capsys):
        code, out, err = run_cli(capsys, "region", "--d-min", "0")
        assert code == 2 and out == ""
        assert err == "error: --d-min must be a positive int <= 9007199254740992, got 0\n"

    # each end is judged by its row first, the order of the two ends after
    @pytest.mark.parametrize("alpha_min,alpha_max,message", [
        ("3", "1", "--alpha-max must be >= --alpha-min"),
        ("0.01", "-1", "--alpha-max must be > 0 with a finite, nonzero square, got -1.0"),
        ("0.01", "nan", "--alpha-max must be > 0 with a finite, nonzero square, got nan"),
    ], ids=["3-1", "0.01--1", "0.01-nan"])
    def test_rejects_descending_alpha_range(self, capsys, alpha_min, alpha_max, message):
        code, out, err = run_cli(capsys, "region", "--d-max", "2", "--alpha-min", alpha_min,
                                 "--alpha-max", alpha_max, "--alpha-steps", "3")
        assert code == 2 and out == "" and err == f"error: {message}\n"

    def test_rejects_zero_m(self, capsys):
        code, out, err = run_cli(capsys, "region", "--m", "0")
        assert code == 2 and out == ""
        assert err == "error: --m must be a positive int <= 109, got 0\n"

    @pytest.mark.parametrize("alpha_min", ["0", "-1", "1e-170"])
    def test_alpha_min_needs_a_nonzero_square(self, capsys, alpha_min):
        # 1e-170 is > 0, but its square underflows to the vacuum
        code, out, err = run_cli(capsys, "region", "--alpha-min", alpha_min)
        assert code == 2 and out == ""
        assert err == ("error: --alpha-min must be > 0 with a finite, nonzero square, "
                       f"got {float(alpha_min)!r}\n")

    def test_underflowing_moment_ratio_warns_nothing(self, capsys, recwarn):
        # f(m)^2 underflows here; the b-domain cap 1/(u - v^2) overflows first
        code, out, err = run_cli(capsys, "region", "--alpha-min", "1e-160",
                                 "--alpha-max", "1e-150")
        assert code == 2 and out == ""
        assert err.startswith("error: moment ratio undefined at mu="), err
        assert not recwarn.list, [str(w.message) for w in recwarn.list]


class TestCurvesCommand:
    def test_header_and_ordering_claims(self, capsys):
        code, out, _ = run_cli(capsys, "curves", "--d", "5", "--ntot-min", "1",
                               "--ntot-max", "100", "--points", "100")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["n_tot", "ecs_linear", "noon_linear", "ecs_nonlinear",
                          "noon_nonlinear", "ecs_mean_photons_exact"]
        data = [[float(x) for x in row] for row in rows[1:]]
        assert len(data) == 100
        for n_tot, ecs_l, noon_l, ecs_nl, noon_nl, mean in data:
            assert ecs_l < noon_l
            assert ecs_nl < ecs_l      # quadratic generator beats linear
            assert abs(mean - n_tot) < 0.35 * n_tot
        large = [row for row in data if row[0] >= 50.0]
        assert all(0.95 <= row[1] / row[2] <= 1.0 for row in large)

    def test_crossing_visible_in_output(self, capsys):
        code, out, _ = run_cli(capsys, "curves", "--d", "5", "--ntot-min", "1",
                               "--ntot-max", "2", "--points", "101")
        rows = [[float(x) for x in r] for r in list(csv.reader(io.StringIO(out)))[1:]]
        signs = [row[1] < row[4] for row in rows]  # ecs_linear < noon_nonlinear
        golden = (1 + math.sqrt(5.0)) / 2.0
        flips = [(a[0], b[0]) for a, b in zip(rows, rows[1:])
                 if (a[1] < a[4]) != (b[1] < b[4])]
        assert len(flips) == 1
        assert flips[0][0] <= golden <= flips[0][1]
        assert signs[0] and not signs[-1]

    def test_seventeen_digit_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "curves", "--d", "3", "--ntot-min", "1",
                               "--ntot-max", "3", "--points", "7")
        rows = list(csv.reader(io.StringIO(out)))[1:]
        from phasebounds import bounds
        for row in rows:
            n_tot = float(row[0])
            assert float(row[1]) == bounds.ecs_linear_value(3, n_tot)
            assert float(row[2]) == bounds.noon_linear_value(3, n_tot)
            assert float(row[3]) == bounds.ecs_nonlinear_value(3, n_tot)
            assert float(row[4]) == bounds.noon_nonlinear_value(3, n_tot)

    @staticmethod
    def _assert_one_output(capsys, m, d, alpha, fmt):
        """ecs-linear (ecs-nonlinear) prints the bytes and exit code of ecs-optimal --m 1 (2)."""
        family = "ecs-linear" if m == 1 else "ecs-nonlinear"
        printed = {run_cli(capsys, "bounds", "--family", *argv, "--d", str(d),
                           "--alpha", repr(alpha), "--format", fmt)[:2]
                   for argv in ((family,), ("ecs-optimal", "--m", str(m)))}
        assert len(printed) == 1 and printed.pop()[0] == 0

    @pytest.mark.parametrize("m,d,alpha", [(1, 5, 2.0), (1, 1, 0.3), (1, 17, 3.0), (1, 64, 6.5),
                                           (2, 5, 3.0), (2, 17, 4.0), (2, 64, 6.5)])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_one_value_per_interior_quantity(self, capsys, m, d, alpha, fmt):
        assert states.domain_geometry(d, m, alpha * alpha).interior
        self._assert_one_output(capsys, m, d, alpha, fmt)

    @pytest.mark.parametrize("m,d,alpha", [(1, 5, 1.0), (1, 17, 0.5), (1, 64, 2.0),
                                           (2, 5, 1.0), (2, 1, 0.3), (2, 64, 3.0)])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_one_value_per_clamped_quantity(self, capsys, m, d, alpha, fmt):
        assert not states.domain_geometry(d, m, alpha * alpha).interior
        self._assert_one_output(capsys, m, d, alpha, fmt)

    def test_byte_identical_across_chunk_sizes(self, capsys, monkeypatch, tmp_path):
        outputs = []
        for chunk in (1, cli.CHUNK):
            monkeypatch.setattr(cli, "CHUNK", chunk)
            path = tmp_path / f"curves_{chunk}.csv"
            code, _, _ = run_cli(capsys, "curves", "--d", "5", "--points", "50",
                                 "--out", str(path))
            assert code == 0
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]

    def test_region_byte_identical_across_runs(self, capsys, tmp_path):
        outputs = []
        for run in (1, 2):
            path = tmp_path / f"region_{run}.csv"
            code, _, _ = run_cli(capsys, "region", "--d-min", "1", "--d-max", "12",
                                 "--alpha-min", "0.2", "--alpha-max", "3.0",
                                 "--alpha-steps", "40", "--out", str(path))
            assert code == 0
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]

    def test_rejects_zero_d(self, capsys):
        code, out, err = run_cli(capsys, "curves", "--d", "0")
        assert code == 2 and out == ""
        assert err == "error: --d must be a positive int <= 9007199254740992, got 0\n"

    def test_rejects_descending_ntot_range(self, capsys):
        code, out, err = run_cli(capsys, "curves", "--ntot-min", "5", "--ntot-max", "1",
                                 "--points", "3")
        assert code == 2 and "--ntot-max must be >= --ntot-min" in err and out == ""


# Reference values: the scalar formulas each sweep column comes from, written
# out with math and Python floats in the same order of operations.

def _touchard(m, mu):
    row = [1]
    for n in range(1, m + 1):  # Stirling numbers of the second kind, S(n, k)
        row = [0] + [k * (row[k] if k < n else 0) + row[k - 1] for k in range(1, n + 1)]
    total, power = 0.0, 1.0
    for coefficient in row:
        total += coefficient * power
        power *= mu
    return total


def _geometry(d, m, mu):
    gamma = 1.0 / (d * (-math.expm1(-mu)) * (1.0 + d * math.exp(-mu)))
    g = _touchard(2 * m, mu) / (_touchard(m, mu) * _touchard(m, mu))
    return gamma, math.sqrt(g / (math.sqrt(d) + d))


def _region_ref(d, alpha, m):
    gamma, b_star = _geometry(d, m, alpha * alpha)
    return [str(d), format(alpha, ".17g"), str(m), format(b_star, ".17g"),
            format(math.sqrt(gamma), ".17g"), "1" if b_star * b_star <= gamma else "0"]


def _curves_ref(d, n):
    scale = d * (math.sqrt(d) + 1.0) ** 2 / 4.0
    gamma, b_star = _geometry(d, 1, n)
    b = min(b_star, math.sqrt(gamma))
    v = d * math.exp(-n)
    denom = d * (-math.expm1(-n)) * (1.0 + d * math.exp(-n))
    c = -b * v + math.sqrt(max(1.0 - b * b * denom, 0.0))

    def coherent(m):  # scale / (g f(2m)) on the Touchard moments at alpha_sq = n
        f_m, f_2m = _touchard(m, n), _touchard(2 * m, n)
        return scale / (f_2m / (f_m * f_m) * f_2m)

    values = (n, coherent(1), scale / n ** 2, coherent(2), scale / n ** 4,
              n * (d * b * b + c * c))
    return [format(x, ".17g") for x in values]


def _largest_with_finite_power(power: int) -> float:
    """The largest double whose power-th power math.pow gives as a finite double."""
    def finite_power(x):
        try:
            return math.isfinite(math.pow(x, power))
        except OverflowError:
            return False
    top = math.pow(sys.float_info.max, 1.0 / power)
    while not finite_power(top):
        top = math.nextafter(top, 0.0)
    while finite_power(math.nextafter(top, math.inf)):
        top = math.nextafter(top, math.inf)
    return top


def _smallest_alpha_with_nonzero_fourth_power() -> float:
    """The smallest double alpha with (alpha alpha)^2 > 0: f(m)^2 of m = 1 and, as
    f(2) = mu + mu^2 is mu there, of m = 2 too."""
    def nonzero(a):
        return (a * a) * (a * a) > 0.0
    low = math.sqrt(math.sqrt(5e-324) * math.sqrt(0.5))
    while not nonzero(low):
        low = math.nextafter(low, math.inf)
    while nonzero(math.nextafter(low, 0.0)):
        low = math.nextafter(low, 0.0)
    return low


def _sweep_numbers(text: str, fmt: str) -> list[float]:
    """Every number a sweep wrote; JSON NaN or Infinity fails the test."""
    if fmt == "csv":
        return [float(x) for row in list(csv.reader(io.StringIO(text)))[1:] for x in row]
    rows = json.loads(text, parse_constant=_reject_constant)
    return [float(x) for row in rows for x in row.values()]


class TestSweepKernel:
    @pytest.mark.parametrize("m", [1, 2])
    def test_region_fields_equal_scalar_formulas(self, capsys, m):
        code, out, _ = run_cli(capsys, "region", "--m", str(m), "--d-min", "1",
                               "--d-max", "64", "--d-steps", "9", "--alpha-min", "0.01",
                               "--alpha-max", "4.5", "--alpha-steps", "301")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        ds = [int(round(x)) for x in np.linspace(1, 64, 9)]
        alphas = np.linspace(0.01, 4.5, 301).tolist()
        assert len(rows) == len(ds) * len(alphas)
        for i, row in enumerate(rows):
            assert row == _region_ref(ds[i // len(alphas)], alphas[i % len(alphas)], m)

    def test_curves_fields_equal_scalar_formulas(self, capsys):
        code, out, _ = run_cli(capsys, "curves", "--d", "17", "--ntot-min", "1",
                               "--ntot-max", "437.25", "--points", "5000")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        axis = np.linspace(1.0, 437.25, 5000).tolist()
        assert rows == [_curves_ref(17, n) for n in axis]

    def test_chunked_equals_whole_grid(self, tmp_path, monkeypatch):
        # region: one 2-D call, one call per d-row, one per slice of a d-row and
        # one scalar call per cell, at row lengths 1, 7 and 1000; curves: chunks of 1 point up to the whole axis
        def table(chunks, name):
            path = tmp_path / name
            cli._write_table(str(path), "csv", ["x"] * 6, chunks)
            return path.read_bytes()

        for ds, steps in (([3], 1), ([1, 2, 5, 40], 7), ([1, 17, 64], 1000)):
            alphas = np.linspace(0.01, 4.0, steps)
            for m in (1, 2):
                rows = table(cli._region_chunks(ds, alphas, m), "rows")
                geom = states.domain_geometry(np.array(ds)[:, None], m, alphas * alphas)
                whole = table([(np.repeat(ds, steps), np.tile(alphas, len(ds)),
                                np.full(len(ds) * steps, m), geom.b_star.ravel(),
                                np.sqrt(geom.gamma_cap).ravel(), geom.interior.ravel())], "whole")
                assert rows == whole
                cells = [(d, a, states.domain_geometry(d, m, a * a)) for d in ds
                         for a in alphas.tolist()]
                singles = table([([d], [a], [m], [g.b_star], [math.sqrt(g.gamma_cap)],
                                  [g.interior]) for d, a, g in cells], "singles")
                assert rows == singles
                for size in (1, 7):  # slices of a d-row
                    with monkeypatch.context() as patch:
                        patch.setattr(cli, "CHUNK", size)
                        assert table(cli._region_chunks(ds, alphas, m), "sliced") == whole
        axis = np.linspace(1.0, 300.0, 1500)
        outputs = set()
        for size in (1, 7, 1024, 1500):
            monkeypatch.setattr(cli, "CHUNK", size)
            outputs.add(table(cli._curves_chunks(5, axis), f"curves{size}"))
        assert len(outputs) == 1

    @pytest.mark.parametrize("argv", [
        ("region", "--d-min", "1", "--d-max", "100", "--d-steps", "{rows}",
         "--alpha-steps", "1000"),
        ("curves", "--d", "5", "--ntot-max", "500", "--points", "{cells}"),
        ("region", "--d-min", "1", "--d-max", "1", "--alpha-steps", "{cells}"),
    ])
    def test_json_peak_memory_is_flat_in_grid_size(self, tmp_path, argv):
        peaks = []
        for cells in (10_000, 40_000):
            args = [a.format(rows=cells // 1000, cells=cells) for a in argv]
            path = tmp_path / "out.json"
            tracemalloc.start()
            try:
                assert main([*args, "--format", "json", "--out", str(path)]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert len(json.loads(path.read_text())) == cells
        assert peaks[1] - peaks[0] < 2 * 2 ** 20, peaks

    @pytest.mark.parametrize("argv", [
        ("region", "--m", "1", "--d-max", "3", "--alpha-steps", "5000"),
        ("region", "--m", "2", "--d-max", "3", "--alpha-steps", "5000"),
        ("curves", "--d", "5", "--points", "5000"),
    ])
    def test_json_is_json_dumps_of_the_csv_values(self, capsys, argv):
        # rows of 5000 cells: full chunks, then a short last one
        assert cli.CHUNK < 5000 and 5000 % cli.CHUNK
        code, text, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        rows = json.loads(text)
        same = json.dumps(rows) + "\n" == text  # a bool: pytest's diff of 1 MB lines is slow
        assert same, text[:300]
        code, table, _ = run_cli(capsys, *argv)
        header, *fields = list(csv.reader(io.StringIO(table)))
        assert code == 0 and [list(row) for row in rows] == [header] * len(fields)
        assert [list(row.values()) for row in rows] == [list(map(float, f)) for f in fields]

    @pytest.mark.parametrize("d", [1, 2, 64, 2 ** 53])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_cells_at_the_axis_extremes_are_finite(self, capsys, d, fmt):
        # a JSON float is written by float.__repr__, which spells a non-finite
        # value nan or inf where json.dumps writes NaN or Infinity: no cell is
        # one, at the lowest alpha whose f(m)^2 is nonzero and at the ends
        # whose power the kernels form is finite
        low = _smallest_alpha_with_nonzero_fourth_power()
        argvs = [("region", "--m", str(m), "--d-min", str(d), "--d-max", str(d),
                  "--alpha-min", repr(low),
                  "--alpha-max", repr(_largest_with_finite_power(4 * m)),
                  "--alpha-steps", "300") for m in (1, 2)]
        argvs.append(("curves", "--d", str(d), "--ntot-min", "1",
                      "--ntot-max", repr(_largest_with_finite_power(4)), "--points", "300"))
        for argv in argvs:
            code, out, err = run_cli(capsys, *argv, "--format", fmt)
            assert (code, err) == (0, ""), argv
            numbers = _sweep_numbers(out, fmt)
            assert len(numbers) == 6 * 300 and all(map(math.isfinite, numbers)), argv
        below = ("region", "--d-min", str(d), "--d-max", str(d),
                 "--alpha-min", repr(math.nextafter(low, 0.0)))
        code, out, err = run_cli(capsys, *below, "--format", fmt)
        assert code == 2 and out == "" and "f(m)^2 = 0" in err

    @pytest.mark.parametrize("argv", [
        ("region", "--m", "2", "--alpha-max", "1e200"),
        ("region", "--d-max", "5", "--alpha-max", "inf"),
        # f(2m) overflows above alpha ~ 1.03, far inside the finite alpha^(4m)
        ("region", "--m", "109", "--d-max", "2", "--alpha-steps", "50"),
        # f(m)^2 underflows at the low end; a grid over the cell limit
        ("region", "--alpha-min", "1e-160", "--alpha-max", "1e-150"),
        ("region", "--d-max", "25001"),
        ("curves", "--d", "5", "--ntot-max", "1e200"),
        ("curves", "--d", "5", "--ntot-max", "inf"),
        # f(4) overflows at this end while f(2) does not: ecs_nonlinear decides
        ("curves", "--d", "5", "--ntot-max", "1e100"),
    ])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_failed_sweep_writes_nothing(self, capsys, tmp_path, argv, fmt):
        path = tmp_path / "out"
        code, out, err = run_cli(capsys, *argv, "--format", fmt)
        assert code == 2 and out == "" and "error" in err
        code, out, err = run_cli(capsys, *argv, "--format", fmt, "--out", str(path))
        assert code == 2 and out == "" and "error" in err
        assert not path.exists()

    @pytest.mark.parametrize("argv,calls", [
        # the cells at the two alpha ends, then 3 d-rows of 3 blocks
        (("region", "--d-max", "3", "--alpha-steps", "7"), 1 + 3 * 3),
        (("region", "--d-max", "4", "--d-steps", "2", "--alpha-steps", "4"), 1 + 2 * 2),
        # the points at the two n_tot ends, then 3 blocks
        (("curves", "--points", "7"), 1 + 3),
    ])
    def test_each_sweep_runs_its_kernel_once(self, capsys, monkeypatch, argv, calls):
        # one states.domain_geometry call per block of cells written, and one,
        # in both sweeps, on the two axis ends before the output is opened
        monkeypatch.setattr(cli, "CHUNK", 3)
        seen = []
        kernel = states.domain_geometry

        def counted(*args):
            seen.append(args)
            return kernel(*args)

        monkeypatch.setattr(states, "domain_geometry", counted)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out.count("\n") > 1
        assert len(seen) == calls, seen

    @pytest.mark.parametrize("argv,name", [
        (("bounds", "--family", "ecs-linear", "--d", "5", "--alpha", "2"), "x.json"),
        (("region", "--d-max", "2", "--alpha-steps", "3"), "r.csv"),
    ])
    def test_unwritable_out_exits_2(self, capsys, tmp_path, argv, name):
        path = tmp_path / "missing" / name
        code, out, err = run_cli(capsys, *argv, "--out", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: cannot write output: "), err
        assert not path.parent.exists()

    @pytest.mark.parametrize("argv,flag,value,rule", [
        (("region", "--m", "2"), "--alpha-max", "1e200", "> 0 with a finite, nonzero square"),
        (("region", "--d-max", "5"), "--alpha-max", "inf", "> 0 with a finite, nonzero square"),
        (("region",), "--alpha-min", "inf", "> 0 with a finite, nonzero square"),
        (("curves",), "--ntot-max", "inf", "finite and >= 1"),
    ], ids=["alpha-max-1e200", "alpha-max-inf", "alpha-min-inf", "ntot-max-inf"])
    def test_axis_end_outside_its_row_names_the_flag(self, capsys, recwarn, argv, flag,
                                                     value, rule):
        code, out, err = run_cli(capsys, *argv, flag, value)
        assert (code, out, err) == (2, "", f"error: {flag} must be {rule}, got {float(value)!r}\n")
        assert not recwarn.list, [str(w.message) for w in recwarn.list]

    @pytest.mark.parametrize("argv,flag,value,m", [
        (("curves", "--d", "5", "--points", "5"), "--ntot-max", "1e200", 2),
        (("curves", "--d", "5", "--points", "5"), "--ntot-max", "1e100", 4),
        (("region", "--m", "2"), "--alpha-max", "1e50", 4),
        (("region", "--m", "1"), "--alpha-max", "1e100", 2),
    ], ids=["ntot-max-1e200", "ntot-max-1e100", "m2-alpha-max-1e50", "m1-alpha-max-1e100"])
    def test_overflowing_axis_end_is_the_kernel_error(self, capsys, recwarn, argv, flag,
                                                      value, m):
        # a finite end inside its row whose moment overflows: the kernel's
        # message at the axis end, naming every flag read
        code, out, err = run_cli(capsys, *argv, flag, value)
        assert code == 2 and out == ""
        assert err.startswith(f"error: coherent_number_moment overflows for m={m}, "), err
        assert " (at --" in err and f" {flag} {float(value)!r}" in err, err
        assert not recwarn.list, [str(w.message) for w in recwarn.list]

    @pytest.mark.parametrize("argv,flag,power", [
        (("curves", "--d", "3", "--points", "2"), "--ntot-max", 4),
        (("region", "--m", "1", "--d-max", "3", "--alpha-steps", "2"), "--alpha-max", 4),
        (("region", "--m", "2", "--d-max", "3", "--alpha-steps", "2"), "--alpha-max", 8),
    ])
    def test_axis_check_is_the_kernel_limit(self, capsys, argv, flag, power):
        # the largest end whose power is finite runs; the next double is rejected by name
        top = _largest_with_finite_power(power)
        code, out, err = run_cli(capsys, *argv, flag, repr(top))
        assert code == 0 and err == "" and out.count("\n") > 1
        code, out, err = run_cli(capsys, *argv, flag, repr(math.nextafter(top, math.inf)))
        assert code == 2 and out == "" and flag in err


class TestVerifyCommand:
    def test_moments_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "moments")
        assert code == 0
        assert "[PASS] moments/closed_vs_poisson" in out

    def test_a_faulty_headline_fails_verify(self, capsys, monkeypatch):
        exact = bounds._headline
        monkeypatch.setattr(bounds, "_headline",
                            lambda d, moments: exact(d, moments) * (1.0 + 1e-9))
        code, out, err = run_cli(capsys, "verify", "--suite", "bounds")
        lines = out.splitlines()
        failed = [line for line in lines if line.startswith("[FAIL] ")]
        assert code == 1 and err == ""
        assert any(line.startswith("[FAIL] bounds/headline_values  ") for line in failed)
        assert lines[-1] == f"{len(lines) - 1 - len(failed)}/{len(lines) - 1} checks passed"

    def test_unknown_tolerance_rejected(self, capsys):
        # no tolerance is set from the command line: --tol is not an option
        with pytest.raises(SystemExit) as info:
            main(["verify", "--tol", "x=1"])
        out, err = capsys.readouterr()
        assert info.value.code == 2 and out == ""
        assert "unrecognized arguments: --tol x=1" in err

    def test_zero_tolerance_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "moments")
        assert code == 0
        assert "[PASS] moments/printed_coefficients  max_discrepancy=0.000e+00  tolerance=0" in out

    def test_negative_seed_names_the_flag(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--suite", "moments", "--seed", "-1")
        assert code == 2 and out == ""
        assert err == "error: --seed must be an int >= 0, got -1\n"

    def test_seeded_report_is_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, "verify", "--suite", "optimizer", "--seed", "7")
        _, second, _ = run_cli(capsys, "verify", "--suite", "optimizer", "--seed", "7")
        assert first == second


def test_cli_import_loads_no_scipy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = ("import sys, phasebounds.cli; "
            "print(sorted(m for m in sys.modules if m.startswith(('scipy', 'sympy')) "
            "or m == 'concurrent.futures'))")
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120, check=True)
    assert result.stdout.strip() == "[]"


# every bounds family, json and csv, the cap itself, the clamped optimum and an error exit
SCALAR_ARGVS = [
    *[[*argv, "--format", fmt] for fmt in ("json", "csv") for argv in (
        ["bounds", "--family", "ecs-linear", "--d", "5", "--alpha", "2"],
        ["bounds", "--family", "ecs-nonlinear", "--d", "5", "--alpha", "3"],
        ["bounds", "--family", "ecs-optimal", "--d", "5", "--m", "2", "--alpha", "2"],
        ["bounds", "--family", "ecs-at-b", "--d", "5", "--alpha", "2", "--b", "0.2"],
        ["bounds", "--family", "noon-linear", "--d", "5", "--N", "4"],
        ["bounds", "--family", "noon-nonlinear", "--d", "5", "--N", "4"],
        ["bounds", "--family", "independent-ecs", "--d", "5", "--n-tot", "30"],
        ["bounds", "--family", "independent-noon", "--d", "5", "--n-tot", "30"],
        ["bounds", "--family", "zzb-ecs", "--d", "5", "--alpha", "2"],
        ["bounds", "--family", "zzb-noon", "--d", "5", "--N", "4"],
    )],
    # b = sqrt(Gamma) as computed: inside the cap, so it exits 0
    ["bounds", "--family", "ecs-at-b", "--d", "5", "--alpha", "0.01",
     "--b", "18.258635775173552"],
    ["bounds", "--family", "ecs-linear", "--d", "5", "--alpha", "1"],
    ["bounds", "--family", "ecs-linear", "--d", "5", "--alpha", "0"],
]


def test_scalar_commands_load_no_numpy():
    # `import phasebounds`, `import phasebounds.cli` and every bounds family run
    # without NumPy; region, curves and verify load it and still run
    code = f"""
import contextlib, io, json, sys
def numpy_modules():
    return sorted(m for m in sys.modules if m == "numpy" or m.startswith("numpy."))
def run(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)
seen = {{}}
import phasebounds
seen["import phasebounds"] = numpy_modules()
from phasebounds import cli
seen["import phasebounds.cli"] = numpy_modules()
for argv in {SCALAR_ARGVS!r}:
    seen[" ".join(argv)] = [run(argv), numpy_modules()]
exits = [run(["region", "--d-max", "3", "--alpha-steps", "4"]),
         run(["curves", "--d", "3", "--points", "4"]),
         run(["verify", "--suite", "moments"])]
print(json.dumps({{"seen": seen, "exits": exits, "numpy": "numpy" in sys.modules}}))
"""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120, check=True)
    report = json.loads(result.stdout)
    seen = report.pop("seen")
    assert seen.pop("import phasebounds") == [] and seen.pop("import phasebounds.cli") == []
    exits = {argv: got[0] for argv, got in seen.items()}
    assert list(exits.values()) == [0] * 22 + [2], exits
    assert {argv: got[1] for argv, got in seen.items() if got[1]} == {}
    assert report == {"exits": [0, 0, 0], "numpy": True}


# what generating record classes at import time would load: dataclasses and
# the modules it imports to read source and compile methods
CODEGEN_MODULES = ("dataclasses", "inspect", "ast", "dis", "tokenize")


@pytest.mark.parametrize("flags,absent", [
    ((), CODEGEN_MODULES),
    # without the site hooks, which may import typing themselves
    (("-S",), (*CODEGEN_MODULES, "typing")),
], ids=["site", "no-site"])
def test_bounds_loads_no_codegen_or_typing(flags, absent):
    # `import phasebounds`, `import phasebounds.cli` and one bounds run per
    # family: the records are plain classes and annotations stay strings
    code = f"""
import contextlib, io, json, sys
import phasebounds
from phasebounds import cli
exits = []
for argv in {SCALAR_ARGVS[:10]!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        exits.append(cli.main(argv))
print(json.dumps({{"exits": exits, "loaded": [m for m in {absent!r} if m in sys.modules]}}))
"""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, *flags, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120, check=True)
    assert json.loads(result.stdout) == {"exits": [0] * 10, "loaded": []}
