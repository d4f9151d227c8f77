"""Command-line front end: single bound values, figure-style sweeps, verification.

Subcommands
-----------
bounds   one bound value as JSON (or CSV)
region   attainability partition over (d, alpha) as CSV
curves   the four optimized bounds against the total photon number as CSV
verify   oracle-equivalence suites; exit 1 on any failed check

Exit codes: 0 ok, 1 verification failure, 2 usage or domain error.  CSV
numerics carry 17 significant digits so values round-trip exactly.  Sweeps
run the array kernels one chunk at a time (a d-row of `region`, a block of
points of `curves`) and write each chunk as it is made, so memory stays
flat as the grid grows.  Every chunk is evaluated once before the output is
opened, so a sweep that fails on any cell writes nothing.  NumPy is
imported by `region` and `curves`, and with the oracle by `verify`; `bounds`
runs the kernels on Python numbers and never loads it.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager
from itertools import repeat
from typing import Callable, Iterable, Iterator, Sequence

from . import bounds, states
from ._arrays import minimum, sqrt
from ._suites import SUITE_NAMES
from .errors import PhaseBoundsError
from .qfim import trace_inverse_bound

__all__ = ["main"]

REGION_HEADER = ("d", "alpha", "m", "b_star", "sqrt_gamma", "interior")
CURVES_HEADER = ("n_tot", "ecs_linear", "noon_linear", "ecs_nonlinear",
                 "noon_nonlinear", "ecs_mean_photons_exact")
# points per curves chunk: enough that NumPy's per-call cost is small next to
# the work, few enough that a chunk's JSON row objects stay at a few MB
CURVES_CHUNK = 2048


@contextmanager
def _output(path: str | None) -> Iterator:
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", newline="") as fh:
            yield fh


def _csv_conversion(value) -> str:
    """printf conversion of one CSV field: text as is, ints and flags as
    integers (True is 1), floats with 17 significant digits."""
    if isinstance(value, str):
        return "%s"
    if isinstance(value, int):
        return "%d"
    return "%.17g"


def _write_table(path: str | None, fmt: str, header: Sequence[str],
                 chunks: Iterable[list[tuple]]) -> None:
    """Write rows of Python values as CSV or as a JSON list of objects, chunk by chunk.

    Every field is a number or a fixed name, so no CSV field needs quoting.
    JSON chunks are joined with ", ", so the bytes equal json.dumps of the
    whole list.
    """
    with _output(path) as out:
        if fmt == "csv":
            out.write(",".join(header) + "\n")
            for rows in chunks:
                template = ",".join(map(_csv_conversion, rows[0])) + "\n"
                out.write("".join(map(template.__mod__, rows)))
            return
        out.write("[")
        sep = ""
        for rows in chunks:
            out.write(sep + json.dumps([dict(zip(header, row)) for row in rows])[1:-1])
            sep = ", "
        out.write("]\n")


def _rows(columns: Sequence) -> list[tuple]:
    """Row tuples of Python values from a chunk's columns (arrays, or repeat() constants)."""
    return list(zip(*(c.tolist() if hasattr(c, "tolist") else c for c in columns)))


def _write_sweep(args: argparse.Namespace, header: Sequence[str],
                 chunks: Callable[[], Iterable[Sequence]]) -> None:
    """Evaluate every chunk once, so any check fails before output exists, then write."""
    for _ in chunks():
        pass
    _write_table(args.out, args.format, header, map(_rows, chunks()))


def _report_payload(report: bounds.BoundReport) -> dict:
    return {"kind": report.kind.value, "value": report.value,
            "regime": report.regime.value, "params": dict(report.params)}


def _emit_report(report: bounds.BoundReport, fmt: str, out: str | None) -> None:
    if fmt == "json":
        with _output(out) as stream:
            stream.write(json.dumps(_report_payload(report), sort_keys=True) + "\n")
        return
    keys = sorted(report.params)
    row = (report.kind.value, report.regime.value, report.value,
           *(report.params[k] for k in keys))
    _write_table(out, "csv", ["kind", "regime", "value"] + keys, [[row]])


# The values each numeric `bounds` flag accepts: the ranges the kernels
# enforce, checked here so that the message names the flag and the value
# given.  `--alpha` is squared before use, so its square must stay finite
# and nonzero too.
_BOUNDS_RANGES = {
    "alpha": (lambda a: a > 0.0 and 0.0 < a * a < math.inf,
              "> 0 with a finite, nonzero square"),
    "N": (lambda n: 1.0 <= n < math.inf, "finite and >= 1"),
    "n-tot": (lambda n: 0.0 < n < math.inf, "finite and > 0"),
    "b": (lambda b: 0.0 <= b < math.inf, "finite and >= 0"),
}


def _require(args: argparse.Namespace, flag: str, family: str) -> float:
    value = getattr(args, flag.replace("-", "_"))
    if value is None:
        raise PhaseBoundsError(f"--{flag} is required for family {family}")
    accepts, rule = _BOUNDS_RANGES[flag]
    if not accepts(value):
        raise PhaseBoundsError(f"--{flag} must be {rule}, got {value!r}")
    return value


def _require_positive(flag: str, value: int) -> int:
    if value < 1:
        raise PhaseBoundsError(f"{flag} must be >= 1")
    return value


def _bounds_report(args: argparse.Namespace) -> bounds.BoundReport:
    family = args.family
    _require_positive("--d", args.d)
    m = 1
    if args.m is not None:
        m = _require_positive("--m", args.m)
        if family not in ("ecs-optimal", "ecs-at-b"):
            raise PhaseBoundsError(
                f"--m applies to families ecs-optimal and ecs-at-b only, not {family}")
    if family in ("ecs-linear", "ecs-nonlinear", "zzb-ecs", "ecs-optimal", "ecs-at-b"):
        alpha = _require(args, "alpha", family)
        alpha_sq = alpha * alpha
        if family == "ecs-linear":
            return bounds.qcrb_ecs_linear(args.d, alpha_sq)
        if family == "ecs-nonlinear":
            return bounds.qcrb_ecs_nonlinear(args.d, alpha_sq)
        if family == "zzb-ecs":
            return bounds.zzb_ecs(args.d, alpha_sq)
        if family == "ecs-optimal":
            return bounds.minimize_bound_over_b(args.d, m, alpha_sq)
        b = _require(args, "b", family)
        p = states.ecs_params(args.d, alpha_sq, b, m)
        return bounds.BoundReport(value=trace_inverse_bound(p),
                                  kind=bounds.BoundKind.GENERAL_ECS_AT_B,
                                  regime=bounds.Regime.NOT_APPLICABLE,
                                  params={"d": args.d, "m": m,
                                          "alpha_sq": alpha_sq, "b": b})
    if family == "noon-linear":
        return bounds.qcrb_noon_linear(args.d, _require(args, "N", family))
    if family == "noon-nonlinear":
        return bounds.qcrb_noon_nonlinear(args.d, _require(args, "N", family))
    if family == "zzb-noon":
        return bounds.zzb_noon(args.d, _require(args, "N", family))
    if family == "independent-ecs":
        if args.n_tot is not None:
            return bounds.independent_ecs_vs_ntot(args.d, _require(args, "n-tot", family))
        alpha = _require(args, "alpha", family)
        return bounds.qcrb_independent_ecs(args.d, alpha * alpha)
    if family == "independent-noon":
        return bounds.qcrb_independent_noon(args.d, _require(args, "n-tot", family))
    raise PhaseBoundsError(f"unknown family {family!r}")


def cmd_bounds(args: argparse.Namespace) -> int:
    _emit_report(_bounds_report(args), args.format, args.out)
    return 0


def _region_chunks(d_values: Sequence[int], alphas, m: int) -> Iterator[tuple]:
    """Columns of the region table, one d-row per chunk."""
    for d in d_values:
        cell = bounds.region_classify(d, alphas, m)
        yield (repeat(d), alphas, repeat(m), cell.b_star, cell.sqrt_gamma, cell.interior)


def _curves_chunks(d: int, axis) -> Iterator[tuple]:
    """Columns of the curves table, CURVES_CHUNK points per chunk.

    The coherent probe's photon number is the axis value itself; the exact
    mean uses the optimal weight clamped to the cap.
    """
    for start in range(0, len(axis), CURVES_CHUNK):
        n_tot = axis[start:start + CURVES_CHUNK]
        geom = states.domain_geometry(d, 1, n_tot)
        b_used = minimum(geom.b_star, sqrt(geom.gamma_cap))
        exact_mean = states.mean_total_photons(states.ecs_params(d, n_tot, b_used))
        yield (n_tot,
               bounds.ecs_linear_value(d, n_tot),
               bounds.noon_linear_value(d, n_tot),
               bounds.ecs_nonlinear_value(d, n_tot),
               bounds.noon_nonlinear_value(d, n_tot),
               exact_mean)


def _check_axis_end(flag: str, value: float, power: int) -> None:
    """Reject an axis end whose given power is not finite, before np.linspace.

    The sweep kernels raise the axis to this power (the moments f(2m) of
    alpha^2 in `region`, n_tot^4 in the quadratic bounds of `curves`), so a
    larger end could only fail later, in a message that does not name the
    flag, and np.linspace itself warns on inf.
    """
    try:
        finite = math.isfinite(math.pow(value, power))
    except OverflowError:
        finite = False
    if not finite:
        raise PhaseBoundsError(
            f"{flag} must be finite with a finite {power}th power "
            f"(at most {math.pow(sys.float_info.max, 1.0 / power):.6g}), got {value:g}")


def cmd_region(args: argparse.Namespace) -> int:
    import numpy as np

    power = 4 * _require_positive("--m", args.m)
    if not args.alpha_min > 0:
        raise PhaseBoundsError("--alpha-min must be > 0")
    _check_axis_end("--alpha-min", args.alpha_min, power)
    _check_axis_end("--alpha-max", args.alpha_max, power)
    if not args.alpha_max >= args.alpha_min:
        raise PhaseBoundsError("--alpha-max must be >= --alpha-min")
    _require_positive("--alpha-steps", args.alpha_steps)
    if args.d_steps is not None:
        _require_positive("--d-steps", args.d_steps)
    _require_positive("--d-min", args.d_min)
    if args.d_max < args.d_min:
        raise PhaseBoundsError("--d-max must be >= --d-min")
    if args.d_steps is None:
        d_values = list(range(args.d_min, args.d_max + 1))
    else:
        # rounded to integers; repeats keep the cell count at the requested product
        d_values = [int(round(x)) for x in
                    np.linspace(args.d_min, args.d_max, args.d_steps)]
    alphas = np.linspace(args.alpha_min, args.alpha_max, args.alpha_steps)
    _write_sweep(args, REGION_HEADER, lambda: _region_chunks(d_values, alphas, args.m))
    return 0


def cmd_curves(args: argparse.Namespace) -> int:
    import numpy as np

    _require_positive("--d", args.d)
    if args.points < 2:
        raise PhaseBoundsError("--points must be >= 2")
    if not args.ntot_min >= 1.0:
        raise PhaseBoundsError("--ntot-min must be >= 1")
    if not args.ntot_max >= args.ntot_min:
        raise PhaseBoundsError("--ntot-max must be >= --ntot-min")
    _check_axis_end("--ntot-max", args.ntot_max, 4)
    axis = np.linspace(args.ntot_min, args.ntot_max, args.points)
    _write_sweep(args, CURVES_HEADER, lambda: _curves_chunks(args.d, axis))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from . import verify

    if args.seed < 0:
        raise PhaseBoundsError(f"--seed must be >= 0, got {args.seed}")
    overrides = {}
    for item in args.tol:
        name, _, value = item.partition("=")
        if not value:
            raise PhaseBoundsError(f"--tol takes NAME=VALUE, got {item!r}")
        if name not in verify.DEFAULT_TOLERANCES:
            raise PhaseBoundsError(f"unknown tolerance {name!r}")
        try:
            tol = float(value)
        except ValueError:
            tol = math.nan
        if not 0.0 <= tol < math.inf:
            raise PhaseBoundsError(f"--tol {name} must be a finite number >= 0, got {value!r}")
        suite = name.partition(".")[0]
        if args.suite not in ("all", suite):
            raise PhaseBoundsError(
                f"--tol {name} sets a {suite} check, which --suite {args.suite} does not run")
        overrides[name] = tol
    results = verify.run_suite(args.suite, seed=args.seed, tolerances=overrides)
    for result in results:
        print(result.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phasebounds",
        description="Precision bounds for simultaneous multimode phase estimation")
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bounds", help="evaluate one bound, printed as JSON")
    b.add_argument("--family", required=True,
                   choices=["ecs-linear", "ecs-nonlinear", "ecs-optimal", "ecs-at-b",
                            "noon-linear", "noon-nonlinear", "independent-ecs",
                            "independent-noon", "zzb-ecs", "zzb-noon"])
    b.add_argument("--d", type=int, required=True, help="number of phases")
    b.add_argument("--alpha", type=float, help="coherent amplitude |alpha|")
    b.add_argument("--N", type=float, help="NOON photon number")
    b.add_argument("--n-tot", type=float, help="mean total photon number")
    b.add_argument("--m", type=int,
                   help="generator order, for ecs-optimal/ecs-at-b only (default 1)")
    b.add_argument("--b", type=float, help="sensing coefficient (ecs-at-b)")
    b.add_argument("--format", choices=["json", "csv"], default="json")
    b.add_argument("--out", help="output path (default: stdout)")
    b.set_defaults(func=cmd_bounds)

    r = sub.add_parser("region", help="attainability partition over (d, alpha)")
    r.add_argument("--m", type=int, default=1)
    r.add_argument("--d-min", type=int, default=1)
    r.add_argument("--d-max", type=int, default=100)
    r.add_argument("--d-steps", type=int, default=None,
                   help="d samples (default: every integer in range)")
    r.add_argument("--alpha-min", type=float, default=0.01)
    r.add_argument("--alpha-max", type=float, default=4.0)
    r.add_argument("--alpha-steps", type=int, default=400)
    r.add_argument("--format", choices=["csv", "json"], default="csv")
    r.add_argument("--out", help="output path (default: stdout)")
    r.set_defaults(func=cmd_region)

    c = sub.add_parser("curves", help="optimized bounds against total photon number")
    c.add_argument("--d", type=int, default=5)
    c.add_argument("--ntot-min", type=float, default=1.0)
    c.add_argument("--ntot-max", type=float, default=100.0)
    c.add_argument("--points", type=int, default=200)
    c.add_argument("--format", choices=["csv", "json"], default="csv")
    c.add_argument("--out", help="output path (default: stdout)")
    c.set_defaults(func=cmd_curves)

    v = sub.add_parser("verify", help="run oracle-equivalence suites")
    v.add_argument("--suite", choices=list(SUITE_NAMES) + ["all"], default="all")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--tol", action="append", default=[], metavar="NAME=VALUE",
                   help="override one tolerance (repeatable)")
    v.set_defaults(func=cmd_verify)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PhaseBoundsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
