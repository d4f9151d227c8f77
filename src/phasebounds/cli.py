"""Command-line front end: single bound values, figure-style sweeps, verification.

Subcommands
-----------
bounds   one bound value as JSON (or CSV)
region   attainability partition over (d, alpha) as CSV (or JSON)
curves   the interior headline bounds against the total photon number as CSV (or JSON)
verify   oracle-equivalence suites; exit 1 on any failed check

Exit codes: 0 ok, 1 verification failure, 2 usage or domain error.  One
writer formats every table through a printf template per chunk: CSV numerics
carry 17 significant digits (an exact round trip), JSON equals json.dumps.  Sweeps
run the array kernels one chunk of at most `CHUNK` rows at a time (a slice
of a `region` d-row, a slice of the `curves` axis) and write each chunk as
it is made, so memory stays flat as the grid grows, in both dimensions of a
`region` grid.  Each chunk is evaluated once, as it is written.  Before any
command runs, one pass judges every numeric flag given by its domain row,
naming the first outside it in the parser's order, then each sweep axis by
its order (its end >= its start).  A limit joining several flags is left to
the kernel: each sweep first evaluates the points at its axis ends (alpha in
`region`, n_tot in `curves`), which raise any error of its grid, so a sweep
that fails on any cell writes nothing.  NumPy is
imported by `region` and `curves`, and with the oracle by `verify`; `bounds`
runs the kernels on Python numbers and never loads it.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Iterable, Iterator, Sequence
from contextlib import contextmanager

from . import _domain, bounds, states
from .errors import PhaseBoundsError

__all__ = ["main"]

REGION_HEADER = ("d", "alpha", "m", "b_star", "sqrt_gamma", "interior")
CURVES_HEADER = ("n_tot", "ecs_linear", "noon_linear", "ecs_nonlinear",
                 "noon_nonlinear", "ecs_mean_photons_exact")
# rows per sweep chunk, region and curves alike: enough that NumPy's per-call
# cost is small next to the work, few enough that a chunk's text stays small
CHUNK = 2048


@contextmanager
def _output(path: str | None) -> Iterator:
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", newline="") as fh:
            yield fh


# printf conversion of a field by its type, as CSV and as json.dumps writes it
# (a float by float.__repr__, a flag as the word false or true)
_CONVERSIONS = {"csv": {str: "%s", bool: "%d", int: "%d", float: "%.17g"},
                "json": {bool: "%s", int: "%d", float: "%r"}}


def _write_table(path: str | None, fmt: str, header: Sequence[str],
                 chunks: Iterable[Sequence]) -> None:
    """Write a table as CSV or as a JSON list of objects, each chunk of columns
    through one printf template.  A column is an array, a list, or one Python
    number that every row of its chunk shares, written into the template once.
    No CSV field needs quoting, and the JSON bytes equal json.dumps of the list."""
    conversions, json_out = _CONVERSIONS[fmt], fmt == "json"
    joiner = ", " if json_out else ""
    with _output(path) as out:
        out.write("[" if json_out else ",".join(header) + "\n")
        sep = ""
        for columns in chunks:
            fields, read = [], []
            for name, column in zip(header, columns):
                column = column.tolist() if hasattr(column, "tolist") else column
                constant = type(column) is not list
                kind = type(column if constant else column[0])
                if json_out and kind is bool:
                    column = [("false", "true")[flag] for flag in column]
                field = conversions[kind]
                if constant:
                    field %= column
                else:
                    read.append(column)
                fields.append(f'"{name}": {field}' if json_out else field)
            template = "{%s}" % ", ".join(fields) if json_out else ",".join(fields) + "\n"
            out.write(sep + joiner.join(map(template.__mod__, zip(*read))))
            sep = joiner
        if json_out:
            out.write("]\n")


def _report_payload(report: bounds.BoundReport) -> dict:
    return {"kind": report.kind, "value": report.value,
            "regime": report.regime.value, "params": dict(report.params)}


def _emit_report(report: bounds.BoundReport, fmt: str, out: str | None) -> None:
    if fmt == "json":
        with _output(out) as stream:
            stream.write(json.dumps(_report_payload(report), sort_keys=True) + "\n")
        return
    keys = sorted(report.params)
    row = (report.kind, report.regime.value, report.value,
           *(report.params[k] for k in keys))
    _write_table(out, "csv", ["kind", "regime", "value"] + keys, [[[x] for x in row]])


# What each `bounds` family reads besides --d, and the bound it reports from
# those values: (family, flags by argparse dest, report).  --m is optional (default 1) and
# comes last.  independent-ecs has two rows: it reads --n-tot when that is
# given, --alpha otherwise.
_FAMILIES = (
    ("ecs-linear", ("alpha",), lambda d, a: bounds.minimize_bound_over_b(d, 1, a * a)),
    ("ecs-nonlinear", ("alpha",), lambda d, a: bounds.minimize_bound_over_b(d, 2, a * a)),
    ("ecs-optimal", ("alpha", "m"), lambda d, a, m=1: bounds.minimize_bound_over_b(d, m, a * a)),
    ("ecs-at-b", ("alpha", "b", "m"), lambda d, a, b, m=1: bounds.qcrb_ecs_at_b(d, m, a * a, b)),
    ("noon-linear", ("N",), bounds.qcrb_noon_linear),
    ("noon-nonlinear", ("N",), bounds.qcrb_noon_nonlinear),
    ("independent-ecs", ("n_tot",), bounds.independent_ecs_vs_ntot),
    ("independent-ecs", ("alpha",), lambda d, a: bounds.qcrb_independent_ecs(d, a * a)),
    ("independent-noon", ("n_tot",), bounds.qcrb_independent_noon),
    ("zzb-ecs", ("alpha",), lambda d, a: bounds.zzb_ecs(d, a * a)),
    ("zzb-noon", ("N",), bounds.zzb_noon),
)
_FAMILY_NAMES = list(dict.fromkeys(fam for fam, _, _ in _FAMILIES))


# The domain row each numeric flag reads, keyed by argparse dest: a dest that
# names a row reads it, an axis end reads its axis's row, a step count the count row
_ROWS = {"d": "d", "alpha": "alpha", "N": "N", "n_tot": "n_tot", "m": "m", "b": "b",
         "d_min": "d", "d_max": "d", "d_steps": "count", "alpha_min": "alpha",
         "alpha_max": "alpha", "alpha_steps": "count", "ntot_min": "N", "ntot_max": "N",
         "points": "points", "seed": "seed"}
# each sweep axis as its (low, high) ends
_AXES = (("alpha_min", "alpha_max"), ("d_min", "d_max"), ("ntot_min", "ntot_max"))


def _option(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _numeric_flags(args: argparse.Namespace) -> dict:
    """Every numeric flag given and its value, by dest, in the parser's order (argparse
    sets each dest in the order its option was added), as `_naming` shows them."""
    return {dest: v for dest, v in vars(args).items() if dest in _ROWS and v is not None}


def _check_flags(args: argparse.Namespace) -> None:
    """Exit 2 unless every numeric flag given lies in its domain row, naming the first
    outside it: `--m must be a positive int <= 109, got 110`.  An alpha is squared
    before use, so its square must lie in the alpha_sq row too.  Then each sweep axis
    must end at or above its start."""
    given = _numeric_flags(args)
    for dest, value in given.items():
        row = _ROWS[dest]
        try:
            _domain.check(**{row: value})
            if row == "alpha":
                _domain.check(alpha_sq=value * value)
        except ValueError:
            rule = "> 0 with a finite, nonzero square" if row == "alpha" else _domain.rule(row)
            raise PhaseBoundsError(f"{_option(dest)} must be {rule}, got {value!r}")
    for low, high in _AXES:
        if low in given and given[high] < given[low]:
            raise PhaseBoundsError(f"{_option(high)} must be >= {_option(low)}")


@contextmanager
def _naming(given: dict) -> Iterator[None]:
    """Re-raise any error of the block naming each flag read: `... (at --d 3 --alpha 2.0)`."""
    try:
        yield
    except Exception as exc:
        shown = " ".join(f"{_option(flag)} {value!r}" for flag, value in given.items())
        raise PhaseBoundsError(f"{exc} (at {shown})") from exc


def _unread(flag: str, family: str, flags: Sequence[str]) -> PhaseBoundsError:
    """The error for a flag given to a family that does not read it."""
    readers = list(dict.fromkeys(fam for fam, read, _ in _FAMILIES if flag in read))
    if family in readers:
        return PhaseBoundsError(
            f"{_option(flag)} and {_option(flags[0])} are alternatives for family "
            f"{family}; give one")
    *rest, last = readers
    names = f"families {', '.join(rest)} and {last}" if rest else f"family {last}"
    return PhaseBoundsError(f"{_option(flag)} applies to {names} only, not {family}")


def _bounds_report(args: argparse.Namespace) -> bounds.BoundReport:
    """Require the family's flags, reject flags it does not read, then report; each
    flag given is in its domain row already.  A value that is not a positive finite
    double (0.0 where the bound underflows), or a param that is not finite, exits 2,
    keeping the message of an overflow the package named but not Python's bare
    arithmetic errors."""
    family = args.family
    rows = [(flags, report) for fam, flags, report in _FAMILIES if fam == family]
    row = next((row for row in rows if getattr(args, row[0][0]) is not None), None)
    if row is None:
        needed = " or ".join(_option(flags[0]) for flags, _ in rows)
        raise PhaseBoundsError(f"{needed} is required for family {family}")
    flags, report = row
    given = {"d": args.d}
    for flag in flags:
        value = getattr(args, flag)
        if value is not None:
            given[flag] = value
        elif flag != "m":
            raise PhaseBoundsError(f"{_option(flag)} is required for family {family}")
    for flag in ("m", "alpha", "N", "n_tot", "b"):
        if flag not in flags and getattr(args, flag) is not None:
            raise _unread(flag, family, flags)
    with _naming(given):
        try:
            result = report(*given.values())
            if 0.0 < result.value < math.inf and all(map(math.isfinite, result.params.values())):
                return result
            named = ""
        except (ZeroDivisionError, OverflowError) as exc:
            named = f": {exc}" if isinstance(exc, PhaseBoundsError) else ""
        raise PhaseBoundsError(f"the bound is not a positive finite double{named}")


def cmd_bounds(args: argparse.Namespace) -> int:
    _emit_report(_bounds_report(args), args.format, args.out)
    return 0


def _blocks(axis) -> Iterator:
    """Consecutive slices of a sweep axis, CHUNK points each (the last may be shorter)."""
    return (axis[start:start + CHUNK] for start in range(0, len(axis), CHUNK))


def _region_chunks(d_values: Sequence[int], alphas, m: int) -> Iterator[tuple]:
    """Columns of the region table, each d-row in blocks of at most CHUNK cells."""
    import numpy as np

    for d in d_values:
        for block in _blocks(alphas):
            geom = states.domain_geometry(d, m, block * block)
            yield (d, block, m, geom.b_star, np.sqrt(geom.gamma_cap), geom.interior)


def _curves_chunks(d: int, axis) -> Iterator[tuple]:
    """Columns of the curves table, in blocks of at most CHUNK points.

    The coherent probe's photon number is the axis value itself; the exact
    mean uses the optimal weight clamped to the cap.
    """
    import numpy as np

    for n_tot in _blocks(axis):
        geom = states.domain_geometry(d, 1, n_tot)
        b_used = np.minimum(geom.b_star, np.sqrt(geom.gamma_cap))
        exact_mean = states.mean_total_photons(states.ecs_params(d, n_tot, b_used))
        yield (n_tot,
               bounds.ecs_linear_value(d, n_tot),
               bounds.noon_linear_value(d, n_tot),
               bounds.ecs_nonlinear_value(d, n_tot),
               bounds.noon_nonlinear_value(d, n_tot),
               exact_mean)


def cmd_region(args: argparse.Namespace) -> int:
    import numpy as np

    with _naming(_numeric_flags(args)):
        # the grid's size is checked before anything is allocated, and d is a
        # lazy range, or sampled between its ends, exact doubles, so the samples
        # stay inside them, and rounded to integers (repeats keep the requested
        # product)
        rows = args.d_max - args.d_min + 1 if args.d_steps is None else args.d_steps
        _domain.check(cells=rows * args.alpha_steps)
        d_values = (range(args.d_min, args.d_max + 1) if args.d_steps is None else
                    [int(round(x)) for x in np.linspace(args.d_min, args.d_max, args.d_steps)])
        alphas = np.linspace(args.alpha_min, args.alpha_max, args.alpha_steps)
        # a cell raises by alpha alone, on a tail of the axis (f(m)^2 underflows
        # at the low end, a moment overflows at the high end), so the two end
        # cells raise any error of the grid, in the kernel's own order, before
        # the output is opened
        list(_region_chunks([args.d_min], alphas[[0, -1]], args.m))
    _write_table(args.out, args.format, REGION_HEADER,
                 _region_chunks(d_values, alphas, args.m))
    return 0


def cmd_curves(args: argparse.Namespace) -> int:
    import numpy as np

    with _naming(_numeric_flags(args)):
        axis = np.linspace(args.ntot_min, args.ntot_max, args.points)
        # as in region: a point raises by n_tot alone, a moment overflowing on
        # the high tail of the axis, so its two ends raise any error of the sweep
        list(_curves_chunks(args.d, axis[[0, -1]]))
    _write_table(args.out, args.format, CURVES_HEADER, _curves_chunks(args.d, axis))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from . import verify

    results = verify.run_suite(args.suite, seed=args.seed)
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

    b = sub.add_parser("bounds", help="evaluate one bound, printed as JSON or CSV")
    b.add_argument("--family", required=True, choices=_FAMILY_NAMES)
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
    v.add_argument("--suite", choices=list(_domain.SUITE_NAMES) + ["all"], default="all")
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(func=cmd_verify)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_flags(args)
        return args.func(args)
    except (PhaseBoundsError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
