#!/usr/bin/env python3
"""Print one SHA-256 of (exit code, stdout, stderr, output file) per CLI argv.

    python3 tools/output_digest.py SEED [SRC]

The argvs are the first 150 one-shot `bounds` ops and the first 12 sweep ops
that perfbench/mix.py draws for SEED, then a fixed list of edge cases.  Each
runs through `phasebounds.cli.main` from SRC (default: this tree's src/) in
this process, with stdout and stderr captured, so two trees' outputs compare
with one diff of this script's output.  argparse's exit is digested with its
code; a warning or any other exception stops the script, since the CLI lets
neither reach its user.

tests/data/output_digests.txt holds seed 1's digests, and a test replays
them; a change that moves output bytes regenerates it with

    python3 tools/output_digest.py 1 > tests/data/output_digests.txt
"""

import contextlib
import hashlib
import io
import itertools
import os
import sys
import tempfile
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import mix  # noqa: E402

EDGES = [
    *(["bounds", "--family", family, "--d", "3", flag, value]
      for family, flag in (("independent-noon", "--n-tot"), ("noon-linear", "--N"),
                           ("noon-nonlinear", "--N"), ("zzb-noon", "--N"))
      for value in ("1e150", "2e154", "1e300")),
    ["bounds", "--family", "zzb-ecs", "--d", "3", "--alpha", "2e77"],
    ["bounds", "--family", "zzb-ecs", "--d", "3", "--alpha", "1e150"],
    *(["bounds", "--family", "independent-noon", "--d", str(d), "--n-tot", "2e154"]
      for d in (2 ** 53, 2 ** 53 + 1)),
    ["bounds", "--family", "independent-ecs", "--d", "3", "--n-tot", "2e154", "--format", "csv"],
    ["bounds", "--family", "ecs-optimal", "--d", "5", "--alpha", "3", "--m", "2",
     "--format", "csv"],
    ["region", "--m", "2", "--d-max", "3", "--alpha-steps", "5000", "--format", "json"],
    *(["region", "--d-min", str(d), "--d-max", str(d), "--alpha-min",
       "1.2536856801856792e-81", "--alpha-steps", "7", "--format", "json"]
      for d in (2 ** 53, 2 ** 53 + 1)),
    ["region", "--m", "2", "--alpha-max", "1e200", "--format", "json"],
    ["curves", "--d", "5", "--points", "400"],
    ["region", "--m", "2", "--alpha-max", "3.4028236692093843e+38", "--alpha-steps", "300",
     "--format", "json"],
    ["curves", "--d", "64", "--ntot-max", "1.1579208923731618e+77", "--points", "5000",
     "--format", "json"],
    ["verify", "--suite", "all", "--seed", "7"],
    ["bounds", "--family", "independent-ecs", "--d", "3", "--n-tot", "1e300"],
    ["bounds", "--family", "noon-nonlinear", "--d", "3", "--N", "1.2e77"],
    # rows whose interior flag is decided by rounding
    *(["region", "--d-max", "2", "--alpha-min", "1e-9", "--alpha-max", "1e-9",
       "--alpha-steps", "2", "--format", fmt] for fmt in ("csv", "json")),
    # a cell error at each end of the alpha axis: f(2m) overflows above
    # alpha ~ 1.03 at m = 109, and f(m)^2 underflows below alpha ~ 1e-81
    ["region", "--m", "109", "--d-max", "2", "--alpha-steps", "50"],
    ["region", "--alpha-min", "1e-160", "--alpha-max", "1e-150"],
    # a moment overflowing at a finite high end: f(4) of n_tot = 1e100, and
    # f(4) of alpha^2 = 1e100 at m = 2
    ["curves", "--d", "5", "--ntot-max", "1e100", "--points", "5"],
    ["region", "--m", "2", "--d-max", "2", "--alpha-max", "1e50", "--alpha-steps", "3"],
    # a flag outside its row, named before any axis order or family rule
    ["region", "--alpha-max", "nan"],
    ["curves", "--ntot-max", "nan"],
    ["region", "--d-max", "0"],
    ["bounds", "--family", "ecs-linear", "--d", "3", "--alpha", "2", "--b", "-1"],
]


def argvs(seed: int, out: str) -> list:
    """Every argv digested for seed, those of sweeps writing to the path out."""
    return [*map(mix.bounds_argv, itertools.islice(mix.oneshot_ops(seed), 150)),
            *(mix.sweep_argv(op, out) for op in itertools.islice(mix.sweep_ops(seed), 12)),
            *EDGES]


def _run(argv: list) -> tuple:
    """(exit code, stdout, stderr) of the CLI on argv, as bytes."""
    from phasebounds import cli

    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with warnings.catch_warnings(), \
                contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            warnings.simplefilter("error")
            try:
                code = cli.main(argv)
            except SystemExit as exited:
                code = exited.code
    except Exception as exc:
        raise RuntimeError(f"the CLI raised or warned on {argv}") from exc
    return code, stdout.getvalue().encode(), stderr.getvalue().encode()


def digests(seed: int):
    """One `digest argv` line per argv, the output path shown as OUT."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        for argv in argvs(seed, out):
            result = _run(argv)
            written = None
            if os.path.exists(out):
                with open(out, "rb") as fh:
                    written = fh.read()
                os.unlink(out)
            digest = hashlib.sha256(repr((*result, written)).encode()).hexdigest()
            yield " ".join([digest, *("OUT" if a == out else a for a in argv)])


def main() -> None:
    seed = int(sys.argv[1])
    src = os.path.abspath(sys.argv[2] if len(sys.argv) > 2 else os.path.join(ROOT, "src"))
    sys.path.insert(0, src)
    for line in digests(seed):
        print(line, flush=True)


if __name__ == "__main__":
    main()
