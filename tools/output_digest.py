#!/usr/bin/env python3
"""Print one SHA-256 of (exit code, stdout, stderr, output file) per CLI argv.

    python3 tools/output_digest.py SEED [SRC]

The argvs are the first 150 one-shot `bounds` ops and the first 12 sweep ops
that perfbench/mix.py draws for SEED, then a fixed list of edge cases.  Each
runs as `python -m phasebounds.cli` from SRC (default: this tree's src/), so
two trees' outputs compare with one diff of this script's output.
"""

import hashlib
import itertools
import os
import subprocess
import sys
import tempfile

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
    ["bounds", "--family", "independent-noon", "--d", str(10 ** 122), "--n-tot", "1e200"],
    ["bounds", "--family", "independent-ecs", "--d", "3", "--n-tot", "2e154", "--format", "csv"],
    ["bounds", "--family", "ecs-optimal", "--d", "5", "--alpha", "3", "--m", "2",
     "--format", "csv"],
    ["region", "--m", "2", "--d-max", "3", "--alpha-steps", "5000", "--format", "json"],
    ["region", "--d-min", str(10 ** 150), "--d-max", str(10 ** 150), "--alpha-min",
     "1.2536856801856792e-81", "--alpha-steps", "7", "--format", "json"],
    ["region", "--m", "2", "--alpha-max", "1e200", "--format", "json"],
    ["curves", "--d", "5", "--points", "400"],
    ["region", "--m", "2", "--alpha-max", "3.4028236692093843e+38", "--alpha-steps", "300",
     "--format", "json"],
    ["curves", "--d", "64", "--ntot-max", "1.1579208923731618e+77", "--points", "5000",
     "--format", "json"],
    ["verify", "--suite", "all", "--seed", "7"],
    ["verify", "--suite", "moments", "--tol", "moments.closed_vs_poisson=1"],
    ["bounds", "--family", "independent-ecs", "--d", "3", "--n-tot", "1e300"],
    ["bounds", "--family", "noon-nonlinear", "--d", "3", "--N", "1.2e77"],
]


def main() -> None:
    seed = int(sys.argv[1])
    env = dict(os.environ, PYTHONPATH=os.path.abspath(
        sys.argv[2] if len(sys.argv) > 2 else os.path.join(ROOT, "src")))
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        argvs = [*map(mix.bounds_argv, itertools.islice(mix.oneshot_ops(seed), 150)),
                 *(mix.sweep_argv(op, out) for op in itertools.islice(mix.sweep_ops(seed), 12)),
                 *EDGES]
        for argv in argvs:
            run = subprocess.run([sys.executable, "-m", "phasebounds.cli", *argv],
                                 capture_output=True, env=env)
            written = None
            if os.path.exists(out):
                with open(out, "rb") as fh:
                    written = fh.read()
                os.unlink(out)
            digest = hashlib.sha256(repr((run.returncode, run.stdout, run.stderr, written))
                                    .encode()).hexdigest()
            print(digest, " ".join("OUT" if a == out else a for a in argv), flush=True)


if __name__ == "__main__":
    main()
