"""The CLI's output bytes, pinned: a characterization ("golden master") test.

tools/output_digest.py replays its argvs for seed 1 (the benchmark's drawn
`bounds` and sweep ops, then its edge cases) and digests each one's exit
code, stdout, stderr and output file; tests/data/output_digests.txt holds
the digests this tree is expected to give.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
import output_digest  # noqa: E402

REGENERATE = "python3 tools/output_digest.py 1 > tests/data/output_digests.txt"


def _argv(line: str) -> str:
    return line.split(" ", 1)[1]


def test_output_bytes_equal_the_committed_digests():
    want = (ROOT / "tests" / "data" / "output_digests.txt").read_text().splitlines()
    got = list(output_digest.digests(1))
    assert list(map(_argv, got)) == list(map(_argv, want))
    moved = [_argv(line) for line, pinned in zip(got, want) if line != pinned]
    assert not moved, ("output bytes moved for:\n  " + "\n  ".join(moved) +
                       f"\nstate each in CHANGES.md, then regenerate: {REGENERATE}")
