"""Names of the verify suites, kept apart from ``verify`` so that the CLI
can build its parser without importing the oracle or NumPy."""

SUITE_NAMES = ("moments", "normalization", "qfim", "optimizer", "bounds")
