import warnings

import numpy as np
import pytest

# A failing Hypothesis property imports this module to print its patch hint.
# libcst, which it loads, emits a DeprecationWarning that filterwarnings =
# "error" would raise inside pytest's report hook, ending the session with
# INTERNALERROR; import it once here with that warning ignored.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def rel_frobenius(a, b):
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)) / np.linalg.norm(np.asarray(b)))
