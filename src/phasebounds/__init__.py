"""Precision bounds for simultaneous multimode optical phase estimation.

A bounds engine for estimating d phase shifts at once in a (d+1)-mode
interferometer fed with entangled coherent or NOON probe states.  The
package computes the quantum Cramer-Rao bound on the total estimation
variance in closed form, optimizes it over the probe's branch coefficient
under the normalization constraint, evaluates independent-estimation and
Bayesian (Ziv-Zakai) baselines, and cross-verifies everything against a
truncated-Fock-space oracle that builds the states and information
matrices from first principles.  The package namespace re-exports the
public names of the kernel modules, as each module's ``__all__`` lists them.
"""

from .bounds import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .moments import *  # noqa: F401,F403
from .qfim import *  # noqa: F401,F403
from .states import *  # noqa: F401,F403

__version__ = "0.1.0"
