"""Quantum Fisher information of the probes under commuting local generators.

For both probe families the d x d information matrix has the two-scalar form

    F = gamma (I + omega J),    J_jk = 1 for all j, k,

because every sensing mode enters symmetrically.  Using J^2 = d J the
inverse is closed form,

    F^{-1} = (1/gamma) (I - omega/(1 + omega d) J),

and the eigenvalues are gamma (multiplicity d-1) and gamma (1 + omega d),
so inversion, traces and definiteness tests are all O(1).  Dense matrices
appear only for cross-checks against the brute-force oracle.  The families
differ only in the excited branch's moments (f(m), f(2m), g), NOON's being
(N^m, N^{2m}, 1), so ``probe_qfim`` is one body for both, and Tr(F^{-1}) is
written once, in ``trace_inverse_value``, for the probe bound and every bound over b.
"""

from __future__ import annotations

from ._arrays import all_true, first_failing
from ._record import Record, set_field
from .errors import DegenerateInputError, SingularMatrixError
from .moments import coherent_moments, noon_moments
from .states import EcsParams, NoonParams

__all__ = [
    "StructuredQfim",
    "probe_qfim",
    "ecs_qfim",
    "noon_qfim",
    "qfim_inverse",
    "to_dense",
    "trace_inverse_bound",
    "trace_inverse_value",
    "effective_qfi_2param",
]

# read by type checkers only: NumPy is imported where an array is made
TYPE_CHECKING = False
if TYPE_CHECKING:
    import numpy as np


class StructuredQfim(Record):
    """d x d matrix gamma (I + omega J) stored by its two scalars."""

    __slots__ = ("d", "gamma", "omega")

    def __init__(self, d: int, gamma: float, omega: float) -> None:
        set_field(self, "d", d)
        set_field(self, "gamma", gamma)
        set_field(self, "omega", omega)

    @property
    def diagonal(self) -> float:
        return self.gamma * (1.0 + self.omega)

    @property
    def off_diagonal(self) -> float:
        return self.gamma * self.omega


def _sensing(p: EcsParams | NoonParams) -> tuple:
    """(b^2, f(2m), g): all the information matrix reads of a probe, the one
    place each family supplies its moments."""
    if p.b == 0.0:
        raise DegenerateInputError(
            "b = 0 leaves the sensing branches empty: information matrix is zero")
    _, f_2m, g = (noon_moments(p.m, float(p.photon_number)) if isinstance(p, NoonParams)
                  else coherent_moments(p.m, p.alpha_sq))
    return p.b * p.b, f_2m, g


def probe_qfim(p: EcsParams | NoonParams) -> StructuredQfim:
    """Either probe's F_jk = 4 [delta_jk b^2 f(2m) - b^4 f(m)^2]:
    gamma = 4 b^2 f(2m), omega = -b^2/g (for NOON 4 b^2 N^{2m} and -b^2)."""
    b_sq, f_2m, g = _sensing(p)
    return StructuredQfim(d=p.d, gamma=4.0 * b_sq * f_2m, omega=-b_sq / g)


ecs_qfim = noon_qfim = probe_qfim  # the family names callers use


def qfim_inverse(f: StructuredQfim) -> StructuredQfim:
    """Closed-form structured inverse.

    Singular exactly when 1 + omega d = 0, where the uniform eigenvector has
    zero eigenvalue; for the coherent probe that is the weight b^2 = g/d at
    which the total-variance bound diverges.
    """
    if f.gamma == 0.0:
        raise SingularMatrixError("gamma = 0: matrix is identically zero")
    denom = 1.0 + f.omega * f.d
    if denom == 0.0:
        raise SingularMatrixError("1 + omega d = 0: structured matrix is singular")
    return StructuredQfim(d=f.d, gamma=1.0 / f.gamma, omega=-f.omega / denom)


def to_dense(f: StructuredQfim) -> np.ndarray:
    """Dense realization: diagonal gamma(1 + omega), off-diagonal gamma omega."""
    import numpy as np

    out = np.full((f.d, f.d), f.off_diagonal, dtype=float)
    np.fill_diagonal(out, f.diagonal)
    return out


def trace_inverse_value(d, f_2m, g, b_sq):
    """Tr(F^{-1}) = d/(4 f(2m)) (1/b^2 + 1/(g - b^2 d)), elementwise over b_sq.

    Defined for 0 < b^2 < g/d; both endpoints are excluded because the bound
    diverges there, and callers optimizing over b must treat them as such.
    """
    ok = b_sq * d < g
    if not all_true(ok):
        raise SingularMatrixError(
            f"b^2 = {first_failing(b_sq, ok):.12g} >= g/d = {first_failing(g / d, ok):.12g}: "
            "information matrix singular or indefinite, bound undefined")
    return d / (4.0 * f_2m) * (1.0 / b_sq + 1.0 / (g - b_sq * d))


def trace_inverse_bound(p: EcsParams | NoonParams) -> float:
    """Total-variance lower bound Tr(F^{-1}) of a probe (see trace_inverse_value)."""
    b_sq, f_2m, g = _sensing(p)
    return trace_inverse_value(p.d, f_2m, g, b_sq)


def effective_qfi_2param(f: np.ndarray) -> float:
    """Effective scalar information det(F)/Tr(F) for the two-parameter case.

    Satisfies Tr(F^{-1}) = 1/F_e when d = 2.
    """
    import numpy as np

    a = np.asarray(f, dtype=float)
    if a.shape != (2, 2):
        raise ValueError(f"effective QFI is defined for 2x2 matrices, got shape {a.shape}")
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    tr = a[0, 0] + a[1, 1]
    if not (det > 0.0 and a[0, 0] > 0.0):
        raise SingularMatrixError(f"matrix is not positive definite (det={det:.3e})")
    return det / tr
