"""Information matrix of the coherent probe and its O(1) inverse.

Because every sensing mode enters symmetrically, the d x d information
matrix is gamma (I + omega J) with J the all-ones matrix, and its inverse
is closed form.  This script builds the matrix two independent ways,
from analytic moments and from the truncated-Fock oracle, inverts it with
the structured formula, and checks the two-parameter effective-information
identity.  The oracle's one routine has two names (generator moments,
exact state-derivative overlaps, where d_j psi = i H_j psi), so its two
printed differences are equal.
"""

import numpy as np

from phasebounds import (
    ecs_params,
    ecs_qfim,
    effective_qfi_2param,
    qfim_inverse,
    to_dense,
    trace_inverse_bound,
)
from phasebounds import oracle

p = ecs_params(3, 1.0, 0.3, m=2)
analytic = to_dense(ecs_qfim(p))
numeric = oracle.numerical_qfim(p)
derivative = oracle.qfim_via_state_derivatives(p)

np.set_printoptions(precision=8, suppress=True)
print("probe:", p)
print("\nanalytic matrix:\n", analytic)
print("oracle (moment path) max |diff|: ", np.max(np.abs(numeric - analytic)))
print("oracle (derivative path) max |diff|:", np.max(np.abs(derivative - analytic)))

f = ecs_qfim(p)
inv = qfim_inverse(f)
print("\nstructured form: gamma =", f.gamma, " omega =", f.omega)
print("inverse:         gamma =", inv.gamma, " omega =", inv.omega)
print("product residual:", np.max(np.abs(to_dense(f) @ to_dense(inv) - np.eye(3))))
print("trace formula vs dense-inverse trace:",
      trace_inverse_bound(p), "vs", np.trace(np.linalg.inv(analytic)))

p2 = ecs_params(2, 4.0, 0.3)
f2 = to_dense(ecs_qfim(p2))
print("\ntwo-parameter identity: 1/F_e =", 1.0 / effective_qfi_2param(f2),
      " Tr(F^-1) =", trace_inverse_bound(p2))

print("\nattainability witness <[H_j, H_k]> across pairs:")
print("  max |commutator| =", max(
    abs(oracle.commutator_expectation(p, j, k))
    for j in range(1, 4) for k in range(1, 4)))
