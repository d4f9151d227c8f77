"""Information matrix of the coherent probe and its O(1) inverse.

Because every sensing mode enters symmetrically, the d x d information
matrix is gamma (I + omega J) with J the all-ones matrix, and its inverse
is closed form.  This script compares the analytic matrix with the
truncated-Fock oracle's two independent routes (the sparse probe's
generator moments, and the marginal of the dense amplitude tensor), inverts
it with the structured formula, and checks the two-parameter identity
Tr(F^-1) = Tr(F) / det(F).
"""

import numpy as np

from phasebounds import (
    ecs_params,
    ecs_qfim,
    qfim_inverse,
    to_dense,
    trace_inverse_bound,
)
from phasebounds import oracle

p = ecs_params(3, 1.0, 0.3, m=2)
analytic = to_dense(ecs_qfim(p))
numeric = oracle.numerical_qfim(p)
dense = oracle.dense_qfim(p, oracle.minimal_cutoff(p.alpha_sq, 1e-14) + 2 * p.m)

np.set_printoptions(precision=8, suppress=True)
print("probe:", p)
print("\nanalytic matrix:\n", analytic)
print("oracle (sparse route) max |diff|:", np.max(np.abs(numeric - analytic)))
print("oracle (dense route) max |diff|: ", np.max(np.abs(dense - analytic)))

f = ecs_qfim(p)
inv = qfim_inverse(f)
print("\nstructured form: gamma =", f.gamma, " omega =", f.omega)
print("inverse:         gamma =", inv.gamma, " omega =", inv.omega)
print("product residual:", np.max(np.abs(to_dense(f) @ to_dense(inv) - np.eye(3))))
print("trace formula vs dense-inverse trace:",
      trace_inverse_bound(p), "vs", np.trace(np.linalg.inv(analytic)))

p2 = ecs_params(2, 4.0, 0.3)
f2 = to_dense(ecs_qfim(p2))
print("\ntwo-parameter identity: Tr(F)/det(F) =", np.trace(f2) / np.linalg.det(f2),
      " Tr(F^-1) =", trace_inverse_bound(p2))
