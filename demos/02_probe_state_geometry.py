"""Geometry of the entangled coherent probe's branch coefficient.

The probe b sum_j |alpha>_j + c |alpha>_0 has overlapping branches, so
normalization caps the sensing weight at b^2 <= Gamma = 1/(u - v^2).  The
variance bound prefers b = b_star = sqrt(g/(sqrt d + d)), which may or may
not fit under the cap: this script walks the transition and confirms with
the truncated-Fock oracle that solved coefficients really normalize the
state.
"""

import math


from phasebounds import (
    b_domain_limit,
    b_star,
    ecs_params,
    mean_total_photons,
    overlaps,
    region_classify,
)
from phasebounds import oracle

d = 5
print(f"branch-weight geometry for d = {d}, linear generator:")
print(f"{'alpha':>6} {'b_star':>9} {'sqrt(Gamma)':>12} {'reachable':>10}")
for alpha in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0):
    cell = region_classify(d, alpha, 1)
    print(f"{alpha:>6} {cell.b_star:>9.5f} {cell.sqrt_gamma:>12.5f} "
          f"{'yes' if cell.interior else 'no':>10}")

print("\nonce alpha is large the cap tends to 1/d and b_star to 1/sqrt(d + sqrt d):")
print("  Gamma(5, alpha_sq=49) =", b_domain_limit(5, 49.0), " vs 1/5")
print("  b_star(5, 1, alpha_sq=1e6) =", b_star(5, 1, 1e6),
      " vs", 1.0 / math.sqrt(5 + math.sqrt(5)))

print("\noracle check: c solved from the quadratic keeps <psi|psi> = 1")
alpha_sq = 2.0
cutoff = oracle.minimal_cutoff(alpha_sq, 1e-13) + 2
u, v, _ = overlaps(d, alpha_sq)
print(f"  u = {u:.6f}, v = {v:.6f}")
for frac in (0.0, 0.3, 0.7, 0.999):
    b = frac * math.sqrt(b_domain_limit(d, alpha_sq))
    p = ecs_params(d, alpha_sq, b)
    norm = oracle.norm_sq(oracle.build_state(p, cutoff))
    print(f"  b = {b:.5f}  c = {p.c:+.5f}  <psi|psi> - 1 = {norm - 1.0:+.2e}")

p = ecs_params(5, 16.0, b_star(5, 1, 16.0))
print("\nmean total photons at the optimal weight, alpha_sq = 16:",
      f"{mean_total_photons(p):.8f}  (within ~1e-6 of alpha_sq)")
