"""Independent-estimation baselines and Bayesian (Ziv-Zakai) bounds.

Estimating the d phases one at a time costs a factor that grows linearly
in d compared to the simultaneous coherent probe at the same total photon
budget.  For phases treated as random variables under a wide uniform prior,
the Ziv-Zakai bounds lose that O(d) advantage but keep the coherent probe
ahead of the NOON probe at matched photon numbers.
"""


from phasebounds import (
    independent_ecs_vs_ntot,
    qcrb_independent_noon,
    zzb_ecs,
    zzb_noon,
)
from phasebounds.verify import o_of_d_advantage_fit

print("independent coherent baseline vs the NOON-probe baseline d^3/n_tot^2:")
for d in (2, 5, 10):
    for n_tot in (5.0, 20.0, 80.0):
        ecs = independent_ecs_vs_ntot(d, n_tot).value
        noon = qcrb_independent_noon(d, n_tot).value
        print(f"  d = {d:2d} n_tot = {n_tot:5.1f}: coherent {ecs:10.5g} "
              f"< NOON {noon:10.5g}")

print("\nO(d) advantage of simultaneous estimation (per-probe alpha_sq = 100,")
print("simultaneous probe granted the same total budget):")
c, residual, ratios = o_of_d_advantage_fit()
for d, ratio in zip((4, 8, 16, 32, 64), ratios):
    print(f"  d = {d:2d}: independent/simultaneous = {ratio:8.2f}   (fit {c:.3f} * d)")
print(f"  one-parameter fit residual: {residual:.2%}")

print("\nZiv-Zakai bounds (wide uniform prior), d = 5, matched photon numbers:")
print(f"{'photons':>8} {'coherent':>12} {'NOON':>12}")
for n in (4.0, 9.0, 16.0):
    print(f"{n:>8} {zzb_ecs(5, n).value:>12.5g} {zzb_noon(5, n).value:>12.5g}")

print("\nbranch structure: the first branch takes over at large d")
for d in (1, 3, 5, 50):
    r = zzb_noon(d, 10.0)
    which = "first" if r.value == r.params["branch_first"] else "second"
    print(f"  d = {d:2d}: max branch = {which}  value = {r.value:.5g}")
