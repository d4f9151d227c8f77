"""The headline bounds of both probes against the total photon budget (d = 5).

Writes precision_curves.csv with the same columns as the ``curves`` CLI
subcommand and prints the landmarks: the coherent probe's linear bound sits
below the NOON linear bound everywhere, approaches it at large budgets, and
even undercuts the NOON *nonlinear* bound below n_tot = (1 + sqrt 5)/2.
Every column is one expression, d (sqrt d + 1)^2 / (4 g f(2m)), at the
coherent moment pair (f(2m), g) or at NOON's (N^{2m}, 1).  It is the interior
optimum; at small budgets the coherent optimum clamps, as the end shows.
"""

import math


from phasebounds import (
    ecs_linear_value,
    ecs_nonlinear_value,
    minimize_bound_over_b,
    noon_linear_value,
    noon_nonlinear_value,
)
from phasebounds.cli import main as cli_main

d = 5
golden = (1.0 + math.sqrt(5.0)) / 2.0

cli_main(["curves", "--d", str(d), "--ntot-min", "1", "--ntot-max", "100",
          "--points", "400", "--out", "precision_curves.csv"])
print("wrote precision_curves.csv (400 points, d = 5)")

print(f"\n{'n_tot':>6} {'coh m=1':>12} {'NOON m=1':>12} {'coh m=2':>12} {'NOON m=2':>12}")
for n in (1.0, golden, 2.0, 5.0, 20.0, 100.0):
    print(f"{n:>6.3f} {ecs_linear_value(d, n):>12.5g} {noon_linear_value(d, n):>12.5g} "
          f"{ecs_nonlinear_value(d, n):>12.5g} {noon_nonlinear_value(d, n):>12.5g}")

print(f"\ncrossing with the NOON nonlinear bound at n_tot = (1+sqrt 5)/2 = {golden:.6f}:")
for n in (1.61, 1.62):
    diff = ecs_linear_value(d, n) - noon_nonlinear_value(d, n)
    print(f"  n_tot = {n}: coherent-linear minus NOON-nonlinear = {diff:+.3e}")

print("\nratio to the NOON linear bound -> 1 at large budgets:")
for n in (10.0, 50.0, 100.0):
    print(f"  n_tot = {n:5.0f}: ratio = {ecs_linear_value(d, n) / noon_linear_value(d, n):.5f}")

print("\nwhere the optimum clamps, the attainable value sits above the raw formula:")
for alpha_sq in (1.0, 2.0, 4.0):
    opt = minimize_bound_over_b(d, 1, alpha_sq)
    print(f"  alpha_sq = {alpha_sq}: regime = {opt.regime.value:8s} "
          f"value = {opt.value:.6f}  raw formula = {ecs_linear_value(d, alpha_sq):.6f}")
