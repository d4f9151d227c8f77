"""Photon-number moments of a coherent state, two ways.

The m-th moment <(a^dag a)^m> of a coherent state is a polynomial in the
mean photon number mu whose coefficients are Stirling numbers of the second
kind.  This script tabulates the closed form against sums of n^m P(X = n)
over the oracle's Poisson walk from the mode (which forms no Stirling number
and no exp(-mu), so it reaches mu = 1e4), and shows the ratio
g = f(2m)/f(m)^2 that controls where the optimal probe weight sits: the
second entry of the pair (f(2m), g) that ``coherent_moments`` returns.
"""


from phasebounds import coherent_moments, coherent_number_moment, stirling2
from phasebounds.oracle import poisson_moments

print("Stirling triangle rows (the polynomial coefficients):")
for m in range(0, 5):
    print(f"  m={m}:", [stirling2(m, k) for k in range(m + 1)])

print("\nlow-order polynomials:  f(1) = mu,  f(2) = mu + mu^2,  f(4) = mu + 7 mu^2 + 6 mu^3 + mu^4")

print("\nclosed form vs sums over the Poisson walk:")
print(f"{'m':>3} {'mu':>6} {'closed form':>18} {'series':>18} {'rel diff':>10}")
orders = (1, 2, 4, 8, 12)
for mu in (0.5, 2.0, 9.0, 1e4):
    series = poisson_moments(mu, max(orders))
    for m in orders:
        closed = coherent_number_moment(m, mu)
        rel = abs(closed - series[m]) / max(1.0, closed)
        print(f"{m:>3} {mu:>6g} {closed:>18.10g} {series[m]:>18.10g} {rel:>10.1e}")

print("\nmoment ratio g = f(2m)/f(m)^2  (tends to 1 as mu grows):")
for m in (1, 2):
    row = [f"{coherent_moments(m, mu)[1]:8.5f}" for mu in (0.25, 1.0, 4.0, 16.0, 100.0)]
    print(f"  m={m}: ", "  ".join(row))
