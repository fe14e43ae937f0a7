"""The geometric view: screened rates as entropy projections.

On a finite alphabet the screened error exponent equals the minimum
relative entropy H(Q || P) over laws Q that (a) push the F-mean above
mu + eps and (b) keep the U-mean within the screen.  This script solves
that projection two independent ways (exponential tilting and a
certified Newton method on the simplex), confirms both match the
tilt-optimization rate, and shows the geometry that explains why screening rescues heavy
tails: growing the support lets the *unscreened* projection sneak
arbitrarily close to P, while the screened one stays pinned away.
"""

import math

import numpy as np

import screened_mc as sm

model = sm.finite_support([1.0, 2.0, 3.0, 4.0], [0.25] * 4)
pair = sm.tabulated_pair(model, [-1.0, 0.0, 0.0, 1.0], [-1.0, -1.0, 1.0, 1.0])

res = sm.sanov_rate(model, pair, 0.1, 0.05)
print("four-atom example, eps = 0.1, u = 0.05:")
print(f"  entropy projection H(Q*||P) = {res.entropy:.10f}")
print(f"  tilt-optimization rate      = {res.fenchel_value:.10f}")
print(f"  |difference|                = {res.gap:.2e}")
print(f"  primal route {res.primal_entropy:.10f} vs dual route {res.dual_entropy:.10f}")
print(f"  minimizer Q* = {np.round(res.q_star, 6)}")
print()

print("agreement across 50 random instances:")
suite = sm.duality_suite(count=50, seed=20240801)
gaps = [r.gap for r in suite]
pd = [abs(r.primal_entropy - r.dual_entropy) for r in suite]
print(f"  max |entropy - rate| = {max(gaps):.2e}")
print(f"  max primal-dual disagreement = {max(pd):.2e}")
print()

print("why screening rescues heavy tails (finite truncations):")
print(f"{'support':>10s} {'plain rate':>12s} {'screened rate':>14s}")
for x_max in (10.0, 100.0, 1000.0):
    grid = np.geomspace(1.0, x_max, 24)
    cdf = 1.0 - grid**-2.5
    probs = np.diff(np.concatenate([[0.0], cdf]))
    probs = np.maximum(probs, 1e-12)
    probs /= probs.sum()
    trunc = sm.finite_support(grid, probs)
    tpair = sm.tabulated_pair(trunc, grid**0.75, grid)
    plain = sm.sanov_rate(trunc, tpair, 0.03, math.inf).entropy
    screened = sm.sanov_rate(trunc, tpair, 0.03, 0.05).entropy
    print(f"{x_max:10.0f} {plain:12.6f} {screened:14.6f}")
print("the plain rate sinks toward zero; the screened rate does not.")
