"""Sample large random forests and compare tree statistics to the limit law.

A uniformly shuffled degree vector codes a uniform marked cyclic forest in
O(n); the rescaled mass outside the largest tree, (n - |T_1|)/c_n^2, should
approach the first-passage law tau(1/sigma).

Run with:  python3 demos/forest_sampling.py
"""

import numpy as np

import planeforest as pf
from planeforest.degseq import geometric_profile

N = 50_000
CN = int(N**0.25)  # the limit needs c_n = o(sqrt(n)); see the floor printed below
REPS = 200
SEED = 7

p = geometric_profile()  # p_i = 2^{-(i+1)}: mean 1, sigma^2 = 2
s = pf.make_degree_sequence(p, N, CN, seed=SEED)
sigma = pf.limit_sigma(s)
print(f"n = {N}, c_n = {CN}, sigma = {sigma:.4f}")

small_mass = np.empty(REPS)
largest_marked = 0
for rep, ws in enumerate(pf.replicates(s, SEED, REPS)):
    small_mass[rep] = (N - ws.ranked_sizes[0]) / CN**2
    largest_marked += ws.largest_is_marked

print(f"\nmarked tree was the largest in {largest_marked}/{REPS} replicates")
print(f"mean rescaled small mass: {small_mass.mean():.3f}")

# empirical CDF vs the exact tau(1/sigma) law at a few points
print("\n  t    empirical   limit CDF")
for t in (0.5, 1.0, 2.0, 5.0, 10.0):
    emp = (small_mass <= t).mean()
    lim = pf.tau_cdf(t, sigma)
    print(f"{t:5.1f}   {emp:8.3f}   {lim:9.3f}")

ks = pf.ks_one_sample(small_mass, lambda t: pf.tau_cdf(np.asarray(t), sigma))
print(f"\none-sample KS distance: {ks:.4f}")
print(f"(finite-n floor: the error shrinks like c_n/sqrt(n) = {CN / N**0.5:.3f}, plus "
      f"Monte Carlo noise of order 1/sqrt(reps) = {REPS**-0.5:.3f}; not a sampler error)")

# per-tree degree profiles concentrate around the global one
ws = pf.walk_statistics(s, pf.substream(SEED, 0))
overall = pf.empirical(s)
print("\nlargest tree's empirical degree frequencies vs overall:")
counts = ws.tree_degree_counts(1)
for i in range(4):
    print(f"  degree {i}:  {counts[i] / counts.sum():.4f}  vs  {overall.probs[i]:.4f}")
