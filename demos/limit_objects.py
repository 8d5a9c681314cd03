"""Simulate the Brownian limit objects: tau, reflected paths, excursions.

The limit of the rescaled forest is described by a Brownian motion run
until it first hits -1/sigma: the reflected path's ranked excursion
lengths are the limits of the rescaled small-tree sizes.

Run with:  python3 demos/limit_objects.py
"""

import math

import numpy as np

import planeforest as pf

SIGMA = math.sqrt(2.0)
SEED = 13

# --- the exact tau sampler vs its closed-form law ---------------------------
rng = pf.rng_from_seed(SEED)
taus = pf.sample_tau_exact(SIGMA, rng, size=5000)
print(f"tau(1/sigma) with sigma^2 = 2: {len(taus)} exact samples")
print(f"  median {np.median(taus):.3f}  (exact {1.0 / (SIGMA * 0.6745) ** 2:.3f})")
for t in (0.25, 1.0, 4.0):
    print(f"  P(tau <= {t:4.2f}):  sample {np.mean(taus <= t):.3f}   exact {pf.tau_cdf(t, SIGMA):.3f}")

# --- one discretized replicate ------------------------------------------------
path, tau = pf.simulate_to_hit(1.0 / SIGMA, 1e-4, pf.substream(SEED, 1))
starts, ends = pf.ranked_excursions(path, 1e-4)
print(f"\ndiscretized replicate (dt = 1e-4): tau = {tau:.4f}")
print(f"  {len(starts)} excursions; top five lengths:")
for start, end in zip(starts[:5], ends[:5]):
    print(f"    [{start:8.4f}, {end:8.4f}]  length {end - start:.4f}")

# --- ranked excursion lengths across replicates -------------------------------
_, _, lengths = pf.uncensored_limit_draws(SIGMA, 2, 1e-3, 100, SEED, first=10, t_cap=200.0)
top1 = lengths[:, 0]

print(f"\ntop excursion length over 100 replicates:")
print(f"  mean {np.mean(top1):.3f}   median {np.median(top1):.3f}   max {np.max(top1):.3f}")
