"""Stable sampling against characteristic functions.

A symmetric stable law is easiest to check through its characteristic
function, which is known in closed form: exp(-sum_j w_j |<t,s_j>|^alpha) for
a discrete spectral measure.  A univariate law of scale sigma is the 1-D
measure with one atom of weight sigma^alpha, whose CF is
exp(-sigma^alpha |t|^alpha).  Densities are unavailable, CFs are exact;
every comparison in this package goes through them.  CFs are evaluated on
a batch of probes, an (n, d) array, and draws always come as arrays of an
explicit size.
"""

import numpy as np

import stableconv as sc

rng = np.random.default_rng(42)
N = 50_000
SIGMA = 1.5
T = np.array([0.5, 1.0])

print("univariate sampler (sigma = %g) vs exact CF (N = %d)" % (SIGMA, N))
print(f"{'alpha':>6} {'t':>5} {'empirical':>10} {'exact':>8}")
for alpha in [0.5, 1.0, 1.5, 2.0]:
    law = sc.SpectralMeasure(alpha, [SIGMA**alpha], [[1.0]])
    draws = SIGMA * sc.sample_standard(alpha, N, rng)
    # the points t as an (n, 1) batch of 1-D probes
    for t, exact in zip(T, sc.cf_multivariate(law, T[:, None])):
        emp = np.exp(1j * t * draws).mean().real
        print(f"{alpha:>6} {t:>5} {emp:>10.4f} {exact:>8.4f}")

# --- a multivariate law from three atom pairs ---------------------------------
dirs = rng.standard_normal((3, 4))
dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
measure = sc.SpectralMeasure(1.5, rng.uniform(0.5, 1.5, 3), dirs)
draws = sc.sample_multivariate(measure, rng, size=N)

probes = sc.generate_probes(measure, n_probes=8, seed=1).probes
emp = sc.empirical_cf(draws, probes).real
theo = sc.cf_multivariate(measure, probes)
print("\nmultivariate law, 3 atoms in R^4:")
for e, th in zip(emp, theo):
    print(f"  empirical {e:.4f}   exact {th:.4f}")

# --- one-dimensional projections ----------------------------------------------
# <u, X> is symmetric stable again, with scale sigma(u) given by
# sigma(u)^alpha = sum_j w_j |<u, s_j>|^alpha, and its CF at t is X's at t * u:
# at the points t (n,), cf_multivariate(measure, np.outer(t, u))
u = rng.standard_normal(4)
alpha = measure.alpha
sigma_u = np.sum(measure.weights * np.abs(measure.directions @ u) ** alpha) ** (1 / alpha)
print(f"\nprojection <u, X>: alpha={alpha}, sigma(u)={sigma_u:.4f}")
t = 1.0 / sigma_u
emp = np.exp(1j * t * (draws @ u)).mean().real
exact = sc.cf_multivariate(measure, np.outer([t], u))[0]
print(f"projected CF at t=1/sigma: empirical {emp:.4f}, exact {exact:.4f}")

# --- compression keeps the law ------------------------------------------------
big_dirs = rng.standard_normal((20_000, 4))
big_dirs /= np.linalg.norm(big_dirs, axis=1, keepdims=True)
big = sc.SpectralMeasure(1.5, rng.uniform(1e-4, 2e-4, 20_000), big_dirs)
small = sc.compress_measure(big, 1_000, rng)
drift = np.abs(
    sc.cf_multivariate(big, probes) - sc.cf_multivariate(small, probes)
).max()
print(f"\nresampling 20000 atoms down to 1000: total mass "
      f"{big.total_mass:.6f} -> {small.total_mass:.6f}, CF drift {drift:.4f}")
