"""Convergence in the channel count, and what the joint limit looks like.

As C grows, a single channel's law approaches the limit measure's law (the
sweep below tracks the sup CF distance), distinct channels decouple (their
joint CF factorizes), and bias-stripped channel mixtures follow a rescaled
weight-only measure.  A deliberately dependent pairing is included to show
the factorization check has teeth.
"""

import numpy as np

import stableconv as sc

layer = sc.ConvLayerConfig(spatial_in=4, filter_shape=3, stride=1, padding=1)
inputs = sc.input_tensor(np.random.default_rng(0).standard_normal((1, 4, 2)))
spec = sc.NetworkSpec(
    alpha=1.5, sigma_w=1.0, sigma_b=1.0, layers=(layer, layer),
    activation=sc.get_activation("tanh"), channels=4, inputs=inputs, seed=11,
)
lcfg = sc.LimitConfig(mc_samples=10_000, seed=5)

print("sweep: empirical law of channel 1 vs the limit law")
report = sc.convergence_sweep(spec, [4, 16, 64, 256], 10_000, lcfg)
print(report.to_csv(timing=True))

# --- independence across channels at large C ----------------------------------
limit = sc.limit_measures(spec, lcfg)[-1]
reps = sc.sample_replicas(spec.with_channels(256), 10_000, n_channels=2)
# each probe set carries the CF of the law it was calibrated on; the
# mixture is compared with its own rescaled, bias-stripped law
pa = sc.generate_probes(limit, n_probes=20, seed=31)
pb = sc.generate_probes(limit, n_probes=20, seed=77)
mix_probes = sc.generate_probes(sc.mixture_measure(limit, [1.0, 1.0]), n_probes=20, seed=13)
# the check returns the rows of the CLI's independence.csv, metric -> value
rep = sc.independence_check(reps.outputs, reps.biases, [1.0, 1.0], pa, pb, mix_probes)
print(f"factorization defect (independent channels): {rep['max_factorization_defect']:.4f}")
print(f"factorization defect (channel paired with itself): "
      f"{rep['max_control_defect']:.4f}   <- dependence is visible")
print(f"mixture statistic vs rescaled weight-only measure: "
      f"sup {rep['mixture_sup_dist']:.4f}")

# --- readout: averaging positions of the limit law ----------------------------
# the readout's law is the exact image of the limit measure; nothing is drawn
u = np.full(4, 0.25)
readout = sc.readout_measure(limit, u)
contracted = np.einsum("p,npk->nk", u, reps.channel_samples(0).reshape(-1, 4, 2))
rprobes = sc.generate_probes(readout, n_probes=20, seed=9)
sup, mean = sc.cf_distance(sc.empirical_cf(contracted, rprobes.probes), rprobes.cf)
print(f"\nposition-averaged outputs vs readout measure over K=2 inputs: "
      f"sup {sup:.4f}, mean {mean:.4f}")
