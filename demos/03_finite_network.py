"""Finite-channel networks with heavy-tailed weights.

One forward pass draws fresh stable weights and biases and pushes K inputs
through the convolutional stack jointly.  The first layer's output law is
already exactly stable at any channel count; this script samples replicas
and shows the empirical CF sitting on the exact one, plus the
reproducibility and exchangeability contracts.
"""

import numpy as np

import stableconv as sc

layer = sc.ConvLayerConfig(spatial_in=6, filter_shape=3, stride=1, padding=1)
inputs = sc.input_tensor(np.random.default_rng(3).standard_normal((1, 6, 2)))
spec = sc.NetworkSpec(
    alpha=1.7, sigma_w=1.0, sigma_b=0.5, layers=(layer,),
    activation=sc.get_activation("tanh"), channels=8, inputs=inputs, seed=99,
)

out = sc.forward_finite(spec, 3, np.random.default_rng(0))
print("one realization, 3 output channels, shape:", out.fields.shape)
print("channel 0, input 0:", np.round(out.fields[0, :, 0], 3))

# replica blocks are keyed by (seed, block index): reruns are bit-identical
a = sc.sample_replicas(spec, 5)
b = sc.sample_replicas(spec, 5)
print("\nbit-identical reruns:", np.array_equal(a.outputs, b.outputs))

# layer-1 law is exact for every channel count
reps = sc.sample_replicas(spec, 10_000)
measure = sc.gamma_first(inputs, layer, spec.alpha, spec.sigma_w, spec.sigma_b)
probes = sc.generate_probes(measure, n_probes=20, seed=7)
emp = sc.empirical_cf(reps.channel_samples(0), probes.probes)
theo = sc.cf_multivariate(measure, probes.probes)
sup, mean = sc.cf_distance(emp, theo)
print(f"first-layer law vs exact measure: sup {sup:.4f}, mean {mean:.4f} "
      f"(noise floor ~ {3 * sc.cf_standard_error(reps.n_replicas):.4f})")

# channels of one network are exchangeable: same law, channel by channel
spec2 = sc.NetworkSpec(
    alpha=1.7, sigma_w=1.0, sigma_b=0.5, layers=(layer, layer),
    activation=sc.get_activation("tanh"), channels=16, inputs=inputs, seed=99,
)
pair = sc.sample_replicas(spec2, 10_000, n_channels=2)
e1 = sc.empirical_cf(pair.channel_samples(0), probes.probes)
e2 = sc.empirical_cf(pair.channel_samples(1), probes.probes)
print(f"exchangeability: channel CFs differ by {np.abs(e1 - e2).max():.4f}")

# the mixture statistic strips biases before combining channels
mix = sc.channel_mixture(pair.outputs, [1.0, -1.0], pair.biases)
print("mixture statistic shape:", mix.shape)
