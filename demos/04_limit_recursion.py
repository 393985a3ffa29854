"""Propagating the limiting law through the layers.

The infinite-channel law of one output channel is stable with a spectral
measure built layer by layer: exact at layer 1, then a Monte Carlo integral
of activated patch slices against the previous layer's law.  The conditional
form (given a finite-C realization) is exact too and has a closed-form CF,
which makes for sharp oracles along the way.
"""

import logging

import numpy as np

import stableconv as sc

logging.basicConfig(level=logging.INFO, format="%(message)s")

rng = np.random.default_rng(10)
layer = sc.ConvLayerConfig(spatial_in=4, filter_shape=3, stride=1, padding=1)
inputs = sc.input_tensor(rng.standard_normal((1, 4, 2)))
alpha, sigma_w, sigma_b = 1.5, 1.0, 1.0
tanh = sc.get_activation("tanh")

# --- layer 1: exact, and equal to the closed-form product CF ------------------
g1 = sc.gamma_first(inputs, layer, alpha, sigma_w, sigma_b)
probes = rng.standard_normal((200, g1.dimension))
gap = np.abs(
    sc.cf_multivariate(g1, probes)
    - sc.cf_layer1_closed_form(inputs, layer, alpha, sigma_w, sigma_b, probes)
).max()
print(f"layer 1: {g1.n_atoms} atom pairs, total mass {g1.total_mass:.4f}, "
      f"closed-form gap {gap:.2e}")

# --- conditional on a realization: exact again --------------------------------
real = rng.standard_normal((8, 4, 2))  # (channel, position, input)
cond = sc.gamma_conditional(real, layer, alpha, sigma_w, sigma_b, tanh)
gap = np.abs(
    sc.cf_multivariate(cond, probes)
    - sc.cf_conditional_closed_form(real, layer, alpha, sigma_w, sigma_b, tanh, probes)
).max()
print(f"conditional at C=8: {cond.n_atoms} atom pairs, closed-form gap {gap:.2e}")

# --- the limit of deeper layers: Monte Carlo ----------------------------------
spec = sc.NetworkSpec(
    alpha=alpha, sigma_w=sigma_w, sigma_b=sigma_b, layers=(layer, layer, layer),
    activation=tanh, channels=64, inputs=inputs, seed=1,
)
print("\nthree-layer recursion (per-layer summaries logged):")
measures = sc.limit_measures(spec, sc.LimitConfig(mc_samples=5_000, seed=2))

# Monte Carlo error shrinks like 1/sqrt(M)
print("\nself-distance of two independent estimates of layer 2:")
for m in [500, 5_000, 50_000]:
    a = sc.gamma_next_mc(g1, layer, alpha, sigma_w, sigma_b, tanh,
                         sc.LimitConfig(mc_samples=m), np.random.default_rng(1))
    b = sc.gamma_next_mc(g1, layer, alpha, sigma_w, sigma_b, tanh,
                         sc.LimitConfig(mc_samples=m), np.random.default_rng(2))
    pr = sc.generate_probes(a, n_probes=20, seed=3).probes
    d = np.abs(sc.cf_multivariate(a, pr) - sc.cf_multivariate(b, pr)).max()
    print(f"  M={m:>6}: sup CF difference {d:.4f}")

# --- measures serialize to exact text: the hex of their float64 bytes --------
# one line per atom: weight, then direction components, 16 hex digits each
text = sc.dump_measure(g1)
atom = text.splitlines()[1]
print("\nserialized layer-1 measure (header + first atom line):")
print("  " + text.splitlines()[0])
print("  " + atom[:64] + "...")
first = float(np.frombuffer(bytes.fromhex(atom[:16]), "<f8")[0])
print(f"  its first 16 digits as little-endian float64: {first!r} "
      f"(weight {float(g1.weights[0])!r})")
round_trip = sc.load_measure(text)
print("round trip bit for bit:",
      round_trip.weights.tobytes() == g1.weights.tobytes()
      and round_trip.directions.tobytes() == g1.directions.tobytes())
