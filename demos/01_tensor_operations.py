"""Patch maps walkthrough: zero-padded moving-window patches as one gather.

Every convolution in the package is built the same way: a :class:`PatchMap`
precomputes which flat input position each (filter offset, output position)
slot reads, marking the slots that fall into the zero padding.  Gathering
through it turns a field into its patches, and one matmul against the
flattened filters then gives the convolution.  This script shows the index
table and the patches on inputs small enough to verify by eye, then
assembles a shallow convolution and checks it against a naive loop.
"""

import numpy as np

import stableconv as sc

rng = np.random.default_rng(0)

# --- the index table ----------------------------------------------------------
cfg = sc.ConvLayerConfig(spatial_in=3, filter_shape=3, stride=1, padding=1)
pm = sc.patch_map_for(cfg)
print(f"index table (output position x filter offset; {sc.tensors.OUT_OF_BOUNDS} = padding):")
print(pm.indices)

# --- patch extraction with zero padding ---------------------------------------
x = np.array([[1.0, 2.0, 3.0]])  # (channel, position)
patches = pm.gather(x, axis=1)  # (channel, offset, position)
print("\npatches of [1,2,3] with a width-3 window and one-slot padding:")
for p in range(3):
    print(f"  position {p}: {patches[0, :, p]}")

# --- a shallow convolution: gather, then one matmul ---------------------------
spatial = (6,)
x = rng.standard_normal((2, *spatial))
cfg = sc.ConvLayerConfig(spatial_in=spatial, filter_shape=3, stride=1, padding=1)
w = rng.standard_normal((1, 2, 3))  # (out channel, in channel, offset)
b = rng.standard_normal(1)

patches = sc.patch_map_for(cfg).gather(x, axis=1)  # (C, G, P)
via_ops = (w.reshape(1, -1) @ patches.reshape(-1, cfg.n_positions_out) + b[:, None])[0]

naive = np.zeros(cfg.n_positions_out)
for p in range(cfg.n_positions_out):
    acc = b[0]
    for ci in range(2):
        for g in range(3):
            i = p - 1 + g
            if 0 <= i < spatial[0]:
                acc += w[0, ci, g] * x[ci, i]
    naive[p] = acc

print("\nconvolution via patch map:", np.round(via_ops, 6))
print("convolution via naive loop:", np.round(naive, 6))
print("max |difference|:", np.abs(via_ops - naive).max())
