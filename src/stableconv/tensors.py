"""Input arrays, layer geometry and the precomputed patch gather used by the
convolutional stack.

Inputs are plain float64 arrays with axes (channel, *spatial, input).
Everything in this package flattens arrays in row-major (C) order over those
axes; in particular a field over output positions and inputs embeds into
flat coordinates position-major, input-minor.  All modules share that single
convention.

Patch extraction is precomputed: a :class:`PatchMap` turns a layer
configuration into an index table from (output position, filter offset) to a
flat input position, with out-of-bounds slots marked.  Extraction itself is a
gather that writes a fill value into the out-of-bounds slots: zero for data
(zero padding), and phi(0) for a hidden layer's activated field, since the
next convolution sees that layer's zero-padded positions through the
activation.  :meth:`PatchMap.slab` makes that choice once, for the finite
network's first and hidden layers and the limit recursion alike, and lays
the patches out as the rows of a convolution's one matmul against the
flattened filters.  :attr:`PatchMap.padded_indices` points the
out-of-bounds slots at one extra pad position instead, for the finite
network's last layer, which gathers from values that carry phi(0) there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import prod

import numpy as np

OUT_OF_BOUNDS = -1


def input_tensor(data) -> np.ndarray:
    """Check an input array of shape (channels, *spatial, inputs) of finite
    values and return it as float64."""
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim < 3:
        raise ValueError("inputs need at least (channel, spatial, input) axes")
    if any(e < 1 for e in arr.shape):
        raise ValueError("all extents must be >= 1")
    if not np.isfinite(arr).all():
        raise ValueError("input values must be finite")
    return arr


def _as_axis_tuple(value, ndim: int, name: str) -> tuple[int, ...]:
    if np.isscalar(value):
        return (int(value),) * ndim
    t = tuple(int(v) for v in value)
    if len(t) != ndim:
        raise ValueError(f"{name} must have one entry per spatial axis")
    return t


@dataclass(frozen=True)
class ConvLayerConfig:
    """Spatial geometry of one convolutional transform.

    ``spatial_out`` is derived from the input extents, filter extents, stride
    and zero padding; it is not a constructor argument.
    """

    spatial_in: tuple[int, ...]
    filter_shape: tuple[int, ...]
    stride: tuple[int, ...] = 1
    padding: tuple[int, ...] = 0
    spatial_out: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        if np.isscalar(self.spatial_in):
            p_in = (int(self.spatial_in),)
        else:
            p_in = tuple(int(v) for v in self.spatial_in)
        ndim = len(p_in)
        filt = _as_axis_tuple(self.filter_shape, ndim, "filter_shape")
        stride = _as_axis_tuple(self.stride, ndim, "stride")
        pad = _as_axis_tuple(self.padding, ndim, "padding")
        if any(p < 1 for p in p_in) or any(g < 1 for g in filt):
            raise ValueError("extents must be >= 1")
        if any(s < 1 for s in stride):
            raise ValueError("stride must be positive")
        if any(q < 0 for q in pad):
            raise ValueError("padding must be non-negative")
        if any(g > p + 2 * q for g, p, q in zip(filt, p_in, pad)):
            raise ValueError("filter does not fit the padded input")
        expected = tuple(
            (p + 2 * q - g) // s + 1 for p, g, s, q in zip(p_in, filt, stride, pad)
        )
        if any(e < 1 for e in expected):
            raise ValueError("configuration produces an empty output")
        object.__setattr__(self, "spatial_in", p_in)
        object.__setattr__(self, "filter_shape", filt)
        object.__setattr__(self, "stride", stride)
        object.__setattr__(self, "padding", pad)
        object.__setattr__(self, "spatial_out", expected)

    @property
    def n_positions_in(self) -> int:
        return prod(self.spatial_in)

    @property
    def n_positions_out(self) -> int:
        return prod(self.spatial_out)

    @property
    def n_offsets(self) -> int:
        return prod(self.filter_shape)


@dataclass(frozen=True)
class PatchMap:
    """Precomputed gather table for one layer configuration.

    ``indices[p, g]`` is the flat (row-major) input position read by output
    position ``p`` at filter offset ``g``, or ``OUT_OF_BOUNDS`` when the
    moving window falls outside the input; those slots read as the fill
    value of :meth:`gather`.
    """

    config: ConvLayerConfig
    indices: np.ndarray

    @cached_property
    def padded_indices(self) -> np.ndarray:
        """``indices`` with every out-of-bounds slot pointing at position
        ``n_positions_in``: the table into values padded with one extra
        position that holds the fill, so a gather from them needs no fill
        step."""
        padded = np.where(self.indices == OUT_OF_BOUNDS, self.config.n_positions_in, self.indices)
        padded.setflags(write=False)
        return padded

    @cached_property
    def _order(self) -> tuple[np.ndarray, np.ndarray]:
        """The table offset-major and flat, so a gather needs no axis swap
        afterwards, and the positions of its out-of-bounds slots."""
        order = self.indices.T.reshape(-1)
        return order, np.flatnonzero(order == OUT_OF_BOUNDS)

    def gather(
        self, values: np.ndarray, axis: int, fill: float = 0.0, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Gather patch slices along a flattened-spatial axis.

        ``values`` must have extent ``n_positions_in`` at ``axis``; the result
        replaces that axis with two axes (filter offset, output position),
        with ``fill`` in the out-of-bounds slots: 0 for data, phi(0) for an
        activated hidden field.  It is written into ``out`` when given: a
        C-contiguous array of the result's size and dtype, filled in the
        result's row-major order.  Every slot is first taken from ``values``
        in clip mode, which reads an out-of-bounds slot at position 0, and
        then the fill overwrites those slots, so no padded copy of
        ``values`` is made.
        """
        axis = axis % values.ndim
        n_in = self.config.n_positions_in
        if values.shape[axis] != n_in:
            raise ValueError(
                f"expected extent {n_in} at axis {axis}, got {values.shape[axis]}"
            )
        order, oob = self._order
        lead, trail = values.shape[:axis], values.shape[axis + 1 :]
        new_shape = lead + (self.config.n_offsets, self.config.n_positions_out) + trail
        if out is None:
            out = np.empty(new_shape, dtype=values.dtype)
        elif not out.flags.c_contiguous:
            raise ValueError("out must be C-contiguous")
        took = out.reshape(lead + (order.size,) + trail)
        np.take(values, order, axis=axis, out=took, mode="clip")
        # the fill goes to every trailing element of each out-of-bounds
        # slot, as columns of a (lead, slots * trail) view: one fancy
        # assignment, about three times as fast as a mask over the slot axis
        per_slot = prod(trail)
        columns = (oob[:, None] * per_slot + np.arange(per_slot)).reshape(-1)
        took.reshape(prod(lead), order.size * per_slot)[:, columns] = fill
        return took.reshape(new_shape)

    def slab(self, values: np.ndarray, phi=None, out: np.ndarray | None = None) -> np.ndarray:
        """The patches of ``values`` (..., C, n_positions_in, K) as the rows
        of the layer's product: shape (..., C * n_offsets, n_positions_out *
        K), rows channel-major, offset-minor, written into ``out`` when given
        (as in :meth:`gather`).  With an activation ``phi`` (a hidden
        layer's field) the values are activated first and the padding slots
        hold phi(0); otherwise they hold 0.  Activating the values, not
        their patches, evaluates phi once per value instead of once per
        patch slot."""
        fill = 0.0
        if phi is not None:
            values, fill = phi(values), phi(np.zeros(1))[0]
        *lead, c, _, k = values.shape
        patches = self.gather(values, axis=-2, fill=fill, out=out)
        return patches.reshape(*lead, c * self.config.n_offsets, self.config.n_positions_out * k)


@lru_cache(maxsize=128)
def patch_map_for(config: ConvLayerConfig) -> PatchMap:
    """Index table of the moving window: a deterministic function of the
    configuration, cached because layer configs are reused heavily."""
    p_out = config.spatial_out
    n_pos = config.n_positions_out
    n_off = config.n_offsets
    pos = np.stack(
        np.unravel_index(np.arange(n_pos), p_out), axis=1
    )  # (n_pos, S)
    off = np.stack(
        np.unravel_index(np.arange(n_off), config.filter_shape), axis=1
    )  # (n_off, S)
    stride = np.asarray(config.stride)
    pad = np.asarray(config.padding)
    extents = np.asarray(config.spatial_in)
    coords = pos[:, None, :] * stride - pad + off[None, :, :]  # (n_pos, n_off, S)
    oob = ((coords < 0) | (coords >= extents)).any(axis=2)
    clipped = np.clip(coords, 0, extents - 1)
    flat = np.ravel_multi_index(
        tuple(clipped[..., s] for s in range(len(p_out))), config.spatial_in
    ).astype(np.int64)
    flat[oob] = OUT_OF_BOUNDS
    flat.setflags(write=False)
    return PatchMap(config=config, indices=flat)
