import numpy as np
import pytest

import stableconv as sc
from stableconv.tensors import OUT_OF_BOUNDS

from conftest import random_conv_case


class TestConvLayerConfig:
    def test_output_size_formula(self):
        cfg = sc.ConvLayerConfig(spatial_in=5, filter_shape=3, stride=2, padding=1)
        assert cfg.spatial_out == (3,)

    def test_filter_must_fit_padded_input(self):
        with pytest.raises(ValueError):
            sc.ConvLayerConfig(spatial_in=3, filter_shape=6, stride=1, padding=1)

    def test_bad_stride_and_padding(self):
        with pytest.raises(ValueError):
            sc.ConvLayerConfig(spatial_in=3, filter_shape=3, stride=0)
        with pytest.raises(ValueError):
            sc.ConvLayerConfig(spatial_in=3, filter_shape=3, padding=-1)

    def test_two_d(self):
        cfg = sc.ConvLayerConfig(spatial_in=(5, 4), filter_shape=(3, 2),
                                 stride=(1, 2), padding=(1, 0))
        assert cfg.spatial_out == (5, 2)


class TestPatchMap:
    def test_deterministic(self):
        cfg = sc.ConvLayerConfig(spatial_in=4, filter_shape=3, padding=1)
        first = sc.patch_map_for(cfg)
        sc.patch_map_for.cache_clear()
        again = sc.patch_map_for(cfg)
        assert again is not first
        assert np.array_equal(again.indices, first.indices)
        assert sc.patch_map_for(cfg) is again  # cached

    def test_oob_marks_match_definition(self):
        cfg = sc.ConvLayerConfig(spatial_in=3, filter_shape=3, padding=1)
        pm = sc.patch_map_for(cfg)
        # position 0 reads input -1 at offset 0; position 2 reads input 3 at offset 2
        assert pm.indices[0, 0] == OUT_OF_BOUNDS
        assert pm.indices[2, 2] == OUT_OF_BOUNDS
        assert pm.indices[1, 1] == 1


class TestExtractPatches:
    """Patch extraction is a gather through the layer's PatchMap."""

    def test_one_d_padded_example(self):
        a, b, c = 1.5, -2.0, 0.5
        cfg = sc.ConvLayerConfig(spatial_in=3, filter_shape=3, stride=1, padding=1)
        out = sc.patch_map_for(cfg).gather(np.array([[a, b, c]]), axis=1)
        assert out.shape == (1, 3, 3)
        # patch at each output position, offset-major axes: out[0, :, p]
        assert np.array_equal(out[0, :, 0], [0, a, b])
        assert np.array_equal(out[0, :, 1], [a, b, c])
        assert np.array_equal(out[0, :, 2], [b, c, 0])
        # a hidden layer's padding slots take phi(0) instead
        filled = sc.patch_map_for(cfg).gather(np.array([[a, b, c]]), axis=1, fill=0.25)
        assert np.array_equal(filled[0, :, 0], [0.25, a, b])
        assert np.array_equal(filled[0, :, 2], [b, c, 0.25])

    def test_gather_into_out_equals_fresh_gather(self, rng):
        # out starts as NaN, so a slot the gather leaves unwritten shows
        for _ in range(5):
            cfg, x = random_conv_case(rng, two_d=bool(rng.integers(2)))
            pm = sc.patch_map_for(cfg)
            fields = x.reshape(x.shape[0], cfg.n_positions_in, -1)
            fresh = pm.slab(fields, np.tanh)
            out = np.full(fresh.size, np.nan)
            given = pm.slab(fields, np.tanh, out=out)
            assert np.shares_memory(given, out)
            assert given.tobytes() == fresh.tobytes()
        with pytest.raises(ValueError, match="contiguous"):
            pm.gather(fields, axis=1, out=np.empty((fresh.size, 2))[:, 0])

    def test_fully_connected_case(self, rng):
        x = rng.standard_normal((2, 5))
        cfg = sc.ConvLayerConfig(spatial_in=5, filter_shape=5, stride=1, padding=0)
        out = sc.patch_map_for(cfg).gather(x, axis=1)
        assert out.shape == (2, 5, 1)
        assert np.array_equal(out[:, :, 0], x)

    def test_zero_input_gives_zero_patches(self):
        cfg = sc.ConvLayerConfig(spatial_in=4, filter_shape=3, padding=1)
        out = sc.patch_map_for(cfg).gather(np.zeros((1, 4, 2)), axis=1)
        assert np.all(out == 0.0)

    def test_oob_slots_exactly_zero(self, rng):
        for _ in range(5):
            cfg, x = random_conv_case(rng, two_d=bool(rng.integers(2)))
            pm = sc.patch_map_for(cfg)
            c0, k = x.shape[0], x.shape[-1]
            out = pm.gather(x.reshape(c0, cfg.n_positions_in, k), axis=1)
            assert out.shape == (c0, cfg.n_offsets, cfg.n_positions_out, k)
            oob = (pm.indices == OUT_OF_BOUNDS).T  # (n_off, n_pos)
            assert np.abs(out[:, oob, :]).sum() == 0.0
            filled = pm.gather(x.reshape(c0, cfg.n_positions_in, k), axis=1, fill=-0.5)
            assert np.all(filled[:, oob, :] == -0.5)
            assert np.array_equal(filled[:, ~oob, :], out[:, ~oob, :])

    def test_padded_indices_read_the_fill_position(self, rng):
        # values with one extra position holding the fill, taken at the
        # padded table, are the gather with that fill
        for _ in range(5):
            cfg, x = random_conv_case(rng, two_d=bool(rng.integers(2)))
            pm = sc.patch_map_for(cfg)
            c0, k = x.shape[0], x.shape[-1]
            values = x.reshape(c0, cfg.n_positions_in, k)
            padded = np.concatenate([values, np.full((c0, 1, k), -0.5)], axis=1)
            taken = padded[:, pm.padded_indices.T, :]
            assert np.array_equal(taken, pm.gather(values, axis=1, fill=-0.5))
            assert not pm.padded_indices.flags.writeable

    def test_slab_rows_are_activated_padded_patches(self, rng):
        # phi(0) != 0, so the padding slots show whether phi saw them
        def phi(v):
            return np.tanh(v) + 0.5

        for _ in range(5):
            cfg, x = random_conv_case(rng, two_d=bool(rng.integers(2)))
            pm = sc.patch_map_for(cfg)
            c0, k = x.shape[0], x.shape[-1]
            fields = np.stack([x, -x]).reshape(2, c0, cfg.n_positions_in, k)
            rows = (2, c0 * cfg.n_offsets, cfg.n_positions_out * k)
            patches = pm.gather(fields, axis=-2)  # zeros in the padding
            assert np.array_equal(pm.slab(fields), patches.reshape(rows))
            assert np.array_equal(pm.slab(fields, phi), phi(patches).reshape(rows))

    def test_spatial_mismatch_rejected(self, rng):
        cfg = sc.ConvLayerConfig(spatial_in=4, filter_shape=3, padding=1)
        with pytest.raises(ValueError):
            sc.patch_map_for(cfg).gather(rng.standard_normal((1, 5)), axis=1)


def _reference_conv(x, w, b, cfg):
    """Nested-loop shallow convolution with zero padding."""
    c_out = w.shape[0]
    out = np.zeros((c_out,) + cfg.spatial_out)
    for co in range(c_out):
        for p in np.ndindex(*cfg.spatial_out):
            acc = b[co]
            for ci in range(x.shape[0]):
                for g in np.ndindex(*cfg.filter_shape):
                    coords = tuple(
                        pi * s - q + gi
                        for pi, gi, s, q in zip(p, g, cfg.stride, cfg.padding)
                    )
                    if all(0 <= i < e for i, e in zip(coords, cfg.spatial_in)):
                        acc += w[(co, ci, *g)] * x[(ci, *coords)]
            out[(co, *p)] = acc
    return out


@pytest.mark.parametrize("two_d", [False, True])
def test_shallow_convolution_composition(rng, two_d):
    """Flattened filters times gathered patches plus broadcast bias
    reproduces a direct nested-loop convolution to machine precision."""
    for _ in range(3):
        cfg, x = random_conv_case(rng, two_d=two_d, k=1)
        xs = x[..., 0]  # single input, no K axis
        c_in, c_out = xs.shape[0], 2
        w = rng.standard_normal((c_out, c_in) + cfg.filter_shape)
        b = rng.standard_normal(c_out)
        patches = sc.patch_map_for(cfg).gather(xs.reshape(c_in, -1), axis=1)
        fan_in = c_in * cfg.n_offsets
        via_ops = w.reshape(c_out, fan_in) @ patches.reshape(fan_in, -1) + b[:, None]
        ref = _reference_conv(xs, w, b, cfg)
        assert np.allclose(via_ops.reshape(ref.shape), ref, rtol=0, atol=1e-12)


def test_tensor_invariants():
    # inputs are checked (channel, *spatial, input) arrays of finite float64
    with pytest.raises(ValueError):
        sc.input_tensor(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        sc.input_tensor(np.ones((2, 0, 3)))
    for bad in (np.nan, np.inf, -np.inf):
        values = np.zeros((1, 4, 2))
        values[0, 1, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            sc.input_tensor(values)
    x = sc.input_tensor(np.arange(120).reshape(2, 5, 4, 3))
    assert type(x) is np.ndarray
    assert x.shape == (2, 5, 4, 3)
    assert x.dtype == np.float64


def test_input_tensor_roles():
    # axis roles are positional: channel first, input last, spatial between
    x = sc.input_tensor(np.zeros((2, 5, 4, 3)))
    layer = sc.ConvLayerConfig(spatial_in=(5, 4), filter_shape=3, padding=1)
    spec = sc.NetworkSpec(alpha=1.5, sigma_w=1.0, sigma_b=1.0, layers=(layer,),
                          activation=sc.get_activation("tanh"), channels=4, inputs=x)
    assert (spec.in_channels, spec.n_inputs) == (2, 3)
    assert spec.out_dim == 5 * 4 * 3
