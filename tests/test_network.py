import hashlib
import json
import multiprocessing
import os
import struct
import subprocess
import sys
from dataclasses import replace
from functools import lru_cache
from itertools import combinations, product
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import stableconv as sc

from conftest import toy_inputs, toy_layer, toy_spec


class TestActivationSpec:
    def test_envelope_violation_caught(self):
        with pytest.raises(ValueError):
            sc.ActivationSpec("identity", lambda s: s, a=1.0, b=1.0, beta=0.0)

    def test_shipped_activations_satisfy_their_envelopes(self):
        # construction runs the empirical check; also probe a few values
        assert sc.get_activation("tanh")(np.array([0.0]))[0] == 0.0
        assert sc.get_activation("hard_clip")(np.array([9.0]))[0] == 1.0
        s = np.array([-8.0])
        assert sc.get_activation("signed_power")(s)[0] == pytest.approx(-(8**0.9))
        assert sc.get_activation("relu")(s)[0] == 0.0

    def test_bad_constants_rejected(self):
        with pytest.raises(ValueError):
            sc.ActivationSpec("x", np.tanh, a=0.0, b=1.0, beta=0.0)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            sc.get_activation("swish")


class TestNetworkSpec:
    def test_relu_rejected_below_alpha_two(self):
        with pytest.raises(ValueError):
            toy_spec(alpha=1.5, activation="relu")

    def test_relu_allowed_at_alpha_two(self):
        spec = toy_spec(alpha=2.0, activation="relu")
        assert spec.activation.name == "relu"

    def test_non_chaining_layers_rejected(self):
        l1 = sc.ConvLayerConfig(spatial_in=4, filter_shape=3, stride=2, padding=1)
        l2 = sc.ConvLayerConfig(spatial_in=4, filter_shape=3, stride=1, padding=1)
        with pytest.raises(ValueError):
            sc.NetworkSpec(
                alpha=1.5, sigma_w=1.0, sigma_b=1.0, layers=(l1, l2),
                activation=sc.get_activation("tanh"), channels=4,
                inputs=toy_inputs(), seed=0,
            )

    def test_input_shape_must_match_first_layer(self):
        with pytest.raises(ValueError):
            sc.NetworkSpec(
                alpha=1.5, sigma_w=1.0, sigma_b=1.0, layers=(toy_layer(),),
                activation=sc.get_activation("tanh"), channels=4,
                inputs=toy_inputs(spatial=(5,)), seed=0,
            )

    @pytest.mark.parametrize("scale", [-1.0, np.nan, np.inf])
    @pytest.mark.parametrize("name", ["sigma_w", "sigma_b"])
    def test_bad_scale_rejected(self, name, scale):
        # a NaN weight scale would leave only the bias atoms in the limit
        with pytest.raises(ValueError):
            toy_spec(**{name: scale})

    def test_out_dim(self):
        assert toy_spec().out_dim == 4 * 2


# (case, output channels, seed, SHA-256 of fields then last_biases) of
# TestForwardFinite's pins; the shifted-tanh case has phi(0) = 0.5 in the
# padding slots
_OUTPUT_PINS = [
    ("toy", 2, 0, "a22995a75fd83861c6c41b967c60c9aa41e489886cc69e3ea0cf09ce9f246c19"),
    ("three_layers", 3, 1, "416977b4753f64d9f4f9581adb920d6076bbf0ef5decf4f8ea8ccd01b4937484"),
    ("three_layers_cauchy", 1, 2, "17f254ac7f70f598835be3d1b17f01d2807b3e822727b2b084a551bf09ed131a"),
    ("three_layers_gauss", 2, 3, "02aa14f14e582f849070696467571b773e6bb7dd2596541ba8436cf0e6debebb"),
    ("strided_2d", 2, 4, "e5f1c9c5557aec6059ff0da603114800ea7e05e6485e15a0982d8f769afc4fed"),
    ("shifted_tanh", 2, 5, "2748d038f503bb734a93603b69a7c52f4231c8f38dfa23603996ea7c91342b40"),
]


def _pin_id(pin):
    """The test id of a digest pin: its case without the digest, so that
    recording the digest again does not rename the test."""
    return "-".join(map(str, pin[:-1]))


# Value pins: for each pinned case, _value_pin of its outputs, recorded
# before the last layer came to contract its channels before gathering its
# patches.  Unlike the digests, they hold when only the rounding moves: on
# another numpy SIMD dispatch, or under another order of summation.
_VALUE_PINS = json.loads((Path(__file__).with_name("value_pins.json")).read_text())

# the stated tolerance of a value pin, relative to the case's largest |value|
_VALUE_RTOL = 1e-11


def _value_pin(outputs):
    """The fingerprint of an (n, c, d) output array: 16 entries spread
    evenly over its replicas and, within a replica, over its channels and
    flat output coordinates, then its largest |value|."""
    n = len(outputs)
    flat = outputs.reshape(n, -1)
    i = np.arange(16)
    picks = flat[i * (n - 1) // 15, i * (flat.shape[1] - 1) // 15]
    return np.append(picks, np.abs(flat).max())


def _close_at_scale(got, expected, scale):
    """Whether every entry of ``got`` lies within _VALUE_RTOL * ``scale``
    of ``expected``."""
    return np.abs(np.asarray(got) - np.asarray(expected)).max() <= _VALUE_RTOL * scale


def _assert_values_pinned(outputs, key):
    pin = np.array(_VALUE_PINS[key])
    assert np.isfinite(pin).all()
    got = _value_pin(outputs)
    assert _close_at_scale(got, pin, pin[-1]), np.abs(got - pin).max() / pin[-1]


class TestForwardFinite:
    def test_layer_one_independent_of_channel_count(self):
        spec = toy_spec(n_layers=1)
        a = sc.forward_finite(spec.with_channels(4), 3, np.random.default_rng(7))
        b = sc.forward_finite(spec.with_channels(64), 3, np.random.default_rng(7))
        assert np.array_equal(a.fields, b.fields)

    def test_zero_scales_give_zero_outputs(self):
        spec = toy_spec(sigma_w=0.0, sigma_b=0.0)
        out = sc.forward_finite(spec, 2, np.random.default_rng(0))
        assert np.all(out.fields == 0.0)

    def test_zero_input_single_layer_is_bias_broadcast(self):
        spec = sc.NetworkSpec(
            alpha=1.5, sigma_w=1.0, sigma_b=1.0, layers=(toy_layer(),),
            activation=sc.get_activation("tanh"), channels=4,
            inputs=sc.input_tensor(np.zeros((1, 4, 2))), seed=0,
        )
        out = sc.forward_finite(spec, 3, np.random.default_rng(5))
        for c in range(3):
            assert np.all(out.fields[c] == out.last_biases[c])

    def test_bad_channel_count(self):
        with pytest.raises(ValueError):
            sc.forward_finite(toy_spec(), 0, np.random.default_rng(0))

    # SHA-256 of fields then last_biases: any change to the draws or the
    # arithmetic of forward_finite must be deliberate.  They were recorded
    # when the last layer came to contract its channels before gathering
    # its patches, which summed its terms in another order and left every
    # draw as it was (the value pins held), and the CMS ones hold on one
    # numpy SIMD dispatch (see the report header of the test run).
    @pytest.mark.parametrize("case, n_out, seed, digest", _OUTPUT_PINS,
                             ids=[_pin_id(pin) for pin in _OUTPUT_PINS])
    def test_outputs_pinned(self, case, n_out, seed, digest):
        out = sc.forward_finite(_pinned_spec(case), n_out, np.random.default_rng(seed))
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(out.fields).tobytes())
        h.update(np.ascontiguousarray(out.last_biases).tobytes())
        assert h.hexdigest() == digest

    # the values beside each digest, at a tolerance (_assert_values_pinned)
    @pytest.mark.parametrize("pin", _OUTPUT_PINS, ids=[_pin_id(pin) for pin in _OUTPUT_PINS])
    def test_output_values_pinned(self, pin):
        case, n_out, seed, _ = pin
        out = sc.forward_finite(_pinned_spec(case), n_out, np.random.default_rng(seed))
        _assert_values_pinned(out.fields.reshape(1, n_out, -1), f"outputs/{case}")

    # phi(0) = 0.5: activating before the gather must still put phi(0),
    # not 0, into the padded patch slots, at the hidden layers and at the
    # last one.  The kernel sums the last layer in another order than the
    # reference, so the outputs agree at the value pins' tolerance and the
    # biases, drawn alike, bit for bit.
    def test_padding_reads_activation_at_zero(self):
        for geometry in ("toy", "three_layers", "strided_2d"):
            spec = _shifted_tanh_spec(geometry)
            out = sc.forward_finite(spec, 2, np.random.default_rng(0))
            fields, biases = _gather_then_activate(spec, 2, 1, np.random.default_rng(0))
            assert _close_at_scale(out.fields.reshape(2, -1), fields[0], np.abs(fields).max()), \
                geometry
            assert np.array_equal(out.last_biases, biases[0]), geometry

    def test_padding_reads_activation_at_zero_in_blocks(self):
        for geometry in ("toy", "three_layers", "strided_2d"):
            spec = _shifted_tanh_spec(geometry)
            size = sc.replica_block_size(spec)
            reps = sc.sample_replicas(spec, 5, n_channels=2)
            rng = sc.network.replica_rng(spec.seed, 0)
            fields, biases = _gather_then_activate(spec, 2, size, rng)
            assert _close_at_scale(reps.outputs, fields[:5], np.abs(fields[:5]).max()), geometry
            assert np.array_equal(reps.biases, biases[:5]), geometry


def _pinned_spec(case):
    if case == "toy":
        return toy_spec()
    if case == "three_layers":
        return toy_spec(n_layers=3, channels=8, seed=4)
    if case == "three_layers_cauchy":
        return toy_spec(alpha=1.0, n_layers=3, channels=5)
    if case == "three_layers_gauss":
        return toy_spec(alpha=2.0, n_layers=3, channels=16)
    if case == "shifted_tanh":
        return _shifted_tanh_spec()
    l1 = sc.ConvLayerConfig(spatial_in=(5, 5), filter_shape=3, stride=2, padding=1)
    l2 = sc.ConvLayerConfig(spatial_in=(3, 3), filter_shape=2, stride=1, padding=0)
    return sc.NetworkSpec(
        alpha=1.2, sigma_w=1.0, sigma_b=0.5, layers=(l1, l2),
        activation=sc.get_activation("signed_power"), channels=6,
        inputs=toy_inputs(in_channels=2, spatial=(5, 5)), seed=0,
    )


def _shifted_tanh_spec(geometry="toy"):
    """A net with phi(0) = 0.5 and padding at every layer: two or three toy
    layers, or two strided 2-D ones."""
    act = sc.ActivationSpec("tanh_shift", lambda s: np.tanh(s) + 0.5, a=2.0, b=1.0, beta=0.0)
    if geometry == "strided_2d":
        layers = (sc.ConvLayerConfig(spatial_in=(5, 5), filter_shape=3, stride=2, padding=1),
                  sc.ConvLayerConfig(spatial_in=(3, 3), filter_shape=3, stride=2, padding=1))
        inputs = toy_inputs(in_channels=2, spatial=(5, 5))
    else:
        layers = (toy_layer(),) * (3 if geometry == "three_layers" else 2)
        inputs = toy_inputs()
    return sc.NetworkSpec(
        alpha=1.5, sigma_w=1.0, sigma_b=1.0, layers=layers,
        activation=act, channels=4, inputs=inputs, seed=11,
    )


def _gather_then_activate(spec, n_out, batch, rng):
    """Reference forward pass: same draws as the block kernel, but each
    replica gathers its patches first and activates them afterwards."""
    k = spec.n_inputs
    fields = [spec.inputs.reshape(spec.in_channels, -1, k)] * batch
    for l, cfg in enumerate(spec.layers):
        c_in = fields[0].shape[0]
        fan_in = c_in * cfg.n_offsets
        if l < spec.n_layers - 1:
            m_out = spec.channels
            w = spec.sigma_w * sc.sample_standard(spec.alpha, (batch, m_out, fan_in), rng)
            b = spec.sigma_b * sc.sample_standard(spec.alpha, (batch, m_out), rng)
        else:
            # the last layer draws its weights, then its bias, one output
            # channel at a time
            m_out = n_out
            w, b = np.empty((batch, n_out, fan_in)), np.empty((batch, n_out))
            for j in range(n_out):
                w[:, j] = spec.sigma_w * sc.sample_standard(spec.alpha, (batch, fan_in), rng)
                b[:, j] = spec.sigma_b * sc.sample_standard(spec.alpha, batch, rng)
        nxt = []
        for i in range(batch):
            patches = sc.patch_map_for(cfg).gather(fields[i], axis=1)
            if l > 0:
                patches = spec.activation(patches)
            # one product per output row at the last layer, as the kernel
            # computes it
            rows = [w[i]] if l < spec.n_layers - 1 else np.split(w[i], m_out)
            f = np.vstack([r @ patches.reshape(fan_in, -1) for r in rows])
            if l > 0:
                f *= spec.channels ** (-1.0 / spec.alpha)
            f += b[i][:, None]
            nxt.append(f.reshape(m_out, -1, k))
        fields = nxt
    return np.stack([f.reshape(n_out, -1) for f in fields]), b


@lru_cache(maxsize=None)
def _pinned_replicas(geometry, alpha, activation, channels, n_channels, workers):
    """``sample_replicas`` of 2.5 blocks plus one replica, so the last block
    is cut, on the 1-D toy geometry (one, two or three layers) or the 2-D
    geometry of the wide-gauss benchmark workload (2 input channels, 6x6,
    two 3x3 layers with padding 1)."""
    if geometry == "wide":
        layer = sc.ConvLayerConfig(spatial_in=(6, 6), filter_shape=3, stride=1, padding=1)
        spec = sc.NetworkSpec(
            alpha=alpha, sigma_w=1.0, sigma_b=1.0, layers=(layer, layer),
            activation=sc.get_activation(activation), channels=channels,
            inputs=toy_inputs(in_channels=2, spatial=(6, 6)), seed=12,
        )
    else:
        n_layers = {"toy_1_layer": 1, "toy_3_layers": 3}.get(geometry, 2)
        spec = toy_spec(alpha=alpha, channels=channels, n_layers=n_layers,
                        activation=activation, seed=12)
    size = sc.replica_block_size(spec)
    with sc.replica_pool(workers) as pool:
        return sc.sample_replicas(spec, 2 * size + size // 2 + 1, n_channels, pool=pool)


# (geometry, alpha, activation, channels, output channels, workers, SHA-256
# of outputs then biases) of the test_replicas_pinned cases
_REPLICA_PINS = [
    ("toy", 0.7, "tanh", 16, 2, 1,
     "f844c5747bd041c137d9acdc732a3bfa62b1a2eb6c6add8a396c50afb962dc95"),
    ("toy", 1.0, "hard_clip", 64, 1, 2,
     "736725adeb9ff3e683076aa4ea09322381889ee1d59dfa0e9b5e0f09cfc66f9f"),
    ("toy", 1.5, "tanh", 256, 2, 2,
     "cb1a00c6650ecf8a3a858dbc4ab2fea6f2e5ea2f128208702a489526a0a8a22d"),
    ("toy", 1.5, "signed_power", 256, 1, 1,
     "6bb9f978b002ed5f3e18b56549ff8e1519ad794d9b2e400d18ea97076eace031"),
    ("toy", 2.0, "relu", 4, 2, 1,
     "5c3cdd627eeeb4a0b2ff1fff924e0ed2022af72808c41f62acf2a762ac9e1df6"),
    ("toy_3_layers", 1.5, "tanh", 8, 2, 2,
     "07d3df7c3ef53145bd3b14d8b1e19b3db7586c51af987f65c7e8a715154db98a"),
    ("wide", 0.7, "signed_power", 4, 1, 2,
     "bfa1b656723160fbc444ff4b30eb95cfdb77224ed305e9fcf9fb5a8a1150815c"),
    ("wide", 1.0, "tanh", 16, 2, 1,
     "5d66407d5955ec9a0566f211f343f074ea82e34455a69a36a1e1119ba6b0a73a"),
    ("wide", 1.5, "hard_clip", 64, 2, 2,
     "937c8cf42f272312324648b0140478189fef78572929b8b7e2d26d1e184bbd06"),
    ("wide", 2.0, "tanh", 64, 1, 1,
     "f39e35c76bfc4d1ab2bd172664bd1bdc303f8bd7dab60967e9171a75782f0cc4"),
    ("wide", 2.0, "relu", 16, 2, 2,
     "1abbc8086f4f65d3c38855b2ef917a3779db968938adc39b8939b145e70066c6"),
    ("toy_1_layer", 1.5, "tanh", 64, 2, 2,
     "186c8a4f6ebb6f0ecdd7843fef124dd6ab51964125e4e575ed1eaad511916d45"),
]


class TestSampleReplicas:
    def test_reproducible_from_seed(self):
        spec = toy_spec(channels=8)
        a = sc.sample_replicas(spec, 16)
        b = sc.sample_replicas(spec, 16)
        assert np.array_equal(a.outputs, b.outputs)
        assert np.array_equal(a.biases, b.biases)

    def test_single_replica_shape(self):
        reps = sc.sample_replicas(toy_spec(channels=4), 1)
        assert reps.outputs.shape == (1, 1, 8)

    def test_replicas_are_prefix_stable(self):
        # blocks always draw in full: the first k replicas do not depend on the total
        spec = toy_spec(channels=4)
        small = sc.sample_replicas(spec, 4)
        large = sc.sample_replicas(spec, 8)
        assert np.array_equal(small.outputs, large.outputs[:4])

    @pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("geometry", ["toy", "strided_2d"])
    def test_channels_are_prefix_stable(self, geometry, alpha):
        # the last layer draws its channels one after another, so channel
        # j < k of N replicas with k channels is channel j of N' >= N
        # replicas with k' >= k channels, bit for bit: channel 0 of a
        # two-channel cache is a one-channel sample
        base = toy_spec(channels=64) if geometry == "toy" else _pinned_spec("strided_2d")
        spec = replace(base.with_channels(64), alpha=alpha)
        size = sc.replica_block_size(spec)
        wide = sc.sample_replicas(spec, 3 * size, n_channels=3)
        for workers in (1, 2):
            with sc.replica_pool(workers) as pool:
                for k in (1, 2, 3):
                    reps = sc.sample_replicas(spec, 2 * size + 1, n_channels=k, pool=pool)
                    assert reps.outputs.tobytes() == wide.outputs[: 2 * size + 1, :k].tobytes()
                    assert reps.biases.tobytes() == wide.biases[: 2 * size + 1, :k].tobytes()

    def test_worker_pool_matches_serial(self):
        spec = toy_spec(channels=4)
        serial = sc.sample_replicas(spec, 12, n_channels=2)
        with sc.replica_pool(3) as pool:
            pooled = sc.sample_replicas(spec, 12, n_channels=2, pool=pool)
        assert np.array_equal(serial.outputs, pooled.outputs)
        assert np.array_equal(serial.biases, pooled.biases)

    def test_input_slab_is_built_once_per_job(self, monkeypatch):
        # the inputs are fixed, so one job of several blocks gathers the
        # first layer's patches once, in its one _BlockArrays, and draws
        # what one block at a time does
        spec = toy_spec(channels=256)
        size = sc.replica_block_size(spec)
        one_by_one = [sc.sample_replicas(spec, (b + 1) * size) for b in range(3)]
        builds = []

        class Counted(sc.network._BlockArrays):
            def __init__(self, spec, size):
                builds.append(size)
                super().__init__(spec, size)

        monkeypatch.setattr(sc.network, "_BlockArrays", Counted)
        reps = sc.sample_replicas(spec, 3 * size)
        assert builds == [size]
        for b, head in enumerate(one_by_one):
            assert reps.outputs[: (b + 1) * size].tobytes() == head.outputs.tobytes()

    def test_layers_share_no_memory(self):
        # each layer draws and computes into its own arrays, so no layer
        # can read what a later one overwrote
        spec = toy_spec(channels=8, n_layers=3)
        arrays = sc.network._BlockArrays(spec, sc.replica_block_size(spec))
        layers = [*arrays.layers[:-1], (*arrays.layers[-1], arrays.u, arrays.gathered)]
        for (l, mine), (k, theirs) in combinations(enumerate(layers), 2):
            for a, b in product(mine, theirs):
                assert not np.shares_memory(a, b), (l, k)
        # nor do the last layer's own: it reads its padded field through u
        # and gathered
        for a, b in combinations(layers[-1], 2):
            assert not np.shares_memory(a, b)

    # SHA-256 of outputs then biases of 2.5 blocks of replicas.  Like the
    # other digests they hold on one numpy SIMD dispatch (PIN_KERNELS in
    # conftest.py; see the report header of the test run).  The cases of
    # two or more layers were recorded again when the last layer came to
    # contract its channels before gathering its patches, with their value
    # pins and biases unchanged; the one-layer case was recorded before
    # that change, which left one-layer nets as they were.
    @pytest.mark.parametrize(
        "geometry, alpha, activation, channels, n_channels, workers, digest", _REPLICA_PINS,
        ids=[_pin_id(pin) for pin in _REPLICA_PINS])
    def test_replicas_pinned(self, geometry, alpha, activation, channels, n_channels,
                             workers, digest):
        reps = _pinned_replicas(geometry, alpha, activation, channels, n_channels, workers)
        h = hashlib.sha256()
        h.update(reps.outputs.tobytes())
        h.update(reps.biases.tobytes())
        assert h.hexdigest() == digest

    # the values beside each digest, at a tolerance (_assert_values_pinned)
    @pytest.mark.parametrize("pin", _REPLICA_PINS, ids=[_pin_id(pin) for pin in _REPLICA_PINS])
    def test_replica_values_pinned(self, pin):
        _assert_values_pinned(_pinned_replicas(*pin[:-1]).outputs, f"replicas/{_pin_id(pin)}")

    def test_blocks_reuse_their_arrays(self):
        # a replica job allocates its block arrays once: 2000 two-channel
        # replicas at the toy geometry's C = 256 (112 blocks) fault in about
        # 1000 pages in a fresh process, where freeing and taking back every
        # block's 1.8 MB of arrays faulted in 51k
        code = (
            "import resource\n"
            "import numpy as np, stableconv as sc\n"
            "layer = sc.ConvLayerConfig(spatial_in=4, filter_shape=3, stride=1, padding=1)\n"
            "inputs = sc.input_tensor(np.random.default_rng(0).standard_normal((1, 4, 2)))\n"
            "spec = sc.NetworkSpec(alpha=1.5, sigma_w=1.0, sigma_b=1.0, layers=(layer, layer),\n"
            "                      activation=sc.get_activation('tanh'), channels=256,\n"
            "                      inputs=inputs, seed=11)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "sc.sample_replicas(spec, 2000, 2)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        src = str(Path(sc.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, check=True)
        assert int(done.stdout) < 5000

    def test_block_size_follows_byte_budget(self):
        # the block partition fixes every replica draw, so pin it
        sizes = [sc.replica_block_size(toy_spec(channels=c)) for c in (4, 64, 256)]
        assert sizes == [1024, 75, 18]

    def test_block_boundaries(self):
        # about 2.5 blocks, so the pool splits inside the replica range and
        # the last block is cut
        spec = toy_spec(channels=256)
        size = sc.replica_block_size(spec)
        n = 5 * size // 2
        runs = []
        for workers in (1, 2, 3):
            with sc.replica_pool(workers) as pool:
                runs.append(sc.sample_replicas(spec, n, n_channels=2, pool=pool))
        for run in runs[1:]:
            assert run.outputs.tobytes() == runs[0].outputs.tobytes()
            assert run.biases.tobytes() == runs[0].biases.tobytes()
        head = sc.sample_replicas(spec, size + 1, n_channels=2)
        assert np.array_equal(head.outputs, runs[0].outputs[: size + 1])
        assert np.array_equal(head.biases, runs[0].biases[: size + 1])

    def test_layer_one_law_matches_exact_measure(self):
        # the first layer's law is exact at any channel count
        spec = toy_spec(n_layers=1, channels=3, seed=21)
        reps = sc.sample_replicas(spec, 10_000)
        measure = sc.gamma_first(spec.inputs, spec.layers[0], spec.alpha,
                                 spec.sigma_w, spec.sigma_b)
        probes = sc.generate_probes(measure, n_probes=20, seed=4)
        emp = sc.empirical_cf(reps.channel_samples(0), probes.probes)
        theo = sc.cf_multivariate(measure, probes.probes)
        sup, _ = sc.cf_distance(emp, theo)
        assert sup < 0.03

    def test_exchangeability_of_channels(self):
        spec = toy_spec(channels=16, seed=3)
        reps = sc.sample_replicas(spec, 8_000, n_channels=2)
        measure = sc.limit_measures(spec, sc.LimitConfig(mc_samples=2_000, seed=9))[-1]
        probes = sc.generate_probes(measure, n_probes=20, seed=8)
        e1 = sc.empirical_cf(reps.channel_samples(0), probes.probes)
        e2 = sc.empirical_cf(reps.channel_samples(1), probes.probes)
        budget = 4 * sc.cf_standard_error(reps.n_replicas)
        assert np.abs(e1 - e2).max() < budget

    def test_gaussian_endpoint_variance_matches_kernel(self):
        # at alpha = 2 the first layer is a Gaussian CNN; spot-check variances
        spec = toy_spec(alpha=2.0, n_layers=1, seed=17)
        reps = sc.sample_replicas(spec, 20_000)
        pm = sc.patch_map_for(spec.layers[0])
        patches = pm.gather(spec.inputs.reshape(1, 4, 2), axis=1)
        slices = patches.reshape(3, 8)
        expected = 2 * spec.sigma_b**2 + 2 * spec.sigma_w**2 * np.sum(
            slices**2, axis=0
        )
        observed = reps.channel_samples(0).var(axis=0)
        assert np.allclose(observed, expected, rtol=0.08)


class TestChannelMixture:
    def test_single_channel_strips_bias(self, rng):
        outputs = rng.standard_normal((2, 8))
        biases = rng.standard_normal(2)
        mix = sc.channel_mixture(outputs, [1.0], biases)
        assert np.allclose(mix, outputs[0] - biases[0], rtol=0, atol=0)

    def test_zero_weights(self, rng):
        outputs = rng.standard_normal((5, 2, 8))
        biases = rng.standard_normal((5, 2))
        mix = sc.channel_mixture(outputs, [0.0, 0.0], biases)
        assert np.all(mix == 0.0)

    def test_index_out_of_range(self, rng):
        outputs = rng.standard_normal((2, 8))
        with pytest.raises(IndexError):
            sc.channel_mixture(outputs, [1.0, 1.0, 1.0], rng.standard_normal(2))

    def test_batch_shape(self, rng):
        outputs = rng.standard_normal((7, 3, 8))
        biases = rng.standard_normal((7, 3))
        mix = sc.channel_mixture(outputs, [1.0, 0.0, -1.0], biases)
        assert mix.shape == (7, 8)
        manual = (outputs[:, 0] - biases[:, 0, None]) - (
            outputs[:, 2] - biases[:, 2, None]
        )
        assert np.allclose(mix, manual, rtol=0, atol=1e-15)


class TestReplicaCache:
    def test_round_trip(self, tmp_path):
        reps = sc.sample_replicas(toy_spec(channels=4), 10, n_channels=2)
        path = tmp_path / "replicas.bin"
        sc.save_replicas(path, reps)
        again = sc.load_replicas(path)
        assert np.array_equal(again.outputs, reps.outputs)
        assert np.array_equal(again.biases, reps.biases)
        assert again.alpha == reps.alpha
        assert again.seed == reps.seed

    def test_bytes_are_the_copied_encoding(self, tmp_path):
        # written from the arrays' own memory, the file holds the bytes of
        # their little-endian copies, and reads back as the same arrays; a
        # strided or big-endian array is copied once
        sampled = sc.sample_replicas(toy_spec(channels=4), 10, n_channels=2)
        other = replace(sampled, outputs=sampled.outputs[:, ::-1], biases=sampled.biases.astype(">f8"))
        for reps in (sampled, other):
            path = tmp_path / "replicas.bin"
            sc.save_replicas(path, reps)
            n, c, d = reps.outputs.shape
            head = b"SCREPL2\x00" + struct.pack("<dqQQQ", reps.alpha, reps.seed, n, c, d)
            copied = reps.outputs.astype("<f8").tobytes() + reps.biases.astype("<f8").tobytes()
            assert path.read_bytes() == head + copied
            again = sc.load_replicas(path)
            assert np.array_equal(again.outputs, reps.outputs)
            assert np.array_equal(again.biases, reps.biases)

    def test_failed_write_keeps_the_previous_file(self, tmp_path):
        # the bias block fails after the header and outputs are written: the
        # previous file, or none, stays at the path, with nothing beside it
        reps = sc.sample_replicas(toy_spec(channels=4), 3, n_channels=2)
        old = tmp_path / "old.bin"
        sc.save_replicas(old, reps)
        before = old.read_bytes()

        class Unwritable:
            # fails however the writer converts it
            def __array__(self, dtype=None, copy=None):
                raise OSError("disk full")

            astype = __array__

        broken = SimpleNamespace(outputs=reps.outputs, biases=Unwritable(),
                                 alpha=reps.alpha, seed=reps.seed)
        for path in (old, tmp_path / "new.bin"):
            with pytest.raises(OSError, match="disk full"):
                sc.save_replicas(path, broken)
        assert old.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["old.bin"]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a cache")
        with pytest.raises(ValueError):
            sc.load_replicas(path)

    def test_old_format_rejected(self, tmp_path):
        # version 1 drew a replica's output channels in one weight draw, so
        # its channel 0 is not what a one-channel sample draws
        reps = sc.sample_replicas(toy_spec(channels=4), 3, n_channels=2)
        path = tmp_path / "replicas_C4.bin"
        sc.save_replicas(path, reps)
        whole = path.read_bytes()
        assert whole.startswith(b"SCREPL2\x00")
        path.write_bytes(b"SCREPL1\x00" + whole[8:])
        with pytest.raises(ValueError, match=r"replicas_C4\.bin.*SCREPL1"):
            sc.load_replicas(path)

    def test_length_must_match_header(self, tmp_path):
        reps = sc.sample_replicas(toy_spec(channels=4), 3, n_channels=2)
        path = tmp_path / "replicas.bin"
        sc.save_replicas(path, reps)
        whole = path.read_bytes()
        # one value short, one value extra, and the magic alone
        for data in (whole[:-8], whole + bytes(8), whole[:8]):
            path.write_bytes(data)
            with pytest.raises(ValueError, match="replica cache"):
                sc.load_replicas(path)


class TestReplicaPool:
    def test_one_worker_is_no_pool(self):
        with sc.replica_pool(1) as pool:
            assert pool is None
        with pytest.raises(ValueError):
            with sc.replica_pool(0):
                pass

    def test_workers_start_before_the_pool_is_yielded(self):
        with sc.replica_pool(2) as pool:
            assert pool.workers == 2
            assert len(multiprocessing.active_children()) == 2
        assert multiprocessing.active_children() == []

    def test_workers_are_joined_when_the_block_raises(self):
        spec = toy_spec(channels=4)
        with pytest.raises(RuntimeError, match="stop"):
            with sc.replica_pool(2) as pool:
                sc.sample_replicas(spec, 3000, pool=pool)
                raise RuntimeError("stop")
        assert multiprocessing.active_children() == []
