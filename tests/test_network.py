import hashlib
import multiprocessing
import os
import struct
import subprocess
import sys
from dataclasses import replace
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
    # arithmetic of forward_finite must be deliberate.  The cases with two or
    # more output channels were recorded when the last layer came to draw
    # its channels one at a time, and the CMS ones among them hold on one
    # numpy SIMD dispatch (see the report header of the test run); the
    # one-channel Cauchy case predates the block kernel.
    @pytest.mark.parametrize(
        "case, n_out, seed, digest",
        [
            ("toy", 2, 0, "2b276a3ddb054cc827c432a91d9f244d7a70995459e26cf94fb6e05a264822f9"),
            ("three_layers", 3, 1, "5d5d3e1b3b3f78d521552c97ac47c1742361f5079ee03e1269b421eb2e753fc6"),
            ("three_layers_cauchy", 1, 2, "bcdb92290dca78b8d662b46ed955db459f4d4b00cd1ed135db1f7f010098268b"),
            ("three_layers_gauss", 2, 3, "9568a64329fdfc9a16ead4a5ac4452e9a8eb43854584b3e43540db6bf7bc71df"),
            ("strided_2d", 2, 4, "7f4961c6ae62b78ec47e9f798689a236e1903c36d506306955ff64b86df387ff"),
        ],
    )
    def test_outputs_pinned(self, case, n_out, seed, digest):
        out = sc.forward_finite(_pinned_spec(case), n_out, np.random.default_rng(seed))
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(out.fields).tobytes())
        h.update(np.ascontiguousarray(out.last_biases).tobytes())
        assert h.hexdigest() == digest

    def test_padding_reads_activation_at_zero(self):
        # phi(0) = 0.5: activating before the gather must still put phi(0),
        # not 0, into the padded patch slots
        spec = _shifted_tanh_spec()
        out = sc.forward_finite(spec, 2, np.random.default_rng(0))
        fields, biases = _gather_then_activate(spec, 2, 1, np.random.default_rng(0))
        assert np.array_equal(out.fields.reshape(2, -1), fields[0])
        assert np.array_equal(out.last_biases, biases[0])

    def test_padding_reads_activation_at_zero_in_blocks(self):
        spec = _shifted_tanh_spec()
        size = sc.replica_block_size(spec)
        reps = sc.sample_replicas(spec, 5, n_channels=2)
        rng = sc.network.replica_rng(spec.seed, 0)
        fields, biases = _gather_then_activate(spec, 2, size, rng)
        assert np.array_equal(reps.outputs, fields[:5])
        assert np.array_equal(reps.biases, biases[:5])


def _pinned_spec(case):
    if case == "toy":
        return toy_spec()
    if case == "three_layers":
        return toy_spec(n_layers=3, channels=8, seed=4)
    if case == "three_layers_cauchy":
        return toy_spec(alpha=1.0, n_layers=3, channels=5)
    if case == "three_layers_gauss":
        return toy_spec(alpha=2.0, n_layers=3, channels=16)
    l1 = sc.ConvLayerConfig(spatial_in=(5, 5), filter_shape=3, stride=2, padding=1)
    l2 = sc.ConvLayerConfig(spatial_in=(3, 3), filter_shape=2, stride=1, padding=0)
    return sc.NetworkSpec(
        alpha=1.2, sigma_w=1.0, sigma_b=0.5, layers=(l1, l2),
        activation=sc.get_activation("signed_power"), channels=6,
        inputs=toy_inputs(in_channels=2, spatial=(5, 5)), seed=0,
    )


def _shifted_tanh_spec():
    act = sc.ActivationSpec("tanh_shift", lambda s: np.tanh(s) + 0.5, a=2.0, b=1.0, beta=0.0)
    return sc.NetworkSpec(
        alpha=1.5, sigma_w=1.0, sigma_b=1.0, layers=(toy_layer(), toy_layer()),
        activation=act, channels=4, inputs=toy_inputs(), seed=11,
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


def _replica_digest(geometry, alpha, activation, channels, n_channels, workers):
    """SHA-256 of ``sample_replicas`` outputs then biases for 2.5 blocks plus
    one replica, so the last block is cut, on the 1-D toy geometry (two or
    three layers) or the 2-D geometry of the wide-gauss benchmark workload
    (2 input channels, 6x6, two 3x3 layers with padding 1)."""
    if geometry == "wide":
        layer = sc.ConvLayerConfig(spatial_in=(6, 6), filter_shape=3, stride=1, padding=1)
        spec = sc.NetworkSpec(
            alpha=alpha, sigma_w=1.0, sigma_b=1.0, layers=(layer, layer),
            activation=sc.get_activation(activation), channels=channels,
            inputs=toy_inputs(in_channels=2, spatial=(6, 6)), seed=12,
        )
    else:
        n_layers = 3 if geometry == "toy_3_layers" else 2
        spec = toy_spec(alpha=alpha, channels=channels, n_layers=n_layers,
                        activation=activation, seed=12)
    size = sc.replica_block_size(spec)
    with sc.replica_pool(workers) as pool:
        reps = sc.sample_replicas(spec, 2 * size + size // 2 + 1, n_channels, pool=pool)
    h = hashlib.sha256()
    h.update(reps.outputs.tobytes())
    h.update(reps.biases.tobytes())
    return h.hexdigest()


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
        layers = sc.network._BlockArrays(spec, sc.replica_block_size(spec)).layers
        for (l, mine), (k, theirs) in combinations(enumerate(layers), 2):
            for a, b in product(mine, theirs):
                assert not np.shares_memory(a, b), (l, k)

    # SHA-256 of outputs then biases of 2.5 blocks of replicas, recorded
    # before the replica jobs drew into buffers they allocate once: those
    # buffers must change no draw and no arithmetic.  Like the other pins
    # they hold on one numpy SIMD dispatch (PIN_KERNELS in conftest.py; see
    # the report header of the test run).
    @pytest.mark.parametrize(
        "geometry, alpha, activation, channels, n_channels, workers, digest",
        [
            ("toy", 0.7, "tanh", 16, 2, 1,
             "a4a471b4ba968a25b7dc24e19466e63337f9a23919264b6b23c022080bae0b3a"),
            ("toy", 1.0, "hard_clip", 64, 1, 2,
             "96e7cea06713afbe26a9a4c10bf99c712f997c8297ed9b26c420ef00edbfe8d1"),
            ("toy", 1.5, "tanh", 256, 2, 2,
             "43a7b7a19444a1b54aaab1a8e27af336f78a4acf7e5a830b24ae1241f90c27a7"),
            ("toy", 1.5, "signed_power", 256, 1, 1,
             "fd7491b02c397f7a9a71c2f6ea7b1d8819a6db82279b393c38a06e47cc5b353f"),
            ("toy", 2.0, "relu", 4, 2, 1,
             "fac2912d71f18708bedc5ebf30b303ca6d3cd48d626cff4068e6a09e9afee71c"),
            ("toy_3_layers", 1.5, "tanh", 8, 2, 2,
             "b8ee856bd744567435dc09fe4115184043362e6e59dfd83f6bcfd646fe44a259"),
            ("wide", 0.7, "signed_power", 4, 1, 2,
             "ead983096dcc74b07ca670e483cd8de7b3c65abbd46443d002f08b0d80b1cec7"),
            ("wide", 1.0, "tanh", 16, 2, 1,
             "dce02d052e1309e6124714bfb5a9e24b5d8da4e3f7795024f6e649f2fd2fcf8a"),
            ("wide", 1.5, "hard_clip", 64, 2, 2,
             "b5efa33de19fea176354c3492888487bd22c65ddbbe563b384c7c2c8c0f57b9a"),
            ("wide", 2.0, "tanh", 64, 1, 1,
             "ad219e74acf9fc59cd32ca0ff9e14b3cf9e999dce501d0bb6915d81ac39b0192"),
            ("wide", 2.0, "relu", 16, 2, 2,
             "688ad07c8141012768f0eb0bef40206e1faafcd9d62c5c6f08199c69772d7415"),
        ],
    )
    def test_replicas_pinned(self, geometry, alpha, activation, channels, n_channels,
                             workers, digest):
        assert _replica_digest(geometry, alpha, activation, channels, n_channels,
                               workers) == digest

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
