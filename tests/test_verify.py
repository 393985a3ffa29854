import dataclasses
import os
import subprocess
import sys
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import stableconv as sc
from stableconv import limits

from conftest import random_conv_case, toy_inputs, toy_spec


@pytest.fixture(scope="module")
def toy_limit():
    spec = toy_spec()
    return spec, sc.limit_measures(spec, sc.LimitConfig(mc_samples=4_000, seed=5))[-1]


class TestProbeSet:
    def test_includes_zero_and_is_discriminative(self, toy_limit):
        _, measure = toy_limit
        probes = sc.generate_probes(measure, n_probes=20, seed=1)
        assert np.all(probes.probes[0] == 0.0)
        theo = sc.cf_multivariate(measure, probes.probes)
        radii = np.linalg.norm(probes.probes, axis=1)
        assert theo.min() < 0.2
        assert theo[radii > 0].max() > 0.8

    def test_deduplicated(self, toy_limit):
        _, measure = toy_limit
        probes = sc.generate_probes(measure, n_probes=30, seed=2).probes
        assert len(np.unique(probes, axis=0)) == probes.shape[0]

    def test_cf_is_the_calibration_laws_cf(self, toy_limit):
        # the CF comes from the exponent at the unit directions, scaled by
        # r^alpha: it equals the CF at the probes to rounding, the zero
        # probe's exactly
        _, measure = toy_limit
        probes = sc.generate_probes(measure, n_probes=20, seed=1)
        direct = sc.cf_multivariate(measure, probes.probes)
        assert np.abs(probes.cf / direct - 1).max() <= 1e-14
        assert probes.cf[0] == 1.0
        with pytest.raises(ValueError):
            probes.cf[1] = 0.5

    @pytest.mark.parametrize("alpha", [0.3, 0.5])
    @pytest.mark.parametrize("limit_seed", range(5))
    def test_discriminative_at_small_alpha(self, alpha, limit_seed):
        # radius factors {0.25, 0.5, 1, 2} alone would keep the CF along the
        # median direction inside (0.2, 0.8) at alpha <= 0.6
        measure = sc.limit_measures(
            toy_spec(alpha=alpha), sc.LimitConfig(mc_samples=2_000, seed=limit_seed))[-1]
        probes = sc.generate_probes(measure, n_probes=20, seed=0)
        assert probes.cf[1:].min() < 0.2 and probes.cf[1:].max() > 0.8

    def test_constructor_guards(self):
        with pytest.raises(ValueError):
            sc.ProbeSet(np.ones((3, 2)), np.ones(3))

    @pytest.mark.parametrize("shape", [(2,), (4,), (3, 1), ()])
    def test_cf_shape_checked(self, shape):
        probes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert sc.ProbeSet(probes, np.ones(3)).n_probes == 3
        with pytest.raises(ValueError):
            sc.ProbeSet(probes, np.ones(shape))

    def test_empty_measure_rejected(self):
        with pytest.raises(ValueError):
            sc.generate_probes(sc.empty_measure(1.5, 4), seed=0)


class TestEmpiricalCF:
    def test_zero_probe_is_exactly_one(self, rng):
        samples = rng.standard_normal((100, 3))
        assert sc.empirical_cf(samples, np.zeros((1, 3)))[0] == 1.0

    def test_degenerate_samples(self, rng):
        samples = np.zeros((50, 3))
        probes = rng.standard_normal((4, 3))
        assert np.all(sc.empirical_cf(samples, probes) == 1.0)

    def test_clt_bound_against_known_law(self, rng):
        dirs = rng.standard_normal((4, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        measure = sc.SpectralMeasure(1.5, rng.uniform(0.5, 1.5, 4), dirs)
        n = 40_000
        draws = sc.sample_multivariate(measure, rng, size=n)
        probes = sc.generate_probes(measure, n_probes=20, seed=7).probes
        emp = sc.empirical_cf(draws, probes)
        theo = sc.cf_multivariate(measure, probes)
        assert np.abs(emp - theo).max() < 3 * sc.cf_standard_error(n)

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            sc.empirical_cf(np.zeros((0, 3)), np.zeros((1, 3)))

    def test_single_probe_is_refused(self, rng):
        # probes come as an (n, d) batch: a 1-D probe, or any other shape,
        # raises, naming the batch shape
        samples = rng.standard_normal((10, 3))
        for probes in (np.zeros(3), np.zeros((1, 1, 3)), 0.0):
            with pytest.raises(ValueError, match=r"\(n, 3\)"):
                sc.empirical_cf(samples, probes)

    def test_block_sums_equal_the_whole_mean(self, rng):
        # 21 probes give blocks of 3120 samples, so 7000 samples are three
        # blocks; the CF and the factorization defect equal the whole-N
        # expressions to rounding
        a, b = rng.standard_normal((7000, 3)), rng.standard_normal((7000, 3))
        ta, tb = rng.standard_normal((21, 3)), rng.standard_normal((21, 3))
        ta[0] = tb[0] = 0.0
        whole = np.exp(1j * (a @ ta.T)).mean(axis=0)
        assert np.abs(sc.empirical_cf(a, ta) - whole).max() < 1e-13
        pa, pb = a @ ta.T, b @ tb.T
        defect = np.abs(np.exp(1j * (pa + pb)).mean(axis=0)
                        - np.exp(1j * pa).mean(axis=0) * np.exp(1j * pb).mean(axis=0))
        probe_sets = [sc.ProbeSet(t, np.ones(21)) for t in (ta, tb, ta)]
        report = sc.independence_check(np.stack([a, b], axis=1), np.zeros((7000, 2)), [1.0, 1.0],
                                       *probe_sets)
        assert abs(report["max_factorization_defect"] - defect.max()) < 1e-13


class TestCFDistance:
    def test_identical_inputs(self):
        vals = np.array([0.3, 0.5, 1.0])
        assert sc.cf_distance(vals, vals) == (0.0, 0.0)

    def test_constant_example(self):
        sup, mean = sc.cf_distance(np.array([1.0]), np.array([np.exp(-1.0)]))
        assert sup == pytest.approx(1 - np.exp(-1.0))
        assert mean == pytest.approx(1 - np.exp(-1.0))

    def test_misaligned_probes_rejected(self):
        with pytest.raises(ValueError):
            sc.cf_distance(np.ones(3), np.ones(4))


class TestConvergenceSweep:
    def test_single_layer_rows_identical_across_channels(self):
        # a one-layer network never touches C, so every row is the same draw
        spec = toy_spec(n_layers=1, seed=19)
        report = sc.convergence_sweep(
            spec, [2, 8, 32], 4_000, sc.LimitConfig(mc_samples=100, seed=3)
        )
        sups = [r.sup_cf_dist for r in report.rows]
        assert sups[0] == sups[1] == sups[2]
        assert sups[0] < 4 * sc.cf_standard_error(4_000)

    def test_zero_weight_scale_collapses(self):
        spec = toy_spec(sigma_w=0.0, seed=23)
        report = sc.convergence_sweep(
            spec, [2, 8], 4_000, sc.LimitConfig(mc_samples=100, seed=3)
        )
        for row in report.rows:
            assert row.sup_cf_dist < 4 * sc.cf_standard_error(4_000)

    def test_non_increasing_channel_list_rejected(self):
        spec = toy_spec()
        with pytest.raises(ValueError):
            sc.convergence_sweep(spec, [8, 8], 100, sc.LimitConfig(mc_samples=50))

    def test_csv_schema_and_determinism(self):
        spec = toy_spec(seed=29)
        lcfg = sc.LimitConfig(mc_samples=500, seed=2)
        a = sc.convergence_sweep(spec, [2, 4], 500, lcfg)
        b = sc.convergence_sweep(spec, [2, 4], 500, lcfg)
        assert a.to_csv() == b.to_csv()
        lines = a.to_csv().splitlines()
        assert lines[0] == "C,n_replicas,M,sup_cf_dist,mean_cf_dist,seconds"
        assert len(lines) == 3
        for row in a.rows:
            assert 0.0 <= row.sup_cf_dist <= 2.0
            assert 0.0 <= row.mean_cf_dist <= 2.0

    def test_non_finite_cached_outputs_raise(self):
        # two replicas among the first n_replicas hold a non-finite value in
        # channel 0, and one beyond them does, which the sweep never reads
        spec = toy_spec(seed=29, channels=4)
        reps = sc.sample_replicas(spec, 60, n_channels=2)
        outputs = reps.outputs.copy()
        outputs[3, 0, 1], outputs[7, 0, 0], outputs[55, 0, 0] = np.inf, np.nan, np.inf
        outputs[9, 1, 0] = np.inf  # channel 1 is not swept
        cache = sc.ReplicaSet(outputs, reps.biases, reps.alpha, reps.seed)
        probes = sc.generate_probes(sc.limit_measures(spec, sc.LimitConfig(mc_samples=100))[-1])
        message = r"^2 of 50 replicas at C = 4 have non-finite outputs \(alpha = 1.5\)$"
        with pytest.raises(sc.NonFiniteReplicas, match=message):
            sc.convergence_sweep(spec, [4], 50, sc.LimitConfig(mc_samples=100), probes=probes,
                                 caches={4: cache})

    def test_timing_column_suppressed_by_default(self):
        spec = toy_spec(seed=29)
        report = sc.convergence_sweep(spec, [2], 200, sc.LimitConfig(mc_samples=100, seed=2))
        assert report.to_csv().splitlines()[1].endswith(",0.000")
        assert report.rows[0].seconds > 0.0


def _with_pid(fn, job):
    return os.getpid(), fn(job)


class _PidPool:
    """A replica pool that records the pid of the worker that ran each job."""

    def __init__(self, pool):
        self.pool, self.workers, self.pids, self.jobs = pool, pool.workers, set(), 0

    def map(self, fn, jobs):
        for pid, part in self.pool.map(partial(_with_pid, fn), jobs):
            self.pids.add(pid)
            self.jobs += 1
            yield part


class TestSweepPool:
    def test_every_point_reuses_the_pool_workers(self):
        # 2100 replicas are at least 3 blocks at C = 4 and at C = 16, so each
        # point splits into two jobs; all of them run in the pool's two
        # workers, and the rows are those of the serial sweep
        spec = toy_spec(seed=29)
        lcfg = sc.LimitConfig(mc_samples=500, seed=2)
        probes = sc.generate_probes(sc.limit_measures(spec, lcfg)[-1])
        serial = sc.convergence_sweep(spec, [4, 16], 2100, lcfg, probes=probes)
        with sc.replica_pool(2) as pool:
            tracked = _PidPool(pool)
            pooled = sc.convergence_sweep(spec, [4, 16], 2100, lcfg, probes=probes,
                                          pool=tracked)
        assert tracked.jobs == 4
        assert len(tracked.pids) <= 2 and os.getpid() not in tracked.pids
        assert pooled.to_csv() == serial.to_csv()


def wide_spec(channels):
    """The 2-D geometry of the wide-gauss benchmark workload: 2 input
    channels, 6x6, two 3x3 layers with padding 1, alpha = 2."""
    layer = sc.ConvLayerConfig(spatial_in=(6, 6), filter_shape=3, stride=1, padding=1)
    return sc.NetworkSpec(
        alpha=2.0, sigma_w=1.0, sigma_b=1.0, layers=(layer, layer),
        activation=sc.get_activation("tanh"), channels=channels,
        inputs=toy_inputs(in_channels=2, spatial=(6, 6)), seed=12,
    )


def random_probes(spec, n=21, scale=0.05):
    """A probe set of ``n`` probes, the zero probe first, with CF 1 at each:
    the rows compared here need no limit law."""
    p = np.random.default_rng(4).standard_normal((n, spec.out_dim)) * scale
    p[0] = 0.0
    return sc.ProbeSet(p, np.ones(n))


class TestSweepReduction:
    """A sweep point's replica jobs return one row of CF sums per replica
    block, not their replicas."""

    def test_rows_do_not_depend_on_the_worker_count(self):
        # blocks of 3 replicas at C = 64: N = 50 gives 17 blocks, and a job
        # multiplies at most 3 rows by the probes at a time
        spec = wide_spec(64)
        assert sc.replica_block_size(spec) == 3
        probes = random_probes(spec).probes
        runs = []
        for workers in (1, 2, 3):
            with sc.replica_pool(workers) as pool:
                sums, bad = sc.network.replica_cf_sums(spec, 50, probes, pool=pool)
            assert sums.shape == (17, 21) and bad == 0
            runs.append(sums.tobytes())
        assert runs[0] == runs[1] == runs[2]
        # every row of the zero probe counts its block's replicas
        assert list(np.frombuffer(runs[0], complex).reshape(17, 21)[:, 0]) == [3] * 16 + [2]

    @pytest.mark.parametrize("spec", [wide_spec(64), toy_spec(channels=256, seed=29)],
                             ids=["wide", "toy"])
    def test_cache_served_rows_equal_sampled_rows(self, spec):
        # channel 0 of a two-channel cache is strided; its rows, and the
        # sweep rows it serves, equal those the replica jobs reduce
        size = sc.replica_block_size(spec)
        n = 4 * size + 1
        probes = random_probes(spec)
        cache = sc.sample_replicas(spec, n + 7, n_channels=2)
        assert not cache.outputs[:, 0].flags.c_contiguous
        served = sc.stable.cf_block_sums(cache.outputs[:n, 0], probes.probes, size)
        with sc.replica_pool(2) as pool:
            sampled, _ = sc.network.replica_cf_sums(spec, n, probes.probes, pool=pool)
            swept = sc.convergence_sweep(spec, [spec.channels], n, sc.LimitConfig(mc_samples=10),
                                         probes=probes, pool=pool)
        assert served.tobytes() == sampled.tobytes()
        cached = sc.convergence_sweep(spec, [spec.channels], n, sc.LimitConfig(mc_samples=10),
                                      probes=probes, caches={spec.channels: cache})
        assert cached.rows[0] == dataclasses.replace(swept.rows[0], seconds=cached.rows[0].seconds)

    def test_pooled_point_counts_non_finite_replicas(self):
        # alpha = 0.01 overflows float64 in some weight draws; 400 replicas
        # are two blocks at C = 16, one job each in a 2-worker pool
        spec = toy_spec(alpha=0.01, channels=16, seed=3)
        assert sc.replica_block_size(spec) < 400 <= 2 * sc.replica_block_size(spec)
        with np.errstate(all="ignore"):
            outputs = sc.sample_replicas(spec, 400).outputs
        bad = sc.network.non_finite_rows(outputs[:, 0])
        assert 0 < bad < 400
        message = rf"^{bad} of 400 replicas at C = 16 have non-finite outputs \(alpha = 0.01\)$"
        with sc.replica_pool(2) as pool:
            with pytest.raises(sc.NonFiniteReplicas, match=message):
                sc.convergence_sweep(spec, [16], 400, sc.LimitConfig(mc_samples=10),
                                     probes=random_probes(spec), pool=pool)

    def test_caller_holds_no_replicas_of_a_pooled_point(self):
        # one wide C = 64 point of 5000 replicas: their channel 0 is 2.9 MB,
        # and its phases and complex exponentials 4.2 MB more.  Traced peak
        # of this process: 6.8 MiB when the jobs returned their replicas,
        # 1.1 MiB with their (1667, 21) complex rows
        spec = wide_spec(64)
        with sc.replica_pool(2) as pool:
            tracemalloc.start()
            try:
                sc.convergence_sweep(spec, [64], 5000, sc.LimitConfig(mc_samples=10),
                                     probes=random_probes(spec), pool=pool)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 3 * 2**20


class TestIndependence:
    def test_negative_control_fails_factorization(self, toy_limit, rng):
        spec, measure = toy_limit
        reps = sc.sample_replicas(spec.with_channels(32), 4_000, n_channels=2)
        pa = sc.generate_probes(measure, n_probes=20, seed=31)
        pb = sc.generate_probes(measure, n_probes=20, seed=77)
        mix = sc.generate_probes(sc.mixture_measure(measure, [1.0, 1.0]), n_probes=20, seed=13)
        report = sc.independence_check(reps.outputs, reps.biases, [1.0, 1.0], pa, pb, mix)
        assert report["max_control_defect"] > 0.1
        assert report["max_factorization_defect"] < report["max_control_defect"]

    def test_single_channel_weight_reduces_to_bias_stripped_check(self, toy_limit):
        spec, measure = toy_limit
        reps = sc.sample_replicas(spec.with_channels(64), 2_000, n_channels=2)
        mix = sc.channel_mixture(reps.outputs, [1.0, 0.0], reps.biases)
        direct = reps.outputs[:, 0, :] - reps.biases[:, 0, None]
        assert np.array_equal(mix, direct)

    @staticmethod
    def _random_case(rng, n, d=8, p=21):
        outputs = rng.standard_normal((n, 2, d))
        outputs[rng.random(outputs.shape) < 0.05] = -0.0
        biases = rng.standard_normal((n, 2))

        def probe_set():
            probes = rng.standard_normal((p, d)) * 0.3
            probes[0] = 0.0
            return sc.ProbeSet(probes, rng.uniform(0.1, 1.0, p))

        return outputs, biases, probe_set(), probe_set(), probe_set()

    @staticmethod
    def _two_call_defects(f1, f2, ta, tb):
        """The factorization and control defects as the check once computed
        them, in two calls of three block-sum passes each: a joint pass
        adds the second product into the phases of the first."""
        rows, n = sc.verify._cf_rows(len(ta)), len(f1)

        def cf(*terms):
            sums = []
            for start in range(0, n, rows):
                (x, t), *rest = terms
                phases = np.ascontiguousarray(x[start : start + rows]) @ t.T
                for x, t in rest:
                    phases += np.ascontiguousarray(x[start : start + rows]) @ t.T
                sums.append(np.exp(1j * phases).sum(axis=0))
            return np.array(sums).sum(axis=0) / n

        def defect(a, b):
            return np.abs(cf((a, ta), (b, tb)) - cf((a, ta)) * cf((b, tb)))

        return defect(f1, f2).max(), defect(f1, f1).max()

    def test_blocked_mixture_is_the_whole_mixture_bit_for_bit(self, rng):
        # two CF blocks and a one-replica last block: the defects are those
        # of the separate passes, and the distances those of the whole
        # mixture's empirical CF
        n = 2 * sc.verify._cf_rows(21) + 1
        outputs, biases, pa, pb, mix = self._random_case(rng, n)
        f1, f2 = outputs[:, 0], outputs[:, 1]
        defects = self._two_call_defects(f1, f2, pa.probes, pb.probes)
        for z in ([1.0, 1.0], [0.7, -1.3]):
            report = sc.independence_check(outputs, biases, z, pa, pb, mix)
            emp = sc.empirical_cf(sc.channel_mixture(outputs, z, biases), mix.probes)
            assert (report["mixture_sup_dist"], report["mixture_mean_dist"]) == sc.cf_distance(
                emp, mix.cf)
            assert (report["max_factorization_defect"], report["max_control_defect"]) == defects

    def test_peak_stays_below_a_copy_of_the_outputs(self, rng):
        # 50k replicas of two 8-value channels, 6.4 MB: the bias-stripped
        # (N, 2, d) copy the mixture was once formed from is as large
        outputs, biases, pa, pb, mix = self._random_case(rng, 50_000)
        tracemalloc.start()
        try:
            sc.independence_check(outputs, biases, [1.0, 1.0], pa, pb, mix)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < outputs.nbytes

    def test_probe_sets_of_another_count_rejected(self, rng):
        outputs, biases, pa, pb, mix = self._random_case(rng, 10)
        short = sc.ProbeSet(pb.probes[:-1], pb.cf[:-1])
        for sets in ((pa, short, mix), (pa, pb, short), (short, pb, mix)):
            with pytest.raises(ValueError, match="one probe count"):
                sc.independence_check(outputs, biases, [1.0, 1.0], *sets)


class TestGaussianOracle:
    def test_rejects_heavy_tailed_spec(self):
        with pytest.raises(ValueError):
            sc.gaussian_oracle_check(toy_spec(alpha=1.5), sc.LimitConfig(mc_samples=10))

    def test_single_layer_exact(self):
        spec = toy_spec(alpha=2.0, n_layers=1)
        report = sc.gaussian_oracle_check(spec, sc.LimitConfig(mc_samples=10))
        assert report["max_diag_rel_err"] < 1e-12
        assert report["max_offdiag_abs_err"] < 1e-12

    def test_one_layer_recursion_is_exact_and_draws_nothing(self, rng):
        for two_d in (False, True):
            cfg, x = random_conv_case(rng, two_d=two_d)
            spec = sc.NetworkSpec(alpha=2.0, sigma_w=0.9, sigma_b=0.6, layers=(cfg,),
                                  activation=sc.get_activation("tanh"), channels=4, inputs=x,
                                  seed=1)
            gen = np.random.default_rng(5)
            state = gen.bit_generator.state
            cov = sc.gaussian_kernel_recursion(spec, 100, gen)
            assert gen.bit_generator.state == state
            s = np.array(list(limits._oracle_slices(x, cfg)))
            expected = 2 * 0.6**2 * np.ones((s.shape[1],) * 2) + 2 * 0.9**2 * s.T @ s
            assert np.abs(cov - expected).max() < 1e-12

    def test_zero_weight_scale(self):
        spec = toy_spec(alpha=2.0, sigma_w=0.0)
        limit_cfg = sc.LimitConfig(mc_samples=100)
        implied = sc.implied_covariance(sc.limit_measures(spec, limit_cfg)[-1])
        direct = sc.gaussian_kernel_recursion(
            spec, 100, np.random.default_rng(sc.verify._ORACLE_SEED))
        assert np.allclose(implied, 2.0 * np.ones((8, 8)), rtol=1e-12)
        assert np.allclose(direct, 2.0 * np.ones((8, 8)), rtol=1e-12)

    def test_two_layer_tanh_within_budget(self):
        spec = toy_spec(alpha=2.0, seed=13)
        report = sc.gaussian_oracle_check(spec, sc.LimitConfig(mc_samples=10_000, seed=8))
        assert report["max_diag_rel_err"] < 0.05

    @pytest.mark.parametrize("limit_seed", [8, 9])
    def test_three_layer_tanh_within_budget(self, limit_seed):
        # layer 3 draws its fields from layer 2's at most dim + 1 eigen-atoms
        spec = toy_spec(alpha=2.0, n_layers=3, seed=13)
        report = sc.gaussian_oracle_check(spec, sc.LimitConfig(mc_samples=10_000, seed=limit_seed))
        assert report["max_diag_rel_err"] < 0.05

    # toy blocks hold 2^20 // (8 * 3 * 8) = 5461 fields, wide-gauss blocks
    # 2^20 // (8 * 9 * 72) = 202: each geometry runs with a partial last
    # block and with fewer fields than one block
    @pytest.mark.parametrize("geometry, n_layers, activation, mc_samples", [
        ("toy", 2, "tanh", 12_000), ("toy", 3, "tanh", 12_000), ("toy", 2, "tanh", 3_000),
        ("toy", 2, "relu", 12_000), ("toy", 2, "tanh_shift", 12_000),
        ("wide", 2, "tanh", 500), ("wide", 2, "tanh", 150),
    ])
    def test_recursion_matches_full_slice_reference(self, geometry, n_layers, activation,
                                                    mc_samples):
        if activation == "tanh_shift":  # phi(0) = 0.5
            act = sc.ActivationSpec("tanh_shift", lambda s: np.tanh(s) + 0.5, a=2.0, b=1.0,
                                    beta=0.0)
        else:
            act = sc.get_activation(activation)
        if geometry == "toy":
            spec = toy_spec(alpha=2.0, n_layers=n_layers, seed=13)
        else:
            spec = _wide_spec()
        spec = dataclasses.replace(spec, activation=act)
        cov = sc.gaussian_kernel_recursion(spec, mc_samples, np.random.default_rng(4))
        ref = _full_slice_recursion(spec, mc_samples, np.random.default_rng(4))
        assert np.abs(cov - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_recursion_memory_does_not_grow_with_mc_samples(self):
        # all 20,000 * 9 wide-gauss slices at once are 104 MB, and their
        # activated copy as much again; one block of them is under 1 MiB.
        # A fresh process reads its own peak (VmHWM), after a small warm-up
        # call, so that the rise is the call's own
        code = (
            "import numpy as np, stableconv as sc\n"
            "cfg = sc.ConvLayerConfig(spatial_in=(6, 6), filter_shape=3, padding=1)\n"
            "x = sc.input_tensor(np.random.default_rng(0).standard_normal((2, 6, 6, 2)))\n"
            "spec = sc.NetworkSpec(alpha=2.0, sigma_w=1.0, sigma_b=1.0, layers=(cfg, cfg),\n"
            "    activation=sc.get_activation('tanh'), channels=4, inputs=x, seed=1)\n"
            "def status(key):\n"
            "    line = [ln for ln in open('/proc/self/status') if ln.startswith(key + ':')]\n"
            "    return int(line[0].split()[1]) / 1024.0\n"
            "sc.gaussian_kernel_recursion(spec, 100, np.random.default_rng(0))\n"
            "before = status('VmRSS')\n"
            "cov = sc.gaussian_kernel_recursion(spec, 20_000, np.random.default_rng(0))\n"
            "assert cov.shape == (72, 72) and np.isfinite(cov).all()\n"
            "print(status('VmHWM') - before)\n"
        )
        src = str(Path(sc.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            check=True,
        )
        assert float(done.stdout) < 16.0


def _wide_spec():
    """The wide-gauss geometry: two input channels on 6x6, two 3x3 layers
    with padding 1, two inputs."""
    cfg = sc.ConvLayerConfig(spatial_in=(6, 6), filter_shape=3, padding=1)
    x = sc.input_tensor(np.random.default_rng(0).standard_normal((2, 6, 6, 2)))
    return sc.NetworkSpec(alpha=2.0, sigma_w=1.0, sigma_b=1.0, layers=(cfg, cfg),
                          activation=sc.get_activation("tanh"), channels=4, inputs=x, seed=1)


def _full_slice_recursion(spec, mc_samples, rng):
    """The Gaussian recursion with every patch slice of a layer in one
    array: one (M, d) draw, one gather, one activation, one S^T S."""
    k, cov = spec.n_inputs, None
    for cfg in spec.layers:
        if cov is None:
            fields, scale = spec.inputs, 2.0 * spec.sigma_w**2
        else:
            evals, evecs = np.linalg.eigh(cov)
            draws = rng.standard_normal((mc_samples, cov.shape[0]))
            fields = (draws * np.sqrt(np.clip(evals, 0.0, None))) @ evecs.T
            scale = 2.0 * spec.sigma_w**2 / mc_samples
        fields = fields.reshape(len(fields), cfg.n_positions_in, k)
        slices = sc.patch_map_for(cfg).gather(fields, axis=1)
        slices = slices.reshape(-1, cfg.n_positions_out * k)
        if cov is not None:
            slices = spec.activation(slices)
        dim = slices.shape[1]
        cov = 2.0 * spec.sigma_b**2 * np.ones((dim, dim)) + scale * (slices.T @ slices)
    return cov
