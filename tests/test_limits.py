import hashlib
import logging
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stableconv as sc
from stableconv import limits
from stableconv.tensors import patch_map_for

from conftest import decimal_measure_text, toy_inputs, toy_layer, toy_spec

TANH = sc.get_activation("tanh")


def scalar_case(x0=0.7, alpha=1.5, sigma_w=0.9, sigma_b=0.4):
    cfg = sc.ConvLayerConfig(spatial_in=1, filter_shape=1, stride=1, padding=0)
    x = sc.input_tensor(np.array([[[x0]]]))
    return sc.gamma_first(x, cfg, alpha, sigma_w, sigma_b), (x0, alpha, sigma_w, sigma_b)


class TestGammaFirst:
    def test_scalar_case_total_mass_and_cf(self):
        measure, (x0, alpha, sw, sb) = scalar_case()
        assert measure.dimension == 1
        assert measure.total_mass == pytest.approx(sb**alpha + sw**alpha * abs(x0) ** alpha)
        for t in [0.5, 1.0, 2.0]:
            expected = np.exp(-(sb**alpha + sw**alpha * abs(x0) ** alpha) * t**alpha)
            assert sc.cf_multivariate(measure, np.array([[t]]))[0] == pytest.approx(expected)

    def test_zero_input_keeps_only_bias(self):
        cfg = toy_layer()
        x = sc.input_tensor(np.zeros((1, 4, 2)))
        measure = sc.gamma_first(x, cfg, 1.5, 1.0, 1.0)
        assert measure.n_atoms == 1
        assert measure.bias_index == 0

    def test_zero_sigma_b_has_no_bias_atom(self):
        measure = sc.gamma_first(toy_inputs(), toy_layer(), 1.5, 1.0, 0.0)
        assert measure.bias_index is None

    def test_matches_closed_form(self, rng):
        from conftest import random_conv_case

        for _ in range(5):
            cfg, x = random_conv_case(rng, two_d=bool(rng.integers(2)))
            alpha = float(rng.uniform(0.5, 2.0))
            sw, sb = float(rng.uniform(0.2, 2)), float(rng.uniform(0, 2))
            measure = sc.gamma_first(x, cfg, alpha, sw, sb)
            d = measure.dimension
            probes = rng.standard_normal((50, d))
            via_measure = sc.cf_multivariate(measure, probes)
            closed = sc.cf_layer1_closed_form(x, cfg, alpha, sw, sb, probes)
            assert np.abs(via_measure - closed).max() < 1e-12

    def test_total_mass_bookkeeping(self, rng):
        cfg, x = toy_layer(), toy_inputs(seed=5)
        alpha, sw, sb = 1.3, 0.7, 1.1
        measure = sc.gamma_first(x, cfg, alpha, sw, sb)
        # independent accounting with hand-indexed patches
        k = 2
        total = sb**alpha * (cfg.n_positions_out * k) ** (alpha / 2)
        for g in range(3):
            vec = []
            for p in range(4):
                i = p - 1 + g
                for kk in range(k):
                    vec.append(x[0, i, kk] if 0 <= i < 4 else 0.0)
            total += sw**alpha * np.linalg.norm(vec) ** alpha
        assert measure.total_mass == pytest.approx(total, rel=1e-12)

    def test_scaling_invariance(self, rng):
        # sigma_w -> c*sigma_w with inputs divided by c leaves the law alone
        cfg, x = toy_layer(), toy_inputs(seed=9)
        c = 3.7
        scaled = x / c
        m1 = sc.gamma_first(x, cfg, 1.5, 1.0, 1.0)
        m2 = sc.gamma_first(scaled, cfg, 1.5, c, 1.0)
        probes = rng.standard_normal((30, m1.dimension))
        assert np.allclose(
            sc.cf_multivariate(m1, probes), sc.cf_multivariate(m2, probes), rtol=1e-12
        )


class TestClosedFormLayer1:
    def test_probe_zero(self):
        cfg, x = toy_layer(), toy_inputs()
        assert sc.cf_layer1_closed_form(x, cfg, 1.5, 1.0, 1.0, np.zeros(8)) == 1.0

    def test_degenerate_scales(self, rng):
        cfg, x = toy_layer(), toy_inputs()
        probes = rng.standard_normal((10, 8))
        assert np.all(sc.cf_layer1_closed_form(x, cfg, 1.5, 0.0, 0.0, probes) == 1.0)

    def test_probe_dimension_checked(self):
        cfg, x = toy_layer(), toy_inputs()
        with pytest.raises(ValueError):
            sc.cf_layer1_closed_form(x, cfg, 1.5, 1.0, 1.0, np.zeros(5))


class TestGammaConditional:
    def test_zero_realization_keeps_only_bias(self):
        prev = np.zeros((3, 4, 2))
        measure = sc.gamma_conditional(prev, toy_layer(), 1.5, 1.0, 1.0, TANH)
        assert measure.n_atoms == 1
        assert measure.bias_index == 0

    def test_single_channel_matches_first_layer_structure(self, rng):
        # with C = 1 the conditional law equals the first-layer law of the
        # activated field (the activation fixes 0 at 0, so padding agrees)
        prev = rng.standard_normal((1, 4, 2))
        cond = sc.gamma_conditional(prev, toy_layer(), 1.5, 0.8, 0.5, TANH)
        first = sc.gamma_first(np.tanh(prev), toy_layer(), 1.5, 0.8, 0.5)
        probes = rng.standard_normal((40, 8))
        assert np.allclose(
            sc.cf_multivariate(cond, probes),
            sc.cf_multivariate(first, probes),
            rtol=0,
            atol=1e-15,
        )

    def test_matches_closed_form(self, rng):
        for _ in range(5):
            c = int(rng.integers(1, 5))
            prev = rng.standard_normal((c, 4, 2))
            alpha = float(rng.uniform(0.5, 2.0))
            sw, sb = float(rng.uniform(0.2, 2)), float(rng.uniform(0, 2))
            measure = sc.gamma_conditional(prev, toy_layer(), alpha, sw, sb, TANH)
            probes = rng.standard_normal((50, 8))
            closed = sc.cf_conditional_closed_form(prev, toy_layer(), alpha, sw, sb, TANH, probes)
            assert np.abs(sc.cf_multivariate(measure, probes) - closed).max() < 1e-12


class TestGammaNextMC:
    def test_zero_sigma_w_keeps_only_bias(self, rng):
        prev = sc.gamma_first(toy_inputs(), toy_layer(), 1.5, 1.0, 1.0)
        out = sc.gamma_next_mc(prev, toy_layer(), 1.5, 0.0, 1.0, TANH,
                               sc.LimitConfig(mc_samples=100), rng)
        assert out.n_atoms == 1
        assert out.bias_index == 0

    def test_empty_previous_measure_rejected(self, rng):
        with pytest.raises(ValueError):
            sc.gamma_next_mc(sc.empty_measure(1.5, 8), toy_layer(), 1.5, 1.0, 1.0,
                             TANH, sc.LimitConfig(mc_samples=10), rng)

    def test_dimension_mismatch_rejected(self, rng):
        prev = sc.gamma_first(toy_inputs(), toy_layer(), 1.5, 1.0, 1.0)
        bad = sc.ConvLayerConfig(spatial_in=5, filter_shape=3, padding=1)
        with pytest.raises(ValueError):
            sc.gamma_next_mc(prev, bad, 1.5, 1.0, 1.0, TANH,
                             sc.LimitConfig(mc_samples=10), rng)

    def test_seed_to_seed_consistency(self):
        prev = sc.gamma_first(toy_inputs(), toy_layer(), 1.5, 1.0, 1.0)
        cfg = sc.LimitConfig(mc_samples=10_000)
        m1 = sc.gamma_next_mc(prev, toy_layer(), 1.5, 1.0, 1.0, TANH, cfg,
                              np.random.default_rng(101))
        m2 = sc.gamma_next_mc(prev, toy_layer(), 1.5, 1.0, 1.0, TANH, cfg,
                              np.random.default_rng(202))
        probes = sc.generate_probes(m1, n_probes=20, seed=6).probes
        diff = np.abs(sc.cf_multivariate(m1, probes) - sc.cf_multivariate(m2, probes))
        assert diff.max() < 0.02

    def test_monte_carlo_error_shrinks(self):
        prev = sc.gamma_first(toy_inputs(), toy_layer(), 1.5, 1.0, 1.0)
        probes = None
        sups = {}
        for m in [1_000, 10_000, 40_000]:
            a = sc.gamma_next_mc(prev, toy_layer(), 1.5, 1.0, 1.0, TANH,
                                 sc.LimitConfig(mc_samples=m), np.random.default_rng(1))
            b = sc.gamma_next_mc(prev, toy_layer(), 1.5, 1.0, 1.0, TANH,
                                 sc.LimitConfig(mc_samples=2 * m), np.random.default_rng(2))
            if probes is None:
                probes = sc.generate_probes(a, n_probes=20, seed=12).probes
            sups[m] = np.abs(
                sc.cf_multivariate(a, probes) - sc.cf_multivariate(b, probes)
            ).max()
            assert sups[m] < 8.0 / np.sqrt(m)
        assert sups[40_000] < sups[1_000]

    def test_conditional_average_approaches_limit(self):
        # expected conditional CF over realizations at large C is the
        # unconditional finite-C CF, which should sit near the limit CF
        c = 256
        spec = toy_spec(n_layers=1, channels=c, seed=33)
        limit = sc.gamma_next_mc(
            sc.gamma_first(spec.inputs, toy_layer(), 1.5, 1.0, 1.0),
            toy_layer(), 1.5, 1.0, 1.0, TANH,
            sc.LimitConfig(mc_samples=10_000), np.random.default_rng(77),
        )
        probes = sc.generate_probes(limit, n_probes=20, seed=3).probes
        acc = np.zeros(probes.shape[0])
        n_real = 64
        for i in range(n_real):
            real = sc.forward_finite(spec, c, np.random.default_rng(1000 + i))
            cond = sc.gamma_conditional(real.fields, toy_layer(), 1.5, 1.0, 1.0, TANH)
            acc += sc.cf_multivariate(cond, probes)
        diff = np.abs(acc / n_real - sc.cf_multivariate(limit, probes))
        assert diff.max() < 0.05

    def test_atom_cap_compression(self, rng):
        prev = sc.gamma_first(toy_inputs(), toy_layer(), 1.5, 1.0, 1.0)
        out = sc.gamma_next_mc(prev, toy_layer(), 1.5, 1.0, 1.0, TANH,
                               sc.LimitConfig(mc_samples=5_000, atom_cap=500), rng)
        assert out.n_atoms <= 501  # cap plus the bias atom
        assert out.bias_index == 0


class TestCompressKeepingBias:
    """compress_measure keeps a tagged bias atom first and exactly; it
    resamples the measures Monte Carlo fields are drawn from and applies
    ``atom_cap``."""

    @staticmethod
    def layer2(bias_last=False):
        # 3 * 200 + 1 atoms, bias first unless moved to the end
        m = sc.limit_measures(toy_spec(), sc.LimitConfig(mc_samples=200, seed=1))[-1]
        if not bias_last:
            return m
        order = np.roll(np.arange(m.n_atoms), -1)
        return sc.SpectralMeasure(m.alpha, m.weights[order], m.directions[order],
                                  bias_index=m.n_atoms - 1)

    @pytest.mark.parametrize("shuffled", [False, True])
    @pytest.mark.parametrize("bias_last", [False, True])
    def test_bias_first_mass_kept_size_bounded(self, bias_last, shuffled):
        # shuffled: the atoms in a random order, the bias atom's index moved
        # with them, so the result cannot lean on the builder's atom order
        prev, k = self.layer2(bias_last), 50
        if shuffled:
            order = np.random.default_rng(7).permutation(prev.n_atoms)
            prev = sc.SpectralMeasure(
                prev.alpha, prev.weights[order], prev.directions[order],
                bias_index=int(np.flatnonzero(order == prev.bias_index)[0]),
            )
        out = sc.compress_measure(prev, k, np.random.default_rng(3))
        assert out.bias_index == 0
        assert out.weights[0] == prev.bias_mass
        assert np.array_equal(out.directions[0], prev.directions[prev.bias_index])
        assert out.n_atoms <= k + 1
        assert out.total_mass == pytest.approx(prev.total_mass, rel=1e-12)

    def test_untagged_measure_resampled_whole(self):
        m = self.layer2()
        untagged = sc.SpectralMeasure(m.alpha, m.weights, m.directions)
        out = sc.compress_measure(untagged, 50, np.random.default_rng(3))
        assert out.bias_index is None
        assert out.n_atoms <= 50
        assert out.total_mass == pytest.approx(m.total_mass, rel=1e-12)

    @pytest.mark.parametrize("case", ["layer1", "k_non_bias", "untagged_k"])
    def test_small_measure_unchanged_without_draws(self, case):
        m = self.layer2()
        if case == "layer1":
            m, k = sc.gamma_first(toy_inputs(), toy_layer(), 1.5, 1.0, 1.0), 3
        elif case == "k_non_bias":
            k = m.n_atoms - 1
        else:
            m, k = sc.SpectralMeasure(m.alpha, m.weights, m.directions), m.n_atoms
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        assert sc.compress_measure(m, k, rng) is m
        assert rng.bit_generator.state == state


_resample = sc.compress_measure


def _drop_bias(measure, target, rng):
    out = _resample(measure, target, rng)
    if out is measure:
        return measure
    return sc.SpectralMeasure(out.alpha, out.weights[1:], out.directions[1:])


def _unit_mass(measure, target, rng):
    out = _resample(measure, target, rng)
    if out is measure:
        return measure
    weights = np.concatenate([out.weights[:1], np.full(out.n_atoms - 1, 1.0 / target)])
    return sc.SpectralMeasure(out.alpha, weights, out.directions, bias_index=0)


class TestResampleAgreement:
    """Layers 3 and 4 of the 4-layer toy stack drawn from resampled measures
    against the same limit seeds drawn from the full measures: per probe,
    the mean CF gap over the seeds lies within 3 standard errors, and the
    seed spread of the CF stays within 1.5 times the full recursion's."""

    M = 1_000
    SEEDS = range(16)

    @classmethod
    def layer_cfs(cls, resample):
        """(seed, layer 3 / 4, probe) CFs, with ``resample`` in place of the
        step that builds the measure fields are drawn from."""
        probe_src = sc.limit_measures(toy_spec(), sc.LimitConfig(mc_samples=cls.M, seed=99))
        probes = sc.generate_probes(probe_src[-1], n_probes=20, seed=5).probes[1:]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(limits, "compress_measure", resample)
            stacks = [
                sc.limit_measures(toy_spec(n_layers=4), sc.LimitConfig(mc_samples=cls.M, seed=s))
                for s in cls.SEEDS
            ]
        return np.array([[sc.cf_multivariate(m, probes) for m in stack[2:]] for stack in stacks])

    @pytest.fixture(scope="class")
    def full(self):
        return self.layer_cfs(lambda measure, target, rng: measure)

    @staticmethod
    def agreement(cfs, full):
        """Largest |mean gap| / standard error over probes and layers, and
        the larger of the two layers' median spread ratios."""
        gap = cfs - full  # paired by seed
        se = gap.std(axis=0, ddof=1) / np.sqrt(len(gap))
        spread = np.median(cfs.std(axis=0, ddof=1) / full.std(axis=0, ddof=1), axis=-1)
        return float(np.max(np.abs(gap.mean(axis=0)) / se)), float(spread.max())

    def test_agrees_with_full_measures(self, full):
        z, spread = self.agreement(self.layer_cfs(_resample), full)
        assert z <= 3.0
        assert spread <= 1.5

    @pytest.mark.parametrize("broken", [_drop_bias, _unit_mass], ids=["drop_bias", "unit_mass"])
    def test_detects_broken_resample(self, full, broken):
        z, spread = self.agreement(self.layer_cfs(broken), full)
        assert z > 3.0 or spread > 1.5


def _shared_resample():
    """A resampler that gives every later call on the same measure the first
    call's resample: all field groups of a layer then share one resample to
    K = M/10 instead of drawing their own."""
    first = {}

    def resample(measure, target, rng):
        if first.get("source") is not measure:
            first.update(source=measure, resample=_resample(measure, target, rng))
        return first["resample"]

    return resample


class TestGroupedResampleManySeeds(TestResampleAgreement):
    """The same agreement with fields drawn in groups from resamples to
    K = M/10, at M = 300 over 64 limit seeds, and its power: one resample
    to K shared by every group widens the spread past the bound."""

    M = 300
    SEEDS = range(64)

    def test_detects_shared_resample(self, full):
        _, spread = self.agreement(self.layer_cfs(_shared_resample()), full)
        assert spread > 1.5


def _measure_with(n_rest, bias_at=None, dim=8, seed=0):
    """A measure of ``n_rest`` random atoms, plus a bias atom inserted at
    index ``bias_at`` when that is given."""
    rng = np.random.default_rng(seed)
    directions = rng.standard_normal((n_rest, dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    weights = rng.uniform(0.5, 1.5, n_rest)
    if bias_at is None:
        return sc.SpectralMeasure(1.5, weights, directions)
    weights = np.insert(weights, bias_at, 2.0)
    directions = np.insert(directions, bias_at, np.full(dim, dim**-0.5), axis=0)
    return sc.SpectralMeasure(1.5, weights, directions, bias_index=bias_at)


class TestFieldGroups:
    """How _draw_fields draws M fields from a measure: in G = min(10, M) groups
    of as equal size as M allows, each from its own resample to
    K = ceil(M / G), or in one draw from a measure with at most K non-bias
    atoms."""

    @pytest.mark.parametrize("m", [1, 2, 7, 9, 10, 11, 19, 99, 100, 101, 3000, 10_007])
    def test_group_sizes_depend_on_m_alone(self, m):
        many = limits._field_groups(_measure_with(2000, bias_at=0), m)
        assert many == limits._field_groups(_measure_with(1500, seed=1), m)
        assert sum(many) == m
        assert len(many) == min(10, m)
        assert many[0] == -(-m // len(many))
        assert many == sorted(many, reverse=True) and many[0] - many[-1] <= 1

    @staticmethod
    def _recorded_fields(monkeypatch, source, m, seed=5):
        """_draw_fields of ``source`` with every resample and draw recorded."""
        resamples, draws = [], []

        def resample(measure, target, rng):
            out = sc.compress_measure(measure, target, rng)
            resamples.append((measure, target, out))
            return out

        def sample(measure, rng, size, out=None, scratch=None):
            draws.append((measure, size))
            return sc.sample_multivariate(measure, rng, size=size, out=out, scratch=scratch)

        monkeypatch.setattr(limits, "compress_measure", resample)
        monkeypatch.setattr(limits, "sample_multivariate", sample)
        cfg = toy_layer()
        fields = limits._draw_fields(source, cfg, m, np.random.default_rng(seed))
        assert fields.shape == (m, *cfg.spatial_in, source.dimension // cfg.n_positions_in)
        return fields, resamples, draws

    @pytest.mark.parametrize("m, n_rest", [(100, 10), (100, 3), (3000, 300), (7, 1)])
    def test_few_atoms_drawn_in_one_call(self, monkeypatch, m, n_rest):
        source = _measure_with(n_rest, bias_at=n_rest // 2)
        rng = np.random.default_rng(5)
        expected = sc.sample_multivariate(source, rng, size=m)
        fields, resamples, draws = self._recorded_fields(monkeypatch, source, m)
        assert fields.tobytes() == expected.tobytes()
        assert draws == [(source, m)]
        assert all(out is source for _, _, out in resamples)

    def test_groups_draw_into_one_output_through_one_scratch(self, monkeypatch):
        # every group's resample has K + 1 atoms, so the ten groups share
        # one coefficient block and CMS scratch and write into the fields
        calls, sample = [], limits.sample_multivariate

        def recording(measure, rng, size, out=None, scratch=None):
            calls.append((out, scratch))
            return sample(measure, rng, size=size, out=out, scratch=scratch)

        monkeypatch.setattr(limits, "sample_multivariate", recording)
        fields = limits._draw_fields(_measure_with(300, bias_at=0), toy_layer(), 100,
                                     np.random.default_rng(5))
        assert len(calls) == 10 and len({id(scratch) for _, scratch in calls}) == 1
        assert calls[0][1] is not None and calls[0][1].block.shape == (10, 11)
        assert all(np.shares_memory(out, fields) for out, _ in calls)

    @pytest.mark.parametrize("m, n_rest", [(95, 11), (100, 300), (3000, 9000)])
    def test_each_group_draws_from_its_own_resample(self, monkeypatch, m, n_rest):
        b = n_rest // 3
        source = _measure_with(n_rest, bias_at=b)
        fields, resamples, draws = self._recorded_fields(monkeypatch, source, m)
        groups = limits._field_groups(source, m)
        k = groups[0]
        # in group order from one generator: resample, then that group's draw
        rng = np.random.default_rng(5)
        expected = [sc.sample_multivariate(sc.compress_measure(source, k, rng), rng, size=size)
                    for size in groups]
        assert fields.tobytes() == np.concatenate(expected).tobytes()
        assert len(resamples) == len(draws) == len(groups) == 10
        assert [size for _, size in draws] == groups
        for (measure, target, out), (drawn, _) in zip(resamples, draws):
            assert measure is source and target == k and drawn is out
            assert out.n_atoms == k + 1 and out.bias_index == 0
            assert out.weights[0] == source.weights[b]
            assert np.array_equal(out.directions[0], source.directions[b])
            assert out.total_mass == pytest.approx(source.total_mass, rel=1e-12)
        assert len({out.directions[1:].tobytes() for _, _, out in resamples}) > 1

    def test_fewer_fields_than_groups(self, monkeypatch):
        source = _measure_with(40, bias_at=0)
        assert limits._field_groups(source, 7) == [1] * 7
        _, resamples, draws = self._recorded_fields(monkeypatch, source, 7)
        assert [target for _, target, _ in resamples] == [1] * 7
        assert [size for _, size in draws] == [1] * 7
        assert all(out.n_atoms == 2 for _, _, out in resamples)


class TestConditionalLawOfDrawnFields:
    """A Monte Carlo layer is the conditional law of the fields it draws,
    bit for bit, with ``atom_cap`` resampling after the draws from the
    same generator."""

    @staticmethod
    def _same(a, b):
        assert a.bias_index == b.bias_index
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.directions, b.directions)

    @pytest.mark.parametrize("alpha", [0.8, 1.5, 2.0])
    def test_next_mc_is_gamma_conditional_of_draw_fields(self, alpha):
        # a layer-2 measure has more than K atoms at alpha < 2, so the
        # grouped resample-and-draw path runs
        prev = sc.limit_measures(toy_spec(alpha=alpha), sc.LimitConfig(mc_samples=200, seed=1))[-1]
        m = 150
        for cap in (None, 5):
            got = sc.gamma_next_mc(prev, toy_layer(), alpha, 1.1, 0.7, TANH,
                                   sc.LimitConfig(mc_samples=m, atom_cap=cap),
                                   np.random.default_rng(9))
            rng = np.random.default_rng(9)
            fields = limits._draw_fields(prev, toy_layer(), m, rng)
            want = sc.gamma_conditional(fields, toy_layer(), alpha, 1.1, 0.7, TANH)
            if cap is not None:
                assert want.n_atoms > cap + 1
                want = sc.compress_measure(want, cap, rng)
            self._same(got, want)

    @pytest.mark.parametrize("shape", [(2, 5, 2), (2, 4), (2, 4, 1, 2)])
    def test_spatial_axes_checked(self, shape):
        bad = np.ones(shape)
        with pytest.raises(ValueError):
            sc.gamma_first(bad, toy_layer(), 1.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            sc.gamma_conditional(bad, toy_layer(), 1.5, 1.0, 1.0, TANH)


class TestMixtureMeasure:
    def test_unit_weight_strips_bias_only(self, rng):
        base = sc.gamma_first(toy_inputs(), toy_layer(), 1.5, 1.0, 1.0)
        out = sc.mixture_measure(base, [1.0])
        assert out.n_atoms == base.n_atoms - 1
        assert out.total_mass == pytest.approx(base.total_mass - base.bias_mass)

    def test_zero_weights_degenerate(self):
        base = sc.gamma_first(toy_inputs(), toy_layer(), 1.5, 1.0, 1.0)
        out = sc.mixture_measure(base, [0.0, 0.0])
        assert out.n_atoms == 0

    def test_two_unit_weights_double_mass(self):
        base = sc.gamma_first(toy_inputs(), toy_layer(), 1.5, 1.0, 1.0)
        out = sc.mixture_measure(base, [1.0, 1.0])
        assert out.total_mass == pytest.approx(2 * (base.total_mass - base.bias_mass))

    def test_untagged_base_scaled(self, rng):
        # sigma_b = 0: no bias atom and zero biases, so the stripped mixture
        # is sum_c z_c f_c, the whole law scaled by sum_c |z_c|^alpha
        dirs = rng.standard_normal((3, 4))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        measure = sc.SpectralMeasure(1.5, np.array([1.0, 2.0, 0.5]), dirs)
        out = sc.mixture_measure(measure, [1.0, -2.0])
        assert out.bias_index is None
        assert np.array_equal(out.directions, measure.directions)
        assert np.allclose(out.weights, (1.0 + 2.0**1.5) * measure.weights, rtol=1e-15)


class TestReadoutMeasure:
    def test_zero_sigma_w_is_bias_only_over_inputs(self):
        prev = sc.gamma_first(toy_inputs(), toy_layer(), 1.5, 0.0, 1.0)
        out = sc.readout_measure(prev, np.full(4, 0.25))
        assert out.dimension == 2
        assert out.n_atoms == 1
        assert out.bias_index == 0
        assert out.total_mass == pytest.approx(2 ** (1.5 / 2))

    def test_unnormalized_u_rejected(self):
        prev = sc.gamma_first(toy_inputs(), toy_layer(), 1.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            sc.readout_measure(prev, np.full(4, 0.3))

    def test_dimension_checked_without_weights(self):
        # a bias-only measure that does not fit u's positions is rejected
        # before any atom is mapped
        bad = sc.SpectralMeasure(1.5, np.ones(1), np.full((1, 7), 1 / np.sqrt(7)), bias_index=0)
        with pytest.raises(ValueError):
            sc.readout_measure(bad, np.full(4, 0.25))

    def test_indicator_u_marginalizes_exactly(self):
        # contracting with a one-position indicator must match probing the
        # full measure only at that position.  The first offset's slice is
        # padding at position 0 and the last offset's at position 3, so
        # there one atom's image is zero and drops out.
        full = sc.gamma_first(toy_inputs(), toy_layer(), 1.5, 1.0, 1.0)
        rng2 = np.random.default_rng(91)
        for p in range(4):
            u = np.zeros(4)
            u[p] = 1.0
            readout = sc.readout_measure(full, u)
            assert readout.n_atoms == full.n_atoms - (p in (0, 3))
            for _ in range(10):
                v = rng2.standard_normal(2)
                embedded = np.zeros((4, 2))
                embedded[p] = v
                a = sc.cf_multivariate(readout, [v])[0]
                b = sc.cf_multivariate(full, embedded.reshape(1, -1))[0]
                assert a == pytest.approx(b, abs=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_image_cf_is_the_cf_at_u_kron_v(self, data):
        # for any measure over (P positions x K inputs), with or without a
        # bias atom, the readout's CF at v is the measure's CF at u (x) v.
        # A zero entry of u gives an atom supported on its position a zero
        # image, which must drop out.
        p, k, n = (data.draw(st.integers(1, hi)) for hi in (5, 3, 8))
        alpha = data.draw(st.one_of(st.sampled_from([2.0, 1.0]), st.floats(0.3, 2.0)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        u = rng.uniform(-1.0, 2.0, p)
        if p > 1 and data.draw(st.booleans()):
            u[0] = 0.0
        u[-1] = 1.0 - u[:-1].sum()
        directions = rng.standard_normal((n, p, k))
        if u[0] == 0.0:
            directions[0, 1:] = 0.0
        directions = directions.reshape(n, p * k)
        bias = data.draw(st.sampled_from([None, *range(n)]))
        if bias is not None:
            directions[bias] = 1.0
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        measure = sc.SpectralMeasure(alpha, np.exp(rng.uniform(-3.0, 3.0, n)), directions,
                                     bias_index=bias)
        readout = sc.readout_measure(measure, u)
        assert readout.dimension == k
        assert readout.bias_index == (None if bias is None else 0)
        if bias is not None:
            assert np.allclose(readout.directions[0], 1 / np.sqrt(k), rtol=0, atol=1e-12)
        if alpha == 2.0:
            assert readout.n_atoms <= k + 1
        v = rng.standard_normal((20, k)) * data.draw(st.floats(0.1, 3.0))
        t = np.einsum("p,nk->npk", u, v).reshape(len(v), -1)
        gap = np.abs(sc.cf_multivariate(readout, v) - sc.cf_multivariate(measure, t)).max()
        assert gap < 1e-12


class TestGaussianEigenAtoms:
    """At alpha = 2 a layer with more nonzero slices than its dimension keeps
    the eigen-atoms of S = sigma_w^2 sum v v^T; its law must equal the
    closed-form product over every slice, which builds no measure."""

    LAYER = sc.ConvLayerConfig(spatial_in=(4, 3), filter_shape=(3, 2), padding=(1, 0))

    @staticmethod
    def _max_cf_gap(measure, closed_form, seed):
        probes = sc.generate_probes(measure, n_probes=20, seed=seed).probes
        return np.abs(sc.cf_multivariate(measure, probes) - closed_form(probes)).max()

    @staticmethod
    def _reduced(measure, n_slices):
        assert measure.n_atoms <= measure.dimension + 1 < n_slices
        if measure.bias_index is not None:
            # the exact bias atom stays first, with its tag
            assert measure.bias_index == 0
            assert np.all(measure.directions[0] == 1.0 / np.sqrt(measure.dimension))

    def test_first_layer_many_input_channels(self):
        for cfg, c_in in [(toy_layer(), 6), (self.LAYER, 3)]:
            x = sc.input_tensor(np.random.default_rng(c_in).standard_normal((c_in, *cfg.spatial_in, 2)))
            for sw, sb in [(0.9, 0.6), (1.3, 0.0)]:
                measure = sc.gamma_first(x, cfg, 2.0, sw, sb)
                self._reduced(measure, c_in * cfg.n_offsets)
                assert (measure.bias_index is None) == (sb == 0.0)
                gap = self._max_cf_gap(
                    measure, lambda t: sc.cf_layer1_closed_form(x, cfg, 2.0, sw, sb, t), seed=4
                )
                assert gap < 1e-12

    def test_conditional_many_slices(self, rng):
        for cfg, c in [(toy_layer(), 4), (toy_layer(), 40), (self.LAYER, 3)]:
            prev = rng.standard_normal((c, *cfg.spatial_in, 2))
            measure = sc.gamma_conditional(prev, cfg, 2.0, 0.8, 0.5, TANH)
            self._reduced(measure, c * cfg.n_offsets)
            gap = self._max_cf_gap(
                measure,
                lambda t: sc.cf_conditional_closed_form(prev, cfg, 2.0, 0.8, 0.5, TANH, t),
                seed=5,
            )
            assert gap < 1e-12

    @staticmethod
    def _replayed_fields(prev, m, seed):
        # layer 1's 4 atoms are fewer than M, so gamma_next_mc draws its M
        # fields from prev as it is, consuming nothing else from its rng
        assert prev.n_atoms <= m
        fields = sc.sample_multivariate(prev, np.random.default_rng(seed), size=m)
        return fields.reshape(m, *toy_layer().spatial_in, -1)

    def test_next_mc_equals_conditional_law_of_its_fields(self):
        prev = sc.gamma_first(toy_inputs(), toy_layer(), 2.0, 1.0, 1.0)
        m = 60
        fields = self._replayed_fields(prev, m, seed=21)
        measure = sc.gamma_next_mc(prev, toy_layer(), 2.0, 1.1, 0.7, TANH,
                                   sc.LimitConfig(mc_samples=m), np.random.default_rng(21))
        self._reduced(measure, m * toy_layer().n_offsets)
        gap = self._max_cf_gap(
            measure,
            lambda t: sc.cf_conditional_closed_form(fields, toy_layer(), 2.0, 1.1, 0.7, TANH, t),
            seed=6,
        )
        assert gap < 1e-12

    def test_readout_equals_contracted_conditional_law(self):
        # <u (x) v, slice> = <v, u-contraction of the slice>, and u sums to
        # 1, so the readout CF at v is the conditional CF at u (x) v.  At
        # alpha = 2 the readout keeps at most K + 1 atoms.
        m = 60
        u = np.array([0.1, 0.2, 0.3, 0.4])
        for alpha in (0.8, 1.5, 2.0):
            prev = sc.gamma_first(toy_inputs(), toy_layer(), alpha, 1.0, 1.0)
            fields = self._replayed_fields(prev, m, seed=22)
            layer = sc.gamma_next_mc(prev, toy_layer(), alpha, 1.1, 0.7, TANH,
                                     sc.LimitConfig(mc_samples=m), np.random.default_rng(22))
            measure = sc.readout_measure(layer, u)
            assert measure.dimension == 2
            if alpha == 2.0:
                self._reduced(measure, m * toy_layer().n_offsets)

            def closed(v, alpha=alpha, fields=fields):
                t = np.einsum("p,nk->npk", u, v).reshape(len(v), -1)
                return sc.cf_conditional_closed_form(fields, toy_layer(), alpha, 1.1, 0.7, TANH, t)

            assert self._max_cf_gap(measure, closed, seed=7) < 1e-12

    def test_zero_sigma_w_keeps_only_bias(self, rng):
        prev = rng.standard_normal((10, 4, 2))
        measure = sc.gamma_conditional(prev, toy_layer(), 2.0, 0.0, 1.0, TANH)
        assert measure.n_atoms == 1
        assert measure.bias_index == 0
        assert measure.total_mass == pytest.approx(8.0)

    def test_mixture_strips_the_bias_atom(self, rng):
        base = sc.gamma_conditional(rng.standard_normal((10, 4, 2)), toy_layer(), 2.0, 1.0, 1.0, TANH)
        mixed = sc.mixture_measure(base, [1.0, -1.0])
        assert mixed.bias_index is None
        assert mixed.n_atoms == base.n_atoms - 1
        assert np.array_equal(mixed.weights, 2.0 * base.weights[1:])
        assert np.array_equal(mixed.directions, base.directions[1:])

    def test_few_slices_keep_their_atoms(self):
        # toy layer 1: one input channel, 3 slices for 8 dimensions
        measure = sc.gamma_first(toy_inputs(), toy_layer(), 2.0, 1.0, 1.0)
        assert measure.n_atoms == 4

    def test_atom_cap_applies_after_the_reduction(self, rng):
        prev = sc.gamma_first(toy_inputs(), toy_layer(), 2.0, 1.0, 1.0)
        out = sc.gamma_next_mc(prev, toy_layer(), 2.0, 1.0, 1.0, TANH,
                               sc.LimitConfig(mc_samples=500, atom_cap=3), rng)
        assert out.n_atoms == 4
        assert out.bias_index == 0


WIDE_LAYER = sc.ConvLayerConfig(spatial_in=(6, 6), filter_shape=(3, 3), padding=(1, 1))
RELU = sc.get_activation("relu")


def _whole_slab_measure(fields, cfg, alpha, sigma_w, sigma_b, activation):
    """The measure of ``fields`` from their whole patch slab: its nonzero
    slices as atoms, in row order, below alpha = 2 or when there are at
    most dim of them, and otherwise the eigh of the whole slab's Gram."""
    n = len(fields)
    rows = patch_map_for(cfg).slab(fields.reshape(n, cfg.n_positions_in, -1), activation)
    dim = rows.shape[1]
    norms = np.linalg.norm(rows, axis=1)
    weights = sigma_w**alpha * norms**alpha
    if alpha == 2.0 and np.count_nonzero(weights > 0.0) > dim:
        evals, evecs = np.linalg.eigh(rows.T @ rows)
        rows, norms, weights = evecs.T, np.ones(dim), sigma_w**2 * evals
    keep = weights > 0.0
    directions = rows[keep] / norms[keep, None]
    weights = weights[keep] / (1 if activation is None else n)
    if sigma_b == 0.0:
        return sc.SpectralMeasure(alpha, weights, directions)
    return sc.SpectralMeasure(
        alpha, np.concatenate([[sigma_b**alpha * dim ** (alpha / 2.0)], weights]),
        np.vstack([np.full((1, dim), 1.0 / np.sqrt(dim)), directions]), bias_index=0,
    )


def _covariance(measure):
    """S of the CF exponent t^T S t of an alpha = 2 measure."""
    return (measure.directions.T * measure.weights) @ measure.directions


class TestGaussianBlockedGram:
    """The slice builder goes over row blocks of the fields at every alpha,
    and at alpha = 2 sums their Gram.  Below alpha = 2 it must give the whole
    slab's atoms bit for bit; at alpha = 2 the whole slab's law, and its atoms
    bit for bit when at most dim slices are nonzero."""

    ALPHAS = (0.8, 1.5, 2.0)

    # (layer, fields, activation, sigma_w, sigma_b): the wide layer's blocks
    # hold 202 fields and the toy layer's 5461, so 1000 and 12001 fields end
    # in a partial block
    CASES = {
        "toy-layer1": (toy_layer(), 5, None, 0.9, 0.6),
        "wide-layer1": (WIDE_LAYER, 10, None, 1.3, 0.4),
        "toy-tanh": (toy_layer(), 12001, TANH, 1.1, 0.7),
        "wide-tanh": (WIDE_LAYER, 1000, TANH, 1.0, 1.0),
        "toy-relu": (toy_layer(), 300, RELU, 0.8, 0.5),
        "wide-relu": (WIDE_LAYER, 500, RELU, 1.2, 0.3),
        "toy-no-bias": (toy_layer(), 200, TANH, 1.0, 0.0),
        "wide-no-bias": (WIDE_LAYER, 300, RELU, 0.9, 0.0),
        "toy-one-field": (toy_layer(), 1, TANH, 1.0, 1.0),
        "wide-one-field": (WIDE_LAYER, 1, TANH, 1.0, 1.0),
    }

    @staticmethod
    def _measures(cfg, fields, alpha, activation, sigma_w, sigma_b):
        blocked = limits._slice_measure(fields, cfg, alpha, sigma_w, sigma_b, activation)
        return blocked, _whole_slab_measure(fields, cfg, alpha, sigma_w, sigma_b, activation)

    @pytest.mark.parametrize("small_blocks", [False, True])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_same_law_as_whole_slab(self, case, small_blocks, monkeypatch):
        cfg, n, activation, sigma_w, sigma_b = self.CASES[case]
        if small_blocks:
            # blocks of one wide field or ten toy fields
            monkeypatch.setattr(limits, "_BLOCK_BYTES", 2000)
        fields = np.random.default_rng(n).standard_normal((n, *cfg.spatial_in, 2))
        for alpha in self.ALPHAS:
            blocked, whole = self._measures(cfg, fields, alpha, activation, sigma_w, sigma_b)
            assert blocked.n_atoms == whole.n_atoms
            assert blocked.bias_index == whole.bias_index
            if alpha < 2.0:
                assert np.array_equal(blocked.weights, whole.weights)
                assert np.array_equal(blocked.directions, whole.directions)
                continue
            cov, ref = _covariance(blocked), _covariance(whole)
            assert np.abs(cov - ref).max() <= 1e-13 * np.abs(ref).max()
            probes = sc.generate_probes(whole, n_probes=20, seed=3).probes
            assert np.abs(sc.cf_multivariate(blocked, probes)
                          - sc.cf_multivariate(whole, probes)).max() <= 1e-12

    @pytest.mark.parametrize("small_blocks", [False, True])
    @pytest.mark.parametrize("cfg,n,nonzero", [
        (toy_layer(), 12001, [3, 12000]),
        (WIDE_LAYER, 1000, [0, 250, 999]),
    ], ids=["toy", "wide"])
    def test_few_nonzero_slices_are_the_whole_slabs_atoms(self, cfg, n, nonzero, small_blocks,
                                                         monkeypatch):
        # more rows than dim, at most dim of them nonzero: tanh(0) = 0 fills
        # the padding, so only the nonzero fields give slices
        if small_blocks:
            monkeypatch.setattr(limits, "_BLOCK_BYTES", 2000)
        fields = np.zeros((n, *cfg.spatial_in, 2))
        fields[nonzero] = np.random.default_rng(n).standard_normal((len(nonzero), *cfg.spatial_in, 2))
        for alpha in self.ALPHAS:
            for sigma_w in (1.1, 0.0):
                blocked, whole = self._measures(cfg, fields, alpha, TANH, sigma_w, 0.7)
                assert whole.n_atoms == (1 + len(nonzero) * cfg.n_offsets if sigma_w else 1)
                assert np.array_equal(blocked.weights, whole.weights)
                assert np.array_equal(blocked.directions, whole.directions)
                assert blocked.bias_index == 0

    @staticmethod
    def _traced_wide_layer(alpha):
        """One wide-layer ``gamma_next_mc`` at M = 5000 under tracemalloc:
        its measure and its traced peak in bytes."""
        x = np.random.default_rng(0).standard_normal((2, *WIDE_LAYER.spatial_in, 2))
        prev = sc.gamma_first(x, WIDE_LAYER, alpha, 1.0, 1.0)
        tracemalloc.start()
        try:
            measure = sc.gamma_next_mc(prev, WIDE_LAYER, alpha, 1.0, 1.0, TANH,
                                       sc.LimitConfig(mc_samples=5000), np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return measure, peak

    def test_wide_layer_peak_stays_far_below_its_slab(self):
        # M = 5000 wide fields have a 45,000 x 72 float64 slab, 26 MB; the
        # alpha = 2 builder's peak is the fields and one block of their slab
        _, peak = self._traced_wide_layer(2.0)
        assert peak < 10e6

    def test_wide_layer_peak_is_its_measure_and_one_block(self):
        # below alpha = 2 the 45,001 atoms are the 26.3 MB measure; beside it
        # the builder holds the 2.9 MB fields and one 1 MiB block of their
        # slab, never the whole slab
        measure, peak = self._traced_wide_layer(1.5)
        assert measure.n_atoms == 45_001
        assert peak < measure.weights.nbytes + measure.directions.nbytes + 8e6


class TestLimitPipeline:
    def test_dimension_chain_three_layers(self):
        spec = toy_spec(n_layers=3)
        measures = sc.limit_measures(spec, sc.LimitConfig(mc_samples=500, seed=4))
        assert [m.dimension for m in measures] == [8, 8, 8]
        assert measures[-1].n_atoms == 500 * 3 + 1

    def test_no_default_cap_on_deep_stacks(self):
        # with no atom_cap every Monte Carlo layer keeps one atom per
        # (sample, offset) plus the bias atom, however deep the stack
        m, n_off = 200, toy_layer().n_offsets
        measures = sc.limit_measures(toy_spec(n_layers=4), sc.LimitConfig(mc_samples=m, seed=3))
        assert [x.n_atoms for x in measures[1:]] == [m * n_off + 1] * 3

    def test_replayable_per_layer_streams(self):
        spec = toy_spec()
        cfg = sc.LimitConfig(mc_samples=200, seed=42)
        a = sc.limit_measures(spec, cfg)
        b = sc.limit_measures(spec, cfg)
        for ma, mb in zip(a, b):
            assert np.array_equal(ma.weights, mb.weights)
            assert np.array_equal(ma.directions, mb.directions)

    def test_stage_counts_the_pages_its_block_faults_in(self, caplog):
        # 64 MB, above glibc's largest mmap threshold (32 MB), is always
        # freshly mapped: written inside a block it faults in at least 32
        # pages (2 MiB huge pages), 16384 at 4 KiB; an empty block fewer
        with caplog.at_level(logging.INFO, logger="stableconv.stage"):
            with sc.limits.stage("idle"):
                pass
            with sc.limits.stage("touch"):
                np.ones(1 << 23)
        faults = {}
        for record in caplog.records:
            fields = dict(tok.split("=", 1) for tok in record.message.split())
            faults[fields["stage"]] = int(fields["minor_faults"])
        assert faults["touch"] >= 32
        assert faults["idle"] < faults["touch"]

    def test_summary_lines_logged(self, caplog):
        with caplog.at_level(logging.INFO, logger="stableconv.stage"):
            measures = sc.limit_measures(toy_spec(n_layers=3),
                                         sc.LimitConfig(mc_samples=100, seed=1))
        lines = [r.message for r in caplog.records if r.message.startswith("stage=layer ")]
        assert len(lines) == 3
        groups, sampled, draws = [], [], []
        for layer, (ln, measure) in enumerate(zip(lines, measures), start=1):
            fields = dict(tok.split("=", 1) for tok in ln.split())
            assert fields["layer"] == str(layer)
            assert {"atoms", "total_mass", "bias_mass"} <= fields.keys()
            assert int(fields["atoms"]) == measure.n_atoms
            assert float(fields["seconds"]) >= 0.0
            assert float(fields["peak_rss_mb"]) > 0.0
            assert int(fields["minor_faults"]) >= 0
            groups.append(fields.get("groups"))
            sampled.append(fields.get("sampled_atoms"))
            draws.append(fields.get("draws"))
        # layer 2 draws from layer 1's 4 atoms as they are, in one group;
        # layer 3 in 10 groups of 10 fields, each from the bias atom plus
        # layer 2's 300 other atoms resampled to K = 10; each of the M = 100
        # fields takes one stable variate per sampled atom
        assert groups == [None, "1", "10"]
        assert sampled == [None, "4", "11"]
        assert draws == [None, "400", "1100"]

    def test_readout_limit_single_layer_exact(self, rng):
        spec = toy_spec(n_layers=1)
        u = np.full(4, 0.25)
        measure = sc.readout_measure(sc.limit_measures(spec, sc.LimitConfig(mc_samples=10))[-1], u)
        # deterministic: contract data patch slices by hand
        pm = sc.patch_map_for(spec.layers[0])
        patches = pm.gather(spec.inputs.reshape(1, 4, 2), axis=1)
        expected_mass = 2 ** (1.5 / 2)  # bias over K=2
        for g in range(3):
            vec = u @ patches[0, g]
            expected_mass += np.linalg.norm(vec) ** 1.5
        assert measure.total_mass == pytest.approx(expected_mass, rel=1e-12)

    def test_two_d_strided_pipeline(self, rng):
        l1 = sc.ConvLayerConfig(spatial_in=(5, 4), filter_shape=(3, 2),
                                stride=(2, 1), padding=(1, 0))
        l2 = sc.ConvLayerConfig(spatial_in=l1.spatial_out, filter_shape=(2, 2),
                                stride=1, padding=1)
        k = 2
        spec = sc.NetworkSpec(
            alpha=1.2, sigma_w=1.0, sigma_b=0.5, layers=(l1, l2),
            activation=sc.get_activation("tanh"), channels=64,
            inputs=sc.input_tensor(rng.standard_normal((2, 5, 4, k))), seed=2,
        )
        lcfg = sc.LimitConfig(mc_samples=4_000, seed=6)
        measures = sc.limit_measures(spec, lcfg)
        n1 = np.prod(l1.spatial_out)
        n2 = np.prod(l2.spatial_out)
        assert [m.dimension for m in measures] == [n1 * k, n2 * k]
        report = sc.convergence_sweep(spec, [4, 64], 4_000, lcfg)
        assert report.rows[-1].sup_cf_dist < 0.1

    def test_very_heavy_tails_stay_finite(self, rng):
        # alpha = 0.7 draws reach astronomical magnitudes; the recursion must
        # still produce finite weights, unit atoms and a CF in (0, 1]
        prev = sc.gamma_first(toy_inputs(), toy_layer(), 0.7, 1.0, 1.0)
        out = sc.gamma_next_mc(prev, toy_layer(), 0.7, 1.0, 1.0, TANH,
                               sc.LimitConfig(mc_samples=20_000), rng)
        assert np.all(np.isfinite(out.weights))
        probes = rng.standard_normal((50, 8))
        vals = sc.cf_multivariate(out, probes)
        assert np.all(vals > 0.0) and np.all(vals <= 1.0)


def _pinned_case(case):
    """The measures of one pinned constructor case, in order."""
    u = np.array([0.1, 0.2, 0.3, 0.4])
    l1 = sc.ConvLayerConfig(spatial_in=(5, 4), filter_shape=(3, 2), stride=(2, 1), padding=(1, 0))
    x = sc.input_tensor(np.random.default_rng(3).standard_normal((2, 5, 4, 2)))
    prev = sc.gamma_first(toy_inputs(seed=4), toy_layer(), 1.5, 1.0, 1.0)
    if case == "first":
        return [sc.gamma_first(x, l1, 1.5, 0.9, 0.7)]
    if case == "first_no_bias":
        # a zero channel: its slices carry no atoms
        x = x * np.array([1.0, 0.0])[:, None, None, None]
        return [sc.gamma_first(x, l1, 1.5, 0.9, 0.0)]
    if case == "conditional":
        real = np.random.default_rng(5).standard_normal((3, 4, 2))
        return [sc.gamma_conditional(real, toy_layer(), 1.3, 0.8, 0.5, TANH)]
    if case in ("next_mc", "next_mc_cap"):
        cap = 50 if case == "next_mc_cap" else None
        lcfg = sc.LimitConfig(mc_samples=300, atom_cap=cap)
        return [sc.gamma_next_mc(prev, toy_layer(), 1.5, 1.0, 1.0, TANH, lcfg,
                                 np.random.default_rng(6))]
    if case in ("readout", "readout_cap"):
        cap = 50 if case == "readout_cap" else None
        lcfg = sc.LimitConfig(mc_samples=300, atom_cap=cap)
        layer = sc.gamma_next_mc(prev, toy_layer(), 1.5, 1.0, 1.0, TANH, lcfg,
                                 np.random.default_rng(7))
        return [sc.readout_measure(layer, u)]
    if case in ("readout_limit_1", "readout_limit_3"):
        spec = toy_spec(n_layers=int(case[-1]))
        measures = sc.limit_measures(spec, sc.LimitConfig(mc_samples=300, seed=2))
        return [sc.readout_measure(measures[-1], u)]
    if case == "stack_4":
        return sc.limit_measures(toy_spec(n_layers=4), sc.LimitConfig(mc_samples=300, seed=3))
    if case == "sigma_w_zero":
        lcfg = sc.LimitConfig(mc_samples=300, seed=3)
        stack = sc.limit_measures(toy_spec(n_layers=2, sigma_w=0.0), lcfg)
        return stack + [sc.readout_measure(stack[-1], u)]
    raise AssertionError(case)


class TestMeasurePins:
    # SHA-256 of the 17-digit decimal text (decimal_measure_text, the
    # measure files' format when these were recorded) of every measure a
    # constructor case builds: any change to atoms, weights, their order or
    # the bias atom shows here.  The six cases whose atoms come from stable draws
    # (next_mc, next_mc_cap, readout, readout_cap, readout_limit_3, stack_4)
    # were recorded when the CMS transform came to take half-angle tangents
    # and atom_cap came to resample stratified.  Like every draw pin, they
    # hold on one numpy SIMD dispatch (see the report header of the test run).
    # The five readout cases (readout, readout_cap, readout_limit_1,
    # readout_limit_3, sigma_w_zero) were recorded again when the readout
    # became the exact image of a measure, built with no draws of its own.
    # The two cases with a layer 3 (readout_limit_3, stack_4) were recorded
    # again when layers drawing from more than M/10 non-bias atoms came to
    # draw their fields in ten groups, each from its own resample.
    @pytest.mark.parametrize("case, digest", [
        ("first",
         "97af5cb9aa41ecbe6d0555b2967abe6b8bdc4b975b8f8358ed10cec51d2f24be"),
        ("first_no_bias",
         "3b3c5613ad5221d82bbb6011a92a04a10a15680435e786a051fee594403c2275"),
        ("conditional",
         "2180cf03675aea4b18ae885ece066ecaf92904b23e179ed299a8f9665de3f3aa"),
        ("next_mc",
         "ae6e2ca9bd22cabdf33fdc11f2304e8fcd77c1bf1fb4f7f271d37bfb596e4b57"),
        ("next_mc_cap",
         "cd934248b8f87d37689c628c0266ad45e016808341b17330cdeccbb2333ff9fd"),
        ("readout",
         "e892c2474df1728160aa331943b0956b9cbd6811b5283bc0581a814f53e29864"),
        ("readout_cap",
         "ebd568667599b3ab0f580cbe9520a1288001a6dd8f964740da41e146f61e7be4"),
        ("readout_limit_1",
         "884fed248cfbc94926db2b08125c856998caed88992276d9b3053c419055c4a9"),
        ("readout_limit_3",
         "33ddbe23fd0ebb30baba2c95bec0cfc1e5c44f12846b0e738aee0379febcb463"),
        ("stack_4",
         "277eed7a00e8b85a4266634aacdc8a866facd10b2d7ba7b3566085c1c20fc133"),
        ("sigma_w_zero",
         "995eab0ac0c594eb471644bc11fa5c9d84a6b1ebc3d17e4149f1116f567b2048"),
    ])
    def test_dump_pinned(self, case, digest):
        text = "".join(decimal_measure_text(m) for m in _pinned_case(case))
        assert hashlib.sha256(text.encode()).hexdigest() == digest
