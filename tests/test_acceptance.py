"""Acceptance suite: every shipped guarantee at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one pass/fail line per
criterion.  Budgets come from the 3/sqrt(N) CF-estimator bound plus the Monte
Carlo error of the limit measures; seeds are fixed so every number here is
reproducible.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

import stableconv as sc
from stableconv.cli import main

from conftest import random_conv_case, toy_spec
from test_cli import TINY_CONFIG

TOY_LIMIT_SEED = 5
TOY_REPLICAS = 20_000
TOY_MC = 10_000


@contextmanager
def criterion(num, desc, budget_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num}: {desc}", flush=True)
        raise
    elapsed = time.perf_counter() - start
    print(f"[PASS] criterion {num}: {desc} ({elapsed:.1f}s)", flush=True)
    assert elapsed < budget_s, f"criterion {num} exceeded its {budget_s}s budget"


@pytest.fixture(scope="module")
def toy():
    """Toy network, its limit measure, and paired replicas at C = 256."""
    spec = toy_spec(alpha=1.5, channels=256, n_layers=2, seed=11)
    measures = sc.limit_measures(spec, sc.LimitConfig(mc_samples=TOY_MC, seed=TOY_LIMIT_SEED))
    reps = sc.sample_replicas(spec, TOY_REPLICAS, n_channels=2)
    return spec, measures[-1], reps


def test_criterion_1_layer1_exactness(rng):
    with criterion(1, "layer-1 measure CF equals the closed-form product CF", 10):
        for case in range(10):
            cfg, x = random_conv_case(rng, two_d=case % 2 == 1, k=case % 3 + 1)
            alpha = float(rng.uniform(0.5, 2.0))
            sw, sb = float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.0, 2.0))
            measure = sc.gamma_first(x, cfg, alpha, sw, sb)
            probes = rng.standard_normal((100, measure.dimension))
            via_measure = sc.cf_multivariate(measure, probes)
            closed = sc.cf_layer1_closed_form(x, cfg, alpha, sw, sb, probes)
            assert np.abs(via_measure - closed).max() < 1e-12


def test_criterion_2_conditional_exactness(rng):
    with criterion(2, "conditional measure CF equals the closed-form product CF", 10):
        act = sc.get_activation("tanh")
        for case in range(10):
            cfg, x = random_conv_case(rng, two_d=case % 2 == 1, k=case % 3 + 1)
            c = int(rng.integers(1, 5))
            prev = rng.standard_normal((c, *cfg.spatial_in, x.shape[-1]))
            alpha = float(rng.uniform(0.5, 2.0))
            sw, sb = float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.0, 2.0))
            measure = sc.gamma_conditional(prev, cfg, alpha, sw, sb, act)
            probes = rng.standard_normal((100, measure.dimension))
            via_measure = sc.cf_multivariate(measure, probes)
            closed = sc.cf_conditional_closed_form(prev, cfg, alpha, sw, sb, act, probes)
            assert np.abs(via_measure - closed).max() < 1e-12


def test_criterion_3_sampler_fidelity():
    with criterion(3, "stable samplers reproduce their CFs (N=1e5, tol 0.01)", 30):
        n = 100_000
        for i, alpha in enumerate([0.5, 1.0, 1.5, 2.0]):
            rng = np.random.default_rng(100 + i)
            draws = sc.sample_standard(alpha, n, rng)
            for t in [0.25, 0.5, 1.0, 2.0]:
                emp = np.exp(1j * t * draws).mean()
                assert abs(emp - np.exp(-(t**alpha))) < 0.01
        rng = np.random.default_rng(200)
        dirs = rng.standard_normal((3, 4))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        measure = sc.SpectralMeasure(1.5, rng.uniform(0.5, 1.5, 3), dirs)
        draws = sc.sample_multivariate(measure, rng, size=n)
        probes = sc.generate_probes(measure, n_probes=20, seed=9).probes
        emp = sc.empirical_cf(draws, probes)
        assert np.abs(emp - sc.cf_multivariate(measure, probes)).max() < 0.01


def test_criterion_4_projection_consistency():
    with criterion(4, "1-D projections match sampled laws", 30):
        for i, alpha in enumerate([0.7, 1.0, 1.3, 1.7, 2.0]):
            rng = np.random.default_rng(300 + i)
            dim = int(rng.integers(3, 7))
            dirs = rng.standard_normal((5, dim))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            measure = sc.SpectralMeasure(alpha, rng.uniform(0.3, 1.5, 5), dirs)
            draws = sc.sample_multivariate(measure, rng, size=100_000)
            for _ in range(10):
                u = rng.standard_normal(dim)
                # <u, X> is symmetric stable with scale sigma_a^(1/alpha)
                sigma_a = np.sum(measure.weights * np.abs(measure.directions @ u) ** alpha)
                projected = draws @ u
                for t in np.array([0.5, 1.0, 2.0]) / sigma_a ** (1.0 / alpha):
                    emp = np.exp(1j * t * projected).mean()
                    assert abs(emp - sc.cf_multivariate(measure, [t * u])[0]) < 0.02


def test_criterion_5_convergence_in_channels():
    with criterion(5, "finite-channel law approaches the limit law as C grows", 600):
        spec = toy_spec(alpha=1.5, channels=4, n_layers=2, seed=11)
        report = sc.convergence_sweep(
            spec,
            [4, 16, 64, 256],
            TOY_REPLICAS,
            sc.LimitConfig(mc_samples=TOY_MC, seed=TOY_LIMIT_SEED),
        )
        for row in report.rows:
            print(
                f"    C={row.channels:4d} sup={row.sup_cf_dist:.4f} "
                f"mean={row.mean_cf_dist:.4f}",
                flush=True,
            )
        assert report.rows[-1].sup_cf_dist < 0.05
        assert report.rows[-1].sup_cf_dist < report.rows[0].sup_cf_dist


def test_criterion_6_joint_independence(toy):
    with criterion(6, "channels decouple at large C and mixtures match", 600):
        spec, limit, reps = toy
        pa = sc.generate_probes(limit, n_probes=20, seed=31)
        pb = sc.generate_probes(limit, n_probes=20, seed=77)
        mixture = sc.mixture_measure(limit, [1.0, 1.0])
        mix_probes = sc.generate_probes(mixture, n_probes=20, seed=13)
        report = sc.independence_check(
            reps.outputs, reps.biases, [1.0, 1.0], pa, pb, mix_probes
        )
        print(
            f"    factorization={report['max_factorization_defect']:.4f} "
            f"control={report['max_control_defect']:.4f} "
            f"mixture={report['mixture_sup_dist']:.4f}",
            flush=True,
        )
        assert report["max_factorization_defect"] < 0.07
        assert report["mixture_sup_dist"] < 0.05
        assert report["max_control_defect"] > 0.07  # the dependent pairing must fail


def test_criterion_7_gaussian_oracle():
    with criterion(7, "alpha=2 limit covariance matches the Gaussian recursion", 120):
        spec = toy_spec(alpha=2.0, channels=64, n_layers=2, seed=11)
        report = sc.gaussian_oracle_check(
            spec, sc.LimitConfig(mc_samples=TOY_MC, seed=TOY_LIMIT_SEED)
        )
        print(f"    diag rel err={report['max_diag_rel_err']:.4f}", flush=True)
        assert report["max_diag_rel_err"] < 0.05


def test_criterion_8_readout_projection(toy):
    with criterion(8, "position-averaged outputs match the readout measure", 300):
        spec, limit, reps = toy
        n_pos = spec.layers[-1].n_positions_out
        u = np.full(n_pos, 1.0 / n_pos)
        readout = sc.readout_measure(limit, u)
        contracted = np.einsum(
            "p,npk->nk",
            u,
            reps.channel_samples(0).reshape(-1, n_pos, spec.n_inputs),
        )
        probes = sc.generate_probes(readout, n_probes=20, seed=9).probes
        emp = sc.empirical_cf(contracted, probes)
        theo = sc.cf_multivariate(readout, probes)
        sup, _ = sc.cf_distance(emp, theo)
        print(f"    readout sup={sup:.4f}", flush=True)
        assert sup < 0.05


def test_criterion_9_byte_identical_reruns(tmp_path):
    with criterion(9, "re-running a command emits byte-identical CSV", 120):
        cfg = tmp_path / "toy.ini"
        cfg.write_text(TINY_CONFIG)
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert main(["verify", "-c", str(cfg), "-o", str(out)]) == 0
        gauss = tmp_path / "gauss.ini"
        gauss.write_text(TINY_CONFIG.replace("alpha = 1.5", "alpha = 2"))
        for out in outs:
            assert main(["oracle", "-c", str(gauss), "-o", str(out)]) == 0
        for name, cfg_path in [("sweep.csv", cfg), ("probes.csv", cfg), ("oracle.csv", gauss)]:
            from stableconv.config import load_config

            run_hash = load_config(cfg_path).config_hash
            a = (outs[0] / run_hash / name).read_bytes()
            b = (outs[1] / run_hash / name).read_bytes()
            assert a == b, f"{name} differs between identical runs"
