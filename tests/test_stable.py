import hashlib
import os
import struct
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import stableconv as sc
import stableconv.stable as stable_module

from conftest import (VALUE_PINS, decimal_measure_text, spread_pin, toy_inputs, toy_layer,
                      values_match)


def make_measure(rng, dim=4, n_atoms=6, alpha=1.5, bias=False):
    dirs = rng.standard_normal((n_atoms, dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    weights = rng.uniform(0.2, 2.0, n_atoms)
    return sc.SpectralMeasure(alpha, weights, dirs, bias_index=0 if bias else None)


def law_1d(alpha, sigma):
    """The univariate symmetric stable law of scale ``sigma`` as a 1-D measure."""
    return sc.SpectralMeasure(alpha, [sigma**alpha], [[1.0]])


class TestUnivariateCF:
    def test_symmetric_unit(self):
        assert sc.cf_multivariate(law_1d(1.5, 1.0), [[1.0]])[0] == pytest.approx(np.exp(-1.0))

    @pytest.mark.parametrize("alpha", [1.5, 1.0, 0.7])
    def test_cf_at_zero_is_one(self, alpha):
        assert sc.cf_multivariate(law_1d(alpha, 2.0), [[0.0]])[0] == 1.0

    def test_scale_identity(self):
        # scale sigma at probe t equals unit scale at probe sigma*t
        p2 = law_1d(1.5, 2.0)
        p1 = law_1d(1.5, 1.0)
        for t in [0.25, 1.0, 3.0]:
            assert sc.cf_multivariate(p2, [[t]])[0] == pytest.approx(
                sc.cf_multivariate(p1, [[2.0 * t]])[0], rel=1e-14
            )

    def test_alpha_one_branch(self):
        # alpha = 1 needs no expression of its own: the Cauchy CF exp(-sigma|t|)
        t = np.array([-3.0, 0.5, 2.0])
        cf = sc.cf_multivariate(law_1d(1.0, 2.0), t[:, None])
        assert np.allclose(cf, np.exp(-2.0 * np.abs(t)), rtol=1e-15, atol=0)


class TestCFExponent:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
    def test_in_place_exponent_equals_the_expression(self, rng, alpha):
        # 0.5, 1 and 2 take numpy's fast scalar powers, in place as not
        m = make_measure(rng, dim=5, n_atoms=300, alpha=alpha)
        probes = rng.standard_normal((21, 5))
        expected = np.abs(probes @ m.directions.T) ** alpha @ m.weights
        assert sc.stable.cf_exponent(m, probes).tobytes() == expected.tobytes()

    def test_many_atoms_go_in_probe_blocks(self, rng):
        # 300k atoms: one probe per block of 2.4 MB, where the whole
        # 21 x 300k product is 50 MB
        m = make_measure(rng, dim=5, n_atoms=300_000, alpha=1.5)
        probes = rng.standard_normal((21, 5))
        expected = np.abs(probes @ m.directions.T) ** 1.5 @ m.weights
        tracemalloc.start()
        try:
            got = sc.stable.cf_exponent(m, probes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.allclose(got, expected, rtol=1e-14, atol=0)
        assert peak < 3 * 8 * m.n_atoms + sc.stable._BLOCK_BYTES


def _whole_block_sums(x, t, rows):
    """cf_block_sums as one expression per block, with a temporary for the
    phases, their product with 1j and the exponentials."""
    sums = np.empty((-(-len(x) // rows), len(t)), dtype=complex)
    for i, start in enumerate(range(0, len(x), rows)):
        phases = np.ascontiguousarray(x[start : start + rows]) @ t.T
        sums[i] = np.exp(1j * phases).sum(axis=0)
    return sums


class TestCFBlockSums:
    def test_buffers_give_the_expression_bit_for_bit(self, rng):
        # random sizes with -0.0 values, an infinite sample now and then,
        # strided channel-0 views and short last blocks
        for _ in range(200):
            n, d, p = (int(v) for v in rng.integers(1, [400, 12, 25]))
            rows = int(rng.integers(1, n + 3))
            pairs = rng.standard_normal((n, 2, d)) * rng.choice([0.1, 1.0, 100.0])
            x = pairs[:, 0] if rng.random() < 0.5 else pairs[:, 0].copy()
            x[rng.random(x.shape) < 0.2] = -0.0
            if rng.random() < 0.2:
                x[rng.integers(n), rng.integers(d)] = rng.choice([np.inf, -np.inf])
            t = rng.standard_normal((p, d))
            t[0] = 0.0
            t[rng.random(t.shape) < 0.1] = -0.0
            with np.errstate(invalid="ignore"):
                got = sc.stable.cf_block_sums(x, t, rows)
                expected = _whole_block_sums(x, t, rows)
            assert got.tobytes() == expected.tobytes()

    def test_blocks_equal_one_whole_sum(self, rng):
        # 7000 samples in blocks of 3000: the rows add up, to rounding, to
        # the whole sum
        x, t = rng.standard_normal((7000, 3)), rng.standard_normal((21, 3))
        rows = sc.stable.cf_block_sums(x, t, 3000)
        assert rows.shape == (3, 21)
        assert np.allclose(rows.sum(axis=0), np.exp(1j * (x @ t.T)).sum(axis=0),
                           rtol=0, atol=1e-10)

    def test_strided_samples_give_the_contiguous_rows(self, rng):
        pairs = rng.standard_normal((50, 2, 72))
        t = rng.standard_normal((21, 72)) * 0.1
        for rows in (1, 3, 7, 50):
            strided = sc.stable.cf_block_sums(pairs[:, 0], t, rows)
            copied = sc.stable.cf_block_sums(pairs[:, 0].copy(), t, rows)
            assert strided.tobytes() == copied.tobytes()


class TestUnivariateSampler:
    def test_gaussian_endpoint_variance(self, rng):
        draws = sc.sample_standard(2.0, 100_000, rng)
        assert draws.var() == pytest.approx(2.0, abs=0.05)

    def test_cauchy_quartiles(self, rng):
        draws = sc.sample_standard(1.0, 100_000, rng)
        q1, q3 = np.quantile(draws, [0.25, 0.75])
        assert q1 == pytest.approx(-1.0, abs=0.05)
        assert q3 == pytest.approx(1.0, abs=0.05)

    def test_heavy_tail_empirical_cf(self, rng):
        draws = sc.sample_standard(0.5, 100_000, rng)
        ecf = np.exp(1j * draws).mean()
        assert abs(ecf - np.exp(-1.0)) < 0.01


class TestMultivariateCF:
    def test_single_atom(self):
        m = sc.SpectralMeasure(1.5, np.array([1.0]), np.array([[1.0, 0.0]]))
        assert sc.cf_multivariate(m, np.array([[1.0, 0.0]]))[0] == pytest.approx(np.exp(-1))

    def test_orthogonal_probe(self):
        m = sc.SpectralMeasure(1.5, np.array([1.0]), np.array([[1.0, 0.0]]))
        assert sc.cf_multivariate(m, np.array([[0.0, 5.0]]))[0] == 1.0

    def test_two_atoms_cauchy(self):
        m = sc.SpectralMeasure(
            1.0, np.array([1.0, 2.0]), np.array([[1.0, 0.0], [0.0, 1.0]])
        )
        assert sc.cf_multivariate(m, np.array([[1.0, 1.0]]))[0] == pytest.approx(np.exp(-3))

    def test_dimension_mismatch(self):
        m = sc.SpectralMeasure(1.5, np.array([1.0]), np.array([[1.0, 0.0]]))
        with pytest.raises(ValueError):
            sc.cf_multivariate(m, np.array([[1.0, 0.0, 0.0]]))

    def test_single_probe_is_refused(self):
        # probes come as an (n, d) batch: a 1-D probe, or any other shape,
        # raises, naming the batch shape
        m = sc.SpectralMeasure(1.5, np.array([1.0]), np.array([[1.0, 0.0]]))
        for probes in (np.array([1.0, 0.0]), np.zeros((1, 1, 2)), 1.0):
            with pytest.raises(ValueError, match=r"\(n, 2\)"):
                sc.cf_multivariate(m, probes)

    def test_range_and_symmetry(self, rng):
        m = make_measure(rng)
        probes = rng.standard_normal((50, m.dimension))
        vals = sc.cf_multivariate(m, probes)
        assert np.all(vals > 0.0) and np.all(vals <= 1.0)
        assert sc.cf_multivariate(m, np.zeros((1, m.dimension)))[0] == 1.0
        assert np.allclose(vals, sc.cf_multivariate(m, -probes), rtol=0, atol=0)

    def test_weight_scaling_identity(self, rng):
        # scaling all weights by c^alpha equals probing the original at c*t
        m = make_measure(rng, alpha=1.3)
        c = 1.7
        scaled = sc.SpectralMeasure(m.alpha, m.weights * c**m.alpha, m.directions)
        probes = rng.standard_normal((20, m.dimension))
        assert np.allclose(
            sc.cf_multivariate(scaled, probes),
            sc.cf_multivariate(m, c * probes),
            rtol=1e-12,
        )

    def test_gaussian_case_quadratic_form(self, rng):
        m = make_measure(rng, alpha=2.0)
        sigma = (m.directions.T * m.weights) @ m.directions
        probes = rng.standard_normal((20, m.dimension))
        quad = np.einsum("ni,ij,nj->n", probes, sigma, probes)
        assert np.allclose(sc.cf_multivariate(m, probes), np.exp(-quad), rtol=1e-12)


class TestMultivariateSampler:
    def test_single_atom_marginals(self, rng):
        m = sc.SpectralMeasure(1.5, np.array([1.0]), np.array([[1.0, 0.0, 0.0]]))
        draws = sc.sample_multivariate(m, rng, size=50_000)
        assert np.all(draws[:, 1:] == 0.0)
        ecf = np.exp(1j * draws[:, 0]).mean()
        assert abs(ecf - np.exp(-1.0)) < 0.02

    def test_gaussian_basis_atoms(self, rng):
        weights = np.array([0.5, 2.0])
        m = sc.SpectralMeasure(2.0, weights, np.eye(2))
        draws = sc.sample_multivariate(m, rng, size=100_000)
        assert draws[:, 0].var() == pytest.approx(2 * 0.5, rel=0.05)
        assert draws[:, 1].var() == pytest.approx(2 * 2.0, rel=0.05)
        corr = np.corrcoef(draws.T)[0, 1]
        assert abs(corr) < 0.02

    def test_three_atom_empirical_cf(self, rng):
        m = make_measure(rng, dim=3, n_atoms=3, alpha=1.5)
        draws = sc.sample_multivariate(m, rng, size=100_000)
        probes = rng.standard_normal((20, 3)) * 0.5
        emp = sc.empirical_cf(draws, probes)
        theo = sc.cf_multivariate(m, probes)
        assert np.abs(emp - theo).max() < 0.01

    def test_empty_measure_flagged(self, rng):
        m = sc.empty_measure(1.5, 3)
        with pytest.warns(UserWarning):
            draws = sc.sample_multivariate(m, rng, size=10)
        assert np.all(draws == 0.0)


def _one_shot(measure, n, rng):
    """The whole (n, n_atoms) coefficient draw projected in one product."""
    z = sc.sample_standard(measure.alpha, (n, measure.n_atoms), rng)
    return (z * measure.weights ** (1.0 / measure.alpha)) @ measure.directions


class TestBlockedSampler:
    # 1000 atoms give blocks of (1 << 20) // 8000 = 131 rows
    N_ATOMS, ROWS = 1000, 131

    def test_memory_bounded_by_block(self):
        # 2000 draws over 10k atoms: one whole (2000, 10k) CMS draw and its
        # temporaries need about 800 MB; blocked draws stay near the
        # interpreter's own footprint.  The fresh process reports the peak of
        # its own address space (VmHWM): its ru_maxrss would start from this
        # test process's peak, which is what the rest of the suite left.
        code = (
            "import numpy as np, stableconv as sc\n"
            "rng = np.random.default_rng(0)\n"
            "d = rng.standard_normal((10_000, 8))\n"
            "d /= np.linalg.norm(d, axis=1, keepdims=True)\n"
            "m = sc.SpectralMeasure(1.5, rng.uniform(0.1, 1.0, 10_000), d)\n"
            "x = sc.sample_multivariate(m, rng, size=2000)\n"
            "assert x.shape == (2000, 8) and np.isfinite(x).all()\n"
            "hwm = [ln for ln in open('/proc/self/status') if ln.startswith('VmHWM:')]\n"
            "print(int(hwm[0].split()[1]) / 1024.0)\n"
        )
        src = str(Path(sc.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            check=True,
        )
        assert float(done.stdout) < 150.0

    @pytest.mark.parametrize("alpha", [1.5, 2.0])
    def test_blocks_draw_into_one_coefficient_block(self, rng, monkeypatch, alpha):
        # every row block draws into a view of one (rows, n_atoms) block with
        # one scratch, which the closed-form Gaussian branch does without
        m = make_measure(rng, dim=3, n_atoms=self.N_ATOMS, alpha=alpha)
        calls, sample_standard = [], stable_module.sample_standard

        def recording(alpha, size, rng, out=None, scratch=None):
            calls.append((out.__array_interface__["data"][0], scratch))
            return sample_standard(alpha, size, rng, out=out, scratch=scratch)

        monkeypatch.setattr(stable_module, "sample_standard", recording)
        sc.sample_multivariate(m, rng, size=2 * self.ROWS + 5)
        assert len(calls) == 3 and len(set(calls)) == 1
        assert (calls[0][1] is None) == (alpha == 2.0)

    def test_partition_follows_atom_count(self, rng):
        m = make_measure(rng, dim=3, n_atoms=self.N_ATOMS)
        n = 2 * self.ROWS + 5
        draws = sc.sample_multivariate(m, np.random.default_rng(7), size=n)
        ref_rng = np.random.default_rng(7)
        ref = np.vstack([_one_shot(m, rows, ref_rng) for rows in (self.ROWS, self.ROWS, 5)])
        assert draws.shape == (n, 3)
        assert np.array_equal(draws, ref)
        # a block draws all its uniforms before its exponentials, so the
        # whole draw at once is a different (equally valid) sample
        assert not np.allclose(draws, _one_shot(m, n, np.random.default_rng(7)))

    def test_size_none_and_zero(self, rng):
        # every draw names its size: None is refused, not read as one draw
        m = make_measure(rng, dim=3, n_atoms=self.N_ATOMS)
        with pytest.raises(ValueError, match="size"):
            sc.sample_multivariate(m, rng, size=None)
        assert sc.sample_multivariate(m, rng, size=0).shape == (0, 3)

    @pytest.mark.parametrize("alpha", [0.7, 1.0, 1.5, 2.0])
    @pytest.mark.parametrize("n_atoms,n", [(6, 5000), (N_ATOMS, ROWS)])
    def test_single_block_equals_one_shot(self, rng, alpha, n_atoms, n):
        m = make_measure(rng, n_atoms=n_atoms, alpha=alpha)
        draws = sc.sample_multivariate(m, np.random.default_rng(11), size=n)
        assert np.array_equal(draws, _one_shot(m, n, np.random.default_rng(11)))

    def test_multi_block_empirical_cf(self, rng):
        m = make_measure(rng, dim=3, n_atoms=500, alpha=1.5)
        m = sc.SpectralMeasure(1.5, m.weights / m.total_mass, m.directions)
        n = 20_000  # 77 blocks of 262 rows
        draws = sc.sample_multivariate(m, rng, size=n)
        probes = rng.standard_normal((20, 3)) * np.linspace(0.3, 2.0, 20)[:, None]
        cos = np.cos(draws @ probes.T)
        se = cos.std(axis=0, ddof=1) / np.sqrt(n)
        theo = sc.cf_multivariate(m, probes)
        assert theo.min() < 0.5 < theo.max()
        # 5 standard errors: a family-wise false-alarm rate near 1e-5 over 20 probes
        assert np.all(np.abs(cos.mean(axis=0) - theo) < 5.0 * se)


# sizes around 2 x 4096 variates, a 2-D draw of 5 x 4099, and around one and
# two transform blocks
_BLOCK = stable_module._CMS_BLOCK
_DRAW_SIZES = [1, 0, 1, 8191, 8193, (5, 4099), _BLOCK - 1, _BLOCK + 1, 2 * _BLOCK + 1]
# SHA-256 of _draw_digest's stream, recorded when the transform came to take
# half-angle tangents: any change to the draws shows here.  The bits depend
# on numpy's SIMD dispatch (see the report header of the test run), so these
# hold on one dispatch; TestHalfAngleTransform checks the values anywhere.
_DRAW_PINS = {
    0.7: "82548ae8728d3a058fe19b0a3e9848e7710974c34b8c26d6f9656191381814a7",
    1.5: "6e165fefd195569124aace028b01450f4d059d69b00982d52498996882ee87ff",
    1.9: "3af3a0a41d44d8c1fd327a7be6d478073c841cdfbafca72a45b7f88be59b2d7f",
}


def _draw_stream(alpha):
    """The draws of _DRAW_SIZES, then of a multivariate measure, from one
    generator, as one flat array."""
    rng = np.random.default_rng(2024)
    parts = [np.ravel(sc.sample_standard(alpha, size, rng)) for size in _DRAW_SIZES]
    # 1000 atoms: three row blocks of 131 x 1000 variates each
    m = make_measure(np.random.default_rng(5), dim=3, n_atoms=1000, alpha=alpha)
    parts.append(np.ravel(sc.sample_multivariate(m, rng, size=2 * 131 + 5)))
    return np.concatenate(parts)


def _draw_digest(alpha):
    return hashlib.sha256(_draw_stream(alpha).tobytes()).hexdigest()


def _on_threads(fn, threads):
    """``fn()`` run on ``threads`` threads at once; their results."""
    results = [None] * threads

    def run(i):
        results[i] = fn()

    workers = [threading.Thread(target=run, args=(i,)) for i in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=120)
        assert not worker.is_alive()
    return results


class TestThreadedTransform:
    # ``threads`` callers draw at once, each from its own generator: the
    # transform keeps no state between calls, so each gets the pinned bits
    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("alpha", sorted(_DRAW_PINS))
    def test_draws_pinned_for_any_thread_count(self, alpha, threads):
        assert _on_threads(lambda: _draw_digest(alpha), threads) == [_DRAW_PINS[alpha]] * threads

    # the values beside each digest (conftest.VALUE_PINS), recorded with
    # the digests' draws and compared entry by entry
    @pytest.mark.parametrize("alpha", sorted(_DRAW_PINS))
    def test_draw_values_pinned(self, alpha):
        got, pin = spread_pin(_draw_stream(alpha)), VALUE_PINS[f"draws/{alpha}"]
        assert values_match(got, pin), np.abs(got / pin - 1).max()

    def test_transform_runs_on_the_calling_thread(self):
        sc.sample_standard(1.5, 1 << 20, np.random.default_rng(0))
        names = [t.name for t in threading.enumerate()]
        assert not any(name.startswith("stableconv-cms") for name in names), names

    @pytest.mark.parametrize("alpha", [0.7, 1.0, 1.5, 2.0])
    def test_draws_into_given_arrays_equal_fresh_draws(self, alpha):
        # one scratch for draws of two sizes, out filled with NaN so a slot
        # left unwritten shows
        scratch = stable_module._CmsScratch(300)
        fresh, given = np.random.default_rng(3), np.random.default_rng(3)
        for size in ((20, 15), 7):
            out = np.full(size, np.nan)
            assert sc.sample_standard(alpha, size, given, out=out, scratch=scratch) is out
            assert out.tobytes() == sc.sample_standard(alpha, size, fresh).tobytes()
        with pytest.raises(ValueError, match="shape"):
            sc.sample_standard(alpha, 6, given, out=np.empty(7))

    def test_scalar_and_empty_draws(self, rng):
        # a scalar draw is one of size 1: size None is refused
        with pytest.raises(ValueError, match="size"):
            sc.sample_standard(1.5, None, rng)
        none = sc.sample_standard(1.5, 0, rng)
        assert isinstance(none, np.ndarray) and none.shape == (0,)


_EPS = np.finfo(np.float64).eps
# |half-angle - sine/cosine| <= _TOL * eps * |sine/cosine| / cos v
_TOL = 64.0


def _cms_reference(alpha, v, w):
    """The CMS transform as sines and cosines, in the operation order the
    package used before it took half-angle tangents."""
    w = np.where(w == 0.0, np.finfo(np.float64).tiny, w)
    out = np.sin(v * alpha)
    tmp = np.cos(v)
    tmp **= 1.0 / alpha
    out /= tmp
    tmp = np.cos(v * (1.0 - alpha))
    tmp /= w
    tmp **= (1.0 - alpha) / alpha
    out *= tmp
    return out


def _within_rounding(alpha, size, seed=0):
    """Whether every draw of ``size`` is within rounding of the reference
    on the same generator state."""
    new = sc.sample_standard(alpha, size, np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    v = rng.uniform(-np.pi / 2.0, np.pi / 2.0, size)
    ref = _cms_reference(alpha, v, rng.standard_exponential(size))
    return bool(np.all(np.abs(new - ref) <= _TOL * _EPS * np.abs(ref) / np.cos(v)))


class _TanOfWholeAngle:
    """numpy, except that ``tan`` takes twice its argument: a transform
    using it takes tan(v) where it should take tan(v/2)."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def tan(x, out=None):
        return np.tan(2.0 * x, out=out)


class TestHalfAngleTransform:
    ALPHAS = [0.3, 0.7, 1.2, 1.5, 1.9, 1.999]

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_equals_sine_cosine_form_to_rounding(self, alpha, threads):
        # on ``threads`` concurrent callers, as the pins above
        for size in (_BLOCK - 1, _BLOCK + 1, 2 * _BLOCK + 1):
            assert all(_on_threads(lambda: _within_rounding(alpha, size), threads)), size

    def test_tan_of_the_whole_angle_fails(self, monkeypatch):
        monkeypatch.setattr(stable_module, "np", _TanOfWholeAngle())
        with np.errstate(invalid="ignore"):  # cos(2v) < 0 to a fractional power
            assert not _within_rounding(1.5, _BLOCK + 1)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_extreme_inputs_keep_their_kind(self, alpha):
        # finite, infinite, zero or NaN as the reference is, at the ends of
        # the uniform's range and of the exponential's
        edge = np.nextafter(np.pi / 2.0, 0.0)
        grid = np.array(
            [
                (v, w)
                for v in (edge, -edge, 0.0, 1e-300, -1e-300, 1.5)
                for w in (0.0, 5e-324, 1e-300, 1e-20, 1.0, 700.0)
            ]
        )
        v, w = grid.T.copy()

        def kind(x):
            return np.select([np.isnan(x), np.isinf(x), x == 0.0], [3, 2, 1], 0)

        with np.errstate(all="ignore"):
            ref = _cms_reference(alpha, v, w)
            out = np.empty_like(v)
            stable_module._cms_transform(alpha, v, w.copy(), out,
                                         stable_module._CmsScratch(v.size).blocks)
        assert np.array_equal(kind(out), kind(ref))
        signed = ~np.isnan(ref)
        assert np.array_equal(np.signbit(out[signed]), np.signbit(ref[signed]))


def scale_alpha(measure, u):
    """sigma(u)^alpha = sum_j w_j |<u, s_j>|^alpha: the law of <u, X> is
    symmetric stable with scale sigma(u)."""
    return float(np.sum(measure.weights * np.abs(measure.directions @ u) ** measure.alpha))


class TestProject1d:
    """The law of <u, X>: its CF at t is that of X at t * u."""

    def test_single_pair_atom(self):
        m = sc.SpectralMeasure(1.5, np.array([1.0]), np.array([[1.0, 0.0]]))
        u = np.array([1.0, 0.0])
        for t in [0.5, 1.0, 3.0]:
            assert sc.cf_multivariate(m, [t * u])[0] == pytest.approx(np.exp(-(t**1.5)), abs=1e-14)

    @pytest.mark.parametrize("alpha", [0.7, 1.0, 1.5, 2.0])
    def test_degenerate_projection(self, alpha):
        # u orthogonal to every atom, and the empty measure: the point mass
        # at zero, whose CF is identically 1
        m = sc.SpectralMeasure(alpha, np.array([1.0, 2.0]), np.array([[1.0, 0, 0], [0, 1.0, 0]]))
        t = np.array([0.0, 0.5, 3.0, 1e6])
        for measure, u in [(m, [0.0, 0.0, 2.0]), (sc.empty_measure(alpha, 3), [1.0, 2.0, 3.0])]:
            u = np.array(u)
            assert scale_alpha(measure, u) == 0.0
            assert np.array_equal(sc.cf_multivariate(measure, t[:, None] * u), np.ones(4))
            assert sc.cf_multivariate(measure, [7.0 * u])[0] == 1.0

    def test_dimension_mismatch(self, rng):
        m = make_measure(rng)
        with pytest.raises(ValueError):
            sc.cf_multivariate(m, 2.0 * np.ones((1, m.dimension + 1)))

    def test_coordinate_projection_of_conditional_measure(self, rng):
        # sigma(u)^alpha at a coordinate direction must reproduce the
        # bias-plus-activated-patch sum; checked against a hand loop over atoms
        alpha, sigma_w, sigma_b, c = 1.5, 0.8, 0.6, 3
        cfg = toy_layer()
        prev = rng.standard_normal((c, 4, 2))
        act = sc.get_activation("tanh")
        measure = sc.gamma_conditional(prev, cfg, alpha, sigma_w, sigma_b, act)
        k = 2
        for flat_idx in [0, 3, 7]:
            u = np.zeros(cfg.n_positions_out * k)
            u[flat_idx] = 1.0
            sigma_a = scale_alpha(measure, u)
            brute = 0.0
            for w, s in zip(measure.weights, measure.directions):
                brute += 0.5 * w * abs(u @ s) ** alpha
                brute += 0.5 * w * abs(u @ -s) ** alpha
            assert sigma_a == pytest.approx(brute, rel=1e-12)
            patches = sc.patch_map_for(cfg).gather(
                prev.reshape(c, cfg.n_positions_in, k), axis=1
            )
            acts = act(patches.reshape(c * cfg.n_offsets, -1))
            direct = sigma_b**alpha + sigma_w**alpha / c * np.sum(
                np.abs(acts[:, flat_idx]) ** alpha
            )
            assert sigma_a == pytest.approx(direct, rel=1e-12)

    def test_projection_consistent_with_sampler(self, rng):
        m = make_measure(rng, dim=5, n_atoms=4, alpha=1.2)
        u = rng.standard_normal(5)
        sigma = scale_alpha(m, u) ** (1.0 / m.alpha)
        draws = sc.sample_multivariate(m, rng, size=60_000) @ u
        for t in [0.5 / sigma, 1.0 / sigma]:
            emp = np.exp(1j * t * draws).mean()
            assert abs(emp - sc.cf_multivariate(m, [t * u])[0]) < 0.02


class TestCompressMeasure:
    def test_identity_when_target_not_smaller(self, rng):
        m = make_measure(rng, n_atoms=5)
        assert sc.compress_measure(m, 5, rng) is m
        assert sc.compress_measure(m, 10, rng) is m

    def test_single_atom(self, rng):
        m = make_measure(rng, n_atoms=1)
        out = sc.compress_measure(m, 1, rng)
        assert out.total_mass == pytest.approx(m.total_mass)

    def test_mass_preserved(self, rng):
        m = make_measure(rng, n_atoms=500)
        out = sc.compress_measure(m, 50, rng)
        assert out.n_atoms == 50
        assert out.total_mass == pytest.approx(m.total_mass, rel=1e-12)

    def test_cf_preserved(self, rng):
        dirs = rng.standard_normal((10_000, 4))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        weights = rng.uniform(0.0001, 0.001, 10_000)
        m = sc.SpectralMeasure(1.5, weights, dirs)
        out = sc.compress_measure(m, 1000, rng)
        probes = rng.standard_normal((20, 4))
        assert (
            np.abs(
                sc.cf_multivariate(m, probes) - sc.cf_multivariate(out, probes)
            ).max()
            < 0.02
        )

    def test_stratified_mass_preserved(self, rng):
        m = make_measure(rng, n_atoms=500)
        gen = np.random.default_rng(9)
        state = gen.bit_generator.state
        out = sc.compress_measure(m, 50, gen)
        assert out.n_atoms == 50
        assert out.total_mass == pytest.approx(m.total_mass, rel=1e-12)
        # 50 independent uniforms, one for each slice of the cumulative weight
        gen.bit_generator.state = state
        points = (np.arange(50) + gen.uniform(size=50)) / 50 * m.total_mass
        cum = np.cumsum(m.weights)
        picked = [int(np.flatnonzero((m.directions == d).all(axis=1))[0]) for d in out.directions]
        assert np.all(cum[picked] >= points)
        assert np.all(np.concatenate([[0.0], cum])[picked] < points)

    def test_stratified_ignores_a_periodic_atom_order(self):
        # blocks of 3 atoms, one per direction, each block about one stride
        # heavy: a Monte Carlo layer's (sample, offset) atoms look like this
        n = 1_000
        gen = np.random.default_rng(0)
        weights = (gen.lognormal(0.0, 0.1, (n, 1)) * [0.3, 0.4, 0.3]).ravel()
        m = sc.SpectralMeasure(1.5, weights, np.eye(3)[np.tile(np.arange(3), n)])
        share = weights.reshape(n, 3).sum(axis=0) / weights.sum()
        multinomial_sd = np.sqrt(n * share * (1.0 - share))

        def systematic(rng):
            # one offset shared by every slice: the negative control
            cum = np.cumsum(weights)
            points = (np.arange(n) + rng.uniform()) / n * cum[-1]
            return m.directions[np.minimum(np.searchsorted(cum, points), m.n_atoms - 1)]

        def count_sd(resample):
            counts = [
                np.bincount(resample(np.random.default_rng(s)).argmax(axis=1), minlength=3)
                for s in range(200)
            ]
            return np.std(counts, axis=0) / multinomial_sd

        # one shared offset picks the same direction from long runs of blocks
        assert np.all(count_sd(systematic) > 2.0)
        assert np.all(count_sd(lambda rng: sc.compress_measure(m, n, rng).directions) < 1.25)

    def test_bad_target(self, rng):
        with pytest.raises(ValueError):
            sc.compress_measure(make_measure(rng), 0, rng)


class TestSerialization:
    def test_round_trip_exact(self, rng):
        m = make_measure(rng, bias=True)
        again = sc.load_measure(sc.dump_measure(m))
        assert again.alpha == m.alpha
        assert again.bias_index == m.bias_index
        assert np.array_equal(again.weights, m.weights)
        assert np.array_equal(again.directions, m.directions)

    def test_header_fields(self, rng):
        m = make_measure(rng, dim=3, n_atoms=2)
        header = sc.dump_measure(m).splitlines()[0]
        assert "dimension=3" in header
        assert "alpha=1.5" in header
        assert "total_mass=" in header

    def test_file_round_trip(self, rng, tmp_path):
        m = make_measure(rng)
        path = tmp_path / "measure.txt"
        sc.save_measure(m, path)
        again = sc.read_measure(path)
        assert np.array_equal(again.weights, m.weights)

    def test_failed_write_keeps_the_previous_file(self, rng, tmp_path, monkeypatch):
        # a write that raises part-way must leave the previous file, or no
        # file, at the path, and no partial file beside it
        m = make_measure(rng)
        old = tmp_path / "old.txt"
        sc.save_measure(m, old)
        before = old.read_bytes()

        def failing_text(measure):
            yield "dimension=4 alpha=1.5"
            raise OSError("disk full")

        monkeypatch.setattr(stable_module, "_measure_text", failing_text)
        for path in (old, tmp_path / "new.txt"):
            with pytest.raises(OSError, match="disk full"):
                sc.save_measure(m, path)
        assert old.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["old.txt"]

    def test_atom_lines_match_per_value_formatting(self, rng, tmp_path, monkeypatch):
        edge = sc.SpectralMeasure(
            1.5,
            [1e308, 1.0 / 3.0, 5e-324],
            [[1.0, -0.0, 5e-324], [1.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0], [-0.0, 1.0, 0.0]],
            bias_index=1,
        )
        big = make_measure(rng, dim=5, n_atoms=600, bias=True)
        whole = sc.dump_measure(big)
        # blocks of 7 atoms: 600 atoms span 86 of them, the last one short
        monkeypatch.setattr(stable_module, "_HEX_BLOCK_BYTES", 7 * 8 * 6)
        for m in (edge, big, sc.empty_measure(1.5, 3)):
            text = sc.dump_measure(m)
            expected = [
                "".join(struct.pack("<d", v).hex() for v in (w, *d))
                for w, d in zip(m.weights.tolist(), m.directions.tolist())
            ]
            assert text.splitlines()[1:] == expected
            sc.save_measure(m, tmp_path / "m.txt")
            assert (tmp_path / "m.txt").read_text() == text
            # read back bit for bit (-0 and subnormals included), and dumps again
            again = sc.read_measure(tmp_path / "m.txt")
            assert again.alpha == m.alpha
            assert again.weights.tobytes() == m.weights.tobytes()
            assert again.directions.tobytes() == m.directions.tobytes()
            assert again.directions.shape == m.directions.shape
            assert again.bias_index == m.bias_index
            assert sc.dump_measure(again) == text
        assert sc.dump_measure(big) == whole
        lines = sc.dump_measure(edge).splitlines()
        assert lines[0] == "format=f64le-hex dimension=3 alpha=1.5 total_mass=1e+308 bias_index=1"
        # 1e308, 1, -0, 5e-324 as little-endian float64
        assert lines[1].startswith("a0c8eb85f3cce17f" "000000000000f03f" "0000000000000080"
                                   "0100000000000000")

    @pytest.mark.parametrize("damage", [
        lambda text: text.rstrip("\n")[:-16] + "\n",
        lambda text: text.rstrip("\n")[:-1] + "\n",
        lambda text: text.replace("\n", "", 2).replace("\n", "\n\n", 1),
        lambda text: "\n".join(line[:32] + "\n" + line[32:] if i else line
                               for i, line in enumerate(text.split("\n"))),
        lambda text: text.partition("\n")[0] + "\n" + text.partition("\n")[2].upper(),
        lambda text: text + "00\n",
        lambda text: text + "\n",
        lambda text: text.rstrip("\n"),
        lambda text: text.replace("\n", "\r\n"),
        lambda text: text.replace("total_mass=", "total_mass=+", 1),
        lambda text: text.replace("format=f64le-hex ", "", 1),
        lambda text: text.replace("format=f64le-hex", "format=f64be-hex", 1),
        lambda text: decimal_measure_text(sc.load_measure(text)),
    ], ids=["cut_value", "cut_digit", "joined_lines", "rewrapped", "uppercase",
            "trailing_atom_bytes", "trailing_blank_line", "no_final_newline", "crlf",
            "signed_total", "no_format", "other_format", "decimal_text"])
    def test_non_canonical_text_refused(self, damage):
        text = sc.dump_measure(sc.SpectralMeasure(
            1.5, [0.5, 0.25, 1.0 / 3.0], [[1.0, 0.0], [0.6, 0.8], [-0.0, 1.0]], bias_index=1))
        assert sc.dump_measure(sc.load_measure(text)) == text
        with pytest.raises(ValueError):
            sc.load_measure(damage(text))

    def test_header_total_one_ulp_off_refused(self):
        m = sc.SpectralMeasure(1.5, [0.1, 0.2, 0.3], [[1.0], [1.0], [-1.0]])
        text = sc.dump_measure(m)
        for total in (np.nextafter(m.total_mass, 0.0), np.nextafter(m.total_mass, 1.0)):
            off = text.replace(f"total_mass={m.total_mass:.17g}", f"total_mass={total:.17g}")
            assert off != text
            with pytest.raises(ValueError, match="line 1 "):
                sc.load_measure(off)

    def test_refusal_names_the_file(self, rng, tmp_path):
        path = tmp_path / "layer_02.txt"
        path.write_text(decimal_measure_text(make_measure(rng)))
        with pytest.raises(ValueError, match="layer_02.txt: not a format=f64le-hex"):
            sc.read_measure(path)

    def test_corrupt_header_rejected(self):
        with pytest.raises(ValueError):
            sc.load_measure("")
        # a header that lacks a field, or holds a token without "=", is a
        # ValueError like any other malformed text
        atom = np.array([1.0, 1.0, 0.0]).tobytes().hex()
        for header in ("dimension=2 alpha=1.5", "x=1", "alpha=1.5 total_mass=1",
                       "dimension=2 alpha total_mass=1", "dimension=x alpha=1.5 total_mass=1",
                       "dimension=-2 alpha=1.5 total_mass=1"):
            with pytest.raises(ValueError):
                sc.load_measure(f"format=f64le-hex {header}\n{atom}\n")


class TestMeasureInvariants:
    @pytest.mark.parametrize("alpha", [0.0, -0.5, 2.5])
    def test_alpha_rejected(self, alpha):
        with pytest.raises(ValueError):
            sc.SpectralMeasure(alpha, [1.0], [[1.0]])
        with pytest.raises(ValueError):
            sc.sample_standard(alpha, 10, np.random.default_rng(0))

    def test_non_unit_direction_rejected(self):
        with pytest.raises(ValueError):
            sc.SpectralMeasure(1.5, np.array([1.0]), np.array([[1.0, 1.0]]))

    def test_non_positive_weight_rejected(self):
        with pytest.raises(ValueError):
            sc.SpectralMeasure(1.5, np.array([0.0]), np.array([[1.0, 0.0]]))
        # nor a negative one
        with pytest.raises(ValueError):
            sc.SpectralMeasure(1.5, np.array([-1.0]), np.array([[1.0]]))

    def test_bias_index_range(self):
        with pytest.raises(ValueError):
            sc.SpectralMeasure(1.5, np.array([1.0]), np.array([[1.0, 0.0]]), bias_index=3)

    @pytest.mark.parametrize("weight, direction", [
        (np.inf, [1.0, 0.0]),
        (np.nan, [1.0, 0.0]),
        (1.0, [np.nan, 0.0]),
        (1.0, [1.0, np.nan]),
        (1.0, [np.inf, 0.0]),
    ])
    def test_non_finite_atom_rejected(self, weight, direction):
        with pytest.raises(ValueError):
            sc.SpectralMeasure(1.5, np.array([weight]), np.array([direction]))

    # the header's total mass agrees with the atom line in each case
    @pytest.mark.parametrize("mass, line", [("1", "1 nan 0"), ("1", "1 0 nan"), ("inf", "inf 1 0")])
    def test_non_finite_atom_line_rejected(self, mass, line):
        atom = np.array(line.split(), dtype="<f8").tobytes().hex()
        with pytest.raises(ValueError, match="positive and finite|unit vectors"):
            sc.load_measure(f"format=f64le-hex dimension=2 alpha=1.5 total_mass={mass}\n{atom}\n")
