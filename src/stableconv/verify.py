"""Empirical characteristic-function verification of the limit laws.

Convergence of the finite-channel network to its limiting stable law is
checked in the only metric that is cheap on both sides: pointwise
characteristic functions over a finite probe set.  Probes are drawn
isotropically at radii f^(max(alpha, 1.5)/alpha), f in {0.25, 0.5, 1, 2},
times a base radius at which the theoretical CF of the median direction is
one half, so along it the CF is 2^(-f^max(alpha, 1.5)), 0.14 to 0.92 at any
alpha; a probe set is regenerated until it contains at least one clearly
small (< 0.2) and one clearly large (> 0.8) theoretical CF value, so the
comparison has power.  The zero probe is always included (both CFs are
exactly 1 there).  A :class:`ProbeSet` carries the theoretical CF at each
of its probes.  The independence and Gaussian oracle checks return the
``metric -> value`` rows the CLI writes to their CSV files.

The estimator mean_n exp(i <t, X_n>) has standard error about 1/sqrt(N) per
probe, which sets the tolerances used by the acceptance suite.  It is
computed as a sum of block sums (:func:`stableconv.stable.cf_block_sums`):
each block of samples gives one row of sum_n exp(i <t, X_n>) over the probes,
and the rows are summed in block order and divided by N, so no N x P array
is built.  A sweep point's blocks are its replica blocks, reduced inside the
replica jobs, so the process running the sweep holds no replica outputs; a
cached point reduces the cache over the same blocks and gets the same rows
bit for bit.  The values equal a whole-N mean to rounding, not bit for bit.

Every CF evaluation works in bounded blocks, so memory does not grow with
samples x probes or atoms x probes.  A CF block of :func:`_cf_rows` samples
is sized by its complex values, 16 bytes per sample and probe, so that they
fit in ``_BLOCK_BYTES``; :func:`~stableconv.stable.cf_block_sums` holds its
phases beside them, and for a joint CF one more product, 32 bytes per
sample and probe in all.  The independence check forms its channel mixture
one such block at a time.  The theoretical CF
(:func:`~stableconv.stable.cf_exponent`) takes the probes in blocks of
rows x atoms within ``_BLOCK_BYTES``, at least one probe per block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .limits import LimitConfig, limit_measures, stage
from .network import (
    NetworkSpec,
    RNG_DOMAIN_PROBES,
    ReplicaPool,
    ReplicaSet,
    channel_mixture,
    non_finite_rows,
    replica_block_size,
    replica_cf_sums,
    rng_stream,
)
from .stable import _BLOCK_BYTES, SpectralMeasure, cf_block_sums, cf_exponent, cf_multivariate
from .tensors import patch_map_for

RADIUS_FACTORS = (0.25, 0.5, 1.0, 2.0)
_MAX_PROBE_ATTEMPTS = 32
_ORACLE_SEED = 321


@dataclass(frozen=True)
class ProbeSet:
    """Flat probe vectors for CF comparison, row 0 the zero probe, and
    ``cf``, the CF at each probe of the law the set was calibrated on."""

    probes: np.ndarray
    cf: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probes, dtype=np.float64)
        cf = np.asarray(self.cf, dtype=np.float64)
        if p.ndim != 2 or not np.all(p[0] == 0.0):
            raise ValueError("probes must be (n, d) with a leading zero probe")
        if len(np.unique(p, axis=0)) != p.shape[0]:
            raise ValueError("probes must be deduplicated")
        if cf.shape != (p.shape[0],):
            raise ValueError(f"cf must have shape ({p.shape[0]},), got {cf.shape}")
        for name, arr in (("probes", p), ("cf", cf)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_probes(self) -> int:
        return self.probes.shape[0]


def generate_probes(measure: SpectralMeasure, n_probes: int = 20, seed: int = 0) -> ProbeSet:
    """Isotropic probes scaled to the law of ``measure``, with its CF at each.

    The base radius solves CF = 1/2 at the median random direction; the
    ``RADIUS_FACTORS``, raised to max(alpha, 1.5) / alpha, then spread
    probes across the informative range of the CF.  Up to
    ``_MAX_PROBE_ATTEMPTS`` probe sets are drawn.
    """
    if measure.n_atoms == 0:
        raise ValueError("cannot calibrate probes against an empty measure")
    d, alpha = measure.dimension, measure.alpha
    factors = np.asarray(RADIUS_FACTORS) ** (max(alpha, 1.5) / alpha)
    for attempt in range(_MAX_PROBE_ATTEMPTS):
        rng = rng_stream(seed, RNG_DOMAIN_PROBES, attempt)
        dirs = rng.standard_normal((n_probes, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        unit_expo = cf_exponent(measure, dirs)
        base = (np.log(2.0) / np.median(unit_expo)) ** (1.0 / alpha)
        radii = base * factors[np.arange(n_probes) % len(factors)]
        probes = np.vstack([np.zeros(d), dirs * radii[:, None]])
        cf = cf_multivariate(measure, probes)
        if (cf[1:].min() < 0.2 and cf[1:].max() > 0.8
                and len(np.unique(probes, axis=0)) == probes.shape[0]):
            return ProbeSet(probes, cf)
    raise RuntimeError("failed to generate a discriminative probe set")


def _cf_rows(n_probes: int) -> int:
    """Samples per block of the empirical CF sums: a block's rows x probes
    complex values stay within ``_BLOCK_BYTES``, its phases (and a joint
    CF's second product) within as much again."""
    return max(1, _BLOCK_BYTES // (16 * n_probes))


def empirical_cf(samples: np.ndarray, probes: np.ndarray) -> np.ndarray:
    """Empirical characteristic function of flat samples (N, d) at each
    probe of an (n, d) batch ``probes``.

    Returns mean_n exp(i <t, X_n>) as a complex array (n,): the sum of the
    :func:`~stableconv.stable.cf_block_sums` of blocks of samples, divided
    by N, so no N x P array is built.  The standard error of each entry is
    about 1/sqrt(len(samples)).
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2 or samples.shape[0] == 0:
        raise ValueError("samples must be a non-empty (N, d) array")
    t = np.asarray(probes, dtype=np.float64)
    if t.ndim != 2 or t.shape[1] != samples.shape[1]:
        raise ValueError(f"probes must be an (n, {samples.shape[1]}) array, got shape {t.shape}")
    return cf_block_sums([(samples, t)], _cf_rows(len(t))).sum(axis=0) / len(samples)


def cf_standard_error(n_samples: int) -> float:
    return 1.0 / np.sqrt(n_samples)


def cf_distance(empirical: np.ndarray, theoretical: np.ndarray) -> tuple[float, float]:
    """Sup and mean absolute CF difference over an aligned probe set."""
    emp = np.atleast_1d(np.asarray(empirical))
    theo = np.atleast_1d(np.asarray(theoretical))
    if emp.shape != theo.shape:
        raise ValueError("probe sets are misaligned")
    diff = np.abs(emp - theo)
    return float(diff.max()), float(diff.mean())


@dataclass(frozen=True)
class SweepRow:
    channels: int
    n_replicas: int
    mc_samples: int
    sup_cf_dist: float
    mean_cf_dist: float
    seconds: float

    def __post_init__(self):
        if not 0.0 <= self.sup_cf_dist <= 2.0 or not 0.0 <= self.mean_cf_dist <= 2.0:
            raise ValueError("CF distances must lie in [0, 2]")


CSV_HEADER = "C,n_replicas,M,sup_cf_dist,mean_cf_dist,seconds"


class NonFiniteReplicas(ArithmeticError):
    """Replica outputs of a sweep point hold an infinite or NaN value, so
    they have no CF distance: at small alpha the stable weight draws can
    exceed the float64 range."""


def require_finite(bad: int, n: int, channels: int, alpha: float) -> None:
    """Raise :class:`NonFiniteReplicas` if ``bad`` of ``n`` replicas at
    C = ``channels`` hold an infinite or NaN value
    (:func:`stableconv.network.non_finite_rows`); the message names the
    count, C and alpha."""
    if bad:
        raise NonFiniteReplicas(
            f"{bad} of {n} replicas at C = {channels} have non-finite outputs "
            f"(alpha = {alpha:g})"
        )


@dataclass
class ConvergenceReport:
    """Sweep results over increasing channel counts."""

    rows: list[SweepRow]

    def to_csv(self, timing: bool = False) -> str:
        """Render the frozen CSV schema.

        Wall-clock values are nondeterministic, so by default the seconds
        column is written as 0.000 and measured times stay in the in-memory
        rows and the run log; pass timing=True to write them out (this gives
        up byte-identical re-runs).
        """
        lines = [CSV_HEADER]
        for r in self.rows:
            secs = r.seconds if timing else 0.0
            lines.append(
                f"{r.channels},{r.n_replicas},{r.mc_samples},"
                f"{r.sup_cf_dist:.12g},{r.mean_cf_dist:.12g},{secs:.3f}"
            )
        return "\n".join(lines) + "\n"


def sampled_counts(channel_counts, n_replicas: int, caches: dict[int, ReplicaSet]) -> list[int]:
    """The channel counts a sweep samples: those with no replica set in
    ``caches`` holding at least ``n_replicas`` replicas."""
    return [c for c in channel_counts if c not in caches or caches[c].n_replicas < n_replicas]


def convergence_sweep(
    spec: NetworkSpec,
    channel_counts,
    n_replicas: int,
    limit_cfg: LimitConfig,
    probes: ProbeSet | None = None,
    n_probes: int = 20,
    pool: ReplicaPool | None = None,
    caches: dict[int, ReplicaSet] | None = None,
) -> ConvergenceReport:
    """Empirical-vs-limit CF distances for each channel count.

    Every channel count contributes one row with the sup and mean CF
    distance of its replica estimate against ``probes.cf``, the CF of the
    law the probes were calibrated on.  Without ``probes``, the limiting
    measure of the last layer is computed once and ``n_probes`` probes are
    calibrated on it.  Sweep points run one after another, which bounds
    memory; a ``pool`` (:func:`stableconv.network.replica_pool`) runs the
    replica blocks of every point that samples, in the same workers.

    A point that samples never holds its replicas: each replica job reduces
    its blocks to one row of CF sums per replica block
    (:func:`stableconv.network.replica_cf_sums`), and the point's empirical
    CF is those rows summed in block order, divided by N.  ``caches`` maps a
    channel count to replicas of ``spec`` at that count, e.g. a
    ``simulate`` cache.  A count whose set holds at least ``n_replicas``
    replicas reduces channel 0 of its first ``n_replicas`` over the same
    blocks instead of sampling.  Those are bit for bit the replicas sampling
    would draw (see :mod:`stableconv.network`), so the rows are the sampled
    rows, and the sweep depends neither on the caches nor on the worker
    count.  Each point logs a ``stage=sweep`` line
    (:func:`stableconv.limits.stage`) with ``source=cache`` or the ``block``
    size it sampled in, and its sup and mean distances; its ``seconds`` are
    the row's.  A point whose replicas hold a non-finite output raises
    :class:`NonFiniteReplicas`.
    """
    counts = [int(c) for c in channel_counts]
    if any(b <= a for a, b in zip(counts, counts[1:])) or not counts:
        raise ValueError("channel counts must be strictly increasing")
    if probes is None:
        probes = generate_probes(limit_measures(spec, limit_cfg)[-1], n_probes, spec.seed)
    caches = caches or {}
    sampled = sampled_counts(counts, n_replicas, caches)
    rows = []
    for c in counts:
        spec_c = spec.with_channels(c)
        size = replica_block_size(spec_c)
        source = {"block": size} if c in sampled else {"source": "cache"}
        with stage("sweep", C=c, replicas=n_replicas, **source) as fields:
            if c in sampled:
                sums, bad = replica_cf_sums(spec_c, n_replicas, probes.probes, pool=pool)
                require_finite(bad, n_replicas, c, spec.alpha)
            else:
                channel0 = caches[c].outputs[:n_replicas, 0]
                require_finite(non_finite_rows(channel0), n_replicas, c, spec.alpha)
                # over the replica jobs' blocks, so the rows are theirs
                sums = cf_block_sums([(channel0, probes.probes)], size)
            emp = sums.sum(axis=0) / n_replicas
            fields["sup"], fields["mean"] = cf_distance(emp, probes.cf)
        rows.append(
            SweepRow(
                channels=c,
                n_replicas=n_replicas,
                mc_samples=limit_cfg.mc_samples,
                sup_cf_dist=fields["sup"],
                mean_cf_dist=fields["mean"],
                seconds=fields["seconds"],
            )
        )
    return ConvergenceReport(rows=rows)


def cross_factorization_defect(
    samples_a: np.ndarray,
    samples_b: np.ndarray,
    probes_a: np.ndarray,
    probes_b: np.ndarray,
) -> np.ndarray:
    """|joint CF - product of marginal CFs| at each probe pair.

    Vanishing defects (up to estimator noise) are what independence of the
    two sample streams looks like through characteristic functions.
    """
    if samples_a.shape != samples_b.shape:
        raise ValueError("paired samples required")
    if probes_a.shape != probes_b.shape:
        raise ValueError("probe pairs are misaligned")
    rows, n = _cf_rows(len(probes_a)), len(samples_a)

    def cf(*terms):
        return cf_block_sums(list(terms), rows).sum(axis=0) / n

    pair_a, pair_b = (samples_a, probes_a), (samples_b, probes_b)
    return np.abs(cf(pair_a, pair_b) - cf(pair_a) * cf(pair_b))


def independence_check(
    outputs: np.ndarray,
    biases: np.ndarray,
    z,
    probes_a: ProbeSet,
    probes_b: ProbeSet,
    mixture_probes: ProbeSet,
) -> dict[str, float]:
    """Two-channel independence diagnostics against the joint limit law.

    ``outputs`` is a replica batch (N, 2, d) of the same network; the check
    returns the rows of ``independence.csv`` as metric -> value: (i) the
    largest cross-factorization defect of the two channels over the probe
    pairs of ``probes_a`` and ``probes_b``, and of the dependent pairing
    (channel 1 against itself) as a negative control, and (ii) the sup and
    mean CF distance between the bias-stripped channel mixture with weights
    z and ``mixture_probes.cf``, which is calibrated on the mixture form of
    the limit law (:func:`stableconv.limits.mixture_measure`).  The defect
    at the pair of zero probes is exactly 0.

    The mixture is formed one CF block of :func:`_cf_rows` replicas at a
    time, each block reduced to its row of CF sums before the next is
    formed, so no whole mixture and no (N, 2, d) bias-stripped copy is
    held; the rows, and so the distances, are those of
    :func:`empirical_cf` on the whole mixture bit for bit.
    """
    outputs = np.asarray(outputs, dtype=np.float64)
    if outputs.ndim != 3 or outputs.shape[1] < 2:
        raise ValueError("need paired channel outputs (N, 2, d)")
    f1 = outputs[:, 0, :]
    f2 = outputs[:, 1, :]
    defects = cross_factorization_defect(f1, f2, probes_a.probes, probes_b.probes)
    control = cross_factorization_defect(f1, f1, probes_a.probes, probes_b.probes)
    n, rows, t = len(outputs), _cf_rows(mixture_probes.n_probes), mixture_probes.probes
    sums = np.concatenate([
        cf_block_sums([(channel_mixture(outputs[s : s + rows], z, biases[s : s + rows]), t)], rows)
        for s in range(0, n, rows)
    ])
    sup, mean = cf_distance(sums.sum(axis=0) / n, mixture_probes.cf)
    return dict(max_factorization_defect=float(defects.max()),
                max_control_defect=float(control.max()),
                mixture_sup_dist=sup, mixture_mean_dist=mean)


def implied_covariance(measure: SpectralMeasure) -> np.ndarray:
    """Covariance of the Gaussian law a spectral measure describes at
    alpha = 2: twice the weighted sum of direction outer products."""
    if measure.alpha != 2.0:
        raise ValueError("covariance is only defined at alpha = 2")
    return 2.0 * (measure.directions.T * measure.weights) @ measure.directions


def gaussian_kernel_recursion(
    spec: NetworkSpec, mc_samples: int, rng: np.random.Generator
) -> np.ndarray:
    """Direct Gaussian covariance recursion for alpha = 2 networks.

    One loop over the layers: each maps its fields to the covariance
    2 sigma_b^2 11^T + scale * S^T S of their patch slices S.  Layer 1 is
    exact and draws nothing: its fields are the input channels, not
    activated, at scale 2 sigma_w^2.  Each deeper layer draws
    ``mc_samples`` = M Gaussian fields with the previous covariance from
    ``rng`` and slices their activated patches, at scale 2 sigma_w^2 / M.
    The fields come in row blocks whose slices fit in ``_BLOCK_BYTES``, and
    each block's S^T S is added into one sum, so memory is one block of
    draws, fields and slices plus the dim x dim matrices, at any M.
    This path never touches the spectral-measure machinery; it stays apart
    from :func:`stableconv.limits._slice_measure`, which it checks.
    """
    if spec.alpha != 2.0:
        raise ValueError("the Gaussian recursion requires alpha = 2")
    k = spec.n_inputs
    cov = None
    for cfg in spec.layers:
        dim = cfg.n_positions_out * k
        if cov is None:
            blocks, phi, scale = [spec.inputs], None, 2.0 * spec.sigma_w**2
        else:
            evals, evecs = np.linalg.eigh(cov)
            root = np.sqrt(np.clip(evals, 0.0, None))
            rows = max(1, _BLOCK_BYTES // (8 * cfg.n_offsets * dim))
            # one block's normals after another are one (M, d) draw
            blocks = ((rng.standard_normal((min(rows, mc_samples - s), len(cov))) * root) @ evecs.T
                      for s in range(0, mc_samples, rows))
            phi, scale = spec.activation, 2.0 * spec.sigma_w**2 / mc_samples
        gram = np.zeros((dim, dim))
        for fields in blocks:
            fields = fields.reshape(len(fields), cfg.n_positions_in, k)
            slices = patch_map_for(cfg).gather(fields, axis=1)
            # zeros are gathered and then activated, so the padding reads
            # phi(0) apart from PatchMap.slab's fill
            slices = (slices if phi is None else phi(slices)).reshape(-1, dim)
            gram += slices.T @ slices
        cov = 2.0 * spec.sigma_b**2 * np.ones((dim, dim)) + scale * gram
    return cov


def gaussian_oracle_check(spec: NetworkSpec, limit_cfg: LimitConfig) -> dict[str, float]:
    """The rows of ``oracle.csv`` as metric -> value: the largest relative
    error on the diagonal and absolute error off it of the covariance
    implied by the alpha = 2 limit measure, against an independent Gaussian
    Monte Carlo covariance recursion, which draws from its own fixed seed
    ``_ORACLE_SEED``, apart from every configured stream."""
    if spec.alpha != 2.0:
        raise ValueError("the Gaussian oracle applies only at alpha = 2")
    implied = implied_covariance(limit_measures(spec, limit_cfg)[-1])
    direct = gaussian_kernel_recursion(
        spec, limit_cfg.mc_samples, np.random.default_rng(_ORACLE_SEED)
    )
    diag_i = np.diag(implied)
    diag_d = np.diag(direct)
    # a position of variance exactly 0 (sigma_b = 0 over an input that is 0
    # there) leaves both diagonals at rounding noise: the floor keeps their
    # ratio from reading as an error
    floor = 1e-12 * np.abs(diag_d).max()
    rel = np.abs(diag_i - diag_d) / np.maximum(np.abs(diag_d), floor)
    off = ~np.eye(implied.shape[0], dtype=bool)
    off_err = np.abs(implied - direct)[off].max() if off.any() else 0.0
    return dict(max_diag_rel_err=float(rel.max()), max_offdiag_abs_err=float(off_err))
