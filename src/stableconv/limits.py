"""Spectral measures of the infinite-channel limit law, layer by layer.

A single output channel of the network converges, as the hidden channel
count grows, to a symmetric multivariate stable law over (positions x
inputs).  Its spectral measure obeys a backward recursion over layers:

* layer 1 is exact and deterministic: one atom pair for the bias direction
  plus one pair per (input channel, filter offset) patch slice of the data;
* conditioned on a realization of the previous layer's C channels, deeper
  layers are again exactly stable, with one atom pair per (channel, offset)
  activated patch slice at weight 1/C each;
* the unconditional limit integrates activated patch slices of a field drawn
  from the previous layer's limit law.  That integral is estimated here by
  Monte Carlo: each sample draws one full field and slices every filter
  offset from it.  Each offset's term depends only on the marginal law of
  its own slice, so slicing the offsets from separate draws would give the
  same expected measure; sharing one draw changes only the Monte Carlo
  variance, and costs one field draw per sample instead of one per offset.

The previous layer's Monte Carlo measure has M * n_offsets + 1 atoms, so
drawing M fields from it as it is would cost M * (M * n_offsets + 1) stable
draws.  The M fields (the ``mc_samples`` budget) are instead drawn in
G = min(10, M) contiguous groups of as equal size as M allows, and each
group draws its fields from its own resample of the measure by stratified
:func:`stableconv.stable.compress_measure`: the exact bias atom first,
unchanged, then the other atoms resampled to K = ceil(M / G), keeping
their total mass and their expected measure, i.e. the expected CF
exponent.  A layer costs M * (K + 1) draws that way, about M^2 / 10.
Each group's fields follow the mixture over resamples of their stable
laws, whose CF is the mean of exp(-exponent) over resamples, not the exp
of the mean exponent: a bias of O(1/K) = O(G/M) in the CF, too small to
detect against full-measure draws over 64 limit seeds at M = 300.  The
G resamples are independent, so their errors average over the groups and
add O(1/M) variance to the CF, as the layer's own Monte Carlo error
does; one resample to K shared by all M fields would not average and
widens the seed spread of the CF about twofold.  Stratified rather than
systematic: the atoms come in blocks of n_offsets, one per sample, each
about one resampling stride heavy, and one offset shared by every stride
would pick the same filter offset from long runs of consecutive blocks.
A measure with at most K non-bias atoms (layer 1's, for one, and every
alpha = 2 measure of at most K eigen-atoms) gives all M fields in one
draw, as it is, and consumes no random numbers on resampling.  Only the
measure that fields are drawn from is resampled; every layer's own
measure keeps all its atoms unless ``atom_cap`` is set, which resamples
them the same way.

Zero slices contribute no atom.  All atom weights use the Euclidean norm of
the flattened slice raised to the alpha power; directions are the
Euclidean-normalized slices.  The slices come from ``PatchMap.slab``, as
the finite network's patches do: a hidden layer's fields are activated
first, with phi(0) in the padding slots, since the next convolution sees
the zero padding through the activation.

At the Gaussian endpoint alpha = 2 the CF exponent sum_j w_j <t, s_j>^2 of
any measure is t^T S t with S = sum_j w_j s_j s_j^T.  So a layer with more
nonzero slices than its dimension ``dim`` keeps the eigen-atoms of S
instead of one atom per slice: one per positive eigenvalue, at most
``dim``.  This reduction is exact, not Monte Carlo: both sets of atoms have
the same CF up to rounding.  Drawing M fields from such a Monte Carlo
layer costs at most M * (min(dim, K) + 1) draws, and with dim <= K it is
drawn as it is.

One builder, :func:`_slice_measure`, makes every layer: layer 1 from the
data, a conditional layer from a realization's activated fields at weight
1/C, and a Monte Carlo layer is exactly the conditional law of the M fields
:func:`_draw_fields` draws.  It goes over the fields once, by row blocks of
their slab of at most 1 MiB, and writes each block's atoms straight into
the measure, bias atom first; at alpha = 2 it also sums the blocks' Gram
for the eigen-atoms.  So it holds the fields, the measure and one block,
never the whole slab.  A position readout sum_p u_p X_p is again stable,
with the image of the last layer's measure as its spectral measure
(Samorodnitsky & Taqqu 1994, ch. 2); :func:`readout_measure` maps it
exactly, with no draws, and reduces it at alpha = 2 through the same
:func:`_eigen_atoms`.  The closed-form characteristic functions
(``cf_layer1_closed_form`` and ``cf_conditional_closed_form``) evaluate the
first-layer and conditional laws by one product formula with its own index
arithmetic; they share no code with the builder and are its exact oracles.
"""

from __future__ import annotations

import logging
import resource
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .network import NetworkSpec, RNG_DOMAIN_LIMIT, ActivationSpec, rng_stream
from .stable import (
    _BLOCK_BYTES,
    SpectralMeasure,
    _CoefficientScratch,
    _coefficient_rows,
    _compressed_size,
    compress_measure,
    empty_measure,
    sample_multivariate,
)
from .tensors import ConvLayerConfig, patch_map_for

_stage_log = logging.getLogger("stableconv.stage")


@dataclass(frozen=True)
class LimitConfig:
    """Monte Carlo budget of the layer recursion.

    ``mc_samples`` = M fields are drawn per layer from the previous
    measure, in G = min(10, M) groups when it has more than
    K = ceil(M / G) non-bias atoms, each group from its own resample of
    those atoms to K (see :func:`_draw_fields`); the groups add an O(G/M) bias
    to the CF.  ``atom_cap``, when set, resamples each Monte Carlo
    layer's own non-bias atoms to at most that many, by the same
    :func:`stableconv.stable.compress_measure`, which keeps the bias atom
    exactly and first; None keeps all of a layer's at most
    mc_samples * n_offsets Monte Carlo atoms (at most its dimension at
    alpha = 2, see :func:`_slice_measure`).
    """

    mc_samples: int = 10_000
    atom_cap: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.mc_samples < 1:
            raise ValueError("mc_samples must be >= 1")
        if self.atom_cap is not None and self.atom_cap < 1:
            raise ValueError("atom_cap must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


_FIELD_GROUPS = 10


def _field_groups(source: SpectralMeasure, n_draws: int) -> list[int]:
    """The field count of each group in which :func:`_draw_fields` draws
    ``n_draws`` = M fields from ``source``, in draw order.

    The split depends on M alone: G = min(_FIELD_GROUPS, M) contiguous
    groups, the first M mod G of them one field larger, so the largest
    holds K = ceil(M / G) fields and each group resamples to K atoms.  A
    measure with at most K non-bias atoms is drawn in one group of M."""
    n_groups = min(_FIELD_GROUPS, n_draws)
    size, extra = divmod(n_draws, n_groups)
    groups = [size + 1] * extra + [size] * (n_groups - extra)
    if _compressed_size(source, groups[0]) == source.n_atoms:
        return [n_draws]
    return groups


def _draw_fields(measure: SpectralMeasure, cfg: ConvLayerConfig, n_draws: int, rng) -> np.ndarray:
    """``n_draws`` = M fields drawn with ``rng`` from the previous layer's
    limit ``measure``, as (M, *input spatial, inputs).

    The fields come in the groups of :func:`_field_groups`, in order: each
    group resamples the measure's non-bias atoms to K = ceil(M / min(10, M))
    by :func:`stableconv.stable.compress_measure`, which keeps the bias atom
    exactly and first, then draws its own fields from that resample.
    Independent resamples per group keep the CF's spread that of one
    resample to M, at a bias of O(1/K) (see the module docstring).  The
    groups draw into one (M, dimension) output, through one coefficient
    block and CMS scratch (:class:`stableconv.stable._CoefficientScratch`),
    which change no value.  A measure with at most K non-bias atoms gives
    all M fields in one :func:`stableconv.stable.sample_multivariate` call
    and spends no random numbers on resampling.  The measure is checked
    against the layer's input positions before anything is drawn.
    """
    n_in = cfg.n_positions_in
    if measure.n_atoms == 0:
        raise ValueError("previous layer's measure is empty")
    if measure.dimension % n_in != 0:
        raise ValueError(
            f"measure dimension {measure.dimension} is not a multiple of "
            f"the layer's {n_in} input positions"
        )
    groups = _field_groups(measure, n_draws)
    draws = np.empty((n_draws, measure.dimension))
    scratch, start = None, 0
    for size in groups:
        # compress_measure is looked up in this module on every call, so a
        # tracer or a test that rebinds it here sees each group's resample
        source = compress_measure(measure, groups[0], rng)
        # every group's resample has one atom count, so all groups draw
        # through one coefficient block and CMS scratch; a rebound
        # compress_measure that returns another count gets its own
        if scratch is None or scratch.block.shape[1] != source.n_atoms:
            rows = min(_coefficient_rows(source.n_atoms), groups[0])
            scratch = _CoefficientScratch(source.alpha, source.n_atoms, rows)
        sample_multivariate(source, rng, size=size, out=draws[start : start + size],
                            scratch=scratch)
        start += size
    return draws.reshape(n_draws, *cfg.spatial_in, measure.dimension // n_in)


def _slice_measure(
    fields: np.ndarray,
    cfg: ConvLayerConfig,
    alpha: float,
    sigma_w: float,
    sigma_b: float,
    activation: ActivationSpec | None = None,
) -> SpectralMeasure:
    """A layer's spectral measure from the patch slices of n ``fields``,
    given with (field, *input spatial, input) axes.

    Its slices are the rows of ``PatchMap.slab`` of the fields, activated
    with phi(0) in the padding slots when ``activation`` is given (hidden
    layers).  The exact bias atom, sigma_b^alpha * dim^(alpha/2) along the
    all-ones direction, goes first.  Then each nonzero slice v carries one
    atom pair of weight sigma_w^alpha * ||v||^alpha, divided by n on hidden
    layers, at direction v / ||v||, in row order.  At alpha = 2 more than
    ``dim`` nonzero slices give instead the eigen-atoms of
    S = sigma_w^2 sum_v v v^T (:func:`_eigen_atoms`).

    The fields are slabbed by blocks whose slab fits in ``_BLOCK_BYTES``,
    into one buffer, and each block's atoms are written straight into the
    measure's arrays, so the slab of all the fields is never held.  At
    alpha = 2 those arrays have room for ``dim`` slice atoms only, and each
    block's Gram is added into one sum.  Zero slices leave the arrays short;
    the measure keeps their leading rows.
    """
    fields = np.asarray(fields, dtype=np.float64)
    if fields.shape[1:-1] != cfg.spatial_in:
        raise ValueError("fields must have (channel, *spatial, input) axes matching the layer")
    n, n_off = fields.shape[0], cfg.n_offsets
    fields = fields.reshape(n, cfg.n_positions_in, fields.shape[-1])
    dim = cfg.n_positions_out * fields.shape[-1]
    n_div = 1 if activation is None else n
    n_bias = 0 if sigma_b == 0.0 else 1
    room = n_bias + (min(n * n_off, dim) if alpha == 2.0 else n * n_off)
    weights, directions = np.empty(room), np.empty((room, dim))
    weights[:n_bias] = sigma_b**alpha * dim ** (alpha / 2.0)
    directions[:n_bias] = 1.0 / np.sqrt(dim)
    gram = np.zeros((dim, dim))
    pmap = patch_map_for(cfg)
    per_block = max(1, _BLOCK_BYTES // (8 * dim * n_off))
    buffer = np.empty((min(per_block, n) * n_off, dim))
    end = n_bias
    for start in range(0, n, per_block):
        block = fields[start : start + per_block]
        blk = pmap.slab(block, activation, out=buffer[: len(block) * n_off])
        norms = np.linalg.norm(blk, axis=1)
        w = sigma_w**alpha * norms**alpha
        keep = np.flatnonzero(w > 0.0)
        if alpha == 2.0:
            gram += blk.T @ blk
        if end + len(keep) <= room:
            # a block of nonzero slices only, the usual case, is read in place
            rows = slice(None) if len(keep) == len(w) else keep
            np.divide(w[rows], n_div, out=weights[end : end + len(keep)])
            np.divide(blk[rows], norms[rows, None], out=directions[end : end + len(keep)])
        end += len(keep)
    if end > room:
        rows, w = _eigen_atoms(gram, sigma_w**2)
        keep = np.flatnonzero(w > 0.0)
        end = n_bias + len(keep)
        weights[n_bias:end] = w[keep] / n_div
        directions[n_bias:end] = rows[keep]
    return SpectralMeasure(alpha, weights[:end], directions[:end],
                           bias_index=0 if n_bias else None)


def _eigen_atoms(gram: np.ndarray, scale: float):
    """Directions and weights of the eigen-atoms of S = ``scale`` * ``gram``:
    S's unit eigenvectors, each weighted by its eigenvalue, so that
    sum_j weights[j] rows[j] rows[j]^T = S.  Every alpha = 2 reduction of
    this module, of a layer or of a readout, goes through it."""
    evals, evecs = np.linalg.eigh(gram)
    return evecs.T, scale * evals


def gamma_first(
    x: np.ndarray, cfg: ConvLayerConfig, alpha: float, sigma_w: float, sigma_b: float
) -> SpectralMeasure:
    """Exact spectral measure of a first-layer output channel, jointly over
    output positions and inputs.

    One atom pair carries the bias direction; one pair per (input channel,
    filter offset) carries the normalized patch slice of the data, weighted
    by sigma_w^alpha times its norm to the alpha.  Deterministic.
    """
    return _slice_measure(x, cfg, alpha, sigma_w, sigma_b)


def _patch_value(x: np.ndarray, cfg: ConvLayerConfig, c, p_multi, g_multi, k):
    """Naive single-entry patch lookup used by the closed-form oracles."""
    coords = []
    for p_i, g_i, stride, pad, extent in zip(
        p_multi, g_multi, cfg.stride, cfg.padding, cfg.spatial_in
    ):
        i = p_i * stride - pad + g_i
        if i < 0 or i >= extent:
            return 0.0
        coords.append(i)
    return float(x[(c, *coords, k)])


def _oracle_slices(x: np.ndarray, cfg: ConvLayerConfig):
    """All (channel, offset) patch slices via direct index loops.

    Written independently of PatchMap on purpose: this is the oracle path.
    Yields flat slices over (positions, inputs), position-major.
    """
    c0 = x.shape[0]
    k = x.shape[-1]
    positions = list(np.ndindex(*cfg.spatial_out))
    offsets = list(np.ndindex(*cfg.filter_shape))
    for c in range(c0):
        for g in offsets:
            vec = np.empty(len(positions) * k)
            j = 0
            for p in positions:
                for kk in range(k):
                    vec[j] = _patch_value(x, cfg, c, p, g, kk)
                    j += 1
            yield vec


def _closed_form_cf(x, cfg: ConvLayerConfig, alpha, weight, sigma_b, t, activation=None):
    """exp(-sigma_b^alpha |sum t|^alpha - weight * sum_v |<t, phi(v)>|^alpha)
    over the :func:`_oracle_slices` v of ``x``, phi the ``activation`` or
    none, at one flat probe ``t`` (a float) or a batch of them (an array)."""
    arr = np.asarray(t, dtype=np.float64)
    single = arr.ndim == 1
    probes = np.atleast_2d(arr)
    dim = cfg.n_positions_out * x.shape[-1]
    if probes.shape[1] != dim:
        raise ValueError(f"probe dimension {probes.shape[1]} != {dim}")
    expo = sigma_b**alpha * np.abs(probes.sum(axis=1)) ** alpha
    for vec in _oracle_slices(x, cfg):
        if activation is not None:
            vec = activation(vec)
        expo = expo + weight * np.abs(probes @ vec) ** alpha
    out = np.exp(-expo)
    return float(out[0]) if single else out


def cf_layer1_closed_form(
    x: np.ndarray, cfg: ConvLayerConfig, alpha: float, sigma_w: float, sigma_b: float, t
):
    """Product-form characteristic function of a first-layer channel,
    evaluated directly from the data without building a measure.

    Serves as the exact oracle for :func:`gamma_first`.  ``t`` is one flat
    probe (positions*K,) or a batch (n, positions*K).
    """
    return _closed_form_cf(x, cfg, alpha, sigma_w**alpha, sigma_b, t)


def gamma_conditional(
    prev: np.ndarray,
    cfg: ConvLayerConfig,
    alpha: float,
    sigma_w: float,
    sigma_b: float,
    activation: ActivationSpec,
) -> SpectralMeasure:
    """Exact spectral measure of a deeper-layer channel conditioned on a
    realization of the previous layer's C channels.

    Same structure as the first layer with data replaced by activated patch
    slices of the realization and each slice weight divided by C.
    """
    return _slice_measure(prev, cfg, alpha, sigma_w, sigma_b, activation)


def cf_conditional_closed_form(
    prev: np.ndarray, cfg: ConvLayerConfig, alpha: float, sigma_w: float, sigma_b: float,
    activation: ActivationSpec, t,
):
    """Product-form conditional characteristic function; exact oracle for
    :func:`gamma_conditional`, again with its own index arithmetic."""
    return _closed_form_cf(prev, cfg, alpha, sigma_w**alpha / prev.shape[0], sigma_b, t,
                           activation)


def gamma_next_mc(
    prev_measure: SpectralMeasure,
    cfg: ConvLayerConfig,
    alpha: float,
    sigma_w: float,
    sigma_b: float,
    activation: ActivationSpec,
    limit_cfg: LimitConfig,
    rng: np.random.Generator,
) -> SpectralMeasure:
    """Monte Carlo estimate of the next layer's limiting spectral measure:
    the conditional law (:func:`gamma_conditional`) of M fields drawn from
    the previous layer's limit law, so the bias atom is exact and each
    (field, offset) activated slice carries sigma_w^alpha ||slice||^alpha / M.
    The fields come in min(10, M) groups, each from its own resample of the
    non-bias atoms to K = ceil(M / min(10, M)) when there are more than K
    (:func:`_draw_fields`): O(1/K) bias and O(1/M) variance in the CF.
    ``atom_cap`` then resamples the result with the same generator.
    """
    fields = _draw_fields(prev_measure, cfg, limit_cfg.mc_samples, rng)
    measure = gamma_conditional(fields, cfg, alpha, sigma_w, sigma_b, activation)
    cap = limit_cfg.atom_cap
    return measure if cap is None else compress_measure(measure, cap, rng)


def mixture_measure(base: SpectralMeasure, z) -> SpectralMeasure:
    """Spectral measure of a bias-stripped channel mixture with weights z.

    Drops the tagged bias atom and multiplies the remaining weights by
    sum_c |z_c|^alpha.  A base measure with no bias atom (sigma_b = 0,
    where the biases are exactly 0) keeps every atom.  With the bias atom
    first, as every builder of this module puts it, or absent, the mixture
    shares the base's directions instead of copying them.
    """
    alpha = base.alpha
    z_norm = float(np.sum(np.abs(np.asarray(z, dtype=np.float64)) ** alpha))
    if z_norm == 0.0:
        return empty_measure(alpha, base.dimension)
    b = base.bias_index
    keep = slice(0 if b is None else 1, None) if b in (None, 0) else np.arange(base.n_atoms) != b
    return SpectralMeasure(alpha, base.weights[keep] * z_norm, base.directions[keep])


def readout_measure(measure: SpectralMeasure, u) -> SpectralMeasure:
    """Spectral measure over the K inputs of the readout sum_p u_p X_p of a
    law over (positions x K inputs) with spectral measure ``measure``; the
    entries of u must sum to 1.

    The readout is A X with A = u^T (x) I_K over the position-major layout,
    so its law is the exact image of the measure: atom (w, s) becomes
    (w * ||A s||^alpha, A s / ||A s||), and atoms with A s = 0 drop out.
    The bias atom lies along the all-ones direction, whose image is the
    all-ones direction over the inputs since u sums to 1; it goes first
    with its tag.  At alpha = 2 more than K other images reduce to their
    eigen-atoms (:func:`_eigen_atoms`).  Nothing is drawn.
    """
    u = np.asarray(u, dtype=np.float64).reshape(-1)
    if abs(u.sum() - 1.0) > 1e-12:
        raise ValueError("u must contract the all-ones position tensor to 1")
    if measure.dimension % len(u) != 0:
        raise ValueError(f"measure dimension {measure.dimension} is not a multiple of len(u)")
    alpha, b = measure.alpha, measure.bias_index
    image = np.einsum("p,jpk->jk", u, measure.directions.reshape(measure.n_atoms, len(u), -1))
    norms = np.linalg.norm(image, axis=1)
    weights = measure.weights * norms**alpha
    bias = [] if b is None else [weights[b]]
    rest = np.arange(measure.n_atoms) != b
    # rows scaled by sqrt(w) keep their directions and make rows^T rows the
    # S = sum_j w_j (A s_j)(A s_j)^T of the alpha = 2 reduction
    root = np.sqrt(measure.weights[rest])
    rows, norms, weights = image[rest] * root[:, None], norms[rest] * root, weights[rest]
    keep = weights > 0.0
    k = image.shape[1]
    if alpha == 2.0 and np.count_nonzero(keep) > k:
        rows, weights = _eigen_atoms(rows.T @ rows, 1.0)
        keep = weights > 0.0
        directions = rows[keep]
    else:
        directions = rows[keep] / norms[keep, None]
    return SpectralMeasure(
        alpha, np.concatenate([bias, weights[keep]]),
        np.vstack([np.full((len(bias), k), 1.0 / np.sqrt(k)), directions]),
        bias_index=None if b is None else 0,
    )


def limit_measures(spec: NetworkSpec, limit_cfg: LimitConfig) -> list[SpectralMeasure]:
    """Propagate the limiting spectral measure through every layer.

    Layer 1 is exact; each deeper layer draws its Monte Carlo fields from a
    dedicated substream of the configured seed, so any single layer can be
    replayed with :func:`gamma_next_mc`.  Returns one measure per layer, each
    with all its atoms, and logs one ``stage=layer`` line each
    (:func:`stage`) with its ``atoms``, ``total_mass`` and ``bias_mass``.  A
    Monte Carlo layer's line also gives ``groups``, the number of field
    groups (:func:`_field_groups`), ``sampled_atoms``, the atom count of the
    measure each group's fields were drawn from, and ``draws``, the stable
    variates drawn for them (M per sampled atom); with ``seconds`` that
    gives the layer's draws per second.
    """
    measures = []
    for l in range(1, spec.n_layers + 1):
        with stage("layer", layer=l) as fields:
            if l == 1:
                current = gamma_first(
                    spec.inputs, spec.layers[0], spec.alpha, spec.sigma_w, spec.sigma_b
                )
            else:
                groups = _field_groups(current, limit_cfg.mc_samples)
                sampled = _compressed_size(current, groups[0])
                fields.update(groups=len(groups), sampled_atoms=sampled,
                              draws=limit_cfg.mc_samples * sampled)
                current = gamma_next_mc(
                    current, spec.layers[l - 1], spec.alpha, spec.sigma_w, spec.sigma_b,
                    spec.activation, limit_cfg, rng_stream(limit_cfg.seed, RNG_DOMAIN_LIMIT, l),
                )
            fields.update(atoms=current.n_atoms, total_mass=current.total_mass,
                          bias_mass=current.bias_mass)
        measures.append(current)
    return measures


def _peak_rss_mb() -> float:
    """This process's peak resident memory: VmHWM from /proc/self/status
    where it exists, which an exec'd process starts afresh.  Elsewhere
    ru_maxrss, which on Linux starts from the peak of the launching process."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@contextmanager
def stage(name: str, **fields):
    """Time the block and, once it completes, log one line
    ``stage=<name> <key>=<value>... seconds=... peak_rss_mb=... minor_faults=...``
    through the ``stableconv.stage`` logger: ``fields`` in order, then those
    the block adds to the dict it is given, floats to 6 significant digits.
    ``peak_rss_mb`` is this process's own peak resident memory so far
    (:func:`_peak_rss_mb`), so the stage that raises it shows.
    ``minor_faults`` is the count of pages this process faulted in during
    the block without reading them from disk (``ru_minflt`` of
    ``RUSAGE_SELF``): memory freed to the system and taken again shows
    there.  Replica pool workers are other processes and are not counted.
    The dict holds ``seconds`` afterwards.  A block that raises logs
    nothing."""
    t0 = time.perf_counter()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    yield fields
    fields["seconds"] = time.perf_counter() - t0
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    tokens = [f"stage={name}"] + [
        f"{key}={value:.6g}" if isinstance(value, float) else f"{key}={value}"
        for key, value in fields.items() if key != "seconds"
    ]
    _stage_log.info(
        "%s seconds=%.3f peak_rss_mb=%.1f minor_faults=%d",
        " ".join(tokens), fields["seconds"], _peak_rss_mb(), faults,
    )
