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
  Monte Carlo: each sample draws ONE full field and slices every filter
  offset from it, because the offsets are coupled through the same draw.

Zero slices contribute no atom.  All atom weights use the Euclidean norm of
the flattened slice raised to the alpha power; directions are the
Euclidean-normalized slices.

The closed-form characteristic functions (``cf_layer1_closed_form`` and
``cf_conditional_closed_form``) evaluate the same laws by a direct product
formula with their own index arithmetic; they share no code with the measure
constructors and serve as exact oracles for them.
"""

from __future__ import annotations

import dataclasses
import logging
import resource
import time
from dataclasses import dataclass

import numpy as np

from .network import NetworkSpec, RNG_DOMAIN_LIMIT, ActivationSpec
from .stable import SpectralMeasure, compress_measure, sample_multivariate
from .tensors import ConvLayerConfig, Tensor, patch_map_for

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class LimitConfig:
    """Monte Carlo budget of the layer recursion.

    ``mc_samples`` fields are drawn per layer.  ``atom_cap``, when set,
    compresses each Monte Carlo layer to at most that many atoms; None keeps
    all of a layer's at most mc_samples * n_offsets Monte Carlo atoms.
    """

    mc_samples: int = 10_000
    atom_cap: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.mc_samples < 1:
            raise ValueError("mc_samples must be >= 1")
        if self.atom_cap is not None and self.atom_cap < 1:
            raise ValueError("atom_cap must be >= 1")


def _bias_atom(sigma_b: float, dim: int, alpha: float):
    """Weight and direction of the bias atom pair over a flat space of the
    given dimension, or None when sigma_b is zero."""
    if sigma_b == 0.0:
        return None
    weight = sigma_b**alpha * dim ** (alpha / 2.0)
    direction = np.full(dim, 1.0 / np.sqrt(dim))
    return weight, direction


def _atoms_from_slices(slices: np.ndarray, sigma_w: float, alpha: float):
    """Atom pairs from flat slices: weight sigma_w^alpha * ||v||^alpha at
    direction v/||v||; zero-norm or zero-weight slices are dropped."""
    norms = np.linalg.norm(slices, axis=1)
    weights = sigma_w**alpha * norms**alpha
    keep = weights > 0.0
    if not np.any(keep):
        return np.zeros(0), np.zeros((0, slices.shape[1]))
    return weights[keep], slices[keep] / norms[keep, None]


def _assemble(alpha, dim, bias, weights, directions) -> SpectralMeasure:
    if bias is None:
        return SpectralMeasure(alpha, weights, directions, bias_index=None)
    w = np.concatenate([[bias[0]], weights])
    d = np.vstack([bias[1][None, :], directions])
    return SpectralMeasure(alpha, w, d, bias_index=0)


def gamma_first(
    x: Tensor, cfg: ConvLayerConfig, alpha: float, sigma_w: float, sigma_b: float
) -> SpectralMeasure:
    """Exact spectral measure of a first-layer output channel, jointly over
    output positions and inputs.

    One atom pair carries the bias direction; one pair per (input channel,
    filter offset) carries the normalized patch slice of the data, weighted
    by sigma_w^alpha times its norm to the alpha.  Deterministic.
    """
    pm = patch_map_for(cfg)
    s_dim = len(cfg.spatial_in)
    if x.data.ndim != s_dim + 2:
        raise ValueError("inputs must have (channel, *spatial, input) axes")
    if x.shape[1 : 1 + s_dim] != cfg.spatial_in:
        raise ValueError("input spatial extents do not match the layer")
    c0 = x.shape[0]
    k = x.shape[-1]
    dim = cfg.n_positions_out * k
    patches = pm.gather(x.data.reshape(c0, -1, k), axis=1)  # (C0, n_off, n_pos, K)
    slices = patches.reshape(c0 * cfg.n_offsets, dim)
    weights, dirs = _atoms_from_slices(slices, sigma_w, alpha)
    return _assemble(alpha, dim, _bias_atom(sigma_b, dim, alpha), weights, dirs)


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


def cf_layer1_closed_form(
    x: Tensor,
    cfg: ConvLayerConfig,
    alpha: float,
    sigma_w: float,
    sigma_b: float,
    t,
):
    """Product-form characteristic function of a first-layer channel,
    evaluated directly from the data without building a measure.

    Serves as the exact oracle for :func:`gamma_first`.  ``t`` is one flat
    probe (positions*K,) or a batch (n, positions*K).
    """
    arr = np.asarray(t, dtype=np.float64)
    single = arr.ndim == 1
    probes = np.atleast_2d(arr)
    k = x.shape[-1]
    dim = cfg.n_positions_out * k
    if probes.shape[1] != dim:
        raise ValueError(f"probe dimension {probes.shape[1]} != {dim}")
    expo = sigma_b**alpha * np.abs(probes.sum(axis=1)) ** alpha
    for vec in _oracle_slices(x.data, cfg):
        expo = expo + sigma_w**alpha * np.abs(probes @ vec) ** alpha
    out = np.exp(-expo)
    return float(out[0]) if single else out


def gamma_conditional(
    prev: Tensor,
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
    pm = patch_map_for(cfg)
    s_dim = len(cfg.spatial_in)
    if prev.data.ndim != s_dim + 2:
        raise ValueError("realization must have (channel, *spatial, input) axes")
    if prev.shape[1 : 1 + s_dim] != cfg.spatial_in:
        raise ValueError("realization spatial extents do not match the layer")
    c = prev.shape[0]
    k = prev.shape[-1]
    dim = cfg.n_positions_out * k
    patches = pm.gather(prev.data.reshape(c, -1, k), axis=1)
    acts = activation(patches)
    slices = acts.reshape(c * cfg.n_offsets, dim)
    weights, dirs = _atoms_from_slices(slices, sigma_w, alpha)
    return _assemble(
        alpha, dim, _bias_atom(sigma_b, dim, alpha), weights / c, dirs
    )


def cf_conditional_closed_form(
    prev: Tensor,
    cfg: ConvLayerConfig,
    alpha: float,
    sigma_w: float,
    sigma_b: float,
    activation: ActivationSpec,
    t,
):
    """Product-form conditional characteristic function; exact oracle for
    :func:`gamma_conditional`, again with its own index arithmetic."""
    arr = np.asarray(t, dtype=np.float64)
    single = arr.ndim == 1
    probes = np.atleast_2d(arr)
    c = prev.shape[0]
    k = prev.shape[-1]
    dim = cfg.n_positions_out * k
    if probes.shape[1] != dim:
        raise ValueError(f"probe dimension {probes.shape[1]} != {dim}")
    expo = sigma_b**alpha * np.abs(probes.sum(axis=1)) ** alpha
    for vec in _oracle_slices(prev.data, cfg):
        phi_vec = activation(vec)
        expo = expo + sigma_w**alpha / c * np.abs(probes @ phi_vec) ** alpha
    out = np.exp(-expo)
    return float(out[0]) if single else out


def _mc_activated_slices(
    prev_measure: SpectralMeasure,
    cfg: ConvLayerConfig,
    activation: ActivationSpec,
    m_samples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Activated patch slices of ``m_samples`` fields drawn from the previous
    layer's law: returns (m_samples, n_offsets, n_positions_out, K).

    All offsets of one sample come from the same field draw.
    """
    n_in = cfg.n_positions_in
    if prev_measure.dimension % n_in != 0:
        raise ValueError(
            f"measure dimension {prev_measure.dimension} is not a multiple of "
            f"the layer's {n_in} input positions"
        )
    k = prev_measure.dimension // n_in
    fields = sample_multivariate(prev_measure, rng, size=m_samples)
    fields = fields.reshape(m_samples, n_in, k)
    pm = patch_map_for(cfg)
    patches = pm.gather(fields, axis=1)  # (M, n_off, n_pos, K)
    return activation(patches)


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
    """Monte Carlo estimate of the next layer's limiting spectral measure.

    The bias atom is exact; the weight part averages activated patch slices
    of fields drawn from the previous layer's limit law, one atom pair per
    (sample, offset) at weight sigma_w^alpha * ||slice||^alpha / M.
    """
    if prev_measure.n_atoms == 0:
        raise ValueError("previous layer's measure is empty")
    n_in = cfg.n_positions_in
    if prev_measure.dimension % n_in != 0:
        raise ValueError(
            f"measure dimension {prev_measure.dimension} is not a multiple of "
            f"the layer's {n_in} input positions"
        )
    k = prev_measure.dimension // n_in
    dim = cfg.n_positions_out * k
    bias = _bias_atom(sigma_b, dim, alpha)
    if sigma_w == 0.0:
        return _assemble(alpha, dim, bias, np.zeros(0), np.zeros((0, dim)))
    m = limit_cfg.mc_samples
    acts = _mc_activated_slices(prev_measure, cfg, activation, m, rng)
    slices = acts.reshape(m * cfg.n_offsets, dim)
    weights, dirs = _atoms_from_slices(slices, sigma_w, alpha)
    mc = SpectralMeasure(alpha, weights / m, dirs)
    if limit_cfg.atom_cap is not None:
        mc = compress_measure(mc, limit_cfg.atom_cap, rng)
    return _assemble(alpha, dim, bias, mc.weights, mc.directions)


def mixture_measure(base: SpectralMeasure, z, alpha: float | None = None) -> SpectralMeasure:
    """Spectral measure of a bias-stripped channel mixture with weights z.

    Drops the tagged bias atom and multiplies the remaining weights by
    sum_c |z_c|^alpha.  The base measure must carry its bias tag.
    """
    alpha = base.alpha if alpha is None else float(alpha)
    if base.bias_index is None:
        raise ValueError("base measure has no tagged bias atom")
    z = np.asarray(z, dtype=np.float64)
    z_norm = float(np.sum(np.abs(z) ** alpha))
    keep = np.arange(base.n_atoms) != base.bias_index
    if z_norm == 0.0:
        return SpectralMeasure(
            alpha, np.zeros(0), np.zeros((0, base.dimension)), bias_index=None
        )
    return SpectralMeasure(
        alpha, base.weights[keep] * z_norm, base.directions[keep], bias_index=None
    )


def readout_measure(
    prev_measure: SpectralMeasure,
    cfg: ConvLayerConfig,
    alpha: float,
    sigma_w: float,
    sigma_b: float,
    activation: ActivationSpec,
    u,
    limit_cfg: LimitConfig,
    rng: np.random.Generator,
) -> SpectralMeasure:
    """Limiting spectral measure over the K inputs after contracting the
    output positions against a weight tensor u with entries summing to 1.

    Each Monte Carlo atom is the u-contraction of an activated patch slice;
    zero contractions contribute nothing.
    """
    u = np.asarray(u, dtype=np.float64).reshape(-1)
    if u.shape[0] != cfg.n_positions_out:
        raise ValueError(
            f"u has {u.shape[0]} entries, layer has {cfg.n_positions_out} output positions"
        )
    if abs(u.sum() - 1.0) > 1e-12:
        raise ValueError("u must contract the all-ones position tensor to 1")
    if prev_measure.n_atoms == 0:
        raise ValueError("previous layer's measure is empty")
    n_in = cfg.n_positions_in
    k = prev_measure.dimension // n_in
    bias = _bias_atom(sigma_b, k, alpha)
    if sigma_w == 0.0:
        return _assemble(alpha, k, bias, np.zeros(0), np.zeros((0, k)))
    m = limit_cfg.mc_samples
    acts = _mc_activated_slices(prev_measure, cfg, activation, m, rng)
    contracted = np.einsum("p,mgpk->mgk", u, acts).reshape(m * cfg.n_offsets, k)
    weights, dirs = _atoms_from_slices(contracted, sigma_w, alpha)
    mc = SpectralMeasure(alpha, weights / m, dirs)
    if limit_cfg.atom_cap is not None:
        mc = compress_measure(mc, limit_cfg.atom_cap, rng)
    return _assemble(alpha, k, bias, mc.weights, mc.directions)


def _layer_rng(limit_cfg: LimitConfig, layer: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=limit_cfg.seed, spawn_key=(RNG_DOMAIN_LIMIT, layer))
    )


def limit_measures(spec: NetworkSpec, limit_cfg: LimitConfig) -> list[SpectralMeasure]:
    """Propagate the limiting spectral measure through every layer.

    Layer 1 is exact; each deeper layer draws its Monte Carlo fields from a
    dedicated substream of the configured seed, so any single layer can be
    replayed.  Returns one measure per layer and logs a summary line each.
    """
    t0 = time.perf_counter()
    current = gamma_first(
        spec.inputs, spec.layers[0], spec.alpha, spec.sigma_w, spec.sigma_b
    )
    measures = [current]
    _log_layer(1, current, t0)
    for l in range(2, spec.n_layers + 1):
        t0 = time.perf_counter()
        current = gamma_next_mc(
            current,
            spec.layers[l - 1],
            spec.alpha,
            spec.sigma_w,
            spec.sigma_b,
            spec.activation,
            limit_cfg,
            _layer_rng(limit_cfg, l),
        )
        measures.append(current)
        _log_layer(l, current, t0)
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


def _log_layer(layer: int, measure: SpectralMeasure, t0: float) -> None:
    """One summary line per layer.  ``peak_rss_mb`` is this process's own
    peak resident memory so far (:func:`_peak_rss_mb`), so the layer that
    raises it shows."""
    log.info(
        "layer=%d atoms=%d total_mass=%.6g bias_mass=%.6g seconds=%.3f peak_rss_mb=%.1f",
        layer,
        measure.n_atoms,
        measure.total_mass,
        measure.bias_mass,
        time.perf_counter() - t0,
        _peak_rss_mb(),
    )


def readout_limit(spec: NetworkSpec, u, limit_cfg: LimitConfig) -> SpectralMeasure:
    """Limiting readout measure over inputs at the last layer.

    For a one-layer network the contraction is applied exactly to the data
    patch slices; otherwise the positions of the last layer are contracted
    inside the Monte Carlo recursion, using the layer's own substream.
    """
    last = spec.layers[-1]
    if spec.n_layers == 1:
        u_arr = np.asarray(u, dtype=np.float64).reshape(-1)
        if u_arr.shape[0] != last.n_positions_out:
            raise ValueError("u does not match the output positions")
        if abs(u_arr.sum() - 1.0) > 1e-12:
            raise ValueError("u must contract the all-ones position tensor to 1")
        k = spec.n_inputs
        pm = patch_map_for(last)
        patches = pm.gather(spec.inputs.data.reshape(spec.in_channels, -1, k), axis=1)
        contracted = np.einsum("p,cgpk->cgk", u_arr, patches).reshape(-1, k)
        weights, dirs = _atoms_from_slices(contracted, spec.sigma_w, spec.alpha)
        return _assemble(
            spec.alpha, k, _bias_atom(spec.sigma_b, k, spec.alpha), weights, dirs
        )
    prev = limit_measures(
        dataclasses.replace(spec, layers=spec.layers[:-1]), limit_cfg
    )[-1]
    return readout_measure(
        prev,
        last,
        spec.alpha,
        spec.sigma_w,
        spec.sigma_b,
        spec.activation,
        u,
        limit_cfg,
        _layer_rng(limit_cfg, spec.n_layers + 1_000),
    )
