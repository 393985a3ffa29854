"""Finite-channel convolutional networks with symmetric stable parameters,
simulated jointly over several inputs.

Weights and biases are drawn iid symmetric stable with scales sigma_w and
sigma_b.  The first layer applies the convolution as-is; deeper layers divide
the weight term by C^(1/alpha), where C is the channel count shared by all
hidden layers.  The activation is applied to each hidden field, and the
next layer reads it zero-padded through the activation, so its padding
feeds phi(0) into the contraction.  A hidden layer gathers the patches of
the activated field below it with phi(0) in the padding slots
(``PatchMap.slab``) and multiplies them by its C rows of weights.  The last
layer multiplies one row at a time, so it contracts over channels first,
u = W^T A with A the activated field plus one position per channel that
holds phi(0), and then sums over the filter offsets the entries of u that
the window reads (``PatchMap.padded_indices``: an out-of-bounds slot reads
the phi(0) position).  Those are the terms of the patch product, summed in
another order, and no (C * n_offsets, positions * K) patch slab of the last
layer is written.  A one-layer net multiplies the slab of its fixed inputs.

Replicas are simulated in blocks: one block pushes B network realizations
through the stack together, with one weight draw, one bias draw and one
batched matmul per hidden layer.  The last layer takes its two draws and
its product once per output channel, one channel wide, so its channels are
drawn one after another.  Each block draws from its own generator, keyed by (seed,
block index).  B is derived from the spec alone (see
:func:`replica_block_size`), and every block draws all B replicas even when
only part of the last one is kept.  Channel j of a replica therefore depends
only on (seed, spec, index, j): for k <= k' and N <= N', channel j < k of N
replicas with k output channels equals channel j of N' replicas with k'
output channels bit for bit, and a worker pool given whole blocks
reproduces the serial draws exactly.  So channel 0 of a replica cache
written by ``simulate`` is exactly what a one-channel sweep would sample.

A job of consecutive blocks allocates its block-sized arrays once, sized
from the spec and B (:class:`_BlockArrays`): each layer's own weights,
biases, fields and what its product reads (a patch slab, or at the last
layer the padded activations and the arrays it contracts and gathers
into), shared with no other layer, and the CMS inputs and scratch.  So a
job holds the sum over its layers, not the largest layer: 0.11 to 0.16
MiB more on the toy geometry, 0.015 to 0.04 MiB on the wide one, 1.6 MiB
on a 4-layer C = 256 net, when every layer still held a slab.  Every
block draws, multiplies and gathers into them with ``out=``, in the same
operations and order as into fresh arrays, so the values do not change.  Freeing about
1.8 MB of arrays after each block let the allocator hand their pages back
to the system and fault them in again for the next block: a fresh
10k-replica, two-channel sample at the toy geometry's C = 256 took 248k
minor faults, and takes about 1k.  Only the activation still returns a new
array of one field's size, which the allocator reuses from block to block.

A sweep point needs only the empirical characteristic function of channel 0
of its replicas, so its jobs (:func:`replica_cf_sums`) keep one block of
outputs at a time and return one row of CF sums per block, with their count
of non-finite replicas; no replica output leaves a job.  Each row depends
only on its block's replicas, so the rows, like the draws, do not depend on
the worker count.

Blocks run in parallel in a :func:`replica_pool`, which a command opens once,
before it reads or builds any limit measure, and passes to every sampling
call.  Its workers are forked while the process is still small, so they do
not start with the measures, probes and caches the command builds later;
every sweep point reuses them, and the pool is shut down when the command
returns or raises.

Every stream the package derives from a configured seed, here and in the
limit recursion, the probe sets and the synthetic inputs, is built by
:func:`rng_stream`.
"""

from __future__ import annotations

import multiprocessing
import os
import struct
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace
from math import prod
from typing import Callable

import numpy as np

from .stable import _BLOCK_BYTES, _CmsScratch, _replacing, cf_block_sums, sample_standard
from .tensors import ConvLayerConfig, input_tensor, patch_map_for

# spawn-key domains keep replica, limit-recursion, probe and input streams
# disjoint
RNG_DOMAIN_REPLICA = 1
RNG_DOMAIN_LIMIT = 2
RNG_DOMAIN_PROBES = 3
RNG_DOMAIN_INPUTS = 4

# a replica block's per-layer working set stays within _BLOCK_BYTES, and no
# block holds more than _MAX_BLOCK replicas
_MAX_BLOCK = 1024

# the envelope check's grid: 0 and 121 log-spaced magnitudes in [1e-6, 1e6] of either sign
_ENVELOPE_GRID = np.logspace(-6.0, 6.0, 121)
_ENVELOPE_GRID = np.concatenate([[0.0], _ENVELOPE_GRID, -_ENVELOPE_GRID])


@dataclass(frozen=True)
class ActivationSpec:
    """A pointwise nonlinearity together with its growth envelope.

    The envelope |phi(s)| <= a + b * |s|^beta is checked empirically on a
    log-spaced grid over [-1e6, 1e6] at construction.  beta < 1 is what the
    heavy-tailed limit theory needs for alpha < 2; that gate is enforced by
    :class:`NetworkSpec`, not here, so the Gaussian case can use beta = 1
    activations.
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    a: float
    b: float
    beta: float

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0 or self.beta < 0:
            raise ValueError("envelope requires a > 0, b > 0, beta >= 0")
        s = _ENVELOPE_GRID
        bound = self.a + self.b * np.abs(s) ** self.beta
        values = np.abs(self.fn(s))
        if np.any(values > bound + 1e-9):
            worst = s[np.argmax(values - bound)]
            raise ValueError(
                f"activation {self.name!r} violates its envelope near s={worst:g}"
            )

    def __call__(self, s: np.ndarray) -> np.ndarray:
        return self.fn(np.asarray(s, dtype=np.float64))


def _tanh(s):
    return np.tanh(s)


def _hard_clip(s):
    return np.clip(s, -1.0, 1.0)


def _signed_power(s):
    return np.sign(s) * np.abs(s) ** 0.9


def _relu(s):
    return np.maximum(s, 0.0)


ACTIVATIONS = {
    "tanh": ActivationSpec("tanh", _tanh, a=1.0, b=1.0, beta=0.0),
    "hard_clip": ActivationSpec("hard_clip", _hard_clip, a=1.0, b=1.0, beta=0.0),
    "signed_power": ActivationSpec("signed_power", _signed_power, a=1.0, b=1.0, beta=0.9),
    # beta = 1 sits outside the heavy-tailed envelope; usable only at alpha = 2
    "relu": ActivationSpec("relu", _relu, a=1.0, b=1.0, beta=1.0),
}


def get_activation(name: str) -> ActivationSpec:
    try:
        return ACTIVATIONS[name]
    except KeyError:
        raise KeyError(
            f"unknown activation {name!r}; shipped: {sorted(ACTIVATIONS)}"
        ) from None


@dataclass(frozen=True)
class NetworkSpec:
    """Configuration of one stable-parameter network over K inputs.

    ``inputs`` is an array with axes (input channels, *spatial, K), checked
    and stored as float64.  Layer configs must chain spatially, and all
    hidden layers share the channel count ``channels``.  ``sigma_w`` and
    ``sigma_b`` are finite and may be zero (degenerate draws).
    """

    alpha: float
    sigma_w: float
    sigma_b: float
    layers: tuple[ConvLayerConfig, ...]
    activation: ActivationSpec
    channels: int
    inputs: np.ndarray
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.alpha <= 2.0:
            raise ValueError(f"alpha must be in (0, 2], got {self.alpha}")
        if not (0.0 <= self.sigma_w < np.inf and 0.0 <= self.sigma_b < np.inf):
            raise ValueError("scales must be finite and non-negative")
        layers = tuple(self.layers)
        if len(layers) < 1:
            raise ValueError("at least one layer required")
        if self.channels < 1:
            raise ValueError("channel count must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for prev, nxt in zip(layers, layers[1:]):
            if prev.spatial_out != nxt.spatial_in:
                raise ValueError(
                    f"layers do not chain: {prev.spatial_out} -> {nxt.spatial_in}"
                )
        inputs = input_tensor(self.inputs)
        s_dim = len(layers[0].spatial_in)
        if inputs.ndim != s_dim + 2:
            raise ValueError("inputs must have (channel, *spatial, input) axes")
        if inputs.shape[1 : 1 + s_dim] != layers[0].spatial_in:
            raise ValueError("input spatial extents do not match the first layer")
        if self.alpha < 2.0 and self.activation.beta >= 1.0:
            raise ValueError(
                f"activation {self.activation.name!r} has envelope exponent "
                f"{self.activation.beta} >= 1, not admissible for alpha < 2"
            )
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "inputs", inputs)

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    @property
    def n_inputs(self) -> int:
        return self.inputs.shape[-1]

    @property
    def in_channels(self) -> int:
        return self.inputs.shape[0]

    @property
    def out_spatial(self) -> tuple[int, ...]:
        return self.layers[-1].spatial_out

    @property
    def out_dim(self) -> int:
        """Flat dimension of one output channel: positions times inputs."""
        return prod(self.out_spatial) * self.n_inputs

    def with_channels(self, channels: int) -> "NetworkSpec":
        return replace(self, channels=channels)


@dataclass(frozen=True)
class FiniteOutputs:
    """Output channels of one network realization.

    ``fields`` has shape (n_channels_out, *spatial_out, K); ``last_biases``
    holds the realized final-layer bias draws, needed to form bias-stripped
    channel mixtures.
    """

    fields: np.ndarray
    last_biases: np.ndarray


def _layer_dims(spec: NetworkSpec):
    """(m_out, fan_in, n_out) of each layer's product: its output rows, one
    at the last layer (the width it draws at a time), the rows of its patch
    slab (input channels times filter offsets) and its columns (output
    positions times inputs)."""
    for l, cfg in enumerate(spec.layers):
        c_in = spec.in_channels if l == 0 else spec.channels
        m_out = 1 if l == spec.n_layers - 1 else spec.channels
        yield m_out, c_in * cfg.n_offsets, cfg.n_positions_out * spec.n_inputs


class _BlockArrays:
    """The arrays one replica job computes its blocks in, ``size``
    realizations each, allocated once per job.  ``layers`` holds each
    layer's own weights (size, m, f), biases (size, m) and fields
    (size, m, n), with (m, f, n) from :func:`_layer_dims`, and what its
    product reads.  The first layer reads the patch slab of the fixed
    inputs, the same for every replica, and a hidden layer the (size, f, n)
    patch slab of the activated field below it.  The last layer of a net of
    two or more layers reads that field activated and padded, (size, C,
    (n_in + 1) * K): one extra input position per channel holds phi(0).  It
    contracts it into ``u`` (size, n_offsets, (n_in + 1) * K) and gathers
    from that into ``gathered`` (size, n_offsets, n) by the table ``rows``
    (:func:`_contract_then_gather`).  ``cms`` holds the CMS inputs and
    scratch of the largest draw.  Every block draws and computes into them,
    so a block allocates and frees no block-sized array."""

    def __init__(self, spec: NetworkSpec, size: int):
        last = spec.layers[-1]
        width = (last.n_positions_in + 1) * spec.n_inputs
        self.layers = []
        for l, (m, f, n) in enumerate(_layer_dims(spec)):
            if l == 0:
                inputs = spec.inputs.reshape(spec.in_channels, -1, spec.n_inputs)
                reads = patch_map_for(spec.layers[0]).slab(inputs)
            elif l < spec.n_layers - 1:
                reads = np.empty((size, f, n))
            else:
                reads = np.empty((size, spec.channels, width))
                # phi(0) once per job: no block writes the pad position
                reads[..., width - spec.n_inputs :] = spec.activation(np.zeros(1))[0]
            self.layers.append((np.empty((size, m, f)), np.empty((size, m)),
                                np.empty((size, m, n)), reads))
        if spec.n_layers > 1:
            self.u = np.empty((size, last.n_offsets, width))
            self.gathered = np.empty((size, last.n_offsets, last.n_positions_out * spec.n_inputs))
            # offset g of output position p reads row g * (n_in + 1) + its
            # input position (n_in at an out-of-bounds slot) of u
            row_starts = (last.n_positions_in + 1) * np.arange(last.n_offsets)[:, None]
            self.rows = (patch_map_for(last).padded_indices.T + row_starts).ravel()
        self.cms = _CmsScratch(max(w.size for w, *_ in self.layers))


def _draw(spec: NetworkSpec, w, biases, rng, cms) -> None:
    """One weight draw into ``w`` (batch, m_out, fan_in), then one bias draw
    into ``biases`` (batch, m_out), each times its scale.  ``cms`` is the
    draws' :class:`~stableconv.stable._CmsScratch`."""
    sample_standard(spec.alpha, w.shape, rng, out=w, scratch=cms)
    w *= spec.sigma_w
    sample_standard(spec.alpha, biases.shape, rng, out=biases, scratch=cms)
    biases *= spec.sigma_b


def _scale_and_shift(spec: NetworkSpec, field, biases, scaled: bool) -> None:
    """``field`` (batch, m_out, n), the product of a layer's weights with
    its input, times C^(-1/alpha) if ``scaled``, plus the ``biases``."""
    if scaled:
        field *= spec.channels ** (-1.0 / spec.alpha)
    field += biases[..., None]


def _contract_then_gather(spec: NetworkSpec, arrays: _BlockArrays, w, padded, field) -> None:
    """The last layer's product of ``w`` (batch, 1, C * n_offsets) with the
    patch rows of ``padded`` (batch, C, (n_in + 1) * K), the activated field
    below it with phi(0) at position n_in, into ``field`` (batch, 1, n), without
    forming those rows: contract the channels first, u = W^T A with W the
    (C, n_offsets) view of the weights, then sum over the offsets g the
    entries of u[g] at the positions the window at offset g reads, the pad
    position at an out-of-bounds slot.  The terms are those of the patch
    rows' product, summed in another order."""
    size, n_off, width = arrays.u.shape
    k = spec.n_inputs
    np.matmul(w.reshape(size, -1, n_off).transpose(0, 2, 1), padded, out=arrays.u)
    np.take(arrays.u.reshape(size, n_off * width // k, k), arrays.rows, axis=1,
            out=arrays.gathered.reshape(size, -1, k), mode="clip")
    np.add.reduce(arrays.gathered, axis=1, keepdims=True, out=field)


def _forward_block(
    spec: NetworkSpec,
    arrays: _BlockArrays,
    rng: np.random.Generator,
    out: np.ndarray,
    bias: np.ndarray,
) -> None:
    """Push one block of fresh network realizations through the stack
    together, in ``arrays``, and write the first ``len(out)`` of them into
    ``out`` (output fields, (n, n_channels_out, positions*K)) and ``bias``
    (the last layer's biases, (n, n_channels_out)).

    Each hidden layer takes one weight draw of shape (batch, C, c_in * n_off),
    then one bias draw of shape (batch, C), then one batched matmul with its
    patch slab.  The last layer draws one output channel at a time, in the
    same two draws with one row, so channel j's values do not depend on how
    many channels are drawn.  Below it the field is activated once, into
    the padded array the last layer reads, and each output channel
    contracts that before it gathers (:func:`_contract_then_gather`).  The
    inputs are fixed, so the first layer, the last of a one-layer net,
    multiplies the input slab that ``arrays`` holds.
    """
    layers = arrays.layers
    for l, cfg in enumerate(spec.layers[:-1]):
        w, biases, field, slab = layers[l]
        _draw(spec, w, biases, rng, arrays.cms)
        np.matmul(w, slab, out=field)
        _scale_and_shift(spec, field, biases, l > 0)
        if l + 2 < spec.n_layers:
            values = field.reshape(len(field), spec.channels, cfg.n_positions_out, spec.n_inputs)
            patch_map_for(spec.layers[l + 1]).slab(values, spec.activation, out=layers[l + 1][3])
        else:
            layers[-1][3][..., : field.shape[-1]] = spec.activation(field)
    w, biases, field, reads = layers[-1]
    keep = len(out)
    for j in range(out.shape[1]):
        _draw(spec, w, biases, rng, arrays.cms)
        if spec.n_layers > 1:
            _contract_then_gather(spec, arrays, w, reads, field)
        else:
            np.matmul(w, reads, out=field)
        _scale_and_shift(spec, field, biases, spec.n_layers > 1)
        out[:, j] = field[:keep, 0]
        bias[:, j] = biases[:keep, 0]


def forward_finite(
    spec: NetworkSpec, n_channels_out: int, rng: np.random.Generator
) -> FiniteOutputs:
    """Run one fresh network realization and return its output channels.

    Only the channels actually consumed are materialized: C at hidden layers,
    ``n_channels_out`` at the last.  Draw order is fixed (weights then bias,
    layer by layer, and output channel by output channel at the last), so
    equal seeds give bit-identical outputs.  This is the one-replica case of
    the block kernel behind :func:`sample_replicas`.
    """
    if n_channels_out < 1:
        raise ValueError("n_channels_out must be >= 1")
    fields = np.empty((1, n_channels_out, spec.out_dim))
    biases = np.empty((1, n_channels_out))
    _forward_block(spec, _BlockArrays(spec, 1), rng, fields, biases)
    out_shape = (n_channels_out,) + spec.out_spatial + (spec.n_inputs,)
    return FiniteOutputs(fields=fields[0].reshape(out_shape), last_biases=biases[0])


def replica_block_size(spec: NetworkSpec) -> int:
    """Replicas per block in :func:`sample_replicas`.

    A fixed byte budget divided by the largest per-replica working set over
    the layers (patch slab, weights and output field), capped at a fixed
    maximum.  The last layer counts at one output channel, the width it
    draws at a time, and with the patch slab it multiplied before it came
    to contract its channels first: B fixes the block partition, and with
    it every replica draw, so this formula stays as it was.  The size
    depends on nothing but the spec's geometry, so the partition is the
    same for any worker count and any number of output channels.
    """
    worst = max(f * n + m * f + m * n for m, f, n in _layer_dims(spec))
    return max(1, min(_MAX_BLOCK, _BLOCK_BYTES // (8 * worst)))


def rng_stream(seed: int, domain: int, *key: int) -> np.random.Generator:
    """The generator of one stream: entropy ``seed``, spawn key (domain, *key).

    ``domain`` is one of the ``RNG_DOMAIN_*`` constants, so replica, limit,
    probe and input streams of one seed never overlap; ``key`` picks the
    block, layer or attempt within the domain."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(domain, *key))
    )


def replica_rng(seed: int, index: int) -> np.random.Generator:
    """Independent stream for one replica block, keyed by (seed, index)."""
    return rng_stream(seed, RNG_DOMAIN_REPLICA, index)


@dataclass(frozen=True)
class ReplicaSet:
    """Independent network realizations collected for law estimation."""

    outputs: np.ndarray  # (n_replicas, n_channels, out_dim)
    biases: np.ndarray  # (n_replicas, n_channels)
    alpha: float
    seed: int

    @property
    def n_replicas(self) -> int:
        return self.outputs.shape[0]

    def channel_samples(self, c: int = 0) -> np.ndarray:
        return self.outputs[:, c, :]


def non_finite_rows(values: np.ndarray) -> int:
    """The count of rows of ``values`` (one replica each, along axis 0) that
    hold an infinite or NaN value."""
    return int(np.count_nonzero(~np.isfinite(values.reshape(len(values), -1)).all(axis=1)))


def _replica_blocks(args):
    """The blocks [lo, hi) of one job, stopping at replica ``n_replicas``,
    computed in one :class:`_BlockArrays`.

    Without ``probes`` the job returns the outputs (n, n_channels, out_dim)
    and biases (n, n_channels) of its n replicas.  With ``probes``
    (P, out_dim) it holds one block of outputs at a time and returns, for
    each of its blocks in order, the row sum_n exp(i <t, x_n>) over channel
    0 of the replicas that block keeps
    (:func:`~stableconv.stable.cf_block_sums`), as an (hi - lo, P) array,
    and the count of its replicas whose channel 0 holds a non-finite value
    (:func:`non_finite_rows`)."""
    spec, n_channels, size, lo, hi, n_replicas, probes = args
    start, stop = lo * size, min(hi * size, n_replicas)
    held = stop - start if probes is None else size
    out = np.empty((held, n_channels, spec.out_dim))
    bias = np.empty((held, n_channels))
    arrays = _BlockArrays(spec, size)
    sums, bad = [], 0
    for block in range(lo, hi):
        first = block * size - start
        keep = min(size, stop - start - first)
        at = first if probes is None else 0
        _forward_block(spec, arrays, replica_rng(spec.seed, block),
                       out[at : at + keep], bias[at : at + keep])
        if probes is not None:
            channel0 = out[:keep, 0]
            # a block with a non-finite replica sums to NaN, which its count
            # reports to the caller
            with np.errstate(invalid="ignore"):
                sums.append(cf_block_sums([(channel0, probes)], keep)[0])
            bad += non_finite_rows(channel0)
    return (out, bias) if probes is None else (np.array(sums), bad)


def _replica_jobs(spec: NetworkSpec, n_replicas: int, n_channels: int, pool, probes=None):
    """The :func:`_replica_blocks` jobs of ``n_replicas`` replicas: the
    blocks of :func:`replica_block_size` split into up to W contiguous
    ranges of whole blocks for a ``pool`` of W workers, one range without
    one."""
    if n_replicas < 1:
        raise ValueError("n_replicas must be >= 1")
    size = replica_block_size(spec)
    n_blocks = -(-n_replicas // size)
    n_jobs = 1 if pool is None else max(1, min(pool.workers, n_blocks))
    bounds = np.linspace(0, n_blocks, n_jobs + 1).astype(int)
    return [
        (spec, n_channels, size, int(lo), int(hi), n_replicas, probes)
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]


class ReplicaPool(ProcessPoolExecutor):
    """A pool of ``workers`` forked processes for replica blocks."""

    def __init__(self, workers: int):
        super().__init__(max_workers=workers, mp_context=multiprocessing.get_context("fork"))
        self.workers = workers


@contextmanager
def replica_pool(workers: int):
    """The worker pool of one command's replica sampling: ``None`` for one
    worker, otherwise a :class:`ReplicaPool` of ``workers`` processes.

    Every worker is forked before the pool is yielded, so each starts as a
    copy of the process as it is here: open the pool before building
    anything large.  Forked workers need no re-import of the caller's main
    module, which spawned ones would run.  On leaving the block, by return
    or by an exception, pending jobs are cancelled and the workers are
    joined, so none outlives the command.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if workers == 1:
        yield None
        return
    pool = ReplicaPool(workers)
    try:
        # a fork-context pool forks all its workers at its first submit
        pool.submit(os.getpid).result()
        yield pool
    finally:
        pool.shutdown(cancel_futures=True)


def sample_replicas(
    spec: NetworkSpec,
    n_replicas: int,
    n_channels: int = 1,
    pool: ReplicaPool | None = None,
) -> ReplicaSet:
    """Independent forward runs, simulated in blocks of replicas.

    Channels within one replica come from the same network realization (they
    are exchangeable, not independent, at finite C); across replicas
    everything is independent.  Block b holds replicas [b*B, (b+1)*B) with
    B = :func:`replica_block_size`, and draws from ``replica_rng(spec.seed, b)``.
    Every block draws all B replicas, so the first k replicas do not depend
    on ``n_replicas``, and output channels are drawn one after another, so
    the first channels do not depend on ``n_channels``.  With a ``pool``
    (:func:`replica_pool`) of W workers, the blocks are split into up to W
    contiguous ranges of whole blocks, one pool job each; without a pool, or
    with a single block, they run in the calling process.  The results do
    not depend on the pool or its worker count.
    """
    if n_channels < 1:
        raise ValueError("n_channels must be >= 1")
    jobs = _replica_jobs(spec, n_replicas, n_channels, pool)
    if len(jobs) == 1:
        out, bias = _replica_blocks(jobs[0])
    else:
        # each part is copied in as the pool yields it, and then dropped
        out = np.empty((n_replicas, n_channels, spec.out_dim))
        bias = np.empty((n_replicas, n_channels))
        at = 0
        for part_out, part_bias in pool.map(_replica_blocks, jobs):
            out[at : at + len(part_out)] = part_out
            bias[at : at + len(part_out)] = part_bias
            at += len(part_out)
    return ReplicaSet(outputs=out, biases=bias, alpha=spec.alpha, seed=spec.seed)


def replica_cf_sums(
    spec: NetworkSpec, n_replicas: int, probes: np.ndarray, pool: ReplicaPool | None = None
) -> tuple[np.ndarray, int]:
    """The CF block sums of channel 0 of the ``n_replicas`` replicas
    :func:`sample_replicas` draws, reduced inside the replica jobs: one row
    sum_n exp(i <t, x_n>) at the ``probes`` (P, out_dim) per block of
    :func:`replica_block_size` replicas, in block order, and the count of
    replicas whose channel 0 holds a non-finite value.

    No job returns its outputs, so memory is one block of replicas per job
    and an (n_blocks, P) array here.  The block partition depends on the
    spec alone, and a row on its block's replicas alone, so the rows do not
    depend on the pool or its worker count, and
    ``cf_block_sums([(x, probes)], replica_block_size(spec))`` of channel 0
    x of the replicas themselves gives them bit for bit."""
    jobs = _replica_jobs(spec, n_replicas, 1, pool, probes)
    parts = [_replica_blocks(jobs[0])] if len(jobs) == 1 else pool.map(_replica_blocks, jobs)
    sums, bad = zip(*parts)
    return np.concatenate(sums), sum(bad)


def channel_mixture(outputs, z, biases) -> np.ndarray:
    """Weighted sum of bias-stripped channels: sum_c z_c (f_c - b_c * 1).

    ``outputs`` has channels on the second-to-last axis and flat output
    coordinates on the last; ``biases`` matches the leading axes.  Works for
    a single realization (n_channels, d) or a replica batch (N, n_channels,
    d).  The first len(z) channels enter.
    """
    outputs = np.asarray(outputs, dtype=np.float64)
    biases = np.asarray(biases, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    n = z.shape[0]
    if n > outputs.shape[-2]:
        raise IndexError(f"{n} mixture weights for {outputs.shape[-2]} channels")
    stripped = outputs[..., :n, :] - biases[..., :n, None]
    return np.einsum("c,...cd->...d", z, stripped)


# version 2: output channels drawn one at a time.  A version-1 file holds
# other draws for n_channels >= 2, so reading it as a prefix of a sweep's
# draws would be wrong; it is refused.
_CACHE_MAGIC = b"SCREPL2\x00"
_CACHE_HEADER = struct.Struct("<dqQQQ")  # alpha, seed, n, c, d


def save_replicas(path, reps: ReplicaSet) -> None:
    """Binary replica cache: magic (``SCREPL2``), alpha, seed, shape, then
    little-endian float64 output and bias blocks in replica-major order, in
    place of ``path`` once complete (:func:`stableconv.stable._replacing`).
    Contiguous float64 arrays on a little-endian host are written from
    their own memory, with no copy."""
    n, c, d = reps.outputs.shape
    with _replacing(path, "wb") as fh:
        fh.write(_CACHE_MAGIC)
        fh.write(_CACHE_HEADER.pack(reps.alpha, reps.seed, n, c, d))
        for values in (reps.outputs, reps.biases):
            fh.write(np.ascontiguousarray(values, dtype="<f8").data)


def load_replicas(path) -> ReplicaSet:
    """Read a :func:`save_replicas` file.  Its length must be exactly the
    header plus the 8 * (n*c*d + n*c) data bytes that header declares; both
    are checked before the data are read, into one float64 array."""
    start = len(_CACHE_MAGIC) + _CACHE_HEADER.size
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(start)
        magic = head[: len(_CACHE_MAGIC)]
        if magic != _CACHE_MAGIC:
            raise ValueError(
                f"{path}: starts with {magic!r}, not the replica cache magic "
                f"{_CACHE_MAGIC!r}; an older cache must be written again by `simulate`"
            )
        if len(head) < start:
            raise ValueError(f"{path}: replica cache header is truncated")
        alpha, seed, n, c, d = _CACHE_HEADER.unpack_from(head, len(_CACHE_MAGIC))
        expected = 8 * (n * c * d + n * c)
        if size - start != expected:
            raise ValueError(
                f"{path}: replica cache has {size - start} data bytes, its header "
                f"(n={n}, c={c}, d={d}) declares {expected}"
            )
        values = np.fromfile(fh, dtype="<f8", count=expected // 8).astype(np.float64, copy=False)
    return ReplicaSet(
        outputs=values[: n * c * d].reshape(n, c, d),
        biases=values[n * c * d :].reshape(n, c),
        alpha=alpha,
        seed=seed,
    )
