"""Symmetric alpha-stable laws, each given by a discrete spectral measure on
the unit sphere: standard stable draws, exact draws and characteristic
functions of a measure's law, stratified resampling and an exact text
serialization.

A finite measure on the sphere determines a symmetric multivariate stable law
through the exponent of its characteristic function; see Samorodnitsky &
Taqqu, "Stable Non-Gaussian Random Processes" (1994), ch. 2.  Discrete
measures are stored under a symmetric-pair convention: one stored atom
(weight, direction) stands for the pair of Dirac masses at +/-direction
carrying half the weight each.  Directions are unit vectors in the Euclidean
norm of the flattened coordinates, and the flattening order is the package's
row-major convention (see :mod:`stableconv.tensors`).

A univariate law is the one-dimensional case: scale sigma is
``SpectralMeasure(alpha, [sigma**alpha], [[1.0]])``, its draws are
``sigma * sample_standard(alpha, n, rng)``, and for X with spectral measure
``measure`` the characteristic function of <u, X> at the points ``t`` (n,)
is ``cf_multivariate(measure, np.outer(t, u))``.

Standard draws use the Chambers-Mallows-Stuck transform (Chambers,
Mallows & Stuck 1976; Weron 1996), with the Gaussian and Cauchy endpoints
special-cased to avoid the trigonometric singularities there.  The uniform
and then the exponential inputs of the transform are drawn from the caller's
generator, and the transform runs on the calling thread; the replica process
pool of :mod:`stableconv.network` is the package's one parallel path.

The transform takes its sines and cosines from tangents of half angles,
because numpy computes float64 ``sin`` and ``cos`` one value at a time and
``tan`` in SIMD lanes, and it works in cache-sized blocks.  The values equal
those of the sine and cosine expression to rounding, not bit for bit (see
:func:`_cms_transform`).

A measure file is ASCII text: a header line naming its format
(``format=f64le-hex``) and giving dimension, alpha, total mass and the bias
tag, then one line per atom holding the little-endian float64 bytes of the
weight and the direction components in lowercase hex.  Encoding whole
blocks of bytes takes a twentieth of the time or less of formatting each
value as 17-digit decimal, every value is kept bit for bit, and the reader
accepts only the exact text the writer produces.
"""

from __future__ import annotations

import os
import warnings
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

# working-set budget of one block of bulk work, shared by the replica blocks
# of :mod:`stableconv.network`, the row blocks of sample_multivariate and the
# probe blocks of cf_exponent
_BLOCK_BYTES = 1 << 20

# the encoding a measure file's header names, and the float64 bytes encoded
# per block of its atom lines: the hex text of a block is twice as large
_MEASURE_FORMAT = "f64le-hex"
_HEX_BLOCK_BYTES = 1 << 18

# values per block of the CMS transform: its six block-sized arrays (v, w,
# out and three scratch blocks, 768 KiB) stay in a core's L2 cache
_CMS_BLOCK = 16384

def _cos_half_angle(x: np.ndarray, tmp: np.ndarray, den: np.ndarray) -> None:
    """cos of 2 * ``x`` in place, from t = tan(x) as (1 - t)(1 + t) / (1 + t^2);
    ``tmp`` and ``den`` are scratch."""
    np.tan(x, out=x)
    np.multiply(x, x, out=den)
    den += 1.0
    np.subtract(1.0, x, out=tmp)
    x += 1.0
    x *= tmp
    x /= den


def _cms_transform(
    alpha: float, v: np.ndarray, w: np.ndarray, out: np.ndarray, blocks: np.ndarray
) -> None:
    """The CMS transform into ``out``, elementwise:
    sin(a v) / cos(v)^(1/a) * (cos((1 - a) v) / w)^((1 - a)/a) for a = alpha,
    its quotient, powers and product taken in that order.  ``w`` is
    overwritten: its zeros become ``tiny``.

    Every sine and cosine comes from the tangent of the half angle,
    t = tan(x/2): sin x = 2t / (1 + t^2) and cos x = (1 - t)(1 + t) / (1 + t^2).
    numpy computes float64 ``sin`` and ``cos`` one value at a time and
    ``tan`` in SIMD lanes: on an AVX-512 x86-64 core with numpy 2.4 they
    take about 12 ns and 3 ns a value, so the three trigonometric calls fall
    from about 36 ns to 9 ns.  Where ``tan`` runs scalar too, both forms
    cost about the same.  The half angles a v / 2, v / 2 and (1 - a) v / 2
    are the rounded products a v, v and (1 - a) v halved exactly, so every
    value equals the sine and cosine form to rounding: within a few ulp
    times 1 / cos v, the factor coming from 1 - t as v nears +/-pi/2.  The
    two powers are not folded into one (Weron's form): that saves about
    3 ns but under- or overflows at w <= 1e-300, where this form stays
    finite.

    The work runs over contiguous blocks of ``_CMS_BLOCK`` values with three
    scratch blocks, the rows of ``blocks`` (:attr:`_CmsScratch.blocks`), so
    that every temporary stays in cache."""
    v, w, out = v.reshape(-1), w.reshape(-1), out.reshape(-1)
    n = v.size
    a, b, c = blocks
    tiny = np.finfo(np.float64).tiny
    for start in range(0, n, _CMS_BLOCK):
        stop = min(start + _CMS_BLOCK, n)
        vb, wb, ob = v[start:stop], w[start:stop], out[start:stop]
        ta, tb, tc = a[: stop - start], b[: stop - start], c[: stop - start]
        wb[wb == 0.0] = tiny
        # sin(a v) = 2t / (1 + t^2), t = tan(a v / 2)
        np.multiply(vb, 0.5 * alpha, out=ob)
        np.tan(ob, out=ob)
        np.multiply(ob, ob, out=ta)
        ta += 1.0
        ob += ob
        ob /= ta
        # / cos(v)^(1/a)
        np.multiply(vb, 0.5, out=ta)
        _cos_half_angle(ta, tb, tc)
        ta **= 1.0 / alpha
        ob /= ta
        # * (cos((1 - a) v) / w)^((1 - a)/a)
        np.multiply(vb, 0.5 * (1.0 - alpha), out=ta)
        _cos_half_angle(ta, tb, tc)
        ta /= wb
        ta **= (1.0 - alpha) / alpha
        ob *= ta


class _CmsScratch:
    """The inputs and scratch of up to ``n`` CMS draws: uniforms ``v``,
    exponentials ``w`` and the transform's three ``blocks``.  A caller that
    draws many times keeps one and passes it to every
    :func:`sample_standard` call, so no draw allocates."""

    def __init__(self, n: int):
        self.v = np.empty(n)
        self.w = np.empty(n)
        self.blocks = np.empty((3, min(n, _CMS_BLOCK)))


def sample_standard(
    alpha: float,
    size,
    rng: np.random.Generator,
    out: np.ndarray | None = None,
    scratch: _CmsScratch | None = None,
) -> np.ndarray:
    """An array of shape ``size`` (a count or a tuple of counts) of draws
    with characteristic function exp(-|t|^alpha), i.e. symmetric stable with
    unit scale.

    Gaussian (alpha = 2) and Cauchy (alpha = 1) use their closed forms; other
    indices use the Chambers-Mallows-Stuck transform of uniform and then
    exponential inputs drawn from ``rng``, on the calling thread.  The draws
    are written into ``out`` when it is given (a C-contiguous float64 array
    of shape ``size``) and into a new array otherwise; the CMS branch takes
    its inputs and scratch from ``scratch`` (:class:`_CmsScratch`, at least
    ``out.size`` long) when it is given.  Both leave every value as it is:
    ``rng.random(out=v)`` scaled by pi and shifted by -pi/2 in place is
    ``rng.uniform(-pi/2, pi/2)`` bit for bit, and numpy's Gaussian and
    exponential draws into ``out`` equal its fresh ones.  The Cauchy branch
    copies numpy's draws into ``out``: ``standard_cauchy`` takes no ``out``.
    """
    if not 0.0 < alpha <= 2.0:
        raise ValueError(f"alpha must be in (0, 2], got {alpha}")
    shape = tuple(size) if np.iterable(size) else (size,)
    if not all(isinstance(n, (int, np.integer)) for n in shape):
        raise ValueError(f"size must be a count or a tuple of counts, got {size!r}")
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape:
        raise ValueError(f"out has shape {out.shape}, not the size {size}")
    if alpha == 2.0:
        rng.standard_normal(out=out)
        out *= np.sqrt(2.0)
        return out
    if alpha == 1.0:
        out[...] = rng.standard_cauchy(size)
        return out
    n = out.size
    if scratch is None:
        scratch = _CmsScratch(n)
    v, w = scratch.v[:n], scratch.w[:n]
    rng.random(out=v)
    v *= np.pi
    v -= np.pi / 2.0
    rng.standard_exponential(out=w)
    _cms_transform(alpha, v, w, out, scratch.blocks)
    return out


@dataclass(frozen=True)
class SpectralMeasure:
    """Discrete spectral measure of a symmetric multivariate stable law.

    ``weights[j]`` is the total mass of the symmetric atom pair at
    ``+/- directions[j]`` (half on each sign).  All directions are unit
    vectors; all weights are positive and finite.  ``bias_index``, when set,
    marks the atom contributed by the bias term of a network layer so that
    downstream transforms can strip it exactly.
    """

    alpha: float
    weights: np.ndarray
    directions: np.ndarray
    bias_index: int | None = None

    _UNIT_TOL = 1e-12

    def __post_init__(self):
        if not 0.0 < self.alpha <= 2.0:
            raise ValueError(f"alpha must be in (0, 2], got {self.alpha}")
        w = np.atleast_1d(np.asarray(self.weights, dtype=np.float64))
        d = np.asarray(self.directions, dtype=np.float64)
        if d.ndim != 2:
            raise ValueError("directions must be a (n_atoms, dimension) array")
        if w.shape != (d.shape[0],):
            raise ValueError("one weight per direction required")
        if w.size and not np.all((w > 0.0) & np.isfinite(w)):
            raise ValueError("atom weights must be positive and finite")
        if d.size:
            # einsum sums the squares without a full-size temporary; a
            # direction with a NaN or infinite component has a NaN or
            # infinite norm, which fails the <= below
            norms = np.sqrt(np.einsum("ij,ij->i", d, d))
            if not np.max(np.abs(norms - 1.0)) <= self._UNIT_TOL:
                raise ValueError("atom directions must be unit vectors")
        if self.bias_index is not None and not 0 <= self.bias_index < w.shape[0]:
            raise ValueError("bias_index out of range")
        w.setflags(write=False)
        d.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "directions", d)

    @property
    def dimension(self) -> int:
        return self.directions.shape[1]

    @property
    def n_atoms(self) -> int:
        return self.weights.shape[0]

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    @property
    def bias_mass(self) -> float:
        return 0.0 if self.bias_index is None else float(self.weights[self.bias_index])


def empty_measure(alpha: float, dimension: int) -> SpectralMeasure:
    """The null measure; its law is degenerate at zero."""
    return SpectralMeasure(
        alpha, np.zeros(0), np.zeros((0, dimension)), bias_index=None
    )


def cf_multivariate(measure: SpectralMeasure, probes) -> np.ndarray:
    """Characteristic function of the stable law with the given spectral
    measure at each probe t of ``probes``, an (n, d) batch; any other shape
    raises ``ValueError``.

    Returns exp(-sum_j w_j |<t, s_j>|^alpha), shape (n,); real because the
    measure is symmetric.
    """
    probes = np.asarray(probes, dtype=np.float64)
    if probes.ndim != 2 or probes.shape[1] != measure.dimension:
        raise ValueError(f"probes must be an (n, {measure.dimension}) array, got shape "
                         f"{probes.shape}")
    if measure.n_atoms == 0:
        return np.ones(len(probes))
    return np.exp(-cf_exponent(measure, probes))


def cf_exponent(measure: SpectralMeasure, probes: np.ndarray) -> np.ndarray:
    """sum_j w_j |<t, s_j>|^alpha at each probe t of ``probes`` (n, d): minus
    the log of :func:`cf_multivariate`.

    The probes go in row blocks of :func:`_coefficient_rows` rows, so one
    block's (rows, n_atoms) product fits in ``_BLOCK_BYTES`` (one row at
    least): memory is one such block, allocated once per call, not
    n x n_atoms.  Within a block the absolute value and power are taken in
    place, in the same operations as ``np.abs(probes @ directions.T) ** alpha
    @ weights``, so probes that fit in one block get those values bit for
    bit.  Over several blocks the matrix products may round differently:
    up to 6e-15 relative at 300k atoms."""
    rows = _coefficient_rows(max(measure.n_atoms, 1))
    n = len(probes)
    out = np.empty(n)
    values = np.empty((min(rows, n), measure.n_atoms))
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        block = values[: stop - start]
        np.matmul(probes[start:stop], measure.directions.T, out=block)
        np.abs(block, out=block)
        block **= measure.alpha
        np.matmul(block, measure.weights, out=out[start:stop])
    return out


def _wave_sum(phases: np.ndarray, waves: np.ndarray, out: np.ndarray) -> None:
    """``np.exp(1j * phases).sum(axis=0)`` into ``out`` bit for bit, through
    ``waves``, a complex buffer of the phases' shape: the reduction of every
    empirical CF block."""
    np.multiply(1j, phases, out=waves)
    np.exp(waves, out=waves)
    waves.sum(axis=0, out=out)


def cf_block_sums(samples: np.ndarray, probes: np.ndarray, rows: int) -> np.ndarray:
    """sum_n exp(i <t, x_n>) over each block of ``rows`` consecutive
    ``samples`` (N, d) at each probe t of ``probes`` (P, d), one complex row
    per block, in block order: (n_blocks, P).

    Each block's samples are made contiguous before their product with the
    probes, so a strided view (channel 0 of a many-channel replica set)
    gives bit for bit the rows of a contiguous copy, and a block's row
    depends only on that block's samples, not on the others: rows computed
    in separate jobs over the same partition equal those of one call.  A
    block's phases and complex exponentials (:func:`_wave_sum`) go into two
    buffers allocated once per call, 8 and 16 bytes per sample and probe.
    """
    n, n_probes = len(samples), len(probes)
    sums = np.empty((-(-n // rows), n_probes), dtype=complex)
    size = min(rows, n)
    phases, waves = np.empty((size, n_probes)), np.empty((size, n_probes), dtype=complex)
    for i, start in enumerate(range(0, n, rows)):
        stop = min(start + rows, n)
        ph = phases[: stop - start]
        np.matmul(np.ascontiguousarray(samples[start:stop]), probes.T, out=ph)
        _wave_sum(ph, waves[: stop - start], sums[i])
    return sums


class _CoefficientScratch:
    """The coefficient block of :func:`sample_multivariate`, up to ``rows``
    draws of ``n_atoms`` coefficients, and the :class:`_CmsScratch` that
    fills it; none at alpha = 1 and 2, whose branches of
    :func:`sample_standard` take no scratch.  A caller that draws from
    several measures of one atom count keeps one and passes it to each
    call."""

    def __init__(self, alpha: float, n_atoms: int, rows: int):
        self.block = np.empty((rows, n_atoms))
        self.cms = None if alpha in (1.0, 2.0) else _CmsScratch(self.block.size)


def _coefficient_rows(n_atoms: int) -> int:
    """Rows of one block of ``n_atoms`` float64 values each within
    ``_BLOCK_BYTES`` (one at least): the coefficient blocks of
    :func:`sample_multivariate` and the probe blocks of :func:`cf_exponent`."""
    return max(1, _BLOCK_BYTES // (8 * n_atoms))


def sample_multivariate(
    measure: SpectralMeasure,
    rng: np.random.Generator,
    size: int,
    out: np.ndarray | None = None,
    scratch: _CoefficientScratch | None = None,
) -> np.ndarray:
    """``size`` exact draws from the stable law of a discrete spectral
    measure, always a (size, dimension) array.

    Each atom pair contributes an independent symmetric stable coefficient
    scaled by weight^(1/alpha) along its direction; the characteristic
    function of the sum telescopes to :func:`cf_multivariate`.

    Draws are made in row blocks of ``_BLOCK_BYTES // (8 * n_atoms)`` rows
    (at least one): each block draws its (rows, n_atoms) coefficients in one
    call, into one coefficient block and one :class:`_CmsScratch`, and
    projects them straight into the output.  Memory is therefore bounded by
    one block plus the (size, dimension) output, not by size * n_atoms.
    The draws go into ``out`` when it is given, a (size, dimension) array,
    and the coefficients into ``scratch`` (:class:`_CoefficientScratch` of
    the measure's alpha and atom count, with at least min(rows, size)
    rows); otherwise both are allocated once per call.  Neither changes a
    value.  Because each block draws all its uniforms before its
    exponentials, the values depend on the block partition; that partition
    depends only on the atom count, so equal seeds still give equal draws,
    and a request that fits in one block equals a single whole draw.
    """
    if not isinstance(size, (int, np.integer)):
        raise ValueError(f"size must be a count, got {size!r}")
    if out is None:
        out = np.empty((size, measure.dimension))
    if measure.n_atoms == 0:
        warnings.warn("sampling an empty spectral measure: draws are all zero")
        out[...] = 0.0
        return out
    scales = measure.weights ** (1.0 / measure.alpha)
    rows = _coefficient_rows(measure.n_atoms)
    if scratch is None:
        scratch = _CoefficientScratch(measure.alpha, measure.n_atoms, min(rows, size))
    for start in range(0, size, rows):
        stop = min(start + rows, size)
        z = sample_standard(measure.alpha, (stop - start, measure.n_atoms), rng,
                            out=scratch.block[: stop - start], scratch=scratch.cms)
        z *= scales
        np.matmul(z, measure.directions, out=out[start:stop])
    return out


def _compressed_size(measure: SpectralMeasure, target: int) -> int:
    """Atom count of :func:`compress_measure` of ``measure``."""
    n_bias = 0 if measure.bias_index is None else 1
    return n_bias + min(measure.n_atoms - n_bias, target)


def compress_measure(
    measure: SpectralMeasure, target: int, rng: np.random.Generator
) -> SpectralMeasure:
    """Mass-preserving stratified resampling of the non-bias atoms down to
    ``target``.

    A tagged bias atom is kept exactly: it goes first, with its weight, and
    is tagged 0.  The cumulative weight of the other atoms is cut into
    ``target`` equal slices and one atom is drawn at an independent uniform
    point of each (``target`` draws).  Every surviving atom carries their
    total mass / target, so the expected measure is preserved.  The picks
    are independent across slices, so their error cannot line up with a
    periodic order of the atoms, as one offset shared by every slice
    (systematic resampling) does on a Monte Carlo measure's blocks of one
    atom per filter offset.  A measure with at most ``target`` non-bias
    atoms is returned unchanged and consumes no random numbers.
    """
    if target < 1:
        raise ValueError("target must be >= 1")
    if _compressed_size(measure, target) == measure.n_atoms:
        return measure
    b = measure.bias_index
    rest = np.flatnonzero(np.arange(measure.n_atoms) != b)
    weights = measure.weights[rest]
    total = float(weights.sum())
    cum = np.cumsum(weights)
    cum[-1] = total
    points = (np.arange(target) + rng.uniform(size=target)) / target * total
    picks = rest[np.minimum(np.searchsorted(cum, points, side="left"), len(rest) - 1)]
    head = slice(0) if b is None else slice(b, b + 1)
    return SpectralMeasure(
        measure.alpha,
        np.concatenate([measure.weights[head], np.full(target, total / target)]),
        np.concatenate([measure.directions[head], measure.directions[picks]]),
        bias_index=None if b is None else 0,
    )


def _measure_text(measure: SpectralMeasure) -> Iterator[str]:
    """The text of :func:`dump_measure` in pieces: the header line, then the
    atom lines of at most ``_HEX_BLOCK_BYTES`` of float64 values at a time,
    so that one block of atoms, not the whole measure, is held as text."""
    header = (
        f"format={_MEASURE_FORMAT} dimension={measure.dimension} "
        f"alpha={measure.alpha:.17g} total_mass={measure.total_mass:.17g}"
    )
    if measure.bias_index is not None:
        header += f" bias_index={measure.bias_index}"
    yield header + "\n"
    row_bytes = 8 * (measure.dimension + 1)
    rows = max(1, _HEX_BLOCK_BYTES // row_bytes)
    for start in range(0, measure.n_atoms, rows):
        stop = start + rows
        block = np.column_stack([measure.weights[start:stop], measure.directions[start:stop]])
        yield block.astype("<f8", copy=False).tobytes().hex("\n", row_bytes) + "\n"


def dump_measure(measure: SpectralMeasure) -> str:
    """Serialize to the measure text format: a header naming the format, then
    dimension, alpha and total mass to 17 significant digits (plus the bias
    tag when present), then one line per atom, the little-endian float64
    bytes of the weight and the direction components in lowercase hex.  The
    values are exact, and equal measures give equal text."""
    return "".join(_measure_text(measure))


def load_measure(text: str) -> SpectralMeasure:
    """Parse the text :func:`dump_measure` writes, and only that text: the
    decoded measure must dump back to ``text`` exactly, so a cut or
    re-wrapped atom line, uppercase hex, trailing text, a header total
    that is not the atoms' sum to the last bit, or a file of another
    format raises ``ValueError``."""
    header, _, body = text.partition("\n")
    fields = dict(tok.partition("=")[::2] for tok in header.split())
    if fields.get("format") != _MEASURE_FORMAT:
        raise ValueError(f"not a format={_MEASURE_FORMAT} measure file")
    missing = {"dimension", "alpha", "total_mass"} - fields.keys()
    if missing:
        raise ValueError(f"measure header lacks {', '.join(sorted(missing))}")
    dimension = int(fields["dimension"])
    bias_index = int(fields["bias_index"]) if "bias_index" in fields else None
    # fromhex skips the line breaks; a row count that is not whole, or a
    # dimension below 0, fails the reshape
    values = np.frombuffer(bytes.fromhex(body), dtype="<f8").reshape(-1, dimension + 1)
    measure = SpectralMeasure(
        float(fields["alpha"]),
        values[:, 0].astype(np.float64),
        values[:, 1:].astype(np.float64),
        bias_index=bias_index,
    )
    # compared piece by piece, so that no second copy of the text is held
    pos = 0
    for piece in _measure_text(measure):
        if not text.startswith(piece, pos):
            pos += len(os.path.commonprefix([piece, text[pos : pos + len(piece)]]))
            break
        pos += len(piece)
    else:
        if pos == len(text):
            return measure
    line = text.count("\n", 0, pos) + 1
    raise ValueError(f"line {line} is not the text its measure dumps to")


@contextmanager
def _replacing(path, mode: str):
    """A file opened with ``mode`` next to ``path`` that replaces ``path``
    only once written in full; os.replace within one directory is atomic.
    A write that raises, or a process that dies, part-way leaves the
    previous file, or none, at ``path``; a write that raises also removes
    the partial file."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def save_measure(measure: SpectralMeasure, path) -> None:
    """Write :func:`dump_measure`'s text one header and one block of atom
    lines at a time, in place of ``path`` once complete
    (:func:`_replacing`)."""
    with _replacing(path, "w") as fh:
        fh.writelines(_measure_text(measure))


def read_measure(path) -> SpectralMeasure:
    """:func:`load_measure` of the file at ``path``; its ``ValueError``, for
    any text :func:`save_measure` would not write, names the file."""
    try:
        with open(path) as fh:
            return load_measure(fh.read())
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
