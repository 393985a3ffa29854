"""Run configuration: a single INI-style text file with nested sections.

One file carries the network, its inputs, the layer geometry, the Monte
Carlo budget of the limit recursion, and the verification settings.  The
parsed configuration re-renders to a canonical resolved form whose SHA-256
prefix keys the run directory, so identical configurations land in the same
place and re-runs are comparable byte for byte.  The form names a kind = file
input by its path only, so for such inputs the hash also covers the loaded
array: a file overwritten with other data gets a run directory of its own
instead of the limit measures cached from the old data.

Synthetic inputs (kind = gaussian) are generated from the configured seed on
a dedicated stream; kind = file loads a .npy array of shape
(channels, *spatial, n_inputs).
"""

from __future__ import annotations

import configparser
import hashlib
import math
from collections import namedtuple
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .limits import LimitConfig
from .network import NetworkSpec, RNG_DOMAIN_INPUTS, get_activation, rng_stream
from .tensors import ConvLayerConfig, input_tensor
from .verify import RADIUS_FACTORS


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split())


def _float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def _bool(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {text!r}") from None


# how an option's value is parsed from INI text and written back
_Kind = namedtuple("_Kind", "parse show")

_FLOAT = _Kind(_float, lambda v: f"{v:.17g}")
_INT = _Kind(int, str)
_STR = _Kind(str, str)
_INTS = _Kind(_ints, lambda v: " ".join(map(str, v)))
_BOOL = _Kind(_bool, lambda v: str(v).lower())
_OPTIONAL_INT = _Kind(
    lambda text: int(text) if text.strip() else None,
    lambda v: "" if v is None else str(v),
)


def _option(section: str, kind: _Kind, default=MISSING, key: str | None = None):
    """A RunConfig field read from ``key`` of ``[section]`` (the field's own
    name by default), with the value taken when the key is absent."""
    return field(metadata={"section": section, "key": key, "kind": kind, "default": default})


def _options():
    """(field name, section, key, kind, default) of every RunConfig field, in
    the order of the canonical text.  ``layers``, filled from the
    ``[layer.N]`` sections, is the one field without a section."""
    for f in fields(RunConfig):
        m = f.metadata
        yield f.name, m.get("section"), m.get("key") or f.name, m.get("kind"), m.get("default")


# [layer.N] keys: (key, ConvLayerConfig attribute, per-axis default)
_LAYER_KEYS = (("filter", "filter_shape", 1), ("stride", "stride", 1), ("padding", "padding", 0))


@dataclass(frozen=True)
class RunConfig:
    """A parsed run configuration.  Each field but ``layers`` is one INI
    option, declared here once with its section, key and default; the
    ``[layer.N]`` sections fill ``layers`` with chained layer geometries
    (each one's input extents are the previous one's output), in the
    canonical text between ``[input]`` and ``[limit]``."""

    alpha: float = _option("network", _FLOAT)
    sigma_w: float = _option("network", _FLOAT, 1.0)
    sigma_b: float = _option("network", _FLOAT, 1.0)
    channels: int = _option("network", _INT, 64)
    activation: str = _option("network", _STR, "tanh")
    seed: int = _option("network", _INT, 0)
    in_channels: int = _option("input", _INT, 1, key="channels")
    spatial: tuple[int, ...] = _option("input", _INTS)
    n_inputs: int = _option("input", _INT, 1, key="num_inputs")
    input_kind: str = _option("input", _STR, "gaussian", key="kind")
    input_path: str = _option("input", _STR, "", key="path")
    layers: tuple[ConvLayerConfig, ...]
    mc_samples: int = _option("limit", _INT, 10_000)
    atom_cap: int | None = _option("limit", _OPTIONAL_INT, None)
    limit_seed: int = _option("limit", _INT, 0, key="seed")
    channel_counts: tuple[int, ...] = _option("verify", _INTS, (4, 16, 64))
    n_replicas: int = _option("verify", _INT, 2000)
    n_probes: int = _option("verify", _INT, 20)
    max_sup_dist: float = _option("verify", _FLOAT, 0.05)
    require_decreasing: bool = _option("verify", _BOOL, True)
    timing_in_csv: bool = _option("verify", _BOOL, False)
    workers: int = _option("verify", _INT, 1)
    max_factorization_defect: float = _option("verify", _FLOAT, 0.07)
    max_mixture_dist: float = _option("verify", _FLOAT, 0.05)
    oracle_mc_samples: int = _option("oracle", _INT, 10_000, key="mc_samples")
    oracle_max_diag_rel_err: float = _option("oracle", _FLOAT, 0.05, key="max_diag_rel_err")

    def __post_init__(self):
        if self.n_replicas < 1:
            raise ValueError("[verify] n_replicas must be >= 1")
        if self.workers < 1:
            raise ValueError("[verify] workers must be >= 1")
        if self.n_probes < len(RADIUS_FACTORS):
            # fewer probes leave radius factors unused, and the probe set
            # then rarely reaches both a small and a large CF value
            raise ValueError(f"[verify] n_probes must be >= {len(RADIUS_FACTORS)}")
        counts = self.channel_counts
        if not counts or counts[0] < 1 or any(b <= a for a, b in zip(counts, counts[1:])):
            raise ValueError("[verify] channel_counts must be positive and strictly increasing")

    def resolved_text(self) -> str:
        """Canonical rendering; the basis of the configuration hash."""
        lines = []
        current = None
        for name, section, key, kind, _ in _options():
            if section is None:
                for i, layer in enumerate(self.layers, start=1):
                    lines += ["", f"[layer.{i}]"]
                    lines += [f"{k} = {_INTS.show(getattr(layer, a))}" for k, a, _ in _LAYER_KEYS]
            else:
                if section != current:
                    lines += ["", f"[{section}]"]
                    current = section
                lines.append(f"{key} = {kind.show(getattr(self, name))}")
        return "\n".join(lines[1:]) + "\n"

    @property
    def config_hash(self) -> str:
        return self.hash_with_inputs(self.make_inputs() if self.input_kind == "file" else None)

    def hash_with_inputs(self, inputs) -> str:
        """The configuration hash, given the array :meth:`make_inputs` returns
        (or the spec built from it holds), so a caller that has it does not
        load a kind = file input again.  Only a kind = file input's array
        enters the hash; ``inputs`` is not read otherwise."""
        digest = hashlib.sha256(self.resolved_text().encode())
        if self.input_kind == "file":
            digest.update(inputs.tobytes())
        return digest.hexdigest()[:16]

    def layer_configs(self) -> tuple[ConvLayerConfig, ...]:
        return self.layers

    def make_inputs(self):
        shape = (self.in_channels, *self.spatial, self.n_inputs)
        if self.input_kind == "gaussian":
            rng = rng_stream(self.seed, RNG_DOMAIN_INPUTS)
            return input_tensor(rng.standard_normal(shape))
        if self.input_kind == "file":
            arr = np.load(self.input_path)
            if arr.shape != shape:
                raise ValueError(
                    f"input file shape {arr.shape} does not match configured {shape}"
                )
            return input_tensor(arr)
        raise ValueError(f"unknown input kind {self.input_kind!r}")

    def build_spec(self, channels: int | None = None) -> NetworkSpec:
        return NetworkSpec(
            alpha=self.alpha,
            sigma_w=self.sigma_w,
            sigma_b=self.sigma_b,
            layers=self.layer_configs(),
            activation=get_activation(self.activation),
            channels=self.channels if channels is None else int(channels),
            inputs=self.make_inputs(),
            seed=self.seed,
        )

    def limit_config(self, mc_samples: int | None = None) -> LimitConfig:
        return LimitConfig(
            mc_samples=self.mc_samples if mc_samples is None else int(mc_samples),
            atom_cap=self.atom_cap,
            seed=self.limit_seed,
        )


def _layer(section, spatial_in: tuple[int, ...]) -> ConvLayerConfig:
    """One [layer.N] section over the given input extents; a single value
    applies to every spatial axis."""
    values = {}
    for key, attr, default in _LAYER_KEYS:
        raw = section.get(key, fallback=None)
        vals = (default,) if raw is None else _ints(raw)
        values[attr] = vals[0] if len(vals) == 1 else vals
    return ConvLayerConfig(spatial_in=spatial_in, **values)


def load_config(path) -> RunConfig:
    """Parse an INI file.  Booleans take configparser's spellings (true/false,
    yes/no, on/off, 1/0); an unknown section or key is an error."""
    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise FileNotFoundError(path)
    if parser.defaults():
        raise ValueError("unknown section [DEFAULT]")
    values = {}
    known = {"layer.N": {key for key, _, _ in _LAYER_KEYS}}
    for name, section, key, kind, default in _options():
        if section is None:
            continue
        known.setdefault(section, set()).add(key)
        raw = parser.get(section, key, fallback=None)
        if raw is not None:
            values[name] = kind.parse(raw)
        elif default is MISSING:
            raise ValueError(f"[{section}] {key} is required")
        else:
            values[name] = default
    layer_sections = [s for s in parser.sections() if s.startswith("layer.")]
    for section in parser.sections():
        allowed = known.get("layer.N" if section in layer_sections else section)
        if allowed is None:
            raise ValueError(f"unknown section [{section}]")
        unknown = set(parser[section]) - allowed
        if unknown:
            raise ValueError(f"unknown key(s) in [{section}]: {', '.join(sorted(unknown))}")
    if not layer_sections:
        raise ValueError("at least one [layer.N] section is required")
    numbers = {}
    for s in layer_sections:
        suffix = s.removeprefix("layer.")
        if not (suffix.isascii() and suffix.isdigit()):
            raise ValueError(f"[{s}]: a layer section is [layer.N] with N a number")
        numbers[int(suffix)] = s
    # a number used twice leaves fewer keys than sections
    if sorted(numbers) != list(range(1, len(layer_sections) + 1)):
        got = ", ".join(f"[{s}]" for s in layer_sections)
        raise ValueError(f"[layer.N] sections need N = 1 to {len(layer_sections)} once each: {got}")
    layers = []
    for n in sorted(numbers):
        spatial_in = layers[-1].spatial_out if layers else values["spatial"]
        layers.append(_layer(parser[numbers[n]], spatial_in))
    values["layers"] = tuple(layers)
    return RunConfig(**values)
