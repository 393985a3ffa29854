"""Which stableconv calls the traced run wraps, and how its spans become the
per-layer metrics named in ``BENCHMARK.json``.

A metric is ``<module>.<call>.<quantity>``.  A metric whose call a workload
never makes reads 0 (no replicas on deep-limit, no oracle on toy-pipeline).
Byte counts of arrays are computed from their shapes, not measured.
"""

from __future__ import annotations

import os
import resource
from collections import defaultdict

from tracing import Span, Target, self_times

CHANNELS = (4, 16, 64, 256)  # every channel count any workload sweeps
LAYERS = (1, 2, 3, 4)  # every layer index any workload has
COMMANDS = ("limit", "simulate", "verify", "oracle")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _file_bytes(index, name):
    def probe(args, kwargs, result):
        return {"bytes": os.path.getsize(_arg(args, kwargs, index, name))}

    return probe


def _replicas(args, kwargs, result):
    return {"C": _arg(args, kwargs, 0, "spec").channels, "replicas": result.n_replicas}


def _layer(args, kwargs, result):
    return {"atoms": result.n_atoms, "rss_mb": _rss_mb()}


def _size(array) -> int:
    return getattr(array, "size", 1)  # a scalar for a single probe or draw


def _multivariate_bytes(args, kwargs, result):
    measure = _arg(args, kwargs, 0, "measure")
    return {"bytes": _size(result) // measure.dimension * measure.n_atoms * 8}


def _compress(args, kwargs, result):
    return {"atoms_in": _arg(args, kwargs, 0, "measure").n_atoms, "atoms_out": result.n_atoms}


def _sample_probes(args, kwargs, result):
    samples = _arg(args, kwargs, 0, "samples")
    return {"sample_probes": len(samples) * _size(result)}


def _atom_probes(args, kwargs, result):
    return {"atom_probes": _arg(args, kwargs, 0, "measure").n_atoms * _size(result)}


TARGETS = (
    Target("config.load_config", "stableconv.config", "load_config"),
    *(Target(f"cli.{c}", "stableconv.cli", f"cmd_{c}") for c in COMMANDS),
    Target("network.sample_replicas", "stableconv.network", "sample_replicas", _replicas),
    Target("network.forward_finite", "stableconv.network", "forward_finite"),
    Target("network.replica_rng", "stableconv.network", "replica_rng"),
    Target(
        "stable.sample_standard",
        "stableconv.stable",
        "sample_standard",
        lambda a, k, r: {"draws": _size(r)},
    ),
    Target(
        "tensors.gather",
        "stableconv.tensors",
        "PatchMap.gather",
        lambda a, k, r: {"bytes_out": r.nbytes},
    ),
    Target("limits.limit_measures", "stableconv.limits", "limit_measures"),
    Target("limits.gamma_first", "stableconv.limits", "gamma_first", _layer),
    Target("limits.gamma_next_mc", "stableconv.limits", "gamma_next_mc", _layer),
    Target(
        "stable.sample_multivariate", "stableconv.stable", "sample_multivariate", _multivariate_bytes
    ),
    Target("limits.compress_measure", "stableconv.stable", "compress_measure", _compress),
    Target("stable.save_measure", "stableconv.stable", "save_measure", _file_bytes(1, "path")),
    Target("network.save_replicas", "stableconv.network", "save_replicas", _file_bytes(0, "path")),
    Target("network.load_replicas", "stableconv.network", "load_replicas", _file_bytes(0, "path")),
    Target("verify.empirical_cf", "stableconv.verify", "empirical_cf", _sample_probes),
    Target("stable.cf_multivariate", "stableconv.stable", "cf_multivariate", _atom_probes),
    Target("verify.generate_probes", "stableconv.verify", "generate_probes"),
    Target("verify.independence_check", "stableconv.verify", "independence_check"),
    Target("verify.gaussian_oracle_check", "stableconv.verify", "gaussian_oracle_check"),
)

# called once or more per replica: counted, not kept as spans
HOT = frozenset(
    {"network.forward_finite", "network.replica_rng", "stable.sample_standard", "tensors.gather"}
)


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def trace_metrics(spans: list[Span], totals: dict[str, dict[str, float]]) -> dict[str, float]:
    """Per-layer metrics of one traced execution."""
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def seconds(name):
        return sum(s.end - s.start for s in by_name.get(name, ()))

    def summed(name, key):
        return sum(s.data.get(key, 0) for s in by_name.get(name, ()))

    def hot(name, key):
        return totals.get(name, {}).get(key, 0)

    out: dict[str, float] = {}
    for c in CHANNELS:
        calls = [s for s in by_name.get("network.sample_replicas", ()) if s.data["C"] == c]
        secs = sum(s.end - s.start for s in calls)
        out[f"network.sample_replicas.s.C{c}"] = secs
        out[f"network.replicas_per_s.C{c}"] = _ratio(sum(s.data["replicas"] for s in calls), secs)
    out["network.sample_replicas.replicas"] = summed("network.sample_replicas", "replicas")
    out["network.forward_finite.calls"] = hot("network.forward_finite", "calls")
    out["network.replica_rng.calls"] = hot("network.replica_rng", "calls")
    out["network.replica_rng.s"] = hot("network.replica_rng", "s")
    for key in ("calls", "draws", "s"):
        out[f"stable.sample_standard.{key}"] = hot("stable.sample_standard", key)
    out["stable.draws_per_s"] = _ratio(
        hot("stable.sample_standard", "draws"), hot("stable.sample_standard", "s")
    )

    # the k-th measure built inside one limit_measures call is layer k
    layers = defaultdict(lambda: {"s": 0.0, "atoms": 0, "rss_mb": 0.0})
    for parent in by_name.get("limits.limit_measures", ()):
        built = sorted(
            (s for s in spans if s.parent == parent.id and s.name.startswith("limits.gamma_")),
            key=lambda s: s.start,
        )
        for l, s in enumerate(built, start=1):
            row = layers[l]
            row["s"] += s.end - s.start
            row["atoms"] = max(row["atoms"], s.data["atoms"])
            row["rss_mb"] = max(row["rss_mb"], s.data["rss_mb"])
    for l in LAYERS:
        for key, value in layers[l].items():
            out[f"limits.layer{l}.{key}"] = value

    out["stable.sample_multivariate.s"] = seconds("stable.sample_multivariate")
    out["stable.sample_multivariate.bytes"] = summed("stable.sample_multivariate", "bytes")
    out["limits.compress_measure.atoms_in"] = summed("limits.compress_measure", "atoms_in")
    out["limits.compress_measure.atoms_out"] = summed("limits.compress_measure", "atoms_out")
    for name in ("stable.save_measure", "network.save_replicas", "network.load_replicas"):
        out[f"{name}.s"] = seconds(name)
        out[f"{name}.bytes"] = summed(name, "bytes")
    out["tensors.gather.calls"] = hot("tensors.gather", "calls")
    out["tensors.gather.s"] = hot("tensors.gather", "s")
    out["tensors.gather.bytes_out"] = hot("tensors.gather", "bytes_out")
    out["verify.empirical_cf.s"] = seconds("verify.empirical_cf")
    out["verify.empirical_cf.sample_probes"] = summed("verify.empirical_cf", "sample_probes")
    out["stable.cf_multivariate.s"] = seconds("stable.cf_multivariate")
    out["stable.cf_multivariate.atom_probes"] = summed("stable.cf_multivariate", "atom_probes")
    for name in ("generate_probes", "independence_check", "gaussian_oracle_check"):
        out[f"verify.{name}.s"] = seconds(f"verify.{name}")
    out["config.load_config.s"] = seconds("config.load_config")
    for c in COMMANDS:
        calls = by_name.get(f"cli.{c}", ())
        out[f"cli.{c}.s"] = sum(s.end - s.start for s in calls)
        out[f"cli.{c}.self_s"] = sum(selfs[s.id] for s in calls)
    return out


def _per_layer() -> tuple[tuple[str, str, str], ...]:
    rows = []
    for c in CHANNELS:
        rows += [
            (f"network.sample_replicas.s.C{c}", "s", "lower"),
            (f"network.replicas_per_s.C{c}", "1/s", "higher"),
        ]
    rows += [
        ("network.sample_replicas.replicas", "count", "higher"),
        ("network.forward_finite.calls", "count", "lower"),
        ("network.replica_rng.calls", "count", "lower"),
        ("network.replica_rng.s", "s", "lower"),
        ("stable.sample_standard.calls", "count", "lower"),
        ("stable.sample_standard.draws", "count", "lower"),
        ("stable.sample_standard.s", "s", "lower"),
        ("stable.draws_per_s", "1/s", "higher"),
    ]
    for l in LAYERS:
        rows += [
            (f"limits.layer{l}.s", "s", "lower"),
            (f"limits.layer{l}.atoms", "count", "lower"),
            (f"limits.layer{l}.rss_mb", "MB", "lower"),
        ]
    rows += [
        ("stable.sample_multivariate.s", "s", "lower"),
        ("stable.sample_multivariate.bytes", "B", "lower"),
        ("limits.compress_measure.atoms_in", "count", "lower"),
        ("limits.compress_measure.atoms_out", "count", "lower"),
        ("stable.save_measure.s", "s", "lower"),
        ("stable.save_measure.bytes", "B", "lower"),
        ("stable.read_measure.s", "s", "lower"),
        ("network.save_replicas.s", "s", "lower"),
        ("network.save_replicas.bytes", "B", "lower"),
        ("network.load_replicas.s", "s", "lower"),
        ("network.load_replicas.bytes", "B", "lower"),
        ("tensors.gather.calls", "count", "lower"),
        ("tensors.gather.s", "s", "lower"),
        ("tensors.gather.bytes_out", "B", "lower"),
        ("verify.empirical_cf.s", "s", "lower"),
        ("verify.empirical_cf.sample_probes", "count", "higher"),
        ("stable.cf_multivariate.s", "s", "lower"),
        ("stable.cf_multivariate.atom_probes", "count", "lower"),
        ("verify.generate_probes.s", "s", "lower"),
        ("verify.independence_check.s", "s", "lower"),
        ("verify.gaussian_oracle_check.s", "s", "lower"),
    ]
    rows += [(f"verify.sup_cf_dist.C{c}", "1", "lower") for c in CHANNELS]
    rows += [
        ("verify.noise_floor", "1", "lower"),
        ("verify.decrease_margin", "1", "higher"),
        ("verify.oracle_diag_rel_err", "1", "lower"),
        ("config.load_config.s", "s", "lower"),
    ]
    for c in COMMANDS:
        rows += [(f"cli.{c}.s", "s", "lower"), (f"cli.{c}.self_s", "s", "lower")]
    rows += [("trace.overhead_s", "s", "lower"), ("trace.overhead_ratio", "ratio", "lower")]
    return tuple(rows)


# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = _per_layer()
