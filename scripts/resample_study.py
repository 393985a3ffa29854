"""Seed study of the rule that draws a Monte Carlo layer's fields.

Usage, from the root of a checkout::

    python3 scripts/resample_study.py M SEEDS

Runs the 4-layer toy stack of the test suite (one input channel on 4
positions, two standard normal inputs drawn at seed 0, four 3-tap layers
with padding 1, alpha = 1.5, tanh) at ``mc_samples`` = M for limit seeds
0 .. SEEDS-1 under four field rules:

* ``full``: every layer draws its M fields from the previous measure with
  all its atoms, the reference;
* ``K=M``: one resample of the non-bias atoms to M, shared by all M fields
  (the rule before field groups);
* ``shared K=M/10``: one resample to ceil(M / 10), shared by all M fields;
* ``grouped K=M/10``: the package's rule, ten groups of fields, each from
  its own resample to ceil(M / 10).

Each rule is compared with ``full`` on the CF of layers 3 and 4 at 20
probes, paired by seed.  For each it prints the median seconds of one
4-layer run; the median over probes of the CF's seed s.d. per layer; the
largest |z| of the mean CF gap over its standard error, over probes and
both layers; chi^2 / P, the mean of z^2; and the spread ratio per layer,
the median over probes of the rule's seed s.d. over full's.  The test
suite bounds the agreement at |z| <= 3 and spread ratio <= 1.5.
"""

from __future__ import annotations

import contextlib
import sys
import time
from unittest import mock

import numpy as np

import stableconv as sc
from stableconv import limits


def toy_spec(n_layers: int) -> sc.NetworkSpec:
    layer = sc.ConvLayerConfig(spatial_in=4, filter_shape=3, stride=1, padding=1)
    return sc.NetworkSpec(
        alpha=1.5,
        sigma_w=1.0,
        sigma_b=1.0,
        layers=(layer,) * n_layers,
        activation=sc.get_activation("tanh"),
        channels=64,
        inputs=sc.input_tensor(np.random.default_rng(0).standard_normal((1, 4, 2))),
        seed=11,
    )


def _one_group(source, n_draws):
    return [n_draws]


def _to_tenth(measure, target, rng):
    return sc.compress_measure(measure, -(-target // 10), rng)


# the names each rule rebinds in stableconv.limits
RULES = {
    "full": {"compress_measure": lambda measure, target, rng: measure},
    "K=M": {"_field_groups": _one_group},
    "shared K=M/10": {"_field_groups": _one_group, "compress_measure": _to_tenth},
    "grouped K=M/10": {},
}


def layer_cfs(rule: str, m: int, seeds: int, probes: np.ndarray):
    """(seed, layer 3 / 4, probe) CFs under ``rule``, and the seconds of
    each seed's 4-layer run."""
    cfs, seconds = [], []
    spec = toy_spec(4)
    for seed in range(seeds):
        names = RULES[rule]
        with mock.patch.multiple(limits, **names) if names else contextlib.nullcontext():
            t0 = time.perf_counter()
            stack = sc.limit_measures(spec, sc.LimitConfig(mc_samples=m, seed=seed))
            seconds.append(time.perf_counter() - t0)
        cfs.append([sc.cf_multivariate(measure, probes) for measure in stack[2:]])
    return np.array(cfs), np.array(seconds)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2 or not all(a.isdigit() for a in args) or int(args[1]) < 2:
        print("usage: python3 scripts/resample_study.py M SEEDS  (SEEDS >= 2)", file=sys.stderr)
        return 2
    m, seeds = int(args[0]), int(args[1])
    if m < 1:
        print("M must be >= 1", file=sys.stderr)
        return 2
    probe_src = sc.limit_measures(toy_spec(2), sc.LimitConfig(mc_samples=m, seed=99))
    probes = sc.generate_probes(probe_src[-1], n_probes=20, seed=5).probes[1:]
    full, full_s = layer_cfs("full", m, seeds, probes)
    full_sd = full.std(axis=0, ddof=1)
    print(f"M = {m}, {seeds} limit seeds, {probes.shape[0]} probes; CFs of layers 3 and 4")
    print(
        f"{'rule':<16} {'run s':>7} {'CF s.d. 3 / 4':>17} "
        f"{'max|z|':>7} {'chi2/P':>7} {'spread 3 / 4':>13}"
    )

    def row(rule, run_s, sd, stats=""):
        sd3, sd4 = np.median(sd, axis=-1)
        print(f"{rule:<16} {np.median(run_s):7.3f} {sd3:8.5f} / {sd4:.5f}{stats}")

    row("full", full_s, full_sd)
    for rule in RULES:
        if rule == "full":
            continue
        cfs, run_s = layer_cfs(rule, m, seeds, probes)
        gap = cfs - full  # paired by seed
        z = gap.mean(axis=0) / (gap.std(axis=0, ddof=1) / np.sqrt(seeds))
        sd = cfs.std(axis=0, ddof=1)
        s3, s4 = np.median(sd / full_sd, axis=-1)
        stats = f" {np.max(np.abs(z)):7.2f} {np.mean(z**2):7.2f} {s3:6.2f} / {s4:.2f}"
        row(rule, run_s, sd, stats)
    return 0


if __name__ == "__main__":
    sys.exit(main())
