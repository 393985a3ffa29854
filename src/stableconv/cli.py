"""Batch command-line entry points.

Subcommands::

    limit      compute and cache the per-layer limit measures
    simulate   finite-channel replica generation into a binary cache
    verify     channel sweep with CF distances and pass/fail checks
    oracle     alpha = 2 Gaussian covariance cross-check
    report     re-emit CSV/plot data from a finished run directory

Every command resolves the configuration file, hashes it, and works inside
``<out>/<hash>/`` so distinct configurations never collide.  The resolved
configuration and the hash are written next to the outputs, and CSV files
are byte-identical across re-runs with the same configuration and seed.
Every timed step (each limit layer, each measure or replica file written or
read, replica sampling, the sweep's probe set, each sweep point, the
independence and oracle checks) logs one ``stage=`` line to ``run.log`` through
:func:`stableconv.limits.stage`, with its seconds, peak resident memory and
minor page faults.
``simulate`` and ``verify`` fork their replica workers (``[verify] workers``)
once, at the start, before any measure is read or built, and join them
before they return.  The exit code is nonzero iff an enabled check fails.
"""

from __future__ import annotations

import argparse
import logging
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .config import RunConfig, load_config
from .limits import LimitConfig, gamma_first, limit_measures, mixture_measure, stage
from .network import (
    NetworkSpec,
    ReplicaPool,
    ReplicaSet,
    load_replicas,
    non_finite_rows,
    replica_block_size,
    replica_pool,
    sample_replicas,
    save_replicas,
)
from .stable import read_measure, save_measure
from .verify import (
    CSV_HEADER,
    NonFiniteReplicas,
    ProbeSet,
    convergence_sweep,
    gaussian_oracle_check,
    generate_probes,
    independence_check,
    require_finite,
    sampled_counts,
)

log = logging.getLogger("stableconv.cli")


def _make_run_dir(cfg: RunConfig, run: Path) -> None:
    """Create ``run``, which is named by the configuration hash, and write
    the resolved configuration and the hash in it."""
    run.mkdir(parents=True, exist_ok=True)
    (run / "resolved.ini").write_text(cfg.resolved_text())
    (run / "config_hash.txt").write_text(run.name + "\n")


@contextmanager
def _run_logging(run: Path):
    """Log to stderr and ``run.log`` for the block, then give the
    ``stableconv`` logger back its handlers and level, closing those added."""
    root = logging.getLogger("stableconv")
    handlers, level = root.handlers, root.level
    added = [logging.StreamHandler(sys.stderr), logging.FileHandler(run / "run.log")]
    root.handlers = added
    for h in added:
        h.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    root.setLevel(logging.INFO)
    try:
        yield
    finally:
        for h in added:
            h.close()
        root.handlers = handlers
        root.setLevel(level)


def _measure_path(run: Path, layer: int) -> Path:
    d = run / "measures"
    d.mkdir(exist_ok=True)
    return d / f"layer_{layer:02d}.txt"


def _replica_path(run: Path, channels: int) -> Path:
    return run / f"replicas_C{channels}.bin"


def _heavy_tailed_target(alpha: float, n_layers: int, beta: float) -> str | None:
    """Why no Monte Carlo limit target can be trusted for a net of
    ``n_layers`` layers at ``alpha`` whose activation has envelope exponent
    ``beta``, or None when one can.

    Below alpha = 2 every layer after the first averages terms
    h(Y) ~ |Y|^(beta * alpha) over fields Y with P(|Y| > y) ~ y^(-alpha), so
    h has tail index 1/beta.  From beta = 1/2 on its variance is infinite,
    and the mean of M terms errs like M^(-(1 - beta)) (generalized CLT;
    Samorodnitsky & Taqqu 1994): the limit seed, not the network, then
    decides a check."""
    if alpha < 2.0 and n_layers >= 2 and beta >= 0.5:
        return (f"activation envelope exponent beta = {beta:g} >= 1/2 at alpha = {alpha:g} < 2: "
                f"the Monte Carlo layers average terms of tail index 1/beta = {1 / beta:.3g} "
                "<= 2, whose variance is infinite")
    return None


def _usage_error(exc: Exception) -> int:
    """Report a bad input in one line on stderr, with no traceback; exit 2."""
    print(f"error: {exc}", file=sys.stderr)
    return 2


def _load_replica_caches(paths: dict, spec: NetworkSpec) -> dict[object, ReplicaSet]:
    """Each replica cache of ``paths`` (label -> path), logged as it is
    read.  A file :func:`load_replicas` refuses, a stale or truncated cache,
    raises its ``ValueError``, and so does a cache whose alpha, seed or
    output dimension is not ``spec``'s, naming the field; the commands read
    their caches before they write anything, so that error leaves no new
    file."""
    caches = {}
    for channels, path in paths.items():
        with stage("load_replicas", C=channels) as fields:
            reps = caches[channels] = load_replicas(path)
            for name, cached, expected in [("alpha", reps.alpha, spec.alpha),
                                           ("seed", reps.seed, spec.seed),
                                           ("output dimension", reps.outputs.shape[2], spec.out_dim)]:
                if cached != expected:
                    raise ValueError(f"{path}: replica cache has {name} {cached}, "
                                     f"the configuration {expected}")
            fields["replicas"] = reps.n_replicas
    return caches


def _compute_and_save_limit(spec: NetworkSpec, limit_cfg: LimitConfig, run: Path):
    measures = limit_measures(spec, limit_cfg)
    for layer, measure in enumerate(measures, start=1):
        with stage("save_measure", layer=layer, atoms=measure.n_atoms):
            save_measure(measure, _measure_path(run, layer))
    return measures


def cmd_limit(spec: NetworkSpec, limit_cfg: LimitConfig, run: Path) -> int:
    measures = _compute_and_save_limit(spec, limit_cfg, run)
    log.info("cached %d layer measures under %s", len(measures), run / "measures")
    return 0


def cmd_simulate(cfg: RunConfig, spec: NetworkSpec, run: Path, replicas: int | None) -> int:
    n = cfg.n_replicas if replicas is None else replicas
    counts = dict(C=spec.channels, replicas=n)
    with replica_pool(cfg.workers) as pool:
        with stage("sample_replicas", **counts, block=replica_block_size(spec)):
            reps = sample_replicas(spec, n, n_channels=2, pool=pool)
    # a cache of replicas with no CF would only fail a later `verify`
    try:
        require_finite(non_finite_rows(reps.outputs), n, spec.channels, spec.alpha)
    except NonFiniteReplicas as exc:
        log.error("check failed: %s", exc)
        return 1
    path = _replica_path(run, spec.channels)
    with stage("save_replicas", **counts):
        save_replicas(path, reps)
    log.info("wrote %s", path)
    return 0


def _write_probe_csv(run: Path, probes: ProbeSet) -> None:
    lines = ["probe_index,radius,theoretical_cf"]
    radii = np.linalg.norm(probes.probes, axis=1)
    for i, (r, c) in enumerate(zip(radii, probes.cf)):
        lines.append(f"{i},{r:.12g},{c:.12g}")
    (run / "probes.csv").write_text("\n".join(lines) + "\n")


def cmd_verify(cfg: RunConfig, spec: NetworkSpec, limit_cfg: LimitConfig, run: Path) -> int:
    # `simulate` caches at swept counts, read once and first: the sweep takes
    # channel 0 of each in place of sampling, and the largest feeds the
    # joint checks
    paths = {c: _replica_path(run, c) for c in cfg.channel_counts}
    try:
        caches = _load_replica_caches({c: p for c, p in paths.items() if p.exists()}, spec)
    except ValueError as exc:
        return _usage_error(exc)
    # the sweep's workers are forked here, before the limit measure is read
    # or built, so they start small; a sweep that caches serve whole forks
    # none
    sampling = sampled_counts(cfg.channel_counts, cfg.n_replicas, caches)
    with replica_pool(cfg.workers if sampling else 1) as pool:
        return _verify(cfg, spec, limit_cfg, run, caches, pool)


def _verify(cfg: RunConfig, spec: NetworkSpec, limit_cfg: LimitConfig, run: Path, caches: dict,
            pool: ReplicaPool | None) -> int:
    # a cached measure read is an input like the caches: one that fails to
    # parse stops the command before it writes probes.csv
    last = _measure_path(run, spec.n_layers)
    if last.exists():
        try:
            with stage("read_measure", layer=spec.n_layers) as fields:
                target = read_measure(last)
                fields["atoms"] = target.n_atoms
        except ValueError as exc:
            return _usage_error(exc)
    else:
        target = _compute_and_save_limit(spec, limit_cfg, run)[-1]
    # the theoretical CF over atoms x probes, timed apart from the sweep
    with stage("probes", atoms=target.n_atoms) as fields:
        probes = generate_probes(target, n_probes=cfg.n_probes, seed=cfg.seed)
        fields["probes"] = probes.n_probes
    _write_probe_csv(run, probes)
    try:
        report = convergence_sweep(
            spec,
            cfg.channel_counts,
            cfg.n_replicas,
            limit_cfg,
            probes=probes,
            pool=pool,
            caches=caches,
        )
    except NonFiniteReplicas as exc:
        log.error("check failed: %s", exc)
        return 1
    (run / "sweep.csv").write_text(report.to_csv(timing=cfg.timing_in_csv))
    failures = []
    final = report.rows[-1]
    if final.sup_cf_dist >= cfg.max_sup_dist:
        failures.append(
            f"final sup CF distance {final.sup_cf_dist:.4f} >= {cfg.max_sup_dist}"
        )
    if cfg.require_decreasing and len(report.rows) > 1:
        if final.sup_cf_dist >= report.rows[0].sup_cf_dist:
            failures.append("sup CF distance did not decrease over the sweep")
    largest = max(cfg.channel_counts)
    if largest in caches:
        failures += _independence_from_cache(cfg, run, caches[largest], target)
    for msg in failures:
        log.error("check failed: %s", msg)
    return 1 if failures else 0


def _write_metrics(path: Path, metrics: dict) -> None:
    """A ``metric,value`` CSV, one row per entry of ``metrics`` in order."""
    path.write_text("metric,value\n" + "".join(f"{k},{v:.12g}\n" for k, v in metrics.items()))


def _independence_from_cache(cfg: RunConfig, run: Path, reps: ReplicaSet, target) -> list[str]:
    """Joint-law checks on the first ``n_replicas`` replicas of the
    `simulate` cache of the largest swept channel count, as the sweep takes
    them; a cache with fewer, or with one channel, is skipped with a
    warning."""
    n = cfg.n_replicas
    if reps.outputs.shape[1] < 2 or reps.n_replicas < n:
        log.warning("%s holds %d replicas of %d channels, not n_replicas = %d of 2; skipping "
                    "independence checks", _replica_path(run, max(cfg.channel_counts)),
                    reps.n_replicas, reps.outputs.shape[1], n)
        return []
    z = [1.0, 1.0]
    with stage("independence", C=max(cfg.channel_counts), replicas=n) as fields:
        pa = generate_probes(target, n_probes=cfg.n_probes, seed=cfg.seed + 1)
        pb = generate_probes(target, n_probes=cfg.n_probes, seed=cfg.seed + 2)
        mixture = mixture_measure(target, z)
        # a null mixture law (sigma_w = 0) has CF 1 everywhere
        mix_probes = (generate_probes(mixture, n_probes=cfg.n_probes, seed=cfg.seed + 3)
                      if mixture.n_atoms else ProbeSet(pa.probes, np.ones(pa.n_probes)))
        metrics = independence_check(reps.outputs[:n], reps.biases[:n], z, pa, pb, mix_probes)
        fields.update(metrics)
    _write_metrics(run / "independence.csv", metrics)
    failures = []
    defect, mixture_sup = metrics["max_factorization_defect"], metrics["mixture_sup_dist"]
    if defect >= cfg.max_factorization_defect:
        failures.append(f"factorization defect {defect:.4f} >= {cfg.max_factorization_defect}")
    if mixture_sup >= cfg.max_mixture_dist:
        failures.append(f"mixture CF distance {mixture_sup:.4f} >= {cfg.max_mixture_dist}")
    return failures


def cmd_oracle(cfg: RunConfig, spec: NetworkSpec, limit_cfg: LimitConfig, run: Path) -> int:
    with stage("oracle", mc_samples=limit_cfg.mc_samples) as fields:
        metrics = gaussian_oracle_check(spec, limit_cfg)
        fields.update(metrics)
    _write_metrics(run / "oracle.csv", metrics)
    if metrics["max_diag_rel_err"] >= cfg.oracle_max_diag_rel_err:
        log.error(
            "check failed: diagonal relative error %.4g >= %.4g",
            metrics["max_diag_rel_err"],
            cfg.oracle_max_diag_rel_err,
        )
        return 1
    return 0


def _plot_lines(sweep: Path) -> list[str]:
    """The lines of ``plot_sweep.csv`` from the sweep file ``sweep``.  A
    missing file, or a header or row that is not ``CSV_HEADER``'s six
    cells, raises ``ValueError`` naming the file."""
    if not sweep.exists():
        raise ValueError(f"no sweep.csv in {sweep.parent}; run `verify` first")
    lines = sweep.read_text().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{sweep}: the header is not {CSV_HEADER}")
    n_cells = len(CSV_HEADER.split(","))
    plot_lines = ["C,sup_cf_dist,mean_cf_dist"]
    for number, row in enumerate(lines[1:], start=2):
        cells = row.split(",")
        if len(cells) != n_cells:
            raise ValueError(f"{sweep}: line {number} has {len(cells)} cells, not {n_cells}")
        plot_lines.append(f"{cells[0]},{cells[3]},{cells[4]}")
    return plot_lines


def cmd_report(spec: NetworkSpec, run: Path, plot_lines: list[str]) -> int:
    # replica caches round-trip through here so stale files surface early
    paths = sorted(run.glob("replicas_C*.bin"))
    try:
        _load_replica_caches({p.stem.removeprefix("replicas_C"): p for p in paths}, spec)
    except ValueError as exc:
        return _usage_error(exc)
    (run / "plot_sweep.csv").write_text("\n".join(plot_lines) + "\n")
    log.info("wrote %s", run / "plot_sweep.csv")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stableconv",
        description="stable-weight convolutional networks and their infinite-channel limits",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("limit", "compute and cache limit measures layer by layer"),
        ("simulate", "generate finite-channel replicas into a binary cache"),
        ("verify", "channel sweep with CF-distance checks"),
        ("oracle", "alpha=2 Gaussian covariance cross-check"),
        ("report", "emit plot data from a finished run directory"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", "-c", required=True, help="INI configuration file")
        p.add_argument("--out", "-o", default="runs", help="output root directory")
        if name == "simulate":
            p.add_argument("--channels", type=int, default=None)
            p.add_argument("--replicas", type=int, default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # everything a command builds from the file, and every precondition
        # of a command, is checked here, so a bad run exits before the run
        # directory exists
        cfg = load_config(args.config)
        spec = cfg.build_spec(getattr(args, "channels", None))
        reason = _heavy_tailed_target(spec.alpha, spec.n_layers, spec.activation.beta)
        if reason is not None:
            raise ValueError(reason)
        if getattr(args, "replicas", None) is not None and args.replicas < 1:
            raise ValueError(f"--replicas must be >= 1, got {args.replicas}")
        limit_cfg = cfg.limit_config(cfg.oracle_mc_samples if args.command == "oracle" else None)
        if args.command == "oracle" and cfg.alpha != 2.0:
            raise ValueError("the oracle command requires alpha = 2 in the configuration")
        # exact and cheap; no layer or probe set can be built on a null law
        if args.command in ("limit", "verify", "oracle") and not gamma_first(
                spec.inputs, spec.layers[0], spec.alpha, spec.sigma_w, spec.sigma_b).n_atoms:
            raise ValueError("the layer-1 limit measure has no atoms (sigma_w = sigma_b = 0, "
                             "or sigma_b = 0 on all-zero inputs)")
        # hashed once, over the inputs the spec already holds, so a kind =
        # file input is read once; the report check below must see the
        # directory the run then uses
        run = Path(args.out) / cfg.hash_with_inputs(spec.inputs)
        if args.command == "report":
            plot_lines = _plot_lines(run / "sweep.csv")
    except Exception as exc:  # bad config is a usage error, not a crash
        return _usage_error(exc)
    _make_run_dir(cfg, run)
    with _run_logging(run):
        if args.command == "limit":
            return cmd_limit(spec, limit_cfg, run)
        if args.command == "simulate":
            return cmd_simulate(cfg, spec, run, args.replicas)
        if args.command == "verify":
            return cmd_verify(cfg, spec, limit_cfg, run)
        if args.command == "oracle":
            return cmd_oracle(cfg, spec, limit_cfg, run)
        if args.command == "report":
            return cmd_report(spec, run, plot_lines)
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
