"""Content checks on the files one execution wrote, run after it has ended
and outside the timed region.

Usage: ``python3 checks.py <job.json>``.  The job names the INI file, the
run directory, the CLI commands that ran and whether to compare the last
layer with an independent-seed estimate.  The result JSON lists every check
as ``[what, ok, detail]``, plus values the traced run reports.

Each check raises :class:`CheckFailed` (or whatever the parsing raises) when
the output is wrong; each counts as one operation.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

from stableconv import limits, stable, verify
from stableconv.config import load_config

PROBES_HEADER = "probe_index,radius,theoretical_cf"
INDEPENDENCE_KEYS = (
    "max_factorization_defect",
    "max_control_defect",
    "mixture_sup_dist",
    "mixture_mean_dist",
)
ORACLE_KEYS = ("max_diag_rel_err", "max_offdiag_abs_err")
EXACT_TOL = 1e-12


class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def measure_paths(run: Path) -> list[Path]:
    return sorted((run / "measures").glob("layer_*.txt"))


def round_trip(path: Path) -> float:
    """Reads a saved measure back and requires that writing it again gives
    the same text; returns the seconds ``read_measure`` took."""
    text = path.read_text()
    start = time.perf_counter()
    measure = stable.read_measure(path)
    elapsed = time.perf_counter() - start
    _require(stable.dump_measure(measure) == text, f"{path.name} does not round-trip")
    return elapsed


def sweep(run: Path, cfg) -> dict[int, float]:
    """Checks sweep.csv and returns the sup CF distance per channel count."""
    lines = (run / "sweep.csv").read_text().splitlines()
    _require(lines[:1] == [verify.CSV_HEADER], "sweep.csv does not start with CSV_HEADER")
    rows = [line.split(",") for line in lines[1:]]
    _require(
        tuple(int(r[0]) for r in rows) == cfg.channel_counts,
        "sweep.csv rows do not match the channel counts",
    )
    sups = {int(r[0]): float(r[3]) for r in rows}
    _require(all(0.0 <= s <= 2.0 for s in sups.values()), "sup CF distance outside [0, 2]")
    return sups


def probes_csv(run: Path, cfg) -> None:
    lines = (run / "probes.csv").read_text().splitlines()
    _require(lines[:1] == [PROBES_HEADER], "probes.csv has the wrong header")
    _require(len(lines) == cfg.n_probes + 2, "probes.csv has the wrong number of probes")
    for line in lines[1:]:
        cf = float(line.split(",")[2])
        _require(0.0 <= cf <= 1.0, "theoretical CF outside [0, 1]")


def metric_csv(path: Path, keys) -> dict[str, float]:
    lines = path.read_text().splitlines()
    _require(lines[:1] == ["metric,value"], f"{path.name} has the wrong header")
    values = {k: float(v) for k, v in (line.split(",") for line in lines[1:])}
    _require(tuple(values) == tuple(keys), f"{path.name} has the wrong metrics")
    _require(all(np.isfinite(v) for v in values.values()), f"{path.name} has a non-finite value")
    return values


def layer1_exact(path: Path, cfg) -> None:
    """The saved layer-1 measure against the closed-form CF, to 1e-12."""
    measure = stable.read_measure(path)
    probes = verify.generate_probes(measure, n_probes=cfg.n_probes, seed=cfg.seed).probes
    closed = limits.cf_layer1_closed_form(
        cfg.make_inputs(), cfg.layer_configs()[0], cfg.alpha, cfg.sigma_w, cfg.sigma_b, probes
    )
    err = float(np.max(np.abs(stable.cf_multivariate(measure, probes) - closed)))
    _require(err <= EXACT_TOL, f"layer 1 is {err:.3g} from its closed form")


class IndependentReference:
    """The last layer's CF on a fixed probe set, estimated by ``chains``
    limit recursions with limit seeds independent of the run's, each at
    ``M / shrink`` samples.

    A run at M has CF variance about s^2 / shrink, where s is the spread of a
    chain (Monte Carlo variance goes as 1/M), and the mean over chains has
    variance s^2 / chains.  A run passes when every nonzero probe lies
    within a Student-t quantile of that standard error, Bonferroni-corrected
    for the probe count, at family-wise false-alarm rate ``false_alarm``.
    """

    def __init__(self, cfg, chains: int = 16, shrink: int = 4, false_alarm: float = 1e-3):
        from scipy.stats import t as student_t

        spec = cfg.build_spec()
        m = max(cfg.mc_samples // shrink, 1)
        lasts = [
            limits.limit_measures(
                spec,
                limits.LimitConfig(
                    mc_samples=m,
                    atom_cap=cfg.atom_cap,
                    # above every run seed, so never the run's own streams
                    seed=(1 << 64) + (cfg.limit_seed << 8) + b,
                ),
            )[-1]
            for b in range(chains)
        ]
        self.probes = verify.generate_probes(lasts[0], n_probes=cfg.n_probes, seed=cfg.seed).probes[1:]
        cfs = np.array([stable.cf_multivariate(m_, self.probes) for m_ in lasts])
        self.mean = cfs.mean(axis=0)
        self.se = cfs.std(axis=0, ddof=1) * np.sqrt(1.0 / shrink + 1.0 / chains)
        p = len(self.probes)
        self.quantile = float(student_t.ppf(1.0 - false_alarm / (2 * p), chains - 1))

    def check(self, path: Path) -> float:
        """Returns the largest |run - reference| / standard error."""
        cf = stable.cf_multivariate(stable.read_measure(path), self.probes)
        z = float(np.max(np.abs(cf - self.mean) / self.se))
        _require(
            z <= self.quantile,
            f"last layer is {z:.2f} standard errors from the independent-seed "
            f"estimate (bound {self.quantile:.2f})",
        )
        return z


def main(job_path: str) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    cfg = load_config(job["ini"])
    run = Path(job["run"])
    names = set(job["commands"])
    ops, notes = [], []
    content = {"read_measure_s": 0.0, "sups": [], "oracle": {}}

    def check(what, fn, *args):
        try:
            result = fn(*args)
        except Exception as exc:
            ops.append((what, False, f"{type(exc).__name__}: {exc}"))
            return None
        ops.append((what, True, ""))
        return result

    if "verify" in names:
        content["sups"] = sorted((check("sweep.csv", sweep, run, cfg) or {}).items())
        content["noise_floor"] = verify.cf_standard_error(cfg.n_replicas)
        check("probes.csv", probes_csv, run, cfg)
        if "simulate" in names:
            check("independence.csv", metric_csv, run / "independence.csv", INDEPENDENCE_KEYS)
    if "oracle" in names:
        content["oracle"] = check("oracle.csv", metric_csv, run / "oracle.csv", ORACLE_KEYS) or {}
    paths = measure_paths(run)
    if names & {"limit", "verify"}:
        ok = len(paths) == len(cfg.layers)
        ops.append(("measures", ok, "" if ok else f"{len(paths)} measure files"))
    for path in paths:
        content["read_measure_s"] += check(f"round trip {path.name}", round_trip, path) or 0.0
    if paths:
        check("layer 1 closed form", layer1_exact, paths[0], cfg)
    if job["reference"] and paths:
        reference = check("independent-seed reference", IndependentReference, cfg)
        if reference is not None:
            z = check("independent-seed limit", reference.check, paths[-1])
            if z is not None:
                notes.append(
                    f"last layer within {z:.2f} standard errors (bound {reference.quantile:.2f})"
                )
    with open(job["result"], "w") as fh:
        json.dump({"ops": ops, "notes": notes, "content": content}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
