"""The benchmark's workloads: one generated INI file and a list of CLI
commands each, plus what counts as one unit of work.

The benchmark seed ``n`` is written into the generated configuration as
``[network] seed = 11 + n`` and ``[limit] seed = 5 + n``, so seed 0 gives the
seeds of ``demos/toy.ini``.  The program only ever sees the INI file.

``size = "tiny"`` shrinks every budget for the benchmark's own smoke tests.
The tiny budgets are too small for the program's statistical thresholds, so
those thresholds are opened up there; the full-size workloads keep them.

Why each workload exists, and which per-layer metric should move which
end-to-end metric on it, is tabulated in ``perfbench/README.md``.

toy-pipeline
    ``simulate --channels 256`` then ``verify`` on the ``demos/toy.ini``
    geometry (alpha 1.5, two 1-D layers over 4 positions, K = 2 inputs,
    C = 4/16/64/256, 10k replicas, M = 10k, one worker).  This is the
    documented user run.  About 95% of it is ``network.sample_replicas`` on
    tiny arrays, where per-call overhead dominates (four ``sample_standard``
    calls and one ``SeedSequence`` per replica, on the Chambers-Mallows-Stuck
    branch).  It also covers the replica-cache write and read and the
    independence checks; the limit recursion is under 1% of it.

deep-limit
    ``limit`` on a 4-layer stack of the same geometry at M = 3000.  About 90%
    is ``limits`` -> ``stable.sample_multivariate``, one M x n_atoms CMS draw
    per layer (27M variates), and peak memory grows 4x per doubling of M.
    There are no replicas: the replica engine must not move it.

wide-gauss
    ``oracle`` then ``verify`` on a 2-D geometry (2 input channels, 6x6, K = 2,
    two 3x3 layers with padding 1) at alpha = 2, C = 4/16/64, 10k replicas,
    M = 5000, two workers.  alpha = 2 takes the Gaussian sampler branch, so it
    is the no-change control for any CMS rewrite.  Arrays are 9x larger per
    replica, so arithmetic dominates rather than call overhead, and replica
    blocks run through the process pool.  Writing the 45k-atom layer-2
    measure as 17-digit text is about 40% of it: the cache-I/O layer at scale.

``require_decreasing`` is off in every workload.  At N = 10k the sweep's sup
CF distances sit at the estimator's noise floor, so the program's
"decreasing" check passes or fails on the draw, not on the code: on the
toy geometry benchmark seed 5 gives 0.0166 at C = 4 and 0.0190 at C = 256.
``verify.decrease_margin`` keeps the trend visible in the traced run.
"""

from __future__ import annotations

from dataclasses import dataclass

NETWORK_SEED_BASE = 11
LIMIT_SEED_BASE = 5
SIZES = ("full", "tiny")


@dataclass(frozen=True)
class Workload:
    name: str
    # CLI argv tails, run in order; "-c <ini> -o <out>" is inserted after the
    # subcommand name
    commands: tuple[tuple[str, ...], ...]
    alpha: float
    in_channels: int
    spatial: str
    n_layers: int
    mc_samples: int
    channel_counts: tuple[int, ...] = (4, 16, 64)
    n_replicas: int = 10_000
    workers: int = 1
    work_unit: str = "replicas"
    # check the last layer against an independent-seed limit estimate
    reference_check: bool = False

    def ini(self, seed: int, size: str = "full") -> str:
        """The configuration file the program receives for one seed."""
        if seed < 0:
            raise ValueError("seed must be >= 0")
        if size not in SIZES:
            raise ValueError(f"size must be one of {SIZES}")
        m, n_rep = self.budgets(size)
        # the tiny budgets sit far below the noise floor the thresholds assume
        tiny = size == "tiny"
        sup, defect, mix, diag = (2, 2, 2, 1e9) if tiny else (0.05, 0.07, 0.05, 0.05)
        sections = {
            "network": {
                "alpha": self.alpha,
                "sigma_w": 1.0,
                "sigma_b": 1.0,
                "channels": 64,
                "activation": "tanh",
                "seed": NETWORK_SEED_BASE + seed,
            },
            "input": {
                "channels": self.in_channels,
                "spatial": self.spatial,
                "num_inputs": 2,
                "kind": "gaussian",
            },
        }
        for layer in range(1, self.n_layers + 1):
            sections[f"layer.{layer}"] = {"filter": 3, "stride": 1, "padding": 1}
        sections["limit"] = {"mc_samples": m, "seed": LIMIT_SEED_BASE + seed}
        sections["verify"] = {
            "channel_counts": " ".join(map(str, self.channel_counts)),
            "n_replicas": n_rep,
            "n_probes": 20,
            "max_sup_dist": sup,
            "require_decreasing": "false",
            "timing_in_csv": "false",
            "workers": self.workers,
            "max_factorization_defect": defect,
            "max_mixture_dist": mix,
        }
        sections["oracle"] = {"mc_samples": m, "max_diag_rel_err": diag}
        lines = []
        for name, items in sections.items():
            lines.append(f"[{name}]")
            lines += [f"{key} = {value}" for key, value in items.items()]
            lines.append("")
        return "\n".join(lines)

    def budgets(self, size: str) -> tuple[int, int]:
        """Monte Carlo samples and replicas at the given size."""
        if size == "tiny":
            return max(self.mc_samples // 30, 100), 300
        return self.mc_samples, self.n_replicas

    def work_units(self, size: str = "full") -> int:
        """Work done by one execution, in ``work_unit``s."""
        m, n_rep = self.budgets(size)
        if self.work_unit == "mc_fields":
            # one Monte Carlo field per sample for every layer after the first
            return m * (self.n_layers - 1)
        sweeps = {"simulate": 1, "verify": len(self.channel_counts)}
        return n_rep * sum(sweeps.get(argv[0], 0) for argv in self.commands)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="toy-pipeline",
            commands=(("simulate", "--channels", "256"), ("verify",)),
            alpha=1.5,
            in_channels=1,
            spatial="4",
            n_layers=2,
            mc_samples=10_000,
            channel_counts=(4, 16, 64, 256),
        ),
        Workload(
            name="deep-limit",
            commands=(("limit",),),
            alpha=1.5,
            in_channels=1,
            spatial="4",
            n_layers=4,
            mc_samples=3000,
            work_unit="mc_fields",
            reference_check=True,
        ),
        Workload(
            name="wide-gauss",
            commands=(("oracle",), ("verify",)),
            alpha=2.0,
            in_channels=2,
            spatial="6 6",
            n_layers=2,
            mc_samples=5000,
            workers=2,
        ),
    )
}
