import logging
import multiprocessing
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import stableconv as sc
from stableconv.cli import _heavy_tailed_target, main
from stableconv.config import load_config
from stableconv.verify import CSV_HEADER

from conftest import decimal_measure_text

DEMOS = Path(__file__).resolve().parents[1] / "demos"

TINY_CONFIG = """
[network]
alpha = 1.5
sigma_w = 1.0
sigma_b = 1.0
channels = 8
activation = tanh
seed = 7

[input]
channels = 1
spatial = 4
num_inputs = 2
kind = gaussian

[layer.1]
filter = 3
stride = 1
padding = 1

[layer.2]
filter = 3
stride = 1
padding = 1

[limit]
mc_samples = 2000
seed = 3

[verify]
channel_counts = 2 8 32
n_replicas = 3000
n_probes = 20
max_sup_dist = 0.2
require_decreasing = false

[oracle]
mc_samples = 2000
max_diag_rel_err = 0.1
"""


# The benchmark's wide-gauss geometry at a tiny budget: alpha = 2, two input
# channels on 6x6, two 3x3 layers with padding 1, replicas in a two-worker
# pool.  Layer 2 has 300 * 9 slices for dim = 6 * 6 * 2 = 72.
WIDE_GAUSS_CONFIG = """
[network]
alpha = 2
sigma_w = 1.0
sigma_b = 1.0
channels = 64
activation = tanh
seed = 12

[input]
channels = 2
spatial = 6 6
num_inputs = 2
kind = gaussian

[layer.1]
filter = 3
stride = 1
padding = 1

[layer.2]
filter = 3
stride = 1
padding = 1

[limit]
mc_samples = 300
seed = 6

[verify]
channel_counts = 4 16 64
n_replicas = 300
n_probes = 20
max_sup_dist = 0.5
require_decreasing = false
workers = 2

[oracle]
mc_samples = 2000
max_diag_rel_err = 0.05
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "toy.ini"
    path.write_text(TINY_CONFIG)
    return path


def run_dir_of(cfg_path, out):
    return out / load_config(cfg_path).config_hash


class TestConfig:
    def test_round_trip_fields(self, config_file):
        cfg = load_config(config_file)
        assert cfg.alpha == 1.5
        assert cfg.channel_counts == (2, 8, 32)
        assert cfg.layers[0].filter_shape == (3,)
        spec = cfg.build_spec()
        assert spec.n_layers == 2
        assert spec.inputs.shape == (1, 4, 2)

    def test_hash_stable_and_sensitive(self, config_file, tmp_path):
        cfg = load_config(config_file)
        assert cfg.config_hash == load_config(config_file).config_hash
        other = tmp_path / "other.ini"
        other.write_text(TINY_CONFIG.replace("seed = 7", "seed = 8"))
        assert load_config(other).config_hash != cfg.config_hash

    def test_inputs_reproducible(self, config_file):
        cfg = load_config(config_file)
        assert np.array_equal(cfg.make_inputs(), cfg.make_inputs())

    def test_file_inputs(self, config_file, tmp_path):
        arr = np.random.default_rng(0).standard_normal((1, 4, 2))
        np.save(tmp_path / "x.npy", arr)
        text = TINY_CONFIG.replace(
            "kind = gaussian", f"kind = file\npath = {tmp_path / 'x.npy'}"
        )
        path = tmp_path / "file.ini"
        path.write_text(text)
        cfg = load_config(path)
        assert np.array_equal(cfg.make_inputs(), arr)

    def test_file_input_content_keys_the_run(self, tmp_path):
        # the canonical text names a kind = file input by its path only; a
        # file overwritten with other data must not reuse the run directory,
        # and with it the limit measures cached from the old data
        x = tmp_path / "x.npy"
        np.save(x, np.random.default_rng(0).standard_normal((1, 4, 2)))
        path = tmp_path / "file.ini"
        path.write_text(TINY_CONFIG.replace("kind = gaussian", f"kind = file\npath = {x}"))
        first = load_config(path).config_hash
        np.save(x, np.load(x))
        assert load_config(path).config_hash == first
        np.save(x, 100 * np.load(x))
        assert load_config(path).config_hash != first

    def test_file_input_loaded_once_per_hash(self, tmp_path, monkeypatch):
        # the one load builds the network, whose inputs then key the run
        # directory; the written hash and the directory name come from that
        # one hash
        x = tmp_path / "x.npy"
        np.save(x, np.random.default_rng(0).standard_normal((1, 4, 2)))
        path = tmp_path / "file.ini"
        path.write_text(TINY_CONFIG.replace("kind = gaussian", f"kind = file\npath = {x}"))
        out = tmp_path / "runs"
        loads = []
        load = np.load
        monkeypatch.setattr(np, "load", lambda *a, **k: loads.append(a) or load(*a, **k))
        assert main(["limit", "-c", str(path), "-o", str(out)]) == 0
        assert len(loads) == 1
        monkeypatch.undo()
        run = run_dir_of(path, out)
        assert (run / "config_hash.txt").read_text() == run.name + "\n"

    def test_missing_config_is_usage_error(self, tmp_path):
        assert main(["limit", "-c", str(tmp_path / "nope.ini"), "-o", str(tmp_path)]) == 2

    # recorded before the schema was declared once per key; a moved hash
    # would move every run directory
    @pytest.mark.parametrize("name, digest", [
        ("toy.ini", "a1913ed748e63378"),
        ("gauss.ini", "14eb251892c6cc65"),
    ])
    def test_demo_config_hash_pinned(self, name, digest):
        assert load_config(DEMOS / name).config_hash == digest

    @pytest.mark.parametrize("key", ["require_decreasing", "timing_in_csv"])
    @pytest.mark.parametrize("raw, value", [
        ("true", True), ("yes", True), ("1", True), ("on", True), ("True", True),
        ("false", False), ("no", False), ("0", False), ("off", False),
    ])
    def test_boolean_spellings(self, tmp_path, key, raw, value):
        text = TINY_CONFIG.replace("require_decreasing = false\n", "")
        path = tmp_path / "bool.ini"
        path.write_text(text.replace("n_probes = 20", f"n_probes = 20\n{key} = {raw}"))
        cfg = load_config(path)
        assert getattr(cfg, key) is value
        # the canonical text spells booleans one way, so the hash does not move
        assert f"{key} = {str(value).lower()}\n" in cfg.resolved_text()

    @pytest.mark.parametrize("edit", [
        ("require_decreasing = false", "require_decreasing = ture"),
        ("require_decreasing = false", "require_decreasing = false\ntiming_in_csv = maybe"),
        ("n_replicas = 3000", "n_replica = 10000"),
        ("[oracle]", "[oracle]\nmc_sample = 5"),
        ("[layer.2]", "[layer.2]\nfilters = 3"),
        ("[oracle]", "[verfiy]\nn_probes = 5\n\n[oracle]"),
        ("[network]", "[DEFAULT]\nseed = 1\n\n[network]"),
    ])
    def test_bad_input_rejected(self, tmp_path, edit):
        path = tmp_path / "bad.ini"
        path.write_text(TINY_CONFIG.replace(*edit))
        with pytest.raises(ValueError):
            load_config(path)
        assert main(["limit", "-c", str(path), "-o", str(tmp_path / "runs")]) == 2

    # each parses as INI but cannot make a run, or gives a bad command-line
    # value; a bad value must exit 2 before the run directory is created
    @pytest.mark.parametrize("command, edit", [
        ("limit", ("[layer.1]\nfilter = 3", "[layer.1]\nfilter = 9")),
        ("limit", ("activation = tanh", "activation = nope")),
        ("limit", ("activation = tanh", "activation = relu")),
        ("limit", ("activation = tanh", "activation = signed_power")),
        ("limit", ("alpha = 1.5", "alpha = 2.5")),
        ("limit", ("mc_samples = 2000\nseed = 3", "mc_samples = 0\nseed = 3")),
        ("limit", ("kind = gaussian", "kind = bogus")),
        ("limit", ("[limit]", "[limit]\natom_cap = 0")),
        ("limit", ("mc_samples = 2000\nseed = 3", "mc_samples = 2000\nseed = -1")),
        ("limit", ("sigma_w = 1.0", "sigma_w = nan")),
        ("limit", ("sigma_b = 1.0", "sigma_b = inf")),
        ("verify", ("max_sup_dist = 0.2", "max_sup_dist = nan")),
        ("verify", ("n_replicas = 3000", "n_replicas = 0")),
        ("verify", ("n_probes = 20", "n_probes = 0")),
        ("verify", ("n_probes = 20", "n_probes = 2")),
        ("verify", ("channel_counts = 2 8 32", "channel_counts = 64 16")),
        ("verify", ("n_probes = 20", "n_probes = 20\nworkers = 0")),
        ("simulate", ("n_probes = 20", "n_probes = 20\nworkers = -2")),
        ("simulate --replicas 0", None),
        ("simulate --replicas -3", None),
        ("simulate --channels 0", None),
    ], ids=["filter", "activation", "relu", "signed_power", "alpha", "mc_samples", "kind",
            "atom_cap", "limit_seed_negative", "sigma_w_nan", "sigma_b_inf", "max_sup_dist_nan",
            "n_replicas", "n_probes", "n_probes_2", "channel_counts", "workers_0",
            "workers_negative",
            "replicas_flag_0", "replicas_flag_negative", "channels_flag_0"])
    def test_bad_config_exits_before_writing(self, tmp_path, command, edit):
        path = tmp_path / "bad.ini"
        if edit is None:
            path.write_text(TINY_CONFIG)
        else:
            assert edit[0] in TINY_CONFIG
            path.write_text(TINY_CONFIG.replace(*edit))
        out = tmp_path / "runs"
        assert main([*command.split(), "-c", str(path), "-o", str(out)]) == 2
        assert not out.exists()

    # beta >= 1/2 leaves a Monte Carlo target of infinite variance below
    # alpha = 2, from the second layer on; the boundary is 1/2, not the
    # theory's admissible beta < 1
    @pytest.mark.parametrize("beta, refused", [(0.49, False), (0.5, True), (0.9, True)])
    def test_heavy_tailed_target_gate(self, beta, refused):
        assert (_heavy_tailed_target(1.5, 2, beta) is not None) == refused
        assert (_heavy_tailed_target(0.7, 3, beta) is not None) == refused
        assert _heavy_tailed_target(2.0, 2, beta) is None
        assert _heavy_tailed_target(1.5, 1, beta) is None

    def test_heavy_tailed_target_exits_before_writing(self, tmp_path, capsys):
        # signed_power (beta = 0.9) at alpha = 1.5: one line naming beta and
        # the tail index 1/beta
        path = tmp_path / "bad.ini"
        path.write_text(TINY_CONFIG.replace("activation = tanh", "activation = signed_power"))
        out = tmp_path / "runs"
        capsys.readouterr()
        assert main(["verify", "-c", str(path), "-o", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert "beta = 0.9 " in err[0] and "1/beta = 1.11 " in err[0]
        assert not out.exists()

    # two layer sections numbered other than 1, 2; the error names ``named``
    @pytest.mark.parametrize("first, second, named", [
        ("layer.1", "layer.3", "layer.3"),
        ("layer.0", "layer.2", "layer.0"),
        ("layer.1", "layer.01", "layer.01"),
        ("layer.1", "layer.x", "layer.x"),
        ("layer.1", "layer.+2", "layer.+2"),
    ], ids=["gap", "from_zero", "duplicate", "not_a_number", "signed"])
    def test_misnumbered_layers_exit_before_writing(self, tmp_path, capsys, first, second,
                                                    named):
        path = tmp_path / "bad.ini"
        path.write_text(TINY_CONFIG.replace("[layer.1]", f"[{first}]")
                        .replace("[layer.2]", f"[{second}]"))
        out = tmp_path / "runs"
        capsys.readouterr()
        assert main(["limit", "-c", str(path), "-o", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert f"[{named}]" in err[0]
        assert not out.exists()

    def test_layers_follow_their_numbers(self, tmp_path):
        # [layer.01] ... [layer.10], the last written first: numeric order,
        # leading zeros allowed, canonical [layer.N] in the resolved text
        same = "filter = 3\nstride = 1\npadding = 1\n"
        sections = "[layer.10]\nfilter = 1\n\n" + "".join(
            f"[layer.{n:02d}]\n{same}\n" for n in range(1, 10))
        text = TINY_CONFIG[: TINY_CONFIG.index("[layer.1]")] + sections + TINY_CONFIG[
            TINY_CONFIG.index("[limit]"):]
        path = tmp_path / "ten.ini"
        path.write_text(text)
        cfg = load_config(path)
        assert [layer.filter_shape for layer in cfg.layers] == [(3,)] * 9 + [(1,)]
        resolved = cfg.resolved_text()
        assert [f"[layer.{n}]" in resolved for n in range(1, 11)] == [True] * 10

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_input_exits_before_writing(self, tmp_path, value):
        # a NaN slice weight would drop out of the layer-1 measure unseen
        x = np.random.default_rng(0).standard_normal((1, 4, 2))
        x[0, 2, 1] = value
        np.save(tmp_path / "x.npy", x)
        path = tmp_path / "bad.ini"
        path.write_text(TINY_CONFIG.replace(
            "kind = gaussian", f"kind = file\npath = {tmp_path / 'x.npy'}"))
        out = tmp_path / "runs"
        for command in ("limit", "verify"):
            assert main([command, "-c", str(path), "-o", str(out)]) == 2
        assert not out.exists()

    # a layer-1 law with no atoms: zero scales, or sigma_b = 0 on all-zero
    # inputs; it is a bad input (exit 2), not a failed check (exit 1)
    @pytest.mark.parametrize("demo, command, zero_inputs", [
        ("toy.ini", "limit", False), ("toy.ini", "verify", False),
        ("toy.ini", "limit", True), ("toy.ini", "verify", True),
        ("gauss.ini", "oracle", False), ("gauss.ini", "oracle", True),
    ])
    def test_empty_first_layer_exits_before_writing(self, tmp_path, capsys, demo, command,
                                                    zero_inputs):
        text = (DEMOS / demo).read_text().replace("sigma_b = 1.0", "sigma_b = 0")
        if zero_inputs:
            np.save(tmp_path / "x.npy", np.zeros((1, 4, 2)))
            text = text.replace("kind = gaussian", f"kind = file\npath = {tmp_path / 'x.npy'}")
        else:
            text = text.replace("sigma_w = 1.0", "sigma_w = 0")
        path = tmp_path / "empty.ini"
        path.write_text(text)
        out = tmp_path / "runs"
        assert main([command, "-c", str(path), "-o", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_main_restores_the_log_handlers(self, config_file, tmp_path):
        root = logging.getLogger("stableconv")
        own = logging.NullHandler()
        root.addHandler(own)
        before = (list(root.handlers), root.level)
        try:
            out = tmp_path / "runs"
            assert main(["limit", "-c", str(config_file), "-o", str(out)]) == 0
            assert (list(root.handlers), root.level) == before
            log = run_dir_of(config_file, out) / "run.log"
            text = log.read_text()
            assert "stage=layer" in text
            root.setLevel(logging.INFO)
            sc.limit_measures(load_config(config_file).build_spec(), sc.LimitConfig(mc_samples=10))
            assert log.read_text() == text
        finally:
            root.removeHandler(own)
            root.setLevel(before[1])


# every timed run.log line, whatever the command
STAGE_LINE = re.compile(
    r"^INFO stableconv\.stage: stage=(\w+)( \w+=\S+)* seconds=\d+\.\d{3} peak_rss_mb=\d+\.\d minor_faults=\d+$"
)


class TestCommands:
    def test_stage_lines_share_one_format(self, config_file, tmp_path):
        out = tmp_path / "runs"
        gauss = tmp_path / "gauss.ini"
        gauss.write_text(TINY_CONFIG.replace("alpha = 1.5", "alpha = 2"))
        for argv in (["limit"], ["simulate", "--channels", "32"], ["verify"], ["report"]):
            assert main([*argv, "-c", str(config_file), "-o", str(out)]) == 0
        assert main(["oracle", "-c", str(gauss), "-o", str(out)]) == 0
        stages = []
        for cfg in (config_file, gauss):
            for line in (run_dir_of(cfg, out) / "run.log").read_text().splitlines():
                if "seconds=" in line:
                    match = STAGE_LINE.match(line)
                    assert match, line
                    stages.append(match.group(1))
        # two layers each for `limit` and `oracle`; the sweep's probe set
        # and three points; `verify` and `report` each read the C = 32 cache
        assert sorted(stages) == sorted(
            ["layer"] * 4 + ["save_measure"] * 2 + ["sample_replicas", "save_replicas"]
            + ["load_replicas"] * 2 + ["read_measure", "probes"] + ["sweep"] * 3
            + ["independence", "oracle"]
        )

    def test_limit_writes_loadable_measures(self, config_file, tmp_path):
        out = tmp_path / "runs"
        assert main(["limit", "-c", str(config_file), "-o", str(out)]) == 0
        run = run_dir_of(config_file, out)
        assert (run / "resolved.ini").exists()
        m1 = sc.read_measure(run / "measures" / "layer_01.txt")
        m2 = sc.read_measure(run / "measures" / "layer_02.txt")
        assert m1.dimension == m2.dimension == 8
        assert m1.bias_index == 0

    def test_layer_peak_memory_is_the_runs_own(self, config_file, tmp_path):
        # A launcher holding about 300 MB runs `limit` in a child.  On Linux
        # the child's ru_maxrss starts from the launcher's peak; the logged
        # peak must be the child's own, far below that.
        out = tmp_path / "runs"
        code = (
            "import subprocess, sys\n"
            "import numpy as np\n"
            "ballast = np.ones(300 * 2**20 // 8)\n"
            "subprocess.run([sys.executable, '-m', 'stableconv.cli', 'limit',\n"
            f"                '-c', {str(config_file)!r}, '-o', {str(out)!r}], check=True)\n"
            "print(ballast.sum())\n"
        )
        src = str(Path(sc.__file__).resolve().parents[1])
        subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            check=True,
        )
        log = (run_dir_of(config_file, out) / "run.log").read_text()
        peaks = [float(v) for v in re.findall(r"^.*layer=\d+ .*peak_rss_mb=([\d.]+)", log, re.M)]
        assert len(peaks) == 4  # each layer's line and its measure write
        assert max(peaks) < 150.0

    def test_simulate_cache_round_trip(self, config_file, tmp_path):
        out = tmp_path / "runs"
        assert main(["simulate", "-c", str(config_file), "-o", str(out),
                     "--channels", "4", "--replicas", "50"]) == 0
        run = run_dir_of(config_file, out)
        reps = sc.load_replicas(run / "replicas_C4.bin")
        assert reps.outputs.shape == (50, 2, 8)
        log = (run / "run.log").read_text()
        block = sc.replica_block_size(load_config(config_file).build_spec(4))
        assert re.search(rf"stage=sample_replicas C=4 replicas=50 block={block} seconds=", log)
        assert re.search(r"stage=save_replicas C=4 replicas=50 seconds=", log)

    def test_verify_passes_and_is_reproducible(self, config_file, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["verify", "-c", str(config_file), "-o", str(out_a)]) == 0
        assert main(["verify", "-c", str(config_file), "-o", str(out_b)]) == 0
        run_a, run_b = run_dir_of(config_file, out_a), run_dir_of(config_file, out_b)
        sweep_a = (run_a / "sweep.csv").read_bytes()
        assert sweep_a == (run_b / "sweep.csv").read_bytes()
        assert sweep_a.decode().splitlines()[0] == "C,n_replicas,M,sup_cf_dist,mean_cf_dist,seconds"
        probes_a = (run_a / "probes.csv").read_text()
        assert probes_a == (run_b / "probes.csv").read_text()
        # the zero probe reports a theoretical CF of exactly 1
        first = probes_a.splitlines()[1].split(",")
        assert first[1] == "0" and first[2] == "1"
        log = (run_a / "run.log").read_text()
        rows = re.findall(r"stage=sweep C=(\d+) replicas=3000 block=\d+ sup=", log)
        assert rows == [ln.split(",")[0] for ln in sweep_a.decode().splitlines()[1:]]
        # the probe set's theoretical CF has its own line, over the target's atoms
        atoms = sc.read_measure(run_a / "measures" / "layer_02.txt").n_atoms
        n_probes = len(probes_a.splitlines()) - 1
        assert re.search(rf"^.*stage=probes atoms={atoms} probes={n_probes} seconds=",
                         log, re.M)

    def test_verify_uses_cached_measures(self, config_file, tmp_path):
        out = tmp_path / "runs"
        assert main(["limit", "-c", str(config_file), "-o", str(out)]) == 0
        assert main(["verify", "-c", str(config_file), "-o", str(out)]) == 0

    def test_verify_consumes_replica_cache_for_independence(self, config_file, tmp_path):
        out = tmp_path / "runs"
        assert main(["simulate", "-c", str(config_file), "-o", str(out),
                     "--channels", "32", "--replicas", "4000"]) == 0
        assert main(["verify", "-c", str(config_file), "-o", str(out)]) == 0
        run = run_dir_of(config_file, out)
        lines = (run / "independence.csv").read_text().splitlines()
        assert lines[0] == "metric,value"
        values = dict(ln.split(",") for ln in lines[1:])
        assert float(values["max_control_defect"]) > float(
            values["max_factorization_defect"]
        )

    def test_check_dicts_are_the_metric_files(self, tmp_path, monkeypatch):
        # the checks return the rows independence.csv and oracle.csv hold,
        # keys in their order, so each metric has one name
        import stableconv.cli as cli

        returned = {}
        for name in ("independence_check", "gaussian_oracle_check"):
            def recording(*args, _check=getattr(cli, name), _name=name):
                returned[_name] = _check(*args)
                return returned[_name]

            monkeypatch.setattr(cli, name, recording)
        gauss = tmp_path / "gauss.ini"
        gauss.write_text(TINY_CONFIG.replace("alpha = 1.5", "alpha = 2"))
        out = tmp_path / "runs"
        assert main(["simulate", "-c", str(gauss), "-o", str(out), "--channels", "32"]) == 0
        for command in ("verify", "oracle"):
            assert main([command, "-c", str(gauss), "-o", str(out)]) == 0
        run = run_dir_of(gauss, out)
        for name, csv in [("independence_check", "independence.csv"),
                          ("gaussian_oracle_check", "oracle.csv")]:
            rows = [ln.split(",") for ln in (run / csv).read_text().splitlines()[1:]]
            assert [metric for metric, _ in rows] == list(returned[name])
            assert [value for _, value in rows] == [f"{v:.12g}" for v in returned[name].values()]

    @pytest.mark.parametrize("replicas, source", [
        (3000, r"source=cache"),
        (2999, r"block=\d+"),
    ], ids=["full", "short"])
    def test_sweep_reads_simulate_cache(self, config_file, tmp_path, replicas, source):
        # a cache at a swept count holding n_replicas = 3000 replicas feeds
        # that sweep row; a shorter one is sampled again.  Either way
        # sweep.csv is the one `verify` alone writes.
        alone, out = tmp_path / "alone", tmp_path / "runs"
        assert main(["verify", "-c", str(config_file), "-o", str(alone)]) == 0
        assert main(["simulate", "-c", str(config_file), "-o", str(out),
                     "--channels", "32", "--replicas", str(replicas)]) == 0
        assert main(["verify", "-c", str(config_file), "-o", str(out)]) == 0
        run = run_dir_of(config_file, out)
        sweep = (run / "sweep.csv").read_bytes()
        assert sweep == (run_dir_of(config_file, alone) / "sweep.csv").read_bytes()
        log = (run / "run.log").read_text()
        for stage in ("save_replicas", "load_replicas"):
            line = rf"^.*stage={stage} C=32 replicas={replicas} seconds=[\d.]+ peak_rss_mb=[\d.]+ minor_faults=\d+$"
            assert len(re.findall(line, log, re.M)) == 1, stage
        rows = re.findall(r"stage=sweep C=(\d+) replicas=3000 (\S+) sup=\S+ mean=\S+ ", log)
        assert [c for c, _ in rows] == ["2", "8", "32"]
        assert re.fullmatch(source, rows[-1][1])
        assert all(re.fullmatch(r"block=\d+", r) for _, r in rows[:-1])

    def test_short_cache_skips_independence(self, config_file, tmp_path):
        # 40 cached replicas fail both independence bounds on noise alone;
        # the checks need n_replicas = 3000 of them, as the sweep does
        out = tmp_path / "runs"
        assert main(["simulate", "-c", str(config_file), "-o", str(out),
                     "--channels", "32", "--replicas", "40"]) == 0
        assert main(["verify", "-c", str(config_file), "-o", str(out)]) == 0
        run = run_dir_of(config_file, out)
        assert not (run / "independence.csv").exists()
        log = (run / "run.log").read_text()
        assert re.search(r"replicas_C32\.bin holds 40 replicas .*n_replicas = 3000", log)
        assert "check failed" not in log

    def test_independence_reads_the_first_n_replicas(self, tmp_path):
        # a cache of twice n_replicas gives the bytes of one of n_replicas
        cfg = tmp_path / "small.ini"
        cfg.write_text(TINY_CONFIG.replace("n_replicas = 3000", "n_replicas = 400"))
        csvs = []
        for replicas in (400, 800):
            out = tmp_path / str(replicas)
            assert main(["simulate", "-c", str(cfg), "-o", str(out),
                         "--channels", "32", "--replicas", str(replicas)]) == 0
            assert main(["verify", "-c", str(cfg), "-o", str(out)]) in (0, 1)
            csvs.append((run_dir_of(cfg, out) / "independence.csv").read_bytes())
        assert csvs[0] == csvs[1]

    @pytest.mark.parametrize("damage", [
        # the last atom line loses its last value
        lambda text: text.rstrip("\n")[:-16] + "\n",
        lambda text: re.sub(r"dimension=\d+ ", "", text, count=1),
        lambda text: re.sub(r"total_mass=\S+", "total_mass=1e9", text, count=1),
        # a file the package wrote before measures became hex of float64
        lambda text: decimal_measure_text(sc.load_measure(text)),
    ], ids=["truncated_atom_line", "no_dimension", "total_mass", "decimal_text"])
    def test_damaged_cached_measure_is_an_input_error(self, config_file, tmp_path, capsys,
                                                      damage):
        out = tmp_path / "runs"
        assert main(["limit", "-c", str(config_file), "-o", str(out)]) == 0
        run = run_dir_of(config_file, out)
        measure = run / "measures" / "layer_02.txt"
        measure.write_text(damage(measure.read_text()))
        capsys.readouterr()
        assert main(["verify", "-c", str(config_file), "-o", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert "layer_02.txt" in err[0]
        assert not list(run.glob("*.csv"))

    def test_non_finite_replicas_fail_one_check(self, config_file, capsys):
        # at alpha = 0.02 some stable weight draws exceed the float64 range,
        # and a replica output with one of them has no CF distance
        tiny = config_file.parent / "tiny_alpha.ini"
        tiny.write_text(TINY_CONFIG.replace("alpha = 1.5", "alpha = 0.02"))
        out = config_file.parent / "runs"
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(["verify", "-c", str(tiny), "-o", str(out)]) == 1
        err = capsys.readouterr().err
        failed = [line for line in err.splitlines() if "check failed" in line]
        assert len(failed) == 1, err
        assert re.search(r"check failed: \d+ of 3000 replicas at C = \d+ have non-finite "
                         r"outputs \(alpha = 0\.02\)$", failed[0]), failed
        assert "Traceback" not in err
        run = run_dir_of(tiny, out)
        assert (run / "probes.csv").exists() and not (run / "sweep.csv").exists()

    def test_simulate_refuses_non_finite_replicas(self, config_file, tmp_path, capsys):
        # the same overflow as above: `simulate` fails one check naming C,
        # the count and alpha, and writes no cache for `verify` to trust
        tiny = tmp_path / "tiny_alpha.ini"
        tiny.write_text(TINY_CONFIG.replace("alpha = 1.5", "alpha = 0.02"))
        out = tmp_path / "runs"
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(["simulate", "-c", str(tiny), "-o", str(out), "--channels", "64"]) == 1
        err = capsys.readouterr().err
        failed = [line for line in err.splitlines() if "check failed" in line]
        assert len(failed) == 1, err
        assert re.search(r"check failed: \d+ of 3000 replicas at C = 64 have non-finite "
                         r"outputs \(alpha = 0\.02\)$", failed[0]), failed
        assert "Traceback" not in err
        assert not list(run_dir_of(tiny, out).glob("replicas_*"))

    @pytest.mark.parametrize("command", ["verify", "report"])
    @pytest.mark.parametrize("fault", ["stale", "truncated"])
    def test_refused_cache_is_an_input_error(self, config_file, tmp_path, capsys, command, fault):
        # a cache of the old format, or cut short, stops the command with one
        # error line and exit 2 before it writes a CSV; `verify` reads its
        # caches before the limit measure and the probes
        out = tmp_path / "runs"
        assert main(["simulate", "-c", str(config_file), "-o", str(out),
                     "--channels", "32", "--replicas", "50"]) == 0
        run = run_dir_of(config_file, out)
        cache = run / "replicas_C32.bin"
        raw = cache.read_bytes()
        cache.write_bytes(b"SCREPL1\x00" + raw[8:] if fault == "stale" else raw[: len(raw) // 2])
        if command == "report":
            (run / "sweep.csv").write_text(CSV_HEADER + "\n2,3000,2000,0.1,0.05,0.000\n")
        before = sorted(p.relative_to(run) for p in run.rglob("*") if p.name != "run.log")
        capsys.readouterr()
        assert main([command, "-c", str(config_file), "-o", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert "replicas_C32.bin" in err[0]
        after = sorted(p.relative_to(run) for p in run.rglob("*") if p.name != "run.log")
        assert after == before

    @pytest.mark.parametrize("command", ["verify", "report"])
    @pytest.mark.parametrize("edit, field", [
        (("alpha = 1.5", "alpha = 1.2"), "alpha"),
        (("seed = 7", "seed = 8"), "seed"),
        (("spatial = 4", "spatial = 5"), "output dimension"),
    ], ids=["alpha", "seed", "positions"])
    def test_cache_of_another_configuration_is_an_input_error(self, tmp_path, capsys, command,
                                                              edit, field):
        # a full cache drawn at alpha = 1.5, network seed 7 or 4 positions,
        # copied over the cache of a run whose configuration differs in that
        # alone, stops the command with one error line naming the file and
        # the field, and exit 2, before it writes a file
        drawn, other = tmp_path / "drawn.ini", tmp_path / "other.ini"
        drawn.write_text(TINY_CONFIG)
        other.write_text(TINY_CONFIG.replace(*edit))
        out = tmp_path / "runs"
        for cfg, replicas in ((drawn, "3000"), (other, "50")):
            assert main(["simulate", "-c", str(cfg), "-o", str(out),
                         "--channels", "8", "--replicas", replicas]) == 0
        run = run_dir_of(other, out)
        (run / "replicas_C8.bin").write_bytes(
            (run_dir_of(drawn, out) / "replicas_C8.bin").read_bytes())
        if command == "report":
            (run / "sweep.csv").write_text(CSV_HEADER + "\n2,3000,2000,0.1,0.05,0.000\n")
        before = {p: p.read_bytes() for p in run.rglob("*") if p.name != "run.log"}
        capsys.readouterr()
        assert main([command, "-c", str(other), "-o", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert "replicas_C8.bin" in err[0] and f"has {field} " in err[0], err
        assert {p: p.read_bytes() for p in run.rglob("*") if p.name != "run.log"} == before

    # degenerate laws a run must survive, and one input it must refuse: at
    # sigma_b = 0 the target has no bias atom to strip for the mixture, at
    # sigma_w = 0 the mixture law is empty, at alpha = 0.5 the probe radii
    # must still reach both ends of the CF; a negative network seed is an
    # input error even where no gaussian input draws from it
    @pytest.mark.parametrize("edits, commands", [
        ([("sigma_b = 1.0", "sigma_b = 0.0")], ["simulate --channels 32", "verify"]),
        ([("sigma_w = 1.0", "sigma_w = 0.0")], ["simulate --channels 32", "verify"]),
        ([("alpha = 1.5", "alpha = 0.5")], ["verify"]),
        ([("seed = 7", "seed = -1"), ("kind = gaussian", "kind = file\npath = {x}")],
         ["simulate"]),
    ], ids=["sigma_b_0", "sigma_w_0", "alpha_0.5", "network_seed_negative_file_input"])
    def test_edge_configurations_run_or_exit_2(self, tmp_path, edits, commands):
        x = tmp_path / "x.npy"
        np.save(x, np.random.default_rng(0).standard_normal((1, 4, 2)))
        text = TINY_CONFIG
        for old, new in edits:
            assert old in text
            text = text.replace(old, new.format(x=x))
        path = tmp_path / "edge.ini"
        path.write_text(text)
        out = tmp_path / "runs"
        refused = "seed = -1" in text
        for command in commands:
            rc = main([*command.split(), "-c", str(path), "-o", str(out)])
            if refused:
                assert rc == 2
            else:
                assert rc == 0 if command.startswith("simulate") else rc in (0, 1)
        if refused:
            assert not out.exists()
            return
        run = run_dir_of(path, out)
        assert (run / "sweep.csv").read_text().startswith(CSV_HEADER + "\n")
        if commands[0].startswith("simulate"):
            lines = (run / "independence.csv").read_text().splitlines()
            assert [ln.split(",")[0] for ln in lines] == [
                "metric", "max_factorization_defect", "max_control_defect",
                "mixture_sup_dist", "mixture_mean_dist"]

    def test_verify_fails_on_impossible_threshold(self, config_file, tmp_path):
        strict = config_file.parent / "strict.ini"
        strict.write_text(TINY_CONFIG.replace("max_sup_dist = 0.2", "max_sup_dist = 1e-9"))
        assert main(["verify", "-c", str(strict), "-o", str(config_file.parent / "r")]) == 1

    def test_oracle_requires_alpha_two(self, config_file, tmp_path):
        assert main(["oracle", "-c", str(config_file), "-o", str(tmp_path / "r")]) == 2
        assert not (tmp_path / "r").exists()
        gauss = config_file.parent / "gauss.ini"
        gauss.write_text(TINY_CONFIG.replace("alpha = 1.5", "alpha = 2"))
        out = tmp_path / "runs"
        assert main(["oracle", "-c", str(gauss), "-o", str(out)]) == 0
        run = run_dir_of(gauss, out)
        assert (run / "oracle.csv").read_text().splitlines()[0] == "metric,value"

    def test_oracle_passes_on_a_zero_variance_position(self, tmp_path, monkeypatch):
        # sigma_b = 0 and 1-tap layers over an input that is 0 at position 1:
        # flat coordinates 2 and 3 have variance 0 in both covariances, and
        # their diagonals differ only by rounding
        x = np.random.default_rng(0).standard_normal((1, 4, 2))
        x[0, 1, :] = 0.0
        np.save(tmp_path / "x.npy", x)
        path = tmp_path / "zero.ini"
        path.write_text(
            TINY_CONFIG.replace("alpha = 1.5", "alpha = 2")
            .replace("sigma_b = 1.0", "sigma_b = 0")
            .replace("kind = gaussian", f"kind = file\npath = {tmp_path / 'x.npy'}")
            .replace("filter = 3\nstride = 1\npadding = 1", "filter = 1\nstride = 1\npadding = 0")
        )
        assert main(["oracle", "-c", str(path), "-o", str(tmp_path / "a")]) == 0
        implied_covariance = sc.verify.implied_covariance

        def off_at_zero_position(measure):
            cov = implied_covariance(measure)
            cov[2, 2] += 1e-3
            return cov

        monkeypatch.setattr(sc.verify, "implied_covariance", off_at_zero_position)
        assert main(["oracle", "-c", str(path), "-o", str(tmp_path / "b")]) == 1

    def test_measure_io_logged(self, config_file, tmp_path):
        out = tmp_path / "runs"
        assert main(["limit", "-c", str(config_file), "-o", str(out)]) == 0
        assert main(["verify", "-c", str(config_file), "-o", str(out)]) == 0
        run = run_dir_of(config_file, out)
        pattern = (r"stage=(save_measure|read_measure) layer=(\d+) atoms=(\d+) "
                   r"seconds=[\d.]+ peak_rss_mb=[\d.]+ minor_faults=\d+$")
        io = re.findall(pattern, (run / "run.log").read_text(), re.M)
        atoms = {layer: str(sc.read_measure(run / "measures" / f"layer_0{layer}.txt").n_atoms)
                 for layer in ("1", "2")}
        assert io == [("save_measure", "1", atoms["1"]), ("save_measure", "2", atoms["2"]),
                      ("read_measure", "2", atoms["2"])]

    def test_wide_gauss_oracle_and_verify(self, tmp_path):
        cfg = tmp_path / "wide.ini"
        cfg.write_text(WIDE_GAUSS_CONFIG)
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            for command in ("oracle", "verify"):
                assert main([command, "-c", str(cfg), "-o", str(out)]) == 0
        runs = [run_dir_of(cfg, out) for out in outs]
        files = ["oracle.csv", "sweep.csv", "probes.csv", "measures/layer_01.txt",
                 "measures/layer_02.txt"]
        for name in files:
            assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name
        for name in files[-2:]:
            text = (runs[0] / name).read_text()
            assert sc.dump_measure(sc.read_measure(runs[0] / name)) == text
        atom_lines = (runs[0] / "measures/layer_02.txt").read_text().splitlines()[1:]
        assert len(atom_lines) <= 6 * 6 * 2 + 1

    def test_deep_gaussian_layers_draw_from_eigen_atoms(self, config_file, tmp_path):
        deep = config_file.parent / "deep.ini"
        deep.write_text(
            TINY_CONFIG.replace("alpha = 1.5", "alpha = 2").replace(
                "[limit]", "[layer.3]\nfilter = 3\nstride = 1\npadding = 1\n\n[limit]"
            ).replace("max_diag_rel_err = 0.1", "max_diag_rel_err = 0.05")
        )
        out = tmp_path / "runs"
        assert main(["oracle", "-c", str(deep), "-o", str(out)]) == 0
        log = (run_dir_of(deep, out) / "run.log").read_text()
        sampled = re.findall(r"layer=3 .*sampled_atoms=(\d+) ", log)
        assert len(sampled) == 1 and int(sampled[0]) <= 8 + 1  # dim = 4 positions * 2 inputs

    def test_report_needs_a_sweep(self, config_file, tmp_path):
        out = tmp_path / "runs"
        assert main(["report", "-c", str(config_file), "-o", str(out)]) == 2
        assert not out.exists()
        assert main(["verify", "-c", str(config_file), "-o", str(out)]) == 0
        assert main(["report", "-c", str(config_file), "-o", str(out)]) == 0
        run = run_dir_of(config_file, out)
        plot = (run / "plot_sweep.csv").read_text().splitlines()
        assert plot[0] == "C,sup_cf_dist,mean_cf_dist"
        assert len(plot) == 4

    @pytest.mark.parametrize("damage", [
        ("2,3000,2000,0.1,0.05,0.000", "2,300"),
        ("2,3000,2000,0.1,0.05,0.000", "2,3000,2000,0.1,0.05,0.000,7"),
        (CSV_HEADER, CSV_HEADER.replace("seconds", "secs")),
    ], ids=["short_row", "long_row", "header"])
    def test_malformed_sweep_is_an_input_error(self, config_file, tmp_path, capsys, damage):
        # one error line naming the file, exit 2, and the run directory as it was
        run = run_dir_of(config_file, tmp_path / "runs")
        run.mkdir(parents=True)
        good = CSV_HEADER + "\n2,3000,2000,0.1,0.05,0.000\n8,3000,2000,0.08,0.04,0.000\n"
        (run / "sweep.csv").write_text(good.replace(*damage))
        capsys.readouterr()
        assert main(["report", "-c", str(config_file), "-o", str(tmp_path / "runs")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert "sweep.csv" in err[0]
        assert [p.name for p in run.iterdir()] == ["sweep.csv"]


POOLED_CONFIG = TINY_CONFIG.replace("require_decreasing = false",
                                    "require_decreasing = false\nworkers = 2")


class TestReplicaPool:
    def test_workers_start_before_the_limit_measure(self, tmp_path):
        # The limit step of a `verify` run with two workers allocates and
        # holds a touched 200 MB array.  Workers forked after it would each
        # peak above 200 MB; forked before it, they stay far below.
        cfg = tmp_path / "pooled.ini"
        cfg.write_text(POOLED_CONFIG)
        code = (
            "import resource\n"
            "import numpy as np\n"
            "from stableconv import cli\n"
            "held = []\n"
            "build = cli._compute_and_save_limit\n"
            "def heavy(*args):\n"
            "    held.append(np.ones(200 * 2**20 // 8))\n"
            "    return build(*args)\n"
            "cli._compute_and_save_limit = heavy\n"
            f"rc = cli.main(['verify', '-c', {str(cfg)!r}, '-o', {str(tmp_path / 'runs')!r}])\n"
            "print(rc, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
        )
        src = str(Path(sc.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, check=True)
        rc, worker_kb = map(int, done.stdout.split())
        assert rc == 0
        log = (run_dir_of(cfg, tmp_path / "runs") / "run.log").read_text()
        assert re.findall(r"stage=sweep C=32 replicas=3000 block=\d+ ", log)
        assert 0 < worker_kb / 1024 < 200

    @pytest.mark.parametrize("case, expected", [
        ("passes", 0),
        ("threshold", 1),
        ("non_finite", 1),
        ("simulate_non_finite", 1),
        ("damaged_measure", 2),
        ("raises", None),
    ])
    def test_no_worker_outlives_its_command(self, tmp_path, monkeypatch, case, expected):
        text = POOLED_CONFIG
        if case == "threshold":
            text = text.replace("max_sup_dist = 0.2", "max_sup_dist = 1e-9")
        if case.endswith("non_finite"):
            text = text.replace("alpha = 1.5", "alpha = 0.02")
        cfg = tmp_path / "pooled.ini"
        cfg.write_text(text)
        out = tmp_path / "runs"
        argv = ["verify", "-c", str(cfg), "-o", str(out)]
        if case == "simulate_non_finite":
            argv = ["simulate", "-c", str(cfg), "-o", str(out), "--channels", "64"]
        if case == "damaged_measure":
            assert main(["limit", "-c", str(cfg), "-o", str(out)]) == 0
            measure = run_dir_of(cfg, out) / "measures" / "layer_02.txt"
            measure.write_text(measure.read_text()[:-20])
        if case == "raises":
            def fail(*args, **kwargs):
                raise RuntimeError("probe failure")
            monkeypatch.setattr("stableconv.cli.generate_probes", fail)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            if expected is None:
                with pytest.raises(RuntimeError, match="probe failure"):
                    main(argv)
            else:
                assert main(argv) == expected
        assert multiprocessing.active_children() == []
