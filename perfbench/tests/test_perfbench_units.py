"""Tests of the benchmark's own machinery: span arithmetic, the call
wrappers, the generated configurations and the metric list."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import layers  # noqa: E402
import tracing  # noqa: E402
from tracing import Span, Tracer, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def span(id, start, end, parent=None, hot_child_s=0.0):
    return Span(id, f"s{id}", start, end, parent, "run", hot_child_s)


def test_self_time_subtracts_union_of_children_and_hot_calls():
    spans = [
        span(0, 0.0, 10.0, hot_child_s=0.5),
        span(1, 1.0, 4.0, parent=0),
        span(2, 3.0, 6.0, parent=0),  # overlaps span 1: the union is [1, 6]
        span(3, 9.0, 12.0, parent=0),  # only [9, 10] lies inside the parent
        span(4, 2.0, 3.0, parent=1),
    ]
    got = self_times(spans)
    assert got[0] == pytest.approx(10.0 - 5.0 - 1.0 - 0.5)
    assert got[1] == pytest.approx(3.0 - 1.0)
    assert got[2] == pytest.approx(3.0)
    assert got[4] == pytest.approx(1.0)


def test_hot_calls_are_aggregated_and_charged_to_their_span():
    tracer = Tracer("run", hot={"leaf"})

    def leaf(x):
        return tracer.call("inner", lambda: x, (), {})  # inside a hot call

    def outer():
        return sum(tracer.call("leaf", leaf, (i,), {}, lambda a, k, r: {"n": 1}) for i in range(3))

    assert tracer.call("outer", outer, (), {}) == 3
    assert [s.name for s in tracer.spans] == ["outer"]
    assert tracer.totals["leaf"]["calls"] == 3 and tracer.totals["leaf"]["n"] == 3
    assert tracer.totals["inner"]["calls"] == 3
    # inner time is already inside leaf time, so only leaf is charged
    assert tracer.spans[0].hot_child_s == pytest.approx(tracer.totals["leaf"]["s"])
    assert self_times(tracer.spans)[0] >= 0.0


def test_install_wraps_every_binding_and_restore_puts_originals_back():
    import stableconv
    from stableconv import cli, limits, network, stable, tensors, verify

    modules = [stableconv, cli, limits, network, stable, tensors, verify]
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    gather = tensors.PatchMap.gather
    tracer = Tracer("run", hot=layers.HOT)
    restore = tracing.install(tracer, layers.TARGETS)
    try:
        assert network.sample_standard is stable.sample_standard
        assert network.sample_standard is not before[("stableconv.stable", "sample_standard")]
        assert cli.limit_measures is verify.limit_measures is limits.limit_measures
        assert tensors.PatchMap.gather is not gather
        stable.sample_multivariate(
            limits.gamma_first(
                stableconv.input_tensor(np.ones((1, 4, 2))),
                stableconv.ConvLayerConfig(spatial_in=4, filter_shape=3, stride=1, padding=1),
                1.5,
                1.0,
                1.0,
            ),
            np.random.default_rng(0),
            size=5,
        )
    finally:
        restore()
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert tensors.PatchMap.gather is gather
    names = [s.name for s in tracer.spans]
    assert names == ["limits.gamma_first", "stable.sample_multivariate"]
    assert tracer.totals["stable.sample_standard"]["draws"] == 5 * 4
    assert tracer.spans[1].data["bytes"] == 5 * 4 * 8


def test_toy_pipeline_reproduces_the_toy_demo_at_seed_zero(tmp_path):
    from stableconv.config import load_config

    path = tmp_path / "toy.ini"
    path.write_text(WORKLOADS["toy-pipeline"].ini(0))
    ours = load_config(path).resolved_text().splitlines()
    demo = load_config(ROOT / "demos" / "toy.ini").resolved_text().splitlines()
    # the only difference: the decreasing check is off (see workloads.py)
    diff = [(a, b) for a, b in zip(ours, demo) if a != b]
    assert len(ours) == len(demo)
    assert diff == [("require_decreasing = false", "require_decreasing = true")]


def test_seed_reaches_both_streams_of_every_workload(tmp_path):
    from stableconv.config import load_config

    for w in WORKLOADS.values():
        path = tmp_path / f"{w.name}.ini"
        path.write_text(w.ini(7))
        cfg = load_config(path)
        assert (cfg.seed, cfg.limit_seed) == (18, 12)


def test_benchmark_json_lists_the_per_layer_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert listed == list(layers.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
