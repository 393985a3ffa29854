import json
from pathlib import Path

import numpy as np
import pytest

import stableconv as sc

# Value pins: the values beside each digest pin, recorded at a tolerance.
# Unlike the digests, they hold when only the rounding moves: on another
# numpy SIMD dispatch, or under another order of summation.  Each entry is
# compared with its own pinned value, within VALUE_RTOL of it, or within
# the absolute floor VALUE_ATOL for entries at or near 0 (a zero component
# of a unit direction).  The drift measured across SIMD dispatches is at
# most 3.3e-14 relative per entry.
VALUE_PINS = {
    key: value
    for name in ("value_pins.json", "draw_and_measure_value_pins.json")
    for key, value in json.loads(Path(__file__).with_name(name).read_text()).items()
}
VALUE_RTOL = 1e-11
VALUE_ATOL = 1e-13


def values_match(got, pin) -> bool:
    """Whether each entry of ``got`` lies within VALUE_RTOL of its entry of
    ``pin``, or within VALUE_ATOL of it."""
    got, pin = np.asarray(got, dtype=np.float64), np.asarray(pin, dtype=np.float64)
    return got.shape == pin.shape and bool(
        np.all(np.abs(got - pin) <= VALUE_RTOL * np.abs(pin) + VALUE_ATOL))


def spread_pin(values):
    """The fingerprint of a draw stream, or of a measure's weights or
    directions: 16 entries spread evenly over the flat ``values``, then
    their largest |value|."""
    flat = np.ravel(values)
    i = np.arange(16)
    return np.append(flat[i * (len(flat) - 1) // 15], np.abs(flat).max())


def toy_layer():
    return sc.ConvLayerConfig(spatial_in=4, filter_shape=3, stride=1, padding=1)


def toy_inputs(seed=0, in_channels=1, spatial=(4,), k=2):
    rng = np.random.default_rng(seed)
    return sc.input_tensor(rng.standard_normal((in_channels, *spatial, k)))


def toy_spec(alpha=1.5, channels=64, n_layers=2, seed=11, activation="tanh",
             sigma_w=1.0, sigma_b=1.0):
    return sc.NetworkSpec(
        alpha=alpha,
        sigma_w=sigma_w,
        sigma_b=sigma_b,
        layers=tuple(toy_layer() for _ in range(n_layers)),
        activation=sc.get_activation(activation),
        channels=channels,
        inputs=toy_inputs(),
        seed=seed,
    )


def decimal_measure_text(measure):
    """A measure as the 17-digit decimal text the package wrote before its
    files became hex of float64: a header with dimension, alpha, total mass
    and the bias tag, then weight and direction components per atom line.
    The measure pins hash this text, and old files hold it."""
    header = (f"dimension={measure.dimension} alpha={measure.alpha:.17g} "
              f"total_mass={measure.total_mass:.17g}")
    if measure.bias_index is not None:
        header += f" bias_index={measure.bias_index}"
    rows = np.column_stack([measure.weights, measure.directions]).tolist()
    return header + "\n" + "".join(" ".join(f"{v:.17g}" for v in row) + "\n" for row in rows)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_conv_case(rng, two_d=False, k=None):
    """A small random geometry plus matching random inputs."""
    if two_d:
        spatial = (int(rng.integers(3, 6)), int(rng.integers(3, 6)))
        filt = tuple(int(rng.integers(1, min(4, s + 1))) for s in spatial)
        stride = tuple(int(rng.integers(1, 3)) for _ in spatial)
        pad = tuple(int(rng.integers(0, 2)) for _ in spatial)
    else:
        spatial = (int(rng.integers(3, 8)),)
        filt = (int(rng.integers(1, spatial[0] + 1)),)
        stride = (int(rng.integers(1, 3)),)
        pad = (int(rng.integers(0, 3)),)
    filt = tuple(min(f, s + 2 * q) for f, s, q in zip(filt, spatial, pad))
    cfg = sc.ConvLayerConfig(spatial_in=spatial, filter_shape=filt, stride=stride, padding=pad)
    c0 = int(rng.integers(1, 3))
    k = int(rng.integers(1, 4)) if k is None else k
    x = sc.input_tensor(rng.standard_normal((c0, *spatial, k)))
    return cfg, x


# The float64 kernels numpy dispatched to when the pinned SHA-256 digests in
# these tests were recorded (numpy 2.4.6 on a 2-core AVX-512 Xeon).
PIN_KERNELS = {"tan": "X86_V4", "power": "X86_V4"}


def pytest_report_header(config):
    """numpy's version and SIMD dispatch: the pinned digests hold on one
    dispatch, since numpy's float64 tan and power kernels (the CMS transform,
    atom weights) round differently on different SIMD targets.  The header
    says whether this host dispatches as :data:`PIN_KERNELS`, so a pin that
    fails on a host that does not reads as a dispatch mismatch."""
    version = f"numpy {np.__version__}"
    pinned = ", ".join(f"{name} {target}" for name, target in PIN_KERNELS.items())
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:  # numpy < 2
        return [version, f"pins recorded under float64 kernels {pinned}; this host's are unknown"]
    simd = np.show_config(mode="dicts")["SIMD Extensions"]
    info = opt_func_info(func_name="^(tan|power)$", signature="float64")
    current = {name: sig["current"] for name, sigs in info.items() for sig in sigs.values()}
    if current == PIN_KERNELS:
        verdict = "match"
    else:
        verdict = "differ, so a digest pin that fails here shows the dispatch, not a wrong value"
    return [
        f"{version}: SIMD baseline {' '.join(simd['baseline'])}, "
        f"dispatch targets {' '.join(simd['found']) or 'none'}",
        "float64 kernels: " + ", ".join(f"{n} {t}" for n, t in current.items())
        + f"; pins recorded under {pinned}: {verdict}",
    ]
