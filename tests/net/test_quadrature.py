"""Edge cases of the in-place PER quadrature in ``repro.net.radio``.

The golden tables of ``tests/sim/test_accounting_golden.py`` pin the
values on campaign-shaped inputs; this module pins the shapes and the
sharing contract around them: scalars stay scalars, empty inputs keep
their shape, block boundaries leave no seam, and the cached quadrature
nodes cannot be written through.  It also pins the saturated fill and
the thread split against the plain chain ``per_from_sinr_db_array(sinr
+ offsets) @ weights``: the same bits at every shape and configuration,
NaN and infinities included, fill thresholds that only cover nodes the
chain itself maps to the fill constants, no thread left running, and
no split inside a sharded campaign's workers.
"""

from __future__ import annotations

import itertools
import sys
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

import numpy as np
import pytest

from repro.net import radio
from repro.net.radio import (
    RadioConfig,
    _quadrature_nodes,
    _saturation,
    expected_packet_loss,
    per_from_sinr_db,
    per_from_sinr_db_array,
)

pytestmark = pytest.mark.accounting

BITS = 8 * 140


def test_zero_d_input_returns_a_numpy_scalar():
    value = expected_packet_loss(12.0, BITS, RadioConfig())
    assert type(value) is np.float64
    assert 0.0 < value < 1.0
    assert type(expected_packet_loss(np.float64(12.0), BITS, RadioConfig())) is np.float64


@pytest.mark.parametrize("shape", [(0,), (2, 0, 3), (0, 4)])
@pytest.mark.parametrize(
    "config",
    [RadioConfig(), RadioConfig(rayleigh_fading=False, shadowing_sigma_db=0.0)],
)
def test_empty_input_keeps_its_shape(shape, config):
    out = expected_packet_loss(np.zeros(shape), BITS, config)
    assert out.shape == shape
    assert out.dtype == np.float64


@pytest.mark.parametrize("size", [1, 31, 32, 33, 64, 65, 100])
def test_block_boundaries_leave_no_seam(size):
    sinr = np.linspace(-10.0, 30.0, size)
    whole = expected_packet_loss(sinr, BITS, RadioConfig())
    one_by_one = [expected_packet_loss(x, BITS, RadioConfig()) for x in sinr]
    np.testing.assert_allclose(whole, one_by_one, rtol=1e-12, atol=1e-15)


def test_cached_nodes_are_shared_and_read_only():
    config = RadioConfig()
    key = (config.rayleigh_fading, config.shadowing_sigma_db, 256, 15)
    offsets, weights = _quadrature_nodes(*key)
    assert offsets.shape == weights.shape == (256 * 15,)
    assert _quadrature_nodes(*key)[0] is offsets
    np.testing.assert_allclose(weights.sum(), 1.0, rtol=1e-12)
    with pytest.raises(ValueError):
        offsets[0] = 0.0
    with pytest.raises(ValueError):
        weights[:] = 1.0
    expected_packet_loss(np.array([5.0, 10.0]), BITS, config)
    assert _quadrature_nodes(*key)[0] is offsets


def test_in_place_per_matches_the_fresh_array():
    sinr = np.linspace(-20.0, 20.0, 41)
    fresh = per_from_sinr_db_array(sinr, BITS)
    buffer = sinr.copy()
    out = per_from_sinr_db_array(buffer, BITS, out=buffer)
    assert out is buffer
    np.testing.assert_array_equal(out, fresh)
    np.testing.assert_allclose(
        fresh, [per_from_sinr_db(x, BITS) for x in sinr], rtol=1e-12, atol=1e-15
    )


def test_per_array_keeps_scalars_scalar():
    assert type(per_from_sinr_db_array(3.0, BITS)) is np.float64
    assert per_from_sinr_db_array(np.zeros((2, 0)), BITS).shape == (2, 0)


CONFIGS = [
    (bits, RadioConfig(processing_gain=gain, rayleigh_fading=fading, shadowing_sigma_db=sigma))
    for bits, gain, fading, sigma in itertools.product(
        (8 * 128, BITS), (11.0, 1.0), (True, False), (2.0, 0.0)
    )
]
SATURATION_KEYS = sorted({(bits, config.processing_gain) for bits, config in CONFIGS})


def plain_chain(sinr, bits, config):
    """The quadrature with no fill, no blocks and no threads."""
    offsets, weights = _quadrature_nodes(
        config.rayleigh_fading, config.shadowing_sigma_db, 256, 15
    )
    sinr = np.asarray(sinr, dtype=float)
    return per_from_sinr_db_array(
        sinr[..., None] + offsets, bits, config.processing_gain
    ) @ weights


def assert_same_bits(actual, expected):
    assert type(actual) is type(expected)
    assert actual.shape == expected.shape
    assert np.asarray(actual).tobytes() == np.asarray(expected).tobytes()


@pytest.mark.parametrize("shape", [(), (5,), (9, 8, 9), (3, 0, 2)])
@pytest.mark.parametrize("bits,config", CONFIGS)
def test_fill_matches_the_plain_chain(shape, bits, config):
    sinr = np.random.default_rng(len(shape) + bits).uniform(-60.0, 80.0, shape)
    assert_same_bits(
        expected_packet_loss(sinr, bits, config), plain_chain(sinr, bits, config)
    )


#: The quadrature of a scalar NaN or infinity at 1,120 bits, default
#: radio; the values the unfilled kernel returned.
SPECIAL_SCALARS = {
    np.nan: "nan",
    np.inf: "0x1.2ee9719328d0ep-1001",
    -np.inf: "0x1.0000000000004p+0",
}


@pytest.mark.parametrize("value", list(SPECIAL_SCALARS))
def test_nan_and_infinities_keep_their_scalar_values(value):
    scalar = expected_packet_loss(value, BITS, RadioConfig())
    assert float(scalar).hex() == SPECIAL_SCALARS[value]
    assert_same_bits(scalar, plain_chain(value, BITS, RadioConfig()))


def test_nan_and_infinities_inside_a_table():
    sinr = np.random.default_rng(3).uniform(-60.0, 80.0, (9, 4))
    sinr[0, 0], sinr[4, 2], sinr[8, 3], sinr[2, 1] = np.nan, np.inf, -np.inf, np.nan
    table = expected_packet_loss(sinr, BITS, RadioConfig())
    assert_same_bits(table, plain_chain(sinr, BITS, RadioConfig()))
    assert np.isnan(table).sum() == 2


@pytest.mark.parametrize("workers", [2, 3, 64])
def test_serial_path_equals_threaded_path(monkeypatch, workers):
    sinr = np.random.default_rng(workers).uniform(-60.0, 80.0, (9, 8, 9))
    monkeypatch.setattr(radio, "_quadrature_workers", lambda n_blocks: min(workers, n_blocks))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the chunks as finely as possible
    try:
        threaded = expected_packet_loss(sinr, BITS, RadioConfig())
    finally:
        sys.setswitchinterval(interval)
    monkeypatch.setattr(radio, "_quadrature_workers", lambda n_blocks: 1)
    serial = expected_packet_loss(sinr, BITS, RadioConfig())
    assert_same_bits(threaded, serial)
    assert_same_bits(serial, plain_chain(sinr, BITS, RadioConfig()))


@pytest.mark.parametrize("bits,gain", SATURATION_KEYS)
def test_fill_thresholds_are_sound(bits, gain):
    low, low_value, high, high_value = _saturation(bits, gain)
    assert _saturation(bits, gain) is _saturation(bits, gain)
    assert -400.0 < low < high < 400.0
    assert low_value == per_from_sinr_db_array(-np.inf, bits, gain)
    assert high_value == per_from_sinr_db_array(np.inf, bits, gain)
    above = per_from_sinr_db_array(np.linspace(high, 400.0, 1_000_001), bits, gain)
    below = per_from_sinr_db_array(np.linspace(-400.0, low, 1_000_001), bits, gain)
    assert np.all(above == high_value)
    assert np.all(below == low_value)


def test_fill_constants_at_campaign_packet_size():
    low, low_value, high, high_value = _saturation(8 * 128, 11.0)
    assert high_value.hex() == "0x1.14f2b0fb9307fp-1001"
    assert low_value == 1.0
    # The guard keeps the thresholds strictly inside the saturated range.
    assert per_from_sinr_db_array(high - 0.5, 8 * 128, 11.0) == high_value
    assert per_from_sinr_db_array(low + 0.5, 8 * 128, 11.0) == low_value


def test_no_saturation_means_no_fill():
    # Without processing gain the chain is constant over finite SINRs
    # and NaN at +inf: neither edge exists, so only infinities fill.
    sinr = np.array([-np.inf, -5.0, 0.0, 30.0, np.inf])
    config = RadioConfig(processing_gain=0.0)
    with np.errstate(invalid="ignore"):  # inf * 0
        low, _, high, _ = _saturation(BITS, 0.0)
        assert (low, high) == (-np.inf, np.inf)
        assert_same_bits(
            expected_packet_loss(sinr, BITS, config), plain_chain(sinr, BITS, config)
        )


@pytest.mark.parametrize("workers", [None, 2, 3])
def test_no_thread_outlives_a_call(monkeypatch, workers):
    if workers is not None:
        monkeypatch.setattr(
            radio, "_quadrature_workers", lambda n_blocks: min(workers, n_blocks)
        )
    before = threading.active_count()
    expected_packet_loss(np.zeros((9, 8, 9)), BITS, RadioConfig())
    assert threading.active_count() == before


def test_workers_follow_cpu_affinity(monkeypatch):
    monkeypatch.setattr(radio.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert radio._quadrature_workers(1) == 1
    assert radio._quadrature_workers(2) == 2
    assert radio._quadrature_workers(21) == 3
    monkeypatch.delattr(radio.os, "sched_getaffinity")
    monkeypatch.setattr(radio.os, "cpu_count", lambda: None)
    assert radio._quadrature_workers(21) == 1


def test_only_the_main_thread_of_a_top_level_process_splits(monkeypatch):
    monkeypatch.setattr(radio.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert radio._quadrature_workers(21) == 3
    with ThreadPoolExecutor(1) as pool:  # a thread-sharded campaign worker
        assert pool.submit(radio._quadrature_workers, 21).result() == 1
    with ProcessPoolExecutor(1) as pool:  # a process-sharded one
        assert pool.submit(radio._quadrature_workers, 21).result() == 1
    monkeypatch.setattr(radio.multiprocessing, "parent_process", lambda: object())
    assert radio._quadrature_workers(21) == 1
