"""Edge cases of the in-place PER quadrature in ``repro.net.radio``.

The golden tables of ``tests/sim/test_accounting_golden.py`` pin the
values on campaign-shaped inputs; this module pins the shapes and the
sharing contract around them: scalars stay scalars, empty inputs keep
their shape, block boundaries leave no seam, and the cached quadrature
nodes cannot be written through.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.net.radio import (
    RadioConfig,
    _quadrature_nodes,
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
