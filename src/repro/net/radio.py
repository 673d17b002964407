"""Physical-layer model: path loss, fading, SINR and packet error rate.

The testbed of §4 of the paper runs 802.11g radios at 1 Mbps (the DSSS
DBPSK base rate) over ~4 m line-of-sight links, with WARP interferers
raising the noise floor of jammed cells.  This module reproduces that
stack with textbook models:

* **Log-distance path loss** anchored at the free-space loss of the
  carrier frequency at 1 m; LOS indoor exponent defaults to 2.0.
* **Per-packet Rayleigh fading** (exponential power gain) plus optional
  log-normal shadowing — this is what turns the sharp DSSS waterfall
  curve into the smooth partial-loss regime the protocol feeds on.
* **DBPSK + DSSS error rate**: bit error ``0.5*exp(-PG*sinr)`` with the
  11-chip Barker processing gain, then ``PER = 1-(1-BER)^bits``.

Numbers are deliberately conservative approximations — DESIGN.md §2
records why only the *shape* of the induced erasure processes matters to
the protocol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

__all__ = [
    "RadioConfig",
    "free_space_loss_db",
    "path_loss_db",
    "received_power_dbm",
    "sinr_db",
    "ber_dbpsk",
    "per_from_sinr_db",
    "per_from_sinr_db_array",
    "expected_packet_loss",
    "sample_packet_loss",
]

SPEED_OF_LIGHT = 299_792_458.0


@dataclass(frozen=True)
class RadioConfig:
    """Static PHY parameters shared by every node of a deployment.

    Defaults mirror the paper's testbed: 2.472 GHz (channel 13), 3 dBm
    transmit power, 1 Mbps DSSS, 100-byte protocol payloads.
    """

    frequency_hz: float = 2.472e9
    tx_power_dbm: float = 3.0
    noise_floor_dbm: float = -95.0
    path_loss_exponent: float = 2.0
    reference_distance_m: float = 1.0
    processing_gain: float = 11.0
    bitrate_bps: float = 1e6
    shadowing_sigma_db: float = 2.0
    rayleigh_fading: bool = True
    min_distance_m: float = 0.1

    def reference_loss_db(self) -> float:
        """Free-space loss at the reference distance for this carrier."""
        return free_space_loss_db(self.reference_distance_m, self.frequency_hz)


def free_space_loss_db(distance_m: float, frequency_hz: float) -> float:
    """Friis free-space path loss in dB (distance clamped to 1 cm)."""
    distance_m = max(distance_m, 0.01)
    wavelength = SPEED_OF_LIGHT / frequency_hz
    return 20.0 * math.log10(4.0 * math.pi * distance_m / wavelength)


def path_loss_db(distance_m: float, config: RadioConfig) -> float:
    """Log-distance path loss: free space to ``d0``, exponent beyond."""
    distance_m = max(distance_m, config.min_distance_m)
    ref = config.reference_loss_db()
    return ref + 10.0 * config.path_loss_exponent * math.log10(
        max(distance_m / config.reference_distance_m, 1e-9)
    )


def received_power_dbm(
    tx_power_dbm: float, distance_m: float, config: RadioConfig
) -> float:
    """Mean received power before fading."""
    return tx_power_dbm - path_loss_db(distance_m, config)


def sinr_db(
    signal_dbm: float, interference_dbm_values, noise_floor_dbm: float
) -> float:
    """Signal over (noise + sum of interference powers), in dB."""
    noise_mw = 10.0 ** (noise_floor_dbm / 10.0)
    interference_mw = sum(10.0 ** (p / 10.0) for p in interference_dbm_values)
    return signal_dbm - 10.0 * math.log10(noise_mw + interference_mw)


def ber_dbpsk(sinr_linear: float, processing_gain: float) -> float:
    """DBPSK bit error rate with DSSS despreading gain."""
    gamma = max(sinr_linear, 0.0) * processing_gain
    return 0.5 * math.exp(-min(gamma, 700.0))


def per_from_sinr_db(
    sinr_value_db: float, packet_bits: int, processing_gain: float = 11.0
) -> float:
    """Packet error rate at a given (post-fading) SINR."""
    sinr_linear = 10.0 ** (sinr_value_db / 10.0)
    ber = ber_dbpsk(sinr_linear, processing_gain)
    if ber <= 0.0:
        return 0.0
    # log1p formulation stays accurate for tiny BER.
    log_success = packet_bits * math.log1p(-min(ber, 1.0 - 1e-15))
    return 1.0 - math.exp(log_success)


def per_from_sinr_db_array(
    sinr_values_db: np.ndarray,
    packet_bits: int,
    processing_gain: float = 11.0,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Vectorised :func:`per_from_sinr_db` over an array of SINRs.

    With ``out`` (a float64 array shaped like the input, possibly the
    input itself) every step runs in place and ``out`` is returned;
    without it, one fresh array is allocated.  Either way the same
    ufuncs run in the same order, so the values are identical.
    """
    sinr_values_db = np.asarray(sinr_values_db, dtype=float)
    scalar = out is None and sinr_values_db.ndim == 0
    if out is None:
        out = np.empty(sinr_values_db.shape)
    np.divide(sinr_values_db, 10.0, out=out)
    np.power(10.0, out, out=out)  # linear SINR
    np.maximum(out, 0.0, out=out)
    np.multiply(out, processing_gain, out=out)
    np.minimum(out, 700.0, out=out)  # gamma
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.multiply(out, 0.5, out=out)  # BER
    np.minimum(out, 1.0 - 1e-15, out=out)
    np.negative(out, out=out)
    np.log1p(out, out=out)
    np.multiply(out, packet_bits, out=out)  # log P(success)
    np.expm1(out, out=out)
    np.negative(out, out=out)
    return out[()] if scalar else out


#: SINRs per in-place PER block: 32 x 3,840 quadrature nodes is about
#: 1 MB of float64, small enough to stay cache-resident.
_QUADRATURE_BLOCK = 32

#: Margin (dB) by which the fill thresholds of :func:`_saturation` sit
#: inside the bisected saturation edges.
_SATURATION_GUARD_DB = 0.5


@lru_cache(maxsize=16)
def _quadrature_nodes(
    rayleigh_fading: bool,
    shadowing_sigma_db: float,
    n_fading: int,
    n_shadowing: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Fading/shadowing offsets (dB) and weights of the PER quadrature.

    Built once per configuration and shared, so both arrays are
    read-only.
    """
    offsets = np.zeros(1)
    weights = np.ones(1)
    if rayleigh_fading:
        u = (np.arange(n_fading) + 0.5) / n_fading
        gain = -np.log1p(-u)
        offsets = 10.0 * np.log10(np.maximum(gain, 1e-12))
        weights = np.full(n_fading, 1.0 / n_fading)
    if shadowing_sigma_db > 0:
        nodes, hermite_w = np.polynomial.hermite.hermgauss(n_shadowing)
        shadow_db = math.sqrt(2.0) * shadowing_sigma_db * nodes
        shadow_w = hermite_w / math.sqrt(math.pi)
        offsets = (offsets[:, None] + shadow_db[None, :]).ravel()
        weights = (weights[:, None] * shadow_w[None, :]).ravel()
    offsets.flags.writeable = False
    weights.flags.writeable = False
    return offsets, weights


@lru_cache(maxsize=16)
def _saturation(
    packet_bits: int, processing_gain: float
) -> Tuple[float, float, float, float]:
    """Fill thresholds of the PER quadrature: ``(low, low_value, high, high_value)``.

    :func:`per_from_sinr_db_array` is exactly constant at both ends:
    ``high_value`` (its value at ``+inf``) once ``gamma`` reaches the
    700 clip, ``low_value`` (its value at ``-inf``; 1.0 for campaign
    packet sizes, where ``expm1`` returns -1.0) deep in the waterfall.
    Each edge is bisected on that function itself, so there is no
    second formula to keep in sync, and then moved inward by
    :data:`_SATURATION_GUARD_DB`: every SINR ``>= high`` evaluates to
    ``high_value`` and every SINR ``<= low`` to ``low_value``.  A side
    whose bracket does not straddle its edge gets an infinite
    threshold, which fills only the infinity itself.
    """

    def per(x: float) -> float:
        return float(per_from_sinr_db_array(x, packet_bits, processing_gain))

    def edge(value: float, inside: float, outside: float) -> float:
        # Bisect to the last point, from ``inside``, known to give ``value``.
        if per(inside) != value or per(outside) == value:
            return math.copysign(math.inf, inside)
        while True:
            mid = 0.5 * (inside + outside)
            if mid in (inside, outside):
                return inside
            if per(mid) == value:
                inside = mid
            else:
                outside = mid

    # The bracket, +-400 dB, lies far past both edges.
    low_value, high_value = per(-math.inf), per(math.inf)
    low = edge(low_value, -400.0, 400.0) - _SATURATION_GUARD_DB
    high = edge(high_value, 400.0, -400.0) + _SATURATION_GUARD_DB
    return low, low_value, high, high_value


def expected_packet_loss(
    mean_sinr_db,
    packet_bits: int,
    config: RadioConfig,
    n_fading: int = 256,
    n_shadowing: int = 15,
) -> np.ndarray:
    """Expectation of :func:`sample_packet_loss` by fixed quadrature.

    Integrates the PER waterfall over per-packet Rayleigh fading
    (inverse-CDF midpoint rule on the exponential power gain) and
    log-normal shadowing (Gauss-Hermite), so per-link loss probabilities
    come out analytically instead of by Monte-Carlo link probing.  For a
    monotone integrand bounded by 1 the midpoint rule error is below
    ``1/(2 n_fading)`` — far inside campaign Monte-Carlo noise.

    The integrand fills one ``input shape + (nodes,)`` array, a block
    of SINRs at a time.  Per block, the faded SINRs ``>= high`` (of
    :func:`_saturation`) get the clip constant, those ``<= low`` get
    the deep-fade constant, and only the rest, NaN included, run
    through :func:`per_from_sinr_db_array`: every node gets the value
    that function gives it, at its own position.  The blocks are
    filled serially in the caller's thread; a Figure-2 campaign builds
    its tables on a helper process instead (see
    :func:`repro.analysis.experiments.run_campaign`).  The array is
    reduced by a single ``@ weights`` at the input's shape: flattening
    the leading axes would change matmul's summation order and the last
    bits of the result.

    Args:
        mean_sinr_db: scalar or array of pre-fading mean SINRs.
        packet_bits: bits per packet (PER exponent).
        config: PHY parameters (fading/shadowing switches included).
        n_fading: Rayleigh quadrature nodes (ignored when fading is off).
        n_shadowing: Gauss-Hermite nodes (ignored when sigma is 0).

    Returns:
        Array of expected loss probabilities, shaped like the input.
    """
    offsets, weights = _quadrature_nodes(
        bool(config.rayleigh_fading),
        float(config.shadowing_sigma_db),
        n_fading,
        n_shadowing,
    )
    low, low_value, high, high_value = _saturation(
        packet_bits, float(config.processing_gain)
    )
    sinr = np.asarray(mean_sinr_db, dtype=float)
    per = np.empty(sinr.shape + offsets.shape)
    flat_sinr = sinr.reshape(-1)
    flat_per = per.reshape(-1, offsets.size)
    for start in range(0, flat_sinr.size, _QUADRATURE_BLOCK):
        stop = start + _QUADRATURE_BLOCK
        block = flat_per[start:stop]
        np.add(flat_sinr[start:stop, None], offsets, out=block)
        high_mask = block >= high
        # Middle is "neither high nor low", so NaN lands in it.
        middle_mask = ~((block <= low) | high_mask)
        middle = block[middle_mask]  # contiguous, like the unfilled block
        per_from_sinr_db_array(
            middle, packet_bits, config.processing_gain, out=middle
        )
        block.fill(low_value)
        np.copyto(block, high_value, where=high_mask)
        block[middle_mask] = middle
    return per @ weights


def sample_packet_loss(
    mean_sinr_db: float,
    packet_bits: int,
    config: RadioConfig,
    rng: np.random.Generator,
) -> bool:
    """Sample one packet's fate on a link with the given mean SINR.

    Applies per-packet Rayleigh fading (exponential power gain, mean 1)
    and log-normal shadowing to the *signal* term, then flips a coin at
    the resulting PER.  Returns True when the packet is LOST.
    """
    faded_db = mean_sinr_db
    if config.rayleigh_fading:
        gain = rng.exponential(1.0)
        faded_db += 10.0 * math.log10(max(gain, 1e-12))
    if config.shadowing_sigma_db > 0:
        faded_db += rng.normal(0.0, config.shadowing_sigma_db)
    per = per_from_sinr_db(faded_db, packet_bits, config.processing_gain)
    return bool(rng.random() < per)
