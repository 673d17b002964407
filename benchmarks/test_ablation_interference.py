"""Ablation: artificial interference on/off (docs/paper-map.md, §4).

The paper's §3.3 argument: without engineered noise, Eve — same PHY,
line of sight — may miss (almost) nothing a terminal received, so no
secret can be distilled.  With the rotating jammers, every receiver
(Eve included) misses a guaranteed fraction and the secret rate is
substantial.

Measured with the oracle estimator so the comparison isolates *channel
physics* from estimation error.
"""

import numpy as np
import pytest

from benchmarks.conftest import emit
from repro import SessionConfig, Testbed, TestbedConfig
from repro.core import OracleEstimator, run_experiment
from repro.testbed import Placement

SESSION = SessionConfig(n_x_packets=180, payload_bytes=50)
PLACEMENT = Placement(eve_cell=4, terminal_cells=(0, 2, 6, 8))


def run_with(testbed, seed=11):
    rng = np.random.default_rng(seed)
    medium, names = testbed.build_medium(PLACEMENT, rng)
    result = run_experiment(medium, names, OracleEstimator(), rng, config=SESSION)
    return result


@pytest.fixture(scope="module")
def on_off():
    noisy = run_with(Testbed(TestbedConfig(interferer_power_dbm=10.0)))
    quiet = run_with(Testbed(TestbedConfig(interference_enabled=False)))
    return noisy, quiet


def test_ablation_table(on_off, benchmark):
    benchmark(lambda: on_off)
    noisy, quiet = on_off
    lines = [
        f"{'config':>16s} {'secret bits':>12s} {'efficiency':>11s} {'reliability':>12s}",
        f"{'interference on':>16s} {noisy.secret_bits:>12d} "
        f"{noisy.efficiency:>11.4f} {noisy.reliability:>12.2f}",
        f"{'interference off':>16s} {quiet.secret_bits:>12d} "
        f"{quiet.efficiency:>11.4f} {quiet.reliability:>12.2f}",
    ]
    emit("Ablation: interference on/off (oracle estimator)", "\n".join(lines))


def test_interference_creates_the_secret_rate(on_off):
    noisy, quiet = on_off
    # Jamming must multiply the distillable secret by a large factor.
    assert noisy.secret_bits > 3 * max(quiet.secret_bits, 1)


def test_both_remain_perfectly_secret_under_oracle(on_off):
    noisy, quiet = on_off
    assert noisy.reliability == 1.0
    assert quiet.reliability == 1.0


def test_sweep_interferer_power():
    """Secret rate grows with interferer power (until jamming saturates
    the terminals too)."""
    rates = []
    for power in (0.0, 6.0, 10.0):
        result = run_with(Testbed(TestbedConfig(interferer_power_dbm=power)))
        rates.append(result.secret_bits)
    lines = [f"{p:>6.1f} dBm -> {bits} secret bits"
             for p, bits in zip((0.0, 6.0, 10.0), rates)]
    emit("Ablation: interferer power sweep", "\n".join(lines))
    assert rates[1] > rates[0]


def test_benchmark_loss_model(benchmark):
    """Timed kernel: one physical-layer loss decision."""
    from repro.net.packet import Packet, PacketKind

    testbed = Testbed(TestbedConfig(interferer_power_dbm=10.0))
    rng = np.random.default_rng(2)
    medium, names = testbed.build_medium(PLACEMENT, rng)
    src = medium.node(names[0])
    dst = medium.node(names[1])
    packet = Packet(
        kind=PacketKind.X_DATA, src=names[0],
        payload=np.zeros(100, dtype=np.uint8),
    )

    def kernel():
        return medium.loss_model.lost(src, dst, packet, 0, rng)

    benchmark(kernel)
