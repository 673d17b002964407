"""The paper's §4 deployment, in simulation.

A 14 m² indoor area divided into a 3×3 grid of logical cells (the cell
diagonal is the paper's 1.75 m minimum distance), with:

* ``n = 3..8`` terminals and one eavesdropper, each occupying a distinct
  cell (:mod:`repro.testbed.placements` enumerates all 9·C(8,n)
  positionings, exactly the paper's experiment design),
* 12 directional interference antennas (six WARP-like dual-antenna
  nodes) on the perimeter, rotating through 9 noise patterns — one row
  plus one column of cells jammed per time slot
  (:mod:`repro.testbed.interference`),
* an 802.11g-like PHY at 1 Mbps (:mod:`repro.net.radio`) wired into a
  :class:`~repro.net.medium.BroadcastMedium` by
  :mod:`repro.testbed.deployment`,
* an analytic slot-aware bridge to the batched engine
  (:mod:`repro.testbed.pertable`): per-(pattern, tx, rx) mean-SINR
  tables from the same link model the medium reads
  (:func:`repro.testbed.deployment.pattern_mean_sinr_db`), with the
  Rayleigh-faded PER integrated by fixed quadrature,
  feeding :class:`~repro.sim.spec.ScheduleLossSpec` — no Monte-Carlo
  link probing, and the rotating schedule's burstiness survives.
"""

from repro.testbed.deployment import (
    PhysicalLossModel,
    Testbed,
    TestbedConfig,
    pattern_mean_sinr_db,
)
from repro.testbed.geometry import TestbedGeometry
from repro.testbed.interference import (
    InterferenceField,
    InterfererAntenna,
    NoisePattern,
    build_interference_field,
)
from repro.testbed.estimator import (
    InterferenceAwareEstimator,
    calibrate_min_jam_loss,
)
from repro.testbed.pertable import (
    placement_schedule_specs,
    schedule_loss_table,
)
from repro.testbed.placements import (
    Placement,
    enumerate_placements,
    placement_count,
    sample_placements,
)

__all__ = [
    "TestbedGeometry",
    "InterfererAntenna",
    "NoisePattern",
    "InterferenceField",
    "build_interference_field",
    "TestbedConfig",
    "Testbed",
    "PhysicalLossModel",
    "InterferenceAwareEstimator",
    "calibrate_min_jam_loss",
    "pattern_mean_sinr_db",
    "schedule_loss_table",
    "placement_schedule_specs",
    "Placement",
    "enumerate_placements",
    "sample_placements",
    "placement_count",
]
