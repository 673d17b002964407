"""Analytic results: the efficiency curves behind Figure 1 and secrecy
capacity bounds for erasure broadcast networks.

docs/paper-map.md (Figure 1) maps the curves to the paper, and
docs/architecture.md (Planning LP) describes how the level LP is solved.

:mod:`repro.theory.allocation` complements the fractional LP with the
*realised* side: integral support flows on observed reception-pattern
histograms, which the batched engine uses for honest per-round
accounting (it solves each distinct round of a cell once and keeps
the plan only as long as the cell).
"""

from repro.theory.allocation import (
    RealisedPlan,
    clear_realised_flow_cache,
    realised_flow_cache_info,
    realised_support_flow,
)
from repro.theory.bounds import (
    group_secret_upper_bound,
    pairwise_secrecy_capacity,
)
from repro.theory.efficiency import (
    AllocationProfile,
    clear_efficiency_cache,
    efficiency_cache_info,
    group_allocation_profile,
    group_efficiency,
    group_efficiency_infinite,
    group_efficiency_lp,
    unicast_efficiency,
)

__all__ = [
    "unicast_efficiency",
    "group_efficiency",
    "group_efficiency_lp",
    "group_efficiency_infinite",
    "AllocationProfile",
    "group_allocation_profile",
    "efficiency_cache_info",
    "clear_efficiency_cache",
    "RealisedPlan",
    "realised_support_flow",
    "realised_flow_cache_info",
    "clear_realised_flow_cache",
    "pairwise_secrecy_capacity",
    "group_secret_upper_bound",
]
