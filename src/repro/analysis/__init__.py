"""Experiment campaigns and result summarisation.

* :mod:`repro.analysis.experiments` — run the paper's §4 campaign: one
  experiment (full leader rotation) per placement, for each group size.
* :mod:`repro.analysis.stats` — the order statistics Figure 2 plots:
  minimum, mean, the "95% of experiments" level and the median.
* :mod:`repro.analysis.report` — render results as the ASCII tables the
  benchmarks print.
"""

from repro.analysis.experiments import (
    CampaignConfig,
    CampaignResult,
    ExperimentRecord,
    campaign_sweep_manifest,
    campaign_work_items,
    experiment_store_key,
    placement_label,
    run_campaign,
    run_placement_experiment,
    run_placement_experiment_batched,
)
from repro.analysis.stats import (
    ReliabilityAccumulator,
    ReliabilitySummary,
    SecrecyAccumulator,
    SecrecySummary,
    ValueCountAccumulator,
    summarize_reliability,
)
from repro.analysis.report import (
    render_figure1_table,
    render_figure2_table,
    render_headline_table,
    render_secrecy_table,
)

__all__ = [
    "CampaignConfig",
    "CampaignResult",
    "ExperimentRecord",
    "run_campaign",
    "run_placement_experiment",
    "run_placement_experiment_batched",
    "experiment_store_key",
    "campaign_sweep_manifest",
    "campaign_work_items",
    "placement_label",
    "ReliabilitySummary",
    "summarize_reliability",
    "ValueCountAccumulator",
    "ReliabilityAccumulator",
    "SecrecyAccumulator",
    "SecrecySummary",
    "render_figure1_table",
    "render_figure2_table",
    "render_secrecy_table",
    "render_headline_table",
]
