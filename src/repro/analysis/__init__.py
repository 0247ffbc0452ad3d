"""Analysis helpers: theory curves, scaling fits, the sweep driver,
campaigns and Monte-Carlo rates.  The experiment reader
(:mod:`repro.analysis.report`) is imported on demand only."""

from . import theory
from .experiments import ScalingPoint, measure, mixed_inputs
from ..fabric import CampaignCache, CellId
from .campaign import (
    CampaignSpec,
    append_journal_record,
    load_campaign,
    load_journal,
    repair_journal,
    run_campaign,
    save_campaign,
    summarize_campaign,
)
from .conformance import (
    ConformanceReport,
    ScenarioResult,
    check_consensus_protocol,
)
from .fits import least_squares_slope, loglog_slope
from .sparkline import render_series, sparkline
from .montecarlo import (
    RateEstimate,
    estimate_rate,
    fallback_rate_vs_epochs,
    wilson_interval,
)

__all__ = [
    "theory",
    "ScalingPoint",
    "measure",
    "mixed_inputs",
    "least_squares_slope",
    "loglog_slope",
    "CampaignCache",
    "CampaignSpec",
    "CellId",
    "append_journal_record",
    "load_campaign",
    "load_journal",
    "repair_journal",
    "run_campaign",
    "save_campaign",
    "summarize_campaign",
    "ConformanceReport",
    "ScenarioResult",
    "check_consensus_protocol",
    "render_series",
    "sparkline",
    "RateEstimate",
    "estimate_rate",
    "fallback_rate_vs_epochs",
    "wilson_interval",
]
