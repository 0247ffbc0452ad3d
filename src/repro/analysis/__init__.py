"""Analysis helpers: theory curves, scaling fits, campaigns and the Wilson
interval.  The experiment reader (:mod:`repro.analysis.report`) is
imported on demand only."""

from . import theory
from ..fabric import CampaignCache, CellId
from .campaign import (
    CampaignSpec,
    append_journal_record,
    load_journal,
    mixed_inputs,
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
from .montecarlo import wilson_interval

__all__ = [
    "theory",
    "mixed_inputs",
    "least_squares_slope",
    "loglog_slope",
    "CampaignCache",
    "CampaignSpec",
    "CellId",
    "append_journal_record",
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
    "wilson_interval",
]
