"""Analysis helpers: theory curves, scaling fits, experiment drivers,
and the Table-1 renderer."""

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
    agreement_failure_rate,
    decision_bias,
    estimate_rate,
    fallback_rate_vs_epochs,
    wilson_interval,
)
from .tables import Table1Row, render_table, table1

__all__ = [
    "theory",
    "ScalingPoint",
    "measure",
    "mixed_inputs",
    "least_squares_slope",
    "loglog_slope",
    "Table1Row",
    "render_table",
    "table1",
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
    "agreement_failure_rate",
    "decision_bias",
    "estimate_rate",
    "fallback_rate_vs_epochs",
    "wilson_interval",
]
