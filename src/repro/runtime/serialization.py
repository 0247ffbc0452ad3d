"""JSON serialization of execution results.

:func:`result_to_dict` writes an :class:`ExecutionResult` as plain JSON
primitives (metrics, decisions, faulty set, per-process randomness,
decision rounds; the run's :class:`~repro.runtime.report.RunReport` has
its own ``to_dict``).  Replay recipes and the CLI's ``--json`` embed it.

Every payload carries a ``"schema"`` field (:data:`SCHEMA_VERSION`).
:func:`check_schema` accepts the current schema plus the explicitly
listed legacy versions, and rejects anything else with a
:class:`ValueError` naming the version.  Bump :data:`SCHEMA_VERSION`
whenever a payload's shape changes incompatibly.

Decision values are JSON-encoded as-is; tuples are written as lists (JSON
has no tuple type).
"""

from __future__ import annotations

from typing import Any

from .engine import ExecutionResult
from .metrics import Metrics

#: Current schema version of every payload this module writes.
SCHEMA_VERSION = 2

#: The pre-``schema`` version tag (files written as ``format_version: 1``).
FORMAT_VERSION = 1


def check_schema(data: dict[str, Any], payload: str) -> int:
    """Return the payload's schema version, rejecting unknown ones.

    Accepts the current :data:`SCHEMA_VERSION` and the legacy
    ``format_version: 1`` tag; anything else (including an untagged dict)
    raises ``ValueError`` with the offending version spelled out.
    """
    version = data.get("schema", data.get("format_version"))
    if version == SCHEMA_VERSION:
        return SCHEMA_VERSION
    if version == FORMAT_VERSION:
        return FORMAT_VERSION
    raise ValueError(
        f"unsupported {payload} schema version {version!r} "
        f"(this build reads schema {SCHEMA_VERSION} and legacy "
        f"format_version {FORMAT_VERSION})"
    )


def metrics_to_dict(metrics: Metrics) -> dict[str, Any]:
    """Serialize a :class:`Metrics` (including the per-round series)."""
    return {
        "schema": SCHEMA_VERSION,
        "rounds": metrics.rounds,
        "messages_sent": metrics.messages_sent,
        "messages_delivered": metrics.messages_delivered,
        "messages_omitted": metrics.messages_omitted,
        "messages_lost": metrics.messages_lost,
        "bits_sent": metrics.bits_sent,
        "bits_delivered": metrics.bits_delivered,
        "bits_lost": metrics.bits_lost,
        "random_calls": metrics.random_calls,
        "random_bits": metrics.random_bits,
        "messages_per_round": list(metrics.messages_per_round),
        "bits_per_round": list(metrics.bits_per_round),
    }


def result_to_dict(result: ExecutionResult) -> dict[str, Any]:
    """Serialize an :class:`ExecutionResult` to JSON-safe primitives."""
    return {
        "schema": SCHEMA_VERSION,
        "n": result.n,
        "decisions": {str(pid): value for pid, value in result.decisions.items()},
        "metrics": metrics_to_dict(result.metrics),
        "faulty": sorted(result.faulty),
        "all_terminated": result.all_terminated,
        "rounds": result.rounds,
        "randomness_per_process": [
            list(pair) for pair in result.randomness_per_process
        ],
        "decision_rounds": {
            str(pid): round_no
            for pid, round_no in result.decision_rounds.items()
        },
    }
