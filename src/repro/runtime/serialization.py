"""JSON serialization of execution results.

Long experiment campaigns want to run once and analyze offline;
this module round-trips the substrate's result objects through plain JSON:

* :func:`result_to_dict` / :func:`result_from_dict` — full
  :class:`ExecutionResult` fidelity (metrics, decisions, faulty set,
  per-process randomness, decision rounds; the run's
  :class:`~repro.runtime.report.RunReport` has its own ``to_dict``);
* :func:`save_result` / :func:`load_result` — file helpers.

Every payload carries a ``"schema"`` field (:data:`SCHEMA_VERSION`).  The
readers accept the current schema plus the explicitly listed legacy
versions, and reject anything else with a :class:`ValueError` naming the
version — never a ``KeyError`` from a silently missing field.  Bump
:data:`SCHEMA_VERSION` whenever a payload's shape changes incompatibly.

Decision values are JSON-encoded as-is, so protocols whose decisions are
ints/strings/lists round-trip exactly; tuples come back as lists (JSON has
no tuple type) — normalize in the protocol if that distinction matters.
"""

from __future__ import annotations

import json
from pathlib import Path
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


def metrics_from_dict(data: dict[str, Any]) -> Metrics:
    if "schema" in data:
        check_schema(data, "metrics")
    metrics = Metrics(
        rounds=data["rounds"],
        messages_sent=data["messages_sent"],
        messages_delivered=data["messages_delivered"],
        messages_omitted=data["messages_omitted"],
        # Absent in files written before the lost-traffic counters existed.
        messages_lost=data.get("messages_lost", 0),
        bits_sent=data["bits_sent"],
        bits_delivered=data["bits_delivered"],
        bits_lost=data.get("bits_lost", 0),
        random_calls=data["random_calls"],
        random_bits=data["random_bits"],
    )
    metrics.messages_per_round = list(data["messages_per_round"])
    metrics.bits_per_round = list(data["bits_per_round"])
    return metrics


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


def result_from_dict(data: dict[str, Any]) -> ExecutionResult:
    """Rebuild an :class:`ExecutionResult` from :func:`result_to_dict`."""
    check_schema(data, "result")
    return ExecutionResult(
        n=data["n"],
        decisions={int(pid): value for pid, value in data["decisions"].items()},
        metrics=metrics_from_dict(data["metrics"]),
        faulty=frozenset(data["faulty"]),
        all_terminated=data["all_terminated"],
        rounds=data["rounds"],
        randomness_per_process=[
            tuple(pair) for pair in data["randomness_per_process"]
        ],
        decision_rounds={
            int(pid): round_no
            for pid, round_no in data["decision_rounds"].items()
        },
    )


def save_result(result: ExecutionResult, path: str | Path) -> None:
    """Write an execution result as JSON."""
    Path(path).write_text(
        json.dumps(result_to_dict(result), indent=2, sort_keys=True),
        encoding="utf-8",
    )


def load_result(path: str | Path) -> ExecutionResult:
    """Read an execution result written by :func:`save_result`."""
    return result_from_dict(
        json.loads(Path(path).read_text(encoding="utf-8"))
    )
