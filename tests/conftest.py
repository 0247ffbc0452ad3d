"""Suite-wide fixtures."""

from __future__ import annotations

import os
from pathlib import Path

import pytest

import repro

@pytest.fixture
def materialized(monkeypatch) -> list[int]:
    """The sizes of the inbox views this interpreter filled with
    ``Message`` objects while the fixture was active (``[]``: every read
    was a column read)."""
    from repro.runtime import ColumnInbox

    entered: list[int] = []
    materialize = ColumnInbox._materialize
    monkeypatch.setattr(
        ColumnInbox,
        "_materialize",
        lambda self: entered.append(len(self)) or materialize(self),
    )
    return entered


@pytest.fixture
def repro_env() -> dict[str, str]:
    """This environment with the ``repro`` package under test first on
    ``PYTHONPATH``, for a fresh interpreter however pytest was started."""
    root = str(Path(repro.__file__).resolve().parents[1])
    existing = os.environ.get("PYTHONPATH")
    return {
        **os.environ,
        "PYTHONPATH": root + os.pathsep + existing if existing else root,
    }
