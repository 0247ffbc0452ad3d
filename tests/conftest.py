"""Suite-wide options.

``--execution-model NAME`` runs the whole tier-1 suite with ``NAME`` as
the round model used when a call names none (CI's partial-synchrony arm).
The engine itself has no ambient default to override — no environment
variable, no config file — so the option patches the registry's built-in
default name for the session instead.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

import repro
from repro.runtime import available_models, models


def pytest_addoption(parser):
    parser.addoption(
        "--execution-model",
        default=None,
        choices=available_models(),
        help="round model used where a test names none (default: lockstep)",
    )


@pytest.fixture(autouse=True, scope="session")
def _session_execution_model(request):
    name = request.config.getoption("--execution-model")
    with pytest.MonkeyPatch.context() as patch:
        if name is not None:
            patch.setattr(models, "_DEFAULT_MODEL", name)
        yield


@pytest.fixture
def session_default_model(request) -> str:
    """The model name an unpinned call resolves to in this session."""
    return request.config.getoption("--execution-model") or "lockstep"


@pytest.fixture
def materialized(monkeypatch) -> list[int]:
    """The sizes of the lazy inbox views this interpreter filled with
    ``Message`` objects while the fixture was active (``[]``: every read
    was a column read)."""
    from repro.runtime import LazyMessageList

    entered: list[int] = []
    materialize = LazyMessageList._materialize
    monkeypatch.setattr(
        LazyMessageList,
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
