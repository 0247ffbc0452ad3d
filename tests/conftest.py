"""Suite-wide options.

``--execution-model NAME`` runs the whole tier-1 suite with ``NAME`` as
the round model used when a call names none (CI's partial-synchrony arm).
The engine itself has no ambient default to override — no environment
variable, no config file — so the option patches the registry's built-in
default name for the session instead.
"""

from __future__ import annotations

import subprocess
import sys

import pytest

from repro.runtime import available_models, models
from repro.transport.tcp import _worker_environment


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
def run_without_numpy():
    """``run(script) -> stdout``: execute *script* in a fresh interpreter
    where ``import numpy`` raises ImportError from the first import on —
    what a numpy-less host sees.  A non-zero exit fails the test."""

    def run(script: str) -> str:
        done = subprocess.run(
            [sys.executable, "-c",
             'import sys; sys.modules["numpy"] = None\n' + script],
            capture_output=True, text=True, timeout=120,
            env=_worker_environment(),  # this checkout's src on the path
        )
        assert done.returncode == 0, done.stderr
        return done.stdout

    return run
