"""The default transport: everything runs in this interpreter.

``InProcessTransport`` is a zero-overhead pass-through to the plain
:class:`~repro.runtime.engine.ExecutionCore` — exactly what every
execution used before the transport axis existed, byte-identical by
construction.  It exists so the ``transport=`` axis has a total default
and so identity serialization (campaign records, recipes) can name the
hosting discipline explicitly.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..runtime.engine import ExecutionCore
from ..runtime.process import SyncProcess
from .base import Transport

__all__ = ["InProcessTransport"]


class InProcessTransport(Transport):
    """Single-interpreter execution (the default; zero overhead)."""

    name = "inprocess"

    def create_core(
        self,
        processes: Sequence[SyncProcess],
        *,
        seed: int,
    ) -> ExecutionCore:
        return ExecutionCore(processes, seed=seed)
