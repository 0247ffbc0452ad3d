"""Processes hosted by ``tests/test_transport.py`` inside real TCP workers.

A hosted process class crosses the wire by pickle, so a worker must be
able to import it by module path: these live in a module of their own
(not a collected test module) that imports nothing but the engine, so
what a probe sees in ``sys.modules`` is what the worker boot left there.
"""

from __future__ import annotations

import sys

from repro.runtime import SyncProcess
from repro.runtime.columnar import HAVE_NUMPY


class NumpyProbe(SyncProcess):
    """Decides ``(numpy imported here?, HAVE_NUMPY, inbox type name,
    asyncio imported here?)``."""

    def program(self, env):
        env.broadcast(("probe", self.pid))
        inbox = yield
        env.decide(
            ("numpy" in sys.modules, HAVE_NUMPY, type(inbox).__name__,
             "asyncio" in sys.modules)
        )


class NumpyUser(SyncProcess):
    """A hosted process that imports numpy itself, where it runs."""

    def program(self, env):
        import numpy

        env.broadcast(("probe", self.pid))
        inbox = yield
        env.decide(int(numpy.sum(numpy.arange(len(inbox) + 1))))
