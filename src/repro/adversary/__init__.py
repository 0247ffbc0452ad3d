"""Adaptive full-information omission adversaries (Section 2).

The abstract interface (:class:`repro.runtime.Adversary`) lives in the
runtime; this package provides the strategy gallery used by tests, examples
and benchmarks.
"""

from ..runtime import Adversary, AdversaryAction, AdversaryContext, NetworkView
from .chaos import ChaosAdversary
from .compose import SequentialAdversary
from .scripted import ScriptedAdversary
from .strategies import (
    GALLERY,
    EclipseAdversary,
    GroupKnockoutAdversary,
    RandomOmissionAdversary,
    SilenceAdversary,
    StaticCrashAdversary,
    VoteBalancingAdversary,
)

__all__ = [
    "GALLERY",
    "Adversary",
    "AdversaryAction",
    "AdversaryContext",
    "NetworkView",
    "ScriptedAdversary",
    "StaticCrashAdversary",
    "SilenceAdversary",
    "RandomOmissionAdversary",
    "EclipseAdversary",
    "GroupKnockoutAdversary",
    "VoteBalancingAdversary",
    "SequentialAdversary",
    "ChaosAdversary",
]
