"""Round-model registry: the engine's selectable timing disciplines.

The engine is split into three layers — scheduler (this package),
delivery (:mod:`repro.runtime.delivery`), and execution
(:mod:`repro.runtime.engine`).  A :class:`RoundModel` is the scheduler:
it decides when processes advance and when traffic arrives, while the
adversary API, observer bus, metering, and record/replay behave
identically across models.

Models are addressed by registry name — ``"lockstep"`` (the paper's
synchronous rounds, the default) and ``"partial-synchrony"`` (canonical
rounds over latency-bearing links with a GST).  Like the transport axis,
the model axis resolves instance > name > built-in default, with no
environment fallback: what ran is what the caller (or the recipe, or the
campaign cell) named.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any

from .base import RoundModel
from .lockstep import LockstepModel
from .partial_synchrony import PartialSynchronyModel

__all__ = [
    "LockstepModel",
    "PartialSynchronyModel",
    "RoundModel",
    "available_models",
    "create_model",
    "resolve_model",
]

_MODELS: dict[str, type[RoundModel]] = {
    LockstepModel.name: LockstepModel,
    PartialSynchronyModel.name: PartialSynchronyModel,
}

# The model used when the caller names none.  Not configurable; the test
# suite's ``--execution-model`` option patches it to run tier-1 under
# partial synchrony (tests/conftest.py).
_DEFAULT_MODEL = LockstepModel.name


def available_models() -> tuple[str, ...]:
    """Registered model names, sorted."""
    return tuple(sorted(_MODELS))


def create_model(
    name: str, options: Mapping[str, Any] | None = None
) -> RoundModel:
    """Instantiate a registered model by name with constructor options."""
    try:
        model_cls = _MODELS[name]
    except KeyError:
        raise ValueError(
            f"unknown execution model {name!r}; choose from: "
            f"{', '.join(available_models())}"
        ) from None
    return model_cls(**dict(options or {}))


def resolve_model(
    model: RoundModel | str | None = None,
    options: Mapping[str, Any] | None = None,
) -> RoundModel:
    """Resolve the ``model=`` axis: instance > name > lockstep.

    A ready-made :class:`RoundModel` instance is used as-is (``options``
    must then be empty — the instance already carries its configuration).
    """
    if isinstance(model, RoundModel):
        if options:
            raise ValueError(
                "model_options only apply when the model is given by name; "
                "configure the RoundModel instance directly instead"
            )
        return model
    name = model if model is not None else _DEFAULT_MODEL
    return create_model(name, options)
