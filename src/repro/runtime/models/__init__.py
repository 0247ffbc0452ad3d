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

import inspect
from collections.abc import Mapping
from typing import Any, TypeVar

from .base import RoundModel
from .lockstep import LockstepModel
from .partial_synchrony import PartialSynchronyModel

__all__ = [
    "LockstepModel",
    "PartialSynchronyModel",
    "RoundModel",
    "available_models",
    "create_model",
    "create_named",
    "resolve_model",
]

_T = TypeVar("_T")

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


def create_named(
    axis: str,
    registry: Mapping[str, type[_T]],
    name: str,
    options: Mapping[str, Any] | None,
) -> _T:
    """Instantiate ``registry[name](**options)`` for one axis.

    Shared by the model and transport registries so both reject an
    unknown name or an option the constructor does not take with a
    ``ValueError`` naming the axis and the key, wherever the pair came
    from (a call, a recipe, a campaign spec).
    """
    try:
        cls = registry[name]
    except KeyError:
        raise ValueError(
            f"unknown {axis} {name!r}; choose from: "
            f"{', '.join(sorted(registry))}"
        ) from None
    try:
        return cls(**dict(options or {}))
    except TypeError:
        accepted = inspect.signature(cls).parameters
        unknown = sorted(set(options or {}) - set(accepted))
        if not unknown:
            raise
        raise ValueError(
            f"{axis} {name!r} takes no option {unknown[0]!r}; choose from: "
            f"{', '.join(accepted) or '(none)'}"
        ) from None


def create_model(
    name: str, options: Mapping[str, Any] | None = None
) -> RoundModel:
    """Instantiate a registered model by name with constructor options."""
    return create_named("execution model", _MODELS, name, options)


def resolve_model(
    model: RoundModel | str | None = None,
    options: Mapping[str, Any] | None = None,
) -> RoundModel:
    """Resolve the ``model=`` axis: instance > name > lockstep.

    ``options`` configure a model given by name; with ``None`` or a
    ready-made :class:`RoundModel` instance (used as-is) they must be
    empty.
    """
    if isinstance(model, str):
        return create_model(model, options)
    if options:
        raise ValueError(
            "model_options requires an explicit model name, got "
            f"model={model!r}"
        )
    return model if model is not None else create_model(_DEFAULT_MODEL)
