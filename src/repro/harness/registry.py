"""Protocol registry and the unified ``execute`` entry point.

Every runnable protocol in the repository registers a
:class:`ProtocolSpec`: a name, a process factory, a default fault budget,
and a result adapter.  :func:`execute` is the one way to start a run by
name; the campaign runner, the CLI, and the analysis drivers dispatch
through the same registry — so registering a protocol makes it sweepable
everywhere at once.

A spec's ``build`` receives an :class:`ExecutionConfig` (the normalized
run description, its ``t`` already resolved by :meth:`ProtocolSpec.resolve_t`)
and returns ``(processes, t)`` — the process list and the network fault
budget.  :func:`run_config` then drives one :class:`SyncNetwork`
with the caller's adversary and observers and wraps the outcome in a
:class:`repro.core.consensus.ConsensusRun`.
"""

from __future__ import annotations

import operator
from dataclasses import KW_ONLY, asdict, dataclass, fields, replace
from types import MappingProxyType
from collections.abc import Callable, Mapping, Sequence
from typing import TYPE_CHECKING, Any

from ..params import ProtocolParams
from ..runtime import Adversary, RoundObserver, SyncNetwork, SyncProcess
from ..transport import check_transport

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (types only)
    from ..core.consensus import ConsensusRun


#: The round-model keys older recipes carry, with the value that means
#: lockstep.  The engine runs lockstep rounds only: a recipe with another
#: value is refused, and a call may not pass these keys (or ``model``).
_LOCKSTEP_KEYS = {"execution_model": "lockstep", "model_options": {}}


@dataclass(frozen=True)
class ExecutionConfig:
    """The description of one run: what ``execute`` was asked to do.

    Written once and embedded everywhere a run is described — handed to
    the spec's ``build``, kept on the :class:`ConsensusRun`, stored in an
    :class:`~repro.replay.ExecutionRecipe`, derived per cell by a
    :class:`~repro.analysis.campaign.CampaignSpec` and digested (its
    named-axis view) by :class:`repro.fabric.CellId`.

    Construction normalizes (``n`` from ``inputs``, default ``params``,
    read-only copies of the option mappings) and validates the transport
    axis, a ``(name, options)`` pair: ``transport`` is a registered name
    or ``None`` for the built-in default; options need a name.
    ``options`` carries protocol-specific extras (``x``, ``num_epochs``,
    ``sender``, ...); specs read what they understand.
    """

    protocol: str
    inputs: Sequence[int] | None = None
    _: KW_ONLY
    n: int | None = None
    t: int | None = None
    params: ProtocolParams | None = None
    seed: int = 0
    graph_seed: int = 0
    max_rounds: int | None = None
    options: Mapping[str, Any] | None = None
    transport: str | None = None
    transport_options: Mapping[str, Any] | None = None

    def __post_init__(self) -> None:
        put = object.__setattr__
        # Seeds are hashed by ``repr``: ``np.int64(1)`` or ``True`` would
        # silently run another execution than ``1``.
        put(self, "seed", operator.index(self.seed))
        put(self, "graph_seed", operator.index(self.graph_seed))
        if self.inputs is not None:
            put(self, "inputs", tuple(self.inputs))
        if self.n is None:
            if self.inputs is None:
                raise ValueError(
                    f"protocol {self.protocol!r} needs `inputs` or an "
                    "explicit `n`"
                )
            put(self, "n", len(self.inputs))
        if self.params is None:
            put(self, "params", ProtocolParams.practical())
        for name in ("options", "transport_options"):
            put(self, name, MappingProxyType(dict(getattr(self, name) or {})))
        stale = sorted(set(self.options) & {"model", *_LOCKSTEP_KEYS})
        if stale:
            raise TypeError(
                f"unexpected keyword {stale[0]!r}: the round-model axis was "
                "removed; the engine runs lockstep rounds only"
            )
        # Eager: a bad pair fails here, before any process is built or
        # any worker forked.
        check_transport(self.transport, self.transport_options)

    def option(self, key: str, default: Any = None) -> Any:
        return self.options.get(key, default)

    def payload(self) -> dict[str, Any]:
        """The flat JSON form of this run description (recipe keys)."""
        out: dict[str, Any] = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if isinstance(value, ProtocolParams):
                value = asdict(value)
            elif isinstance(value, Mapping):
                value = dict(value)
            elif isinstance(value, tuple):
                value = list(value)
            out[spec.name] = value
        return out

    @classmethod
    def from_payload(cls, data: Mapping[str, Any]) -> ExecutionConfig:
        """Rebuild a config from :meth:`payload`; other keys are ignored.

        A payload written before the transport axis existed has no key for
        it and described an in-process run.  Older payloads also name the
        round model; only lockstep still runs, so any other model is a
        ``ValueError`` rather than a silent lockstep run.
        """
        for key, lockstep in _LOCKSTEP_KEYS.items():
            if data.get(key, lockstep) != lockstep:
                raise ValueError(
                    f"{key}={data[key]!r} is not runnable: the engine runs "
                    f"lockstep rounds only ({key}={lockstep!r})"
                )
        values = {
            spec.name: data[spec.name] for spec in fields(cls) if spec.name in data
        }
        values.setdefault("transport", "inprocess")
        if values.get("params") is not None:
            values["params"] = ProtocolParams(**values["params"])
        return cls(**values)


#: A process factory: request -> (processes, network fault budget).
Builder = Callable[[ExecutionConfig], tuple[list[SyncProcess], int]]


@dataclass(frozen=True)
class ProtocolSpec:
    """One runnable protocol, as the harness sees it.

    Attributes
    ----------
    name:
        Registry key (``"algorithm1"``, ``"ben-or"``, ...).
    summary:
        One-line description for ``--help`` output and docs.
    build:
        Factory turning an :class:`ExecutionConfig` into
        ``(processes, t)``.  The config's ``t`` is never ``None`` unless
        the spec sets ``derives_own_t``.
    default_max_rounds:
        Engine round cap when the caller does not override it.
    default_t:
        Default fault budget for (n, params); ``None`` means
        ``params.max_faults(n)``.  The one budget rule: a run whose ``t``
        is unset gets it, sweep drivers construct adversaries with it
        before the processes exist, and campaign cells record it.
    record_extras:
        Optional ``(run, request) -> dict`` merged into campaign records
        (e.g. early stopping's ``exit_epochs``).
    sweepable:
        Whether the protocol fits the campaign grid (binary inputs, a
        uniform decision the agreement check accepts).  Non-sweepable
        protocols (the doubling collectors) still run through ``execute``.
    uses_inputs:
        Whether ``build`` consumes a per-process input vector; protocols
        like TRB derive everything from ``n`` and options.
    derives_own_t:
        ``build`` is handed an unset ``t`` as ``None`` and returns the
        budget the processes derived themselves, which may then differ
        from ``default_t`` (Algorithm 4 halves its tolerance, Theorem 8).
    """

    name: str
    summary: str
    build: Builder
    default_max_rounds: int = 100_000
    default_t: Callable[[int, ProtocolParams], int] | None = None
    record_extras: Callable[[Any, ExecutionConfig], dict[str, Any]] | None = (
        None
    )
    sweepable: bool = True
    uses_inputs: bool = True
    derives_own_t: bool = False

    def campaign_t(self, n: int, params: ProtocolParams) -> int:
        """The fault budget a campaign cell uses for adversary construction."""
        if self.default_t is not None:
            return self.default_t(n, params)
        return params.max_faults(n)

    def resolve_t(self, config: ExecutionConfig) -> ExecutionConfig:
        """*config* as ``build`` sees it: an unset ``t`` becomes the default
        budget, unless the protocol derives its own."""
        if config.t is not None or self.derives_own_t:
            return config
        return replace(config, t=self.campaign_t(config.n, config.params))


#: Version of the campaign cell record *content*: what ``_run_cell``
#: writes for a given cell identity.  Bump whenever a record gains,
#: loses, or re-derives a field, so cached cells computed by an older
#: engine are never served as if the current engine produced them.
#: v3: records carry the transport axis (``transport`` /
#: ``transport_options``) when a campaign pins one, and cell identity
#: (:class:`repro.fabric.CellId`) digests over it.
CELL_RECORD_VERSION = 3


def capability_fingerprint() -> str:
    """Stable engine-capability token, part of every cell's cache identity.

    Combines the campaign record-content version with the serialization
    schema version.  What it captures is "would this engine, handed the same identity,
    write the same record bytes": any change to that answer must bump
    :data:`CELL_RECORD_VERSION`.
    """
    from ..runtime.serialization import SCHEMA_VERSION

    return f"cells-v{CELL_RECORD_VERSION}+schema-v{SCHEMA_VERSION}"


_REGISTRY: dict[str, ProtocolSpec] = {}


def register_protocol(spec: ProtocolSpec, replace: bool = False) -> ProtocolSpec:
    """Add a spec to the registry; ``replace=True`` overrides an entry."""
    if not replace and spec.name in _REGISTRY:
        raise ValueError(f"protocol {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def _ensure_builtin_protocols() -> None:
    """Populate the registry with the repository's protocols (idempotent)."""
    from . import protocols  # noqa: F401  (imported for its side effects)


def protocol_spec(name: str) -> ProtocolSpec:
    """Look up a registered protocol; raises ``ValueError`` with choices."""
    _ensure_builtin_protocols()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown protocol {name!r}; choose from "
            f"{available_protocols()}"
        ) from None


def available_protocols(sweepable: bool | None = None) -> tuple[str, ...]:
    """Registered protocol names, in registration order.

    ``sweepable=True`` restricts to protocols the campaign grid accepts.
    """
    _ensure_builtin_protocols()
    return tuple(
        name
        for name, spec in _REGISTRY.items()
        if sweepable is None or spec.sweepable == sweepable
    )


def execute(
    protocol: str | ProtocolSpec,
    inputs: Sequence[int] | None = None,
    *,
    n: int | None = None,
    t: int | None = None,
    adversary: Adversary | None = None,
    params: ProtocolParams | None = None,
    seed: int = 0,
    graph_seed: int = 0,
    max_rounds: int | None = None,
    observers: Sequence[RoundObserver] = (),
    options: Mapping[str, Any] | None = None,
    transport: str | None = None,
    transport_options: Mapping[str, Any] | None = None,
    **extra_options: Any,
) -> ConsensusRun:
    """Run one protocol end-to-end through the unified harness.

    ``protocol`` is a registered name or a :class:`ProtocolSpec`.
    ``inputs`` is the per-process input vector (for protocols that take
    one); ``n`` may be given instead for input-free protocols.  Keyword
    options beyond the engine knobs — or an explicit ``options`` mapping —
    are passed to the spec's factory (e.g. ``x=4`` for the tradeoff,
    ``sender=0`` for TRB).  ``observers`` are attached to the underlying
    :class:`SyncNetwork`, so traces and profiles can be captured on any
    protocol without touching its code.  ``transport`` selects where
    the processes physically execute (``"inprocess"`` — the default — or
    ``"tcp"`` for real OS worker processes over localhost; see
    :mod:`repro.transport`), with ``transport_options`` configuring it.

    Returns a :class:`repro.core.consensus.ConsensusRun`.
    """
    spec = protocol if isinstance(protocol, ProtocolSpec) else (
        protocol_spec(protocol)
    )
    config = ExecutionConfig(
        spec.name,
        inputs,
        n=n,
        t=t,
        params=params,
        seed=seed,
        graph_seed=graph_seed,
        max_rounds=max_rounds,
        options={**(options or {}), **extra_options},
        transport=transport,
        transport_options=transport_options,
    )
    return run_config(config, adversary, observers, spec=spec)


def run_config(
    config: ExecutionConfig,
    adversary: Adversary | None = None,
    observers: Sequence[RoundObserver] = (),
    *,
    spec: ProtocolSpec | None = None,
) -> ConsensusRun:
    """Build and drive the one :class:`SyncNetwork` a config describes.

    The single path below :func:`execute`, ``repro.replay`` and campaign
    cells.  ``spec`` defaults to the registry entry for
    ``config.protocol``; ``execute`` passes the spec it was handed.
    """
    from ..core.consensus import ConsensusRun

    if spec is None:
        spec = protocol_spec(config.protocol)
    if spec.uses_inputs and config.inputs is None:
        raise ValueError(f"protocol {spec.name!r} needs an input vector")
    # ``build`` gets the resolved budget; the run keeps the config as the
    # caller wrote it, so recipes and cell identities do not move.
    processes, budget = spec.build(spec.resolve_t(config))
    network = SyncNetwork(
        processes,
        adversary=adversary,
        t=budget,
        seed=config.seed,
        max_rounds=(
            config.max_rounds
            if config.max_rounds is not None
            else spec.default_max_rounds
        ),
        observers=observers,
        transport=config.transport,
        transport_options=config.transport_options,
    )
    return ConsensusRun(
        result=network.run(), processes=list(processes), request=config
    )
