"""Determinism rules: REP001 (metered randomness), REP002 (wall clock /
entropy), REP003 (order-unstable iteration).

These encode the repo's reproducibility contract: every random bit is
drawn from a seeded, counted source (``repro.runtime.randomness``), no
engine/protocol/adversary/replay code reads ambient entropy, and nothing
on a replayed path iterates a ``set`` in interpreter-chosen order.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from .context import ModuleContext
from .findings import Finding
from .rules import Rule, dotted_chain, from_imports, module_aliases

#: ``random`` module functions bound to the hidden process-global instance.
_GLOBAL_RANDOM_FUNCS = frozenset(
    {
        "betavariate",
        "binomialvariate",
        "choice",
        "choices",
        "expovariate",
        "gammavariate",
        "gauss",
        "getrandbits",
        "getstate",
        "lognormvariate",
        "normalvariate",
        "paretovariate",
        "randbytes",
        "randint",
        "random",
        "randrange",
        "sample",
        "seed",
        "setstate",
        "shuffle",
        "triangular",
        "uniform",
        "vonmisesvariate",
        "weibullvariate",
    }
)


class UnseededRandomness(Rule):
    """REP001: randomness must flow through a seeded, metered source.

    Flags calls to the process-global ``random`` functions, ``from random
    import <func>`` bindings, unseeded ``random.Random()`` instances, and
    ``random.SystemRandom`` anywhere outside ``repro/runtime/randomness.py``
    (the one module allowed to wrap :mod:`random`).
    """

    code = "REP001"
    name = "unseeded-randomness"
    summary = (
        "global/unseeded random usage outside repro.runtime.randomness"
    )

    def applies_to(self, module: ModuleContext) -> bool:
        if module.tree is None:
            return False
        return not module.endswith("repro/runtime/randomness.py")

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        assert module.tree is not None
        aliases = module_aliases(module.tree, "random")
        for name, node in from_imports(module.tree, "random").items():
            if name in _GLOBAL_RANDOM_FUNCS:
                yield self.finding(
                    module,
                    node,
                    f"`from random import {name}` binds the process-global "
                    "generator; draw from a seeded source "
                    "(repro.runtime.randomness) instead",
                )
            elif name == "SystemRandom":
                yield self.finding(
                    module,
                    node,
                    "random.SystemRandom reads OS entropy and cannot be "
                    "replayed; use a seeded source instead",
                )
        if not aliases:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = dotted_chain(node.func)
            if chain is None or len(chain) != 2 or chain[0] not in aliases:
                continue
            attr = chain[1]
            if attr in _GLOBAL_RANDOM_FUNCS:
                yield self.finding(
                    module,
                    node,
                    f"call to process-global `random.{attr}`; draw from a "
                    "seeded source (repro.runtime.randomness) instead",
                )
            elif attr == "SystemRandom":
                yield self.finding(
                    module,
                    node,
                    "random.SystemRandom reads OS entropy and cannot be "
                    "replayed; use a seeded source instead",
                )
            elif attr == "Random" and not node.args and not node.keywords:
                yield self.finding(
                    module,
                    node,
                    "unseeded random.Random() seeds itself from OS entropy; "
                    "pass an explicit seed (e.g. via stable_seed)",
                )


#: time-module attributes that read the wall clock.  ``monotonic`` and
#: ``monotonic_ns`` are included: deadline arithmetic belongs to the
#: transport layer (``src/repro/transport/``, outside this rule's scope),
#: never to replayed engine/protocol code.
_WALL_CLOCK_TIME = frozenset(
    {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "localtime",
        "gmtime",
        "ctime",
        "strftime",
    }
)
#: datetime constructors that read the wall clock.
_WALL_CLOCK_DATETIME = frozenset({"now", "utcnow", "today"})
#: os-module entropy sources.
_OS_ENTROPY = frozenset({"urandom", "getrandom"})

_REP002_SCOPE = (
    "repro/runtime",
    # The round-model layer is nested under runtime/ and already matched
    # by the fragment above; listed explicitly because simulated time
    # lives there — a wall-clock read in a RoundModel is the likeliest
    # future regression.
    "repro/runtime/models",
    "repro/core",
    "repro/baselines",
    "repro/adversary",
    "repro/replay",
    "repro/harness",
)


class WallClockEntropy(Rule):
    """REP002: no ambient time or entropy in replayed code.

    Engine, protocol, adversary, harness, and replay modules must not read
    ``time.time``/``datetime.now``-style wall clocks, ``time.monotonic``
    deadline clocks, ``os.urandom``, or import :mod:`uuid`/:mod:`secrets`
    — any such read makes a recorded run unreplayable.  The profiling
    clock ``time.perf_counter`` is allowed: it informs observers, never
    control flow.

    Scope note: real wall-clock behaviour — connect retry/backoff, link
    send timeouts — is confined to ``src/repro/transport/``, which is
    deliberately *outside* this rule's scope; ``time.monotonic`` is
    permitted there and nowhere else on a replayed path.  The transport
    surfaces wall-clock effects to the engine only as data (crash faults
    and :class:`~repro.runtime.observers.LinkSample` metrics), keeping
    the in-scope layers deterministic.
    """

    code = "REP002"
    name = "wall-clock-entropy"
    summary = "wall-clock/entropy source in engine, protocol, or replay code"

    def applies_to(self, module: ModuleContext) -> bool:
        if module.tree is None:
            return False
        return module.in_dirs(*_REP002_SCOPE)

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        assert module.tree is not None
        tree = module.tree
        for banned in ("uuid", "secrets"):
            for alias in module_aliases(tree, banned):
                node = _import_node(tree, banned)
                yield self.finding(
                    module,
                    node,
                    f"importing `{banned}` (as `{alias}`) pulls OS entropy "
                    "into replayed code; derive identifiers from "
                    "stable_seed instead",
                )
            for _name, imp in from_imports(tree, banned).items():
                yield self.finding(
                    module,
                    imp,
                    f"`from {banned} import ...` pulls OS entropy into "
                    "replayed code; derive identifiers from stable_seed "
                    "instead",
                )
        time_aliases = module_aliases(tree, "time")
        os_aliases = module_aliases(tree, "os")
        datetime_aliases = module_aliases(tree, "datetime")
        datetime_names = {
            name
            for name in from_imports(tree, "datetime")
            if name in {"datetime", "date"}
        }
        time_names = {
            name
            for name in from_imports(tree, "time")
            if name in _WALL_CLOCK_TIME
        }
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            chain = dotted_chain(node.func)
            if chain is None:
                continue
            root, attr = chain[0], chain[-1]
            if len(chain) == 1:
                if root in time_names:
                    yield self.finding(
                        module,
                        node,
                        f"wall-clock read `{root}()` in replayed code; pass "
                        "timestamps in from the caller or use the round "
                        "counter",
                    )
                continue
            if root in time_aliases and attr in _WALL_CLOCK_TIME:
                yield self.finding(
                    module,
                    node,
                    f"wall-clock read `time.{attr}()` in replayed code; "
                    "pass timestamps in from the caller or use the round "
                    "counter",
                )
            elif root in os_aliases and attr in _OS_ENTROPY:
                yield self.finding(
                    module,
                    node,
                    f"`os.{attr}()` reads OS entropy; replayed code must "
                    "draw from a seeded source",
                )
            elif attr in _WALL_CLOCK_DATETIME and (
                root in datetime_aliases or root in datetime_names
            ):
                yield self.finding(
                    module,
                    node,
                    f"wall-clock read `{'.'.join(chain)}()` in replayed "
                    "code; pass timestamps in from the caller",
                )


def _import_node(tree: ast.Module, module_name: str) -> ast.AST:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(
            alias.name == module_name or alias.name.startswith(module_name + ".")
            for alias in node.names
        ):
            return node
    return tree


_REP003_SCOPE = (
    "repro/runtime",
    # Explicit for the same reason as in _REP002_SCOPE: deferred-delivery
    # bookkeeping in the models layer must iterate deterministically.
    "repro/runtime/models",
    "repro/core",
    "repro/baselines",
    "repro/adversary",
)

#: Builtins that materialize their argument in iteration order.
_ORDER_SENSITIVE_CONSUMERS = frozenset({"list", "tuple", "enumerate", "iter"})

_SET_PRESERVING_BINOPS = (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)


class UnstableIteration(Rule):
    """REP003: no order-unstable iteration on replayed paths.

    Within ``runtime/``, ``core/``, ``baselines/``, and ``adversary/``,
    iterating a ``set``/``frozenset`` directly (``for``, comprehensions,
    ``list(...)``/``tuple(...)``/``enumerate(...)``) is flagged unless the
    expression passes through ``sorted(...)`` first, as is sorting with an
    ``id()``-based key.  Set types are inferred locally (literals,
    ``set()``/``frozenset()`` calls, set operators, annotated names), so
    sets hidden behind attribute access or function returns are not seen —
    a documented limitation, not a licence.

    Dict iteration is deliberately *not* flagged: CPython dicts iterate in
    insertion order (guaranteed since 3.7), which is deterministic under
    replay.  Sets iterate in hash order, which is not (string hashing is
    salted per interpreter).
    """

    code = "REP003"
    name = "unstable-iteration"
    summary = "order-unstable set iteration or id()-keyed sort in replayed code"

    def applies_to(self, module: ModuleContext) -> bool:
        if module.tree is None:
            return False
        return module.in_dirs(*_REP003_SCOPE)

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        assert module.tree is not None
        yield from self._check_scope(module, module.tree.body)

    def _check_scope(
        self, module: ModuleContext, body: list[ast.stmt]
    ) -> Iterator[Finding]:
        set_names: set[str] = set()
        for stmt in body:
            yield from self._check_stmt(module, stmt, set_names)

    def _check_stmt(
        self, module: ModuleContext, stmt: ast.stmt, set_names: set[str]
    ) -> Iterator[Finding]:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from self._check_scope(module, stmt.body)
            return
        if isinstance(stmt, ast.ClassDef):
            yield from self._check_scope(module, stmt.body)
            return
        # Findings first (pre-assignment state), then update inference.
        yield from self._check_exprs(module, stmt, set_names)
        self._infer(stmt, set_names)
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                yield from self._check_stmt(module, child, set_names)
            elif isinstance(child, ast.excepthandler):
                for inner in child.body:
                    yield from self._check_stmt(module, inner, set_names)

    def _check_exprs(
        self, module: ModuleContext, stmt: ast.stmt, set_names: set[str]
    ) -> Iterator[Finding]:
        if isinstance(stmt, (ast.For, ast.AsyncFor)) and self._is_set(
            stmt.iter, set_names
        ):
            yield self.finding(
                module,
                stmt.iter,
                "iterating a set in interpreter hash order; wrap in "
                "sorted(...) to fix the traversal order",
            )
        for node in _walk_stmt_exprs(stmt):
            if isinstance(node, ast.Call):
                yield from self._check_call(module, node, set_names)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                for comp in node.generators:
                    if self._is_set(comp.iter, set_names):
                        yield self.finding(
                            module,
                            comp.iter,
                            "comprehension over a set iterates in "
                            "interpreter hash order; wrap in sorted(...)",
                        )

    def _check_call(
        self, module: ModuleContext, node: ast.Call, set_names: set[str]
    ) -> Iterator[Finding]:
        func = node.func
        if (
            isinstance(func, ast.Name)
            and func.id in _ORDER_SENSITIVE_CONSUMERS
            and node.args
            and self._is_set(node.args[0], set_names)
        ):
            yield self.finding(
                module,
                node,
                f"`{func.id}(...)` materializes a set in interpreter hash "
                "order; use sorted(...) instead",
            )
        # id()-keyed sorts: sorted(xs, key=id) / xs.sort(key=lambda v: id(v)).
        is_sort = (isinstance(func, ast.Name) and func.id == "sorted") or (
            isinstance(func, ast.Attribute) and func.attr == "sort"
        )
        if is_sort:
            for keyword in node.keywords:
                if keyword.arg == "key" and _is_id_key(keyword.value):
                    yield self.finding(
                        module,
                        keyword.value,
                        "id()-based sort key depends on allocation addresses "
                        "and is not stable across runs; sort on a value key",
                    )

    def _infer(self, stmt: ast.stmt, set_names: set[str]) -> None:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if isinstance(target, ast.Name):
                if self._is_set(stmt.value, set_names):
                    set_names.add(target.id)
                else:
                    set_names.discard(target.id)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            if _annotation_is_set(stmt.annotation) or (
                stmt.value is not None and self._is_set(stmt.value, set_names)
            ):
                set_names.add(stmt.target.id)
            else:
                set_names.discard(stmt.target.id)
        elif isinstance(stmt, ast.AugAssign) and isinstance(stmt.target, ast.Name):
            if stmt.target.id in set_names and not isinstance(
                stmt.op, _SET_PRESERVING_BINOPS
            ):
                set_names.discard(stmt.target.id)

    def _is_set(self, node: ast.expr, set_names: set[str]) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in set_names
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in {"set", "frozenset"}
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, _SET_PRESERVING_BINOPS
        ):
            return self._is_set(node.left, set_names) or self._is_set(
                node.right, set_names
            )
        return False


def _walk_stmt_exprs(stmt: ast.stmt) -> Iterator[ast.expr]:
    """All expressions directly under *stmt*, not descending into nested
    statements (those get their own scope-aware pass)."""
    stack = [c for c in ast.iter_child_nodes(stmt) if not isinstance(c, ast.stmt)]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.expr):
            yield node
        stack.extend(
            c for c in ast.iter_child_nodes(node) if not isinstance(c, ast.stmt)
        )


def _annotation_is_set(annotation: ast.expr) -> bool:
    if isinstance(annotation, ast.Name):
        return annotation.id in {"set", "frozenset", "Set", "FrozenSet"}
    if isinstance(annotation, ast.Subscript):
        return _annotation_is_set(annotation.value)
    return False


def _is_id_key(value: ast.expr) -> bool:
    if isinstance(value, ast.Name) and value.id == "id":
        return True
    if isinstance(value, ast.Lambda):
        body = value.body
        return (
            isinstance(body, ast.Call)
            and isinstance(body.func, ast.Name)
            and body.func.id == "id"
        )
    return False


def all_rules() -> list[Rule]:
    """Every rule, in code order."""
    return [UnseededRandomness(), WallClockEntropy(), UnstableIteration()]
