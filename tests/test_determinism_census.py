"""Determinism census (docs/lint.md): every Python file under the four
:data:`TREES` parses and keeps three properties, each a function over an
``ast.Module`` yielding ``(line, message)`` — :func:`metered_randomness`
(everywhere but :data:`RANDOMNESS_MODULE`), :func:`no_wall_clock` (in
:data:`CLOCK_SCOPE`; ``transport/`` is outside it on purpose) and
:func:`order_stable_iteration` (in :data:`ITERATION_SCOPE`).  There is no
waiver: those are the only exemptions.
"""

from __future__ import annotations

import ast
import time
from collections.abc import Iterator
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
TREES = ("src", "tests", "benchmarks", "examples")

#: The one module allowed to wrap :mod:`random`.
RANDOMNESS_MODULE = "repro/runtime/randomness.py"
#: The replayed layers.  ``repro/runtime`` includes the round models in
#: ``runtime/models/``, where simulated time lives.
CLOCK_SCOPE = (
    "repro/runtime", "repro/core", "repro/baselines", "repro/adversary",
    "repro/replay", "repro/harness",
)
#: The layers a replay re-executes in order.
ITERATION_SCOPE = (
    "repro/runtime", "repro/core", "repro/baselines", "repro/adversary",
)


def in_scope(relpath: str, scope: tuple[str, ...]) -> bool:
    """True when a fragment of *scope* is a whole directory run of
    *relpath* (``repro/core`` matches ``src/repro/core/x.py``)."""
    return any(f"/{part}/" in f"/{relpath}" for part in scope)


def dotted_chain(node: ast.expr) -> list[str] | None:
    """``a.b.c`` → ``["a", "b", "c"]``; None when the root is not a Name."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return None


def module_aliases(tree: ast.Module, module_name: str) -> set[str]:
    """Local names bound to ``import module_name`` (honouring ``as``)."""
    aliases: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == module_name:
                    aliases.add((alias.asname or alias.name).split(".")[0])
    return aliases


def from_imports(tree: ast.Module, module_name: str) -> dict[str, ast.ImportFrom]:
    """Names bound by ``from module_name import x [as y]`` → binding node."""
    bound: dict[str, ast.ImportFrom] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == module_name:
            for alias in node.names:
                bound[alias.asname or alias.name] = node
    return bound


# ---------------------------------------------------------------------------
# Metered randomness

#: ``random`` module functions bound to the hidden process-global instance.
_GLOBAL_RANDOM_FUNCS = frozenset({
    "betavariate", "binomialvariate", "choice", "choices", "expovariate",
    "gammavariate", "gauss", "getrandbits", "getstate", "lognormvariate",
    "normalvariate", "paretovariate", "randbytes", "randint", "random",
    "randrange", "sample", "seed", "setstate", "shuffle", "triangular",
    "uniform", "vonmisesvariate", "weibullvariate",
})
_SEEDED = "; draw from a seeded source (repro.runtime.randomness)"


def metered_randomness(tree: ast.Module) -> Iterator[tuple[int, str]]:
    """Process-global ``random`` calls, ``from random import <func>``
    bindings, unseeded ``random.Random()`` and ``random.SystemRandom``."""
    for name, node in from_imports(tree, "random").items():
        if name in _GLOBAL_RANDOM_FUNCS:
            yield node.lineno, f"`from random import {name}` is global" + _SEEDED
        elif name == "SystemRandom":
            yield node.lineno, "random.SystemRandom reads OS entropy" + _SEEDED
    aliases = module_aliases(tree, "random")
    if not aliases:
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        chain = dotted_chain(node.func)
        if chain is None or len(chain) != 2 or chain[0] not in aliases:
            continue
        attr = chain[1]
        if attr in _GLOBAL_RANDOM_FUNCS:
            yield node.lineno, f"call to process-global `random.{attr}`" + _SEEDED
        elif attr == "SystemRandom":
            yield node.lineno, "random.SystemRandom reads OS entropy" + _SEEDED
        elif attr == "Random" and not node.args and not node.keywords:
            yield node.lineno, "unseeded random.Random() reads OS entropy" + _SEEDED


# ---------------------------------------------------------------------------
# No wall clock or entropy

#: time-module attributes that read the wall clock.  ``monotonic`` is one:
#: deadline arithmetic belongs to the transport layer, never to replayed
#: code.  ``perf_counter`` informs observers only and is allowed.
_WALL_CLOCK_TIME = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns", "localtime", "gmtime",
    "ctime", "strftime",
})
#: datetime constructors that read the wall clock.
_WALL_CLOCK_DATETIME = frozenset({"now", "utcnow", "today"})
#: os-module entropy sources.
_OS_ENTROPY = frozenset({"urandom", "getrandom"})
_REPLAYED = " in replayed code; pass it in from the caller or use the round counter"


def _import_node(tree: ast.Module, module_name: str) -> ast.AST:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(
            alias.name.split(".")[0] == module_name for alias in node.names
        ):
            return node
    return tree


def no_wall_clock(tree: ast.Module) -> Iterator[tuple[int, str]]:
    """``time.time``-family and ``datetime.now``-style reads,
    ``os.urandom`` / ``getrandom``, and any ``uuid`` or ``secrets`` import."""
    for banned in ("uuid", "secrets"):
        for alias in module_aliases(tree, banned):
            line = getattr(_import_node(tree, banned), "lineno", 1)
            yield line, f"importing `{banned}` (as `{alias}`) reads OS entropy"
        for imp in from_imports(tree, banned).values():
            yield imp.lineno, f"`from {banned} import ...` reads OS entropy"
    time_aliases = module_aliases(tree, "time")
    os_aliases = module_aliases(tree, "os")
    datetime_aliases = module_aliases(tree, "datetime")
    datetime_names = {"datetime", "date"} & set(from_imports(tree, "datetime"))
    time_names = _WALL_CLOCK_TIME & set(from_imports(tree, "time"))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        chain = dotted_chain(node.func)
        if chain is None:
            continue
        root, attr = chain[0], chain[-1]
        if len(chain) == 1:
            if root in time_names:
                yield node.lineno, f"wall-clock read `{root}()`" + _REPLAYED
            continue
        if root in time_aliases and attr in _WALL_CLOCK_TIME:
            yield node.lineno, f"wall-clock read `time.{attr}()`" + _REPLAYED
        elif root in os_aliases and attr in _OS_ENTROPY:
            yield node.lineno, f"`os.{attr}()` reads OS entropy" + _SEEDED
        elif attr in _WALL_CLOCK_DATETIME and (
            root in datetime_aliases or root in datetime_names
        ):
            yield node.lineno, f"wall-clock read `{'.'.join(chain)}()`" + _REPLAYED


# ---------------------------------------------------------------------------
# Order-stable iteration
#
# Set types are inferred locally, per function or class body, in statement
# order; a set behind an attribute or a return is not seen (docs/lint.md).
# Dicts iterate in insertion order and are not flagged.

#: Builtins that materialize their argument in iteration order.
_ORDER_SENSITIVE_CONSUMERS = frozenset({"list", "tuple", "enumerate", "iter"})
_SET_PRESERVING_BINOPS = (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
_HASH_ORDER = " iterates a set in interpreter hash order; wrap it in sorted(...)"


def order_stable_iteration(tree: ast.Module) -> Iterator[tuple[int, str]]:
    """Sets iterated by ``for``, a comprehension or
    ``list``/``tuple``/``enumerate``/``iter`` without ``sorted(...)``, and
    sorts keyed on ``id()``."""
    yield from _check_scope(tree.body)


def _check_scope(body: list[ast.stmt]) -> Iterator[tuple[int, str]]:
    set_names: set[str] = set()
    for stmt in body:
        yield from _check_stmt(stmt, set_names)


def _check_stmt(stmt: ast.stmt, set_names: set[str]) -> Iterator[tuple[int, str]]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        yield from _check_scope(stmt.body)
        return
    # Findings first (pre-assignment state), then update inference.
    yield from _check_exprs(stmt, set_names)
    _infer(stmt, set_names)
    for child in ast.iter_child_nodes(stmt):
        if isinstance(child, ast.stmt):
            yield from _check_stmt(child, set_names)
        elif isinstance(child, ast.excepthandler):
            for inner in child.body:
                yield from _check_stmt(inner, set_names)


def _check_exprs(stmt: ast.stmt, set_names: set[str]) -> Iterator[tuple[int, str]]:
    if isinstance(stmt, (ast.For, ast.AsyncFor)) and _is_set(stmt.iter, set_names):
        yield stmt.iter.lineno, "`for`" + _HASH_ORDER
    for node in _walk_stmt_exprs(stmt):
        if isinstance(node, ast.Call):
            yield from _check_call(node, set_names)
        elif isinstance(
            node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            for comp in node.generators:
                if _is_set(comp.iter, set_names):
                    yield comp.iter.lineno, "comprehension" + _HASH_ORDER


def _check_call(node: ast.Call, set_names: set[str]) -> Iterator[tuple[int, str]]:
    func = node.func
    if (
        isinstance(func, ast.Name)
        and func.id in _ORDER_SENSITIVE_CONSUMERS
        and node.args
        and _is_set(node.args[0], set_names)
    ):
        yield node.lineno, f"`{func.id}(...)`" + _HASH_ORDER
    # id()-keyed sorts: sorted(xs, key=id) / xs.sort(key=lambda v: id(v)).
    is_sort = (isinstance(func, ast.Name) and func.id == "sorted") or (
        isinstance(func, ast.Attribute) and func.attr == "sort"
    )
    if is_sort:
        for keyword in node.keywords:
            if keyword.arg == "key" and _is_id_key(keyword.value):
                yield keyword.value.lineno, "id()-keyed sort follows addresses"


def _infer(stmt: ast.stmt, set_names: set[str]) -> None:
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        target = stmt.targets[0]
        if isinstance(target, ast.Name):
            if _is_set(stmt.value, set_names):
                set_names.add(target.id)
            else:
                set_names.discard(target.id)
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        if _annotation_is_set(stmt.annotation) or (
            stmt.value is not None and _is_set(stmt.value, set_names)
        ):
            set_names.add(stmt.target.id)
        else:
            set_names.discard(stmt.target.id)
    elif isinstance(stmt, ast.AugAssign) and isinstance(stmt.target, ast.Name):
        if stmt.target.id in set_names and not isinstance(
            stmt.op, _SET_PRESERVING_BINOPS
        ):
            set_names.discard(stmt.target.id)


def _is_set(node: ast.expr, set_names: set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in set_names
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in {"set", "frozenset"}
    if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_PRESERVING_BINOPS):
        return _is_set(node.left, set_names) or _is_set(node.right, set_names)
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


# ---------------------------------------------------------------------------
# The census


def census(relpath: str, source: str) -> list[tuple[int, str, str]]:
    """``(line, property, message)`` for every breach in *source*, checked
    as if it lived at *relpath* (the scopes match on it)."""
    try:
        tree = ast.parse(source, filename=relpath)
    except SyntaxError as error:
        return [(error.lineno or 1, "parses", f"does not parse: {error.msg}")]
    checks = [] if relpath.endswith(RANDOMNESS_MODULE) else [metered_randomness]
    if in_scope(relpath, CLOCK_SCOPE):
        checks.append(no_wall_clock)
    if in_scope(relpath, ITERATION_SCOPE):
        checks.append(order_stable_iteration)
    return sorted(
        (line, check.__name__, message)
        for check in checks
        for line, message in check(tree)
    )


def census_tree(root: Path) -> list[str]:
    """Every breach under *root*'s four trees, walked in sorted order."""
    return [
        f"{relpath}:{line}: {name}: {message}"
        for tree in TREES
        for path in sorted((root / tree).rglob("*.py"))
        for relpath in [path.relative_to(root).as_posix()]
        for line, name, message in census(relpath, path.read_text(encoding="utf-8"))
    ]


def test_the_repository_keeps_the_contract():
    started = time.perf_counter()
    assert census_tree(REPO_ROOT) == []
    assert time.perf_counter() - started < 3.0


RANDOM, CLOCK, ORDER = "metered_randomness", "no_wall_clock", "order_stable_iteration"

#: Planted and clean cases: the relpath the source is checked at (it
#: decides which scopes apply), the source, and the property it breaches.
CASES = {
    "global_random_call_flagged":
        ("src/foo.py", "import random\nx = random.randint(0, 5)\n", RANDOM),
    "from_import_of_global_function_flagged":
        ("src/foo.py", "from random import shuffle\n", RANDOM),
    "unseeded_random_instance_flagged":
        ("src/foo.py", "import random\nr = random.Random()\n", RANDOM),
    "seeded_random_instance_clean":
        ("src/foo.py", "import random\nr = random.Random(7)\n", None),
    "system_random_flagged":
        ("src/foo.py", "import random\nr = random.SystemRandom()\n", RANDOM),
    "randomness_module_exempt":
        ("src/repro/runtime/randomness.py",
         "import random\nx = random.getrandbits(8)\n", None),
    "method_on_seeded_instance_clean":
        ("src/foo.py", "import random\nr = random.Random(1)\ny = r.randint(0, 5)\n",
         None),
    "time_time_in_engine_flagged":
        ("src/repro/runtime/x.py", "import time\nt = time.time()\n", CLOCK),
    "perf_counter_allowed":
        ("src/repro/runtime/x.py", "import time\nt = time.perf_counter()\n", None),
    "uuid_import_in_core_flagged":
        ("src/repro/core/x.py", "import uuid\n", CLOCK),
    "secrets_import_flagged":
        ("src/repro/adversary/x.py", "from secrets import token_hex\n", CLOCK),
    "datetime_now_in_replay_flagged":
        ("src/repro/replay/x.py",
         "from datetime import datetime\nd = datetime.now()\n", CLOCK),
    "os_urandom_flagged":
        ("src/repro/harness/x.py", "import os\nb = os.urandom(16)\n", CLOCK),
    "clock_out_of_scope_module_unflagged":
        ("src/repro/analysis/x.py", "import time\nt = time.time()\n", None),
    "for_over_set_flagged":
        ("src/repro/core/x.py", "s = {1, 2}\nfor x in s:\n    print(x)\n", ORDER),
    "sorted_wrapper_clean":
        ("src/repro/core/x.py", "s = {1, 2}\nfor x in sorted(s):\n    print(x)\n",
         None),
    "list_of_set_flagged":
        ("src/repro/runtime/x.py", "s = set([3])\ny = list(s)\n", ORDER),
    "comprehension_over_frozenset_flagged":
        ("src/repro/adversary/x.py", "out = [v for v in frozenset((1, 2))]\n",
         ORDER),
    "set_annotation_tracked":
        ("src/repro/baselines/x.py",
         "def f() -> None:\n    s: set[int] = make()\n    for x in s:\n        pass\n",
         ORDER),
    "id_sort_key_flagged":
        ("src/repro/core/x.py", "xs = [3, 1]\nxs.sort(key=id)\n", ORDER),
    "id_lambda_sort_key_flagged":
        ("src/repro/core/x.py", "ys = sorted(items, key=lambda v: id(v))\n", ORDER),
    "dict_iteration_not_flagged":
        ("src/repro/core/x.py", "d = {1: 2}\nfor k in d:\n    print(k)\n", None),
    "set_consumed_by_frozenset_clean":
        ("src/repro/core/x.py", "s = {1, 2}\nf = frozenset(s)\nm = min(s)\n", None),
    "iteration_out_of_scope_module_unflagged":
        ("src/repro/analysis/x.py", "s = {1}\nfor x in s:\n    print(x)\n", None),
}


@pytest.mark.parametrize("case", CASES)
def test_planted_case(case):
    relpath, source, breached = CASES[case]
    found = [name for _, name, _ in census(relpath, source)]
    assert found == ([breached] if breached else [])


@pytest.mark.parametrize(
    "source, breached",
    [
        ("s = {1, 2}\nfor x in sorted(s):\n    print(x)\n", []),
        ("s = {1, 2}\nfor x in s:\n    print(x)\n", [ORDER]),
        ("def broken(:\n", ["parses"]),
    ],
    ids=["clean", "unsorted-set", "unparsable"],
)
def test_tree_walker_reports_a_planted_module(tmp_path, source, breached):
    planted = tmp_path / "src" / "repro" / "core" / "planted.py"
    planted.parent.mkdir(parents=True)
    planted.write_text(source)
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_clean.py").write_text("import random\n")
    found = census_tree(tmp_path)
    assert [entry.split(": ")[1] for entry in found] == breached
    assert all(entry.startswith("src/repro/core/planted.py:") for entry in found)
