"""Every definition in ``src/repro`` is named somewhere else in ``src/``.

A stdlib :mod:`ast` scan, in the style of ``test_no_unused_imports.py``,
stands in for a dead-code linter.  Each non-dunder top-level function,
class and method of ``src/repro`` must be named outside its own body by
some module of ``src/`` — as a name, an attribute, an import in a
non-package module, or a string that parses as one (``getattr`` by
name).  Package ``__init__.py`` re-exports (their imports and
``__all__``) do not count: a name only a re-export names is reachable
from no run.  Functions and classes under a ``register_*`` decorator are
reached through their registry and count as used.

Definitions kept although no module calls them — public API, what the
test oracle (``tests/oracle``) reads and the observers the tests read —
sit on :data:`ALLOWLIST` with their reason; an entry that is no longer
needed fails the check too, so the list cannot go stale.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Set, Tuple

PACKAGE_ROOT = Path(__file__).resolve().parents[1] / "src" / "repro"

_PUBLIC = "public API: in repro.__all__, pinned by test_api_surface.py"

#: ``"module:Qual.name"`` of each definition kept although nothing in
#: ``src/`` names it, mapped to why it stays.
ALLOWLIST: Dict[str, str] = {
    "repro.baselines.service:standard_service_baselines": _PUBLIC,
    "repro.core.aoi:AoICounter": _PUBLIC,
    "repro.core.aoi:AoICounter.refresh": _PUBLIC + "; the counter's update step",
    "repro.core.aoi:AoIVector.refresh": (
        "the test oracle's per-RSU cache objects refresh one copy through it"
    ),
    "repro.exceptions:QueueError": (
        _PUBLIC + "; the test oracle's request queues raise it"
    ),
    "repro.net.requests:RequestGenerator.content_population": (
        "public workload method; the test oracle's item-by-item observation reads it"
    ),
    "repro.core.caching_mdp:ContentUpdateMDP": (
        _PUBLIC + "; the model the stacked content solver reproduces"
    ),
    "repro.core.solvers:policy_iteration": _PUBLIC,
    "repro.runtime.runner:expand_seeds": _PUBLIC,
    "repro.runtime.runner:expand_workloads": _PUBLIC,
    "repro.runtime.spec:save_specs": _PUBLIC,
    "repro.serve.client:ServeClient": _PUBLIC,
    "repro.workloads.registry:create_workload": _PUBLIC,
    "repro.workloads.trace:export_trace": _PUBLIC,
    "repro.runtime.spec:ExperimentSpec.from_json": (
        "public API: the README's lossless JSON round trip"
    ),
    "repro.serve.client:ServeClient.replay": (
        "public API: the README and examples/live_serving.py stream traces with it"
    ),
    "repro.core.caching_mdp:MDPCachingPolicy.memo_stats": (
        "public API: the README points to it; solve-cache tests read the memo"
    ),
    "repro.core.online:QLearningCachingPolicy": (
        "the online-learning claim (E6 bench) and examples/dynamic_environment.py"
    ),
    "repro.core.online:QLearningCachingPolicy.q_table": (
        "the learning-rule tests read the learned values through it"
    ),
    "repro.core.online:QLearningCachingPolicy.updates_applied": (
        "the learning-rule tests count applied updates through it"
    ),
    "repro.core.solve_cache:configure_solve_cache": (
        "isolates the process-global solve cache in tests and benchmarks"
    ),
    "repro.core.solve_cache:reset_solve_cache": (
        "isolates the process-global solve cache in tests and benchmarks"
    ),
    "repro.net.model:NetworkModel.edge_delay": (
        "the multihop latency reference in tests/sim reads link delays"
    ),
    "repro.net.requests:DeterministicArrivals": (
        "the deterministic arrival process the unit tests drive"
    ),
    "repro.net.requests:WorkloadHorizon.slot_batches": (
        "the horizon-versus-per-slot identity suites compare through it"
    ),
    "repro.runtime.runner:BatchResult.matches": (
        "the equivalence suites and benchmarks compare batches bit for bit"
    ),
    "repro.serve.server:BackgroundServer": (
        "the serve tests run a real TCP server through it"
    ),
    "repro.sim.metrics:CacheMetrics.age_matrix_history": (
        "the equivalence suites compare full trajectories through it"
    ),
    "repro.sim.metrics:CacheMetrics.action_matrix_history": (
        "the equivalence suites compare full trajectories through it"
    ),
    "repro.sim.metrics:ServiceMetrics.backlog_history": (
        "the equivalence suites compare full trajectories through it"
    ),
    "repro.sim.metrics:ServiceMetrics.cost_history": (
        "the equivalence suites compare full trajectories through it"
    ),
    "repro.workloads.trace:read_trace": (
        "the trace round-trip suites read exported files back through it"
    ),
}


class Definition(NamedTuple):
    key: str
    name: str
    path: Path
    first: int
    last: int


def _is_registered(node: ast.AST) -> bool:
    for decorator in getattr(node, "decorator_list", []):
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = getattr(target, "id", None) or getattr(target, "attr", "")
        if name.startswith("register_"):
            return True
    return False


def _definitions(path: Path, module: str) -> Iterator[Definition]:
    """Top-level functions and classes of *path*, plus their methods."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, kinds) or _is_registered(node):
            continue
        yield Definition(
            f"{module}:{node.name}", node.name, path, node.lineno, node.end_lineno
        )
        if not isinstance(node, ast.ClassDef):
            continue
        for member in node.body:
            if not isinstance(member, kinds[:2]):
                continue
            if member.name.startswith("__") and member.name.endswith("__"):
                continue
            yield Definition(
                f"{module}:{node.name}.{member.name}",
                member.name,
                path,
                member.lineno,
                member.end_lineno,
            )


def _string_names(value: str) -> Iterator[str]:
    try:
        expression = ast.parse(value, mode="eval")
    except SyntaxError:
        return
    for inner in ast.walk(expression):
        if isinstance(inner, ast.Name):
            yield inner.id
        elif isinstance(inner, ast.Attribute):
            yield inner.attr


def _references(path: Path) -> Iterator[Tuple[str, int]]:
    """``(name, line)`` of every name *path* mentions outside re-exports."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    package = path.name == "__init__.py"
    skip: Set[int] = set()
    # An assignment target is no use of its name (``self.x = ...`` must
    # not hide a method ``x`` nothing calls); an augmented one reads it.
    augmented: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            if any(getattr(t, "id", None) == "__all__" for t in targets):
                skip.update(id(inner) for inner in ast.walk(node))
        if isinstance(node, ast.AugAssign):
            augmented.add(id(node.target))
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        stored = isinstance(getattr(node, "ctx", None), ast.Store)
        if stored and id(node) not in augmented:
            continue
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom) and not package:
            for alias in node.names:
                yield alias.name, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            for name in _string_names(node.value):
                yield name, node.lineno


def _module_name(path: Path, root: Path) -> str:
    parts = path.relative_to(root.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def dead_definitions(root: Path = PACKAGE_ROOT) -> List[str]:
    """Keys of the definitions under *root* that nothing else names."""
    paths = sorted(root.rglob("*.py"))
    seen: Dict[str, List[Tuple[Path, int]]] = {}
    for path in paths:
        for name, line in _references(path):
            seen.setdefault(name, []).append((path, line))
    dead = []
    for path in paths:
        for item in _definitions(path, _module_name(path, root)):
            outside = (
                where
                for where, line in seen.get(item.name, ())
                if where != item.path or not item.first <= line <= item.last
            )
            if next(outside, None) is None:
                dead.append(item.key)
    return dead


def test_scanner_flags_a_definition_nothing_names(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text(
        "from pkg.mod import dead, Live\n__all__ = ['dead', 'Live', 'helper']\n",
        encoding="utf-8",
    )
    (package / "mod.py").write_text(
        "def register_thing(name):\n"
        "    return lambda fn: fn\n"
        "def dead():\n"
        "    return dead()\n"
        "def helper():\n"
        "    return 1\n"
        "@register_thing('x')\n"
        "def registered():\n"
        "    return 2\n"
        "class Live:\n"
        "    def used(self):\n"
        "        return getattr(self, 'by_string')() + helper()\n"
        "    def by_string(self):\n"
        "        return 3\n"
        "    def unused(self):\n"
        "        return self.unused()\n"
        "    def assigned(self):\n"
        "        self.unused = 1\n"
        "        self.count += 1\n"
        "    def count(self):\n"
        "        return 4\n"
        "Live().used()\n"
        "Live().assigned()\n",
        encoding="utf-8",
    )
    assert dead_definitions(package) == ["pkg.mod:dead", "pkg.mod:Live.unused"]


def test_every_definition_is_named_in_src():
    dead = set(dead_definitions())
    assert sorted(dead - set(ALLOWLIST)) == []


def test_allowlist_entries_are_still_needed():
    dead = set(dead_definitions())
    assert sorted(set(ALLOWLIST) - dead) == []


#: Methods no caller reached although their bare names occur in ``src/``
#: as an attribute or a variable (an unread ``SystemState.utility``
#: attribute hid ``AoICounter.utility``), so the scan above did not flag
#: them before it stopped counting assignment targets.  They are gone,
#: also from the two classes that moved to the test oracle (``tests/oracle``).
MASKED_AND_DELETED = [
    ("oracle.objects", "RSUCache", "randomize_ages"),
    ("oracle.objects", "RequestQueue", "served"),
    ("repro.core.aoi", "AoICounter", "utility"),
    ("repro.core.aoi", "AoIProcess", "times"),
    ("repro.net.model", "NetworkModel", "position"),
    ("repro.net.topology", "RoadTopology", "region"),
    ("repro.sim.multihop_sim", "MultihopSimulator", "role"),
]


def test_masked_unused_methods_are_deleted():
    for module, owner, name in MASKED_AND_DELETED:
        cls = getattr(importlib.import_module(module), owner)
        assert not hasattr(cls, name), f"{module}.{owner}.{name}"
