"""Every module under ``src/repro`` is reached from the entry points.

The walk is static: it parses each module and follows every
``import``/``from ... import`` it finds, function-local ones included,
starting from ``repro`` and ``repro.cli``.  A module nothing reaches is
either deleted or listed in :data:`ALLOWED` with the reason it stays.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent.parent
ROOTS = ("repro", "repro.cli")

#: Modules no entry point imports, each with why it stays.
ALLOWED = {
    "repro.harness.smoke": "run by `make sweep-smoke`",
    "repro.obs.smoke": "run by `make obs-smoke`",
    "repro.service.smoke": "run by `make serve-smoke`",
    "repro.service.testing": "in-thread service helper for the tests",
    "repro.analysis.timeline": "used by examples/timeline_trace.py",
    "repro.measure.attribution": "used by examples/energy_attribution.py; "
                                 "ROADMAP item 10 decides it",
}


def _modules() -> dict[str, Path]:
    found = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        found[".".join(parts)] = path
    return found


def _imports(path: Path) -> set[str]:
    """Every module an import in ``path`` names, with its parents."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
            names.update(f"{node.module}.{a.name}" for a in node.names)
    # Importing a.b.c imports a and a.b first.
    return {".".join(name.split(".")[:i])
            for name in names for i in range(1, name.count(".") + 2)}


def _reachable(modules: dict[str, Path]) -> set[str]:
    seen: set[str] = set()
    todo = list(ROOTS)
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(_imports(modules[name]) & modules.keys())
    return seen


def test_every_module_is_reachable_or_allowed():
    modules = _modules()
    unreached = sorted(set(modules) - _reachable(modules))
    assert unreached == sorted(ALLOWED)
