"""Static checks over the ``src/repro`` source tree.

Every module must feed an experiment, the CLI, ``repro.api`` or the
``perfbench/`` harness; a module that only its own tests import is dead
weight.  The import graph is built with :mod:`ast`, without importing
anything.  An ``__init__.py`` re-export is not a use: ``from repro.pkg
import Name`` counts as an edge to the submodule that ``pkg/__init__.py``
takes ``Name`` from, and nothing else out of an ``__init__.py`` counts.
"""

from __future__ import annotations

import ast
from functools import cache
from pathlib import Path

from repro.runner.registry import REGISTRY

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
PERFBENCH = ROOT / "perfbench"

#: modules that no root reaches, each on purpose
ALLOWED_UNREACHED = {
    # the fake experiment the runner tests load by dotted path
    "repro.runner._selftest",
    # pipeline traces for readers; to be replaced by per-cycle accounting
    "repro.ultrascalar.trace_view",
}


def _module_files() -> dict[str, Path]:
    """Dotted module name -> source file, packages named by their ``__init__``."""
    files = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        files[".".join(parts)] = path
    return files


FILES = _module_files()
PACKAGES = {name for name, path in FILES.items() if path.name == "__init__.py"}


@cache
def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _provider(package: str, name: str) -> str:
    """The module that ``from <package> import <name>`` really reaches."""
    if f"{package}.{name}" in FILES:
        return f"{package}.{name}"
    if package not in PACKAGES:
        return package
    for node in ast.walk(_parse(FILES[package])):
        if isinstance(node, ast.ImportFrom) and node.module in FILES:
            for alias in node.names:
                if (alias.asname or alias.name) == name:
                    return _provider(node.module, alias.name)
    return package


def _imports(tree: ast.Module) -> set[str]:
    """The ``repro`` modules one parsed file imports, re-exports resolved."""
    targets = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            targets.update(a.name for a in node.names if a.name in FILES)
        elif isinstance(node, ast.ImportFrom) and node.module in FILES:
            targets.update(_provider(node.module, a.name) for a in node.names)
    return targets


def _roots() -> set[str]:
    roots = {"repro.__main__", "repro.api"}
    roots.update(spec.module for spec in REGISTRY.values())
    for path in sorted(PERFBENCH.glob("*.py")):
        roots |= _imports(_parse(path))
    return roots


def _reachable() -> set[str]:
    seen: set[str] = set()
    stack = list(_roots())
    while stack:
        module = stack.pop()
        if module in seen:
            continue
        seen.add(module)
        if module not in PACKAGES:
            stack.extend(_imports(_parse(FILES[module])))
    return seen


class TestModuleGraph:
    def test_every_module_is_reachable_from_a_root(self):
        modules = set(FILES) - PACKAGES
        orphans = sorted(modules - _reachable() - ALLOWED_UNREACHED)
        assert not orphans, "modules no experiment, CLI, API or perfbench path uses:\n" + (
            "\n".join(orphans)
        )

    def test_allowlist_is_current(self):
        assert ALLOWED_UNREACHED <= set(FILES)
        assert not ALLOWED_UNREACHED & _reachable()


class TestDocstringContract:
    """Production hygiene: every public module, class, and function in
    the library carries a docstring."""

    def test_all_public_items_documented(self):
        missing = []
        # overrides whose contract is documented once, on the protocol or
        # base class (BranchPredictor, MemorySystem, ScanOp, Tracer)
        interface_methods = {
            "predict", "update", "reset",                      # BranchPredictor
            "submit_load", "submit_store", "tick",             # MemorySystem
            "peek_word", "load_image", "final_state",
            "counters",
            "combine",                                         # ScanOp
            "count", "event", "snapshot",                      # Tracer
        }

        def check_scope(path, body, prefix=""):
            for node in body:
                if not isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if node.name.startswith("_"):
                    continue
                if prefix and node.name in interface_methods:
                    continue
                if not ast.get_docstring(node):
                    missing.append(f"{path}:{node.lineno} {prefix}{node.name}")
                if isinstance(node, ast.ClassDef):
                    check_scope(path, node.body, prefix=f"{node.name}.")

        for path in FILES.values():
            tree = _parse(path)
            relative = path.relative_to(ROOT)
            if not ast.get_docstring(tree) and path.name != "__init__.py":
                missing.append(f"{relative} (module)")
            check_scope(relative, tree.body)
        assert not missing, "undocumented public items:\n" + "\n".join(missing)
