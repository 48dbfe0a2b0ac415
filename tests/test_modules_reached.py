"""Every ``src/repro`` module is reached from an entry point.

Builds the static import graph of the package with the stdlib ``ast``
and walks it from the program's entry points: the ``etsc-bench``,
``serve-slo`` and ``robustness`` command lines, the trace summary, and
the scripts under ``benchmarks/`` and ``examples/``. A module that no
entry point imports runs only under its own tests; it is dead code the
suite keeps testing for nothing.

How the graph is built:

* imports are followed wherever they appear, inside functions too (the
  CLI and the registry import lazily);
* ``from pkg import name`` resolves through the package ``__init__`` to
  the submodule that defines ``name``;
* a package ``__init__`` is reached in its own right only for a name it
  defines itself (``stats.backends.get_backend``), and then its imports
  count only where its own code uses the name they bind. A bare
  re-export reaches nothing, or the public API would hide every dead
  module behind it.

A package ``__init__`` is not itself required to be reached: Python runs
it whenever any module below it is imported.
"""

from __future__ import annotations

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE_ROOT = REPO / "src" / "repro"

ENTRY_MODULES = (
    "repro.core.cli",
    "repro.slo.cli",
    "repro.robustness.cli",
    "repro.obs.summary",
)
SCRIPT_DIRS = ("benchmarks", "examples")

#: Modules kept although no entry point imports them, each with its reason.
KEEP = {
    "repro.data.io": (
        "the library's only reader and writer for real UCR/ARFF and CSV "
        "files (docs/datasets.md); the grid runs on the synthetic generators"
    ),
}


class _Module:
    """One parsed file: its imports and, for a package, its own names."""

    def __init__(self, name: str, path: Path, is_package: bool) -> None:
        self.name = name
        self.is_package = is_package
        self.tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        # For a package, the name each top-level import binds resolves
        # through it; ``None`` marks a name the ``__init__`` defines itself.
        self.bindings: dict[str, tuple[str, str | None] | None] = {}
        for statement in _top_level(self.tree.body):
            if isinstance(statement, ast.ImportFrom):
                source = _absolute(self, statement)
                for alias in statement.names:
                    bound = alias.asname or alias.name
                    if source == name:  # from . import submodule
                        self.bindings[bound] = (f"{name}.{alias.name}", None)
                    else:
                        self.bindings[bound] = (source, alias.name)
            elif isinstance(statement, ast.Import):
                for alias in statement.names:
                    if alias.asname:
                        self.bindings[alias.asname] = (alias.name, None)
            else:
                for bound in _defined_names(statement):
                    self.bindings[bound] = None
        self.loaded = {
            node.id
            for node in ast.walk(self.tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }


def _top_level(body: list[ast.stmt]):
    """Module-level statements, looking into ``if``/``try``/``with`` blocks."""
    for statement in body:
        yield statement
        if isinstance(statement, (ast.If, ast.Try, ast.With)):
            for field in ("body", "orelse", "finalbody"):
                yield from _top_level(getattr(statement, field, []))
            for handler in getattr(statement, "handlers", []):
                yield from _top_level(handler.body)


def _defined_names(statement: ast.stmt) -> list[str]:
    if isinstance(
        statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    ):
        return [statement.name]
    if isinstance(statement, ast.Assign):
        targets = statement.targets
    elif isinstance(statement, (ast.AnnAssign, ast.AugAssign)):
        targets = [statement.target]
    else:
        return []
    return [
        node.id
        for target in targets
        for node in ast.walk(target)
        if isinstance(node, ast.Name)
    ]


def _absolute(module: _Module | None, node: ast.ImportFrom) -> str:
    """The absolute module name ``node`` imports from."""
    if not node.level:
        return node.module or ""
    assert module is not None, "relative import outside the package"
    parts = module.name.split(".")
    base = parts if module.is_package else parts[:-1]
    base = base[: len(base) - (node.level - 1)]
    return ".".join(base + ([node.module] if node.module else []))


def _load_package() -> dict[str, _Module]:
    modules = {}
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        parts = list(path.relative_to(PACKAGE_ROOT.parent).with_suffix("").parts)
        is_package = parts[-1] == "__init__"
        if is_package:
            parts.pop()
        name = ".".join(parts)
        modules[name] = _Module(name, path, is_package)
    return modules


def _resolve(modules: dict[str, _Module], source: str, name: str | None):
    """The modules ``from source import name`` reaches (``import source``
    when ``name`` is ``None``)."""
    if source not in modules:
        # numpy, the standard library, or a sibling script.
        assert not source.startswith("repro."), f"no module {source}"
        return set()
    module = modules[source]
    if name is None or not module.is_package:
        return {source}
    if name in module.bindings:
        binding = module.bindings[name]
        if binding is None:
            return {source}
        return _resolve(modules, *binding)
    submodule = f"{source}.{name}"
    assert submodule in modules, f"cannot resolve {name} from {source}"
    return {submodule}


def _imports(
    modules: dict[str, _Module],
    module: _Module | None,
    tree: ast.Module,
    loaded: set[str] | None = None,
):
    """Modules imported anywhere in ``tree``; with ``loaded``, a top-level
    import counts only if it binds a name in ``loaded``."""
    top = set(map(id, _top_level(tree.body)))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if loaded is None or id(node) not in top or bound in loaded:
                    yield from _resolve(modules, alias.name, None)
        elif isinstance(node, ast.ImportFrom):
            source = _absolute(module, node)
            for alias in node.names:
                bound = alias.asname or alias.name
                if loaded is None or id(node) not in top or bound in loaded:
                    yield from _resolve(modules, source, alias.name)


def _entry_scripts() -> list[Path]:
    return [
        path
        for directory in SCRIPT_DIRS
        for path in sorted((REPO / directory).rglob("*.py"))
        if not path.name.startswith("test_") and path.name != "conftest.py"
    ]


def _reached(modules: dict[str, _Module]) -> set[str]:
    frontier = list(ENTRY_MODULES)
    for script in _entry_scripts():
        tree = ast.parse(script.read_text(encoding="utf-8"), str(script))
        frontier.extend(_imports(modules, None, tree))
    reached: set[str] = set()
    while frontier:
        name = frontier.pop()
        if name not in reached:
            reached.add(name)
            module = modules[name]
            loaded = module.loaded if module.is_package else None
            frontier.extend(_imports(modules, module, module.tree, loaded))
    return reached


def test_entry_points_exist():
    modules = _load_package()
    assert set(ENTRY_MODULES) <= set(modules)
    assert _entry_scripts()


def test_every_module_is_reached_from_an_entry_point():
    modules = _load_package()
    reached = _reached(modules)
    unreached = {
        name
        for name, module in modules.items()
        if not module.is_package and name not in reached
    }
    assert unreached - set(KEEP) == set(), (
        "modules no entry point imports (delete them, or keep one in KEEP "
        "with its reason)"
    )
    # A kept module that an entry point reaches no longer needs the list.
    assert set(KEEP) <= unreached
