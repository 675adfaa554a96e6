"""Every ``src/`` module must be imported by something that runs.

A static import walk starts from the code that environments execute:
the ``repro`` command line (``repro.cli``, ``repro.__main__``) and the
scripts under ``examples/``, ``benchmarks/`` and ``perfbench/``.  It
follows every ``import`` statement, including those inside functions.
A package ``__init__.py`` re-export counts only when a reached module
reads the name from the package: ``from repro.knapsack import SOLVERS``
reaches ``knapsack/branch_bound.py`` because ``SOLVERS`` names
``solve_branch_bound``, while a re-export that only a test reads
reaches nothing.  A module the walk misses is code no environment
runs: delete it, or move it under ``tests/`` if it is a test oracle.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set

REPO = Path(__file__).resolve().parents[1]
ROOT_MODULES = ("repro.cli", "repro.__main__")
ROOT_DIRS = ("examples", "benchmarks", "perfbench")


def _bound_names(stmt: ast.stmt) -> Set[str]:
    """Names a top-level statement binds in its module."""
    if isinstance(stmt, (ast.Import, ast.ImportFrom)):
        return {
            (alias.asname or alias.name).split(".")[0]
            for alias in stmt.names
        }
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return {stmt.name}
    targets: List[ast.expr] = []
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        targets = [stmt.target]
    return {
        node.id
        for target in targets
        for node in ast.walk(target)
        if isinstance(node, ast.Name)
    }


class ImportWalk:
    """Import reachability over the modules of one source tree."""

    def __init__(self, src: Path) -> None:
        self.files: Dict[str, Path] = {}
        self.packages: Set[str] = set()
        for path in src.rglob("*.py"):
            parts = path.relative_to(src).with_suffix("").parts
            if parts[-1] == "__init__":
                parts = parts[:-1]
                self.packages.add(".".join(parts))
            self.files[".".join(parts)] = path
        self.reached: Set[str] = set()
        self._requested: Set[tuple] = set()
        self._trees: Dict[str, ast.Module] = {}

    def _tree(self, module: str) -> ast.Module:
        if module not in self._trees:
            self._trees[module] = ast.parse(self.files[module].read_text())
        return self._trees[module]

    def reach(self, module: str) -> None:
        """``module`` is imported: its packages and its body run.

        A package body counts only name by name (:meth:`request`).
        """
        if module not in self.files or module in self.reached:
            return
        self.reached.add(module)
        parent = module.rpartition(".")[0]
        if parent:
            self.reach(parent)
        if module not in self.packages:
            self.follow(self._tree(module), parent)

    def request(self, module: str, attr: str) -> None:
        """A reached module reads ``attr`` from ``module``."""
        submodule = f"{module}.{attr}"
        if submodule in self.files:
            self.reach(submodule)
            return
        if module not in self.files:
            return
        self.reach(module)
        if module not in self.packages or (module, attr) in self._requested:
            return
        self._requested.add((module, attr))
        body = self._tree(module).body
        defined = set().union(*map(_bound_names, body))
        binders = [stmt for stmt in body if attr in _bound_names(stmt)]
        if not binders:
            # PEP 562 forwarding: ask every module __getattr__ imports
            for stmt in body:
                if getattr(stmt, "name", None) == "__getattr__":
                    for target in self.follow(stmt, module):
                        self.request(target, attr)
            return
        for stmt in binders:
            if isinstance(stmt, ast.ImportFrom):
                stmt = ast.ImportFrom(
                    module=stmt.module,
                    names=[alias for alias in stmt.names
                           if (alias.asname or alias.name) == attr],
                    level=stmt.level,
                )
            self.follow(stmt, module)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and node.id in defined:
                    self.request(module, node.id)

    def follow(self, tree: ast.AST, package: Optional[str]) -> List[str]:
        """Reach what the imports in ``tree`` name, plus every attribute
        read from an imported module; returns the imported modules."""
        bindings: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.reach(alias.name)
                    if alias.asname:
                        bindings[alias.asname] = alias.name
                    else:
                        top = alias.name.split(".")[0]
                        bindings[top] = top
            elif isinstance(node, ast.ImportFrom):
                base = self._absolute(node, package)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    self.request(base, alias.name)
                    submodule = f"{base}.{alias.name}"
                    if submodule in self.files:
                        bindings[alias.asname or alias.name] = submodule
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                chain: List[str] = []
                value: ast.expr = node
                while isinstance(value, ast.Attribute):
                    chain.append(value.attr)
                    value = value.value
                if isinstance(value, ast.Name) and value.id in bindings:
                    self._read_chain(bindings[value.id], reversed(chain))
        return sorted(set(bindings.values()))

    def _read_chain(self, module: str, attrs: Iterable[str]) -> None:
        for attr in attrs:
            submodule = f"{module}.{attr}"
            if submodule not in self.files:
                self.request(module, attr)
                return
            self.reach(submodule)
            module = submodule

    @staticmethod
    def _absolute(node: ast.ImportFrom, package: Optional[str]) -> Optional[str]:
        if not node.level:
            return node.module
        if package is None:
            return None
        parts = package.split(".")
        if node.level > 1:
            parts = parts[: len(parts) - node.level + 1]
        return ".".join(parts + ([node.module] if node.module else []))


def unreached_modules(
    src: Path, root_modules: Iterable[str], root_files: Iterable[Path]
) -> List[str]:
    """``src`` modules that no root module or root script imports."""
    walk = ImportWalk(src)
    for module in root_modules:
        walk.reach(module)
    for path in root_files:
        walk.follow(ast.parse(path.read_text()), None)
    return sorted(set(walk.files) - walk.reached)


def test_every_src_module_is_imported_outside_tests():
    root_files = [
        path for name in ROOT_DIRS for path in sorted((REPO / name).glob("*.py"))
    ]
    assert root_files
    unreached = unreached_modules(REPO / "src", ROOT_MODULES, root_files)
    assert unreached == [], (
        "src/ modules that no command, example or benchmark imports "
        f"(only tests reach them, if anything): {unreached}"
    )


def _write(path: Path, text: str) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


def test_walk_counts_re_exports_only_when_read(tmp_path):
    src = tmp_path / "src"
    _write(src / "pkg" / "__init__.py",
           "from .used import used\n"
           "from .registered import registered\n"
           "from ._planted import planted\n"
           "REGISTRY = {'r': registered}\n")
    _write(src / "pkg" / "used.py", "def used():\n    pass\n")
    _write(src / "pkg" / "registered.py",
           "def registered():\n    from .lazy import lazy\n")
    _write(src / "pkg" / "lazy.py", "lazy = 1\n")
    _write(src / "pkg" / "_planted.py", "planted = 1\n")
    script = _write(tmp_path / "run.py", "from pkg import used, REGISTRY\n")
    assert unreached_modules(src, (), [script]) == ["pkg._planted"]

    _write(tmp_path / "run.py", "import pkg\npkg.planted\n")
    assert unreached_modules(src, (), [script]) == [
        "pkg.lazy", "pkg.registered", "pkg.used",
    ]
