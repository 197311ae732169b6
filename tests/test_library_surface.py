"""Nothing in the library that only tests reach.

A public top-level ``def`` or ``class`` in ``src/repro`` is *reached* when a
non-test Python file names it — another module of ``src/repro``, a
benchmark, ``perfbench`` (bar its tests), an example or a tool — or when
its own module names it outside its own body.  Imports and ``__all__`` do
not count: re-exporting a name is not using it.  A definition nothing
reaches is either dead or a test helper, and a test helper belongs under
``tests/`` (oracles in ``tests/reference_impls.py``).  Public API that is
reached only through documentation is listed in :data:`ALLOWED`, each entry
with its reason.
"""

from __future__ import annotations

import ast
import os

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Trees whose Python files count as callers (``tests`` directories are
#: skipped wherever they sit).
CALLER_TREES = ("src", "benchmarks", "perfbench", "examples", "tools")

#: ``module path -> name -> reason`` for definitions kept although no
#: non-test file names them.
ALLOWED = {
    "src/repro/analysis/complexity.py": {
        "claimed_exponent": "Table II's claims as exponents, for the Table II "
        "bench to read instead of re-typing them (it re-types them today)",
        "table2_rows": "Table II as rows of TABLE2_CLAIMS, for the same bench",
    },
    "src/repro/core/backend.py": {
        "LedgerBackend": "the backend contract as a typing.Protocol "
        "(docs/backends.md): a type that states what a backend must offer, "
        "not a call target",
    },
    "src/repro/exp/presets.py": {
        "overlap_compare_spec": "a documented preset sweep "
        "(docs/experiments.md, docs/perf.md) that users run by name",
    },
    "src/repro/exp/results.py": {
        "JsonlReportWriter": "the streaming report sink users attach as "
        "ledger.report_sink (README.md, docs/architecture.md)",
    },
}


class _Names(ast.NodeVisitor):
    """Every identifier a module names, bar imports and ``__all__``."""

    def __init__(self) -> None:
        self.names: set[str] = set()

    def visit_Import(self, node: ast.Import) -> None:
        pass

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        pass

    def visit_Assign(self, node: ast.Assign) -> None:
        if not any(getattr(t, "id", None) == "__all__" for t in node.targets):
            self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        self.names.add(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self.names.add(node.attr)
        self.generic_visit(node)


def _named(nodes) -> set[str]:
    visitor = _Names()
    for node in nodes:
        visitor.visit(node)
    return visitor.names


def _python_files(root: str):
    for tree in CALLER_TREES:
        for directory, subdirs, files in os.walk(os.path.join(root, tree)):
            subdirs[:] = sorted(d for d in subdirs if d not in ("tests", "__pycache__"))
            for name in sorted(files):
                if name.endswith(".py"):
                    yield os.path.relpath(os.path.join(directory, name), root)


def unreached_definitions(root: str = REPO) -> list[tuple[str, str]]:
    """``(module path, name)`` of every public top-level definition under
    ``src/repro`` that no non-test file names (see the module docstring)."""
    named_in: dict[str, set[str]] = {}
    definitions: list[tuple[str, str]] = []
    for path in _python_files(root):
        with open(os.path.join(root, path), encoding="utf-8") as fh:
            module = ast.parse(fh.read(), path)
        named_in[path] = _named(module.body)
        if not path.startswith("src/repro/"):
            continue
        for node in module.body:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) or node.name.startswith("_"):
                continue
            if node.name in _named(n for n in module.body if n is not node):
                continue  # the module itself uses it
            definitions.append((path, node.name))
    return [
        (path, name)
        for path, name in definitions
        if not any(
            name in names for other, names in named_in.items() if other != path
        )
    ]


def test_every_library_definition_is_reached_outside_the_tests():
    unreached = [
        f"{path}: {name}"
        for path, name in unreached_definitions()
        if name not in ALLOWED.get(path, {})
    ]
    assert not unreached, (
        "named by no non-test file: delete each, move it under tests/, or "
        "list it in ALLOWED with a reason:\n  " + "\n  ".join(unreached)
    )


def test_every_allowed_entry_is_still_an_unreached_definition():
    """An entry that has gained a caller, or whose definition is gone,
    leaves the list."""
    unreached = set(unreached_definitions())
    stale = [
        f"{path}: {name}"
        for path, names in ALLOWED.items()
        for name in names
        if (path, name) not in unreached
    ]
    assert not stale, "stale ALLOWED entries:\n  " + "\n  ".join(stale)


@pytest.fixture
def toy_repo(tmp_path):
    def write(path, text):
        target = tmp_path / path
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text, encoding="utf-8")

    write(
        "src/repro/lib.py",
        "__all__ = ['exported_only']\n"
        "def only_tests(): pass\n"
        "def exported_only(): pass\n"
        "def used_at_home(): pass\n"
        "def caller(): return used_at_home()\n"
        "def recursive(n): return recursive(n - 1)\n"
        "class Called: pass\n"
        "def _private(): pass\n",
    )
    write(
        "src/repro/__init__.py",
        "from repro.lib import exported_only\n__all__ = ['exported_only']\n",
    )
    write("benchmarks/bench_x.py", "from repro.lib import Called\nCalled()\n")
    write("examples/demo.py", "import repro.lib\nrepro.lib.caller()\n")
    write("perfbench/tests/test_p.py", "from repro.lib import recursive\nrecursive(1)\n")
    write("tests/test_lib.py", "from repro.lib import only_tests\nonly_tests()\n")
    return str(tmp_path)


def test_the_scan_flags_what_only_tests_imports_or_itself_name(toy_repo):
    assert sorted(name for _, name in unreached_definitions(toy_repo)) == [
        "exported_only",
        "only_tests",
        "recursive",
    ]
