"""Nothing in the library that only tests reach.

A public top-level ``def`` or ``class`` in ``src/repro`` is *reached* when a
non-test Python file names it — another module of ``src/repro``, a
benchmark, ``perfbench`` (bar its tests), an example or a tool — or when
its own module names it outside its own body.  Imports and ``__all__`` do
not count: re-exporting a name is not using it.

A *member* of a public class — a public method, property or dataclass
field — is reached the same way, named as an attribute (``.name``), as a
keyword (``name=``), or as a string handed to ``getattr``, ``hasattr`` or
``attrgetter``.  Members are matched by name alone, so a member shares its
reach with every other attribute of that name.

A definition or member nothing reaches is either dead or a test helper, and
a test helper belongs under ``tests/`` (oracles in
``tests/reference_impls.py``).  What stays although only documentation or
tests reach it is listed in :data:`ALLOWED`, each entry with its reason.

The oracles get the same rule from the other side: every public entry of
``tests/reference_impls.py`` is named by a ``tests/test_*.py`` module, or by
an entry that is, and the module's docstring lists exactly its entries.
"""

from __future__ import annotations

import ast
import os
import re
from collections import Counter

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Trees whose Python files count as callers (``tests`` directories are
#: skipped wherever they sit).
CALLER_TREES = ("src", "benchmarks", "perfbench", "examples", "tools")

#: ``module path -> name -> reason`` for definitions (``name``) and members
#: (``Class.member``) kept although no non-test file names them.
ALLOWED = {
    "src/repro/analysis/invariants.py": {
        "InvariantChecker.assert_clean": "the checker's documented use "
        "(its docstring and docs/architecture.md): install, run, assert",
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
    "src/repro/ledger/utxo.py": {
        "UTXOSet.spend": "the primitive the tests/reference_impls.py oracles "
        "spell apply_block and the scratch-copy validate_batch with",
    },
    "src/repro/net/simulator.py": {
        "Network.in_flight": "the harness rule's view of the queue: tests "
        "read undelivered messages here, never from the heap's layout",
        "Network.partition_group": "the partition a node is in, the input "
        "the decision reference (tests/decision_reference.py) reads",
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


def _modules(root: str):
    """``(path, parsed module)`` of every caller file (see
    :data:`CALLER_TREES`)."""
    for tree in CALLER_TREES:
        for directory, subdirs, files in os.walk(os.path.join(root, tree)):
            subdirs[:] = sorted(d for d in subdirs if d not in ("tests", "__pycache__"))
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.relpath(os.path.join(directory, name), root)
                    with open(os.path.join(root, path), encoding="utf-8") as fh:
                        yield path, ast.parse(fh.read(), path)


def unreached_definitions(root: str = REPO) -> list[tuple[str, str]]:
    """``(module path, name)`` of every public top-level definition under
    ``src/repro`` that no non-test file names (see the module docstring)."""
    named_in: dict[str, set[str]] = {}
    definitions: list[tuple[str, str]] = []
    for path, module in _modules(root):
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


#: Calls whose string arguments name an attribute.
_BY_STRING = ("getattr", "hasattr", "attrgetter")


def _member_uses(nodes) -> Counter:
    """How often ``nodes`` reach each attribute name: as ``.name``, as a
    ``name=`` keyword, or as a string handed to one of :data:`_BY_STRING`
    (a dotted ``attrgetter`` path names each of its parts)."""
    uses: Counter = Counter()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute):
                uses[node.attr] += 1
            elif isinstance(node, ast.keyword) and node.arg:
                uses[node.arg] += 1
            elif isinstance(node, ast.Call):
                func = node.func
                called = getattr(func, "id", None) or getattr(func, "attr", None)
                if called in _BY_STRING:
                    for arg in node.args:
                        if isinstance(arg, ast.Constant) and isinstance(
                            arg.value, str
                        ):
                            uses.update(arg.value.split("."))
    return uses


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for decorator in cls.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if "dataclass" in (getattr(target, "id", None), getattr(target, "attr", None)):
            return True
    return False


def _members(cls: ast.ClassDef) -> dict[str, list[ast.AST]]:
    """A class's public methods and properties (a property's setter is
    part of its body) and, for a dataclass, its instance fields."""
    members: dict[str, list[ast.AST]] = {}
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = node.name
        elif (
            isinstance(node, ast.AnnAssign)
            and isinstance(node.target, ast.Name)
            and _is_dataclass(cls)
            and "ClassVar" not in ast.unparse(node.annotation)
        ):
            name = node.target.id
        else:
            continue
        if not name.startswith("_"):
            members.setdefault(name, []).append(node)
    return members


def unreached_members(root: str = REPO) -> list[tuple[str, str]]:
    """``(module path, "Class.member")`` of every public member of a public
    top-level class under ``src/repro`` that no non-test file reaches
    outside the member's own body (see the module docstring)."""
    uses_in: dict[str, Counter] = {}
    members: list[tuple[str, str, str, Counter]] = []
    for path, module in _modules(root):
        uses_in[path] = _member_uses(module.body)
        if not path.startswith("src/repro/"):
            continue
        for cls in module.body:
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
                for name, body in _members(cls).items():
                    members.append((path, cls.name, name, _member_uses(body)))
    return [
        (path, f"{cls}.{name}")
        for path, cls, name, own in members
        if uses_in[path][name] == own[name]
        and not any(
            uses[name] for other, uses in uses_in.items() if other != path
        )
    ]


def _unallowed(found: list[tuple[str, str]]) -> list[str]:
    return [
        f"{path}: {name}" for path, name in found
        if name not in ALLOWED.get(path, {})
    ]


def test_every_library_definition_is_reached_outside_the_tests():
    unreached = _unallowed(unreached_definitions())
    assert not unreached, (
        "named by no non-test file: delete each, move it under tests/, or "
        "list it in ALLOWED with a reason:\n  " + "\n  ".join(unreached)
    )


def test_every_library_member_is_reached_outside_the_tests():
    unreached = _unallowed(unreached_members())
    assert not unreached, (
        "reached by no non-test file: delete each, move it under tests/, or "
        "list it in ALLOWED with a reason:\n  " + "\n  ".join(unreached)
    )


def test_every_allowed_entry_is_still_an_unreached_definition():
    """An entry that has gained a caller, or whose definition is gone,
    leaves the list."""
    unreached = set(unreached_definitions()) | set(unreached_members())
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
        "from dataclasses import dataclass\n"
        "from typing import ClassVar\n"
        "def only_tests(): pass\n"
        "def exported_only(): pass\n"
        "def used_at_home(): pass\n"
        "def caller(): return used_at_home()\n"
        "def recursive(n): return recursive(n - 1)\n"
        "class Called:\n"
        "    def only_tests(self): pass\n"
        "    def self_call(self): return self.self_call()\n"
        "    def by_attribute(self): pass\n"
        "    def by_getattr(self): pass\n"
        "    def by_attrgetter(self): pass\n"
        "    def by_keyword(self): pass\n"
        "    def home(self): pass\n"
        "    def caller(self): return self.home()\n"
        "    def _private(self): pass\n"
        "@dataclass\n"
        "class Record:\n"
        "    read: int = 0\n"
        "    written_only_by_tests: int = 0\n"
        "    kind: ClassVar[str] = 'r'\n"
        "class _Hidden:\n"
        "    def anything(self): pass\n"
        "def _private(): pass\n",
    )
    write(
        "src/repro/__init__.py",
        "from repro.lib import exported_only\n__all__ = ['exported_only']\n",
    )
    write(
        "benchmarks/bench_x.py",
        "from operator import attrgetter\n"
        "from repro.lib import Called, Record\n"
        "c = Called()\n"
        "c.by_attribute()\n"
        "getattr(c, 'by_getattr')()\n"
        "attrgetter('x.by_attrgetter')\n"
        "Record(read=1).read\n"
        "dict(by_keyword=1)\n",
    )
    write("examples/demo.py", "import repro.lib\nrepro.lib.caller()\n")
    write("perfbench/tests/test_p.py", "from repro.lib import recursive\nrecursive(1)\n")
    write(
        "tests/test_lib.py",
        "from repro.lib import Called, Record, only_tests\n"
        "only_tests()\n"
        "Called().only_tests()\n"
        "Record().written_only_by_tests = 1\n",
    )
    return str(tmp_path)


def test_the_scan_flags_what_only_tests_imports_or_itself_name(toy_repo):
    assert sorted(name for _, name in unreached_definitions(toy_repo)) == [
        "exported_only",
        "only_tests",
        "recursive",
    ]


def test_the_member_scan_flags_what_only_tests_or_its_own_body_reach(toy_repo):
    assert sorted(name for _, name in unreached_members(toy_repo)) == [
        "Called.only_tests",
        "Called.self_call",
        "Record.written_only_by_tests",
    ]


# -- the oracles of tests/reference_impls.py -----------------------------------
def _entries(module: ast.Module) -> dict[str, ast.AST]:
    """A module's public top-level ``def``s and ``class``es, by name."""
    return {
        node.name: node
        for node in module.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    }


def _parse(path: str) -> ast.Module:
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), path)


def unreached_oracles(tests_dir: str = os.path.join(REPO, "tests")) -> list[str]:
    """Entries of ``reference_impls.py`` that no ``test_*.py`` module names,
    directly or through an entry it names (imports do not count)."""
    entries = _entries(_parse(os.path.join(tests_dir, "reference_impls.py")))
    reached: set[str] = set()
    for name in sorted(os.listdir(tests_dir)):
        if name.startswith("test_") and name.endswith(".py"):
            module = _parse(os.path.join(tests_dir, name))
            reached |= _named(module.body) & entries.keys()
    frontier = list(reached)
    while frontier:
        for name in _named([entries[frontier.pop()]]) & entries.keys() - reached:
            reached.add(name)
            frontier.append(name)
    return sorted(entries.keys() - reached)


def listed_oracles(tests_dir: str = os.path.join(REPO, "tests")) -> tuple[list, list]:
    """The names ``reference_impls.py``'s docstring lists (one ``* :func:`` or
    ``* :class:`` line each), and the entries it defines."""
    module = _parse(os.path.join(tests_dir, "reference_impls.py"))
    listed = re.findall(r"^\* :(?:func|class):`(\w+)`", ast.get_docstring(module), re.M)
    return listed, list(_entries(module))


def test_every_oracle_is_reached_from_a_test_module():
    unreached = unreached_oracles()
    assert not unreached, (
        "tests/reference_impls.py entries no test module reaches: delete "
        "each, or hold a claim to it:\n  " + "\n  ".join(unreached)
    )


def test_the_oracle_docstring_lists_exactly_the_entries():
    listed, defined = listed_oracles()
    assert sorted(listed) == sorted(set(defined)), (
        "tests/reference_impls.py's docstring and definitions differ: "
        f"unlisted {sorted(set(defined) - set(listed))}, "
        f"undefined {sorted(set(listed) - set(defined))}"
    )
    assert len(listed) == len(set(listed)), "an entry is listed twice"


def test_the_oracle_scan_flags_what_no_test_reaches(tmp_path):
    (tmp_path / "reference_impls.py").write_text(
        '"""Oracles.\n\n* :func:`walk` — used.\n* :class:`Lone` — unused.\n"""\n'
        "def walk(x): return _step(helper(x))\n"
        "def helper(x): return x\n"
        "def _step(x): return x\n"
        "class Lone: pass\n"
        "def only_imported(): pass\n",
        encoding="utf-8",
    )
    (tmp_path / "test_a.py").write_text(
        "from reference_impls import only_imported, walk\nwalk(1)\n", encoding="utf-8"
    )
    (tmp_path / "helpers.py").write_text(
        "import reference_impls\nreference_impls.Lone()\n", encoding="utf-8"
    )
    assert unreached_oracles(str(tmp_path)) == ["Lone", "only_imported"]
    listed, defined = listed_oracles(str(tmp_path))
    assert (listed, defined) == (["walk", "Lone"], ["walk", "helper", "Lone", "only_imported"])
