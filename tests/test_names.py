"""Static checks on the names the package binds and reads.

Every global name a module reads is bound in that module or is a builtin.
A missing import raises NameError only when the line that reads the name
runs, so a branch that seldom runs can hide one. This scan finds such names
from the compiler's own symbol tables, without running the module.

Every public top-level function or class of the package, and every public
method or property of a public class, has a caller outside the tests, apart
from a fixed list of known leftovers that may only shrink.
"""

import ast
import builtins
import symtable
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "tests").glob("*.py"), *(ROOT / "src" / "digrl").glob("*.py")])
# The import system sets `__file__` on every module it loads from a file.
KNOWN = set(dir(builtins)) | {"__file__"}


def _scopes(table):
    yield table
    for child in table.get_children():
        yield from _scopes(child)


def undefined_globals(source, filename):
    """Sorted (scope, name) pairs for global names read but never bound."""
    top = symtable.symtable(source, filename, "exec")
    scopes = list(_scopes(top))
    # Assignment, import, def and class at module level, or `global` plus an
    # assignment in a nested scope.
    bound = {s.get_name() for s in top.get_symbols() if s.is_assigned() or s.is_imported()}
    bound |= {
        s.get_name()
        for t in scopes
        for s in t.get_symbols()
        if s.is_declared_global() and s.is_assigned()
    }
    bound |= KNOWN
    return sorted(
        (t.get_name(), s.get_name())
        for t in scopes
        for s in t.get_symbols()
        if s.is_global() and s.is_referenced() and s.get_name() not in bound
    )


def test_no_undefined_global_names():
    probe = "import os\ndef f():\n    return os.sep + MISSING + len('')\n"
    assert undefined_globals(probe, "<probe>") == [("f", "MISSING")]
    assert ROOT / "src" / "digrl" / "sensor.py" in MODULES

    found = {
        str(path.relative_to(ROOT)): names
        for path in MODULES
        if (names := undefined_globals(path.read_text(encoding="utf-8"), str(path)))
    }
    assert found == {}


# Public names whose only callers are tests. Delete an entry together with its
# function, or once the pipeline calls it; never add one. Methods and
# properties go under their qualified names. The three below are the
# invariant oracles of tests: joint limits, trajectory phases and the
# conserved volume.
UNCALLED = {
    "load_episodes",
    "ArmModel.within_limits",
    "JointTrajectory.phase_of",
    "Scene.total_volume",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def public_definitions(tree):
    """Public top-level functions and classes, and the public methods of those classes.

    A method or property is named ``Class.method``.
    """
    found = set()
    for node in tree.body:
        if isinstance(node, _DEFS) and not node.name.startswith("_"):
            found.add(node.name)
            if isinstance(node, ast.ClassDef):
                found |= {
                    f"{node.name}.{child.name}"
                    for child in node.body
                    if isinstance(child, _DEFS) and not child.name.startswith("_")
                }
    return found


def referenced_names(tree):
    """Every name a module reads or looks up as an attribute.

    A top-level definition's reads of its own name (recursion) do not count,
    nor do a method's reads of its own name, and neither do imports: a
    re-export is not a caller. A method counts as called when any module
    reads an attribute of its name, whatever the object.
    """
    found = set()

    def walk(node, own, in_class):
        for child in ast.iter_child_nodes(node):
            inner = own
            if (node is tree or in_class) and isinstance(child, _DEFS):
                inner = own | {child.name}
            if isinstance(child, ast.Name) and child.id not in inner:
                found.add(child.id)
            elif isinstance(child, ast.Attribute) and child.attr not in inner:
                found.add(child.attr)
            walk(child, inner, node is tree and isinstance(child, ast.ClassDef))

    walk(tree, frozenset(), False)
    return found


def test_public_names_have_callers():
    probe = ast.parse("def used():\n    return used()\ndef caller():\n    return used()\n")
    assert public_definitions(probe) == {"used", "caller"}
    assert referenced_names(probe) == {"used"}
    probe = ast.parse(
        "class A:\n"
        "    def m(self):\n        return self.m() + A\n"
        "    @property\n    def p(self):\n        return self.q()\n"
        "    def q(self):\n        return 0\n"
        "    def _hidden(self):\n        return 0\n"
    )
    assert public_definitions(probe) == {"A", "A.m", "A.p", "A.q"}
    assert referenced_names(probe) == {"self", "q", "property"}

    package = sorted((ROOT / "src" / "digrl").glob("*.py"))
    callers = package + sorted((ROOT / "perfbench").glob("*.py"))
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in callers}
    defined = set().union(*(public_definitions(trees[p]) for p in package))
    called = set().union(*(referenced_names(trees[p]) for p in callers))
    uncalled = {name for name in defined if name.rsplit(".", 1)[-1] not in called}
    assert uncalled - UNCALLED == set(), "public names without a non-test caller"
    assert UNCALLED - uncalled == set(), "stale entries: these names are gone or have a caller now"
