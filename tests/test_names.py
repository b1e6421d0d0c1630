"""Static checks on the names the package binds and reads.

Every global name a module reads is bound in that module or is a builtin.
A missing import raises NameError only when the line that reads the name
runs, so a branch that seldom runs can hide one. This scan finds such names
from the compiler's own symbol tables, without running the module.

Every public top-level function or class of the package has a caller
outside the tests, apart from a fixed list of known leftovers that may only
shrink.
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
# function, or once the pipeline calls it; never add one.
UNCALLED = {
    "fk",
    "ik",
    "load_episodes",
}


def public_definitions(tree):
    """Names of the public functions and classes defined at a module's top level."""
    return {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    }


def referenced_names(tree):
    """Every name a module reads or looks up as an attribute.

    A top-level definition's reads of its own name (recursion) do not count,
    and neither do imports: a re-export is not a caller.
    """
    found = set()

    def walk(node, own):
        for child in ast.iter_child_nodes(node):
            inner = own
            if node is tree and isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                inner = child.name
            if isinstance(child, ast.Name) and child.id != inner:
                found.add(child.id)
            elif isinstance(child, ast.Attribute) and child.attr != inner:
                found.add(child.attr)
            walk(child, inner)

    walk(tree, None)
    return found


def test_public_names_have_callers():
    probe = ast.parse("def used():\n    return used()\ndef caller():\n    return used()\n")
    assert public_definitions(probe) == {"used", "caller"}
    assert referenced_names(probe) == {"used"}

    package = sorted((ROOT / "src" / "digrl").glob("*.py"))
    callers = package + sorted((ROOT / "perfbench").glob("*.py"))
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in callers}
    defined = set().union(*(public_definitions(trees[p]) for p in package))
    called = set().union(*(referenced_names(trees[p]) for p in callers))
    uncalled = defined - called
    assert uncalled - UNCALLED == set(), "public names without a non-test caller"
    assert UNCALLED - uncalled == set(), "stale entries: these names are gone or have a caller now"
