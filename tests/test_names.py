"""Static checks on the names the package binds and reads.

Every global name a module reads is bound in that module or is a builtin.
A missing import raises NameError only when the line that reads the name
runs, so a branch that seldom runs can hide one. This scan finds such names
from the compiler's own symbol tables, without running the module.

Every public top-level function or class of the package, and every public
method or property of a public class, has a caller outside the tests, apart
from a fixed list of known leftovers that may only shrink. Likewise every
defaulted parameter of those functions and methods is passed by a caller
outside the tests, by keyword, by position or through ``*`` or ``**``. Both
checks resolve a name through the caller's own definitions and its imports
from ``digrl``: a read or call reaches a function or class only when they
resolve it to that one, and an attribute of any other object reaches every
method of its name.
"""

import ast
import builtins
import symtable
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "digrl").glob("*.py"))
SUBMODULES = {p.stem for p in PACKAGE}
MODULES = sorted([*(ROOT / "tests").glob("*.py"), *PACKAGE])
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
# properties go under their qualified names. Oracles that only tests need
# live in the tests.
UNCALLED: set[str] = set()

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


def referenced_names(tree, module=None):
    """What the names and attributes a module reads reach, by :func:`resolve`.

    The calling ``module``'s own definitions resolve as its imports from
    ``digrl`` do. A top-level definition's reads of its own name (recursion)
    do not count, nor do a method's reads of its own name, and neither do
    imports.
    """
    modules, names = resolved_names(tree, module)
    found = set()

    def walk(node, own, in_class):
        for child in ast.iter_child_nodes(node):
            inner = own
            if (node is tree or in_class) and isinstance(child, _DEFS):
                inner = own | {child.name}
            target = resolve(child, modules, names)
            if target and target.rsplit(".", 1)[1] not in inner:
                found.add(target)
            walk(child, inner, node is tree and isinstance(child, ast.ClassDef))

    walk(tree, frozenset(), False)
    return found


def test_public_names_have_callers():
    probe = ast.parse("def used():\n    return used()\ndef caller():\n    return used()\n")
    assert public_definitions(probe) == {"used", "caller"}
    assert referenced_names(probe, "m") == {"m.used"}
    # Outside its module a name is the package's only when imported from it:
    # the benchmark's tracer calls a callback parameter named ``observe``.
    assert referenced_names(probe) == set()
    tracer = "def wrap(observe):\n    observe(t)\nenv.observe\n"
    assert referenced_names(ast.parse(tracer)) == {".observe"}
    for caller in (
        "from .sensor import observe as look\nlook\n",
        "from digrl import sensor\nsensor.observe\n",
        "from digrl.sensor import observe\nobserve\n",
    ):
        assert referenced_names(ast.parse(caller)) == {"sensor.observe"}, caller
    probe = ast.parse(
        "class A:\n"
        "    def m(self):\n        return self.m() + A\n"
        "    @property\n    def p(self):\n        return self.q()\n"
        "    def q(self):\n        return 0\n"
        "    def _hidden(self):\n        return 0\n"
    )
    assert public_definitions(probe) == {"A", "A.m", "A.p", "A.q"}
    assert referenced_names(probe, "m") == {".q"}

    callers = PACKAGE + sorted((ROOT / "perfbench").glob("*.py"))
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in callers}
    called = set().union(
        *(referenced_names(trees[p], p.stem if p in PACKAGE else None) for p in callers)
    )
    uncalled = set()
    for p in PACKAGE:
        for name in public_definitions(trees[p]):
            cls, _, method = name.rpartition(".")
            if (f".{method}" if cls else f"{p.stem}.{name}") not in called:
                uncalled.add(name)
    assert uncalled - UNCALLED == set(), "public names without a non-test caller"
    assert UNCALLED - uncalled == set(), "stale entries: these names are gone or have a caller now"


# Defaulted parameters that no caller in the package or the benchmark passes:
# numeric constants the tests sweep, the sensor the tests shrink, and the argv
# that ``tests/test_cli.py`` drives ``main`` with (the console script passes
# none). Delete an entry together with its parameter, or once a caller passes
# it; never add one. A class's entries are its constructor's.
UNPASSED: set[str] = {
    "ParamStore.adam_step(beta1)",
    "ParamStore.adam_step(beta2)",
    "ParamStore.adam_step(eps)",
    "Tensor(requires_grad)",
    "estimate_normals_curvature(k)",
    "eval_rl_experiment(sensor)",
    "gae(gamma)",
    "gae(lam)",
    "main(argv)",
    "normalize_rows(eps)",
    "standardize_cols(eps)",
}


def defaulted_parameters(tree):
    """``(callee, parameter, position)`` for each defaulted parameter of a public function.

    Public top-level functions and the public methods of public classes
    count, and a class's ``__init__`` under the class name. ``position``
    counts the arguments a call passes, so it skips ``self``; it is None
    for a keyword-only parameter.
    """
    found = set()

    def add(fn, name, skip):
        args = fn.args
        positional = args.posonlyargs + args.args
        for i in range(len(positional) - len(args.defaults), len(positional)):
            found.add((name, positional[i].arg, i - skip))
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                found.add((name, arg.arg, None))

    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            add(node, node.name, 0)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for child in node.body:
                if not isinstance(child, ast.FunctionDef):
                    continue
                static = any(
                    isinstance(d, ast.Name) and d.id == "staticmethod" for d in child.decorator_list
                )
                if child.name == "__init__":
                    add(child, node.name, 1)
                elif not child.name.startswith("_"):
                    add(child, f"{node.name}.{child.name}", 0 if static else 1)
    return found


def resolved_names(tree, module=None):
    """What a module's imports, in any scope, and its own definitions bind to ``digrl``.

    Returns the local names of ``digrl`` modules, mapped to the module
    (``digrl`` itself to ``""``), and the local names of functions and
    classes imported from ``digrl``, mapped to ``module.name``. A relative
    import comes from ``digrl``, the only package here. Inside the package,
    the calling ``module``'s top-level definitions map to ``module.name`` too.
    """
    modules, names = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "digrl":
                    local = alias.asname or "digrl"
                    modules[local] = alias.name[len("digrl.") :] if alias.asname else ""
        elif isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if not node.level and source.split(".")[0] != "digrl":
                continue
            source = source if node.level else source[len("digrl.") :]
            for alias in node.names:
                local = alias.asname or alias.name
                if not source and alias.name in SUBMODULES:
                    modules[local] = alias.name
                elif source:
                    names[local] = f"{source}.{alias.name}"
    if module:
        names |= {n.name: f"{module}.{n.name}" for n in tree.body if isinstance(n, _DEFS)}
    return modules, names


def resolve(node, modules, names):
    """What a name or attribute node reaches, given :func:`resolved_names`.

    A bare name reaches ``module.name`` when ``names`` maps it, and ``m.f``
    reaches ``x.f`` when ``m`` is the imported ``digrl`` module ``x``. Any
    other attribute reaches ``.f``, a method of that name, whatever the
    object. Anything else, and an attribute of ``digrl`` itself, which
    defines no function, reaches nothing (None).
    """
    if isinstance(node, ast.Name):
        return names.get(node.id)
    if not isinstance(node, ast.Attribute):
        return None
    value = node.value.id if isinstance(node.value, ast.Name) else None
    if value not in modules:
        return f".{node.attr}"
    return f"{modules[value]}.{node.attr}" if modules[value] else None


def passed_arguments(tree, module=None):
    """``(callee, key)`` for every argument a call passes: a keyword, a position, ``*`` or ``**``.

    The callee is what the called name or attribute reaches by :func:`resolve`,
    the calling ``module``'s own definitions included; a call that reaches
    nothing passes nothing.
    """
    modules, names = resolved_names(tree, module)
    found = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        callee = resolve(node.func, modules, names)
        if callee is None:
            continue
        for i, arg in enumerate(node.args):
            if isinstance(arg, ast.Starred):
                found.add((callee, "*"))
                break
            found.add((callee, i))
        found |= {(callee, kw.arg or "**") for kw in node.keywords}
    return found


def unpassed(defined, passed, module):
    """The defaulted parameters of ``module`` that no call in ``passed`` can set.

    ``defined`` is :func:`defaulted_parameters` of that module, and each
    result reads ``callee(parameter)``.
    """
    out = set()
    for name, param, position in defined:
        cls, _, method = name.rpartition(".")
        callee = f".{method}" if cls else f"{module}.{name}"
        keys = {(callee, param), (callee, "**")}
        if position is not None:
            keys |= {(callee, position), (callee, "*")}
        if not keys & passed:
            out.add(f"{name}({param})")
    return out


def test_defaulted_parameters_have_callers():
    probe = ast.parse(
        "def f(a, b=1, *, c=2):\n    return a\n"
        "class K:\n"
        "    def __init__(self, x=0):\n        pass\n"
        "    def m(self, y=1, z=2):\n        pass\n"
        "    @staticmethod\n    def s(w=3):\n        pass\n"
    )
    defined = defaulted_parameters(probe)
    assert defined == {
        ("f", "b", 1), ("f", "c", None), ("K", "x", 0),
        ("K.m", "y", 0), ("K.m", "z", 1), ("K.s", "w", 0),
    }
    calls = passed_arguments(
        ast.parse("from .nn import K, f\nf(1, 2)\nK(**kw)\nobj.m(5)\nK.s(*args)\n")
    )
    assert unpassed(defined, calls, "nn") == {"f(c)", "K.m(z)"}
    calls = passed_arguments(ast.parse("from digrl import nn\nnn.f(0, c=3)\nobj.m(z=1)\n"))
    assert unpassed(defined, calls, "nn") == {"f(b)", "K(x)", "K.m(y)", "K.s(w)"}
    # Another module's f, and names the caller neither defines nor imports, pass nothing.
    calls = passed_arguments(
        ast.parse("from digrl import ppo\nppo.f(1, 2, c=3)\nf(1, 2, c=3)\nK(1)\n")
    )
    assert unpassed(defined, calls, "nn") == {"f(b)", "f(c)", "K(x)", "K.m(y)", "K.m(z)", "K.s(w)"}
    # A callback of the package function's name is not that function: the
    # benchmark's tracer calls ``observe(tracer, args, kwargs, result)``.
    observe = "def observe(scene, cfg, rng=None, extra=1):\n    pass\n"
    defined = defaulted_parameters(ast.parse(observe))
    tracer = "def wrap(observe):\n    observe(tracer, args, kwargs, result)\n"
    tracer += "env.observe(a, b, c, d)\n"
    assert unpassed(defined, passed_arguments(ast.parse(tracer)), "sensor") == {
        "observe(rng)", "observe(extra)",
    }
    for caller in (
        "from .sensor import observe as look\nlook(a, b, c, d)\n",
        "from digrl import sensor\nsensor.observe(a, b, c, d)\n",
    ):
        assert unpassed(defined, passed_arguments(ast.parse(caller)), "sensor") == set(), caller
    # A module's own observe is the package's only inside the package: the
    # benchmark's ``main(sys.argv)`` calls its own main, not ``cli.main``.
    own = ast.parse(observe + "observe(a, b, c, d)\n")
    assert unpassed(defined, passed_arguments(own, "sensor"), "sensor") == set()
    assert unpassed(defined, passed_arguments(own), "sensor") == {"observe(rng)", "observe(extra)"}

    callers = PACKAGE + sorted((ROOT / "perfbench").glob("*.py"))
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in callers}
    passed = set().union(
        *(passed_arguments(trees[p], p.stem if p in PACKAGE else None) for p in callers)
    )
    found = set().union(
        *(unpassed(defaulted_parameters(trees[p]), passed, p.stem) for p in PACKAGE)
    )
    assert found - UNPASSED == set(), "defaulted parameters that no caller outside the tests passes"
    assert UNPASSED - found == set(), "stale entries: these parameters are gone or passed now"
