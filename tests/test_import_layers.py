"""The package's import layering, pinned from the source alone (AST, no
import, no subprocess) so the ``api <-> core`` cycle cannot grow back.

Bottom to top: ``repro.graph`` < ``repro.matcher`` (the engine-level
protocol) < ``repro.core`` / ``repro.baselines`` (the engines) <
``repro.ingest`` / ``repro.subplans`` < ``repro.api`` (the session
facade).  The only edges pointing back down that order are the two lazy
ones the facade needs: ``concurrency.sharding`` subclasses ``Session`` and
``persistence`` names it.
"""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")


def module_name(path):
    parts = os.path.relpath(path, SRC)[:-len(".py")].split(os.sep)
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def imports_of(path):
    """``(imported module, in a function, under TYPE_CHECKING)`` for
    every import statement of the file, relative names resolved."""
    package = module_name(path).split(".")
    if not path.endswith("__init__.py"):
        package = package[:-1]
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    found = []

    def visit(node, in_function, typing_only):
        if isinstance(node, ast.Import):
            found.extend((alias.name, in_function, typing_only)
                         for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[:len(package) - node.level + 1] \
                if node.level else []
            if node.module:
                targets = [".".join(base + [node.module])]
            else:       # ``from . import x`` names submodules
                targets = [".".join(base + [alias.name])
                           for alias in node.names]
            found.extend((target, in_function, typing_only)
                         for target in targets)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            in_function = True
        if isinstance(node, ast.If) and "TYPE_CHECKING" in ast.dump(node.test):
            for child in node.body:
                visit(child, in_function, True)
            for child in node.orelse:
                visit(child, in_function, typing_only)
            return
        for child in ast.iter_child_nodes(node):
            visit(child, in_function, typing_only)

    visit(tree, False, False)
    return found


def source(*parts):
    return os.path.join(SRC, "repro", *parts)


def sources_under(*parts):
    for root, _dirs, files in os.walk(source(*parts)):
        for name in files:
            if name.endswith(".py"):
                yield os.path.join(root, name)


def within(module, package):
    return module == package or module.startswith(package + ".")


def test_matcher_sits_on_the_graph_substrate_alone():
    runtime = {module for module, _, typing_only
               in imports_of(source("matcher.py"))
               if not typing_only and within(module, "repro")}
    assert runtime, "the resolver found no repro import at all"
    assert all(within(module, "repro.graph") for module in runtime), runtime


def test_engines_never_import_the_facade():
    facade = ("repro.api", "repro.ingest", "repro.subplans")
    checked = 0
    for package in ("core", "baselines", "graph", "isomorphism"):
        for path in sources_under(package):
            checked += 1
            for module, _, _ in imports_of(path):
                assert not any(within(module, name) for name in facade), \
                    (module_name(path), module)
    assert checked > 30


def test_only_the_two_back_edges_are_lazy():
    lazy = {}
    for name in ("api.py", "ingest.py", "subplans.py", "matcher.py"):
        for module, in_function, _ in imports_of(source(name)):
            if in_function and within(module, "repro"):
                lazy.setdefault(name, set()).add(module)
    assert lazy == {"api.py": {"repro.concurrency.sharding",
                               "repro.persistence"}}, lazy
