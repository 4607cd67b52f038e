"""The package's import layering, pinned from the source alone (AST, no
import, no subprocess) so the ``api <-> core`` cycle cannot grow back.

Bottom to top: ``repro.graph`` < ``repro.matcher`` (the engine-level
protocol) < ``repro.core`` / ``repro.baselines`` (the engines) <
``repro.ingest`` / ``repro.subplans`` < ``repro.api`` (the session
facade).  The only edge pointing back down that order is the lazy one
the facade needs: ``persistence`` names ``Session``.

Also pinned here, so it cannot grow back: nothing under ``src/repro``
defines a pickling shape but two value types (a checkpoint is data, see
:mod:`repro.persistence`), raw ``pickle.load(s)`` stays in the batch
codec, and a real checkpoint names no class outside the allow-list.
"""

import ast
import os
import pickletools

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


def test_only_the_persistence_back_edge_is_lazy():
    lazy = {}
    for name in ("api.py", "ingest.py", "subplans.py", "matcher.py"):
        for module, in_function, _ in imports_of(source(name)):
            if in_function and within(module, "repro"):
                lazy.setdefault(name, set()).add(module)
    assert lazy == {"api.py": {"repro.persistence"}}, lazy


# --------------------------------------------------------------------- #
# A checkpoint is data: no pickled object shapes
# --------------------------------------------------------------------- #

def parsed(path):
    with open(path, encoding="utf-8") as handle:
        return ast.parse(handle.read())


def test_only_two_value_types_define_a_pickling_shape():
    hooks = {"__getstate__", "__setstate__", "__reduce__", "__reduce_ex__"}
    found = set()
    for path in sources_under():
        for node in ast.walk(parsed(path)):
            if isinstance(node, ast.ClassDef):
                found.update(
                    (module_name(path), node.name, item.name)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and item.name in hooks)
    assert found == {("repro.core.query", "QueryGraph", "__getstate__"),
                     ("repro.core.query", "Prefix", "__reduce__")}, found


def test_raw_unpickling_stays_in_the_batch_codec():
    """``pickle.load(s)`` constructs whatever the bytes name: only the
    batch codec (which decodes what its own encoder wrote) may call it;
    a checkpoint — a file — goes through the allow-listed ``Unpickler``
    in ``persistence``, and nothing else subclasses one."""
    loads, unpicklers = set(), set()
    for path in sources_under():
        for node in ast.walk(parsed(path)):
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id == "pickle":
                if node.attr in ("load", "loads"):
                    loads.add(module_name(path))
                elif node.attr == "Unpickler":
                    unpicklers.add(module_name(path))
    assert loads == {"repro.concurrency.transport"}, loads
    assert unpicklers == {"repro.persistence"}, unpicklers


def globals_named(payload):
    """Every ``(module, name)`` a pickle's GLOBAL / STACK_GLOBAL opcodes
    name.  STACK_GLOBAL takes both from the stack, where they were just
    pushed as text or fetched from the memo."""
    named, memo, texts, top = set(), [], [], None
    for opcode, arg, _ in pickletools.genops(payload):
        if opcode.name == "GLOBAL":
            named.add(tuple(arg.split(" ")))
        elif opcode.name == "STACK_GLOBAL":
            named.add((texts[-2], texts[-1]))
        if opcode.name == "MEMOIZE":
            memo.append(top)
            continue
        if "UNICODE" in opcode.name:
            top = arg
        elif opcode.name in ("BINGET", "LONG_BINGET"):
            top = memo[arg]
        else:
            top = None
        if isinstance(top, str):
            texts.append(top)
    return named


def test_a_busy_checkpoint_names_only_value_types():
    from repro.persistence import (
        _FRAME_HEADER, _FRAME_MAGIC, VALUE_TYPES,
    )
    from .test_logical_checkpoint import busy_session, checkpoint

    blob = checkpoint(busy_session())
    named = globals_named(blob[len(_FRAME_MAGIC) + _FRAME_HEADER.size:])
    allowed = {(cls.__module__, cls.__qualname__) for cls in VALUE_TYPES}
    assert named <= allowed, named - allowed
    assert {("repro.graph.edge", "StreamEdge"),
            ("repro.core.query", "QueryGraph"),
            ("repro.core.query", "_Wildcard"),
            ("repro.core.query", "Prefix"),
            ("repro.matcher", "EngineConfig"),
            ("repro.isomorphism.boostiso", "BoostISO")} <= named
    assert not any(module.startswith(("repro.core.engine",
                                      "repro.core.mstree",
                                      "repro.api", "repro.subplans",
                                      "repro.ingest"))
                   for module, _ in named)
