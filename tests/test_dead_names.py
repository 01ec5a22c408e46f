"""No dead code: every function, class, method and module-level constant
under ``src/dial`` is named somewhere in ``src/dial``, as a name or an
attribute, every name a module imports is used in that module, and no module
imports another's private name."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dial"
# library entry points that nothing in the package calls
ENTRY_POINTS = frozenset({"write_goldens", "canonical_serialize", "deserialize"})
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def definitions(tree: ast.Module):
    """(qualified name, name) of each top-level definition, method and
    constant (a name a module-level assignment binds); dunder names are left
    out, since the language reads them."""
    for node in tree.body:
        if isinstance(node, DEFINITIONS):
            yield node.name, node.name
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not name.id.startswith("__"):
                        yield name.id, name.id
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, DEFINITIONS) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item.name


def test_every_definition_is_named_in_the_package():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    dead = [f"{file}:{qualified}" for file, tree in trees.items()
            for qualified, name in definitions(tree)
            if name not in used and name not in ENTRY_POINTS]
    assert dead == []


def imported_names(tree: ast.Module):
    """(line, bound name) of each import in the module, at any depth;
    ``from __future__`` imports are left out, since they bind nothing."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def test_every_import_is_used_in_its_module():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused.extend(f"{path.name}:{line}:{name}" for line, name in imported_names(tree)
                      if name not in used)
    assert unused == []


def test_no_module_imports_a_private_name():
    """A ``_``-prefixed name stays in its module; tests may still import one."""
    private = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                private.extend(f"{path.name}:{node.lineno}:{alias.name}" for alias in node.names
                               if alias.name.startswith("_") and not alias.name.startswith("__"))
    assert private == []


# (file, function, parameter) left unread on purpose
UNREAD_PARAMETERS = frozenset({
    # every _cmd_* takes the dispatch signature (args, stdout, stderr)
    ("cli.py", "_cmd_render", "stdout"), ("cli.py", "_cmd_symbols", "stderr"),
    # lower_items calls every handler with the enclosing group, and the
    # reference lowerer in the tests overrides this one
    ("parser.py", "_detail", "parent_group"),
})


def test_every_parameter_is_used():
    """Every parameter is read in its function's body, save a method's
    ``self`` or ``cls``, which the language binds."""
    unread = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        methods = {id(item) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for item in cls.body if isinstance(item, DEFINITIONS)}
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = func.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                      *filter(None, (args.vararg, args.kwarg))]
            if id(func) in methods:
                params = params[1:]  # self or cls
            body = func.body if isinstance(func.body, list) else [func.body]
            read = {node.id for stmt in body for node in ast.walk(stmt)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            name = getattr(func, "name", "<lambda>")
            unread.extend(f"{path.name}:{func.lineno}:{name}({p.arg})" for p in params
                          if p.arg not in read
                          and (path.name, name, p.arg) not in UNREAD_PARAMETERS)
    assert unread == []


def test_every_registry_method_reads_self():
    """A ``Registry`` holds one compile's state; a method that reads none of
    it is a module function, which callers reach without building one."""
    tree = ast.parse((SRC / "registry.py").read_text(encoding="utf-8"))
    [registry] = [node for node in tree.body
                  if isinstance(node, ast.ClassDef) and node.name == "Registry"]
    stateless = [item.name for item in registry.body if isinstance(item, DEFINITIONS)
                 and not any(isinstance(node, ast.Name) and node.id == item.args.args[0].arg
                             for stmt in item.body for node in ast.walk(stmt))]
    assert stateless == []
