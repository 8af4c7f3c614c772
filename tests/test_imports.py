"""Source hygiene: every name a module of the package imports is used,
and every local a function assigns is read."""

import ast
import pathlib

import ddmc

PACKAGE = pathlib.Path(ddmc.__file__).parent
FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def unused_imports(path):
    """Names that path imports but never reads, nor lists in __all__."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return ["%s:%d %s" % (path.relative_to(PACKAGE), line, name)
            for name, line in sorted(imported.items()) if name not in used]


def _own_nodes(func):
    """Nodes of func's body, not descending into nested scopes."""
    todo = list(ast.iter_child_nodes(func))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, FUNCTION_NODES + (ast.ClassDef,)):
            todo.extend(ast.iter_child_nodes(node))


def unused_locals(path):
    """Locals a function binds by a plain `name = ...` and never reads,
    in its own body or in a function nested in it."""
    tree = ast.parse(path.read_text(), str(path))
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, FUNCTION_NODES):
            continue
        assigned = {}
        shared = set()
        for node in _own_nodes(func):
            if isinstance(node, ast.Assign):
                for t in node.targets:
                    if isinstance(t, ast.Name):
                        assigned.setdefault(t.id, node.lineno)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                shared.update(node.names)
        read = {n.id for n in ast.walk(func)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += ["%s:%d %s" % (path.relative_to(PACKAGE), line, name)
                  for name, line in sorted(assigned.items())
                  if name not in read and name not in shared
                  and name != "_"]
    return found


def test_package_has_no_unused_imports():
    found = [u for path in sorted(PACKAGE.rglob("*.py"))
             for u in unused_imports(path)]
    assert found == []


def test_package_has_no_unused_locals():
    found = [u for path in sorted(PACKAGE.rglob("*.py"))
             for u in unused_locals(path)]
    assert found == []
