"""Source hygiene: every name a module of the package imports is used,
every local a function assigns is read, and every defaulted parameter
is passed by some call in the package."""

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


# the entry point takes argv from its callers outside the package; the
# gradient and Parseval oracles take theirs from the tests
UNSET_OPTIONS_ALLOWED = {"cli.main", "gradcheck.grad_check",
                         "objectives.parseval_collapse_check"}


def unset_options(paths):
    """Defaulted parameters of functions under paths that no call under
    paths passes, by keyword or by position.  Calls match definitions
    by name; a call with *args or **kwargs passes everything."""
    defs, calls = [], {}
    for path in paths:
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.append((path, node))
            elif isinstance(node, ast.Call):
                f = node.func
                name = f.attr if isinstance(f, ast.Attribute) else \
                    getattr(f, "id", None)
                calls.setdefault(name, []).append(node)
    found = []
    for path, func in defs:
        if (func.name == "__init__" or "%s.%s" % (path.stem, func.name)
                in UNSET_OPTIONS_ALLOWED):
            continue
        a = func.args
        pos = a.posonlyargs + a.args
        bound = 1 if pos and pos[0].arg in ("self", "cls") else 0
        options = [(i, p.arg) for i, p in enumerate(pos)
                   if i >= len(pos) - len(a.defaults)]
        options += [(None, p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults)
                    if d is not None]
        for i, name in options:
            if not any(any(k.arg in (name, None) for k in c.keywords)
                       or any(isinstance(v, ast.Starred) for v in c.args)
                       or (i is not None and bound + len(c.args) > i)
                       for c in calls.get(func.name, ())):
                found.append("%s:%d %s(%s)" % (path.relative_to(PACKAGE),
                                               func.lineno, func.name, name))
    return found


def test_package_has_no_unused_imports():
    found = [u for path in sorted(PACKAGE.rglob("*.py"))
             for u in unused_imports(path)]
    assert found == []


def test_package_has_no_unused_locals():
    found = [u for path in sorted(PACKAGE.rglob("*.py"))
             for u in unused_locals(path)]
    assert found == []


def test_package_has_no_unset_options():
    # a default that no caller overrides is a constant
    assert unset_options(sorted(PACKAGE.rglob("*.py"))) == []
