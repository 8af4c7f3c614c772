"""Source hygiene: every name a module of the package imports is used."""

import ast
import pathlib

import ddmc

PACKAGE = pathlib.Path(ddmc.__file__).parent


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


def test_package_has_no_unused_imports():
    found = [u for path in sorted(PACKAGE.rglob("*.py"))
             for u in unused_imports(path)]
    assert found == []
