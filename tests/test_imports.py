"""Import hygiene: every imported name is read, or re-exported in
`__all__`, in the package, the tests and the benchmark."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIRS = ("src/camsim", "tests", "perfbench")


def unused_imports(tree):
    """(line, name) of every name an import binds in `tree` that is never
    read and not listed in `__all__`."""
    bound = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # `import a.b` binds `a`
                bound[alias.asname or alias.name.partition(".")[0]] = \
                    node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module != "__future__":
                for alias in node.names:
                    bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def test_unused_imports_are_found():
    tree = ast.parse("import os, os.path\nfrom a import b as c, d\n"
                     "__all__ = ['d']\n")
    assert unused_imports(tree) == [(1, "os"), (2, "c")]


def test_no_unused_imports():
    offenders = []
    for d in DIRS:
        for path in sorted((ROOT / d).glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            offenders += ["%s:%d %s" % (path.relative_to(ROOT), line, name)
                          for line, name in unused_imports(tree)]
    assert offenders == []
