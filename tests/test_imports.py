"""Import hygiene: every imported name is read, or re-exported in
`__all__`, in the package, the tests and the benchmark; and importing
the package loads no process-pool machinery."""

import ast
import os
import subprocess
import sys
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


def test_import_loads_no_multiprocessing():
    # only a sweep that forks needs the process pool; a single run, the
    # model checker and the benchmark workloads import none of it
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    probe = subprocess.run(
        [sys.executable, "-c",
         "import sys, camsim; print('multiprocessing' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert probe.stdout == "False\n"
