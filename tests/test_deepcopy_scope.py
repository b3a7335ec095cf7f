"""Checker-state copying stays in the checker: no module of the package
but `modelcheck` defines `__deepcopy__`."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "camsim"


def deepcopy_defs(tree):
    """Line of every `__deepcopy__` function defined anywhere in `tree`."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and node.name == "__deepcopy__")


def test_deepcopy_defs_are_found():
    tree = ast.parse("class A:\n    def __deepcopy__(self, memo):\n"
                     "        pass\n\ndef __deepcopy__(x, memo):\n    pass\n"
                     "def deepcopy(x):\n    pass\n")
    assert deepcopy_defs(tree) == [2, 5]


def test_only_the_checker_defines_deepcopy():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem != "modelcheck":
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            offenders += ["%s:%d" % (path.name, line)
                          for line in deepcopy_defs(tree)]
    assert offenders == []
