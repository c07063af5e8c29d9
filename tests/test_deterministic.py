"""The library is exact and deterministic: no module under src/malcev may
import the random module."""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "malcev")


def imported_modules(path):
    with open(path) as f:
        tree = ast.parse(f.read(), path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            yield node.module


def test_no_module_imports_random():
    offenders = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            mods = imported_modules(os.path.join(SRC, name))
            offenders += ["%s imports %s" % (name, m) for m in mods
                          if m == "random" or m.startswith("random.")]
    assert offenders == []
