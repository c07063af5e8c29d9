"""Every name a module of src/malcev imports is used in that module.

The check reads each module with the stdlib ``ast``: a name bound by an
``import`` or ``from ... import`` counts as used when it occurs as a name
(``Name``) or as the root of an attribute chain anywhere in the module, or
when it is listed in the module's ``__all__`` (the package re-exports).  So
a deletion that leaves an import behind fails here.
"""
import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "malcev"


def unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def test_the_check_sees_an_unused_import():
    tree = ast.parse("from fractions import Fraction\nimport math\n"
                     "from .linalg import vec_neg, ZERO as Z\nprint(math.pi, Z)\n")
    assert unused_imports(tree) == [(1, "Fraction"), (3, "vec_neg")]
