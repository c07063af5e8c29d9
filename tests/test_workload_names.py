"""Every library name the benchmark jobs (perfbench/workloads.py) reach
through their ``lib`` namespace must exist, so a deletion or rename fails
here and not only in a benchmark run.  The file is read, not imported."""

import ast
import importlib
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def workload_names():
    """(module, name) for each ``lib.<module>.<name>`` in workloads.py, and
    each ``M.<name>`` where a function binds ``M = lib.<module>``."""
    with open(os.path.join(ROOT, "perfbench", "workloads.py")) as f:
        tree = ast.parse(f.read())

    def module_of(node):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "lib"):
            return node.attr
        return None

    names = {(module_of(node.value), node.attr) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and module_of(node.value)}
    for func in tree.body:
        if isinstance(func, ast.FunctionDef):
            aliases = {t.id: module_of(node.value) for node in ast.walk(func)
                       if isinstance(node, ast.Assign) and module_of(node.value)
                       for t in node.targets if isinstance(t, ast.Name)}
            names.update((aliases[node.value.id], node.attr) for node in ast.walk(func)
                         if isinstance(node, ast.Attribute)
                         and isinstance(node.value, ast.Name) and node.value.id in aliases)
    return names


def test_workload_names_resolve():
    names = workload_names()
    assert ("bch", "bch") in names and ("present", "realize") in names
    missing = sorted("%s.%s" % (mod, name) for mod, name in names
                     if not hasattr(importlib.import_module("malcev." + mod), name))
    assert missing == []
