"""Every library name the benchmark tracer (perfbench/tracer.py) wraps must
exist, so a rename fails here and not only in a traced benchmark run."""

import importlib
import importlib.util
import inspect
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_tracer():
    """Import perfbench/tracer.py as a module, without installing it."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(ROOT, "perfbench", "tracer.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracer = load_tracer()
    for mod_name in tracer.MODULES:
        mod = importlib.import_module("malcev." + mod_name)
        for qual in tracer.TRACED[mod_name]:
            if "." in qual:
                # install wraps cls.__dict__[meth]: a plain function there
                cls_name, meth = qual.split(".")
                assert inspect.isfunction(vars(getattr(mod, cls_name)).get(meth)), qual
            else:
                assert callable(getattr(mod, qual, None)), qual
