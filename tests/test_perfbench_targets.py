"""The benchmark's tracer wraps library functions by name; they must exist."""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_is_a_module_level_function():
    targets = load_tracer().TARGETS
    assert targets
    for mod_name, attr, layer in targets:
        module = importlib.import_module(mod_name)
        fn = getattr(module, attr, None)
        assert inspect.isfunction(fn), f"{mod_name}.{attr} ({layer}) is missing"
        assert fn.__module__ == mod_name, f"{mod_name}.{attr} is defined in {fn.__module__}"
