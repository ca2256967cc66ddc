"""The benchmark's tracer (``perfbench/tracer.py``) wraps package names that
it lists as strings.  Each must still resolve to a callable, or a traced run
breaks; the file is only imported here, never changed."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(mod, attr) for mod, attr, _ in module.TARGETS]


@pytest.mark.parametrize("module,attr", _targets())
def test_target_is_a_callable(module, attr):
    owner = importlib.import_module(f"laminar_secretary.{module}")
    *classes, name = attr.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    # a method is looked up in the class dict, as the tracer patches it there
    target = owner.__dict__[name] if classes else getattr(owner, name)
    assert callable(target)
