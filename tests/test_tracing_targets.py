"""The benchmark tracer finds library functions by name; each name must resolve."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("span, module_name, attribute", [t[:3] for t in tracing.TARGETS])
def test_function_target_resolves(span, module_name, attribute):
    assert callable(getattr(importlib.import_module(module_name), attribute))


@pytest.mark.parametrize("span, owner, attribute", tracing.METHOD_TARGETS)
def test_method_target_resolves(span, owner, attribute):
    # the tracer replaces the attribute in the class dictionary itself
    assert attribute in vars(owner)
