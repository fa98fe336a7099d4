"""The benchmark tracer finds library functions by name; each name must resolve."""

import importlib

import pytest

from conftest import bench_module

tracing = bench_module("tracing")


@pytest.mark.parametrize("span, module_name, attribute", [t[:3] for t in tracing.TARGETS])
def test_function_target_resolves(span, module_name, attribute):
    assert callable(getattr(importlib.import_module(module_name), attribute))


@pytest.mark.parametrize("span, owner, attribute", tracing.METHOD_TARGETS)
def test_method_target_resolves(span, owner, attribute):
    # the tracer replaces the attribute in the class dictionary itself
    assert attribute in vars(owner)
