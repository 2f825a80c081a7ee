"""The benchmark tracer wraps library functions by name; they must exist."""

import importlib
import runpy
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.mark.skipif(not TRACER.exists(), reason="perfbench/ is not in this checkout")
def test_every_traced_target_resolves():
    targets = [t for layer in runpy.run_path(str(TRACER))["TARGETS"].values() for t in layer]
    assert targets
    for module_name, func_name in targets:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, func_name, None)), f"{module_name}.{func_name}"
