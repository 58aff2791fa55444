"""The benchmark's traced run wraps the functions named in
perfbench/tracer.py LAYERS; each must still exist in twistr."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return sorted(tracer.LAYERS)


@pytest.mark.parametrize("module,qualname", _layers())
def test_traced_function_resolves(module, qualname):
    obj = importlib.import_module(f"twistr.{module}")
    for part in qualname.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
