"""The benchmark's traced run wraps the functions named in
perfbench/tracer.py LAYERS; each must still exist in twistr, and each one
its self-test expects on the graph-symbolic workload must still be called
there."""

import importlib
import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from twistr import tpg
from twistr.liealg import family_spec
from twistr.scalars import QSample

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _layers():
    return sorted(_tracer().LAYERS)


@pytest.mark.parametrize("module,qualname", _layers())
def test_traced_function_resolves(module, qualname):
    obj = importlib.import_module(f"twistr.{module}")
    for part in qualname.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


def test_graph_symbolic_calls_every_expected_function(monkeypatch):
    """One small graph case, run as the workload runs it, calls every
    function in EXPECTED_CALLS["graph-symbolic"]."""
    calls = {}
    modules = [m for n, m in sorted(sys.modules.items())
               if n.startswith("twistr.") and m is not None]

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in _tracer().EXPECTED_CALLS["graph-symbolic"]:
        mod, qualname = name.split(".", 1)
        calls[name] = 0
        home = importlib.import_module(f"twistr.{mod}")
        if "." in qualname:
            cls_name, meth = qualname.split(".")
            cls = getattr(home, cls_name)
            monkeypatch.setattr(cls, meth, counted(name, getattr(cls, meth)))
            continue
        original = getattr(home, qualname)
        wrapper = counted(name, original)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    monkeypatch.setattr(m, attr, wrapper)

    spec = family_spec("a2even", 2)
    qs = QSample(Fraction(3, 2))
    graph = tpg.build_graph(spec, (1, 1))
    rho, _ = tpg.eigenvalues_by_recursion(graph, qs)
    assert rho == tpg.eigenvalues_closed_form(spec, (1, 1), qs)
    assert not [name for name, n in calls.items() if n == 0]
