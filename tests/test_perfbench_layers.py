"""The benchmark's traced run wraps the functions named in
perfbench/tracer.py LAYERS; each must still exist in twistr, and each one
its self-test expects on a workload (EXPECTED_CALLS) must still be called
when a small case of that workload runs as the workload runs it."""

import importlib
import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from twistr import cli, tpg
from twistr.liealg import family_spec
from twistr.scalars import QSample

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module    # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _tracer():
    return _load("tracer")


def _layers():
    return sorted(_tracer().LAYERS)


@pytest.mark.parametrize("module,qualname", _layers())
def test_traced_function_resolves(module, qualname):
    obj = importlib.import_module(f"twistr.{module}")
    for part in qualname.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


def _count_calls(monkeypatch, workload):
    """Wrap every function in EXPECTED_CALLS[workload] where any twistr
    module binds it, as the tracer does; returns the live call counts."""
    calls = {}
    modules = [m for n, m in sorted(sys.modules.items())
               if n.startswith("twistr.") and m is not None]

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in _tracer().EXPECTED_CALLS[workload]:
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
    return calls


def _run_cli(capsys, argv):
    assert cli.main(argv) == 0, argv
    capsys.readouterr()


def test_graph_symbolic_calls_every_expected_function(monkeypatch):
    """One small graph case, run as the workload runs it, calls every
    function in EXPECTED_CALLS["graph-symbolic"]."""
    calls = _count_calls(monkeypatch, "graph-symbolic")
    spec = family_spec("a2even", 2)
    qs = QSample(Fraction(3, 2))
    graph = tpg.build_graph(spec, (1, 1))
    rho, _ = tpg.eigenvalues_by_recursion(graph, qs)
    assert rho == tpg.eigenvalues_closed_form(spec, (1, 1), qs)
    assert not [name for name, n in calls.items() if n == 0]


def test_graph_symbolic_makes_one_gcd_per_bracket(monkeypatch):
    """A small graph case, run as the workload runs it, makes at least one
    poly_gcd call, and at most one per bracket and one per Q(u) expansion
    (tpg.evaluate builds the generator u)."""
    calls = _count_calls(monkeypatch, "graph-symbolic")
    evaluations = []
    evaluate = tpg.evaluate

    def counted(*args, **kwargs):
        evaluations.append(1)
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(tpg, "evaluate", counted)
    spec = family_spec("d2", 3)
    qs = QSample(Fraction(-2, 3))
    graph = tpg.build_graph(spec, (2, 3))
    rho, _ = tpg.eigenvalues_by_recursion(graph, qs)
    assert rho == tpg.eigenvalues_closed_form(spec, (2, 3), qs)
    assert len(evaluations) == 2 and calls["scalars.bracket"] > 0
    assert 1 <= calls["scalars.poly_gcd"] <= \
        calls["scalars.bracket"] + len(evaluations)


def test_verify_seed_calls_every_expected_function(monkeypatch, capsys):
    """A one-sample verify of each workload seed pair calls every function
    in EXPECTED_CALLS["verify-seed"]."""
    calls = _count_calls(monkeypatch, "verify-seed")
    for family, l in _load("workloads").VERIFY_PAIRS:
        _run_cli(capsys, ["verify", "--family", family, "--l", str(l),
                          "--seed", "7", "--samples", "1"])
    assert not [name for name, n in calls.items() if n == 0]


def test_export_cold_calls_every_expected_function(monkeypatch, capsys):
    """One small export of each kind the workload runs calls every function
    in EXPECTED_CALLS["export-cold"]."""
    calls = _count_calls(monkeypatch, "export-cold")
    for argv in (["rmatrix", "--family", "a2even", "--l", "2"],
                 ["graph", "--family", "a2even", "--l", "2", "--k", "1",
                  "--r", "1"],
                 ["eigenvalues", "--family", "d2", "--l", "2", "--k", "1",
                  "--r", "1", "--mode", "numeric"],
                 ["rep", "--family", "d2", "--l", "2"]):
        _run_cli(capsys, ["export", *argv, "--seed", "7"])
    assert not [name for name, n in calls.items() if n == 0]
