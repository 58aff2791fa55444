"""Smoke tests of the command-line scripts under scripts/, each loaded as a
module and run on small inputs."""

import importlib.util
import pathlib
from fractions import Fraction

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_export_example_graphs(tmp_path, capsys):
    module = load("export_example_graphs")
    module.run(tmp_path)
    labels = [label for *_, label in module.EXAMPLES]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"{label}.{ext}" for label in labels for ext in ("dot", "txt"))
    for label in labels:
        dot = (tmp_path / f"{label}.dot").read_text()
        text = (tmp_path / f"{label}.txt").read_text()
        assert dot.startswith("graph tpg {")
        assert text.startswith("extended twisted TPG")
    assert len(capsys.readouterr().out.splitlines()) == len(labels)


def test_eigenvalue_tables(capsys):
    load("eigenvalue_tables").sweep("d2", 3, Fraction(3, 2))
    out = capsys.readouterr().out
    assert "d2 l=2" in out and "d2 l=3" in out
    assert "closed form agrees" in out and "MISMATCH" not in out


def test_run_verification_grid(tmp_path, monkeypatch, capsys):
    module = load("run_verification_grid")
    monkeypatch.setattr(module, "GRID", [("a2even", 1, 1, 1), ("d2", 2, 2, 3)])
    assert module.run(tmp_path, seed=7, samples=1) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "a2even-l1-1-1.json", "d2-l2-2-3.json"]
    assert capsys.readouterr().out.count(" ok ") == 2
