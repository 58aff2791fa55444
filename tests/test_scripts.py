"""Smoke tests of the command-line scripts under scripts/, each loaded as a
module and run on small inputs."""

import hashlib
import importlib.util
import io
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

from twistr.cli import main as twistr_main

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


def test_output_digests(tmp_path, monkeypatch):
    module = load("output_digests")
    monkeypatch.setattr(module, "GRID", [("a2even", 1, 1, 1)])
    monkeypatch.setattr(module, "SEEDS", (7,))
    monkeypatch.setattr(module, "RMATRIX", [("a2even", 1)])
    monkeypatch.setattr(module, "GRAPHS", [("a2even", 2, (1, 1))])
    monkeypatch.setattr(module, "EIGENVALUES", [("a2even", 2, (1, 1))])
    monkeypatch.setattr(module, "REPS", [("d2", 2)])
    runs = []
    for _ in range(2):
        stream = io.StringIO()
        assert module.run(stream) == 1 + 1 + 3 + 6 + 1
        runs.append(stream.getvalue().splitlines())
    assert runs[0] == runs[1]
    pairs = [line.split("  ", 1) for line in runs[0]]
    assert all(len(digest) == 64 and "exit" not in command
               for digest, command in pairs)
    assert runs[0][0].endswith(
        "  verify --family a2even --l 1 --k 1 --r 1 --seed 7 --samples 3")
    out = tmp_path / "rep.json"
    assert twistr_main(["export", "rep", "--family", "d2", "--l", "2",
                        "--out", str(out)]) == 0
    assert runs[0][-1] == (f"{hashlib.sha256(out.read_bytes()).hexdigest()}"
                           "  export rep --family d2 --l 2")


def test_output_digests_reads_its_own_checkout(tmp_path):
    """output_digests imports twistr from src/ of its own checkout with no
    PYTHONPATH, and a copy of it whose checkout has no src/ refuses to run
    on the twistr that PYTHONPATH holds, before it digests anything."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    script = str(SCRIPTS / "output_digests.py")
    code = ("import importlib.util, sys\n"
            f"spec = importlib.util.spec_from_file_location('d', {script!r})\n"
            "spec.loader.exec_module(importlib.util.module_from_spec(spec))\n"
            "print(sys.modules['twistr'].__file__)\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert pathlib.Path(proc.stdout.strip()).resolve() == \
        SCRIPTS.parent / "src" / "twistr" / "__init__.py"

    (tmp_path / "scripts").mkdir()
    stale = tmp_path / "scripts" / "output_digests.py"
    stale.write_text((SCRIPTS / "output_digests.py").read_text())
    env["PYTHONPATH"] = str(SCRIPTS.parent / "src")
    proc = subprocess.run([sys.executable, str(stale)], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 1 and not proc.stdout
    assert "twistr was imported from" in proc.stderr


def test_bench_pairs_summary():
    """The BENCH summary of canned records: runs, medians, inclusive
    quartiles and wins in each metric's direction, with the attempted
    counts beside peak_rss_mb; the progress line of one side of a pair."""
    module = load("bench_pairs")

    def record(attempted, pass_ref, rss, ok):
        return {"attempted": attempted,
                "metrics": {"pass_ref": pass_ref, "peak_rss_mb": rss,
                            "ok_ratio": ok}}

    pairs = [{"parent": record(100, 2.0, 9.0, 1.0),
              "change": record(120, 1.0, 9.5, 1.0)},
             {"parent": record(90, 1.5, 9.2, 0.5),
              "change": record(110, 2.0, 9.1, 1.0)},
             {"parent": record(95, 2.5, 9.1, 1.0),
              "change": record(130, 1.5, 9.4, 1.0)}]
    metrics = [{"name": "pass_ref", "better": "lower"},
               {"name": "peak_rss_mb", "better": "lower"},
               {"name": "ok_ratio", "better": "higher"}]
    out = module.summarize(pairs, metrics)
    assert set(out) == {"pass_ref", "peak_rss_mb", "ok_ratio"}
    assert out["pass_ref"] == {
        "change_wins": 2,
        "parent_runs": [2.0, 1.5, 2.5], "parent_median": 2.0,
        "parent_quartiles": [1.75, 2.25],
        "change_runs": [1.0, 2.0, 1.5], "change_median": 1.5,
        "change_quartiles": [1.25, 1.75]}
    assert out["peak_rss_mb"]["change_wins"] == 1
    assert out["peak_rss_mb"]["parent_attempted"] == [100, 90, 95]
    assert out["peak_rss_mb"]["change_attempted"] == [120, 110, 130]
    assert "parent_attempted" not in out["pass_ref"]
    assert out["ok_ratio"]["change_wins"] == 1
    one = module.summarize(pairs[:1], metrics)["pass_ref"]
    assert one["parent_quartiles"] == [2.0, 2.0]
    assert module._progress("change", pairs[0]["change"]) == \
        "change pass_ref 1.0000 peak_rss_mb 9.50 attempted 120"


def test_bench_pairs_clears_bytecode(tmp_path):
    """Before a run, bench_pairs removes every __pycache__ under the
    checkout's src/ and nothing else."""
    module = load("bench_pairs")
    for d in ("src", "src/twistr", "perfbench"):
        (tmp_path / d / "__pycache__").mkdir(parents=True)
        (tmp_path / d / "__pycache__" / "m.pyc").write_bytes(b"")
    (tmp_path / "src" / "twistr" / "m.py").write_text("")
    module.clear_bytecode(tmp_path)
    assert sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*")
                  if p.is_file()) == ["perfbench/__pycache__/m.pyc",
                                      "src/twistr/m.py"]


def test_mutation_gate_lines_exist():
    """Every mutation of scripts/mutation_gate.py names a line that occurs
    exactly once in src/twistr, in the file it names, and changes it into a
    file that still compiles; the gate itself is not run."""
    module = load("mutation_gate")
    src = SCRIPTS.parent / "src" / "twistr"
    texts = {p.name: p.read_text() for p in src.glob("*.py")}
    names = [name for *_, name in module.MUTATIONS]
    assert len(set(names)) == len(names)
    for path, line, replacement, name in module.MUTATIONS:
        assert sum(t.split("\n").count(line) for t in texts.values()) == 1, name
        text = module.mutated(texts[path], line, replacement)
        assert text != texts[path], name
        compile(text, path, "exec")
