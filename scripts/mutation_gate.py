#!/usr/bin/env python3
"""Disable each certificate of src/twistr in turn and check that a test
fails.

Each entry of MUTATIONS is (a file of src/twistr, one exact source line of
it, the line that replaces it, the certificate that the replacement
disables or weakens).  The repository is copied once, at the start of a
run (without .git and caches), into a snapshot, so every entry of one run
tests the same tree even if the checkout is edited meanwhile.  For each
entry the snapshot is copied to a temporary directory, the line is replaced
there, and ``pytest -x -q`` runs on the copy.  The mutation is killed when
pytest exits 1 with a FAILED test, and the first failing test is printed;
it survives when every test passes.  Any other outcome (a collection or setup
ERROR, an interrupted or internal pytest error, no tests collected) is an
error of the gate, not a kill.  ``tests/test_golden.py`` and
``tests/test_scripts.py`` run last, so a semantic test is the one printed
whenever one kills the mutation: the first fails on any changed output, and
the second on every mutated copy, whose listed line is gone.  The checkout
itself is never modified.

A run takes one Tier-1 run per mutation at most, so the gate is not part of
Tier-1.  ``tests/test_scripts.py`` checks that every listed line occurs
exactly once in src/twistr and that each mutated file still compiles, so the
list cannot rot silently.  Only the standard library is used.  The exit code
is 1 unless every mutation is killed.

Usage:
    python3 scripts/mutation_gate.py
"""

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent

LAST = ("test_golden.py", "test_scripts.py")

MUTATIONS = [
    ("jimbo.py",
     "        _is_module_map(shared, qs, n) for n in ns.values())",
     "        True for n in ns.values())",
     "check_ybe premise: each N a module map"),
    ("jimbo.py",
     "        ok = all(_product(g, lhs, d) == _product(g, rhs, d) for g in gs)",
     "        ok = True",
     "check_ybe comparison on the cyclic vectors"),
    ("jimbo.py",
     "    if len(low) != 1 or len(set(rep.weights)) != rep.dim:",
     "    if not low:",
     "v_low certified unique"),
    ("jimbo.py",
     "    return all(linalg.products_equal(n, m, m, n)",
     "    return True or all(linalg.products_equal(n, m, m, n)",
     "solve_rmatrix fixed-subalgebra equations: the e-half"),
    ("jimbo.py",
     "        if not same:",
     "        if False:",
     "contravariant form at w: D(f_i) = c_i G^-1 D(e_i)^T G"),
    ("jimbo.py",
     "    if any(block[p] != block[j] for p, row in n.items() for j in row):",
     "    if False and any(block[p] != block[j] for p, row in n.items() "
     "for j in row):",
     "module map: N preserves weight"),
    ("jimbo.py",
     "    if any(G[p] * y != G[j] * n.get(j, {}).get(p, 0)",
     "    if False and any(G[p] * y != G[j] * "
     "n.get(j, {}).get(p, 0)",
     "module map: N is G-symmetric"),
    ("jimbo.py",
     "    ok = linalg.mat_mul(a.N, b.N) == linalg.sparse_identity(",
     "    ok = True or linalg.mat_mul(a.N, b.N) == linalg.sparse_identity(",
     "unitarity"),
    ("jimbo.py",
     "        ok = b.N == linalg.sparse_identity(shared.rep.dim ** 2, b.D) "
     "and all(",
     "        ok = all(",
     "spectral agreement: N(1) = D_1 I"),
    ("jimbo.py",
     "    if len(kern) != 1:",
     "    if False:",
     "small system: null space one-dimensional"),
    ("jimbo.py",
     "    if 0 not in c:",
     "    if False:",
     "small system: c_top nonzero"),
    ("tensor.py",
     "        if not space.add(c.basis[0]):",
     "        if not space.add(c.basis[0]) and False:",
     "decompose: each highest weight vector outside the other components"),
    ("tensor.py",
     "    if space.dim != dim:",
     "    if False:",
     "decompose: adapted bases span V (x) V"),
    ("linalg.py",
     "    if any(p >= n for p in red):",
     "    if False:",
     "invert: a singular matrix refused"),
    ("cli.py",
     "        ok = spectrum == graph_parities == classical",
     "        ok = spectrum == graph_parities",
     "parity stage: classical psi^2 signs"),
    ("cli.py",
     '        failures = [r["relation"] for r in classical + quantum '
     'if not r["ok"]]',
     '        failures = [r["relation"] for r in classical if not r["ok"]]',
     "relations stage: the failures of the quantum relations"),
    ("cli.py",
     '        return {"ok": found == expected,',
     '        return {"ok": True,',
     "decomposition stage against the graph"),
    ("cli.py",
     "        agree = set(rho) == set(closed) and all(rho[nu] == closed[nu]",
     "        agree = all(rho[nu] == closed[nu]",
     "eigenvalue stage: same components"),
    ("qrep.py",
     '                raise RepresentationError(f"f_{i} is not g^-1 e_{i}^T g")',
     "                pass",
     "contravariant form on V: f_i = g^-1 e_i^T g"),
    ("qrep.py",
     "                                          _serre_witness(words),",
     "                                          {},",
     "q-Serre: the Serre witness, the first nonzero pair sum"),
    ("qrep.py",
     "                                          ((-1) ** m, words[m - k]))):",
     "                                          (-1, words[m - k]))):",
     "q-Serre: the pair sign (-1)^m"),
    ("qrep.py",
     "    for k in range(m // 2 + 1):",
     "    for k in range((m + 1) // 2):",
     "q-Serre: the middle word of an even degree"),
    ("qrep.py",
     "                 (-scale, target)))",
     "                 (-sh, linalg.sparse_commutator(e, f) "
     "if i == j else {})))",
     "[e_i,f_i]: s [e_i,f_i] - s h_i, the comparison with h_i"),
    ("qrep.py",
     "                    if tuple(map(sub, wt[p], wt[c])) != shift])",
     "                    if False])",
     "weight shifts: the weight test of each nonzero"),
    ("liealg.py",
     '            report.append(relation_entry(f"(ad E{i})^{m} E{j}=0", x, s))',
     "            pass",
     "classical Serre relations of E"),
    ("liealg.py",
     '            report.append(relation_entry(f"(ad F{i})^{m} F{j}=0", y, s))',
     "            pass",
     "classical Serre relations of F"),
    ("qrep.py",
     "                    if abs(x) not in (0, m):",
     "                    if False:",
     "[e_i,f_i]: the magnitude witness, |h_i(p)| in {0, m}"),
    ("linalg.py",
     "                    acc[j] = acc.get(j, 0) - x * y",
     "                    acc[j] = acc.get(j, 0) + x * y",
     "products_equal: a b - c d, the subtraction"),
    ("linalg.py",
     "    for i in a.keys() | c.keys():",
     "    for i in a.keys():",
     "products_equal: rows that only c holds"),
    ("qrep.py",
     "    if any(row.keys() != {i} for i, row in m.items()):",
     "    if False:",
     "seed rep: each Cartan matrix H_i diagonal"),
    ("branching.py",
     "    if any(m < 0 for m in mults.values()):",
     "    if False:",
     "containment: a negative Klimyk multiplicity refused"),
    ("tpg.py",
     "    if not all(parity):",
     "    if False:",
     "graph: every node reached (connected)"),
    ("tpg.py",
     "    if (any(parity[a] * parity[b] != rule(a, b) for a, b in pairs)",
     "    if (False",
     "graph: every containment pair obeys the parity rule"),
    ("tpg.py",
     "            or len(set(zip(parents, parity))) != len(set(parents))):",
     "            or False):",
     "graph: one parity per L-parent class (bipartite quotient)"),
]


def mutated(text, line, replacement):
    """text with its one line equal to ``line`` replaced; ValueError unless
    exactly one line is."""
    lines = text.split("\n")
    hits = [k for k, x in enumerate(lines) if x == line]
    if len(hits) != 1:
        raise ValueError(f"{len(hits)} lines match {line!r}")
    lines[hits[0]] = replacement
    return "\n".join(lines)


def _ignored(directory, names):
    skip = {".git", "__pycache__", ".pytest_cache", ".hypothesis"}
    if pathlib.Path(directory) == ROOT / "perfbench":
        skip.add("results")
    return [n for n in names if n in skip]


def run_one(snapshot, path, line, replacement):
    """("killed", "survived" or "error"; the first failing test or the
    summary line; seconds), on a copy of the snapshot directory."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = pathlib.Path(tmp) / "repo"
        shutil.copytree(snapshot, copy)
        target = copy / "src" / "twistr" / path
        target.write_text(mutated(target.read_text(), line, replacement))
        tests = sorted((copy / "tests").glob("test_*.py"),
                       key=lambda p: (p.name in LAST, p.name))
        env = {**os.environ, "PYTHONPATH": str(copy / "src")}
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider", *map(str, tests)],
            cwd=copy, env=env, capture_output=True, text=True)
        seconds = time.perf_counter() - start
    lines = proc.stdout.splitlines()
    failed = [x.split(" - ")[0].split(" ", 1)[1] for x in lines
              if x.startswith("FAILED ")]
    if proc.returncode == 1 and failed:
        return "killed", failed[0], seconds
    summary = lines[-1] if lines else proc.stderr.strip()
    if proc.returncode == 0:
        return "survived", summary, seconds
    return "error", f"pytest exit {proc.returncode}: {summary}", seconds


def main():
    unkilled = 0
    with tempfile.TemporaryDirectory() as tmp:
        snapshot = pathlib.Path(tmp) / "repo"
        shutil.copytree(ROOT, snapshot, ignore=_ignored)
        for path, line, replacement, name in MUTATIONS:
            status, summary, seconds = run_one(snapshot, path, line,
                                               replacement)
            unkilled += status != "killed"
            print(f"{status:8} {name} ({path}, {seconds:.0f} s): {summary}",
                  flush=True)
    return 0 if unkilled == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
