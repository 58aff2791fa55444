"""The benchmark's workloads: the case lists made from a seed, one run of a
case through twistr's public functions, and the check of its verdict.

Each workload is a fixed list of cases.  The seed only picks the random
inputs twistr is given (the ``--seed`` of a CLI call, or the sample w), so the
same seed always gives the same inputs.

* ``verify-seed``: ``twistr verify --samples 3`` on the three seed pairs that
  finish in seconds.  This is the end-to-end target: each verify repeats
  solves and decompositions across its stages, which is where shared work
  would show.
* ``graph-symbolic``: the 76-case closed-form grid, through the graph build,
  the recursion in Q(u) and the closed forms, checked equal.  It exercises
  the Klimyk containment and Q(u) arithmetic and never reaches the solver
  (tensor, jimbo, linalg).
* ``export-cold``: one-shot exports that each do their work once, so work
  shared between stages cannot help them: rmatrix solves at larger T than
  verify-seed, numeric eigenvalues (Fraction u, no Q(u)), a graph and a rep.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction

from twistr import cli, qrep, tpg
from twistr.liealg import family_spec
from twistr.scalars import QSample, RatFun, format_scalar

WORKLOADS = ("verify-seed", "graph-symbolic", "export-cold")

SCHEMA = "twistr-report/1"

VERIFY_PAIRS = (("a2even", 2), ("a2odd", 3), ("d2", 2))

# Stages a seed-pair verify must run (none skipped), and the stages that must
# carry at least one certificate, with the report key that holds them.
VERIFY_STAGES = ("relations", "decomposition", "graph", "eigenvalues", "solve",
                 "yang-baxter", "unitarity", "parity", "spectral-agreement")
CERTIFIED_STAGES = {"solve": "solves", "yang-baxter": "certificates",
                    "unitarity": "certificates",
                    "spectral-agreement": "certificates"}

# The cost of the Q(u) route grows with the height of w (d2 l=5 (3,3) takes
# 4x longer at w = 7/6 than at w = 2), so graph-symbolic draws w from samples
# of one height: the seed changes the inputs, not the amount of work.
GRAPH_W = (Fraction(3, 2), Fraction(-3, 2), Fraction(2, 3), Fraction(-2, 3))

EXPORTS = (
    ("rmatrix", "a2even", 3, None),
    ("rmatrix", "a2odd", 4, None),
    ("rmatrix", "d2", 3, None),
    ("eigenvalues", "d2", 5, (3, 3)),
    ("eigenvalues", "d2", 6, (3, 3)),
    ("graph", "a2even", 6, (2, 3)),
    ("rep", "d2", 4, None),
)

# Passes a measuring run makes at least, whatever its length: two, where each
# output must be byte-identical across the passes of a run.
MIN_PASSES = {"export-cold": 2}


@dataclass(frozen=True)
class Case:
    label: str
    family: str
    l: int
    argv: tuple = ()          # CLI arguments (verify and export cases)
    params: tuple = ()        # weight parameters (graph cases)
    w: Fraction = None        # sample of w (graph cases)
    needs_rep: bool = False   # whether set-up builds the seed rep


def graph_grid():
    """The closed-form grid: every (family, l, params) with a closed form."""
    for l in range(2, 7):
        for k in range(1, l + 1):
            for r in range(k, l - k + 1):
                yield ("a2even", l, (k, r))
    for l in range(3, 7):
        for k in range(1, 4):
            for r in range(k, 4):
                yield ("a2odd", l, (k, r))
    for l in range(2, 7):
        for a in range(1, 4):
            for b in range(a, 4):
                yield ("d2", l, (a, b))


def make_cases(workload: str, seed: int):
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify-seed":
        return [Case(f"verify {f} l={l}", f, l, needs_rep=True,
                     argv=("verify", "--family", f, "--l", str(l),
                           "--seed", str(rng.randrange(1, 10**6)),
                           "--samples", "3"))
                for f, l in VERIFY_PAIRS]
    if workload == "graph-symbolic":
        return [Case(f"graph {f} l={l} {p}", f, l, params=p,
                     w=rng.choice(GRAPH_W))
                for f, l, p in graph_grid()]
    if workload == "export-cold":
        cases = []
        for what, f, l, p in EXPORTS:
            argv = ["export", what, "--family", f, "--l", str(l)]
            if p is not None:
                argv += ["--k", str(p[0]), "--r", str(p[1])]
            if what == "eigenvalues":
                argv += ["--mode", "numeric"]
            argv += ["--seed", str(rng.randrange(1, 10**6))]
            label = f"export {what} {f} l={l}" + (f" {p}" if p else "")
            cases.append(Case(label, f, l, argv=tuple(argv),
                              needs_rep=what in ("rmatrix", "rep")))
        return cases
    raise ValueError(f"unknown workload {workload!r}")


def prepare(cases):
    """Build what the first case needs: family specs and seed reps."""
    for c in cases:
        spec = family_spec(c.family, c.l)
        if c.needs_rep:
            qrep.build_seed_rep(spec)


def run_case(case: Case):
    """Run one case; returns (output text, list of problems with its verdict).

    An empty problem list means the verdict is correct and not vacuous."""
    try:
        if case.argv:
            rc, text = _call_cli(case.argv)
            check = _check_verify if case.argv[0] == "verify" else _check_export
            return text, check(case, rc, text)
        return _run_graph(case)
    except Exception as exc:  # a crash is a wrong verdict, not a stop
        return "", [f"{type(exc).__name__}: {exc}"]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _call_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:  # argparse refusing the arguments
            rc = exc.code
    return rc, out.getvalue()


def _check_verify(case, rc, text):
    problems = [] if rc == 0 else [f"exit code {rc}"]
    report = json.loads(text)
    if report.get("schema") != SCHEMA:
        problems.append(f"schema {report.get('schema')!r}")
    if report.get("ok") is not True:
        problems.append("report is not ok")
    stages = {s["stage"]: s for s in report.get("stages", [])}
    for name in VERIFY_STAGES:
        stage = stages.get(name)
        if stage is None:
            problems.append(f"stage {name} missing")
        elif "skipped" in stage:
            problems.append(f"stage {name} skipped")
        elif stage.get("ok") is not True:
            problems.append(f"stage {name} failed")
    for name, key in CERTIFIED_STAGES.items():
        records = stages.get(name, {}).get(key, [])
        if not records:
            problems.append(f"stage {name} has no certificates")
        elif any(r.get("ok", True) is not True for r in records):
            problems.append(f"stage {name} has a failed certificate")
    return problems


_EXPORT_CONTENT = {"rmatrix": "R", "eigenvalues": "eigenvalues", "rep": "e",
                   "graph": "nodes"}


def _check_export(case, rc, text):
    what = case.argv[1]
    problems = [] if rc == 0 else [f"exit code {rc}"]
    doc = json.loads(text)
    # The graph export is tpg.graph_as_dict, which carries no schema tag;
    # every other export must carry the report schema.
    if what != "graph" and doc.get("schema") != SCHEMA:
        problems.append(f"schema {doc.get('schema')!r}")
    if what != "graph" and doc.get("object") != what:
        problems.append(f"object {doc.get('object')!r}")
    if (doc.get("family"), doc.get("l")) != (case.family, case.l):
        problems.append("export is for another family or rank")
    if not doc.get(_EXPORT_CONTENT[what]):
        problems.append(f"export has no {_EXPORT_CONTENT[what]}")
    return problems


def _run_graph(case):
    spec = family_spec(case.family, case.l)
    qs = QSample(case.w)
    graph = tpg.build_graph(spec, case.params)
    rho, certificates = tpg.eigenvalues_by_recursion(graph, qs)
    closed = tpg.eigenvalues_closed_form(spec, case.params, qs)
    problems = []
    if not all(c["consistent"] for c in certificates):
        problems.append("inconsistent loop certificate")
    if rho != closed:
        problems.append("closed form differs from the recursion")
    if not all(isinstance(v, RatFun) for v in rho.values()):
        problems.append("recursion did not stay in Q(u)")
    lines = [f"{case.label} w={case.w} nodes={len(graph.nodes)} "
             f"edges={len(graph.edges)} loops={len(certificates)}"]
    lines += [f"{nu}: {format_scalar(v)}" for nu, v in sorted(rho.items())]
    return "\n".join(lines) + "\n", problems
