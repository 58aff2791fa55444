"""Command-line front end: non-interactive verification pipeline and
deterministic exports.

``twistr verify`` runs, in order: relation checks on the seed representation,
tensor decomposition, graph build with loop-consistency certificates,
eigenvalue comparison (recursion vs closed form), and -- for seed pairs --
the direct intertwiner solve with Yang-Baxter, unitarity, parity and
spectral-agreement checks.  The JSON report (schema "twistr-report/1") is
byte-identical across runs with the same seed.

``twistr export`` writes one object (graph, eigenvalues, rmatrix, rep) in
json/dot/text form.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import branching, jimbo, liealg, qrep, tensor, tpg
from .liealg import FamilyError, family_spec
from .scalars import QSample, format_scalar

SCHEMA = "twistr-report/1"

# The largest two-site dimension T = d**2 of a seed verify measured to pass:
# d2 l=6, d = 64, T = 4,096, 12.7-14.3 s and 138 MB peak for --seed 7
# --samples 3 (Python 3.11.7, one process on a 2-CPU host).  Yang-Baxter
# reads the three-site space on one cyclic vector per component only,
# whether it passes or fails, so the cost is the work on V (x) V at each
# sampled w (the decomposition, the component system, the solves), which
# grows with T.
# The next size, d2 l=7 at T = 16,384, is refused before any work.
MAX_TWO_SITE = 4_096


def _sparse_triplets(m):
    """[row, col, value] of the sparse matrix m, in row-major order."""
    return [[i, j, format_scalar(v)]
            for i in sorted(m) for j, v in sorted(m[i].items())]


def _params(args, spec):
    """(--k, --r), or the seed pair when neither is given; raises FamilyError
    when only one is."""
    if args.k is None and args.r is None:
        return spec.seed_params()
    if args.k is None or args.r is None:
        raise FamilyError("--k and --r must be given together")
    return (args.k, args.r)


def _spec_and_params(args):
    """The family spec and weight parameters of args; raises FamilyError if
    they are invalid."""
    spec = family_spec(args.family, args.l)
    params = _params(args, spec)
    if not spec.admissible(params) or params[0] > params[1]:
        raise FamilyError(f"inadmissible weight parameters {params}")
    return spec, params


def _size_refusal(spec, params):
    """The size estimate of a seed-pair verify or rmatrix export whose
    two-site space V (x) V has more than MAX_TWO_SITE dimensions, else None.
    Non-seed pairs skip the stages that work on V (x) V and beyond, so they
    are never refused."""
    if tuple(params) != spec.seed_params():
        return None
    d = liealg.weyl_dim(spec.l0type, spec.l,
                        branching.input_weight(spec, params[0]))
    if d * d <= MAX_TWO_SITE:
        return None
    comps = branching.decompose_tensor_closed_form(spec, params)
    return (f"seed pair too large: three-site dimension d^3 = {d ** 3:,} "
            f"(d = {d}), T = d^2 = {d * d:,}, {len(comps)} "
            f"components; at most T = {MAX_TWO_SITE:,} is accepted")


def _emit(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args, spec, params) -> int:
    rng = random.Random(args.seed)

    def draw(r):
        return jimbo.sample_w(r), jimbo.sample_u(r), jimbo.sample_u(r)

    samples = [draw(rng) for _ in range(args.samples)]
    is_seed = tuple(params) == spec.seed_params()
    stages = []

    def stage(name, fn, skip_reason=None):
        if skip_reason is not None:
            stages.append({"stage": name, "ok": True, "skipped": skip_reason})
            return None
        try:
            detail = fn()
        except Exception as exc:  # report and fail the stage
            stages.append({"stage": name, "ok": False,
                           "error": f"{type(exc).__name__}: {exc}"})
            return None
        detail = detail or {}
        stages.append({"stage": name, "ok": bool(detail.pop("ok", True)),
                       **detail})
        return detail

    # every stage reads the seed rep, the graph, the solves and the
    # decompositions from this one object, so each is computed once per run
    shared = jimbo.Shared(spec, params)

    def retried(check, sample):
        """jimbo.with_retries over check(w, u, v): the first attempt uses the
        pre-drawn sample, each retry draws a fresh one from the retry rng.
        Returns (result, the sample used)."""
        pending = [sample]

        def attempt(r):
            s = pending.pop() if pending else draw(r)
            return check(*s), s

        return jimbo.with_retries(attempt, rng)

    def certified(check, keys):
        """One certificate per sample: check(w, u, v) run through
        ``retried``, recorded with the first len(keys) coordinates of the
        sample it used."""
        records = []
        for sample in samples:
            rec, used = retried(check, sample)
            records.append({**dict(zip(keys, map(str, used))),
                            "ok": rec["ok"]})
        return {"ok": all(r["ok"] for r in records), "certificates": records}

    def run_relations():
        # the Kac generators of the vector seeds are the ones the seed rep
        # was built from; the spinor's classical check builds its own
        rep = shared.rep
        gens = rep.kac or liealg.kac_generators(spec)
        classical = liealg.check_classical_relations(gens, spec)
        quantum = qrep.check_quantum_relations(rep)
        failures = [r["relation"] for r in classical + quantum if not r["ok"]]
        # the report schema still counts the quantum relations per sample
        checked = len(classical) + len(samples) * len(quantum)
        return {"ok": not failures, "relations_checked": checked,
                "failures": failures[:5]}

    def run_decomposition():
        expected = sorted((n.nu for n in shared.graph.nodes), reverse=True)
        dec = shared.decomposition(QSample(samples[0][0]))
        found = sorted((c.nu for c in dec.components), reverse=True)
        return {"ok": found == expected,
                "components": [tpg._weight_str(nu) for nu in found]}

    def run_graph():
        graph = shared.graph
        _, certificates = tpg.factored_recursion(graph)
        return {"ok": all(c["consistent"] for c in certificates),
                "nodes": len(graph.nodes), "edges": len(graph.edges),
                "loop_certificates": len(certificates)}

    def run_eigenvalues():
        qs = QSample(samples[0][0])
        rho, _ = tpg.eigenvalues_by_recursion(shared.graph, qs)
        table = {tpg._weight_str(nu): format_scalar(v)
                 for nu, v in sorted(rho.items(), reverse=True)}
        try:
            closed = tpg.eigenvalues_closed_form(spec, params, qs)
        except tpg.UnsupportedRegimeError as exc:
            return {"ok": True, "closed_form": f"skipped: {exc}",
                    "eigenvalues": table}
        agree = set(rho) == set(closed) and all(rho[nu] == closed[nu]
                                                for nu in rho)
        return {"ok": agree, "closed_form": "agrees" if agree else "mismatch",
                "eigenvalues": table}

    def run_solve():
        records = []
        for sample in samples:
            _, (w, u, _) = retried(
                lambda w, u, v: shared.solve(QSample(w), u), sample)
            # the solve certifies a one-dimensional null space or raises
            records.append({"w": str(w), "u": str(u), "nullity": 1})
        return {"ok": True, "solves": records}

    def run_ybe():
        return certified(
            lambda w, u, v: jimbo.check_ybe(shared, QSample(w), u, v), "wuv")

    def run_unitarity():
        return certified(
            lambda w, u, v: jimbo.check_unitarity(shared, QSample(w), u), "wu")

    def run_parity():
        spectrum, _ = retried(
            lambda w, u, v: jimbo.parity_spectrum(shared, QSample(w)),
            samples[0])
        graph_parities = {n.nu: n.parity for n in shared.graph.nodes}
        classical = tensor.classical_parity_signs(shared.rep)
        ok = spectrum == graph_parities == classical
        return {"ok": ok,
                "spectrum": {tpg._weight_str(nu): s
                             for nu, s in sorted(spectrum.items(), reverse=True)}}

    def run_spectral():
        return certified(
            lambda w, u, v: jimbo.spectral_compare(shared, QSample(w), u), "wu")

    skip = None if is_seed else "non-seed pair"
    stage("relations", run_relations)
    stage("decomposition", run_decomposition, skip_reason=skip)
    stage("graph", run_graph)
    stage("eigenvalues", run_eigenvalues)
    stage("solve", run_solve, skip_reason=skip)
    stage("yang-baxter", run_ybe, skip_reason=skip)
    stage("unitarity", run_unitarity, skip_reason=skip)
    stage("parity", run_parity, skip_reason=skip)
    stage("spectral-agreement", run_spectral, skip_reason=skip)

    ok = all(s["ok"] for s in stages)
    report = {
        "schema": SCHEMA,
        "command": "verify",
        "config": {
            "family": args.family, "l": args.l,
            "params": list(params),
            "seed": args.seed, "samples": args.samples,
        },
        "stages": stages,
        "ok": ok,
    }
    _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", args.out)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def cmd_export(args, spec, params) -> int:
    rng = random.Random(args.seed)
    what = args.what
    if args.mode is not None and what != "eigenvalues":
        print(f"error: {what} export takes no --mode", file=sys.stderr)
        return 2
    if what == "graph":
        graph = tpg.build_graph(spec, params)
        _emit(tpg.export_graph(graph, args.format), args.out)
        return 0
    if what == "eigenvalues":
        if args.format == "dot":
            print("error: eigenvalues export supports json/text", file=sys.stderr)
            return 2
        w = jimbo.sample_w(rng)
        qs = QSample(w)
        graph = tpg.build_graph(spec, params)
        if args.mode == "numeric":
            u = jimbo.sample_u(rng)
            rho, _ = tpg.eigenvalues_by_recursion(graph, qs, u=u)
            u_repr = str(u)
        else:
            rho, _ = tpg.eigenvalues_by_recursion(graph, qs)
            u_repr = "u"
        table = {tpg._weight_str(nu): format_scalar(v)
                 for nu, v in sorted(rho.items(), reverse=True)}
        if args.format == "text":
            lines = [f"eigenvalues {args.family} l={args.l} "
                     f"params={list(params)} w={w} u={u_repr}"]
            lines += [f"  {k}: {v}" for k, v in table.items()]
            _emit("\n".join(lines) + "\n", args.out)
        else:
            _emit(json.dumps({"schema": SCHEMA, "object": "eigenvalues",
                              "family": args.family, "l": args.l,
                              "params": list(params), "w": str(w),
                              "u": u_repr, "eigenvalues": table},
                             indent=2, sort_keys=True) + "\n", args.out)
        return 0
    if what in ("rmatrix", "rep"):
        if tuple(params) != spec.seed_params():
            print(f"error: {what} export requires the seed pair",
                  file=sys.stderr)
            return 2
        if args.format != "json":
            print(f"error: {what} export supports json", file=sys.stderr)
            return 2
    if what == "rmatrix":
        shared = jimbo.Shared(spec)

        def attempt(r):
            w = jimbo.sample_w(r)
            u = jimbo.sample_u(r)
            return w, u, shared.solve(QSample(w), u)

        w, u, res = jimbo.with_retries(attempt, rng)
        _emit(json.dumps({
            "schema": SCHEMA, "object": "rmatrix",
            "family": args.family, "l": args.l,
            "w": str(w), "u": str(u),
            "dim": shared.rep.dim ** 2, "nullity": 1,
            "R": _sparse_triplets(res.R),
            "Rcheck": _sparse_triplets(res.Rcheck),
        }, indent=2, sort_keys=True) + "\n", args.out)
        return 0
    rep = qrep.build_seed_rep(spec)  # what == "rep"
    _emit(json.dumps({
        "schema": SCHEMA, "object": "rep",
        "family": args.family, "l": args.l,
        "dim": rep.dim,
        "highest_weight": tpg._weight_str(rep.lam),
        "weights": [tpg._weight_str(wt) for wt in rep.weights],
        "e": [_sparse_triplets(m) for m in rep.e],
        "f": [_sparse_triplets(m) for m in rep.f],
    }, indent=2, sort_keys=True) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _positive_int(text):
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _add_common(p):
    p.add_argument("--family", required=True, choices=liealg.FAMILIES)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="twistr",
        description="exact R-matrix workbench for twisted quantum affine algebras")
    sub = parser.add_subparsers(dest="command", required=True)
    pv = sub.add_parser("verify", help="run the verification pipeline")
    _add_common(pv)
    pv.add_argument("--samples", type=_positive_int, default=3)
    pe = sub.add_parser("export", help="export one object")
    pe.add_argument("what", choices=["graph", "eigenvalues", "rmatrix", "rep"])
    pe.add_argument("--mode", choices=["numeric", "symbolic-u"])
    pe.add_argument("--format", choices=["json", "dot", "text"],
                    default="json")
    _add_common(pe)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        spec, params = _spec_and_params(args)
    except FamilyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.command == "verify" or args.what == "rmatrix":
        refusal = _size_refusal(spec, params)
        if refusal:
            print(f"error: {refusal}", file=sys.stderr)
            return 2
    command = cmd_verify if args.command == "verify" else cmd_export
    return command(args, spec, params)


if __name__ == "__main__":
    sys.exit(main())
