#!/usr/bin/env python3
"""Benchmark a change against its parent in alternating pairs and write the
result as a BENCH file.

Each pair runs ``perfbench/run.py --trace 0`` once in the parent checkout
and once in the change's, at the same seed and for the change's
``BENCHMARK.json`` ``run_seconds``: even pairs run the parent first, odd
pairs the change.  For each seed and each end-to-end metric of that file,
the output gives every run, each side's median and inclusive quartiles, and
the number of pairs the change wins (is better in the metric's direction).
``peak_rss_mb`` grows with the number of case runs a measuring worker
makes, so each side's ``attempted`` counts stand beside it.  Every run
starts with no ``__pycache__`` under its checkout's src/, so both sides
import twistr from the same bytecode state.  With ``--trace`` each side also makes one ``--trace 1`` run per
seed, and all of its per-layer metrics are kept.

The results are merged into the output file under "<workload> seed <seed>",
so calls for several workloads build one file; the file is rewritten after
each seed.  Only the standard library is used.

Usage:
    python3 scripts/bench_pairs.py PARENT CHANGE --workload graph-symbolic \\
        --seeds 1 7919 --pairs 10 --out BENCH_16.json [--trace]

PARENT and CHANGE are checkout directories, each holding at least src/,
perfbench/ and BENCHMARK.json.
"""

import argparse
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def clear_bytecode(checkout):
    """Remove every ``__pycache__`` directory under the checkout's src/, so
    that both sides of a pair start from the same bytecode state."""
    for cache in list((pathlib.Path(checkout) / "src").rglob("__pycache__")):
        shutil.rmtree(cache)


def run_side(checkout, workload, seed, seconds, trace=False):
    """One ``perfbench/run.py`` run in ``checkout``, from source with no
    bytecode left by an earlier run; returns its record:
    {"attempted": n, "metrics": {name: value}}."""
    clear_bytecode(checkout)
    t = int(trace)
    subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds),
                    "--trace", str(t)],
                   cwd=checkout, check=True, stdout=subprocess.DEVNULL)
    path = (pathlib.Path(checkout) / "perfbench" / "results"
            / f"{workload}-seed{seed}-trace{t}.json")
    record = json.loads(path.read_text())
    return {"attempted": record["attempted"],
            "metrics": {k: v["value"] for k, v in record["metrics"].items()}}


def _progress(side, record):
    """One side's pass_ref, peak_rss_mb and attempted count, for the
    per-pair progress line."""
    m = record["metrics"]
    return (f"{side} pass_ref {m['pass_ref']:.4f} peak_rss_mb "
            f"{m['peak_rss_mb']:.2f} attempted {record['attempted']}")


def _quartiles(values):
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarize(pairs, end_to_end):
    """Per end-to-end metric ({"name", "better"} entries of BENCHMARK.json),
    each side's runs, median and quartiles over ``pairs``, a list of
    {"parent": record, "change": record}, and the pairs the change wins;
    ``peak_rss_mb`` also lists each side's attempted counts."""
    out = {}
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        runs = {side: [p[side]["metrics"][name] for p in pairs]
                for side in SIDES}
        entry = {"change_wins": sum(
            (c < p) if lower else (c > p)
            for p, c in zip(runs["parent"], runs["change"]))}
        for side in SIDES:
            entry.update({f"{side}_runs": runs[side],
                          f"{side}_median": statistics.median(runs[side]),
                          f"{side}_quartiles": _quartiles(runs[side])})
            if name == "peak_rss_mb":
                entry[f"{side}_attempted"] = [p[side]["attempted"]
                                              for p in pairs]
        out[name] = entry
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    checkouts = dict(zip(SIDES, (args.parent, args.change)))
    bench = json.loads(
        (pathlib.Path(args.change) / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]

    out_path = pathlib.Path(args.out)
    doc = json.loads(out_path.read_text()) if out_path.exists() else {}
    doc.update(
        schema="twistr-bench/1", python=platform.python_version(),
        nproc=os.cpu_count(),
        command=(f"python3 perfbench/run.py --workload W --seed S "
                 f"--seconds {seconds} --trace 0"),
        method=("per workload and seed, parent and change alternating which "
                "runs first (even pairs parent first); medians and inclusive "
                "quartiles over each side's runs; change_wins counts pairs "
                "where the change is better in the metric's direction; "
                "attempted is the number of case runs the measuring worker "
                "made, which peak_rss_mb grows with; before every run the "
                "__pycache__ directories under each checkout's src/ are "
                "removed, so stale bytecode on one side cannot move its "
                "peak_rss_mb"))
    for seed in args.seeds:
        pairs = []
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pairs.append({side: run_side(checkouts[side], args.workload, seed,
                                         seconds) for side in order})
            print(f"{args.workload} seed {seed} pair {i + 1}/{args.pairs}: "
                  + ", ".join(_progress(s, pairs[-1][s]) for s in SIDES),
                  flush=True)
        key = f"{args.workload} seed {seed}"
        doc.setdefault("workloads", {})[key] = summarize(
            pairs, bench["end_to_end"])
        if args.trace:
            doc.setdefault("traced", {})[key] = {
                side: run_side(checkouts[side], args.workload, seed,
                               seconds, trace=True)
                for side in SIDES}
        out_path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
