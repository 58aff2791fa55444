"""twistr benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-seed --seed 1 --seconds 20 --trace 0

The workloads are described in ``workloads.py``.  Every worker is a fresh
Python process, started one at a time, that imports twistr from ``src/``.

``--trace 0`` prints the end-to-end metrics:

* ``pass_ref``: the time of one pass over the case list (the sum of the
  per-case medians), in units of the reference kernel (``refkernel.py``):
  each run of a case is divided by the kernel time measured by slices run
  while it ran and just before and after (``worker.py``).  The machine's
  speed drifts; the kernel drifts with it, so the ratio moves less than the
  seconds do.
* ``case_geomean_ref``: the geometric mean of the per-case medians in
  reference units, so that a gain on many small cases shows even when one
  large case dominates ``pass_ref``.
* ``setup_s``: the time from the start of ``import twistr`` until the first
  case is ready, in a fresh worker.  Each of SETUP_RUNS workers divides its
  set-up time by the kernel slices it runs just before and after it; the
  median of these ratios is scaled back to seconds at the nominal speed at
  which one kernel takes NOMINAL_KERNEL_S.  The raw median is printed and
  recorded as ``setup_raw_s``.  The kernel's own imports (``fractions``,
  ``random``, ``statistics``) are loaded before the clock starts.
* ``peak_rss_mb``: how far the peak resident memory of the measuring worker
  rises above what it held before ``import twistr`` (the interpreter and
  the reference kernel's matrix).
* ``ok_ratio``: cases whose verdict was correct and not vacuous, over cases
  attempted (``failed`` counts the others).  A measuring run checks that a
  case's output is byte-identical each time it runs.  It makes at least two
  passes on ``export-cold`` (``workloads.MIN_PASSES``); on the other
  workloads a run may make one pass, and the traced run, which compares an
  untraced with a traced pass, is what checks them across passes.

``--trace 1`` runs one untraced and one traced pass in a worker and prints the
per-layer metrics: calls and self time of twistr's public functions (see
``tracer.LAYERS`` for which end-to-end metric each should move), retry
attempts, the tracing overhead, and the raw pass seconds and kernel seconds.

Each run writes a record (Python version, nproc, seed, load average, sample
counts, every metric) under ``perfbench/results/``; a traced run also writes
its spans there.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("verify-seed", "graph-symbolic", "export-cold")

SETUP_RUNS = 15
# The kernel's time on the 2-vCPU VM the benchmark was written on (the median
# of its runs); setup_s is the set-up time at this kernel speed.
NOMINAL_KERNEL_S = 0.5
DEADLINE_S = 170.0

# Seeds 1-20 were used while the benchmark was written; check a gain claim
# again on this seed, which was not.
HELD_OUT_SEED = 7919


def _loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().split()[:3]
    except OSError:
        return None


def _worker(deadline, *args):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RuntimeError("out of time before starting a worker")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *map(str, args)],
        cwd=ROOT, stdout=subprocess.PIPE, timeout=remaining,
        env={**os.environ, "PYTHONHASHSEED": "0"}, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _measure(args, deadline, record):
    res = _worker(deadline, "measure", args.workload, args.seed, args.seconds)
    setups = [_worker(deadline, "setup", args.workload, args.seed)
              for _ in range(SETUP_RUNS)]
    attempted, failed = res["attempted"], res["failed"]
    record.update(res)
    record.update(setup_runs=setups, failed_ratio=failed / attempted)
    metrics = {
        "pass_ref": (res["pass_ref"], "ref"),
        "case_geomean_ref": (res["case_geomean_ref"], "ref"),
        "setup_s": (statistics.median(r["setup_ref"] for r in setups)
                    * NOMINAL_KERNEL_S, "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    extra = {"pass_s": (res["pass_s"], "s"),
             "ref_kernel_s": (res["ref_kernel_s"], "s"),
             "setup_raw_s": (statistics.median(r["setup_s"] for r in setups),
                             "s"),
             "failed_ratio": (failed / attempted, "ratio")}
    return attempted, failed, metrics, extra


def _trace(args, deadline, record, tag):
    spans = os.path.join(RESULTS, f"{tag}-spans.jsonl.gz")
    res = _worker(deadline, "trace", args.workload, args.seed, spans)
    all_metrics = {k: tuple(v) for k, v in res.pop("metrics").items()}
    record.update(res)
    record.update(spans_file=os.path.relpath(spans, ROOT),
                  layers={f"{m}.{f}": {"moves": p[0], "on": p[1],
                                       "unchanged_on": p[2]}
                          for (m, f), p in tracer.LAYERS.items()})
    # Self times only of functions every workload calls: a time that is 0 on
    # every run of a workload carries no information.
    keep = {k: v for k, v in all_metrics.items()
            if not k.endswith(".self_s")
            or k[:-len(".self_s")] in tracer.ALWAYS_CALLED}
    extra = {k: v for k, v in all_metrics.items() if k not in keep}
    return res["attempted"], res["failed"], keep, extra


def _terminate(signum, frame):
    # SystemExit makes subprocess.run kill and reap the running worker.
    raise SystemExit(128 + signum)


def main(argv=None):
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "twistr", "__init__.py")):
        print(f"error: no twistr sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(RESULTS, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "held_out_seed": HELD_OUT_SEED,
              "python": platform.python_version(), "nproc": os.cpu_count(),
              "loadavg_start": _loadavg()}
    try:
        if args.trace:
            attempted, failed, metrics, extra = _trace(args, deadline,
                                                       record, tag)
        else:
            attempted, failed, metrics, extra = _measure(args, deadline,
                                                         record)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record.update(loadavg_end=_loadavg(),
                  metrics={k: {"value": v, "unit": u}
                           for k, (v, u) in {**metrics, **extra}.items()})
    with open(os.path.join(RESULTS, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    for problem in record.get("problems", []):
        print(f"FAILED {problem['case']}: {'; '.join(problem['problems'])}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{name:45s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
