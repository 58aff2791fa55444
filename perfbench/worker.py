"""One benchmark worker process: ``worker.py MODE WORKLOAD SEED [ARG]``.

run.py starts one worker at a time and reads the JSON object it prints as its
last line.  Modes:

* ``setup``: time from the start of ``import twistr`` until the first case is
  ready (family specs and seed reps built), and the time of the reference
  kernel slices run just before and just after it;
* ``measure SECONDS``: repeat passes over the cases until SECONDS have gone,
  timing slices of a reference kernel while they run, untraced;
* ``trace SPANS_PATH``: one untraced pass, then one traced pass; compare the
  two and write the spans to SPANS_PATH.

twistr is imported from ``src/`` of the checkout this file sits in, never from
an installed copy.
"""

from __future__ import annotations

import json
import math
import os
import resource
import signal
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# While the cases run, a timer interrupts them every SLICE_EVERY seconds to
# run one slice of the reference kernel (about 20 ms); a slice's time is taken
# out of the case it interrupted.  Each case is then divided by the mean
# slice time within WINDOW seconds of it.  The speed of this kind of VM
# changes within seconds, so kernel calls between cases tracked it less well
# than slices taken at the moments the cases ran.
SLICE_EVERY = 0.2
WINDOW = 1.0

# A case shorter than this is run again, within the same pass, until its runs
# add up to it, so that cases of a few milliseconds get a median of many.
MIN_CASE_S = 0.05

# A setup worker runs the same SETUP_SLICES kernel slices just before and just
# after the set-up it times, so that the set-up can be put in kernel units too.
SETUP_SLICES = 4

# A traced run times this many whole kernels before its passes and as many
# after them.
TRACE_KERNELS = 2


def _import_twistr():
    sys.path.insert(0, SRC)
    import twistr
    if os.path.dirname(os.path.abspath(twistr.__file__)) != \
            os.path.join(SRC, "twistr"):
        raise SystemExit(f"twistr was imported from {twistr.__file__}, "
                         f"not from {SRC}")


def setup(workload, seed):
    import refkernel
    slices = refkernel.Slices()
    for _ in range(SETUP_SLICES):
        slices.run()
    t0 = time.perf_counter()
    _import_twistr()
    import workloads
    workloads.prepare(workloads.make_cases(workload, seed))
    setup_s = time.perf_counter() - t0
    slices.rewind()
    for _ in range(SETUP_SLICES):
        slices.run()
    kernel_s = slices.kernel_s()
    return {"setup_s": setup_s, "kernel_s": kernel_s,
            "setup_ref": setup_s / kernel_s}


def _max_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(workload, seed, seconds):
    import refkernel
    slices = refkernel.Slices()
    for _ in range(slices.SLICES_PER_RUN):  # a warm-up, left out of the log
        slices.run()
    slices.log.clear()
    # The kernel's own memory is in the worker before twistr is imported.
    rss_before_mb = _max_rss_mb()
    _import_twistr()
    import workloads
    cases = workloads.make_cases(workload, seed)
    workloads.prepare(cases)
    min_passes = workloads.MIN_PASSES.get(workload, 1)
    signal.signal(signal.SIGALRM, lambda signum, frame: slices.run())
    spans = []                        # (case, start, end) of every execution
    digests = [None] * len(cases)
    problems = []
    failed = 0
    t_start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, SLICE_EVERY, SLICE_EVERY)
    try:
        passes = 0
        done = False
        while not done:
            for i, case in enumerate(cases):
                t_case = time.perf_counter()
                while time.perf_counter() - t_case < MIN_CASE_S:
                    t0 = time.perf_counter()
                    text, wrong = workloads.run_case(case)
                    spans.append((i, t0, time.perf_counter()))
                    d = workloads.digest(text)
                    if digests[i] is None:
                        digests[i] = d
                    elif digests[i] != d:
                        wrong = wrong + ["output differs from the first run"]
                    if wrong:
                        failed += 1
                        problems.append({"case": case.label,
                                         "problems": wrong})
                done = passes + (i == len(cases) - 1) >= min_passes and \
                    time.perf_counter() - t_start >= seconds
                if done:
                    break
            passes += 1
        slices.run()                  # at least one, however short the run
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)

    times = [[] for _ in cases]       # per case: (seconds, reference units)
    for i, t0, t1 in spans:
        inside = sum(e for s, e in slices.log if t0 <= s < t1)
        near = [e for s, e in slices.log if t0 - WINDOW <= s < t1 + WINDOW]
        ref = slices.kernel_s(near or None)
        times[i].append((t1 - t0 - inside, (t1 - t0 - inside) / ref))
    case_s = [statistics.median(s for s, _ in t) for t in times]
    case_ref = [statistics.median(r for _, r in t) for t in times]
    return {
        "attempted": len(spans), "failed": failed, "problems": problems,
        "pass_ref": sum(case_ref), "pass_s": sum(case_s),
        "case_geomean_ref": math.exp(statistics.fmean(
            math.log(r) for r in case_ref)),
        "ref_kernel_s": slices.kernel_s(),
        "kernel_slices": len(slices.log),
        "measured_s": time.perf_counter() - t_start,
        "peak_rss_mb": _max_rss_mb() - rss_before_mb,
        "rss_before_twistr_mb": rss_before_mb,
        "cases": [{"case": c.label, "times_s": [s for s, _ in t],
                   "median_ref": r}
                  for c, t, r in zip(cases, times, case_ref)],
    }


def _pass(cases, run_case, digest, tracer=None):
    out = []
    t0 = time.perf_counter()
    for i, case in enumerate(cases):
        if tracer is not None:
            tracer.case = i
        text, wrong = run_case(case)
        out.append((digest(text), wrong))
    return out, time.perf_counter() - t0


def trace(workload, seed, spans_path):
    import refkernel
    slices = refkernel.Slices()
    rss_before_mb = _max_rss_mb()
    _import_twistr()
    import tracer as tracing
    import workloads
    cases = workloads.make_cases(workload, seed)
    workloads.prepare(cases)
    for _ in range(TRACE_KERNELS * slices.SLICES_PER_RUN):
        slices.run()
    plain, plain_s = _pass(cases, workloads.run_case, workloads.digest)
    tracer = tracing.Tracer()
    tracer.install()
    traced, traced_s = _pass(cases, workloads.run_case, workloads.digest,
                             tracer)
    for _ in range(TRACE_KERNELS * slices.SLICES_PER_RUN):
        slices.run()
    tracer.write(spans_path)

    problems = []
    for case, (d0, w0), (d1, w1) in zip(cases, plain, traced):
        wrong = w0 + w1
        if (d0, w0) != (d1, w1):
            wrong.append("traced output or verdict differs from untraced")
        if wrong:
            problems.append({"case": case.label, "problems": wrong})
    missing = [n for n in tracing.EXPECTED_CALLS[workload]
               if not tracer.calls[n]]
    if missing:
        problems.append({"case": "tracer coverage",
                         "problems": [f"{n} recorded no calls"
                                      for n in missing]})
    metrics = {}
    for name in tracer.calls:
        metrics[f"{name}.calls"] = (tracer.calls[name], "count")
        metrics[f"{name}.self_s"] = (tracer.self_s[name], "s")
    attempts = tracer.retry_attempts
    metrics["jimbo.with_retries.attempts"] = (attempts, "count")
    metrics["jimbo.with_retries.useful_ratio"] = (
        tracer.retry_successes / attempts if attempts else 1.0, "ratio")
    metrics["trace.overhead_ratio"] = (traced_s / plain_s, "ratio")
    metrics["pass_s"] = (plain_s, "s")
    metrics["ref_kernel_s"] = (slices.kernel_s(), "s")
    return {
        "attempted": len(cases) + 1, "failed": len(problems),
        "problems": problems, "metrics": metrics, "spans": len(tracer.spans),
        "traced_pass_s": traced_s,
        "peak_rss_mb": _max_rss_mb() - rss_before_mb,
    }


def main(argv):
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    if mode == "setup":
        out = setup(workload, seed)
    elif mode == "measure":
        out = measure(workload, seed, float(argv[3]))
    elif mode == "trace":
        out = trace(workload, seed, argv[3])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
