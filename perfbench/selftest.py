"""Self-test of the benchmark's traced run.

    python3 perfbench/selftest.py

For each workload it makes two traced runs with seed SEED.  Each traced
run already fails a case whose traced output or verdict differs from the
untraced one, and fails when a function predicted to run on the workload
(``tracer.EXPECTED_CALLS``) recorded no calls.  This script checks that both
runs are correct and that every ``*.calls`` count is exactly equal across
them.  Exit status 0 means every check held.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import WORKLOADS  # noqa: E402

SEED = 1


def traced_run(workload, seed):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=os.path.dirname(HERE), stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: traced run exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    ok = True
    for workload in WORKLOADS:
        a, b = traced_run(workload, SEED), traced_run(workload, SEED)
        counts = [{k: v["value"] for k, v in r["metrics"].items()
                   if k.endswith(".calls")} for r in (a, b)]
        differ = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
        good = a["correct"] and b["correct"] and not differ
        ok &= good
        print(f"{workload}: {'ok' if good else 'FAILED'} "
              f"(correct {a['correct']}/{b['correct']}, "
              f"{len(counts[0])} call counts, differing: {differ or 'none'})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
