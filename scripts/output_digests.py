#!/usr/bin/env python3
"""Print the sha256 digest of every report and export on a fixed grid.

One line per output, ``sha256  command``.  The outputs are:

- the ``verify --samples 3`` report of every ``run_verification_grid.GRID``
  pair at each seed of SEEDS;
- ``export rmatrix`` for the seed pairs of the tests' ``YBE_CASES``, at
  each seed of SEEDS;
- ``export graph`` in json, dot and text over the tests' 76-case
  closed-form grid (``CLOSED_FORM_GRID``);
- ``export eigenvalues`` for the pairs of EIGENVALUES, in both modes (and
  with ``--mode`` left out) and both formats;
- ``export rep`` for the families and ranks of REPS.

Run it on two checkouts and diff what it prints: a change that keeps every
report and export byte-identical prints the same lines.  A command that
exits nonzero gets its exit code after the command.  twistr is imported
from src/ of the checkout this file sits in, whatever PYTHONPATH holds, and
the script exits with an error if twistr was imported from anywhere else.

Usage:
    python3 scripts/output_digests.py > digests.txt
"""

import hashlib
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "scripts"), str(ROOT / "tests")]

import twistr  # noqa: E402

if pathlib.Path(twistr.__file__).resolve().parent != ROOT / "src" / "twistr":
    raise SystemExit(f"twistr was imported from {twistr.__file__}, "
                     f"not from {ROOT / 'src'}")

from conftest import CLOSED_FORM_GRID, YBE_CASES  # noqa: E402
from run_verification_grid import GRID  # noqa: E402
from twistr.cli import main as twistr_main  # noqa: E402

SEEDS = (3, 7, 11)
RMATRIX = YBE_CASES
GRAPHS = CLOSED_FORM_GRID
EIGENVALUES = [("a2even", 3, (1, 2)), ("a2odd", 4, (1, 1)),
               ("d2", 3, (2, 3))]
REPS = [("d2", 2), ("d2", 3), ("d2", 4)]


def _pair(family, l, params):
    return ["--family", family, "--l", str(l),
            "--k", str(params[0]), "--r", str(params[1])]


def commands():
    """The argv of every output, in a fixed order."""
    for family, l, k, r in GRID:
        for seed in SEEDS:
            yield ["verify", *_pair(family, l, (k, r)),
                   "--seed", str(seed), "--samples", "3"]
    for family, l in RMATRIX:
        for seed in SEEDS:
            yield ["export", "rmatrix", "--family", family, "--l", str(l),
                   "--seed", str(seed)]
    for family, l, params in GRAPHS:
        for fmt in ("json", "dot", "text"):
            yield ["export", "graph", *_pair(family, l, params),
                   "--format", fmt]
    for family, l, params in EIGENVALUES:
        for mode in ([], ["--mode", "symbolic-u"], ["--mode", "numeric"]):
            for fmt in ("json", "text"):
                yield ["export", "eigenvalues", *_pair(family, l, params),
                       *mode, "--format", fmt, "--seed", "7"]
    for family, l in REPS:
        yield ["export", "rep", "--family", family, "--l", str(l)]


def run(stream=sys.stdout):
    """Write one ``sha256  command`` line per output; returns the count."""
    count = 0
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / "out"
        for argv in commands():
            out.unlink(missing_ok=True)
            code = twistr_main(argv + ["--out", str(out)])
            data = out.read_bytes() if out.exists() else b""
            line = f"{hashlib.sha256(data).hexdigest()}  {' '.join(argv)}"
            stream.write(line + (f"  exit {code}" if code else "") + "\n")
            count += 1
    return count


if __name__ == "__main__":
    run()
