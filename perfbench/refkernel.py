"""Reference kernel: a fixed product of exact rational matrices.

twistr's cost is exact rational arithmetic, and the speed of a shared VM
drifts by tens of percent, within seconds as well as from run to run.  The
benchmark runs this fixed, stdlib-only kernel in slices next to what it
times (see ``worker.py``) and reports twistr's times in units of it.  The
kernel shares no code with twistr, so no change to twistr can move it.

It multiplies a 360 x 360 ``Fraction`` matrix, mostly zeros, by a vector:
the shape of twistr's own dense operators, with a working set of a few MB.
On a 2-CPU VM it tracked both the verify and the Q(u) workloads more closely
than kernels with a small working set did.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

_ORDER = 360
_DENSITY = 0.06


def _inputs():
    rng = random.Random(20261017)
    m = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4))
          if rng.random() < _DENSITY else Fraction(0) for _ in range(_ORDER)]
         for _ in range(_ORDER)]
    v = [Fraction(rng.randint(-5, 5), rng.randint(1, 6))
         for _ in range(_ORDER)]
    return m, v


def _mat_vec(m, v):
    return [sum(c * x for c, x in zip(row, v)) for row in m]


_M, _V = _inputs()


class Slices:
    """The kernel cut into slices of SLICE_ROWS rows, run one at a time.

    ``SLICES_PER_RUN`` consecutive slices make one whole kernel."""

    SLICE_ROWS = 18
    SLICES_PER_RUN = _ORDER // SLICE_ROWS

    def __init__(self):
        self.log = []       # (start, seconds) of every slice run
        self._row = 0
        self._first = {}    # first row -> the slice's result the first time

    def run(self):
        """Run the next slice and log when it started and how long it took."""
        lo, hi = self._row, self._row + self.SLICE_ROWS
        t0 = time.perf_counter()
        out = _mat_vec(_M[lo:hi], _V)
        elapsed = time.perf_counter() - t0
        if self._first.setdefault(lo, out) != out:
            raise RuntimeError("reference kernel gave a different result")
        self._row = hi % _ORDER
        self.log.append((t0, elapsed))

    def rewind(self):
        """Start again from the first slice."""
        self._row = 0

    def kernel_s(self, times=None):
        """Seconds of one whole kernel: the mean slice time (of ``times``,
        by default of every slice run) times SLICES_PER_RUN."""
        if times is None:
            times = [e for _, e in self.log]
        return statistics.fmean(times) * self.SLICES_PER_RUN
