"""Sweep the component solve against the full elimination of
``full_solve`` over every value ``jimbo.sample_w`` can draw, times every
value ``jimbo.sample_u`` can draw and u = 0.  Not part of the test suite
(it runs some minutes per case); run from the root of a checkout:

    PYTHONPATH=src python tests/sweep_solves.py a2even:1 a2even:2 a2odd:3 d2:2

For each case it prints the number of samples, how many both solves refused
and how many they agreed on, and lists any sample where one solve refused
and the other did not, or where R or Rcheck differ.  It exits 1 if there is
any such sample.
"""

import sys
from fractions import Fraction

from twistr import jimbo, liealg, qrep
from twistr.scalars import PoleError, QSample
from twistr.tensor import DecompositionError

from full_solve import full_solve

REFUSED = (PoleError, jimbo.SolveError, DecompositionError, ZeroDivisionError)


def values(top):
    """Every value Fraction(randint(-top, top), randint(1, top)) other than
    0, 1 and -1, as the sample streams draw them."""
    return sorted({Fraction(a, b) for a in range(-top, top + 1)
                   for b in range(1, top + 1)} - {0, 1, -1})


def outcome(solve):
    try:
        return solve()
    except REFUSED as exc:
        return type(exc).__name__


def sweep(family, l):
    rep = qrep.build_seed_rep(liealg.family_spec(family, l))
    us = values(9) + [Fraction(0)]
    counts = {"samples": 0, "both refused": 0, "agree": 0}
    differ = []
    for w in values(7):
        qs = QSample(w)
        shared = jimbo.Shared(rep.spec, rep=rep)
        for u in us:
            old = outcome(lambda: full_solve(rep, qs, u))
            new = outcome(lambda: shared.solve(qs, u))
            counts["samples"] += 1
            if isinstance(old, str) and isinstance(new, str):
                counts["both refused"] += 1
            elif not isinstance(old, str) and not isinstance(new, str) \
                    and old == (new.R, new.Rcheck):
                counts["agree"] += 1
            else:
                differ.append((w, u, old if isinstance(old, str) else "R",
                               new if isinstance(new, str) else "R"))
    return counts, differ


def main(cases):
    bad = False
    for case in cases:
        family, l = case.split(":")
        counts, differ = sweep(family, int(l))
        print(f"{family} l={l}: " + ", ".join(f"{k} {v}"
                                             for k, v in counts.items())
              + f", differ {len(differ)}", flush=True)
        for w, u, old, new in differ:
            print(f"  w={w} u={u}: full solve {old}, component solve {new}")
        bad = bad or bool(differ)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
