"""Tracing for the benchmark's traced run.

The tracer wraps twistr's public functions from outside: every module
namespace that binds a listed function (``jimbo`` binds ``tensor.decompose``
by name, ``tpg`` binds ``branching.contains_in_theta_tensor``) gets the same
wrapper, so no call escapes it.  Each call records a span (name, start, end,
parent span, case) and a call count; spans stay in memory until ``write``.
A layer's self time is its span time minus the time of its child spans.
"""

from __future__ import annotations

import gzip
import itertools
import json
import sys
import time

# (module, function) -> the end-to-end metric and workloads a change to the
# function should move, and the workloads where it must not move anything.
LAYERS = {
    ("cli", "main"): ("pass_ref", "verify-seed export-cold", ""),
    ("jimbo", "solve_rmatrix"): ("pass_ref", "verify-seed", "export-cold"),
    ("jimbo", "check_ybe"): ("pass_ref", "verify-seed", "export-cold"),
    ("jimbo", "check_unitarity"): ("pass_ref", "verify-seed", "export-cold"),
    ("jimbo", "parity_spectrum"): ("pass_ref", "verify-seed", "export-cold"),
    ("jimbo", "spectral_compare"): ("pass_ref", "verify-seed", "export-cold"),
    ("jimbo", "with_retries"): ("pass_ref ok_ratio", "verify-seed", ""),
    ("tensor", "decompose"): ("pass_ref", "verify-seed", "export-cold"),
    ("tensor", "coproduct_action"): ("pass_ref", "verify-seed", "export-cold"),
    ("tensor", "classical_parity_signs"): ("pass_ref", "verify-seed",
                                           "export-cold"),
    ("linalg", "mat_vec"): ("pass_ref", "verify-seed", "graph-symbolic"),
    ("linalg", "invert"): ("pass_ref", "verify-seed", "graph-symbolic"),
    ("linalg", "rref"): ("pass_ref", "verify-seed", "graph-symbolic"),
    ("linalg", "kernel_basis"): ("pass_ref", "verify-seed", "graph-symbolic"),
    ("linalg", "mat_mul"): ("pass_ref", "verify-seed", "graph-symbolic"),
    ("linalg", "RowSpace.add"): ("pass_ref", "verify-seed export-cold",
                                 "graph-symbolic"),
    ("branching", "contains_in_theta_tensor"): (
        "pass_ref", "graph-symbolic export-cold", ""),
    ("branching", "klimyk_tensor_with"): (
        "pass_ref", "graph-symbolic export-cold", ""),
    ("branching", "theta0_weights"): (
        "pass_ref", "graph-symbolic export-cold", ""),
    ("branching", "decompose_tensor_closed_form"): (
        "pass_ref", "graph-symbolic export-cold", ""),
    ("tpg", "build_graph"): ("pass_ref", "graph-symbolic export-cold", ""),
    ("tpg", "eigenvalues_by_recursion"): (
        "pass_ref case_geomean_ref", "graph-symbolic", "export-cold"),
    ("tpg", "eigenvalues_closed_form"): (
        "pass_ref case_geomean_ref", "graph-symbolic", "export-cold"),
    ("scalars", "poly_gcd"): ("pass_ref case_geomean_ref", "graph-symbolic",
                              "export-cold"),
    ("scalars", "RatFun.__init__"): ("pass_ref case_geomean_ref",
                                     "graph-symbolic", "export-cold"),
    ("scalars", "bracket"): ("pass_ref case_geomean_ref", "graph-symbolic",
                             "export-cold"),
    ("qrep", "build_seed_rep"): ("pass_ref setup_s", "verify-seed", ""),
    ("qrep", "check_quantum_relations"): ("pass_ref", "verify-seed", ""),
    ("liealg", "kac_generators"): ("pass_ref", "verify-seed", ""),
    ("liealg", "check_classical_relations"): ("pass_ref", "verify-seed", ""),
}

# Functions each workload must call at least once (the self-test).
EXPECTED_CALLS = {
    "verify-seed": [f"{m}.{f}" for m, f in LAYERS],
    "graph-symbolic": [
        "branching.contains_in_theta_tensor", "branching.klimyk_tensor_with",
        "branching.theta0_weights", "branching.decompose_tensor_closed_form",
        "tpg.build_graph", "tpg.eigenvalues_by_recursion",
        "tpg.eigenvalues_closed_form", "scalars.poly_gcd",
        "scalars.RatFun.__init__", "scalars.bracket"],
    "export-cold": [
        "cli.main", "jimbo.solve_rmatrix", "jimbo.with_retries",
        "tensor.coproduct_action", "linalg.RowSpace.add", "linalg.mat_mul",
        "branching.contains_in_theta_tensor", "branching.klimyk_tensor_with",
        "branching.theta0_weights", "branching.decompose_tensor_closed_form",
        "tpg.build_graph", "tpg.eigenvalues_by_recursion", "scalars.bracket",
        "qrep.build_seed_rep"],
}

# Functions every workload calls, so their self time is never a constant 0.
ALWAYS_CALLED = set.intersection(*map(set, EXPECTED_CALLS.values()))


class Tracer:
    def __init__(self):
        self.spans = []     # (id, name, start, end, parent id, case)
        self.calls = {}
        self.self_s = {}
        self.retry_attempts = 0
        self.retry_successes = 0
        self.case = None
        self._ids = itertools.count()
        self._stack = []    # [span id, name, start, child seconds]

    def install(self, package="twistr"):
        """Wrap every function in LAYERS wherever a twistr module binds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package
                                         or n.startswith(package + "."))]
        for (mod, qualname) in LAYERS:
            home = sys.modules[f"{package}.{mod}"]
            name = f"{mod}.{qualname}"
            self.calls[name] = 0
            self.self_s[name] = 0.0
            if "." in qualname:
                cls_name, meth = qualname.split(".")
                cls = getattr(home, cls_name)
                setattr(cls, meth, self._wrap(name, getattr(cls, meth)))
                continue
            original = getattr(home, qualname)
            wrapper = self._wrap(name, original)
            if name == "jimbo.with_retries":
                wrapper = self._wrap_retries(wrapper)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)

    def _wrap(self, name, fn):
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][0] if stack else None
            frame = [next(tracer._ids), name, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span_id, _, start, child = frame
                duration = end - start
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - child
                if stack:
                    stack[-1][3] += duration
                tracer.spans.append((span_id, name, start, end, parent,
                                     tracer.case))

        traced.__wrapped__ = fn
        return traced

    def _wrap_retries(self, traced_retries):
        tracer = self

        def with_retries(fn, rng, *args, **kwargs):
            def attempt(r):
                tracer.retry_attempts += 1
                return fn(r)
            out = traced_retries(attempt, rng, *args, **kwargs)
            tracer.retry_successes += 1
            return out

        return with_retries

    def write(self, path):
        """Write the spans as gzipped JSON lines, ordered by start time."""
        with gzip.open(path, "wt") as fh:
            for span_id, name, start, end, parent, case in sorted(
                    self.spans, key=lambda s: s[2]):
                fh.write(json.dumps({"id": span_id, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent, "case": case}) + "\n")
