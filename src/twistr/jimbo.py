"""Direct solution of the intertwining equations for the spectral R-matrix,
plus the independent consistency checks (Yang-Baxter, unitarity, parity
spectrum, spectral agreement with the graph recursion).

The R-matrix preserves weights, so the unknowns are grouped into weight
blocks.  The linear system collects R * D(a) - D^T(a) * R = 0 for the
fixed-subalgebra raising/lowering generators and for the affine generator
(the only place the spectral parameter u enters).  For generic rational
samples (w, u) the null space is one-dimensional; the solution is normalized
so that the braided matrix acts as the identity on the (one-dimensional) top
weight space.

All checks run in exact rational arithmetic at rational samples; "pass" means
the residual is identically zero.  A ``Shared`` carries what the checks of
one run have in common, so each R(w, u) is solved once however many checks
read it.  R and Rcheck are sparse ``linalg`` matrices {row: {col: x}}.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import linalg, qrep, tpg
from .qrep import Representation
from .scalars import PoleError, QSample
from .tensor import (DecompositionError, TensorModule, component_scalars,
                     coproduct_action, decompose, permutation_operator)

Q = Fraction


class SolveError(RuntimeError):
    pass


@dataclass
class RMatrixResult:
    rep: Representation
    qs: QSample
    u: Fraction
    R: dict            # sparse intertwiner, normalized to 1 on the top
                       # weight vector; its null space is certified 1-dim
    Rcheck: dict       # sparse P * R


def _top_index(T: TensorModule):
    """Index of the unique basis vector of maximal weight (v_top (x) v_top)."""
    top = max(T.weights)
    idxs = [p for p, w in enumerate(T.weights) if w == top]
    if len(idxs) != 1:
        raise SolveError("top weight space is not one-dimensional")
    return idxs[0]


def solve_rmatrix(rep: Representation, qs: QSample, u: Fraction) -> RMatrixResult:
    T = TensorModule.of(rep, rep)
    l = rep.spec.l
    blocks = T.weight_blocks()
    var_index = {}
    for _, idxs in sorted(blocks.items()):
        for p in idxs:
            for r in idxs:
                var_index[(p, r)] = len(var_index)
    nvars = len(var_index)

    block_of = {}
    for w, idxs in blocks.items():
        for p in idxs:
            block_of[p] = idxs

    generators = [("e", i) for i in range(1, l + 1)] + \
                 [("f", i) for i in range(1, l + 1)] + [("e", 0)]
    equations = {}
    for kind, i in generators:
        uu = u if i == 0 else None
        A = coproduct_action(T, kind, i, qs, u=uu)
        B = coproduct_action(T, kind, i, qs, u=uu, transpose=True)
        # equation (s, t): sum_p R[s][p] A[p][t] - sum_p B[s][p] R[p][t] = 0,
        # with R[x][y] an unknown only for weight(x) == weight(y)
        for p, row in A.items():
            for t, x in row.items():
                for s in block_of[p]:
                    eq = equations.setdefault((kind, i, s, t), {})
                    eq[(s, p)] = eq.get((s, p), 0) + x
        for s, row in B.items():
            for p, x in row.items():
                for t in block_of[p]:
                    eq = equations.setdefault((kind, i, s, t), {})
                    eq[(p, t)] = eq.get((p, t), 0) - x

    sol = _solve_nullity_one(equations, var_index)
    p0 = _top_index(T)
    top = sol.get(var_index[(p0, p0)])
    if not top:
        raise SolveError("solution vanishes on the top weight vector")
    R = {}
    for (p, r), v in var_index.items():
        if v in sol:
            R.setdefault(p, {})[r] = sol[v] / top
    Rcheck = linalg.sparse_mul(permutation_operator(T), R)
    return RMatrixResult(rep, qs, u, R, Rcheck)


def _solve_nullity_one(equations, var_index):
    """Sparse null vector {var: x} of the sparse system, certifying the
    nullity is exactly 1.

    Rows are accumulated into an incremental row space until its rank reaches
    nvars - 1; the remaining rows are then only verified against the extracted
    kernel vector, which keeps the elimination cost bounded.
    """
    nvars = len(var_index)
    sparse_rows = []
    seen = set()
    for key in sorted(equations):
        coeffs = {var_index[var]: c for var, c in equations[key].items() if c}
        if not coeffs:
            continue
        lead = coeffs[min(coeffs)]
        canon = tuple(sorted((j, c / lead) for j, c in coeffs.items()))
        if canon in seen:
            continue
        seen.add(canon)
        sparse_rows.append(coeffs)

    space = linalg.RowSpace(nvars)
    kernel = None
    deferred = []
    for coeffs in sparse_rows:
        if kernel is None:
            space.add(coeffs)
            if space.dim == nvars:
                raise SolveError("null space is trivial (degenerate sample)")
            if space.dim == nvars - 1:
                kernel = _kernel_from_rowspace(space)
        else:
            deferred.append(coeffs)
    if kernel is None:
        raise SolveError(
            f"null space dimension {nvars - space.dim}, expected 1 "
            f"(sample may be degenerate)")
    for coeffs in deferred:
        if sum(c * kernel[j] for j, c in coeffs.items() if j in kernel):
            raise SolveError("null space is trivial (degenerate sample)")
    return kernel


def _kernel_from_rowspace(space):
    free = [j for j in range(space.ncols) if j not in space.pivots]
    if len(free) != 1:
        raise SolveError(f"row space leaves {len(free)} free columns, expected 1")
    fc = free[0]
    v = {piv: -row[fc] for piv, row in space.rows.items() if fc in row}
    v[fc] = Q(1)
    return v


# ---------------------------------------------------------------------------
# Work shared by the checks
# ---------------------------------------------------------------------------

class Shared:
    """The work the checks of one verification run share, each piece built
    on first use and kept for the life of the object: the seed rep, the
    graph of ``params`` (the seed pair unless given), each R(w, u) solved
    once, and the decomposition once per w.  The recursion is not kept: each
    caller evaluates it on the shared graph where it needs it.

    Every check below takes a Shared in place of its representation; given
    a bare representation it makes a fresh Shared, so nothing is kept beyond
    the call unless the caller keeps the Shared."""

    def __init__(self, spec, params=None, rep=None):
        self.spec = spec
        self.params = spec.seed_params() if params is None else tuple(params)
        self._memo = {} if rep is None else {"rep": rep}

    def _get(self, key, make):
        if key not in self._memo:
            self._memo[key] = make()
        return self._memo[key]

    @property
    def rep(self) -> Representation:
        return self._get("rep", lambda: qrep.build_seed_rep(self.spec))

    @property
    def module(self) -> TensorModule:
        return self._get("module", lambda: TensorModule.of(self.rep, self.rep))

    @property
    def graph(self):
        return self._get("graph",
                         lambda: tpg.build_graph(self.spec, self.params))

    def solve(self, qs: QSample, u: Fraction) -> RMatrixResult:
        return self._get(("solve", qs.w, u),
                         lambda: solve_rmatrix(self.rep, qs, u))

    def decomposition(self, qs: QSample):
        return self._get(("decomposition", qs.w),
                         lambda: decompose(self.module, qs))


def _shared(rep):
    return rep if isinstance(rep, Shared) else Shared(rep.spec, rep=rep)


# ---------------------------------------------------------------------------
# Three-site Yang-Baxter products
# ---------------------------------------------------------------------------

def _embed_three(R, d, legs):
    """Embed a two-site operator into site pair ``legs`` of a three-site space."""
    out = {}
    for i, ri in R.items():
        a, b = divmod(i, d)
        for j, v in ri.items():
            ap, bp = divmod(j, d)
            for c in range(d):
                if legs == (0, 1):
                    s, t = (a * d + b) * d + c, (ap * d + bp) * d + c
                elif legs == (1, 2):
                    s, t = (c * d + a) * d + b, (c * d + ap) * d + bp
                else:  # (0, 2)
                    s, t = (a * d + c) * d + b, (ap * d + c) * d + bp
                out.setdefault(s, {})[t] = v
    return out


def check_ybe(rep, qs: QSample, u: Fraction, v: Fraction):
    """Exact residual test of R12(u) R13(uv) R23(v) = R23(v) R13(uv) R12(u)."""
    shared = _shared(rep)
    d = shared.rep.dim
    Ru = shared.solve(qs, u).R
    Rv = shared.solve(qs, v).R
    Ruv = shared.solve(qs, u * v).R
    r12 = _embed_three(Ru, d, (0, 1))
    r13 = _embed_three(Ruv, d, (0, 2))
    r23 = _embed_three(Rv, d, (1, 2))
    lhs = linalg.sparse_mul(linalg.sparse_mul(r12, r13), r23)
    rhs = linalg.sparse_mul(linalg.sparse_mul(r23, r13), r12)
    residual_entries = 0
    for i in set(lhs) | set(rhs):
        li, ri = lhs.get(i, {}), rhs.get(i, {})
        for j in set(li) | set(ri):
            if li.get(j, Q(0)) != ri.get(j, Q(0)):
                residual_entries += 1
    return {"check": "yang-baxter", "u": u, "v": v,
            "ok": residual_entries == 0, "residual_entries": residual_entries}


def check_unitarity(rep, qs: QSample, u: Fraction):
    """Rcheck(u) * Rcheck(1/u) = identity."""
    shared = _shared(rep)
    a = shared.solve(qs, u).Rcheck
    b = shared.solve(qs, 1 / u).Rcheck
    ok = linalg.sparse_mul(a, b) == linalg.sparse_identity(shared.module.dim)
    return {"check": "unitarity", "u": u, "ok": ok}


def parity_spectrum(rep, qs: QSample):
    """Parity of each isotypic component as read off the solved R-matrix.

    With the symmetric coproduct used here the permutation operator is itself
    the intertwiner at u = 1, so Rcheck(1) is the identity and carries no sign
    information.  The parities instead survive in the u -> 0 limit: on the
    component nu, Rcheck(0) acts as the scalar

        parity(nu) * q**((C(nu) - C(top)) / 2),

    so for a positive sample of w (where every power of q is positive) the
    sign of the eigenvalue is the parity.  The parity theorem says these signs
    equal the graph parities and, classically, the symmetric / antisymmetric
    square membership."""
    shared = _shared(rep)
    qs = QSample(abs(qs.w))
    R0 = shared.solve(qs, Q(0)).Rcheck
    out = {}
    for nu, c in component_scalars(shared.decomposition(qs), R0).items():
        if not c:
            raise SolveError(f"Rcheck(0) vanishes on {nu}")
        out[nu] = 1 if c > 0 else -1
    return out


def spectral_compare(rep, qs: QSample, u: Fraction):
    """Exact agreement of Rcheck(u) with the graph-recursion spectral
    decomposition sum(rho_nu(u) * P_nu), normalised by Rcheck(1).

    Certifies Rcheck(1) == identity and Rcheck(u) v == rho_nu(u) v for every
    adapted basis vector v of each component V0(nu).  The adapted bases
    together form a basis of V (x) V and P_nu is the identity on the basis of
    V0(nu) and zero on the others, so this is exactly
    Rcheck(u) * Rcheck(1)**-1 == sum(rho_nu(u) * P_nu), with no projector or
    inverse formed."""
    shared = _shared(rep)
    rho, _ = tpg.eigenvalues_by_recursion(shared.graph, qs, u=u)
    dec = shared.decomposition(qs)
    for comp in dec.components:
        if comp.nu not in rho:
            raise SolveError(f"component {comp.nu} missing from the graph")
    a = shared.solve(qs, u).Rcheck
    b = shared.solve(qs, Q(1)).Rcheck
    try:
        ok = b == linalg.sparse_identity(shared.module.dim) and all(
            c == rho[nu] for nu, c in component_scalars(dec, a).items())
    except DecompositionError:  # Rcheck(u) is not scalar on a component
        ok = False
    return {"check": "spectral-agreement", "u": u, "ok": ok}


# ---------------------------------------------------------------------------
# Deterministic rational sample streams
# ---------------------------------------------------------------------------

def sample_w(rng: random.Random) -> Fraction:
    while True:
        w = Q(rng.randint(-7, 7), rng.randint(1, 7))
        if w not in (0, 1, -1):
            return w


def sample_u(rng: random.Random) -> Fraction:
    while True:
        u = Q(rng.randint(-9, 9), rng.randint(1, 9))
        if u not in (0, 1, -1):
            return u


def with_retries(fn, rng: random.Random, attempts: int = 5):
    """Run fn(rng) retrying on pole / degenerate-sample failures."""
    last = None
    for _ in range(attempts):
        try:
            return fn(rng)
        except (PoleError, SolveError, DecompositionError,
                ZeroDivisionError) as exc:
            last = exc
    raise SolveError(f"no admissible sample in {attempts} attempts: {last}")
