"""Direct solution of the intertwining equations for the spectral R-matrix,
plus the independent consistency checks (Yang-Baxter, unitarity, parity
spectrum, spectral agreement with the graph recursion), all of which read
Rcheck alone, as the integer N / D below.

R solves R * D^u(x) = D^{T,u}(x) * R, D^T the opposite coproduct, for the
fixed-subalgebra generators e_i, f_i (i >= 1) and the affine generator e0
(the only place u enters).  With D^u(e0) = u X + Y, the swap P gives

    P * D^T(x) * P = D(x)  (i >= 1),    P * D^{T,u}(e0) * P = X + u Y,

so Rcheck = P * R solves the same equations in the form

    Rcheck * D(x) = D(x) * Rcheck,      Rcheck * (u X + Y) = (X + u Y) * Rcheck,

and is sum(c_nu * P_nu) on the certified multiplicity-free decomposition.
The e0 equation on each highest weight vector v_nu, in adapted-basis
coordinates (x_k of X v_nu, y_k of Y v_nu, k in component mu), is the small
system c_mu * (u x_k + y_k) = c_nu * (x_k + u y_k).  Every solution of the
full equations solves it, so its nullity 1, a nonzero top coefficient
(normalized to 1: Rcheck is the identity on the top weight space) and the
exact substitution of Rcheck into the full equations certify that Rcheck
spans their null space.  The substitution is checked in integers, on N
below, the integer-scaled D(x), X and Y and, for u = a / b, on a X + b Y
and b X + a Y; the e0 identity holds at u = 0 too, so the parity solve is
certified the same way.

Yang-Baxter is checked in its braid form on Rcheck, which touches only
adjacent legs of V (x) V (x) V:

    Rcheck12(v) Rcheck23(uv) Rcheck12(u) = Rcheck23(u) Rcheck12(uv) Rcheck23(v).

Writing Rcheck = P R and moving each swap to the left turns the right side
into P13 R12(u) R13(uv) R23(v) and the left side into
P13 R23(v) R13(uv) R12(u), so the braid relation is the R-form
R12(u) R13(uv) R23(v) = R23(v) R13(uv) R12(u) with both sides permuted by
P13: the two hold together, and their sides differ in as many entries.

Each solve returns Rcheck as N / D: a sparse integer numerator N = D * Rcheck
and a positive integer D, both divided by their content gcd.  The checks read
N and D only.  Each side of the braid relation is a product of one each of
Rcheck(u), Rcheck(uv) and Rcheck(v), so it is homogeneous of degree 1 in
each: the integer sides N12(v) N23(uv) N12(u) and N23(u) N12(uv) N23(v) are
both D_u * D_uv * D_v times the rational sides, and as that factor is
nonzero they agree (and differ in the same entries) exactly when the
rational sides do.  In the same way unitarity is N(u) N(1/u) = D_u D_{1/u} I,
spectral agreement is N(1) = D_1 I with N(u) acting as D_u * rho_nu(u) on
V0(nu), and as D > 0 the parity signs of N(0) are those of Rcheck(0).

All checks are exact at rational samples; "pass" means the residual is
identically zero.  Every check and solve takes a ``Shared``, which carries
what the checks of one run have in common, so each R(w, u) is solved once
however many checks read it.  N and the Fraction forms of Rcheck and R,
built from N on first read for the rmatrix export and the tests, are sparse
``linalg`` matrices {row: {col: x}}.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import linalg, qrep, tpg
from .qrep import Representation
from .scalars import PoleError, QSample
from .tensor import (DecompositionError, component_scalars, coproduct_action,
                     decompose)

Q = Fraction


class SolveError(RuntimeError):
    """A failure of the sample: a fresh one may pass."""


class CertificateError(RuntimeError):
    """A certificate refused a solve or a check: no fresh sample mends it."""


@dataclass
class RMatrixResult:
    """Rcheck = P * R = N / D, normalized to 1 on the top weight vector and
    certified to span the null space of the intertwining equations.  The
    Fraction forms of Rcheck and R are built from N on first read and kept:
    R is read only by the rmatrix export and the tests."""
    N: dict            # sparse integer numerator, D * Rcheck
    D: int             # positive denominator
    dim: int           # dim V: P sends index a * dim + b to b * dim + a

    @cached_property
    def Rcheck(self):
        return {p: {j: Q(y, self.D) for j, y in row.items()}
                for p, row in self.N.items()}

    @cached_property
    def R(self):
        return _swapped(self.Rcheck, self.dim)


def _swapped(m, d):
    """P * m for the sparse m and the swap P on V (x) V, d = dim V: row
    a * d + b of P * m is row b * d + a of m (the same dict)."""
    return {p: m[q] for p in range(d * d) if (q := (p % d) * d + p // d) in m}


@dataclass
class ComponentSystem:
    """The u-independent part of the solves at one w, with the adapted basis
    b_k and its dual basis d_k (b_k . d_j = delta_kj) scaled to integers:
    P_nu is the sum of b_k d_k^T over the k in component nu, divided by
    ``scale``.  The integer-scaled D(x) and X, Y are the operators of the
    certificate, and X, Y also give the small system's rows."""
    ncomp: int         # number of components
    scale: int
    terms: list        # (component of k, b_k, d_k), integer
    e0_rows: list      # (mu, nu, x_k, y_k) of each small-system row
    fixed: list        # integer-scaled D(x), x = e_i, f_i (i >= 1)
    e0_split: tuple    # (X, Y), D^u(e0) = u X + Y, scaled by one integer


def _denominator(*vs):
    """The lcm of the denominators of the sparse vectors vs."""
    return math.lcm(*(x.denominator for v in vs for x in v.values()))


def _scaled(v, d):
    """d * v for a multiple d of every denominator of the sparse vector v."""
    return {j: x.numerator * (d // x.denominator) for j, x in v.items()}


def _integral(*ms):
    """[d * m for m in ms] for d the lcm of all the denominators of the
    sparse matrices ms."""
    d = _denominator(*(row for m in ms for row in m.values()))
    return [{i: _scaled(row, d) for i, row in m.items()} for m in ms]


def component_system(shared, qs: QSample) -> ComponentSystem:
    """Invert the adapted basis of ``shared.decomposition(qs)`` per weight
    block (it is a basis of weight vectors, so each block is square) for
    the dual basis and the coordinates of X v_nu and Y v_nu."""
    dec = shared.decomposition(qs)
    basis = [v for comp in dec.components for v in comp.basis]
    comp_of = [n for n, comp in enumerate(dec.components) for _ in comp.basis]
    in_block = {}
    for k, v in enumerate(basis):
        in_block.setdefault(dec.weights[min(v)], []).append(k)
    dual = [None] * len(basis)
    for eta, idxs in dec.blocks.items():
        ks = in_block[eta]
        inv = linalg.invert([[basis[k].get(p, Q(0)) for k in ks] for p in idxs])
        for k, row in zip(ks, inv):
            dual[k] = {p: y for p, y in zip(idxs, row) if y}
    scale = math.lcm(*(_denominator(b) * _denominator(d)
                       for b, d in zip(basis, dual)))
    terms = [(n, _scaled(b, scale // _denominator(d)),
              _scaled(d, _denominator(d)))
             for n, b, d in zip(comp_of, basis, dual)]

    def coords(cols, v):
        z = linalg.sparse_mat_vec(cols, v)
        ks = in_block[dec.weights[min(z)]] if z else []
        return {k: x for k in ks
                if (x := sum(dual[k].get(p, 0) * y for p, y in z.items()))}

    # D^u(e0) = u X + Y: Y = D^0(e0) and X = D^1(e0) - Y
    one, y = (coproduct_action(dec.rep, "e", 0, qs, u=Q(t)) for t in (1, 0))
    x, y = _integral(linalg.sparse_lincomb(((1, one), (-1, y))), y)
    xcols, ycols = linalg.sparse_transpose(x), linalg.sparse_transpose(y)
    e0_rows = []
    for nu, comp in enumerate(dec.components):
        xs, ys = coords(xcols, comp.basis[0]), coords(ycols, comp.basis[0])
        e0_rows += [(comp_of[k], nu, xs.get(k, 0), ys.get(k, 0))
                    for k in sorted(xs.keys() | ys.keys())]
    return ComponentSystem(
        len(dec.components), scale, terms, e0_rows,
        [_integral(a)[0] for a in dec.raising + dec.lowering], (x, y))


def _solve_scalars(system: ComponentSystem, u: Fraction):
    """The c_nu, normalized to c_top = 1, from the small system's null
    space, certified one-dimensional."""
    n = system.ncomp
    rows = []
    for mu, nu, x, y in system.e0_rows:
        row = [Q(0)] * n
        row[mu] += u * x + y
        row[nu] -= x + u * y
        rows.append(row)
    kern = linalg.kernel_basis(rows, ncols=n)
    if len(kern) != 1:
        raise SolveError(f"component system has nullity {len(kern)}, "
                         f"expected 1 (sample may be degenerate)")
    c = kern[0]
    if not c[0]:   # components[0] is spanned by v_top (x) v_top
        raise SolveError("solution vanishes on the top weight vector")
    return [x / c[0] for x in c]


def solve_rmatrix(shared: Shared, qs: QSample, u: Fraction) -> RMatrixResult:
    """R(w, u) for the seed rep of the Shared ``shared``.

    Raises SolveError if the small system is degenerate at this sample, and
    CertificateError unless Rcheck commutes with D(x) for x = e_i, f_i
    (i >= 1) and Rcheck * (u X + Y) == (X + u Y) * Rcheck, checked in
    integers as N * (a X + b Y) == (b X + a Y) * N for u = a / b."""
    system = shared.components(qs)
    c = dict(enumerate(_solve_scalars(system, u)))
    cd = _denominator(c)
    c = _scaled(c, cd)
    acc = {}      # cd * scale * Rcheck = sum of c_nu(k) * b_k d_k^T
    for n, b, dk in system.terms:
        for p, x in b.items():
            a, xc = acc.setdefault(p, {}), x * c[n]
            for j, y in dk.items():
                a[j] = a.get(j, 0) + xc * y
    d = cd * system.scale
    g = math.gcd(d, *(y for a in acc.values() for y in a.values()))
    num = {p: row for p, a in acc.items()
           if (row := {j: y // g for j, y in a.items() if y})}
    a, b = u.numerator, u.denominator
    x, y = system.e0_split
    equations = [(m, m) for m in system.fixed] + [
        (linalg.sparse_lincomb(((a, x), (b, y))),
         linalg.sparse_lincomb(((b, x), (a, y))))]
    for lhs, rhs in equations:
        if linalg.sparse_mul(num, lhs) != linalg.sparse_mul(rhs, num):
            raise CertificateError("Rcheck fails the intertwining equations")
    return RMatrixResult(num, d // g, shared.rep.dim)


# ---------------------------------------------------------------------------
# Work shared by the checks
# ---------------------------------------------------------------------------

class Shared:
    """The work the checks of one verification run share, each piece built
    on first use and kept for the life of the object: the seed rep, the
    graph of ``params`` (the seed pair unless given), each R(w, u) solved
    once, and the decomposition and the solves' ``ComponentSystem`` once
    per w.  The recursion is not kept: each caller evaluates it on the
    shared graph where it needs it."""

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
    def graph(self):
        return self._get("graph",
                         lambda: tpg.build_graph(self.spec, self.params))

    def solve(self, qs: QSample, u: Fraction) -> RMatrixResult:
        return self._get(("solve", qs.w, u),
                         lambda: solve_rmatrix(self, qs, u))

    def decomposition(self, qs: QSample):
        return self._get(("decomposition", qs.w),
                         lambda: decompose(self.rep, qs))

    def components(self, qs: QSample) -> ComponentSystem:
        return self._get(("components", qs.w),
                         lambda: component_system(self, qs))


# ---------------------------------------------------------------------------
# Three-site Yang-Baxter products
# ---------------------------------------------------------------------------

def _on_legs(m, d, first):
    """The two-site operator m on legs 1, 2 (``first``) or legs 2, 3 of the
    three-site space, whose index (a, b, c) is (a * d + b) * d + c."""
    if first:
        return {i * d + c: {j * d + c: x for j, x in row.items()}
                for i, row in m.items() for c in range(d)}
    return {c * d * d + i: {c * d * d + j: x for j, x in row.items()}
            for c in range(d) for i, row in m.items()}


def check_ybe(shared: Shared, qs: QSample, u: Fraction, v: Fraction):
    """Exact test of the braid relation
    Rcheck12(v) Rcheck23(uv) Rcheck12(u) = Rcheck23(u) Rcheck12(uv) Rcheck23(v),
    the R-form R12(u) R13(uv) R23(v) = R23(v) R13(uv) R12(u) with both sides
    permuted by P13, on the integer numerators N (module docstring), so
    ``residual_entries`` counts the entries where the R-form sides differ
    too.  The sides are built and compared one row at a time, so neither
    three-site product is held whole."""
    d = shared.rep.dim
    n_u, n_uv, n_v = (shared.solve(qs, x).N for x in (u, u * v, v))
    lhs = (_on_legs(n_v, d, True), _on_legs(n_uv, d, False),
           _on_legs(n_u, d, True))
    rhs = (_on_legs(n_u, d, False), _on_legs(n_uv, d, True),
           _on_legs(n_v, d, False))
    residual_entries = 0
    for i in range(d ** 3):
        li, ri = _product_row(lhs, i), _product_row(rhs, i)
        if li != ri:
            residual_entries += sum(li.get(j) != ri.get(j)
                                    for j in li.keys() | ri.keys())
    return {"check": "yang-baxter", "u": u, "v": v,
            "ok": residual_entries == 0, "residual_entries": residual_entries}


def _product_row(factors, i):
    """Row i of the product of the sparse matrices ``factors``."""
    row = factors[0].get(i, {})
    for m in factors[1:]:
        row = linalg.sparse_vec_mul(row, m)
    return row


def check_unitarity(shared: Shared, qs: QSample, u: Fraction):
    """Rcheck(u) * Rcheck(1/u) = identity, as N(u) N(1/u) = D_u D_{1/u} I."""
    a = shared.solve(qs, u)
    b = shared.solve(qs, 1 / u)
    ok = linalg.sparse_mul(a.N, b.N) == linalg.sparse_identity(
        shared.rep.dim ** 2, a.D * b.D)
    return {"check": "unitarity", "u": u, "ok": ok}


def parity_spectrum(shared: Shared, qs: QSample):
    """Parity of each isotypic component as read off the solved R-matrix.

    With the symmetric coproduct used here the permutation operator is itself
    the intertwiner at u = 1, so Rcheck(1) is the identity and carries no sign
    information.  The parities instead survive in the u -> 0 limit: on the
    component nu, Rcheck(0) acts as the scalar

        parity(nu) * q**((C(nu) - C(top)) / 2).

    Every component differs from the top by roots of L0, so C(nu) - C(top) is
    an integer and q**((C(nu) - C(top)) / 2) = w**(2 * (C(nu) - C(top))) is
    positive at every sample w, negative ones included: the sign of the
    eigenvalue is the parity.  The parity theorem says these signs equal the
    graph parities and, classically, the symmetric / antisymmetric square
    membership.  The signs are read from N(0) = D * Rcheck(0), which has the
    same signs because D > 0."""
    r0 = shared.solve(qs, Q(0))
    if r0.D <= 0:
        raise CertificateError(f"Rcheck(0) has denominator {r0.D}, expected > 0")
    out = {}
    for nu, c in component_scalars(shared.decomposition(qs), r0.N).items():
        if not c:
            raise CertificateError(f"Rcheck(0) vanishes on {nu}")
        out[nu] = 1 if c > 0 else -1
    return out


def spectral_compare(shared: Shared, qs: QSample, u: Fraction):
    """Exact agreement of Rcheck(u) with the graph-recursion spectral
    decomposition sum(rho_nu(u) * P_nu), normalised by Rcheck(1).

    Certifies Rcheck(1) == identity and Rcheck(u) v == rho_nu(u) v for every
    adapted basis vector v of each component V0(nu), on the integer forms:
    N(1) == D_1 * identity and N(u) v == D_u * rho_nu(u) v.  The adapted
    bases together form a basis of V (x) V and P_nu is the identity on the
    basis of V0(nu) and zero on the others, so this is exactly
    Rcheck(u) * Rcheck(1)**-1 == sum(rho_nu(u) * P_nu), with no projector or
    inverse formed."""
    rho, _ = tpg.eigenvalues_by_recursion(shared.graph, qs, u=u)
    dec = shared.decomposition(qs)
    for comp in dec.components:
        if comp.nu not in rho:
            raise CertificateError(f"component {comp.nu} missing from the graph")
    a = shared.solve(qs, u)
    b = shared.solve(qs, Q(1))
    try:
        ok = b.N == linalg.sparse_identity(shared.rep.dim ** 2, b.D) and all(
            c == a.D * rho[nu] for nu, c in component_scalars(dec, a.N).items())
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
    """Run fn(rng), retrying only on a failure of the sample: a pole or a
    degenerate solve.  Other errors propagate: a rational w != 0, +-1 is
    no root of unity, so no decomposition depends on the sample, and a
    refused certificate stays refused at any sample."""
    last = None
    for _ in range(attempts):
        try:
            return fn(rng)
        except (PoleError, SolveError) as exc:
            last = exc
    raise SolveError(f"no admissible sample in {attempts} attempts: {last}")
