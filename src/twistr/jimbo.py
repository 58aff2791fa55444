"""Direct solution of the intertwining equations for the spectral R-matrix,
plus the independent consistency checks (Yang-Baxter, unitarity, parity
spectrum, spectral agreement with the graph recursion), all of which read
the n scalars c_nu of Rcheck alone.

R solves R * D^u(x) = D^{T,u}(x) * R, D^T the opposite coproduct, for the
fixed-subalgebra generators e_i, f_i (i >= 1) and the affine generator e0
(the only place u enters).  With D^u(e0) = u X + Y, the swap P gives

    P * D^T(x) * P = D(x)  (i >= 1),    P * D^{T,u}(e0) * P = X + u Y,

so Rcheck = P * R solves the same equations in the form

    Rcheck * D(x) = D(x) * Rcheck,      Rcheck * (u X + Y) = (X + u Y) * Rcheck.

On the multiplicity-free decomposition V (x) V = sum of the V0(nu), every
solution is sum(c_nu * P_nu) (Jimbo 1986), P_nu the projector onto the span
of V0(nu)'s adapted basis b_k along the others: u enters the c_nu only.
The e0 equation on each highest weight vector v_nu, in adapted-basis
coordinates (x_k of X v_nu, y_k of Y v_nu, k in component mu), is the small
system c_mu * (u x_k + y_k) = c_nu * (x_k + u y_k).  ``component_system``
certifies the components once per w, with the probe M = sum(t_nu * scale *
P_nu) for the distinct integers t_nu = nu + 1:

1. M passes ``_is_module_map``: it preserves weight, commutes with the
   integer D(e_i) and is G-symmetric, so it commutes with D(f_i) too
   (below).  Its eigenspaces, the component spans as the t_nu are distinct,
   are then invariant, so every P_nu and every sum(c_nu * P_nu) is a module
   map.
2. X and Y commute with every D(f_i), i >= 1 (``linalg.products_equal``):
   [e0, f_i] = 0 and the u-grading imply it; it is checked, not assumed.
3. ``decompose`` builds every adapted basis vector as a word in the D(f_i)
   applied to its v_nu.  By 1 and 2, E = Rcheck (u X + Y) - (X + u Y) Rcheck
   commutes with every D(f_i), so E = 0 once E v_nu = 0 for every nu.
4. E v_nu = 0 is exactly the small system's rows if they list every
   coordinate of X v_nu and Y v_nu, certified once per component as
   sum_k x_k b_k = scale X v_nu, and the same for Y.
5. So nullity 1 and c_top != 0 of the small system certify each solve, with
   no Rcheck built.  (The dual basis d_k that gives P_nu is exact, from
   ``linalg.invert``, the elimination the nullity reads too; step 4 reads
   it back on 2n vectors.)

The f-half of step 1 needs no product.  V carries a contravariant form, a
diagonal g with f_i = g^-1 e_i^T g (i >= 1), so with G = g (x) g,
D(f_i) = c_i G^-1 D(e_i)^T G, one c_i != 0 per i (``contravariant_form``
certifies this at w).  If M commutes with D(e_i) and G_p M_pj = G_j M_jp,
then M D(f_i) = c_i G^-1 (D(e_i) M)^T G = c_i G^-1 (M D(e_i))^T G =
D(f_i) M.  The true probe passes: components with distinct highest
weights are G-orthogonal, so each P_nu is G-symmetric.

Yang-Baxter is checked in its braid form on Rcheck, which touches only
adjacent legs of V (x) V (x) V:

    Rcheck12(v) Rcheck23(uv) Rcheck12(u) = Rcheck23(u) Rcheck12(uv) Rcheck23(v).

Writing Rcheck = P R and moving each swap to the left turns it into the
R-form R12(u) R13(uv) R23(v) = R23(v) R13(uv) R12(u) with both sides
permuted by P13: the two hold together.  Both sides are compared on one
vector per component only, the cyclic vector g_nu = v_nu (x) v_low of
V0(nu) (x) V, v_low the lowest weight vector of V (close to Jimbo's 1986
module-map argument).  That proves the sides equal by four steps:

1. Coassociativity gives D2(x) = D(q^{-h/2}) (x) x + D(x) (x) q^{h/2} on
   V (x) V (x) V for x = e_i, f_i (i >= 1), and the same with the legs
   mirrored.  So A (x) 1 and 1 (x) A commute with D2(x) for every
   weight-preserving module map A of V (x) V, as each sum(c_nu * P_nu) is
   by the certificate at w; so do both sides and their difference.
2. For irreducible modules M with highest weight vector m and V with
   lowest weight vector v_low, M (x) V is generated by m (x) v_low: as
   f_i v_low = 0, D(f_i)(m' (x) v_low) = f_i m' (x) q^{h/2} v_low reaches
   M (x) v_low, and D(e_i)(m' (x) x) = q^{-h/2} m' (x) e_i x +
   e_i m' (x) q^{h/2} x then reaches M (x) e_i x, by induction on x.  V is
   irreducible under the fixed subalgebra in all three families:
   ``_lowest_index`` certifies one basis vector killed by every f_i, with
   V's weights distinct.
3. g_nu is a weight vector, so the module it generates is spanned by words
   in D2(e_i), D2(f_i) applied to it.  The difference of the sides commutes
   with those words, so it vanishes there once it vanishes on g_nu.
4. V (x) V (x) V is the sum of the V0(nu) (x) V, each generated by its g_nu.

Each Rcheck is applied on one pair of legs as B diag(c) B^-1 (the dual
coordinates of each two-site slice, times their c_nu, recombined with the
b_k), and a g_nu on which the sides differ is an exact witness.

Each solve returns the c_nu as a primitive integer vector with c_top > 0,
Rcheck = sum(c_nu * P_nu) / c_top.  A braid side holds one each of
Rcheck(u), Rcheck(uv) and Rcheck(v), so with sum(c_nu * scale * P_nu) for
each factor both sides are the rational ones times one nonzero integer.  The P_nu are independent, so unitarity
Rcheck(u) Rcheck(1/u) = I is c_nu(u) c_nu(1/u) = c_top(u) c_top(1/u) for
every nu, spectral agreement is c(1) constant and c_nu(u) = c_top(u)
rho_nu(u), and the parity signs of Rcheck(0) are those of the c_nu(0).

All checks are exact at rational samples.  Every check and solve takes a
``Shared``, which solves each R(w, u) once however many checks read it and
keeps two records per w: the decomposition and the certified
``ComponentSystem``.  The integer form N / D of Rcheck and the Fraction
forms Rcheck and R, sparse ``linalg`` matrices {row: {col: x}}, are built
on first read, for the rmatrix export and the tests.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import linalg, qrep, tpg
from .qrep import Representation, RepresentationError
from .scalars import PoleError, QSample
from .tensor import coproduct_action, decompose

Q = Fraction


class SolveError(RuntimeError):
    """A failure of the sample: a fresh one may pass."""


class CertificateError(RuntimeError):
    """A certificate refused a solve or a check: no fresh sample mends it."""


@dataclass
class ComponentSystem:
    """The u-independent part of the solves at one w, in ints, certified by
    ``component_system``: the decomposition's basis vectors b_k and their
    dual basis d_k (b_k . d_j = delta_kj) times ``scale``, so P_nu is the
    sum of b_k d_k^T over the k in component nu, over ``scale``, and the
    rows of the small system."""
    ncomp: int         # number of components
    scale: int
    terms: list        # (component of k, b_k, scale * d_k), integer
    e0_rows: list      # (k, nu, x_k, y_k): b_k's coefficients in
                       # scale * X v_nu and scale * Y v_nu


@dataclass
class RMatrixResult:
    """Rcheck = P * R = sum(c_nu * P_nu) / c_top, certified to span the null
    space of the intertwining equations (module docstring).  The checks read
    c alone.  The integer form N / D and the Fraction forms of Rcheck and R
    are built on first read and kept: only the rmatrix export and the tests
    read them."""
    c: dict                  # {nu: c_nu}: primitive ints, c_top = c[0] > 0,
                             # zero entries left out
    system: ComponentSystem  # the certified components at w
    dim: int                 # dim V: P sends a * dim + b to b * dim + a

    @cached_property
    def _integer_form(self):
        """(N, D): N = D * Rcheck sparse integer and D > 0, both divided by
        their content gcd."""
        acc = _outer_sum(self.system.terms, self.c)
        d = self.c[0] * self.system.scale
        g = math.gcd(d, *(y for row in acc.values() for y in row.values()))
        return ({p: {j: y // g for j, y in row.items()}
                 for p, row in acc.items()}, d // g)

    N = property(lambda self: self._integer_form[0])
    D = property(lambda self: self._integer_form[1])

    @cached_property
    def Rcheck(self):
        """N / D in Fractions, one Fraction per distinct entry of N."""
        memo, d = {}, self.D
        return {p: {j: memo[y] if y in memo else memo.setdefault(y, Q(y, d))
                    for j, y in row.items()} for p, row in self.N.items()}

    @cached_property
    def R(self):
        return _swapped(self.Rcheck, self.dim)


def _swapped(m, d):
    """P * m for the sparse m and the swap P on V (x) V, d = dim V: row
    a * d + b of P * m is row b * d + a of m (the same dict)."""
    return {p: m[q] for p in range(d * d) if (q := (p % d) * d + p // d) in m}


def _outer_sum(terms, coef):
    """The sparse integer sum of coef[n] * b_k d_k^T over the (n, b_k, d_k)
    of ``terms`` with n a key of coef, that is scale * sum(coef[n] * P_n),
    with the entries that cancel dropped."""
    acc = {}
    for n, b, dk in terms:
        if n not in coef:
            continue
        for p, x in b.items():
            a, xc = acc.setdefault(p, {}), x * coef[n]
            for j, y in dk.items():
                a[j] = a.get(j, 0) + xc * y
    return {p: row for p, a in acc.items()
            if (row := {j: y for j, y in a.items() if y})}


def _e0_split(rep, qs: QSample):
    """(X, Y), sparse integer, with D^u(e0) = (u X + Y) / d for one integer
    d: Y = d D^0(e0) and X = d D^1(e0) - Y."""
    (one, _), (y, _) = (coproduct_action(rep, "e", 0, qs, u=Q(t))
                        for t in (1, 0))
    return linalg.sparse_lincomb(((1, one), (-1, y))), y


def component_system(shared, qs: QSample) -> ComponentSystem:
    """Certify the form G at w (``contravariant_form``), then invert the
    integer adapted basis of ``shared.decomposition(qs)`` per weight block
    (it is a basis of weight vectors, so each block is square) for the dual
    basis and the coordinates of X v_nu and Y v_nu, and certify the result
    (``_certify``).  ``invert`` hands out each d_k over its own pivot entry
    a_k, so ``scale`` is the lcm of the a_k and each entry takes one product
    to reach it.  Each small-system row takes x_k and y_k in the same scaled
    coordinates, so its null space is that of the unscaled rows."""
    G = contravariant_form(shared, qs)
    dec = shared.decomposition(qs)
    basis = [v for comp in dec.components for v in comp.basis]
    comp_of = [n for n, comp in enumerate(dec.components) for _ in comp.basis]
    square = dec.rep.square
    in_block = [[] for _ in square.blocks]  # basis numbers k per weight block
    for k, v in enumerate(basis):
        in_block[square.block[min(v)]].append(k)
    dual, den = [None] * len(basis), [None] * len(basis)
    for ks, idxs in zip(in_block, square.blocks.values()):
        # the block as sparse rows p, its columns the places of the ks
        at = {p: r for r, p in enumerate(idxs)}
        rows = [{} for _ in idxs]
        for c, k in enumerate(ks):
            for p, x in basis[k].items():
                rows[at[p]][c] = x
        for k, (row, a) in zip(ks, linalg.invert(rows, len(ks))):
            dual[k], den[k] = {idxs[c]: y for c, y in row.items()}, a
    scale = math.lcm(*den)
    dual = [{p: y * (scale // a) for p, y in v.items()}
            for v, a in zip(dual, den)]

    def coords(cols, v):
        z = linalg.mat_vec(cols, v)
        ks = in_block[square.block[min(z)]] if z else []
        return {k: x for k in ks
                if (x := sum(dual[k].get(p, 0) * y for p, y in z.items()))}

    x, y = _e0_split(dec.rep, qs)
    xcols, ycols = linalg.sparse_transpose(x), linalg.sparse_transpose(y)
    e0_rows = []
    for nu, comp in enumerate(dec.components):
        xs, ys = coords(xcols, comp.basis[0]), coords(ycols, comp.basis[0])
        e0_rows += [(k, nu, xs.get(k, 0), ys.get(k, 0))
                    for k in sorted(xs.keys() | ys.keys())]
    system = ComponentSystem(len(dec.components), scale,
                             list(zip(comp_of, basis, dual)), e0_rows)
    _certify(dec, G, system, x, y)
    return system


def _certify(dec, G, system: ComponentSystem, x, y):
    """Steps 1, 2 and 4 of the module docstring for the components of
    ``dec``, or CertificateError: the probe sum(t_nu * b_k d_k^T), t_nu =
    nu + 1, passes ``_is_module_map``; X and Y commute with every integer
    D(f_i) of ``dec``; and the rows of each component nu give
    sum_k x_k b_k = scale X v_nu and sum_k y_k b_k = scale Y v_nu."""
    l = len(dec.fixed) // 2
    t = {n: n + 1 for n in range(system.ncomp)}
    probe = _outer_sum(system.terms, t)
    if not _is_module_map(probe, dec.rep.square.block, G, dec.fixed[:l]):
        raise CertificateError("the probe sum(t_nu P_nu) is no module map")
    for name, m in (("X", x), ("Y", y)):
        for i, f in enumerate(dec.fixed[l:], 1):
            if not linalg.products_equal(m, f, f, m):
                raise CertificateError(f"{name} does not commute with D(f_{i})")
    # each vector as the one-row matrix {0: v}, to sum with sparse_lincomb
    cols = linalg.sparse_transpose(x), linalg.sparse_transpose(y)
    for nu, comp in enumerate(dec.components):
        rows = [(system.terms[k][1], xy)
                for k, n, *xy in system.e0_rows if n == nu]
        for i, m in enumerate(cols):
            image = {0: linalg.mat_vec(m, comp.basis[0])}
            if linalg.sparse_lincomb((xy[i], {0: b}) for b, xy in rows) != \
                    linalg.sparse_lincomb(((system.scale, image),)):
                raise CertificateError(
                    f"the small system misses a row of component {comp.nu}")


def _solve_scalars(system: ComponentSystem, u: Fraction):
    """The c_nu, up to c_top > 0, as the primitive integer vector {nu: c_nu}
    of the small system's null space, certified one-dimensional, its zero
    entries left out.  Each row, the equation c_mu (u x + y) = c_nu (x + u
    y), is built times b for u = a / b, so in ints; scaling a row leaves the
    null space unchanged."""
    a, b = u.numerator, u.denominator
    rows = []
    for k, nu, x, y in system.e0_rows:
        row = {system.terms[k][0]: a * x + b * y}
        row[nu] = row.get(nu, 0) - (b * x + a * y)
        rows.append({n: z for n, z in row.items() if z})
    kern = linalg.kernel_basis(rows, range(system.ncomp))
    if len(kern) != 1:
        raise SolveError(f"component system has nullity {len(kern)}, "
                         f"expected 1 (sample may be degenerate)")
    c = kern[0]
    # components[0] is spanned by v_top (x) v_top
    if 0 not in c:
        raise SolveError("solution vanishes on the top weight vector")
    return c if c[0] > 0 else {k: -x for k, x in c.items()}


def solve_rmatrix(shared: Shared, qs: QSample, u: Fraction) -> RMatrixResult:
    """R(w, u) for the seed rep of the Shared ``shared``, as its c_nu.

    Raises SolveError if the small system is degenerate at this sample, and
    CertificateError if the components at w are refused
    (``component_system``)."""
    system = shared.components(qs)
    return RMatrixResult(_solve_scalars(system, u), system, shared.rep.dim)


def contravariant_form(shared, qs: QSample):
    """G = g (x) g for the integer diagonal g of V's contravariant form
    (``Representation.g``), read before any decomposition, certified at w
    on the integer D(e_i), D(f_i) (i >= 1) of ``shared.decomposition(qs)``:
    D(f_i) = c_i G^-1 D(e_i)^T G for one c_i != 0 per i, that is D(f_i) and
    D(e_i)^T have the same nonzeros and G_p F_pj / (G_j E_jp) is the same
    at each.  Raises CertificateError otherwise."""
    try:
        g = shared.rep.g
    except RepresentationError as exc:
        raise CertificateError(f"V has no contravariant form: {exc}") from None
    G = [x * y for x in g for y in g]
    fixed = shared.decomposition(qs).fixed
    l = len(fixed) // 2
    for i, (e, f) in enumerate(zip(fixed[:l], fixed[l:]), 1):
        # (G_p F_pj, G_j E_jp) at each nonzero F_pj
        ratios = [(G[p] * y, G[j] * e.get(j, {}).get(p, 0))
                  for p, row in f.items() for j, y in row.items()]
        a, b = ratios[0] if ratios else (0, 1)
        same = sum(map(len, e.values())) == len(ratios) and all(
            t and s * b == t * a for s, t in ratios)
        if not same:
            raise CertificateError(
                f"D(f_{i}) is not c G^-1 D(e_{i})^T G at w = {qs.w}")
    return G


def _is_module_map(n, block, G, raising):
    """True if the sparse integer N preserves weight (keeps each index p in
    its weight block ``block[p]``), commutes with each D(e_i) of
    ``raising`` and is G-symmetric, G_p N_pj = G_j N_jp, for a G certified
    by ``contravariant_form``: then it commutes with D(f_i) too (module
    docstring)."""
    for p, row in n.items():
        for j, y in row.items():
            if block[p] != block[j]:
                return False
            if G[p] * y != G[j] * n.get(j, {}).get(p, 0):
                return False
    return all(linalg.products_equal(n, m, m, n) for m in raising)


# ---------------------------------------------------------------------------
# Work shared by the checks
# ---------------------------------------------------------------------------

class Shared:
    """The work the checks of one verification run share, each piece built
    on first use and kept for the life of the object: the seed rep, the
    graph of ``params`` (the seed pair unless given), the c_nu of each
    R(w, u), solved once, and per w two records: the decomposition and the
    ``ComponentSystem`` certified at w.  The recursion is not kept: each
    caller evaluates it on the shared graph where it needs it."""

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

def _apply_rcheck(system, dual_cols, c, x, d, first):
    """sum(c_nu * scale * P_nu), the integer Rcheck of the c_nu c, applied
    on legs 1, 2 (``first``) or legs 2, 3 of the sparse three-site column
    vector x, index (i1 * d + i2) * d + i3, as B diag(c) B^-1: the dual
    coordinates d_k . z of each two-site slice z, keyed k * d + the index of
    the third leg (``dual_cols`` holds the columns {p: {k: (d_k)_p}}), times
    c_nu of k's component, recombined with the b_k."""
    coord, dd = {}, d * d
    for i, y in x.items():
        if first:
            p, s = divmod(i, d)
        else:
            s, p = divmod(i, dd)
        for k, z in dual_cols.get(p, {}).items():
            key = k * d + s
            coord[key] = coord.get(key, 0) + y * z
    out = {}
    for key, y in coord.items():
        k, s = divmod(key, d)
        n, b, _ = system.terms[k]
        if not (y := y * c.get(n, 0)):
            continue
        for p, z in b.items():
            i = p * d + s if first else s * dd + p
            out[i] = out.get(i, 0) + y * z
    return {i: y for i, y in out.items() if y}


def _lowest_index(rep):
    """The index of the one basis vector of V that every f_i (i >= 1)
    kills, or None unless the weights of V are distinct and exactly one
    index is killed: then the joint kernel of the f_i is that vector's line,
    so V, completely reducible, is irreducible with that lowest weight
    vector."""
    hit = {j for m in rep.f[1:] for row in m.values() for j in row}
    low = [j for j in range(rep.dim) if j not in hit]
    if len(low) != 1 or len(set(rep.weights)) != rep.dim:
        return None
    return low[0]


def check_ybe(shared: Shared, qs: QSample, u: Fraction, v: Fraction):
    """Exact test of the braid relation
    Rcheck12(v) Rcheck23(uv) Rcheck12(u) = Rcheck23(u) Rcheck12(uv) Rcheck23(v),
    the R-form R12(u) R13(uv) R23(v) = R23(v) R13(uv) R12(u) with both sides
    permuted by P13, with each Rcheck applied as B diag(c) B^-1 in integers
    (module docstring).

    ``ok`` is True when V has one lowest weight vector v_low, which with the
    components certified at w makes the cyclic vectors a proof, and the
    sides agree on every g_nu = v_nu (x) v_low, v_nu the decomposition's
    integer highest weight vector.  A g_nu where the sides differ is an
    exact witness that the relation fails."""
    cs = {x: shared.solve(qs, x).c for x in (u, u * v, v)}
    low = _lowest_index(shared.rep)
    ok = low is not None
    if ok:
        d, system = shared.rep.dim, shared.components(qs)
        dual_cols = linalg.sparse_transpose(
            {k: dk for k, (_, _, dk) in enumerate(system.terms)})

        def side(g, factors):
            # the last factor of a side is applied to the column first
            for x, first in factors:
                g = _apply_rcheck(system, dual_cols, cs[x], g, d, first)
            return g

        lhs = ((u, True), (u * v, False), (v, True))
        rhs = ((v, False), (u * v, True), (u, False))
        gs = ({p * d + low: y for p, y in comp.basis[0].items()}
              for comp in shared.decomposition(qs).components)
        ok = all(side(g, lhs) == side(g, rhs) for g in gs)
    return {"check": "yang-baxter", "u": u, "v": v, "ok": ok}


def check_unitarity(shared: Shared, qs: QSample, u: Fraction):
    """Rcheck(u) * Rcheck(1/u) = identity, as c_nu(u) c_nu(1/u) =
    c_top(u) c_top(1/u) for every component nu."""
    res = shared.solve(qs, u)
    a, b = res.c, shared.solve(qs, 1 / u).c
    ok = all(a.get(n, 0) * b.get(n, 0) == a[0] * b[0]
             for n in range(res.system.ncomp))
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
    membership.  The signs are those of the c_nu(0), as Rcheck(0) =
    sum(c_nu(0) * P_nu) / c_top(0) with the denominator c_top(0) > 0."""
    c = shared.solve(qs, Q(0)).c
    if c.get(0, 0) <= 0:
        raise CertificateError(
            f"Rcheck(0) has denominator c_top = {c.get(0, 0)}, expected > 0")
    out = {}
    for n, comp in enumerate(shared.decomposition(qs).components):
        if n not in c:
            raise CertificateError(f"Rcheck(0) vanishes on {comp.nu}")
        out[comp.nu] = 1 if c[n] > 0 else -1
    return out


def spectral_compare(shared: Shared, qs: QSample, u: Fraction):
    """Exact agreement of Rcheck(u) with the graph-recursion spectral
    decomposition sum(rho_nu(u) * P_nu), normalised by Rcheck(1).

    Certifies Rcheck(1) == identity, as c(1) constant, and
    Rcheck(u) = sum(rho_nu(u) * P_nu), as c_nu(u) == c_top(u) * rho_nu(u)
    for every component nu.  The P_nu are independent, so this is exactly
    Rcheck(u) * Rcheck(1)**-1 == sum(rho_nu(u) * P_nu), with no projector or
    inverse formed."""
    rho, _ = tpg.eigenvalues_by_recursion(shared.graph, qs, u=u)
    names = [comp.nu for comp in shared.decomposition(qs).components]
    for nu in names:
        if nu not in rho:
            raise CertificateError(f"component {nu} missing from the graph")
    a = shared.solve(qs, u).c
    b = shared.solve(qs, Q(1)).c
    ok = all(b.get(n, 0) == b[0] for n in range(len(names))) and all(
        a.get(n, 0) == a[0] * rho[nu] for n, nu in enumerate(names))
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
