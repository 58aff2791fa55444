"""Independent oracles the tests check the library against: the Casimir and
dimension closed forms, the trace pairing, the Freudenthal weight multisets
with the brute-force tensor and symmetric-square decompositions, the
L-parent classes of a branching table, the swap, the opposite coproduct and
the R-form three-site Yang-Baxter product, the spinor's affine pair by
constraint solve, the dense classical and quantum relation checkers (the
quantum one at a sampled q, with q-integers and q-factorials), the
component scalars in Fractions, and a bracket product expanded by
gcd-reducing field arithmetic, with RatFun evaluation at a rational point.
It also holds the dense matrix arithmetic in Fractions that these compute
with (list-of-lists, with ``dense`` and ``sparse`` to and from the library's
sparse matrices), and Gauss-Jordan elimination, with the kernel, inverse and
component-solve small system read from it."""

import itertools
import math
from fractions import Fraction
from operator import add, mul, sub

from twistr import linalg
from twistr.branching import BranchingError
from twistr.jimbo import SolveError
from twistr.liealg import (eps, inner, is_dominant, wadd, weyl_vector, wscale,
                           wsub)
from twistr.scalars import DegenerateParameterError, RatFun, bracket
from twistr.tensor import DecompositionError

Q = Fraction


# ---------------------------------------------------------------------------
# Roots, the trace pairing, Casimir and dimension closed forms
# ---------------------------------------------------------------------------

def positive_roots(l0type, l):
    roots = []
    for i in range(1, l + 1):
        for j in range(i + 1, l + 1):
            roots.append(wsub(eps(i, l), eps(j, l)))
            roots.append(wadd(eps(i, l), eps(j, l)))
    for i in range(1, l + 1):
        roots.append(eps(i, l) if l0type == "B" else wscale(eps(i, l), Q(2)))
    return roots


def simple_roots(l0type, l):
    out = [wsub(eps(i, l), eps(i + 1, l)) for i in range(1, l)]
    out.append(eps(l, l) if l0type == "B" else wscale(eps(l, l), Q(2)))
    return out


def trace_pairing(x, y):
    """(X, Y) = tr(XY)/2, the gl(n) invariant form used throughout."""
    n = len(x)
    return sum(x[i][j] * y[j][i] for i in range(n) for j in range(n)) / 2


def casimir_a2even_cd(l, c, d):
    """C on V0(lambda_c + lambda_d) for B_l inside sl(2l+1)."""
    return Q((c + d) * (2 * l + 2 - c) - (d + 1) * (d - c))


def casimir_a2odd_cd(l, c, d):
    """C on V0(c*lambda1 + d*lambda2) for C_l inside sl(2l)."""
    n = 2 * l
    return Q((c + d) * (n + c + d) + (n - 2 + d) * d)


def casimir_d2_ladder(l, Lam, b_minus_a):
    """C on V0(Lam + (b-a)*lambda_l) for B_l inside so(2l+2); n = 2l+1."""
    n = 2 * l + 1
    s = sum(L * (L + b_minus_a + n - 2 * (i + 1)) for i, L in enumerate(Lam))
    return Q(s) + Q(l * b_minus_a * (b_minus_a + n - 1), 4)


def binomial(n, k):
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def dim_a2even_L(n, a, b):
    """dim V(lambda_a + lambda_b) of sl(n)."""
    return Q((b - a + 1) * binomial(n + 1, a) * binomial(n + 1, b + 1), n + 1)


def dim_a2even_L0(n, c, d):
    """dim V0(lambda_c + lambda_d) of so(n), n odd."""
    return Q((1 + d - c) * (n + 1 - c - d) * binomial(n + 2, c) * binomial(n + 2, d + 1),
             (n + 1) * (n + 2))


def dim_a2odd_L(n, b, a):
    """dim V(b*lambda1 + a*lambda2) of sl(n)."""
    return Q((b + 1) * binomial(a + b + n - 1, n - 2) * binomial(a + n - 2, n - 2),
             n - 1)


def dim_a2odd_L0(n, d, c):
    """dim V0(d*lambda1 + c*lambda2) of sp(n)."""
    return Q((1 + d) * (2 * c + d + n - 1)
             * binomial(c + d + n - 2, n - 3) * binomial(c + n - 3, n - 3),
             (n - 1) * (n - 2))


# ---------------------------------------------------------------------------
# Weight multisets (Freudenthal) and the brute-force tensor oracle
# ---------------------------------------------------------------------------

def _twice(v):
    """2*v as an int tuple, for v in (1/2)Z^l."""
    return tuple(int(2 * a) for a in v)


def _half(v):
    return tuple(Q(a, 2) for a in v)


def _plus(v, w):
    return tuple(map(add, v, w))


def _minus(v, w):
    return tuple(map(sub, v, w))


def _dot(v, w):
    return sum(map(mul, v, w))


def weight_multiset(l0type, l, nu):
    """{weight: multiplicity} for the irreducible module V0(nu)."""
    return {_half(w): m for w, m in _doubled_multiset(l0type, l, nu).items()}


def _doubled_multiset(l0type, l, nu):
    """{2*weight: multiplicity} for V0(nu): Freudenthal's recursion on
    doubled coordinates 2*eps, where every inner product is 4 times its
    eps-basis value, so the multiplicity 2*acc/denom is unchanged."""
    if not is_dominant(l0type, nu):
        raise BranchingError(f"{nu} not dominant")
    nu = _twice(nu)
    rho = _twice(weyl_vector(l0type, l))
    pos = [(beta, _dot(beta, beta), _dot(beta, rho))
           for beta in map(_twice, positive_roots(l0type, l))]
    simple = [_twice(alpha) for alpha in simple_roots(l0type, l)]
    top = _plus(nu, rho)
    top_c = _dot(top, top)
    mult = {nu: 1}
    frontier = [nu]
    while frontier:
        nxt = []
        for mu in frontier:
            for alpha in simple:
                cand = _minus(mu, alpha)
                if cand in mult:
                    continue
                shifted = _plus(cand, rho)
                denom = top_c - _dot(shifted, shifted)
                if denom <= 0:
                    continue
                acc = 0
                for beta, bb, rb in pos:
                    # up runs along cand + k*beta (k >= 1), with the running
                    # ub = (up, beta) and norm = |up + rho|^2
                    up, ub, norm = cand, _dot(cand, beta), top_c - denom
                    while True:
                        norm += 2 * (ub + rb) + bb
                        ub += bb
                        up = _plus(up, beta)
                        m = mult.get(up, 0)
                        if m:
                            acc += m * ub
                        elif norm > top_c:
                            break
                m, r = divmod(2 * acc, denom)
                if r:
                    raise BranchingError(
                        f"non-integral multiplicity {Q(2 * acc, denom)} at "
                        f"weight {_half(cand)}")
                if m > 0:
                    mult[cand] = m
                    nxt.append(cand)
        frontier = nxt
    return mult


def brute_force_tensor(l0type, l, lam, mu):
    """{nu: multiplicity} of V0(lam) (x) V0(mu) by character convolution and
    ``_strip``, on doubled coordinates."""
    wl = _doubled_multiset(l0type, l, lam)
    wm = _doubled_multiset(l0type, l, mu)
    prod = {}
    for a, ma in wl.items():
        for b, mb in wm.items():
            w = _plus(a, b)
            prod[w] = prod.get(w, 0) + ma * mb
    return _strip(l0type, l, prod)


def brute_force_symmetric_square(rep):
    """{nu: multiplicity} of Sym^2 V for the representation ``rep``, by
    ``_strip`` of the weights mu_i + mu_j (i <= j) of its basis vectors."""
    ws = [_twice(w) for w in rep.weights]
    prod = {}
    for i, a in enumerate(ws):
        for b in ws[i:]:
            w = _plus(a, b)
            prod[w] = prod.get(w, 0) + 1
    return _strip(rep.spec.l0type, rep.spec.l, prod)


def _strip(l0type, l, prod):
    """{nu: multiplicity} of the module whose weight multiset, on doubled
    coordinates, is ``prod``: repeatedly strip the Freudenthal multiset of a
    maximal dominant weight.  Consumes ``prod``."""
    rho = _twice(weyl_vector(l0type, l))
    out = {}
    while True:
        best = None
        for w, m in prod.items():
            if m == 0:
                continue
            key = (_dot(w, rho), w)
            if best is None or key > best[0]:
                best = (key, w, m)
        if best is None:
            return out
        _, top, m = best
        top = _half(top)
        if not is_dominant(l0type, top) or m < 0:
            raise BranchingError(f"stripping failed at {top} (mult {m})")
        out[top] = m
        for w, mw in _doubled_multiset(l0type, l, top).items():
            prod[w] = prod.get(w, 0) - m * mw


def parent_classes(table):
    """{L-parent: [nu, ...]} of the components of a closed-form table."""
    classes = {}
    for c in table:
        classes.setdefault(c.parent, []).append(c.nu)
    return classes


# ---------------------------------------------------------------------------
# R-form references: the swap, the opposite coproduct, the three-site
# Yang-Baxter product
# ---------------------------------------------------------------------------

def permutation_operator(rep):
    """The sparse swap v_i (x) v_j -> v_j (x) v_i on V (x) V, V = rep."""
    d = rep.dim
    return {i * d + j: {j * d + i: Q(1)} for i in range(d) for j in range(d)}


def opposite_coproduct(rep, kind, i, qs, u=None):
    """Sparse Delta^{T,u}(x) = x (x) q^{-h/2} + q^{h/2} (x) x on the product
    basis of V (x) V, V = rep, with the factor u (1/u for f0) on the first
    leg for i == 0: the coproduct on the right of the R-form equations
    R * Delta^u(x) = Delta^{T,u}(x) * R."""
    x = rep.e[i] if kind == "e" else rep.f[i]
    c = Q(1) if i != 0 or u is None else (u if kind == "e" else 1 / u)
    n = rep.dim
    low = [qs.q_pow(-rep.h[i][p] / 2) for p in range(n)]
    high = [qs.q_pow(rep.h[i][p] / 2) for p in range(n)]
    left = {a * n + b: {a2 * n + b: c * y * low[b] for a2, y in row.items()}
            for a, row in x.items() for b in range(n)}
    right = {a * n + b: {a * n + b2: high[a] * y for b2, y in row.items()}
             for a in range(n) for b, row in x.items()}
    return linalg.sparse_lincomb(((1, left), (1, right)))


def embed_three(R, d, legs):
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


def ybe_residual_entries(Ru, Ruv, Rv, d):
    """The number of entries where R12(u) R13(uv) R23(v) and
    R23(v) R13(uv) R12(u) differ."""
    r12 = embed_three(Ru, d, (0, 1))
    r13 = embed_three(Ruv, d, (0, 2))
    r23 = embed_three(Rv, d, (1, 2))
    lhs = linalg.mat_mul(linalg.mat_mul(r12, r13), r23)
    rhs = linalg.mat_mul(linalg.mat_mul(r23, r13), r12)
    residual_entries = 0
    for i in set(lhs) | set(rhs):
        li, ri = lhs.get(i, {}), rhs.get(i, {})
        for j in set(li) | set(ri):
            if li.get(j, Q(0)) != ri.get(j, Q(0)):
                residual_entries += 1
    return residual_entries


# ---------------------------------------------------------------------------
# The spinor's affine pair by constraint solve
# ---------------------------------------------------------------------------

def spinor_affine_pair(rep):
    """Dense (e0, f0) of the d2 spinor ``rep``, solved from constraints on
    the {0,1}^l basis: e0 sends |1, t> to x_t |0, t> and commutes with
    f_1..f_l, which fixes x up to scale (the null space is certified
    one-dimensional, its vector as ``kernel_basis`` below normalizes it), and
    [e0, f0] = h0 fixes the scale of f0 = e0^T."""
    l, dim = rep.spec.l, rep.dim
    f = [dense(m, dim) for m in rep.f]
    index = {b: i for i, b in enumerate(itertools.product((0, 1), repeat=l))}
    rest = list(itertools.product((0, 1), repeat=l - 1))

    def lowering_matrix(x):
        m = zeros(dim, dim)
        for tail, c in zip(rest, x):
            m[index[(0,) + tail]][index[(1,) + tail]] = c
        return m

    rows = []
    for t in range(len(rest)):
        unit = lowering_matrix([Q(int(s == t)) for s in range(len(rest))])
        rows.append([x for i in range(1, l + 1)
                     for row in commutator(unit, f[i]) for x in row])
    kern = kernel_basis(transpose(rows), ncols=len(rest))
    assert len(kern) == 1, f"e0 constraints leave nullity {len(kern)}"
    e0 = lowering_matrix(kern[0])
    f0 = transpose(e0)
    p = index[(1,) + rest[0]]
    h0 = -rep.weights[p][0]
    return e0, mat_scale(f0, h0 / commutator(e0, f0)[p][p])


# ---------------------------------------------------------------------------
# Dense matrices in Fractions, to and from the library's sparse ones
# ---------------------------------------------------------------------------

def zeros(m, n):
    return [[Q(0)] * n for _ in range(m)]


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a, c):
    return [[x * c if x else x for x in row] for row in a]


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    out = zeros(n, m)
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            c = ai[t]
            if c:
                bt = b[t]
                for j in range(m):
                    if bt[j]:
                        oi[j] += c * bt[j]
    return out


def mat_vec(a, v):
    """a . v, skipping the zero entries of v."""
    nz = [(j, x) for j, x in enumerate(v) if x]
    return [sum((row[j] * x for j, x in nz), Q(0)) for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def sparse_identity(n, c=Q(1)):
    """c times the n x n identity, as a sparse matrix."""
    return {i: {i: c} for i in range(n)}


def dense(m, n):
    """The n x n dense form of the sparse matrix m."""
    return [[m.get(i, {}).get(j, Q(0)) for j in range(n)] for i in range(n)]


def sparse(m):
    """The sparse form {row: {col: x}} of the dense matrix m, its nonzero
    entries only."""
    rows = ({j: x for j, x in enumerate(row) if x} for row in m)
    return {i: row for i, row in enumerate(rows) if row}


# ---------------------------------------------------------------------------
# Dense relation checkers: every product a full matrix product
# ---------------------------------------------------------------------------

def cartan(spec, i, j):
    """The Cartan entry a_ij = 2 (alpha_i, alpha_j) / (alpha_i, alpha_i)
    of the simple roots of spec, in Fractions."""
    return 2 * inner(spec.alpha[i], spec.alpha[j]) / inner(spec.alpha[i],
                                                           spec.alpha[i])


def is_zero(a):
    return all(not x for row in a for x in row)


def commutator(a, b):
    """ab - ba for the dense matrices a, b."""
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def bump(m, i, j, c=1):
    """A copy of the sparse matrix m with c added to its entry (i, j)."""
    out = {r: dict(row) for r, row in m.items()}
    row = out.setdefault(i, {})
    row[j] = row.get(j, 0) + c
    if not row[j]:
        del row[j]
    return {r: row for r, row in out.items() if row}


def relation_entry(name, residual):
    ok = is_zero(residual)
    return {"relation": name, "ok": ok, "residual": None if ok else residual}


def check_classical_relations(gens, spec):
    """Dense reference for ``liealg.check_classical_relations``, on the
    dense forms of the sparse Kac matrices."""
    E, F, H = ([dense(m, spec.n) for m in gens[k]] for k in "EFH")
    l = spec.l
    report = []
    for i in range(l + 1):
        for j in range(l + 1):
            aij = inner(spec.alpha[i], spec.alpha[j])
            target = H[i] if i == j else zeros(spec.n, spec.n)
            report += [
                relation_entry(f"[H{i},E{j}]=(a{i},a{j})E{j}",
                               mat_sub(commutator(H[i], E[j]),
                                       mat_scale(E[j], aij))),
                relation_entry(f"[H{i},F{j}]=-(a{i},a{j})F{j}",
                               mat_sub(commutator(H[i], F[j]),
                                       mat_scale(F[j], -aij))),
                relation_entry(f"[E{i},F{j}]=delta*H{i}",
                               mat_sub(commutator(E[i], F[j]), target))]
    for i in range(l + 1):
        for j in range(l + 1):
            if i == j:
                continue
            m = 1 - int(cartan(spec, i, j))
            x = E[j]
            for _ in range(m):
                x = commutator(E[i], x)
            report.append(relation_entry(f"(ad E{i})^{m} E{j}=0", x))
            y = F[j]
            for _ in range(m):
                y = commutator(F[i], y)
            report.append(relation_entry(f"(ad F{i})^{m} F{j}=0", y))
    return report


def qint(k: int, q):
    """The q-integer [k]_q = (q**k - q**-k) / (q - q**-1)."""
    if q in (0, 1, -1):
        raise DegenerateParameterError(f"q = {q}")
    return (q**k - q**-k) / (q - q**-1)


def qfactorial(k: int, q):
    out = q**0
    for n in range(1, k + 1):
        out *= qint(n, q)
    return out


def check_quantum_relations(rep, qs):
    """Dense reference for ``qrep.check_quantum_relations`` at the sample
    qs, on the dense forms of the representation's sparse generators: each
    relation evaluated at q = w**4 with its q-integer target and q-divided
    Serre coefficients.  On q-independent generators a relation holds at a
    generic q exactly when it holds for all q."""
    spec = rep.spec
    l, dim = spec.l, rep.dim
    q = qs.q
    e = [dense(m, dim) for m in rep.e]
    f = [dense(m, dim) for m in rep.f]
    report = []
    for i in range(l + 1):
        for x, tag in ((e, "e"), (f, "f")):
            for j in range(l + 1):
                aij = inner(spec.alpha[i], spec.alpha[j])
                shift = aij if tag == "e" else -aij
                m = [[x[j][p][r] * (rep.h[i][p] - rep.h[i][r] - shift)
                      for r in range(dim)] for p in range(dim)]
                report.append(relation_entry(f"[h{i},{tag}{j}] weight shift", m))

    for i in range(l + 1):
        for j in range(l + 1):
            comm = commutator(e[i], f[j])
            if i == j:
                mags = {abs(rep.h[i][p]) for p in range(dim)} - {0}
                m = max(mags) if len(mags) == 1 else Q(1)
                gauge = ((qs.q_pow(m) - qs.q_pow(-m)) / (q - 1 / q)) / m
                tgt = zeros(dim, dim)
                for p in range(dim):
                    tgt[p][p] = (qs.q_pow(rep.h[i][p])
                                 - qs.q_pow(-rep.h[i][p])) / (q - 1 / q)
                comm = mat_scale(comm, gauge)
                name = f"[e{i},f{i}] (gauge [{m}]/{m})"
            else:
                tgt = zeros(dim, dim)
                name = f"[e{i},f{j}]"
            report.append(relation_entry(name, mat_sub(comm, tgt)))

    for i in range(l + 1):
        for j in range(l + 1):
            if i == j:
                continue
            m = 1 - int(cartan(spec, i, j))
            qi = qs.q_pow(Q(inner(spec.alpha[i], spec.alpha[i]), 2))
            for x, tag in ((e, "e"), (f, "f")):
                powers = [identity(dim)]
                for _ in range(m):
                    powers.append(mat_mul(x[i], powers[-1]))
                total = zeros(dim, dim)
                for k in range(m + 1):
                    coeff = Q((-1) ** k) / (qfactorial(m - k, qi) * qfactorial(k, qi))
                    term = mat_mul(powers[m - k], mat_mul(x[j], powers[k]))
                    total = mat_add(total, mat_scale(term, coeff))
                report.append(relation_entry(f"q-Serre {tag}{i},{tag}{j}", total))
    return report


# ---------------------------------------------------------------------------
# Component scalars in Fractions
# ---------------------------------------------------------------------------

def component_scalars(dec, M):
    """{nu: c} where the sparse M acts on every adapted basis vector of
    V0(nu) as the scalar c, in Fractions: M applied to the adapted basis
    vectors as stored, each image compared with c * v.  Raises
    DecompositionError if M is not scalar on a component."""
    cols = linalg.sparse_transpose(M)
    out = {}
    for comp in dec.components:
        c = None
        for v in comp.basis:
            image = linalg.mat_vec(cols, v)
            if c is None:
                p = min(v)
                c = Q(image.get(p, 0), v[p])
            if image != ({j: c * x for j, x in v.items()} if c else {}):
                raise DecompositionError(
                    f"operator is not scalar on component {comp.nu}")
        out[comp.nu] = c
    return out


# ---------------------------------------------------------------------------
# Gauss-Jordan elimination in Fractions
# ---------------------------------------------------------------------------

def identity(n):
    """The dense n x n identity in Fractions."""
    return [[Q(int(i == j)) for j in range(n)] for i in range(n)]


def rref(mat):
    """Reduced row echelon form by Gauss-Jordan in Fractions, one Fraction
    per entry (in place on a copy); returns (rref, pivot cols)."""
    a = [row[:] for row in mat]
    m = len(a)
    n = len(a[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = Q(1, a[r][c])
        a[r] = [x * inv if x else x for x in a[r]]
        for i in range(m):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y if y else x for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return a, pivots


def kernel_basis(mat, ncols):
    """Basis of the right null space of mat from ``rref``: one vector per
    free column, 1 there."""
    rows = [row for row in mat if any(row)]
    if not rows:
        return [[Q(int(j == i)) for j in range(ncols)] for i in range(ncols)]
    red, pivots = rref(rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Q(0)] * ncols
        v[fc] = Q(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def invert(mat):
    """The inverse from ``rref`` of [mat | I]; ValueError if singular."""
    n = len(mat)
    red, pivots = rref([row[:] + ident for row, ident in zip(mat, identity(n))])
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red]


def solve_scalars(system, u):
    """Fraction reference for ``jimbo._solve_scalars``: the rows
    c_mu (u x + y) - c_nu (x + u y) in Fractions, their null space from
    ``kernel_basis``, certified one-dimensional, normalized to c_top = 1."""
    rows = []
    for k, nu, x, y in system.e0_rows:
        row = [Q(0)] * system.ncomp
        row[system.terms[k][0]] += u * x + y
        row[nu] -= x + u * y
        rows.append(row)
    kern = kernel_basis(rows, system.ncomp)
    if len(kern) != 1 or not kern[0][0]:
        raise SolveError(f"nullity {len(kern)} or a vanishing top")
    return [x / kern[0][0] for x in kern[0]]


# ---------------------------------------------------------------------------
# Bracket products by field arithmetic
# ---------------------------------------------------------------------------

def subs(r, x):
    """The RatFun r evaluated at the rational x, by Horner's rule."""
    def value(p):
        out = Q(0)
        for c in reversed(p):
            out = out * x + c
        return out
    return value(r.num) / value(r.den)


def bracket_product(product, u, qs):
    """A ``BracketProduct`` expanded the slow way: sign * prod <a>_s ** k,
    each factor a ``bracket`` value raised to its (possibly negative)
    exponent, multiplied with RatFun's gcd-reducing ``*`` and ``**`` in Q(u)
    or in Fractions at a rational u.  The factors are multiplied pairwise,
    as a balanced tree, which keeps the gcds small."""
    one = RatFun.const(1) if isinstance(u, RatFun) else Q(1)
    factors = [one * product.sign] + [bracket(a, s, u, qs) ** k
                                      for (a, s), k in product.exps.items()]
    while len(factors) > 1:
        odd = factors[len(factors) // 2 * 2:]
        factors = [a * b for a, b in zip(factors[::2], factors[1::2])] + odd
    return factors[0]
