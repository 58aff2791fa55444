"""Seed representations of the twisted quantum affine algebras.

The seeds are the undeformed affinizable modules: the vector of B_l (a2even),
the vector of C_l (a2odd) and the spinor of B_l (d2).  For the two vector
cases the classical Kac generator matrices already realize the full affine
action.  The spinor is built on the sign-vector basis {0,1}^l via
Jordan-Wigner fermions; its affine pair is e0 = (-1)^l c_1 (-1)^N and
f0 = e0^T / 2, certified, like every seed, by the quantum relation checker.

The generators are built, stored and read as ``linalg`` sparse matrices,
from the Kac matrices and the fermion products to the relation checker,
the coproducts and the rep export.

Undeformedness is a claim under test: build_seed_rep runs the checker and
aborts if any relation fails.  The relations of a Representation are one
tuple of report entries, built once, on its first check
(``Representation.relations``), each decided identically in q: the
generators are q-independent, so a relation holds for all q or fails with
a nonzero witness.  Every product is built in integers, from
s * x with s the lcm of the denominators of the generator x, and kept with
its scale, the product of the s it reads; a witness is divided back by its
scale only when it is not empty.  A weight shift [h_i, x_j] is one weight
test per nonzero of x_j, exact because h_i(p) = (wt_p, alpha_i).

Each Representation also keeps the q-independent skeleton of V (x) V that
every decomposition reads (``Representation.square``): the weight blocks,
the block of each product index, the dominant blocks in descending order
and the integer exponents 2 h_i of the coproducts.  The vector seeds keep
the Kac generators they were built from (``Representation.kac``), so a
verify builds them once.

Each Representation also carries the integer diagonal g of its
contravariant form, f_i = g^-1 e_i^T g for i >= 1 (``Representation.g``),
from which the solves certify the f-half of their module maps without a
product.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import sub

from . import liealg, linalg
from .liealg import (FamilySpec, doubled, inner, is_dominant, relation_entry,
                     wadd)

Q = Fraction


class RepresentationError(RuntimeError):
    pass


@dataclass(frozen=True)
class Representation:
    spec: FamilySpec
    lam: tuple                     # highest weight (eps basis, length l)
    dim: int
    e: tuple                       # sparse {row: {col: x}} e_0..e_l
    f: tuple                       # sparse f_0..f_l
    weights: tuple                 # weight of each basis vector
    # the Kac generators {"E", "F", "H"} a vector seed was built from
    kac: dict = field(default=None, compare=False, repr=False)

    @cached_property
    def doubled_weights(self):
        """2 * weight_p of each basis vector p, in ints."""
        return tuple(map(doubled, self.weights))

    @cached_property
    def h(self):
        """h[i][p] = (weight_p, alpha_i), the eigenvalue of h_i on basis
        vector p, from the doubled weights and roots."""
        return tuple(tuple(Q(inner(mu, a), 4) for mu in self.doubled_weights)
                     for a in map(doubled, self.spec.alpha))

    @cached_property
    def g(self):
        """The integer diagonal g of the contravariant form on V:
        f_i = g^-1 e_i^T g for i >= 1, that is g_p f_i[p][j] = g_j e_i[j][p]
        at every entry.  Built by propagating g_p / g_j = e_i[j][p] /
        f_i[p][j] along the nonzeros of the f_i from index 0, then scaled to
        ints; raises RepresentationError unless that reaches every index
        and every entry of the e_i and f_i agrees with it."""
        pairs = list(zip(self.e[1:], self.f[1:]))
        steps = {}     # p -> [(j, g_j / g_p)]
        for e, f in pairs:
            for p, row in f.items():
                for j, y in row.items():
                    if x := e.get(j, {}).get(p):
                        steps.setdefault(p, []).append((j, Q(y, x)))
                        steps.setdefault(j, []).append((p, Q(x, y)))
        g, frontier = {0: Q(1)}, [0]
        while frontier:
            p = frontier.pop()
            for j, ratio in steps.get(p, ()):
                if j not in g:
                    g[j] = g[p] * ratio
                    frontier.append(j)
        if len(g) != self.dim:
            raise RepresentationError(
                f"contravariant form reaches {len(g)} of {self.dim} indices")
        g = linalg.scaled(g, linalg.denominator(g))
        g = tuple(g[p] for p in range(self.dim))
        for i, (e, f) in enumerate(pairs, 1):
            if sum(map(len, e.values())) != sum(map(len, f.values())) or any(
                    g[p] * y != g[j] * e.get(j, {}).get(p, 0)
                    for p, row in f.items() for j, y in row.items()):
                raise RepresentationError(f"f_{i} is not g^-1 e_{i}^T g")
        return g

    @cached_property
    def square(self):
        """The q-independent ``Square`` skeleton of V (x) V, built on first
        read and kept for every later sample."""
        blocks = {}
        for p, wt in enumerate(wadd(a, b) for a in self.weights
                               for b in self.weights):
            blocks.setdefault(wt, []).append(p)
        block = [0] * self.dim ** 2
        for k, idxs in enumerate(blocks.values()):
            for p in idxs:
                block[p] = k
        dominant = sorted(((wt, k, idxs)
                           for k, (wt, idxs) in enumerate(blocks.items())
                           if is_dominant(self.spec.l0type, wt)), reverse=True)
        exponents = []
        for i, a in enumerate(map(doubled, self.spec.alpha)):
            # 2 h_i(p) = (2 wt_p, 2 alpha_i) / 2
            ks, odd = zip(*(divmod(inner(mu, a), 2)
                            for mu in self.doubled_weights))
            if any(odd):
                raise ValueError(f"q^(h_{i}/2) is not an integer power of w")
            exponents.append(ks)
        return Square(blocks, tuple(block), tuple(dominant), tuple(exponents))

    @cached_property
    def relations(self):
        """The entries of the quantum relations in report order, each
        decided for all q (``_relation_data``), built on first read and
        kept for every later check."""
        return _relation_data(self)

    @cached_property
    def integer_generators(self):
        """{(kind, i): (s, s * x)} for x = e_i (kind "e") and f_i ("f"),
        s the lcm of the denominators of x."""
        return {(k, i): liealg.integral(x)
                for k, xs in (("e", self.e), ("f", self.f))
                for i, x in enumerate(xs)}


@dataclass(frozen=True)
class Square:
    """What V (x) V's decompositions share at every w, V a
    ``Representation``, on the product basis p = i * dim V + j."""
    blocks: dict       # weight -> product basis indices of that weight: the
                       # weights of V (x) V, sums of two weights of V
    block: tuple       # index -> number of its weight block, in the order of
                       # ``blocks``
    dominant: tuple    # (weight, block number, indices) of each dominant
                       # block, by weight descending
    exponents: tuple   # per i, 2 h_i(p) of each basis vector p of V, in ints


def _weights_from_h_diagonals(spec: FamilySpec, hdiags):
    """Recover the eps-basis weight of each basis vector from the classical
    Cartan diagonals, solving (mu, alpha_i) = h_i[p] for i = 1..l."""
    l = spec.l
    inv = linalg.invert([{j: x for j, x in enumerate(spec.alpha[i]) if x}
                         for i in range(1, l + 1)], l)
    out = []
    for p in range(len(hdiags[1])):
        out.append(tuple(sum((x * hdiags[k + 1][p] for k, x in row.items()),
                             Q(0)) / a for row, a in inv))
    return tuple(out)


def _diag_of(m, n):
    """The diagonal of the sparse n x n matrix m; raises
    RepresentationError unless m is diagonal."""
    if any(row.keys() != {i} for i, row in m.items()):
        raise RepresentationError("Cartan matrix is not diagonal")
    return [m.get(i, {}).get(i, 0) for i in range(n)]


def build_seed_rep(spec: FamilySpec) -> Representation:
    gens = None
    if spec.family in ("a2even", "a2odd"):
        gens = liealg.kac_generators(spec)
        hdiags = [_diag_of(h, spec.n) for h in gens["H"]]
        weights = _weights_from_h_diagonals(spec, hdiags)
        lam, e, f = liealg.eps(1, spec.l), gens["E"], gens["F"]
    else:
        lam, e, f, weights = _build_spinor(spec)
    rep = Representation(spec, lam, len(weights), tuple(e), tuple(f), weights,
                         gens)
    report = check_quantum_relations(rep)
    bad = [r["relation"] for r in report if not r["ok"]]
    if bad:
        raise RepresentationError(f"seed rep violates quantum relations: {bad[:3]}")
    return rep


# ---------------------------------------------------------------------------
# Spinor of B_l (d2 family)
# ---------------------------------------------------------------------------

def _spinor_basis(l):
    return list(itertools.product((0, 1), repeat=l))


def _fermion_ops(l):
    """Jordan-Wigner annihilators c_1..c_l on the {0,1}^l basis, sparse."""
    basis = _spinor_basis(l)
    index = {b: i for i, b in enumerate(basis)}
    return [{index[b[:j] + (0,) + b[j + 1:]]: {index[b]: Q((-1) ** sum(b[:j]))}
             for b in basis if b[j] == 1} for j in range(l)]


def _build_spinor(spec: FamilySpec):
    """Highest weight, sparse e_0..e_l and f_0..f_l, and weights of the
    spinor."""
    l, dim = spec.l, 2 ** spec.l
    basis = _spinor_basis(l)
    cs = _fermion_ops(l)
    dag = [linalg.sparse_transpose(c) for c in cs]
    e = [None] * (l + 1)
    f = [None] * (l + 1)
    for i in range(1, l):
        e[i] = linalg.mat_mul(dag[i - 1], cs[i])
        f[i] = linalg.mat_mul(dag[i], cs[i - 1])
    # short root eps_l: sl2 pair with [e_l, f_l] = n_l - 1/2
    e[l] = dag[l - 1]
    f[l] = linalg.sparse_lincomb(((Q(1, 2), cs[l - 1]),))
    weights = tuple(tuple(Q(2 * n - 1, 2) for n in b) for b in basis)

    # e0 = (-1)^l c_1 (-1)^N sends |1, t> to (-1)^{#zeros(t)} |0, t>, and
    # f0 = e0^T / 2; |0, t> and |1, t> are basis vectors k and half + k
    half = dim // 2
    signs = [Q((-1) ** tail.count(0)) for tail in _spinor_basis(l - 1)]
    e[0] = {k: {half + k: sign} for k, sign in enumerate(signs)}
    f[0] = {half + k: {k: sign / 2} for k, sign in enumerate(signs)}
    return weights[-1], e, f, weights


# ---------------------------------------------------------------------------
# Quantum relation checker
# ---------------------------------------------------------------------------

def _weight_shift_failures(rep, xs, sign):
    """Per generator x_j of xs: the nonzeros (p, c, x[p][c]) of x_j where
    wt_p - wt_c is not sign * alpha_j, compared once per nonzero on doubled
    integer weights.  Only these can hold a residual entry of any [h_i,
    x_j] - sign (alpha_i, alpha_j) x_j, as h_i(p) = (wt_p, alpha_i)."""
    wt = rep.doubled_weights
    out = []
    for alpha, x in zip(rep.spec.alpha, xs):
        shift = tuple(sign * a for a in doubled(alpha))
        out.append([(p, c, y) for p, row in x.items() for c, y in row.items()
                    if tuple(map(sub, wt[p], wt[c])) != shift])
    return out


def _serre_witness(words):
    """The first nonzero pair sum W_k + (-1)^m W_(m-k), k = 0..m/2, of the
    words W_0..W_m of a q-Serre sum of degree m, else {}.  The Gaussian
    binomials [m k]_q, k <= m/2, have the distinct top degrees k (m - k)
    and [m k]_q = [m m-k]_q, so sum (-1)^k [m k]_q W_k is 0 for all q
    exactly when every pair sum is 0; the pair sum of the middle word of an
    even m is 2 W_(m/2)."""
    m = len(words) - 1
    for k in range(m // 2 + 1):
        if pair := linalg.sparse_lincomb(((1, words[k]),
                                          ((-1) ** m, words[m - k]))):
            return pair
    return {}


def _relation_data(rep: Representation) -> tuple:
    """The report entries of the quantum relations of rep, in report order:
    the weight shifts [h_i, x_j], every [e_i, f_j], then every q-Serre sum,
    each decided for all q at once.  Every product is built in integers
    from ``Representation.integer_generators`` and kept with its scale,
    the product of the scales s of the generators it multiplies.

    The weight shift [h_i, x_j] = sign (alpha_i, alpha_j) x_j is computed
    per i only at the nonzeros of x_j that fail the weight test of
    ``_weight_shift_failures``.  The gauge of [e_i, f_i] is [m]_q / m, m the
    gauge magnitude of h_i, and its target [h_i]_q is diagonal; as the
    q-integers [n]_q of distinct n > 0 are linearly independent, the
    relation holds for all q exactly when [e_i, f_i] = h_i and every
    |h_i(p)| is in {0, m}.  Its witness, over the scale s (with the lcm
    of the denominators of h_i as a factor), is s [e_i, f_i] - s h_i, with
    the diagonal entry s h_i(p) at each p of another magnitude; [e_i, f_j]
    with i != j has the target 0.  A q-Serre sum of x_i, x_j (x = e or f)
    has degree m = 1 - a_ij and the words s_i^m s_j x_i^(m-k) x_j x_i^k,
    k = 0..m, over the scale s_i^m s_j, decided by their pair sums
    (``_serre_witness``).  Raises FamilyError on a non-integer Cartan entry
    (``liealg.cartan_entry``)."""
    spec, h, gens = rep.spec, rep.h, rep.integer_generators
    l, gram = spec.l, liealg.doubled_gram(spec)
    failures = {"e": _weight_shift_failures(rep, rep.e, 1),
                "f": _weight_shift_failures(rep, rep.f, -1)}
    out = []
    for i in range(l + 1):
        for tag, sign in (("e", 1), ("f", -1)):
            for j, bad in enumerate(failures[tag]):
                residual = {}
                for p, c, y in bad:
                    shift = sign * Q(gram[i][j], 4)
                    if t := h[i][p] - h[i][c] - shift:
                        residual.setdefault(p, {})[c] = y * t
                out.append(relation_entry(f"[h{i},{tag}{j}] weight shift",
                                          residual))
    # The stored matrices are the classical (q-independent) ones; they
    # realize the quantum relation after the reciprocal gauge e_i -> e_i,
    # f_i -> ([m]_q / m) f_i, where m is the common magnitude of the nonzero
    # h_i eigenvalues.  All uses of the generators downstream are
    # homogeneous in each f_i, so the gauge factor is the faithful target.
    for i in range(l + 1):
        se, e = gens["e", i]
        sh, hi = liealg.integral({p: {p: x} for p, x in enumerate(h[i]) if x})
        mags = {abs(x) for x in h[i]} - {0}
        m = max(mags) if len(mags) == 1 else Q(1)
        for j in range(l + 1):
            sf, f = gens["f", j]
            scale, target = se * sf, hi if i == j else {}
            residual = linalg.sparse_lincomb(
                ((sh, linalg.mat_mul(e, f)), (-sh, linalg.mat_mul(f, e)),
                 (-scale, target)))
            name = f"[e{i},f{j}]"
            if i == j:
                name += f" (gauge [{m}]/{m})"
                for p, x in enumerate(h[i]):
                    if abs(x) not in (0, m):
                        residual.setdefault(p, {})[p] = scale * hi[p][p]
            out.append(relation_entry(name, residual, scale * sh))
    for i in range(l + 1):
        powers = {tag: [None, gens[tag, i][1]] for tag in "ef"}
        for j in range(l + 1):
            if i == j:
                continue
            m = 1 - liealg.cartan_entry(gram, i, j)
            for tag in "ef":
                (si, xi), (sj, xj) = gens[tag, i], gens[tag, j]
                pw = powers[tag]
                while len(pw) <= m:
                    pw.append(linalg.mat_mul(xi, pw[-1]))
                right = [xj] + [linalg.mat_mul(xj, pw[k])
                                for k in range(1, m + 1)]
                words = [linalg.mat_mul(pw[m - k], r) if k < m else r
                         for k, r in enumerate(right)]
                out.append(relation_entry(f"q-Serre {tag}{i},{tag}{j}",
                                          _serre_witness(words),
                                          si ** m * sj))
    return tuple(out)


def check_quantum_relations(rep: Representation):
    """Exact check of all defining relations of U_q, for all q.

    Covers Cartan commutators (as weight shifts), the [e_i, f_j] relation and
    the quantum Serre relations, each decided identically in q from integer
    products (``_relation_data``) with a sparse witness that is empty
    exactly when the relation holds.  A witness computed in integers is
    divided back by its scale only when it is not empty.

    Returns a fresh list of the entries of ``Representation.relations``,
    which are built once per rep and shared, not copied.
    """
    return list(rep.relations)
