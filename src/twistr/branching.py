"""The per-family closed forms and the theta0-tensor containment test.

``closed_form_table`` holds the only family-by-family enumeration: each
component V0(nu) of V(k) (x) V(r) with its L-parent and the brackets whose
product is its eigenvalue rho_nu(u).  ``decompose_tensor_closed_form`` adds
dimensions and certifies the decomposition; ``tpg`` multiplies out the
brackets.  The tests cross-check every decomposition against an independent
brute-force oracle built from weight multisets (Freudenthal recursion +
character convolution + highest-weight stripping).

L-parent identifiers group the fixed-subalgebra components that sit inside one
irreducible module of the big algebra L; relative parities on the tensor
product graph are constant on parent classes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .liealg import FamilySpec, wadd, weyl_dim

Q = Fraction


class BranchingError(ValueError):
    pass


# ---------------------------------------------------------------------------
# theta0-module weights and Klimyk containment
# ---------------------------------------------------------------------------

def theta0_weights(spec: FamilySpec):
    """Weight multiset of V0(theta0), keyed by doubled eps-coordinates 2*eps
    (int tuples), built from the vector module: Sym^2(vector) - singlet for
    B_l / 2*lambda1, Alt^2(vector) - singlet for C_l / lambda2, and the
    vector itself for the d2 family."""
    l = spec.l
    vec = [tuple(s if j == i else 0 for j in range(l))
           for s in (2, -2) for i in range(l)]
    zero = (0,) * l
    if spec.family == "d2":
        return dict.fromkeys(vec + [zero], 1)
    if spec.family == "a2even":
        vec.append(zero)
        pairs = [(i, j) for i in range(len(vec)) for j in range(i, len(vec))]
    else:
        pairs = [(i, j) for i in range(len(vec)) for j in range(i + 1, len(vec))]
    wts = {}
    for i, j in pairs:
        w = tuple(a + b for a, b in zip(vec[i], vec[j]))
        wts[w] = wts.get(w, 0) + 1
    wts[zero] -= 1
    return wts


def _dominant_reflection(x):
    """Reflect x into the dominant chamber of the signed-permutation Weyl
    group; returns (dominant, det) or None if x is on a wall."""
    vals = []
    sign = 1
    for c in x:
        if c == 0:
            return None
        if c < 0:
            sign = -sign
            c = -c
        vals.append(c)
    if len(set(vals)) != len(vals):
        return None
    order = sorted(range(len(vals)), key=lambda i: vals[i], reverse=True)
    # parity of the sorting permutation
    perm = list(order)
    for i in range(len(perm)):
        while perm[i] != i:
            j = perm[i]
            perm[i], perm[j] = perm[j], perm[i]
            sign = -sign
    return tuple(vals[i] for i in order), sign


def klimyk_tensor_with(rho, weights, nu):
    """Signed Klimyk accumulation: multiplicities of components of
    M (x) V0(nu), where M has the weight multiset ``weights``.  All of it is
    on doubled integer coordinates: ``rho`` is 2*rho0, ``nu`` is 2*nu, and
    ``weights`` (as from ``theta0_weights``) and the result are keyed by
    doubled int tuples."""
    shifted = [a + b for a, b in zip(nu, rho)]
    out = {}
    for phi, m in weights.items():
        ref = _dominant_reflection([a + b for a, b in zip(shifted, phi)])
        if ref is None:
            continue
        dom, det = ref
        cand = tuple(a - b for a, b in zip(dom, rho))
        out[cand] = out.get(cand, 0) + det * m
    return {w: m for w, m in out.items() if m}


def contains_in_theta_tensor(rho, weights, nu) -> set:
    """The set of 2*nu' with V0(nu') in V0(theta0) (x) V0(nu), given
    rho = 2*rho0 and nu as 2*nu (int tuples), where ``weights`` is
    ``theta0_weights(spec)``: one Klimyk sum serves every nu'."""
    mults = klimyk_tensor_with(rho, weights, nu)
    if any(m < 0 for m in mults.values()):
        raise BranchingError("negative Klimyk multiplicity")
    return set(mults)


# ---------------------------------------------------------------------------
# Closed-form decompositions with L-parents
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Component:
    nu: tuple
    parent: tuple      # hashable L-parent identifier
    dim: int


def _lam_cd(l, c, d):
    """lambda_c + lambda_d as an eps tuple (c <= d <= l), gl-style lambdas."""
    return tuple(Q(2) if i < c else (Q(1) if i < d else Q(0)) for i in range(l))


def closed_form_table(spec: FamilySpec, params):
    """The family's closed forms: one (nu, L-parent, brackets) per component
    V0(nu) of V(k) (x) V(r), with rho_nu(u) the product of <a>_sign over the
    (a, sign) in ``brackets``; brackets is None where no closed form applies
    (the a2even family with k + r > l).  Raises BranchingError unless params
    are admissible with k <= r."""
    if not spec.admissible(params):
        raise BranchingError(f"inadmissible weights {params} for {spec.family}")
    k, r = params
    if k > r:
        raise BranchingError("parameters must satisfy k <= r (a <= b)")
    l, n = spec.l, spec.n
    if spec.family == "a2even":
        for a in range(k + 1):
            for c in range(a + 1):
                m = k + r - 2 * a + c
                brackets = ([(k + r - 2 * i, -1) for i in range(a, k)]
                            + [(n - r - k + 2 * j, +1)
                               for j in range(1, a - c + 1)])
                yield (_lam_cd(l, c, min(m, n - m)), ("L", a, k + r - a),
                       brackets if k + r <= l else None)
    elif spec.family == "a2odd":
        for a in range(k + 1):
            b = k + r - 2 * a
            for c in range(a + 1):
                nu = tuple(Q(b + c) if i == 0 else (Q(c) if i == 1 else Q(0))
                           for i in range(l))
                yield nu, ("L", b, a), (
                    [(n + k + r - 2 * i, +1) for i in range(1, a - c + 1)]
                    + [(k + r + 2 - 2 * j, -1) for j in range(1, a + 1)])
    else:
        shift = Q(r - k, 2)
        # row i - 1 holds the factors for kk = 0 .. k - 1; a ladder takes
        # those with kk >= Lam[i - 1]
        rows = [[(Q(kk - i + l + 1) + shift, -1 if (l + i) % 2 == 0 else 1)
                 for kk in range(k)] for i in range(1, l + 1)]
        for Lam in _ladders(l, k):
            yield (tuple(Q(x) + shift for x in Lam), _d2_parent(l, k, Lam),
                   [f for row, x in zip(rows, Lam) for f in row[x:]])


def decompose_tensor_closed_form(spec: FamilySpec, params) -> tuple:
    """The components of ``closed_form_table`` with their dimensions, sorted
    by nu descending; raises BranchingError unless they are multiplicity
    free with dimensions summing to dim V(k) * dim V(r)."""
    comps = []
    seen = set()
    for nu, parent, _ in closed_form_table(spec, params):
        if nu in seen:
            raise BranchingError(f"multiplicity >= 2 at {nu}")
        seen.add(nu)
        comps.append(Component(nu, parent, weyl_dim(spec.l0type, spec.l, nu)))
    comps.sort(key=lambda c: c.nu, reverse=True)
    d1, d2 = (weyl_dim(spec.l0type, spec.l, input_weight(spec, p))
              for p in params)
    if sum(c.dim for c in comps) != d1 * d2:
        raise BranchingError("dimension sum mismatch")
    return tuple(comps)


def _ladders(l, a):
    """The non-increasing l-tuples with entries in a..0, in descending
    lexicographic order."""
    return list(itertools.combinations_with_replacement(range(a, -1, -1), l))


def _d2_parent(l, a, Lam):
    """The so(2l+2) parent weight by the interleave rule (Lam_0 = a)."""
    padded = (a,) + tuple(Lam)
    hat = []
    for i in range(1, l + 2):
        hat.append(padded[i - 1] if (i + l) % 2 == 1 else padded[min(i, l)])
    return ("L",) + tuple(hat)


def input_weight(spec: FamilySpec, p):
    """The eps-tuple of one tensor factor's highest weight for parameter p."""
    l = spec.l
    if spec.family == "a2even":
        return _lam_cd(l, 0, p)
    if spec.family == "a2odd":
        return tuple(Q(p if i == 0 else 0) for i in range(l))
    return (Q(p, 2),) * l


def top_weight(spec: FamilySpec, params):
    return wadd(input_weight(spec, params[0]), input_weight(spec, params[1]))
