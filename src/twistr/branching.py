"""Closed-form tensor decompositions, L-parent bookkeeping and the
theta0-tensor containment test.

The closed forms follow the family-by-family branching rules; the tests
cross-check every table against an independent brute-force oracle built from
weight multisets (Freudenthal recursion + character convolution +
highest-weight stripping).

L-parent identifiers group the fixed-subalgebra components that sit inside one
irreducible module of the big algebra L; relative parities on the tensor
product graph are constant on parent classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .liealg import (FamilySpec, doubled, fundamental_weight, wadd, weyl_dim,
                     weyl_vector, wscale)

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
    if not wts[zero]:
        del wts[zero]
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


def klimyk_tensor_with(l0type, l, weights, nu):
    """Signed Klimyk accumulation: multiplicities of components of
    M (x) V0(nu) where M has the weight multiset ``weights`` (doubled
    coordinates, as from ``theta0_weights``).  The sum runs on doubled
    integers; only the returned highest weights are halved back to eps."""
    rho = doubled(weyl_vector(l0type, l))
    shifted = [a + b for a, b in zip(doubled(nu), rho)]
    out = {}
    for phi, m in weights.items():
        ref = _dominant_reflection([a + b for a, b in zip(shifted, phi)])
        if ref is None:
            continue
        dom, det = ref
        cand = tuple(a - b for a, b in zip(dom, rho))
        out[cand] = out.get(cand, 0) + det * m
    return {tuple(Q(a, 2) for a in w): m for w, m in out.items() if m}


def contains_in_theta_tensor(spec: FamilySpec, weights, nu) -> set:
    """The set of nu' with V0(nu') in V0(theta0) (x) V0(nu), where
    ``weights`` is ``theta0_weights(spec)``: one Klimyk sum serves every
    nu'."""
    mults = klimyk_tensor_with(spec.l0type, spec.l, weights, nu)
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


@dataclass(frozen=True)
class BranchingTable:
    family: str
    l: int
    params: tuple      # (k, r) or (a, b)
    components: tuple  # Component, deterministic order

    def nus(self):
        return [c.nu for c in self.components]


def _lam_cd(l, c, d):
    """lambda_c + lambda_d as an eps tuple (c <= d <= l), gl-style lambdas."""
    return tuple(Q(2) if i < c else (Q(1) if i < d else Q(0)) for i in range(l))


def decompose_tensor_closed_form(spec: FamilySpec, params) -> BranchingTable:
    if not spec.admissible(params):
        raise BranchingError(f"inadmissible weights {params} for {spec.family}")
    k, r = params
    if k > r:
        raise BranchingError("parameters must satisfy k <= r (a <= b)")
    l, n = spec.l, spec.n
    comps = []
    if spec.family == "a2even":
        for a in range(k + 1):
            b = k + r - a
            parent = ("L", a, b)
            for c in range(a + 1):
                m = k + r - 2 * a + c
                d = min(m, n - m)
                nu = _lam_cd(l, c, d)
                comps.append(Component(nu, parent, weyl_dim("B", l, nu)))
    elif spec.family == "a2odd":
        for a in range(k + 1):
            b = k + r - 2 * a
            parent = ("L", b, a)
            for c in range(a + 1):
                nu = tuple(Q(b + c) if i == 0 else (Q(c) if i == 1 else Q(0))
                           for i in range(l))
                comps.append(Component(nu, parent, weyl_dim("C", l, nu)))
    else:
        a, b = k, r
        shift = Q(b - a, 2)
        for Lam in _ladders(l, a):
            nu = tuple(Q(x) + shift for x in Lam)
            comps.append(Component(nu, _d2_parent(l, a, Lam), weyl_dim("B", l, nu)))
    seen = set()
    for c in comps:
        if c.nu in seen:
            raise BranchingError(f"multiplicity >= 2 at {c.nu}")
        seen.add(c.nu)
    comps.sort(key=lambda c: c.nu, reverse=True)
    table = BranchingTable(spec.family, l, tuple(params), tuple(comps))
    d1, d2 = (weyl_dim(spec.l0type, l, input_weight(spec, p)) for p in params)
    if sum(c.dim for c in comps) != d1 * d2:
        raise BranchingError("dimension sum mismatch")
    return table


def _ladders(l, a):
    out = []

    def rec(prefix, hi):
        if len(prefix) == l:
            out.append(tuple(prefix))
            return
        for v in range(hi, -1, -1):
            rec(prefix + [v], v)
    rec([], a)
    return out


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
    return wscale(fundamental_weight("B", l, l), Q(p))


def top_weight(spec: FamilySpec, params):
    return wadd(input_weight(spec, params[0]), input_weight(spec, params[1]))
