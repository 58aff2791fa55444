"""The tensor square V (x) V of a seed representation V: coproduct actions,
isotypic decomposition into fixed-subalgebra components, component scalars
and the classical parity oracle.

Each component V0(nu) is encoded only by its adapted basis: the highest
weight vector followed by its independent lowerings.  All components grow
their bases in one shared row space, so reaching rank dim V ** 2 certifies
that the bases together form a basis of V (x) V.  An operator M then equals
sum(c_nu * P_nu) over the projectors of that basis exactly when M acts on
every adapted basis vector of V0(nu) as c_nu, which ``component_scalars``
checks without forming a projector or an inverse.  V (x) V at a sample w
is in integers from the coproducts on: ``decompose`` keeps the integer
numerators of D(e_i), D(f_i) (i >= 1) and the adapted basis as primitive
integer vectors, each lowering divided by its content gcd (P_nu does not
depend on how the basis vectors are scaled); the solve and the checks read
that one form.  What no sample changes is built once per V, by
``Representation.square``: the weight blocks, the block number of each
index, the dominant blocks in descending order and the integer exponents
2 h_i that ``coproduct_action`` reads.  So a decomposition at w does only
w-dependent integer work, and it reads weights as block numbers.
The coproduct numerators are sparse ``linalg`` matrices {row: {col: x}},
built from the nonzeros of V's generators; adapted basis vectors are sparse
{col: x}.

The classical parity oracle builds no operator: it reads the Sym^2 / Alt^2
sign of each component off V's character (``classical_parity_signs``).

Basis convention: index p = i * dim V + j for v_i (x) v_j; the weight of a
product vector is the sum of the factor weights.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from . import branching, linalg
from .liealg import doubled
from .qrep import Representation
from .scalars import QSample

Q = Fraction


class DecompositionError(RuntimeError):
    pass


def coproduct_action(rep: Representation, kind: str, i: int, qs: QSample,
                     u=None):
    """Delta^u(x) on the product basis of V (x) V, V = rep, for x = e_i
    (kind "e") or f_i ("f"), as (N, d): N sparse integer, d > 0 and
    Delta^u(x) = N / d, Delta(x) = q^{-h/2} (x) x + x (x) q^{h/2}.  u enters
    only for i == 0 (factor c = u on e0, 1/u on f0, on the first leg).  N is
    built from s * x (``Representation.integer_generators``) and w = a / b:
    q^{h/2} = w^{2h}, with the integer exponents 2h of
    ``Representation.square``, and |a b|^m w^k is an integer for m the
    largest |2h| and |k| <= m: d = |a b|^m s r, r the denominator of c (1 at
    u = 0, 1)."""
    s, x = rep.integer_generators[kind, i]
    c = Q(1) if i != 0 or u is None else (Q(u) if kind == "e" else 1 / Q(u))
    ks = rep.square.exponents[i]
    a, b, m = qs.w.numerator, qs.w.denominator, max(map(abs, ks))
    sign = -1 if a < 0 and m % 2 else 1
    pw = {k: sign * a ** (m + k) * b ** (m - k) for k in range(-m, m + 1)}
    high = [c.numerator * pw[k] for k in ks]     # r |a b|^m c w^{2h}
    low = [c.denominator * pw[-k] for k in ks]   # r |a b|^m w^{-2h}
    n, out = rep.dim, {}
    for p, row in x.items():
        for p2, y in row.items():
            for t, z in enumerate(high):
                out.setdefault(p * n + t, {})[p2 * n + t] = y * z
    for p, z in enumerate(low):
        for t, row in x.items():
            r = out.setdefault(p * n + t, {})
            for t2, y in row.items():
                r[p * n + t2] = r.get(p * n + t2, 0) + z * y
    for r in out.values():
        for j in [j for j, y in r.items() if not y]:
            del r[j]
    return ({p: r for p, r in out.items() if r},
            abs(a * b) ** m * s * c.denominator)


@dataclass
class IsotypicComponent:
    nu: tuple
    basis: list          # adapted basis of V0(nu) as sparse integer
                         # vectors, highest weight vector first


@dataclass
class IsotypicDecomposition:
    rep: Representation  # the seed V of V (x) V
    components: list     # IsotypicComponent, sorted by weight desc
    fixed: list          # D(e_1)..D(e_l), D(f_1)..D(f_l), each as the
                         # integer numerator of coproduct_action


def decompose(rep: Representation, qs: QSample) -> IsotypicDecomposition:
    """Isotypic decomposition of V (x) V, V = rep, under the quantum fixed
    subalgebra at sample w, with highest weight vectors sought in the
    dominant blocks of ``rep.square`` only.  Raises DecompositionError
    unless the adapted bases of the components together form a basis of
    V (x) V (rank dim V ** 2 in the shared row space): V (x) V is
    completely reducible, as q is no root of unity, so a missed highest
    weight vector would leave that rank short."""
    l, square = rep.spec.l, rep.square
    fixed = [coproduct_action(rep, kind, i, qs)[0]
             for kind in "ef" for i in range(1, l + 1)]
    # the nonzero columns of each stacked raising row, grouped by the weight
    # block of the column: a weight block's kernel is read from its own group
    block, block_rows = square.block, {}
    for k, m in enumerate(fixed[:l]):
        for r, row in m.items():
            for p, x in row.items():
                block_rows.setdefault(block[p], {}).setdefault(
                    (k, r), {})[p] = x
    components = []
    for eta, n, idxs in square.dominant:
        for vec in linalg.kernel_basis(block_rows.get(n, {}).values(), idxs):
            if components and components[-1].nu == eta:
                raise DecompositionError(f"multiplicity >= 2 at component {eta}")
            components.append(IsotypicComponent(eta, [vec]))
    # generate each component by lowering from its highest weight vector,
    # keeping the vectors that enlarge the row space shared by all components
    dim = rep.dim ** 2
    space = linalg.RowSpace()
    lowering_cols = [linalg.sparse_transpose(m) for m in fixed[l:]]
    for c in components:
        if not space.add(c.basis[0]):
            raise DecompositionError(
                f"highest weight vector of {c.nu} lies in other components")
        frontier = c.basis[:]
        while frontier:
            nxt = []
            for v in frontier:
                for cols in lowering_cols:
                    w = linalg.mat_vec(cols, v)
                    if space.add(w):
                        nxt.append(linalg._primitive(w))
            c.basis.extend(nxt)
            frontier = nxt
    if space.dim != dim:
        raise DecompositionError(
            f"adapted bases span dimension {space.dim}, expected {dim}")
    return IsotypicDecomposition(rep, components, fixed)


def component_scalars(dec: IsotypicDecomposition, M):
    """{nu: c} where the sparse operator M acts on every adapted basis vector
    of V0(nu) as the scalar c; raises DecompositionError if M is not scalar
    on a component.  The adapted basis vectors are integers, so for an
    integer M the work is in ints: M v == (a / b) v is tested as
    b * (M v) == a * v, and each c is one Fraction a / b."""
    cols = linalg.sparse_transpose(M)
    out = {}
    for comp in dec.components:
        a = None
        for v in comp.basis:
            image = linalg.mat_vec(cols, v)
            if a is None:
                p = min(v)
                a, b = image.get(p, 0), v[p]
            scalar = (image.keys() == v.keys() and all(
                b * image[j] == a * x for j, x in v.items())) if a else not image
            if not scalar:
                raise DecompositionError(
                    f"operator is not scalar on component {comp.nu}")
        out[comp.nu] = Q(a, b)
    return out


def classical_parity_signs(rep: Representation):
    """{nu: +1 or -1} as V0(nu) lies in Sym^2 V or in Alt^2 V, V = rep.

    ch Sym^2 V - ch Alt^2 V = psi^2(ch V) = sum of e^{2 mu} over the weights
    mu of V (the Adams operation), so one signed Klimyk sum of the weights
    2 mu gives each component its Sym^2 minus its Alt^2 multiplicity.  As
    V (x) V is multiplicity-free that is +1 or -1; any other coefficient
    raises DecompositionError, and a component with equal multiplicities
    drops out of the dict, whose keys the parity stage compares."""
    spec = rep.spec
    # the weights 2 * mu in Klimyk's doubled coordinates, 4 * mu
    squares = Counter(tuple(2 * a for a in doubled(mu)) for mu in rep.weights)
    signs = {tuple(Q(a, 2) for a in nu): c
             for nu, c in branching.klimyk_tensor_with(
                 doubled(spec.rho0), squares, (0,) * spec.l).items()}
    for nu, c in signs.items():
        if c not in (1, -1):
            raise DecompositionError(
                f"component {nu} has Sym^2 - Alt^2 multiplicity {c}")
    return signs
