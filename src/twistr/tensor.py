"""Tensor products of seed representations: coproduct actions, isotypic
decomposition into fixed-subalgebra components, component scalars and the
classical parity oracle.

Each component V0(nu) is encoded only by its adapted basis: the highest
weight vector followed by its independent lowerings.  All components grow
their bases in one shared row space, so reaching rank T.dim certifies that
the bases together form a basis of V (x) V.  An operator M then equals
sum(c_nu * P_nu) over the projectors of that basis exactly when M acts on
every adapted basis vector of V0(nu) as c_nu, which ``component_scalars``
checks without forming a projector or an inverse.  The decomposition keeps
the raising and lowering actions it was built from, for the solve to reuse.

The classical parity oracle builds no operator: it reads the Sym^2 / Alt^2
sign of each component off V's character (``classical_parity_signs``).

The coproduct actions on V (x) V are sparse matrices in the ``linalg`` form
{row: {col: x}}, built from the nonzeros of the factors; adapted basis
vectors are sparse vectors {col: x}.

Basis convention: index p = i * dim2 + j for v_i (x) w_j; the weight of a
product vector is the sum of the factor weights.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from . import branching, linalg
from .liealg import doubled, is_dominant, wadd
from .qrep import Representation
from .scalars import QSample

Q = Fraction


class DecompositionError(RuntimeError):
    pass


@dataclass(frozen=True)
class TensorModule:
    rep1: Representation
    rep2: Representation
    dim: int
    weights: tuple

    @classmethod
    def of(cls, rep1, rep2):
        if rep1.spec is not rep2.spec and rep1.spec != rep2.spec:
            raise ValueError("tensor factors must share a family spec")
        weights = tuple(wadd(w1, w2) for w1 in rep1.weights for w2 in rep2.weights)
        return cls(rep1, rep2, rep1.dim * rep2.dim, weights)

    @property
    def spec(self):
        return self.rep1.spec

    def weight_blocks(self):
        blocks = {}
        for p, w in enumerate(self.weights):
            blocks.setdefault(w, []).append(p)
        return blocks


def coproduct_action(T: TensorModule, kind: str, i: int, qs: QSample,
                     u=None):
    """Sparse matrix of Delta^u on the product basis, for kind "e" or "f":

        Delta(x) = q^{-h/2} (x) x + x (x) q^{h/2},

    built as x1 (x) diag(d2) + diag(d1) (x) x2 from the nonzeros of the
    sparse factor matrices x1, x2.  The spectral parameter u enters only for
    i == 0 (factor u on e0, 1/u on f0, acting on the first leg).  For
    V (x) V the q^{-h/2} diagonal is the entrywise reciprocal of the q^{h/2}
    one.
    """
    r1, r2 = T.rep1, T.rep2
    x1 = r1.e[i] if kind == "e" else r1.f[i]
    x2 = r2.e[i] if kind == "e" else r2.f[i]
    d2 = r2.qh_half_diag(i, qs)
    d1 = [1 / x for x in d2] if r1 is r2 else r1.qh_half_diag(i, qs, -1)
    if i == 0 and u is not None:
        # (c x1) (x) diag(d2) = x1 (x) diag(c d2)
        c = u if kind == "e" else 1 / u
        d2 = [c * d for d in d2]
    n2 = r2.dim
    out = {}
    for a, row in x1.items():
        for a2, x in row.items():
            for b, d in enumerate(d2):
                out.setdefault(a * n2 + b, {})[a2 * n2 + b] = x * d
    for a, d in enumerate(d1):
        for b, row in x2.items():
            r = out.setdefault(a * n2 + b, {})
            for b2, x in row.items():
                r[a * n2 + b2] = r.get(a * n2 + b2, 0) + d * x
    for r in out.values():
        for j in [j for j, x in r.items() if not x]:
            del r[j]
    return {p: r for p, r in out.items() if r}


@dataclass
class IsotypicComponent:
    nu: tuple
    basis: list          # adapted basis of V0(nu) as sparse vectors,
                         # highest weight vector first


@dataclass
class IsotypicDecomposition:
    module: TensorModule
    components: list     # IsotypicComponent, sorted by weight desc
    raising: list        # the actions of e_1..e_l and f_1..f_l the
    lowering: list       # decomposition was built from


def decompose(T: TensorModule, qs: QSample) -> IsotypicDecomposition:
    """Isotypic decomposition under the quantum fixed subalgebra at sample w.

    Raises DecompositionError unless the adapted bases of the components
    together form a basis of V (x) V (rank T.dim in the shared row space)."""
    spec = T.spec
    l = spec.l
    raising = [coproduct_action(T, "e", i, qs) for i in range(1, l + 1)]
    lowering = [coproduct_action(T, "f", i, qs) for i in range(1, l + 1)]
    blocks = T.weight_blocks()
    # the nonzero columns of each stacked raising row, grouped by the weight
    # of the column: a weight block's kernel is read from its own group
    block_rows = {}
    for k, m in enumerate(raising):
        for r, row in m.items():
            for p, x in row.items():
                block_rows.setdefault(T.weights[p], {}).setdefault(
                    (k, r), {})[p] = x
    components = []
    for eta, idxs in sorted(blocks.items(), reverse=True):
        rows = [[entries.get(p, Q(0)) for p in idxs]
                for _, entries in sorted(block_rows.get(eta, {}).items())]
        kern = linalg.kernel_basis(rows, ncols=len(idxs))
        for vec in kern:
            if not is_dominant(spec.l0type, eta):
                raise DecompositionError(
                    f"highest weight vector at non-dominant weight {eta}")
            components.append(IsotypicComponent(
                eta, [{p: c for p, c in zip(idxs, vec) if c}]))
    seen = set()
    for c in components:
        if c.nu in seen:
            raise DecompositionError(f"multiplicity >= 2 at component {c.nu}")
        seen.add(c.nu)
    # generate each component by lowering from its highest weight vector,
    # keeping the vectors that enlarge the row space shared by all components
    space = linalg.RowSpace(T.dim)
    lowering_cols = [linalg.sparse_transpose(m) for m in lowering]
    for c in components:
        if not space.add(c.basis[0]):
            raise DecompositionError(
                f"highest weight vector of {c.nu} lies in other components")
        frontier = c.basis[:]
        while frontier:
            nxt = []
            for v in frontier:
                for cols in lowering_cols:
                    w = linalg.sparse_mat_vec(cols, v)
                    if space.add(w):
                        nxt.append(w)
            c.basis.extend(nxt)
            frontier = nxt
    if space.dim != T.dim:
        raise DecompositionError(
            f"adapted bases span dimension {space.dim}, expected {T.dim}")
    return IsotypicDecomposition(T, components, raising, lowering)


def component_scalars(dec: IsotypicDecomposition, M):
    """{nu: c} where the sparse operator M acts on every adapted basis vector
    of V0(nu) as the scalar c; raises DecompositionError if M is not scalar
    on a component."""
    cols = linalg.sparse_transpose(M)
    out = {}
    for comp in dec.components:
        c = None
        for v in comp.basis:
            image = linalg.sparse_mat_vec(cols, v)
            if c is None:
                p = min(v)
                c = image.get(p, 0) / v[p]
            if image != ({j: c * x for j, x in v.items()} if c else {}):
                raise DecompositionError(
                    f"operator is not scalar on component {comp.nu}")
        out[comp.nu] = c
    return out


def classical_parity_signs(T: TensorModule):
    """{nu: +1 or -1} as V0(nu) lies in Sym^2 V or in Alt^2 V (lambda = mu).

    ch Sym^2 V - ch Alt^2 V = psi^2(ch V) = sum of e^{2 mu} over the weights
    mu of V (the Adams operation), so one signed Klimyk sum of the weights
    2 mu gives each component its Sym^2 minus its Alt^2 multiplicity.  As
    V (x) V is multiplicity-free that is +1 or -1; any other coefficient
    raises DecompositionError, and a component with equal multiplicities
    drops out of the dict, whose keys the parity stage compares."""
    rep, spec = T.rep1, T.spec
    if rep.lam != T.rep2.lam:
        raise ValueError("parity oracle needs lambda = mu")
    # the weights 2 * mu in Klimyk's doubled coordinates, 4 * mu
    squares = Counter(tuple(2 * a for a in doubled(mu)) for mu in rep.weights)
    signs = branching.klimyk_tensor_with(spec.l0type, spec.l, squares,
                                         (0,) * spec.l)
    for nu, c in signs.items():
        if c not in (1, -1):
            raise DecompositionError(
                f"component {nu} has Sym^2 - Alt^2 multiplicity {c}")
    return signs
