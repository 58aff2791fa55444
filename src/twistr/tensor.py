"""Tensor products of seed representations: coproduct actions, isotypic
decomposition into fixed-subalgebra components, component scalars and the
classical parity oracle.

Each component V0(nu) is encoded only by its adapted basis: the highest
weight vector followed by its independent lowerings.  All components grow
their bases in one shared row space, so reaching rank T.dim certifies that
the bases together form a basis of V (x) V.  An operator M then equals
sum(c_nu * P_nu) over the projectors of that basis exactly when M acts on
every adapted basis vector of V0(nu) as c_nu, which ``component_scalars``
checks without forming a projector or an inverse.

Basis convention: index p = i * dim2 + j for v_i (x) w_j; the weight of a
product vector is the sum of the factor weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .liealg import inner, is_dominant, wadd
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


def _kron(a, b):
    n1, n2, m2 = len(a), len(b), len(b[0])
    out = linalg.zeros(n1 * n2, len(a[0]) * m2)
    for i in range(n1):
        for k in range(len(a[0])):
            c = a[i][k]
            if not c:
                continue
            for j in range(n2):
                for t in range(m2):
                    if b[j][t]:
                        out[i * n2 + j][k * m2 + t] = c * b[j][t]
    return out


def _diag(d):
    m = linalg.zeros(len(d), len(d))
    for p, x in enumerate(d):
        m[p][p] = x
    return m


def coproduct_action(T: TensorModule, kind: str, i: int, qs: QSample,
                     u=None, transpose=False):
    """Matrix of Delta^u (or the opposite coproduct Delta^{T,u}) on the
    product basis, for kind "e" or "f":

        Delta(x)   = q^{-h/2} (x) x + x (x) q^{h/2}
        Delta^T(x) = x (x) q^{-h/2} + q^{h/2} (x) x

    The spectral parameter u enters only for i == 0 (factor u on e0, 1/u on
    f0, acting on the first leg).
    """
    r1, r2 = T.rep1, T.rep2
    x1 = r1.e[i] if kind == "e" else r1.f[i]
    x2 = r2.e[i] if kind == "e" else r2.f[i]
    scale = Q(1)
    if i == 0 and u is not None:
        scale = u if kind == "e" else 1 / u
    s = -1 if transpose else 1
    t1 = _kron(linalg.mat_scale(x1, scale), _diag(r2.qh_half_diag(i, qs, s)))
    t2 = _kron(_diag(r1.qh_half_diag(i, qs, -s)), x2)
    return linalg.mat_add(t1, t2)


def classical_coproduct(T: TensorModule, kind: str, i: int):
    """x (x) 1 + 1 (x) x with the classical (= undeformed) generator matrices."""
    r1, r2 = T.rep1, T.rep2
    x1 = r1.e[i] if kind == "e" else r1.f[i]
    x2 = r2.e[i] if kind == "e" else r2.f[i]
    return linalg.mat_add(_kron(x1, linalg.identity(r2.dim)),
                          _kron(linalg.identity(r1.dim), x2))


def permutation_operator(T: TensorModule):
    if T.rep1.dim != T.rep2.dim:
        raise ValueError("swap needs equal factor dimensions")
    d = T.rep1.dim
    m = linalg.zeros(T.dim, T.dim)
    for i in range(d):
        for j in range(d):
            m[i * d + j][j * d + i] = Q(1)
    return m


@dataclass
class IsotypicComponent:
    nu: tuple
    basis: list          # adapted basis of V0(nu), highest weight vector first


@dataclass
class IsotypicDecomposition:
    module: TensorModule
    components: list     # IsotypicComponent, sorted by weight desc


def _decompose_with(T: TensorModule, raising, lowering):
    """Shared decomposition engine given the l raising/lowering actions.

    Raises DecompositionError unless the adapted bases of the components
    together form a basis of V (x) V (rank T.dim in the shared row space)."""
    spec = T.spec
    blocks = T.weight_blocks()
    components = []
    for eta, idxs in sorted(blocks.items(), reverse=True):
        # rows of the stacked raising maps restricted to this weight space
        rows = []
        for m in raising:
            cols = {}
            for p in idxs:
                for r in range(T.dim):
                    if m[r][p]:
                        cols.setdefault(r, {})[p] = m[r][p]
            for r, entries in sorted(cols.items()):
                rows.append([entries.get(p, Q(0)) for p in idxs])
        kern = linalg.kernel_basis(rows or [[Q(0)] * len(idxs)], ncols=len(idxs))
        for vec in kern:
            if not is_dominant(spec.l0type, eta):
                raise DecompositionError(
                    f"highest weight vector at non-dominant weight {eta}")
            full = [Q(0)] * T.dim
            for p, c in zip(idxs, vec):
                full[p] = c
            components.append(IsotypicComponent(eta, [full]))
    seen = set()
    for c in components:
        if c.nu in seen:
            raise DecompositionError(f"multiplicity >= 2 at component {c.nu}")
        seen.add(c.nu)
    # generate each component by lowering from its highest weight vector,
    # keeping the vectors that enlarge the row space shared by all components
    space = linalg.RowSpace(T.dim)
    for c in components:
        if not space.add(c.basis[0]):
            raise DecompositionError(
                f"highest weight vector of {c.nu} lies in other components")
        frontier = c.basis[:]
        while frontier:
            nxt = []
            for v in frontier:
                for m in lowering:
                    w = linalg.mat_vec(m, v)
                    if space.add(w):
                        nxt.append(w)
            c.basis.extend(nxt)
            frontier = nxt
    if space.dim != T.dim:
        raise DecompositionError(
            f"adapted bases span dimension {space.dim}, expected {T.dim}")
    return IsotypicDecomposition(T, components)


def decompose(T: TensorModule, qs: QSample) -> IsotypicDecomposition:
    """Isotypic decomposition under the quantum fixed subalgebra at sample w."""
    l = T.spec.l
    raising = [coproduct_action(T, "e", i, qs) for i in range(1, l + 1)]
    lowering = [coproduct_action(T, "f", i, qs) for i in range(1, l + 1)]
    return _decompose_with(T, raising, lowering)


def decompose_classical(T: TensorModule) -> IsotypicDecomposition:
    l = T.spec.l
    raising = [classical_coproduct(T, "e", i) for i in range(1, l + 1)]
    lowering = [classical_coproduct(T, "f", i) for i in range(1, l + 1)]
    return _decompose_with(T, raising, lowering)


def component_scalars(dec: IsotypicDecomposition, M):
    """{nu: c} where M acts on every adapted basis vector of V0(nu) as the
    scalar c; raises DecompositionError if M is not scalar on a component."""
    out = {}
    for comp in dec.components:
        c = None
        for v in comp.basis:
            image = linalg.mat_vec(M, v)
            if c is None:
                p = next(i for i, x in enumerate(v) if x)
                c = image[p] / v[p]
            if any(x != c * y for x, y in zip(image, v)):
                raise DecompositionError(
                    f"operator is not scalar on component {comp.nu}")
        out[comp.nu] = c
    return out


def classical_parity_signs(T: TensorModule):
    """Parity (symmetric / antisymmetric square membership) of each component
    for lambda = mu, read off from the permutation operator at q = 1."""
    if T.rep1.lam != T.rep2.lam:
        raise ValueError("parity oracle needs lambda = mu")
    signs = component_scalars(decompose_classical(T), permutation_operator(T))
    for nu, s in signs.items():
        if s not in (1, -1):
            raise DecompositionError(f"component {nu} mixes symmetry classes")
    return {nu: int(s) for nu, s in signs.items()}
