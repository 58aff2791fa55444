import dataclasses
from fractions import Fraction

import pytest

from twistr import branching, linalg, tensor
from twistr.liealg import weyl_dim
from twistr.scalars import QSample
from twistr.tensor import TensorModule

import oracles
from conftest import seed_rep

Q = Fraction


def module(family, l):
    rep = seed_rep(family, l)
    return TensorModule.of(rep, rep)


class TestTensorModule:
    def test_weights_add(self):
        T = module("a2even", 1)
        rep = T.rep1
        for i in range(rep.dim):
            for j in range(rep.dim):
                want = tuple(a + b for a, b in
                             zip(rep.weights[i], rep.weights[j]))
                assert T.weights[i * rep.dim + j] == want

    def test_weight_blocks_partition(self):
        T = module("d2", 2)
        blocks = T.weight_blocks()
        assert sorted(p for idxs in blocks.values() for p in idxs) == \
            list(range(T.dim))

    def test_permutation_squares_to_identity(self):
        T = module("a2odd", 3)
        P = oracles.permutation_operator(T)
        assert linalg.sparse_mul(P, P) == linalg.sparse_identity(T.dim)


def _dense_kron(a, b):
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def _dense_diag(d):
    return [[d[i] if i == j else Q(0) for j in range(len(d))]
            for i in range(len(d))]


def _dense_factors(T, kind, i):
    """The dense forms of generator kind_i on the two tensor factors."""
    x1 = T.rep1.e[i] if kind == "e" else T.rep1.f[i]
    x2 = T.rep2.e[i] if kind == "e" else T.rep2.f[i]
    return oracles.dense(x1, T.rep1.dim), oracles.dense(x2, T.rep2.dim)


def _dense_coproduct(T, kind, i, qs, u, transpose):
    """Delta^u (or Delta^{T,u}) as the sum of two dense Kronecker products."""
    x1, x2 = _dense_factors(T, kind, i)
    scale = Q(1) if u is None else (u if kind == "e" else 1 / u)
    s = -1 if transpose else 1
    t1 = _dense_kron(linalg.mat_scale(x1, scale),
                     _dense_diag(T.rep2.qh_half_diag(i, qs, s)))
    t2 = _dense_kron(_dense_diag(T.rep1.qh_half_diag(i, qs, -s)), x2)
    return linalg.mat_add(t1, t2)


class TestCoproduct:
    @pytest.mark.parametrize("family,l", [("a2even", 2), ("a2odd", 3),
                                          ("d2", 2)],
                             ids=["a2even-l2", "a2odd-l3", "d2-l2"])
    def test_matches_dense_kronecker(self, family, l, qs):
        T = module(family, l)
        for i in range(l + 1):
            u = Q(-5, 3) if i == 0 else None
            for kind in ("e", "f"):
                for transpose in (False, True):
                    want = _dense_coproduct(T, kind, i, qs, u, transpose)
                    build = (oracles.opposite_coproduct if transpose
                             else tensor.coproduct_action)
                    got = build(T, kind, i, qs, u=u)
                    assert got == linalg.sparse(want), (kind, i, transpose)

    def test_cartan_weight_conservation(self, qs):
        """Delta(e_i) raises the total weight by alpha_i."""
        T = module("a2even", 2)
        spec = T.spec
        for i in range(spec.l + 1):
            m = tensor.coproduct_action(T, "e", i, qs, u=Q(1) if i == 0 else None)
            for p, row in m.items():
                for r, x in row.items():
                    assert x
                    diff = tuple(a - b for a, b in
                                 zip(T.weights[p], T.weights[r]))
                    assert diff == spec.alpha[i]

    def test_coassociative_commutators(self, qs):
        """[Delta(e_i), Delta(f_j)] = 0 for i != j, i, j >= 1."""
        T = module("a2odd", 3)
        for i in range(1, 4):
            for j in range(1, 4):
                if i == j:
                    continue
                a = tensor.coproduct_action(T, "e", i, qs)
                b = tensor.coproduct_action(T, "f", j, qs)
                assert linalg.sparse_mul(a, b) == linalg.sparse_mul(b, a)

    def test_transpose_is_swap_conjugate(self, qs):
        """Delta^T(a) = P Delta(a) P for the non-affine generators."""
        T = module("d2", 2)
        P = oracles.permutation_operator(T)
        for i in range(1, 3):
            for kind in ("e", "f"):
                d = tensor.coproduct_action(T, kind, i, qs)
                dt = oracles.opposite_coproduct(T, kind, i, qs)
                assert dt == linalg.sparse_mul(P, linalg.sparse_mul(d, P))


class TestDecomposition:
    def test_matches_closed_form_components(self, ybe_case, qs):
        family, l = ybe_case
        T = module(family, l)
        dec = tensor.decompose(T, qs)
        table = branching.decompose_tensor_closed_form(T.spec,
                                                       T.spec.seed_params())
        assert sorted(c.nu for c in dec.components) == sorted(table.nus())
        dims = {c.nu: c.dim for c in table.components}
        for c in dec.components:
            assert len(c.basis) == dims[c.nu]

    @pytest.mark.parametrize("family,l", [("a2even", 2), ("d2", 2)],
                             ids=["a2even-l2", "d2-l2"])
    def test_adapted_bases_span(self, family, l, qs):
        """The concatenated adapted bases form a basis of V (x) V."""
        T = module(family, l)
        dec = tensor.decompose(T, qs)
        vectors = [[v.get(p, Q(0)) for p in range(T.dim)]
                   for c in dec.components for v in c.basis]
        assert len(vectors) == T.dim
        assert len(linalg.rref(vectors)[1]) == T.dim

    def test_component_scalars_rejects_non_scalar(self, qs):
        """A raising coproduct kills each highest weight vector but not the
        lowerings below it, so it is not scalar on any component."""
        T = module("a2even", 2)
        dec = tensor.decompose(T, qs)
        raising = tensor.coproduct_action(T, "e", 1, qs)
        with pytest.raises(tensor.DecompositionError):
            tensor.component_scalars(dec, raising)

    def test_classical_agrees_with_quantum_components(self, qs):
        T = module("d2", 2)
        dq = tensor.decompose(T, qs)
        assert sorted(c.nu for c in dq.components) == \
            sorted(tensor.classical_parity_signs(T))


class TestClassicalParity:
    @pytest.mark.parametrize("family,l,expected", [
        ("a2even", 1, {(2,): 1, (1,): -1, (0,): 1}),
        ("a2even", 2, {(2, 0): 1, (1, 1): -1, (0, 0): 1}),
        ("a2odd", 3, {(2, 0, 0): 1, (1, 1, 0): -1, (0, 0, 0): -1}),
        ("d2", 2, {(1, 1): 1, (1, 0): -1, (0, 0): -1}),
        ("d2", 3, {(1, 1, 1): 1, (1, 1, 0): -1, (1, 0, 0): -1, (0, 0, 0): 1}),
    ])
    def test_known_splits(self, family, l, expected):
        T = module(family, l)
        signs = tensor.classical_parity_signs(T)
        want = {tuple(Q(x) for x in nu): s for nu, s in expected.items()}
        assert signs == want

    def test_dimension_bookkeeping(self):
        """The symmetric and antisymmetric square dims are d*(d+-1)/2."""
        T = module("a2odd", 3)
        signs = tensor.classical_parity_signs(T)
        d = T.rep1.dim
        sym = sum(weyl_dim(T.spec.l0type, T.spec.l, nu)
                  for nu, s in signs.items() if s > 0)
        alt = sum(weyl_dim(T.spec.l0type, T.spec.l, nu)
                  for nu, s in signs.items() if s < 0)
        assert (sym, alt) == (d * (d + 1) // 2, d * (d - 1) // 2)

    def test_plus_components_are_the_symmetric_square(self, grid_case):
        """The +1 components are exactly the components of Sym^2 V, by the
        brute-force symmetric-square oracle, each with multiplicity 1."""
        T = module(*grid_case)
        signs = tensor.classical_parity_signs(T)
        assert oracles.brute_force_symmetric_square(T.rep1) == \
            {nu: 1 for nu, s in signs.items() if s > 0}

    def test_doubled_weights_refused(self, grid_case):
        """Negative control: with every weight of V counted twice, psi^2
        gives each component the coefficient +-2, which is refused."""
        rep = seed_rep(*grid_case)
        double = dataclasses.replace(rep, weights=rep.weights * 2,
                                     dim=2 * rep.dim)
        with pytest.raises(tensor.DecompositionError):
            tensor.classical_parity_signs(TensorModule.of(double, double))
