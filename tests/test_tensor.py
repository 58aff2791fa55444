import dataclasses
import math
from fractions import Fraction

import pytest

from twistr import branching, linalg, tensor
from twistr.liealg import is_dominant, weyl_dim
from twistr.scalars import QSample

import oracles
from conftest import YBE_CASES, fraction_coproduct, seed_rep
from full_solve import product_weights

Q = Fraction


class TestTensorModule:
    """The product weights and weight blocks of ``rep.square`` that
    ``decompose`` reads, and the swap of V (x) V."""

    def test_weights_add(self, qs):
        """Each index lies in the block of the sum of its factor weights,
        and ``block`` numbers it by that block's place in ``blocks``."""
        rep = seed_rep("a2even", 1)
        dec = tensor.decompose(rep, qs)
        square = dec.rep.square
        weights = list(square.blocks)
        for i in range(rep.dim):
            for j in range(rep.dim):
                want = tuple(a + b for a, b in
                             zip(rep.weights[i], rep.weights[j]))
                assert weights[square.block[i * rep.dim + j]] == want
                assert i * rep.dim + j in square.blocks[want]

    def test_weight_blocks_partition(self, qs):
        rep = seed_rep("d2", 2)
        blocks = tensor.decompose(rep, qs).rep.square.blocks
        assert sorted(p for idxs in blocks.values() for p in idxs) == \
            list(range(rep.dim ** 2))

    def test_one_skeleton_per_rep(self, ybe_case):
        """Two decompositions of one rep at different w read one skeleton,
        built on first read, and it equals a recomputation from scratch:
        the blocks of the product weights in order of first occurrence,
        the block of each index, the dominant blocks by weight descending
        and 2 h_i of each basis vector of V."""
        rep = dataclasses.replace(seed_rep(*ybe_case))
        assert "square" not in vars(rep)
        a = tensor.decompose(rep, QSample(Q(3, 2)))
        sq = vars(rep)["square"]     # built by the first decomposition
        b = tensor.decompose(rep, QSample(Q(-5, 7)))
        assert a.rep is b.rep is rep and rep.square is sq
        weights = product_weights(rep)
        blocks = {}
        for p, wt in enumerate(weights):
            blocks.setdefault(wt, []).append(p)
        assert list(sq.blocks.items()) == list(blocks.items())
        assert sq.block == tuple(list(blocks).index(wt) for wt in weights)
        assert sq.dominant == tuple(sorted(
            ((wt, k, blocks[wt]) for k, wt in enumerate(blocks)
             if is_dominant(rep.spec.l0type, wt)), reverse=True))
        assert sq.exponents == tuple(tuple(int(2 * h) for h in hs)
                                     for hs in rep.h)
        assert all(2 * h == int(2 * h) for hs in rep.h for h in hs)

    def test_permutation_squares_to_identity(self):
        rep = seed_rep("a2odd", 3)
        P = oracles.permutation_operator(rep)
        assert linalg.mat_mul(P, P) == oracles.sparse_identity(rep.dim ** 2)


def _parallel(a, b):
    """True if the nonzero sparse vectors a and b span one line."""
    return len(linalg.rref([a, b])) == 1


def _dense_kron(a, b):
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def _dense_diag(d):
    return [[d[i] if i == j else Q(0) for j in range(len(d))]
            for i in range(len(d))]


def _dense_coproduct(rep, kind, i, qs, u, transpose):
    """Delta^u (or Delta^{T,u}) as the sum of two dense Kronecker products,
    with q^{+-h/2} computed here from the weights."""
    x = oracles.dense(rep.e[i] if kind == "e" else rep.f[i], rep.dim)
    scale = Q(1) if u is None else (u if kind == "e" else 1 / u)
    s = -1 if transpose else 1
    half = [rep.h[i][p] / 2 for p in range(rep.dim)]
    t1 = _dense_kron(oracles.mat_scale(x, scale),
                     _dense_diag([qs.q_pow(s * h) for h in half]))
    t2 = _dense_kron(_dense_diag([qs.q_pow(-s * h) for h in half]), x)
    return oracles.mat_add(t1, t2)


class TestCoproduct:
    @pytest.mark.parametrize("family,l", [("a2even", 2), ("a2odd", 3),
                                          ("d2", 2)],
                             ids=["a2even-l2", "a2odd-l3", "d2-l2"])
    def test_matches_dense_kronecker(self, family, l, qs):
        rep = seed_rep(family, l)
        for i in range(l + 1):
            u = Q(-5, 3) if i == 0 else None
            for kind in ("e", "f"):
                for transpose in (False, True):
                    want = _dense_coproduct(rep, kind, i, qs, u, transpose)
                    build = (oracles.opposite_coproduct if transpose
                             else fraction_coproduct)
                    got = build(rep, kind, i, qs, u=u)
                    assert got == oracles.sparse(want), (kind, i, transpose)

    @pytest.mark.parametrize("w", [Q(3, 2), Q(-7, 5), Q(-1, 3)],
                             ids=["3_2", "-7_5", "-1_3"])
    @pytest.mark.parametrize("case", YBE_CASES,
                             ids=lambda c: f"{c[0]}-l{c[1]}")
    def test_numerator_over_denominator(self, case, w):
        """The integer numerator N over the positive denominator d equals
        Delta^u(x) built in Fractions, for every generator, also at a
        negative w where 2h is odd (the d2 spinor's short root)."""
        rep = seed_rep(*case)
        qs = QSample(w)
        for i in range(rep.spec.l + 1):
            for kind in ("e", "f"):
                for u in ((None,) if i else (Q(-5, 3), Q(7)) +
                          ((Q(0),) if kind == "e" else ())):
                    num, d = tensor.coproduct_action(rep, kind, i, qs, u=u)
                    assert type(d) is int and d > 0
                    assert all(type(y) is int and y
                               for row in num.values() for y in row.values())
                    want = _dense_coproduct(rep, kind, i, qs, u, False)
                    assert num == oracles.sparse(oracles.mat_scale(want, d)), \
                        (kind, i, u)

    def test_cartan_weight_conservation(self, qs):
        """Delta(e_i) raises the total weight by alpha_i."""
        rep = seed_rep("a2even", 2)
        spec, weights = rep.spec, product_weights(rep)
        for i in range(spec.l + 1):
            m = fraction_coproduct(rep, "e", i, qs,
                                   u=Q(1) if i == 0 else None)
            for p, row in m.items():
                for r, x in row.items():
                    assert x
                    diff = tuple(a - b for a, b in
                                 zip(weights[p], weights[r]))
                    assert diff == spec.alpha[i]

    def test_coassociative_commutators(self, qs):
        """[Delta(e_i), Delta(f_j)] = 0 for i != j, i, j >= 1."""
        rep = seed_rep("a2odd", 3)
        for i in range(1, 4):
            for j in range(1, 4):
                if i == j:
                    continue
                a = fraction_coproduct(rep, "e", i, qs)
                b = fraction_coproduct(rep, "f", j, qs)
                assert linalg.mat_mul(a, b) == linalg.mat_mul(b, a)

    def test_transpose_is_swap_conjugate(self, qs):
        """Delta^T(a) = P Delta(a) P for the non-affine generators."""
        rep = seed_rep("d2", 2)
        P = oracles.permutation_operator(rep)
        for i in range(1, 3):
            for kind in ("e", "f"):
                d = fraction_coproduct(rep, kind, i, qs)
                dt = oracles.opposite_coproduct(rep, kind, i, qs)
                assert dt == linalg.mat_mul(P, linalg.mat_mul(d, P))


class TestDecomposition:
    def test_matches_closed_form_components(self, ybe_case, qs):
        family, l = ybe_case
        rep = seed_rep(family, l)
        dec = tensor.decompose(rep, qs)
        table = branching.decompose_tensor_closed_form(rep.spec,
                                                       rep.spec.seed_params())
        assert sorted(c.nu for c in dec.components) == \
            sorted(c.nu for c in table)
        dims = {c.nu: c.dim for c in table}
        for c in dec.components:
            assert len(c.basis) == dims[c.nu]

    @pytest.mark.parametrize("family,l", [("a2even", 2), ("d2", 2)],
                             ids=["a2even-l2", "d2-l2"])
    def test_adapted_bases_span(self, family, l, qs):
        """The concatenated adapted bases form a basis of V (x) V, by the
        Fraction elimination of the oracle, not decompose's own."""
        rep = seed_rep(family, l)
        dim = rep.dim ** 2
        dec = tensor.decompose(rep, qs)
        vectors = [[v.get(p, Q(0)) for p in range(dim)]
                   for c in dec.components for v in c.basis]
        assert len(vectors) == dim
        assert len(oracles.rref(vectors)[1]) == dim

    @pytest.mark.parametrize("family,l", [("d2", 4), ("a2even", 4),
                                          ("a2odd", 4)],
                             ids=["d2-l4", "a2even-l4", "a2odd-l4"])
    def test_adapted_basis_is_primitive(self, family, l):
        """Every adapted basis vector, each lowering included, is an integer
        vector with content gcd 1."""
        dec = tensor.decompose(seed_rep(family, l), QSample(Q(-7, 5)))
        assert all(type(x) is int and math.gcd(*v.values()) == 1
                   for c in dec.components for v in c.basis
                   for x in v.values())

    def test_component_scalars_rejects_non_scalar(self, qs):
        """A raising coproduct kills each highest weight vector but not the
        lowerings below it, so it is not scalar on any component."""
        rep = seed_rep("a2even", 2)
        dec = tensor.decompose(rep, qs)
        raising, _ = tensor.coproduct_action(rep, "e", 1, qs)
        with pytest.raises(tensor.DecompositionError):
            oracles.component_scalars(dec, raising)

    def test_classical_agrees_with_quantum_components(self, qs):
        rep = seed_rep("d2", 2)
        dq = tensor.decompose(rep, qs)
        assert sorted(c.nu for c in dq.components) == \
            sorted(tensor.classical_parity_signs(rep))


class TestDecompositionRefusals:
    """Negative controls: each refusal of ``decompose`` raises
    DecompositionError once the highest weight search it guards is
    corrupted (a2even l=2: V (x) V = V0(2,0) + V0(1,1) + V0(0,0))."""

    def test_multiplicity_two(self, qs, monkeypatch):
        """The top block's highest weight vector returned twice."""
        real = linalg.kernel_basis
        calls = []

        def top_twice(rows, cols):
            calls.append(1)
            kern = real(rows, cols)
            return kern * 2 if len(calls) == 1 else kern

        monkeypatch.setattr(linalg, "kernel_basis", top_twice)
        with pytest.raises(tensor.DecompositionError,
                           match="multiplicity >= 2"):
            tensor.decompose(seed_rep("a2even", 2), qs)

    def test_lowering_of_the_top(self, qs, monkeypatch):
        """V0(1,1)'s highest weight vector replaced by Delta(f_1) applied to
        v_top (x) v_top, which V0(2,0)'s lowerings already span."""
        rep = seed_rep("a2even", 2)
        dec = tensor.decompose(rep, qs)
        top, second = dec.components[0].basis[0], dec.components[1].basis[0]
        p0 = min(top)
        lowered = {r: row[p0] for r, row in
                   tensor.coproduct_action(rep, "f", 1, qs)[0].items()
                   if p0 in row}
        block = rep.square.block
        assert block[min(lowered)] == block[min(second)]
        real = linalg.kernel_basis

        def replaced(rows, cols):
            kern = real(rows, cols)
            if len(kern) == 1 and _parallel(kern[0], second):
                return [lowered]
            return kern

        monkeypatch.setattr(linalg, "kernel_basis", replaced)
        with pytest.raises(tensor.DecompositionError,
                           match="lies in other components"):
            tensor.decompose(rep, qs)

    def test_missed_dominant_block(self, qs):
        """The skeleton's dominant blocks without V0(0,0)'s weight: the rank
        certificate that the dominant-only search relies on refuses the
        decomposition."""
        rep = dataclasses.replace(seed_rep("a2even", 2))   # a fresh skeleton
        zero = (Q(0), Q(0))
        dominant = [d for d in rep.square.dominant if d[0] != zero]
        assert len(dominant) == len(rep.square.dominant) - 1
        vars(rep)["square"] = dataclasses.replace(rep.square,
                                                  dominant=tuple(dominant))
        with pytest.raises(tensor.DecompositionError,
                           match="adapted bases span dimension 24, "
                                 "expected 25"):
            tensor.decompose(rep, qs)

    def test_no_highest_weight_vector_off_dominant_weights(self, ybe_case,
                                                           qs):
        """The blocks the search skips hold no highest weight vector."""
        rep = seed_rep(*ybe_case)
        dec = tensor.decompose(rep, qs)
        for eta, idxs in rep.square.blocks.items():
            if is_dominant(rep.spec.l0type, eta):
                continue
            rows = [{p: row[p] for p in idxs if p in row}
                    for m in dec.fixed[:rep.spec.l] for row in m.values()]
            assert linalg.kernel_basis(rows, idxs) == [], eta


class TestClassicalParity:
    @pytest.mark.parametrize("family,l,expected", [
        ("a2even", 1, {(2,): 1, (1,): -1, (0,): 1}),
        ("a2even", 2, {(2, 0): 1, (1, 1): -1, (0, 0): 1}),
        ("a2odd", 3, {(2, 0, 0): 1, (1, 1, 0): -1, (0, 0, 0): -1}),
        ("d2", 2, {(1, 1): 1, (1, 0): -1, (0, 0): -1}),
        ("d2", 3, {(1, 1, 1): 1, (1, 1, 0): -1, (1, 0, 0): -1, (0, 0, 0): 1}),
    ])
    def test_known_splits(self, family, l, expected):
        signs = tensor.classical_parity_signs(seed_rep(family, l))
        want = {tuple(Q(x) for x in nu): s for nu, s in expected.items()}
        assert signs == want

    def test_dimension_bookkeeping(self):
        """The symmetric and antisymmetric square dims are d*(d+-1)/2."""
        rep = seed_rep("a2odd", 3)
        signs = tensor.classical_parity_signs(rep)
        d, spec = rep.dim, rep.spec
        sym = sum(weyl_dim(spec.l0type, spec.l, nu)
                  for nu, s in signs.items() if s > 0)
        alt = sum(weyl_dim(spec.l0type, spec.l, nu)
                  for nu, s in signs.items() if s < 0)
        assert (sym, alt) == (d * (d + 1) // 2, d * (d - 1) // 2)

    def test_plus_components_are_the_symmetric_square(self, grid_case):
        """The +1 components are exactly the components of Sym^2 V, by the
        brute-force symmetric-square oracle, each with multiplicity 1."""
        rep = seed_rep(*grid_case)
        signs = tensor.classical_parity_signs(rep)
        assert oracles.brute_force_symmetric_square(rep) == \
            {nu: 1 for nu, s in signs.items() if s > 0}

    def test_doubled_weights_refused(self, grid_case):
        """Negative control: with every weight of V counted twice, psi^2
        gives each component the coefficient +-2, which is refused."""
        rep = seed_rep(*grid_case)
        double = dataclasses.replace(rep, weights=rep.weights * 2,
                                     dim=2 * rep.dim)
        with pytest.raises(tensor.DecompositionError):
            tensor.classical_parity_signs(double)
