import dataclasses
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from twistr import jimbo, linalg, qrep, tensor, tpg
from twistr.scalars import PoleError, QSample
from twistr.tensor import DecompositionError

from conftest import YBE_CASES, fraction_coproduct, seed_rep, seed_shared
from full_solve import (full_solve, kernel_from_rowspace, product_weights,
                        top_index)
import oracles
from oracles import (bump, opposite_coproduct, permutation_operator,
                     ybe_residual_entries)

Q = Fraction


class TestSolve:
    def test_unique_solution_small_case(self, qs):
        rep = seed_rep("a2even", 1)
        res = jimbo.solve_rmatrix(seed_shared("a2even", 1), qs, Q(3, 5))
        p0 = top_index(rep)
        assert res.R[p0] == {p0: 1}
        assert len(res.R) == 9

    def test_weight_block_structure(self, qs):
        rep = seed_rep("a2odd", 3)
        res = jimbo.solve_rmatrix(seed_shared("a2odd", 3), qs, Q(2, 7))
        weights = product_weights(rep)
        for p, row in res.R.items():
            for r, x in row.items():
                assert x
                assert weights[p] == weights[r]

    def test_intertwines_all_generators(self, qs):
        rep = seed_rep("d2", 2)
        u = Q(3, 4)
        res = jimbo.solve_rmatrix(seed_shared("d2", 2), qs, u)
        gens = [("e", i) for i in range(1, 3)] + \
               [("f", i) for i in range(1, 3)] + [("e", 0), ("f", 0)]
        for kind, i in gens:
            uu = u if i == 0 else None
            A = fraction_coproduct(rep, kind, i, qs, u=uu)
            B = opposite_coproduct(rep, kind, i, qs, u=uu)
            lhs = linalg.mat_mul(res.R, A)
            rhs = linalg.mat_mul(B, res.R)
            assert lhs == rhs, (kind, i)

    @pytest.mark.parametrize("u", [Q(-8, 9), Q(0)], ids=["generic", "zero"])
    def test_matches_full_solve(self, ybe_case, qs, u):
        """The component solve returns the R and Rcheck of the elimination
        over every entry of R, at a generic u and at the parity sample."""
        res = jimbo.solve_rmatrix(seed_shared(*ybe_case), qs, u)
        assert (res.R, res.Rcheck) == full_solve(seed_rep(*ybe_case), qs, u)
        # N / D is in lowest terms with D > 0
        assert res.D > 0
        assert math.gcd(res.D, *(y for row in res.N.values()
                                 for y in row.values())) == 1

    def test_rcheck_at_one_is_identity(self, ybe_case, qs):
        """With the symmetric coproduct, P itself intertwines at u = 1."""
        shared = seed_shared(*ybe_case)
        res = jimbo.solve_rmatrix(shared, qs, Q(1))
        assert res.Rcheck == linalg.sparse_identity(shared.rep.dim ** 2)

    def test_kernel_needs_exactly_one_free_column(self):
        space = linalg.RowSpace()
        space.add({0: Q(1), 1: Q(2), 2: Q(3)})
        with pytest.raises(jimbo.SolveError):
            kernel_from_rowspace(space, 3)

    def test_generator_rescaling_invariance(self, qs):
        """e0 -> 2 e0, f0 -> f0/2 leaves the solved R unchanged."""
        rep = seed_rep("d2", 2)
        e, f = list(rep.e), list(rep.f)
        e[0] = linalg.sparse_lincomb(((Q(2), e[0]),))
        f[0] = linalg.sparse_lincomb(((Q(1, 2), f[0]),))
        scaled = qrep.Representation(rep.spec, rep.lam, rep.dim,
                                     tuple(e), tuple(f), rep.weights)
        u = Q(5, 3)
        assert jimbo.solve_rmatrix(seed_shared("d2", 2), qs, u).R == \
            jimbo.solve_rmatrix(jimbo.Shared(rep.spec, rep=scaled), qs, u).R


class TestCertificates:
    """Each certificate of the component solve refuses: a degenerate small
    system raises SolveError, a failed substitution CertificateError."""

    def test_small_system_nullity_two_raises(self):
        # two components and no e0 rows: nothing ties c_1 to c_0
        system = jimbo.ComponentSystem(2, 1, [], [], ({}, {}), G=[])
        with pytest.raises(jimbo.SolveError, match="nullity 2"):
            jimbo._solve_scalars(system, Q(2, 3))

    def test_zero_top_coefficient_raises(self):
        # X v_top = b_0, Y v_top = 0: (u - 1) c_0 = 0 leaves only c_1 free
        system = jimbo.ComponentSystem(2, 1, [], [(0, 0, Q(1), Q(0))],
                                        ({}, {}), G=[])
        with pytest.raises(jimbo.SolveError, match="top weight vector"):
            jimbo._solve_scalars(system, Q(2, 3))

    @pytest.mark.parametrize("u", [Q(0), Q(1), jimbo.sample_u(
        random.Random(22))], ids=["zero", "one", "sampled"])
    def test_small_system_matches_fraction_oracle(self, ybe_case, qs, u):
        """The small system solved in ints gives c_top times the c_nu of the
        same rows built and eliminated in Fractions: a primitive integer
        vector with c_top > 0."""
        system = seed_shared(*ybe_case).components(qs)
        assert all(type(x) is int and type(y) is int
                   for _, _, x, y in system.e0_rows)
        c = jimbo._solve_scalars(system, u)
        assert all(type(x) is int and x for x in c.values()) and c[0] > 0
        assert math.gcd(*c.values()) == 1
        assert c == {k: c[0] * x for k, x in
                     enumerate(oracles.solve_scalars(system, u)) if x}

    def test_substitution_detects_corrupted_coefficient(self, qs,
                                                       monkeypatch):
        """Mutation: one wrong c_nu still gives an Rcheck that commutes with
        the fixed subalgebra, and the e0 substitution must refuse it."""
        real = jimbo._solve_scalars

        def corrupted(system, u):
            c = real(system, u)
            last = system.ncomp - 1
            return {**c, last: c.get(last, 0) + 1}

        jimbo.solve_rmatrix(seed_shared("a2even", 2), qs, Q(3, 5))  # unmutated
        monkeypatch.setattr(jimbo, "_solve_scalars", corrupted)
        with pytest.raises(jimbo.CertificateError,
                           match="intertwining equations"):
            jimbo.solve_rmatrix(seed_shared("a2even", 2), qs, Q(3, 5))

    def test_substitution_detects_corrupted_e0_split(self, qs):
        """Mutation: one wrong entry of X, made after the small system's rows
        were read from X, leaves the c_nu right; the e0 substitution must
        still refuse the solve."""
        shared = seed_shared("a2even", 2)
        jimbo.solve_rmatrix(shared, qs, Q(3, 5))  # unmutated
        system = shared.components(qs)
        x, y = system.e0_split
        p = min(x)
        system.e0_split = (bump(x, p, min(x[p])), y)
        with pytest.raises(jimbo.CertificateError,
                           match="intertwining equations"):
            jimbo.solve_rmatrix(shared, qs, Q(3, 5))

    def test_substitution_detects_fixed_operator_rcheck_misses(self, qs):
        """Mutation: one D(x) (i >= 1) of the decomposition changed after the
        components were built from it, which the small system never reads,
        leaves the c_nu right; the fixed-subalgebra substitution must refuse
        the solve."""
        shared = seed_shared("a2even", 2)
        jimbo.solve_rmatrix(shared, qs, Q(3, 5))  # unmutated
        dec = shared.decomposition(qs)
        m = dec.fixed[0]
        p = min(m)
        dec.fixed[0] = bump(m, p, min(m[p]))
        with pytest.raises(jimbo.CertificateError,
                           match="intertwining equations"):
            jimbo.solve_rmatrix(shared, qs, Q(3, 5))

    @pytest.mark.parametrize("u", [Q(0), Q(3, 5), Q(-8, 9)],
                             ids=["zero", "3_5", "-8_9"])
    def test_swap_turns_r_form_into_rcheck_form(self, ybe_case, qs, u):
        """The identities behind the certificate, against the tests' own
        opposite coproduct: P D^T(x) P = D(x) for i >= 1, and with
        D^u(e0) = u X + Y, P D^{T,u}(e0) P = X + u Y; the solve's split is
        an integer multiple of (X, Y)."""
        shared = seed_shared(*ybe_case)
        rep = shared.rep
        P = permutation_operator(rep)

        def conj(m):
            return linalg.mat_mul(P, linalg.mat_mul(m, P))

        for i in range(1, rep.spec.l + 1):
            for kind in ("e", "f"):
                assert conj(opposite_coproduct(rep, kind, i, qs)) == \
                    fraction_coproduct(rep, kind, i, qs), (kind, i)
        y = fraction_coproduct(rep, "e", 0, qs, u=Q(0))
        x = linalg.sparse_lincomb(
            ((1, fraction_coproduct(rep, "e", 0, qs, u=Q(1))), (-1, y)))
        assert fraction_coproduct(rep, "e", 0, qs, u=u) == \
            linalg.sparse_lincomb(((u, x), (1, y)))
        assert conj(opposite_coproduct(rep, "e", 0, qs, u=u)) == \
            linalg.sparse_lincomb(((1, x), (u, y)))
        xs, ys = shared.components(qs).e0_split
        p = min(x)
        j = min(x[p])
        d = xs[p][j] / x[p][j]
        assert d.denominator == 1 and d > 0
        assert (xs, ys) == tuple(linalg.sparse_lincomb(((d, m),))
                                 for m in (x, y))


def fake_shared(block, fixed, g):
    """A stand-in for ``jimbo.Shared`` that holds only what
    ``_is_module_map`` reads at any w: a label of each index's weight block
    (``block[p]``), the integer D(e_i), D(f_i) and G = g (x) g."""
    rep = SimpleNamespace(square=SimpleNamespace(block=block))
    dec = SimpleNamespace(fixed=fixed)
    system = SimpleNamespace(G=[x * y for x in g for y in g])
    return SimpleNamespace(rep=rep, decomposition=lambda qs: dec,
                           components=lambda qs: system)


def g_symmetric(n, g):
    """True if G N is a symmetric matrix, G = g (x) g: the sparse N is
    G-symmetric, by the tests' own transpose."""
    d = len(g)
    gn = {p: {j: g[p // d] * g[p % d] * y for j, y in row.items()}
          for p, row in n.items()}
    return gn == linalg.sparse_transpose(gn)


class TestContravariantForm:
    """The f-half of the module-map certificate: V's form g, certified at
    each w as D(f_i) = c_i G^-1 D(e_i)^T G, and N certified G-symmetric in
    place of the products N D(f_i) = D(f_i) N."""

    def test_seed_reps_have_the_form(self, ybe_case):
        """f_i = g^-1 e_i^T g on every seed V, in Fractions."""
        rep = seed_rep(*ybe_case)
        g = rep.g
        assert len(g) == rep.dim and all(type(x) is int and x for x in g)
        for e, f in zip(rep.e[1:], rep.f[1:]):
            assert f == {p: {j: x * Q(g[j], g[p]) for j, x in row.items()}
                         for p, row in linalg.sparse_transpose(e).items()}

    @pytest.mark.parametrize("u", [Q(0), Q(1), jimbo.sample_u(
        random.Random(21))], ids=["zero", "one", "sampled"])
    def test_rcheck_is_g_symmetric(self, ybe_case, qs, u):
        shared = seed_shared(*ybe_case)
        assert g_symmetric(shared.solve(qs, u).N, shared.rep.g)

    def test_rescaled_f_entry_has_no_form(self, qs):
        """One entry of f_1 tripled on the d2 l=3 spinor, whose weight graph
        has a cycle through it: no g exists, and the solve refuses."""
        rep = seed_rep("d2", 3)
        f = list(rep.f)
        f[1] = bump(f[1], 2, 4, 2 * f[1][2][4])
        bad = qrep.Representation(rep.spec, rep.lam, rep.dim, rep.e,
                                  tuple(f), rep.weights)
        with pytest.raises(qrep.RepresentationError, match=r"is not g\^-1"):
            bad.g
        with pytest.raises(jimbo.CertificateError,
                           match="no contravariant form"):
            jimbo.solve_rmatrix(jimbo.Shared(rep.spec, rep=bad), qs, Q(3, 5))

    def test_wrong_lowering_operator_at_w_refused(self, qs):
        """One entry of the decomposition's integer D(f_1) changed: V still
        has its g, and the certificate at w must refuse the solve, which
        never multiplies by D(f_1)."""
        shared = seed_shared("a2even", 2)
        dec = shared.decomposition(qs)
        l = shared.rep.spec.l
        m = dec.fixed[l]
        p = min(m)
        dec.fixed[l] = bump(m, p, min(m[p]))
        with pytest.raises(jimbo.CertificateError, match=r"D\(f_1\)"):
            jimbo.solve_rmatrix(shared, qs, Q(3, 5))

    def test_one_ratio_per_generator(self, qs):
        """D(f_1) scaled by 3 is still c_1 G^-1 D(e_1)^T G, for another
        c_1: the certificate passes and the solve is unchanged."""
        want = jimbo.solve_rmatrix(seed_shared("a2even", 2), qs, Q(3, 5))
        shared = seed_shared("a2even", 2)
        dec = shared.decomposition(qs)
        l = shared.rep.spec.l
        dec.fixed[l] = linalg.sparse_lincomb(((3, dec.fixed[l]),))
        g = shared.rep.g
        assert shared.components(qs).G == [x * y for x in g for y in g]
        assert jimbo.solve_rmatrix(shared, qs, Q(3, 5)).N == want.N

    def test_refuses_a_module_map_that_is_not_g_symmetric(self, qs):
        """On V = 1 (+) W, V (x) V holds W twice, as 1 (x) W and W (x) 1.
        The map copying the first onto the second preserves weight and
        commutes with every D(e_i), D(f_i), yet is not G-symmetric, and only
        that refuses it; with its transpose added it passes."""
        w = seed_rep("a2even", 1)

        def padded(m):
            return {p + 1: {j + 1: x for j, x in row.items()}
                    for p, row in m.items()}

        rep = qrep.Representation(
            w.spec, w.lam, w.dim + 1, tuple(map(padded, w.e)),
            tuple(map(padded, w.f)), ((Q(0),) * w.spec.l,) + w.weights)
        fixed = [tensor.coproduct_action(rep, kind, i, qs)[0]
                 for kind in "ef" for i in range(1, w.spec.l + 1)]
        weights = [tuple(x + y for x, y in zip(a, b)) for a in rep.weights
                   for b in rep.weights]
        g = (1,) + w.g
        shared = fake_shared(weights, fixed, g)
        d = rep.dim
        copy = {b * d: {b: 1} for b in range(1, d)}   # 1 (x) w -> w (x) 1
        assert all(linalg.mat_mul(copy, m) == linalg.mat_mul(m, copy)
                   for m in fixed)
        assert not g_symmetric(copy, g)
        assert not jimbo._is_module_map(shared, qs, copy)
        both = linalg.sparse_lincomb(
            ((1, copy), (1, linalg.sparse_transpose(copy))))
        assert jimbo._is_module_map(shared, qs, both)

    def test_refuses_a_g_symmetric_map_across_weight_blocks(self, qs):
        """With no D(e_i) to commute with and G = 1, the swap of indices 0
        and 1 is G-symmetric and commutes with every D(e_i), so only the
        weight clause refuses it while the two lie in different weight
        blocks; in one block it passes."""
        swap = {0: {1: 1}, 1: {0: 1}}
        apart = fake_shared([0, 1, 2, 3], [], (1, 1))
        assert not jimbo._is_module_map(apart, qs, swap)
        assert jimbo._is_module_map(fake_shared([0] * 4, [], (1, 1)), qs, swap)

    def test_one_helper_and_no_lowering_product(self, qs, monkeypatch):
        """The solve and the Yang-Baxter premise both go through
        ``_is_module_map``, and no product reads a D(f_i)."""
        shared = seed_shared("d2", 2)
        dec = shared.decomposition(qs)
        lowering = {id(m) for m in dec.fixed[shared.rep.spec.l:]}
        real = linalg.products_equal
        seen = []

        def recorded(*factors):
            seen.append(bool(set(map(id, factors)) & lowering))
            return real(*factors)

        with monkeypatch.context() as m:
            m.setattr(linalg, "products_equal", recorded)
            assert jimbo.check_ybe(shared, qs, Q(3, 5), Q(-2, 7))["ok"]
        assert seen and not any(seen)
        monkeypatch.setattr(jimbo, "_is_module_map", lambda *args: False)
        with pytest.raises(jimbo.CertificateError,
                           match="intertwining equations"):
            jimbo.solve_rmatrix(shared, qs, Q(1, 3))
        assert not jimbo.check_ybe(shared, qs, Q(3, 5), Q(-2, 7))["ok"]


class TestChecks:
    def test_ybe_exact(self, ybe_case, qs):
        out = jimbo.check_ybe(seed_shared(*ybe_case), qs, Q(3, 5), Q(-2, 7))
        assert out["ok"]

    def test_ybe_detects_corruption(self, qs):
        """Negative control: a corrupted R-matrix must fail the triple test."""
        shared = seed_shared("a2even", 1)
        u, v = Q(3, 5), Q(-2, 7)
        corrupt_solve(shared, qs, u * v)
        out = jimbo.check_ybe(shared, qs, u, v)
        assert not out["ok"]

    def test_unitarity(self, ybe_case, qs):
        assert jimbo.check_unitarity(seed_shared(*ybe_case), qs, Q(4, 9))["ok"]

    def test_spectral_agreement(self, ybe_case, qs):
        assert jimbo.spectral_compare(seed_shared(*ybe_case), qs, Q(3, 7))["ok"]

    def test_spectral_agreement_detects_wrong_eigenvalue(self, qs,
                                                         monkeypatch):
        """Negative control: doubling one rho_nu must fail the check."""
        recursion = tpg.eigenvalues_by_recursion

        def perturbed(graph, qs, **kwargs):
            rho, certificates = recursion(graph, qs, **kwargs)
            top = max(rho)
            return {**rho, top: rho[top] * 2}, certificates

        monkeypatch.setattr(tpg, "eigenvalues_by_recursion", perturbed)
        assert not jimbo.spectral_compare(seed_shared("a2even", 2), qs,
                                          Q(3, 7))["ok"]

    def test_spectral_agreement_detects_wrong_normalization(self, qs):
        """Negative control: the memoized Rcheck(1) replaced by the solve at
        another u must fail the check, although N(u) still acts as
        D_u * rho_nu(u) on every component."""
        shared = seed_shared("a2even", 2)
        shared._memo[("solve", qs.w, Q(1))] = shared.solve(qs, Q(2))
        assert not jimbo.spectral_compare(shared, qs, Q(3, 7))["ok"]

    def test_spectral_agreement_refuses_component_missing_from_graph(
            self, qs, monkeypatch):
        """Negative control: a component of V (x) V with no graph node is a
        refused certificate, not a failed sample."""
        recursion = tpg.eigenvalues_by_recursion

        def dropped(graph, qs, **kwargs):
            rho, certificates = recursion(graph, qs, **kwargs)
            del rho[min(rho)]
            return rho, certificates

        monkeypatch.setattr(tpg, "eigenvalues_by_recursion", dropped)
        with pytest.raises(jimbo.CertificateError,
                           match="missing from the graph"):
            jimbo.spectral_compare(seed_shared("a2even", 2), qs, Q(3, 7))

    def test_parity_refuses_vanishing_component(self, qs, monkeypatch):
        """Negative control: Rcheck(0) zero on one component carries no
        parity, and the stage refuses it."""
        scalars = jimbo.component_scalars

        def vanishing(dec, M):
            out = scalars(dec, M)
            return {**out, min(out): 0}

        monkeypatch.setattr(jimbo, "component_scalars", vanishing)
        with pytest.raises(jimbo.CertificateError, match="vanishes on"):
            jimbo.parity_spectrum(seed_shared("a2even", 2), qs)

    def test_parity_matches_graph_and_classical(self, ybe_case, qs):
        rep = seed_rep(*ybe_case)
        spectrum = jimbo.parity_spectrum(seed_shared(*ybe_case), qs)
        graph = tpg.build_graph(rep.spec, rep.spec.seed_params())
        assert spectrum == {n.nu: n.parity for n in graph.nodes}
        assert spectrum == tensor.classical_parity_signs(rep)

    def test_parity_independent_of_w_sign(self, ybe_case):
        shared = seed_shared(*ybe_case)
        a = jimbo.parity_spectrum(shared, QSample(Q(3, 2)))
        b = jimbo.parity_spectrum(shared, QSample(Q(-3, 2)))
        assert a == b


def corrupt_solve(shared, qs, x):
    """Replace R(w, x) in the memo of ``shared`` by a copy whose numerator N
    has D added to its top diagonal entry and an entry D in the first column
    where the top row was zero, so that Rcheck and R alike gain 1 at both
    (the swap fixes the top index, so R = P * Rcheck still holds)."""
    res = shared.solve(qs, x)
    p0 = top_index(shared.rep)
    N = {p: dict(row) for p, row in res.N.items()}
    q = min(set(range(shared.rep.dim ** 2)) - set(N[p0]))
    N[p0][p0] += res.D
    N[p0][q] = res.D
    shared._memo[("solve", qs.w, x)] = dataclasses.replace(res, N=N)


def scalars_or_error(scalars, dec, m):
    """scalars(dec, m), or the message of the DecompositionError it raises."""
    try:
        return scalars(dec, m)
    except DecompositionError as exc:
        return str(exc)


@pytest.mark.parametrize("corrupt", [False, True], ids=["clean", "corrupted"])
def test_component_scalars_match_fraction_reference(ybe_case, qs, corrupt):
    """The integer component scalars agree with the Fraction reference on
    N(0) and N(u), clean and corrupted by ``corrupt_solve``: the same dict,
    or the same refusal."""
    shared = seed_shared(*ybe_case)
    dec = shared.decomposition(qs)
    for x in (Q(0), Q(3, 7)):
        if corrupt:
            corrupt_solve(shared, qs, x)
        n = shared.solve(qs, x).N
        got = scalars_or_error(tensor.component_scalars, dec, n)
        assert got == scalars_or_error(oracles.component_scalars, dec, n)
        assert isinstance(got, str) == corrupt


def rescale_solve(shared, qs, x, k):
    """Replace R(w, x) in the memo of ``shared`` by k N / k D, the same
    Rcheck over another denominator."""
    res = shared.solve(qs, x)
    shared._memo[("solve", qs.w, x)] = dataclasses.replace(
        res, N={p: {j: k * y for j, y in row.items()}
                for p, row in res.N.items()}, D=k * res.D)


def test_one_integer_form_per_w(ybe_case, qs):
    """After a solve at w, V (x) V at w is held once, in ints: every adapted
    basis vector, every D(e_i), D(f_i) of the decomposition, every scaled
    dual vector, X and Y and the c_nu are integer, and each b_k of the
    component system is the decomposition's own vector, not a copy."""
    shared = seed_shared(*ybe_case)
    shared.solve(qs, Q(3, 7))
    dec, system = shared.decomposition(qs), shared.components(qs)
    basis = [v for comp in dec.components for v in comp.basis]
    rows = basis + [row for m in dec.fixed for row in m.values()] + \
        [d for _, _, d in system.terms] + \
        [row for m in system.e0_split for row in m.values()]
    assert all(type(x) is int for row in rows for x in row.values())
    assert type(system.scale) is int
    assert all(type(c) is int
               for c in jimbo._solve_scalars(system, Q(3, 7)).values())
    assert len(dec.fixed) == 2 * shared.rep.spec.l
    assert len(system.terms) == len(basis) == shared.rep.dim ** 2
    assert all(b is v for (_, b, _), v in zip(system.terms, basis))


class TestIntegerForm:
    """The checks read Rcheck as N / D: negative controls on N and D."""

    U, V = Q(3, 5), Q(-2, 7)

    def verdicts(self, shared, qs):
        u, v = self.U, self.V
        return (jimbo.check_ybe(shared, qs, u, v),
                jimbo.check_unitarity(shared, qs, u),
                jimbo.spectral_compare(shared, qs, u),
                jimbo.parity_spectrum(shared, qs))

    @pytest.mark.parametrize("corrupt", [False, True],
                             ids=["clean", "corrupt"])
    def test_common_factor_leaves_verdicts(self, qs, corrupt):
        """k N / k D for every solve a check reads gives the same verdicts
        as N / D, with R(u) corrupted or not."""
        u, v = self.U, self.V
        results = []
        for k in (1, 6):
            shared = seed_shared("a2even", 2)
            if corrupt:
                corrupt_solve(shared, qs, u)
            for x in (u, u * v, v, 1 / u, Q(1), Q(0)):
                rescale_solve(shared, qs, x, k)
            results.append(self.verdicts(shared, qs))
        assert results[0] == results[1]
        assert results[0][0]["ok"] == results[0][1]["ok"] == \
            results[0][2]["ok"] == (not corrupt)

    def test_unitarity_detects_corruption(self, qs):
        """Negative control: a corrupted Rcheck(1/u) must fail unitarity."""
        shared = seed_shared("a2even", 2)
        assert jimbo.check_unitarity(shared, qs, self.U)["ok"]
        corrupt_solve(shared, qs, 1 / self.U)
        assert not jimbo.check_unitarity(shared, qs, self.U)["ok"]

    def test_parity_refuses_nonpositive_denominator(self, qs):
        """-N / -D is the same Rcheck(0), but its signs would be flipped."""
        shared = seed_shared("a2even", 2)
        rescale_solve(shared, qs, Q(0), -1)
        with pytest.raises(jimbo.CertificateError, match="denominator"):
            jimbo.parity_spectrum(shared, qs)

    def test_d2_l4_yang_baxter(self, qs):
        """The braid relation at d = 16 (4,096 three-site dimensions),
        clean and with R(uv) corrupted."""
        shared = seed_shared("d2", 4)
        u, v = self.U, self.V
        out = jimbo.check_ybe(shared, qs, u, v)
        assert out["ok"]
        corrupt_solve(shared, qs, u * v)
        out = jimbo.check_ybe(shared, qs, u, v)
        assert not out["ok"]

    def test_d2_l4_unitarity(self, qs):
        assert jimbo.check_unitarity(seed_shared("d2", 4), qs, self.U)["ok"]


class TestYangBaxterOracle:
    """check_ybe (the braid relation on Rcheck) against the R-form product
    R12(u) R13(uv) R23(v) = R23(v) R13(uv) R12(u) of ``oracles``."""

    @pytest.mark.parametrize("corrupt", [None, 0, 1, 2],
                             ids=["clean", "u", "uv", "v"])
    @pytest.mark.parametrize("family,l", YBE_CASES,
                             ids=[f"{f}-l{l}" for f, l in YBE_CASES])
    def test_matches_r_form(self, family, l, corrupt):
        """The same verdict as the R-form residual count on 3 samples; with
        one of R(u), R(uv), R(v) corrupted, both must fail."""
        rng = random.Random(505)
        done = 0
        while done < 3:
            w, u, v = jimbo.sample_w(rng), jimbo.sample_u(rng), jimbo.sample_u(rng)
            qs, xs = QSample(w), (u, u * v, v)
            if len(set(xs)) < 3:      # a corruption must hit one factor only
                continue
            shared = seed_shared(family, l)
            try:
                Rs = [shared.solve(qs, x).R for x in xs]
            except (jimbo.SolveError, DecompositionError, PoleError,
                    ZeroDivisionError):
                continue
            if corrupt is not None:
                corrupt_solve(shared, qs, xs[corrupt])
                Rs[corrupt] = shared.solve(qs, xs[corrupt]).R
            out = jimbo.check_ybe(shared, qs, u, v)
            want = ybe_residual_entries(*Rs, shared.rep.dim)
            assert out["ok"] == (want == 0)
            assert out["ok"] == (corrupt is None), (w, u, v)
            done += 1


class TestCyclicVectors:
    """check_ybe compares the braid sides on g_nu = v_nu (x) v_low only,
    under a premise it certifies itself: each N preserves weight and
    commutes with D(e_i), D(f_i) (i >= 1).  Negative controls of both."""

    QS, U, V = QSample(Q(-7, 5)), Q(3, 5), Q(-2, 7)

    @pytest.mark.parametrize("family,l,entry,residual", [
        ("d2", 2, (5, 5), 24), ("a2even", 2, (13, 17), 50),
        ("a2odd", 3, (16, 26), 60)], ids=["d2-l2", "a2even-l2", "a2odd-l3"])
    def test_premise_refuses_what_cyclic_vectors_miss(
            self, family, l, entry, residual, monkeypatch):
        """D added to one weight-preserving entry of N(u) passes every
        cyclic vector, so only the premise refuses it, rightly: the R-form
        sides then differ in ``residual`` entries."""
        qs, u, v = self.QS, self.U, self.V
        shared = seed_shared(family, l)
        res = shared.solve(qs, u)
        block = shared.rep.square.block
        assert block[entry[0]] == block[entry[1]]
        shared._memo[("solve", qs.w, u)] = dataclasses.replace(
            res, N=bump(res.N, *entry, res.D))
        Rs = [shared.solve(qs, x).R for x in (u, u * v, v)]
        assert ybe_residual_entries(*Rs, shared.rep.dim) == residual
        assert not jimbo.check_ybe(shared, qs, u, v)["ok"]
        with monkeypatch.context() as m:
            m.setattr(jimbo, "_is_module_map", lambda *args: True)
            assert jimbo.check_ybe(shared, qs, u, v)["ok"]

    def test_lowest_vector_certified_unique(self):
        """v_low is the one basis vector every f_i (i >= 1) kills, and only
        while V's weights are distinct; otherwise there is none and the
        check fails."""
        rep = seed_rep("a2even", 2)
        assert jimbo._lowest_index(rep) == 4
        no_f = dataclasses.replace(rep, f=rep.f[:1] + ({},) * rep.spec.l)
        assert jimbo._lowest_index(no_f) is None
        one_weight = dataclasses.replace(rep, weights=rep.weights[:1] * rep.dim)
        assert jimbo._lowest_index(one_weight) is None

    @pytest.mark.parametrize("family,l", [("d2", 2), ("a2even", 2),
                                          ("a2odd", 3)],
                             ids=["d2-l2", "a2even-l2", "a2odd-l3"])
    def test_wrong_solve_fails_on_cyclic_vectors(self, family, l):
        """Rcheck(uv) replaced by the solve at uv + 1/11 satisfies the
        premise, and the braid relation must still fail."""
        qs, u, v = self.QS, self.U, self.V
        shared = seed_shared(family, l)
        wrong = shared.solve(qs, u * v + Q(1, 11))
        assert jimbo._is_module_map(shared, qs, wrong.N)
        shared._memo[("solve", qs.w, u * v)] = wrong
        out = jimbo.check_ybe(shared, qs, u, v)
        assert not out["ok"]

    def test_failed_certificate_reads_no_three_site_rows(self, qs,
                                                         monkeypatch):
        """At d2 l=4 (d**3 = 4,096) with R(uv) corrupted, a failed premise
        applies no factor to a three-site vector, and a wrong solve that
        meets the premise at most the six factors of each cyclic vector."""
        u, v = self.U, self.V
        shared = seed_shared("d2", 4)
        real = jimbo._apply_on_legs
        calls = []

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(jimbo, "_apply_on_legs", counted)
        corrupt_solve(shared, qs, u * v)
        assert not jimbo.check_ybe(shared, qs, u, v)["ok"]
        assert not calls
        wrong = shared.solve(qs, u * v + Q(1, 11))
        assert jimbo._is_module_map(shared, qs, wrong.N)
        shared._memo[("solve", qs.w, u * v)] = wrong
        assert not jimbo.check_ybe(shared, qs, u, v)["ok"]
        ncomp = len(shared.decomposition(qs).components)
        assert 0 < len(calls) <= 6 * ncomp


class TestSampling:
    def test_streams_are_deterministic(self):
        a = random.Random(42)
        b = random.Random(42)
        assert [jimbo.sample_w(a) for _ in range(10)] == \
            [jimbo.sample_w(b) for _ in range(10)]

    def test_samples_avoid_degenerate_values(self):
        rng = random.Random(0)
        for _ in range(200):
            assert jimbo.sample_w(rng) not in (0, 1, -1)
            assert jimbo.sample_u(rng) not in (0, 1, -1)

    def test_with_retries_recovers(self):
        calls = []

        def flaky(rng):
            calls.append(1)
            if len(calls) < 3:
                raise jimbo.SolveError("degenerate")
            return "ok"

        assert jimbo.with_retries(flaky, random.Random(0)) == "ok"

    @pytest.mark.parametrize("error", [DecompositionError, ZeroDivisionError])
    def test_with_retries_raises_other_errors_at_once(self, error):
        """Only a pole or a degenerate solve is a failure of the sample."""
        calls = []

        def broken(rng):
            calls.append(1)
            raise error("not a sample failure")

        with pytest.raises(error):
            jimbo.with_retries(broken, random.Random(0))
        assert len(calls) == 1

    def test_with_retries_gives_up(self):
        def always(rng):
            raise jimbo.SolveError("degenerate")
        with pytest.raises(jimbo.SolveError):
            jimbo.with_retries(always, random.Random(0), attempts=2)
