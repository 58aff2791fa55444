from fractions import Fraction

import pytest

from twistr import liealg
from twistr.branching import decompose_tensor_closed_form, input_weight
from twistr.liealg import (FamilyError, casimir_eigenvalue, doubled, eps,
                           family_spec, inner, wadd, weyl_dim, wscale)

import oracles
from conftest import CLOSED_FORM_GRID, GRID

Q = Fraction


class TestFamilySpec:
    def test_unknown_family(self):
        with pytest.raises(FamilyError):
            family_spec("e8", 8)

    @pytest.mark.parametrize("family,l", [("a2odd", 2), ("d2", 1), ("a2even", 0)])
    def test_rank_floor(self, family, l):
        with pytest.raises(FamilyError):
            family_spec(family, l)

    def test_a2even_data(self):
        spec = family_spec("a2even", 3)
        assert spec.n == 7 and spec.l0type == "B"
        assert spec.theta0 == wscale(eps(1, 3), Q(2))
        assert spec.alpha[0] == wscale(eps(1, 3), Q(-2))

    def test_a2odd_data(self):
        spec = family_spec("a2odd", 3)
        assert spec.n == 6 and spec.l0type == "C"
        assert spec.theta0 == (Q(1), Q(1), Q(0))

    def test_d2_data(self):
        spec = family_spec("d2", 2)
        assert spec.n == 6 and spec.l0type == "B"
        assert spec.theta0 == eps(1, 2)

    def test_affine_cartan_row_sums(self):
        """theta0 + alpha0 = 0 in the eps basis for every family."""
        for family, l in [("a2even", 2), ("a2odd", 3), ("d2", 2)]:
            spec = family_spec(family, l)
            assert tuple(a + b for a, b in zip(spec.theta0, spec.alpha[0])) == \
                tuple(Q(0) for _ in range(l))

    def test_admissibility(self):
        spec = family_spec("a2even", 2)
        assert spec.admissible((1, 2)) and not spec.admissible((0, 1))
        assert not spec.admissible((1, 3))
        spec = family_spec("a2odd", 3)
        assert spec.admissible((2, 7)) and not spec.admissible((0, 2))


class TestWeylData:
    @pytest.mark.parametrize("l0type,l,count", [("B", 2, 4), ("B", 3, 9),
                                                ("C", 3, 9), ("C", 4, 16)])
    def test_positive_root_count(self, l0type, l, count):
        assert len(oracles.positive_roots(l0type, l)) == count

    @pytest.mark.parametrize("l0type,l,nu,dim", [
        ("B", 2, (1, 0), 5),             # vector of so(5)
        ("B", 2, (Q(1, 2), Q(1, 2)), 4),  # spinor of so(5)
        ("B", 3, (1, 0, 0), 7),
        ("C", 3, (1, 0, 0), 6),          # vector of sp(6)
        ("C", 3, (1, 1, 0), 14),
        ("B", 3, (Q(1, 2), Q(1, 2), Q(1, 2)), 8),
    ])
    def test_weyl_dimension(self, l0type, l, nu, dim):
        nu = tuple(Q(x) for x in nu)
        assert weyl_dim(l0type, l, nu) == dim

    def test_weyl_dimension_refuses_weight_outside_half_integers(self):
        with pytest.raises(ValueError, match="not in"):
            weyl_dim("B", 2, (Q(1, 3), Q(0)))
        with pytest.raises(ValueError, match="not in"):
            weyl_dim("C", 3, (Q(1), Q(1, 4), Q(0)))

    @pytest.mark.parametrize("nu", [
        (Q(0), Q(1)),        # nu + rho on a wall: dimension 0
        (Q(0), Q(2)),        # reflected: dimension -10
        (Q(1), Q(1, 2)),     # mixed integrality: dimension 35/4
    ])
    def test_weyl_dimension_refuses_non_positive_integer_result(self, nu):
        with pytest.raises(ValueError, match="not a positive integer"):
            weyl_dim("B", 2, nu)

    def test_spinor_fundamental_weight(self):
        """The d2 input weight p is p times the spinor weight of B_l."""
        spec = family_spec("d2", 3)
        assert input_weight(spec, 1) == (Q(1, 2),) * 3
        assert input_weight(spec, 2) == (Q(1),) * 3

    def test_dominance(self):
        assert liealg.is_dominant("B", (Q(3, 2), Q(1, 2)))
        assert not liealg.is_dominant("B", (Q(3, 2), Q(1)))  # mixed integrality
        assert not liealg.is_dominant("C", (Q(1, 2), Q(1, 2)))
        assert not liealg.is_dominant("B", (Q(0), Q(1)))


class TestCasimir:
    def test_matches_a2even_closed_form(self):
        spec = family_spec("a2even", 4)
        for c, d in [(0, 0), (0, 2), (1, 3), (2, 2)]:
            nu = tuple(Q(2) if i < c else (Q(1) if i < d else Q(0))
                       for i in range(4))
            assert casimir_eigenvalue(spec, nu) == \
                oracles.casimir_a2even_cd(4, c, d)

    def test_matches_a2odd_closed_form(self):
        spec = family_spec("a2odd", 3)
        for c, d in [(0, 0), (0, 2), (1, 1), (2, 3)]:
            # c*lambda1 + d*lambda2 -> eps tuple (c + d, d, 0)
            nu = (Q(c + d), Q(d), Q(0))
            assert casimir_eigenvalue(spec, nu) == \
                oracles.casimir_a2odd_cd(3, c, d)

    def test_matches_d2_closed_form(self):
        spec = family_spec("d2", 3)
        for Lam, bma in [((0, 0, 0), 0), ((2, 1, 0), 0), ((1, 1, 1), 2),
                         ((2, 0, 0), 1)]:
            nu = tuple(Q(x) + Q(bma, 2) for x in Lam)
            assert casimir_eigenvalue(spec, nu) == \
                oracles.casimir_d2_ladder(3, Lam, bma)

    def test_rejects_non_dominant(self):
        spec = family_spec("a2even", 2)
        with pytest.raises(ValueError):
            casimir_eigenvalue(spec, (Q(0), Q(1)))

    @pytest.mark.parametrize("family,l,params", CLOSED_FORM_GRID)
    def test_equals_inner_product_on_the_grid(self, family, l, params):
        """The integer form on doubled coordinates equals
        (nu, nu + 2*rho0) taken in Fractions, at every component."""
        spec = family_spec(family, l)
        for c in decompose_tensor_closed_form(spec, params):
            want = inner(c.nu, wadd(c.nu, wscale(spec.rho0, 2)))
            got = casimir_eigenvalue(spec, c.nu)
            assert got == want and isinstance(got, Fraction)


class TestDoubled:
    def test_integer_and_fraction_input(self):
        assert doubled((3, Q(-1, 2), Q(0), Q(5, 2))) == (6, -1, 0, 5)
        assert all(type(x) is int for x in doubled((2, Q(3, 2))))

    def test_refuses_a_third(self):
        with pytest.raises(ValueError, match="not in"):
            doubled((Q(1), Q(1, 3)))


class TestKacGenerators:
    @pytest.mark.parametrize("family,l", [("a2even", 1), ("a2even", 3),
                                          ("a2odd", 3), ("d2", 2), ("d2", 3)])
    def test_classical_relations(self, family, l):
        spec = family_spec(family, l)
        report = liealg.check_classical_relations(liealg.kac_generators(spec), spec)
        bad = [r["relation"] for r in report if not r["ok"]]
        assert not bad, bad

    @pytest.mark.parametrize("family,l", [("a2even", 2), ("a2odd", 3),
                                          ("d2", 2)])
    @pytest.mark.parametrize("key", ["E", "F", "H"])
    def test_detects_corrupted_generator(self, family, l, key):
        """Negative control: one changed entry of E_1, F_1 or H_1 fails
        some relation."""
        spec = family_spec(family, l)
        gens = liealg.kac_generators(spec)
        corrupt(gens, key, 1)
        report = liealg.check_classical_relations(gens, spec)
        assert any(not r["ok"] for r in report)

    def test_cartan_entry_off_by_one_fails_serre(self, monkeypatch):
        """Negative control: with every Cartan entry a_ij (i != j) one too
        large, the Serre degree 1 - a_ij is one too small and both Serre
        relations fail, while the others hold."""
        spec = family_spec("a2even", 2)
        gens = liealg.kac_generators(spec)
        real = liealg.cartan_entry
        monkeypatch.setattr(liealg, "cartan_entry",
                            lambda gram, i, j: real(gram, i, j) + 1)
        report = liealg.check_classical_relations(gens, spec)
        bad = [r["relation"] for r in report if not r["ok"]]
        assert any(name.startswith("(ad E") for name in bad)
        assert any(name.startswith("(ad F") for name in bad)
        assert all(name.startswith("(ad ") for name in bad)

    @pytest.mark.parametrize("family,l", GRID)
    def test_matches_dense_oracle(self, family, l):
        """Clean, and with one entry of E_0, F_l or E_1 (l >= 2) changed,
        the sparse checker gives every relation the dense oracle's verdict
        and residual: the integer residuals are divided back by their
        scale, which only the residual would show wrong."""
        spec = family_spec(family, l)
        for corruption in [None, ("E", 0), ("F", l)] + ([("E", 1)] if l >= 2 else []):
            gens = liealg.kac_generators(spec)
            if corruption is not None:
                corrupt(gens, *corruption)
            got = [(r["relation"], r["ok"], r["residual"])
                   for r in liealg.check_classical_relations(gens, spec)]
            want = [(r["relation"], r["ok"], r["residual"] and
                     oracles.sparse(r["residual"]))
                    for r in oracles.check_classical_relations(gens, spec)]
            assert got == want, corruption
            assert all(ok for _, ok, _ in got) == (corruption is None), corruption

    def test_trace_pairing_normalization(self):
        spec = family_spec("a2even", 2)
        gens = liealg.kac_generators(spec)
        for i in range(spec.l + 1):
            for j in range(spec.l + 1):
                want = Q(1 if i == j else 0)
                assert oracles.trace_pairing(
                    oracles.dense(gens["E"][i], spec.n),
                    oracles.dense(gens["F"][j], spec.n)) == want


def corrupt(gens, key, i):
    """Add 1 to the first nonzero entry, in row-major order, of the sparse
    generator gens[key][i]."""
    m = gens[key][i]
    p = min(m)
    gens[key][i] = oracles.bump(m, p, min(m[p]))


class TestDimensionFormulas:
    def test_a2even_pair(self):
        # sl(5): dim V(lambda1 + lambda2) = 40
        assert oracles.dim_a2even_L(5, 1, 2) == 40
        # so(n) closed form against the Weyl dimension formula
        for l in (2, 3):
            n = 2 * l + 1
            for c in range(l + 1):
                for d in range(c, l + 1):
                    nu = tuple(Q(2) if i < c else (Q(1) if i < d else Q(0))
                               for i in range(l))
                    assert oracles.dim_a2even_L0(n, c, d) == weyl_dim("B", l, nu)

    def test_a2odd_pair(self):
        # sl(6): dim V(2*lambda1) = 21; sp(6): dim V0(2*lambda1) = 21
        assert oracles.dim_a2odd_L(6, 2, 0) == 21
        assert oracles.dim_a2odd_L0(6, 2, 0) == 21

    def test_weyl_dim_against_root_product(self):
        """The coordinate formula equals prod over positive roots of
        (nu + rho, alpha) / (rho, alpha) on every node of the closed-form
        grid."""
        def root_product_dim(l0type, l, nu):
            rho = liealg.weyl_vector(l0type, l)
            shifted = liealg.wadd(nu, rho)
            num = den = Q(1)
            for alpha in oracles.positive_roots(l0type, l):
                num *= liealg.inner(shifted, alpha)
                den *= liealg.inner(rho, alpha)
            return num / den

        assert len(CLOSED_FORM_GRID) == 76
        checked = 0
        for family, l, params in CLOSED_FORM_GRID:
            spec = liealg.family_spec(family, l)
            for c in decompose_tensor_closed_form(spec, params):
                assert weyl_dim(spec.l0type, l, c.nu) == \
                    root_product_dim(spec.l0type, l, c.nu)
                checked += 1
        assert checked == 655
