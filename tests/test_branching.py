import gc
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistr import branching, tpg
from twistr.branching import (BranchingError, contains_in_theta_tensor,
                              decompose_tensor_closed_form, input_weight,
                              klimyk_tensor_with, theta0_weights, top_weight)
from twistr.liealg import doubled, family_spec, weyl_dim

from conftest import CLOSED_FORM_GRID
from oracles import brute_force_tensor, parent_classes, weight_multiset

Q = Fraction


def doubled_keys(mults):
    """{nu: m} over Fraction weights -> {2*nu: m} over int tuples."""
    return {doubled(nu): m for nu, m in mults.items()}


def small_dominant(l0type, l):
    """Strategy for small dominant weights of B_l / C_l."""
    def build(parts):
        parts = sorted(parts, reverse=True)
        return tuple(Q(p) for p in parts) + (Q(0),) * (l - len(parts))
    return st.lists(st.integers(0, 3), min_size=0, max_size=l).map(build)


class TestWeightMultiset:
    @given(l=st.integers(2, 3), data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_total_multiplicity_is_weyl_dim(self, l, data):
        for l0type in ("B", "C"):
            nu = data.draw(small_dominant(l0type, l))
            mult = weight_multiset(l0type, l, nu)
            assert sum(mult.values()) == weyl_dim(l0type, l, nu)

    def test_spinor_weights_multiplicity_free(self):
        mult = weight_multiset("B", 3, (Q(1, 2),) * 3)
        assert len(mult) == 8 and set(mult.values()) == {1}

    def test_adjoint_of_sp4(self):
        mult = weight_multiset("C", 2, (Q(2), Q(0)))
        assert sum(mult.values()) == 10
        assert mult[(Q(0), Q(0))] == 2

    def test_rejects_non_dominant(self):
        with pytest.raises(BranchingError):
            weight_multiset("B", 2, (Q(0), Q(1)))


class TestBruteForceTensor:
    def test_so5_vector_square(self):
        out = brute_force_tensor("B", 2, (Q(1), Q(0)), (Q(1), Q(0)))
        assert out == {(Q(2), Q(0)): 1, (Q(1), Q(1)): 1, (Q(0), Q(0)): 1}

    def test_sp6_vector_square(self):
        v = (Q(1), Q(0), Q(0))
        out = brute_force_tensor("C", 3, v, v)
        assert out == {(Q(2), Q(0), Q(0)): 1, (Q(1), Q(1), Q(0)): 1,
                       (Q(0), Q(0), Q(0)): 1}

    def test_total_dimension(self):
        lam = (Q(1), Q(1), Q(0))
        mu = (Q(1), Q(0), Q(0))
        out = brute_force_tensor("B", 3, lam, mu)
        assert sum(m * weyl_dim("B", 3, nu) for nu, m in out.items()) == \
            weyl_dim("B", 3, lam) * weyl_dim("B", 3, mu)


class TestKlimyk:
    @pytest.mark.parametrize("family,l", [("a2even", 2), ("a2odd", 3), ("d2", 2)])
    def test_theta0_module_dimension(self, family, l):
        spec = family_spec(family, l)
        wts = theta0_weights(spec)
        assert sum(wts.values()) == weyl_dim(spec.l0type, l, spec.theta0)

    @pytest.mark.parametrize("family,l,nu", [
        ("a2even", 2, (1, 1)), ("a2even", 3, (2, 0, 0)),
        ("a2odd", 3, (2, 1, 0)), ("d2", 2, (Q(3, 2), Q(1, 2))),
    ])
    def test_matches_brute_force(self, family, l, nu):
        spec = family_spec(family, l)
        nu = tuple(Q(x) for x in nu)
        got = klimyk_tensor_with(doubled(spec.rho0), theta0_weights(spec),
                                 doubled(nu))
        want = brute_force_tensor(spec.l0type, l, spec.theta0, nu)
        assert got == doubled_keys(want)

    def test_matches_brute_force_on_grid_nodes(self):
        """On doubled integer coordinates Klimyk's sum gives theta0 (x) nu
        for every node of the closed-form grid with l <= 3."""
        nodes = {(family, l, c.nu)
                 for family, l, params in CLOSED_FORM_GRID if l <= 3
                 for c in decompose_tensor_closed_form(
                     family_spec(family, l), params)}
        assert len(nodes) == 71
        for family, l, nu in sorted(nodes):
            spec = family_spec(family, l)
            got = klimyk_tensor_with(doubled(spec.rho0), theta0_weights(spec),
                                     doubled(nu))
            assert got == doubled_keys(
                brute_force_tensor(spec.l0type, l, spec.theta0, nu))

    def test_containment_predicate(self):
        spec = family_spec("a2even", 2)
        # 2*lambda1 (x) theta0 = 2*lambda1 contains lambda2 and 0-component? no:
        # V0(2l1) x V0(2l1) contains V0(l1+l2) etc.; spot-check both answers
        inside = contains_in_theta_tensor(doubled(spec.rho0),
                                          theta0_weights(spec), (4, 0))
        assert (2, 2) in inside
        assert (2, 0) not in inside
        assert inside == set(doubled_keys(brute_force_tensor(
            spec.l0type, 2, spec.theta0, (Q(2), Q(0)))))

    def test_negative_multiplicity_raises(self, monkeypatch):
        spec = family_spec("a2even", 2)
        monkeypatch.setattr(branching, "klimyk_tensor_with",
                            lambda *args: {(2, 2): 1, (0, 0): -1})
        with pytest.raises(BranchingError):
            contains_in_theta_tensor(doubled(spec.rho0), theta0_weights(spec),
                                     (4, 0))

    def test_containment_builds_no_fraction(self, monkeypatch):
        """Klimyk's sum on one node of d2 l=6 (3, 3), and the containment
        pairs of its whole graph, run on doubled ints: no Fraction is built,
        as a halving of Klimyk's keys back to eps would build one per
        coordinate."""
        spec = family_spec("d2", 6)
        graph = tpg.build_graph(spec, (3, 3))
        assert len(graph.nodes) == 84
        index = {doubled(n.nu): i for i, n in enumerate(graph.nodes)}
        rho, weights = doubled(spec.rho0), theta0_weights(spec)
        built = []
        new = Fraction.__new__

        def counting(cls, *args, **kwargs):
            built.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
        mults = klimyk_tensor_with(rho, weights, doubled(graph.top))
        pairs = tpg._contained_pairs(spec, index)
        monkeypatch.undo()
        assert built == []
        assert mults and all(isinstance(a, int) for nu in mults for a in nu)
        assert [e for e, _ in graph.edges] == [
            (graph.nodes[i].nu, graph.nodes[j].nu) for i, j in pairs]


class TestClosedFormTables:
    # family, l, params pairs exercising every branch incl. the a2even
    # wrap-around d = min(m, n - m)
    CASES = [
        ("a2even", 1, (1, 1)), ("a2even", 2, (1, 1)), ("a2even", 2, (1, 2)),
        ("a2even", 2, (2, 2)), ("a2even", 3, (2, 3)), ("a2even", 4, (1, 3)),
        ("a2odd", 3, (1, 1)), ("a2odd", 3, (2, 3)), ("a2odd", 4, (2, 2)),
        ("d2", 2, (1, 1)), ("d2", 2, (2, 3)), ("d2", 3, (1, 2)),
    ]

    @pytest.mark.parametrize("family,l,params", CASES,
                             ids=[f"{f}-l{l}-{p}" for f, l, p in CASES])
    def test_against_brute_force_oracle(self, family, l, params):
        spec = family_spec(family, l)
        table = decompose_tensor_closed_form(spec, params)
        lam = input_weight(spec, params[0])
        mu = input_weight(spec, params[1])
        want = brute_force_tensor(spec.l0type, l, lam, mu)
        got = {c.nu: 1 for c in table}
        assert got == want
        for c in table:
            assert c.dim == weyl_dim(spec.l0type, l, c.nu)

    def test_multiplicity_free_and_dimension_sum(self):
        spec = family_spec("d2", 3)
        table = decompose_tensor_closed_form(spec, (2, 2))
        nus = [c.nu for c in table]
        assert len(nus) == len(set(nus))
        assert sum(c.dim for c in table) == \
            weyl_dim("B", 3, input_weight(spec, 2)) ** 2

    def test_repeated_component_refused(self, monkeypatch):
        """Negative control: a d2 ladder listed twice is a component of
        multiplicity 2, which the table refuses."""
        ladders = branching._ladders
        monkeypatch.setattr(branching, "_ladders",
                            lambda l, a: ladders(l, a) + ladders(l, a)[:1])
        with pytest.raises(BranchingError, match="multiplicity >= 2"):
            decompose_tensor_closed_form(family_spec("d2", 2), (1, 1))

    def test_ladders_in_descending_order(self):
        """The d2 ladders are the non-increasing l-tuples with entries in
        a..0, in descending lexicographic order, the order of the table."""
        assert branching._ladders(2, 2) == [(2, 2), (2, 1), (2, 0), (1, 1),
                                            (1, 0), (0, 0)]
        for l in range(1, 8):
            for a in range(5):
                want = sorted((t for t in itertools.product(range(a + 1),
                                                            repeat=l)
                               if all(x >= y for x, y in zip(t, t[1:]))),
                              reverse=True)
                assert branching._ladders(l, a) == want

    def test_d2_table_leaves_no_garbage(self):
        """A d2 closed-form table makes no reference cycle, so the garbage
        collector finds nothing after it."""
        gc.collect()
        gc.disable()
        try:
            list(branching.closed_form_table(family_spec("d2", 4), (2, 3)))
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_dimension_sum_mismatch_refused(self, monkeypatch):
        """Negative control: one component one dimension too large breaks
        the sum dim V(k) * dim V(r), which the table refuses."""
        dim = branching.weyl_dim
        zero = (Q(0), Q(0))
        monkeypatch.setattr(
            branching, "weyl_dim",
            lambda l0type, l, nu: dim(l0type, l, nu) + (nu == zero))
        with pytest.raises(BranchingError, match="dimension sum mismatch"):
            decompose_tensor_closed_form(family_spec("d2", 2), (1, 1))

    def test_inadmissible_rejected(self):
        spec = family_spec("a2even", 2)
        with pytest.raises(BranchingError):
            decompose_tensor_closed_form(spec, (3, 3))
        with pytest.raises(BranchingError):
            decompose_tensor_closed_form(spec, (2, 1))  # k > r

    def test_top_weight_is_sum_of_inputs(self):
        spec = family_spec("a2odd", 3)
        assert top_weight(spec, (2, 3)) == (Q(5), Q(0), Q(0))
        assert top_weight(spec, (1, 1)) == (Q(2), Q(0), Q(0))


class TestLParents:
    def test_a2even_parent_classes(self):
        spec = family_spec("a2even", 3)
        table = decompose_tensor_closed_form(spec, (1, 2))
        classes = parent_classes(table)
        # parents (a, k+r-a) for a = 0, 1: two classes of sizes 1 and 2
        assert sorted(len(v) for v in classes.values()) == [1, 2]

    def test_d2_parent_sharing_rule(self):
        """Components share an L-parent iff the interleaved entries agree."""
        spec = family_spec("d2", 2)
        table = decompose_tensor_closed_form(spec, (1, 1))
        parent = {c.nu: c.parent for c in table}
        one = Q(1)
        # chain (1,1) - (1,0) - (0,0): the lower two nodes share a class
        assert parent[(one, one)] != parent[(one, Q(0))]
        assert parent[(one, Q(0))] == parent[(Q(0), Q(0))]
