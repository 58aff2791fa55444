import dataclasses
from fractions import Fraction
from types import SimpleNamespace

import pytest

from twistr import tpg
from twistr.branching import (decompose_tensor_closed_form, klimyk_tensor_with,
                              theta0_weights)
from twistr.liealg import doubled, family_spec
from twistr.scalars import QSample, RatFun, bracket

import oracles
from conftest import CLOSED_FORM_GRID

Q = Fraction


def build(family, l, params):
    return tpg.build_graph(family_spec(family, l), params)


def edge_set(graph):
    return {frozenset(e): s for e, s in graph.edges}


def lam(l, *ones_at):
    """Sum of fundamental weights lambda_k (gl-style) as an eps tuple."""
    out = [Q(0)] * l
    for k in ones_at:
        for i in range(k):
            out[i] += 1
    return tuple(out)


class TestGraphRegressions:
    """Node sets, edges and parities of the four displayed example graphs."""

    @pytest.mark.parametrize("l", [2, 3, 4])
    def test_vector_square_of_bl(self, l):
        # path 0 -- 2*lambda1 -- lambda2 with parities +, +, -
        g = build("a2even", l, (1, 1))
        parity = {n.nu: n.parity for n in g.nodes}
        zero, two_l1, l2 = lam(l), lam(l, 1, 1), lam(l, 2)
        assert parity == {zero: 1, two_l1: 1, l2: -1}
        assert edge_set(g) == {frozenset((zero, two_l1)): 1,
                               frozenset((two_l1, l2)): -1}
        assert g.top == two_l1

    @pytest.mark.parametrize("l,k", [(3, 2), (5, 2), (5, 4)])
    def test_vector_times_fundamental_of_bl(self, l, k):
        # path lambda_{k-1} -- lambda1+lambda_k -- lambda_{k+1}, parities +, +, -
        g = build("a2even", l, (1, k))
        parity = {n.nu: n.parity for n in g.nodes}
        lo, mid, hi = lam(l, k - 1), lam(l, 1, k), lam(l, k + 1)
        assert parity == {lo: 1, mid: 1, hi: -1}
        assert edge_set(g) == {frozenset((lo, mid)): 1,
                               frozenset((mid, hi)): -1}

    @pytest.mark.parametrize("l", [3, 4])
    def test_vector_square_of_cl(self, l):
        # path 0 -- lambda2 -- 2*lambda1 with parities -, -, +
        g = build("a2odd", l, (1, 1))
        parity = {n.nu: n.parity for n in g.nodes}
        zero, l2, two_l1 = lam(l), lam(l, 2), lam(l, 1, 1)
        assert parity == {zero: -1, l2: -1, two_l1: 1}
        assert edge_set(g) == {frozenset((zero, l2)): 1,
                               frozenset((l2, two_l1)): -1}

    @pytest.mark.parametrize("l,a", [(2, 1), (3, 1), (3, 2), (4, 3)])
    def test_spinor_chain(self, l, a):
        # chain (a+1)l_l -- mu_1 -- ... -- mu_{l-1} -- (a-1)l_l with the
        # parity pattern +, -, -, +, +, -, -, ... (mu_i = (a-1)l_l + l_{l-i})
        g = build("d2", l, (1, a))
        shift = Q(a - 1, 2)
        chain = [tuple(Q(1 if j < l - i else 0) + shift for j in range(l))
                 for i in range(l + 1)]
        parity = {n.nu: n.parity for n in g.nodes}
        assert parity == {nu: (-1) ** ((i + 1) // 2)
                          for i, nu in enumerate(chain)}
        assert edge_set(g) == {
            frozenset((chain[i], chain[i + 1])): parity[chain[i]] * parity[chain[i + 1]]
            for i in range(l)}

    def test_grid_parity_pattern_bl(self):
        # for V0(l_2 (x) l_3)-type products of so(13): parity = (-1)^(k-a)
        spec = family_spec("a2even", 6)
        k = 2
        g = build("a2even", 6, (k, 3))
        table = decompose_tensor_closed_form(spec, (k, 3))
        by_parent = {c.nu: c.parent for c in table}
        parity = {n.nu: n.parity for n in g.nodes}
        for nu, parent in by_parent.items():
            a = parent[1]
            assert parity[nu] == (-1) ** (k - a)

    def test_grid_parity_pattern_cl(self):
        # sp(6) with k=2, r=3: parity = (-1)^a on the (a, c) grid
        spec = family_spec("a2odd", 3)
        g = build("a2odd", 3, (2, 3))
        table = decompose_tensor_closed_form(spec, (2, 3))
        parity = {n.nu: n.parity for n in g.nodes}
        for c in table:
            a = c.parent[2]
            assert parity[c.nu] == (-1) ** a


class TestContainment:
    @pytest.mark.parametrize("family,l,params", [
        ("a2even", 2, (1, 1)), ("a2even", 4, (2, 2)), ("a2even", 5, (2, 3)),
        ("a2odd", 3, (2, 3)), ("a2odd", 5, (3, 3)),
        ("d2", 2, (2, 3)), ("d2", 4, (1, 3)),
    ])
    def test_per_node_equals_pairwise(self, family, l, params, monkeypatch):
        """One Klimyk sum per node gives the nodes and edges that the
        pairwise containment test gives."""
        spec = family_spec(family, l)
        fast = tpg.build_graph(spec, params)

        def pairwise(spec, index):
            nus = list(index)       # the doubled int keys 2*nu
            out = []
            for i, nu in enumerate(nus):
                for j in range(i + 1, len(nus)):
                    mults = klimyk_tensor_with(doubled(spec.rho0),
                                               theta0_weights(spec), nu)
                    if mults.get(nus[j], 0) > 0:
                        out.append((i, j))
            return sorted(out, reverse=True)

        monkeypatch.setattr(tpg, "_contained_pairs", pairwise)
        slow = tpg.build_graph(spec, params)
        assert fast.nodes == slow.nodes and fast.edges == slow.edges


class TestRefusals:
    """Negative controls: ``build_graph`` over the first components of the
    a2even l=5 (2, 3) table, with synthetic L-parent classes and containment
    pairs, refuses every graph that has no consistent parities."""

    def synthetic(self, monkeypatch, classes, pairs):
        """The graph whose node i is the table's i-th component (the top
        first), in class ``classes[i]``, with containment pairs (i, j)."""
        spec = family_spec("a2even", 5)
        table = decompose_tensor_closed_form(spec, (2, 3))
        comps = tuple(SimpleNamespace(nu=c.nu, parent=("L", cls), dim=c.dim)
                      for c, cls in zip(table, classes))
        monkeypatch.setattr(tpg, "decompose_tensor_closed_form",
                            lambda spec, params: comps)
        monkeypatch.setattr(tpg, "_contained_pairs",
                            lambda spec, index: pairs)
        return tpg.build_graph(spec, (2, 3))

    def test_consistent_synthetic_graph_builds(self, monkeypatch):
        g = self.synthetic(monkeypatch, "XYXX", [(0, 1), (1, 2), (2, 3)])
        assert [n.parity for n in g.nodes] == [1, -1, 1, 1]
        assert sorted(s for _, s in g.edges) == [-1, -1, 1]

    @pytest.mark.parametrize("classes,pairs", [
        # (a) a triangle across three classes
        ("XYZ", [(0, 1), (1, 2), (0, 2)]),
        # (b) a path back into the top's class through three class changes
        ("XYZX", [(0, 1), (1, 2), (2, 3)]),
        # (c) a node in no pair, in a reached class or in a class of its own
        ("XYXX", [(0, 1), (1, 2)]),
        ("XYXW", [(0, 1), (1, 2)]),
    ], ids=["odd-triangle", "odd-return-to-class", "isolated-node",
            "isolated-class"])
    def test_refused(self, monkeypatch, classes, pairs):
        with pytest.raises(tpg.GraphError):
            self.synthetic(monkeypatch, classes, pairs)


class TestRecursion:
    def test_symbolic_eigenvalues_vector_square(self):
        # so(5) vector square: rho = {1, <2>_-, <5>_+}
        g = build("a2even", 2, (1, 1))
        qs = QSample(Q(3, 2))
        rho, certs = tpg.eigenvalues_by_recursion(g, qs)
        u = RatFun.var()
        assert rho[lam(2, 1, 1)] == RatFun.const(1)
        assert rho[lam(2, 2)] == bracket(2, -1, u, qs)
        assert rho[lam(2)] == bracket(5, 1, u, qs)
        assert certs == []   # a path has no loops

    def test_symbolic_eigenvalues_cl(self):
        # sp(6) vector square: rho = {1, <2>_-, <2>_- <6>_+}
        g = build("a2odd", 3, (1, 1))
        qs = QSample(Q(2))
        rho, _ = tpg.eigenvalues_by_recursion(g, qs)
        u = RatFun.var()
        assert rho[lam(3, 2)] == bracket(2, -1, u, qs)
        assert rho[lam(3)] == bracket(2, -1, u, qs) * bracket(6, 1, u, qs)

    def test_spinor_chain_formula(self):
        # rho_k = prod_{i=1}^{l-k} <(a-1)/2 + i>_{(-1)^i} on l_k + (a-1) l_l
        l, a = 3, 2
        g = build("d2", l, (1, a))
        qs = QSample(Q(3, 2))
        rho, _ = tpg.eigenvalues_by_recursion(g, qs)
        u = RatFun.var()
        shift = Q(a - 1, 2)
        for k in range(l):
            nu = tuple(Q(1 if j < k else 0) + shift for j in range(l))
            want = RatFun.const(1)
            for i in range(1, l - k + 1):
                want = want * bracket(shift + i, (-1) ** i, u, qs)
            assert rho[nu] == want

    def test_loop_certificates_on_grid_graph(self):
        g = build("a2even", 5, (2, 3))
        qs = QSample(Q(5, 3))
        _, certs = tpg.eigenvalues_by_recursion(g, qs)
        assert certs and all(c["consistent"] for c in certs)

    def test_corrupted_edge_parity_is_caught(self, monkeypatch):
        g = build("a2even", 5, (2, 3))
        _, certs = tpg.eigenvalues_by_recursion(g, QSample(Q(5, 3)))
        loop_edge = set(certs[0]["edge"])
        real = tpg.edge_factor

        def corrupted(node_from, node_to):
            if {node_from.nu, node_to.nu} == loop_edge:
                node_to = dataclasses.replace(node_to, parity=-node_to.parity)
            return real(node_from, node_to)

        monkeypatch.setattr(tpg, "edge_factor", corrupted)
        with pytest.raises(tpg.GraphError):
            tpg.eigenvalues_by_recursion(g, QSample(Q(5, 3)))

    def test_numeric_matches_symbolic(self):
        g = build("a2odd", 3, (2, 2))
        qs = QSample(Q(3, 2))
        sym, _ = tpg.eigenvalues_by_recursion(g, qs)
        num, _ = tpg.eigenvalues_by_recursion(g, qs, u=Q(4, 7))
        for nu, val in sym.items():
            assert oracles.subs(val, Q(4, 7)) == num[nu]

    def test_reciprocal_inversion_of_eigenvalues(self):
        """rho_nu(u) * rho_nu(1/u) = 1 identically in Q(u) (unitarity)."""
        g = build("d2", 2, (2, 3))
        qs = QSample(Q(3, 2))
        rho, _ = tpg.eigenvalues_by_recursion(g, qs)

        def recip(f):
            # f(1/u) = reverse both coefficient lists, padded to equal degree
            n = max(len(f.num), len(f.den))
            pad = lambda p: tuple(reversed(p)) + (Q(0),) * (n - len(p))
            return RatFun(pad(f.num), pad(f.den))

        for val in rho.values():
            assert val * recip(val) == RatFun.const(1)


class TestClosedFormAgreement:
    def test_identically_in_u(self):
        qs = QSample(Q(3, 2))
        checked = 0
        for family, l, params in CLOSED_FORM_GRID:
            spec = family_spec(family, l)
            g = tpg.build_graph(spec, params)
            rho, _ = tpg.eigenvalues_by_recursion(g, qs)
            closed = tpg.eigenvalues_closed_form(spec, params, qs)
            assert set(rho) == set(closed), (family, l, params)
            for nu in rho:
                assert rho[nu] == closed[nu], (family, l, params, nu)
            checked += 1
        assert checked >= 50

    def test_unsupported_regime(self):
        spec = family_spec("a2even", 2)
        with pytest.raises(tpg.UnsupportedRegimeError):
            tpg.eigenvalues_closed_form(spec, (1, 2), QSample(Q(2)))


class TestExpansionOracle:
    """Both routes' expansions equal oracles.bracket_product of the
    recursion's factored form, in Q(u) and at one rational u per case;
    w = -7/5 gives large coefficients."""

    CASES = [c for c in CLOSED_FORM_GRID if c[1] <= 4]
    U = (Q(3, 11), Q(-5, 13), Q(8, 9), Q(-4, 17))

    @pytest.mark.parametrize("w", [Q(3, 2), Q(-7, 5), Q(2, 7)])
    def test_routes_equal_the_oracle(self, w):
        qs = QSample(w)
        for i, (family, l, params) in enumerate(self.CASES):
            spec = family_spec(family, l)
            graph = tpg.build_graph(spec, params)
            factored, _ = tpg.factored_recursion(graph)
            for u in (None, self.U[i % len(self.U)]):
                x = RatFun.var() if u is None else u
                want = {nu: oracles.bracket_product(p, x, qs)
                        for nu, p in factored.items()}
                assert tpg.eigenvalues_by_recursion(graph, qs, u)[0] == want
                assert tpg.eigenvalues_closed_form(spec, params, qs, u) == want


class TestExport:
    def test_formats(self):
        g = build("a2even", 2, (1, 1))
        as_json = tpg.export_graph(g, "json")
        as_dot = tpg.export_graph(g, "dot")
        as_text = tpg.export_graph(g, "text")
        assert '"family": "a2even"' in as_json
        assert as_dot.startswith("graph tpg {") and "--" in as_dot
        assert "parity=+" in as_text and "parity=-" in as_text
        with pytest.raises(ValueError):
            tpg.export_graph(g, "pdf")
