import dataclasses
import math
from fractions import Fraction

import pytest

from twistr import liealg, linalg, qrep
from twistr.liealg import eps, family_spec, inner, wadd, wscale
from twistr.scalars import QSample

import oracles
from conftest import GRID, fraction_coproduct, seed_rep

Q = Fraction


def corrupted(rep, tag, i):
    """rep with 1 added to the first stored entry of generator tag_i."""
    p = min(getattr(rep, tag)[i])
    return corrupted_at(rep, tag, i, p, min(getattr(rep, tag)[i][p]))


def corrupted_at(rep, tag, i, p, c):
    """rep with 1 added to the entry (p, c) of generator tag_i."""
    gens = list(getattr(rep, tag))
    gens[i] = oracles.bump(gens[i], p, c)
    return dataclasses.replace(rep, **{tag: tuple(gens)})


def relation_items(rep):
    """{relation name: item} of rep.relations, each item a finished report
    entry or a partial of the sample."""
    return {r["relation"] if isinstance(r, dict) else r.args[0]: r
            for r in rep.relations}


def entries(report, dense=False):
    """(relation, ok, residual) of each report entry, a dense residual (the
    oracle's) made sparse."""
    return [(r["relation"], r["ok"], oracles.sparse(r["residual"])
             if dense and r["residual"] else r["residual"]) for r in report]


class TestSeedStructure:
    def test_dimensions(self):
        assert seed_rep("a2even", 2).dim == 5
        assert seed_rep("a2odd", 3).dim == 6
        assert seed_rep("d2", 2).dim == 4
        assert seed_rep("d2", 3).dim == 8

    def test_highest_weights(self):
        assert seed_rep("a2even", 3).lam == eps(1, 3)
        assert seed_rep("a2odd", 3).lam == eps(1, 3)
        assert seed_rep("d2", 3).lam == (Q(1, 2),) * 3

    def test_weight_multiset_is_weyl_orbit(self):
        rep = seed_rep("a2even", 2)
        want = {eps(1, 2), eps(2, 2), wscale(eps(1, 2), Q(-1)),
                wscale(eps(2, 2), Q(-1)), (Q(0), Q(0))}
        assert set(rep.weights) == want

    def test_spinor_weights(self):
        rep = seed_rep("d2", 2)
        assert set(rep.weights) == {
            (Q(1, 2), Q(1, 2)), (Q(1, 2), Q(-1, 2)),
            (Q(-1, 2), Q(1, 2)), (Q(-1, 2), Q(-1, 2))}

    def test_h_eigenvalues_match_weights(self):
        rep = seed_rep("d2", 3)
        for p in range(rep.dim):
            for i in range(rep.spec.l + 1):
                assert rep.h[i][p] == inner(rep.weights[p],
                                            rep.spec.alpha[i])


class TestQuantumRelations:
    @pytest.mark.parametrize("w", [Q(2), Q(-3, 2), Q(5, 7)])
    def test_all_families_pass(self, grid_case, w):
        rep = seed_rep(*grid_case)
        report = qrep.check_quantum_relations(rep, QSample(w))
        bad = [r["relation"] for r in report if not r["ok"]]
        assert not bad, bad

    def test_detects_broken_generator(self):
        """Negative control: corrupting one raising matrix must be caught."""
        rep = seed_rep("a2even", 2)
        e = list(rep.e)
        e[1] = oracles.bump(e[1], 0, 1)
        broken = qrep.Representation(rep.spec, rep.lam, rep.dim,
                                     tuple(e), rep.f, rep.weights)
        report = qrep.check_quantum_relations(broken, QSample(Q(2)))
        assert any(not r["ok"] for r in report)

    def test_reports_weight_shift_residual(self):
        """Negative control for the weight test: a diagonal entry in e_1
        does not shift the weight by alpha_1, and [h1,e1] reports it with
        its residual."""
        rep = seed_rep("d2", 2)
        e = list(rep.e)
        e[1] = oracles.bump(e[1], 0, 0)
        broken = dataclasses.replace(rep, e=tuple(e))
        report = qrep.check_quantum_relations(broken, QSample(Q(2)))
        entry = next(r for r in report
                     if r["relation"] == "[h1,e1] weight shift")
        shift = inner(rep.spec.alpha[1], rep.spec.alpha[1])
        assert not entry["ok"] and entry["residual"] == {0: {0: -shift}}

    def test_q_serre_sum_with_a_zero_word(self):
        """Negative control for the zero-word skip: a q-Serre sum is taken
        as 0 at every q only when each of its words is 0.  A diagonal entry
        in e_0 of a2even l=2 gives the sum of e_0, e_1 a zero word beside
        nonzero ones, and that sum fails with the dense oracle's residual."""
        rep = seed_rep("a2even", 2)
        broken = corrupted_at(rep, "e", 0, 0, 0)
        name = "q-Serre e0,e1"
        item = relation_items(broken)[name]
        assert item.func is qrep._serre_at
        words = item.args[-1]
        assert any(words) and not all(words)
        qs = QSample(Q(3, 2))
        got = entries(qrep.check_quantum_relations(broken, qs))
        want = entries(oracles.check_quantum_relations(broken, qs),
                       dense=True)
        entry = next(e for e in got if e[0] == name)
        assert not entry[1] and entry in want

    def test_bracket_groups_decide_a_doubled_f(self):
        """Negative control for the grouped [e_i, f_i] comparison.  With
        f_1 doubled on a2even l=2, s * [e_1, f_1] is still diagonal and
        constant on each value of h_1, so one comparison per group decides
        the relation: it fails there alone, with the dense oracle's
        residual, at every w."""
        rep = seed_rep("a2even", 2)
        f = list(rep.f)
        f[1] = linalg.sparse_lincomb(((2, f[1]),))
        broken = dataclasses.replace(rep, f=tuple(f))
        name = "[e1,f1] (gauge [1]/1)"
        items = relation_items(broken)
        assert not any(map(callable, rep.relations))
        assert [n for n, r in items.items() if callable(r)] == [name]
        # c = 2 s x, not s x, on groups that still decide it
        assert items[name].func is qrep._bracket_at
        assert items[name].args[3] is not None
        for w in (Q(2), Q(-3, 2), Q(5, 7)):
            qs = QSample(w)
            got = entries(qrep.check_quantum_relations(broken, qs))
            assert got == entries(oracles.check_quantum_relations(broken, qs),
                                  dense=True)
            assert [n for n, ok, _ in got if not ok] == [name]

    def test_bracket_with_a_second_magnitude_needs_its_sample(self):
        """Negative control for the q-independent decision of [e_i, f_i].
        V (x) V with the classical coproduct x (x) 1 + 1 (x) x is a module
        of the classical algebra only: s * [e_i, f_i] is diagonal with
        c = s * x on every group x of h_i, but h_i takes a value |x| not
        in {0, m}, so no group decides the relation for all q.  Each sample
        compares the groups at its own q, with the dense oracle's entries,
        and every [e_i, f_i] fails at every w."""
        rep = seed_rep("a2even", 1)
        n, eye = rep.dim, linalg.sparse_identity(rep.dim)

        def kron(a, b):
            return {i * n + k: {j * n + t: x * y for j, x in ra.items()
                                for t, y in rb.items()}
                    for i, ra in a.items() for k, rb in b.items()}

        def delta(x):
            return linalg.sparse_lincomb(((1, kron(x, eye)),
                                          (1, kron(eye, x))))

        square = dataclasses.replace(
            rep, dim=n * n, e=tuple(map(delta, rep.e)),
            f=tuple(map(delta, rep.f)),
            weights=tuple(wadd(a, b) for a in rep.weights
                          for b in rep.weights))
        brackets = [r for r in square.relations
                    if callable(r) and r.func is qrep._bracket_at]
        assert [r.args[0].split()[0] for r in brackets] == ["[e0,f0]",
                                                            "[e1,f1]"]
        for r in brackets:
            _, _, m, groups, scale, _ = r.args
            assert groups is not None
            assert all(c == scale * x for x, c in groups.items())
            assert any(abs(x) not in (0, m) for x in groups)
        for w in (Q(2), Q(-3, 2)):
            qs = QSample(w)
            got = entries(qrep.check_quantum_relations(square, qs))
            assert got == entries(oracles.check_quantum_relations(square, qs),
                                  dense=True)
            assert not any(ok for name, ok, _ in got
                           if name.startswith("[e0,f0]")
                           or name.startswith("[e1,f1]"))

    def test_seed_samples_compute_no_q_integer(self, grid_case, monkeypatch):
        """On every seed each [e_i, f_i] is decided for all q and every
        q-Serre sum is finished once per rep (degree 1, or every word 0),
        so every relation is a finished entry, and samples at two w, once
        the relations are built, give equal reports and compute no
        q-integer and no q-factorial."""
        rep = seed_rep(*grid_case)
        assert all(isinstance(r, dict) for r in rep.relations)
        calls = []

        def counted(name):
            real = getattr(qrep, name)
            return lambda *args: calls.append(name) or real(*args)

        for name in ("_q_integers", "qfactorial"):
            monkeypatch.setattr(qrep, name, counted(name))
        report = qrep.check_quantum_relations(rep, QSample(Q(-3, 2)))
        assert report == qrep.check_quantum_relations(rep, QSample(Q(5, 7)))
        assert all(r["ok"] for r in report) and not calls

    def test_q_serre_coefficients_matter_on_the_tensor_square(
            self, monkeypatch):
        """Negative control.  On the seed reps each word of every q-Serre
        sum of degree m >= 2 vanishes alone, and the m = 1 sums x_i x_j -
        x_j x_i have coefficients +-1 at every q, so no q-dependent
        coefficient is tested there.  On V (x) V,
        with D(e_i) and D(f_i), the terms cancel only with the q-divided
        coefficients: classical factorials in place of q-factorials fail
        q-Serre entries."""
        rep = seed_rep("a2even", 2)
        qs = QSample(Fraction(3, 2))
        gens = {kind: tuple(fraction_coproduct(rep, kind, i, qs)
                            for i in range(rep.spec.l + 1)) for kind in "ef"}
        square = dataclasses.replace(
            rep, dim=rep.dim ** 2, e=gens["e"], f=gens["f"],
            weights=tuple(wadd(a, b) for a in rep.weights
                          for b in rep.weights))

        def serre_failures():
            return [r["relation"]
                    for r in qrep.check_quantum_relations(square, qs)
                    if r["relation"].startswith("q-Serre") and not r["ok"]]

        assert not serre_failures()
        monkeypatch.setattr(qrep, "qfactorial",
                            lambda n, q: math.factorial(n))
        assert serre_failures()

    @pytest.mark.parametrize("family,l", [("a2even", 2), ("a2odd", 3),
                                          ("d2", 2)],
                             ids=["a2even-l2", "a2odd-l3", "d2-l2"])
    def test_bracket_target_follows_the_sample(self, family, l):
        """Negative control for the per-sample [e_i, f_i] target.  On the
        seeds the gauged target holds at every q, so a target evaluated at
        one fixed q would pass there.  The tensor square with D(e_i) and
        D(g_i f_i), g_i = [m_i]_q / m_i, is a module of U_q at the q of its
        own w only: one object passes at w, fails an [e_i, f_i] entry at
        another w, and passes again at w."""
        rep = seed_rep(family, l)
        w, other = Q(3, 2), Q(-5, 7)
        qs = QSample(w)
        fs = []
        for i in range(rep.spec.l + 1):
            m = max(abs(x) for x in rep.h[i])
            g = (qs.q_pow(m) - qs.q_pow(-m)) / (qs.q - 1 / qs.q) / m
            fs.append(linalg.sparse_lincomb(
                ((g, fraction_coproduct(rep, "f", i, qs)),)))
        square = dataclasses.replace(
            rep, dim=rep.dim ** 2,
            e=tuple(fraction_coproduct(rep, "e", i, qs)
                    for i in range(rep.spec.l + 1)),
            f=tuple(fs),
            weights=tuple(wadd(a, b) for a in rep.weights
                          for b in rep.weights))

        def failures(w):
            return [r["relation"] for r in
                    qrep.check_quantum_relations(square, QSample(w))
                    if not r["ok"]]

        assert not failures(w)
        assert any(x.startswith("[e") for x in failures(other))
        assert not failures(w)

    def test_build_refuses_broken_seed(self, monkeypatch):
        """Negative control: the same diagonal entry in the spinor's e_1
        makes build_seed_rep refuse the seed."""
        build = qrep._build_spinor

        def broken(spec):
            lam, e, f, weights = build(spec)
            e[1] = oracles.bump(e[1], 0, 0)
            return lam, e, f, weights

        monkeypatch.setattr(qrep, "_build_spinor", broken)
        with pytest.raises(qrep.RepresentationError,
                           match="violates quantum relations"):
            qrep.build_seed_rep(family_spec("d2", 2))

    @pytest.mark.parametrize("family,l", [("a2even", 2), ("a2odd", 3)])
    def test_build_refuses_non_diagonal_cartan(self, family, l, monkeypatch):
        """Negative control: one off-diagonal entry in the Kac matrix H_1
        makes build_seed_rep refuse the seed.  E and F are untouched and the
        diagonal of H_1, which gives the weights, is too, so only the
        diagonal check can refuse it."""
        kac = liealg.kac_generators

        def broken(spec):
            gens = kac(spec)
            gens["H"][1] = oracles.bump(gens["H"][1], 0, 1)
            return gens

        monkeypatch.setattr(liealg, "kac_generators", broken)
        with pytest.raises(qrep.RepresentationError, match="not diagonal"):
            qrep.build_seed_rep(family_spec(family, l))


class TestAffineAction:
    def test_e0_lowers_by_theta0(self, grid_case):
        """e0 shifts weights by -theta0 (the affine root alpha0 = -theta0)."""
        rep = seed_rep(*grid_case)
        spec = rep.spec
        for p, row in rep.e[0].items():
            for r in row:
                diff = tuple(a - b for a, b in
                             zip(rep.weights[p], rep.weights[r]))
                assert diff == spec.alpha[0]

    def test_rescaling_invariance_of_relations(self):
        """Reciprocal rescaling e0 -> 2 e0, f0 -> f0/2 preserves everything."""
        rep = seed_rep("d2", 2)
        e, f = list(rep.e), list(rep.f)
        e[0] = linalg.sparse_lincomb(((Q(2), e[0]),))
        f[0] = linalg.sparse_lincomb(((Q(1, 2), f[0]),))
        scaled = qrep.Representation(rep.spec, rep.lam, rep.dim,
                                     tuple(e), tuple(f), rep.weights)
        report = qrep.check_quantum_relations(scaled, QSample(Q(2)))
        assert all(r["ok"] for r in report)

    @pytest.mark.parametrize("l", [2, 3, 4, 5])
    def test_spinor_affine_pair_matches_constraint_solve(self, l):
        """The closed-form e0 = (-1)^l c_1 (-1)^N, f0 = e0^T / 2 is the pair
        the constraint solve finds, scale and signs included."""
        rep = seed_rep("d2", l)
        e0, f0 = oracles.spinor_affine_pair(rep)
        assert (rep.e[0], rep.f[0]) == (oracles.sparse(e0), oracles.sparse(f0))

    def test_spinor_build_is_deterministic(self):
        spec = family_spec("d2", 3)
        a = qrep.build_seed_rep(spec)
        b = qrep.build_seed_rep(spec)
        assert a.e == b.e and a.f == b.f


def _corruptions(l):
    """None (clean) and the generators (tag, index) to corrupt: e_0, f_l
    and, where l >= 2, e_1."""
    return [None, ("e", 0), ("f", l)] + ([("e", 1)] if l >= 2 else [])


DIFFERENTIAL = [(case, w, c) for case in GRID
                for w in (Q(2), Q(-3, 2), Q(5, 7)) for c in _corruptions(case[1])]


def _differential_id(case, w, corrupt):
    what = "clean" if corrupt is None else f"{corrupt[0]}{corrupt[1]}"
    return f"{case[0]}-l{case[1]}-w{str(w).replace('/', '_')}-{what}"


class TestAgainstDenseOracle:
    @pytest.mark.parametrize("case,w,corrupt", DIFFERENTIAL,
                             ids=[_differential_id(*c) for c in DIFFERENTIAL])
    def test_same_verdicts(self, case, w, corrupt):
        """The sparse checker gives every relation the dense oracle's
        verdict and residual, and a corrupted generator fails some
        relation.  The residuals are computed in integers and divided back
        by their scale, which only the residual would show wrong."""
        rep = seed_rep(*case)
        if corrupt is not None:
            rep = corrupted(rep, *corrupt)
        qs = QSample(w)
        got = entries(qrep.check_quantum_relations(rep, qs))
        assert got == entries(oracles.check_quantum_relations(rep, qs),
                              dense=True)
        assert all(ok for _, ok, _ in got) == (corrupt is None)

    def test_relation_data_follows_the_object(self, grid_case):
        """One rep checked at w = 2, -3/2 and 5/7 in turn gives the dense
        oracle's verdicts at each.  A copy with a corrupted e_0, made after
        the clean rep has built its q-independent relation data, fails with
        the oracle's verdicts at each w: no product built for one object is
        read for another."""
        rep = qrep.build_seed_rep(family_spec(*grid_case))
        ws = (Q(2), Q(-3, 2), Q(5, 7))

        def verdicts(checker, rep, w):
            return [(r["relation"], r["ok"])
                    for r in checker(rep, QSample(w))]

        for w in ws:
            got = verdicts(qrep.check_quantum_relations, rep, w)
            assert got == verdicts(oracles.check_quantum_relations, rep, w)
            assert all(ok for _, ok in got)
        assert "relations" in vars(rep)
        broken = corrupted(rep, "e", 0)
        for w in ws:
            got = verdicts(qrep.check_quantum_relations, broken, w)
            assert got == verdicts(oracles.check_quantum_relations, broken, w)
            assert not all(ok for _, ok in got)
