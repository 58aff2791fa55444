import dataclasses
import inspect
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
    """{relation name: report entry} of rep.relations."""
    return {r["relation"]: r for r in rep.relations}


def verdicts(report):
    """(relation, ok) of each report entry."""
    return [(r["relation"], r["ok"]) for r in report]


def entries(report, dense=False):
    """(relation, ok, residual) of each report entry, a dense residual (the
    oracle's) made sparse."""
    return [(r["relation"], r["ok"], oracles.sparse(r["residual"])
             if dense and r["residual"] else r["residual"]) for r in report]


def tensor_square(rep, e, f):
    """The rep on V (x) V, p = i * dim V + j, with the generators e, f."""
    return dataclasses.replace(
        rep, dim=rep.dim ** 2, e=tuple(e), f=tuple(f),
        weights=tuple(wadd(a, b) for a in rep.weights for b in rep.weights))


def serre_degrees(spec):
    """{name: m} of the q-Serre sums of spec, m = 1 - a_ij."""
    return {f"q-Serre {tag}{i},{tag}{j}": 1 - int(oracles.cartan(spec, i, j))
            for i in range(spec.l + 1) for j in range(spec.l + 1) if i != j
            for tag in "ef"}

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
        """Every seed passes every relation for all q, and the dense oracle
        passes each at q = w**4."""
        rep = seed_rep(*grid_case)
        for report in (qrep.check_quantum_relations(rep),
                       oracles.check_quantum_relations(rep, QSample(w))):
            bad = [r["relation"] for r in report if not r["ok"]]
            assert not bad, bad

    def test_detects_broken_generator(self):
        """Negative control: corrupting one raising matrix must be caught."""
        rep = seed_rep("a2even", 2)
        e = list(rep.e)
        e[1] = oracles.bump(e[1], 0, 1)
        broken = qrep.Representation(rep.spec, rep.lam, rep.dim,
                                     tuple(e), rep.f, rep.weights)
        report = qrep.check_quantum_relations(broken)
        assert any(not r["ok"] for r in report)

    def test_reports_weight_shift_residual(self):
        """Negative control for the weight test: a diagonal entry in e_1
        does not shift the weight by alpha_1, and [h1,e1] reports it with
        its residual."""
        rep = seed_rep("d2", 2)
        e = list(rep.e)
        e[1] = oracles.bump(e[1], 0, 0)
        broken = dataclasses.replace(rep, e=tuple(e))
        report = qrep.check_quantum_relations(broken)
        entry = next(r for r in report
                     if r["relation"] == "[h1,e1] weight shift")
        shift = inner(rep.spec.alpha[1], rep.spec.alpha[1])
        assert not entry["ok"] and entry["residual"] == {0: {0: -shift}}

    def test_q_serre_sum_with_a_zero_word(self):
        """Negative control for the pair rule on words that do not all
        vanish.  A diagonal entry in e_0 of a2even l=2 gives the q-Serre sum
        of e_0, e_1 a zero word beside nonzero ones.  The sum fails for all
        q, its witness the first nonzero pair sum W_k + (-1)^m W_(m-k) of
        the dense words, and the dense oracle fails it at every w."""
        rep = seed_rep("a2even", 2)
        broken = corrupted_at(rep, "e", 0, 0, 0)
        name = "q-Serre e0,e1"
        m = serre_degrees(rep.spec)[name]
        e0, e1 = (oracles.dense(x, rep.dim) for x in broken.e[:2])
        powers = [oracles.identity(rep.dim)]
        for _ in range(m):
            powers.append(oracles.mat_mul(e0, powers[-1]))
        words = [oracles.mat_mul(powers[m - k], oracles.mat_mul(e1, powers[k]))
                 for k in range(m + 1)]
        zero = [oracles.is_zero(x) for x in words]
        assert m >= 2 and any(zero) and not all(zero)
        pairs = [oracles.mat_add(words[k],
                                 oracles.mat_scale(words[m - k], (-1) ** m))
                 for k in range(m // 2 + 1)]
        witness = next(oracles.sparse(p) for p in pairs
                       if not oracles.is_zero(p))
        entry = relation_items(broken)[name]
        assert not entry["ok"] and entry["residual"] == witness
        for w in (Q(2), Q(-3, 2), Q(5, 7)):
            report = oracles.check_quantum_relations(broken, QSample(w))
            assert (name, False) in verdicts(report)

    def test_bracket_groups_decide_a_doubled_f(self):
        """Negative control for the comparison of [e_i, f_i] with h_i.
        With f_1 doubled on a2even l=2, [e_1, f_1] = 2 h_1 is still
        diagonal and every |h_1(p)| is in {0, m}, so only that comparison
        refuses it: the relation fails there alone, for all q, with the
        witness [e_1, f_1] - h_1 = h_1, and the dense oracle gives the same
        verdicts at every w."""
        rep = seed_rep("a2even", 2)
        f = list(rep.f)
        f[1] = linalg.sparse_lincomb(((2, f[1]),))
        broken = dataclasses.replace(rep, f=tuple(f))
        name = "[e1,f1] (gauge [1]/1)"
        report = qrep.check_quantum_relations(broken)
        assert [n for n, ok in verdicts(report) if not ok] == [name]
        assert relation_items(broken)[name]["residual"] == {
            p: {p: x} for p, x in enumerate(rep.h[1]) if x}
        for w in (Q(2), Q(-3, 2), Q(5, 7)):
            assert verdicts(report) == verdicts(
                oracles.check_quantum_relations(broken, QSample(w)))

    def test_bracket_with_a_second_magnitude_fails_for_all_q(self):
        """Negative control for the magnitude test of [e_i, f_i].  V (x) V
        with the classical coproduct x (x) 1 + 1 (x) x is a module of the
        classical algebra only: [e_i, f_i] = h_i holds there, but h_i takes
        a value |x| not in {0, m}, and no q-independent entry times the
        gauge [m]_q / m is [x]_q for all q.  So every [e_i, f_i] fails, its
        witness the diagonal entries h_i(p) of the other magnitudes alone,
        and the dense oracle gives the same verdicts at every w."""
        rep = seed_rep("a2even", 1)
        n, eye = rep.dim, linalg.sparse_identity(rep.dim)

        def kron(a, b):
            return {i * n + k: {j * n + t: x * y for j, x in ra.items()
                                for t, y in rb.items()}
                    for i, ra in a.items() for k, rb in b.items()}

        def delta(x):
            return linalg.sparse_lincomb(((1, kron(x, eye)),
                                          (1, kron(eye, x))))

        square = tensor_square(rep, map(delta, rep.e), map(delta, rep.f))
        items = relation_items(square)
        brackets = [name for name in items if "gauge" in name]
        assert [b.split()[0] for b in brackets] == ["[e0,f0]", "[e1,f1]"]
        for i, name in enumerate(brackets):
            mags = {abs(x) for x in square.h[i]} - {0}
            m = max(mags) if len(mags) == 1 else 1
            witness = {p: {p: x} for p, x in enumerate(square.h[i])
                       if abs(x) not in (0, m)}
            assert witness and items[name]["residual"] == witness
        report = qrep.check_quantum_relations(square)
        for w in (Q(2), Q(-3, 2)):
            assert verdicts(report) == verdicts(
                oracles.check_quantum_relations(square, QSample(w)))

    def test_seed_samples_compute_no_q_integer(self, grid_case):
        """On every seed each relation is decided for all q once per rep:
        every entry of rep.relations is a finished report entry that
        passes, no sample is taken, and each check returns a fresh list of
        those same entries."""
        rep = seed_rep(*grid_case)
        assert all(isinstance(r, dict) and r["ok"] for r in rep.relations)
        assert list(inspect.signature(
            qrep.check_quantum_relations).parameters) == ["rep"]
        a, b = (qrep.check_quantum_relations(rep) for _ in range(2))
        assert a == b and a is not b
        assert all(x is y is z for x, y, z in zip(a, b, rep.relations))

    def test_q_serre_coefficients_matter_on_the_tensor_square(
            self, monkeypatch):
        """Negative control: a tensor square built at one w is refused.  On
        the seed reps each word of every q-Serre sum of degree m >= 2
        vanishes alone, and the m = 1 sums are commutators, so no
        q-dependent coefficient is tested there.  V (x) V with D(e_i) and
        D(f_i) at w = 3/2 is a module of U_q at that q only: the dense
        oracle passes its q-Serre sums there with the q-divided
        coefficients and fails some with classical factorials in their
        place.  Its generators depend on q, so the checker, which decides
        each relation for all q, refuses q-Serre sums, each with a nonzero
        witness."""
        rep = seed_rep("a2even", 2)
        qs = QSample(Fraction(3, 2))
        square = tensor_square(rep, *(
            [fraction_coproduct(rep, kind, i, qs)
             for i in range(rep.spec.l + 1)] for kind in "ef"))

        def serre_failures(report):
            return [r for r in report
                    if r["relation"].startswith("q-Serre") and not r["ok"]]

        refused = serre_failures(qrep.check_quantum_relations(square))
        assert refused and all(r["residual"] for r in refused)
        assert not serre_failures(oracles.check_quantum_relations(square, qs))
        monkeypatch.setattr(oracles, "qfactorial",
                            lambda n, q: math.factorial(n))
        assert serre_failures(oracles.check_quantum_relations(square, qs))

    @pytest.mark.parametrize("family,l", [("a2even", 2), ("a2odd", 3),
                                          ("d2", 2)],
                             ids=["a2even-l2", "a2odd-l3", "d2-l2"])
    def test_bracket_target_follows_the_sample(self, family, l):
        """Negative control: a tensor square built at one w is refused.  On
        the seeds the gauged target holds at every q.  The tensor square
        with D(e_i) and D(g_i f_i), g_i = [m_i]_q / m_i, is a module of U_q
        at the q of its own w only: the dense oracle passes it at w and
        fails an [e_i, f_i] entry at another w, as the target [h_i]_q
        follows the sample.  Its generators depend on q, so the checker,
        which decides each relation for all q, refuses [e_i, f_i] entries,
        each with a nonzero witness."""
        rep = seed_rep(family, l)
        w, other = Q(3, 2), Q(-5, 7)
        qs = QSample(w)
        fs = []
        for i in range(rep.spec.l + 1):
            m = max(abs(x) for x in rep.h[i])
            g = (qs.q_pow(m) - qs.q_pow(-m)) / (qs.q - 1 / qs.q) / m
            fs.append(linalg.sparse_lincomb(
                ((g, fraction_coproduct(rep, "f", i, qs)),)))
        square = tensor_square(
            rep, [fraction_coproduct(rep, "e", i, qs)
                  for i in range(rep.spec.l + 1)], fs)

        def failures(report):
            return [r for r in report if not r["ok"]]

        assert not failures(oracles.check_quantum_relations(square, qs))
        assert any(r["relation"].startswith("[e") for r in failures(
            oracles.check_quantum_relations(square, QSample(other))))
        refused = [r for r in failures(qrep.check_quantum_relations(square))
                   if r["relation"].startswith("[e")]
        assert refused and all(r["residual"] for r in refused)

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
        report = qrep.check_quantum_relations(scaled)
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


class TestSerrePairRule:
    """The pair rule of ``qrep._serre_witness`` on hand-built words W_0..W_m
    of degree m: W_k = A_k and W_(m-k) = -(-1)^m A_k for k < m/2, and a
    zero middle word for even m, cancel in sum (-1)^k [m k]_q W_k at every
    q."""

    @staticmethod
    def cancelling(m):
        words = [{} for _ in range(m + 1)]
        for k in range((m + 1) // 2):
            words[k] = {0: {1: k + 1}, 1: {0: -(k + 2)}}
            words[m - k] = {i: {j: -(-1) ** m * x for j, x in row.items()}
                            for i, row in words[k].items()}
        return words

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_cancelling_words_pass(self, m):
        assert qrep._serre_witness(self.cancelling(m)) == {}

    @pytest.mark.parametrize("m,k", [(m, k) for m in (2, 3, 5)
                                     for k in range(m + 1)])
    def test_one_word_changed_fails(self, m, k):
        """1 added to the (0, 0) entry of W_k leaves exactly one pair sum,
        that of min(k, m - k), nonzero: the witness.  The middle word of
        an even m is its own pair, with the sum 2 W_(m/2)."""
        words = self.cancelling(m)
        words[k] = oracles.bump(words[k], 0, 0)
        c = 2 if 2 * k == m else 1 if 2 * k < m else (-1) ** m
        assert qrep._serre_witness(words) == {0: {0: c}}


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
        """The checker, deciding each relation for all q, gives every
        relation the dense oracle's verdict at w, every failure a nonempty
        witness, and a corrupted generator fails some relation.  Where the
        relation does not depend on q (the weight shifts, [e_i, f_j] with
        i != j and the q-Serre sums of degree 1) the witness is the
        oracle's residual: computed in integers and divided back by its
        scale, which only the residual would show wrong."""
        rep = seed_rep(*case)
        if corrupt is not None:
            rep = corrupted(rep, *corrupt)
        got = entries(qrep.check_quantum_relations(rep))
        want = entries(oracles.check_quantum_relations(rep, QSample(w)),
                       dense=True)
        assert [e[:2] for e in got] == [e[:2] for e in want]
        assert all(residual for _, ok, residual in got if not ok)
        degrees = serre_degrees(rep.spec)
        fixed = [k for k, (name, _, _) in enumerate(got)
                 if "gauge" not in name and degrees.get(name, 1) == 1]
        assert [got[k] for k in fixed] == [want[k] for k in fixed]
        assert all(ok for _, ok, _ in got) == (corrupt is None)

    def test_relation_data_follows_the_object(self, grid_case):
        """One rep gives the dense oracle's verdicts at w = 2, -3/2 and 5/7.
        A copy with a corrupted e_0, made after the clean rep has built its
        relation data, fails with the oracle's verdicts at each w: no
        product built for one object is read for another."""
        rep = qrep.build_seed_rep(family_spec(*grid_case))
        ws = (Q(2), Q(-3, 2), Q(5, 7))

        def oracle(rep, w):
            return verdicts(oracles.check_quantum_relations(rep, QSample(w)))

        got = verdicts(qrep.check_quantum_relations(rep))
        assert all(got == oracle(rep, w) for w in ws)
        assert all(ok for _, ok in got)
        assert "relations" in vars(rep)
        broken = corrupted(rep, "e", 0)
        got = verdicts(qrep.check_quantum_relations(broken))
        assert all(got == oracle(broken, w) for w in ws)
        assert not all(ok for _, ok in got)
