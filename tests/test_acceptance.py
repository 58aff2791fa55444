"""Acceptance suite: one test (or parametrized group) per acceptance criterion.

1. Relation suites pass exactly on the full family/rank grid, the quantum
   relations for all q and, in the dense oracle, at >= 5 random w.
2. Yang-Baxter holds with zero residual at >= 3 random (w, u, v) per seed case.
3. Unitarity Rcheck(u) Rcheck(1/u) = I for every solved case.
4. Spectral oracle equivalence: direct solve == graph recursion spectrum.
5. Closed-form eigenvalue products == spanning-tree recursion in Q(u),
   with loop-consistency certificates on every cycle.
6. Graph regressions: the four displayed example graphs and the two grid
   parity patterns.
7. Branching closed forms agree with the brute-force character oracle and the
   Weyl dimension formula on the grid.
8. Parity theorem: the sign spectrum read off the solved R-matrix equals the
   classical symmetric/antisymmetric split and the graph 2-coloring.
9. Determinism: same seed => byte-identical CLI reports.
"""

import json
import random
from fractions import Fraction

import pytest

from twistr import branching, jimbo, liealg, qrep, tensor, tpg
from twistr.cli import main
from twistr.liealg import family_spec
from twistr.scalars import QSample, RatFun

import oracles
from conftest import GRID, YBE_CASES, seed_rep, seed_shared
from oracles import brute_force_tensor

Q = Fraction


def rational_stream(seed):
    return random.Random(seed)


# -- 1: relation suites -----------------------------------------------------

@pytest.mark.parametrize("family,l", GRID, ids=[f"{f}-l{l}" for f, l in GRID])
def test_criterion_1_relation_suites(family, l):
    spec = family_spec(family, l)
    classical = liealg.check_classical_relations(liealg.kac_generators(spec), spec)
    assert all(r["ok"] for r in classical), \
        [r["relation"] for r in classical if not r["ok"]]
    rep = seed_rep(family, l)
    report = qrep.check_quantum_relations(rep)
    bad = [r["relation"] for r in report if not r["ok"]]
    assert not bad, bad
    rng = rational_stream(101)
    for _ in range(5):
        w = jimbo.sample_w(rng)
        report = oracles.check_quantum_relations(rep, QSample(w))
        bad = [r["relation"] for r in report if not r["ok"]]
        assert not bad, (w, bad)


# -- 2: Yang-Baxter ---------------------------------------------------------

@pytest.mark.parametrize("family,l", YBE_CASES,
                         ids=[f"{f}-l{l}" for f, l in YBE_CASES])
def test_criterion_2_yang_baxter(family, l):
    shared = seed_shared(family, l)
    rng = rational_stream(202)
    done = 0
    while done < 3:
        w, u, v = jimbo.sample_w(rng), jimbo.sample_u(rng), jimbo.sample_u(rng)
        try:
            out = jimbo.check_ybe(shared, QSample(w), u, v)
        except (jimbo.SolveError, tensor.DecompositionError):
            continue
        assert out["ok"], (w, u, v)
        done += 1


# -- 3: unitarity -----------------------------------------------------------

@pytest.mark.parametrize("family,l", YBE_CASES,
                         ids=[f"{f}-l{l}" for f, l in YBE_CASES])
def test_criterion_3_unitarity(family, l):
    shared = seed_shared(family, l)
    rng = rational_stream(303)
    done = 0
    while done < 3:
        w, u = jimbo.sample_w(rng), jimbo.sample_u(rng)
        try:
            out = jimbo.check_unitarity(shared, QSample(w), u)
        except jimbo.SolveError:
            continue
        assert out["ok"], (w, u)
        done += 1


# -- 4: spectral oracle equivalence ----------------------------------------

@pytest.mark.parametrize("family,l", YBE_CASES,
                         ids=[f"{f}-l{l}" for f, l in YBE_CASES])
def test_criterion_4_spectral_equivalence(family, l):
    shared = seed_shared(family, l)
    rng = rational_stream(404)
    out = jimbo.with_retries(
        lambda r: jimbo.spectral_compare(
            shared, QSample(jimbo.sample_w(r)), jimbo.sample_u(r)), rng)
    assert out["ok"]


# -- 5: closed form == recursion in Q(u) ------------------------------------

def _closed_form_cases():
    for l in range(2, 7):
        for k in range(1, l + 1):
            for r in range(k, l - k + 1):
                yield ("a2even", l, (k, r))
    for l in range(3, 7):
        for k in range(1, 4):
            for r in range(k, 4):
                yield ("a2odd", l, (k, r))
    for l in range(2, 7):
        for a in range(1, 4):
            for b in range(a, 4):
                yield ("d2", l, (a, b))


def test_criterion_5_closed_form_equals_recursion():
    qs = QSample(Q(5, 3))
    total_loops = 0
    cases = list(_closed_form_cases())
    for family, l, params in cases:
        spec = family_spec(family, l)
        graph = tpg.build_graph(spec, params)
        rho, certificates = tpg.eigenvalues_by_recursion(graph, qs)
        assert all(c["consistent"] for c in certificates), (family, l, params)
        total_loops += len(certificates)
        closed = tpg.eigenvalues_closed_form(spec, params, qs)
        assert rho == closed, (family, l, params)
        assert isinstance(rho[graph.top], RatFun)   # identity in Q(u), not samples
        # and identically in (q, u): the factored forms are equal
        assert tpg.factored_closed_form(spec, params) == \
            tpg.factored_recursion(graph)[0], (family, l, params)
    assert len(cases) >= 70 and total_loops > 0


# -- 6: graph regressions ---------------------------------------------------

def _lam(l, *ones_at):
    out = [Q(0)] * l
    for k in ones_at:
        for i in range(k):
            out[i] += 1
    return tuple(out)


def test_criterion_6_displayed_graphs():
    # B_l vector square: 0(+) -- 2*lambda1(+) -- lambda2(-)
    g = tpg.build_graph(family_spec("a2even", 3), (1, 1))
    assert {n.nu: n.parity for n in g.nodes} == \
        {_lam(3): 1, _lam(3, 1, 1): 1, _lam(3, 2): -1}
    assert {frozenset(e): s for e, s in g.edges} == \
        {frozenset((_lam(3), _lam(3, 1, 1))): 1,
         frozenset((_lam(3, 1, 1), _lam(3, 2))): -1}

    # B_l vector x fundamental (k < l):
    # lambda_{k-1}(+) -- lambda1+lambda_k(+) -- lambda_{k+1}(-)
    k, l = 2, 4
    g = tpg.build_graph(family_spec("a2even", l), (1, k))
    assert {n.nu: n.parity for n in g.nodes} == \
        {_lam(l, k - 1): 1, _lam(l, 1, k): 1, _lam(l, k + 1): -1}

    # C_l vector square: 0(-) -- lambda2(-) -- 2*lambda1(+)
    g = tpg.build_graph(family_spec("a2odd", 3), (1, 1))
    assert {n.nu: n.parity for n in g.nodes} == \
        {_lam(3): -1, _lam(3, 2): -1, _lam(3, 1, 1): 1}
    assert {frozenset(e): s for e, s in g.edges} == \
        {frozenset((_lam(3), _lam(3, 2))): 1,
         frozenset((_lam(3, 2), _lam(3, 1, 1))): -1}

    # B_l spinor chain: parities +, -, -, +, +, ... along the chain
    for l, a in [(2, 1), (3, 1), (4, 2)]:
        g = tpg.build_graph(family_spec("d2", l), (1, a))
        shift = Q(a - 1, 2)
        chain = [tuple(Q(1 if j < l - i else 0) + shift for j in range(l))
                 for i in range(l + 1)]
        assert {n.nu: n.parity for n in g.nodes} == \
            {nu: (-1) ** ((i + 1) // 2) for i, nu in enumerate(chain)}


def test_criterion_6_grid_parity_patterns():
    # so(13), product params (2, 3): parity (-1)^(k-a) on L-parent (a, k+r-a)
    spec = family_spec("a2even", 6)
    g = tpg.build_graph(spec, (2, 3))
    table = branching.decompose_tensor_closed_form(spec, (2, 3))
    parity = {n.nu: n.parity for n in g.nodes}
    for c in table:
        assert parity[c.nu] == (-1) ** (2 - c.parent[1])

    # sp(6), product params (2, 3): parity (-1)^a
    spec = family_spec("a2odd", 3)
    g = tpg.build_graph(spec, (2, 3))
    table = branching.decompose_tensor_closed_form(spec, (2, 3))
    parity = {n.nu: n.parity for n in g.nodes}
    for c in table:
        assert parity[c.nu] == (-1) ** c.parent[2]


# -- 7: branching oracle ----------------------------------------------------

BRANCHING_GRID = [
    ("a2even", 1, (1, 1)), ("a2even", 2, (1, 1)), ("a2even", 2, (2, 2)),
    ("a2even", 3, (1, 2)), ("a2even", 4, (2, 3)),
    ("a2odd", 3, (1, 1)), ("a2odd", 3, (2, 2)), ("a2odd", 4, (1, 3)),
    ("d2", 2, (1, 1)), ("d2", 2, (2, 2)), ("d2", 3, (1, 2)), ("d2", 3, (2, 3)),
]


@pytest.mark.parametrize("family,l,params", BRANCHING_GRID,
                         ids=[f"{f}-l{l}-{p}" for f, l, p in BRANCHING_GRID])
def test_criterion_7_branching_oracle(family, l, params):
    spec = family_spec(family, l)
    table = branching.decompose_tensor_closed_form(spec, params)
    lam = branching.input_weight(spec, params[0])
    mu = branching.input_weight(spec, params[1])
    oracle = brute_force_tensor(spec.l0type, l, lam, mu)
    assert {c.nu: 1 for c in table} == oracle
    for c in table:
        assert c.dim == liealg.weyl_dim(spec.l0type, l, c.nu)
    assert sum(c.dim for c in table) == \
        liealg.weyl_dim(spec.l0type, l, lam) * liealg.weyl_dim(spec.l0type, l, mu)


# -- 8: parity theorem ------------------------------------------------------

@pytest.mark.parametrize("family,l", YBE_CASES,
                         ids=[f"{f}-l{l}" for f, l in YBE_CASES])
def test_criterion_8_parity_theorem(family, l):
    rep = seed_rep(family, l)
    spectrum = jimbo.parity_spectrum(seed_shared(family, l), QSample(Q(5, 4)))
    graph = tpg.build_graph(rep.spec, rep.spec.seed_params())
    coloring = {n.nu: n.parity for n in graph.nodes}
    classical = tensor.classical_parity_signs(rep)
    assert spectrum == coloring == classical


# -- 9: determinism ---------------------------------------------------------

def test_criterion_9_byte_identical_reports(tmp_path):
    reports = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.json"
        code = main(["verify", "--family", "a2even", "--l", "2",
                     "--k", "1", "--r", "1", "--seed", "7", "--samples", "2",
                     "--out", str(out)])
        assert code == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["ok"]
