"""Extended twisted tensor-product graphs and spectral eigenvalues.

A graph node is one fixed-subalgebra component V0(nu) of the tensor product;
it carries the Casimir eigenvalue C(nu) = (nu, nu + 2*rho0), a parity epsilon
in {+1, -1} and the L-parent identifier.  Two nodes are joined by an edge iff

* containment: V0(nu') occurs in V0(theta0) (x) V0(nu), and
* parity rule: epsilon_nu * epsilon_nu' = +1 when the nodes share an L-parent
  and -1 otherwise.

Parities are constant on L-parent classes and flip across every containment
edge between different classes, so they are found by one breadth-first pass
from the top component (parity +1) over the containment pairs, whose tree
edges the graph keeps.  Containment runs on doubled integer weights: the
node index and Klimyk's keys are the int tuples 2*nu, while the nodes,
edges, tree and exports keep nu in Fractions.

Eigenvalues rho_nu(u) follow from the edge recursion

    rho_nu = <(C(nu') - C(nu)) / 2>_{eps_nu * eps_nu'} * rho_nu'

propagated along that spanning tree from the top node; every non-tree edge
yields a loop-consistency certificate.  The per-family closed forms, the
products of the brackets in ``branching.closed_form_table``, are independent
regression targets.

Both routes work on factored eigenvalues (``scalars.BracketProduct``), so
the recursion is dict arithmetic and every loop certificate, like the
agreement of the closed forms with the recursion, holds identically in
(q, u), not only at a sampled w.  ``eigenvalues_by_recursion`` and
``eigenvalues_closed_form`` expand the products once per node, into Q(u) or
at a rational u.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from . import branching
from .branching import (closed_form_table, contains_in_theta_tensor,
                        decompose_tensor_closed_form, theta0_weights)
from .liealg import FamilySpec, casimir_eigenvalue, doubled
from .scalars import BracketProduct, QSample, RatFun, format_scalar


class GraphError(RuntimeError):
    pass


class UnsupportedRegimeError(ValueError):
    """The closed form does not cover this parameter regime."""


@dataclass(frozen=True)
class TPGNode:
    nu: tuple
    casimir: Fraction
    parity: int
    parent: tuple
    dim: int              # dimension of V0(nu)


@dataclass(frozen=True)
class TPGraph:
    spec: FamilySpec
    params: tuple
    nodes: tuple          # TPGNode, sorted by nu descending
    edges: tuple          # ((nu_a, nu_b), sign) with nu_a > nu_b
    top: tuple            # nu of the top (anchor) node
    tree: tuple           # (nu, nu') breadth-first spanning-tree edges from
                          # top, nu reached before nu'


def build_graph(spec: FamilySpec, params) -> TPGraph:
    comps = decompose_tensor_closed_form(spec, params)
    nus = [c.nu for c in comps]
    index = {doubled(nu): i for i, nu in enumerate(nus)}
    top = branching.top_weight(spec, params)
    start = index.get(doubled(top))
    if start is None:
        raise GraphError(f"top weight {top} missing from the decomposition")

    pairs = _contained_pairs(spec, index)
    parity, tree = _traverse(start, [c.parent for c in comps], pairs)
    edges = tuple(((nus[a], nus[b]), parity[a] * parity[b]) for a, b in pairs)
    nodes = tuple(TPGNode(c.nu, casimir_eigenvalue(spec, c.nu), parity[i],
                          c.parent, c.dim)
                  for i, c in enumerate(comps))
    return TPGraph(spec, tuple(params), nodes, edges, top,
                   tuple((nus[a], nus[b]) for a, b in tree))


def _contained_pairs(spec: FamilySpec, index):
    """The node index pairs (i, j), i < j in ``index`` ({2*nu: i}, doubled
    int keys), with V0(nu_j) in V0(theta0) (x) V0(nu_i), from one Klimyk
    sum per node.  theta0 is self-dual, so the relation is symmetric and
    each pair is listed once.  Sorted descending, i.e. by ascending
    (nu_i, nu_j)."""
    weights = theta0_weights(spec)
    rho = doubled(spec.rho0)
    pairs = []
    for nu, i in index.items():
        inside = contains_in_theta_tensor(rho, weights, nu)
        pairs += [(i, j) for j in (index.get(nup, -1) for nup in inside)
                  if j > i]
    return sorted(pairs, reverse=True)


def _traverse(top, parents, pairs):
    """One breadth-first pass from node ``top`` over the containment pairs
    (i, j) of node indices, with parity +1 at the top, kept within an
    L-parent class (``parents[i]``) and flipped across classes.

    Returns (parities by node, tree edges (i, j), i reached before j); raises
    GraphError unless every node is reached, every pair obeys the parity rule
    and each class has one parity, i.e. unless the graph is connected and its
    parent quotient graph bipartite."""
    adjacent = [[] for _ in parents]
    for a, b in pairs:
        adjacent[a].append(b)
        adjacent[b].append(a)

    def rule(a, b):
        return 1 if parents[a] == parents[b] else -1

    parity = [0] * len(parents)   # 0 until reached
    parity[top] = 1
    tree = []
    queue = [top]
    for a in queue:               # the queue grows while it is walked
        for b in adjacent[a]:
            if not parity[b]:
                parity[b] = parity[a] * rule(a, b)
                tree.append((a, b))
                queue.append(b)
    if not all(parity):
        raise GraphError("extended graph is disconnected")
    if (any(parity[a] * parity[b] != rule(a, b) for a, b in pairs)
            or len(set(zip(parents, parity))) != len(set(parents))):
        raise GraphError("parent quotient graph is not bipartite")
    return parity, tree


# ---------------------------------------------------------------------------
# Eigenvalues by recursion over the graph
# ---------------------------------------------------------------------------

def edge_factor(node_from: TPGNode, node_to: TPGNode) -> BracketProduct:
    """The factor relating rho_{nu_to} = factor * rho_{nu_from}."""
    return BracketProduct.bracket((node_from.casimir - node_to.casimir) / 2,
                                  node_from.parity * node_to.parity)


def factored_recursion(graph: TPGraph):
    """Propagate the recursion from the top node along ``graph.tree``, in
    factored form; the tree reaches every node, so no search is needed.

    Returns (rho, certificates): rho maps nu -> BracketProduct, and
    certificates lists one consistency record per non-tree edge.  Raises
    GraphError if a certificate fails, i.e. if the recursion is
    path-dependent; a certificate is an identity in (q, u).
    """
    nodes = {n.nu: n for n in graph.nodes}
    rho = {graph.top: BracketProduct()}
    for a, b in graph.tree:
        rho[b] = edge_factor(nodes[a], nodes[b]) * rho[a]
    tree = {frozenset(e) for e in graph.tree}
    certificates = [
        {"edge": (a, b),
         "consistent": edge_factor(nodes[a], nodes[b]) * rho[a] == rho[b]}
        for (a, b), _ in graph.edges if frozenset((a, b)) not in tree]
    bad = [c for c in certificates if not c["consistent"]]
    if bad:
        raise GraphError(f"recursion is path-dependent on edges {bad}")
    return rho, certificates


def evaluate(products, qs: QSample, u=None):
    """{nu: BracketProduct} -> {nu: value}: in Q(u) (RatFun) with u omitted,
    otherwise at the rational sample u.  Each distinct bracket is evaluated
    and turned into its integer pair once, in a memo that ends with the
    call."""
    if u is None:
        u = RatFun.var()
    memo = {}
    return {nu: p.evaluate(u, qs, memo) for nu, p in products.items()}


def eigenvalues_by_recursion(graph: TPGraph, qs: QSample, u=None):
    """The recursion's eigenvalues, expanded by ``evaluate``.

    With u omitted the result lives in Q(u) (RatFun); otherwise u must be a
    rational sample.  Returns (rho, certificates) as ``factored_recursion``.
    """
    rho, certificates = factored_recursion(graph)
    return evaluate(rho, qs, u), certificates


# ---------------------------------------------------------------------------
# Closed-form eigenvalue products
# ---------------------------------------------------------------------------

def factored_closed_form(spec: FamilySpec, params):
    """The closed forms of ``branching.closed_form_table`` as
    {nu: BracketProduct}; raises UnsupportedRegimeError where no closed form
    applies (the so(2l+1)-in-sl(2l+1) family with k + r > l)."""
    out = {}
    for nu, _, brackets in closed_form_table(spec, params):
        if brackets is None:
            raise UnsupportedRegimeError(
                "closed form for this family needs k + r <= l")
        rho = BracketProduct()
        for a, sign in brackets:
            rho = rho * BracketProduct.bracket(a, sign)
        out[nu] = rho
    return out


def eigenvalues_closed_form(spec: FamilySpec, params, qs: QSample, u=None):
    """The closed forms, expanded by ``evaluate`` (in Q(u) with u omitted)."""
    return evaluate(factored_closed_form(spec, params), qs, u)


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

def _weight_str(nu):
    return "(" + ",".join(str(c) for c in nu) + ")"


def graph_as_dict(graph: TPGraph):
    return {
        "family": graph.spec.family,
        "l": graph.spec.l,
        "params": list(graph.params),
        "top": _weight_str(graph.top),
        "nodes": [
            {
                "weight": _weight_str(n.nu),
                "casimir": format_scalar(n.casimir),
                "parity": n.parity,
                "parent": _weight_str(n.parent[1:]),
                "dim": n.dim,
            }
            for n in graph.nodes
        ],
        "edges": [
            {"a": _weight_str(a), "b": _weight_str(b), "sign": sign}
            for (a, b), sign in graph.edges
        ],
    }


def export_graph(graph: TPGraph, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(graph_as_dict(graph), indent=2, sort_keys=True) + "\n"
    if fmt == "dot":
        lines = ["graph tpg {"]
        for n in graph.nodes:
            sign = "+" if n.parity > 0 else "-"
            lines.append(
                f'  "{_weight_str(n.nu)}" '
                f'[label="{_weight_str(n.nu)}\\n{sign} dim={n.dim} C={n.casimir}"];')
        for (a, b), sign in graph.edges:
            style = "solid" if sign > 0 else "dashed"
            lines.append(
                f'  "{_weight_str(a)}" -- "{_weight_str(b)}" [style={style}];')
        lines.append("}")
        return "\n".join(lines) + "\n"
    if fmt == "text":
        lines = [f"extended twisted TPG {graph.spec.family} l={graph.spec.l} "
                 f"params={list(graph.params)}"]
        for n in graph.nodes:
            sign = "+" if n.parity > 0 else "-"
            lines.append(f"  node {_weight_str(n.nu)} parity={sign} dim={n.dim} "
                         f"C={n.casimir} parent={_weight_str(n.parent[1:])}")
        for (a, b), sign in graph.edges:
            lines.append(f"  edge {_weight_str(a)} -- {_weight_str(b)} "
                         f"sign={'+' if sign > 0 else '-'}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown export format {fmt!r}")
