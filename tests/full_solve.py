"""Reference solve for the tests: the intertwining equations eliminated
with one unknown per weight-preserving entry of R.

This is the direct route before the component solve: it collects
R * D(a) - D^T(a) * R = 0 for e_i, f_i (i = 1..l) and e0 at u, certifies
that the null space is one-dimensional and normalizes R to 1 on the top
weight vector.  It shares no code with ``jimbo.solve_rmatrix`` beyond the
coproduct actions and the row space (the opposite coproduct is the tests'
own, ``oracles.opposite_coproduct``), so the two agreeing is a check on the
component solve.
"""

from fractions import Fraction

from twistr import linalg
from twistr.jimbo import SolveError
from twistr.liealg import wadd

from conftest import fraction_coproduct
from oracles import opposite_coproduct, permutation_operator

Q = Fraction


def product_weights(rep):
    """The weight of each product basis vector v_i (x) v_j of V (x) V."""
    return [wadd(a, b) for a in rep.weights for b in rep.weights]


def top_index(rep):
    """Index of the unique basis vector of maximal weight (v_top (x) v_top)
    of V (x) V, V = rep."""
    weights = product_weights(rep)
    top = max(weights)
    idxs = [p for p, w in enumerate(weights) if w == top]
    if len(idxs) != 1:
        raise SolveError("top weight space is not one-dimensional")
    return idxs[0]


def full_solve(rep, qs, u):
    """(R, Rcheck) as sparse matrices, or SolveError if the null space of
    the full system is not one-dimensional."""
    l = rep.spec.l
    blocks = {}
    for p, w in enumerate(product_weights(rep)):
        blocks.setdefault(w, []).append(p)
    var_index = {}
    for _, idxs in sorted(blocks.items()):
        for p in idxs:
            for r in idxs:
                var_index[(p, r)] = len(var_index)
    block_of = {p: idxs for idxs in blocks.values() for p in idxs}

    generators = [("e", i) for i in range(1, l + 1)] + \
                 [("f", i) for i in range(1, l + 1)] + [("e", 0)]
    equations = {}
    for kind, i in generators:
        uu = u if i == 0 else None
        A = fraction_coproduct(rep, kind, i, qs, u=uu)
        B = opposite_coproduct(rep, kind, i, qs, u=uu)
        # equation (s, t): sum_p R[s][p] A[p][t] - sum_p B[s][p] R[p][t] = 0,
        # with R[x][y] an unknown only for weight(x) == weight(y)
        for p, row in A.items():
            for t, x in row.items():
                for s in block_of[p]:
                    eq = equations.setdefault((kind, i, s, t), {})
                    eq[(s, p)] = eq.get((s, p), 0) + x
        for s, row in B.items():
            for p, x in row.items():
                for t in block_of[p]:
                    eq = equations.setdefault((kind, i, s, t), {})
                    eq[(p, t)] = eq.get((p, t), 0) - x

    sol = solve_nullity_one(equations, var_index)
    p0 = top_index(rep)
    top = sol.get(var_index[(p0, p0)])
    if not top:
        raise SolveError("solution vanishes on the top weight vector")
    R = {}
    for (p, r), v in var_index.items():
        if v in sol:
            R.setdefault(p, {})[r] = sol[v] / top
    return R, linalg.mat_mul(permutation_operator(rep), R)


def solve_nullity_one(equations, var_index):
    """Sparse null vector {var: x} of the sparse system, certifying the
    nullity is exactly 1."""
    nvars = len(var_index)
    space = linalg.RowSpace()
    kernel = None
    for key in sorted(equations):
        coeffs = {var_index[var]: c for var, c in equations[key].items() if c}
        if not coeffs:
            continue
        if kernel is None:
            space.add(coeffs)
            if space.dim == nvars:
                raise SolveError("null space is trivial (degenerate sample)")
            if space.dim == nvars - 1:
                kernel = kernel_from_rowspace(space, nvars)
        elif sum(c * kernel[j] for j, c in coeffs.items() if j in kernel):
            raise SolveError("null space is trivial (degenerate sample)")
    if kernel is None:
        raise SolveError(f"null space dimension {nvars - space.dim}, expected 1")
    return kernel


def kernel_from_rowspace(space, ncols):
    """The null vector, 1 at its free column, of the row space of rows over
    the columns 0..ncols-1, certifying it has one free column."""
    free = [j for j in range(ncols) if j not in space.pivots]
    if len(free) != 1:
        raise SolveError(f"row space leaves {len(free)} free columns, expected 1")
    fc = free[0]
    v = {piv: -row[fc] for piv, row in space.rows.items() if fc in row}
    v[fc] = Q(1)
    return v
