"""Exact linear algebra over Q.

Dense list-of-lists of Fraction serve only the construction of a seed
representation (the Kac matrices, the Jordan-Wigner products and the
constraint solve for the spinor's affine pair) and the small per-weight-block
or per-component eliminations.  Everything else is sparse:
``{row: {col: x}}`` holding only the nonzero entries (a sparse vector, such
as an adapted basis vector, is one such ``{col: x}``).  That covers the
stored seed generators, the relation checks on them, and every operator on
V (x) V -- the coproduct actions, the swap, R and its braided form.
``RowSpace`` eliminates sparse rows incrementally, so its cost follows the
nonzeros, not the number of columns.  Entries are Fraction or int; a pivot
is inverted as Fraction(1, x), so integer input never yields a float.
"""

from __future__ import annotations

import math
from fractions import Fraction

Q = Fraction


def zeros(m, n):
    return [[Q(0)] * n for _ in range(m)]


def identity(n):
    out = zeros(n, n)
    for i in range(n):
        out[i][i] = Q(1)
    return out


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a, c):
    return [[x * c if x else x for x in row] for row in a]


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    out = zeros(n, m)
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            c = ai[t]
            if c:
                bt = b[t]
                for j in range(m):
                    if bt[j]:
                        oi[j] += c * bt[j]
    return out


def mat_vec(a, v):
    """a . v, skipping the zero entries of v."""
    nz = [(j, x) for j, x in enumerate(v) if x]
    return [sum((row[j] * x for j, x in nz), Q(0)) for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def rref(mat):
    """Reduced row echelon form (in place on a copy); returns (rref, pivot cols)."""
    a = [row[:] for row in mat]
    m = len(a)
    n = len(a[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = Q(1, a[r][c])
        a[r] = [x * inv if x else x for x in a[r]]
        for i in range(m):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y if y else x for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return a, pivots


def kernel_basis(mat, ncols):
    """Basis of the right null space of mat, whose rows (there may be none,
    and they may come from a generator) have ncols entries."""
    rows = [row for row in mat if any(row)]
    if not rows:
        return [[Q(1) if j == i else Q(0) for j in range(ncols)]
                for i in range(ncols)]
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Q(0)] * ncols
        v[fc] = Q(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def invert(mat):
    n = len(mat)
    aug = [row[:] + ident_row for row, ident_row in zip(mat, identity(n))]
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red]


# ---------------------------------------------------------------------------
# Sparse matrices {row: {col: x}} and vectors {col: x}, nonzero entries only
# ---------------------------------------------------------------------------

def sparse_vector(v):
    return {j: x for j, x in enumerate(v) if x}


def sparse(m):
    return {i: r for i, r in enumerate(map(sparse_vector, m)) if r}


def denominator(*vs):
    """The lcm of the denominators of the sparse vectors vs."""
    return math.lcm(*(x.denominator for v in vs for x in v.values()))


def scaled(v, d):
    """d * v in ints, for a multiple d of every denominator of the sparse
    vector v."""
    return {j: x.numerator * (d // x.denominator) for j, x in v.items()}


def integral(*ms):
    """[d * m for m in ms] in ints, for d the lcm of all the denominators of
    the sparse matrices ms."""
    d = denominator(*(row for m in ms for row in m.values()))
    return [{i: scaled(row, d) for i, row in m.items()} for m in ms]


def sparse_identity(n, c=Q(1)):
    """c times the n x n identity."""
    return {i: {i: c} for i in range(n)}


def sparse_vec_mul(v, b):
    """The sparse row vector v times the sparse matrix b."""
    acc = {}
    for k, x in v.items():
        rb = b.get(k)
        if rb:
            for j, y in rb.items():
                acc[j] = acc.get(j, 0) + x * y
    return {j: x for j, x in acc.items() if x}


def sparse_mul(a, b):
    return {i: row for i, ra in a.items() if (row := sparse_vec_mul(ra, b))}


def sparse_lincomb(terms):
    """The sparse matrix sum(c * m) over the (c, m) pairs of terms, with the
    entries that cancel dropped: it is empty exactly when the sum is 0."""
    out = {}
    for c, m in terms:
        for i, row in m.items():
            acc = out.setdefault(i, {})
            for j, x in row.items():
                acc[j] = acc.get(j, 0) + c * x
    out = {i: {j: x for j, x in acc.items() if x} for i, acc in out.items()}
    return {i: row for i, row in out.items() if row}


def sparse_commutator(a, b):
    return sparse_lincomb(((1, sparse_mul(a, b)), (-1, sparse_mul(b, a))))


def sparse_transpose(a):
    """The columns {col: {row: x}} of the sparse matrix a."""
    out = {}
    for i, row in a.items():
        for j, x in row.items():
            out.setdefault(j, {})[i] = x
    return out


def sparse_mat_vec(cols, v):
    """a . v for the sparse vector v and the sparse matrix a given by its
    columns ``sparse_transpose(a)``, at a cost that follows the columns v
    touches: transpose a once to apply it to many vectors."""
    out = {}
    for j, y in v.items():
        for i, x in cols.get(j, {}).items():
            out[i] = out.get(i, 0) + x * y
    return {i: x for i, x in out.items() if x}


class RowSpace:
    """Incrementally maintained row space of sparse rows.

    The rows are kept fully reduced: each is keyed by its pivot (its first
    nonzero column), is 1 there and 0 at every other pivot, so the pivots
    are those of ``rref`` of the rows added."""

    def __init__(self, ncols):
        self.ncols = ncols
        self.rows = {}       # pivot column -> reduced sparse row

    @property
    def pivots(self):
        return self.rows.keys()

    def reduce(self, v):
        """The sparse vector v minus its part along the stored rows."""
        out = dict(v)
        for p in [p for p in v if p in self.rows]:
            f = v[p]
            for j, x in self.rows[p].items():
                y = out.get(j, 0) - f * x
                if y:
                    out[j] = y
                else:
                    del out[j]
        return out

    def add(self, v):
        """Add the sparse vector v if independent; returns True if it
        enlarged the space."""
        v = self.reduce(v)
        if not v:
            return False
        piv = min(v)
        inv = Q(1, v[piv])
        v = {j: x * inv for j, x in v.items()}
        for row in self.rows.values():
            f = row.get(piv)
            if f:
                for j, x in v.items():
                    y = row.get(j, 0) - f * x
                    if y:
                        row[j] = y
                    else:
                        del row[j]
        self.rows[piv] = v
        return True

    @property
    def dim(self):
        return len(self.rows)
