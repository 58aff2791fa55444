"""Exact linear algebra over Q.

Dense list-of-lists serve only the construction of a seed
representation (the Kac matrices, the Jordan-Wigner products and the
constraint solve for the spinor's affine pair) and the small per-weight-block
or per-component eliminations.  Everything else is sparse:
``{row: {col: x}}`` holding only the nonzero entries (a sparse vector, such
as an adapted basis vector, is one such ``{col: x}``).  That covers the
stored seed generators, the relation checks on them, and every operator on
V (x) V -- the coproduct actions, the swap, R and its braided form.

There is one elimination, ``RowSpace.add``, and it is fraction-free, as in
Bareiss (Math. Comp. 22, 1968), though it divides each updated row by its
content gcd rather than by the previous pivot: a row is scaled to integers
by the lcm of its denominators (an integer row is taken as it is) and
reduced against the stored rows by integer cross-multiplication.  ``rref``,
and through it ``kernel_basis`` and ``invert``, run their rows through a
``RowSpace`` and hand out integers: the primitive reduced rows, primitive
kernel vectors, and an inverse as integer rows over one denominator.  Only
``RowSpace.rows`` builds Fractions, one per nonzero entry.  The sparse rows
make the cost follow the nonzeros, not the number of columns.
"""

from __future__ import annotations

import math
from fractions import Fraction

Q = Fraction


def zeros(m, n):
    return [[Q(0)] * n for _ in range(m)]


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
    """Fraction-free reduced row echelon form of mat, (rows, pivot cols):
    the primitive integer rows of a ``RowSpace`` of the rows of mat, sorted
    by pivot, each a reduced row times its positive pivot entry, then zero
    rows, as many rows as in mat."""
    ncols = len(mat[0]) if mat else 0
    space = RowSpace(ncols)
    for row in mat:
        space.add(sparse_vector(row))
    pivots = sorted(space.pivots)
    red = [[space.primitive[p].get(j, 0) for j in range(ncols)]
           for p in pivots]
    red += [[0] * ncols for _ in range(len(mat) - len(pivots))]
    return red, pivots


def kernel_basis(mat, ncols):
    """Basis of the right null space of mat, whose rows (maybe none, maybe
    a generator) have ncols entries: per free column of ``rref``, the vector
    1 there times the lcm of its denominators, primitive and in ints."""
    rows = [row for row in mat if any(row)]
    if not rows:
        return [[int(j == i) for j in range(ncols)] for i in range(ncols)]
    red, pivots = rref(rows)
    tops = [red[r][pc] for r, pc in enumerate(pivots)]
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        m = math.lcm(*(a // math.gcd(row[fc], a) for row, a in zip(red, tops)))
        v = [0] * ncols
        v[fc] = m
        for row, a, pc in zip(red, tops, pivots):
            v[pc] = -row[fc] * m // a
        basis.append(v)
    return basis


def invert(mat):
    """The inverse of the square mat as (rows, d), integer rows over the
    least denominator d > 0: the lcm of the pivot entries of ``rref`` of
    [mat | I].  Raises ValueError if mat is singular."""
    n = len(mat)
    red, pivots = rref([[*row, *(int(i == j) for j in range(n))]
                        for i, row in enumerate(mat)])
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    d = math.lcm(*(red[r][r] for r in range(n)))
    return [[x * (d // row[r]) for x in row[n:]]
            for r, row in enumerate(red[:n])], d


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


def _primitive(v):
    """The nonzero sparse integer vector v divided by its content gcd and
    signed so that its first nonzero entry is positive."""
    g = math.gcd(*v.values())
    if v[min(v)] < 0:
        g = -g
    return v if g == 1 else {j: x // g for j, x in v.items()}


def _subtract(out, f, row):
    """out -= f * row in place, for sparse integer vectors."""
    for j, y in row.items():
        z = out.get(j, 0) - f * y
        if z:
            out[j] = z
        else:
            del out[j]


class RowSpace:
    """Incrementally maintained row space of sparse rows, by fraction-free
    elimination.

    Each stored row is a primitive integer row keyed by its pivot (its first
    nonzero column): positive there, 0 at every other pivot, with content
    gcd 1.  Divided by its pivot entry it is a row of ``rref`` of the rows
    added, and ``rows`` reads the stored rows so."""

    def __init__(self, ncols):
        self.ncols = ncols
        self.primitive = {}   # pivot column -> primitive integer row
        self._in_col = {}     # column -> pivots of the rows nonzero there

    @property
    def pivots(self):
        return self.primitive.keys()

    @property
    def rows(self):
        """{pivot: reduced row}, 1 at the pivot, in Fractions."""
        return {p: {j: Q(x, row[p]) for j, x in row.items()}
                for p, row in self.primitive.items()}

    def add(self, v):
        """Add the sparse vector v if independent; returns True if it
        enlarged the space.

        v, scaled to integers, is reduced at once against every stored row
        whose pivot it touches (the stored rows vanish at each other's
        pivots, so those entries of v are the multipliers): times the lcm m
        of the denominators of v[p] / row[p], m * v - sum (m * v[p] /
        row[p]) * row is in integers.  A new row then clears its pivot from
        the stored rows by the same cross-multiplication."""
        if any(type(x) is not int for x in v.values()):
            v = scaled(v, denominator(v))
        hits = [(v[p], self.primitive[p][p], self.primitive[p])
                for p in v if p in self.primitive]
        m = math.lcm(*(a // math.gcd(x, a) for x, a, _ in hits))
        v = {j: m * x for j, x in v.items()}
        for x, a, row in hits:
            _subtract(v, m * x // a, row)
        if not v:
            return False
        v = _primitive(v)
        piv = min(v)
        a = v[piv]
        for p in self._in_col.pop(piv, ()):
            row = self.primitive[p]
            g = math.gcd(a, row[piv])
            out = {j: a // g * y for j, y in row.items()}
            _subtract(out, row[piv] // g, v)
            self._store(p, _primitive(out))
        self._store(piv, v)
        return True

    def _store(self, p, row):
        """Store the row with pivot p, indexing its columns other than p."""
        old = self.primitive.get(p, {p: 1})
        for j in row.keys() - old.keys():
            self._in_col.setdefault(j, set()).add(p)
        for j in old.keys() - row.keys():
            if j in self._in_col:
                self._in_col[j].discard(p)
        self.primitive[p] = row

    @property
    def dim(self):
        return len(self.primitive)
