"""Exact linear algebra over Q, on one matrix type.

A matrix is sparse, ``{row: {col: x}}`` holding only the nonzero entries,
and a vector, such as a row or an adapted basis vector, is one such
``{col: x}``.  That covers the seed generators from their construction on
(the Kac matrices, the Jordan-Wigner products, the spinor's affine pair),
the relation checks on them, every operator on V (x) V -- the coproduct
actions, the swap, R and its braided form -- and the small eliminations per
weight block or per component system.  An identity a b == c d between
products, as in a commutator or an intertwining equation, is tested row by
row (``products_equal``) without building either product.

There is one elimination, ``RowSpace.add``, and it is fraction-free, as in
Bareiss (Math. Comp. 22, 1968), though it divides each updated row by its
content gcd rather than by the previous pivot: a row is scaled to integers
by the lcm of its denominators (an integer row is taken as it is) and
reduced against the stored rows by integer cross-multiplication.  ``rref``,
and through it ``kernel_basis`` and ``invert``, take sparse rows, run them
through a ``RowSpace`` and hand out sparse integer rows: the primitive
reduced rows, primitive kernel vectors, and each row of an inverse over its
own denominator.  Only ``RowSpace.rows`` builds Fractions, one per nonzero
entry.  Column keys are any sortable keys, compared in their sort order, so
the cost follows the nonzeros, not the number of columns.
"""

from __future__ import annotations

import math
from fractions import Fraction

Q = Fraction


def rref(rows):
    """Fraction-free reduced row echelon form of the sparse rows, as
    {pivot: row}: the primitive integer rows of a ``RowSpace`` of rows,
    sorted by pivot, each a reduced row times its positive pivot entry."""
    space = RowSpace()
    for row in rows:
        space.add(row)
    return {p: space.primitive[p] for p in sorted(space.pivots)}


def kernel_basis(rows, cols):
    """Basis of the right null space of the sparse rows (maybe none), whose
    column keys lie among the sorted keys cols: per free column c of
    ``rref``, in the order of cols, the vector 1 at c times the lcm of its
    denominators, primitive and in ints, with its keys in column order."""
    red = rref(rows)
    basis = []
    for c in cols:
        if c in red:
            continue
        # a row holding c has its pivot before c, so v is in column order
        hits = [(p, row[c], row[p]) for p, row in red.items() if c in row]
        m = math.lcm(*(a // math.gcd(x, a) for _, x, a in hits))
        v = {p: -x * m // a for p, x, a in hits}
        v[c] = m
        basis.append(v)
    return basis


def invert(rows, n):
    """The inverse of the n x n matrix of the sparse rows, whose columns
    are 0..n-1, as n pairs (row, a): row r of the inverse is row / a, a
    sparse integer row over a > 0, the pivot entry of row r of ``rref`` of
    [mat | I].  Raises ValueError if the matrix is singular."""
    red = rref({**row, n + i: 1} for i, row in enumerate(rows))
    if any(p >= n for p in red):
        raise ValueError("matrix is singular")
    return [({j - n: x for j, x in row.items() if j >= n}, row[p])
            for p, row in red.items()]


def denominator(*vs):
    """The lcm of the denominators of the sparse vectors vs."""
    return math.lcm(*(x.denominator for v in vs for x in v.values()))


def scaled(v, d):
    """d * v in ints, for a multiple d of every denominator of the sparse
    vector v."""
    return {j: x.numerator * (d // x.denominator) for j, x in v.items()}


def sparse_vec_mul(v, b):
    """The sparse row vector v times the sparse matrix b."""
    acc = {}
    for k, x in v.items():
        rb = b.get(k)
        if rb:
            for j, y in rb.items():
                acc[j] = acc.get(j, 0) + x * y
    return {j: x for j, x in acc.items() if x}


def mat_mul(a, b):
    """The product a b of the sparse matrices a and b."""
    return {i: row for i, ra in a.items() if (row := sparse_vec_mul(ra, b))}


def products_equal(a, b, c, d):
    """True if a b == c d for the sparse matrices a, b, c, d, with no
    product matrix built: row i of a b - c d is accumulated from row i of a
    and row i of c, and the test stops at the first row that is not 0."""
    for i in a.keys() | c.keys():
        acc = {}
        for k, x in a.get(i, {}).items():
            rb = b.get(k)
            if rb:
                for j, y in rb.items():
                    acc[j] = acc.get(j, 0) + x * y
        for k, x in c.get(i, {}).items():
            rd = d.get(k)
            if rd:
                for j, y in rd.items():
                    acc[j] = acc.get(j, 0) - x * y
        if any(acc.values()):
            return False
    return True


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
    return sparse_lincomb(((1, mat_mul(a, b)), (-1, mat_mul(b, a))))


def sparse_transpose(a):
    """The columns {col: {row: x}} of the sparse matrix a."""
    out = {}
    for i, row in a.items():
        for j, x in row.items():
            out.setdefault(j, {})[i] = x
    return out


def mat_vec(cols, v):
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

    def __init__(self):
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
