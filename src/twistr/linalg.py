"""Dense exact linear algebra over Q (list-of-lists of Fraction).

Sizes here are small (representation spaces up to a few dozen dimensions), so
plain fraction-free-less Gaussian elimination is entirely adequate.
"""

from __future__ import annotations

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
    return [[x * c for x in row] for row in a]


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


def commutator(a, b):
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def is_zero(a):
    return all(not x for row in a for x in row)


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
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(m):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return a, pivots


def kernel_basis(mat, ncols=None):
    """Basis of the right null space of mat (rows may be a generator of rows)."""
    rows = [row for row in mat if any(row)]
    if ncols is None:
        ncols = len(mat[0])
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


class RowSpace:
    """Incrementally maintained row space for linear-independence tests."""

    def __init__(self, ncols):
        self.ncols = ncols
        self.rows = []       # reduced rows
        self.pivots = []     # pivot column of each reduced row

    def reduce(self, v):
        v = list(v)
        for row, p in zip(self.rows, self.pivots):
            if v[p]:
                f = v[p]
                for j in range(self.ncols):
                    v[j] -= f * row[j]
        return v

    def add(self, v):
        """Add vector if independent; returns True if it enlarged the space."""
        v = self.reduce(v)
        piv = next((j for j in range(self.ncols) if v[j]), None)
        if piv is None:
            return False
        inv = 1 / v[piv]
        v = [x * inv for x in v]
        for row in self.rows:
            if row[piv]:
                f = row[piv]
                for j in range(self.ncols):
                    row[j] -= f * v[j]
        self.rows.append(v)
        self.pivots.append(piv)
        return True

    @property
    def dim(self):
        return len(self.rows)
