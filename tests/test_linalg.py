import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistr import linalg

import oracles

Q = Fraction


def matrices(n_min=1, n_max=4):
    return st.integers(n_min, n_max).flatmap(
        lambda n: st.lists(
            st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=4),
                     min_size=n, max_size=n),
            min_size=n, max_size=n))


def _keyed(v, keys=None):
    """The dense vector v as a sparse one, entry j keyed keys[j] (j itself
    by default)."""
    return {k: x for k, x in zip(keys or range(len(v)), v) if x}


def rows_of(m, keys=None):
    """The rows of the dense matrix m as sparse rows, empty ones kept."""
    return [_keyed(row, keys) for row in m]


class TestBasics:
    @given(m=matrices())
    @settings(max_examples=30)
    def test_transpose_involution(self, m):
        t = linalg.sparse_transpose(oracles.sparse(m))
        assert t == oracles.sparse(oracles.transpose(m))
        assert linalg.sparse_transpose(t) == oracles.sparse(m)

    @given(m=matrices())
    @settings(max_examples=30)
    def test_identity_neutral(self, m):
        s, one = oracles.sparse(m), linalg.sparse_identity(len(m))
        assert linalg.mat_mul(s, one) == s
        assert linalg.mat_mul(one, s) == s

    @given(m=matrices())
    @settings(max_examples=30)
    def test_commutator_with_self_vanishes(self, m):
        s = oracles.sparse(m)
        assert linalg.sparse_commutator(s, s) == {}

    @given(m=matrices())
    @settings(max_examples=30)
    def test_mat_vec_matches_mat_mul(self, m):
        """a . v from the columns of a is the product of a with v as a
        one-column matrix, in Fractions."""
        s = oracles.sparse(m)
        v = {j: row[0] for j, row in enumerate(m) if row[0]}
        want = {i: row[0] for i, row in linalg.mat_mul(
            s, {j: {0: x} for j, x in v.items()}).items()}
        got = linalg.mat_vec(linalg.sparse_transpose(s), v)
        assert got == want
        assert all(isinstance(x, Fraction) for x in got.values())


class TestKernelAndInverse:
    def test_kernel_of_rank_one(self):
        """A rank-one system with an empty row, over the non-contiguous
        column keys 2, 5, 9."""
        rows = [{2: Q(1), 5: Q(2), 9: Q(3)}, {2: Q(2), 5: Q(4), 9: Q(6)}, {}]
        kern = linalg.kernel_basis(rows, [2, 5, 9])
        assert kern == [{2: -2, 5: 1}, {2: -3, 9: 1}]
        for v in kern:
            assert all(not _dot(row, v) for row in rows)

    def test_kernel_of_no_rows(self):
        """With no rows (or only empty ones) every column is free."""
        assert linalg.kernel_basis([], [1, 4]) == [{1: 1}, {4: 1}]
        assert linalg.kernel_basis([{}, {}], [3]) == [{3: 1}]

    @given(m=matrices())
    @settings(max_examples=30)
    def test_kernel_vectors_annihilate(self, m):
        rows = rows_of(m)
        kern = linalg.kernel_basis(rows, range(len(m)))
        for v in kern:
            assert all(not _dot(row, v) for row in rows)
        # rank-nullity against rref
        assert len(linalg.rref(rows)) == len(m) - len(kern)

    def test_invert_round_trip(self):
        """Each row over its own pivot entry; the lcm of the pivots is the
        least common denominator of the inverse."""
        for m, det in (([[Q(2), Q(1)], [Q(7), Q(4)]], 1),
                       ([[Q(2), Q(1)], [Q(7), Q(5)]], 3)):
            inv = linalg.invert(rows_of(m), 2)
            assert math.lcm(*(a for _, a in inv)) == det
            over = {r: {j: Q(x, a) for j, x in row.items()}
                    for r, (row, a) in enumerate(inv)}
            assert linalg.mat_mul(oracles.sparse(m), over) == \
                linalg.sparse_identity(2)

    def test_invert_singular_raises(self):
        with pytest.raises(ValueError, match="singular"):
            linalg.invert([{0: Q(1), 1: Q(2)}, {0: Q(2), 1: Q(4)}], 2)
        with pytest.raises(ValueError, match="singular"):
            linalg.invert([{0: 1}, {}], 2)


def _dot(row, v):
    """The dot product of the sparse vectors row and v."""
    return sum(x * v[j] for j, x in row.items() if j in v)


def rectangular(max_rows=5, max_cols=5):
    return st.tuples(st.integers(1, max_rows), st.integers(1, max_cols)).flatmap(
        lambda mn: st.lists(
            st.lists(st.sampled_from([Q(0), Q(0), Q(1), Q(-2), Q(1, 3)]),
                     min_size=mn[1], max_size=mn[1]),
            min_size=mn[0], max_size=mn[0]))


class TestRowSpace:
    def test_incremental_rank(self):
        rs = linalg.RowSpace()
        assert rs.add({0: Q(1), 2: Q(1)})
        assert not rs.add({0: Q(2), 2: Q(2)})   # dependent
        assert not rs.add({})                    # empty
        assert rs.add({1: Q(1)})
        assert rs.dim == 2

    @given(m=matrices())
    @settings(max_examples=30)
    def test_matches_batch_rank(self, m):
        """The rank of m is n minus the nullity of its transpose, found by
        a second elimination of a different matrix."""
        rs = linalg.RowSpace()
        for row in rows_of(m):
            rs.add(row)
        assert rs.dim == len(m) - len(linalg.kernel_basis(
            rows_of(oracles.transpose(m)), range(len(m))))

    @given(m=rectangular())
    @settings(max_examples=60)
    def test_matches_rref(self, m):
        """rref is the primitive rows of the row space, sorted by pivot."""
        rs = linalg.RowSpace()
        for row in rows_of(m):
            rs.add(row)
        red = linalg.rref(rows_of(m))
        assert rs.dim == len(red)
        assert list(red) == sorted(rs.pivots)
        assert red == rs.primitive


def int_matrices(n_min=1, n_max=4):
    return st.integers(n_min, n_max).flatmap(
        lambda n: st.lists(st.lists(st.integers(-5, 5), min_size=n,
                                    max_size=n),
                           min_size=n, max_size=n))


def _no_float(x):
    if isinstance(x, dict):
        return all(map(_no_float, x.values()))
    if isinstance(x, (list, tuple)):
        return all(map(_no_float, x))
    return type(x) in (int, Fraction)


class TestIntegerInput:
    """Integer entries are eliminated exactly: rref, kernel_basis and invert
    hand out ints, RowSpace.rows Fractions, never a float, and the results
    equal those of the Fraction input."""

    def test_rref_and_row_space_of_one_row(self):
        red = linalg.rref([{0: 2, 1: 1}])
        assert red == {0: {0: 2, 1: 1}} and _ints(red)
        rs = linalg.RowSpace()
        assert rs.add({0: 2, 1: 1})
        assert rs.rows == {0: {0: 1, 1: Q(1, 2)}} and _no_float(rs.rows)

    @given(m=int_matrices())
    @settings(max_examples=40)
    def test_no_float_anywhere(self, m):
        n = len(m)
        rows, frows = rows_of(m), rows_of([[Q(x) for x in row] for row in m])
        red = linalg.rref(rows)
        kern = linalg.kernel_basis(rows, range(n))
        assert red == linalg.rref(frows) and _ints(red)
        assert kern == linalg.kernel_basis(frows, range(n)) and _ints(kern)
        rs, frs = linalg.RowSpace(), linalg.RowSpace()
        for row, frow in zip(rows, frows):
            assert rs.add(row) == frs.add(frow)
        assert rs.rows == frs.rows and _no_float(rs.rows)
        if not kern:
            inv = linalg.invert(rows, n)
            assert inv == linalg.invert(frows, n) and _ints(inv)


ENTRIES = (0, 0, 1, -2, 3, Q(1, 3), Q(-5, 2))


@st.composite
def exact_matrices(draw, max_rows=5, max_cols=5, square=False):
    """Rectangular int or Fraction matrices, often rank-deficient, with
    zero rows among them: each row is an integer combination of k <= rows
    random rows.  An int matrix has int entries only; a Fraction one
    Fraction entries, 1/3 among them."""
    m = draw(st.integers(1, max_rows))
    n = m if square else draw(st.integers(1, max_cols))
    k = draw(st.integers(1, m))
    ints = draw(st.booleans())
    entries = [x for x in ENTRIES if type(x) is int] if ints else ENTRIES
    base = draw(st.lists(st.lists(st.sampled_from(entries), min_size=n,
                                  max_size=n), min_size=k, max_size=k))
    coeffs = draw(st.lists(st.lists(st.integers(-2, 2), min_size=k,
                                    max_size=k), min_size=m, max_size=m))
    rows = [[sum(c * b[j] for c, b in zip(cs, base)) for j in range(n)]
            for cs in coeffs]
    return rows if ints else [[Q(x) for x in row] for row in rows]


@st.composite
def keyed_matrices(draw):
    """(m, keys): an ``exact_matrices`` m and sorted, distinct, often
    non-contiguous column keys for it, negative ones among them."""
    m = draw(exact_matrices())
    keys = draw(st.lists(st.integers(-6, 30), min_size=len(m[0]),
                         max_size=len(m[0]), unique=True))
    return m, sorted(keys)


def _ints(x):
    """True if x (nested lists, tuples and dicts) holds ints only."""
    if isinstance(x, dict):
        return all(map(_ints, x.values()))
    if isinstance(x, (list, tuple)):
        return all(map(_ints, x))
    return type(x) is int


class TestAgainstOracle:
    """The fraction-free elimination on sparse rows equals Gauss-Jordan in
    Fractions on the dense matrix (``oracles.rref`` and the kernel and
    inverse read from it) exactly, up to the integer scale each result is
    handed out at, on int and Fraction matrices with zero and empty rows and
    any sorted column keys: every result is in ints."""

    @given(mk=keyed_matrices())
    @settings(max_examples=100)
    def test_rref(self, mk):
        """Each row, keyed by its pivot in pivot order, is the oracle's row
        times its pivot entry, a primitive integer row positive at its
        pivot."""
        m, keys = mk
        red = linalg.rref(rows_of(m, keys))
        want, want_pivots = oracles.rref(m)
        assert list(red) == [keys[p] for p in want_pivots] and _ints(red)
        for (p, row), x in zip(red.items(), want):
            assert min(row) == p and row[p] > 0
            assert math.gcd(*row.values()) == 1
            assert row == {k: row[p] * y for k, y in _keyed(x, keys).items()}

    @given(mk=keyed_matrices())
    @settings(max_examples=100)
    def test_kernel_basis(self, mk):
        """Each vector is the oracle's times the lcm of its denominators,
        with its keys in column order."""
        m, keys = mk
        kern = linalg.kernel_basis(rows_of(m, keys), keys)
        want = oracles.kernel_basis(m, len(keys))
        assert len(kern) == len(want) and _ints(kern)
        for v, x in zip(kern, want):
            lcm = math.lcm(*(Q(y).denominator for y in x))
            assert v == _keyed([lcm * y for y in x], keys)
            assert list(v) == sorted(v)

    @given(m=exact_matrices(square=True))
    @settings(max_examples=100)
    def test_invert(self, m):
        """Each integer row over its pivot entry is the oracle's row of the
        inverse, and no smaller denominator would do; a singular matrix is
        refused."""
        n = len(m)
        try:
            want = oracles.invert(m)
        except ValueError:
            with pytest.raises(ValueError, match="singular"):
                linalg.invert(rows_of(m), n)
            return
        inv = linalg.invert(rows_of(m), n)
        assert len(inv) == n and _ints(inv)
        for (row, a), x in zip(inv, want):
            assert type(a) is int and a > 0
            assert {j: Q(y, a) for j, y in row.items()} == _keyed(x)
            assert a == math.lcm(*(Q(y).denominator for y in x))

    @given(mk=keyed_matrices())
    @settings(max_examples=100)
    def test_row_space_rows_are_primitive(self, mk):
        """RowSpace reads as the oracle's rref, and each stored row is an
        integer row, positive at its pivot, 0 at every other pivot, with
        content gcd 1."""
        m, keys = mk
        rs = linalg.RowSpace()
        for row in rows_of(m, keys):
            rs.add(row)
        red, pivots = oracles.rref(m)
        assert sorted(rs.pivots) == [keys[p] for p in pivots]
        assert rs.dim == len(pivots)
        assert [rs.rows[p] for p in sorted(rs.rows)] == \
            [_keyed(x, keys) for x in red[:len(pivots)]]
        assert _no_float(rs.rows)
        for p, row in rs.primitive.items():
            assert all(type(x) is int and x for x in row.values())
            assert min(row) == p and row[p] > 0
            assert math.gcd(*row.values()) == 1
            assert not any(q in row for q in rs.pivots if q != p)


class TestSparse:
    """The sparse products, sums and commutator against the tests' dense
    arithmetic in Fractions (``oracles``)."""

    @given(m=matrices())
    @settings(max_examples=30)
    def test_round_trip_drops_zeros(self, m):
        """The tests' ``oracles.sparse`` and ``oracles.dense`` are inverse
        to each other, and a sparse matrix holds no zero entry."""
        s = oracles.sparse(m)
        assert all(x for row in s.values() for x in row.values())
        assert oracles.dense(s, len(m)) == m

    @given(m=matrices(3, 3), n=matrices(3, 3))
    @settings(max_examples=30)
    def test_mul_matches_dense(self, m, n):
        assert linalg.mat_mul(oracles.sparse(m), oracles.sparse(n)) == \
            oracles.sparse(oracles.mat_mul(m, n))

    @given(m=matrices())
    @settings(max_examples=30)
    def test_mat_vec_matches_dense(self, m):
        v = [row[-1] for row in m]
        cols = linalg.sparse_transpose(oracles.sparse(m))
        assert linalg.mat_vec(cols, _keyed(v)) == _keyed(oracles.mat_vec(m, v))

    @given(m=matrices(3, 3), n=matrices(3, 3),
           c=st.fractions(min_value=-3, max_value=3, max_denominator=3))
    @settings(max_examples=30)
    def test_lincomb_matches_dense(self, m, n, c):
        """The sum of scaled matrices, with cancelled entries dropped."""
        want = oracles.mat_sub(oracles.mat_scale(m, c), n)
        got = linalg.sparse_lincomb(((c, oracles.sparse(m)),
                                     (-1, oracles.sparse(n))))
        assert got == oracles.sparse(want)
        assert linalg.sparse_lincomb(((1, oracles.sparse(m)),
                                      (-1, oracles.sparse(m)))) == {}

    @given(m=matrices(3, 3), n=matrices(3, 3))
    @settings(max_examples=30)
    def test_commutator_matches_dense(self, m, n):
        assert linalg.sparse_commutator(oracles.sparse(m),
                                        oracles.sparse(n)) == \
            oracles.sparse(oracles.commutator(m, n))

    def test_mat_scale_keeps_zero_entries(self):
        """The dense reference scaling keeps each zero entry as it is."""
        zero = Q(0)
        scaled = oracles.mat_scale([[zero, Q(2)]], Q(3, 2))
        assert scaled == [[0, Q(3)]] and scaled[0][0] is zero


class TestProductsEqual:
    """``products_equal`` against the dense oracle's two products."""

    @given(a=matrices(3, 3), b=matrices(3, 3),
           bump=st.none() | st.tuples(st.integers(0, 2), st.integers(0, 2)))
    @settings(max_examples=60)
    def test_matches_dense(self, a, b, bump):
        """a b == (a b) I, where the entries of row i of the difference
        cancel, and, with one entry of I bumped, the oracle's verdict."""
        c, d = oracles.mat_mul(a, b), oracles.identity(3)
        if bump is not None:
            d = oracles.dense(oracles.bump(oracles.sparse(d), *bump), 3)
        want = oracles.mat_mul(a, b) == oracles.mat_mul(c, d)
        assert want or bump is not None
        got = linalg.products_equal(*map(oracles.sparse, (a, b, c, d)))
        assert got == want

    @given(a=matrices(3, 3), b=matrices(3, 3), c=matrices(3, 3),
           d=matrices(3, 3))
    @settings(max_examples=25)
    def test_matches_dense_on_any_four(self, a, b, c, d):
        assert linalg.products_equal(*map(oracles.sparse, (a, b, c, d))) == \
            (oracles.mat_mul(a, b) == oracles.mat_mul(c, d))

    def test_rows_on_one_side_only(self):
        """A row that only a or only c holds is compared with 0; the entries
        of a row of a b may cancel to 0."""
        one = {0: {0: 1}}
        assert not linalg.products_equal({}, one, one, one)
        assert not linalg.products_equal(one, one, {}, one)
        assert linalg.products_equal({1: {0: 1}}, {}, {}, one)
        assert linalg.products_equal({}, one, {2: {1: 3}}, one)
        cancel = {0: {0: 1, 1: 1}}, {0: {0: 2}, 1: {0: -2}}
        assert linalg.products_equal(*cancel, {}, {})
        assert not linalg.products_equal(*cancel, one, one)
