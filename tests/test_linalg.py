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


class TestBasics:
    @given(m=matrices())
    @settings(max_examples=30)
    def test_transpose_involution(self, m):
        assert linalg.transpose(linalg.transpose(m)) == m

    @given(m=matrices())
    @settings(max_examples=30)
    def test_identity_neutral(self, m):
        n = len(m)
        assert linalg.mat_mul(m, oracles.identity(n)) == m
        assert linalg.mat_mul(oracles.identity(n), m) == m

    @given(m=matrices())
    @settings(max_examples=30)
    def test_commutator_with_self_vanishes(self, m):
        assert oracles.is_zero(oracles.commutator(m, m))

    @given(m=matrices())
    @settings(max_examples=30)
    def test_mat_vec_matches_mat_mul(self, m):
        v = [row[0] for row in m]
        want = [row[0] for row in linalg.mat_mul(m, [[x] for x in v])]
        got = linalg.mat_vec(m, v)
        assert got == want
        assert all(isinstance(x, Fraction) for x in got)


class TestKernelAndInverse:
    def test_kernel_of_rank_one(self):
        m = [[Q(1), Q(2), Q(3)], [Q(2), Q(4), Q(6)], [Q(0), Q(0), Q(0)]]
        kern = linalg.kernel_basis(m, ncols=3)
        assert len(kern) == 2
        for v in kern:
            assert all(not x for x in linalg.mat_vec(m, v))

    @given(m=matrices())
    @settings(max_examples=30)
    def test_kernel_vectors_annihilate(self, m):
        kern = linalg.kernel_basis(m, ncols=len(m))
        for v in kern:
            assert all(not x for x in linalg.mat_vec(m, v))
        # rank-nullity against rref
        rank = len(m) - len(kern)
        assert 0 <= rank <= len(m)

    def test_invert_round_trip(self):
        for m, det in (([[Q(2), Q(1)], [Q(7), Q(4)]], 1),
                       ([[Q(2), Q(1)], [Q(7), Q(5)]], 3)):
            inv, d = linalg.invert(m)
            assert d == det
            assert linalg.mat_mul(m, inv) == linalg.mat_scale(
                oracles.identity(2), d)

    def test_invert_singular_raises(self):
        with pytest.raises(ValueError, match="singular"):
            linalg.invert([[Q(1), Q(2)], [Q(2), Q(4)]])


def rectangular(max_rows=5, max_cols=5):
    return st.tuples(st.integers(1, max_rows), st.integers(1, max_cols)).flatmap(
        lambda mn: st.lists(
            st.lists(st.sampled_from([Q(0), Q(0), Q(1), Q(-2), Q(1, 3)]),
                     min_size=mn[1], max_size=mn[1]),
            min_size=mn[0], max_size=mn[0]))


class TestRowSpace:
    def test_incremental_rank(self):
        rs = linalg.RowSpace(3)
        assert rs.add({0: Q(1), 2: Q(1)})
        assert not rs.add({0: Q(2), 2: Q(2)})   # dependent
        assert rs.add({1: Q(1)})
        assert rs.dim == 2

    @given(m=matrices())
    @settings(max_examples=30)
    def test_matches_batch_rank(self, m):
        rs = linalg.RowSpace(len(m))
        for row in m:
            rs.add(linalg.sparse_vector(row))
        assert rs.dim == len(m) - len(linalg.kernel_basis(
            linalg.transpose(m), ncols=len(m)))

    @given(m=rectangular())
    @settings(max_examples=60)
    def test_matches_rref(self, m):
        """The sparse rows, sorted by pivot, are the nonzero rows of rref."""
        ncols = len(m[0])
        rs = linalg.RowSpace(ncols)
        for row in m:
            rs.add(linalg.sparse_vector(row))
        red, pivots = linalg.rref(m)
        assert rs.dim == len(pivots)
        assert sorted(rs.pivots) == pivots
        assert [[rs.primitive[p].get(j, 0) for j in range(ncols)]
                for p in pivots] == red[:len(pivots)]
        assert not any(map(any, red[len(pivots):]))


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
        red, pivots = linalg.rref([[2, 1]])
        assert (red, pivots) == ([[2, 1]], [0])
        assert _no_float(red)
        rs = linalg.RowSpace(2)
        assert rs.add({0: 2, 1: 1})
        assert rs.rows == {0: {0: 1, 1: Q(1, 2)}} and _no_float(rs.rows)

    @given(m=int_matrices())
    @settings(max_examples=40)
    def test_no_float_anywhere(self, m):
        fm = [[Q(x) for x in row] for row in m]
        red = linalg.rref(m)
        kern = linalg.kernel_basis(m, ncols=len(m))
        assert red == linalg.rref(fm) and _no_float(red)
        assert kern == linalg.kernel_basis(fm, ncols=len(m))
        assert _no_float(kern)
        rs, frs = linalg.RowSpace(len(m)), linalg.RowSpace(len(m))
        for row, frow in zip(m, fm):
            assert rs.add(linalg.sparse_vector(row)) == \
                frs.add(linalg.sparse_vector(frow))
        assert rs.rows == frs.rows and _no_float(rs.rows)
        if not kern:
            inv = linalg.invert(m)
            assert inv == linalg.invert(fm) and _no_float(inv)


ENTRIES = (0, 0, 1, -2, 3, Q(1, 3), Q(-5, 2))


@st.composite
def exact_matrices(draw, max_rows=5, max_cols=5, square=False):
    """Rectangular int or Fraction matrices, often rank-deficient: each row
    is an integer combination of k <= rows random rows.  An int matrix has
    int entries only; a Fraction one Fraction entries, 1/3 among them."""
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


def _ints(x):
    """True if x (nested lists and tuples) holds ints only."""
    if isinstance(x, (list, tuple)):
        return all(map(_ints, x))
    return type(x) is int


class TestAgainstOracle:
    """The fraction-free elimination equals Gauss-Jordan in Fractions
    (``oracles.rref`` and the kernel and inverse read from it) exactly, up
    to the integer scale each result is handed out at, on int and Fraction
    matrices: every result is in ints."""

    @given(m=exact_matrices())
    @settings(max_examples=100)
    def test_rref(self, m):
        """Each row is the oracle's row times its pivot entry, a primitive
        integer row positive at its pivot."""
        red, pivots = linalg.rref(m)
        want, want_pivots = oracles.rref(m)
        assert pivots == want_pivots and _ints(red)
        tops = [red[r][p] for r, p in enumerate(pivots)]
        assert all(a > 0 for a in tops)
        assert all(math.gcd(*red[r]) == 1 for r in range(len(pivots)))
        assert red == [[a * x for x in row] for a, row in zip(tops, want)] + \
            want[len(pivots):]

    @given(m=exact_matrices())
    @settings(max_examples=100)
    def test_kernel_basis(self, m):
        """Each vector is the oracle's times the lcm of its denominators."""
        ncols = len(m[0])
        kern = linalg.kernel_basis(m, ncols=ncols)
        want = oracles.kernel_basis(m, ncols)
        assert len(kern) == len(want) and _ints(kern)
        for v, x in zip(kern, want):
            lcm = math.lcm(*(Q(y).denominator for y in x))
            assert v == [lcm * y for y in x]

    @given(m=exact_matrices(square=True))
    @settings(max_examples=100)
    def test_invert(self, m):
        """The integer rows over their denominator are the oracle's
        inverse, and no smaller denominator would do."""
        try:
            want = oracles.invert(m)
        except ValueError:
            with pytest.raises(ValueError, match="singular"):
                linalg.invert(m)
            return
        inv, d = linalg.invert(m)
        assert _ints(inv) and type(d) is int and d > 0
        assert [[Q(x, d) for x in row] for row in inv] == want
        assert d == math.lcm(*(Q(x).denominator for row in want
                               for x in row))

    @given(m=exact_matrices())
    @settings(max_examples=100)
    def test_row_space_rows_are_primitive(self, m):
        """RowSpace reads as the oracle's rref, and each stored row is an
        integer row, positive at its pivot, 0 at every other pivot, with
        content gcd 1."""
        ncols = len(m[0])
        rs = linalg.RowSpace(ncols)
        for row in m:
            rs.add(linalg.sparse_vector(row))
        red, pivots = oracles.rref(m)
        assert sorted(rs.pivots) == pivots and rs.dim == len(pivots)
        assert [[rs.rows[p].get(j, 0) for j in range(ncols)]
                for p in sorted(rs.rows)] == red[:len(pivots)]
        assert _no_float(rs.rows)
        for p, row in rs.primitive.items():
            assert all(type(x) is int and x for x in row.values())
            assert min(row) == p and row[p] > 0
            assert math.gcd(*row.values()) == 1
            assert not any(q in row for q in rs.pivots if q != p)


class TestSparse:
    @given(m=matrices())
    @settings(max_examples=30)
    def test_round_trip_drops_zeros(self, m):
        s = linalg.sparse(m)
        assert all(x for row in s.values() for x in row.values())
        assert [[s.get(i, {}).get(j, 0) for j in range(len(m))]
                for i in range(len(m))] == m

    @given(m=matrices(3, 3), n=matrices(3, 3))
    @settings(max_examples=30)
    def test_mul_matches_dense(self, m, n):
        assert linalg.sparse_mul(linalg.sparse(m), linalg.sparse(n)) == \
            linalg.sparse(linalg.mat_mul(m, n))

    @given(m=matrices())
    @settings(max_examples=30)
    def test_mat_vec_matches_dense(self, m):
        v = [row[-1] for row in m]
        cols = linalg.sparse_transpose(linalg.sparse(m))
        assert linalg.sparse_mat_vec(cols, linalg.sparse_vector(v)) \
            == linalg.sparse_vector(linalg.mat_vec(m, v))

    @given(m=matrices(3, 3), n=matrices(3, 3),
           c=st.fractions(min_value=-3, max_value=3, max_denominator=3))
    @settings(max_examples=30)
    def test_lincomb_matches_dense(self, m, n, c):
        """The sum of scaled matrices, with cancelled entries dropped."""
        want = linalg.mat_sub(linalg.mat_scale(m, c), n)
        got = linalg.sparse_lincomb(((c, linalg.sparse(m)), (-1, linalg.sparse(n))))
        assert got == linalg.sparse(want)
        assert linalg.sparse_lincomb(((1, linalg.sparse(m)),
                                      (-1, linalg.sparse(m)))) == {}

    @given(m=matrices(3, 3), n=matrices(3, 3))
    @settings(max_examples=30)
    def test_commutator_matches_dense(self, m, n):
        assert linalg.sparse_commutator(linalg.sparse(m), linalg.sparse(n)) == \
            linalg.sparse(oracles.commutator(m, n))

    def test_mat_scale_keeps_zero_entries(self):
        zero = Q(0)
        scaled = linalg.mat_scale([[zero, Q(2)]], Q(3, 2))
        assert scaled == [[0, Q(3)]] and scaled[0][0] is zero
