from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistr import linalg

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
        assert linalg.mat_mul(m, linalg.identity(n)) == m
        assert linalg.mat_mul(linalg.identity(n), m) == m

    @given(m=matrices())
    @settings(max_examples=30)
    def test_commutator_with_self_vanishes(self, m):
        assert linalg.is_zero(linalg.commutator(m, m))

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
        m = [[Q(2), Q(1)], [Q(7), Q(4)]]
        inv = linalg.invert(m)
        assert linalg.mat_mul(m, inv) == linalg.identity(2)

    def test_invert_singular_raises(self):
        with pytest.raises(Exception):
            linalg.invert([[Q(1), Q(2)], [Q(2), Q(4)]])


class TestRowSpace:
    def test_incremental_rank(self):
        rs = linalg.RowSpace(3)
        assert rs.add([Q(1), Q(0), Q(1)])
        assert not rs.add([Q(2), Q(0), Q(2)])   # dependent
        assert rs.add([Q(0), Q(1), Q(0)])
        assert rs.dim == 2

    @given(m=matrices())
    @settings(max_examples=30)
    def test_matches_batch_rank(self, m):
        rs = linalg.RowSpace(len(m))
        for row in m:
            rs.add(list(row))
        assert rs.dim == len(m) - len(linalg.kernel_basis(
            linalg.transpose(m), ncols=len(m)))
