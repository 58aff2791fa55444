from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistr.scalars import (BracketProduct, DegenerateParameterError,
                            PoleError, QSample, RatFun, bracket, format_scalar,
                            poly_divmod, poly_gcd, poly_mul)

import oracles
from oracles import qfactorial, qint

Q = Fraction

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
nonzero_rationals = rationals.filter(bool)
ws = rationals.filter(lambda w: w not in (0, 1, -1))


def ratfun(depth=2):
    coeffs = st.lists(st.integers(-5, 5), min_size=0, max_size=4)
    return st.builds(
        lambda num, den: RatFun([Q(c) for c in num], [Q(c) for c in den]),
        coeffs, coeffs.filter(any))


class TestQSample:
    def test_q_is_w4(self):
        assert QSample(Q(3, 2)).q == Q(81, 16)

    @pytest.mark.parametrize("w", [0, 1, -1])
    def test_degenerate_rejected(self, w):
        with pytest.raises(DegenerateParameterError):
            QSample(Q(w))

    def test_quarter_powers_are_rational(self):
        qs = QSample(Q(2))
        assert qs.q_pow(Q(1, 4)) == 2
        assert qs.q_pow(Q(1, 2)) == 4
        assert qs.q_pow(Q(-3, 2)) == Q(1, 64)

    def test_non_quarter_power_rejected(self):
        with pytest.raises(ValueError):
            QSample(Q(2)).q_pow(Q(1, 3))


class TestQInt:
    def test_small_values(self):
        assert qint(1, Q(3)) == 1
        assert qint(2, Q(3)) == Q(3) + Q(1, 3)
        assert qint(0, Q(3)) == 0

    def test_factorial(self):
        q = Q(2)
        assert qfactorial(3, q) == qint(1, q) * qint(2, q) * qint(3, q)

    @given(k=st.integers(1, 6), q=ws)
    def test_symmetric_under_q_inverse(self, k, q):
        assert qint(k, q) == qint(k, 1 / q)


class TestBracket:
    @given(a=st.integers(-6, 6), sign=st.sampled_from([1, -1]), w=ws,
           u=nonzero_rationals)
    @settings(max_examples=60)
    def test_reciprocal_inversion(self, a, sign, w, u):
        """<a>_s(1/u) = 1 / <a>_s(u), the identity behind unitarity."""
        qs = QSample(w)
        try:
            forward = bracket(a, sign, u, qs)
            backward = bracket(a, sign, 1 / u, qs)
        except PoleError:
            return
        if forward:
            assert backward == 1 / forward

    @given(a=st.integers(-6, 6), sign=st.sampled_from([1, -1]), w=ws)
    def test_equals_one_at_u_one(self, a, sign, w):
        qs = QSample(w)
        try:
            assert bracket(a, sign, Q(1), qs) == 1
        except PoleError:
            pass

    @given(a=st.integers(-6, 6), sign=st.sampled_from([1, -1]), w=ws)
    def test_value_at_zero(self, a, sign, w):
        """<a>_s(0) = s * q**-a: the source of the parity sign at u -> 0."""
        qs = QSample(w)
        assert bracket(a, sign, Q(0), qs) == sign * qs.q_pow(-a)

    def test_pole_raises(self):
        qs = QSample(Q(2))
        with pytest.raises(PoleError):
            bracket(1, -1, qs.q, qs)  # u = q**1 with sign -1

    @pytest.mark.parametrize("w", [Q(3, 2), Q(-3, 2), Q(2, 3), Q(-5, 3)])
    def test_symbolic_equals_field_arithmetic(self, w):
        """In Q(u) the one-gcd quotient equals (1 + s*u*q**a)/(u + s*q**a)
        taken with RatFun's field operations, u = n/d of several shapes;
        a = 0 makes numerator and denominator share a factor."""
        qs = QSample(w)
        var = RatFun.var()
        for u in (var, 1 / var, (var + 1) / (var - 2)):
            for a in (Q(0), Q(1, 2), Q(-3, 4), Q(2), Q(-5, 2)):
                for sign in (1, -1):
                    qa = qs.q_pow(a)
                    want = (1 + sign * u * qa) / (u + sign * qa)
                    got = bracket(a, sign, u, qs)
                    assert (got.num, got.den) == (want.num, want.den)

    @pytest.mark.parametrize("a,sign", [(Q(2), 1), (Q(-1, 2), -1), (Q(0), 1)])
    def test_symbolic_pole_raises(self, a, sign):
        """The constant u = -s*q**a of Q(u) is the pole of <a>_s."""
        qs = QSample(Q(3, 2))
        with pytest.raises(PoleError):
            bracket(a, sign, RatFun.const(-sign * qs.q_pow(a)), qs)

    def test_symbolic_matches_numeric(self):
        qs = QSample(Q(3, 2))
        sym = bracket(2, -1, RatFun.var(), qs)
        for u in (Q(2, 7), Q(-3), Q(5, 4)):
            assert oracles.subs(sym, u) == bracket(2, -1, u, qs)


class TestBracketProduct:
    B = staticmethod(BracketProduct.bracket)

    def test_negative_argument_is_inverse(self):
        assert self.B(-3, 1).exps == {(Q(3), 1): -1}
        assert self.B(-3, 1) * self.B(3, 1) == BracketProduct()
        assert (self.B(Q(-1, 2), -1) * self.B(2, 1) * self.B(Q(1, 2), -1)
                == self.B(2, 1))

    def test_zero_argument_is_a_sign(self):
        assert self.B(0, 1) == BracketProduct(1)
        assert self.B(0, -1) == BracketProduct(-1)
        assert self.B(0, -1) * self.B(0, -1) == BracketProduct()
        qs = QSample(Q(3, 2))
        for sign in (1, -1):
            assert self.B(0, sign).evaluate(RatFun.var(), qs) == sign
            assert self.B(0, sign).evaluate(Q(2, 7), qs) == sign

    def test_cancellation_to_the_empty_vector(self):
        p = self.B(1, 1) * self.B(Q(3, 4), -1) * self.B(2, 1)
        q = self.B(-2, 1) * self.B(Q(-3, 4), -1) * self.B(-1, 1)
        assert (p * q).exps == {} and (p * q).sign == 1
        assert p * q == BracketProduct()
        assert p != self.B(1, 1) and p != BracketProduct(-1, p.exps)

    # half- and quarter-integer arguments, as d2 shifts produce
    PRODUCTS = [
        (1, {(Q(1), 1): 1}),
        (-1, {(Q(1, 2), -1): 2, (Q(3, 2), 1): -1}),
        (1, {(Q(1, 4), 1): 1, (Q(3, 4), -1): -2, (Q(5, 2), -1): 1}),
        (-1, {(Q(2), 1): -3, (Q(2), -1): 1, (Q(7, 4), 1): 2}),
        (1, {(Q(1, 2), 1): 1, (Q(1, 2), -1): 1, (Q(1), 1): -1,
             (Q(1), -1): -1, (Q(9, 4), 1): 1}),
        # a fifth power of q**(19/4) = w**19: large integer coefficients
        (-1, {(Q(19, 4), -1): 5, (Q(3, 2), 1): -1}),
    ]

    @pytest.mark.parametrize("w", [Q(3, 2), Q(-3, 2), Q(2, 3), Q(-5, 3)])
    @pytest.mark.parametrize("sign,exps", PRODUCTS)
    def test_expansion_is_the_reduced_product(self, w, sign, exps):
        """The gcd-free expansion equals the product of brackets reduced
        by RatFun's gcd: the factors are pairwise coprime."""
        qs = QSample(w)
        u = RatFun.var()
        want = RatFun.const(sign)
        for (a, s), k in exps.items():
            want = want * bracket(a, s, u, qs) ** k
        got = BracketProduct(sign, dict(exps)).evaluate(u, qs)
        assert (got.num, got.den) == (want.num, want.den)
        assert poly_gcd(got.num, got.den) == (Q(1),)
        for x in (Q(2, 7), Q(-4, 5)):
            assert BracketProduct(sign, dict(exps)).evaluate(x, qs) == \
                oracles.subs(want, x)

    def test_memo_is_shared(self):
        qs = QSample(Q(3, 2))
        memo = {}
        self.B(2, 1).evaluate(Q(1, 3), qs, memo)
        (self.B(2, 1) * self.B(-1, -1)).evaluate(Q(1, 3), qs, memo)
        assert set(memo) == {(Q(2), 1), (Q(-1), -1)}

    def test_pole_only_where_a_factor_remains(self):
        qs = QSample(Q(2))
        with pytest.raises(PoleError):           # u + q = 0
            self.B(1, 1).evaluate(-qs.q, qs)
        with pytest.raises(PoleError):           # 1 + u*q = 0
            self.B(-1, 1).evaluate(-1 / qs.q, qs)
        assert self.B(-1, 1).evaluate(-qs.q, qs) == 0
        # the factor cancelled to exponent zero is not evaluated
        p = self.B(1, 1) * self.B(2, -1) * self.B(-1, 1)
        assert p.evaluate(-qs.q, qs) == bracket(2, -1, -qs.q, qs)


class TestRatFun:
    @given(a=ratfun(), b=ratfun(), c=ratfun())
    @settings(max_examples=40)
    def test_field_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c

    @given(a=ratfun().filter(bool))
    @settings(max_examples=40)
    def test_multiplicative_inverse(self, a):
        assert a * (1 / a) == RatFun.const(1)

    @given(a=ratfun(), x=rationals)
    @settings(max_examples=40)
    def test_subs_is_a_homomorphism(self, a, x):
        u = RatFun.var()
        try:
            lhs = oracles.subs((a + u) * a, x)
            rhs = (oracles.subs(a, x) + x) * oracles.subs(a, x)
        except ZeroDivisionError:
            return
        assert lhs == rhs

    def test_reduction_to_lowest_terms(self):
        u = RatFun.var()
        f = (u * u - 1) / (u - 1)
        assert f == u + 1

    def test_pow(self):
        u = RatFun.var()
        assert u**3 == u * u * u
        assert (u**-2) * u * u == RatFun.const(1)

    @pytest.mark.parametrize("c", [Q(3), Q(-5, 4), Q(0), 7],
                             ids=["3", "-5_4", "0", "int-7"])
    def test_constant_hashes_as_its_fraction(self, c):
        """A constant equals its Fraction or int, so dict and set lookups
        find it under either."""
        r = RatFun.const(c)
        assert r == c and hash(r) == hash(c)
        assert r in {Q(c)} and {Q(c): "x"}[r] == "x" and c in {r}

    @given(a=ratfun(), b=ratfun())
    @settings(max_examples=40)
    def test_equal_values_hash_equal(self, a, b):
        for x, y in ((a, b), (a * b, b * a), (a + b - b, a)):
            if x == y:
                assert hash(x) == hash(y)


class TestPolynomials:
    @given(p=st.lists(st.integers(-4, 4), max_size=4),
           q=st.lists(st.integers(-4, 4), max_size=4).filter(any))
    @settings(max_examples=40)
    def test_divmod_identity(self, p, q):
        from twistr.scalars import _trim, poly_add
        p = tuple(Q(c) for c in p)
        q = tuple(Q(c) for c in q)
        quo, rem = poly_divmod(p, q)
        assert poly_add(poly_mul(quo, q), rem) == _trim(p)
        assert len(rem) < len(_trim(q)) or not rem

    def test_gcd_monic(self):
        p = (Q(-2), Q(0), Q(2))        # 2u^2 - 2 = 2(u-1)(u+1)
        q = (Q(3), Q(3))               # 3(u + 1)
        assert poly_gcd(p, q) == (Q(1), Q(1))


class TestFormatting:
    def test_rational(self):
        assert format_scalar(Q(3, 7)) == "3/7"
        assert format_scalar(Q(-2)) == "-2"

    def test_ratfun_integer_coefficients(self):
        u = RatFun.var()
        f = (1 + Q(1, 2) * u) / (u + Q(1, 2))
        assert format_scalar(f) == "(2 + u)/(1 + 2*u)"
