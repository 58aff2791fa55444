"""Exact scalar arithmetic: rationals, the q-samples q = w**4, the
rational-function field Q(u), the elementary bracket factor and signed
products of brackets.

Everything downstream works over one of two scalar modes:

* numeric mode: plain ``fractions.Fraction`` values, with the deformation
  parameter sampled as q = w**4 for a rational w, and the spectral parameter u
  a rational number as well;
* u-symbolic mode: elements of Q(u) (``RatFun``) with w still a fixed rational.

The w**4 convention keeps every fractional power of q that shows up on short
roots and spinor weight spaces (q**(1/2), q**(1/4)) inside Q.

Spectral eigenvalues are products of brackets <a>_s.  ``BracketProduct``
stores one as a sign times the exponent vector {(a, s): k} over a > 0; it
lives in neither mode, since it is an identity in both q and u, and
``BracketProduct.evaluate`` expands it into the mode of a given u.  The
expansion runs in Python integers: each bracket becomes an integer
numerator and denominator (linear polynomials in Q(u)), the product is
multiplied out with no gcd, and Fractions are built only at the end, in
RatFun's stored form (reduced, with monic denominator), so the result
compares equal to, and prints like, any other RatFun.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

Q = Fraction


class DegenerateParameterError(ValueError):
    """q (or w) hit one of the values 0, 1, -1 where q-arithmetic degenerates."""


class PoleError(ZeroDivisionError):
    """A bracket was evaluated at a pole u = -(sign) * q**a."""

    def __init__(self, a, sign):
        self.a = a
        self.sign = sign
        super().__init__(f"bracket <{a}>_{'+' if sign > 0 else '-'} has a pole here")


@dataclass(frozen=True)
class QSample:
    """A rational sample point for the deformation parameter, q = w**4."""

    w: Fraction

    def __post_init__(self):
        w = Fraction(self.w)
        object.__setattr__(self, "w", w)
        if w in (0, 1, -1):
            raise DegenerateParameterError(f"w = {w} is degenerate")

    @property
    def q(self) -> Fraction:
        return self.w**4

    def q_pow(self, a) -> Fraction:
        """q**a for half/quarter-integer a (any a with 4a integral)."""
        e = Fraction(a) * 4
        if e.denominator != 1:
            raise ValueError(f"q**{a} is not an integer power of w")
        return self.w ** int(e)


def bracket(a, sign: int, u, qs: QSample):
    """The elementary factor <a>_sign = (1 + sign*u*q**a) / (u + sign*q**a).

    ``a`` may be any half-integer (or quarter-integer), ``u`` either a rational
    or a RatFun; the result lives in the same scalar mode as ``u``.  For
    u = n/d in Q(u) it is (d + sign*q**a*n) / (n + sign*q**a*d), built with
    one gcd.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    qa = qs.q_pow(a)
    if isinstance(u, RatFun):
        c = sign * qa
        den = poly_add(u.num, poly_scale(u.den, c))
        if not den:
            raise PoleError(a, sign)
        return RatFun(poly_add(u.den, poly_scale(u.num, c)), den)
    den = u + sign * qa
    if not den:
        raise PoleError(a, sign)
    return (1 + sign * u * qa) / den


class BracketProduct:
    """A signed product of brackets, sign * prod <a>_s ** k over a > 0.

    ``exps`` maps (a, s) to k != 0; the rules <-a>_s = <a>_s ** -1,
    <0>_+ = 1 and <0>_- = -1 bring every bracket to this form.  The factors
    1 + s*u*q**a and u + s*q**a (a > 0) are pairwise distinct irreducibles
    in Q[q**(1/4), u], so two products are equal identically in (q, u) iff
    their signs and exponent vectors are equal; multiplication and equality
    are dict arithmetic.
    """

    __slots__ = ("sign", "exps")

    def __init__(self, sign=1, exps=None):
        self.sign = sign
        self.exps = exps or {}

    @classmethod
    def bracket(cls, a, sign: int):
        """<a>_sign as a product."""
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        a = Fraction(a)
        if a == 0:
            return cls(sign)
        if a < 0:
            return cls(1, {(-a, sign): -1})
        return cls(1, {(a, sign): 1})

    def __mul__(self, other):
        exps = dict(self.exps)
        for key, k in other.exps.items():
            k += exps.get(key, 0)
            if k:
                exps[key] = k
            else:
                del exps[key]
        return BracketProduct(self.sign * other.sign, exps)

    def __eq__(self, other):
        if not isinstance(other, BracketProduct):
            return NotImplemented
        return self.sign == other.sign and self.exps == other.exps

    def __repr__(self):
        return f"BracketProduct({self.sign}, {self.exps})"

    def evaluate(self, u, qs: QSample, memo=None):
        """The product in the scalar mode of u: a RatFun for u in Q(u), a
        Fraction for rational u.

        Each factor is taken from ``bracket`` as <a>_s for k > 0 and as
        <-a>_s = <a>_s ** -1 for k < 0, and kept as an integer pair
        (``_integer_pair``); ``memo`` (a dict shared by calls with the same u
        and qs) keeps each one evaluated and converted once.  At a rational
        u a PoleError is raised exactly when a factor that remains in the
        product has a pole there; a factor whose exponent cancelled to zero
        is not evaluated.

        The factors are multiplied in integers and one Fraction is built per
        result coefficient at the end.  At a rational u, Fraction(n, d) takes
        the one gcd.  In Q(u) the numerator and denominator polynomials are
        multiplied separately with no gcd: at a nondegenerate w the linear
        factors u + s*q**(+-a) are pairwise distinct, so the product is
        already reduced.  Each factor's integer denominator is its monic
        denominator times the factor's scale, so dividing both products by
        the leading coefficient of the denominator gives RatFun's stored
        form, the reduced fraction with monic denominator.
        """
        if memo is None:
            memo = {}
        factors = []
        for (a, s), k in sorted(self.exps.items()):
            key = (a if k > 0 else -a, s)
            if key not in memo:
                memo[key] = _integer_pair(bracket(key[0], s, u, qs))
            factors.append((memo[key], abs(k)))
        if not isinstance(u, RatFun):
            num, den = self.sign, 1
            for (n, d), k in factors:
                num *= n ** k
                den *= d ** k
            return Q(num, den)
        num, den = (self.sign,), (1,)
        for (n, d), k in factors:
            for _ in range(k):
                num = poly_mul(num, n)
                den = poly_mul(den, d)
        lead = den[-1]
        # lists, here and in _integer_pair, not tuple(generator): the
        # tuples' resizing left a higher allocator high-water mark on the
        # graph-symbolic workload (about 0.35 MB of peak RSS)
        return RatFun.reduced([Q(c, lead) for c in num],
                              [Q(c, lead) for c in den])


def _integer_pair(f):
    """A bracket value as integers: a Fraction's numerator and denominator,
    or a RatFun's numerator and denominator polynomials, both scaled by the
    lcm of their coefficients' denominators."""
    if not isinstance(f, RatFun):
        return f.numerator, f.denominator
    m = math.lcm(*(c.denominator for c in f.num + f.den))
    return ([c.numerator * (m // c.denominator) for c in f.num],
            [c.numerator * (m // c.denominator) for c in f.den])


# ---------------------------------------------------------------------------
# Polynomials over Q, low-to-high coefficient tuples, and the field Q(u).
# ---------------------------------------------------------------------------

def _trim(coeffs):
    c = list(coeffs)
    while c and not c[-1]:
        c.pop()
    return tuple(c)


def poly_add(p, q):
    n = max(len(p), len(q))
    return _trim((p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
                 for i in range(n))


def poly_neg(p):
    return tuple(-c for c in p)


def poly_mul(p, q):
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return _trim(out)


def poly_scale(p, c):
    if not c:
        return ()
    return tuple(a * c for a in p)


def poly_divmod(p, q):
    q = _trim(q)
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    quo = [Q(0)] * max(len(p) - len(q) + 1, 0)
    dq = len(q) - 1
    lead = q[-1]
    while len(rem) - 1 >= dq and any(rem):
        if not rem[-1]:
            rem.pop()
            continue
        shift = len(rem) - 1 - dq
        factor = rem[-1] / lead
        quo[shift] = factor
        for i, c in enumerate(q):
            rem[shift + i] -= factor * c
        rem.pop()
    return _trim(quo), _trim(rem)


def poly_gcd(p, q):
    """Monic Euclidean gcd; () only if both inputs are zero."""
    a, b = p, q
    while b:
        _, r = poly_divmod(a, b)
        a, b = b, r
    if a:
        a = poly_scale(a, 1 / a[-1])
    return a


def _poly_str(p, var="u"):
    if not p:
        return "0"
    terms = []
    for i, c in enumerate(p):
        if not c:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            mono = var if i == 1 else f"{var}^{i}"
            if c == 1:
                terms.append(mono)
            elif c == -1:
                terms.append(f"-{mono}")
            else:
                terms.append(f"{c}*{mono}")
    return " + ".join(terms).replace("+ -", "- ")


class RatFun:
    """An element of the field Q(u), stored reduced with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=(Q(1),)):
        num = _trim(Q(c) for c in num)
        den = _trim(Q(c) for c in den)
        if not den:
            raise ZeroDivisionError("zero denominator in Q(u)")
        if num:
            g = poly_gcd(num, den)
            if len(g) > 1:
                num, _ = poly_divmod(num, g)
                den, _ = poly_divmod(den, g)
        else:
            den = (Q(1),)
        lead = den[-1]
        if lead != 1:
            num = poly_scale(num, 1 / lead)
            den = poly_scale(den, 1 / lead)
        self.num = num
        self.den = den

    @classmethod
    def reduced(cls, num, den):
        """num/den from coprime polynomials with den monic, without a gcd."""
        out = cls.__new__(cls)
        out.num = _trim(num)
        out.den = _trim(den)
        return out

    @classmethod
    def const(cls, c):
        return cls((Q(c),))

    @classmethod
    def var(cls):
        """The generator u of Q(u)."""
        return cls((Q(0), Q(1)))

    @staticmethod
    def _coerce(x):
        if isinstance(x, RatFun):
            return x
        if isinstance(x, (int, Fraction)):
            return RatFun.const(x)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFun(poly_add(poly_mul(self.num, other.den),
                               poly_mul(other.num, self.den)),
                      poly_mul(self.den, other.den))

    __radd__ = __add__

    def __neg__(self):
        return RatFun(poly_neg(self.num), self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFun(poly_mul(self.num, other.num),
                      poly_mul(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.num:
            raise ZeroDivisionError("division by zero in Q(u)")
        return RatFun(poly_mul(self.num, other.den),
                      poly_mul(self.den, other.num))

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, k: int):
        if k < 0:
            return (RatFun.const(1) / self) ** (-k)
        out = RatFun.const(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # a constant equals its Fraction (``__eq__``), so it hashes as one
        if len(self.num) <= 1 and self.den == (1,):
            return hash(self.num[0] if self.num else 0)
        return hash((self.num, self.den))

    def __bool__(self):
        return bool(self.num)

    def __repr__(self):
        return f"RatFun({self})"

    def __str__(self):
        return format_scalar(self)


def format_scalar(x) -> str:
    """Serialize a scalar as a decimal-free string.

    Rationals render as "p/q" (or "p"); Q(u) elements as
    "num(u)/den(u)" with integer coefficients.
    """
    if isinstance(x, RatFun):
        den_lcm = math.lcm(*(c.denominator for c in x.num + x.den))
        num = poly_scale(x.num, den_lcm)
        den = poly_scale(x.den, den_lcm)
        num_s = _poly_str(num)
        if den == (Q(1),):
            return num_s
        return f"({num_s})/({_poly_str(den)})"
    return str(Fraction(x))

