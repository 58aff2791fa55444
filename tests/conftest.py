"""Shared fixtures: family grid, cached seed representations and samples."""

from fractions import Fraction

import pytest

from twistr import jimbo, liealg, qrep, tensor
from twistr.scalars import QSample

Q = Fraction

# Family/rank grid used by the relation and branching acceptance criteria.
GRID = [
    ("a2even", 1), ("a2even", 2), ("a2even", 3), ("a2even", 4),
    ("a2odd", 3), ("a2odd", 4),
    ("d2", 2), ("d2", 3),
]

# The closed-form grid of the graph route: every (family, l, params) with a
# closed form, 76 cases with 655 components.
CLOSED_FORM_GRID = [("a2even", l, (k, r)) for l in range(2, 7)
                    for k in range(1, l + 1) for r in range(k, l - k + 1)]
CLOSED_FORM_GRID += [(family, l, (k, r))
                     for family, ls in (("a2odd", range(3, 7)),
                                        ("d2", range(2, 7)))
                     for l in ls for k in range(1, 4) for r in range(k, 4)]

# seed (x) seed cases small enough for the three-site Yang-Baxter products
YBE_CASES = [("a2even", 1), ("a2even", 2), ("a2even", 3), ("a2odd", 3),
             ("d2", 2), ("d2", 3)]

_REP_CACHE = {}


def seed_rep(family, l):
    key = (family, l)
    if key not in _REP_CACHE:
        _REP_CACHE[key] = qrep.build_seed_rep(liealg.family_spec(family, l))
    return _REP_CACHE[key]


def seed_shared(family, l):
    """A fresh Shared around the cached seed rep, so no solve or
    decomposition carries over from one test to another."""
    rep = seed_rep(family, l)
    return jimbo.Shared(rep.spec, rep=rep)


def fraction_coproduct(rep, kind, i, qs, u=None):
    """``tensor.coproduct_action`` as one sparse matrix in Fractions: its
    integer numerator divided by its denominator."""
    num, d = tensor.coproduct_action(rep, kind, i, qs, u=u)
    return {p: {j: Q(y, d) for j, y in row.items()} for p, row in num.items()}


@pytest.fixture(params=GRID, ids=lambda c: f"{c[0]}-l{c[1]}")
def grid_case(request):
    return request.param


@pytest.fixture(params=YBE_CASES, ids=lambda c: f"{c[0]}-l{c[1]}")
def ybe_case(request):
    return request.param


@pytest.fixture
def qs():
    return QSample(Q(3, 2))
