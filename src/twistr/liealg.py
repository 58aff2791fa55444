"""Classical data for the three twisted families.

Families (tags used throughout):

* ``a2even``: L = sl(2l+1), fixed subalgebra B_l = so(2l+1), theta0 = 2*eps1
* ``a2odd`` : L = sl(2l),   fixed subalgebra C_l = sp(2l),   theta0 = eps1+eps2
* ``d2``    : L = so(2l+2), fixed subalgebra B_l = so(2l+1), theta0 = eps1

Weights are tuples of Fractions in the eps-basis (length l for weights of the
fixed subalgebra, length n for gl-level objects).  The bilinear form is
(eps_i, eps_j) = delta_ij throughout, which normalizes Casimir eigenvalues to
C(nu) = (nu, nu + 2*rho0).

The sqrt(2) factors in the Kac generator lists are removed by a reciprocal
rescaling of each (E, F) pair; this preserves [E, F] = H and the trace pairing
(E_i, F_j) = delta_ij, and the intertwiner solve is invariant under it.
The generators are sparse ``linalg`` matrices, sums of matrix units.  The
Cartan entries a_ij, and with them the Serre degrees 1 - a_ij of both the
classical and the quantum relation checker, come from one place: the
doubled integer Gram matrix of the simple roots (``cartan_entry``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .linalg import mat_mul, sparse_commutator, sparse_lincomb

Q = Fraction

FAMILIES = ("a2even", "a2odd", "d2")
_MIN_RANK = {"a2even": 1, "a2odd": 3, "d2": 2}


class FamilyError(ValueError):
    pass


def inner(v, w):
    return sum(a * b for a, b in zip(v, w))


def wadd(v, w):
    return tuple(a + b for a, b in zip(v, w))


def wsub(v, w):
    return tuple(a - b for a, b in zip(v, w))


def wscale(v, c):
    return tuple(a * c for a in v)


def eps(i, l):
    """Basis vector eps_i (1-based) of length l."""
    return tuple(Q(1) if j == i - 1 else Q(0) for j in range(l))


def is_dominant(l0type, nu):
    if any(a < b for a, b in zip(nu, nu[1:])):
        return False
    if nu[-1] < 0:
        return False
    if l0type == "C":
        return all(a.denominator == 1 for a in nu)
    # B_l: all integer or all half-odd-integer
    try:
        return len({a % 2 for a in doubled(nu)}) == 1
    except ValueError:
        return False


@dataclass(frozen=True)
class FamilySpec:
    family: str
    l: int
    n: int
    l0type: str               # "B" or "C"
    theta0: tuple
    alpha: tuple              # simple roots alpha_0..alpha_l, eps-basis length l
    rho0: tuple

    def admissible(self, params):
        """Table-2 admissibility of a tensor-factor parameter pair."""
        k, r = params
        if self.family == "a2even":
            return 1 <= k <= self.l and 1 <= r <= self.l
        return k >= 1 and r >= 1

    def seed_params(self):
        return (1, 1)


def family_spec(family: str, l: int) -> FamilySpec:
    if family not in FAMILIES:
        raise FamilyError(f"unknown family {family!r}")
    if l < _MIN_RANK[family]:
        raise FamilyError(f"family {family} requires l >= {_MIN_RANK[family]}")
    simple = [wsub(eps(i, l), eps(i + 1, l)) for i in range(1, l)]
    if family == "a2even":
        n = 2 * l + 1
        l0type = "B"
        simple.append(eps(l, l))
        alpha0 = wscale(eps(1, l), Q(-2))
        theta0 = wscale(eps(1, l), Q(2))
    elif family == "a2odd":
        n = 2 * l
        l0type = "C"
        simple.append(wscale(eps(l, l), Q(2)))
        alpha0 = wscale(wadd(eps(1, l), eps(2, l)), Q(-1))
        theta0 = wadd(eps(1, l), eps(2, l))
    else:
        n = 2 * l + 2
        l0type = "B"
        simple.append(eps(l, l))
        alpha0 = wscale(eps(1, l), Q(-1))
        theta0 = eps(1, l)
    rho0 = weyl_vector(l0type, l)
    return FamilySpec(family, l, n, l0type, theta0, (alpha0, *simple), rho0)


def weyl_vector(l0type, l):
    if l0type == "B":
        return tuple(Q(2 * (l - i) - 1, 2) for i in range(l))
    return tuple(Q(l - i) for i in range(l))


def casimir_eigenvalue(spec: FamilySpec, nu) -> Fraction:
    if not is_dominant(spec.l0type, nu):
        raise ValueError(f"{nu} is not dominant for {spec.l0type}_{spec.l}")
    x, r = doubled(nu), doubled(spec.rho0)
    # (nu, nu + 2 rho0) on x = 2 nu and r = 2 rho0, in integers
    return Q(sum(a * (a + 2 * b) for a, b in zip(x, r)), 4)


def doubled(v):
    """2*v as a tuple of ints; ValueError if v is not in (1/2)Z^l."""
    out = []
    for a in v:
        if a.denominator == 1:
            out.append(2 * a.numerator)
        elif a.denominator == 2:
            out.append(a.numerator)
        else:
            raise ValueError(f"weight {v} is not in (1/2)Z^{len(v)}")
    return tuple(out)


def doubled_gram(spec: FamilySpec):
    """The Gram matrix of the simple roots times 4, (2 alpha_i, 2 alpha_j)
    for i, j = 0..l, in ints."""
    two = [doubled(a) for a in spec.alpha]
    return [[inner(a, b) for b in two] for a in two]


def cartan_entry(gram, i, j):
    """The Cartan entry a_ij = 2 (alpha_i, alpha_j) / (alpha_i, alpha_i) as
    an int, read from the ``doubled_gram`` gram; raises FamilyError unless
    it is an integer."""
    a, r = divmod(2 * gram[i][j], gram[i][i])
    if r:
        raise FamilyError(f"Cartan entry a[{i}][{j}] = "
                          f"{Q(2 * gram[i][j], gram[i][i])} is not an integer")
    return a


def weyl_dim(l0type, l, nu) -> int:
    """Weyl's product prod_alpha (nu + rho, alpha) / (rho, alpha) over the
    positive roots e_i -+ e_j (i < j) and e_i (B) or 2 e_i (C), taken on the
    doubled integer coordinates, where the factors 2 (and the 2 of 2 e_i)
    cancel between the two products."""
    def root_product(x):
        out = 1
        for i in range(l):
            out *= x[i]
            for j in range(i + 1, l):
                out *= (x[i] - x[j]) * (x[i] + x[j])
        return out

    rho = doubled(weyl_vector(l0type, l))
    num = root_product([a + b for a, b in zip(doubled(nu), rho)])
    den = root_product(rho)
    if num % den or num <= 0:
        raise ValueError(f"Weyl dimension {Q(num, den)} of {nu} is not a "
                         "positive integer")
    return num // den


# ---------------------------------------------------------------------------
# Kac generators inside gl(n)
# ---------------------------------------------------------------------------

def _e(i, j):
    """The matrix unit e_ij (1-based)."""
    return {i - 1: {j - 1: Q(1)}}


def _a(bar_n, i, j):
    """a_ij = e_ij - (-1)^(i+j) e_{jbar, ibar} with ibar = bar_n + 1 - i."""
    ib, jb = bar_n + 1 - i, bar_n + 1 - j
    return sparse_lincomb(((1, _e(i, j)), (-(-1) ** (i + j), _e(jb, ib))))


def kac_generators(spec: FamilySpec):
    """The (rationally rescaled) generators {E_i, F_i, H_i : 0 <= i <= l}.

    Returns a dict with keys "E", "F", "H", each a list indexed 0..l of
    sparse n x n matrices over Q, sums of matrix units.
    """
    l, n = spec.l, spec.n
    # d2: the bar for the a_ij block runs over 1..2l+1 (ibar = 2l+2-i),
    # leaving the extra index 2l+2 outside the bar involution
    bar_n = 2 * l + 1 if spec.family == "d2" else n
    E = [None] * (l + 1)
    F = [None] * (l + 1)
    H = [None] * (l + 1)
    for i in range(1, l):
        E[i] = _a(bar_n, i, i + 1)
        F[i] = _a(bar_n, i + 1, i)
        H[i] = sparse_lincomb(((1, _a(bar_n, i, i)),
                               (-1, _a(bar_n, i + 1, i + 1))))
    E[l] = _a(bar_n, l, l + 1)
    F[l] = _a(bar_n, l + 1, l)
    H[l] = _a(bar_n, l, l)
    if spec.family == "a2even":
        # E0 = sqrt(2) e_{n,1}, F0 = sqrt(2) e_{1,n}, rescaled to (2, 1)
        E[0] = sparse_lincomb(((2, _e(n, 1)),))
        F[0] = _e(1, n)
        H[0] = sparse_lincomb(((-2, _a(n, 1, 1)),))
    elif spec.family == "a2odd":
        # E_l = a_{l,l+1}/sqrt2, F_l = a_{l+1,l}/sqrt2, rescaled to (1, 1/2)
        F[l] = sparse_lincomb(((Q(1, 2), F[l]),))
        H[l] = sparse_lincomb(((2, H[l]),))
        # b_{2l-1,1} = e_{2l-1,1} + e_{2l,2}
        E[0] = sparse_lincomb(((1, _e(2 * l - 1, 1)), (1, _e(2 * l, 2))))
        F[0] = sparse_lincomb(((1, _e(1, 2 * l - 1)), (1, _e(2, 2 * l))))
        H[0] = sparse_lincomb(((-1, _a(n, 1, 1)), (-1, _a(n, 2, 2))))
    else:
        # affine pair built from e_{2l+1,2l+2} + e_{2l+2,1}
        E[0] = sparse_lincomb(((1, _e(2 * l + 1, 2 * l + 2)),
                               (1, _e(2 * l + 2, 1))))
        F[0] = sparse_lincomb(((1, _e(2 * l + 2, 2 * l + 1)),
                               (1, _e(1, 2 * l + 2))))
        H[0] = sparse_lincomb(((-1, _a(bar_n, 1, 1)),))
    return {"E": E, "F": F, "H": H}


def relation_entry(name, residual, scale=1):
    """The report entry {relation, ok, residual} of one defining relation
    from its sparse residual matrix times the positive integer scale, which
    holds nonzero entries only: the relation holds exactly when the residual
    is empty, and the residual is divided back by the scale, into
    Fractions, only when it is not."""
    if not residual:
        return {"relation": name, "ok": True, "residual": None}
    return {"relation": name, "ok": False, "residual": {
        i: {j: Q(x, scale) for j, x in row.items()}
        for i, row in residual.items()}}


def integral(m):
    """(s, s m) in ints for the sparse matrix m, s the lcm of its
    denominators."""
    s = linalg.denominator(*m.values())
    return s, {i: linalg.scaled(row, s) for i, row in m.items()}


def _bracket(a, b, c=1):
    """The terms (c, a b) and (-c, b a) of c [a, b] for ``sparse_lincomb``."""
    return (c, mat_mul(a, b)), (-c, mat_mul(b, a))


def check_classical_relations(gens, spec: FamilySpec):
    """Verify every defining relation of the classical generator set.

    Each sparse n x n matrix x of ``gens`` is scaled to integers once
    (``integral``: s x, s the lcm of its denominators), and every
    relation is checked on integer products.  Its residual times the
    product of the scales s it reads, and of the denominator d of (alpha_i,
    alpha_j) for [H_i, x], is an integer matrix, divided back by that scale
    only when it is not empty.  Returns a list of report entries
    {"relation": str, "ok": bool, "residual"}.
    """
    E, F, H = ([integral(m) for m in gens[k]] for k in "EFH")
    l, gram = spec.l, doubled_gram(spec)
    report = []
    for i in range(l + 1):
        (sh, h), (se, e) = H[i], E[i]
        for j in range(l + 1):
            (sej, ej), (sf, f) = E[j], F[j]
            aij = Q(gram[i][j], 4)
            d, n = aij.denominator, aij.numerator * sh
            target = h if i == j else {}
            report += [
                relation_entry(f"[H{i},E{j}]=(a{i},a{j})E{j}", sparse_lincomb(
                    (*_bracket(h, ej, d), (-n, ej))), d * sh * sej),
                relation_entry(f"[H{i},F{j}]=-(a{i},a{j})F{j}", sparse_lincomb(
                    (*_bracket(h, f, d), (n, f))), d * sh * sf),
                relation_entry(f"[E{i},F{j}]=delta*H{i}", sparse_lincomb(
                    (*_bracket(e, f, sh), (-se * sf, target))), se * sf * sh)]
    for i in range(l + 1):
        for j in range(l + 1):
            if i == j:
                continue
            m = 1 - cartan_entry(gram, i, j)
            (si, ei), (sj, x) = E[i], E[j]
            for _ in range(m):
                x = sparse_commutator(ei, x)
            s = si ** m * sj
            report.append(relation_entry(f"(ad E{i})^{m} E{j}=0", x, s))
            (si, fi), (sj, y) = F[i], F[j]
            for _ in range(m):
                y = sparse_commutator(fi, y)
            s = si ** m * sj
            report.append(relation_entry(f"(ad F{i})^{m} F{j}=0", y, s))
    return report
