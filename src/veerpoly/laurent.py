"""Exact multivariate Laurent polynomial arithmetic over the integers.

Polynomials live in Z[x_1^{±1}, ..., x_r^{±1}].  They are stored sparsely as a
map from exponent vectors (tuples of ints, possibly negative) to nonzero
integer coefficients.  All arithmetic is exact; coefficients are Python ints.

Many quantities downstream are only well defined up to multiplication by a
unit of the Laurent ring, i.e. by +-(monomial).  ``normalize_unit`` picks the
canonical representative of that orbit: shift so the minimum exponent of each
variable is 0, then fix the sign so the graded-lex greatest term has positive
coefficient.
"""

from __future__ import annotations

import math
from itertools import combinations
from operator import add


class LaurentPoly:
    """A sparse Laurent polynomial over Z in a fixed number of variables."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        clean = {}
        if terms:
            for exp, coef in terms.items():
                if len(exp) != nvars:
                    raise ValueError(
                        "exponent %r has length %d, expected %d" % (exp, len(exp), nvars))
                if coef:
                    clean[tuple(exp)] = coef
        self.terms = clean

    @classmethod
    def _wrap(cls, nvars, terms):
        """Wrap a dict that is already clean, without copying or checking
        it: every key a tuple of length ``nvars``, every value nonzero.
        For the arithmetic below, and for presentation cells summed from
        exponent tuples, which are clean by construction;
        ``LaurentPoly(nvars, terms)`` checks and copies outside input."""
        p = object.__new__(cls)
        p.nvars = nvars
        p.terms = terms
        return p

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars):
        return cls(nvars, {})

    @classmethod
    def one(cls, nvars):
        return cls(nvars, {(0,) * nvars: 1})

    @classmethod
    def variable(cls, nvars, i):
        exp = [0] * nvars
        exp[i] = 1
        return cls(nvars, {tuple(exp): 1})

    # -- predicates --------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_unit(self):
        """True iff the polynomial is a unit of the Laurent ring: +-x^v."""
        if len(self.terms) != 1:
            return False
        (coef,) = self.terms.values()
        return coef in (1, -1)

    def is_one(self):
        return self.terms == {(0,) * self.nvars: 1}

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        return self.sub_mul(-LaurentPoly.one(self.nvars), other)

    def __sub__(self, other):
        return self.sub_mul(LaurentPoly.one(self.nvars), other)

    def __neg__(self):
        return LaurentPoly._wrap(self.nvars,
                                 {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return LaurentPoly.zero(self.nvars)
            return LaurentPoly._wrap(
                self.nvars, {e: c * other for e, c in self.terms.items()})
        return LaurentPoly.zero(self.nvars).sub_mul(-self, other)

    __rmul__ = __mul__

    def sub_mul(self, c, p):
        """self - c * p, summed into one copy of self's terms: no
        product polynomial is built on the way.  The ring's one product
        kernel: +, -, * and ** of polynomials are this loop, and so are
        the Schur updates of ``unit_pivot_reduce``, the Laplace sweep of
        ``determinant``, the pseudo-remainders of the PRS and the steps
        of exact division.  c and p must be LaurentPoly in self's ring."""
        if not (isinstance(c, LaurentPoly) and isinstance(p, LaurentPoly)
                and c.nvars == p.nvars == self.nvars):
            raise ValueError("operands live in different Laurent rings")
        out = dict(self.terms)
        for e1, c1 in c.terms.items():
            for e2, c2 in p.terms.items():
                e = tuple(map(add, e1, e2))
                s = out.get(e, 0) - c1 * c2
                if s:
                    out[e] = s
                else:
                    del out[e]
        return LaurentPoly._wrap(self.nvars, out)

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative powers are not supported (n = %d)"
                             % n)
        out = LaurentPoly.one(self.nvars)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        return (isinstance(other, LaurentPoly)
                and self.nvars == other.nvars and self.terms == other.terms)

    # -- structure ---------------------------------------------------------

    def min_exponents(self):
        """Per-variable minimum exponent over the support (zero poly -> zeros)."""
        if not self.terms:
            return (0,) * self.nvars
        return tuple(min(e[i] for e in self.terms) for i in range(self.nvars))

    def shift(self, vec):
        """Multiply by the monomial x^vec."""
        if len(vec) != self.nvars:
            raise ValueError("shift %r has length %d, expected %d"
                             % (vec, len(vec), self.nvars))
        return LaurentPoly._wrap(self.nvars,
                                 {tuple(map(add, e, vec)): c
                                  for e, c in self.terms.items()})

    def leading_term(self):
        """(exponent, coefficient) of the graded-lex greatest term."""
        exp = max(self.terms, key=_grlex_key)
        return exp, self.terms[exp]

    def sorted_terms(self):
        """Terms in ascending graded-lex order."""
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]))

    def __repr__(self):
        if not self.terms:
            return "LaurentPoly(0)"
        bits = []
        for exp, coef in reversed(self.sorted_terms()):
            mono = "*".join("x%d^%d" % (i, e) for i, e in enumerate(exp) if e)
            if mono:
                bits.append("%+d*%s" % (coef, mono))
            else:
                bits.append("%+d" % coef)
        return "LaurentPoly(%s)" % " ".join(bits)


def _grlex_key(exp):
    return (sum(exp), exp)


# ---------------------------------------------------------------------------
# Unit normalization
# ---------------------------------------------------------------------------

def normalize_unit(p):
    """Canonical representative of {+-x^v * p}.

    Shift so every variable's minimum exponent is 0, then negate if needed so
    that the graded-lex greatest term has a positive coefficient.  Zero maps
    to zero.
    """
    return _sign_norm(p.shift(tuple(-m for m in p.min_exponents())))


# ---------------------------------------------------------------------------
# Exact division
# ---------------------------------------------------------------------------

def exact_div(p, q):
    """Return s with p = q*s if q divides p in the Laurent ring, else None.

    Divisibility by a unit-multiple is the same thing, so both operands are
    first shifted into ordinary-polynomial position; the quotient's monomial
    offset is restored at the end.
    """
    if q.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if p.is_zero():
        return LaurentPoly.zero(p.nvars)
    a = p.min_exponents()
    b = q.min_exponents()
    ph = p.shift(tuple(-m for m in a))
    qh = q.shift(tuple(-m for m in b))
    s = _poly_exact_div(ph, qh)
    if s is None:
        return None
    return s.shift(tuple(x - y for x, y in zip(a, b)))


def _poly_exact_div(p, q):
    """Exact division in Z[x_1..x_r] (no negative exponents allowed in the
    quotient).  Leading-term division in graded-lex order: if q | p the
    leading term of the quotient is forced at every step, so failure proves
    indivisibility."""
    nvars = p.nvars
    rem = p
    out = {}
    qexp, qcoef = q.leading_term()
    while not rem.is_zero():
        rexp, rcoef = rem.leading_term()
        c, r = divmod(rcoef, qcoef)
        if r:
            return None
        exp = tuple(a - b for a, b in zip(rexp, qexp))
        if any(e < 0 for e in exp):
            return None
        out[exp] = c
        rem = rem.sub_mul(LaurentPoly._wrap(nvars, {exp: c}), q)
    return LaurentPoly._wrap(nvars, out)


# ---------------------------------------------------------------------------
# GCD: recursive content/primitive-part with a subresultant remainder
# sequence in the last variable.  Deterministic; no modular shortcuts.
# ---------------------------------------------------------------------------

def gcd(p, q):
    """A gcd of p and q in the Laurent ring, unit-normalized.

    gcd(0, 0) = 0.  Monomial factors are units here, so they never appear in
    the result.
    """
    if p.is_zero() or q.is_zero():
        return normalize_unit(p if q.is_zero() else q)
    ph = p.shift(tuple(-m for m in p.min_exponents()))
    qh = q.shift(tuple(-m for m in q.min_exponents()))
    return normalize_unit(_poly_gcd(ph, qh))


def _sign_norm(p):
    if p.is_zero():
        return p
    _, lead = p.leading_term()
    return -p if lead < 0 else p


def _poly_gcd(p, q):
    """gcd in Z[x_1..x_r] for honest polynomials (no negative exponents),
    q nonzero."""
    if p.is_zero():
        return _sign_norm(q)
    if p.nvars == 0:
        a = p.terms.get((), 0)
        b = q.terms.get((), 0)
        return LaurentPoly(0, {(): math.gcd(a, b)})
    pc, pp = _content_pp(_split_last(p))
    qc, qp = _content_pp(_split_last(q))
    d = _poly_gcd(pc, qc)
    g = _subresultant_gcd(pp, qp)
    return _sign_norm(_join_last({deg: c * d for deg, c in g.items()},
                                 p.nvars))


def _split_last(p):
    """View p in Z[x_1..x_{r-1}][y] (y = last variable): degree -> coefficient,
    with coefficients as (r-1)-variable polynomials.  Each term of p is
    one (head, degree) pair with a nonzero coefficient, so every bucket
    is clean and nonempty."""
    out = {}
    for exp, coef in p.terms.items():
        out.setdefault(exp[-1], {})[exp[:-1]] = coef
    return {d: LaurentPoly._wrap(p.nvars - 1, t) for d, t in out.items()}


def _join_last(coeffs, nvars):
    """Inverse of ``_split_last``; the coefficients' terms are clean, and
    distinct (degree, head) pairs give distinct exponents."""
    terms = {}
    for d, poly in coeffs.items():
        for exp, coef in poly.terms.items():
            terms[exp + (d,)] = coef
    return LaurentPoly._wrap(nvars, terms)


def _content_pp(coeffs):
    """``(content, primitive part)`` of a nonzero polynomial in R[y], given
    as its coefficient map {degree: nonzero R-element} (``_split_last``);
    the primitive part is a coefficient map too."""
    cont = LaurentPoly.zero(next(iter(coeffs.values())).nvars)
    for poly in coeffs.values():
        cont = _poly_gcd(cont, poly)
        if cont.is_one():
            break
    pp = {d: _require(_poly_exact_div(poly, cont))
          for d, poly in coeffs.items()}
    return cont, pp


def _require(x):
    if x is None:
        raise AssertionError("division guaranteed exact by theory failed")
    return x


def _prem(a, b):
    """Pseudo-remainder of a by b in R[y]: lc(b)^(deg a - deg b + 1) * a mod b,
    on coefficient dictionaries {degree: R-element}."""
    da, db = max(a), max(b)
    lb = b[db]
    e = da - db + 1
    r = dict(a)
    while r and max(r) >= db:
        dr = max(r)
        lr = r[dr]
        new = {d: c * lb for d, c in r.items()}
        for d, c in b.items():
            nd = d + dr - db
            val = new.get(nd, LaurentPoly.zero(c.nvars)).sub_mul(lr, c)
            if val.is_zero():
                new.pop(nd, None)
            else:
                new[nd] = val
        r = new
        e -= 1
    for _ in range(e):
        r = {d: c * lb for d, c in r.items()}
    return r


def _subresultant_gcd(a, b):
    """Subresultant PRS on primitive a, b in R[y], each a coefficient map
    {degree: nonzero R-element}; returns a primitive gcd, the primitive
    part of the last nonzero remainder, as such a map."""
    if max(a) < max(b):
        a, b = b, a
    one = LaurentPoly.one(next(iter(a.values())).nvars)
    g = h = one
    while True:
        delta = max(a) - max(b)
        r = _prem(a, b)
        if not r:
            break
        if max(r) == 0:
            # Primitive parts are coprime; gcd is carried by contents alone.
            return {0: one}
        a, b = b, r
        divisor = g * h ** delta
        b = {d: _require(_poly_exact_div(c, divisor)) for d, c in b.items()}
        g = a[max(a)]
        if delta == 1:
            h = g
        elif delta > 1:
            h = _require(_poly_exact_div(g ** delta, h ** (delta - 1)))
    return _content_pp(b)[1]


# ---------------------------------------------------------------------------
# Matrices
# ---------------------------------------------------------------------------

class LaurentMatrix:
    """A matrix of Laurent polynomials (rows: edges, cols: faces)."""

    __slots__ = ("nvars", "rows", "cols", "entries")

    def __init__(self, nvars, entries):
        """Wrap a list of equal-length rows, every entry in ``nvars``
        variables, without copying or checking it."""
        self.nvars = nvars
        self.entries = entries
        self.rows = len(entries)
        self.cols = len(entries[0]) if entries else 0

    def submatrix(self, row_idx, col_idx):
        return LaurentMatrix(self.nvars, [
            [self.entries[i][j] for j in col_idx] for i in row_idx])

    def __repr__(self):
        return "LaurentMatrix(%dx%d over %d vars)" % (
            self.rows, self.cols, self.nvars)


def determinant(mat):
    """Exact determinant of a square LaurentMatrix by Laplace expansion
    along the rows, with no division; the 0 x 0 matrix gives 1.
    ``minors`` maps each column set (a bitmask) to the nonzero minor of
    the rows so far on it.  Each row extends a minor by every unused
    column j where it is nonzero, with sign (-1)^(chosen columns > j)."""
    if mat.rows != mat.cols:
        raise ValueError("determinant of a non-square matrix")
    if mat.rows == 0:
        return LaurentPoly.one(mat.nvars)
    zero = LaurentPoly.zero(mat.nvars)
    first, *rest = mat.entries
    minors = {1 << j: p for j, p in enumerate(first) if p.terms}
    for row in rest:
        # sub_mul by -entry adds entry * minor, by entry subtracts it
        cells = [(j, p, -p) for j, p in enumerate(row) if p.terms]
        grown = {}
        for mask, minor in minors.items():
            for j, p, neg in cells:
                above = mask >> j
                if not above & 1:
                    key = mask | 1 << j
                    grown[key] = grown.get(key, zero).sub_mul(
                        p if above.bit_count() & 1 else neg, minor)
        minors = {k: m for k, m in grown.items() if m.terms}
    return minors.get((1 << mat.rows) - 1, zero)


def maximal_minor_gcd_bruteforce(mat):
    """gcd over all row-size minors, by direct enumeration.

    Exponential in the column count; the terminal stage of the
    Fitting-invariant pipeline once matrices are small (tree-reduced
    residuals are r x (r + 1), so r + 1 minors).  Column sets come in the
    order of ``combinations``.  A zero minor, or one that the gcd so far
    divides, leaves the gcd as it is, so ``gcd`` runs only on the others.
    The walk stops once the gcd is 1.  Each minor is its own
    ``determinant`` sweep; the benchmark counts them one by one.  With
    no rows, the one empty column set gives the 0 x 0 minor, 1.
    """
    if mat.rows > mat.cols:
        raise ValueError("need rows <= cols for maximal (row-size) minors")
    acc = LaurentPoly.zero(mat.nvars)
    all_rows = range(mat.rows)
    for cols in combinations(range(mat.cols), mat.rows):
        minor = determinant(mat.submatrix(all_rows, cols))
        if minor.is_zero() or (not acc.is_zero()
                               and exact_div(minor, acc) is not None):
            continue
        acc = gcd(acc, minor)
        if acc.is_one():
            break
    return acc


# ---------------------------------------------------------------------------
# Specialisation along a homomorphism of free abelian groups
# ---------------------------------------------------------------------------

def specialize(p, exp_map, sign_source=None):
    """Push p through the monomial map x^v -> y^(A v), with an optional
    sign twist.

    ``exp_map`` is an s x r integer matrix A (list of s rows).  A sign
    character (+-1 per variable, one per variable of p) may be supplied
    on the source (applied as prod(chi_i^v_i)).  The result lives in s
    variables.
    """
    rows = [tuple(r) for r in exp_map]
    s = len(rows)
    r = p.nvars
    for row in rows:
        if len(row) != r:
            raise ValueError("exponent map has wrong shape")
    if sign_source is not None and len(sign_source) != r:
        raise ValueError("sign source %r has length %d, expected %d"
                         % (sign_source, len(sign_source), r))
    out = {}
    for exp, coef in p.terms.items():
        img = tuple(sum(a * e for a, e in zip(row, exp)) for row in rows)
        c = coef
        if sign_source is not None:
            for chi, e in zip(sign_source, exp):
                if chi == -1 and e % 2:
                    c = -c
        val = out.get(img, 0) + c
        if val:
            out[img] = val
        else:
            del out[img]
    return LaurentPoly(s, out)


def sign_twist(p, sigma):
    """Substitute x_i -> sigma_i * x_i (sigma_i in {+1, -1}); an involution."""
    ident = [[1 if i == j else 0 for j in range(p.nvars)]
             for i in range(p.nvars)]
    return specialize(p, ident, sign_source=sigma)


# ---------------------------------------------------------------------------
# JSON schema
# ---------------------------------------------------------------------------

def poly_to_json(p):
    """{"vars": r, "terms": [...]} with terms ascending in graded-lex order.

    Polynomials are emitted unit-normalized so that equal unit classes have
    byte-identical serializations.
    """
    q = normalize_unit(p)
    return {"vars": q.nvars,
            "terms": [{"exp": list(e), "coef": c} for e, c in q.sorted_terms()]}


def poly_from_json(obj):
    return LaurentPoly(obj["vars"],
                       {tuple(t["exp"]): t["coef"] for t in obj["terms"]})
