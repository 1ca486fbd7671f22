import os
import random
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from veerpoly import laurent
from veerpoly.census_io import parse_taut_sig
from veerpoly.invariants import (Analysis, build_alexander_matrix,
                                 build_cover_alexander_matrix,
                                 build_taut_matrix, unit_pivot_reduce)
from veerpoly.laurent import (LaurentMatrix, LaurentPoly, determinant,
                              exact_div, gcd,
                              maximal_minor_gcd_bruteforce, normalize_unit,
                              pack_exponent, poly_from_json, poly_to_json,
                              sign_twist, specialize)
from oracles import (bareiss_determinant, cofactor_determinant,
                     exhaustive_fitting_gcd, reference_add,
                     reference_exact_div, reference_mul, reference_pow)

DATA = os.path.join(os.path.dirname(__file__), "data", "sample_census.txt")
EXTRA = os.path.join(os.path.dirname(__file__), "data", "extra_census.txt")
FOURTEEN = "oLLLLLPwQQcccefgijlmkklnnnlnewbnetafobnkj_12001112122200"

sympy = pytest.importorskip("sympy")


def P(nvars, *terms):
    return LaurentPoly(nvars, {tuple(e): c for e, c in terms})


def random_poly(rng, nvars, max_terms=5, exp_range=3, coef_range=6,
                laurent=True):
    lo = -exp_range if laurent else 0
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exp = tuple(rng.randint(lo, exp_range) for _ in range(nvars))
        terms[exp] = rng.randint(-coef_range, coef_range)
    return LaurentPoly(nvars, terms)


def to_sympy(p, symbols):
    expr = sympy.Integer(0)
    for exp, coef in p.terms.items():
        term = sympy.Integer(coef)
        for s, e in zip(symbols, exp):
            term *= s ** e
        expr += term
    return expr


# -- packed exponents --------------------------------------------------------

LIMIT = 2 ** 31 - 1


@pytest.mark.parametrize("nvars", range(5))
def test_packed_exponents_round_trip_at_the_digit_limits(nvars):
    # every vector of digits in {-(2^31 - 1), -1, 0, 1, 2^31 - 1} packs
    # to one key and back, through the constructor and the terms view
    for exp in product((-LIMIT, -1, 0, 1, LIMIT), repeat=nvars):
        key = laurent.pack_exponent(exp)
        assert laurent._unpack(key, nvars) == exp
        p = LaurentPoly(nvars, {exp: 5})
        assert p.packed == {key: 5}
        assert p.terms == {exp: 5}
        assert p._lowest() == key


def test_key_order_is_lex_order_and_keys_add():
    rng = random.Random(59)
    for nvars in range(1, 5):
        vecs = [tuple(rng.choice((rng.randint(-3, 3),
                                  rng.randint(-LIMIT, LIMIT)))
                      for _ in range(nvars)) for _ in range(300)]
        assert sorted(vecs, key=laurent.pack_exponent) == sorted(vecs)
        for a, b in zip(vecs, vecs[1:]):
            total = laurent.pack_exponent(a) + laurent.pack_exponent(b)
            assert laurent._unpack(total, nvars) == \
                tuple(x + y for x, y in zip(a, b))


@pytest.mark.parametrize("exp", [(2 ** 31,), (-2 ** 31,), (0, 2 ** 31),
                                 (2 ** 31, 0, 0)])
def test_exponents_out_of_the_digit_range_raise(exp):
    with pytest.raises(ValueError, match="out of range"):
        laurent.pack_exponent(exp)
    with pytest.raises(ValueError, match="out of range"):
        LaurentPoly(len(exp), {exp: 1})


def test_exact_div_matches_the_tuple_keyed_reference():
    # lex division on packed keys against graded-lex division on
    # exponent tuples: the same quotient on products, and None on the
    # same pairs when a random remainder is added
    rng = random.Random(61)
    outcomes = set()
    for _ in range(400):
        nv = rng.randint(1, 4)
        a, b, r = (random_poly(rng, nv) for _ in range(3))
        if b.is_zero():
            continue
        p = reference_mul(a, b)
        assert exact_div(p, b) == reference_exact_div(p, b) == a
        q = reference_add(p, r)
        got = exact_div(q, b)
        assert got == reference_exact_div(q, b)
        outcomes.add(got is None)
    assert outcomes == {True, False}


# -- arithmetic --------------------------------------------------------------

def test_arithmetic_results_are_clean():
    # + - * ** and shift hand back their dicts unchecked, so no result
    # may hold a zero coefficient or an exponent of the wrong length;
    # + - * ** are sub_mul, so they are checked against the term loops
    # of the oracles
    rng = random.Random(47)
    for _ in range(300):
        nv = rng.randint(1, 3)
        a = random_poly(rng, nv)
        # b shares some of a's terms with opposite sign, so a + b cancels
        b = reference_add(random_poly(rng, nv), LaurentPoly(
            nv, {e: -c for e, c in a.terms.items() if rng.random() < 0.5}))
        vec = tuple(rng.randint(-3, 3) for _ in range(nv))
        assert a + b == reference_add(a, b)
        assert a - b == reference_add(a, -b)
        assert b - a == reference_add(b, -a)
        assert a * b == b * a == reference_mul(a, b)
        powers = [a ** n for n in range(6)]
        assert powers == [reference_pow(a, n) for n in range(6)]
        assert (a - a).terms == {}
        for r in [a + b, a - b, b - a, -a, a * b, b * a, a * 3, -2 * a,
                  a * 0, a.shift(pack_exponent(vec)), a - a] + powers:
            assert r.nvars == nv
            assert 0 not in r.terms.values()
            assert all(type(e) is tuple and len(e) == nv for e in r.terms)
            assert LaurentPoly(r.nvars, r.terms) == r
        with pytest.raises(ValueError):
            a.shift(pack_exponent(vec[:-1] + (1 << 31,)))
    x = LaurentPoly.variable(1, 0)
    one = LaurentPoly.one(1)
    assert ((x + one) * (x - one)).terms == {(2,): 1, (0,): -1}


def test_sub_mul_equals_difference_of_product():
    # the fused a - c * p, against the oracles' product and sum taken
    # one at a time, on clean results; a = c * p cancels in full, any of
    # a, c, p may be zero, and c may be a power of p
    rng = random.Random(53)
    for _ in range(300):
        nv = rng.randint(1, 3)
        a, c, p = (random_poly(rng, nv) for _ in range(3))
        before = [dict(x.terms) for x in (a, c, p)]
        zero = LaurentPoly.zero(nv)
        cp = reference_mul(c, p)
        for args in ((a, c, p), (cp, c, p), (zero, c, p), (a, zero, p),
                     (a, c, zero), (zero, zero, zero)) + tuple(
                         (a, p ** n, p) for n in range(6)):
            got = args[0].sub_mul(args[1], args[2])
            assert got == reference_add(args[0],
                                        -reference_mul(args[1], args[2]))
            assert got.nvars == nv
            assert 0 not in got.terms.values()
            assert all(type(e) is tuple and len(e) == nv for e in got.terms)
        assert cp.sub_mul(c, p).terms == {}
        assert [zero.sub_mul(-p, p ** n) for n in range(6)] == \
            [reference_pow(p, n + 1) for n in range(6)]
        # the operands are left as they were
        assert [x.terms for x in (a, c, p)] == before


def test_sub_mul_rejects_other_rings():
    a, b = LaurentPoly.one(1), LaurentPoly.one(2)
    for args in ((a, b, a), (a, a, b), (b, a, a)):
        with pytest.raises(ValueError):
            args[0].sub_mul(args[1], args[2])


# -- normalize_unit ----------------------------------------------------------

def test_normalize_shift_and_sign():
    p = P(2, ((-1, 1), -1), ((-2, 1), 1))   # -x^-1 y + x^-2 y
    assert normalize_unit(p) == P(2, ((1, 0), 1), ((0, 0), -1))   # x - 1


def test_normalize_zero():
    z = LaurentPoly.zero(3)
    assert normalize_unit(z) == z


def test_normalize_idempotent_and_unit_invariant():
    rng = random.Random(7)
    for _ in range(200):
        nv = rng.randint(1, 3)
        p = random_poly(rng, nv)
        u_exp = tuple(rng.randint(-2, 2) for _ in range(nv))
        u = LaurentPoly(nv, {u_exp: rng.choice([1, -1])})
        assert normalize_unit(u * p) == normalize_unit(p)
        assert normalize_unit(normalize_unit(p)) == normalize_unit(p)


# -- exact_div ---------------------------------------------------------------

def test_exact_div_basic():
    x2m1 = P(1, ((2,), 1), ((0,), -1))
    xm1 = P(1, ((1,), 1), ((0,), -1))
    assert exact_div(x2m1, xm1) == P(1, ((1,), 1), ((0,), 1))
    x2p1 = P(1, ((2,), 1), ((0,), 1))
    assert exact_div(x2p1, xm1) is None


def test_exact_div_zero_divisor_raises():
    with pytest.raises(ZeroDivisionError):
        exact_div(LaurentPoly.one(1), LaurentPoly.zero(1))


def test_exact_div_construct_and_divide():
    # q divides a monomial only if q is a unit, so adding a unit monomial
    # to p * q leaves a multiple of q exactly when q is a unit
    rng = random.Random(11)
    for _ in range(200):
        nv = rng.randint(1, 3)
        p = random_poly(rng, nv)
        q = random_poly(rng, nv)
        if q.is_zero():
            continue
        assert exact_div(p * q, q) == p
        exp = tuple(rng.randint(-3, 3) for _ in range(nv))
        perturbed = p * q + LaurentPoly(nv, {exp: rng.choice((1, -1))})
        got = exact_div(perturbed, q)
        if q.is_unit():
            assert got is not None and got * q == perturbed
        else:
            assert got is None


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_exact_div_agrees_with_sympy_on_divisibility(seed):
    rng = random.Random(seed)
    nv = rng.randint(1, 2)
    p = random_poly(rng, nv, laurent=False)
    q = random_poly(rng, nv, laurent=False)
    if q.is_zero():
        return
    syms = sympy.symbols("x0:%d" % nv)
    got = exact_div(p, q)
    quo, rem = sympy.div(to_sympy(p, syms), to_sympy(q, syms), *syms,
                         domain="QQ")
    sympy_divisible = rem == 0 and all(
        c.is_integer for c in sympy.Poly(quo, *syms).coeffs()) if rem == 0 \
        else False
    if got is not None:
        assert (to_sympy(got, syms) * to_sympy(q, syms)
                - to_sympy(p, syms)).expand() == 0
    else:
        assert not sympy_divisible


# -- gcd ---------------------------------------------------------------------

def test_gcd_with_zero():
    p = P(2, ((1, 2), 4), ((0, 0), -6))
    assert gcd(p, LaurentPoly.zero(2)) == normalize_unit(p)
    assert gcd(LaurentPoly.zero(2), LaurentPoly.zero(2)).is_zero()
    q = P(1, ((-2,), -3), ((1,), 6))
    assert gcd(LaurentPoly.zero(1), q) == P(1, ((0,), -3), ((3,), 6))


def test_gcd_textbook():
    a = P(1, ((2,), 1), ((0,), -1))            # x^2 - 1
    b = P(1, ((2,), 1), ((1,), -2), ((0,), 1))  # (x-1)^2
    assert gcd(a, b) == P(1, ((1,), 1), ((0,), -1))
    # x0 has the wider span, so the recursion runs with the variables
    # swapped, where x1 - x0 has the positive graded-lex leading term:
    # the sign is fixed after the variables are put back
    f = P(2, ((1, 0), 1), ((0, 1), -1))          # x0 - x1
    a = P(2, ((3, 0), 1), ((0, 0), 1))           # x0^3 + 1
    b = P(2, ((3, 0), 1), ((0, 0), -1))          # x0^3 - 1
    assert gcd(f * a, f * b) == f


def test_gcd_divides_both_inputs():
    rng = random.Random(13)
    for _ in range(150):
        nv = rng.randint(1, 3)
        p = random_poly(rng, nv, max_terms=4)
        q = random_poly(rng, nv, max_terms=4)
        g = gcd(p, q)
        if g.is_zero():
            assert p.is_zero() and q.is_zero()
            continue
        assert exact_div(p, g) is not None
        assert exact_div(q, g) is not None
        # canonical as made: gcd normalises only a zero operand
        assert normalize_unit(g) == g


def test_gcd_common_factor_with_coprime_cofactors():
    # g only involves the first variable, h only the second, both primitive
    # with nonzero constant term => coprime, so gcd(f*g, f*h) = f up to unit.
    rng = random.Random(17)
    for _ in range(60):
        f = random_poly(rng, 2, max_terms=3)
        if f.is_zero():
            continue
        g = P(2, ((rng.randint(1, 3), 0), rng.choice([1, -1])), ((0, 0), 1))
        h = P(2, ((0, rng.randint(1, 3)), rng.choice([1, -1])), ((0, 0), 1))
        assert gcd(f * g, f * h) == normalize_unit(f)


def permuted(p, perm):
    """p with variable perm[j] renamed to variable j."""
    return LaurentPoly(p.nvars, {tuple(e[i] for i in perm): c
                                 for e, c in p.terms.items()})


@pytest.mark.parametrize("nvars", [2, 3, 4])
def test_gcd_is_the_same_in_every_variable_order(nvars):
    # the recursion runs on the last variable, and gcd chooses the
    # order: in each of the r! orders the recursion gives the same
    # normalised gcd, and gcd commutes with renaming the variables
    rng = random.Random(67 + nvars)
    for _ in range(3):
        f, a, b = (random_poly(rng, nvars, max_terms=3, exp_range=2,
                               laurent=False) for _ in range(3))
        if a.is_zero() or b.is_zero():
            continue
        p, q = f * a, f * b
        want = gcd(p, q)
        assert exact_div(p, want) is not None
        assert exact_div(q, want) is not None
        for perm in permutations(range(nvars)):
            back = sorted(range(nvars), key=perm.__getitem__)
            g = laurent._poly_gcd(permuted(p, perm), permuted(q, perm))
            assert normalize_unit(permuted(g, back)) == want, perm
            assert gcd(permuted(p, perm), permuted(q, perm)) == \
                normalize_unit(permuted(want, perm)), perm


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_gcd_matches_sympy(seed):
    rng = random.Random(seed)
    nv = rng.randint(1, 2)
    p = random_poly(rng, nv, max_terms=4, laurent=False)
    q = random_poly(rng, nv, max_terms=4, laurent=False)
    syms = sympy.symbols("x0:%d" % nv)
    ours = gcd(p, q)
    theirs = sympy.gcd(to_sympy(p, syms), to_sympy(q, syms))
    theirs_poly = sympy.Poly(theirs, *syms)
    terms = {tuple(int(e) for e in mono): int(c)
             for mono, c in zip(theirs_poly.monoms(), theirs_poly.coeffs())}
    assert ours == normalize_unit(LaurentPoly(nv, terms))


# -- determinant -------------------------------------------------------------

def test_determinant_empty_is_one():
    assert determinant(LaurentMatrix(2, [])).is_one()


def test_determinant_2x2():
    a, b, c, d = (LaurentPoly.variable(4, i) for i in range(4))
    m = LaurentMatrix(4, [[a, b], [c, d]])
    assert determinant(m) == a * d - b * c


def test_determinant_matches_cofactor_oracle():
    rng = random.Random(19)
    for _ in range(100):
        n = rng.randint(1, 4)
        nv = rng.randint(1, 2)
        entries = [[random_poly(rng, nv, max_terms=2, exp_range=2)
                    if rng.random() < 0.7 else LaurentPoly.zero(nv)
                    for _ in range(n)] for _ in range(n)]
        assert determinant(LaurentMatrix(nv, entries)) == \
            cofactor_determinant(entries)


def test_determinant_alternating():
    rng = random.Random(23)
    for _ in range(20):
        n = rng.randint(2, 4)
        entries = [[random_poly(rng, 1, max_terms=2) for _ in range(n)]
                   for _ in range(n)]
        d1 = determinant(LaurentMatrix(1, entries))
        swapped = [entries[1], entries[0]] + entries[2:]
        assert determinant(LaurentMatrix(1, swapped)) == -d1
        # repeated row kills the determinant
        repeated = [entries[0], entries[0]] + entries[2:]
        assert determinant(LaurentMatrix(1, repeated)).is_zero()


def random_square(rng, n, nvars, density):
    return [[random_poly(rng, nvars, max_terms=2, exp_range=2)
             if rng.random() < density else LaurentPoly.zero(nvars)
             for _ in range(n)] for _ in range(n)]


@pytest.mark.parametrize("nvars, largest", [(1, 8), (2, 5)])
def test_determinant_matches_bareiss_on_random_matrices(nvars, largest):
    # sizes beyond the cofactor oracle's reach, sparse to dense
    rng = random.Random(31 + nvars)
    for n in range(1, largest + 1):
        for density in (0.3, 0.6, 1.0) * 3:
            mat = LaurentMatrix(nvars, random_square(rng, n, nvars, density))
            assert determinant(mat) == bareiss_determinant(mat), (n, density)


def census_sigs(path):
    with open(path) as fh:
        return [ln.strip() for ln in fh
                if ln.strip() and not ln.startswith("#")]


def residual_minors(analysis):
    """Every maximal minor of the unit-pivot residual of each
    presentation whose Fitting gcd the analysis takes, the double
    cover's included when there is no sigma."""
    mats = [build(analysis)
            for build in (build_taut_matrix, build_alexander_matrix)]
    if not analysis.eo.sigma_exists:
        mats.append(build_cover_alexander_matrix(analysis))
    for mat in mats:
        residual, saw_zero_row = unit_pivot_reduce(mat)
        assert not saw_zero_row
        for cols in combinations(range(len(residual[0]) if residual else 0),
                                 len(residual)):
            yield LaurentMatrix(mat.nvars,
                                [[row[j] for j in cols] for row in residual])


def test_determinant_matches_bareiss_on_residual_minors():
    # every minor the Fitting gcds of the sample, the extra census and
    # the 14-tet entry's edge-orientation double cover (b1 = 4) take
    analyses = [Analysis(parse_taut_sig(sig))
                for sig in census_sigs(DATA) + census_sigs(EXTRA)]
    fourteen, = [a for a in analyses if a.ts.sig == FOURTEEN]
    analyses.append(Analysis(fourteen.cover))
    shapes = set()
    for analysis in analyses:
        for minor in residual_minors(analysis):
            shapes.add((minor.rows, analysis.h1.rank))
            assert determinant(minor) == bareiss_determinant(minor), \
                analysis.ts.sig
    assert {(1, 1), (2, 1), (1, 2), (4, 2), (4, 4)} <= shapes


def test_determinant_never_divides(monkeypatch):
    def refuse(*args):
        raise AssertionError("the determinant divided")

    monkeypatch.setattr(laurent, "exact_div", refuse)
    monkeypatch.setattr(laurent, "_poly_exact_div", refuse)
    rng = random.Random(37)
    for _ in range(40):
        nvars = rng.randint(1, 2)
        entries = random_square(rng, rng.randint(1, 5), nvars, 0.8)
        assert determinant(LaurentMatrix(nvars, entries)) == \
            cofactor_determinant(entries)


def test_bruteforce_minor_gcd_matches_oracle():
    rng = random.Random(29)
    for _ in range(30):
        rows = rng.randint(1, 3)
        cols = rng.randint(rows, 5)
        entries = [[random_poly(rng, 1, max_terms=2, exp_range=2)
                    if rng.random() < 0.6 else LaurentPoly.zero(1)
                    for _ in range(cols)] for _ in range(rows)]
        m = LaurentMatrix(1, entries)
        assert maximal_minor_gcd_bruteforce(m) == exhaustive_fitting_gcd(m)


def test_minor_gcd_on_sample_residuals():
    # the unit-pivot residuals of the T x (T + 1) presentations, the
    # shapes the stage now sees (r x (r + 1)), against every minor by
    # cofactor expansion
    with open(DATA) as fh:
        sigs = [ln.strip() for ln in fh
                if ln.strip() and not ln.startswith("#")]
    for sig in sigs:
        analysis = Analysis(parse_taut_sig(sig))
        for build in (build_taut_matrix, build_alexander_matrix):
            mat = build(analysis)
            assert (mat.rows, mat.cols) == (analysis.ts.table.n_tet,
                                            analysis.ts.table.n_tet + 1)
            residual, saw_zero_row = unit_pivot_reduce(mat)
            assert not saw_zero_row
            res = LaurentMatrix(mat.nvars, residual)
            assert res.rows == 0 or res.cols == res.rows + 1
            assert maximal_minor_gcd_bruteforce(res) == \
                exhaustive_fitting_gcd(res), (sig, build.__name__)


# -- specialize --------------------------------------------------------------

def test_specialize_identity():
    rng = random.Random(31)
    p = random_poly(rng, 3)
    ident = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert specialize(p, ident) == p


def test_specialize_collapse():
    p = P(2, ((1, 1), 1))           # x1 * x2
    assert specialize(p, [[1, 1]]) == P(1, ((2,), 1))


def test_specialize_is_ring_homomorphism():
    rng = random.Random(37)
    for _ in range(100):
        r = rng.randint(1, 3)
        s = rng.randint(1, 2)
        A = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(s)]
        chi = tuple(rng.choice([1, -1]) for _ in range(r))
        p = random_poly(rng, r, max_terms=3)
        q = random_poly(rng, r, max_terms=3)
        lhs = specialize(p * q, A, sign_source=chi)
        rhs = specialize(p, A, sign_source=chi) * specialize(q, A,
                                                             sign_source=chi)
        assert lhs == rhs


def test_sign_twist_involution():
    rng = random.Random(41)
    for _ in range(50):
        r = rng.randint(1, 3)
        sigma = tuple(rng.choice([1, -1]) for _ in range(r))
        p = random_poly(rng, r)
        assert sign_twist(sign_twist(p, sigma), sigma) == p


def test_sign_source_of_the_wrong_length_rejected():
    # the twist is zipped with each exponent, so a short or long sign
    # vector would silently twist only some of the variables
    x0, x1 = LaurentPoly.variable(2, 0), LaurentPoly.variable(2, 1)
    assert sign_twist(x0 + x1, (-1, 1)) == -x0 + x1
    for sigma in ((-1,), (-1, 1, 1), ()):
        with pytest.raises(ValueError, match="sign source"):
            sign_twist(x0 + x1, sigma)
        with pytest.raises(ValueError, match="sign source"):
            specialize(x0 + x1, [[1, 1]], sign_source=sigma)


# -- serialization -----------------------------------------------------------

def test_json_round_trip():
    rng = random.Random(43)
    for _ in range(50):
        p = normalize_unit(random_poly(rng, rng.randint(1, 3)))
        assert poly_from_json(poly_to_json(p)) == p


def test_json_term_order_graded_lex():
    p = P(2, ((2, 0), 1), ((0, 0), 1), ((1, 1), 1), ((0, 1), -3))
    terms = poly_to_json(p)["terms"]
    keys = [(sum(t["exp"]), tuple(t["exp"])) for t in terms]
    assert keys == sorted(keys)
