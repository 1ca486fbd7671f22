"""Acceptance suite: one test per release criterion, each printing a
single pass/fail line under pytest -v.

Criteria touching the full Veering Census are gated on the
VEERPOLY_CENSUS environment variable (path to the census file, one
signature per line); everything else runs on the bundled sample."""

import math
import os
import random
from fractions import Fraction
from itertools import product

import numpy
import pytest

from bundles import bundle_sig, both_letter_words
from oracles import (all_columns_matrices, cofactor_determinant,
                     exhaustive_fitting_gcd, fox_alexander_polynomial,
                     variant_analysis)
from test_invariants import (coboundary_variant, permuted_structure,
                             random_laurent_matrix)
from veerpoly.census_io import parse_taut_sig
from veerpoly.homology import int_matmul, smith_normal_form
from veerpoly.invariants import (Analysis, build_alexander_matrix,
                                 build_taut_matrix, fitting_gcd,
                                 verify_identities)
from veerpoly.filling import (FillingSpec, filled_homology,
                              predict_filled_alexander, vertex_links)
from veerpoly.laurent import (LaurentPoly, determinant, normalize_unit,
                              sign_twist, specialize)

FOURTEEN = "oLLLLLPwQQcccefgijlmkklnnnlnewbnetafobnkj_12001112122200"
M003 = "cPcbbbdxm_10"
M004 = "cPcbbbiht_12"
DATA = os.path.join(os.path.dirname(__file__), "data", "sample_census.txt")

# printed 18-term reference polynomials for the 14-tet entry, in the
# reference basis (a, b); exponent -> coefficient
REF_THETA = {
    (7, 1): 1, (6, 2): -1, (5, 3): -1, (4, 4): 1,
    (6, 1): -1, (5, 2): -2, (4, 3): 2, (3, 4): 2, (1, 6): -1,
    (6, 0): -1, (4, 2): 2, (3, 3): 2, (2, 4): -2, (1, 5): -1,
    (3, 2): 1, (2, 3): -1, (1, 4): -1, (0, 5): 1,
}
REF_DELTA = {
    (7, 1): 1, (6, 2): 1, (5, 3): 1, (4, 4): 1,
    (6, 1): 1, (4, 3): 2, (3, 4): 2, (2, 5): 2, (1, 6): 1,
    (6, 0): 1, (5, 1): 2, (4, 2): 2, (3, 3): 2, (1, 5): 1,
    (3, 2): 1, (2, 3): 1, (1, 4): 1, (0, 5): 1,
}


def sample_sigs():
    with open(DATA) as fh:
        return [ln.strip() for ln in fh
                if ln.strip() and not ln.startswith("#")]


def unimodular_matches(poly, ref, bound=3):
    """Is poly equal to ref up to a unit and a GL(2, Z) exponent change
    with entries bounded by `bound`?  Returns the matching matrices."""
    want = normalize_unit(LaurentPoly(2, dict(ref)))
    hits = []
    for m in product(range(-bound, bound + 1), repeat=4):
        if m[0] * m[3] - m[1] * m[2] not in (1, -1):
            continue
        mapped = LaurentPoly(2, {(m[0] * e[0] + m[1] * e[1],
                                  m[2] * e[0] + m[3] * e[1]): c
                                 for e, c in poly.terms.items()})
        if normalize_unit(mapped) == want:
            hits.append(m)
    return hits


def test_criterion_1_fourteen_tet_reference_regression():
    # 14-tet entry: computed polynomials match the printed 18-term
    # reference pair up to unit and a bounded unimodular basis change
    report = Analysis(parse_taut_sig(FOURTEEN))
    assert len(report.theta.terms) == 18
    assert len(report.delta.terms) == 18
    theta_maps = unimodular_matches(report.theta, REF_THETA)
    delta_maps = unimodular_matches(report.delta, REF_DELTA)
    assert theta_maps, "no basis change matches the reference theta"
    assert delta_maps, "no basis change matches the reference delta"
    # one H1 basis identification must explain both polynomials at once
    assert set(theta_maps) & set(delta_maps)


def test_criterion_2_edge_orientability_regression():
    from bundles import encode_isosig
    ts = parse_taut_sig(M003)
    analysis = Analysis(ts)
    assert not analysis.eo.edge_orientable
    from veerpoly.taut import build_double_cover
    cover, connected = build_double_cover(ts, analysis.coor,
                                          analysis.eo.beta)
    assert connected
    assert cover.table.n_tet == 4
    # re-encode and re-parse so the cover passes the full veering
    # validation (angle sums, transversality, colouring)
    cover_sig = encode_isosig(cover.table.gluings, cover.digits)
    reparsed = parse_taut_sig(cover_sig)
    assert reparsed.table.n_tet == 4
    assert Analysis(reparsed).eo.edge_orientable


def test_criterion_3_identity_suite_on_sample():
    sigs = sample_sigs()
    assert len(sigs) >= 200 and FOURTEEN in sigs
    failures = []
    for sig in sigs:
        record = verify_identities(Analysis(parse_taut_sig(sig)))
        if not record["passed"]:
            failures.append((sig, record))
    assert failures == []


def test_criterion_4_full_census_statistics():
    path = os.environ.get("VEERPOLY_CENSUS")
    if not path:
        pytest.skip("full census not available: set VEERPOLY_CENSUS to "
                    "the census file (one signature per line, 87047 "
                    "entries) to enable this gate")
    with open(path) as fh:
        sigs = [ln.split()[0] for ln in fh
                if ln.strip() and not ln.startswith("#")]
    assert len(sigs) == 87047
    from veerpoly.cli import entry_record
    not_eo = same = doubled = 0
    for sig in sigs:
        rec = entry_record(sig, with_polynomials=False)
        if rec["edge_orientable"]:
            continue
        not_eo += 1
        if rec["cover_cusps"] == rec["cusps"]:
            same += 1
        elif rec["cover_cusps"] == 2 * rec["cusps"]:
            doubled += 1
    assert not_eo == 62536
    assert same == 49637
    assert doubled == 5854


def _int_det(rows):
    """Exact determinant of a small integer matrix via Fraction
    elimination (reference arithmetic only)."""
    n = len(rows)
    a = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for j in range(n):
        pivot = next((i for i in range(j, n) if a[i][j]), None)
        if pivot is None:
            return 0
        if pivot != j:
            a[j], a[pivot] = a[pivot], a[j]
            det = -det
        det *= a[j][j]
        inv = 1 / a[j][j]
        for i in range(j + 1, n):
            if a[i][j]:
                f = a[i][j] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[j])]
    assert det.denominator == 1
    return int(det)


def test_criterion_5_oracle_equivalence():
    rng = random.Random(5005)
    # fitting gcd versus exhaustive minor enumeration
    for _ in range(100):
        rows = rng.randint(1, 3)
        cols = rng.randint(rows, 6)
        mat = random_laurent_matrix(rng, rows, cols, rng.randint(1, 2))
        assert normalize_unit(fitting_gcd(mat)) == exhaustive_fitting_gcd(mat)
    # both presentation matrices of the two-tet entry: 2x3 as built,
    # 2x4 with the tree's column
    analysis = Analysis(parse_taut_sig(M003))
    for build, full in zip((build_taut_matrix, build_alexander_matrix),
                           all_columns_matrices(analysis)):
        mat = build(analysis)
        assert (len(mat.entries), len(mat.entries[0])) == (2, 3)
        assert (len(full.entries), len(full.entries[0])) == (2, 4)
        for m in (mat, full):
            assert normalize_unit(fitting_gcd(m)) == exhaustive_fitting_gcd(m)
    # determinant versus cofactor expansion
    for _ in range(100):
        n = rng.randint(1, 4)
        mat = random_laurent_matrix(rng, n, n, rng.randint(1, 2))
        assert determinant(mat) == cofactor_determinant(mat.entries)
    # Smith normal form: D = U * A * V with unimodular U, V
    for _ in range(100):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        A = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        snf = smith_normal_form(A)
        D = int_matmul(int_matmul(snf.U, A), snf.V)
        for i in range(m):
            for j in range(n):
                want = snf.diag[i] if i == j and i < len(snf.diag) else 0
                assert D[i][j] == want
        assert _int_det(snf.U) in (1, -1)
        assert _int_det(snf.V) in (1, -1)
        assert all(d >= 0 for d in snf.diag)
        for d, e in zip(snf.diag, snf.diag[1:]):
            if d:
                assert e % d == 0
            else:
                assert e == 0


def test_criterion_6_figure_eight_cross_check():
    report = Analysis(parse_taut_sig(M004))
    # independent Fox-calculus route to the Alexander polynomial of the
    # once-punctured-torus bundle group
    gens = {"x": 0, "y": 0, "t": 1}
    oracle = fox_alexander_polynomial(gens, [
        [("t", 1), ("x", 1), ("t", -1), ("y", -1), ("x", -1)],
        [("t", 1), ("y", 1), ("t", -1), ("y", -1), ("x", -1), ("y", -1)],
    ])
    t = LaurentPoly.variable(1, 0)
    one = LaurentPoly.one(1)
    assert oracle == normalize_unit(t * t - 3 * t + one)
    assert normalize_unit(report.delta) == oracle
    # the sign-twist identity with the computed sigma
    assert report.eo.sigma is not None
    assert normalize_unit(report.theta) == \
        normalize_unit(sign_twist(report.delta, report.eo.sigma))
    # largest real root of the identity-specialised taut polynomial
    twisted = sign_twist(report.theta, report.eo.sigma)
    exps = sorted(e[0] for e in twisted.terms)
    lo, hi = exps[0], exps[-1]
    coeffs = [twisted.terms.get((e,), 0) for e in range(hi, lo - 1, -1)]
    roots = numpy.roots(coeffs)
    real = [r.real for r in roots if abs(r.imag) < 1e-9]
    assert real
    assert abs(max(real) - 2.6180) < 1e-4


def test_criterion_7_presentation_invariance():
    rng = random.Random(777)
    sigs = [s for s in sample_sigs()
            if parse_taut_sig(s).table.n_tet <= 8][:20]
    assert len(sigs) == 20
    for sig in sigs:
        ts = parse_taut_sig(sig)
        base = Analysis(ts)
        ref = (normalize_unit(fitting_gcd(build_taut_matrix(base))),
               normalize_unit(fitting_gcd(build_alexander_matrix(base))))
        n_tet = ts.table.n_tet
        perm = list(range(n_tet))
        rng.shuffle(perm)
        flipped = variant_analysis(ts, flip=True)
        assert flipped.coor.top_slot == base.coor.bot_slot
        variants = [
            Analysis(permuted_structure(ts, perm, [(0, 1, 2, 3)] * n_tet)),
            coboundary_variant(ts),
            flipped,
        ]
        for variant in variants:
            got = (normalize_unit(fitting_gcd(build_taut_matrix(variant))),
                   normalize_unit(fitting_gcd(
                       build_alexander_matrix(variant))))
            assert got == ref, sig


def test_criterion_8_filling_cross_route():
    rng = random.Random(888)
    words = [(w, -1 if w.count("L") % 2 else 1)
             for length in range(2, 7) for w in both_letter_words(length)]
    pairs = rng.sample(words, 20)
    for word, eps in pairs:
        ts = parse_taut_sig(bundle_sig(word, eps))
        analysis = Analysis(ts)
        cusps = vertex_links(ts, analysis.coor, analysis.cycles,
                             analysis.h1)
        (fa, _), (fb, _) = cusps[0].periph_class
        fa, fb = fa[0], fb[0]
        g = math.gcd(fa, fb)
        slope = (-fb // g, fa // g)
        if rng.random() < 0.5:
            slope = (-slope[0], -slope[1])
        fh = filled_homology(analysis.h1, cusps, FillingSpec({0: slope}),
                             eo=analysis.eo)
        assert fh.sigma_N is not None, (word, eps)
        theta = fitting_gcd(build_taut_matrix(analysis))
        delta = fitting_gcd(build_alexander_matrix(analysis))
        i_theta = specialize(theta, fh.i_star)
        i_delta = specialize(delta, fh.i_star)
        assert normalize_unit(i_theta) == \
            normalize_unit(sign_twist(i_delta, fh.sigma_N)), (word, eps)
        case, delta_n, _ = predict_filled_alexander(i_theta, fh)
        assert case == "II(b)", (word, eps)
        assert delta_n is not None, (word, eps)
