"""Dehn-filling layer: cusp cross-sections, filled homology, and the
specialisation that predicts the filled manifold's Alexander polynomial.

Closed fibre-slope fillings of the once-punctured-torus bundles give a
complete independent check: the filled manifold is the mapping torus of
a torus homeomorphism, so its homology and Alexander polynomial follow
from the monodromy matrix alone (tests/bundles.py)."""

import math
import os
from itertools import product

import pytest

from bundles import (bundle_sig, bundle_homology, bundle_filled_trace,
                     both_letter_words)
from oracles import (abelian_group_from_relations, reference_face_vector,
                     reference_predict_filled_alexander,
                     reference_slope_face_vectors, reference_vertex_links,
                     vertex_classes_bfs)
from veerpoly.census_io import CensusError, parse_taut_sig
from veerpoly.taut import build_double_cover
from veerpoly.invariants import (Analysis, build_taut_matrix,
                                 build_alexander_matrix, fitting_gcd)
from veerpoly.filling import (FilledHomology, FillingSpec, parse_slopes,
                              vertex_links, filled_homology,
                              predict_filled_alexander)
from veerpoly.homology import int_matmul
from veerpoly.laurent import (LaurentPoly, normalize_unit, sign_twist,
                              specialize)

M003 = "cPcbbbdxm_10"
FOURTEEN = "oLLLLLPwQQcccefgijlmkklnnnlnewbnetafobnkj_12001112122200"
DATA = os.path.join(os.path.dirname(__file__), "data", "sample_census.txt")


def sample_sigs(limit=None):
    with open(DATA) as fh:
        sigs = [ln.strip() for ln in fh
                if ln.strip() and not ln.startswith("#")]
    return sigs[:limit]


def analyse(sig):
    ts = parse_taut_sig(sig)
    a = Analysis(ts)
    cusps = vertex_links(ts, a.coor, a.cycles, a.h1)
    return a, cusps


def fibre_slope(cusp):
    """The filling slope whose class dies in free homology: for a
    fibred manifold with one cusp and b_1 = 1 this is the boundary of
    the fibre, up to sign."""
    (fa, _), (fb, _) = cusp.periph_class
    fa, fb = fa[0], fb[0]
    assert (fa, fb) != (0, 0)
    g = math.gcd(fa, fb)
    return (-fb // g, fa // g)


def slope_coords(cusp, slope):
    """The kernel coordinates x*a + y*b of a slope (x, y) on a cusp,
    the relation ``filled_homology`` adds for it."""
    (x, y), (za, zb) = slope, cusp.basis
    return [x * p + y * q for p, q in zip(za, zb)]


def invert_vars(p):
    return LaurentPoly(p.nvars,
                       {tuple(-e for e in exp): c for exp, c in p.terms.items()})


def same_up_to_unit_and_inversion(p, q):
    return normalize_unit(p) in (normalize_unit(q),
                                 normalize_unit(invert_vars(q)))


# ---------------------------------------------------------------- links

def test_two_tet_cusp_cross_section():
    a, cusps = analyse(M003)
    assert len(cusps) == 1
    c = cusps[0]
    assert c.corners == a.ts.table.vertices[0]
    # one triangle per (tet, vertex) corner: 4 * 2 tets
    assert len(c.corners) == 8
    # the side-space reference: three sides on each of the 4 faces
    ref, = reference_vertex_links(a.ts, a.coor, a.cycles)
    assert len(ref.sides) == len(ref.side_faces) == 12
    assert sorted(f for f, _ in ref.side_faces) == sorted(list(range(4)) * 3)
    # torus: two basis curves, in kernel coordinates, each classified in
    # H1 as (free, torsion)
    assert len(c.basis) == 2
    assert all(len(y) == a.h1.q for y in c.basis)
    assert len(c.periph_class) == 2
    for free, tors in c.periph_class:
        assert len(free) == a.h1.rank
        assert len(tors) == len(a.h1.torsion)


def test_cusp_counts_and_triangle_total_across_sample():
    for sig in sample_sigs(25):
        a, cusps = analyse(sig)
        n_tet = a.ts.table.n_tet
        # every tetrahedron corner contributes one link triangle
        assert sum(len(c.corners) for c in cusps) == 4 * n_tet
        for c in cusps:
            assert len(c.basis) == 2


def test_vertex_classes_match_bfs_oracle():
    # the cusps are the gluing table's union-find vertex classes; a BFS
    # over the gluings must find the same classes in the same order, on
    # every sample entry and on each non-edge-orientable entry's cover
    covers = 0
    for sig in sample_sigs():
        ts = parse_taut_sig(sig)
        assert ts.table.vertices == vertex_classes_bfs(ts.table), sig
        a = Analysis(ts)
        if not a.eo.edge_orientable:
            cover = a.cover.table
            assert cover.vertices == vertex_classes_bfs(cover), sig
            covers += 1
    assert covers > 0


def test_fourteen_tet_has_two_cusps():
    a, cusps = analyse(FOURTEEN)
    assert len(cusps) == 2
    # cusp j, by list position, is the table's vertex class j
    assert [c.corners for c in cusps] == a.ts.table.vertices


# ------------------------------------------ side-space reference

WINDOW = [(x, y) for x in range(-2, 3) for y in range(-2, 3)
          if math.gcd(x, y) == 1]
# one orientation of each slope in the window
WINDOW_UP_TO_SIGN = [(x, y) for x, y in WINDOW if (y, x) > (0, 0)]


def reference_analyses():
    """Analysis of every sample entry, each followed by its double cover
    when it is not edge-orientable (the 14-tet entry's is the rank-4
    cover with four cusps), and of the bundles of both-letter words of
    length 2-5 in both signs that the sample does not hold."""
    sigs = sample_sigs()
    for sig in sigs:
        a = Analysis(parse_taut_sig(sig))
        yield a
        if not a.eo.edge_orientable:
            yield Analysis(a.cover)
    bundles = {bundle_sig(w, eps) for length in range(2, 6)
               for w in both_letter_words(length) for eps in (1, -1)}
    for sig in sorted(bundles - set(sigs)):
        yield Analysis(parse_taut_sig(sig))


def check_filling_against_reference(a, cusps, refs, slopes):
    """filled_homology against the earlier route: slopes and dual slopes
    as face vectors of side-space link cycles, read in kernel
    coordinates, and sigma_N by pairing beta with the slopes' face
    vectors and with N's generators.  Returns the FilledHomology."""
    h1, n_faces = a.h1, len(a.ts.table.faces)
    fh = filled_homology(h1, cusps, FillingSpec(slopes), eo=a.eo)
    quot = fh.n_quot
    # the base's relations, then each slope's kernel coordinates
    columns = [[order * x for x in h1.quot.generator_lift(p)]
               for p, order in enumerate(h1.quot.orders) if order]
    factors = a.eo.sigma_exists
    for j, slope in sorted(slopes.items()):
        vec, dual = reference_slope_face_vectors(refs[j], n_faces, slope)
        columns.append(h1.cycle_kernel_coords(vec))
        assert columns[-1] == slope_coords(cusps[j], slope)
        ell = quot.class_free(h1.cycle_kernel_coords(dual))
        assert fh.cores[j] == ell
        factors &= sum(b * v for b, v in zip(a.eo.beta, vec)) % 2 == 0
    # n_quot's Smith form diagonalises exactly these columns: U * R * V
    # is diagonal only for R = U^-1 D V^-1, n_quot's relation matrix
    R = [[col[i] for col in columns] for i in range(h1.q)]
    D = int_matmul(int_matmul(quot.snf.U, R), quot.snf.V)
    assert D == [[quot.snf.diag[i] if i == k else 0
                  for k in range(len(columns))] for i in range(h1.q)]
    assert list(fh.cores) == sorted(slopes)
    lifts = [quot.class_free(h1.quot.generator_lift(p))
             for p in h1.quot.free_positions]
    assert fh.i_star == ([[col[i] for col in lifts]
                          for i in range(quot.rank)] if quot.rank else None)
    if factors:
        omega = {p: sum(b * z for b, z in zip(a.eo.beta, h1.kernel_to_cycle(
            quot.generator_lift(p)))) % 2
            for p in quot.free_positions + quot.torsion_positions}
        factors = not any(omega[p] for p in quot.torsion_positions)
    assert fh.sigma_N == (tuple(-1 if omega[p] else 1
                                for p in quot.free_positions)
                          if factors else None)
    return fh


def test_links_and_fillings_match_side_space_reference():
    # vertex_links carries each link basis cycle to kernel coordinates
    # once, and filled_homology combines those; the earlier route kept
    # the basis in side space and mapped every slope and dual slope to
    # faces and then to kernel coordinates.  Each cusp alone is filled
    # at every primitive slope with |x|, |y| <= 2 (one orientation of
    # each on one-cusp structures), and all cusps of a multi-cusp
    # structure together at slopes from that window
    structures = fillings = 0
    for a in reference_analyses():
        ts, h1 = a.ts, a.h1
        cusps = vertex_links(ts, a.coor, a.cycles, h1)
        refs = reference_vertex_links(ts, a.coor, a.cycles)
        assert [c.corners for c in cusps] == [r.corners for r in refs]
        for c, r in zip(cusps, refs):
            basis = tuple(h1.cycle_kernel_coords(
                reference_face_vector(r, len(ts.table.faces), e))
                for e in ((1, 0), (0, 1)))
            assert c.basis == basis, ts.sig
            assert c.periph_class == tuple(h1.quot.class_coords(y)
                                           for y in basis)
        window = WINDOW if len(cusps) > 1 else WINDOW_UP_TO_SIGN
        cases = [{j: slope} for j in range(len(cusps)) for slope in window]
        if len(cusps) > 1:
            cases += [{j: WINDOW[(j + k) % len(WINDOW)]
                       for j in range(len(cusps))} for k in range(4)]
        for slopes in cases:
            check_filling_against_reference(a, cusps, refs, slopes)
        structures += 1
        fillings += len(cases)
    assert structures > 400 and fillings > 3000


# ------------------------------------------------- filled homology

def presentation_oracle(h1, cusps, spec):
    """H1 of the filled manifold from the public peripheral classes:
    start from Z^r + sum Z/d_i and kill x*mu + y*lambda per filled
    cusp.  Entirely independent of the face-vector route inside
    filled_homology."""
    r, torsion = h1.rank, h1.torsion
    n = r + len(torsion)
    rels = []
    for i, d in enumerate(torsion):
        row = [0] * n
        row[r + i] = d
        rels.append(row)
    for j, (x, y) in spec.slopes.items():
        (mf, mt), (lf, lt) = cusps[j].periph_class
        row = [x * a + y * b for a, b in zip(mf + mt, lf + lt)]
        rels.append(row)
    return abelian_group_from_relations(n, rels)


SINGLE_SLOPES = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (3, -2)]


def test_filled_homology_matches_presentation_oracle():
    cases = []
    for sig in (M003, "cPcbbbiht_12", bundle_sig("RLLRL", -1)):
        cases += [(sig, {0: sl}) for sl in SINGLE_SLOPES]
    cases += [(FOURTEEN, {j: sl}) for j in (0, 1) for sl in SINGLE_SLOPES]
    cases += [(FOURTEEN, {0: s0, 1: s1})
              for s0 in [(1, 0), (1, 1)] for s1 in [(0, 1), (2, 1)]]
    done = {}
    for sig, slopes in cases:
        if sig not in done:
            done[sig] = analyse(sig)
        a, cusps = done[sig]
        spec = FillingSpec(slopes)
        fh = filled_homology(a.h1, cusps, spec, eo=a.eo)
        rank, torsion = presentation_oracle(a.h1, cusps, spec)
        assert fh.n_quot.rank == rank, (sig, slopes)
        assert list(fh.n_quot.torsion) == torsion, (sig, slopes)
        assert fh.s == rank
        assert list(fh.cores) == sorted(slopes)
        assert fh.boundary_empty == (len(slopes) == len(cusps))


def test_fill_all_cusps_gives_closed_homology():
    a, cusps = analyse(FOURTEEN)
    fh = filled_homology(a.h1, cusps, FillingSpec({0: (1, 0), 1: (0, 1)}),
                         eo=a.eo)
    assert fh.boundary_empty
    rank, torsion = presentation_oracle(
        a.h1, cusps, FillingSpec({0: (1, 0), 1: (0, 1)}))
    assert (fh.n_quot.rank, list(fh.n_quot.torsion)) == (rank, torsion)


# ------------------------------------ fibre-slope fillings of bundles

def bundle_words(max_len):
    for length in range(2, max_len + 1):
        for w in both_letter_words(length):
            yield w, (-1 if w.count("L") % 2 else 1)


def test_fibre_filling_matches_monodromy_homology():
    for word, eps in bundle_words(5):
        a, cusps = analyse(bundle_sig(word, eps))
        fh = filled_homology(a.h1, cusps,
                             FillingSpec({0: fibre_slope(cusps[0])}), eo=a.eo)
        assert fh.s == 1
        assert fh.boundary_empty
        # H1 of the closed mapping torus: Z + coker(monodromy - I)
        assert list(fh.n_quot.torsion) == bundle_homology(word, eps)[1]


def test_fibre_filling_prediction_matches_characteristic_polynomial():
    t = LaurentPoly.variable(1, 0)
    one = LaurentPoly.one(1)
    for word, eps in bundle_words(4):
        a, cusps = analyse(bundle_sig(word, eps))
        fh = filled_homology(a.h1, cusps,
                             FillingSpec({0: fibre_slope(cusps[0])}), eo=a.eo)
        assert fh.sigma_N is not None, (word, eps)
        theta = fitting_gcd(build_taut_matrix(a))
        i_theta = specialize(theta, fh.i_star)
        case, delta_n, equality_expected = \
            predict_filled_alexander(i_theta, fh)
        assert case == "II(b)"
        assert delta_n is not None
        # the filled manifold fibres over the circle with torus fibre;
        # its Alexander polynomial is the monodromy characteristic
        # polynomial  t^2 - tr(eps * W) t + 1  up to units
        tr = bundle_filled_trace(word, eps)
        want = t * t - tr * t + one
        assert same_up_to_unit_and_inversion(delta_n, want), (word, eps)
        # core generates H1(N)/torsion here, so exact equality holds
        assert fh.cores[0] in ((1,), (-1,))
        assert equality_expected
        assert normalize_unit(sign_twist(delta_n, fh.sigma_N)) == \
            normalize_unit(i_theta), (word, eps)


def test_fibre_slope_is_where_sigma_n_lives():
    # scanning all primitive slopes in a small window: the variable-sign
    # vector of the filled manifold exists only at the fibre slope
    a, cusps = analyse(M003)
    fib = fibre_slope(cusps[0])
    for x in range(-2, 3):
        for y in range(-2, 3):
            if math.gcd(x, y) != 1:
                continue
            fh = filled_homology(a.h1, cusps, FillingSpec({0: (x, y)}),
                                 eo=a.eo)
            on_fibre = (x, y) in (fib, (-fib[0], -fib[1]))
            assert (fh.s == 1) == on_fibre
            assert (fh.sigma_N is not None) == on_fibre
            if on_fibre:
                assert fh.sigma_N == (-1,)


def test_sigma_n_matches_beta_on_filled_cycles():
    # filled_homology reads omega off kernel coordinates; pairing
    # beta with the slope's face vector (from the side-space reference)
    # and with each filled generator's rebuilt face cycle must give the
    # same sigma_N, here also with every cusp filled and at fibre slopes
    cases = [(M003, (x, y)) for x in range(-2, 3) for y in range(-2, 3)
             if math.gcd(x, y) == 1]
    cases += [(sig, (1, 0)) for sig in sample_sigs(30) + [FOURTEEN]]
    cases += [(bundle_sig("RRLL", 1), None), (bundle_sig("RLL", -1), None)]
    found = 0
    for sig, slope in cases:
        a, cusps = analyse(sig)
        slopes = {j: slope or fibre_slope(cusps[0])
                  for j in range(len(cusps))}
        fh = check_filling_against_reference(
            a, cusps, reference_vertex_links(a.ts, a.coor, a.cycles), slopes)
        found += fh.sigma_N is not None
    assert found >= 3


def test_slope_sign_robustness():
    a, cusps = analyse(M003)
    theta = fitting_gcd(build_taut_matrix(a))
    preds = []
    for sl in [(1, 2), (-1, -2)]:
        fh = filled_homology(a.h1, cusps, FillingSpec({0: sl}), eo=a.eo)
        preds.append(predict_filled_alexander(specialize(theta, fh.i_star),
                                              fh))
    (p_case, p, _), (q_case, q, _) = preds
    assert p_case == q_case == "II(b)"
    assert p is not None and q is not None
    assert same_up_to_unit_and_inversion(p, q)


# -------------------------------------------- empty filling (k = 0)

def test_empty_filling_recovers_sign_twist_identity():
    # with nothing filled the prediction machinery must reproduce the
    # unfilled relation: Delta = sign-twisted Theta
    for sig in (M003, bundle_sig("RLL", -1), bundle_sig("RRLL", 1)):
        a, cusps = analyse(sig)
        theta = fitting_gcd(build_taut_matrix(a))
        delta = fitting_gcd(build_alexander_matrix(a))
        fh = filled_homology(a.h1, cusps, FillingSpec({}), eo=a.eo)
        assert fh.cores == {} and fh.s == a.h1.rank
        assert not fh.boundary_empty
        case, delta_n, equality_expected = predict_filled_alexander(
            specialize(theta, fh.i_star), fh)
        assert case == "II(a)"
        assert delta_n is not None and equality_expected
        assert normalize_unit(delta_n) == normalize_unit(delta)


def test_empty_filling_without_sign_vector_is_rejected():
    # the 14-tet entry has no variable-sign vector, so the identity
    # solver must refuse even the trivial filling
    a, cusps = analyse(FOURTEEN)
    theta = fitting_gcd(build_taut_matrix(a))
    fh = filled_homology(a.h1, cusps, FillingSpec({}), eo=a.eo)
    assert fh.sigma_N is None
    assert predict_filled_alexander(specialize(theta, fh.i_star), fh) is None


# --------------------------------------------- rank >= 2 target

def test_rank_four_cover_filling_structure():
    # the edge-orientation double cover of the 14-tet entry has four
    # cusps and b_1 = 4; filling one cusp leaves s = 3, the only
    # in-census route to a rank >= 2 target.  (Its taut polynomial is
    # left out here: the cover's ``fill`` and ``batch --verify`` records
    # are replayed byte for byte in test_pipeline.py, each well under a
    # second now that gcd orders the variables.  The identity algebra
    # for these cases is covered by the synthetic solver tests below.)
    a, _ = analyse(FOURTEEN)
    cover, connected = build_double_cover(a.ts, a.coor, a.eo.beta)
    assert connected
    ca = Analysis(cover)
    assert ca.h1.rank == 4
    cusps = vertex_links(cover, ca.coor, ca.cycles, ca.h1)
    assert len(cusps) == 4
    fh = filled_homology(ca.h1, cusps, FillingSpec({0: (1, 0)}), eo=ca.eo)
    assert fh.s == 3 and not fh.boundary_empty
    assert fh.sigma_N == (1, 1, 1)
    assert any(fh.cores[0])
    # the two-route oracle also covers the rank-4 cover
    rank, torsion = presentation_oracle(ca.h1, cusps,
                                        FillingSpec({0: (1, 0)}))
    assert (fh.n_quot.rank, list(fh.n_quot.torsion)) == (rank, torsion)

    # filling three cusps with these slopes makes one core curve die in
    # free homology; the solver must refuse before dividing (hence a
    # stand-in polynomial in the filled ring)
    fh3 = filled_homology(ca.h1, cusps,
                          FillingSpec({0: (1, 0), 1: (1, 0), 2: (1, 0)}),
                          eo=ca.eo)
    assert not any(fh3.cores[2])
    assert predict_filled_alexander(LaurentPoly.one(fh3.s), fh3) is None


# -------------------------------- solver algebra on handcrafted data

class _StubQuot:
    def __init__(self, rank):
        self.rank = rank
        self.torsion = []


def synthetic_filling(r, s, filled, boundary_empty, sigma_n, ell_frees):
    """A FilledHomology carrying only the fields the identity solver
    reads, for exercising case branches whose census witnesses are too
    expensive to compute here."""
    i_star = [[1 if i == j else 0 for j in range(r)] for i in range(s)]
    return FilledHomology(r, boundary_empty, _StubQuot(s), i_star,
                          dict(zip(filled, ell_frees)), sigma_n)


def test_solver_case_one_a_recovers_planted_polynomial():
    # r = 3 -> s = 2, one filled cusp, sigma_N = (1, -1): no h-factor,
    # one core factor.  i_theta := sign_twist(target) * ([l] - sigma([l]))
    # must come back as exactly the planted target.
    u0 = LaurentPoly.variable(2, 0)
    u1 = LaurentPoly.variable(2, 1)
    one = LaurentPoly.one(2)
    target = u0 * u0 * u1 + 3 * u0 * u1 + u1 + 7 * one
    sigma_n = (1, -1)
    ell = (1, 1)       # sigma_N([l]) = -1, so the factor is u0*u1 + 1
    denom = u0 * u1 + one
    fh = synthetic_filling(3, 2, [0], False, sigma_n, [ell])
    i_theta = sign_twist(target, sigma_n) * denom
    case, delta_n, equality_expected = predict_filled_alexander(i_theta, fh)
    assert case == "I(a)"
    assert delta_n is not None
    assert not equality_expected
    assert delta_n == target


def test_solver_case_one_b_boundary():
    # r = 2 -> s = 1 with boundary left: one (h - sigma_N(h)) factor
    # joins the numerator and must cancel against the core factor
    t = LaurentPoly.variable(1, 0)
    one = LaurentPoly.one(1)
    i_theta = t * t + 3 * t + one
    fh = synthetic_filling(2, 1, [0], False, (-1,), [(1,)])
    case, delta_n, equality_expected = predict_filled_alexander(i_theta, fh)
    assert case == "I(b)-boundary"
    assert delta_n is not None
    # (h + 1) appears in both numerator and denominator, so the result
    # is just the sign twist of the specialised polynomial
    assert delta_n == sign_twist(i_theta, (-1,))
    assert equality_expected   # s=1, boundary, k=1, core generates


def test_solver_case_one_b_closed():
    # r = 2 -> s = 1 closed: two core factors against (h - sigma_N(h))^2
    t = LaurentPoly.variable(1, 0)
    one = LaurentPoly.one(1)
    i_theta = t * t + 3 * t + one
    fh = synthetic_filling(2, 1, [0, 1], True, (-1,), [(1,), (-1,)])
    case, delta_n, equality_expected = predict_filled_alexander(i_theta, fh)
    assert case == "I(b)-closed"
    assert delta_n is not None
    # denominator (t+1)(t^-1+1) = t^-1 (t+1)^2, numerator gains (t+1)^2
    assert delta_n == sign_twist(t * i_theta, (-1,))
    assert equality_expected   # s=1, closed, k=2, cores generate


def test_solver_reports_failed_division():
    # a numerator the core factor does not divide must be reported as a
    # violated hypothesis (no delta_N), not raised
    t = LaurentPoly.variable(1, 0)
    one = LaurentPoly.one(1)
    fh = synthetic_filling(2, 1, [0], False, (1,), [(2,)])
    # denominator t^2 - 1; numerator (t^3 + 7)(t - 1) is not divisible
    i_theta = (t * t * t + 7 * one) * (t - one)
    case, delta_n, _ = predict_filled_alexander(i_theta, fh)
    assert case == "I(b)-boundary"
    assert delta_n is None


def test_solver_takes_the_polynomial_in_the_filled_ring():
    # the solver reads i_star(theta), in s variables; theta itself, in
    # r variables, is refused rather than read in the wrong ring
    a, cusps = analyse(M003)
    theta = fitting_gcd(build_taut_matrix(a))
    fh = filled_homology(a.h1, cusps, FillingSpec({}), eo=a.eo)
    assert fh.s == 1
    assert predict_filled_alexander(specialize(theta, fh.i_star),
                                    fh)[1] is not None
    fh = synthetic_filling(3, 2, [0], False, (1, -1), [(1, 1)])
    with pytest.raises(ValueError, match="3 variables, expected s = 2"):
        predict_filled_alexander(LaurentPoly.one(3), fh)


def core_classes(s):
    """Core classes for the decision grid: zero, the generators +-e_0
    that make equality possible when s = 1, 2 e_0, and for s >= 2 the
    classes e_0 + e_1 and e_(s-1)."""
    e = [tuple(int(i == j) for i in range(s)) for j in range(s)]
    classes = [(0,) * s, e[0], tuple(-x for x in e[0]),
               tuple(2 * x for x in e[0])]
    if s >= 2:
        classes += [tuple(a + b for a, b in zip(e[0], e[1])), e[s - 1]]
    return classes


def test_solver_decides_as_the_earlier_rule():
    # every (b1, s, k, boundary_empty, sigma_N, core classes) with
    # 1 <= s <= b1 <= 4 and k <= 3: the solver returns None exactly where
    # the earlier solver raised CensusError (no sigma_N, a trivial core),
    # and elsewhere the earlier case, candidate, division flag and
    # four-branch equality rule.  i_theta is the product of the core
    # factors, so that the division succeeds, or that product plus one
    cases = 0
    for b1, s, k in [(b1, s, k) for b1 in range(1, 5)
                     for s in range(1, b1 + 1) for k in range(4)]:
        sigmas = [None, (1,) * s, (-1,) + (1,) * (s - 1)]
        for ells, boundary_empty, sigma_n in product(
                product(core_classes(s), repeat=k), (False, True), sigmas):
            fh = synthetic_filling(b1, s, range(k), boundary_empty, sigma_n,
                                   ells)
            factors = LaurentPoly.one(s)
            for ell in ells:
                if any(ell) and sigma_n:
                    sig = math.prod(sg for sg, x in zip(sigma_n, ell)
                                    if x % 2)
                    factors = factors * LaurentPoly(s, {ell: 1,
                                                        (0,) * s: -sig})
            for i_theta in (factors, factors + LaurentPoly.one(s)):
                try:
                    want = reference_predict_filled_alexander(i_theta, fh)
                except CensusError:
                    want = None
                got = predict_filled_alexander(i_theta, fh)
                label = (b1, s, ells, boundary_empty, sigma_n)
                if want is None:
                    assert got is None, label
                else:
                    case, delta_n, division_ok, equal = want
                    assert got == (case, delta_n, equal), label
                    assert division_ok == (delta_n is not None)
                cases += 1
    assert cases == 22728


# --------------------------------------------- rejection behaviour

def test_non_primitive_slope_rejected():
    with pytest.raises(CensusError, match="not primitive"):
        FillingSpec({0: (2, 4)})
    with pytest.raises(CensusError, match="not primitive"):
        FillingSpec({0: (0, 0)})


@pytest.mark.parametrize("slopes", [
    {0: (1.5, 2)}, {0: (1, 2.0)}, {0: ("3", " 2")}, {0: (True, 0)},
    {0: (1, False)}, {"0": (1, 2)}, {0.0: (1, 2)}, {True: (1, 0)},
    {0: (1, 0), 1: (None, 1)}, {0: (1,)}, {0: 5}, {0: (1, 2, 3)},
    {0: None}, {0: {1: "x", 2: "y"}}, {0: {2, 1}}, {0: range(1, 3)}])
def test_non_integer_slope_rejected(slopes):
    # library input: nothing is rounded, parsed or read as a bool
    with pytest.raises(CensusError, match="not a pair of integers"):
        FillingSpec(slopes)


def test_integral_slopes_kept_as_ints():
    class Two(int):
        pass
    spec = FillingSpec({1: (Two(2), -1), 0: (0, 1)})
    assert spec.slopes == {0: (0, 1), 1: (2, -1)}
    assert list(spec.slopes) == [0, 1]
    assert type(spec.slopes[1][0]) is int


def test_unknown_cusp_index_rejected():
    a, cusps = analyse(M003)
    with pytest.raises(CensusError, match="no cusp with index 5"):
        filled_homology(a.h1, cusps, FillingSpec({5: (1, 0)}), eo=a.eo)


def test_rank_zero_filling_rejected():
    a, cusps = analyse(M003)
    theta = fitting_gcd(build_taut_matrix(a))
    fh = filled_homology(a.h1, cusps, FillingSpec({0: (1, 0)}), eo=a.eo)
    assert fh.s == 0
    # no i_star when s = 0: theta, in one variable, is refused as a
    # polynomial in the wrong ring
    with pytest.raises(ValueError, match="1 variables, expected s = 0"):
        predict_filled_alexander(theta, fh)


def test_parse_slopes():
    spec = parse_slopes("c0:1/2,c3:-1/0")
    assert spec.slopes == {0: (1, 2), 3: (-1, 0)}
    # signs on x and y, and whitespace around a chunk, are still read
    spec = parse_slopes(" c0:+1/-2 , c3:-1/0 ")
    assert spec.slopes == {0: (1, -2), 3: (-1, 0)}
    with pytest.raises(CensusError, match="malformed slope"):
        parse_slopes("c0-1/2")
    with pytest.raises(CensusError, match="filled twice"):
        parse_slopes("c0:1/2,c0:3/4")
    with pytest.raises(CensusError, match="not primitive"):
        parse_slopes("c0:2/4")
