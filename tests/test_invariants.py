import os
import random
from math import prod

import pytest

from veerpoly.census_io import (CensusError, GluingTable, TautStructure,
                                VERTEX_PAIRS, parse_taut_sig, perm_sign)
from veerpoly.filling import parse_slopes
from veerpoly.invariants import (Analysis, _presentation_matrix,
                                 _tetrahedron_relations_hold,
                                 build_alexander_matrix,
                                 build_cover_alexander_matrix,
                                 build_taut_matrix, corner_exponents,
                                 fitting_gcd, unit_pivot_reduce,
                                 verify_identities)
from veerpoly.laurent import (LaurentMatrix, LaurentPoly, determinant,
                              exact_div, maximal_minor_gcd_bruteforce,
                              normalize_unit, specialize)
from veerpoly.taut import build_double_cover
from bundles import (bundle_filled_trace, bundle_homology, bundle_sig,
                     both_letter_words)
from oracles import (TwoSidedGluingTable, all_columns_fitting_gcd,
                     all_columns_matrices, cover_pushforward,
                     dense_unit_pivot_reduce, exhaustive_fitting_gcd,
                     fox_alexander_polynomial, pushed_down,
                     reference_alexander_matrix, reference_delta_hat,
                     reference_taut_matrix, tetrahedron_relation_sums,
                     variant_analysis, veering_polynomial)

FOURTEEN = "oLLLLLPwQQcccefgijlmkklnnnlnewbnetafobnkj_12001112122200"
DATA = os.path.join(os.path.dirname(__file__), "data", "sample_census.txt")
EXTRA = os.path.join(os.path.dirname(__file__), "data", "extra_census.txt")


def sample_sigs():
    with open(DATA) as fh:
        return [ln.strip() for ln in fh
                if ln.strip() and not ln.startswith("#")]


def extra_analyses():
    """Analysis of each entry of the extra census, which lies outside
    the sample's layered bundle family."""
    with open(EXTRA) as fh:
        return [Analysis(parse_taut_sig(ln.strip())) for ln in fh
                if ln.strip()]


def random_laurent_matrix(rng, rows, cols, nvars, density=0.7):
    entries = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            if rng.random() > density:
                row.append(LaurentPoly.zero(nvars))
                continue
            terms = {}
            for _ in range(rng.randint(1, 3)):
                exp = tuple(rng.randint(-2, 2) for _ in range(nvars))
                terms[exp] = terms.get(exp, 0) + rng.randint(-3, 3)
            row.append(LaurentPoly(nvars, terms))
        entries.append(row)
    return LaurentMatrix(nvars, entries)


def invert_vars(p):
    return LaurentPoly(p.nvars, {tuple(-e for e in exp): c
                                 for exp, c in p.terms.items()})


def same_up_to_unit_and_inversion(p, q):
    p = normalize_unit(p)
    return p == normalize_unit(q) or p == normalize_unit(invert_vars(q))


# -- matrix structure ---------------------------------------------------------

def test_taut_matrix_column_sums():
    # each face column holds one positive and two negative monomials;
    # evaluating the column sum at 1 gives -1 regardless of how entries
    # merged on shared edge rows: on the built T x (T + 1) matrix and on
    # every face column, the tree's included
    for sig in ("cPcbbbdxm_10", bundle_sig("RRLL", -1), FOURTEEN):
        analysis = Analysis(parse_taut_sig(sig))
        mat = build_taut_matrix(analysis)
        full, _ = all_columns_matrices(analysis)
        assert mat.rows == full.rows == analysis.ts.table.n_tet
        assert (mat.cols, full.cols) == (mat.rows + 1, 2 * mat.rows)
        for m in (mat, full):
            for j in range(m.cols):
                total = sum(sum(m.entries[i][j].terms.values())
                            for i in range(m.rows))
                assert total == -1


def test_alexander_matrix_column_sums():
    # boundary of a triangle: exactly three signed monomial steps per
    # column (signs depend on each edge's reference orientation), so the
    # column evaluates at 1 to an odd value of absolute value <= 3
    for sig in ("cPcbbbiht_12", bundle_sig("RLR", 1), FOURTEEN):
        analysis = Analysis(parse_taut_sig(sig))
        mat = build_alexander_matrix(analysis)
        for j in range(mat.cols):
            total = sum(sum(mat.entries[i][j].terms.values())
                        for i in range(mat.rows))
            assert total % 2 == 1 and abs(total) <= 3
            nonzero = sum(1 for i in range(mat.rows)
                          if not mat.entries[i][j].is_zero())
            assert nonzero <= 3


def test_matrices_equal_reference_face_walks():
    # both presentations, read off Analysis.face_edges, equal the
    # earlier per-builder face walks cell for cell, on the columns the
    # builders keep and, built with every face column, on the tree's
    # too: on every sample entry, every edge-orientation double cover
    # and bundles of 4-32 tetrahedra of both signs
    rng = random.Random(233)
    sigs = sample_sigs() + [
        bundle_sig("R" + "".join(rng.choice("RL") for _ in range(n - 2))
                   + "L", eps)
        for n in (4, 8, 16, 32) for eps in (1, -1) for _ in range(2)]
    bases = [Analysis(parse_taut_sig(sig)) for sig in sigs]
    covers = [Analysis(base.cover) for base in bases
              if not base.eo.edge_orientable]
    assert len(covers) > 100
    assert max(base.ts.table.n_tet for base in bases) == 32
    for analysis in bases + covers:
        for build, reference, full in zip(
                (build_taut_matrix, build_alexander_matrix),
                (reference_taut_matrix, reference_alexander_matrix),
                all_columns_matrices(analysis)):
            mat = build(analysis)
            want = reference(analysis)
            assert mat.nvars == analysis.h1.rank
            assert mat.entries == [[p for f, p in enumerate(row)
                                    if f not in analysis.tree]
                                   for row in want], \
                (analysis.ts.sig, build.__name__)
            assert full.entries == want, (analysis.ts.sig, build.__name__)


# -- fitting gcd against the exhaustive oracle --------------------------------

def test_fitting_gcd_on_production_matrices():
    for sig in ("cPcbbbdxm_10", "cPcbbbiht_12", bundle_sig("RRL", 1),
                bundle_sig("RLL", -1)):
        analysis = Analysis(parse_taut_sig(sig))
        for build in (build_taut_matrix, build_alexander_matrix):
            mat = build(analysis)
            assert fitting_gcd(mat) == exhaustive_fitting_gcd(mat)


def scale_rows(rng, mat):
    """mat with some of its rows (at least one) multiplied by non-unit
    factors, so that those rows have a non-unit common factor."""
    one = LaurentPoly.one(mat.nvars)
    x = [LaurentPoly.variable(mat.nvars, i) for i in range(mat.nvars)]
    factors = [2 * one, x[0] + one, x[0] - 2 * one, x[-1] * x[-1] + x[0],
               3 * x[0] + x[-1] * x[0]]
    picked = [i for i in range(mat.rows) if rng.random() < 0.5] or \
        [rng.randrange(mat.rows)]
    return LaurentMatrix(mat.nvars, [
        [rng.choice(factors) * p for p in row] if i in picked else row
        for i, row in enumerate(mat.entries)])


def test_fitting_gcd_random_matrices():
    rng = random.Random(211)
    factor_rng = random.Random(212)
    for _ in range(40):
        nvars = rng.randint(1, 2)
        rows = rng.randint(1, 3)
        cols = rng.randint(rows, rows + 3)
        mat = random_laurent_matrix(rng, rows, cols, nvars)
        assert fitting_gcd(mat) == exhaustive_fitting_gcd(mat)
        scaled = scale_rows(factor_rng, mat)
        assert fitting_gcd(scaled) == exhaustive_fitting_gcd(scaled)


def test_unit_pivot_reduce_matches_dense_oracle():
    # the Schur-complement step gives the residual of the earlier dense
    # column sweep, entry for entry
    rng = random.Random(227)
    for _ in range(300):
        nvars = rng.randint(1, 3)
        rows = rng.randint(0, 5)
        cols = rng.randint(max(rows, 1), rows + 3)
        mat = random_laurent_matrix(rng, rows, cols, nvars,
                                    density=rng.uniform(0.2, 0.9))
        assert unit_pivot_reduce(mat) == dense_unit_pivot_reduce(mat)
    # a row that is a unit multiple of another cancels to a zero row
    # once the other has been a pivot row
    zero_rows = 0
    for _ in range(100):
        nvars = rng.randint(1, 3)
        rows = rng.randint(1, 4)
        mat = random_laurent_matrix(rng, rows, rng.randint(rows + 1, rows + 3),
                                    nvars)
        unit = LaurentPoly(
            nvars, {tuple(rng.randint(-2, 2) for _ in range(nvars)):
                    rng.choice((1, -1))})
        copied = [unit * p for p in rng.choice(mat.entries)]
        mat = LaurentMatrix(nvars, mat.entries + [copied])
        got = unit_pivot_reduce(mat)
        assert got == dense_unit_pivot_reduce(mat)
        zero_rows += got[1]
    assert zero_rows > 20
    # the presentations with every face column, on the sample
    for sig in sample_sigs():
        analysis = Analysis(parse_taut_sig(sig))
        for mat in all_columns_matrices(analysis):
            assert unit_pivot_reduce(mat) == dense_unit_pivot_reduce(mat), \
                sig
    # the T x (T + 1) presentations fitting_gcd sees, on the
    # edge-orientation covers (all b1 = 1), the cover of every nonzero
    # character H1 -> Z/2 of the <= 6-tet entries (b1 up to 2), and the
    # 14-tet entry (b1 = 2) with its edge-orientation cover (b1 = 4)
    bases, covers = small_analyses_and_covers()
    fourteen = Analysis(parse_taut_sig(FOURTEEN))
    analyses = covers + [cover for base in bases if base.ts.table.n_tet <= 6
                         for cover in z2_covers(base)]
    analyses += [fourteen, Analysis(fourteen.cover)]
    assert sorted({analysis.h1.rank for analysis in analyses}) == [1, 2, 4]
    for analysis in analyses:
        for build in (build_taut_matrix, build_alexander_matrix):
            mat = build(analysis)
            assert unit_pivot_reduce(mat) == dense_unit_pivot_reduce(mat), \
                (analysis.ts.sig, build.__name__)


def test_unit_pivot_reduce_keeps_minor_gcd():
    rng = random.Random(223)
    for _ in range(30):
        nvars = rng.randint(1, 2)
        rows = rng.randint(1, 3)
        cols = rng.randint(rows, rows + 2)
        mat = random_laurent_matrix(rng, rows, cols, nvars)
        want = exhaustive_fitting_gcd(mat)
        residual, saw_zero_row = unit_pivot_reduce(mat)
        # a zero row makes every minor 0; an empty residual has gcd 1
        assert exhaustive_fitting_gcd(LaurentMatrix(nvars, residual)) == want
        if saw_zero_row:
            assert want.is_zero()
        if not residual:
            assert want.is_one()


# -- tree reduction -----------------------------------------------------------

def small_analyses_and_covers():
    """Analysis of every sample entry except the 14-tet one, followed by
    the Analysis of each non-edge-orientable entry's Z/2 cover (built
    by ``taut.build_double_cover`` from the entry's beta)."""
    bases = [Analysis(parse_taut_sig(sig)) for sig in sample_sigs()
             if sig != FOURTEEN]
    covers = [Analysis(base.cover) for base in bases
              if not base.eo.edge_orientable]
    return bases, covers


def z2_covers(analysis):
    """Analysis of the double cover of every nonzero character
    H1 -> Z/2.  Each character is the class of exactly one 0/1 face
    cocycle that vanishes on the tree faces; on the other faces it
    solves, mod 2, one equation per edge (its corner cycle crosses an
    even number of faces where the cocycle is 1), found here by trying
    every such cochain."""
    n_faces = len(analysis.ts.table.faces)
    free = [f for f in range(n_faces) if f not in analysis.tree]
    edges = []
    for cyc in analysis.cycles:
        mask = 0
        for f, _ in cyc.crossings:
            if f in free:
                mask ^= 1 << free.index(f)
        edges.append(mask)
    for chosen in range(1, 1 << len(free)):
        if any(bin(chosen & mask).count("1") % 2 for mask in edges):
            continue
        beta = [0] * n_faces
        for i, f in enumerate(free):
            beta[f] = chosen >> i & 1
        cover, connected = build_double_cover(analysis.ts, analysis.coor,
                                              beta)
        assert connected
        yield Analysis(cover)


def test_tree_reduced_gcds_equal_all_columns_route():
    bases, covers = small_analyses_and_covers()
    assert len(covers) > 100
    for analysis in bases + covers + [Analysis(parse_taut_sig(FOURTEEN))] \
            + extra_analyses():
        taut, alexander = all_columns_matrices(analysis)
        assert normalize_unit(analysis.theta) == \
            all_columns_fitting_gcd(taut), analysis.ts.sig
        assert normalize_unit(analysis.delta) == \
            all_columns_fitting_gcd(alexander), analysis.ts.sig


def test_tree_reduced_cover_pushforward_equals_all_columns_route():
    # the reference route to delta_hat drops the cover's tree columns
    # before pushing the cover's Alexander matrix down; the push-down is
    # compared directly on the (connected) covers of entries with sigma
    bases, _ = small_analyses_and_covers()
    checked = 0
    for base in bases:
        if base.eo.edge_orientable or base.ts.table.n_tet > 5:
            continue
        cover = Analysis(base.cover)
        A = cover_pushforward(base, cover)
        _, full = all_columns_matrices(cover)
        assert normalize_unit(fitting_gcd(pushed_down(
            A, build_alexander_matrix(cover)))) == \
            all_columns_fitting_gcd(pushed_down(A, full)), base.ts.sig
        checked += 1
    assert checked >= 20


def non_edge_orientable_sample():
    """Analysis of every non-edge-orientable sample entry."""
    analyses = [Analysis(parse_taut_sig(sig)) for sig in sample_sigs()]
    return [a for a in analyses if not a.eo.edge_orientable]


def test_cover_alexander_matrix_gives_the_reference_delta_hat():
    # read off the base's face table, the pushed-down presentation of the
    # double cover has the Fitting gcd of the route through a second
    # Analysis of the cover and its pushforward, sigma or not (delta_hat
    # is None with sigma, so the builder is called directly); it keeps
    # the cover's 2T rows and its 2T + 1 non-tree columns
    analyses = non_edge_orientable_sample()
    assert len(analyses) == 124
    assert sum(a.eo.sigma_exists for a in analyses) > 100
    analyses += [a for a in extra_analyses() if not a.eo.edge_orientable]
    for analysis in analyses:
        mat = build_cover_alexander_matrix(analysis)
        n = analysis.ts.table.n_tet
        assert (mat.nvars, mat.rows, mat.cols) == \
            (analysis.h1.rank, 2 * n, 2 * n + 1)
        assert normalize_unit(fitting_gcd(mat)) == \
            reference_delta_hat(analysis), analysis.ts.sig


def test_cover_alexander_matrix_catches_sheet_zero_edges(monkeypatch):
    # mutation check: with every entry at the edge of the corner's
    # sheet-0 lift, the cover's tetrahedron relation fails or the
    # Fitting gcd differs from the reference route on every entry
    tripped = differs = 0
    analyses = non_edge_orientable_sample()
    for analysis in analyses:
        want = reference_delta_hat(analysis)
        table, n = analysis.cover.table, analysis.ts.table.n_tet
        sheet_zero = {(t, s): table.edge_index[(t % n, s)]
                      for t, s in table.edge_index}
        monkeypatch.setitem(vars(table), "edge_index", sheet_zero)
        try:
            got = fitting_gcd(build_cover_alexander_matrix(analysis))
        except AssertionError:
            tripped += 1
        else:
            differs += normalize_unit(got) != want
        monkeypatch.undo()
    assert tripped >= 1
    assert tripped + differs == len(analyses)


def taut_signs_from_tracks(analysis):
    """Signs of the taut tetrahedron relation, found from the faces'
    upper-large slots (``Coorientation.upper_large``) rather than the
    colours: with t's top diagonal uv and bottom diagonal xy (x < y),
    the top face opposite y has sign +1, the one opposite x -1, and the
    bottom face through the upper-large edge of the +1 top face has
    sign +1."""
    coor, table = analysis.coor, analysis.ts.table
    signs = {}
    for t in range(table.n_tet):
        (u, v), (x, y) = (VERTEX_PAIRS[coor.top_slot[t]],
                          VERTEX_PAIRS[coor.bot_slot[t]])
        signs[(t, y)], signs[(t, x)] = 1, -1
        f = table.face_index[(t, y)]
        assert coor.below[f] == (t, y)
        large = set(VERTEX_PAIRS[analysis.coor.upper_large[f]])
        assert x in large
        apex = (large - {x}).pop()
        other = v if apex == u else u
        # the bottom face holding x-apex is the one opposite the other
        # top-diagonal vertex
        signs[(t, other)], signs[(t, apex)] = 1, -1
    return signs


def test_tetrahedron_relations_hold_exactly():
    # independent of __debug__: each tetrahedron's face columns, built
    # by the package's cell code with the tree's kept, sum to zero with
    # the documented signs
    bases, covers = small_analyses_and_covers()
    analyses = bases[::4] + covers[::8] + [Analysis(parse_taut_sig(FOURTEEN))]
    for analysis in analyses:
        n = analysis.ts.table.n_tet
        alexander_signs = {(t, fs): 1 if analysis.coor.below[
            analysis.ts.table.face_index[(t, fs)]] == (t, fs) else -1
            for t in range(n) for fs in range(4)}
        for mat, signs, name in zip(
                all_columns_matrices(analysis),
                (taut_signs_from_tracks(analysis), alexander_signs),
                ("taut", "alexander")):
            assert mat.cols == len(analysis.ts.table.faces)
            sums = tetrahedron_relation_sums(analysis, mat, signs)
            assert all(p.is_zero() for col in sums for p in col), \
                (analysis.ts.sig, name)


def test_tree_reduction_sees_the_faces_of_the_tree():
    # the built matrices keep exactly the T + 1 non-tree columns, in
    # face order; dropping the pivot forest's columns instead, a
    # different tree, gives the same polynomials.  The two trees agree
    # on every base entry of the sample, so this takes a 10-tet cover
    ts = Analysis(parse_taut_sig(bundle_sig("RRLRL", -1))).cover
    analysis = Analysis(ts)
    n_faces = len(ts.table.faces)
    forest = {f for f, *_ in analysis.h1.peel}
    assert len(forest) == len(analysis.tree) == ts.table.n_tet - 1
    assert forest != analysis.tree
    for build, poly, mat in zip((build_taut_matrix, build_alexander_matrix),
                                (analysis.theta, analysis.delta),
                                all_columns_matrices(analysis)):
        assert mat.cols == n_faces
        for tree in (analysis.tree, forest):
            keep = [f for f in range(n_faces) if f not in tree]
            assert len(keep) == ts.table.n_tet + 1
            reduced = [[row[f] for f in keep] for row in mat.entries]
            if tree is analysis.tree:
                assert build(analysis).entries == reduced
            assert normalize_unit(fitting_gcd(LaurentMatrix(
                mat.nvars, reduced))) == normalize_unit(poly)


def test_wrapped_matrices_equal_checked_ones():
    # LaurentMatrix wraps its rows without copying or checking them; the
    # matrices the package builds (the presentations, with and without
    # the tree columns, the unit-pivot residuals and submatrices) are
    # well formed: equal row lengths, every entry in nvars variables
    for sig in sample_sigs():
        analysis = Analysis(parse_taut_sig(sig))
        for build, full in zip((build_taut_matrix, build_alexander_matrix),
                               all_columns_matrices(analysis)):
            reduced = build(analysis)
            square = reduced.submatrix(range(reduced.rows),
                                       range(1, reduced.cols))
            residual, _ = unit_pivot_reduce(reduced)
            for mat in (full, reduced, square,
                        LaurentMatrix(full.nvars, residual)):
                assert mat.nvars == analysis.h1.rank
                assert mat.rows == len(mat.entries)
                assert all(len(row) == mat.cols for row in mat.entries)
                assert all(p.nvars == mat.nvars for row in mat.entries
                           for p in row)
            n_tet = analysis.ts.table.n_tet
            assert (reduced.rows, reduced.cols) == (n_tet, n_tet + 1)


# -- known polynomial values --------------------------------------------------

def test_two_tet_polynomials():
    t = LaurentPoly.variable(1, 0)
    one = LaurentPoly.one(1)
    rep = Analysis(parse_taut_sig("cPcbbbdxm_10"))
    assert normalize_unit(rep.theta) == t * t - 3 * t + one
    assert normalize_unit(rep.delta) == t * t + 3 * t + one
    assert rep.delta_hat is None and rep.eo.sigma == (-1,)
    rep = Analysis(parse_taut_sig("cPcbbbiht_12"))
    assert normalize_unit(rep.theta) == t * t - 3 * t + one
    assert normalize_unit(rep.delta) == t * t - 3 * t + one
    assert rep.eo.sigma == (1,)


def test_fox_calculus_oracle_matches_pipeline():
    # once-punctured-torus bundle groups <x,y,t | t x t^-1 = phi(x),
    # t y t^-1 = phi(y)>; the fibre generators die in the free
    # abelianization, t maps to the cyclic generator
    gens = {"x": 0, "y": 0, "t": 1}
    # monodromy x -> xy, y -> yxy (the positive-trace two-tet bundle)
    fig8 = fox_alexander_polynomial(gens, [
        [("t", 1), ("x", 1), ("t", -1), ("y", -1), ("x", -1)],
        [("t", 1), ("y", 1), ("t", -1), ("y", -1), ("x", -1), ("y", -1)],
    ])
    rep = Analysis(parse_taut_sig("cPcbbbiht_12"))
    assert fig8 == normalize_unit(rep.delta)
    # same monodromy composed with the elliptic involution
    sister = fox_alexander_polynomial(gens, [
        [("t", 1), ("x", 1), ("t", -1), ("x", 1), ("y", 1)],
        [("t", 1), ("y", 1), ("t", -1), ("y", 1), ("x", 1), ("y", 1)],
    ])
    rep = Analysis(parse_taut_sig("cPcbbbdxm_10"))
    assert sister == normalize_unit(rep.delta)


def test_bundle_delta_at_one_is_torsion_order():
    # for rank-one homology the Alexander polynomial evaluated at 1 has
    # absolute value the torsion order
    for word, eps in (("RL", 1), ("RL", -1), ("RRL", 1), ("RLL", -1),
                      ("RRLRL", 1), ("RLLLR", -1)):
        rep = Analysis(parse_taut_sig(bundle_sig(word, eps)))
        _, torsion = bundle_homology(word, eps)
        order = 1
        for d in torsion:
            order *= d
        assert abs(sum(rep.delta.terms.values())) == order


def test_bundle_delta_is_monodromy_characteristic_polynomial():
    # Delta of a fibred bundle with fibre the once-punctured torus is
    # the characteristic polynomial of the homological monodromy
    t = LaurentPoly.variable(1, 0)
    one = LaurentPoly.one(1)
    for word, eps in (("RRLL", 1), ("RLRL", -1), ("RRRL", 1), ("LLRLR", -1)):
        rep = Analysis(parse_taut_sig(bundle_sig(word, eps)))
        tr = bundle_filled_trace(word, eps)
        want = t * t - tr * t + one
        assert same_up_to_unit_and_inversion(rep.delta, want)


# -- identities over the sample -----------------------------------------------

def test_identities_on_small_bundles():
    for length in (2, 3, 4):
        for word in both_letter_words(length):
            eps = -1 if word.count("L") % 2 else 1
            rep = Analysis(parse_taut_sig(bundle_sig(word, eps)))
            v = verify_identities(rep)
            assert v["passed"], (word, eps, v)
            assert v["identity"] == "sign_twist"


def test_fourteen_tet_cover_identity():
    # rank two, two cusps, no consistent sign choice: the double-cover
    # polynomial exists and factors as the product of the pushforwards
    rep = Analysis(parse_taut_sig(FOURTEEN))
    assert rep.eo.sigma is None and rep.delta_hat is not None
    v = verify_identities(rep)
    assert v["identity"] == "cover_product" and v["passed"]
    # no unit makes the sign-twist hold, so the torsion must contain an
    # even divisor; this entry has torsion [4]
    assert v["sign_change_match"] is False and v["even_torsion"] is True
    assert rep.h1.torsion == [4]


def test_fourteen_tet_z2_cover_without_sigma():
    # of the 14-tet entry's Z/2 covers exactly one has no sigma; its
    # double-cover polynomial runs through a 28-tet cover of the cover
    covers = [cover for cover in z2_covers(Analysis(parse_taut_sig(FOURTEEN)))
              if not cover.eo.sigma_exists]
    assert len(covers) == 1
    (rep,) = covers
    assert rep.ts.table.n_tet == 28
    assert (rep.h1.rank, rep.h1.torsion) == (2, [2, 8])
    v = verify_identities(rep)
    assert v["identity"] == "cover_product" and v["passed"]
    assert v["sign_change_match"] is False and v["even_torsion"] is True


def omega_twisted_incidences(analysis):
    """The Alexander incidences of ``Analysis.face_edges`` twisted by
    the edge-orientation character omega: each coefficient times
    (-1)^label of its corner, where a corner's label is the XOR of
    beta over the faces its corner cycle crosses from the anchor.
    Each entry of a face's table row sits at its slot of the tetrahedron
    below the face."""
    beta = analysis.eo.beta
    label = {}
    for cyc in analysis.cycles:
        w = 0
        for corner, (f, _) in zip(cyc.corners, cyc.crossings):
            label[corner] = w
            w ^= beta[f]
        assert w == 0, "omega does not close around an edge"
    incidences = []
    for (t, _), face in zip(analysis.coor.below, analysis.face_edges):
        incidences.append([(e, exp, -coef if label[(t, slot)] else coef)
                           for slot, e, exp, _, coef in face])
    return incidences


def test_theta_is_the_omega_twisted_alexander_polynomial():
    # the paper's main theorem: theta is the Alexander polynomial
    # twisted by omega.  The twisted matrix satisfies the tetrahedron
    # relations with the bottom faces also carrying (-1)^beta[f]; with
    # the untwisted signs the relation fails on the 14-tet entry and on
    # two of the extra census's three, and without the twist the gcd is
    # delta, which differs from theta
    bases, covers = small_analyses_and_covers()
    analyses = bases + covers + [Analysis(parse_taut_sig(FOURTEEN))]
    assert len(analyses) == len(sample_sigs()) + len(covers)
    analyses += extra_analyses()
    untwisted_fails, delta_differs = [], 0
    for analysis in analyses:
        twisted = omega_twisted_incidences(analysis)
        signs = [(1, 1 if b else -1) for b in analysis.eo.beta]
        ends, cocycle = analysis.h1.face_ends, analysis.cocycle
        assert _tetrahedron_relations_hold(ends, cocycle, twisted, signs), \
            analysis.ts.sig
        if not _tetrahedron_relations_hold(ends, cocycle, twisted,
                                           [(1, -1)] * len(signs)):
            untwisted_fails.append(analysis.ts.sig)
        mat = _presentation_matrix(analysis.h1.rank,
                                   len(analysis.ts.table.edges), twisted,
                                   analysis.tree)
        assert normalize_unit(fitting_gcd(mat)) == analysis.theta, \
            analysis.ts.sig
        delta_differs += normalize_unit(analysis.delta) != analysis.theta
    assert untwisted_fails == [FOURTEEN, "gLLAQbecdfffhhnkqnc_120012",
                               "fLLQcbecdeepuwsua_20102"]
    assert delta_differs > 100


def unit_times_binomials(q):
    """Whether the one-variable q is a unit times a product of factors
    1 +- x^k (k > 0), by trial division; 1 +- x^(-k) is a unit times
    1 +- x^k."""
    x, one = LaurentPoly.variable(1, 0), LaurentPoly.one(1)
    while not q.is_unit():
        exps = [exp for exp, in q.terms]
        q = next((s for k in range(1, max(exps) - min(exps) + 1)
                  for sign in (1, -1)
                  for s in [exact_div(q, one + sign * x ** k)]
                  if s is not None), None)
        if q is None:
            return False
    return True


def veering_quotient(analysis, sides="uv xu yv"):
    """V / theta for the veering polynomial V of ``sides``, or None
    when theta does not divide V."""
    return exact_div(veering_polynomial(analysis, sides), analysis.theta)


def test_veering_polynomial_is_theta_times_binomials():
    # theta, checked without the face table its presentation is built
    # from: it divides the veering polynomial, and on b1 = 1 the quotient
    # is a unit times a product of 1 +- x^k.  On the 14-tet entry (b1 = 2)
    # the quotient is pinned
    analyses = [Analysis(parse_taut_sig(sig)) for sig in sample_sigs()]
    analyses += extra_analyses()
    assert len(analyses) == 246
    for analysis in analyses:
        q = veering_quotient(analysis)
        assert q is not None, analysis.ts.sig
        if analysis.h1.rank == 1:
            assert unit_times_binomials(q), analysis.ts.sig
    (fourteen,) = [a for a in analyses if a.ts.sig == FOURTEEN]
    one = LaurentPoly.one(2)
    want = prod((one + LaurentPoly(2, {exp: 1})
                 for exp in ((3, 2), (5, 3), (8, 6), (10, 9))), start=one)
    assert normalize_unit(veering_quotient(fourteen)) == normalize_unit(want)


def test_veering_polynomial_catches_swapped_side_edges():
    # mutation check: with uy and xv in place of xu and yv, theta does
    # not divide V, or the b1 = 1 quotient is no product of 1 +- x^k
    for sig in sample_sigs()[:15]:
        analysis = Analysis(parse_taut_sig(sig))
        q = veering_quotient(analysis, "uv uy xv")
        assert q is None or (analysis.h1.rank == 1 and
                             not unit_times_binomials(q)), sig


# -- presentation invariance --------------------------------------------------

def permuted_structure(ts, perm, relabels):
    """Relabel tetrahedra by perm and vertices by per-tet permutations
    (all of equal parity, to keep the gluing table coherently oriented)."""
    from veerpoly.census_io import PI_SLOTS, compose, invert, slot_image
    n = ts.table.n_tet
    gl = [[None] * 4 for _ in range(n)]
    digits = [0] * n
    for t in range(n):
        r = relabels[t]
        for f in range(4):
            t2, p = ts.table.gluings[t][f]
            q = compose(relabels[t2], compose(p, invert(r)))
            gl[perm[t]][r[f]] = (perm[t2], q)
        slots = {slot_image(r, s) for s in PI_SLOTS[ts.digits[t]]}
        digits[perm[t]] = next(d for d, pair in enumerate(PI_SLOTS)
                               if set(pair) == slots)
    return TautStructure(ts.sig + ":permuted", GluingTable(gl), digits)


def test_polynomials_invariant_under_relabelling():
    rng = random.Random(227)
    even_perms = [p for p in __import__("itertools").permutations(range(4))
                  if sum(1 for i in range(4) for j in range(i + 1, 4)
                         if p[i] > p[j]) % 2 == 0]
    for word, eps in (("RL", -1), ("RRL", 1), ("RLLR", -1), ("RLRLL", 1)):
        ts = parse_taut_sig(bundle_sig(word, eps))
        base = Analysis(ts)
        n = ts.table.n_tet
        for _ in range(3):
            perm = list(range(n))
            rng.shuffle(perm)
            relabels = [even_perms[rng.randrange(len(even_perms))]
                        for _ in range(n)]
            moved = Analysis(permuted_structure(ts, perm, relabels))
            assert same_up_to_unit_and_inversion(base.theta, moved.theta)
            assert same_up_to_unit_and_inversion(base.delta, moved.delta)


def test_relabelled_tables_match_two_sided_builder():
    # relabelled tables list their tetrahedra and vertices in another
    # order, so their unions come in another order too
    rng = random.Random(229)
    perms = list(__import__("itertools").permutations(range(4)))
    for word, eps in (("RL", -1), ("RRL", 1), ("RLLR", -1), ("RLRLL", 1),
                      ("RRLRLLRLRRLL", -1)):
        ts = parse_taut_sig(bundle_sig(word, eps))
        n = ts.table.n_tet
        for parity in (1, -1, 1, -1):
            perm = list(range(n))
            rng.shuffle(perm)
            same = [p for p in perms if perm_sign(p) == parity]
            relabels = [rng.choice(same) for _ in range(n)]
            table = permuted_structure(ts, perm, relabels).table
            oracle = TwoSidedGluingTable(table.gluings)
            for attr in ("faces", "face_index", "edges", "edge_index",
                         "vertices"):
                assert getattr(table, attr) == getattr(oracle, attr), attr


def coboundary_variant(ts):
    """Analysis of ts whose face cocycle is moved by the coboundary of a
    nonconstant tetrahedron potential phi, c[f] + phi(above) -
    phi(below), with the corner exponents recomputed: the same classes
    of cycles, so the same polynomials."""
    var = Analysis(ts)
    r = var.h1.rank
    phi = [tuple((3 * t + 2 * i) % 5 - 2 for i in range(r))
           for t in range(ts.table.n_tet)]
    assert len(set(phi)) > 1
    cocycle = [tuple(x + pa - pb for x, pa, pb in zip(c, phi[a], phi[b]))
               for c, (b, a) in zip(var.cocycle, var.h1.face_ends)]
    assert cocycle != var.cocycle
    var.cocycle = cocycle
    var.exponents = corner_exponents(var.cycles, cocycle, r)
    return var


def test_polynomials_invariant_under_internal_choices():
    # flipping the coorientation or re-anchoring corner cycles must not
    # change the polynomials up to a unit and inversion, and moving the
    # face cocycle by a coboundary must not change them up to a unit
    for sig in ("cPcbbbdxm_10", bundle_sig("RRLL", 1), bundle_sig("RLRL", -1)):
        ts = parse_taut_sig(sig)
        base_a = Analysis(ts)
        base_theta = normalize_unit(fitting_gcd(build_taut_matrix(base_a)))
        base_delta = normalize_unit(
            fitting_gcd(build_alexander_matrix(base_a)))
        variants = [
            variant_analysis(ts, corner_rank=1),
            variant_analysis(ts, corner_rank=2),
            variant_analysis(ts, flip=True),
        ]
        for var in variants[:2]:
            assert any(cyc.corners[0] != base.corners[0]
                       for cyc, base in zip(var.cycles, base_a.cycles))
        assert variants[2].coor.top_slot == base_a.coor.bot_slot
        for var in variants:
            theta = fitting_gcd(build_taut_matrix(var))
            delta = fitting_gcd(build_alexander_matrix(var))
            assert same_up_to_unit_and_inversion(base_theta, theta)
            assert same_up_to_unit_and_inversion(base_delta, delta)
        var = coboundary_variant(ts)
        assert normalize_unit(fitting_gcd(build_taut_matrix(var))) == \
            base_theta
        assert normalize_unit(fitting_gcd(build_alexander_matrix(var))) == \
            base_delta


# -- input and shape errors ---------------------------------------------------

def two_disjoint_copies(sig):
    """The taut structure of two disjoint copies of sig's table."""
    ts = parse_taut_sig(sig)
    n = ts.table.n_tet
    gluings = ts.table.gluings + [[(t + n, p) for t, p in row]
                                  for row in ts.table.gluings]
    return TautStructure(sig + ":twice", GluingTable(gluings), ts.digits * 2)


ONE = LaurentPoly.one(1)
TALL = LaurentMatrix(1, [[ONE] * 2] * 3)


@pytest.mark.parametrize("call, error, message", [
    (lambda: fitting_gcd(TALL), ValueError, "rows <= columns"),
    (lambda: maximal_minor_gcd_bruteforce(TALL), ValueError, "rows <= cols"),
    (lambda: determinant(LaurentMatrix(1, [[ONE] * 3] * 2)), ValueError,
     "non-square"),
    (lambda: specialize(LaurentPoly.variable(1, 0), [[1, 0]]), ValueError,
     "wrong shape"),
    (lambda: LaurentPoly(2, {(1,): 1}), ValueError, "expected 2"),
    (lambda: ONE ** -1, ValueError, "negative powers"),
    (lambda: ONE + LaurentPoly.one(2), ValueError, "different Laurent rings"),
    (lambda: ONE + 1, ValueError, "different Laurent rings"),
    (lambda: parse_slopes("x0:1/2"), CensusError, "malformed slope"),
    (lambda: Analysis(two_disjoint_copies("cPcbbbdxm_10")), CensusError,
     "triangulation is disconnected"),
], ids=["fitting_gcd", "minor_gcd", "determinant", "specialize",
        "exponent_length", "negative_power", "mixed_rings", "int_summand",
        "slope", "disconnected"])
def test_input_and_shape_errors(call, error, message):
    with pytest.raises(error, match=message):
        call()
