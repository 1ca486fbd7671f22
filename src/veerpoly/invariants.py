"""Presentation matrices over the group ring of first homology, their
Fitting gcds, and identity verification.

Lift bookkeeping.  Fix the face cocycle c of ``homology.face_cocycle``:
class_free(z) = sum_f c[f] * z[f] for every face-space cycle z, and c
vanishes on the pivot forest of ``H1Data``.  Walking around an edge
class from its canonical corner and accumulating +/- c(face crossed)
gives each corner a vector label u; the corner's edge in the universal
free-abelian cover, seen from the base lift of the corner's
tetrahedron, is the deck translate by -u of the class's anchored lift.
Hence every matrix entry contributed by an incidence carries the
monomial with exponent -u of that corner, which ``Analysis.exponents``
holds.

Tetrahedron relations.  A face column is the base lift of the face as
an upper face of the tetrahedron below it.  Seen from the base lift of
the tetrahedron t above it, the same face is the translate by -c(f),
and its entries pick up the factor x^(-c(f)).  In each matrix the four
face columns of t, the top faces as they are and the bottom faces
times x^(-c(f)), sum with signs to zero (``build_taut_matrix`` and
``build_alexander_matrix`` give the signs and assert the relation).
The coefficient of a face is a unit whatever the cocycle, and a tree
face is never glued to one tetrahedron on both sides, so peeling
leaves off any spanning tree of the dual graph writes every tree column
as a combination of non-tree columns.  The columns dropped are those of
a BFS tree (``Analysis.tree``), not of the pivot forest c vanishes on.
The non-tree columns span the same module, and by Cauchy-Binet their
maximal minors generate the same ideal: the Fitting gcd is taken over
the T + 1 non-tree faces only.
"""

from functools import cached_property
from math import prod
from operator import sub

from .census_io import FACE_VERTICES, SLOT_OF_PAIR
from .homology import (H1Data, dual_spanning_tree, face_cocycle,
                       smith_normal_form)
from .laurent import (LaurentMatrix, LaurentPoly,
                      maximal_minor_gcd_bruteforce, normalize_unit,
                      sign_twist, specialize)
from . import taut


class Analysis:
    """Everything derived from one taut structure.  Computed on
    construction: what every record reads, the homology and the
    edge-orientation data, with the coorientation (whose asserts check
    every face's large slots), vertex orders ``orders`` (read from the
    colours, ``taut.vertex_orders``) and corner cycles they rest on; and
    the dual spanning tree ``tree`` and face cocycle ``cocycle``.  The
    colours come first, so that non-veering input is rejected as input
    before an assert of the coorientation fails on it.
    Everything else is computed on first use and then kept.

    Lazy members: ``exponents`` and ``face_edges`` (the corner data and
    face table of the presentations), ``theta`` and ``delta`` (the taut
    and Alexander polynomials), ``cover`` (the edge-orientation double
    cover) and ``delta_hat`` (the double-cover polynomial, None when
    sigma exists).  Each polynomial is the Fitting gcd of an edges x
    faces presentation with the columns of the dual spanning tree
    ``tree`` dropped (``tree_reduced``), so the gcd runs on T x (T + 1)
    matrices; for ``delta_hat`` the cover's own tree is dropped before
    the cover's matrix is pushed down to the base."""

    def __init__(self, ts):
        self.ts = ts
        table = ts.table
        colours = taut.derive_colouring(ts)
        self.coor = coor = taut.derive_coorientation(ts)
        self.orders = taut.vertex_orders(ts, coor, colours)
        self.cycles = taut.edge_corner_cycles(ts, coor)
        self.h1 = H1Data(table.n_tet,
                         [(below[0], above[0])
                          for below, above in zip(coor.below, coor.above)],
                         [cyc.crossings for cyc in self.cycles])
        self.eo = taut.edge_orientation_data(ts, coor, self.orders,
                                             self.cycles, self.h1)
        self.tree = dual_spanning_tree(table.n_tet, self.h1.face_ends)
        self.cocycle = face_cocycle(self.h1)

    @cached_property
    def exponents(self):
        """Corner -> monomial exponent, read by the presentations."""
        return corner_exponents(self.cycles, self.cocycle, self.h1.rank)

    @cached_property
    def face_edges(self):
        """Per face, its three edges at the tetrahedron below in the
        traversal +ab, +bc, -ac of its facet [a, b, c] (a < b < c), as
        (edge index, corner exponent, taut coefficient, Alexander
        coefficient): +1 at the upper-large edge
        (``Coorientation.upper_large``) and -1 at the small ones; the
        traversal sign times the facet's sign in the boundary of the
        tetrahedron times the agreement of the traversal with the
        edge's reference orientation (``EdgeCycle.dirs``)."""
        edge_index = self.ts.table.edge_index
        exponents = self.exponents
        dirs = {corner: dirpair for cyc in self.cycles
                for corner, dirpair in zip(cyc.corners, cyc.dirs)}
        table = []
        for (t, fs), upper_large in zip(self.coor.below,
                                        self.coor.upper_large):
            a, b, c = FACE_VERTICES[fs]
            face_sign = -1 if fs % 2 else 1
            entries = []
            for pair, sign in (((a, b), 1), ((b, c), 1), ((a, c), -1)):
                slot = SLOT_OF_PAIR[pair]
                corner = (t, slot)
                entries.append((
                    edge_index[corner], exponents[corner],
                    1 if slot == upper_large else -1,
                    face_sign * sign * (1 if dirs[corner] == pair else -1)))
            table.append(entries)
        return table

    def tree_reduced(self, mat):
        """mat without the columns of the tree faces: the same Fitting
        gcd, by the tetrahedron relations (module docstring)."""
        keep = [f for f in range(mat.cols) if f not in self.tree]
        return LaurentMatrix(mat.nvars, [[row[f] for f in keep]
                                         for row in mat.entries])

    @cached_property
    def theta(self):
        return fitting_gcd(self.tree_reduced(build_taut_matrix(self)))

    @cached_property
    def delta(self):
        return fitting_gcd(self.tree_reduced(build_alexander_matrix(self)))

    @cached_property
    def cover(self):
        cover, connected = taut.build_double_cover(self.ts, self.coor,
                                                   self.eo.beta)
        assert connected, "cover of a non-edge-orientable structure " \
                          "must be connected"
        return cover

    @cached_property
    def delta_hat(self):
        if self.eo.sigma_exists:
            return None
        cover_analysis = Analysis(self.cover)
        A = cover_pushforward(self, cover_analysis)
        cover_alex = cover_analysis.tree_reduced(
            build_alexander_matrix(cover_analysis))
        pushed = LaurentMatrix(self.h1.rank, [
            [specialize(p, A) for p in row] for row in cover_alex.entries])
        return fitting_gcd(pushed)


def corner_exponents(cycles, cocycle, rank):
    """Monomial exponent -u of every corner, u its deck-translation
    label: minus the signed partial sum of the face cocycle along the
    corner cycle from the canonical corner.

    The closure assert (the sum vanishes around every edge) runs
    wherever exponents are built.  Records without polynomials never
    build them, but their condition is checked all the same: the sum
    around edge e is U_free times the relation column of e (``H1Data``,
    ``face_cocycle``), and ``homology._check_snf`` asserts that the free
    rows of U * R are zero."""
    exponents = {}
    for cyc in cycles:
        v = (0,) * rank
        for corner, (face_idx, eps) in zip(cyc.corners, cyc.crossings):
            exponents[corner] = v
            v = tuple(a - eps * b for a, b in zip(v, cocycle[face_idx]))
        assert v == (0,) * rank, "cocycle does not close around an edge"
    return exponents


def _presentation_matrix(analysis, incidences):
    """Edges x faces matrix from per-face (edge, corner exponent,
    coefficient) incidences: each adds the coefficient times the
    monomial, coincident rows summed.  The summed cells drop their
    zeros as they go, so they are wrapped as they are."""
    table = analysis.ts.table
    r = analysis.h1.rank
    zero = LaurentPoly.zero(r)
    rows = [[zero] * len(table.faces) for _ in table.edges]
    for idx, entries in enumerate(incidences):
        cells = {}
        for e, exp, coef in entries:
            terms = cells.setdefault(e, {})
            s = terms[exp] = terms.get(exp, 0) + coef
            if not s:
                del terms[exp]
        for e, terms in cells.items():
            rows[e][idx] = LaurentPoly._wrap(r, terms)
    return LaurentMatrix(r, rows)


def _tetrahedron_relations_hold(analysis, incidences, signs):
    """Whether, for every tetrahedron t, its four face columns sum to
    zero: +-1 times each top face (t below it), +-x^(-c(f)) times each
    bottom face (t above it).  signs[f] = (sign of f as a top face of the
    tetrahedron below, sign as a bottom face of the one above).  Summed
    as {(t, edge, exponent): coefficient} on raw exponent tuples, where
    x^(-c(f)) subtracts c(f) from the exponent."""
    coor = analysis.coor
    total = {}
    for f, entries in enumerate(incidences):
        s_top, s_bottom = signs[f]
        c = analysis.cocycle[f]
        t_top, t_bottom = coor.below[f][0], coor.above[f][0]
        for e, exp, coef in entries:
            key = (t_top, e, exp)
            total[key] = total.get(key, 0) + s_top * coef
            key = (t_bottom, e, tuple(map(sub, exp, c)))
            total[key] = total.get(key, 0) + s_bottom * coef
    return not any(total.values())


def build_taut_matrix(analysis):
    """Rows = edges, columns = faces; +monomial at the face's upper-large
    edge, -monomial at its two small edges (the taut coefficient of
    ``Analysis.face_edges``), coincident rows summed.

    Tetrahedron relation.  Let t have the vertex order (x, u, v, y) of
    ``Analysis.orders``: bottom diagonal xy with x < y, top diagonal uv,
    and uy coloured like uv.  Veering makes opposite equatorial edges
    share a colour and adjacent ones differ, so xv has the colour of uv
    too.  The upper-large edge of a top face is its equatorial edge of
    that colour, and of a bottom face it is xy, so in t's frame the
    columns read [uvx] = xv - uv - xu, [uvy] = yu - uv - yv,
    [xyu] = xy - xu - yu and [xyv] = xy - xv - yv, whence
    [uvx] - [uvy] + [xyv] - [xyu] = 0.  By facet, the faces opposite x,
    u, v and y have the signs -1, +1, -1, +1.  This is the dependence
    among the four face relations of a tetrahedron in Landry-Minsky-
    Taylor's taut module, on which Parlak's computation (arXiv
    2009.13558) also drops the faces of a dual spanning tree; asserted
    on every build unless run with -O."""
    incidences = [[(e, exp, coef) for e, exp, coef, _ in face]
                  for face in analysis.face_edges]
    assert _tetrahedron_relations_hold(
        analysis, incidences, _taut_relation_signs(analysis)), \
        "taut tetrahedron relation fails"
    return _presentation_matrix(analysis, incidences)


def _taut_relation_signs(analysis):
    """Per face, its signs in the taut relations of the tetrahedra below
    and above it, by the rule of ``build_taut_matrix``: facets x, u, v
    and y of the vertex order have -1, +1, -1 and +1."""
    by_facet = []
    for x, u, v, y in analysis.orders:
        signs = [0] * 4
        signs[x], signs[u], signs[v], signs[y] = -1, 1, -1, 1
        by_facet.append(signs)
    coor = analysis.coor
    return [(by_facet[t_b][fs_b], by_facet[t_a][fs_a])
            for (t_b, fs_b), (t_a, fs_a) in zip(coor.below, coor.above)]


def build_alexander_matrix(analysis):
    """Rows = edges, columns = faces; entries are the signed monomial
    boundary of the face's base lift.  The face is oriented as part of
    the boundary of the positively oriented tetrahedron below it, and
    each edge's sign compares that traversal with the class's reference
    orientation (the Alexander coefficient of ``Analysis.face_edges``).

    Tetrahedron relation (asserted unless run with -O): the boundary of
    the boundary of t's base lift vanishes.  Its top faces enter with
    sign +1; its bottom faces are oriented from the tetrahedron below
    them, against the orientation t gives them, so they enter with -1."""
    incidences = [[(e, exp, coef) for e, exp, _, coef in face]
                  for face in analysis.face_edges]
    assert _tetrahedron_relations_hold(
        analysis, incidences, [(1, -1)] * len(incidences)), \
        "Alexander tetrahedron relation fails"
    return _presentation_matrix(analysis, incidences)


def unit_pivot_reduce(mat):
    """Shrink a presentation matrix by pivoting on unit (+-monomial)
    entries, the first in row-major order each time.  A pivot step keeps
    the Schur complement: drop the pivot row and column, and subtract
    c * inv * (pivot row) from each row whose pivot-column entry c is
    nonzero.  That equals clearing the pivot row by column operations,
    so the gcd of maximal minors is kept up to a unit.  The pivot's
    inverse +-x^(-v) acts as a shift by -v, with its sign folded into
    the pivot row once.  Rows are kept sparse, as {column: nonzero
    entry}, and each update row[k] - c * p is one fused ``sub_mul``.
    Returns (residual row list over the columns left, saw_zero_row)."""
    zero = LaurentPoly.zero(mat.nvars)
    rows = [{k: p for k, p in enumerate(row) if p.terms}
            for row in mat.entries]
    cols = list(range(mat.cols))
    while rows and all(rows):
        for i, row in enumerate(rows):
            units = [k for k, p in row.items() if p.is_unit()]
            if units:
                break
        else:
            break
        j = min(units)
        prow = rows.pop(i)
        ((exp, sign),) = prow.pop(j).terms.items()
        inv_exp = tuple(-e for e in exp)
        if sign == -1:
            prow = {k: -p for k, p in prow.items()}
        for row in rows:
            if j in row:
                c = row.pop(j).shift(inv_exp)
                for k, p in prow.items():
                    q = row[k] = row.get(k, zero).sub_mul(c, p)
                    if not q.terms:
                        del row[k]
        cols.remove(j)
    return [[row.get(k, zero) for k in cols] for row in rows], not all(rows)


def fitting_gcd(mat):
    """gcd of all maximal (row-count) minors of a Laurent matrix with
    rows <= columns, unit-normalised: unit-pivot reduction, then a gcd
    over the residual's minors in deterministic column order (1 for an
    empty residual, 0 when a zero row turns up).  ``Analysis`` hands it
    tree-reduced T x (T + 1) presentations, whose residual is
    r x (r + 1), so at most r + 1 minors remain."""
    if mat.rows > mat.cols:
        raise ValueError("presentation matrix needs rows <= columns")
    residual, saw_zero_row = unit_pivot_reduce(mat)
    if saw_zero_row:
        return LaurentPoly.zero(mat.nvars)
    return maximal_minor_gcd_bruteforce(LaurentMatrix(mat.nvars, residual))


def cover_pushforward(analysis, cover_analysis):
    """Matrix of the projection from the double cover's free first
    homology onto the base's: project each cover generator's dual cycle
    down to the base (face by face, signs preserved) and read off its
    class.  The image is the kernel of omega on the free part: all of
    it when sigma does not exist (the case ``delta_hat`` needs), and a
    sublattice of index 2 when sigma exists."""
    base_table = analysis.ts.table
    cover_table = cover_analysis.ts.table
    n = base_table.n_tet
    cover_h1 = cover_analysis.h1
    base_of_cover_face = [base_table.face_index[(t % n, fs)]
                          for (t, fs), _ in cover_table.faces]
    columns = []
    for pos in cover_h1.quot.free_positions:
        zhat = cover_h1.w_position_representative(pos)
        base_z = [0] * len(base_table.faces)
        for fc, val in enumerate(zhat):
            base_z[base_of_cover_face[fc]] += val
        columns.append(analysis.h1.cycle_class_free(base_z))
    A = [[col[l] for col in columns] for l in range(analysis.h1.rank)]
    snf = smith_normal_form(A, ncols=len(columns))
    assert snf.rank == analysis.h1.rank and \
        prod(snf.diag[:snf.rank]) == (2 if analysis.eo.sigma_exists else 1), \
        "cover homology does not map onto the kernel of omega"
    return A


def verify_identities(analysis):
    """Check the sign-twist / cover-product identities on an analysis.
    Failures are recorded, not raised."""
    record = {}
    theta, delta, eo = analysis.theta, analysis.delta, analysis.eo
    theta_n = normalize_unit(theta)
    if eo.sigma_exists:
        record["identity"] = "sign_twist"
        twisted = normalize_unit(sign_twist(delta, eo.sigma))
        record["delta_hat_absent"] = analysis.delta_hat is None
        record["passed"] = theta_n == twisted and record["delta_hat_absent"]
    else:
        record["identity"] = "cover_product"
        delta_hat = analysis.delta_hat
        ok = delta_hat is not None and \
            normalize_unit(delta_hat) == normalize_unit(delta * theta)
        record["passed"] = ok
    # parity consequence: when no plain sign change of variables turns
    # delta into theta, the torsion of H1 must have even order
    r = analysis.h1.rank
    matched = False
    if r <= 12:
        for mask in range(1 << r):
            chi = tuple(-1 if (mask >> i) & 1 else 1 for i in range(r))
            if theta_n == normalize_unit(sign_twist(delta, chi)):
                matched = True
                break
        record["sign_change_match"] = matched
        if not matched:
            record["even_torsion"] = prod(analysis.h1.torsion) % 2 == 0
    return record
