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

Double cover.  Over the base's group ring the cover's complex is the
base's with coefficients in Z[H][Z/2] through omega (Shapiro's lemma),
so each cell of the cover has a lift over the base lift of its image,
and the cover's presentation is read off the base's face table
(``build_cover_alexander_matrix``).  The cover's own exponents, pushed
down, differ from the base's by a coboundary, a unit per row and per
column, which keeps the Fitting gcd and where the unit pivots fall.
"""

from functools import cached_property
from itertools import product
from math import prod
from operator import sub

from .census_io import FACE_VERTICES, SLOT_OF_PAIR
from .homology import H1Data, dual_spanning_tree, face_cocycle
from .laurent import (LaurentMatrix, LaurentPoly,
                      maximal_minor_gcd_bruteforce, normalize_unit,
                      sign_twist)
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
    faces presentation built without the columns of a dual spanning
    tree: ``tree`` for theta and delta (T x (T + 1)), the cover's own
    tree for ``delta_hat``, whose presentation is read off the face
    table (2T x (2T + 1))."""

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
        (edge slot, edge index, corner exponent, taut coefficient,
        Alexander coefficient): +1 at the upper-large edge
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
                    slot, edge_index[corner], exponents[corner],
                    1 if slot == upper_large else -1,
                    face_sign * sign * (1 if dirs[corner] == pair else -1)))
            table.append(entries)
        return table

    @cached_property
    def theta(self):
        return fitting_gcd(build_taut_matrix(self))

    @cached_property
    def delta(self):
        return fitting_gcd(build_alexander_matrix(self))

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
        return fitting_gcd(build_cover_alexander_matrix(self))


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


def _presentation_matrix(rank, n_rows, incidences, tree):
    """n_rows x (faces outside tree) matrix from per-face (edge, corner
    exponent, coefficient) incidences, in face order: each adds the
    coefficient times the monomial, coincident rows summed.  The only
    code that leaves out columns; the tree's are combinations of the
    others by the tetrahedron relations (module docstring).  The summed
    cells drop their zeros as they go, so they are wrapped as they are."""
    zero = LaurentPoly.zero(rank)
    columns = [col for f, col in enumerate(incidences) if f not in tree]
    rows = [[zero] * len(columns) for _ in range(n_rows)]
    for idx, entries in enumerate(columns):
        cells = {}
        for e, exp, coef in entries:
            terms = cells.setdefault(e, {})
            s = terms[exp] = terms.get(exp, 0) + coef
            if not s:
                del terms[exp]
        for e, terms in cells.items():
            rows[e][idx] = LaurentPoly._wrap(rank, terms)
    return LaurentMatrix(rank, rows)


def _tetrahedron_relations_hold(face_ends, cocycle, incidences, signs):
    """Whether, for every tetrahedron t, its four face columns sum to
    zero: +-1 times each top face (t below it), +-x^(-c(f)) times each
    bottom face (t above it).  face_ends[f] = (tetrahedron below f, the
    one above), cocycle[f] = c(f), and signs[f] = (sign of f as a top
    face of the tetrahedron below, sign as a bottom face of the one
    above).  Summed as {(t, edge, exponent): coefficient} on raw
    exponent tuples, where x^(-c(f)) subtracts c(f) from the exponent."""
    total = {}
    for entries, (t_top, t_bottom), c, (s_top, s_bottom) in zip(
            incidences, face_ends, cocycle, signs):
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
    over all faces unless run with -O; T x (T + 1), no ``tree`` columns."""
    incidences = [[(e, exp, coef) for _, e, exp, coef, _ in face]
                  for face in analysis.face_edges]
    assert _tetrahedron_relations_hold(
        analysis.h1.face_ends, analysis.cocycle, incidences,
        _taut_relation_signs(analysis)), "taut tetrahedron relation fails"
    return _presentation_matrix(analysis.h1.rank,
                                len(analysis.ts.table.edges), incidences,
                                analysis.tree)


def _taut_relation_signs(analysis):
    """Per face, its signs in the taut relations of the tetrahedra below
    and above it, by the rule of ``build_taut_matrix``: facets x, u, v
    and y of the vertex order have -1, +1, -1 and +1."""
    by_facet = [dict(zip(order, (-1, 1, -1, 1))) for order in analysis.orders]
    coor = analysis.coor
    return [(by_facet[t_b][fs_b], by_facet[t_a][fs_a])
            for (t_b, fs_b), (t_a, fs_a) in zip(coor.below, coor.above)]


def build_alexander_matrix(analysis):
    """Rows = edges, columns = faces; entries are the signed monomial
    boundary of the face's base lift.  The face is oriented as part of
    the boundary of the positively oriented tetrahedron below it, and
    each edge's sign compares that traversal with the class's reference
    orientation (the Alexander coefficient of ``Analysis.face_edges``).

    Tetrahedron relation (asserted over all faces unless run with -O):
    the boundary of the boundary of t's base lift vanishes.  Its top
    faces enter with sign +1; its bottom faces are oriented from the
    tetrahedron below them, against the orientation t gives them, so
    they enter with -1.  T x (T + 1), no ``tree`` columns."""
    incidences = [[(e, exp, coef) for _, e, exp, _, coef in face]
                  for face in analysis.face_edges]
    assert _tetrahedron_relations_hold(
        analysis.h1.face_ends, analysis.cocycle, incidences,
        [(1, -1)] * len(incidences)), "Alexander tetrahedron relation fails"
    return _presentation_matrix(analysis.h1.rank,
                                len(analysis.ts.table.edges), incidences,
                                analysis.tree)


def build_cover_alexander_matrix(analysis):
    """The Alexander matrix of the double cover ``Analysis.cover`` over
    the base's group ring (module docstring): 2T x (2T + 1), without
    the columns of the cover's BFS tree.  Rows are the cover's edges
    and columns its faces, in the cover table's numbering.  Each cover
    face lifts a base face f and carries f's Alexander entries
    (``Analysis.face_edges``), base exponent and coefficient, each at
    the cover edge of the lifted corner in the cover tetrahedron below.
    The cover's tetrahedron relation, with f's cocycle on the column,
    is asserted over all cover faces unless run with -O."""
    cover = analysis.cover.table
    n = analysis.ts.table.n_tet
    face_ends, cocycle, incidences = ([None] * len(cover.faces)
                                      for _ in range(3))
    for f, (t, fs) in enumerate(analysis.coor.below):
        for lift in (t, t + n):
            F = cover.face_index[(lift, fs)]
            face_ends[F] = (lift, cover.gluings[lift][fs][0])
            cocycle[F] = analysis.cocycle[f]
            incidences[F] = [(cover.edge_index[(lift, slot)], exp, coef)
                             for slot, _, exp, _, coef
                             in analysis.face_edges[f]]
    assert _tetrahedron_relations_hold(
        face_ends, cocycle, incidences, [(1, -1)] * len(incidences)), \
        "cover Alexander tetrahedron relation fails"
    return _presentation_matrix(analysis.h1.rank, len(cover.edges),
                                incidences,
                                dual_spanning_tree(2 * n, face_ends))


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
    T x (T + 1) presentations built without their tree columns, whose
    residual is r x (r + 1), so at most r + 1 minors remain."""
    if mat.rows > mat.cols:
        raise ValueError("presentation matrix needs rows <= columns")
    residual, saw_zero_row = unit_pivot_reduce(mat)
    if saw_zero_row:
        return LaurentPoly.zero(mat.nvars)
    return maximal_minor_gcd_bruteforce(LaurentMatrix(mat.nvars, residual))


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
        record["passed"] = normalize_unit(analysis.delta_hat) == \
            normalize_unit(delta * theta)
    # parity consequence: when no plain sign change of variables turns
    # delta into theta, the torsion of H1 must have even order
    r = analysis.h1.rank
    if r <= 12:
        record["sign_change_match"] = matched = any(
            theta_n == normalize_unit(sign_twist(delta, chi))
            for chi in product((1, -1), repeat=r))
        if not matched:
            record["even_torsion"] = prod(analysis.h1.torsion) % 2 == 0
    return record
