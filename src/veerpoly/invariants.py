"""Presentation matrices over the group ring of first homology, their
Fitting gcds, and identity verification.

Lift bookkeeping.  Fix the spanning-tree cocycle c on faces (zero on
tree faces).  Walking around an edge class from its canonical corner
and accumulating +/- c(face crossed) gives each corner a vector label
u; the corner's edge in the universal free-abelian cover, seen from the
base lift of the corner's tetrahedron, is the deck translate by -u of
the class's anchored lift.  Hence every matrix entry contributed by an
incidence carries the monomial with exponent -u of that corner.
"""

from functools import cached_property

from .homology import dual_spanning_tree, face_cocycle, smith_normal_form
from .laurent import (LaurentMatrix, LaurentPoly,
                      maximal_minor_gcd_bruteforce, normalize_unit,
                      sign_twist, specialize)
from . import taut


class Analysis:
    """Everything derived from one taut structure: the homology and
    edge-orientation data are computed on construction, the invariants
    on first use and then kept.

    Lazy members: ``theta`` and ``delta`` (the taut and Alexander
    polynomials), ``cover`` (the edge-orientation double cover) and
    ``delta_hat`` (the double-cover polynomial, None when sigma
    exists).  The keyword knobs select alternative presentation choices
    (used to test presentation independence)."""

    def __init__(self, ts, flip_coorientation=False, corner_rank=0,
                 face_priority=None):
        self.ts = ts
        table = ts.table
        coor = taut.derive_coorientation(ts)
        if flip_coorientation:
            coor = coor.flipped(ts)
        self.coor = coor
        self.colours = taut.derive_colouring(ts)
        self.cycles = taut.edge_corner_cycles(ts, coor,
                                              corner_rank=corner_rank)
        self.h1 = taut.compute_h1(ts, coor, self.cycles)
        self.eo = taut.edge_orientation_data(ts, coor, self.colours,
                                             self.cycles, self.h1)
        self.tracks = taut.track_slots(ts, coor)
        self.face_ends = [(coor.below[i][0], coor.above[i][0])
                          for i in range(len(table.faces))]
        self.tree, self.parent = dual_spanning_tree(
            table.n_tet, self.face_ends, face_priority=face_priority)
        self.cocycle = face_cocycle(self.h1, self.face_ends, self.tree,
                                    self.parent)
        self.labels = corner_labels(self.cycles, self.cocycle, self.h1.rank)
        self.ref_dir = {}
        for cyc in self.cycles:
            for corner, dirpair in zip(cyc.corners, cyc.dirs):
                self.ref_dir[corner] = dirpair

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
        cover_analysis = Analysis(self.cover)
        A = cover_pushforward(self, cover_analysis)
        cover_alex = build_alexander_matrix(cover_analysis)
        pushed = LaurentMatrix(self.h1.rank, [
            [specialize(p, A) for p in row] for row in cover_alex.entries])
        return fitting_gcd(pushed)


def corner_labels(cycles, cocycle, rank):
    """Deck-translation label of every corner: the signed partial sum of
    the face cocycle along the corner cycle from the canonical corner."""
    labels = {}
    for cyc in cycles:
        u = (0,) * rank
        for corner, (face_idx, eps) in zip(cyc.corners, cyc.crossings):
            labels[corner] = u
            u = tuple(a + eps * b for a, b in zip(u, cocycle[face_idx]))
        assert u == (0,) * rank, "cocycle does not close around an edge"
    return labels


def _entry_monomial(analysis, t, es, coef):
    exp = tuple(-x for x in analysis.labels[(t, es)])
    return LaurentPoly.monomial(analysis.h1.rank, exp, coef)


def build_taut_matrix(analysis):
    """Rows = edges, columns = faces; +monomial at the face's upper-large
    edge, -monomial at its two small edges, coincident rows summed."""
    table = analysis.ts.table
    r = analysis.h1.rank
    rows = [[LaurentPoly.zero(r) for _ in table.faces] for _ in table.edges]
    for idx in range(len(table.faces)):
        t_b, fs_b = analysis.coor.below[idx]
        upper_large = analysis.tracks[idx][1]
        for es in taut.FACE_SLOTS[fs_b]:
            sign = 1 if es == upper_large else -1
            e = table.edge_index[(t_b, es)]
            rows[e][idx] = rows[e][idx] + _entry_monomial(
                analysis, t_b, es, sign)
    return LaurentMatrix(r, rows)


# boundary traversal of a triangle [a,b,c] (a<b<c): +ab, +bc, -ac
_TRAVERSAL = (((0, 1), 1), ((1, 2), 1), ((0, 2), -1))


def build_alexander_matrix(analysis):
    """Rows = edges, columns = faces; entries are the signed monomial
    boundary of the face's base lift.  The face is oriented as part of
    the boundary of the positively oriented tetrahedron below it, and
    each edge's sign compares that traversal with the class's reference
    orientation."""
    table = analysis.ts.table
    r = analysis.h1.rank
    rows = [[LaurentPoly.zero(r) for _ in table.faces] for _ in table.edges]
    for idx in range(len(table.faces)):
        t_b, fs_b = analysis.coor.below[idx]
        verts = [v for v in range(4) if v != fs_b]
        face_sign = -1 if fs_b % 2 else 1
        for (i, j), tsign in _TRAVERSAL:
            a, b = verts[i], verts[j]
            es = taut.SLOT_OF_PAIR[(a, b)]
            agree = 1 if analysis.ref_dir[(t_b, es)] == (a, b) else -1
            coef = face_sign * tsign * agree
            e = table.edge_index[(t_b, es)]
            rows[e][idx] = rows[e][idx] + _entry_monomial(
                analysis, t_b, es, coef)
    return LaurentMatrix(r, rows)


def unit_pivot_reduce(mat):
    """Shrink a presentation matrix by pivoting on unit (+-monomial)
    entries, the first in row-major order each time.  A pivot step keeps
    the Schur complement: drop the pivot row and column, and subtract
    c * inv * (pivot row) from each row whose pivot-column entry c is
    nonzero.  That equals clearing the pivot row by column operations,
    so the gcd of maximal minors is kept up to a unit.  Returns
    (residual row list, saw_zero_row)."""
    entries = [list(row) for row in mat.entries]
    while entries:
        if any(all(p.is_zero() for p in row) for row in entries):
            return entries, True
        pivot = next(((i, j) for i, row in enumerate(entries)
                      for j, p in enumerate(row) if p.is_unit()), None)
        if pivot is None:
            break
        i, j = pivot
        prow = entries.pop(i)
        inv = prow[j].unit_inverse()
        support = [k for k, p in enumerate(prow)
                   if k != j and not p.is_zero()]
        for row in entries:
            if not row[j].is_zero():
                c = row[j] * inv
                for k in support:
                    row[k] = row[k] - c * prow[k]
            row.pop(j)
    return entries, False


def fitting_gcd(mat):
    """gcd of all maximal (row-count) minors of a Laurent matrix with
    rows <= columns, unit-normalised: unit-pivot reduction, then a gcd
    over the residual's minors in deterministic column order (1 for an
    empty residual, 0 when a zero row turns up)."""
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
    class.  Surjective whenever the cover is connected, i.e. whenever
    the map is needed."""
    base_table = analysis.ts.table
    cover_table = cover_analysis.ts.table
    n = base_table.n_tet
    cover_h1 = cover_analysis.h1
    base_of_cover_face = []
    for (t, fs), _ in cover_table.faces:
        base_of_cover_face.append(base_table.face_index[(t % n, fs)])
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
        all(d == 1 for d in snf.diag[:snf.rank]), \
        "cover homology does not surject onto the base"
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
        record["passed"] = theta_n == twisted
        record["delta_hat_absent"] = analysis.delta_hat is None
        record["passed"] = record["passed"] and record["delta_hat_absent"]
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
            order = 1
            for d in analysis.h1.torsion:
                order *= d
            record["even_torsion"] = (order % 2 == 0)
    return record
