"""Independent reference implementations used only by the test suite.

Everything here is deliberately naive: cofactor determinants, exhaustive
minor enumeration, rational row reduction, and a small Fox-calculus engine
for two-generator one-relator groups.  None of it shares code paths with the
package's production pipeline, except ``all_columns_fitting_gcd`` and
the cells of ``all_columns_matrices``.  The
fraction-free Bareiss determinant (``bareiss_determinant``) that the
package used before its division-free Laplace sweep is kept as the
determinant reference at sizes that cofactor expansion cannot reach; it
divides with the package's ``exact_div``.  The term loops of +, * and
the binary ** ladder that ``LaurentPoly`` ran before every product went
through ``sub_mul`` (``reference_add``, ``reference_mul``,
``reference_pow``) are the operator references, and cofactor expansion
multiplies and sums with them.  The graded-lex division on exponent
tuples that ``exact_div`` ran before exponents were packed
(``reference_exact_div``) is its reference.  The
earlier two-pass signature decoder, gluing-table builder, corner walk,
face walks of the two presentation matrices, dense face cocycle, dense
chain complex and dense ``H1Data`` are kept here too, and so are the
per-tetrahedron orientation templates, the edge-by-edge face
comparison, the colour rule of the taut relation signs, the side-space
route to the cusp links, the filling solver's earlier decision and the
route to the double-cover polynomial
through a second ``Analysis`` of the cover (``reference_delta_hat``);
they use the package's permutation helpers, ``AbelianQuotient``,
``H1Data`` (the link's, and its class of a cycle), the colours of
``taut.derive_colouring``, the corner data of ``Analysis`` and, for the
cover, its Alexander matrix, Smith form and Fitting gcd.  The dense
``H1Data`` takes the Smith form of d1, both column transforms included,
from ``full_scan_snf`` rather than the package's.  ``variant_analysis``
builds the package's ``Analysis`` in another presentation of the same
structure.
"""

import copy
from fractions import Fraction
from itertools import combinations
from math import prod
from operator import sub
from unittest import mock

from veerpoly import taut
from veerpoly.census_io import (ALPHABET, CensusError, FACE_SLOTS,
                                GluingTable, ISOSIG_PERMS, OPPOSITE_SLOT,
                                SLOT_OF_PAIR, TautStructure, VERTEX_PAIRS,
                                compose, invert, perm_sign, slot_image)
from veerpoly.homology import (AbelianQuotient, H1Data, int_matmul,
                               smith_normal_form)
from veerpoly.invariants import (Analysis, _presentation_matrix,
                                 build_alexander_matrix, fitting_gcd)
from veerpoly.laurent import (LaurentMatrix, LaurentPoly, _require, _unpack,
                              exact_div, gcd, normalize_unit, sign_twist,
                              specialize)
from veerpoly.taut import (Coorientation, derive_colouring,
                           derive_coorientation)


def reference_add(a, b):
    """a + b, one term of b at a time."""
    if a.nvars != b.nvars:
        raise ValueError("operands live in different Laurent rings")
    out = dict(a.terms)
    for exp, coef in b.terms.items():
        s = out.get(exp, 0) + coef
        if s:
            out[exp] = s
        else:
            out.pop(exp, None)
    return LaurentPoly(a.nvars, out)


def reference_mul(a, b):
    """a * b, summed over every pair of terms."""
    if a.nvars != b.nvars:
        raise ValueError("operands live in different Laurent rings")
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                del out[e]
    return LaurentPoly(a.nvars, out)


def reference_pow(a, n):
    """a ** n for n >= 0 by repeated squaring."""
    out = LaurentPoly.one(a.nvars)
    while n:
        if n & 1:
            out = reference_mul(out, a)
        a = reference_mul(a, a)
        n >>= 1
    return out


def reference_exact_div(p, q):
    """p / q in the Laurent ring, or None when q does not divide p:
    both moved to polynomial position on exponent tuples, then
    leading-term division in graded-lex order."""
    if q.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if p.is_zero():
        return LaurentPoly.zero(p.nvars)
    a, b = (tuple(map(min, zip(*x.terms))) for x in (p, q))
    rem = {tuple(map(sub, e, a)): c for e, c in p.terms.items()}
    den = {tuple(map(sub, e, b)): c for e, c in q.terms.items()}

    def grlex(e):
        return (sum(e), e)

    qexp = max(den, key=grlex)
    out = {}
    while rem:
        rexp = max(rem, key=grlex)
        c, r = divmod(rem[rexp], den[qexp])
        exp = tuple(map(sub, rexp, qexp))
        if r or min(exp) < 0:
            return None
        out[exp] = c
        for e, d in den.items():
            k = tuple(x + y for x, y in zip(e, exp))
            s = rem.get(k, 0) - c * d
            if s:
                rem[k] = s
            else:
                del rem[k]
    return LaurentPoly(p.nvars, {tuple(x + y - z for x, y, z in zip(e, a, b)):
                                 c for e, c in out.items()})


def cofactor_determinant(entries):
    """Determinant by first-row cofactor expansion (lists of LaurentPoly)."""
    n = len(entries)
    if n == 0:
        raise ValueError("use the 0x0 convention at the caller")
    if n == 1:
        return entries[0][0]
    nvars = entries[0][0].nvars
    total = LaurentPoly.zero(nvars)
    for j, top in enumerate(entries[0]):
        if top.is_zero():
            continue
        minor = [row[:j] + row[j + 1:] for row in entries[1:]]
        term = reference_mul(top, cofactor_determinant(minor))
        total = reference_add(total, term if j % 2 == 0 else -term)
    return total


def bareiss_determinant(mat):
    """Exact determinant of a square LaurentMatrix by fraction-free
    (Bareiss) elimination.  The empty (0 x 0) matrix has determinant 1.

    Step k divides by the previous pivot, which at step 0 is 1, so that
    step divides nothing.  The package's determinant until it became a
    division-free Laplace sweep; the reference at sizes that cofactor
    expansion cannot reach.
    """
    if mat.rows != mat.cols:
        raise ValueError("determinant of a non-square matrix")
    a = [row[:] for row in mat.entries]
    nvars = mat.nvars
    n = len(a)
    if n == 0:
        return LaurentPoly.one(nvars)
    sign = 1
    for k in range(n - 1):
        pivot = next((i for i in range(k, n) if not a[i][k].is_zero()), None)
        if pivot is None:
            return LaurentPoly.zero(nvars)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = (a[k][k] * a[i][j]).sub_mul(a[i][k], a[k][j])
                a[i][j] = num if k == 0 else _require(exact_div(num, prev))
            a[i][k] = LaurentPoly.zero(nvars)
        prev = a[k][k]
    det = a[n - 1][n - 1]
    return det if sign == 1 else -det


def exhaustive_fitting_gcd(mat):
    """gcd of all row-size minors via cofactor expansion, no shortcuts."""
    if mat.rows == 0:
        return LaurentPoly.one(mat.nvars)
    acc = LaurentPoly.zero(mat.nvars)
    for cols in combinations(range(mat.cols), mat.rows):
        entries = [[mat.entries[i][j] for j in cols] for i in range(mat.rows)]
        acc = gcd(acc, cofactor_determinant(entries))
    return normalize_unit(acc)


def all_columns_fitting_gcd(mat):
    """The Fitting gcd as taken before the tree reduction: the package's
    ``fitting_gcd`` on the full edges x faces presentation, every face
    column kept (``all_columns_matrices``).  The one oracle here that
    reuses production code: it checks the column drop, not the gcd."""
    return normalize_unit(fitting_gcd(mat))


def all_columns_matrices(analysis):
    """The taut and Alexander presentations with every face column, the
    tree's included (T x 2T), in that order: the package's cell code,
    ``_presentation_matrix`` with an empty tree, over the taut and the
    Alexander coefficients of ``Analysis.face_edges``."""
    rank, n_edges = analysis.h1.rank, len(analysis.ts.table.edges)
    return [_presentation_matrix(
        rank, n_edges, [[(e, exp, coefs[k]) for _, e, exp, *coefs in face]
                        for face in analysis.face_edges], ())
            for k in (0, 1)]


def tetrahedron_relation_sums(analysis, mat, signs):
    """Per tetrahedron t, the column vector sum over its faces of
    signs[(t, facet)] times the face column, with x^(-c(f)) on the
    bottom faces (t above f), in LaurentPoly arithmetic."""
    coor = analysis.coor
    r = mat.nvars
    sums = [[LaurentPoly.zero(r) for _ in range(mat.rows)]
            for _ in range(analysis.ts.table.n_tet)]
    for f in range(mat.cols):
        sides = ((coor.below[f], LaurentPoly.one(r)),
                 (coor.above[f], LaurentPoly(
                     r, {tuple(-c for c in analysis.cocycle[f]): 1})))
        for (t, fs), mono in sides:
            for i in range(mat.rows):
                sums[t][i] = sums[t][i] + \
                    signs[(t, fs)] * mono * mat.entries[i][f]
    return sums


# boundary traversal of a triangle [a,b,c] (a<b<c): +ab, +bc, -ac
_TRAVERSAL = (((0, 1), 1), ((1, 2), 1), ((0, 2), -1))


def _summed_matrix(analysis, incidences):
    """Edges x faces matrix, each cell the LaurentPoly sum of its
    face's signed monomials at that edge, each packed corner exponent
    unpacked to its tuple."""
    table = analysis.ts.table
    r = analysis.h1.rank
    rows = [[LaurentPoly.zero(r)] * len(table.faces) for _ in table.edges]
    for idx, entries in enumerate(incidences):
        for e, exp, coef in entries:
            rows[e][idx] = rows[e][idx] + LaurentPoly(r, {_unpack(exp, r):
                                                          coef})
    return rows


def reference_taut_matrix(analysis):
    """The earlier face walk of ``build_taut_matrix``, kept as an
    oracle: per face, its three slots at the tetrahedron below in
    ``FACE_SLOTS`` order, +1 at the upper-large edge and -1 elsewhere.
    The upper-large edge is found from the gluing, not read from
    ``Coorientation.upper_large``: the bottom diagonal of the
    tetrahedron above, pulled back by the inverse gluing.  Returns the
    row lists."""
    table, coor = analysis.ts.table, analysis.coor
    incidences = []
    for (t_b, fs_b), (t_a, _) in zip(coor.below, coor.above):
        upper_large = slot_image(invert(table.gluings[t_b][fs_b][1]),
                                 coor.bot_slot[t_a])
        incidences.append([
            (table.edge_index[(t_b, es)], analysis.exponents[(t_b, es)],
             1 if es == upper_large else -1)
            for es in FACE_SLOTS[fs_b]])
    return _summed_matrix(analysis, incidences)


def reference_alexander_matrix(analysis):
    """The earlier face walk of ``build_alexander_matrix``, kept as an
    oracle: per face, the traversal of its facet's vertex list, each
    edge signed by the facet's orientation and by its agreement with
    the reference direction at that corner.  Returns the row lists."""
    table = analysis.ts.table
    ref_dir = {corner: dirpair for cyc in analysis.cycles
               for corner, dirpair in zip(cyc.corners, cyc.dirs)}
    incidences = []
    for idx in range(len(table.faces)):
        t_b, fs_b = analysis.coor.below[idx]
        verts = [v for v in range(4) if v != fs_b]
        face_sign = -1 if fs_b % 2 else 1
        entries = []
        for (i, j), tsign in _TRAVERSAL:
            a, b = verts[i], verts[j]
            es = VERTEX_PAIRS.index((a, b))
            agree = 1 if ref_dir[(t_b, es)] == (a, b) else -1
            entries.append((table.edge_index[(t_b, es)],
                            analysis.exponents[(t_b, es)],
                            face_sign * tsign * agree))
        incidences.append(entries)
    return _summed_matrix(analysis, incidences)


def dense_int_matvec(A, v):
    """A * v by the dense double loop."""
    return [sum(a * x for a, x in zip(row, v)) for row in A]


def dense_kernel_to_cycle(dense, y):
    """The face-space cycle sum_i y[i] * V[:, rho + i] of a
    ``DenseH1Data``, summed densely."""
    rho = dense.rho
    return [sum(dense.V[f][rho + i] * y[i] for i in range(dense.q))
            for f in range(dense.n_faces)]


def dense_unit_pivot_reduce(mat):
    """The earlier unit-pivot reduction, kept as an oracle: for each
    unit pivot (first in row-major order) clear the pivot row by column
    operations over every row, then drop the pivot row and column.
    Returns (residual row list, saw_zero_row)."""
    entries = [list(row) for row in mat.entries]
    while True:
        for row in entries:
            if all(p.is_zero() for p in row):
                return entries, True
        pivot = None
        for i, row in enumerate(entries):
            for j, p in enumerate(row):
                if p.is_unit():
                    pivot = (i, j)
                    break
            if pivot:
                break
        if pivot is None:
            return entries, False
        i, j = pivot
        ((exp, coef),) = entries[i][j].terms.items()
        inv = LaurentPoly(mat.nvars, {tuple(-e for e in exp): coef})
        for k in range(len(entries[0])):
            if k == j or entries[i][k].is_zero():
                continue
            factor = entries[i][k] * inv
            for row in entries:
                row[k] = row[k] - factor * row[j]
        entries.pop(i)
        for row in entries:
            row.pop(j)
        if not entries:
            return entries, False


def rational_rank(matrix):
    """Rank of an integer matrix by exact Gaussian elimination over Q."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for j in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][j]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][j]:
                f = rows[i][j]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def naive_int_matmul(A, B):
    """Product of list-of-rows integer matrices by the dense triple loop.

    Width follows the package's convention: len(B[0]), or 0 when B has
    no rows.
    """
    ncols = len(B[0]) if B else 0
    return [[sum(row[k] * B[k][j] for k in range(len(B)))
             for j in range(ncols)] for row in A]


def full_scan_snf(A, ncols=None):
    """(diag, U, Uinv, V, Vinv) of the reference Smith normal form.

    The pivot is the smallest nonzero |entry| of the trailing submatrix,
    first in row-major order, found by scanning every entry; the
    divisibility-chain scan runs after every pivot.  The package must
    pick the same pivots, since its transforms define the cusp-link
    bases of the filling code.
    """
    m = len(A)
    n = len(A[0]) if m else (ncols or 0)
    D = [list(row) for row in A]
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    Uinv = [row[:] for row in U]
    V = [[int(i == j) for j in range(n)] for i in range(n)]
    Vinv = [row[:] for row in V]

    def swap_rows(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]
        for row in Uinv:
            row[i], row[j] = row[j], row[i]

    def swap_cols(i, j):
        for row in D + V:
            row[i], row[j] = row[j], row[i]
        Vinv[i], Vinv[j] = Vinv[j], Vinv[i]

    def add_row(i, j, c):
        D[i] = [a + c * b for a, b in zip(D[i], D[j])]
        U[i] = [a + c * b for a, b in zip(U[i], U[j])]
        for row in Uinv:
            row[j] -= c * row[i]

    def add_col(j, i, c):
        for row in D + V:
            row[j] += c * row[i]
        Vinv[i] = [a - c * b for a, b in zip(Vinv[i], Vinv[j])]

    for k in range(min(m, n)):
        nonzero = [(abs(D[i][j]), i, j) for i in range(k, m)
                   for j in range(k, n) if D[i][j]]
        if not nonzero:
            break
        _, pi, pj = min(nonzero)
        swap_rows(k, pi)
        swap_cols(k, pj)
        while True:
            i = next((i for i in range(k + 1, m) if D[i][k]), None)
            if i is not None:
                add_row(i, k, -(D[i][k] // D[k][k]))
                if D[i][k]:
                    swap_rows(k, i)
                continue
            j = next((j for j in range(k + 1, n) if D[k][j]), None)
            if j is not None:
                add_col(j, k, -(D[k][j] // D[k][k]))
                if D[k][j]:
                    swap_cols(k, j)
                continue
            bad = next((i for i in range(k + 1, m)
                        if any(D[i][j] % D[k][k] for j in range(k + 1, n))),
                       None)
            if bad is None:
                break
            add_row(k, bad, 1)
        if D[k][k] < 0:
            D[k] = [-x for x in D[k]]
            U[k] = [-x for x in U[k]]
            for row in Uinv:
                row[k] = -row[k]
    diag = [D[i][i] for i in range(min(m, n))]
    return diag, U, Uinv, V, Vinv


def abelian_group_from_relations(n_gens, relations):
    """(rank, sorted torsion divisors > 1) of Z^n / <relation rows>.

    Computed by naive integer row reduction to Smith form, written without
    reference to the package's own Smith implementation.
    """
    rows = [list(r) for r in relations]
    cols = n_gens
    mat = [row[:] + [0] * (cols - len(row)) for row in rows]
    divisors = []
    top = 0
    left = 0
    while top < len(mat) and left < cols:
        best = None
        for i in range(top, len(mat)):
            for j in range(left, cols):
                v = abs(mat[i][j])
                if v and (best is None or v < best[0]):
                    best = (v, i, j)
        if best is None:
            break
        _, bi, bj = best
        mat[top], mat[bi] = mat[bi], mat[top]
        for row in mat:
            row[left], row[bj] = row[bj], row[left]
        # clear the pivot row and column by repeated remainder steps
        dirty = True
        while dirty:
            dirty = False
            for i in range(top + 1, len(mat)):
                if mat[i][left]:
                    q = mat[i][left] // mat[top][left]
                    mat[i] = [a - q * b for a, b in zip(mat[i], mat[top])]
                    if mat[i][left]:
                        mat[top], mat[i] = mat[i], mat[top]
                        dirty = True
            for j in range(left + 1, cols):
                if mat[top][j]:
                    q = mat[top][j] // mat[top][left]
                    for row in mat:
                        row[j] -= q * row[left]
                    if mat[top][j]:
                        for row in mat:
                            row[left], row[j] = row[j], row[left]
                        dirty = True
        divisors.append(abs(mat[top][left]))
        top += 1
        left += 1
    # fix the divisibility chain
    changed = True
    while changed:
        changed = False
        for i in range(len(divisors) - 1):
            a, b = divisors[i], divisors[i + 1]
            if a and b and b % a:
                import math
                g = math.gcd(a, b)
                divisors[i], divisors[i + 1] = g, a * b // g
                changed = True
    rank = cols - len([d for d in divisors if d])
    torsion = sorted(d for d in divisors if d > 1)
    return rank, torsion


def fox_alexander_polynomial(generators, relators):
    """Alexander polynomial of a 2-generator 1-relator knot-group presentation
    with infinite cyclic abelianization, by Fox calculus.

    ``generators`` maps each generator name to its abelianized image (an
    integer, the exponent of t).  ``relators`` is a list of words, each word a
    list of (generator name, +-1) letters.  Returns the gcd of the maximal
    minors of the Alexander matrix (one row per relator, one column per
    generator), dropping one column, as a 1-variable LaurentPoly.
    """
    names = sorted(generators)
    rows = []
    for word in relators:
        # Fox derivative d/dg of the word, evaluated in Z[t, t^-1]
        derivs = {g: LaurentPoly.zero(1) for g in names}
        prefix = 0  # abelianized exponent of the prefix read so far
        for g, s in word:
            if s == 1:
                derivs[g] = derivs[g] + LaurentPoly(1, {(prefix,): 1})
                prefix += generators[g]
            else:
                prefix -= generators[g]
                derivs[g] = derivs[g] - LaurentPoly(1, {(prefix,): 1})
        rows.append([derivs[g] for g in names])
    # Alexander polynomial: gcd of the (n-1)-minors of the matrix with one
    # column deleted -- for a knot group, any single column works; take the
    # gcd over all choices for safety.
    acc = LaurentPoly.zero(1)
    n = len(names)
    for drop in range(n):
        kept = [j for j in range(n) if j != drop]
        for rsel in combinations(range(len(rows)), min(len(rows), n - 1)):
            entries = [[rows[i][j] for j in kept] for i in rsel]
            if entries and len(entries) == len(entries[0]):
                acc = gcd(acc, cofactor_determinant(entries))
    return normalize_unit(acc)


def vertex_classes_bfs(table):
    """Ideal-vertex classes of tetrahedron corners by breadth-first search
    across the face gluings, each class sorted and the classes sorted."""
    seen = set()
    classes = []
    for t in range(table.n_tet):
        for v in range(4):
            if (t, v) in seen:
                continue
            comp = []
            queue = [(t, v)]
            seen.add((t, v))
            while queue:
                ct, cv = queue.pop(0)
                comp.append((ct, cv))
                for fs in range(4):
                    if fs == cv:
                        continue
                    t2, p = table.gluings[ct][fs]
                    c2 = (t2, p[cv])
                    if c2 not in seen:
                        seen.add(c2)
                        queue.append(c2)
            classes.append(sorted(comp))
    classes.sort()
    return classes


def reference_replay(sig):
    """The earlier signature decoder's parse and replay, in the
    signature's own labels: (gluings, None) for a closed gluing, or
    (the gluings made so far, message) where the replay fails.  The
    header's errors (size, type sequence, length, permutation indices)
    raise CensusError."""
    if not sig:
        raise CensusError("empty signature")
    try:
        vals = [ALPHABET.index(ch) for ch in sig]
    except ValueError:
        bad = next(ch for ch in sig if ch not in ALPHABET)
        raise CensusError("invalid signature character %r" % bad)
    n, pos = vals[0], 1
    if n == 63:
        raise CensusError("signatures for 63 or more tetrahedra "
                          "are not supported")
    if n == 0:
        raise CensusError("empty triangulation")
    types = []
    consumed = 0
    bits_pos = pos
    while consumed < 4 * n:
        char_off, within = divmod(len(types), 3)
        if bits_pos + char_off >= len(vals):
            raise CensusError("signature truncated in type sequence")
        ty = (vals[bits_pos + char_off] >> (2 * within)) & 3
        if ty == 3:
            raise CensusError("invalid gluing event type")
        if ty == 0:
            raise CensusError("boundary faces are not supported")
        types.append(ty)
        consumed += 2
    pos = bits_pos + (len(types) + 2) // 3
    n_explicit = sum(1 for ty in types if ty == 2)
    if len(vals) - pos != 2 * n_explicit:
        raise CensusError("signature has wrong length")
    dests = vals[pos: pos + n_explicit]
    perm_indices = vals[pos + n_explicit:]
    for pi in perm_indices:
        if pi >= 24:
            raise CensusError("invalid permutation index %d" % pi)

    gluings = [[None] * 4 for _ in range(n)]
    created = 1
    explicit = 0
    event = 0
    for t in range(n):
        for f in range(4):
            if t >= created:
                return gluings, ("signature describes a disconnected "
                                 "or incomplete triangulation")
            if gluings[t][f] is not None:
                continue
            ty = types[event]
            event += 1
            if ty == 1:
                if created >= n:
                    return gluings, "too many tetrahedra in signature"
                t2 = created
                created += 1
                p = ISOSIG_PERMS[0]
            else:
                t2 = dests[explicit]
                p = ISOSIG_PERMS[perm_indices[explicit]]
                explicit += 1
                if t2 >= created:
                    return gluings, "gluing destination %d not yet seen" % t2
            f2 = p[f]
            if (t2, f2) == (t, f):
                return gluings, "facet glued to itself"
            if gluings[t2][f2] is not None:
                return gluings, "facet (%d,%d) glued twice" % (t2, f2)
            gluings[t][f] = (t2, p)
            gluings[t2][f2] = (t, invert(p))
    if event != len(types) or created != n:
        return gluings, ("signature does not describe a closed gluing "
                         "of %d tetrahedra" % n)
    return gluings, None


def reference_parities(gluings):
    """The earlier decoder's orientation pass: a second breadth-first
    search from tetrahedron 0 over the glued facets (a facet not yet
    glued is passed over).  Crossing an odd gluing keeps the parity, an
    even one flips it; returns the parity of each tetrahedron reached,
    or raises CensusError on an inconsistency."""
    parity = {0: 1}
    queue = [0]
    for t in queue:
        for entry in gluings[t]:
            if entry is None:
                continue
            t2, p = entry
            want = -parity[t] * perm_sign(p)
            if t2 not in parity:
                parity[t2] = want
                queue.append(t2)
            elif parity[t2] != want:
                raise CensusError("triangulation is non-orientable")
    return parity


def reference_decode_isosig(sig):
    """The earlier two-pass decoder, kept as the oracle of
    ``census_io.decode_isosig``: the replay, then the orientation
    search over the finished table, then a relabelled copy of the table
    with vertices 2 and 3 swapped on each tetrahedron of parity -1."""
    gluings, error = reference_replay(sig)
    if error is not None:
        raise CensusError(error)
    parity = reference_parities(gluings)
    relabelled = [parity[t] < 0 for t in range(len(gluings))]
    swap = (0, 1, 3, 2)
    ident = (0, 1, 2, 3)
    new = [[None] * 4 for _ in gluings]
    for t, row in enumerate(gluings):
        rt = swap if relabelled[t] else ident
        for f, (t2, p) in enumerate(row):
            rt2 = swap if relabelled[t2] else ident
            new[t][rt[f]] = (t2, compose(rt2, compose(p, rt)))
    return GluingTable(new), relabelled


class TwoSidedGluingTable:
    """The earlier GluingTable builder, kept as an oracle: every facet is
    checked on its own, with perm_sign and compose, and every face gluing
    is walked from both sides, one union-find union per edge and per
    vertex on each side.  Gives the same faces, edges and vertices (and
    the same first CensusError) as ``census_io.GluingTable``."""

    def __init__(self, gluings):
        self.n_tet = len(gluings)
        if self.n_tet == 0:
            raise CensusError("empty triangulation")
        self.gluings = [list(row) for row in gluings]
        self._validate()
        self._build_faces()
        self._build_edges()
        self._build_vertices()

    def _validate(self):
        for t, row in enumerate(self.gluings):
            if len(row) != 4:
                raise CensusError("tetrahedron %d does not have 4 gluings"
                                  % t)
            for f, entry in enumerate(row):
                if entry is None:
                    raise CensusError("boundary faces are not supported")
                t2, p = entry
                if not (0 <= t2 < self.n_tet) or sorted(p) != [0, 1, 2, 3]:
                    raise CensusError("malformed gluing on (%d,%d)" % (t, f))
                if perm_sign(p) != -1:
                    raise CensusError(
                        "gluing permutation on (%d,%d) is even; table is "
                        "not coherently oriented" % (t, f))
                f2 = p[f]
                if (t2, f2) == (t, f):
                    raise CensusError("facet (%d,%d) glued to itself"
                                      % (t, f))
                back_t, back_p = self.gluings[t2][f2]
                if back_t != t or compose(back_p, p) != (0, 1, 2, 3):
                    raise CensusError(
                        "gluings on (%d,%d) and (%d,%d) are not inverse"
                        % (t, f, t2, f2))

    def _build_faces(self):
        self.face_index = {}
        self.faces = []
        for t in range(self.n_tet):
            for f in range(4):
                if (t, f) in self.face_index:
                    continue
                t2, p = self.gluings[t][f]
                idx = len(self.faces)
                self.face_index[(t, f)] = idx
                self.face_index[(t2, p[f])] = idx
                self.faces.append(((t, f), (t2, p[f])))

    def _build_edges(self):
        uf = _UnionFind(6 * self.n_tet)
        for t in range(self.n_tet):
            for f in range(4):
                t2, p = self.gluings[t][f]
                for slot in range(6):
                    if f not in VERTEX_PAIRS[slot]:
                        uf.union(6 * t + slot, 6 * t2 + slot_image(p, slot))
        self.edge_index, self.edges = uf.classes(6)

    def _build_vertices(self):
        uf = _UnionFind(4 * self.n_tet)
        for t in range(self.n_tet):
            for f in range(4):
                t2, p = self.gluings[t][f]
                for v in range(4):
                    if v != f:
                        uf.union(4 * t + v, 4 * t2 + p[v])
        _, self.vertices = uf.classes(4)


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            x = self.parent[x]
        return x

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[max(rx, ry)] = min(rx, ry)

    def classes(self, width):
        """(index, classes) with classes in order of first member."""
        roots = {}
        index = {}
        classes = []
        for x in range(len(self.parent)):
            r = self.find(x)
            if r not in roots:
                roots[r] = len(classes)
                classes.append([])
            key = (x // width, x % width)
            index[key] = roots[r]
            classes[roots[r]].append(key)
        return index, classes


def _path_to_root(t, parent, n_faces):
    """Signed face vector of the tree walk from t to the root."""
    vec = [0] * n_faces
    while parent[t] is not None:
        pt, f, sign = parent[t]
        # parent -> t crosses with `sign`; we walk t -> parent
        vec[f] -= sign
        t = pt
    return vec


def dense_face_cocycle(h1, face_ends, tree_faces, parent):
    """The earlier face cocycle, kept as an oracle: for each non-tree
    face, the dense fundamental cycle e_f + path(a) - path(b) and its
    class by the quotient's ``class_free`` of its kernel coordinates."""
    n_faces = len(face_ends)
    zero = (0,) * h1.rank
    c = []
    for f, (b, a) in enumerate(face_ends):
        if f in tree_faces:
            c.append(zero)
            continue
        z = [0] * n_faces
        z[f] += 1
        pa = _path_to_root(a, parent, n_faces)
        pb = _path_to_root(b, parent, n_faces)
        for i in range(n_faces):
            z[i] += pa[i] - pb[i]
        c.append(h1.quot.class_free(h1.cycle_kernel_coords(z)))
    return c


def reference_corner_cycles(ts, coor, corner_rank=0):
    """The earlier ``taut.edge_corner_cycles``, kept as an oracle: each
    exit facet found by scanning the facets, each slot image by
    ``slot_image``, each crossing sign read off ``coor.below``, and the
    anchor taken from the sorted class.  Returns, per edge class, its
    (corners, dirs, crossings, exits)."""
    table = ts.table
    cycles = []
    for cls in table.edges:
        t0, s0 = sorted(cls)[corner_rank % len(cls)]
        u, v = VERTEX_PAIRS[s0]
        exit0 = min(fs for fs in range(4) if fs not in VERTEX_PAIRS[s0])
        corners, dirs, crossings, exits = [], [], [], []
        t, s, dirpair, exit_fs = t0, s0, (u, v), exit0
        while True:
            corners.append((t, s))
            dirs.append(dirpair)
            exits.append(exit_fs)
            t2, p = table.gluings[t][exit_fs]
            face_idx = table.face_index[(t, exit_fs)]
            eps = 1 if coor.below[face_idx] == (t, exit_fs) else -1
            crossings.append((face_idx, eps))
            s2 = slot_image(p, s)
            dir2 = (p[dirpair[0]], p[dirpair[1]])
            enter = p[exit_fs]
            others = [fs for fs in range(4)
                      if fs not in VERTEX_PAIRS[s2] and fs != enter]
            assert len(others) == 1
            t, s, dirpair, exit_fs = t2, s2, dir2, others[0]
            if (t, s) == (t0, s0):
                assert dirpair == (u, v)
                break
        assert len(corners) == len(cls)
        cycles.append((corners, dirs, crossings, exits))
    return cycles


def flipped_coorientation(ts):
    """The coorientation opposite to ``derive_coorientation``'s: the
    other diagonal of every tetrahedron on top, so the top and bottom
    slots trade places and so do the sides below and above each face.
    Each face's upper-large slot is then the derived top diagonal of
    the tetrahedron below it, carried across the gluing into the labels
    of the tetrahedron above, which is below it now."""
    coor = derive_coorientation(ts)
    upper_large = [slot_image(ts.table.gluings[t][fs][1], coor.top_slot[t])
                   for t, fs in coor.below]
    return Coorientation(coor.bot_slot, coor.top_slot, coor.above,
                         coor.below, upper_large)


def reanchored(ts, rank):
    """ts with each edge class listed from its member rank, mod the
    class size, instead of from its smallest corner, so that
    ``taut.edge_corner_cycles`` walks each cycle from that corner."""
    table = copy.copy(ts.table)
    table.edges = [cls[rank % len(cls):] + cls[:rank % len(cls)]
                   for cls in ts.table.edges]
    return TautStructure(ts.sig, table, ts.digits)


def variant_analysis(ts, flip=False, corner_rank=0):
    """``Analysis`` of ts in another presentation: the flipped
    coorientation when flip, and every corner cycle anchored at member
    corner_rank of its class.  ``Analysis`` reads
    ``taut.derive_coorientation`` while it is built, so the flip swaps
    that function for the time of the build."""
    derive = flipped_coorientation if flip else derive_coorientation
    with mock.patch.object(taut, "derive_coorientation", derive):
        return Analysis(reanchored(ts, corner_rank))


def bfs_tree_faces(n_tets, face_ends):
    """Faces of the BFS tree of a connected dual graph from tet 0, each
    tet's faces taken in face order, found by scanning every face for
    each tet dequeued."""
    seen = {0}
    queue = [0]
    tree = set()
    for t in queue:
        for f, (below, above) in enumerate(face_ends):
            if t in (below, above):
                other = above if below == t else below
                if other not in seen:
                    seen.add(other)
                    queue.append(other)
                    tree.add(f)
    assert len(seen) == n_tets
    return tree


def dense_chain_complex(ts, coor, cycles):
    """The earlier builder of d1 (tets x faces) and d2 (faces x edges) of
    a taut structure's dual 2-complex, kept as an oracle."""
    table = ts.table
    n_faces = len(table.faces)
    d1 = [[0] * n_faces for _ in range(table.n_tet)]
    for idx in range(n_faces):
        d1[coor.above[idx][0]][idx] += 1
        d1[coor.below[idx][0]][idx] -= 1
    d2 = [[0] * len(cycles) for _ in range(n_faces)]
    for e, cyc in enumerate(cycles):
        for face_idx, eps in cyc.crossings:
            d2[face_idx][e] += eps
    return d1, d2


def dense_boundaries(n_cells, face_ends, boundaries):
    """Dense d1 (n_cells x n_faces) and d2 (n_faces x n_edges) of the
    complex that ``H1Data(n_cells, face_ends, boundaries)`` describes."""
    n_faces = len(face_ends)
    d1 = [[0] * n_faces for _ in range(n_cells)]
    for f, (below, above) in enumerate(face_ends):
        d1[above][f] += 1
        d1[below][f] -= 1
    d2 = [[0] * len(boundaries) for _ in range(n_faces)]
    for e, crossings in enumerate(boundaries):
        for f, sign in crossings:
            d2[f][e] += sign
    return d1, d2


class DenseH1Data:
    """The earlier ``H1Data``, kept as an oracle: it takes the dense
    boundary matrices d1 (n_tets x n_faces) and d2 (n_faces x n_edges),
    checks d1 * d2 = 0 by the product itself and reads the kernel of d1
    off the ``full_scan_snf`` Smith form of d1: rho, its rank, and its
    column transform V with inverse Vinv."""

    def __init__(self, n_tets, n_faces, n_edges, d1, d2):
        prod = int_matmul(d1, d2)
        assert all(all(x == 0 for x in row) for row in prod), \
            "d1 * d2 != 0"
        self.n_faces = n_faces
        diag, _, _, self.V, self.Vinv = full_scan_snf(d1, ncols=n_faces)
        self.rho = rho = sum(1 for d in diag if d)
        self.q = n_faces - rho
        M = int_matmul(self.Vinv, d2) if n_edges else \
            [[] for _ in range(n_faces)]
        for i in range(rho):
            assert all(x == 0 for x in M[i]), "im d2 not inside ker d1"
        columns = [[M[rho + i][j] for i in range(self.q)]
                   for j in range(n_edges)]
        self.quot = AbelianQuotient(self.q, columns)
        self.rank = self.quot.rank
        self.torsion = self.quot.torsion


def _slot(a, b):
    return SLOT_OF_PAIR[(a, b) if a < b else (b, a)]


def _orientation_template(top):
    """For top diagonal slot uv and bottom diagonal xy (x < y): the
    orientations of the five edges other than uv, (u, v), and the slots
    of uy, vy and xu."""
    u, v = VERTEX_PAIRS[top]
    x, y = VERTEX_PAIRS[OPPOSITE_SLOT[top]]
    orient = {OPPOSITE_SLOT[top]: (x, y)}
    for apex in (u, v):
        orient[_slot(x, apex)] = (x, apex)
        orient[_slot(apex, y)] = (apex, y)
    return orient, (u, v), _slot(u, y), _slot(v, y), _slot(x, u)


_ORIENTATION_TEMPLATES = tuple(_orientation_template(top)
                               for top in range(6))


def reference_edge_orientations(ts, coor):
    """The earlier ``taut.tet_edge_orientations``, kept as an oracle: per
    tetrahedron, a map edge slot -> directed vertex pair.  The bottom
    diagonal runs low -> high, each lower face forces its two
    equatorial edges, and the top diagonal is forced by the upper face
    opposite x, whose large edge is the equatorial one coloured like the
    top diagonal; the upper face opposite y cross-checks it."""
    colours = derive_colouring(ts)
    edge_index = ts.table.edge_index
    orientations = []
    for t, top in enumerate(coor.top_slot):
        template, (u, v), uy, vy, xu = _ORIENTATION_TEMPLATES[top]
        orient = dict(template)
        top_col = colours[edge_index[(t, top)]]
        col_uy = colours[edge_index[(t, uy)]]
        assert col_uy != colours[edge_index[(t, vy)]]
        orient[top] = (u, v) if col_uy == top_col else (v, u)
        if colours[edge_index[(t, xu)]] == top_col:
            assert orient[top] == (v, u)
        else:
            assert orient[top] == (u, v)
        orientations.append(orient)
    return orientations


def reference_face_disagreement(ts, coor, orientations):
    """The earlier ``taut.face_disagreement``, kept as an oracle: each
    face's three edges at the tetrahedron below, oriented there, carried
    one by one through the gluing and compared with the orientation of
    the tetrahedron above.  beta[f] = 1 where they disagree."""
    table = ts.table
    beta = []
    for (t_b, fs_b), (t_a, _) in zip(coor.below, coor.above):
        p = table.gluings[t_b][fs_b][1]
        agrees = []
        for es in FACE_SLOTS[fs_b]:
            a, b = orientations[t_b][es]
            agrees.append((p[a], p[b]) == orientations[t_a][slot_image(p, es)])
        assert all(agrees) or not any(agrees)
        beta.append(0 if agrees[0] else 1)
    return beta


def reference_taut_relation_signs(analysis):
    """The earlier colour rule of ``invariants._taut_relation_signs``,
    kept as an oracle: with top diagonal uv (u < v) and bottom diagonal
    xy (x < y), facet y has +1, facet x -1, facet v +1 exactly when xu
    has the colour of uv, and facet u the other sign.  Per face, its
    signs at the tetrahedra below and above it."""
    coor, ts = analysis.coor, analysis.ts
    colours = derive_colouring(ts)
    edge_index = ts.table.edge_index
    by_facet = []
    for t, (top, bottom) in enumerate(zip(coor.top_slot, coor.bot_slot)):
        (u, v), (x, y) = VERTEX_PAIRS[top], VERTEX_PAIRS[bottom]
        s = 1 if colours[edge_index[(t, _slot(x, u))]] == \
            colours[edge_index[(t, top)]] else -1
        signs = [0] * 4
        signs[x], signs[y], signs[u], signs[v] = -1, 1, -s, s
        by_facet.append(signs)
    return [(by_facet[t_b][fs_b], by_facet[t_a][fs_a])
            for (t_b, fs_b), (t_a, fs_a) in zip(coor.below, coor.above)]


def veering_polynomial(analysis, sides="uv xu yv"):
    """Landry-Minsky-Taylor's veering polynomial V, kept as an oracle
    for theta that reads no face table: det(I - A) on the edges, where
    each tetrahedron t with vertex order (x, u, v, y)
    (``Analysis.orders``) gives its bottom diagonal xy the row
    sum_s x^(exponents[(t, s)] - exponents[(t, xy)]) over the edges s
    of ``sides``.  Each edge is the bottom diagonal of exactly one
    tetrahedron.  Theta divides V, the quotient a product of factors
    1 +- x^v up to a unit.  The determinant is ``bareiss_determinant``."""
    edge_index, exponents = analysis.ts.table.edge_index, analysis.exponents
    r, n = analysis.h1.rank, len(analysis.ts.table.edges)
    one = LaurentPoly.one(r)
    rows = [[LaurentPoly.zero(r)] * n for _ in range(n)]
    bottom_of = [None] * n
    for t, order in enumerate(analysis.orders):
        at = dict(zip("xuvy", order))
        xy = _slot(at["x"], at["y"])
        e = edge_index[(t, xy)]
        assert bottom_of[e] is None, "edge is the bottom of two tetrahedra"
        bottom_of[e] = t
        for a, b in sides.split():
            s = _slot(at[a], at[b])
            exp = tuple(map(sub, _unpack(exponents[(t, s)], r),
                            _unpack(exponents[(t, xy)], r)))
            f = edge_index[(t, s)]
            rows[e][f] = rows[e][f] - LaurentPoly(r, {exp: 1})
    assert None not in bottom_of, "edge is the bottom of no tetrahedron"
    for e in range(n):
        rows[e][e] = rows[e][e] + one
    return bareiss_determinant(LaurentMatrix(r, rows))


class ReferenceCusp:
    """One cusp link as the earlier side-space route builds it: corners,
    sides (the sorted canonical side keys (t, v, fs)), side_faces (per
    side, the manifold face containing it and +1 when the side's own
    triangle sits below that face) and basis (the two link cycles a, b
    as side-space vectors)."""

    def __init__(self, corners, sides, side_faces, basis):
        self.corners = corners
        self.sides = sides
        self.side_faces = side_faces
        self.basis = basis


def _side_partner(table, key):
    t, v, fs = key
    t2, p = table.gluings[t][fs]
    return (t2, p[v], p[fs])


def reference_vertex_links(ts, coor, cycles):
    """The earlier ``filling.vertex_links``, kept as an oracle: per cusp,
    the sides are collected from its corners and their partners looked
    up each time they are needed, every corner cycle is rescanned for
    fans ending at the cusp, and the link's ``H1Data`` basis is kept in
    side space."""
    table = ts.table
    cusps = []
    for corners in table.vertices:
        tri_index = {c: i for i, c in enumerate(corners)}
        side_keys = set()
        for (t, v) in corners:
            for fs in range(4):
                if fs != v:
                    key = (t, v, fs)
                    side_keys.add(min(key, _side_partner(table, key)))
        sides = sorted(side_keys)
        side_index = {k: i for i, k in enumerate(sides)}
        side_ends = [(tri_index[key[:2]],
                      tri_index[_side_partner(table, key)[:2]])
                     for key in sides]
        fans = []
        for cyc in cycles:
            for end in (0, 1):
                if (cyc.corners[0][0], cyc.dirs[0][end]) not in tri_index:
                    continue
                fan = []
                for (t, _), dirpair, exit_fs in zip(cyc.corners, cyc.dirs,
                                                    cyc.exits):
                    key = (t, dirpair[end], exit_fs)
                    canon = min(key, _side_partner(table, key))
                    fan.append((side_index[canon], 1 if canon == key else -1))
                fans.append(fan)
        link_h1 = H1Data(len(corners), side_ends, fans)
        assert link_h1.rank == 2 and not link_h1.torsion
        basis = tuple(link_h1.w_position_representative(pos)
                      for pos in link_h1.quot.free_positions)
        side_faces = []
        for (t, v, fs) in sides:
            fidx = table.face_index[(t, fs)]
            side_faces.append(
                (fidx, 1 if coor.below[fidx] == (t, fs) else -1))
        cusps.append(ReferenceCusp(corners, sides, side_faces, basis))
    return cusps


def reference_face_vector(cusp, n_faces, coeffs):
    """Manifold face vector of the link cycle coeffs[0]*a + coeffs[1]*b:
    crossing a side in its reference direction crosses the face
    containing it, from below when the side's own triangle is below."""
    za, zb = cusp.basis
    vec = [0] * n_faces
    for (fidx, sgn), x, y in zip(cusp.side_faces, za, zb):
        vec[fidx] += (coeffs[0] * x + coeffs[1] * y) * sgn
    return vec


def reference_slope_face_vectors(cusp, n_faces, slope):
    """Face vectors of the slope x*a + y*b and of the dual slope
    -v*a + u*b, x*u + v*y = 1, that the earlier ``filled_homology``
    built."""
    x, y = slope
    u = pow(x, -1, abs(y)) if y else x
    v = (1 - x * u) // y if y else 0
    return (reference_face_vector(cusp, n_faces, (x, y)),
            reference_face_vector(cusp, n_faces, (-v, u)))


def reference_predict_filled_alexander(i_theta, fh):
    """The earlier ``filling.predict_filled_alexander`` and its
    four-branch equality rule, kept as an oracle for the solver's
    decision: CensusError for b_1(N) = 0, a missing sigma_N or a trivial
    core class, else (case, candidate, division_ok, equality_expected).
    Core classes are read as tuples, the filled cusps as their keys and
    b_1 as ``fh.b1``."""
    if fh.s == 0:
        raise CensusError("b_1(N) = 0: the filling identity needs "
                          "positive rank")
    if fh.sigma_N is None:
        raise CensusError("sigma_N does not exist for this filling")
    for j in fh.cores:
        if not any(e != 0 for e in fh.cores[j]):
            raise CensusError(
                "core curve of cusp %d is trivial in free homology; "
                "the filling identity does not apply" % j)
    s = fh.s
    if i_theta.nvars != s:
        raise ValueError("i_theta has %d variables, expected s = %d"
                         % (i_theta.nvars, s))
    if fh.b1 >= 2:
        if s >= 2:
            case, e = "I(a)", 0
        elif not fh.boundary_empty:
            case, e = "I(b)-boundary", 1
        else:
            case, e = "I(b)-closed", 2
    else:
        if not fh.boundary_empty:
            case, e = "II(a)", 0
        else:
            case, e = "II(b)", 1
    h_factor = LaurentPoly(s, {
        tuple(1 if i == 0 else 0 for i in range(s)): 1,
        (0,) * s: -fh.sigma_N[0]})
    numer = i_theta * h_factor ** e
    denom = LaurentPoly.one(s)
    for j in fh.cores:
        ell = fh.cores[j]
        sig_ell = 1
        for sg, exp in zip(fh.sigma_N, ell):
            if sg == -1 and exp % 2:
                sig_ell = -sig_ell
        denom = denom * LaurentPoly(s, {tuple(ell): 1, (0,) * s: -sig_ell})
    quotient = exact_div(numer, denom)
    # the specialised taut polynomial equals Delta_N up to variable signs
    # exactly in four situations
    generates = {j: fh.s == 1 and fh.cores[j] in ((1,), (-1,))
                 for j in fh.cores}
    k = len(fh.cores)
    if k == 0:
        equal = True
    elif fh.s == 1 and not fh.boundary_empty and k == 1 and \
            all(generates.values()):
        equal = True
    elif fh.s == 1 and fh.boundary_empty and k == 2 and \
            all(generates.values()):
        equal = True
    elif fh.b1 == 1 and fh.boundary_empty and all(generates.values()):
        equal = True
    else:
        equal = False
    if quotient is None:
        return case, None, False, equal
    # undo the sign twist: Delta_N(h) = quotient(sigma_N(h) * h)
    return case, sign_twist(quotient, fh.sigma_N), True, equal


def cover_pushforward(analysis, cover_analysis):
    """The earlier route down from the double cover, kept as an oracle:
    the matrix of the projection from the cover's free first homology
    onto the base's.  Each cover generator's dual cycle is projected
    down to the base (face by face, signs preserved) and its class read
    off.  The image is the kernel of omega on the free part: all of it
    when sigma does not exist, and a sublattice of index 2 when sigma
    exists."""
    base_table = analysis.ts.table
    cover_table = cover_analysis.ts.table
    n = base_table.n_tet
    h1, cover_h1 = analysis.h1, cover_analysis.h1
    base_of_cover_face = [base_table.face_index[(t % n, fs)]
                          for (t, fs), _ in cover_table.faces]
    columns = []
    for pos in cover_h1.quot.free_positions:
        zhat = cover_h1.w_position_representative(pos)
        base_z = [0] * len(base_table.faces)
        for fc, val in enumerate(zhat):
            base_z[base_of_cover_face[fc]] += val
        columns.append(h1.quot.class_free(h1.cycle_kernel_coords(base_z)))
    A = [[col[l] for col in columns] for l in range(h1.rank)]
    snf = smith_normal_form(A, ncols=len(columns))
    assert snf.rank == h1.rank and \
        prod(snf.diag[:snf.rank]) == (2 if analysis.eo.sigma_exists else 1), \
        "cover homology does not map onto the kernel of omega"
    return A


def pushed_down(A, mat):
    """mat with every entry specialised by the matrix A."""
    return LaurentMatrix(len(A), [[specialize(p, A) for p in row]
                                  for row in mat.entries])


def reference_delta_hat(analysis):
    """The earlier route to the double-cover polynomial, kept as an
    oracle: a second ``Analysis`` of the cover, whose Alexander matrix
    (without the cover's tree columns) is pushed down by
    ``cover_pushforward`` entry by entry; unit-normalised."""
    cover = Analysis(analysis.cover)
    mat = build_alexander_matrix(cover)
    return normalize_unit(fitting_gcd(
        pushed_down(cover_pushforward(analysis, cover), mat)))
