"""Exact integer linear algebra for triangulation homology.

Everything here is generic over integer matrices: Smith normal form with
the row transform U and its inverse (the column transform is only a
certificate), finitely generated abelian quotients Z^q / (column span),
first homology of a dual 2-complex given by its face ends and edge
crossings (the Smith-form pivots of d1 replayed on its graph), the face
cocycle read off that H1 (it labels the matrix entries of
``invariants``), and a BFS spanning tree of the dual graph, whose
columns ``invariants`` drops from its presentations.

Matrices are plain lists of rows of Python ints (arbitrary precision).
"""


def int_identity(n):
    rows = [[0] * n for _ in range(n)]
    for i, row in enumerate(rows):
        row[i] = 1
    return rows


def int_matmul(A, B):
    """Product of two list-of-rows integer matrices.

    Zero entries are skipped: each row of B is reduced once to the
    columns of its nonzero entries, and each nonzero entry of A
    accumulates over just those columns.  Zero terms add nothing to a sum,
    so the result is the same exact integer matrix as the dense triple
    loop, at the cost of one pass over B plus the nonzero products.
    """
    if not A:
        return []
    inner = len(A[0])
    ncols = len(B[0]) if B else 0
    assert inner == len(B)
    B_support = [[j for j, b in enumerate(row) if b] for row in B]
    out = []
    for row in A:
        acc = [0] * ncols
        for a, B_row, support in zip(row, B, B_support):
            if a:
                for j in support:
                    acc[j] += a * B_row[j]
        out.append(acc)
    return out


def int_matvec(A, v):
    """A * v, summed over the nonzero entries of v only: the vectors
    passed in (fundamental cycles, cycle coordinates) are sparse."""
    support = [(k, x) for k, x in enumerate(v) if x]
    return [sum(row[k] * x for k, x in support) for row in A]


class SNFResult:
    """Smith normal form D = U * A * V with U unimodular.

    diag holds the diagonal of D (length min(m, n), divisibility chain,
    non-negative); rank is the number of nonzero diagonal entries.
    U and Uinv move coordinates of Z^m / (column span of A) in both
    directions; V is kept only as the certificate ``_check_snf`` reads.
    """

    __slots__ = ("diag", "rank", "U", "Uinv", "V")

    def __init__(self, diag, rank, U, Uinv, V):
        self.diag = diag
        self.rank = rank
        self.U = U
        self.Uinv = Uinv
        self.V = V


def _add_row(rows, i, j, c):
    """rows[i] += c * rows[j], over the nonzero entries of rows[j]."""
    target = rows[i]
    for k, x in enumerate(rows[j]):
        if x:
            target[k] += c * x


def smith_normal_form(A, ncols=None):
    """Compute the Smith normal form of an integer matrix.

    A is a list of rows; ncols disambiguates the width when A has no rows.
    Pivoting is deterministic: the smallest nonzero entry in absolute
    value, ties broken by row-major position.  The pivot rule is part of
    the output contract, not only D: ``H1Data`` replays it on d1
    (``_d1_pivots``) for its kernel basis, which with the quotient's
    transforms fixes the basis of each cusp link, and so the slope
    coordinates of ``fill`` records.

    D and U are the rows of one matrix [D | U], and Uinv and V are kept
    transposed, so each step is a row operation: a row operation E on D
    is E on [D | U], E^-1 from the right on Uinv is a row operation on
    Uinv^T, and a column operation on D is one on V^T.  A column step
    changes one entry of D: it runs only once the row phase has cleared
    column k below the pivot, the earlier pivots cleared it above, and
    the chain step adds a row that is zero there.

    Two early exits keep the transforms identical to a full scan.  The
    pivot search stops at the first entry with |x| = 1, since no entry
    is smaller and a later one of equal size never displaces it.  The
    divisibility-chain scan is skipped for a pivot of +-1, which divides
    every integer, so the scan could find no offending row.

    Under ``__debug__`` the result is checked exactly by ``_check_snf``.
    """
    m = len(A)
    n = len(A[0]) if m else (0 if ncols is None else ncols)
    if m and ncols is not None:
        assert n == ncols
    DU = [list(row) + e for row, e in zip(A, int_identity(m))]
    UinvT = int_identity(m)
    VT = int_identity(n)

    def swap_rows(i, j):
        DU[i], DU[j] = DU[j], DU[i]
        UinvT[i], UinvT[j] = UinvT[j], UinvT[i]

    def swap_cols(i, j):
        if i == j:
            return
        for row in DU:
            row[i], row[j] = row[j], row[i]
        VT[i], VT[j] = VT[j], VT[i]

    k = 0
    limit = min(m, n)
    while k < limit:
        # locate pivot: smallest |entry| in the trailing submatrix
        piv = None
        best = None
        for i in range(k, m):
            row = DU[i]
            for j in range(k, n):
                x = row[j]
                if x and (best is None or abs(x) < best):
                    best = abs(x)
                    piv = (i, j)
                    if best == 1:
                        break
            if best == 1:
                break
        if piv is None:
            break
        swap_rows(k, piv[0])
        swap_cols(k, piv[1])
        while True:
            restart = False
            for i in range(k + 1, m):
                if DU[i][k]:
                    q = DU[i][k] // DU[k][k]
                    if q:
                        _add_row(DU, i, k, -q)
                        _add_row(UinvT, k, i, q)
                    if DU[i][k]:
                        # remainder is strictly smaller; make it the pivot
                        swap_rows(k, i)
                        restart = True
                        break
            if restart:
                continue
            for j in range(k + 1, n):
                if DU[k][j]:
                    q = DU[k][j] // DU[k][k]
                    if q:
                        # col_j -= q * col_k, whose one nonzero is row k
                        DU[k][j] -= q * DU[k][k]
                        _add_row(VT, j, k, -q)
                    if DU[k][j]:
                        swap_cols(k, j)
                        restart = True
                        break
            if restart:
                continue
            # enforce the divisibility chain: pull any offending row up
            piv_val = DU[k][k]
            if piv_val in (1, -1):
                break
            bad = None
            for i in range(k + 1, m):
                row = DU[i]
                for j in range(k + 1, n):
                    if row[j] % piv_val:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is not None:
                _add_row(DU, k, bad, 1)
                _add_row(UinvT, bad, k, -1)
                continue
            break
        if DU[k][k] < 0:
            DU[k] = [-x for x in DU[k]]
            UinvT[k] = [-x for x in UinvT[k]]
        k += 1

    diag = [DU[i][i] for i in range(limit)]
    rank = sum(1 for d in diag if d)
    res = SNFResult(diag, rank, [row[n:] for row in DU],
                    [list(col) for col in zip(*UinvT)],
                    [list(col) for col in zip(*VT)])
    if __debug__:
        _check_snf(A, [row[:n] for row in DU], res)
    return res


def _is_identity(M):
    return all(row[i] == 1 and not any(row[:i]) and not any(row[i + 1:])
               for i, row in enumerate(M))


def _check_snf(A, D, res):
    """Assert that U of res carries Z^m / (column span of A) onto
    Z^m / L, L the span of diag[i] * e_i, with D the matrix reached.

    D must be diagonal, U * Uinv = I, and for P = U * A: row i of P a
    multiple of diag[i] (zero from rank on), so the columns of P lie in
    L; P * V = D, so each diag[i] * e_i is a combination of the columns
    of P; and the divisibility chain.  The column span of P is then L,
    and as U is unimodular, w = U * v maps the quotient of A onto that
    of D, which is all that callers read.  V itself need not be
    unimodular for this, so its inverse is not tracked.
    """
    for i, row in enumerate(D):
        assert not any(row[:i]) and not any(row[i + 1:]), \
            "SNF result is not diagonal"
    assert _is_identity(int_matmul(res.U, res.Uinv)), "U * Uinv != I"
    diag, rank = res.diag, res.rank
    P = int_matmul(res.U, A)
    for i, row in enumerate(P):
        assert (not any(row) if i >= rank
                else all(x % diag[i] == 0 for x in row)), \
            "SNF row of U * A is not a multiple of its diagonal entry"
    assert int_matmul(P, res.V) == D, "U * A * V != D"
    for i in range(rank - 1):
        assert diag[i + 1] % diag[i] == 0, "SNF divisibility chain broken"


class AbelianQuotient:
    """The abelian group Z^q / (column span of an integer relation matrix).

    orders[i] gives the order of the i-th diagonal generator after the
    change of basis w = U * v: 0 for an infinite-order (free) generator,
    1 for a trivial one, d > 1 for torsion Z/d.
    """

    __slots__ = ("q", "snf", "orders", "rank", "torsion",
                 "free_positions", "torsion_positions")

    def __init__(self, q, relation_columns):
        self.q = q
        R = [[col[i] for col in relation_columns] for i in range(q)]
        self.snf = smith_normal_form(R, ncols=len(relation_columns))
        diag = self.snf.diag
        self.orders = [diag[i] if i < len(diag) else 0 for i in range(q)]
        self.free_positions = [i for i, d in enumerate(self.orders) if d == 0]
        self.torsion_positions = [i for i, d in enumerate(self.orders)
                                  if d > 1]
        self.rank = len(self.free_positions)
        self.torsion = [self.orders[i] for i in self.torsion_positions]

    def full_coords(self, vec):
        """Coordinates of vec in the diagonalising basis (w = U * vec)."""
        assert len(vec) == self.q
        return int_matvec(self.snf.U, vec)

    def class_coords(self, vec):
        """(free part, torsion part) of the class of vec in the quotient."""
        w = self.full_coords(vec)
        free = tuple(w[i] for i in self.free_positions)
        tors = tuple(w[i] % self.orders[i] for i in self.torsion_positions)
        return free, tors

    def class_free(self, vec):
        return self.class_coords(vec)[0]

    def generator_lift(self, position):
        """A vector in Z^q mapping to the generator at a diagonal position."""
        return [row[position] for row in self.snf.Uinv]


class H1Data:
    """First homology of a dual 2-complex: cells, faces that join two
    cells, and edges each bounded by a cycle of face crossings.

    face_ends[f] = (below, above) gives d1 (n_cells x n_faces), which
    sends face f to above - below; boundaries[e] lists the (face, sign)
    crossings around edge e, summed into column e of d2 (n_faces x
    n_edges).  Classes of face-space cycles are reported in the
    coordinates of an AbelianQuotient on the kernel of d1.

    The kernel basis is V[:, rho:] for the Smith form U * d1 * V = D
    that ``smith_normal_form`` would reach, rho the rank of d1, found
    without any transform: ``_d1_pivots`` replays its pivot rule and
    keeps only the pivot faces, a spanning forest, and the other faces
    in final column order (``kernel_faces``).  V changes only by
    swapping column k with a column j >= k and adding multiples of
    column k to columns j > k, so each column p of V is e_sigma(p) plus multiples of e_sigma(k) for pivot
    positions k < p, sigma the final column order.  Hence
    V[kernel_faces, rho:] = I, and row kernel_faces[i] of V is
    e_(rho + i), so (Vinv z)[rho:] = z[kernel_faces] for every z.  A
    cycle is fixed by its values off the forest, so V[:, rho + i] is the
    cycle that is 1 on kernel_faces[i] and 0 on the other kernel faces
    (``kernel_to_cycle``), and the relations Vinv * d2 in kernel
    coordinates are the rows of d2 at kernel_faces.  d1 * d2 = 0 is
    asserted edge by edge.
    """

    __slots__ = ("face_ends", "n_cells", "peel", "kernel_faces", "q",
                 "quot", "rank", "torsion")

    def __init__(self, n_cells, face_ends, boundaries):
        self.face_ends = face_ends
        self.n_cells = n_cells
        forest, self.kernel_faces = _d1_pivots(n_cells, face_ends)
        # the forest's BFS steps, leaves first: each cell before its parent
        self.peel = _bfs_steps(n_cells, face_ends, forest)[::-1]
        self.q = len(self.kernel_faces)
        position = {f: i for i, f in enumerate(self.kernel_faces)}
        columns = []
        for crossings in boundaries:
            assert self._is_cycle(crossings), "im d2 not inside ker d1"
            col = [0] * self.q
            for f, sign in crossings:
                if f in position:
                    col[position[f]] += sign
            columns.append(col)
        self.quot = AbelianQuotient(self.q, columns)
        self.rank = self.quot.rank
        self.torsion = self.quot.torsion

    def _is_cycle(self, pairs):
        """Whether d1 sends the sum of x * e_f over (f, x) in pairs to 0."""
        acc = {}
        for f, x in pairs:
            below, above = self.face_ends[f]
            acc[above] = acc.get(above, 0) + x
            acc[below] = acc.get(below, 0) - x
        return not any(acc.values())

    def cycle_kernel_coords(self, z):
        """Coordinates of a face-space cycle in the kernel basis of d1:
        its values on kernel_faces."""
        if not self._is_cycle((f, x) for f, x in enumerate(z) if x):
            raise ValueError("vector is not a cycle")
        return [z[f] for f in self.kernel_faces]

    def kernel_to_cycle(self, y):
        """The face-space cycle with kernel-basis coordinates y: y on
        kernel_faces, then leaves peeled off the forest, each forest face
        carrying the boundary left on its child cell to the parent."""
        z = [0] * len(self.face_ends)
        excess = [0] * self.n_cells
        for f, x in zip(self.kernel_faces, y):
            if x:
                z[f] = x
                below, above = self.face_ends[f]
                excess[above] += x
                excess[below] -= x
        for f, cell, parent, sign in self.peel:
            x = excess[cell]
            if x:
                z[f] = sign * x
                excess[parent] += x
        return z

    def cochain_on_kernel(self, cochain):
        """[cochain . V[:, rho + i] for each i], from tree potentials:
        phi(cell) sums sign * cochain over the forest faces from the cell
        to its root, the faces ``kernel_to_cycle`` carries its boundary
        over, so the basis cycle of a kernel face f from b to a pairs to
        cochain[f] + phi(a) - phi(b)."""
        phi = [0] * self.n_cells
        for f, cell, parent, sign in reversed(self.peel):
            phi[cell] = phi[parent] + sign * cochain[f]
        ends = self.face_ends
        return [cochain[f] + phi[ends[f][1]] - phi[ends[f][0]]
                for f in self.kernel_faces]

    def w_position_representative(self, position):
        """A face-space cycle whose class is the given diagonal generator."""
        return self.kernel_to_cycle(self.quot.generator_lift(position))


def _d1_pivots(n_cells, face_ends):
    """The pivots ``smith_normal_form`` takes on d1, replayed on sparse
    rows.  Returns (pivot faces, kernel_faces), the latter being the
    faces at column positions rho.. at the end.

    Its rule picks the first row in the current order with a nonzero
    entry, and in it the smallest column position, as every entry is
    +-1.  Adding the pivot row to its other end's row and clearing it
    by column operations leaves the incidence matrix of the graph with
    the pivot face contracted (faces joining the two classes of cells
    become loops, zero columns), so every pivot is +-1 and no step
    restarts.  A row is kept as the set of its faces, merged by
    symmetric difference; a union-find maps cells to their class.  Row
    swaps only trade the pivot row for empty rows above it, which stay
    empty, so the pivot row is the first nonempty one in cell order.
    """
    rows = [set() for _ in range(n_cells)]
    for f, (below, above) in enumerate(face_ends):
        if below != above:
            rows[below].add(f)
            rows[above].add(f)
    cols = list(range(len(face_ends)))  # column position -> face
    pos = cols[:]                       # face -> column position
    rep = list(range(n_cells))

    def find(c):
        while rep[c] != c:
            rep[c] = c = rep[rep[c]]
        return c

    pivots = []
    cell = 0
    while True:
        while cell < n_cells and not rows[cell]:
            cell += 1
        if cell == n_cells:
            return pivots, cols[len(pivots):]
        k = len(pivots)
        f = min(rows[cell], key=pos.__getitem__)
        j, g = pos[f], cols[k]
        cols[k], cols[j] = f, g
        pos[f], pos[g] = k, j
        below, above = map(find, face_ends[f])
        other = above if below == cell else below
        small, big = sorted((rows[cell], rows[other]), key=len)
        big ^= small
        rows[other], rows[cell] = big, ()
        rep[cell] = other
        pivots.append(f)


def _bfs_steps(n_cells, face_ends, faces):
    """(face, cell, parent, sign) for each step of a BFS over the given
    faces from the lowest cell of each component, each cell's faces
    scanned in the order given: every cell comes after its parent.
    sign is +1 when the cell is the face's below end."""
    adj = [[] for _ in range(n_cells)]
    for f in faces:
        below, above = face_ends[f]
        adj[below].append((f, above, -1))
        adj[above].append((f, below, 1))
    seen = [False] * n_cells
    steps = []
    for root in range(n_cells):
        if seen[root]:
            continue
        seen[root] = True
        queue = [root]
        for t in queue:
            for f, cell, sign in adj[t]:
                if not seen[cell]:
                    seen[cell] = True
                    queue.append(cell)
                    steps.append((f, cell, t, sign))
    return steps


def dual_spanning_tree(n_tets, face_ends):
    """Faces of a BFS spanning tree of the dual graph (vertices tets,
    edges faces, face_ends[f] = (below tet, above tet)), rooted at tet 0
    and scanning each tet's faces in face order.

    ``Analysis`` drops this tree's columns from its presentations.  Any
    spanning tree would give the same Fitting gcd, but not in the same
    time, so this is not the pivot forest of ``H1Data`` (the two agree
    on the sample's base entries, not on their covers).  Dropping that
    forest instead slows Theta + Delta 3-4x on the hardest Z/2 cover of
    the 14-tet sample entry (b1 = 3, 28 tets): 4.8-6.3 s against
    1.4-2.1 s on a shared 2-core machine.
    """
    steps = _bfs_steps(n_tets, face_ends, range(len(face_ends)))
    assert len(steps) == n_tets - 1, "dual graph is disconnected"
    return {f for f, *_ in steps}


def face_cocycle(h1):
    """Free H1 class c[f] of each face, with class_free(z) =
    sum_f c[f] * z[f] for every face-space cycle z, which is what turns
    local crossing data into group-ring exponents.

    The kernel coordinates of a cycle are its values on kernel_faces
    (``H1Data``), so class_free(z) = U_free z[kernel_faces]: c[f] is the
    column of U_free at f's kernel position, and zero on the faces of
    the pivot forest.
    """
    quot = h1.quot
    free_rows = [quot.snf.U[i] for i in quot.free_positions]
    c = [(0,) * h1.rank] * len(h1.face_ends)
    for k, f in enumerate(h1.kernel_faces):
        c[f] = tuple(row[k] for row in free_rows)
    return c
