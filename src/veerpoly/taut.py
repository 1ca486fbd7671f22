"""Transverse taut structure: coorientations, colours, tracks, and the
edge-orientation double cover.

Conventions.  Within a tetrahedron the angle digit selects the opposite
pair of "diagonal" edge slots (top and bottom); the other four slots are
"equatorial".  A face is an upper face of the tetrahedron below it and a
lower face of the one above it; the facet indices of the upper faces are
exactly the endpoints of the bottom diagonal.  The dual track of a face
has one large end (at the face's upper-large edge: the bottom diagonal
of the tetrahedron above) and two small ends; a side choice for the
track orients the face's three edges as source -> sink along the large
edge with the apex as a pass-through vertex.
"""

from .census_io import (CensusError, FACE_SLOTS, GluingTable, OPPOSITE_SLOT,
                        PI_SLOTS, SLOT_OF_PAIR, TautStructure, VERTEX_PAIRS,
                        invert, slot_image)


def _slot(a, b):
    return SLOT_OF_PAIR[(a, b) if a < b else (b, a)]


class Coorientation:
    """Choice, per tetrahedron, of which diagonal is on top, together
    with the induced below/above tetrahedron of every face."""

    def __init__(self, ts, choice):
        table = ts.table
        self.choice = list(choice)
        self.top_slot = [PI_SLOTS[d][choice[t]]
                         for t, d in enumerate(ts.digits)]
        self.bot_slot = [OPPOSITE_SLOT[s] for s in self.top_slot]
        self.below = [None] * len(table.faces)
        self.above = [None] * len(table.faces)
        for idx, (side1, side2) in enumerate(table.faces):
            for (t, fs) in (side1, side2):
                if fs in VERTEX_PAIRS[self.bot_slot[t]]:
                    # upper face of t: t sits below it
                    slot_kind = "below"
                else:
                    slot_kind = "above"
                if getattr(self, slot_kind)[idx] is not None:
                    raise CensusError(
                        "taut structure is not transverse at face %d" % idx)
                getattr(self, slot_kind)[idx] = (t, fs)
        for idx in range(len(table.faces)):
            if self.below[idx] is None or self.above[idx] is None:
                raise CensusError(
                    "taut structure is not transverse at face %d" % idx)

    def flipped(self, ts):
        return Coorientation(ts, [1 - b for b in self.choice])


def derive_coorientation(ts):
    """Propagate the top/bottom choice across faces: a face must be an
    upper face on one side and a lower face on the other.  The seed
    makes the diagonal of tetrahedron 0 through vertex 0 the top one."""
    table = ts.table
    choice = {0: 0}
    queue = [0]
    while queue:
        t = queue.pop(0)
        top = PI_SLOTS[ts.digits[t]][choice[t]]
        bot_pair = VERTEX_PAIRS[OPPOSITE_SLOT[top]]
        for fs in range(4):
            t2, p = table.gluings[t][fs]
            fs2 = p[fs]
            f_top_in_t = fs in bot_pair
            d2 = ts.digits[t2]
            # bottom pair of t2 under choice c is the (1-c)-th pi slot
            in_first = fs2 in VERTEX_PAIRS[PI_SLOTS[d2][1]]
            # f must be a top face on exactly one side
            need_top_in_t2 = not f_top_in_t
            forced = (0 if need_top_in_t2 else 1) if in_first else \
                     (1 if need_top_in_t2 else 0)
            if t2 not in choice:
                choice[t2] = forced
                queue.append(t2)
            elif choice[t2] != forced:
                raise CensusError("taut structure is not transverse")
    if len(choice) != table.n_tet:
        raise CensusError("triangulation is disconnected")
    return Coorientation(ts, [choice[t] for t in range(table.n_tet)])


def derive_colouring(ts):
    """Two-colour the edges: in each tetrahedron with digit d the
    equatorial pair selected by digit d+2 is colour 0 ("red") and the
    pair selected by d+1 is colour 1 ("blue").  Inconsistency means the
    taut structure is not veering."""
    table = ts.table
    colours = [None] * len(table.edges)
    for t, d in enumerate(ts.digits):
        for col, k in ((0, (d + 2) % 3), (1, (d + 1) % 3)):
            for slot in PI_SLOTS[k]:
                e = table.edge_index[(t, slot)]
                if colours[e] is None:
                    colours[e] = col
                elif colours[e] != col:
                    raise CensusError(
                        "taut structure is not veering (edge %d gets both "
                        "colours)" % e)
    for e, col in enumerate(colours):
        if col is None:
            raise CensusError(
                "taut structure is not veering (edge %d has no equatorial "
                "incidence)" % e)
    return colours


class EdgeCycle:
    """The corner cycle around one edge class.

    corners[i] = (tet, edge slot); dirs[i] = the reference orientation
    of the edge at that corner as a directed vertex pair, propagated
    from the lexicographically smallest corner (oriented low -> high
    vertex); crossings[i] = (face index, +1 if the step from corner i to
    corner i+1 crosses the face from below to above); exits[i] = the
    facet of corners[i]'s tetrahedron through which that step leaves.
    """

    __slots__ = ("edge", "corners", "dirs", "crossings", "exits")

    def __init__(self, edge, corners, dirs, crossings, exits):
        self.edge = edge
        self.corners = corners
        self.dirs = dirs
        self.crossings = crossings
        self.exits = exits


def edge_corner_cycles(ts, coor, corner_rank=0):
    """corner_rank selects which incidence (in sorted order) anchors the
    cycle: the anchor is the canonical corner (walk start, reference
    orientation low -> high there)."""
    table = ts.table
    cycles = []
    for e, cls in enumerate(table.edges):
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
                # the holonomy around an edge of an oriented manifold
                # fixes the edge pointwise
                assert dirpair == (u, v), \
                    "edge returns with reversed orientation"
                break
        assert len(corners) == len(cls) and len(set(corners)) == len(corners)
        cycles.append(EdgeCycle(e, corners, dirs, crossings, exits))
    return cycles


def track_slots(ts, coor):
    """Per face: (lower-large, upper-large) edge slots in below-tet labels.

    The lower-large edge is the top diagonal of the tetrahedron below;
    the upper-large edge is the bottom diagonal of the tetrahedron
    above, pulled back through the gluing.
    """
    table = ts.table
    out = []
    for idx in range(len(table.faces)):
        t_b, fs_b = coor.below[idx]
        t_a, fs_a = coor.above[idx]
        lower_large = coor.top_slot[t_b]
        t2, p = table.gluings[t_b][fs_b]
        assert (t2, p[fs_b]) == (t_a, fs_a)
        upper_large = slot_image(invert(p), coor.bot_slot[t_a])
        assert lower_large in FACE_SLOTS[fs_b]
        assert upper_large in FACE_SLOTS[fs_b]
        assert lower_large != upper_large
        out.append((lower_large, upper_large))
    return out


def tet_edge_orientations(ts, coor, colours):
    """The canonical local edge orientation of each tetrahedron.

    Orient the bottom diagonal from its lower-numbered vertex; each
    lower face then forces its two equatorial edges (source -> apex ->
    sink along the bottom diagonal); the top diagonal is forced by the
    pattern of the upper faces, whose large edge is the equatorial edge
    sharing the top diagonal's colour.  Returns, per tetrahedron, a map
    edge slot -> directed vertex pair.
    """
    table = ts.table
    orientations = []
    for t in range(table.n_tet):
        top = coor.top_slot[t]
        bot = coor.bot_slot[t]
        x, y = VERTEX_PAIRS[bot]
        u, v = VERTEX_PAIRS[top]
        orient = {bot: (x, y)}
        for apex in (u, v):
            orient[_slot(x, apex)] = (x, apex)
            orient[_slot(apex, y)] = (apex, y)
        top_col = colours[table.edge_index[(t, top)]]
        col_uy = colours[table.edge_index[(t, _slot(u, y))]]
        col_vy = colours[table.edge_index[(t, _slot(v, y))]]
        assert col_uy != col_vy, "equatorial edges at a corner share colour"
        # upper face opposite x has edges {uv, uy, vy}; its large edge is
        # the equatorial one coloured like the top diagonal
        if col_uy == top_col:
            orient[top] = (u, v)    # large u->y, apex v: u->v->y
        else:
            orient[top] = (v, u)    # large v->y, apex u: v->u->y
        # cross-check with the upper face opposite y ({uv, xu, xv})
        col_xu = colours[table.edge_index[(t, _slot(x, u))]]
        if col_xu == top_col:
            # large x->u, apex v: x->v, v->u
            assert orient[top] == (v, u)
        else:
            assert orient[top] == (u, v)
        assert len(orient) == 6
        orientations.append(orient)
    return orientations


def face_disagreement(ts, coor, orientations):
    """beta[f] = 1 when the canonical orientations of the tetrahedra
    below and above f disagree on f's edges (they agree on all three
    edges or on none)."""
    table = ts.table
    beta = []
    for idx in range(len(table.faces)):
        t_b, fs_b = coor.below[idx]
        t_a, fs_a = coor.above[idx]
        _, p = table.gluings[t_b][fs_b]
        agrees = []
        for es in FACE_SLOTS[fs_b]:
            a, b = orientations[t_b][es]
            mapped = (p[a], p[b])
            agrees.append(mapped == orientations[t_a][slot_image(p, es)])
        assert all(agrees) or not any(agrees), \
            "face sides disagree on a proper subset of edges"
        beta.append(0 if agrees[0] else 1)
    return beta


class EdgeOrientationData:
    """The obstruction data of the edge-orientation double cover.

    omega evaluates the face cochain beta on homology classes (as 0/1);
    edge_orientable says it vanishes identically, sigma_exists that it
    vanishes on torsion, in which case sigma lists the signs it takes on
    the free generators of H1.
    """

    __slots__ = ("beta", "omega_positions", "edge_orientable",
                 "sigma_exists", "sigma")

    def __init__(self, beta, h1):
        self.beta = beta
        quot = h1.quot
        # The generator at position i is represented by the cycle
        # V[:, rho:] * Uinv[:, i], so omega_i = (beta * V[:, rho:]) *
        # Uinv[:, i] mod 2: one row bv for all positions, which H1Data
        # reads off tree potentials.
        bv = h1.cochain_on_kernel(beta)
        odd = [quot.snf.Uinv[k] for k, x in enumerate(bv) if x % 2]
        omega_positions = [sum(row[i] for row in odd) % 2
                           for i in range(h1.q)]
        self.omega_positions = omega_positions
        self.edge_orientable = all(o == 0 for o in omega_positions)
        self.sigma_exists = all(omega_positions[i] == 0
                                for i in quot.torsion_positions)
        if self.sigma_exists:
            self.sigma = tuple(-1 if omega_positions[i] else 1
                               for i in quot.free_positions)
        else:
            self.sigma = None

    def omega_of_cycle_vec(self, z):
        """beta paired with a face vector z, mod 2."""
        return sum(self.beta[f] * zf for f, zf in enumerate(z)) % 2


def edge_orientation_data(ts, coor, colours, cycles, h1):
    """EdgeOrientationData, with beta asserted to be a cocycle: its sum
    over each edge's face crossings (all signs +-1) is even."""
    orientations = tet_edge_orientations(ts, coor, colours)
    beta = face_disagreement(ts, coor, orientations)
    eo = EdgeOrientationData(beta, h1)
    for cyc in cycles:
        assert sum(beta[f] for f, _ in cyc.crossings) % 2 == 0, \
            "edge-orientation cochain is not a cocycle"
    # trivial generators are boundaries, where a cocycle must vanish
    for i, order in enumerate(h1.quot.orders):
        if order == 1:
            assert eo.omega_positions[i] == 0
    return eo


def build_double_cover(ts, coor, beta):
    """Two copies of every tetrahedron; the copy sheet flips across
    exactly the faces where the canonical local orientations disagree.
    The result is connected iff the base is not edge-orientable."""
    table = ts.table
    n = table.n_tet
    gluings = [[None] * 4 for _ in range(2 * n)]
    for idx in range(len(table.faces)):
        t_b, fs_b = coor.below[idx]
        t_a, fs_a = coor.above[idx]
        _, p = table.gluings[t_b][fs_b]
        for sheet in (0, 1):
            sheet2 = sheet ^ beta[idx]
            gluings[t_b + sheet * n][fs_b] = (t_a + sheet2 * n, p)
            gluings[t_a + sheet2 * n][fs_a] = (t_b + sheet * n, invert(p))
    cover_table = GluingTable(gluings)
    cover = TautStructure(ts.sig + ":double", cover_table,
                          ts.digits + ts.digits)
    # connectivity of the cover
    seen = {0}
    queue = [0]
    while queue:
        t = queue.pop(0)
        for fs in range(4):
            t2 = gluings[t][fs][0]
            if t2 not in seen:
                seen.add(t2)
                queue.append(t2)
    return cover, len(seen) == 2 * n

