"""Transverse taut structure: coorientations, colours, corner cycles, and
the edge-orientation double cover.

Conventions.  Within a tetrahedron the angle digit selects the opposite
pair of "diagonal" edge slots (top and bottom); the other four slots are
"equatorial".  A face is an upper face of the tetrahedron below it and a
lower face of the one above it; the facet indices of the upper faces are
exactly the endpoints of the bottom diagonal.  The dual track of a face
has one large end (at the face's upper-large edge: the bottom diagonal
of the tetrahedron above, ``Coorientation.upper_large``) and two small
ends; a side choice for the track orients the face's three edges as
source -> sink along the large edge with the apex as a pass-through
vertex.  One vertex order per tetrahedron, (x, u, v, y) of
``vertex_orders``, holds the colour decision: the canonical local edge
orientation runs from earlier to later vertices, beta compares the
orders of the two sides of each face, and the taut tetrahedron relation
(``invariants.build_taut_matrix``) signs the facets by position.
"""

from .census_io import (CensusError, FACE_SLOTS, GluingTable, OPPOSITE_SLOT,
                        PERM_INDEX, PERM_SLOT_IMAGES, PI_SLOTS, SLOT_OF_PAIR,
                        TautStructure, VERTEX_PAIRS)


def _slot(a, b):
    return SLOT_OF_PAIR[(a, b) if a < b else (b, a)]


# The two facets off edge slot s are the endpoints of the opposite
# slot.  A corner cycle leaves each corner through the one it did not
# enter by: _NEXT_EXIT[s][enter], None where enter is not off s.
_NEXT_EXIT = tuple(tuple(b if enter == a else a if enter == b else None
                         for enter in range(4))
                   for a, b in (VERTEX_PAIRS[OPPOSITE_SLOT[s]]
                                for s in range(6)))


class Coorientation:
    """The top and bottom diagonal slots of every tetrahedron, and per
    face the (tet, facet) side below it, the side above it, and its
    upper-large slot: the bottom diagonal of the tetrahedron above, in
    the labels of the tetrahedron below."""

    __slots__ = ("top_slot", "bot_slot", "below", "above", "upper_large")

    def __init__(self, top_slot, bot_slot, below, above, upper_large):
        self.top_slot = top_slot
        self.bot_slot = bot_slot
        self.below = below
        self.above = above
        self.upper_large = upper_large


def derive_coorientation(ts):
    """Propagate the top/bottom choice across faces: a face must be an
    upper face on one side and a lower face on the other.  The seed
    makes the diagonal of tetrahedron 0 through vertex 0 the top one.

    Each facet is recorded as its face's below side if it is an upper
    face of its tetrahedron, else as the above side.  As every gluing is
    checked, each face then has one side of each kind.  Filing a below
    side also records the face's upper-large slot, read through the
    partner gluing from the tetrahedron above, and asserts that it and
    the lower-large slot (the top diagonal below) are two edges of the
    face."""
    table = ts.table
    gluings, face_index = table.gluings, table.face_index
    below = [None] * len(table.faces)
    above = [None] * len(table.faces)
    upper_large = [None] * len(table.faces)
    choice = {0: 0}
    queue = [0]
    for t in queue:
        # choice c puts the c-th pi slot on top, the other at the bottom
        pi = PI_SLOTS[ts.digits[t]]
        top = pi[choice[t]]
        bot_pair = VERTEX_PAIRS[pi[1 - choice[t]]]
        for fs in range(4):
            t2, p = gluings[t][fs]
            pi2 = PI_SLOTS[ts.digits[t2]]
            upper = fs in bot_pair
            # the face is upper in t2 exactly when it is lower in t
            forced = int(upper == (p[fs] in VERTEX_PAIRS[pi2[1]]))
            if t2 not in choice:
                choice[t2] = forced
                queue.append(t2)
            elif choice[t2] != forced:
                raise CensusError("taut structure is not transverse")
            f = face_index[(t, fs)]
            if not upper:
                above[f] = (t, fs)
                continue
            below[f] = (t, fs)
            # t2's bottom diagonal, carried back by the partner gluing
            _, p_inv = gluings[t2][p[fs]]
            upper_large[f] = large = \
                PERM_SLOT_IMAGES[PERM_INDEX[p_inv]][pi2[1 - forced]]
            assert top != large and {top, large} <= set(FACE_SLOTS[fs]), \
                "large slots of face %d are not two distinct edges of it" % f
    if len(choice) != table.n_tet:
        raise CensusError("triangulation is disconnected")
    top_slot = [PI_SLOTS[d][choice[t]] for t, d in enumerate(ts.digits)]
    return Coorientation(top_slot, [OPPOSITE_SLOT[s] for s in top_slot],
                         below, above, upper_large)


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
    from the anchor corner, the smallest of the class (oriented low ->
    high vertex there); crossings[i] = (face index, +1 if the step from
    corner i to corner i+1 crosses the face from below to above);
    exits[i] = the facet of corners[i]'s tetrahedron through which that
    step leaves.
    """

    __slots__ = ("corners", "dirs", "crossings", "exits")

    def __init__(self, corners, dirs, crossings, exits):
        self.corners = corners
        self.dirs = dirs
        self.crossings = crossings
        self.exits = exits


def edge_corner_cycles(ts, coor):
    """The corner cycle of every edge class, walked from its anchor.

    The anchor (the canonical corner) is the first member of the class
    as ``GluingTable.edges`` lists it, in increasing (tet, slot) order,
    so the smallest corner.  The walk leaves the anchor through the
    lower facet off its slot, with the reference orientation low -> high
    there, and steps by table lookups: the slot image of the gluing's
    permutation and the facet of ``_NEXT_EXIT``.  A face crossed from the
    tetrahedron below it is one of that tetrahedron's upper faces, which
    hold the endpoints of its bottom diagonal."""
    table = ts.table
    gluings, face_index = table.gluings, table.face_index
    upper = [VERTEX_PAIRS[bot] for bot in coor.bot_slot]
    cycles = []
    for cls in table.edges:
        t0, s0 = cls[0]
        t, s, dirpair = t0, s0, VERTEX_PAIRS[s0]
        exit_fs = VERTEX_PAIRS[OPPOSITE_SLOT[s0]][0]
        corners, dirs, crossings, exits = [], [], [], []
        while True:
            corners.append((t, s))
            dirs.append(dirpair)
            exits.append(exit_fs)
            crossings.append((face_index[(t, exit_fs)],
                              1 if exit_fs in upper[t] else -1))
            t, p = gluings[t][exit_fs]
            s = PERM_SLOT_IMAGES[PERM_INDEX[p]][s]
            dirpair = (p[dirpair[0]], p[dirpair[1]])
            exit_fs = _NEXT_EXIT[s][p[exit_fs]]
            assert exit_fs is not None, "a corner is entered through " \
                                        "a facet holding its edge"
            if t == t0 and s == s0:
                # the holonomy around an edge of an oriented manifold
                # fixes the edge pointwise
                assert dirpair == VERTEX_PAIRS[s0], \
                    "edge returns with reversed orientation"
                break
        assert len(corners) == len(cls) and len(set(corners)) == len(corners)
        cycles.append(EdgeCycle(corners, dirs, crossings, exits))
    return cycles


def _order_table(top):
    """For top diagonal slot uv (u < v) and bottom diagonal xy (x < y):
    the vertex orders (x, u, v, y) and (x, v, u, y), and the slots of
    uy, vy and xu."""
    u, v = VERTEX_PAIRS[top]
    x, y = VERTEX_PAIRS[OPPOSITE_SLOT[top]]
    return (x, u, v, y), (x, v, u, y), _slot(u, y), _slot(v, y), _slot(x, u)


_ORDER_TABLE = tuple(_order_table(top) for top in range(6))


def vertex_orders(ts, coor, colours):
    """The vertex order (x, u, v, y) of each tetrahedron: xy is the
    bottom diagonal with x < y, uv the top diagonal, and uy has the top
    diagonal's colour.  The canonical local edge orientation points every
    edge from its earlier vertex to its later one.  That is the
    orientation each face's track forces, source -> apex -> sink along
    its large edge: xy on the lower faces, and on the upper faces the
    equatorial edge coloured like uv, uy opposite x and xv opposite y.
    The asserts check that uy and vy differ in colour and that xu, the
    edge opposite vy, agrees with uy on the direction of uv."""
    edge_index = ts.table.edge_index
    orders = []
    for t, top in enumerate(coor.top_slot):
        forward, backward, uy, vy, xu = _ORDER_TABLE[top]
        top_col = colours[edge_index[(t, top)]]
        uy_top = colours[edge_index[(t, uy)]] == top_col
        assert uy_top != (colours[edge_index[(t, vy)]] == top_col), \
            "equatorial edges at a corner share colour"
        assert uy_top != (colours[edge_index[(t, xu)]] == top_col), \
            "the upper faces disagree on the top diagonal's direction"
        orders.append(forward if uy_top else backward)
    return orders


def face_disagreement(ts, coor, orders):
    """beta[f] = 1 when the canonical orientations of the tetrahedra
    below and above f disagree on f's edges.  The face's vertices, in
    the order of the tetrahedron below, are carried by the gluing and
    ranked in the order of the one above: increasing ranks mean all
    three edges agree (0), decreasing ranks that none does (1)."""
    gluings = ts.table.gluings
    beta = []
    for (t_b, fs_b), (t_a, _) in zip(coor.below, coor.above):
        p = gluings[t_b][fs_b][1]
        rank = orders[t_a].index
        a, b, c = [rank(p[w]) for w in orders[t_b] if w != fs_b]
        assert a < b < c or a > b > c, \
            "face sides disagree on a proper subset of edges"
        beta.append(0 if a < b else 1)
    return beta


class EdgeOrientationData:
    """The obstruction data of the edge-orientation double cover.

    omega is the face cochain beta on homology, as 0/1: of a class with
    kernel coordinates y (``H1Data``), the parity of y summed over
    odd_kernel, where beta is odd on the kernel basis cycle.
    edge_orientable says omega vanishes on H1, which is odd_kernel being
    empty: the generator lifts of H1, the columns of Uinv, are a basis
    of the kernel coordinates, and omega is linear mod 2, so it vanishes
    on them all exactly when it vanishes on each unit vector e_k, that
    is, when no kernel position is odd.  sigma is ``sign_vector`` of H1
    itself: omega's signs on the free generators, or None when omega is
    odd on torsion; sigma_exists says it is not None.
    """

    __slots__ = ("beta", "odd_kernel", "edge_orientable", "sigma_exists",
                 "sigma")

    def __init__(self, beta, h1):
        self.beta = beta
        self.odd_kernel = [k for k, x in enumerate(h1.cochain_on_kernel(beta))
                           if x % 2]
        self.edge_orientable = not self.odd_kernel
        self.sigma = self.sign_vector(h1.quot)
        self.sigma_exists = self.sigma is not None

    def omega(self, y):
        """omega of the class with kernel coordinates y, as 0/1."""
        return sum(y[k] for k in self.odd_kernel) % 2

    def sign_vector(self, quot):
        """omega's signs (-1 where odd) on the free generators of quot, a
        quotient of the kernel coordinates whose relations omega vanishes
        on; None when omega is odd on a torsion generator of quot."""
        lift = quot.generator_lift
        if any(self.omega(lift(p)) for p in quot.torsion_positions):
            return None
        return tuple(-1 if self.omega(lift(p)) else 1
                     for p in quot.free_positions)


def edge_orientation_data(ts, coor, orders, cycles, h1):
    """EdgeOrientationData, with beta asserted to be a cocycle: its sum
    over each edge's face crossings (all signs +-1) is even."""
    beta = face_disagreement(ts, coor, orders)
    eo = EdgeOrientationData(beta, h1)
    for cyc in cycles:
        assert sum(beta[f] for f, _ in cyc.crossings) % 2 == 0, \
            "edge-orientation cochain is not a cocycle"
    # trivial generators are boundaries, where a cocycle must vanish
    for i, order in enumerate(h1.quot.orders):
        if order == 1:
            assert eo.omega(h1.quot.generator_lift(i)) == 0
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
        _, p_inv = table.gluings[t_a][fs_a]
        for sheet in (0, 1):
            sheet2 = sheet ^ beta[idx]
            gluings[t_b + sheet * n][fs_b] = (t_a + sheet2 * n, p)
            gluings[t_a + sheet2 * n][fs_a] = (t_b + sheet * n, p_inv)
    cover_table = GluingTable(gluings)
    cover = TautStructure(ts.sig + ":double", cover_table,
                          ts.digits + ts.digits)
    # connectivity of the cover
    seen = {0}
    queue = [0]
    for t in queue:
        for fs in range(4):
            t2 = gluings[t][fs][0]
            if t2 not in seen:
                seen.add(t2)
                queue.append(t2)
    return cover, len(seen) == 2 * n

