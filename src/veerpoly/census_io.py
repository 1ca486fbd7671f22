"""Reading census entries: signature decoding and taut angle parsing.

A census line is "<signature>_<digits>" where the signature encodes an
ideal triangulation (size, packed gluing-event types, destination chain,
permutation indices over a 64-character alphabet) and digit i in {0,1,2}
selects which opposite pair of edges of tetrahedron i carries the two
pi angles.

Decoded tables are relabelled so that every gluing permutation is odd,
the usual convention for coherently oriented tetrahedra; the angle
digits are remapped alongside.  Non-orientable input is rejected.
"""

import itertools

ALPHABET = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789+-"
_CHAR_VAL = {ch: i for i, ch in enumerate(ALPHABET)}

# Permutations of {0,1,2,3} ordered lexicographically by image tuple.
# This is the index table used by the signature format's permutation
# characters; the choice is pinned down by the validation tests (known
# census entries must decode to orientable taut triangulations with the
# right homology).
ISOSIG_PERMS = tuple(itertools.permutations(range(4)))

# Edge slots 0..5 of a tetrahedron name unordered vertex pairs.
VERTEX_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
SLOT_OF_PAIR = {pair: i for i, pair in enumerate(VERTEX_PAIRS)}
OPPOSITE_SLOT = (5, 4, 3, 2, 1, 0)
# Angle digit d puts the two pi angles on this opposite pair of slots.
PI_SLOTS = ((0, 5), (1, 4), (2, 3))


class CensusError(ValueError):
    """Malformed or unsupported census input."""


def perm_sign(p):
    sign = 1
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                sign = -sign
    return sign


def compose(p, q):
    """Permutation doing q first, then p."""
    return tuple(p[q[i]] for i in range(len(q)))


def invert(p):
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


def slot_image(p, slot):
    """Edge slot of the image of an edge slot under a vertex permutation."""
    u, v = VERTEX_PAIRS[slot]
    a, b = p[u], p[v]
    return SLOT_OF_PAIR[(a, b) if a < b else (b, a)]


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[max(rx, ry)] = min(rx, ry)


class GluingTable:
    """An oriented ideal triangulation given by face gluings.

    gluings[t][f] = (t2, p) glues facet f of tetrahedron t (the face
    opposite vertex f) to facet p[f] of t2, matching vertex labels via
    the permutation p.  All facets must be glued, the pairing must be
    an involution, and all permutations must be odd.
    """

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
        assert len(self.faces) == 2 * self.n_tet

    def _build_edges(self):
        uf = _UnionFind(6 * self.n_tet)
        for t in range(self.n_tet):
            for f in range(4):
                t2, p = self.gluings[t][f]
                for slot in range(6):
                    if f in VERTEX_PAIRS[slot]:
                        continue        # edge not on this facet
                    uf.union(6 * t + slot, 6 * t2 + slot_image(p, slot))
        self.edge_index, self.edges = self._classes_from_uf(
            uf, 6 * self.n_tet, lambda x: (x // 6, x % 6))

    def _build_vertices(self):
        uf = _UnionFind(4 * self.n_tet)
        for t in range(self.n_tet):
            for f in range(4):
                t2, p = self.gluings[t][f]
                for v in range(4):
                    if v == f:
                        continue        # vertex not on this facet
                    uf.union(4 * t + v, 4 * t2 + p[v])
        self.vertex_index, self.vertices = self._classes_from_uf(
            uf, 4 * self.n_tet, lambda x: (x // 4, x % 4))

    @staticmethod
    def _classes_from_uf(uf, size, unpack):
        roots = {}
        index = {}
        classes = []
        for x in range(size):
            r = uf.find(x)
            if r not in roots:
                roots[r] = len(classes)
                classes.append([])
            index[unpack(x)] = roots[r]
            classes[roots[r]].append(unpack(x))
        return index, classes

    def glue(self, t, f):
        return self.gluings[t][f]


def decode_isosig(sig):
    """Decode a signature string into an all-odd-permutation GluingTable.

    The returned table carries `relabelled`, a per-tetrahedron flag
    saying whether vertices 2 and 3 were swapped to reach the all-odd
    convention (needed to reinterpret per-tetrahedron annotations).
    """
    if not sig:
        raise CensusError("empty signature")
    try:
        vals = [_CHAR_VAL[ch] for ch in sig]
    except KeyError as exc:
        raise CensusError("invalid signature character %r" % exc.args[0])
    n, pos = vals[0], 1
    if n == 63:
        raise CensusError("signatures for 63 or more tetrahedra "
                          "are not supported")
    if n == 0:
        raise CensusError("empty triangulation")

    # Gluing events in facet order; each event accounts for the current
    # facet and its partner, so events stop at 4n consumed facets.
    types = []
    consumed = 0
    bits_pos = pos
    while consumed < 4 * n:
        idx = len(types)
        char_off, within = divmod(idx, 3)
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
    width = 1
    while 64 ** width - 1 < n - 1:
        width += 1
    need = n_explicit * width + n_explicit
    if len(vals) - pos != need:
        raise CensusError("signature has wrong length")
    dests = []
    for i in range(n_explicit):
        chunk = vals[pos + i * width: pos + (i + 1) * width]
        dests.append(sum(c * 64 ** j for j, c in enumerate(chunk)))
    pos += n_explicit * width
    perm_indices = vals[pos: pos + n_explicit]
    for pi in perm_indices:
        if pi >= 24:
            raise CensusError("invalid permutation index %d" % pi)

    # replay the events
    gluings = [[None] * 4 for _ in range(n)]
    created = 1
    explicit = 0
    event = 0
    for t in range(n):
        for f in range(4):
            if t >= created:
                raise CensusError("signature describes a disconnected "
                                  "or incomplete triangulation")
            if gluings[t][f] is not None:
                continue
            ty = types[event]
            event += 1
            if ty == 1:
                if created >= n:
                    raise CensusError("too many tetrahedra in signature")
                t2 = created
                created += 1
                p = (0, 1, 2, 3)
            else:
                t2 = dests[explicit]
                p = ISOSIG_PERMS[perm_indices[explicit]]
                explicit += 1
                if t2 >= created:
                    raise CensusError("gluing destination %d not yet seen"
                                      % t2)
            f2 = p[f]
            if (t2, f2) == (t, f):
                raise CensusError("facet glued to itself")
            if gluings[t2][f2] is not None:
                raise CensusError("facet (%d,%d) glued twice" % (t2, f2))
            gluings[t][f] = (t2, p)
            gluings[t2][f2] = (t, invert(p))
    if event != len(types) or created != n:
        raise CensusError("signature does not describe a closed gluing "
                          "of %d tetrahedra" % n)

    relabelled = _orient_all_odd(gluings)
    table = GluingTable(gluings)
    table.relabelled = relabelled
    return table


def _orient_all_odd(gluings):
    """Relabel tetrahedra in place so every gluing permutation is odd.

    Propagates a per-tetrahedron parity: crossing an odd gluing keeps
    it, an even one flips it.  Tetrahedra with negative parity get
    vertices 2 and 3 swapped.  An inconsistency means the underlying
    manifold is non-orientable.
    """
    n = len(gluings)
    parity = {0: 1}
    queue = [0]
    while queue:
        t = queue.pop(0)
        for f in range(4):
            t2, p = gluings[t][f]
            # an odd gluing joins coherently oriented tetrahedra
            want = -parity[t] * perm_sign(p)
            if t2 not in parity:
                parity[t2] = want
                queue.append(t2)
            elif parity[t2] != want:
                raise CensusError("triangulation is non-orientable")
    swap23 = (0, 1, 3, 2)
    relabelled = [parity[t] < 0 for t in range(n)]
    if not any(relabelled):
        return relabelled
    new = [[None] * 4 for _ in range(n)]
    for t in range(n):
        rt = swap23 if relabelled[t] else (0, 1, 2, 3)
        for f in range(4):
            t2, p = gluings[t][f]
            rt2 = swap23 if relabelled[t2] else (0, 1, 2, 3)
            # conjugate: relabelled source label -> original -> original
            # target -> relabelled target (swap23 is its own inverse)
            new_p = compose(rt2, compose(p, rt))
            new[t][rt[f]] = (t2, new_p)
    for t in range(n):
        gluings[t][:] = new[t]
    return relabelled


# With vertices 2 and 3 swapped the pi-pair selector permutes: pairs
# {01,23} stay put while {02,13} and {03,12} trade places.
_DIGIT_RELABEL = {0: 0, 1: 2, 2: 1}


class TautStructure:
    """A gluing table together with a taut angle digit per tetrahedron."""

    def __init__(self, sig, table, digits):
        self.sig = sig
        self.table = table
        self.digits = digits

    def pi_slots(self, t):
        return PI_SLOTS[self.digits[t]]


def parse_taut_sig(line):
    """Parse "<signature>_<digits>" (extra whitespace-separated fields
    are ignored) and validate the taut angle structure."""
    token = line.split()[0] if line.split() else ""
    if "_" not in token:
        raise CensusError("missing angle digits in %r" % token)
    sig, digit_str = token.rsplit("_", 1)
    table = decode_isosig(sig)
    if len(digit_str) != table.n_tet:
        raise CensusError(
            "expected %d angle digits, got %d" % (table.n_tet,
                                                  len(digit_str)))
    digits = []
    for ch in digit_str:
        if ch not in "012":
            raise CensusError("invalid angle digit %r" % ch)
        digits.append(int(ch))
    digits = [_DIGIT_RELABEL[d] if table.relabelled[t] else d
              for t, d in enumerate(digits)]
    # angle sums: each edge class needs exactly two pi corners
    pi_count = [0] * len(table.edges)
    for t, d in enumerate(digits):
        for slot in PI_SLOTS[d]:
            pi_count[table.edge_index[(t, slot)]] += 1
    for e, total in enumerate(pi_count):
        if total != 2:
            raise CensusError(
                "angle sum around edge %d is %d*pi, not 2*pi" % (e, total))
    if len(table.edges) != table.n_tet:
        raise CensusError("edge count does not match tetrahedron count")
    return TautStructure(token, table, digits)
