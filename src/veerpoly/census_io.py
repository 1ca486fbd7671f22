"""Reading census entries: signature decoding and taut angle parsing.

A census line is "<signature>_<digits>" where the signature encodes an
ideal triangulation (size, packed gluing-event types, destination chain,
permutation indices over a 64-character alphabet) and digit i in {0,1,2}
selects which opposite pair of edges of tetrahedron i carries the two
pi angles.

Decoded tables are in the all-odd labelling (every gluing permutation
odd, the usual convention for coherently oriented tetrahedra): the
signature's replay decides each tetrahedron's relabelling when it
creates it, and rejects non-orientable input.  The angle digits are
remapped alongside.
"""

import itertools
from functools import cached_property

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


# Per permutation of ISOSIG_PERMS, by index: sign, inverse, the images
# of the six edge slots, and composition.  GluingTable, decode_isosig
# and the walks of ``taut`` look these up instead of recomputing them
# per gluing.
PERM_INDEX = {p: k for k, p in enumerate(ISOSIG_PERMS)}
PERM_SIGN = tuple(perm_sign(p) for p in ISOSIG_PERMS)
PERM_INVERSE = tuple(PERM_INDEX[invert(p)] for p in ISOSIG_PERMS)
PERM_SLOT_IMAGES = tuple(tuple(slot_image(p, s) for s in range(6))
                         for p in ISOSIG_PERMS)
PERM_COMPOSE = tuple(tuple(PERM_INDEX[compose(p, q)] for q in ISOSIG_PERMS)
                     for p in ISOSIG_PERMS)
# The three edge slots and the three vertices on each facet.
FACE_SLOTS = tuple(tuple(s for s in range(6)
                         if fs not in VERTEX_PAIRS[s]) for fs in range(4))
FACE_VERTICES = tuple(tuple(v for v in range(4) if v != fs)
                      for fs in range(4))
# The relabelling of a tetrahedron: vertices 2 and 3 swapped.
_SWAP23 = PERM_INDEX[(0, 1, 3, 2)]


def _classes(size, pairs, width):
    """Classes of range(size) under the unions of the given pairs.

    Returns (index, classes): classes listed by first member, each a
    list of (x // width, x % width) in increasing x, and index mapping
    each such pair to its class number.  The union-find forest keeps
    each class's minimum as its root, so every parent[x] <= x, and
    neither list depends on the order of the pairs.
    """
    parent = list(range(size))
    for x, y in pairs:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        while parent[y] != y:
            parent[y] = y = parent[parent[y]]
        if x < y:
            parent[y] = x
        elif y < x:
            parent[x] = y
    index = {}
    classes = []
    number = {}
    for x, p in enumerate(parent):
        # p <= x was visited already, so parent[p] is its root
        root = parent[x] = parent[p]
        if root == x:
            number[x] = len(classes)
            classes.append([])
        key = divmod(x, width)
        index[key] = c = number[root]
        classes[c].append(key)
    return index, classes


class GluingTable:
    """An oriented ideal triangulation given by face gluings.

    gluings[t][f] = (t2, p) glues facet f of tetrahedron t (the face
    opposite vertex f) to facet p[f] of t2, matching vertex labels via
    the permutation p (a tuple or list).  All facets must be glued, the
    pairing must be an involution, and all permutations must be odd.

    Every row's length, and that every facet is glued, is checked first;
    the table is then checked and built in one pass over the facets.  The
    first facet of each glued pair, in (t, f) order, is checked in full:
    it is glued by a pair of a tetrahedron and an odd permutation of
    0..3, not to itself, and its partner's gluing is its inverse.  Its
    partner then passes every check too, so it is not checked again, and
    the first failure raises the same CensusError as checking both sides
    would.  Any malformed table raises CensusError.
    Each pair makes one face, numbered in order of its first facet, and
    one union of its three vertices.  Every permutation is stored as
    the tuple of ISOSIG_PERMS, whichever sequence was given, so that
    PERM_INDEX finds it.

    The edge classes (``edges``, ``edge_index``) are computed on first
    read, from one union of the three edges of each face; the table is
    fully checked on construction all the same.  A double cover that is
    only built to count its cusps never unions its edge slots.
    """

    def __init__(self, gluings):
        self.n_tet = len(gluings)
        if self.n_tet == 0:
            raise CensusError("empty triangulation")
        try:
            self.gluings = [list(row) for row in gluings]
        except TypeError:
            raise CensusError("gluing table row is not a sequence") from None
        self._build()

    def _build(self):
        n = self.n_tet
        face_index = {}
        faces = []
        vertex_pairs = []
        for t, row in enumerate(self.gluings):
            if len(row) != 4:
                raise CensusError("tetrahedron %d does not have 4 gluings"
                                  % t)
            if None in row:
                raise CensusError("boundary faces are not supported")
        for t, row in enumerate(self.gluings):
            for f, entry in enumerate(row):
                if (t, f) in face_index:
                    continue        # partner of a facet checked earlier
                glued = _read_gluing(entry, n)
                if glued is None:
                    raise CensusError("malformed gluing on (%d,%d)" % (t, f))
                t2, k = glued
                if PERM_SIGN[k] != -1:
                    raise CensusError(
                        "gluing permutation on (%d,%d) is even; table is "
                        "not coherently oriented" % (t, f))
                p = ISOSIG_PERMS[k]
                f2 = p[f]
                if (t2, f2) == (t, f):
                    raise CensusError("facet (%d,%d) glued to itself"
                                      % (t, f))
                back = self.gluings[t2][f2]
                if _read_gluing(back, n) != (t, PERM_INVERSE[k]):
                    if not _undoes(back, t, p):
                        raise CensusError(
                            "gluings on (%d,%d) and (%d,%d) are not inverse"
                            % (t, f, t2, f2))
                    # the partner inverts p on 0..3 but is no gluing:
                    # it fails its own check, in turn
                    continue
                face_index[(t, f)] = face_index[(t2, f2)] = len(faces)
                faces.append(((t, f), (t2, f2)))
                row[f] = (t2, p)
                self.gluings[t2][f2] = (t, ISOSIG_PERMS[PERM_INVERSE[k]])
                vertex_pairs += [(4 * t + v, 4 * t2 + p[v])
                                 for v in FACE_VERTICES[f]]
        assert len(faces) == 2 * n
        self.face_index = face_index
        self.faces = faces
        _, self.vertices = _classes(4 * n, vertex_pairs, 4)

    @cached_property
    def _edge_classes(self):
        """(edge_index, edges), as ``_classes`` gives them."""
        pairs = []
        for (t, f), (t2, _) in self.faces:
            images = PERM_SLOT_IMAGES[PERM_INDEX[self.gluings[t][f][1]]]
            pairs += [(6 * t + s, 6 * t2 + images[s]) for s in FACE_SLOTS[f]]
        return _classes(6 * self.n_tet, pairs, 6)

    @cached_property
    def edge_index(self):
        return self._edge_classes[0]

    @cached_property
    def edges(self):
        return self._edge_classes[1]


def _read_gluing(entry, n):
    """(t2, index in ISOSIG_PERMS) of an entry (t2, p) with t2 in
    range(n) and p a permutation of 0..3; None for any other entry."""
    try:
        t2, p = entry
        k = PERM_INDEX.get(tuple(p))
    except (TypeError, ValueError):
        return None
    if k is None or not isinstance(t2, int) or not 0 <= t2 < n:
        return None
    return t2, k


def _undoes(entry, t, p):
    """Whether an entry glues back to t by a map undoing p on 0..3."""
    try:
        back_t, back_p = entry
        return back_t == t and compose(back_p, p) == (0, 1, 2, 3)
    except (TypeError, ValueError, IndexError):
        return False


def decode_isosig(sig):
    """Decode a signature string into an all-odd-permutation GluingTable.

    Returns (table, relabelled): relabelled is a per-tetrahedron flag
    saying whether vertices 2 and 3 were swapped to reach the all-odd
    convention (needed to reinterpret per-tetrahedron annotations).
    The replay glues every pair in that labelling at once: tetrahedron
    0 keeps its labels, and each tetrahedron is relabelled or not when
    it is created, so that the identity gluing that creates it is odd.
    An explicit gluing that is then even makes the manifold
    non-orientable; that is raised once the replay has closed, so any
    error of the replay itself comes first.  Error messages name the
    signature's own labels.
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

    # Gluing events in facet order, three 2-bit types per character;
    # each event glues two of the 4n facets, so there are 2n of them.
    types = []
    for event in range(2 * n):
        char_off, within = divmod(event, 3)
        if pos + char_off >= len(vals):
            raise CensusError("signature truncated in type sequence")
        ty = (vals[pos + char_off] >> (2 * within)) & 3
        if ty == 3:
            raise CensusError("invalid gluing event type")
        if ty == 0:
            raise CensusError("boundary faces are not supported")
        types.append(ty)
    pos += (2 * n + 2) // 3

    # n <= 62, so each destination is one character
    n_explicit = types.count(2)
    if len(vals) - pos != 2 * n_explicit:
        raise CensusError("signature has wrong length")
    dests = vals[pos: pos + n_explicit]
    perm_indices = vals[pos + n_explicit:]
    for pi in perm_indices:
        if pi >= 24:
            raise CensusError("invalid permutation index %d" % pi)

    # replay the events; gluings and the glued checks are in the
    # relabelled labels, where facet f of t is r_t(f)
    gluings = [[None] * 4 for _ in range(n)]
    relabelled = [False] * n
    created = 1
    explicit = 0
    event = 0
    orientable = True
    for t in range(n):
        if t >= created:
            raise CensusError("signature describes a disconnected "
                              "or incomplete triangulation")
        rt = _SWAP23 if relabelled[t] else 0
        for f in range(4):
            if gluings[t][ISOSIG_PERMS[rt][f]] is not None:
                continue
            ty = types[event]
            event += 1
            if ty == 1:
                if created >= n:
                    raise CensusError("too many tetrahedra in signature")
                t2 = created
                created += 1
                k = 0               # the identity
                relabelled[t2] = not relabelled[t]
            else:
                t2 = dests[explicit]
                k = perm_indices[explicit]
                explicit += 1
                if t2 >= created:
                    raise CensusError("gluing destination %d not yet seen"
                                      % t2)
                # an odd gluing joins coherently oriented tetrahedra
                if (relabelled[t2] != relabelled[t]) != (PERM_SIGN[k] == 1):
                    orientable = False
            f2 = ISOSIG_PERMS[k][f]
            if (t2, f2) == (t, f):
                raise CensusError("facet glued to itself")
            rt2 = _SWAP23 if relabelled[t2] else 0
            if gluings[t2][ISOSIG_PERMS[rt2][f2]] is not None:
                raise CensusError("facet (%d,%d) glued twice" % (t2, f2))
            # r_t2 . p . r_t (each swap is its own inverse), and back
            k = PERM_COMPOSE[rt2][PERM_COMPOSE[k][rt]]
            gluings[t][ISOSIG_PERMS[rt][f]] = (t2, ISOSIG_PERMS[k])
            gluings[t2][ISOSIG_PERMS[rt2][f2]] = (
                t, ISOSIG_PERMS[PERM_INVERSE[k]])
    if event != len(types) or created != n:
        raise CensusError("signature does not describe a closed gluing "
                          "of %d tetrahedra" % n)
    if not orientable:
        raise CensusError("triangulation is non-orientable")
    return GluingTable(gluings), relabelled


# With vertices 2 and 3 swapped the pi-pair selector permutes: pairs
# {01,23} stay put while {02,13} and {03,12} trade places.
_DIGIT_RELABEL = {0: 0, 1: 2, 2: 1}


class TautStructure:
    """A gluing table together with a taut angle digit per tetrahedron."""

    def __init__(self, sig, table, digits):
        self.sig = sig
        self.table = table
        self.digits = digits


def parse_taut_sig(line):
    """Parse "<signature>_<digits>" (extra whitespace-separated fields
    are ignored) and validate the taut angle structure."""
    token = line.split()[0] if line.split() else ""
    if "_" not in token:
        raise CensusError("missing angle digits in %r" % token)
    sig, digit_str = token.rsplit("_", 1)
    table, relabelled = decode_isosig(sig)
    if len(digit_str) != table.n_tet:
        raise CensusError(
            "expected %d angle digits, got %d" % (table.n_tet,
                                                  len(digit_str)))
    digits = []
    for ch in digit_str:
        if ch not in "012":
            raise CensusError("invalid angle digit %r" % ch)
        digits.append(int(ch))
    digits = [_DIGIT_RELABEL[d] if relabelled[t] else d
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
