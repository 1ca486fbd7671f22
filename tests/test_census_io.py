import itertools
import os
import random

import pytest

from veerpoly.census_io import (ALPHABET, CensusError, GluingTable,
                                ISOSIG_PERMS, OPPOSITE_SLOT, PI_SLOTS,
                                VERTEX_PAIRS, _classes, compose,
                                decode_isosig, invert, parse_taut_sig,
                                perm_sign, slot_image)
from veerpoly.invariants import Analysis
from veerpoly.taut import build_double_cover
from bundles import both_letter_words, bundle_sig, encode_isosig
from oracles import (TwoSidedGluingTable, reference_decode_isosig,
                     reference_parities, reference_replay)

DATA = os.path.join(os.path.dirname(__file__), "data", "sample_census.txt")
FOURTEEN = "oLLLLLPwQQcccefgijlmkklnnnlnewbnetafobnkj_12001112122200"


# -- permutation helpers ------------------------------------------------------

def test_perm_table_is_lexicographic():
    assert len(ISOSIG_PERMS) == 24
    assert list(ISOSIG_PERMS) == sorted(itertools.permutations(range(4)))


def test_perm_group_laws():
    for p in ISOSIG_PERMS:
        assert compose(p, invert(p)) == (0, 1, 2, 3)
        assert perm_sign(p) * perm_sign(invert(p)) == 1
        for q in ISOSIG_PERMS:
            r = compose(p, q)
            assert perm_sign(r) == perm_sign(p) * perm_sign(q)


def test_slot_image_respects_vertex_pairs():
    for p in ISOSIG_PERMS:
        for slot, (u, v) in enumerate(VERTEX_PAIRS):
            img = slot_image(p, slot)
            assert set(VERTEX_PAIRS[img]) == {p[u], p[v]}
            # opposite slots map to opposite slots
            assert slot_image(p, OPPOSITE_SLOT[slot]) == OPPOSITE_SLOT[img]


def test_pi_slots_are_opposite_pairs():
    for a, b in PI_SLOTS:
        assert OPPOSITE_SLOT[a] == b


# -- decoding known entries ---------------------------------------------------

def test_decode_two_tet_entry():
    ts = parse_taut_sig("cPcbbbdxm_10")
    table = ts.table
    assert table.n_tet == 2
    assert len(table.faces) == 4
    assert len(table.edges) == 2
    assert len(table.vertices) == 1        # one cusp
    # all gluing permutations odd and involutive (validated on build, but
    # keep the contract explicit here)
    for t in range(table.n_tet):
        for f in range(4):
            t2, p = table.gluings[t][f]
            assert perm_sign(p) == -1
            back_t, back_p = table.gluings[t2][p[f]]
            assert back_t == t and compose(back_p, p) == (0, 1, 2, 3)


def test_decode_fourteen_tet_entry():
    sig = "oLLLLLPwQQcccefgijlmkklnnnlnewbnetafobnkj_12001112122200"
    ts = parse_taut_sig(sig)
    assert ts.table.n_tet == 14
    assert len(ts.table.edges) == 14
    assert len(ts.table.vertices) == 2     # two cusps


def test_angle_digits_give_two_pi_per_edge():
    for line in ("cPcbbbdxm_10", "cPcbbbiht_12"):
        ts = parse_taut_sig(line)
        count = [0] * len(ts.table.edges)
        for t in range(ts.table.n_tet):
            for slot in PI_SLOTS[ts.digits[t]]:
                count[ts.table.edge_index[(t, slot)]] += 1
        assert all(c == 2 for c in count)


def test_extra_whitespace_fields_ignored():
    ts = parse_taut_sig("cPcbbbiht_12 extra fields ok")
    assert ts.sig == "cPcbbbiht_12"


# -- malformed input ----------------------------------------------------------

# Lines parse_taut_sig rejects, with a fragment of each message: one per
# CensusError branch of decode_isosig that an input reaches, its
# non-orientable check among them, and the angle checks.  The last two
# lines make an inconsistent gluing before the replay fails: the
# replay's error must still be the one reported.
MALFORMED = [
    ("", "missing angle digits"),
    ("!!bad_10", "invalid signature character"),
    ("cPcbbbdxm", "missing angle digits"),
    ("cPcbbbdxm_1", "expected 2 angle digits"),
    ("cPcbbbdxm_103", "expected 2 angle digits"),
    ("cPcbbbdxm_13", "invalid angle digit"),
    ("cPcbbbdxm_11", "angle sum"),
    ("cPcbbbdxm_12", "angle sum"),
    ("cPcbbb_10", "wrong length"),
    ("aa_0", "empty triangulation"),
    ("_10", "empty signature"),
    ("-abc_10", "63 or more tetrahedra"),
    ("c_10", "truncated in type sequence"),
    ("c9cbbpe_12", "invalid gluing event type"),
    ("Pbbphe_12", "boundary faces"),
    ("cPbbpIe_12", "invalid permutation index 34"),
    ("cQcaaaagbaa_10", "disconnected or incomplete"),
    ("cPbbbih_12", "too many tetrahedra"),
    ("cPbcbhe_12", "destination 2 not yet seen"),
    ("dLQbbcchhxc_120", "glued to itself"),
    ("cPbbbpe_12", "facet (1,1) glued twice"),
    ("cPcbbbbph_12", "non-orientable"),
    ("cPcbbaiht_12", "facet (0,1) glued twice"),
    ("cPcb1bbhe_12", "gluing destination 53 not yet seen"),
]


@pytest.mark.parametrize("line,fragment", MALFORMED)
def test_malformed_input_rejected(line, fragment):
    with pytest.raises(CensusError) as err:
        parse_taut_sig(line)
    assert fragment in str(err.value)


def edited_line(rng, line):
    """line with one character edited: a quarter of edits insert or
    delete any character, the others substitute a signature character
    or an angle digit by another of its kind, so that many edited lines
    still decode."""
    i = rng.randrange(len(line))
    if rng.random() < 0.25:
        if rng.random() < 0.5:
            return line[:i] + rng.choice(ALPHABET + "_") + line[i:]
        return line[:i] + line[i + 1:]
    cut = line.rfind("_")
    if i == cut:
        return line
    return line[:i] + rng.choice("012" if i > cut else ALPHABET) + \
        line[i + 1:]


def test_edited_signatures_build_or_are_rejected():
    # every census line enters through decode_isosig: a line one or two
    # edits away from a sample entry either builds an Analysis or is
    # rejected as input, never by a failed internal check
    with open(DATA) as fh:
        lines = [ln.strip() for ln in fh
                 if ln.strip() and not ln.startswith("#")]
    rng = random.Random(29)
    built = rejected = 0
    for _ in range(3000):
        line = rng.choice(lines)
        for _ in range(rng.randint(1, 2)):
            line = edited_line(rng, line)
        try:
            Analysis(parse_taut_sig(line))
        except CensusError:
            rejected += 1
        else:
            built += 1
    assert built and rejected


# -- decoding against the two-pass decoder ------------------------------------

def decode_outcome(decoder, sig):
    """What a decoder makes of a signature: its table's gluings, faces
    and vertex classes with the relabelled flags, or its CensusError
    message."""
    try:
        table, relabelled = decoder(sig)
    except CensusError as exc:
        return "error", str(exc)
    return "ok", table.gluings, table.faces, table.vertices, relabelled


def edited_sig(rng, sig):
    """sig with one character edited.  Most edits give a gluing
    destination or a permutation index another value in range, so that
    the replay runs and often closes on an even gluing; the others
    insert, delete or substitute any character."""
    n = ALPHABET.index(sig[0])
    tail = 1 + (2 * n + 2) // 3         # the destinations, then the indices
    half = (len(sig) - tail) // 2
    edit = rng.random()
    if half > 0 and edit < 0.6:
        i = rng.randrange(tail, len(sig))
        top = n if i < tail + half else 24
        return sig[:i] + ALPHABET[rng.randrange(top)] + sig[i + 1:]
    i = rng.randrange(len(sig))
    if edit < 0.7:
        return sig[:i] + rng.choice(ALPHABET) + sig[i:]
    if edit < 0.8:
        return sig[:i] + sig[i + 1:]
    return sig[:i] + rng.choice(ALPHABET) + sig[i + 1:]


def test_decoder_matches_two_pass_decoder():
    # the sample, the bundles of both-letter words of length 2-8 in both
    # signs, and one or two edits of them: the same tables, flags and
    # messages as the replay followed by a separate orientation search.
    # The edits reach the non-orientable raise, and a replay error after
    # an inconsistent gluing, which must win over it
    with open(DATA) as fh:
        sigs = [ln.split("_")[0] for ln in fh
                if ln.strip() and not ln.startswith("#")]
    sigs += [bundle_sig(word, eps).split("_")[0] for length in range(2, 9)
             for word in both_letter_words(length) for eps in (1, -1)]
    for sig in sigs:
        want = decode_outcome(reference_decode_isosig, sig)
        assert want[0] == "ok"
        assert decode_outcome(decode_isosig, sig) == want
    rng = random.Random(0)
    non_orientable = replay_after_inconsistent = 0
    for _ in range(5000):
        sig = rng.choice(sigs)
        for _ in range(rng.randint(1, 2)):
            sig = edited_sig(rng, sig)
        want = decode_outcome(reference_decode_isosig, sig)
        assert decode_outcome(decode_isosig, sig) == want, sig
        if want[0] == "ok":
            continue
        if "non-orientable" in want[1]:
            non_orientable += 1
            continue
        try:
            gluings, error = reference_replay(sig)
        except CensusError:
            continue                    # a header error
        if error is not None:
            try:
                reference_parities(gluings)
            except CensusError:
                replay_after_inconsistent += 1
    assert non_orientable >= 100
    assert replay_after_inconsistent >= 100


# -- re-encoding round trip ---------------------------------------------------

def test_encoder_round_trips_through_decoder():
    # re-encoding a decoded table must reproduce an isomorphic
    # triangulation: same size and same combinatorial class counts
    for word, eps in (("RL", 1), ("RL", -1), ("RRLL", 1), ("RLRLL", -1)):
        sig = bundle_sig(word, eps)
        ts = parse_taut_sig(sig)
        again = encode_isosig(
            [[tuple(g) for g in row] for row in ts.table.gluings], ts.digits)
        ts2 = parse_taut_sig(again)
        for attr in ("n_tet",):
            assert getattr(ts2.table, attr) == getattr(ts.table, attr)
        assert len(ts2.table.edges) == len(ts.table.edges)
        assert len(ts2.table.vertices) == len(ts.table.vertices)


def test_encoder_reproduces_known_census_strings():
    # the layered construction lands exactly on two census strings,
    # pinning down the format conventions end to end
    assert bundle_sig("RL", 1) == "cPcbbbiht_12"
    assert bundle_sig("LR", -1) == "cPcbbbdxm_10"


def test_sample_census_parses():
    with open(DATA) as fh:
        lines = [ln.strip() for ln in fh
                 if ln.strip() and not ln.startswith("#")]
    assert len(lines) >= 200
    assert len(set(lines)) == len(lines)
    for line in lines:
        ts = parse_taut_sig(line)
        assert len(ts.table.edges) == ts.table.n_tet


# -- gluing tables against the two-sided builder -------------------------------

TABLE_ATTRS = ("faces", "face_index", "edges", "edge_index", "vertices")


def build_outcome(builder, gluings):
    """What a builder makes of a table: its classes, its CensusError
    message, or the type of any other exception."""
    try:
        table = builder(gluings)
    except CensusError as exc:
        return "error", str(exc)
    except Exception as exc:
        return "raises", type(exc)
    return "ok", tuple(getattr(table, attr) for attr in TABLE_ATTRS)


def with_list_perms(gluings):
    """gluings with the permutation of each entry as a list; entries
    with no second item, and rows that are no list, are kept as they
    are."""
    return [[entry if entry is None or len(entry) < 2 else
             (entry[0], list(entry[1])) + tuple(entry[2:])
             for entry in row] if isinstance(row, list) else row
            for row in gluings]


def assert_same_table(gluings):
    want = build_outcome(TwoSidedGluingTable, gluings)
    assert want[0] == "ok"
    assert build_outcome(GluingTable, gluings) == want
    assert build_outcome(GluingTable, with_list_perms(gluings)) == want


def bundle_words(rng, sizes):
    for n in sizes:
        for eps in (1, -1):
            word = "RL" + "".join(rng.choice("RL") for _ in range(n - 2))
            yield "".join(rng.sample(word, n)), eps


def test_gluing_table_matches_two_sided_builder():
    # every sample entry (the 14-tet entry among them) and its
    # edge-orientation double cover, connected or not, and bundles of
    # up to 32 tetrahedra with theirs
    rng = random.Random(307)
    with open(DATA) as fh:
        sigs = [ln.strip() for ln in fh
                if ln.strip() and not ln.startswith("#")]
    assert FOURTEEN in sigs
    sigs += [bundle_sig(word, eps)
             for word, eps in bundle_words(rng, (4, 9, 16, 23, 32))]
    for sig in sigs:
        ts = parse_taut_sig(sig)
        assert_same_table(ts.table.gluings)
        analysis = Analysis(ts)
        cover, _ = build_double_cover(ts, analysis.coor, analysis.eo.beta)
        assert_same_table(cover.table.gluings)


def single_entry_mutations(gluings):
    """Every table that differs from gluings in one entry or one row
    length: each destination (one out of range on each side) with each
    of the 24 permutations, non-permutations, the inverse padded with an
    extra label, an unglued facet, entries that are no (destination,
    permutation) pair or whose destination is no int, rows one entry
    short or long, and rows that are no sequence."""
    n = len(gluings)
    for t in range(n):
        for f in range(4):
            t2, p = gluings[t][f]
            entries = [(d, q) for d in range(-1, n + 1) for q in ISOSIG_PERMS
                       if (d, q) != (t2, tuple(p))]
            entries += [(t2, q) for q in ((0, 1, 2, 2), (0, 1, 2),
                                          tuple(p) + (4,), (3, 2, 1, 0, 4))]
            entries += [None, (t2,), (t2, p, 0), ("1", p)]
            for entry in entries:
                table = [list(row) for row in gluings]
                table[t][f] = entry
                yield table
        yield [row if s != t else row[:3] for s, row in enumerate(gluings)]
        yield [row if s != t else row + [row[0]]
               for s, row in enumerate(gluings)]
        for not_a_row in (None, 5):
            yield [row if s != t else not_a_row
                   for s, row in enumerate(gluings)]


def unreadable_edge_classes(self):
    raise AssertionError("edge classes read on construction")


@pytest.mark.parametrize("sig", ["cPcbbbdxm_10", "cPcbbbiht_12",
                                 "dLQbcccxxfo_100"])
def test_malformed_gluing_tables_raise_as_two_sided_builder(monkeypatch,
                                                             sig):
    # every mutation is a CensusError, with tuple- or list-typed
    # permutations; where the two-sided builder reports one too, the
    # first failure of the one-pass check must be the same, message for
    # message (elsewhere the two-sided builder raises another exception).
    # The edge classes are computed on first read; they are made
    # unreadable here, so every check is shown to run on construction
    messages = set()
    gluings = parse_taut_sig(sig).table.gluings
    monkeypatch.setattr(GluingTable, "_edge_classes",
                        property(unreadable_edge_classes))
    for table in single_entry_mutations(gluings):
        want = build_outcome(TwoSidedGluingTable, table)
        for mutated in (table, with_list_perms(table)):
            got = build_outcome(GluingTable, mutated)
            assert got[0] == "error"
            if want[0] == "error":
                assert got == want
            messages.add(got[1])
    monkeypatch.undo()
    assert build_outcome(GluingTable, []) == \
        build_outcome(TwoSidedGluingTable, []) == \
        ("error", "empty triangulation")
    for kind in ("does not have 4 gluings", "boundary faces",
                 "malformed gluing", "is even", "glued to itself",
                 "are not inverse"):
        assert any(kind in msg for msg in messages), kind


def eager_edge_classes(table):
    """The edge classes as GluingTable built them on construction: one
    ``_classes`` run over the unions of the three edges of each face."""
    pairs = []
    for (t, f), (t2, _) in table.faces:
        p = table.gluings[t][f][1]
        pairs += [(6 * t + s, 6 * t2 + slot_image(p, s))
                  for s in range(6) if f not in VERTEX_PAIRS[s]]
    return _classes(6 * table.n_tet, pairs, 6)


def test_lazy_edge_classes_equal_an_eager_run():
    # on decoded tables and on double covers, connected or not: unread
    # until first use, then what an eager _classes run gives, each class
    # in increasing order (the corner walk anchors on that order); the
    # vertex classes too are in increasing order, and permutations given
    # as lists are stored as the tuples of ISOSIG_PERMS
    with open(DATA) as fh:
        sigs = [ln.strip() for ln in fh
                if ln.strip() and not ln.startswith("#")]
    covers = 0
    for sig in sigs:
        ts = parse_taut_sig(sig)
        analysis = Analysis(ts)
        cover, connected = build_double_cover(ts, analysis.coor,
                                              analysis.eo.beta)
        covers += connected
        decoded, _ = decode_isosig(sig.split("_")[0])
        for table in (decoded, cover.table):
            assert "edges" not in vars(table)
            assert "edge_index" not in vars(table)
            index, classes = eager_edge_classes(table)
            assert table.edges == classes
            assert table.edge_index == index
            for cls in table.edges + table.vertices:
                assert cls == sorted(cls)
            again = GluingTable(with_list_perms(table.gluings))
            assert again.gluings == table.gluings
            assert all(type(p) is tuple for row in again.gluings
                       for _, p in row)
    assert covers
