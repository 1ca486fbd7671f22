import itertools
import os
import random

import pytest

from veerpoly.census_io import (CensusError, FACE_SLOTS, GluingTable,
                                OPPOSITE_SLOT, PI_SLOTS, TautStructure,
                                VERTEX_PAIRS, invert, parse_taut_sig,
                                slot_image)
from veerpoly.taut import (EdgeOrientationData, build_double_cover,
                           derive_colouring, derive_coorientation,
                           edge_corner_cycles, edge_orientation_data,
                           face_disagreement, vertex_orders)
from veerpoly.invariants import Analysis, _taut_relation_signs
from bundles import bundle_sig, both_letter_words
from oracles import (dense_chain_complex, flipped_coorientation,
                     reanchored, reference_corner_cycles,
                     reference_edge_orientations, reference_face_disagreement,
                     reference_taut_relation_signs)

DATA = os.path.join(os.path.dirname(__file__), "data", "sample_census.txt")


def sample_sigs(limit=None):
    with open(DATA) as fh:
        lines = [ln.strip() for ln in fh
                 if ln.strip() and not ln.startswith("#")]
    return lines[:limit] if limit else lines


def sample_and_covers():
    """Every sample entry, each followed by its edge-orientation double
    cover if it is not edge-orientable."""
    structures = []
    for sig in sample_sigs():
        analysis = Analysis(parse_taut_sig(sig))
        structures.append(analysis.ts)
        if not analysis.eo.edge_orientable:
            structures.append(analysis.cover)
    return structures


def _choice_is_transverse(ts, choice):
    """A top/bottom choice is admissible iff every face is an upper face
    on exactly one of its two sides (stated directly from the slot
    tables, independently of the propagation code)."""
    table = ts.table
    for (t1, fs1), (t2, fs2) in table.faces:
        upper = []
        for t, fs in ((t1, fs1), (t2, fs2)):
            bot = OPPOSITE_SLOT[PI_SLOTS[ts.digits[t]][choice[t]]]
            upper.append(fs in VERTEX_PAIRS[bot])
        if upper[0] == upper[1]:
            return False
    return True


# -- coorientation ------------------------------------------------------------

def test_coorientation_exhaustive_oracle():
    # brute force over all 2^n top/bottom choices: a connected transverse
    # taut structure admits exactly two, one the flip of the other
    for sig in ("cPcbbbdxm_10", "cPcbbbiht_12",
                bundle_sig("RRL", -1), bundle_sig("RLRL", 1),
                bundle_sig("RLLLR", -1)):
        ts = parse_taut_sig(sig)
        valid = [choice for choice in
                 itertools.product((0, 1), repeat=ts.table.n_tet)
                 if _choice_is_transverse(ts, choice)]
        assert len(valid) == 2
        assert valid[0] == tuple(1 - c for c in valid[1])
        tops = [[PI_SLOTS[d][c] for d, c in zip(ts.digits, choice)]
                for choice in valid]
        assert derive_coorientation(ts).top_slot in tops


def test_coorientation_rejects_non_transverse_digits():
    # angle sums pass for these digit strings but no coherent
    # top/bottom choice exists
    for sig in ("cPcbbbdxm_02", "cPcbbbdxm_21"):
        ts = parse_taut_sig(sig)
        with pytest.raises(CensusError):
            derive_coorientation(ts)


def test_every_face_has_below_and_above():
    # for the derived coorientation and its flip alike
    for sig in sample_sigs(40):
        ts = parse_taut_sig(sig)
        for coor in (derive_coorientation(ts), flipped_coorientation(ts)):
            assert all(s in PI_SLOTS[d]
                       for d, s in zip(ts.digits, coor.top_slot))
            assert coor.bot_slot == [OPPOSITE_SLOT[s] for s in coor.top_slot]
            for idx in range(len(ts.table.faces)):
                t_b, fs_b = coor.below[idx]
                t_a, fs_a = coor.above[idx]
                assert {(t_b, fs_b), (t_a, fs_a)} == \
                    set(ts.table.faces[idx])
                # below side: the facet is an upper face of its tetrahedron
                assert fs_b in VERTEX_PAIRS[coor.bot_slot[t_b]]
                assert fs_a not in VERTEX_PAIRS[coor.bot_slot[t_a]]


# -- colouring ----------------------------------------------------------------

def test_colouring_rejects_taut_not_veering():
    for sig in ("cPcbbbiht_01", "cPcbbbiht_20"):
        ts = parse_taut_sig(sig)
        derive_coorientation(ts)    # taut and transverse...
        with pytest.raises(CensusError):
            derive_colouring(ts)    # ...but not veering


# Taut structures that are not veering and on which the coorientation's
# large-slot assert fails: Analysis must reject them as input.
NOT_VEERING = ("fLMPcbcdeeexxxxbo_10011", "gLMzQbcdefffhhhdhld_122102")


@pytest.mark.parametrize("sig", NOT_VEERING)
def test_non_veering_input_is_an_input_error(sig):
    with pytest.raises(CensusError, match="taut structure is not veering"):
        Analysis(parse_taut_sig(sig))


def test_colouring_equatorial_split():
    # within each tetrahedron the four equatorial edges split into two
    # opposite pairs of constant colour, and the pairs have different
    # colours
    for sig in sample_sigs(40):
        ts = parse_taut_sig(sig)
        colours = derive_colouring(ts)
        for t, d in enumerate(ts.digits):
            pair_cols = []
            for k in ((d + 1) % 3, (d + 2) % 3):
                cols = {colours[ts.table.edge_index[(t, s)]]
                        for s in PI_SLOTS[k]}
                assert len(cols) == 1
                pair_cols.append(cols.pop())
            assert sorted(pair_cols) == [0, 1]


# -- corner cycles and the dual complex ---------------------------------------

def test_corner_cycles_cover_all_corners():
    for sig in sample_sigs(25):
        ts = parse_taut_sig(sig)
        coor = derive_coorientation(ts)
        cycles = edge_corner_cycles(ts, coor)
        seen = set()
        for cyc in cycles:
            for (t, s), (a, b), exit_fs in zip(cyc.corners, cyc.dirs,
                                               cyc.exits):
                assert {a, b} == set(VERTEX_PAIRS[s])
                assert exit_fs not in VERTEX_PAIRS[s]
                seen.add((t, s))
        assert len(seen) == 6 * ts.table.n_tet


def test_corner_walk_matches_reference_walk():
    # the table-driven walk, anchored at the first corner of each class
    # as GluingTable.edges lists it, gives the corners, directions,
    # crossings and exits of the facet-scanning walk anchored in the
    # sorted class: on every sample entry and on the double cover of
    # every entry that is not edge-orientable, under both
    # coorientations, with each class listed from its member 0, 1 or 2
    structures = sample_and_covers()
    assert any(ts.sig.endswith(":double") for ts in structures)
    for ts in structures:
        coor = derive_coorientation(ts)
        flipped = flipped_coorientation(ts)
        assert flipped.top_slot == coor.bot_slot != coor.top_slot
        for c in (coor, flipped):
            for rank in (0, 1, 2):
                cycles = edge_corner_cycles(reanchored(ts, rank), c)
                starts = [cyc.corners[0] for cyc in cycles]
                smallest = [cls[0] for cls in ts.table.edges]
                assert (starts != smallest) == (rank != 0), (ts.sig, rank)
                got = [(cyc.corners, cyc.dirs, cyc.crossings, cyc.exits)
                       for cyc in cycles]
                assert got == reference_corner_cycles(ts, c, rank), \
                    (ts.sig, rank)


def test_corner_cycle_has_exactly_two_pi_corners():
    # taut angle structure seen combinatorially: around every edge the
    # crossing direction changes exactly twice
    for sig in sample_sigs(25):
        ts = parse_taut_sig(sig)
        coor = derive_coorientation(ts)
        for cyc in edge_corner_cycles(ts, coor):
            eps = [e for _, e in cyc.crossings]
            changes = sum(eps[i] != eps[i - 1] for i in range(len(eps)))
            assert changes == 2


def test_chain_complex_composes_to_zero():
    for sig in sample_sigs(25):
        ts = parse_taut_sig(sig)
        coor = derive_coorientation(ts)
        cycles = edge_corner_cycles(ts, coor)
        d1, d2 = dense_chain_complex(ts, coor, cycles)
        n_faces = len(ts.table.faces)
        for t in range(ts.table.n_tet):
            for e in range(len(ts.table.edges)):
                assert sum(d1[t][f] * d2[f][e] for f in range(n_faces)) == 0


def test_track_slots_known_and_flip_swaps():
    # the lower-large slot of a face is the top diagonal of the
    # tetrahedron below, the upper-large slot the bottom diagonal of the
    # one above, pulled back by the gluing: two distinct edges of the
    # face.  Flipping the coorientation swaps them, carried across the
    # gluing to the other side.
    for sig in sample_sigs(25):
        ts = parse_taut_sig(sig)
        coor = derive_coorientation(ts)
        flipped = flipped_coorientation(ts)
        for f, ((t_b, fs_b), (t_a, fs_a)) in enumerate(zip(coor.below,
                                                           coor.above)):
            p = ts.table.gluings[t_b][fs_b][1]
            lower, upper = coor.top_slot[t_b], coor.upper_large[f]
            assert upper == slot_image(invert(p), coor.bot_slot[t_a])
            assert lower in FACE_SLOTS[fs_b] and upper in FACE_SLOTS[fs_b]
            assert lower != upper
            assert flipped.below[f] == (t_a, fs_a)
            assert flipped.top_slot[t_a] == slot_image(p, upper)
            assert flipped.upper_large[f] == slot_image(p, lower)


def test_upper_large_is_the_equatorial_edge_coloured_like_the_top():
    # build_taut_matrix's colour rule: the upper-large edge of a face is
    # its equatorial edge, at the tetrahedron below, of that
    # tetrahedron's top-diagonal colour.  On every sample entry, the
    # edge-orientation covers and bundles of 4-32 tets of both signs.
    structures = sample_and_covers()
    rng = random.Random(20)
    for n in range(4, 33):
        for eps in (1, -1):
            word = "RL" + "".join(rng.choice("RL") for _ in range(n - 2))
            structures.append(parse_taut_sig(bundle_sig(word, eps)))
    faces = 0
    for ts in structures:
        coor = derive_coorientation(ts)
        colours = derive_colouring(ts)
        edge_index = ts.table.edge_index
        for (t, fs), upper in zip(coor.below, coor.upper_large):
            top = coor.top_slot[t]
            top_colour = colours[edge_index[(t, top)]]
            coloured = [s for s in FACE_SLOTS[fs] if s != top
                        and colours[edge_index[(t, s)]] == top_colour]
            assert coloured == [upper], ts.sig
            faces += 1
    assert faces > 8000


# -- edge orientations and the double cover -----------------------------------

def test_beta_is_a_mod_two_cocycle():
    for sig in sample_sigs(25):
        ts = parse_taut_sig(sig)
        coor = derive_coorientation(ts)
        orders = vertex_orders(ts, coor, derive_colouring(ts))
        cycles = edge_corner_cycles(ts, coor)
        beta = face_disagreement(ts, coor, orders)
        assert all(b in (0, 1) for b in beta)
        _, d2 = dense_chain_complex(ts, coor, cycles)
        for e in range(len(ts.table.edges)):
            assert sum(beta[f] * d2[f][e] for f in range(len(beta))) % 2 == 0


def test_orientations_give_each_slot_a_direction():
    # each vertex order is a permutation of the four vertices that
    # starts and ends with the bottom diagonal, low -> high, so that it
    # directs every edge slot
    for sig in sample_sigs(25):
        ts = parse_taut_sig(sig)
        coor = derive_coorientation(ts)
        orders = vertex_orders(ts, coor, derive_colouring(ts))
        assert len(orders) == ts.table.n_tet
        for t, order in enumerate(orders):
            assert sorted(order) == [0, 1, 2, 3]
            assert (order[0], order[3]) == VERTEX_PAIRS[coor.bot_slot[t]]
            assert {order[1], order[2]} == set(VERTEX_PAIRS[coor.top_slot[t]])


def orientation_structures():
    """Every sample entry with the edge-orientation cover of each one
    that is not edge-orientable, and the bundles of every both-letter
    word of length 2-8, both signs."""
    structures = sample_and_covers()
    for n in range(2, 9):
        for word in both_letter_words(n):
            for eps in (1, -1):
                structures.append(parse_taut_sig(bundle_sig(word, eps)))
    return structures


def test_vertex_orders_match_reference_orientations():
    # the vertex order directs every edge as the per-tetrahedron
    # templates do; beta from ranking the face vertices equals the
    # edge-by-edge comparison through each gluing; and the taut
    # relation signs read by position equal the colour rule
    structures = orientation_structures()
    assert len(structures) == 1355
    for ts in structures:
        analysis = Analysis(ts)
        coor = analysis.coor
        orientations = reference_edge_orientations(ts, coor)
        for order, orient in zip(analysis.orders, orientations):
            for s, (a, b) in orient.items():
                assert order.index(a) < order.index(b), ts.sig
        assert analysis.eo.beta == \
            reference_face_disagreement(ts, coor, orientations), ts.sig
        assert _taut_relation_signs(analysis) == \
            reference_taut_relation_signs(analysis), ts.sig


def test_cover_connected_iff_not_edge_orientable():
    for sig in sample_sigs(30):
        ts = parse_taut_sig(sig)
        coor = derive_coorientation(ts)
        orders = vertex_orders(ts, coor, derive_colouring(ts))
        cycles = edge_corner_cycles(ts, coor)
        h1 = Analysis(ts).h1
        eo = edge_orientation_data(ts, coor, orders, cycles, h1)
        cover, connected = build_double_cover(ts, coor, eo.beta)
        assert connected == (not eo.edge_orientable)
        if connected:
            # the connected double cover is itself veering and
            # edge-orientable (the pulled-back obstruction dies)
            cover_ts = TautStructure(cover.sig, GluingTable(
                [[tuple(g) for g in row] for row in cover.table.gluings]),
                cover.digits)
            assert Analysis(cover_ts).eo.edge_orientable


def test_known_edge_orientability():
    assert not Analysis(parse_taut_sig("cPcbbbdxm_10")).eo.edge_orientable
    assert Analysis(parse_taut_sig("cPcbbbiht_12")).eo.edge_orientable


def test_sigma_signs_on_known_entries():
    for sig, want in (("cPcbbbdxm_10", (-1,)), ("cPcbbbiht_12", (1,))):
        ts = parse_taut_sig(sig)
        coor = derive_coorientation(ts)
        orders = vertex_orders(ts, coor, derive_colouring(ts))
        cycles = edge_corner_cycles(ts, coor)
        h1 = Analysis(ts).h1
        eo = edge_orientation_data(ts, coor, orders, cycles, h1)
        assert eo.sigma_exists and eo.sigma == want


def beta_pairing(beta, z):
    """beta paired with a face vector z, mod 2: the route to omega that
    does not go through kernel coordinates."""
    return sum(b * x for b, x in zip(beta, z)) % 2


def test_omega_vanishes_on_boundaries():
    # the obstruction evaluates to zero on every dual 2-cell boundary
    for sig in sample_sigs(20):
        ts = parse_taut_sig(sig)
        coor = derive_coorientation(ts)
        orders = vertex_orders(ts, coor, derive_colouring(ts))
        cycles = edge_corner_cycles(ts, coor)
        h1 = Analysis(ts).h1
        eo = edge_orientation_data(ts, coor, orders, cycles, h1)
        _, d2 = dense_chain_complex(ts, coor, cycles)
        for e in range(len(ts.table.edges)):
            col = [d2[f][e] for f in range(len(ts.table.faces))]
            assert beta_pairing(eo.beta, col) == 0
            assert eo.omega(h1.cycle_kernel_coords(col)) == 0


def test_omega_positions_match_per_position_cycles():
    # EdgeOrientationData pairs beta with V[:, rho:] once; omega of a
    # kernel vector, and so of each generator lift, must equal beta
    # paired with the cycle that vector stands for.  edge_orientable,
    # read off odd_kernel alone, must say that omega vanishes on every
    # generator lift, for beta and for any other 0/1 face cochain: a
    # random one, and the coboundary of a random set of cells
    rng = random.Random(43)
    cochains = random.Random(47)
    seen = set()
    for sig in sample_sigs():
        analysis = Analysis(parse_taut_sig(sig))
        analyses = [analysis]
        if not analysis.eo.edge_orientable:
            analyses.append(Analysis(analysis.cover))
        for a in analyses:
            h1 = a.h1
            lifts = [h1.quot.generator_lift(i) for i in range(h1.q)]
            omega = [a.eo.omega(y) for y in lifts]
            want = [beta_pairing(a.eo.beta, h1.w_position_representative(i))
                    for i in range(h1.q)]
            assert omega == want, a.ts.sig
            assert a.eo.edge_orientable == (not any(omega)), a.ts.sig
            for _ in range(3):
                y = [rng.randint(-3, 3) for _ in range(h1.q)]
                assert a.eo.omega(y) == \
                    beta_pairing(a.eo.beta, h1.kernel_to_cycle(y))
            cells = [cochains.randint(0, 1) for _ in range(h1.n_cells)]
            for beta in ([cochains.randint(0, 1) for _ in h1.face_ends],
                         [(cells[lo] + cells[hi]) % 2
                          for lo, hi in h1.face_ends]):
                eo = EdgeOrientationData(beta, h1)
                assert eo.edge_orientable == \
                    (not any(eo.omega(y) for y in lifts)), a.ts.sig
                seen.add(eo.edge_orientable)
    assert seen == {False, True}
