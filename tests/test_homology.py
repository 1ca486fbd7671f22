import json
import os
import random

import pytest

from veerpoly import filling, homology
from veerpoly.cli import main
from veerpoly.census_io import parse_taut_sig
from veerpoly.filling import vertex_links
from veerpoly.homology import (AbelianQuotient, H1Data, SNFResult,
                               dual_spanning_tree, face_cocycle, int_identity,
                               int_matmul, int_matvec, smith_normal_form)
from veerpoly.invariants import Analysis
from veerpoly.taut import build_double_cover
from bundles import bundle_sig
from oracles import (DenseH1Data, abelian_group_from_relations,
                     bfs_tree_faces, dense_boundaries, dense_chain_complex,
                     dense_face_cocycle, dense_int_matvec,
                     dense_kernel_to_cycle, full_scan_snf, naive_int_matmul,
                     rational_rank, variant_analysis)

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
DATA = os.path.join(DATA_DIR, "sample_census.txt")
FOURTEEN = "oLLLLLPwQQcccefgijlmkklnnnlnewbnetafobnkj_12001112122200"


def random_matrix(rng, m, n, lo=-9, hi=9, density=0.8):
    return [[rng.randint(lo, hi) if rng.random() < density else 0
             for _ in range(n)] for _ in range(m)]


# -- Smith normal form -------------------------------------------------------

def same_as_full_scan(res, A, ncols=None):
    return (res.diag, res.U, res.Uinv, res.V) == \
        full_scan_snf(A, ncols=ncols)[:4]


def test_snf_textbook():
    res = smith_normal_form([[2, 0], [0, 3]])
    assert res.diag == [1, 6]
    assert res.rank == 2
    # coprime diagonals take the divisibility-chain repair
    for a, b in ((2, 3), (4, 6), (-9, 6), (6, 4)):
        for A in ([[a, 0], [0, b]], [[a, 0, 0], [0, b, 0]]):
            assert same_as_full_scan(smith_normal_form(A), A)


def test_snf_zero_matrix():
    res = smith_normal_form([[0, 0], [0, 0], [0, 0]])
    assert res.diag == [0, 0]
    assert res.rank == 0


def test_snf_empty_shapes():
    res = smith_normal_form([], ncols=3)
    assert res.diag == [] and res.rank == 0
    assert res.V == int_identity(3)
    res = smith_normal_form([[], []], ncols=0)
    assert res.diag == [] and res.rank == 0


def test_snf_random_properties():
    rng = random.Random(101)
    for _ in range(100):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        A = random_matrix(rng, m, n)
        res = smith_normal_form(A)
        # same pivots, hence the same transforms, as the full-scan reference
        assert same_as_full_scan(res, A)
        # U*A*V is the diagonal matrix described by diag
        D = int_matmul(int_matmul(res.U, A), res.V)
        for i in range(m):
            for j in range(n):
                want = res.diag[i] if i == j and i < len(res.diag) else 0
                assert D[i][j] == want
        # transforms are integer inverses, hence unimodular: U of Uinv,
        # V of the reference's Vinv
        assert int_matmul(res.U, res.Uinv) == int_identity(m)
        assert int_matmul(full_scan_snf(A)[4], res.V) == int_identity(n)
        # rank agrees with an independent rational-elimination oracle
        assert res.rank == rational_rank(A)
        # diagonal is a non-negative divisibility chain
        assert all(d >= 0 for d in res.diag)
        for i in range(res.rank - 1):
            assert res.diag[i + 1] % res.diag[i] == 0


def snf_parts(res):
    """Copies of (U, Uinv, V) of an SNFResult, to corrupt."""
    return [[list(row) for row in M] for M in (res.U, res.Uinv, res.V)]


def diagonal_matrix(res, A):
    return [[res.diag[i] if i == j else 0 for j in range(len(row))]
            for i, row in enumerate(A)]


def test_snf_check_accepts_every_result():
    rng = random.Random(251)
    cases = [([], 3), ([[], []], 0), ([[0, 0], [0, 0], [0, 0]], None)]
    cases += [(random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6)),
               None) for _ in range(60)]
    for A, ncols in cases:
        res = smith_normal_form(A, ncols=ncols)
        homology._check_snf(A, diagonal_matrix(res, A), res)


def test_snf_check_rejects_corrupted_results():
    # a changed entry of U or Uinv must fail the check, and so must a
    # nonzero off-diagonal entry of D.  U and Uinv changed together so
    # that both stay inverse, a changed entry of V and a column operation
    # on V must each fail exactly when they change U * A * V; the changes
    # of V must include both cases.
    rng = random.Random(257)
    seen = set()
    v_kept = v_changed = 0
    for _ in range(40):
        m, n = rng.randint(2, 5), rng.randint(2, 5)
        A = random_matrix(rng, m, n)
        res = smith_normal_form(A)
        D = diagonal_matrix(res, A)

        def check(U, Uinv, V):
            homology._check_snf(A, D, SNFResult(res.diag, res.rank, U, Uinv,
                                                V))

        def fails_iff_changed(U, Uinv, V):
            if int_matmul(int_matmul(U, A), V) == D:
                check(U, Uinv, V)
                return False
            with pytest.raises(AssertionError) as err:
                check(U, Uinv, V)
            seen.add(str(err.value))
            return True

        for which in range(2):
            parts = snf_parts(res)
            M = parts[which]
            M[rng.randrange(m)][rng.randrange(m)] += rng.choice((1, -1, 2))
            with pytest.raises(AssertionError, match=r"U \* Uinv != I"):
                check(*parts)
        # row_i += c * row_j on U is undone by col_j -= c * col_i on Uinv
        U, Uinv, V = snf_parts(res)
        i, j = rng.sample(range(m), 2)
        c = rng.choice((1, -1, 3))
        U[i] = [a + c * b for a, b in zip(U[i], U[j])]
        for row in Uinv:
            row[j] -= c * row[i]
        assert int_matmul(U, Uinv) == int_identity(m)
        fails_iff_changed(U, Uinv, V)
        for entry in (True, False):
            U, Uinv, V = snf_parts(res)
            if entry:
                V[rng.randrange(n)][rng.randrange(n)] += rng.choice((1, -1, 2))
            else:
                i, j = rng.sample(range(n), 2)
                c = rng.choice((1, -1, 3))
                for row in V:
                    row[j] += c * row[i]
            if fails_iff_changed(U, Uinv, V):
                v_changed += 1
            else:
                v_kept += 1
        i, j = rng.sample(range(min(m, n)), 2)
        bad = [list(row) for row in D]
        bad[i][j] = rng.choice((1, -2))
        with pytest.raises(AssertionError, match="not diagonal"):
            homology._check_snf(A, bad, res)
    assert seen == {"U * A * V != D",
                    "SNF row of U * A is not a multiple of its diagonal entry"}
    assert v_kept and v_changed


def test_snf_check_rejects_rows_outside_the_diagonal_lattice():
    # U * A * V = D holds, but row 1 of U * A = I is not zero: e_2 is a
    # relation of A and not of D, so U does not carry Z^2 / (column span
    # of A), which is trivial, onto Z^2 / L = Z
    A = int_identity(2)
    res = SNFResult([1, 0], 1, int_identity(2), int_identity(2),
                    [[1, 0], [0, 0]])
    assert int_matmul(int_matmul(res.U, A), res.V) == [[1, 0], [0, 0]]
    with pytest.raises(AssertionError, match="not a multiple"):
        homology._check_snf(A, [[1, 0], [0, 0]], res)


def test_int_matmul_matches_naive_product():
    rng = random.Random(211)
    shapes = [(0, 3, 4), (3, 0, 4), (3, 4, 0), (1, 1, 1)]
    shapes += [(rng.randint(1, 12), rng.randint(1, 12), rng.randint(1, 12))
               for _ in range(60)]
    for m, inner, n in shapes:
        density = rng.choice((0.02, 0.1, 0.3, 0.8))
        big = 2 ** rng.choice((3, 70))
        A = random_matrix(rng, m, inner, -big, big, density)
        B = random_matrix(rng, inner, n, -big, big, density)
        assert int_matmul(A, B) == naive_int_matmul(A, B)


def test_sparse_sums_match_dense_sums():
    # int_matvec and kernel_to_cycle sum over the vector's nonzero
    # entries only; the integers must be those of the dense sums
    rng = random.Random(241)
    assert int_matvec([], []) == dense_int_matvec([], []) == []
    assert int_matvec([[], []], []) == dense_int_matvec([[], []], []) \
        == [0, 0]
    for _ in range(80):
        m, n = rng.randint(0, 10), rng.randint(0, 10)
        big = 2 ** rng.choice((3, 70))
        A = random_matrix(rng, m, n, -big, big, rng.choice((0.1, 0.8)))
        v = random_matrix(rng, 1, n, -big, big,
                          rng.choice((0.0, 0.05, 0.2, 0.9)))[0]
        assert int_matvec(A, v) == dense_int_matvec(A, v)
    for sig in ("cPcbbbdxm_10", bundle_sig("RRLRL", -1), FOURTEEN):
        a = Analysis(parse_taut_sig(sig))
        dense = dense_analysis_h1(a)
        for _ in range(20):
            y = random_matrix(rng, 1, a.h1.q, -5, 5,
                              rng.choice((0.0, 0.1, 0.5)))[0]
            assert a.h1.kernel_to_cycle(y) == dense_kernel_to_cycle(dense, y)
    # a complex whose kernel is trivial: q = 0 and the empty vector
    h1 = H1Data(2, [(0, 1)], [])
    assert h1.q == 0
    dense = DenseH1Data(2, 1, 0, *dense_boundaries(2, [(0, 1)], []))
    assert h1.kernel_to_cycle([]) == dense_kernel_to_cycle(dense, []) == [0]


def test_snf_transforms_match_full_scan_on_sparse_incidence():
    # +-1 entries, at most three per column, like the chain-complex
    # boundaries the cusp links feed to SNF
    rng = random.Random(223)
    for m, n in ((5, 8), (20, 30), (60, 90), (128, 192)):
        cols = []
        for _ in range(n):
            col = [0] * m
            for i in rng.sample(range(m), rng.randint(0, 3)):
                col[i] = rng.choice((1, -1))
            cols.append(col)
        A = [[c[i] for c in cols] for i in range(m)]
        assert same_as_full_scan(smith_normal_form(A), A)


def test_snf_transforms_match_full_scan_on_bundle_links(monkeypatch):
    # every SNF of the manifold and cusp-link homology of a 20-tet bundle;
    # each link complex against the dense builder, whose 80 x 120 SNF of
    # the link d1 is checked against the full scan
    inputs = []
    links = []

    def recording_snf(A, ncols=None):
        inputs.append(([list(r) for r in A], ncols))
        return smith_normal_form(A, ncols=ncols)

    def recording_h1(n_cells, face_ends, boundaries):
        h1 = H1Data(n_cells, face_ends, boundaries)
        links.append((h1, n_cells, face_ends, boundaries))
        return h1

    monkeypatch.setattr(homology, "smith_normal_form", recording_snf)
    monkeypatch.setattr(filling, "H1Data", recording_h1)
    ts = parse_taut_sig(bundle_sig("RRLRLLRLRRLLRLRLLRRL", -1))
    a = Analysis(ts)
    vertex_links(ts, a.coor, a.cycles, a.h1)
    monkeypatch.undo()
    assert inputs and links
    assert_same_h1(a.h1, dense_analysis_h1(a))
    for A, ncols in inputs:
        assert same_as_full_scan(smith_normal_form(A, ncols=ncols), A, ncols)
    shapes = []
    for h1, n_cells, face_ends, boundaries in links:
        d1, d2 = dense_boundaries(n_cells, face_ends, boundaries)
        dense = DenseH1Data(n_cells, len(face_ends), len(boundaries), d1, d2)
        assert_same_h1(h1, dense)
        assert same_as_full_scan(
            smith_normal_form(d1, ncols=len(face_ends)), d1, len(face_ends))
        shapes.append((n_cells, len(face_ends)))
    assert (80, 120) in shapes


def test_snf_transforms_match_full_scan_on_batch_traffic(monkeypatch,
                                                       tmp_path):
    # every Smith form that batch --verify takes over the sample census:
    # one H1 quotient per entry, the 14-tet entry's delta_hat included,
    # which takes none
    results = []

    def recording_snf(A, ncols=None):
        A = [list(r) for r in A]
        results.append((A, ncols, smith_normal_form(A, ncols=ncols)))
        return results[-1][2]

    monkeypatch.setattr(homology, "smith_normal_form", recording_snf)
    assert main(["batch", DATA, "--verify", "--jobs", "1",
                 "--out", str(tmp_path / "out.jsonl")]) == 0
    monkeypatch.undo()
    assert len(results) == 243
    for A, ncols, res in results:
        assert same_as_full_scan(res, A, ncols)


def test_snf_transforms_match_full_scan_on_fill_traffic(monkeypatch, capsys):
    # every Smith form that fill takes over the pinned fill calls, the
    # 14-tet entry's 96 included: H1's, the cusp links', and the filled
    # quotient's and i_*'s, whose U fixes the i_star and core
    # coordinates of the records
    results = []
    i_stars = []

    def recording_snf(A, ncols=None):
        A = [list(r) for r in A]
        results.append((A, ncols, smith_normal_form(A, ncols=ncols)))
        return results[-1][2]

    def recording_i_star(A, ncols=None):
        i_stars.append(A)
        return recording_snf(A, ncols=ncols)

    calls = []
    for name in ("fill_cases.jsonl", "extra_census_fill.jsonl",
                 "fourteen_tet_fill.jsonl"):
        with open(os.path.join(DATA_DIR, name)) as fh:
            calls += [json.loads(line) for line in fh]
    monkeypatch.setattr(homology, "smith_normal_form", recording_snf)
    monkeypatch.setattr(filling, "smith_normal_form", recording_i_star)
    for rec in calls:
        assert main(["fill", rec["sig"], "--slopes", rec["slopes"]]) == \
            rec["code"]
    monkeypatch.undo()
    capsys.readouterr()
    assert i_stars and len(results) > len(i_stars)
    for A, ncols, res in results:
        assert same_as_full_scan(res, A, ncols)


# -- abelian quotients -------------------------------------------------------

def test_quotient_examples():
    q = AbelianQuotient(2, [[2, 0], [0, 3]])
    assert q.rank == 0 and q.torsion == [6]
    q = AbelianQuotient(3, [[1, 1, 1]])
    assert q.rank == 2 and q.torsion == []
    q = AbelianQuotient(2, [])
    assert q.rank == 2 and q.torsion == []


def test_quotient_matches_oracle():
    rng = random.Random(103)
    for _ in range(100):
        gens = rng.randint(1, 5)
        rels = [ [rng.randint(-6, 6) for _ in range(gens)]
                 for _ in range(rng.randint(0, 6)) ]
        quot = AbelianQuotient(gens, [list(r) for r in rels])
        rank, torsion = abelian_group_from_relations(gens, rels)
        assert quot.rank == rank
        assert sorted(quot.torsion) == torsion


def test_quotient_class_coords_kill_relations():
    rng = random.Random(107)
    for _ in range(50):
        gens = rng.randint(1, 5)
        cols = [[rng.randint(-5, 5) for _ in range(gens)]
                for _ in range(rng.randint(1, 5))]
        quot = AbelianQuotient(gens, cols)
        for col in cols:
            free, tors = quot.class_coords(col)
            assert all(x == 0 for x in free)
            assert all(x == 0 for x in tors)
        # generator lifts map back to unit coordinate vectors
        for pos in quot.free_positions + quot.torsion_positions:
            w = quot.full_coords(quot.generator_lift(pos))
            assert w[pos] == 1
            assert all(x == 0 for i, x in enumerate(w) if i != pos)


# -- H1 of small hand-made complexes ----------------------------------------

def test_h1_single_loop():
    # one tet, one face glued to itself front-to-back: dual circle
    h1 = H1Data(1, [(0, 0)], [])
    assert h1.rank == 1 and h1.torsion == []
    assert h1.quot.class_free(h1.cycle_kernel_coords([1])) in ((1,), (-1,))


def test_h1_two_parallel_faces_with_relation():
    # two tets joined by two parallel faces; one 2-cell wrapping the
    # resulting dual circle twice leaves Z/2
    face_ends = [(1, 0), (1, 0)]
    for mult, rank, torsion in ((1, 0, []), (2, 0, [2])):
        h1 = H1Data(2, face_ends, [[(0, mult), (1, -mult)]])
        assert h1.rank == rank and h1.torsion == torsion
    h1 = H1Data(2, face_ends, [[(0, 2), (1, -2)]])
    free, tors = h1.quot.class_coords(h1.cycle_kernel_coords([1, -1]))
    assert free == () and tors == (1,)
    free, tors = h1.quot.class_coords(h1.cycle_kernel_coords([2, -2]))
    assert tors == (0,)


def test_h1_not_a_cycle_rejected():
    h1 = H1Data(2, [(1, 0), (1, 0)], [[(0, 1), (1, -1)]])
    try:
        h1.cycle_kernel_coords([1, 0])
    except ValueError:
        pass
    else:
        assert False, "expected ValueError for a non-cycle"


def test_h1_boundary_not_a_cycle_rejected():
    # an edge whose crossings do not close up (its boundary leaves a
    # cell and never returns) fails the edge-by-edge d1 check
    for boundaries in ([[(0, 1)]], [[(0, 1), (1, 1)]],
                       [[(0, 1), (1, -1)], [(1, 2)]]):
        with pytest.raises(AssertionError, match="im d2 not inside ker d1"):
            H1Data(2, [(1, 0), (1, 0)], boundaries)


# -- spanning tree and face cocycle ------------------------------------------

def _random_connected_graph_complex(rng, n_tets, n_extra):
    """Random connected dual graph with no 2-cells (free H1)."""
    face_ends = []
    for t in range(1, n_tets):
        other = rng.randrange(t)
        face_ends.append((t, other) if rng.random() < 0.5 else (other, t))
    for _ in range(n_extra):
        a = rng.randrange(n_tets)
        b = rng.randrange(n_tets)
        face_ends.append((a, b))
    rng.shuffle(face_ends)
    return face_ends, dense_boundaries(n_tets, face_ends, [])[0]


def test_face_cocycle_reproduces_cycle_classes():
    # connected graphs with free H1, whose BFS tree has n_tets - 1
    # faces, and random 2-complexes with relations, torsion and several
    # components: c is the dense route's cocycle on the pivot forest,
    # and sum_f c[f] * z[f] is the free class of every cycle z
    rng = random.Random(109)
    complexes = []
    for _ in range(40):
        n_tets = rng.randint(1, 6)
        face_ends, _ = _random_connected_graph_complex(rng, n_tets,
                                                       rng.randint(1, 4))
        assert len(dual_spanning_tree(n_tets, face_ends)) == n_tets - 1
        complexes.append((n_tets, face_ends, []))
    complexes += [random_graph_complex(rng) for _ in range(200)]
    torsion = 0
    for n_cells, face_ends, boundaries in complexes:
        n_faces = len(face_ends)
        h1 = H1Data(n_cells, face_ends, boundaries)
        dense = DenseH1Data(n_cells, n_faces, len(boundaries),
                            *dense_boundaries(n_cells, face_ends, boundaries))
        assert_same_h1(h1, dense)
        if not boundaries:
            assert h1.rank == n_faces - dense.rho
        torsion += h1.torsion != []
        c = face_cocycle(h1)
        assert c == dense_face_cocycle(h1, face_ends, *pivot_forest(h1))
        # sample random cycles as integer combinations of the dense
        # builder's kernel basis
        rho, V = dense.rho, dense.V
        for _ in range(5):
            coeffs = [rng.randint(-3, 3) for _ in range(h1.q)]
            z = [sum(V[f][rho + i] * coeffs[i] for i in range(h1.q))
                 for f in range(n_faces)]
            direct = h1.quot.class_free(h1.cycle_kernel_coords(z))
            summed = [0] * h1.rank
            for f in range(n_faces):
                for i in range(h1.rank):
                    summed[i] += c[f][i] * z[f]
            assert tuple(summed) == direct
    assert torsion > 10


def sample_sigs():
    with open(DATA) as fh:
        return [ln.strip() for ln in fh
                if ln.strip() and not ln.startswith("#")]


def assert_same_h1(h1, dense):
    """The maps H1Data shows agree with the dense builder's Smith form
    of d1: kernel_to_cycle(e_i) is V[:, rho + i], cycle_kernel_coords
    reads that column back as e_i, cochain_on_kernel is a cochain times
    V[:, rho:]; and the quotient transforms, rank and torsion agree."""
    rho, V = dense.rho, dense.V
    assert h1.q == dense.q
    columns = [[row[rho + i] for row in V] for i in range(dense.q)]
    for i, col in enumerate(columns):
        e = [int(k == i) for k in range(dense.q)]
        assert h1.kernel_to_cycle(e) == col
        assert h1.cycle_kernel_coords(col) == e
    cochain = [(7 * f) % 5 - 2 for f in range(dense.n_faces)]
    assert h1.cochain_on_kernel(cochain) == \
        [sum(b * x for b, x in zip(cochain, col)) for col in columns]
    assert h1.quot.snf.U == dense.quot.snf.U
    assert h1.quot.snf.Uinv == dense.quot.snf.Uinv
    assert (h1.rank, h1.torsion) == (dense.rank, dense.torsion)


def dense_analysis_h1(a):
    """The dense builder on an Analysis's own chain complex."""
    table = a.ts.table
    d1, d2 = dense_chain_complex(a.ts, a.coor, a.cycles)
    return DenseH1Data(table.n_tet, len(table.faces), len(table.edges),
                       d1, d2)


def test_h1_matches_dense_builder_on_sample_and_covers():
    # H1Data from face ends and crossings against the dense d1, d2 of the
    # earlier builder, on every sample entry and each non-edge-orientable
    # entry's cover
    covers = 0
    for sig in sample_sigs():
        analysis = Analysis(parse_taut_sig(sig))
        analyses = [analysis]
        if not analysis.eo.edge_orientable:
            analyses.append(Analysis(analysis.cover))
            covers += 1
        for a in analyses:
            assert_same_h1(a.h1, dense_analysis_h1(a))
    assert covers > 100


def test_dual_spanning_tree_is_bfs_from_tet_zero_in_face_order():
    # any spanning tree gives the same polynomials, but not in the same
    # time (``dual_spanning_tree``), so the tree dropped is pinned: on
    # every sample entry and each non-edge-orientable entry's cover
    covers = 0
    for sig in sample_sigs():
        analysis = Analysis(parse_taut_sig(sig))
        analyses = [analysis]
        if not analysis.eo.edge_orientable:
            analyses.append(Analysis(analysis.cover))
            covers += 1
        for a in analyses:
            assert a.tree == bfs_tree_faces(a.ts.table.n_tet,
                                            a.h1.face_ends)
    assert covers > 100


def random_graph_complex(rng):
    """(n_cells, face_ends, boundaries) of a random 2-complex: a graph
    with self-loops, parallel faces and possibly several components, or
    a single cell, and edges bounded by random integer combinations of
    the dense builder's kernel basis."""
    n_cells = rng.choice((1, rng.randint(2, 9)))
    face_ends = []
    for _ in range(rng.randint(0, 14)):
        below = rng.randrange(n_cells)
        kind = rng.random()
        if kind < 0.15:
            above = below
        elif kind < 0.3 and face_ends:
            below, above = rng.choice(face_ends)
        else:
            above = rng.randrange(n_cells)
        face_ends.append((below, above))
    dense = DenseH1Data(n_cells, len(face_ends), 0,
                        *dense_boundaries(n_cells, face_ends, []))
    rho, V = dense.rho, dense.V
    boundaries = []
    for _ in range(rng.randint(0, 4) if dense.q else 0):
        coeffs = [rng.choice((0, 0, 1, -1, 2, 3)) for _ in range(dense.q)]
        z = [sum(row[rho + i] * x for i, x in enumerate(coeffs))
             for row in V]
        boundaries.append([(f, x) for f, x in enumerate(z) if x])
    return n_cells, face_ends, boundaries


def test_h1_matches_dense_builder_on_random_graph_complexes():
    rng = random.Random(263)
    seen = set()
    for _ in range(600):
        n_cells, face_ends, boundaries = random_graph_complex(rng)
        d1, d2 = dense_boundaries(n_cells, face_ends, boundaries)
        dense = DenseH1Data(n_cells, len(face_ends), len(boundaries), d1, d2)
        assert_same_h1(H1Data(n_cells, face_ends, boundaries), dense)
        components = n_cells - dense.rho
        seen.add((n_cells == 1, components > 1,
                  any(b == a for b, a in face_ends),
                  len(set(face_ends)) < len(face_ends), dense.torsion != []))
    # one cell, several components, self-loops, parallel faces and
    # torsion each turn up, and not only together
    for k in range(5):
        assert {s[k] for s in seen} == {False, True}


def pivot_forest(h1):
    """(forest faces, parent map) of H1Data's pivot forest, in the form
    ``dense_face_cocycle`` takes: parent[cell] = (parent, face, sign),
    sign +1 when the step from the parent crosses the face from below
    to above, which is when the cell is the face's above end."""
    parent = [None] * h1.n_cells
    for f, cell, up, sign in h1.peel:
        parent[cell] = (up, f, -sign)
    return {f for f, *_ in h1.peel}, parent


def assert_cocycle_matches_dense(analysis):
    h1 = analysis.h1
    want = dense_face_cocycle(h1, h1.face_ends, *pivot_forest(h1))
    assert analysis.cocycle == want
    assert face_cocycle(h1) == want


def z2_characters(analysis):
    """0/1 face cochains of nonzero characters H1 -> Z/2: each free
    coordinate of the cocycle mod 2, and the edge-orientation
    character."""
    chars = [[c[i] % 2 for c in analysis.cocycle]
             for i in range(analysis.h1.rank)]
    if not analysis.eo.edge_orientable:
        chars.append(analysis.eo.beta)
    return chars


def test_face_cocycle_matches_dense_route_on_sample_and_covers():
    # the dense fundamental cycles of the pivot forest on every sample
    # entry, the b1 = 2 14-tet entry among them, with the coorientation
    # as derived and flipped (another d1, so other pivots), and on each
    # connected Z/2 cover of the entry
    sigs = sample_sigs()
    assert FOURTEEN in sigs
    covers = 0
    for sig in sigs:
        ts = parse_taut_sig(sig)
        analysis = Analysis(ts)
        assert_cocycle_matches_dense(analysis)
        flipped = variant_analysis(ts, flip=True)
        assert flipped.coor.top_slot == analysis.coor.bot_slot
        assert_cocycle_matches_dense(flipped)
        for beta in z2_characters(analysis):
            cover, connected = build_double_cover(ts, analysis.coor, beta)
            if connected:
                assert_cocycle_matches_dense(Analysis(cover))
                covers += 1
    assert covers > 300
