"""One Analysis per entry: records replayed against the benchmark's
reference outputs, with and without the __debug__ checks, and against
the 14-tet entry's, the extra census's and the covers' references, the
benchmark's record checker on its own references, counts of the
expensive stages an entry runs, the shape of every matrix the Fitting
gcd sees, and a check that every function the benchmark traces is still
called."""

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

from test_census_io import MALFORMED
from test_taut import NOT_VEERING
from veerpoly import census_io, homology, invariants, taut
from veerpoly.census_io import parse_taut_sig
from veerpoly.cli import entry_record, main
from veerpoly.invariants import Analysis, verify_identities

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
REFERENCE = os.path.join(PERFBENCH, "reference")
FOURTEEN_RECORD = os.path.join(os.path.dirname(__file__), "data",
                               "fourteen_tet_verify.jsonl")
COVER_RECORD = os.path.join(os.path.dirname(__file__), "data",
                            "sigmaless_cover_verify.jsonl")
RANK_THREE_RECORDS = os.path.join(os.path.dirname(__file__), "data",
                                  "rank_three_covers_verify.jsonl")
RANK_FOUR_RECORD = os.path.join(os.path.dirname(__file__), "data",
                                "rank_four_cover_verify.jsonl")
RANK_FOUR_FILL = os.path.join(os.path.dirname(__file__), "data",
                              "rank_four_cover_fill.jsonl")
FOURTEEN_FILLS = os.path.join(os.path.dirname(__file__), "data",
                              "fourteen_tet_fill.jsonl")
EXTRA_CENSUS = os.path.join(os.path.dirname(__file__), "data",
                            "extra_census.txt")
EXTRA_RECORDS = os.path.join(os.path.dirname(__file__), "data",
                             "extra_census_verify.jsonl")
EXTRA_FILLS = os.path.join(os.path.dirname(__file__), "data",
                           "extra_census_fill.jsonl")
FILL_CASES = os.path.join(os.path.dirname(__file__), "data",
                          "fill_cases.jsonl")
M003 = "cPcbbbdxm_10"
TWO_TET_EO = "cPcbbbiht_12"
FOURTEEN = "oLLLLLPwQQcccefgijlmkklnnnlnewbnetafobnkj_12001112122200"


def reference_lines(name):
    with open(os.path.join(REFERENCE, name + ".jsonl")) as fh:
        return fh.read().splitlines()


@pytest.mark.parametrize("name, with_polynomials",
                         [("census_scan", False), ("census_verify", True)])
def test_batch_records_match_reference(name, with_polynomials):
    lines = reference_lines(name)
    assert lines
    for line in lines:
        sig = json.loads(line)["sig"]
        got = json.dumps(entry_record(sig, with_polynomials=with_polynomials),
                         sort_keys=True)
        assert got == line, sig


@pytest.mark.parametrize("name, flags", [("census_scan", []),
                                         ("census_verify", ["--verify"])])
def test_batch_writer_matches_reference(tmp_path, name, flags):
    # the bytes batch itself writes, not a re-encoding of its records
    census = tmp_path / "census.txt"
    census.write_text("".join(json.loads(line)["sig"] + "\n"
                              for line in reference_lines(name)))
    out = tmp_path / "out.jsonl"
    assert main(["batch", str(census), "--jobs", "1", "--out", str(out)]
                + flags) == 0
    with open(os.path.join(REFERENCE, name + ".jsonl"), "rb") as fh:
        assert out.read_bytes() == fh.read()


def replay_verify_record(tmp_path, path):
    """``batch --verify`` on the signatures of path's records writes the
    bytes of path."""
    with open(path) as fh:
        sigs = [json.loads(line)["sig"] for line in fh]
    census = tmp_path / "census.txt"
    census.write_text("".join(sig + "\n" for sig in sigs))
    out = tmp_path / "out.jsonl"
    assert main(["batch", str(census), "--verify", "--jobs", "1",
                 "--out", str(out)]) == 0
    with open(path, "rb") as fh:
        assert out.read_bytes() == fh.read()


def test_fourteen_tet_record_replays_byte_for_byte(tmp_path):
    # the sample's only b1 = 2 entry and its only delta_hat: the bytes
    # pin theta, delta and delta_hat in the H1 basis the Smith form's U
    # fixes, which the tests that match them up to GL(2, Z) would not
    replay_verify_record(tmp_path, FOURTEEN_RECORD)


def test_sigmaless_cover_record_replays_byte_for_byte(tmp_path):
    # the sigma-less Z/2 covers of the 14-tet entry and of the
    # non-layered extra entry gLLAQbecdfffhhnkqnc_120012.  The first has
    # b1 = 2, torsion [2, 8], and theta, delta and delta_hat of 35, 33
    # and 95 terms, so its minor gcds are the largest a record pins; the
    # second (12 tets, b1 = 1, torsion [2, 16]) pins a delta_hat of 6
    # terms from outside the layered family
    replay_verify_record(tmp_path, COVER_RECORD)


def test_rank_three_cover_records_replay_byte_for_byte(tmp_path):
    # the 14-tet entry's four Z/2 covers with b1 = 3, torsion [4] and
    # sigma: theta and delta of 108, 110, 82 and 182 terms, the only
    # records whose minor gcds recurse through three variables
    replay_verify_record(tmp_path, RANK_THREE_RECORDS)


def test_rank_four_cover_record_replays_byte_for_byte(tmp_path):
    # the 14-tet entry's edge-orientation double cover: b1 = 4, torsion
    # [2] and sigma, theta and delta of 72 terms each; the only record
    # whose minor gcds recurse through four variables, and one whose
    # cost hung on the H1 basis order until gcd reordered its variables
    replay_verify_record(tmp_path, RANK_FOUR_RECORD)


def test_rank_four_cover_fill_replays_byte_for_byte(capsys):
    # the same cover with cusp 0 filled at 1/0: case I(a) with s = 3,
    # i_theta of 42 terms and delta_N of 22
    assert replay_fills(RANK_FOUR_FILL, capsys) == 1


def test_fill_records_match_reference(capsys):
    lines = reference_lines("fill_bundles")
    assert lines
    for line in lines:
        rec = json.loads(line)
        slopes = ",".join("%s:%s" % kv for kv in sorted(rec["slopes"].items()))
        assert main(["fill", rec["sig"], "--slopes", slopes]) == 0
        assert capsys.readouterr().out == line + "\n", rec["sig"]


def replay_fills(path, capsys):
    """Replay a fill reference whose lines each hold the exit code,
    stdout and stderr of ``veerpoly fill`` on their slopes; returns the
    number of lines."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    for line in lines:
        rec = json.loads(line)
        code = main(["fill", rec["sig"], "--slopes", rec["slopes"]])
        out, err = capsys.readouterr()
        assert [code, out, err] == \
            [rec["code"], rec["stdout"], rec["stderr"]], rec["slopes"]
    return len(lines)


def test_fourteen_tet_fills_replay_byte_for_byte(capsys):
    # the sample's only entry with two cusps: each cusp alone at every
    # primitive slope with |x|, |y| <= 2, and both cusps on a grid of
    # slope pairs
    assert replay_fills(FOURTEEN_FILLS, capsys) == 96


def test_extra_census_records_replay_byte_for_byte(tmp_path):
    # inputs outside the sample's layered bundle family: a non-layered
    # entry without sigma (a second delta_hat record), a two-cusp b1 = 2
    # entry with sigma and a b1 = 1 entry with torsion [2]; written by
    # the code of their time, so they guard against change, they are
    # not an oracle
    out = tmp_path / "out.jsonl"
    assert main(["batch", EXTRA_CENSUS, "--verify", "--jobs", "1",
                 "--out", str(out)]) == 0
    with open(EXTRA_RECORDS, "rb") as fh:
        assert out.read_bytes() == fh.read()


def test_extra_census_fills_replay_byte_for_byte(capsys):
    # one slope set per extra entry: case I(b)-closed, no sigma_N (the
    # non-layered entry at its homological longitude) and II(b)
    assert replay_fills(EXTRA_FILLS, capsys) == 3


def test_fill_cases_replay_byte_for_byte(capsys):
    # the filling cases no other reference reaches: I(a) and II(a) with
    # nothing filled, on the two-cusp extra entry and on m003, I(b) with
    # boundary left at two slopes of the extra entry's cusp 0, and m003
    # filled at a slope that kills its free homology (exit 1)
    assert replay_fills(FILL_CASES, capsys) == 5


# Rejected lines, run through compute: each gives one JSON line of its
# exit code and stderr.
REJECTED = [line for line, _ in MALFORMED] + list(NOT_VEERING)


def compute_outcome(line):
    """[exit code, stderr] of ``veerpoly compute`` on line."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["compute", "--", line])
    return [code, err.getvalue()]


# Prints the records of the census_scan and census_verify references and
# of the 14-tet entry's, the extra census's, the sigma-less covers', the
# b1 = 3 covers' and the b1 = 4 cover's --verify references, as batch
# and batch --verify write them, then those of the fill_bundles, extra
# census fill, fill case and b1 = 4 cover fill references, as fill
# writes them, and then the outcome of compute on each rejected line,
# from an interpreter whose __debug__ is off.
OPTIMIZED_REPLAY = """
import contextlib, io, json, sys
from veerpoly.cli import entry_record, main
if __debug__:
    sys.exit("expected python -O")
(scan, verify, fourteen, extra, cover, rank_three, rank_four, fill,
 extra_fill, fill_cases, rank_four_fill, rejected) = sys.argv[1:]
for path, with_polynomials in ((scan, False), (verify, True),
                               (fourteen, True), (extra, True),
                               (cover, True), (rank_three, True),
                               (rank_four, True)):
    with open(path) as fh:
        for line in fh:
            rec = entry_record(json.loads(line)["sig"],
                               with_polynomials=with_polynomials)
            print(json.dumps(rec, sort_keys=True))
with open(fill) as fh:
    for line in fh:
        rec = json.loads(line)
        slopes = ",".join("%s:%s" % kv for kv in sorted(rec["slopes"].items()))
        main(["fill", rec["sig"], "--slopes", slopes])
for path in (extra_fill, fill_cases, rank_four_fill):
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            main(["fill", rec["sig"], "--slopes", rec["slopes"]])
for line in json.loads(rejected):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["compute", "--", line])
    print(json.dumps([code, err.getvalue()]))
"""


def test_records_are_the_same_under_python_O():
    # the __debug__ checks (SNF transforms, boundaries inside the kernel
    # of d1, checked edge by edge, tetrahedron relations, the cover's
    # included, the edge-orientation cocycle) must not change any output
    # they guard, nor how compute rejects bad input
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_REPLAY,
         os.path.join(REFERENCE, "census_scan.jsonl"),
         os.path.join(REFERENCE, "census_verify.jsonl"), FOURTEEN_RECORD,
         EXTRA_RECORDS, COVER_RECORD, RANK_THREE_RECORDS, RANK_FOUR_RECORD,
         os.path.join(REFERENCE, "fill_bundles.jsonl"),
         EXTRA_FILLS, FILL_CASES, RANK_FOUR_FILL, json.dumps(REJECTED)],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    with open(FOURTEEN_RECORD) as fh:
        fourteen = fh.read().splitlines()
    with open(EXTRA_RECORDS) as fh:
        extra = fh.read().splitlines()
    with open(COVER_RECORD) as fh:
        cover = fh.read().splitlines()
    with open(RANK_THREE_RECORDS) as fh:
        rank_three = fh.read().splitlines()
    with open(RANK_FOUR_RECORD) as fh:
        rank_four = fh.read().splitlines()
    fills = []
    for path in (EXTRA_FILLS, FILL_CASES, RANK_FOUR_FILL):
        with open(path) as fh:
            for line in fh:
                fills += json.loads(line)["stdout"].splitlines()
    want = reference_lines("census_scan") + \
        reference_lines("census_verify") + fourteen + extra + cover + \
        rank_three + rank_four + reference_lines("fill_bundles") + fills + \
        [json.dumps(compute_outcome(line)) for line in REJECTED]
    assert out.stdout.splitlines() == want


def count_calls(monkeypatch, target):
    """Wrap target at every veerpoly module that binds it; the returned
    list collects the first argument of each call."""
    seen = []

    def wrapper(*args, **kwargs):
        seen.append(args[0])
        return target(*args, **kwargs)

    for modname, mod in list(sys.modules.items()):
        if modname.startswith("veerpoly."):
            for var, value in list(vars(mod).items()):
                if value is target:
                    monkeypatch.setattr(mod, var, wrapper)
    return seen


@pytest.mark.parametrize("sig, covers", [(TWO_TET_EO, 0), (M003, 1),
                                         (FOURTEEN, 1)])
def test_entry_record_builds_each_stage_once(monkeypatch, sig, covers):
    # the vertex orders, and the tree and the cocycle, which the
    # benchmark traces, are built once with the one Analysis, delta_hat
    # (the 14-tet entry's) adding only the tree of the double cover; the
    # corner exponents only for the polynomials, and a record without
    # them never unions the edge slots of the double cover it counts the
    # cusps of
    n = parse_taut_sig(sig).table.n_tet
    for with_polynomials in (False, True):
        built = count_analyses(monkeypatch)
        cover_calls = count_calls(monkeypatch, taut.build_double_cover)
        trees = count_calls(monkeypatch, homology.dual_spanning_tree)
        cocycles = count_calls(monkeypatch, homology.face_cocycle)
        orders = count_calls(monkeypatch, taut.vertex_orders)
        exponents = count_calls(monkeypatch, invariants.corner_exponents)
        unions = []
        classes = census_io._classes

        def counting_classes(size, pairs, width):
            unions.append((size, width))
            return classes(size, pairs, width)

        monkeypatch.setattr(census_io, "_classes", counting_classes)
        rec = entry_record(sig, with_polynomials=with_polynomials)
        monkeypatch.undo()
        assert built == [sig]
        assert len(cover_calls) == covers
        assert len(orders) == len(cocycles) == 1
        cover_tree = with_polynomials and rec["delta_hat"] is not None
        assert trees == [n] + [2 * n] * cover_tree
        if with_polynomials:
            assert rec["verify"]["passed"]
            assert len(exponents) == 1
        else:
            assert exponents == []
            assert [size for size, width in unions if width == 6] == [6 * n]
            assert len(unions) == 2 + covers


def count_analyses(monkeypatch):
    """The signatures of every Analysis built from now on."""
    built = []
    init = Analysis.__init__

    def counting_init(self, ts, *args, **kwargs):
        built.append(ts.sig)
        init(self, ts, *args, **kwargs)

    monkeypatch.setattr(Analysis, "__init__", counting_init)
    return built


@pytest.mark.parametrize("name, flags", [("census_scan", []),
                                         ("census_verify", ["--verify"])])
def test_batch_takes_one_smith_form_per_analysis(monkeypatch, tmp_path,
                                                 name, flags):
    # H1Data replays the pivots of d1 instead of taking its Smith form:
    # the one SNF per entry is the T + 1 kernel coordinates x T edges
    # relation matrix of the quotient
    sigs = [json.loads(line)["sig"] for line in reference_lines(name)]
    census = tmp_path / "census.txt"
    census.write_text("".join(sig + "\n" for sig in sigs))
    built = count_analyses(monkeypatch)
    taken = count_calls(monkeypatch, homology.smith_normal_form)
    assert main(["batch", str(census), "--jobs", "1",
                 "--out", str(tmp_path / "out.jsonl")] + flags) == 0
    assert built == sigs
    assert len(taken) == len(built)
    assert all(len(A) == len(A[0]) + 1 for A in taken)


def test_fill_takes_one_smith_form_per_quotient(monkeypatch, capsys):
    # per fill: the manifold's and each cusp link's H1 quotient, the
    # filled quotient, and the surjectivity check of i_star when b1 > 0
    for line in reference_lines("fill_bundles"):
        rec = json.loads(line)
        cusps = len(parse_taut_sig(rec["sig"]).table.vertices)
        slopes = ",".join("%s:%s" % kv
                          for kv in sorted(rec["slopes"].items()))
        taken = count_calls(monkeypatch, homology.smith_normal_form)
        assert main(["fill", rec["sig"], "--slopes", slopes]) == 0
        monkeypatch.undo()
        assert len(taken) == 2 + cusps + (1 if rec["s"] else 0), rec["sig"]
    capsys.readouterr()


@pytest.mark.parametrize("sig", [M003, FOURTEEN])
def test_fitting_gcd_runs_on_tree_reduced_matrices(monkeypatch, sig):
    # theta, delta and, for the entry without sigma, delta_hat each take
    # one Fitting gcd, on T x (T + 1) matrices: the T - 1 tree columns
    # of the base (or, for delta_hat, the 2T - 1 of the double cover's
    # tree from its 4T faces) are dropped
    taken = count_calls(monkeypatch, invariants.fitting_gcd)
    analysis = Analysis(parse_taut_sig(sig))
    verify_identities(analysis)
    n = analysis.ts.table.n_tet
    want = [(n, n + 1)] * 2
    if analysis.delta_hat is not None:
        want.append((2 * n, 2 * n + 1))
    assert sorted((m.rows, m.cols) for m in taken) == want


def test_every_traced_function_is_called(monkeypatch, tmp_path, capsys):
    # the benchmark traces these functions by name and fails a workload
    # that does not call one it must: a refactor that renames one or
    # stops calling it must fail here, not in the benchmark.  Each
    # workload's command runs under its own tracer
    monkeypatch.syspath_prepend(PERFBENCH)
    import spans
    from veerpoly import cli
    census = tmp_path / "census.txt"
    census.write_text("\n".join([M003, TWO_TET_EO, "cPcbbbphe_12",
                                 "dLQbcccxxfo_100"]) + "\n")
    rec = json.loads(reference_lines("fill_bundles")[0])
    slopes = ",".join("%s:%s" % kv for kv in sorted(rec["slopes"].items()))
    runs = {"census_scan": ["batch", str(census), "--jobs", "1"],
            "census_verify": ["batch", str(census), "--verify", "--jobs", "1"],
            "fill_bundles": ["fill", rec["sig"], "--slopes", slopes]}
    assert set(runs) == spans.ALL
    for workload, argv in runs.items():
        tracer = spans.Tracer()
        tracer.install()
        try:
            assert cli.main(argv) == 0
        finally:
            tracer.uninstall()
        called = {span[1] for span in tracer.spans}
        want = {name for name, (workloads, _) in spans.TRACED.items()
                if workload in workloads}
        assert sorted(want - called) == [], workload
    capsys.readouterr()


@pytest.mark.parametrize("name", ["census_scan", "census_verify",
                                  "fill_bundles"])
def test_benchmark_checker_accepts_its_references(monkeypatch, tmp_path,
                                                  name):
    # the benchmark checks each record it gets with check_record, which
    # reads the package's API (poly_from_json, LaurentPoly's tuple-keyed
    # terms, normalize_unit): every reference record of the workload at
    # its reference seed must pass it, so a change of that API fails
    # here, not in a benchmark run
    monkeypatch.syspath_prepend(PERFBENCH)
    import workloads
    reference = {json.loads(line)["sig"]: line
                 for line in reference_lines(name)}
    entries = workloads.build(name, 0, os.path.join(PERFBENCH, os.pardir),
                              str(tmp_path)).entries
    assert sorted(e.sig for e in entries) == sorted(reference)
    for entry in entries:
        assert workloads.check_record(name, entry, reference[entry.sig],
                                      reference) is None, entry.sig
