"""End-to-end CLI behaviour: argument handling, record shapes, exit
codes, and batch determinism across worker counts."""

import json
import os
import subprocess
import sys

import pytest

from bundles import bundle_sig
from veerpoly import cli, invariants
from veerpoly.cli import main

M003 = "cPcbbbdxm_10"
TWO_TET_EO = "cPcbbbiht_12"
FOURTEEN = "oLLLLLPwQQcccefgijlmkklnnnlnewbnetafobnkj_12001112122200"


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def parse_summary(text):
    """The batch summary line is 'batch: {json} in 1.2s'."""
    payload = text[text.index("{"):text.rindex("}") + 1]
    return json.loads(payload)


# ------------------------------------------------------------ compute

def test_compute_full_record(capsys):
    rc, out, _ = run_cli(capsys, "compute", M003)
    assert rc == 0
    rec = json.loads(out)
    assert rec["sig"] == M003
    assert rec["b1"] == 1 and rec["torsion"] == [5] and rec["cusps"] == 1
    assert rec["edge_orientable"] is False
    assert rec["cover_cusps"] == 1
    assert rec["sigma"] == [-1]
    assert rec["theta"] is not None and rec["delta"] is not None
    # sigma exists, so the cover polynomial is skipped by design
    assert rec["delta_hat"] is None
    assert rec["verify"]["identity"] == "sign_twist"
    assert rec["verify"]["passed"] is True
    assert rec["runtime_ms"] > 0


def test_compute_default_equals_all(capsys):
    _, out_default, _ = run_cli(capsys, "compute", M003)
    _, out_all, _ = run_cli(capsys, "compute", M003, "--all")
    a, b = json.loads(out_default), json.loads(out_all)
    a.pop("runtime_ms"), b.pop("runtime_ms")
    assert a == b


def test_compute_flag_filtering(capsys):
    rc, out, _ = run_cli(capsys, "compute", M003, "--edge-orientability")
    rec = json.loads(out)
    assert rc == 0
    assert "theta" not in rec and "delta" not in rec
    assert rec["edge_orientable"] is False and rec["cover_cusps"] == 1

    rc, out, _ = run_cli(capsys, "compute", M003, "--taut")
    rec = json.loads(out)
    assert rc == 0
    assert "theta" in rec and "delta" not in rec
    assert rec["verify"]["passed"] is True

    # the Alexander and double-cover filters, on an entry whose
    # delta_hat is not null
    sig = "gLLAQbecdfffhhnkqnc_120012"
    alex = {"b1", "delta", "edge_orientable", "runtime_ms", "sig", "sigma",
            "verify"}
    hat = alex - {"delta"} | {"delta_hat"}
    for flags, want in ((["--alex"], alex), (["--hat"], hat),
                        (["--taut", "--alex"], alex | {"theta"})):
        rc, out, _ = run_cli(capsys, "compute", sig, *flags)
        rec = json.loads(out)
        assert rc == 0
        assert set(rec) == want, flags
        assert rec["verify"]["passed"] is True
        assert rec.get("delta_hat", True) is not None


def test_compute_bad_signature_exits_one(capsys):
    rc, out, err = run_cli(capsys, "compute", "!!bad")
    assert rc == 1
    assert out == ""
    assert "error:" in err


@pytest.mark.parametrize("argv", [
    ["compute", "-abc_10"],
    ["compute", "--", "-abc_10"],
    ["compute", "-abc_10", "--taut"],
    ["fill", "-abc_10", "--slopes", "c0:1/0"],
])
def test_signature_beginning_with_a_dash_reports_its_own_error(capsys,
                                                               argv):
    # "-" is the isoSig digit of 63 or more tetrahedra: the word is the
    # signature, not an unknown option, with or without "--"
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: signatures for 63 or more tetrahedra are not " \
                  "supported\n"


# --------------------------------------------------------------- fill

def test_fill_fibre_slope(capsys):
    rc, out, _ = run_cli(capsys, "fill", M003, "--slopes", "c0:1/2")
    assert rc == 0
    rec = json.loads(out)
    assert rec["slopes"] == {"c0": "1/2"}
    assert rec["s"] == 1
    assert rec["boundary_empty"] is True
    assert rec["sigma_N"] == [-1]
    assert rec["case"] == "II(b)"
    assert rec["division_ok"] is True
    assert rec["equality_expected"] is True
    assert rec["delta_N"] is not None
    assert rec["hypotheses"] == {"sigma_N_exists": True, "trivial_cores": []}
    assert rec["cores"]["c0"]["nontrivial"] is True


def test_fill_empty_slopes_reports_unfilled_identity(capsys):
    rc, out, _ = run_cli(capsys, "fill", M003, "--slopes", "")
    assert rc == 0
    rec = json.loads(out)
    assert rec["slopes"] == {}
    assert rec["case"] == "II(a)"
    assert rec["division_ok"] is True and rec["equality_expected"] is True
    # nothing filled: the specialised polynomials are the originals
    assert rec["i_theta"] is not None and rec["i_delta"] is not None


def test_fill_without_sign_vector_reports_hypothesis(capsys):
    rc, out, _ = run_cli(capsys, "fill", FOURTEEN, "--slopes", "c0:1/1")
    assert rc == 0
    rec = json.loads(out)
    assert rec["hypotheses"]["sigma_N_exists"] is False
    assert rec["sigma_N"] is None
    assert rec["case"] is None and rec["delta_N"] is None
    assert rec["i_theta"] is not None


def test_fill_rank_zero_exits_one(capsys):
    rc, _, err = run_cli(capsys, "fill", M003, "--slopes", "c0:1/0")
    assert rc == 1
    assert "kills all free homology" in err


def test_fill_bad_slope_exits_one(capsys):
    rc, _, err = run_cli(capsys, "fill", M003, "--slopes", "c0:2/4")
    assert rc == 1
    assert "not primitive" in err


@pytest.mark.parametrize("slopes, message", [
    ("c0:2/4", "not primitive"), ("c0-1/2", "malformed slope"),
    ("c0:1/2,c0:1/3", "filled twice"),
    # int() takes each of these; a slope is ASCII digits only
    ("c0:1_0/3", "malformed slope"), ("c-0:1/2", "malformed slope"),
    ("c+0:1/2", "malformed slope"), ("c0:\u0661/2", "malformed slope"),
    ("c0: 1 / 2", "malformed slope")])
def test_fill_rejects_slopes_before_any_analysis(monkeypatch, capsys,
                                                 slopes, message):
    def no_analysis(*args, **kwargs):
        raise AssertionError("Analysis built before --slopes was parsed")

    # cmd_fill imports Analysis when it runs, so it reads this binding
    monkeypatch.setattr(invariants, "Analysis", no_analysis)
    rc, _, err = run_cli(capsys, "fill", M003, "--slopes", slopes)
    assert rc == 1
    assert message in err


# -------------------------------------------------------------- batch

def write_census(path, sigs):
    path.write_text("# test census\n" + "".join(s + "\n" for s in sigs))


def test_batch_stdout_and_summary(capsys, tmp_path):
    census = tmp_path / "census.txt"
    write_census(census, [M003, TWO_TET_EO, "!!bad"])
    rc, out, err = run_cli(capsys, "batch", str(census))
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 3
    recs = [json.loads(ln) for ln in lines]
    # input order is preserved
    assert [r["sig"] for r in recs] == [M003, TWO_TET_EO, "!!bad"]
    assert "error" in recs[2]
    # default batch skips the polynomials
    assert recs[0]["theta"] is None and recs[0]["verify"] is None
    summary = parse_summary(err)
    assert summary["total"] == 3 and summary["errors"] == 1
    assert summary["edge_orientable"] == 1
    assert summary["not_edge_orientable"] == 1
    assert summary["cover_same_cusps"] == 1
    assert summary["cover_double_cusps"] == 0


def test_batch_skips_indented_comments_and_blank_lines(capsys, tmp_path):
    census = tmp_path / "census.txt"
    census.write_text("  # indented comment\n\n%s\n   \n\t# tab comment\n"
                      "%s\n" % (M003, TWO_TET_EO))
    rc, out, err = run_cli(capsys, "batch", str(census))
    assert rc == 0
    recs = [json.loads(ln) for ln in out.splitlines()]
    assert [r["sig"] for r in recs] == [M003, TWO_TET_EO]
    summary = parse_summary(err)
    assert summary["total"] == 2 and summary["errors"] == 0


def test_batch_verify_summary(capsys, tmp_path):
    census = tmp_path / "census.txt"
    write_census(census, [M003, TWO_TET_EO])
    rc, out, err = run_cli(capsys, "batch", str(census), "--verify")
    assert rc == 0
    recs = [json.loads(ln) for ln in out.splitlines()]
    assert all(r["verify"]["passed"] for r in recs)
    summary = parse_summary(err)
    assert summary["verify_passed"] == 2 and summary["verify_failed"] == 0


def test_batch_output_identical_across_worker_counts(capsys, tmp_path,
                                                     monkeypatch):
    census = tmp_path / "census.txt"
    write_census(census, [M003, TWO_TET_EO, bundle_sig("RLL", -1), "!!bad"])
    out1, out2, out3 = (tmp_path / n for n in ("a.jsonl", "b.jsonl",
                                               "c.jsonl"))
    rc, stdout, _ = run_cli(capsys, "batch", str(census), "--verify",
                            "--jobs", "1", "--out", str(out1))
    assert rc == 0
    # with --out the summary goes to stdout instead
    assert "batch:" in stdout
    rc, _, _ = run_cli(capsys, "batch", str(census), "--verify",
                       "--jobs", "2", "--out", str(out2))
    assert rc == 0
    assert out1.read_bytes() == out2.read_bytes()
    # worker count can also come from the environment
    monkeypatch.setenv("VEERPOLY_JOBS", "2")
    rc, _, _ = run_cli(capsys, "batch", str(census), "--verify",
                       "--out", str(out3))
    assert rc == 0
    assert out1.read_bytes() == out3.read_bytes()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_batch_keeps_other_records_after_internal_error(capsys, tmp_path,
                                                        monkeypatch, jobs):
    # a failed assertion, or any other exception out of the library (the
    # ValueError of a broken cycle check, a ZeroDivisionError in the
    # Laurent arithmetic), loses one record, not the batch
    sigs = [M003, bundle_sig("RLL", -1), TWO_TET_EO, bundle_sig("RRL", 1)]
    census = tmp_path / "census.txt"
    write_census(census, sigs)
    good = tmp_path / "good.jsonl"
    rc, _, _ = run_cli(capsys, "batch", str(census), "--out", str(good))
    assert rc == 0
    want = good.read_text().splitlines()
    real = cli.entry_record
    for exc, record in [
            (AssertionError("injected"), "injected"),
            (ValueError("vector is not a cycle"),
             "ValueError: vector is not a cycle"),
            (ZeroDivisionError("integer division or modulo by zero"),
             "ZeroDivisionError: integer division or modulo by zero")]:

        def failing(sig, with_polynomials=True):
            if sig == TWO_TET_EO:
                raise exc
            return real(sig, with_polynomials=with_polynomials)

        monkeypatch.setattr(cli, "entry_record", failing)
        rc, out, err = run_cli(capsys, "batch", str(census), "--jobs", jobs)
        assert rc == 2
        lines = out.splitlines()
        assert [json.loads(ln)["sig"] for ln in lines] == sigs
        assert json.loads(lines[2]) == {"sig": TWO_TET_EO,
                                        "internal_error": record}
        # every other record is written, byte for byte as without the fault
        assert lines[:2] + lines[3:] == want[:2] + want[3:]
        summary = parse_summary(err)
        assert summary["total"] == 4 and summary["internal_errors"] == 1
        assert summary["errors"] == 0


@pytest.mark.parametrize("argv, env", [
    (["--jobs", "-1"], None),
    ([], "x"),
    ([], "-2"),
    ([], "0"),
    ([], "0_1"),
    ([], " 1 "),
    ([], "+1"),
    ([], "\u0661"),
])
def test_batch_bad_worker_count_exits_one(capsys, tmp_path, monkeypatch,
                                          argv, env):
    census = tmp_path / "census.txt"
    write_census(census, [M003])
    if env is None:
        monkeypatch.delenv("VEERPOLY_JOBS", raising=False)
    else:
        monkeypatch.setenv("VEERPOLY_JOBS", env)
    rc, out, err = run_cli(capsys, "batch", str(census), *argv)
    assert rc == 1
    assert out == ""
    assert err.startswith("error: ")


def test_batch_record_names_the_parsed_signature(capsys, tmp_path):
    # extra fields on a line are ignored by the parser and left out of
    # the record; an error record keeps the line as it was
    census = tmp_path / "census.txt"
    census.write_text("%s extra\n!!bad extra\n" % M003)
    rc, out, _ = run_cli(capsys, "batch", str(census))
    assert rc == 0
    recs = [json.loads(ln) for ln in out.splitlines()]
    assert [r["sig"] for r in recs] == [M003, "!!bad extra"]
    assert "error" in recs[1]


def test_batch_reads_bytes_that_are_not_utf8_as_compute_does(capsys,
                                                              tmp_path):
    # the bad line gets the error record compute prints for the same
    # bytes in argv, and the lines around it are still read
    census = tmp_path / "census.txt"
    census.write_bytes(b"%s\n\xff\xfe_10\n%s\n" % (M003.encode(),
                                                   TWO_TET_EO.encode()))
    rc, out, _ = run_cli(capsys, "batch", str(census))
    assert rc == 0
    recs = [json.loads(ln) for ln in out.splitlines()]
    assert [r["sig"] for r in recs] == [M003, "\udcff\udcfe_10", TWO_TET_EO]
    assert recs[1]["error"] == "invalid signature character '\\udcff'"
    assert run_cli(capsys, "compute", "\udcff\udcfe_10")[2] == \
        "error: %s\n" % recs[1]["error"]


def test_fill_record_names_the_parsed_signature(capsys):
    # as in compute and batch, the extra fields of the argument are
    # left out of the record
    rc, out, _ = run_cli(capsys, "fill", M003 + " extra", "--slopes",
                         "c0:1/2")
    assert rc == 0
    assert json.loads(out)["sig"] == M003


class RecordingPool:
    """Stands in for multiprocessing.Pool: records the worker count it
    is asked for and runs the work in this process."""

    sizes = []

    def __init__(self, processes):
        self.sizes.append(processes)

    def imap(self, func, iterable, chunksize=1):
        return map(func, iterable)

    def terminate(self):
        pass


@pytest.mark.parametrize("n_entries, pool_sizes", [(1, []), (3, [3])])
def test_batch_starts_no_more_workers_than_entries(capsys, tmp_path,
                                                   monkeypatch, n_entries,
                                                   pool_sizes):
    import multiprocessing
    census = tmp_path / "census.txt"
    write_census(census, [M003, TWO_TET_EO, "!!bad"][:n_entries])
    rc, want, _ = run_cli(capsys, "batch", str(census), "--jobs", "1")
    assert rc == 0
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    rc, out, _ = run_cli(capsys, "batch", str(census), "--jobs", "64")
    assert rc == 0 and out == want
    monkeypatch.setenv("VEERPOLY_JOBS", "64")
    rc, out, _ = run_cli(capsys, "batch", str(census))
    assert rc == 0 and out == want
    assert RecordingPool.sizes == pool_sizes * 2


def test_batch_missing_file_exits_one(capsys, tmp_path):
    rc, _, err = run_cli(capsys, "batch", str(tmp_path / "absent.txt"))
    assert rc == 1
    assert "error:" in err


@pytest.mark.parametrize("argv", [
    ["compute", "--taut"],
    ["compute"],
    ["batch", "census.txt", "--jobs", "abc"],
])
def test_usage_errors_exit_one(capsys, argv):
    # a usage error is an input error, like a bad signature: exit 1,
    # not argparse's 2, which the CLI keeps for internal errors
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: veerpoly %s" % argv[0])
    assert "error: " in err


@pytest.mark.parametrize("argv", [["--help"], ["batch", "--help"]])
def test_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: veerpoly")


# ------------------------------------------------------------ loading

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
LOADED = """
import json, sys
from veerpoly import cli
try:
    cli.main(sys.argv[1:])
except SystemExit:
    pass
print(json.dumps(sorted(m for m in sys.modules if m.startswith("veerpoly"))))
"""
EVERY_MODULE = ["veerpoly", "veerpoly.census_io", "veerpoly.cli",
                "veerpoly.filling", "veerpoly.homology",
                "veerpoly.invariants", "veerpoly.laurent", "veerpoly.taut"]


def loaded_modules(*argv):
    """The veerpoly modules loaded after cli.main(argv) in a fresh
    interpreter, where pytest's own imports do not count."""
    out = subprocess.run(
        [sys.executable, "-c", LOADED] + list(argv),
        env=dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True, text=True, timeout=120, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def test_help_and_usage_errors_load_no_other_module():
    assert loaded_modules("--help") == ["veerpoly", "veerpoly.cli"]
    assert loaded_modules("compute") == ["veerpoly", "veerpoly.cli"]


@pytest.mark.parametrize("verify", [[], ["--verify"]])
def test_batch_does_not_load_filling(tmp_path, verify):
    census = tmp_path / "census.txt"
    write_census(census, [M003, TWO_TET_EO])
    loaded = loaded_modules("batch", str(census), *verify)
    assert "veerpoly.invariants" in loaded
    assert "veerpoly.filling" not in loaded


def test_fill_loads_every_module():
    assert loaded_modules("fill", M003, "--slopes", "c0:1/2") == EVERY_MODULE
