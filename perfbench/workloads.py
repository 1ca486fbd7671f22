"""Seeded inputs, CLI argument lists and output checks for each workload.

Inputs are drawn from a ``random.Random`` keyed by the workload name and
the seed, so the same seed gives the same inputs.  The size histogram of
every workload is fixed and the seed only picks the monodromy words: the
amount of work per run then barely depends on the seed, which keeps the
spread between seeds small.
"""

import json
import math
import os
import random

from bundles import (both_letter_words, bundle_filled_trace,
                     bundle_homology, bundle_sig)
from veerpoly.census_io import parse_taut_sig
from veerpoly.filling import vertex_links
from veerpoly.invariants import Analysis
from veerpoly.laurent import LaurentPoly, normalize_unit, poly_from_json

FOURTEEN = "oLLLLLPwQQcccefgijlmkklnnnlnewbnetafobnkj_12001112122200"

# Bundles per (tetrahedron count, sign) and the tetrahedron counts drawn.
SCAN_SIZES, SCAN_PER_SIZE = range(4, 17), 8
VERIFY_SIZES, VERIFY_PER_SIZE = range(8, 17), 2
FILL_SIZES = (20, 26, 32)

WORKLOADS = ("census_scan", "census_verify", "fill_bundles")


class Entry:
    """One input of a workload and what the checks need to know about it.

    word and eps are set for generated bundles (the oracles need them);
    slope is the filling slope of a fill call."""

    __slots__ = ("sig", "word", "eps", "slope", "edge_orientable",
                 "has_sigma")

    def __init__(self, sig, word=None, eps=None, fill=False):
        self.sig = sig
        self.word = word
        self.eps = eps
        ts = parse_taut_sig(sig)
        analysis = Analysis(ts)
        self.slope = _fibre_slope(ts, analysis) if fill else None
        self.edge_orientable = analysis.eo.edge_orientable
        self.has_sigma = analysis.eo.sigma_exists

    @property
    def tets(self):
        return len(self.sig.split("_")[1])


class Workload:
    """The inputs of one workload at one seed.

    calls holds one CLI argument list per child process, and
    entries_of_call the entries whose records that call writes, in
    output order."""

    def __init__(self, name, calls, entries_of_call):
        self.name = name
        self.calls = calls
        self.entries_of_call = entries_of_call

    @property
    def entries(self):
        return [e for group in self.entries_of_call for e in group]

    def properties(self):
        """Input properties a later claim may need to quote."""
        entries = self.entries
        hist = {}
        for e in entries:
            hist[e.tets] = hist.get(e.tets, 0) + 1
        n = len(entries)
        return {
            "entries": n,
            "tets_histogram": {str(k): hist[k] for k in sorted(hist)},
            "cover_branch_share":
                sum(not e.edge_orientable for e in entries) / n,
            "no_sigma_share": sum(not e.has_sigma for e in entries) / n,
        }


def sample_sigs(root):
    path = os.path.join(root, "tests", "data", "sample_census.txt")
    with open(path) as fh:
        return [ln.strip() for ln in fh
                if ln.strip() and not ln.startswith("#")]


def _draw_words(rng, n, count):
    """count distinct words of length n that use both letters."""
    words = set()
    while len(words) < count:
        w = "".join(rng.choice("RL") for _ in range(n))
        if set(w) == {"R", "L"}:
            words.add(w)
    return sorted(words)


def _bundles(rng, sizes, per_size):
    return [Entry(bundle_sig(w, eps), w, eps)
            for n in sizes for eps in (1, -1)
            for w in _draw_words(rng, n, per_size)]


def _sample_bundle_sigs():
    """Signatures of the sample's generated bundles (see
    tests/data/make_sample_census.py)."""
    return {bundle_sig(w, -1 if w.count("L") % 2 else 1)
            for length in range(2, 8) for w in both_letter_words(length)}


def _fibre_slope(ts, a):
    """The slope whose filling kills the fibre, in the link basis the
    program uses (as tests/test_filling.py computes it)."""
    (fa, _), (fb, _) = vertex_links(ts, a.coor, a.cycles, a.h1)[0] \
        .periph_class
    fa, fb = fa[0], fb[0]
    g = math.gcd(fa, fb)
    return -fb // g, fa // g


def _write_sigs(path, entries):
    with open(path, "w") as fh:
        fh.write("".join(e.sig + "\n" for e in entries))


def build(name, seed, root, workdir):
    """The workload's inputs for this seed; input files go to workdir."""
    rng = random.Random("%s/%d" % (name, seed))
    if name == "census_scan":
        bundle_sigs = _sample_bundle_sigs()
        entries = _bundles(rng, SCAN_SIZES, SCAN_PER_SIZE) + [
            Entry(s) for s in sample_sigs(root) if s not in bundle_sigs]
        path = os.path.join(workdir, "scan.txt")
        _write_sigs(path, entries)
        return Workload(name, [["batch", path, "--jobs", "1"]], [entries])
    if name == "census_verify":
        entries = [Entry(s) for s in sample_sigs(root) if s != FOURTEEN]
        entries += _bundles(rng, VERIFY_SIZES, VERIFY_PER_SIZE)
        path = os.path.join(workdir, "verify.txt")
        _write_sigs(path, entries)
        return Workload(name, [["batch", path, "--verify", "--jobs", "1"]],
                        [entries])
    if name == "fill_bundles":
        entries = [Entry(bundle_sig(w, eps), w, eps, fill=True)
                   for n in FILL_SIZES for eps in (1, -1)
                   for w in _draw_words(rng, n, 1)]
        calls = [["fill", e.sig, "--slopes", "c0:%d/%d" % e.slope]
                 for e in entries]
        return Workload(name, calls, [[e] for e in entries])
    raise ValueError("unknown workload %r" % name)


def _charpoly(trace):
    t = LaurentPoly.variable(1, 0)
    return t * t - trace * t + LaurentPoly.one(1)


def _invert(p):
    return LaurentPoly(p.nvars, {tuple(-x for x in e): c
                                 for e, c in p.terms.items()})


def check_record(name, entry, line, reference):
    """Why this output line is wrong for the entry, or None if it is
    right."""
    ref = reference.get(entry.sig)
    if ref is not None and ref != line:
        return "differs from the reference record"
    rec = json.loads(line)
    if rec.get("sig") != entry.sig:
        return "record for %r out of order" % rec.get("sig")
    if "error" in rec:
        return "error record: %s" % rec["error"]
    if name == "census_verify" and (rec["verify"] or {}).get("passed") \
            is not True:
        return "identity check failed: %s" % json.dumps(rec["verify"])
    if name in ("census_scan", "census_verify") and entry.word:
        b1, torsion = bundle_homology(entry.word, entry.eps)
        if (rec["b1"], rec["torsion"]) != (b1, torsion):
            return "H1 differs from the monodromy oracle"
    if name == "fill_bundles":
        if rec["case"] != "II(b)" or rec["division_ok"] is not True:
            return "case %r, division_ok %r" % (rec["case"],
                                                rec["division_ok"])
        got = normalize_unit(poly_from_json(rec["delta_N"]))
        want = _charpoly(bundle_filled_trace(entry.word, entry.eps))
        if got not in (normalize_unit(want), normalize_unit(_invert(want))):
            return "delta_N differs from the monodromy characteristic " \
                   "polynomial"
    return None
