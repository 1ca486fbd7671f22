"""Command-line interface: compute invariants of one census entry, fill
cusps, or run a batch over a census file.

Each command imports only the modules it runs: ``compute`` and
``batch`` never load ``filling``, and ``--help`` or a usage error loads
none of the package's other modules.  Without bytecode caches every
module loaded is compiled on each start, so this keeps start-up short.

Exit codes: 0 success, 1 input error (a usage error included), 2
internal assertion failure (in ``batch``: any entry with an internal
error).
Batch output is JSONL in input order, independent of the worker count.
"""

import argparse
import os
import sys
import time


def _poly_or_null(p):
    from .laurent import poly_to_json
    return None if p is None else poly_to_json(p)


def entry_record(sig, with_polynomials=True):
    """The full RunRecord for one census entry (timing excluded so that
    records are byte-stable).  Its "sig" is the signature parsed from
    the line, without the extra fields ``parse_taut_sig`` ignores."""
    from .census_io import parse_taut_sig
    from .invariants import Analysis, verify_identities
    from .laurent import poly_to_json
    ts = parse_taut_sig(sig)
    analysis = Analysis(ts)
    eo = analysis.eo
    record = {
        "sig": ts.sig,
        "b1": analysis.h1.rank,
        "torsion": list(analysis.h1.torsion),
        "cusps": len(ts.table.vertices),
        "edge_orientable": eo.edge_orientable,
        "theta": None,
        "delta": None,
        "delta_hat": None,
        "sigma": list(eo.sigma) if eo.sigma is not None else None,
        "verify": None,
    }
    if not eo.edge_orientable:
        record["cover_cusps"] = len(analysis.cover.table.vertices)
    if with_polynomials:
        record["theta"] = poly_to_json(analysis.theta)
        record["delta"] = poly_to_json(analysis.delta)
        record["delta_hat"] = _poly_or_null(analysis.delta_hat)
        record["verify"] = verify_identities(analysis)
    return record


def cmd_compute(args):
    import json
    flags = [args.taut, args.alex, args.hat, args.edge_orientability]
    want_all = args.all or not any(flags)
    want_polys = want_all or args.taut or args.alex or args.hat
    t0 = time.perf_counter()
    record = entry_record(args.sig, with_polynomials=want_polys)
    record["runtime_ms"] = round(1000 * (time.perf_counter() - t0), 3)
    if not want_all:
        keep = {"sig", "b1", "edge_orientable", "runtime_ms"}
        if args.taut:
            keep |= {"theta", "verify", "sigma"}
        if args.alex:
            keep |= {"delta", "verify", "sigma"}
        if args.hat:
            keep |= {"delta_hat", "verify", "sigma"}
        if args.edge_orientability:
            keep |= {"edge_orientable", "sigma", "torsion", "cusps",
                     "cover_cusps"}
        record = {k: v for k, v in record.items() if k in keep}
    sys.stdout.write(json.dumps(record, sort_keys=True) + "\n")
    return 0


def cmd_fill(args):
    import json
    from .census_io import CensusError, parse_taut_sig
    from .filling import (filled_homology, parse_slopes,
                          predict_filled_alexander, vertex_links)
    from .invariants import Analysis
    from .laurent import poly_to_json, specialize
    spec = parse_slopes(args.slopes)
    ts = parse_taut_sig(args.sig)
    analysis = Analysis(ts)
    cusps = vertex_links(ts, analysis.coor, analysis.cycles, analysis.h1)
    fh = filled_homology(analysis.h1, cusps, spec, eo=analysis.eo)
    if fh.s == 0:
        raise CensusError("filling kills all free homology (b_1(N) = 0)")
    i_theta = specialize(analysis.theta, fh.i_star)
    record = {
        "sig": ts.sig,
        "slopes": {("c%d" % j): "%d/%d" % xy
                   for j, xy in spec.slopes.items()},
        "b1": analysis.h1.rank,
        "s": fh.s,
        "filled_homology_torsion": list(fh.n_quot.torsion),
        "boundary_empty": fh.boundary_empty,
        "i_star": fh.i_star,
        "sigma_N": list(fh.sigma_N) if fh.sigma_N is not None else None,
        "i_theta": poly_to_json(i_theta),
        "i_delta": poly_to_json(specialize(analysis.delta, fh.i_star)),
        "cores": {("c%d" % j): {"ell_free": list(ell), "nontrivial": any(ell)}
                  for j, ell in fh.cores.items()},
        "hypotheses": {
            "sigma_N_exists": fh.sigma_N is not None,
            "trivial_cores": [("c%d" % j) for j, ell in fh.cores.items()
                              if not any(ell)],
        },
        "case": None,
        "delta_N": None,
        "division_ok": None,
        "equality_expected": None,
    }
    pred = predict_filled_alexander(i_theta, fh)
    if pred is not None:
        case, delta_N, equality_expected = pred
        record.update(case=case, delta_N=_poly_or_null(delta_N),
                      division_ok=delta_N is not None,
                      equality_expected=equality_expected)
    sys.stdout.write(json.dumps(record, sort_keys=True) + "\n")
    return 0


def _batch_worker(job):
    """The record of one batch entry.  Bad input gives an ``error``
    record; a failed internal check, or any other exception from the
    library, gives an ``internal_error`` record, so the rest of the batch
    still runs.  ``compute`` on the signature shows the traceback."""
    from .census_io import CensusError
    sig, verify = job
    try:
        return entry_record(sig, with_polynomials=verify)
    except CensusError as exc:
        return {"sig": sig, "error": str(exc)}
    except AssertionError as exc:
        return {"sig": sig, "internal_error": str(exc)}
    except Exception as exc:
        return {"sig": sig,
                "internal_error": "%s: %s" % (type(exc).__name__, exc)}


def _count_record(summary, rec, verify):
    """Add one batch record to the summary counts."""
    summary["total"] += 1
    failed = "error" in rec or "internal_error" in rec
    summary["errors"] += "error" in rec
    summary["internal_errors"] += "internal_error" in rec
    eo = rec.get("edge_orientable")
    summary["edge_orientable"] += eo is True
    if eo is False:
        summary["not_edge_orientable"] += 1
        cover_cusps, cusps = rec.get("cover_cusps"), rec.get("cusps")
        summary["cover_same_cusps"] += cover_cusps == cusps
        summary["cover_double_cusps"] += cover_cusps == 2 * cusps
    if verify:
        passed = bool((rec.get("verify") or {}).get("passed"))
        summary["verify_passed"] += passed
        summary["verify_failed"] += not failed and not passed


def _batch_jobs(args):
    """Worker count: --jobs, else $VEERPOLY_JOBS, else 1.  A negative
    --jobs or a $VEERPOLY_JOBS that is not a positive integer in ASCII
    digits is an input error (int() would also take underscores,
    surrounding whitespace and non-ASCII digits)."""
    from .census_io import CensusError
    if args.jobs < 0:
        raise CensusError("--jobs must not be negative, got %d" % args.jobs)
    if args.jobs:
        return args.jobs
    text = os.environ.get("VEERPOLY_JOBS", "1")
    jobs = int(text) if text.isascii() and text.isdigit() else 0
    if jobs < 1:
        raise CensusError(
            "VEERPOLY_JOBS must be a positive integer, got %r" % text)
    return jobs


def cmd_batch(args):
    import json
    jobs = _batch_jobs(args)
    # bytes that are not UTF-8 are kept as lone surrogates, as Python
    # decodes argv, so such a line gets compute's error record
    with open(args.census, encoding="utf-8", errors="surrogateescape") as fh:
        lines = [line.strip() for line in fh]
    work = [(sig, args.verify) for sig in lines
            if sig and not sig.startswith("#")]
    # a pool starts every worker when it is built: none beyond the entries
    jobs = min(jobs, len(work))
    t0 = time.perf_counter()
    # records are written as they arrive, in input order, so one failing
    # entry cannot lose the output of the others; the summary is counted
    # as they go by
    summary = dict.fromkeys(
        ("total", "errors", "internal_errors", "edge_orientable",
         "not_edge_orientable", "cover_same_cusps", "cover_double_cusps"),
        0)
    if args.verify:
        summary.update(verify_passed=0, verify_failed=0)
    out = open(args.out, "w") if args.out else sys.stdout
    pool = None
    try:
        if jobs > 1:
            # imported here: it adds about 14 ms to every CLI start
            import multiprocessing
            pool = multiprocessing.Pool(jobs)
            results = pool.imap(_batch_worker, work, chunksize=16)
        else:
            results = map(_batch_worker, work)
        for rec in results:
            # dumps runs the C encoder; dump to a file would not
            out.write(json.dumps(rec, sort_keys=True) + "\n")
            out.flush()
            _count_record(summary, rec, args.verify)
    finally:
        if pool:
            pool.terminate()
        if args.out:
            out.close()
    stream = sys.stderr if not args.out else sys.stdout
    print("batch: %s in %.1fs" % (
        json.dumps(summary, sort_keys=True),
        time.perf_counter() - t0), file=stream)
    return 2 if summary["internal_errors"] else 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are input errors: it prints
    the usage and exits 1, not argparse's 2.  Subparsers are built from
    the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))

    def _parse_optional(self, arg_string):
        # "-" begins a signature of 63 or more tetrahedra: a one-dash word
        # naming no option is the signature, which reports its own error
        if arg_string[:1] == "-" and arg_string[:2] != "--" and \
                arg_string not in self._option_string_actions:
            return None
        return super()._parse_optional(arg_string)


def build_parser():
    parser = _Parser(
        prog="veerpoly",
        description="Taut and Alexander polynomials of veering "
                    "triangulations from census signatures.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser(
        "compute", help="invariants of a single census entry")
    p_compute.add_argument("sig")
    p_compute.add_argument("--taut", action="store_true",
                           help="taut polynomial")
    p_compute.add_argument("--alex", action="store_true",
                           help="Alexander polynomial")
    p_compute.add_argument("--hat", action="store_true",
                           help="double-cover Alexander polynomial")
    p_compute.add_argument("--all", action="store_true",
                           help="everything (default)")
    p_compute.add_argument("--edge-orientability", action="store_true",
                           dest="edge_orientability",
                           help="edge-orientability data only")
    p_compute.set_defaults(func=cmd_compute)

    p_fill = sub.add_parser("fill", help="Dehn-filling specialisations")
    p_fill.add_argument("sig")
    p_fill.add_argument("--slopes", default="",
                        help='e.g. "c0:1/2,c2:-3/1" (empty: no filling)')
    p_fill.set_defaults(func=cmd_fill)

    p_batch = sub.add_parser("batch", help="run over a census file")
    p_batch.add_argument("census", help="file with one signature per line")
    p_batch.add_argument("--jobs", type=int, default=0,
                         help="worker processes (default $VEERPOLY_JOBS or 1)")
    p_batch.add_argument("--out", default=None, help="JSONL output path")
    p_batch.add_argument("--verify", action="store_true",
                         help="also compute polynomials and identities")
    p_batch.set_defaults(func=cmd_batch)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    from .census_io import CensusError
    try:
        return args.func(args)
    except (CensusError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except AssertionError as exc:
        print("internal error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
