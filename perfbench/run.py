"""Benchmark of the veerpoly command line, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload census_verify --seed 1 \\
        --seconds 30 --trace 0

Workloads (see workloads.py and BENCHMARK.json):

  census_scan    veerpoly batch FILE --jobs 1
  census_verify  veerpoly batch FILE --verify --jobs 1
  fill_bundles   veerpoly fill SIG --slopes c0:x/y, one call per bundle

The load is a closed loop with one client: one CLI process at a time.
A pass runs every CLI call of the workload once; passes repeat until
--seconds have gone by, and each metric is the median over the passes.

--trace 0 runs each call as a child process ``python -m veerpoly.cli``
and reports the end-to-end metrics.  --trace 1 runs one such pass, then
alternates plain and traced passes inside this process through
``veerpoly.cli.main``, and reports the per-layer metrics of spans.py.
Every record of every pass is checked; the last line of standard output
is a JSON object with the keys correct, attempted, failed and metrics.

--write-reference rewrites perfbench/reference/ from the program in this
checkout at the default seed; the kept files were made at the commit
that added the benchmark.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 0
SETUPS_PER_PASS = 2


class BenchError(Exception):
    """The benchmark cannot measure what it claims to."""


class Pass:
    """Outputs of one pass: (exit code, stdout) per CLI call, the wall
    time summed over the calls, and the largest child max-RSS."""

    def __init__(self, outputs, wall_s, peak_rss_mb=None):
        self.outputs = outputs
        self.wall_s = wall_s
        self.peak_rss_mb = peak_rss_mb

    @property
    def records(self):
        return sum(len(text.splitlines()) for _, text in self.outputs)


def child_env():
    """The caller's environment, with assertions on, the checkout's
    package first on the path and no bytecode caches, so that every
    run compiles the same sources and leaves no files behind."""
    env = dict(os.environ)
    env.pop("PYTHONOPTIMIZE", None)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def cli_argv(args):
    return [sys.executable, "-m", "veerpoly.cli"] + list(args)


def run_child(argv, env, workdir):
    """(exit code, stdout, wall seconds, max RSS in MB) of one CLI
    process."""
    out_path = os.path.join(workdir, "stdout")
    err_path = os.path.join(workdir, "stderr")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cli_argv(argv), stdout=out, stderr=err,
                                env=env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as fh:
        text = fh.read()
    if proc.returncode:
        with open(err_path) as fh:
            sys.stderr.write(fh.read()[-2000:])
    return proc.returncode, text, wall, usage.ru_maxrss / 1024


def check_debug(env):
    """The children must run with assertions and __debug__ checks on."""
    code = subprocess.run(
        [sys.executable, "-c", "import sys; sys.exit(0 if __debug__ else 3)"],
        env=env, cwd=ROOT).returncode
    if code:
        raise BenchError("child interpreter runs with __debug__ off")


def cold_start(env):
    """Seconds from a fresh interpreter until ``veerpoly --help`` exits."""
    t0 = time.perf_counter()
    subprocess.run(cli_argv(["--help"]), env=env, cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def child_pass(wl, env, workdir):
    outputs, wall, rss = [], 0.0, 0.0
    for argv in wl.calls:
        code, text, w, r = run_child(argv, env, workdir)
        outputs.append((code, text))
        wall += w
        rss = max(rss, r)
    return Pass(outputs, wall, rss)


def inprocess_pass(wl, tracer=None):
    """One pass through veerpoly.cli.main in this process; traced when a
    tracer with installed wrappers is given."""
    import veerpoly.cli
    outputs = []
    t0 = time.perf_counter()
    for argv in wl.calls:
        out = io.StringIO()
        if tracer is not None and argv[0] == "fill":
            tracer.request = argv[1]
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = veerpoly.cli.main(argv)
        outputs.append((code, out.getvalue()))
    return Pass(outputs, time.perf_counter() - t0)


def count_failures(wl, p, reference, problems):
    """Failed entries of a pass; reasons go to problems."""
    from workloads import check_record
    failed = 0
    for (code, text), entries in zip(p.outputs, wl.entries_of_call):
        lines = text.splitlines()
        if code != 0 or len(lines) != len(entries):
            problems.append("exit code %d with %d records for %d entries"
                            % (code, len(lines), len(entries)))
            failed += len(entries)
            continue
        for entry, line in zip(entries, lines):
            why = check_record(wl.name, entry, line, reference)
            if why:
                problems.append("%s: %s" % (entry.sig, why))
                failed += 1
    return failed


def count_mismatches(base, other, problems):
    """Records of other that are not byte-identical to base's."""
    bad = 0
    for (_, a), (_, b) in zip(base.outputs, other.outputs):
        la, lb = a.splitlines(), b.splitlines()
        bad += sum(x != y for x, y in zip(la, lb)) + abs(len(la) - len(lb))
    if bad:
        problems.append("%d in-process records differ from the child pass's"
                        % bad)
    return bad


def reference_path(name):
    return os.path.join(HERE, "reference", name + ".jsonl")


def load_reference(name):
    with open(reference_path(name)) as fh:
        return {json.loads(line)["sig"]: line.rstrip("\n") for line in fh}


def summarise(name, unit, values):
    """Print the median and quartiles of a metric's samples; return the
    metric with the median as its value."""
    value = statistics.median(values)
    lo, hi = statistics.quantiles(values, n=4)[::2] if len(values) > 1 \
        else (value, value)
    print("%s = %r %s (median of %d samples, quartiles %r .. %r)"
          % (name, value, unit, len(values), lo, hi))
    return {"value": value, "unit": unit}


def run_untraced(wl, env, workdir, seconds, reference, problems):
    # cold starts are spread over the run, like the passes, so that both
    # sample the same machine load
    passes, setups, failed = [], [], 0
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        setups += [cold_start(env) for _ in range(SETUPS_PER_PASS)]
        p = child_pass(wl, env, workdir)
        failed += count_failures(wl, p, reference, problems)
        passes.append(p)
    attempted = len(passes) * len(wl.entries)
    metrics = {
        "setup_s": summarise("setup_s", "s", setups),
        "wall_s": summarise("wall_s", "s", [p.wall_s for p in passes]),
        "peak_rss_mb": summarise("peak_rss_mb", "MB",
                                 [p.peak_rss_mb for p in passes]),
    }
    # printed but not declared: with a fixed entry count it only mirrors
    # wall_s
    summarise("entries_per_s", "1/s", [p.records / p.wall_s for p in passes])
    print("fail_ratio = %r ratio (%d of %d entries failed)"
          % (failed / attempted, failed, attempted))
    return attempted, failed, metrics


def run_traced(wl, env, workdir, seconds, reference, problems, spans_path):
    import spans
    base = child_pass(wl, env, workdir)
    failed = count_failures(wl, base, reference, problems)
    attempted = len(wl.entries)
    tracer = spans.Tracer()
    plain_walls, traced_walls, stats = [], [], []
    deadline = time.perf_counter() + seconds
    while not stats or time.perf_counter() < deadline:
        plain = inprocess_pass(wl)
        tracer.install()
        try:
            traced = inprocess_pass(wl, tracer)
        finally:
            tracer.uninstall()
        for p in (plain, traced):
            failed += count_mismatches(base, p, problems)
            attempted += len(wl.entries)
        plain_walls.append(plain.wall_s)
        traced_walls.append(traced.wall_s)
        stats.append(tracer.layer_stats(len(wl.entries)))
        if time.perf_counter() >= deadline:
            tracer.write(spans_path)
        # drop the spans so that they do not slow the next plain pass
        tracer.reset()

    timed = ("self_s", "p50_ms", "p95_ms")
    counts = [{k: v for k, v in s.items() if not k.endswith(timed)}
              for s in stats]
    if any(c != counts[0] for c in counts):
        raise BenchError("span counts differ between traced passes")
    for name, (must_call, _) in spans.TRACED.items():
        if wl.name in must_call and not counts[0][name + ".calls"]:
            raise BenchError("%s was never called on %s" % (name, wl.name))
    ratio = statistics.median(traced_walls) / statistics.median(plain_walls)
    metrics = {}
    for name, unit, _ in spans.per_layer_metrics():
        if name == "trace.overhead_ratio":
            value = ratio
        elif name.endswith(timed):
            value = statistics.median(s[name] for s in stats)
        else:
            value = counts[0][name]
        metrics[name] = {"value": value, "unit": unit}
        print("%s = %r %s" % (name, value, unit))
    print("traced passes: %d; spans of the last one: %s"
          % (len(stats), os.path.relpath(spans_path, ROOT)))
    return attempted, failed, metrics


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]])


def write_reference(env, workdir):
    import workloads
    for name in workloads.WORKLOADS:
        wl = workloads.build(name, DEFAULT_SEED, ROOT, workdir)
        problems = []
        p = child_pass(wl, env, workdir)
        if count_failures(wl, p, {}, problems):
            raise BenchError("%s: %s" % (name, problems[0]))
        with open(reference_path(name), "w") as fh:
            fh.write("".join(text for _, text in p.outputs))
        print("wrote %s (%d records)" % (reference_path(name), p.records))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True

    for needed in ("src/veerpoly/cli.py", "tests/bundles.py",
                   "tests/data/sample_census.txt"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            raise BenchError("%s is missing: run from a full checkout"
                             % needed)
    if not __debug__:
        raise BenchError("run without -O: traced passes run the program "
                         "in this interpreter")
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
    import spans
    import workloads

    env = child_env()
    check_debug(env)
    scratch = os.path.join(ROOT, ".perfbench")
    os.makedirs(os.path.join(scratch, "spans"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as workdir:
        if args.write_reference:
            write_reference(env, workdir)
            return 0
        if args.workload not in workloads.WORKLOADS:
            parser.error("--workload must be one of %s"
                         % ", ".join(workloads.WORKLOADS))
        end_to_end, per_layer = declared_metrics()
        if spans.per_layer_metrics() != per_layer:
            raise BenchError("per_layer metrics differ from BENCHMARK.json")

        wl = workloads.build(args.workload, args.seed, ROOT, workdir)
        print("inputs: " + json.dumps(dict(
            workload=wl.name, seed=args.seed, **wl.properties())))
        print("environment: " + json.dumps({
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "child_env": {k: v for k, v in sorted(env.items())
                          if k.startswith("PYTHON")},
        }))
        reference = load_reference(wl.name)
        problems = []
        if args.trace:
            spans_path = os.path.join(
                scratch, "spans", "%s-seed%d.jsonl" % (wl.name, args.seed))
            attempted, failed, metrics = run_traced(
                wl, env, workdir, args.seconds, reference, problems,
                spans_path)
        else:
            attempted, failed, metrics = run_untraced(
                wl, env, workdir, args.seconds, reference, problems)
            if {k: m["unit"] for k, m in metrics.items()} != end_to_end:
                raise BenchError("end_to_end metrics differ from "
                                 "BENCHMARK.json")
    for why in problems[:20]:
        print("FAILED " + why, file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        sys.exit(2)
