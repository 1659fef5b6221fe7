"""Benchmark of the cnfkc workbench: three CLI workloads, run in-process.

    python3 perfbench/run.py --workload separation|measure|compile_query \
        --seed N --seconds T --trace 0|1

Run from the root of a checkout.  One pass invokes `cnfkc.cli.main(argv)`
once per item of the workload, in a single process; passes repeat until T
seconds have gone by.  Every output is checked against its reference after
the pass, outside the timed region.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: the median
pass time, set-up time (median of fresh processes started from scratch)
and peak resident memory.  It also prints the error rate, the compile time
and the answer latency percentiles, which are not bounded.  --trace 1
alternates untraced and traced passes and reports the per-layer metrics
from the spans of `spans.Tracer`, plus the tracing overhead.
Human-readable lines come first; the last line of standard output is one
JSON object.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINS = os.path.join(HERE, "pins.json")
SETUP_PROBES = 21


def setup(workload, seed, workdir):
    """What `setup_s` times: imports, seeded generation and the DIMACS
    files written.  Returns (cli module, workloads module, pins, inputs)."""
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
    from cnfkc import cli
    import workloads
    with open(PINS) as fh:
        pins = json.load(fh)
    os.makedirs(workdir, exist_ok=True)
    return cli, workloads, pins, workloads.write_inputs(workload, seed,
                                                        workdir, pins)


def setup_seconds(workload, seed):
    """Median time from starting a fresh interpreter until it has set up."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), "--workload",
                 workload, "--seed", str(seed), "--setup-only"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            times.append(time.perf_counter() - t0)
            child.stdout.read()
        if line != "ready\n" or child.returncode != 0:
            raise RuntimeError("set-up probe failed")
    return statistics.median(times)


def invoke(cli, argv):
    """One CLI invocation: (seconds, exit code or None, stdout, problem)."""
    out, err = io.StringIO(), io.StringIO()
    problem = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 1
    except Exception as e:  # a traceback is a failed item, not a dead run
        code, problem = None, "raised %r" % (e,)
    elapsed = time.perf_counter() - t0
    if problem is None and code != 0:
        problem = "exit %s: %s" % (code, err.getvalue().strip()[:200])
    return elapsed, problem, out.getvalue()


def run_pass(cli, items):
    """Time one pass; returns (wall seconds, per-item seconds, failures)."""
    results = []
    t0 = time.perf_counter()
    for item in items:
        results.append(invoke(cli, item.argv))
    wall = time.perf_counter() - t0
    failures = []
    for item, (_, problem, out) in zip(items, results):
        if problem is None:
            try:
                problem = item.check(out)
            except (ValueError, KeyError, StopIteration, OSError) as e:
                problem = "unreadable output: %r" % (e,)
        if problem is not None:
            failures.append("%s: %s" % (item.name, problem))
    return wall, [r[0] for r in results], failures


def log(text):
    print(text, flush=True)


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, cli, items):
    walls, compile_s, failures = [], [], []
    answer = [i for i, item in enumerate(items) if item.stage != "compile"]
    samples = {i: [] for i in answer}
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < args.seconds:
        wall, times, failed = run_pass(cli, items)
        walls.append(wall)
        for i in answer:
            samples[i].append(times[i] * 1000)
        compile_s.append(sum(t for t, item in zip(times, items)
                             if item.stage == "compile"))
        failures += failed
    # one latency per answering item: its median over the passes
    latencies = [statistics.median(samples[i]) for i in answer]
    setup_s = setup_seconds(args.workload, args.seed)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "wall_s": metric(statistics.median(walls), "s"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(peak, "MB"),
    }
    attempted = len(walls) * len(items)
    log("passes %d of %d items" % (len(walls), len(items)))
    for name, m in metrics.items():
        log("  %-14s %12.4f %s" % (name, m["value"], m["unit"]))
    log("  %-14s %12.4f ratio (%d of %d items failed)"
        % ("error_rate", len(failures) / attempted, len(failures), attempted))
    # reported, not bounded: see perfbench/README.md
    if any(item.stage == "compile" for item in items):
        log("  %-14s %12.4f s" % ("compile_s", statistics.median(compile_s)))
    for name, q in (("query_p50_ms", 50), ("query_p95_ms", 95)):
        log("  %-14s %12.4f ms (%d answering items, each the median of its"
            " %d calls)" % (name, percentile(latencies, q), len(latencies),
                            len(walls)))
    return metrics, attempted, failures


def per_layer(args, cli, items):
    import spans
    tracer = spans.Tracer()
    plain, traced, samples, failures = [], [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        wall, _, failed = run_pass(cli, items)
        plain.append(wall)
        failures += failed
        tracer.clear()
        tracer.install()
        try:
            wall, _, failed = run_pass(cli, items)
        finally:
            tracer.uninstall()
        traced.append(wall)
        failures += failed
        samples.append(tracer.metrics())
    os.makedirs(os.path.join(HERE, ".out"), exist_ok=True)
    dump = os.path.join(HERE, ".out", "spans-%s-%d.json"
                        % (args.workload, args.seed))
    tracer.dump(dump)
    overhead = statistics.median(traced) - statistics.median(plain)
    metrics = {}
    for name, unit, _ in spans.METRICS:
        value = (overhead if name == "trace.overhead_s" else
                 statistics.median(s[name] for s in samples))
        metrics[name] = metric(value, unit)
    attempted = (len(plain) + len(traced)) * len(items)
    log("passes %d untraced, %d traced; wall %.4f s untraced, %.4f s traced;"
        " spans of the last pass in %s"
        % (len(plain), len(traced), statistics.median(plain),
           statistics.median(traced), os.path.relpath(dump, ROOT)))
    top = sorted((m for m in metrics if m.endswith(".self_s")),
                 key=lambda m: -metrics[m]["value"])[:8]
    for name in top:
        log("  %-44s %10.4f s" % (name, metrics[name]["value"]))
    log("  %-44s %10.4f ratio (%d of %d items failed)"
        % ("error_rate", len(failures) / attempted, len(failures), attempted))
    return metrics, attempted, failures


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["separation", "measure", "compile_query"])
    p.add_argument("--seed", type=int, required=True)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        run_seconds = json.load(fh)["run_seconds"]
    p.add_argument("--seconds", type=float, default=run_seconds)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print 'ready' and exit (set-up probes)")
    args = p.parse_args(argv)
    workdir = os.path.join(HERE, ".work", str(os.getpid()))
    try:
        cli, workloads, pins, inputs = setup(args.workload, args.seed,
                                             workdir)
        if args.setup_only:
            print("ready", flush=True)
            return 0
        # the references are the benchmark's own work: outside setup_s
        items = workloads.build_items(args.workload, args.seed, inputs, pins)
        # keep the harness's own objects out of the collector's way, as
        # they would be in a process that only runs the command
        gc.collect()
        gc.freeze()
        log("workload %s, seed %d, trace %d"
            % (args.workload, args.seed, args.trace))
        measure = per_layer if args.trace else end_to_end
        metrics, attempted, failures = measure(args, cli, items)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in failures[:20]:
        print("FAILED " + line, file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
