"""Pin the references and seeded pools of the benchmark into pins.json.

    python3 perfbench/pin.py

Run once, at the commit whose outputs become the references; every later
run of the benchmark compares against what this wrote.  It records:

- the exact stdout of every `separation` row and fixed `measure` item;
- the `measure` pool: unsatisfiable random 3-CNF instances with their
  `hd` output and the sha256 of their DIMACS text;
- the `compile_query` pool: satisfiable random 3-CNF instances (their
  answers are checked against truth tables at run time, not pinned).

Each pool entry also stores `cost_s`, the seconds its work took when it
was pinned.  `workloads.balanced_pick` uses these only to hand every seed
about the same amount of work; they are never reported.
"""

import contextlib
import io
import json
import os
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"),
                os.path.join(os.path.dirname(HERE), "tests")]

from cnfkc import cli  # noqa: E402
import oracles  # noqa: E402
import workloads as w  # noqa: E402


def run(argv):
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit("pinning run failed: %r" % (argv,))
    return time.perf_counter() - t0, out.getvalue()


def satisfiable(f):
    """Plain DPLL, branching on a literal of a shortest clause."""
    if not f:
        return True
    if frozenset() in f:
        return False
    x = next(iter(min(f, key=len)))
    return any(satisfiable(frozenset(c - {-y} for c in f if y not in c))
               for y in (x, -x))


def costs(argvs_per_entry, rounds=3):
    """Median seconds of each entry's invocations, measured round-robin so
    that a slow spell of the machine does not land on one entry."""
    times = [[] for _ in argvs_per_entry]
    for _ in range(rounds):
        for spent, argvs in zip(times, argvs_per_entry):
            spent.append(sum(run(a)[0] for a in argvs))
    return [statistics.median(t) for t in times]


def pool(name, size, keep, argvs_of, tmp):
    """The first `size` pool instances that `keep` accepts, each with its
    pinned cost; `argvs_of(path)` lists the invocations it is costed by."""
    entries, argvs = [], []
    i = 0
    while len(entries) < size:
        f = w.pool_instance(name, i)
        if keep(f):
            path = w._write(tmp, "%s-%d.cnf" % (name, i), f)
            entries.append({"index": i, "sha256": w._sha(w.dimacs(f))})
            argvs.append(argvs_of(path))
        i += 1
    for entry, spent in zip(entries, costs(argvs)):
        entry["cost_s"] = spent
    return entries, argvs


def main():
    pins = {"separation": {}, "measure": {"fixed": {}},
            "compile_query": {}}
    for k, h in w.SEPARATION_ROWS:
        pins["separation"]["%d,%d" % (k, h)] = run(
            ["separation", "--k-range", str(k), "--h-range", str(h)])[1]
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for name, (f, measures, _) in w.measure_fixed_inputs().items():
            path = w._write(tmp, name + ".cnf", f)
            pins["measure"]["fixed"][name] = {
                "sha256": w._sha(w.dimacs(f)),
                "stdout": run(["measure", path, "--measures", measures])[1]}
        entries, argvs = pool(
            "measure", w.MEASURE_POOL["size"],
            lambda f: not satisfiable(f),
            lambda path: [["measure", path, "--measures", "hd"]], tmp)
        for entry, (argv,) in zip(entries, argvs):
            entry["stdout"] = run(argv)[1]
        pins["measure"]["pool"] = entries
        pins["compile_query"]["pool"], _ = pool(
            "compile", w.COMPILE_POOL["size"], oracles.satisfiable_tt,
            lambda path: [["primes", path, "--out", path + ".primes"],
                          ["kbase", path, "--k", "1", "--out",
                           path + ".base"]], tmp)
    with open(os.path.join(HERE, "pins.json"), "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
