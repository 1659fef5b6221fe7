"""Measure the baseline: two sets of ten seeds per workload, one traced run
each.

    python3 perfbench/baseline.py

A set runs `run.py --trace 0` on seeds 1..10 of every workload at the
`run_seconds` of BENCHMARK.json.  For each end-to-end metric it reports
the median, quartiles and spread (interquartile distance as a share of the
median, the way a regression check reads it) against the bound in
BENCHMARK.json.  A second set follows the first, and each metric's second
median is compared with its first.  Then one traced run on seed 1 per
workload keeps the per-layer metrics.  From the traced `separation` run it
also reads how much of row (1,3) the tau/nu branch-and-bound takes, a
check that the tracer puts time on the right layer.  Everything goes to
`perfbench/baseline.json`.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)


def bench(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)], cwd=ROOT, capture_output=True, text=True,
        check=True)
    return json.loads(done.stdout.splitlines()[-1])


def row_share(workload, seed, k=1, h=3):
    """Seconds of the (k, h) separation row and of the tau/nu search in it,
    from the spans the traced run wrote."""
    with open(os.path.join(HERE, ".out", "spans-%s-%d.json"
                           % (workload, seed))) as fh:
        doc = json.load(fh)
    names, spans = doc["names"], doc["spans"]
    rows = [sid for sid, s in enumerate(spans)
            if names[s[0]] == "cli.separation_row"]
    row = rows[[(0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (1, 2), (1, 3),
                (2, 3)].index((k, h))]
    inside = {row}
    search = 0.0
    for sid in range(row + 1, len(spans)):
        if spans[sid][1] not in inside:
            continue
        inside.add(sid)
        if names[spans[sid][0]] in ("trigger.transversal_number",
                                    "trigger.matching_number"):
            search += spans[sid][3] - spans[sid][2]
    return {"row": "%d,%d" % (k, h),
            "row_s": spans[row][3] - spans[row][2], "tau_nu_s": search}


def end_to_end(workload, seconds, bounds):
    """Ten runs, one per seed: each metric's median, quartiles and spread."""
    runs = [bench(workload, seed, seconds, 0) for seed in SEEDS]
    summary = {"correct": all(r["correct"] for r in runs),
               "attempted": sum(r["attempted"] for r in runs),
               "failed": sum(r["failed"] for r in runs), "end_to_end": {}}
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        spread = (q3 - q1) / median
        summary["end_to_end"][name] = {
            "unit": runs[0]["metrics"][name]["unit"], "median": median,
            "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "values": values}
        print("%-14s %-14s median %12.4f spread %.4f (bound %.2f)%s"
              % (workload, name, median, spread, bound,
                 "" if spread < bound / 3 else "  <-- above bound/3"),
              flush=True)
    return summary


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    doc = {"seconds": seconds, "seeds": list(SEEDS),
           "workloads": {w: {"sets": []} for w in workloads}}
    # two sets, the second after the first has finished on every workload,
    # as a regression check compares a later set with an earlier one
    for _ in range(2):
        for workload in workloads:
            doc["workloads"][workload]["sets"].append(
                end_to_end(workload, seconds, bounds))
    for workload in workloads:
        summary = doc["workloads"][workload]
        summary["median_shift"] = {}
        for name in bounds:
            first, second = (s["end_to_end"][name]["median"]
                             for s in summary["sets"])
            summary["median_shift"][name] = second / first - 1
            print("%-14s %-14s second median %+.4f of the first"
                  % (workload, name, second / first - 1), flush=True)
        traced = bench(workload, 1, seconds, 1)
        summary["per_layer_seed_1"] = {
            name: m["value"] for name, m in traced["metrics"].items()}
        if workload == "separation":
            summary["row_1_3"] = row_share(workload, 1)
            print("row (1,3): %(row_s).3f s, tau/nu search %(tau_nu_s).3f s"
                  % summary["row_1_3"], flush=True)
    with open(os.path.join(HERE, "baseline.json"), "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
