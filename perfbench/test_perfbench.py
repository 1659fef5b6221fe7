"""Tests of the benchmark itself (not part of the repository's tier-1 run).

    python3 -m pytest -q perfbench

They start real benchmark runs, so they take a few minutes.
"""

import itertools
import json
import os
import random
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"), HERE]

import oracles  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def bench(workload, seed, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace",
         str(trace)], cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_benchmark_json_lists_what_the_runs_report():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] \
        == spans.METRICS


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = bench(workload, 7, 1), bench(workload, 7, 1)
    assert first["correct"] and second["correct"]
    counts = {name for name, unit, _ in spans.METRICS if unit != "s"}
    assert {n: first["metrics"][n] for n in counts} == \
        {n: second["metrics"][n] for n in counts}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_second_seed_has_no_errors(workload):
    result = bench(workload, 8, 0)
    assert result["correct"] and result["failed"] == 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = {m["name"] for m in json.load(fh)["end_to_end"]}
    assert set(result["metrics"]) == names


def test_seeds_pick_different_inputs_of_similar_cost():
    with open(os.path.join(HERE, "pins.json")) as fh:
        costs = [p["cost_s"] for p in json.load(fh)["compile_query"]["pool"]]
    picks = [workloads.balanced_pick(costs, seed, 3) for seed in range(20)]
    assert len({tuple(sorted(p)) for p in picks}) > 10
    totals = sorted(sum(costs[i] for i in p) for p in picks)
    assert totals[-1] - totals[0] < 0.1 * totals[len(totals) // 2]
    assert picks[0] == workloads.balanced_pick(costs, 0, 3)


def test_truth_table_primes_match_the_definition():
    f = workloads.random_3cnf(random.Random(3), 6, 12)
    tt = workloads.TruthTable(f)
    expected = set()
    for size in range(len(tt.vars) + 1):
        for chosen in itertools.combinations(tt.vars, size):
            for signs in itertools.product((1, -1), repeat=size):
                c = frozenset(v * s for v, s in zip(chosen, signs))
                if oracles.implies_tt(f, c) and not any(
                        p <= c for p in expected):
                    expected.add(c)
    assert tt.primes() == expected
