import random

from cnfkc.core import BOT, apply_assignment, clause, pack_set, variables
from cnfkc.propagation import (REFUTED, propagate, propagate_packed,
                               sat_oracle, unit_propagate)
from cnfkc.errors import CapExceededError, ParseError

import oracles
import pytest


def cs(*clauses):
    return frozenset(clause(c) for c in clauses)


DIFF = cs([2, 3, 4], [-4, 2], [-2, 1, 5], [-5, -2], [-3, 1, 6], [-6, -3],
          [7, 8, 9], [-9, 7], [-7, -1, 10], [-10, -7], [-8, -1, 11],
          [-11, -8])


def test_level0():
    assert propagate(frozenset([BOT]), 0).refuted
    f = cs([1, 2])
    assert propagate(f, 0).reduced == f


def test_negative_level_is_a_parse_error():
    for f in (cs([1, 2], [-1]), frozenset([BOT])):
        with pytest.raises(ParseError):
            propagate_packed(pack_set(f), -1, {})


def test_level1_chain():
    r = propagate(cs([1], [-1, 2]), 1)
    assert r.reduced == frozenset() and not r.refuted
    assert r.assigned == {1: 1, 2: 1}


def test_diff_example_levels():
    assert not propagate(DIFF, 2).refuted
    assert propagate(DIFF, 3).refuted


def test_saturation_level():
    # level n(f) is the saturation level: higher levels are idle
    f = cs([1], [2, 3])
    r = propagate(f, len(variables(f)))
    assert r.reduced == cs([2, 3]) and r.assigned == {1: 1}
    assert propagate(f, len(variables(f)) + 1) == r
    assert propagate(cs([1], [-1]), 1).refuted


def test_monotone_in_k():
    rng = random.Random(7)
    for _ in range(60):
        f = oracles.random_clause_set(rng)
        prev = False
        for k in range(0, len(variables(f)) + 2):
            now = propagate(f, k).refuted
            assert now or not prev
            prev = now


def test_level1_matches_direct_unit_propagation():
    rng = random.Random(8)
    for _ in range(150):
        f = oracles.random_clause_set(rng)
        assert propagate(f, 1).reduced == unit_propagate(f).reduced


def test_level2_matches_failed_literal_elimination():
    rng = random.Random(9)
    for _ in range(150):
        f = oracles.random_clause_set(rng)
        assert propagate(f, 2).reduced == oracles.failed_literal_reduce(f)


def test_order_independence():
    rng = random.Random(10)
    for _ in range(25):
        f = oracles.random_clause_set(rng, max_n=6, max_c=8)
        for k in (1, 2, 3):
            baseline = propagate(f, k).reduced
            for trial in range(10):
                shuffler = random.Random(1000 * trial + k)

                def select(cands):
                    cands = list(cands)
                    shuffler.shuffle(cands)
                    return cands

                assert propagate(f, k, select=select).reduced == baseline


def test_assigned_consistent_with_reduced():
    rng = random.Random(11)
    for _ in range(100):
        f = oracles.random_clause_set(rng)
        for k in (1, 2):
            r = propagate(f, k)
            if not r.refuted:
                assert apply_assignment(r.assigned, f) == r.reduced


def test_equisatisfiable_and_forced():
    rng = random.Random(12)
    for _ in range(60):
        f = oracles.random_clause_set(rng, max_n=5, max_c=6)
        sat = oracles.satisfiable_tt(f)
        for k in (1, 2):
            r = propagate(f, k)
            if r.refuted:
                assert not sat
            else:
                assert oracles.satisfiable_tt(r.reduced) == sat
            if sat:
                # every assigned literal holds in every model of f
                for v, b in r.assigned.items():
                    x = v if b == 1 else -v
                    assert oracles.implies_tt(f, clause([x]))


def test_sat_oracle_against_truth_table():
    rng = random.Random(13)
    for _ in range(200):
        f = oracles.random_clause_set(rng, allow_empty_clause=True)
        ok, model = sat_oracle(f)
        assert ok == oracles.satisfiable_tt(f)
        if ok:
            assert apply_assignment(model, f) == frozenset()


def test_sat_oracle_cap():
    f = frozenset([clause([v]) for v in range(1, 30)])
    with pytest.raises(CapExceededError):
        sat_oracle(f)


def test_refuted_reduced_is_bot_singleton():
    assert propagate(cs([1], [-1]), 1).reduced == REFUTED


def test_smu_trees_unsat_minus_clause_sat():
    from cnfkc.trees import tree_to_clauses
    rng = random.Random(14)
    for _ in range(20):
        t = oracles.random_tree(rng, rng.randint(2, 8))
        f = tree_to_clauses(t)
        assert not sat_oracle(f)[0]
        for c in f:
            assert sat_oracle(f - {c})[0]
