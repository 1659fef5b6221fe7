import itertools
import random

import pytest
from hypothesis import example, given, settings

from cnfkc.core import (clause, pack_set, sorted_masks, subsumption_eliminate,
                        unpack_set)
from cnfkc.errors import CapExceededError
from cnfkc.primes import essential_primes, implies, prime_implicates
from cnfkc.trigger import trigger_hypergraph

import oracles
from references import equivalent
from oracles import prime_implicates_bruteforce
from strategies import clause_list_examples, clause_lists, short_clause_lists


def cs(*clauses):
    return frozenset(clause(c) for c in clauses)


def test_implies_basics():
    f = cs([1, 2], [-1, 2])
    for c in f:
        assert implies(f, c)
    assert implies(f, clause([2]))
    assert not implies(f, clause([1]))


def test_implies_matches_truth_table():
    rng = random.Random(21)
    for _ in range(120):
        f = oracles.random_clause_set(rng)
        c = clause(v * rng.choice((1, -1))
                   for v in rng.sample(range(1, 7), rng.randint(1, 3)))
        assert implies(f, c) == oracles.implies_tt(f, c)


def test_prime_implicates_unsat_is_bot():
    assert prime_implicates(cs([1], [-1])) == (0,)
    assert prime_implicates(frozenset()) == ()


def test_prime_implicates_trighyp_fixpoint():
    f = cs([1, -3, -4], [2, 3, -4], [2, -3, 4], [-2, 3, 4], [1, 3, 4],
           [1, 2])
    assert unpack_set(prime_implicates(f)) == f


def test_prime_implicates_doped_gn_count():
    from cnfkc.cli import build_g_n
    from cnfkc.mpsdope import dope
    for n in (2, 3, 4):
        d = dope(build_g_n(n))
        assert len(prime_implicates(d.doped)) == 2 ** n + n


def test_closure_matches_bruteforce():
    rng = random.Random(22)
    for _ in range(80):
        f = oracles.random_clause_set(rng, max_n=5, max_c=7)
        assert unpack_set(prime_implicates(f)) == (
            prime_implicates_bruteforce(f))


def cl(*clauses):
    return tuple(clause(c) for c in clauses)


@settings(max_examples=300, deadline=None)
@given(clause_lists() | short_clause_lists())
@clause_list_examples
# the closure eliminates 2, 3, 4, 5, 1: 1 occurs most
@example(cl([1, 2], [1, 3], [-1, 4], [-1, 5], [-2, -4], [-3, -5]))
# 3, 5, 2, 4, 1
@example(cl([1, -2], [1, 3], [-1, 4], [2, -3, -4], [-1, -4, 5], [-5, 2]))
# 5, 3, 2, 7, 1000 on sparse ids
@example(cl([1000, -7], [7, 3], [7, -3, 2], [-1000, 2], [-1000, -2, 5]))
def test_closure_matches_allpairs_and_bruteforce(f):
    # the prime table: packed primes in canonical order, which its
    # consumers take as they are
    primes = prime_implicates(f)
    assert primes == tuple(sorted_masks(pack_set(
        prime_implicates_bruteforce(f))))
    assert unpack_set(primes) == oracles.prime_implicates_allpairs(f)
    assert trigger_hypergraph(primes, 1).vertices is primes
    assert essential_primes(primes) <= set(primes)


def test_doped_tree_k2_h4_closure_has_one_prime_per_leafset():
    # 15 leaves; the closure takes about a second in elimination-cost
    # order and over a minute in ascending variable order
    from cnfkc.cli import build_extremal_doped
    _, d = build_extremal_doped(2, 4)
    assert len(prime_implicates(d.doped)) == 2 ** 15 - 1


def test_doped_tree_k1_h4_has_one_prime_per_leafset():
    # the doped extremal tree at (k=1, h=4) has 11 leaves, so 2^11 - 1
    # primes, one per nonempty set of leaves
    from cnfkc.cli import build_extremal_doped
    from cnfkc.trees import doped_clause_of_leafset, leaf_paths
    t, d = build_extremal_doped(1, 4)
    addrs = sorted(leaf_paths(t))
    assert len(addrs) == 11
    primes = unpack_set(prime_implicates(d.doped))
    assert len(primes) == 2 ** 11 - 1
    assert primes == {doped_clause_of_leafset(t, d, combo)
                      for r in range(1, len(addrs) + 1)
                      for combo in itertools.combinations(addrs, r)}


def test_closure_cap_bounds_the_working_set():
    # the working set of the doped (k=1, h=3) tree peaks at its 127
    # primes, after the last variable: a cap of 127 answers, and any
    # smaller cap stops the closure
    from cnfkc.cli import build_extremal_doped
    _, d = build_extremal_doped(1, 3)
    primes = prime_implicates(d.doped, cap_clauses=127)
    assert len(primes) == 127 and primes == prime_implicates(d.doped)
    for cap in (8, 126):
        with pytest.raises(CapExceededError,
                           match="closure exceeded %d clauses" % cap):
            prime_implicates(d.doped, cap_clauses=cap)


def test_antichain_and_minimality():
    rng = random.Random(23)
    for _ in range(40):
        f = oracles.random_clause_set(rng)
        primes = unpack_set(prime_implicates(f))
        assert subsumption_eliminate(primes) == primes
        for c in primes:
            assert implies(f, c)
            for x in c:
                assert not implies(f, c - {x})


def test_essential_primes():
    assert essential_primes(prime_implicates(cs([1]))) == pack_set(cs([1]))
    # doped clauses are always essential primes of the doped clause-set
    from cnfkc.mpsdope import dope
    rng = random.Random(25)
    for _ in range(15):
        f = oracles.random_clause_set(rng, max_n=4, max_c=4)
        d = dope(f)
        ess = essential_primes(prime_implicates(d.doped))
        assert pack_set(d.doped) <= ess


@settings(max_examples=300, deadline=None)
@given(clause_lists() | short_clause_lists())
@clause_list_examples
# unit propagation leaves the prime {1, 2} open though the others entail
# it, so the DPLL decides it
@example(cl([1, 2], [1, 3, 4], [-1, -2], [-1, -2, 3, 4], [-1, -3, 2, 4],
            [-1, -4, 2, 3], [-1, -2, -4, 3], [-2, -3, -4, 1]))
def test_essential_primes_match_the_truth_table(f):
    primes = unpack_set(prime_implicates(f))
    assert unpack_set(essential_primes(prime_implicates(f))) == {
        c for c in primes if not oracles.implies_tt(primes - {c}, c)}


def test_essential_primes_reach_the_cap_only_past_unit_propagation():
    # unit propagation shows every prime of f replaceable, so no DPLL
    # runs and the variable cap of 0 is never checked
    f = cs([-1, -3], [1, 2, -3], [-1, -2, 3], [-2, 3], [1, 2])
    assert essential_primes(prime_implicates(f), cap_vars=0) == frozenset()
    # a unit prime is essential, so the DPLL decides it under the cap
    with pytest.raises(CapExceededError):
        essential_primes(prime_implicates(cs([1], [2])), cap_vars=0)


def test_equivalent():
    f = cs([1], [1, 2])
    assert equivalent(f, cs([1]))
    assert equivalent(f, unpack_set(prime_implicates(f)))
    assert not equivalent(f, cs([2]))
    rng = random.Random(26)
    for _ in range(30):
        g = oracles.random_clause_set(rng)
        assert equivalent(g, unpack_set(prime_implicates(g)))
        assert equivalent(g, subsumption_eliminate(g))


def test_equivalent_subset_size_at_least_essential_count():
    # any equivalent subset of the primes keeps every essential prime
    from cnfkc.mpsdope import dope
    from cnfkc.cli import build_g_n
    d = dope(build_g_n(3))
    primes = unpack_set(prime_implicates(d.doped))
    ess = unpack_set(essential_primes(prime_implicates(d.doped)))
    assert ess <= primes
    for c in ess:
        assert not equivalent(primes - {c}, primes)
