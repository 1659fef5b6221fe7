"""The packed-clause engines against their frozenset references."""

import math
import random

from hypothesis import assume, example, given, settings, strategies as st

import cnfkc.propagation
from cnfkc.core import (BOT, TOP, SubsumptionIndex, _mask_key,
                        apply_assignment, bit_literal, bits, clause,
                        clause_key, falsify, flip, instantiate, literal_bit,
                        pack, pack_set, resolve, sorted_clauses,
                        sorted_masks, union, unpack, unpack_set)
from cnfkc.errors import CapExceededError, IntegrityError
from cnfkc.hardness import (_worst_falsifier, hd, hd_at_most, k_res_packed,
                            k_res_refutes, width_refutes)
from cnfkc.mpsdope import (classify_mu, is_mps_packed, mps_enumerate,
                           mps_via_doping, pure_clause)
from cnfkc.primes import implies, prime_implicates
from cnfkc.propagation import (propagate, propagate_packed, sat_oracle,
                               unit_refutation)
from cnfkc.trigger import trigger_hypergraph

import oracles
import references
from strategies import (clause_list_examples, clause_lists, random_3cnf,
                        short_clause_lists, unsat_3cnf)
import pytest


def _clauses_over(f, seed):
    """Clauses to test entailment of: every clause of f, the empty clause,
    and seeded clauses over the literals of f."""
    lits = sorted({x for c in f for x in c}, key=abs)
    rng = random.Random(seed)
    out = set(f) | {BOT}
    for _ in range(6):
        picked = {}
        for x in rng.sample(lits, min(len(lits), rng.randint(1, 3))):
            picked[abs(x)] = x
        out.add(frozenset(picked.values()))
    return sorted_clauses(out)


def test_bit_order_is_the_canonical_literal_order():
    lits = [1, -1, 2, -2, 7, -7, 1000, -1000]
    assert [literal_bit(x) for x in lits] == sorted(
        literal_bit(x) for x in lits)
    assert [bit_literal(literal_bit(x)) for x in lits] == lits
    assert flip(pack([1, -2, 1000])) == pack([-1, 2, -1000])
    assert pack(BOT) == 0 and unpack(0) == BOT
    assert [bit_literal(b) for b in bits(pack([-7, 3, -1]))] == [-1, 3, -7]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.dictionaries(st.integers(1, 12) | st.integers(13, 2000),
                                st.sampled_from((1, -1)), max_size=6),
                max_size=12))
def test_sorted_masks_is_the_sorted_clauses_order(drawn):
    f = frozenset(frozenset(v * s for v, s in c.items()) for c in drawn)
    assert [unpack(m) for m in sorted_masks(pack_set(f))] == \
        sorted_clauses(f)
    for c in f:
        for d in f:
            assert (_mask_key(pack(c)) < _mask_key(pack(d))) == \
                ((len(c), clause_key(c)) < (len(d), clause_key(d)))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.dictionaries(st.integers(1, 5), st.sampled_from((1, -1)),
                                min_size=1, max_size=4), max_size=12),
       st.integers(0, 12))
def test_subsumption_index_answers_as_if_it_kept_every_clause(drawn, start):
    # the index forgets a kept clause once a subset of it is added; add
    # must still answer as a scan over every clause ever kept would
    g = [pack(clause(v * s for v, s in c.items())) for c in drawn]
    index = SubsumptionIndex(union(g), g[:start])
    kept = list(g[:start])
    for r in g[start:]:
        assert index.add(r) == (not any(d & ~r == 0 for d in kept))
        if not any(d & ~r == 0 for d in kept):
            kept.append(r)
    minimal = {d for d in kept if not any(e & ~d == 0 and e != d
                                          for e in kept)}
    if start == 0:
        assert set(index) == minimal and len(index) == len(minimal)
    for b in bits(union(g)):
        assert {d for d in index if d & b} == set(index.holding(b))


def _reversed(cands):
    return cands[::-1]


def _check_trace(f, k, trace):
    """The trace is a k-resolution refutation of f: every step resolves
    two axioms or earlier steps that clash on exactly one variable, one
    of them of at most k literals, and the last step is the empty clause
    (no step at all when f holds it)."""
    if BOT in f:
        assert trace == []
        return
    known = set(f)
    for c, a, b in trace:
        assert a in known and b in known
        assert min(len(a), len(b)) <= k
        assert oracles.resolvable(a, b) and resolve(a, b) == c
        known.add(c)
    assert trace[-1][0] == BOT


@settings(max_examples=300, deadline=None)
@given(clause_lists())
@clause_list_examples
# a clause next to its own superset: at k >= 2 the resolvents {1, 2, 4}
# and {1, 2, -4} of the superset are subsumed, by {1, 2} among others
@example((clause([1, 2]), clause([1, 2, 3]), clause([1, -3]), clause([-1, 4]),
          clause([-1, -4])))
# refuted at k = 2, not at k = 1: the unit cannot help, and the binary
# clauses may not resolve with each other
@example((clause([3]), clause([1, 2]), clause([1, -2]), clause([-1, 2]),
          clause([-1, -2])))
# unsatisfiable: at k >= 2 the derived {-2} subsumes the resolvent {-1, -2}
@example((clause([1, 2]), clause([-1, 2]), clause([-2, 3]), clause([1, 3]),
          clause([-1, -3]), clause([-2, -3])))
def test_engines_match_the_frozenset_references(clauses):
    """Packing, r_k (with and without `select`, `assigned` in order), the
    DPLL and its models, `implies` and whether each saturation refutes
    give exactly what their frozenset versions give, and every trace of
    k-resolution is a refutation."""
    f = frozenset(clauses)
    assert unpack_set(pack_set(f)) == f
    assert [unpack(m) for m in sorted_masks(pack_set(f))] == \
        sorted_clauses(f)
    for k in range(4):
        for select in (None, _reversed):
            want = references.propagate_frozenset(f, k, select=select)
            got = propagate(f, k, select=select)
            assert got.refuted == want.refuted
            assert got.reduced == want.reduced
            assert list(got.assigned.items()) == \
                list(want.assigned.items())
    ok, model = sat_oracle(f)
    assert (ok, model) == references.sat_oracle_frozenset(f)
    assert ok == oracles.satisfiable_tt(f)
    if ok:
        assert apply_assignment(model, f) == TOP
    for c in _clauses_over(f, len(clauses)):
        assert implies(f, c) == references.implies_frozenset(f, c)
    for k in range(4):
        assert k_res_refutes(f, k) == references.k_res_refutes_frozenset(f, k)
        refuted, trace = k_res_refutes(f, k, want_trace=True)
        assert refuted == k_res_refutes(f, k)[0]
        if refuted:
            _check_trace(f, k, trace)
        else:
            assert trace is None
    for w in range(5):
        assert width_refutes(f, w) == references.width_refutes_frozenset(f, w)


@settings(max_examples=200, deadline=None)
@given(clause_lists() | short_clause_lists())
@clause_list_examples
def test_saturation_answers_alike_on_any_clause_order(clauses):
    """`k_res_packed` answers as the frozenset references of k-resolution
    (w unbounded) and of width-w resolution (k = w) on the packed set, on
    its `sorted_masks` list and on that list reversed, which puts a
    longest clause first and the empty clause, if any, last."""
    f = frozenset(clauses)
    g = pack_set(f)
    order = sorted_masks(g)
    inputs = (g, order, order[::-1])
    for k in range(4):
        want = references.k_res_refutes_frozenset(f, k)[0]
        assert [k_res_packed(h, k)[0] for h in inputs] == [want] * 3
    for w in range(5):
        want = references.width_refutes_frozenset(f, w)
        assert [k_res_packed(h, w, w)[0] for h in inputs] == [want] * 3


@settings(max_examples=200, deadline=None)
@given(clause_lists() | short_clause_lists())
@clause_list_examples
def test_level_one_scan_answers_as_the_given_clause_loop(clauses):
    """At k = 1 with no trace asked for, `k_res_packed` answers by unit
    propagation over the clauses of at most w literals; asking for a
    trace runs the given-clause loop.  They agree for every w."""
    g = pack_set(frozenset(clauses))
    for w in (0, 1, 2, 3, 4, math.inf):
        assert k_res_packed(g, 1, w)[0] == \
            k_res_packed(g, 1, w, want_trace=True)[0]


def test_least_level_raises_past_saturation():
    f = frozenset([clause([1]), clause([-1])])
    asked = []

    def never(h, k):
        asked.append(k)
        return False

    with pytest.raises(IntegrityError, match="not refuted at saturation"):
        _worst_falsifier(f, (0,), never)
    assert asked == [0, 1, 2]  # n(f) = 1, so levels 0 to n(f) + 1


@settings(max_examples=200, deadline=None)
@given(clause_lists())
@clause_list_examples
# minimally unsatisfiable, and only widening by a negative literal keeps
# it unsatisfiable
@example((clause([1]), clause([-1, -2]), clause([2])))
# a minimal premise set of its pure clause {2}, which one clause holds
@example((clause([1, 2]), clause([-1])))
def test_mu_classification_matches_the_frozenset_references(clauses):
    f = frozenset(clauses)
    assert classify_mu(f) == references.classify_mu_frozenset(f)
    assert _is_mps(f) == references.is_mps_frozenset(f)


def _is_mps(f):
    """`is_mps_packed` on the clause-set f, its pure clause unpacked."""
    flag, pure = is_mps_packed(pack_set(f))
    return flag, unpack(pure)


def _check_levels_and_dpll(f):
    """Levels 2 to 4 reduce and assign, in order, as the frozenset
    recursion does, with and without `select`, and the DPLL finds the
    reference's model.  The reference shares one cache over the levels,
    which changes none of its answers but keeps level 4 affordable."""
    for select in (None, _reversed):
        cache = {}
        for k in (2, 3, 4):
            want = references.propagate_frozenset(f, k, cache, select)
            got = propagate(f, k, select=select)
            assert got == want
            assert list(got.assigned.items()) == \
                list(want.assigned.items())
    assert sat_oracle(f) == references.sat_oracle_frozenset(f)


@settings(max_examples=100, deadline=None)
@given(short_clause_lists() | unsat_3cnf())
# complementary units: unit propagation refutes before any probe, so
# every candidate is assigned, the lowest first
@example((clause([3]), clause([-3]), clause([1, 2])))
# the units make -1 true: probing -1 refutes at once, and probing 1 is
# the closure of the units itself
@example((clause([-1]), clause([1, 2, 3]), clause([-2, 3]), clause([-3, 4])))
def test_levels_two_to_four_and_the_dpll_match_the_frozenset_references(
        clauses):
    _check_levels_and_dpll(frozenset(clauses))


@settings(max_examples=10, deadline=None)
@given(random_3cnf())
def test_levels_and_the_dpll_match_the_references_on_random_3cnf(clauses):
    """On 12 to 16 variables, level 4 runs level 3 below it."""
    _check_levels_and_dpll(frozenset(clauses))


def test_level_three_instantiates_once_per_assigned_literal(monkeypatch):
    """Level 3 decides its probes on masks over one occurrence index: on
    an unsatisfiable random 3-CNF that level 2 leaves open and level 3
    refutes, it copies the clause-set only to assign, not to probe."""
    rng = random.Random(0)
    f = frozenset(clause(v * rng.choice((1, -1))
                         for v in rng.sample(range(1, 21), 3))
                  for _ in range(100))
    g = pack_set(f)
    assert not sat_oracle(f)[0]
    assert 0 not in propagate_packed(g, 2, {})[0]
    calls = []
    real = cnfkc.propagation.instantiate

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cnfkc.propagation, "instantiate", counted)
    reduced, assigned = propagate_packed(g, 3, {})
    assert 0 in reduced
    assert len(calls) <= len(assigned)


def _mu_core(f):
    """A minimally unsatisfiable subset of the unsatisfiable f, by
    deletion in canonical order."""
    core = set(f)
    for c in sorted_clauses(f):
        if not sat_oracle(frozenset(core - {c}))[0]:
            core.discard(c)
    return frozenset(core)


@settings(max_examples=100, deadline=None)
@given(short_clause_lists() | unsat_3cnf())
def test_is_mps_tests_only_minimal_unsatisfiability(clauses):
    """`is_mps_packed` is contraction-freeness plus `classify_mu(...).mu`
    of the images, and agrees with the frozenset reference; on
    unsatisfiable input, also on a minimally unsatisfiable core, which is
    a member."""
    f = frozenset(clauses)
    subsets = [f]
    if not sat_oracle(f)[0]:
        subsets.append(_mu_core(f))
        assert _is_mps(subsets[-1]) == (True, BOT)
    for sub in subsets:
        pure = pure_clause(sub)
        images = frozenset(c - pure for c in sub)
        want = len(images) == len(sub) and classify_mu(images).mu
        assert (_is_mps(sub) == (want, pure)
                == references.is_mps_frozenset(sub))


@settings(max_examples=60, deadline=None)
@given(short_clause_lists() | unsat_3cnf(max_vars=4))
def test_mps_enumerate_matches_the_doping_route(clauses):
    f = frozenset(clauses)
    assume(len(f) <= 12)
    assert mps_enumerate(f).members == mps_via_doping(f).members


def test_a_cache_shared_by_two_clause_sets_keeps_them_apart():
    # a per-call numbering would give both sets the same packed form
    f = frozenset([clause([1]), clause([-1, 2])])
    g = frozenset([clause([7]), clause([-7, 9])])
    cache = {}
    first = propagate(f, 2, cache=cache)
    second = propagate(g, 2, cache=cache)
    assert first.assigned == {1: 1, 2: 1}
    assert second.assigned == {7: 1, 9: 1}
    assert second == propagate(g, 2)
    assert propagate(f, 2, cache=cache) == first
    primes = prime_implicates(g)
    assert hd_at_most(pack_set(g), 1, primes)
    assert not hd_at_most(pack_set(g), 0, primes)
    assert hd(g) == 1


@settings(max_examples=200, deadline=None)
@given(clause_lists())
@clause_list_examples
def test_unit_refutation_matches_level_one_propagation(clauses):
    """Under the falsifier of each clause of `_clauses_over`, the kernel
    refutes exactly when `propagate_packed` at level 1 does, and the
    clauses it returns are a subset of the input that unit propagation
    refutes on its own."""
    g = pack_set(clauses)
    for c in map(pack, _clauses_over(clauses, 23)):
        true = flip(c)
        cert = unit_refutation(g, true)
        assert (cert is not None) == (
            0 in propagate_packed(falsify(g, c), 1, {})[0])
        if cert is not None:
            assert cert <= g
            assert 0 in propagate_packed(instantiate(cert, true, c), 1,
                                         {})[0]


def _grow_then_shrink(primes, rng):
    """Subsets of the prime table as a greedy base search walks them:
    growing in the table's order, then shrinking in a seeded order."""
    sub = frozenset()
    for c in primes:
        sub |= {c}
        yield sub
    for c in rng.sample(primes, len(primes)):
        sub -= {c}
        yield sub


@settings(max_examples=150, deadline=None)
@given(short_clause_lists(), st.randoms(use_true_random=False))
def test_hd_at_most_with_shared_proofs_answers_as_without(clauses, rng):
    """One `proofs` dict over a grow-then-shrink walk changes no answer,
    and each certificate stored is a subset of the clause-set it came
    from that level-k propagation refutes under its prime's falsifier."""
    primes = prime_implicates(frozenset(clauses))
    for k in range(3):
        proofs = {}
        for sub in _grow_then_shrink(primes, rng):
            before = dict(proofs)
            want = all(0 in propagate_packed(falsify(sub, c), k, {})[0]
                       for c in primes)
            assert hd_at_most(sub, k, primes) == want
            assert hd_at_most(sub, k, primes, proofs=proofs) == want
            for c, cert in proofs.items():
                if before.get(c) is not cert:
                    assert cert <= sub
                    assert 0 in propagate_packed(falsify(cert, c), k,
                                                 {})[0]


def test_implies_caps_the_instantiated_variables():
    f = frozenset(clause([v, v + 1]) for v in range(1, 40, 2))
    with pytest.raises(CapExceededError):
        implies(f, clause([1]))
    # falsifying 1..16 leaves the 24 variables 17..40
    assert implies(f, clause(range(1, 17)), cap_vars=24)
    with pytest.raises(CapExceededError):
        implies(f, clause(range(1, 17)), cap_vars=23)


def test_saturation_caps_still_apply():
    f = frozenset(clause([v, -(v + 1)]) for v in range(1, 30))
    with pytest.raises(CapExceededError,
                       match="^bounded resolution exceeded 40 clauses$"):
        k_res_refutes(f, 2, cap_clauses=40)
    with pytest.raises(CapExceededError,
                       match="^width-bounded resolution exceeded 40 clauses$"):
        width_refutes(f, 2, cap_clauses=40)


@settings(max_examples=200, deadline=None)
@given(clause_lists())
@clause_list_examples
def test_trigger_edges_match_the_frozenset_scan(clauses):
    primes = prime_implicates(clauses)
    unpacked = unpack_set(primes)
    for k in range(4):
        g = trigger_hypergraph(primes, k)
        assert tuple(map(unpack, g.vertices)) == tuple(
            sorted_clauses(unpacked))
        assert g.edges == references.trigger_edges_frozenset(unpacked, k)
