import functools
import random

from hypothesis import assume, example, given, settings

from cnfkc.compile import (answer_query, count_models, enumerate_models,
                           equivalent_subset, greedy_base, k_base,
                           smallest_base)
from cnfkc.core import (TOP, apply_assignment, clause, falsify, pack,
                        pack_set, sorted_clauses, sorted_masks, unpack_set,
                        variables)
from cnfkc.errors import CapExceededError, IntegrityError, ParseError
from cnfkc.hardness import derives, hd, k_res_packed, whd
from cnfkc.mpsdope import dope
from cnfkc.primes import essential_primes, implies, prime_implicates
from cnfkc.trees import extremal_tree, tree_to_clauses

import oracles
from oracles import check_query_against_oracle
import pytest
import references
from references import equivalent, min_equivalent_of, smallest_hd_base
from strategies import clause_lists, short_clause_lists


def cs(*clauses):
    return frozenset(clause(c) for c in clauses)


def test_k_base_horn_chain_is_itself():
    from cnfkc.cli import build_horn_chain
    for h in (2, 3, 4):
        f = build_horn_chain(h).doped
        primes = prime_implicates(f)
        base = k_base(primes, 1)
        assert base.clauses == f
        assert smallest_hd_base(primes, 1, 18) == f


def test_k_base_invariants_on_corpus():
    rng = random.Random(81)
    for _ in range(20):
        f = oracles.random_clause_set(rng, max_n=4, max_c=5)
        primes = prime_implicates(f)
        for k in (1, 2):
            base = k_base(primes, k)
            assert base.clauses <= primes
            assert equivalent(base.clauses, f)
            assert hd(base.clauses) <= k
            for c in base.clauses:
                trial = base.clauses - {c}
                assert (not equivalent(trial, f)) or hd(trial) > k


def test_k_base_monotone_size_in_k():
    rng = random.Random(82)
    for _ in range(15):
        f = oracles.random_clause_set(rng, max_n=4, max_c=5)
        primes = prime_implicates(f)
        sizes = [len(k_base(primes, k).clauses) for k in (1, 2, 3)]
        assert sizes[0] >= sizes[1] >= sizes[2]


def test_k_base_matches_exhaustive_small():
    rng = random.Random(83)
    for _ in range(15):
        f = oracles.random_clause_set(rng, max_n=4, max_c=4)
        primes = prime_implicates(f)
        if len(primes) > 10:
            continue
        loose = k_base(primes, 1)
        exact = smallest_hd_base(primes, 1, 18)
        assert len(exact) <= len(loose.clauses)
        assert equivalent(exact, f)
        assert hd(exact) <= 1


def test_k_base_doped_tree_respects_transversal():
    from cnfkc.trigger import transversal_number, trigger_hypergraph
    d = dope(tree_to_clauses(extremal_tree(2, 2)))
    primes = prime_implicates(d.doped)
    tau = transversal_number(trigger_hypergraph(d.doped, 1, primes=primes))
    base = k_base(primes, 1)
    assert len(base.clauses) >= tau.value


def test_model_enumeration_dead_end_is_an_integrity_error(monkeypatch):
    import cnfkc.compile
    # a saturation that refutes nothing leaves the empty clause at a
    # total assignment, which no correct run reaches
    monkeypatch.setattr(cnfkc.compile, "k_res_packed",
                        lambda g, k: (False, None))
    # the walk meets it as a clause-set with no variable left, and stops
    for run in (enumerate_models, count_models):
        with pytest.raises(IntegrityError, match="total assignment") as err:
            run(cs([1]), 1)
        assert err.value.witness == {1: 0}


def test_k_base_cap():
    d = dope(tree_to_clauses(extremal_tree(2, 3)))
    primes = prime_implicates(d.doped)
    assert smallest_hd_base(primes, 1, 18) is None


def test_k_base_exhaustive_cap_spares_a_good_essential_core():
    from cnfkc.cli import build_extremal_doped, build_horn_chain
    f = build_horn_chain(3).doped
    # the chain's essential primes are the chain, which is within hd 1,
    # so the search answers before its cap is consulted
    assert smallest_hd_base(prime_implicates(f), 1, 0) == f
    d = build_extremal_doped(1, 2)[1]
    assert smallest_hd_base(prime_implicates(d.doped), 1, 0) is None


def test_smallest_base_rejecting_everything_is_an_integrity_error():
    primes = prime_implicates(cs([1, 2], [-1, 2], [3, 4]))
    with pytest.raises(IntegrityError):
        smallest_base(sorted_clauses(primes), frozenset(),
                      lambda sub: False, 0, len(primes))


@settings(max_examples=60, deadline=None)
@given(short_clause_lists())
def test_exact_searches_match_the_brute_force_reference(clauses):
    """`smallest_base` under hardness k and `min_equivalent_size` find
    what a scan of every prime subset by size finds, checked by truth
    tables and the definitions of hd and whd; under a cap that stops
    them, the first returns None and the second flags a floor no larger
    than it."""
    f = frozenset(clauses)
    primes = prime_implicates(f)
    assume(1 < len(primes) <= 10)
    hd_of = functools.cache(oracles.hd_by_definition)
    whd_of = functools.cache(references.whd_by_definition)
    for k in range(3):
        want = references.smallest_equivalent_subset(
            primes, lambda sub: hd_of(sub) <= k)
        assert smallest_hd_base(primes, k, len(primes)) == want
        capped = smallest_hd_base(primes, k, 0)
        if capped is not None:
            assert capped == want
        want = references.smallest_equivalent_subset(
            primes, lambda sub: whd_of(sub) <= k)
        got = min_equivalent_of(f, k, cap_primes=len(primes))
        assert got.exact and got.representative == want
        assert got.size == got.lower_bound == len(want)
        capped = min_equivalent_of(f, k, cap_primes=0)
        if capped.exact:
            assert capped == got
        else:
            assert capped.representative == frozenset()
            assert capped.size == capped.lower_bound <= len(want)


def _implication_cycles(seed):
    """(f, its packed primes in `sorted_masks` order, the packed essential
    primes) for 30 seeded sets.  An implication cycle alone has no
    essential prime, so the additions can overshoot and leave the sweep
    work to do."""
    rng = random.Random(seed)
    for _ in range(30):
        lits = [v * rng.choice((1, -1)) for v in rng.sample(range(1, 7), 4)]
        f = frozenset(clause([-a, b])
                      for a, b in zip(lits, lits[1:] + lits[:1]))
        f |= oracles.random_clause_set(rng, max_n=6, max_c=3)
        primes = prime_implicates(f)
        ess = pack_set(essential_primes(primes, primes=primes))
        yield f, sorted_masks(pack_set(primes)), ess


def test_greedy_base_never_tries_without_an_essential_prime(monkeypatch):
    import cnfkc.compile
    real = cnfkc.compile.entails
    tested = []

    def entails(g, c):
        tested.append(g)
        return real(g, c)

    # every entailment test, the sweep's removal trials included
    monkeypatch.setattr(cnfkc.compile, "entails", entails)
    swept = 0
    for f, order, ess in _implication_cycles(86):
        tried = []
        tested.clear()

        def level(sub):
            tried.append(sub)
            return True

        base, added, removed = greedy_base(order, ess, level)
        assert all(ess <= g for g in tested)
        # `level` only ever sees subsets equivalent to the primes
        packed = frozenset(order)
        assert all(ess <= sub and equivalent_subset(sub, packed)
                   for sub in tried)
        assert equivalent(unpack_set(base), f) and ess <= base
        assert base == (ess | frozenset(added)) - frozenset(removed)
        swept += len(tried) > 1
    assert swept >= 5


def test_greedy_base_tries_each_prime_for_removal_at_most_once(monkeypatch):
    import cnfkc.compile
    real_entails = cnfkc.compile.entails
    real_equivalent = cnfkc.compile.equivalent_subset
    checking = []  # non-empty inside an equivalence check
    targets = []  # the prime of every removal trial

    def entails(g, c):
        if not checking:
            targets.append(c)
        return real_entails(g, c)

    def equivalent_subset(*args):
        checking.append(True)
        try:
            return real_equivalent(*args)
        finally:
            checking.pop()

    monkeypatch.setattr(cnfkc.compile, "entails", entails)
    monkeypatch.setattr(cnfkc.compile, "equivalent_subset", equivalent_subset)
    removals = 0
    for _, order, ess in _implication_cycles(86):
        targets.clear()
        _, _, removed = greedy_base(order, ess, lambda sub: True)
        assert len(targets) == len(set(targets))
        removals += bool(removed)
    assert removals >= 5


def test_k_base_certificates_cut_the_level_one_refutations(monkeypatch):
    """A seeded satisfiable random 3-CNF (n = 10, m = 30, 58 primes):
    `k_base` with its shared refutation certificates runs at most a
    third of the level-1 refutations it runs without them, for the same
    base."""
    import cnfkc.compile
    import cnfkc.hardness
    rng = random.Random(1)
    f = frozenset(clause(v * rng.choice((1, -1))
                         for v in rng.sample(range(1, 11), 3))
                  for _ in range(30))
    primes = prime_implicates(f)
    assert len(primes) == 58
    real_refutation = cnfkc.hardness.unit_refutation
    real_hd_at_most = cnfkc.compile.hd_at_most
    calls = []

    def unit_refutation(g, true):
        calls.append(g)
        return real_refutation(g, true)

    monkeypatch.setattr(cnfkc.hardness, "unit_refutation", unit_refutation)
    with_proofs = k_base(primes, 1)
    reused = len(calls)
    calls.clear()
    monkeypatch.setattr(
        cnfkc.compile, "hd_at_most",
        lambda g, k, primes, cache=None, proofs=None:
        real_hd_at_most(g, k, primes, cache))
    assert k_base(primes, 1) == with_proofs
    assert 3 * reused <= len(calls)


def test_derives_answers_true_for_a_clause_of_the_set(monkeypatch):
    """A clause of g leaves the empty clause under its falsifier, so the
    saturation says yes; `derives` says so without running it."""
    import cnfkc.compile
    import cnfkc.hardness
    f = cs([1, 2], [-1, 3], [2, -3, 4], [-4])
    g = pack_set(f)
    assert all(k_res_packed(falsify(g, pack(c)), 0)[0] for c in f)

    def no_saturation(g, k):
        raise AssertionError("saturation run for a clause of the set")

    for module in (cnfkc.compile, cnfkc.hardness):
        monkeypatch.setattr(module, "k_res_packed", no_saturation)
    for c in f:
        assert derives(g, pack(c), 0, {})
        assert answer_query("CE", f, 0, clause=c)
    assert answer_query("EQ", f, 0, other=f)


def _outcome(run):
    """What `run()` returns, or the type, message and witness it raises."""
    try:
        return run()
    except (CapExceededError, IntegrityError) as err:
        witness = getattr(err, "witness", None)
        return type(err), str(err), witness and list(witness.items())


@settings(max_examples=100, deadline=None)
@given(short_clause_lists())
@example((frozenset({1, 2}), frozenset({-1, -2, 3}), frozenset({-1, -2, -3})))
def test_models_match_the_dict_walk(clauses):
    """ME lists the models of `references.models_by_walk` in its order,
    key order included, and MC counts them, at k = whd(f); below it and
    under a small cap, both raise what the walk raises, and at k = whd(f)
    under the caps at and just below the model count too.  In the named
    case, at k = 0 under cap 3, the running count passes the cap in the
    second branch of x1 before that branch meets an integrity error."""
    f = frozenset(clauses)
    top = whd(f)
    want = references.models_by_walk(f, top)
    got = enumerate_models(f, top)
    assert [list(m.items()) for m in got] == [list(m.items()) for m in want]
    assert answer_query("MC", f, top) == len(want)
    edges = [cap for cap in (len(want), len(want) - 1) if cap >= 0]
    for k in range(top + 1):
        for cap in [2 ** 20, 3] + (edges if k == top else []):
            want = _outcome(lambda: references.models_by_walk(f, k, cap))
            assert _outcome(lambda: enumerate_models(f, k, cap)) == want
            if isinstance(want, list):
                want = len(want)
            assert _outcome(lambda: answer_query("MC", f, k,
                                                 cap_models=cap)) == want


def test_query_co_ce_against_oracle():
    rng = random.Random(85)
    for _ in range(40):
        f = oracles.random_clause_set(rng, max_n=4, max_c=5)
        k = whd(f)
        assert answer_query("CO", f, k) == check_query_against_oracle(
            "CO", f, k)
        c = clause(v * rng.choice((1, -1))
                   for v in rng.sample(range(1, 5), rng.randint(1, 2)))
        assert answer_query("CE", f, k, clause=c) == (
            check_query_against_oracle("CE", f, k, clause=c))


def test_query_va_im():
    assert answer_query("VA", TOP, 0)
    assert not answer_query("VA", cs([1]), 0)
    f = cs([1, 2], [-1, 2])
    assert answer_query("IM", f, 1, assignment={2: 1})
    assert not answer_query("IM", f, 1, assignment={1: 1})
    assert not answer_query("IM", f, 1, assignment={2: 0})


def test_query_se_eq():
    f = cs([1], [2])
    g = cs([1, 2], [1], [2])
    assert answer_query("SE", f, 1, other=g)
    assert answer_query("EQ", f, 1, other=g)
    assert not answer_query("EQ", f, 1, other=cs([1]))
    with pytest.raises(ParseError):
        answer_query("SE", f, 1)
    with pytest.raises(ParseError):
        answer_query("bogus", f, 1)


def test_se_and_eq_pack_each_clause_set_once(monkeypatch):
    import cnfkc.compile
    calls = []

    def counting(g):
        calls.append(g)
        return pack_set(g)

    monkeypatch.setattr(cnfkc.compile, "pack_set", counting)
    f = cs([1], [2], [3])
    other = cs([1, 2], [1, 3], [2, 3], [1], [2, -4])
    assert answer_query("SE", f, 1, other=other)
    assert sorted(calls, key=len) == [f, other]
    calls.clear()
    assert not answer_query("EQ", f, 1, other=other)
    assert len(calls) == 2


def test_me_mc_doped_tree_against_truth_table():
    rng = random.Random(86)
    for _ in range(5):
        t = oracles.random_tree(rng, 5)
        d = dope(tree_to_clauses(t))
        k = whd(d.doped)
        found = answer_query("ME", d.doped, k)
        expect = oracles.models_tt(d.doped)
        assert sorted(found, key=sorted) == sorted(expect, key=sorted)
        assert answer_query("MC", d.doped, k) == len(expect)


def test_me_against_truth_table_corpus():
    rng = random.Random(87)
    for _ in range(25):
        f = oracles.random_clause_set(rng, max_n=4, max_c=5)
        k = whd(f)
        found = enumerate_models(f, k)
        assert sorted(found, key=sorted) == sorted(
            oracles.models_tt(f), key=sorted)
        assert all(set(m) == variables(f) for m in found)


def _split_leaves_a_variable_out(f):
    """Does a value of f's lowest variable leave out another variable?"""
    vs = variables(f)
    v = min(vs)
    return any(variables(apply_assignment({v: b}, f)) < vs - {v}
               for b in (0, 1))


def test_mc_scales_the_variables_a_split_leaves_out():
    # in the first, 1 true satisfies the clauses holding 2 or 3, and 1
    # false the one holding 4
    named = [cs([1, 2], [1, 3], [-1, 4]),
             cs([1, 2, 3], [-1, 4], [-1, 5, -6], [2, -3]),
             cs([1, 5], [-1, 2], [-2, 3], [-3, 4])]
    assert all(map(_split_leaves_a_variable_out, named))
    rng = random.Random(88)
    drawn = [f for f in (oracles.random_clause_set(rng, max_n=6, max_c=6)
                         for _ in range(60)) if variables(f)]
    assert sum(map(_split_leaves_a_variable_out, drawn)) >= len(drawn) // 3
    for f in named + drawn:
        assert count_models(f, whd(f)) == len(oracles.models_tt(f))


@functools.cache
def _doped_base():
    """The doped (1,3) tree's primes and their level-2 base."""
    from cnfkc.cli import build_extremal_doped
    primes = prime_implicates(build_extremal_doped(1, 3)[1].doped)
    return primes, k_base(primes, 2).clauses


def _counted_saturations(monkeypatch):
    """The clause-sets that the k-resolution calls of the query answers
    (in `compile` and in `hardness.derives`) get, in order."""
    import cnfkc.compile
    import cnfkc.hardness
    calls = []

    def counted(g, k):
        calls.append(g)
        return k_res_packed(g, k)

    for module in (cnfkc.compile, cnfkc.hardness):
        monkeypatch.setattr(module, "k_res_packed", counted)
    return calls


def test_mc_decides_each_residual_clause_set_once(monkeypatch):
    """MC and ME on the level-2 base of the doped (1,3) tree meet 14
    distinct residual clause-sets, where a walk in variable order ran
    3071 saturations."""
    base = _doped_base()[1]
    calls = _counted_saturations(monkeypatch)
    assert answer_query("MC", base, 2) == 4096
    assert 0 < len(calls) <= 14
    calls.clear()
    assert len(answer_query("ME", base, 2)) == 4096
    assert 0 < len(calls) <= 14


def test_eq_decides_each_falsified_instance_once(monkeypatch):
    """EQ of that base against its 127 primes meets 37 distinct
    falsified instances, where one saturation per clause ran 120."""
    primes, base = _doped_base()
    calls = _counted_saturations(monkeypatch)
    assert answer_query("EQ", base, 2, other=primes)
    assert 0 < len(calls) <= 37


def test_me_integrity_error_names_witness():
    f = cs([1, 2], [1, -2], [-1, 2], [-1, -2])
    assert whd(f) == 2
    with pytest.raises(IntegrityError) as info:
        enumerate_models(f, 0)
    assert info.value.witness == {1: 0}
    with pytest.raises(IntegrityError):
        answer_query("MC", f, 0)


def test_verify_flag_rejects_too_hard_input():
    f = cs([1, 2], [1, -2], [-1, 2], [-1, -2])
    with pytest.raises(IntegrityError):
        answer_query("CO", f, 0, verify=True)
    assert not answer_query("CO", f, 2, verify=True)


def test_me_cap():
    f = cs([1], list(range(2, 12)))
    with pytest.raises(CapExceededError):
        enumerate_models(f, 1, cap_models=8)


def test_ce_uc1_decided_by_unit_propagation():
    # clausal entailment on a hardness-1 clause-set needs only level 1
    f = cs([1], [-1, 2], [-1, -2, 3])
    assert hd(f) == 1
    for c in prime_implicates(f):
        assert answer_query("CE", f, 1, clause=c)
    assert not answer_query("CE", f, 1, clause=clause([-1]))
    assert not answer_query("CE", f, 1, clause=clause([-3]))


def test_k_base_rejects_a_negative_level():
    primes = _doped_base()[0]
    with pytest.raises(ParseError):
        k_base(primes, -1)
