import random
from math import comb

from hypothesis import example, given, settings, strategies as st

from cnfkc.core import clause, pack, unpack, unpack_set
from cnfkc.errors import ParseError
from cnfkc.hardness import whd
from cnfkc.mpsdope import dope
from cnfkc.primes import prime_implicates
from cnfkc.trees import (doped_clause_of_leafset, extremal_tree, leaf_paths,
                         tree_to_clauses)
from cnfkc.trigger import (TriggerHypergraph, extremal_sperner_bound,
                           hypergraph_to_json, matching_number,
                           sperner_witness, transversal_number,
                           trigger_hypergraph)

import oracles
import pytest
from references import equivalent, greedy_whd_base, min_equivalent_of


def cs(*clauses):
    return frozenset(clause(c) for c in clauses)


# six self-prime clauses; C6 = {1,2} is the only short one
TRIG = cs([1, -3, -4], [2, 3, -4], [2, -3, 4], [-2, 3, 4], [1, 3, 4],
          [1, 2])


def trigger_of(f, k):
    """The level-k trigger hypergraph of the clause-set f."""
    return trigger_hypergraph(prime_implicates(f), k)


def edge_of(g, c):
    return g.edges[g.vertices.index(pack(clause(c)))]


def named(g, idxs):
    return {unpack(g.vertices[i]) for i in idxs}


def test_level0_edges_are_singletons():
    g = trigger_of(TRIG, 0)
    assert all(e == frozenset([i]) for i, e in enumerate(g.edges))
    rng = random.Random(71)
    for _ in range(30):
        f = oracles.random_clause_set(rng)
        g = trigger_of(f, 0)
        assert all(e == frozenset([i]) for i, e in enumerate(g.edges))


def test_trighyp_example_edges():
    assert unpack_set(prime_implicates(TRIG)) == TRIG
    g1 = trigger_of(TRIG, 1)
    assert named(g1, edge_of(g1, [1, 2])) == cs([1, 2])
    g2 = trigger_of(TRIG, 2)
    assert named(g2, edge_of(g2, [1, 2])) == cs(
        [1, -3, -4], [2, 3, -4], [2, -3, 4], [1, 3, 4], [1, 2])
    for k in (3, 4, 7):
        assert trigger_of(TRIG, k).edges == g2.edges


def test_vertex_always_in_own_edge():
    rng = random.Random(72)
    for _ in range(40):
        f = oracles.random_clause_set(rng)
        for k in (0, 1, 2):
            g = trigger_of(f, k)
            for i, e in enumerate(g.edges):
                assert i in e
                c = unpack(g.vertices[i])
                neg = {-x for x in c}
                for j in e:
                    d = unpack(g.vertices[j])
                    assert not (d & neg) and len(d - c) <= k


def test_equivalence_invariance():
    rng = random.Random(73)
    for _ in range(30):
        f = oracles.random_clause_set(rng)
        primes = unpack_set(prime_implicates(f))
        for k in (0, 1, 2):
            assert trigger_of(f, k) == trigger_of(primes, k)


def test_transversal_trivial_cases():
    singles = TriggerHypergraph(
        vertices=tuple(range(5)),
        edges=tuple(frozenset([i]) for i in range(5)), k=0)
    r = transversal_number(singles)
    assert r.value == 5 and r.exact
    one_big = TriggerHypergraph(
        vertices=tuple(range(5)),
        edges=(frozenset(range(5)),) * 5, k=1)
    r = transversal_number(one_big)
    assert r.value == 1 and r.exact


def test_transversal_of_trighyp_contains_forced_vertex():
    g = trigger_of(TRIG, 1)
    r = transversal_number(g)
    assert r.exact
    assert clause([1, 2]) in named(g, r.witness)
    for e in g.edges:
        assert e & set(r.witness)


def test_matching_trivial_cases():
    singles = TriggerHypergraph(
        vertices=tuple(range(4)),
        edges=tuple(frozenset([i]) for i in range(4)), k=0)
    r = matching_number(singles)
    assert r.value == 4 and r.exact
    twins = TriggerHypergraph(
        vertices=tuple(range(3)),
        edges=(frozenset([0, 1]), frozenset([0, 1])), k=1)
    assert matching_number(twins).value == 1


def test_matching_on_a_deep_star_does_not_recurse():
    # 1600 edges through vertex 0: the take branch runs 1600 edges deep
    star = TriggerHypergraph(
        vertices=tuple(range(1601)),
        edges=tuple(frozenset([0, i]) for i in range(1, 1601)), k=1)
    r = matching_number(star, cap_nodes=5000)
    assert r.value == 1 and not r.exact


def _row_hypergraph(k, h):
    from cnfkc.cli import build_extremal_doped
    _, d = build_extremal_doped(k, h)
    return trigger_of(d.doped, k)


@pytest.fixture(scope="module")
def k1_h4():
    """The level-1 hypergraph of the doped (1,4) tree: 2047 vertices,
    about a second to build."""
    return _row_hypergraph(1, 4)


def test_matching_on_the_k1_h4_hypergraph_under_a_small_cap(k1_h4):
    assert len(k1_h4.vertices) == 2047
    r = matching_number(k1_h4, cap_nodes=2000)
    assert not r.exact and r.lower_bound == r.value >= 1


def test_transversal_on_the_k1_h4_hypergraph_matches_the_reference(k1_h4):
    r = transversal_number(k1_h4, cap_nodes=2000)
    assert not r.exact
    assert r == oracles.transversal_number_recursive(k1_h4, cap_nodes=2000)


@pytest.mark.parametrize("k,h", [(1, 3), (2, 3)])
def test_searches_match_the_references_on_golden_rows(k, h):
    g = _row_hypergraph(k, h)
    for cap in (5000, 40000):
        assert (transversal_number(g, cap_nodes=cap)
                == oracles.transversal_number_recursive(g, cap_nodes=cap))
        nu = matching_number(g, cap_nodes=cap)
        assert not nu.exact  # so the capped path is the one compared
        assert nu == oracles.matching_number_recursive(g, cap_nodes=cap)
    if (k, h) == (1, 3):
        # the default cap: the outcome the separation golden prints
        nu = matching_number(g)
        assert (nu.value, nu.exact) == (10, False)
        assert nu == oracles.matching_number_recursive(g)


@st.composite
def hypergraphs(draw):
    """1-10 vertices and 1-14 edges, some of them empty, disjoint or
    listed twice."""
    n = draw(st.integers(1, 10))
    subset = st.lists(st.booleans(), min_size=n, max_size=n).map(
        lambda bits: frozenset(v for v, b in enumerate(bits) if b))
    small = st.frozensets(st.integers(0, n - 1), max_size=3)
    pool = draw(st.lists(subset | small, min_size=1, max_size=14))
    edges = pool + draw(st.lists(st.sampled_from(pool),
                                 max_size=14 - len(pool)))
    return TriggerHypergraph(vertices=tuple(range(n)), edges=tuple(edges),
                             k=1)


def _outcome(search, g, cap):
    try:
        return search(g, cap_nodes=cap)
    except ParseError as e:
        return "ParseError: %s" % e


def _graph(n, *edges):
    return TriggerHypergraph(vertices=tuple(range(n)),
                             edges=tuple(frozenset(e) for e in edges), k=1)


@settings(max_examples=300, deadline=None)
@given(hypergraphs())
@example(_graph(1, [0]))
@example(_graph(4, [0], [1], [2], [3]))
@example(_graph(6, [0, 1], [2, 3], [4, 5], [0, 1], [1, 2, 4]))
@example(_graph(10, *([0, i] for i in range(1, 10))))
@example(_graph(3, [0, 1], [], [2]))
@example(_graph(7, [0], [0, 1, 2, 3, 4, 5], [0, 1, 2, 3, 4, 5, 6],
                [0, 1, 2, 4], [1, 3, 4, 5, 6], [1, 3, 5, 6], [2, 4, 6],
                [0, 1, 2, 3, 4, 5], [2, 5, 6], [0, 1, 2, 3, 4, 5, 6]))
# ν runs out at caps 4, 5, 11, 13 and 97 inside runs of blocked edges
@example(_graph(7, [1, 6], [0, 6], [4], [1], [1, 4, 6], [1, 5], [1, 3],
                [2, 4], [0]))
# ν runs out at caps 4, 5, 11 and 13 exactly on a take
@example(_graph(9, [1, 8], [2, 4], [1, 6, 7], [5, 6], [0, 6], [0]))
# ν runs out at caps 5, 11 and 13 exactly on a cut, with nodes left
@example(_graph(8, [2, 4], [1, 6], [1, 5, 7], [3, 6]))
# ν ends after exactly 13 nodes, a cut at the last one; cap 11 is a cut
@example(_graph(3, [1], [1, 2], [0], [0, 2]))
# τ runs out at caps 4, 5 and 11 on a bound cut and ends after 13 nodes
@example(_graph(8, [2, 5], [3, 4, 5], [0, 1, 2], [0, 6], [1, 7], [2, 6]))
# at a root cut τ returns the greedy cover: on a count tie the lower
# vertex wins, so it is {0, 2} and not {1, 3}
@example(_graph(4, [0, 1], [2, 3]))
# taking 0 leaves vertex 1 a stale heap entry of count 2, popped before
# vertex 2 of count 2; refreshed, it drops, and the cover is {0, 2}
@example(_graph(8, [0, 1], [0, 1, 4], [0, 5], [2, 6], [2, 7]))
def test_searches_match_the_recursive_references(g):
    for cap in (1, 2, 3, 4, 5, 7, 11, 13, 50, 97, 2 ** 20):
        assert (_outcome(transversal_number, g, cap)
                == _outcome(oracles.transversal_number_recursive, g, cap))
        assert (_outcome(matching_number, g, cap)
                == _outcome(oracles.matching_number_recursive, g, cap))


def test_tau_at_least_nu():
    rng = random.Random(74)
    for _ in range(25):
        f = oracles.random_clause_set(rng, max_n=4, max_c=5)
        for k in (0, 1, 2):
            g = trigger_of(f, k)
            tau = transversal_number(g)
            nu = matching_number(g)
            assert tau.exact and nu.exact
            assert tau.value >= nu.value


def test_matching_doped_extremal_tree():
    t = extremal_tree(1, 3)
    d = dope(tree_to_clauses(t))
    g = trigger_of(d.doped, 0)
    nu = matching_number(g)
    assert nu.exact and nu.value >= comb(4, 2)
    # level 0: singleton edges, so the matching saturates the vertices
    assert nu.value == len(g.vertices) == 2 ** 4 - 1


def test_sperner_witness_counts():
    assert len(sperner_witness(extremal_tree(1, 3), 0)) == 6
    assert len(sperner_witness(extremal_tree(2, 2), 1)) == 2
    with pytest.raises(ParseError):
        sperner_witness(extremal_tree(1, 2), 2)


def test_sperner_witness_incomparable_per_subtree():
    for k, h in ((0, 3), (0, 4), (1, 2), (1, 3), (2, 3)):
        t = extremal_tree(k + 1, h)
        sets = sperner_witness(t, k)
        assert len(sets) == extremal_sperner_bound(t, k)
        for a in sets:
            for b in sets:
                if a is b:
                    continue
                assert not (a <= b) and not (b <= a)


def test_sperner_witness_edges_pairwise_disjoint():
    for k, h in ((0, 2), (0, 3), (1, 2), (1, 3), (2, 3)):
        t = extremal_tree(k + 1, h)
        if len(leaf_paths(t)) > 8:
            continue
        d = dope(tree_to_clauses(t))
        g = trigger_of(d.doped, k)
        sets = sperner_witness(t, k)
        edges = []
        for v in sets:
            c = doped_clause_of_leafset(t, d, v)
            edges.append(g.edges[g.vertices.index(pack(c))])
        for i in range(len(edges)):
            for j in range(i + 1, len(edges)):
                assert not (edges[i] & edges[j])
        nu = matching_number(g)
        assert nu.value >= len(sets)


def test_min_equivalent_level0_is_prime_count():
    rng = random.Random(75)
    for _ in range(15):
        f = oracles.random_clause_set(rng, max_n=4, max_c=4)
        primes = unpack_set(prime_implicates(f))
        r = min_equivalent_of(f, 0)
        assert r.exact and r.size == len(primes)
        assert r.representative == primes


def test_min_equivalent_doped_horn_chain():
    from cnfkc.cli import build_horn_chain
    for h in (2, 3):
        d = build_horn_chain(h)
        r = min_equivalent_of(d.doped, 0)
        assert r.exact and r.size == 2 ** (h + 1) - 1


def test_min_equivalent_exhaustive_perfect_tree():
    t = extremal_tree(2, 2)
    d = dope(tree_to_clauses(t))
    g = trigger_of(d.doped, 1)
    tau = transversal_number(g)
    r = min_equivalent_of(d.doped, 1)
    assert r.exact
    assert r.size >= tau.value
    assert r.size == 5 and tau.value == 4
    assert equivalent(r.representative, d.doped)
    assert whd(r.representative) <= 1
    # the compiled form genuinely needs more clauses than the input
    assert r.size > len(d.doped)


def test_min_equivalent_heuristic_is_upper_bound():
    t = extremal_tree(2, 2)
    d = dope(tree_to_clauses(t))
    exact = min_equivalent_of(d.doped, 1)
    loose = greedy_whd_base(d.doped, 1)
    assert len(loose) >= exact.size
    assert equivalent(loose, d.doped)
    assert whd(loose) <= 1
    # one greedy sweep suffices: no single removal keeps both
    # equivalence and asymmetric width <= k
    cases = [(d.doped, 1)]
    rng = random.Random(87)
    for _ in range(12):
        f = oracles.random_clause_set(rng, max_n=4, max_c=5)
        cases += [(f, 1), (f, 2)]
    for f, k in cases:
        rep = greedy_whd_base(f, k)
        assert equivalent(rep, f) and whd(rep) <= k
        for c in rep:
            trial = rep - {c}
            assert not equivalent(trial, f) or whd(trial) > k


def test_min_equivalent_cap():
    # 127 primes, 7 essential, tau's lower bound 11: past the cap the
    # floor comes back flagged inexact, with no representative
    t = extremal_tree(2, 3)
    d = dope(tree_to_clauses(t))
    r = min_equivalent_of(d.doped, 1, cap_primes=18)
    assert not r.exact
    assert r.size == r.lower_bound == 11
    assert r.representative == frozenset()


def test_min_equivalent_returns_a_good_essential_core_past_the_cap():
    from cnfkc.cli import build_horn_chain
    f = build_horn_chain(3).doped
    primes = prime_implicates(f)
    r = min_equivalent_of(f, 1, cap_primes=0)
    assert len(primes) > len(f)
    assert r.exact and r.size == r.lower_bound == len(f)
    assert r.representative == f


def test_min_equivalent_forced_by_tau_ignores_the_cap():
    from cnfkc.cli import build_extremal_doped
    d = build_extremal_doped(0, 3)[1]
    r = min_equivalent_of(d.doped, 0, cap_primes=0)
    assert r.exact and r.size == r.lower_bound == 15
    assert r.representative == unpack_set(prime_implicates(d.doped))


def test_extremal_sperner_bound_values():
    assert extremal_sperner_bound(extremal_tree(1, 3), 0) == 6
    assert extremal_sperner_bound(extremal_tree(1, 4), 0) == 10
    assert extremal_sperner_bound(extremal_tree(2, 2), 1) == 2
    assert extremal_sperner_bound(extremal_tree(2, 3), 1) == 3


def test_hypergraph_json_deterministic():
    g = trigger_of(TRIG, 1)
    assert hypergraph_to_json(g) == hypergraph_to_json(
        trigger_of(TRIG, 1))
    assert '"k": 1' in hypergraph_to_json(g)
