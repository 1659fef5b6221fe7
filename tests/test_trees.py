import inspect
import random
import sys
from math import comb

from cnfkc.cli import main
from cnfkc.core import BOT, apply_assignment, clause, variables
from cnfkc.errors import IntegrityError, ParseError
from cnfkc.hardness import hd
from cnfkc.mpsdope import dope
from cnfkc.trees import (LEAF, Inner, clauses_to_tree, depth_subtrees,
                         doped_clause_of_leafset, extremal_tree, is_leaf,
                         leaf_paths, pure_of_leafset, tree_stats,
                         tree_to_clauses, tree_to_term)

import oracles
import pytest


def cs(*clauses):
    return frozenset(clause(c) for c in clauses)


# the six-clause worked tree: v1(v2(v3, v4), v5)
T6 = Inner(1,
           Inner(2, Inner(3, LEAF, LEAF), Inner(4, LEAF, LEAF)),
           Inner(5, LEAF, LEAF))

F6 = cs([1, 2, 3], [1, 2, -3], [1, -2, 4], [1, -2, -4], [-1, 5], [-1, -5])


def test_tree_stats_examples():
    st = tree_stats(T6)
    assert st.hs == 2 and st.height == 3
    assert st.leaves == 6 and st.nodes == 2 * 6 - 1
    assert tree_stats(LEAF) == tree_stats(LEAF)
    assert tree_stats(LEAF).hs == 0 and tree_stats(LEAF).height == 0
    perfect = extremal_tree(3, 3)
    assert tree_stats(perfect).hs == 3 and tree_stats(perfect).leaves == 8


def test_tree_to_clauses_example():
    assert tree_to_clauses(T6) == F6
    assert tree_to_clauses(Inner(1, LEAF, LEAF)) == cs([1], [-1])
    st = tree_stats(T6)
    assert len(F6) == st.leaves
    assert len(variables(F6)) == st.nodes - st.leaves


def test_roundtrip_example():
    assert clauses_to_tree(F6) == T6
    assert clauses_to_tree(cs([1], [-1])) == Inner(1, LEAF, LEAF)


def test_clauses_to_tree_rejects_unsaturated():
    from cnfkc.cli import build_g_n
    with pytest.raises(ParseError):
        clauses_to_tree(build_g_n(3))
    with pytest.raises(ParseError):
        clauses_to_tree(frozenset())


def test_roundtrip_random_corpus():
    rng = random.Random(61)
    for _ in range(200):
        t = oracles.random_tree(rng, rng.randint(1, 16))
        f = tree_to_clauses(t)
        assert clauses_to_tree(f) == t
        assert tree_to_clauses(clauses_to_tree(f)) == f


def test_apply_literal_example():
    # v2 -> 1 drops v2's left subtree, and its right one takes its place
    t2 = clauses_to_tree(apply_assignment({2: 1}, F6))
    assert t2 == Inner(1, Inner(4, LEAF, LEAF), Inner(5, LEAF, LEAF))
    assert tree_to_clauses(t2) == cs([1, 4], [1, -4], [-1, 5], [-1, -5])


def test_apply_literal_matches_instantiation():
    # instantiating a path clause-set at an inner variable, either way,
    # leaves a path clause-set
    rng = random.Random(62)
    for _ in range(60):
        f = tree_to_clauses(oracles.random_tree(rng, rng.randint(2, 10)))
        v = rng.choice(sorted(variables(f)))
        g = apply_assignment({v: rng.randint(0, 1)}, f)
        assert tree_to_clauses(clauses_to_tree(g)) == g


def test_apply_root_of_smallest():
    g = apply_assignment({1: 1}, tree_to_clauses(Inner(1, LEAF, LEAF)))
    assert g == frozenset([BOT])
    assert clauses_to_tree(g) is LEAF


def test_extremal_tree_shapes():
    assert tree_stats(extremal_tree(2, 3)).leaves == 7
    for k in (1, 2, 3):
        perfect = extremal_tree(k, k)
        st = tree_stats(perfect)
        assert st.hs == k and st.leaves == 2 ** k
    for h in (1, 2, 3, 4, 5):
        assert tree_stats(extremal_tree(1, h)).leaves == h + 1
    with pytest.raises(ParseError):
        extremal_tree(3, 2)
    with pytest.raises(ParseError):
        extremal_tree(0, 1)
    assert extremal_tree(0, 0) is LEAF


def test_deep_chain_tree_needs_no_recursion(capsys):
    # a chain of 400 inner nodes; the recursive helpers went one frame
    # per level and raised RecursionError under this limit
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        t = extremal_tree(1, 400)
        f = tree_to_clauses(t)
        paths = leaf_paths(t)
        term = tree_to_term(t)
        code = main(["generate", "--family", "extremal_doped", "--k", "0",
                     "--h", "400"])
    finally:
        sys.setrecursionlimit(limit)
    want = "."
    for v in range(400, 0, -1):
        want = "(%d %s .)" % (v, want)
    assert term == want
    assert list(paths) == ["0" * 400] + ["0" * i + "1"
                                         for i in range(399, -1, -1)]
    assert paths["0" * 400] == frozenset(range(1, 401))
    assert paths["001"] == frozenset([1, 2, -3])
    assert f == frozenset(paths.values())
    assert code == 0
    assert capsys.readouterr().out.count(" 0\n") == 401


def test_extremal_tree_measures():
    for k in (1, 2, 3):
        for h in range(k, 6):
            t = extremal_tree(k, h)
            st = tree_stats(t)
            assert st.hs == k and st.height == h
            # alpha(k, h): the sum of C(h, i) over i <= k
            assert st.leaves == sum(comb(h, i) for i in range(k + 1))


def test_alpha_values():
    assert tree_stats(extremal_tree(2, 3)).leaves == 7
    assert tree_stats(extremal_tree(0, 0)).leaves == 1
    for k in range(1, 6):
        assert tree_stats(extremal_tree(k, k)).leaves == 2 ** k


def test_pure_of_leafset_example():
    # leaves numbered left to right; the worked subset is {1,3,4,7}
    t = Inner(1,
              Inner(2, Inner(3, LEAF, LEAF), Inner(4, LEAF, LEAF)),
              Inner(5, Inner(6, LEAF, LEAF), LEAF))
    addr = sorted(leaf_paths(t))
    v = {addr[0], addr[2], addr[3], addr[6]}
    assert pure_of_leafset(t, v) == clause([3, -5])
    # a single leaf gives its own path clause
    paths = leaf_paths(t)
    for a, c in paths.items():
        assert pure_of_leafset(t, {a}) == c
    # all leaves of a branching tree leave nothing pure
    assert pure_of_leafset(t, set(paths)) == BOT


def test_pure_of_leafset_matches_pure_clause():
    from cnfkc.mpsdope import pure_clause
    rng = random.Random(63)
    for _ in range(40):
        t = oracles.random_tree(rng, rng.randint(2, 8))
        paths = leaf_paths(t)
        addrs = rng.sample(sorted(paths), rng.randint(1, len(paths)))
        sub = frozenset(paths[a] for a in addrs)
        assert pure_of_leafset(t, addrs) == pure_clause(sub)


def test_doped_clause_of_leafset_example():
    t = Inner(1, Inner(2, LEAF, LEAF), Inner(3, LEAF, LEAF))
    d = dope(tree_to_clauses(t))
    addr = sorted(leaf_paths(t))
    cv = doped_clause_of_leafset(t, d, [addr[0], addr[2]])
    inverse = {c: u for u, c in d.doping_map.items()}
    u1 = inverse[clause([1, 2])]
    u3 = inverse[clause([-1, 3])]
    assert cv == frozenset([2, 3, u1, u3])


def test_doped_leafsets_enumerate_primes():
    from cnfkc.primes import prime_implicates
    import itertools
    rng = random.Random(64)
    for _ in range(10):
        t = oracles.random_tree(rng, rng.randint(2, 6))
        d = dope(tree_to_clauses(t))
        addrs = sorted(leaf_paths(t))
        generated = set()
        for r in range(1, len(addrs) + 1):
            for combo in itertools.combinations(addrs, r):
                generated.add(doped_clause_of_leafset(t, d, combo))
        assert generated == set(prime_implicates(d.doped))


def test_full_clause_iff_hs_at_most_1():
    rng = random.Random(65)
    for _ in range(60):
        t = oracles.random_tree(rng, rng.randint(1, 10))
        f = tree_to_clauses(t)
        has_full = any(variables([c]) == variables(f) for c in f)
        assert has_full == (tree_stats(t).hs <= 1)


def test_depth_subtrees():
    subs = depth_subtrees(T6, 1)
    assert [p for p, _ in subs] == ["0", "1"]
    assert tree_stats(subs[0][1]).leaves == 4
    with pytest.raises(ParseError):
        depth_subtrees(extremal_tree(1, 1), 2)


def test_serialization():
    assert tree_to_term(Inner(1, LEAF, LEAF)) == "(1 . .)"
    assert tree_to_term(LEAF) == "."


def test_duplicate_labels_rejected():
    bad = Inner(1, Inner(1, LEAF, LEAF), LEAF)
    with pytest.raises(ParseError):
        tree_to_clauses(bad)


def test_shared_path_clause_is_an_integrity_error(monkeypatch):
    # unreachable through _check_labels, so fake the paths
    import cnfkc.trees
    monkeypatch.setattr(cnfkc.trees, "leaf_paths",
                        lambda t: {"0": clause([1]), "1": clause([1])})
    with pytest.raises(IntegrityError) as err:
        tree_to_clauses(Inner(1, LEAF, LEAF))
    assert err.value.exit_code == 4
    assert err.value.witness == {"clause": [1], "leaves": ["0", "1"]}


def test_hd_equals_hs_small():
    rng = random.Random(67)
    for _ in range(20):
        t = oracles.random_tree(rng, rng.randint(1, 10))
        f = tree_to_clauses(t)
        assert hd(f) == tree_stats(t).hs
