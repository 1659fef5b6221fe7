import random

from cnfkc.core import BOT, clause, pack, pack_set, unpack_set, variables
from cnfkc.errors import CapExceededError
from cnfkc.hardness import hd
from cnfkc.mpsdope import (classify_mu, dope, is_mps_packed, mps_enumerate,
                           mps_via_doping, pure_clause, undope_prime)
from cnfkc.primes import implies, prime_implicates
from cnfkc.trees import tree_to_clauses

import oracles
import pytest


def cs(*clauses):
    return frozenset(clause(c) for c in clauses)


def test_pure_clause_examples():
    assert pure_clause(cs([1, 2], [-1, -3])) == clause([2, -3])
    assert pure_clause(frozenset()) == BOT
    assert pure_clause(cs([1], [-1])) == BOT


def test_classify_mu_examples():
    from cnfkc.cli import build_g_n
    flags = classify_mu(build_g_n(3))
    assert flags.mu and not flags.smu
    flags = classify_mu(cs([1], [-1]))
    assert flags.smu_delta1
    rng = random.Random(41)
    for _ in range(20):
        t = oracles.random_tree(rng, rng.randint(2, 8))
        assert classify_mu(tree_to_clauses(t)).smu_delta1


def test_is_mps_examples():
    assert not is_mps_packed(pack_set(cs([1], [2])))[0]
    assert not is_mps_packed(pack_set(cs([-1, 2], [-2, 3], [-3, 1])))[0]
    ok, pure = is_mps_packed(pack_set(cs([1, 2], [-1, 2], [-2])))
    assert ok and pure == pack(BOT)
    ok, pure = is_mps_packed(pack_set(cs([1, 2], [-1, 2])))
    assert ok and pure == pack(clause([2]))


def test_mps_enumerate_gn_count():
    from cnfkc.cli import build_g_n
    for n in (2, 3, 4):
        fam = mps_enumerate(build_g_n(n))
        assert len(fam.members) == 2 ** n + n


def test_mps_singletons_always_members():
    rng = random.Random(42)
    for _ in range(30):
        f = oracles.random_clause_set(rng, max_n=4, max_c=4)
        fam = mps_enumerate(f)
        for c in f:
            assert frozenset([c]) in fam.members
            assert fam.members[frozenset([c])] == c


def test_smu_tree_all_subsets_are_mps():
    rng = random.Random(43)
    for _ in range(10):
        t = oracles.random_tree(rng, rng.randint(2, 5))
        f = tree_to_clauses(t)
        fam = mps_enumerate(f)
        assert len(fam.members) == 2 ** len(f) - 1


def test_dope_invariants():
    assert dope(frozenset()).doped == frozenset()
    d = dope(cs([5]))
    assert d.doped == cs([5, 6])
    rng = random.Random(44)
    for _ in range(40):
        f = oracles.random_clause_set(rng)
        d = dope(f)
        assert len(d.doped) == len(f)
        assert len(variables(d.doped)) == len(variables(f)) + len(f)
        for u, c in d.doping_map.items():
            assert (c | {u}) in d.doped
        assert pure_clause(d.doped) == pure_clause(f) | frozenset(
            d.doping_map)


def test_dope_gn_measures():
    from cnfkc.cli import build_g_n
    from cnfkc.core import measures
    for n in (2, 3, 4):
        m = measures(dope(build_g_n(n)).doped)
        assert m.n == 2 * n + 1 and m.c == n + 1


def test_bijection_roundtrip_corpus():
    rng = random.Random(45)
    for _ in range(60):
        f = oracles.random_clause_set(rng, max_n=4, max_c=5)
        assert mps_via_doping(f).members == mps_enumerate(f).members


def test_undope_prime():
    d = dope(cs([1, 2], [-1, 2]))
    for p in unpack_set(prime_implicates(d.doped)):
        member, pure = undope_prime(p, d.doping_map)
        assert member and member <= d.base
        assert pure == pure_clause(member)


def test_stripping_doped_primes_covers_primes():
    # every doped prime minus its doping variables is an implicate of the
    # base, and together they subsume every base prime
    rng = random.Random(46)
    for _ in range(25):
        f = oracles.random_clause_set(rng, max_n=4, max_c=4)
        d = dope(f)
        stripped = set()
        for p in unpack_set(prime_implicates(d.doped)):
            _, pure = undope_prime(p, d.doping_map)
            stripped.add(pure)
            assert implies(f, pure)
        for c in unpack_set(prime_implicates(f)):
            assert any(s <= c for s in stripped)


def test_hd_doping_is_max_over_subsets():
    rng = random.Random(47)
    import itertools
    for _ in range(10):
        f = oracles.random_clause_set(rng, max_n=4, max_c=4)
        d = dope(f)
        best = 0
        order = sorted(f, key=len)
        for r in range(len(order) + 1):
            for combo in itertools.combinations(order, r):
                best = max(best, hd(frozenset(combo)))
        assert hd(d.doped) == best


def test_is_total_mps_examples():
    # total: every non-empty subset is a minimal premise set
    def total(f):
        return len(mps_enumerate(f).members) == 2 ** len(f) - 1

    assert total(cs([1, 2], [-1, 2], [-2]))
    assert not total(cs([1, 2], [-1], [-2]))
    rng = random.Random(48)
    for _ in range(10):
        t = oracles.random_tree(rng, rng.randint(2, 6))
        f = tree_to_clauses(t)
        assert total(f)
        assert total(dope(f).doped)


def test_has_max_doped_primes():
    rng = random.Random(49)
    for _ in range(10):
        t = oracles.random_tree(rng, rng.randint(2, 5))
        f = tree_to_clauses(t)
        assert (len(prime_implicates(dope(f).doped))
                == 2 ** len(f) - 1)


def test_members_imply_pure_minimally():
    rng = random.Random(50)
    for _ in range(20):
        f = oracles.random_clause_set(rng, max_n=4, max_c=4)
        fam = mps_enumerate(f)
        for member, pure in fam.members.items():
            assert implies(member, pure)
            for c in member:
                assert not implies(member - {c}, pure)


def test_mps_enumerate_cap():
    f = frozenset(clause([v]) for v in range(1, 20))
    with pytest.raises(CapExceededError):
        mps_enumerate(f)
