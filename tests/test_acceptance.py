"""Acceptance gate: ten end-to-end criteria, one printed line each.

Every criterion re-derives its expected values through the public API
(plus the naive oracles in oracles.py) rather than trusting any cached
intermediate result.  A criterion prints exactly one PASS/FAIL line;
details of any failure follow on extra lines before the assert fires.
"""

import math
import random

from cnfkc.cli import build_g_n, build_horn_chain, separation_row
from cnfkc.compile import answer_query, k_base
from cnfkc.core import (BOT, apply_assignment, clause, pack, unpack,
                        unpack_set, variables)
from cnfkc.hardness import hd, whd, wid
from cnfkc.mpsdope import (dope, mps_enumerate, mps_via_doping, pure_clause)
from cnfkc.primes import prime_implicates
from cnfkc.propagation import sat_oracle
from cnfkc.trees import (LEAF, Inner, clauses_to_tree,
                         doped_clause_of_leafset, extremal_tree, leaf_paths,
                         pure_of_leafset, tree_stats, tree_to_clauses)
from cnfkc.trigger import (matching_number, sperner_witness,
                           transversal_number, trigger_hypergraph)

import oracles
from references import equivalent, min_equivalent_of, smallest_hd_base


def cs(*clauses):
    return frozenset(clause(c) for c in clauses)


# the recurring six-clause worked tree: v1(v2(v3, v4), v5)
WORKED_TREE = Inner(1,
                    Inner(2, Inner(3, LEAF, LEAF), Inner(4, LEAF, LEAF)),
                    Inner(5, LEAF, LEAF))
WORKED_CLAUSES = cs([1, 2, 3], [1, 2, -3], [1, -2, 4], [1, -2, -4],
                    [-1, 5], [-1, -5])

DIFF = cs([2, 3, 4], [-4, 2], [-2, 1, 5], [-5, -2], [-3, 1, 6], [-6, -3],
          [7, 8, 9], [-9, 7], [-7, -1, 10], [-10, -7], [-8, -1, 11],
          [-11, -8])


def report(num, name, failures):
    line = "criterion %2d (%s): %s" % (
        num, name, "FAIL" if failures else "PASS")
    print(line)
    for detail in failures:
        print("    " + detail)
    assert not failures, line


def check(failures, ok, detail):
    if not ok:
        failures.append(detail)


def test_criterion_1_worked_examples():
    failures = []
    check(failures,
          pure_clause(cs([1, 2], [-1, -3])) == clause([2, -3]),
          "pure clause of the two-clause example")
    st = tree_stats(WORKED_TREE)
    check(failures, st.hs == 2 and st.height == 3,
          "worked tree branching number / height")
    check(failures, tree_to_clauses(WORKED_TREE) == WORKED_CLAUSES,
          "worked tree clause-set")
    t2 = clauses_to_tree(apply_assignment({2: 1}, WORKED_CLAUSES))
    check(failures,
          tree_to_clauses(t2) == cs([1, 4], [1, -4], [-1, 5], [-1, -5]),
          "instantiation of the worked tree at variable 2")
    seven = Inner(1,
                  Inner(2, Inner(3, LEAF, LEAF), Inner(4, LEAF, LEAF)),
                  Inner(5, Inner(6, LEAF, LEAF), LEAF))
    addr = sorted(leaf_paths(seven))
    picked = [addr[0], addr[2], addr[3], addr[6]]
    check(failures, pure_of_leafset(seven, picked) == clause([3, -5]),
          "pure clause of the four-leaf subset")
    small = Inner(1, Inner(2, LEAF, LEAF), Inner(3, LEAF, LEAF))
    d = dope(tree_to_clauses(small))
    inverse = {c: u for u, c in d.doping_map.items()}
    u1 = inverse[clause([1, 2])]
    u3 = inverse[clause([-1, 3])]
    addr = sorted(leaf_paths(small))
    cv = doped_clause_of_leafset(small, d, [addr[0], addr[2]])
    check(failures, cv == frozenset([2, 3, u1, u3]),
          "doped clause of the two-leaf subset")
    report(1, "worked examples", failures)


def test_criterion_2_hardness_witnesses():
    failures = []
    check(failures, whd(DIFF) == 2, "asymmetric width of the 12-clause set")
    check(failures, hd(DIFF) == 3, "hardness of the 12-clause set")
    rng = random.Random(101)
    for _ in range(25):
        h = rng.randint(2, 4)
        names = rng.sample(range(1, 10), h)
        f = [clause([names[0]])]
        for i in range(1, h):
            f.append(clause([-v for v in names[:i]] + [names[i]]))
        f.append(clause([-v for v in names]))
        f = frozenset(f)
        check(failures, not sat_oracle(f)[0], "Horn instance satisfiable")
        check(failures, whd(f) <= 1, "Horn instance width above 1")
        check(failures, wid(f) == max(len(c) for c in f),
              "Horn symmetric width vs max clause length")
    report(2, "hardness witnesses", failures)


def test_criterion_3_doped_prime_counts():
    failures = []
    rng = random.Random(102)
    shapes = {c: [] for c in range(2, 9)}
    for c in (2, 3, 4):
        seen = set()
        while len(seen) < (1, 2, 5)[c - 2]:
            t = oracles.random_tree(rng, c)
            seen.add(t)
        shapes[c] = sorted(seen, key=repr)
    for c in (5, 6, 7, 8):
        shapes[c] = [oracles.random_tree(rng, c) for _ in range(4)]
    for c, trees in shapes.items():
        for t in trees:
            d = dope(tree_to_clauses(t))
            count = len(prime_implicates(d.doped))
            check(failures, count == 2 ** c - 1,
                  "doped tree with %d clauses has %d primes" % (c, count))
    for n in (2, 3, 4, 5, 6):
        g = build_g_n(n)
        mps_count = len(mps_enumerate(g).members)
        prime_count = len(prime_implicates(dope(g).doped))
        check(failures, mps_count == 2 ** n + n,
              "minimal-premise count for the %d-unit family" % n)
        check(failures, prime_count == 2 ** n + n,
              "doped prime count for the %d-unit family" % n)
    report(3, "doped prime counts", failures)


def test_criterion_4_bijection_roundtrips():
    failures = []
    rng = random.Random(103)
    for i in range(200):
        f = oracles.random_clause_set(rng, max_n=5, max_c=10)
        if mps_via_doping(f).members != mps_enumerate(f).members:
            failures.append("route mismatch on corpus instance %d" % i)
    rng = random.Random(104)
    for i in range(200):
        t = oracles.random_tree(rng, rng.randint(1, 16))
        f = tree_to_clauses(t)
        if clauses_to_tree(f) != t or tree_to_clauses(clauses_to_tree(f)) != f:
            failures.append("tree roundtrip mismatch on instance %d" % i)
    report(4, "bijection roundtrips", failures)


def test_criterion_5_hardness_equals_branching_number():
    failures = []
    rng = random.Random(105)
    # hardness of the tree clause-set itself, up to 16 leaves
    pool = [oracles.random_tree(rng, rng.randint(2, 16)) for _ in range(25)]
    pool += [extremal_tree(k + 1, h)
             for k in (0, 1, 2) for h in range(k + 1, 6)]
    for t in pool:
        st = tree_stats(t)
        f = tree_to_clauses(t)
        got = hd(f, primes=prime_implicates(f))
        check(failures, got == st.hs,
              "tree hardness %d vs branching number %d (%d leaves)"
              % (got, st.hs, st.leaves))
    # the doped version, capped at 8 leaves (2^8 - 1 primes already)
    for t in pool:
        st = tree_stats(t)
        if st.leaves > 8:
            continue
        d = dope(tree_to_clauses(t))
        got = hd(d.doped)
        check(failures, got == st.hs,
              "doped tree hardness %d vs branching number %d" % (got, st.hs))
    report(5, "hardness equals tree branching number", failures)


def test_criterion_6_trigger_suite():
    failures = []
    f = cs([1, -3, -4], [2, 3, -4], [2, -3, 4], [-2, 3, 4], [1, 3, 4],
           [1, 2])
    primes = prime_implicates(f)
    check(failures, unpack_set(primes) == f, "six-clause set self-prime")
    g1 = trigger_hypergraph(primes, 1)
    g2 = trigger_hypergraph(primes, 2)
    short = g1.vertices.index(pack(clause([1, 2])))
    check(failures, g1.edges[short] == frozenset([short]),
          "level-1 edge of the short clause")
    expect = cs([1, -3, -4], [2, 3, -4], [2, -3, 4], [1, 3, 4], [1, 2])
    check(failures,
          {unpack(g2.vertices[i]) for i in g2.edges[short]} == expect,
          "level-2 edge of the short clause")
    for k in (3, 4):
        check(failures, trigger_hypergraph(primes, k).edges == g2.edges,
              "level-%d hypergraph equals level 2" % k)
    rng = random.Random(106)
    for _ in range(20):
        h = oracles.random_clause_set(rng, max_n=4, max_c=5)
        for k in (0, 1, 2):
            g = trigger_hypergraph(prime_implicates(h), k)
            tau = transversal_number(g)
            nu = matching_number(g)
            check(failures, tau.exact and nu.exact and tau.value >= nu.value,
                  "transversal below matching on a random hypergraph")
    report(6, "trigger hypergraph suite", failures)


def test_criterion_7_matching_floor_rows():
    failures = []
    for k, h in ((0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (2, 3)):
        row = separation_row(k, h)
        floor = math.comb(1 + h - k, (1 + h - k) // 2)
        check(failures, row.sperner_bound == floor,
              "row (%d,%d) floor %d vs %d" % (k, h, row.sperner_bound, floor))
        check(failures, row.nu_k >= floor,
              "row (%d,%d) matching %d below floor %d"
              % (k, h, row.nu_k, floor))
        check(failures, row.hd == k + 1,
              "row (%d,%d) hardness %d" % (k, h, row.hd))
        # separation_row itself verifies the witness edges are pairwise
        # disjoint and raises otherwise; re-check one row independently
    t = extremal_tree(1, 3)
    d = dope(tree_to_clauses(t))
    g = trigger_hypergraph(prime_implicates(d.doped), 0)
    sets = sperner_witness(t, 0)
    edges = [g.edges[g.vertices.index(pack(
        doped_clause_of_leafset(t, d, sorted(v))))] for v in sets]
    for i in range(len(edges)):
        for j in range(i):
            check(failures, not (edges[i] & edges[j]),
                  "witness edges %d,%d overlap" % (j, i))
    report(7, "matching-number floors", failures)


def test_criterion_8_compilation_size_gap():
    failures = []
    d = dope(tree_to_clauses(extremal_tree(2, 2)))
    tau = transversal_number(
        trigger_hypergraph(prime_implicates(d.doped), 1))
    me = min_equivalent_of(d.doped, 1)
    check(failures, me.exact, "perfect-tree search inexact")
    check(failures, me.size >= tau.value,
          "minimum size %d below transversal %d" % (me.size, tau.value))
    check(failures, me.size > len(d.doped),
          "minimum size %d not above input size %d"
          % (me.size, len(d.doped)))
    for h in (3, 4, 5):
        dh = build_horn_chain(h)
        me = min_equivalent_of(dh.doped, 0)
        check(failures, me.exact and me.size == 2 ** (h + 1) - 1,
              "chain h=%d width-0 minimum %d" % (h, me.size))
        check(failures, len(dh.doped) == h + 1,
              "chain h=%d input size" % h)
    report(8, "exponential compilation size gap", failures)


def test_criterion_9_oracle_equivalences():
    failures = []
    rng = random.Random(107)
    for i in range(40):
        f = oracles.random_clause_set(rng, max_n=5, max_c=6)
        if hd(f) != oracles.hd_by_definition(f):
            failures.append("hardness oracle mismatch on instance %d" % i)
        if (unpack_set(prime_implicates(f))
                != oracles.prime_implicates_bruteforce(f)):
            failures.append("prime oracle mismatch on instance %d" % i)
        k = whd(f)
        sat = oracles.satisfiable_tt(f)
        if answer_query("CO", f, k) != sat:
            failures.append("CO mismatch on instance %d" % i)
        c = clause(v * rng.choice((1, -1))
                   for v in rng.sample(range(1, 6), 2))
        if answer_query("CE", f, k, clause=c) != oracles.implies_tt(f, c):
            failures.append("CE mismatch on instance %d" % i)
        valid = len(oracles.models_tt(f)) == 2 ** len(variables(f))
        if answer_query("VA", f, k) != valid:
            failures.append("VA mismatch on instance %d" % i)
        phi = {v: rng.randint(0, 1) for v in sorted(variables(f))}
        implicant = oracles.satisfies(phi, f)
        if answer_query("IM", f, k, assignment=phi) != implicant:
            failures.append("IM mismatch on instance %d" % i)
        g = oracles.random_clause_set(rng, max_n=5, max_c=4)
        se = all(oracles.implies_tt(f, c) for c in g)
        if answer_query("SE", f, k, other=g) != se:
            failures.append("SE mismatch on instance %d" % i)
        eq = se and all(oracles.implies_tt(g, c) for c in f)
        if answer_query("EQ", f, k, other=g) != eq:
            failures.append("EQ mismatch on instance %d" % i)
        if BOT not in f:
            found = answer_query("ME", f, k)
            if sorted(found, key=sorted) != sorted(
                    oracles.models_tt(f), key=sorted):
                failures.append("ME mismatch on instance %d" % i)
    report(9, "oracle equivalences", failures)


def test_criterion_10_base_compilation_sanity():
    failures = []
    for h in (2, 3, 4):
        d = build_horn_chain(h)
        primes = prime_implicates(d.doped)
        base = k_base(primes, 1)
        check(failures, base.clauses == d.doped,
              "chain h=%d base differs from the chain itself" % h)
        exact = smallest_hd_base(primes, 1, 18)
        check(failures, exact == d.doped,
              "chain h=%d exhaustive minimum differs" % h)
    rng = random.Random(108)
    for _ in range(15):
        f = oracles.random_clause_set(rng, max_n=4, max_c=5)
        primes = prime_implicates(f)
        for k in (1, 2):
            base = k_base(primes, k)
            ok = equivalent(base.clauses, f) and hd(base.clauses) <= k
            for c in base.clauses:
                trial = base.clauses - {c}
                ok = ok and (not equivalent(trial, f) or hd(trial) > k)
            check(failures, ok, "base invariants broken on a random input")
    report(10, "base compilation sanity", failures)
